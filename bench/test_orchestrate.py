#!/usr/bin/env python3
"""Tests for the bench harness, bench/orchestrate.py.

    python3 bench/test_orchestrate.py              # every case
    python3 bench/test_orchestrate.py --list       # case names, one a line
    python3 bench/test_orchestrate.py OrchestratorConfig.RejectsUnknownKeys

CTest registers each case under the name --list prints. The cases that run
the real simulator take venn_sim_cli from $VENN_HARNESS_BIN_DIR (default:
this checkout's build/) and are skipped when it is not built.
"""
import contextlib
import io
import json
import os
import re
import signal
import sys
import tempfile
import unittest

import orchestrate
from orchestrate import ConfigError, parse_config

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
BIN_DIR = os.environ.get("VENN_HARNESS_BIN_DIR", os.path.join(REPO, "build"))
HAVE_CLI = os.access(os.path.join(BIN_DIR, "venn_sim_cli"), os.X_OK)

SMALL = {
    "name": "exp", "jobs": 3,
    "matrix": {
        "binary": "venn_sim_cli", "common_args": ["--devices=100"],
        "scenarios": [{"name": "a", "args": ["--churn=weibull"]},
                      {"name": "b"}],
        "policies": ["venn", "fifo"], "protocols": ["sync"], "seeds": [1, 2]},
    "benches": [{"name": "fig", "binary": "fig_bin", "args": ["--x=1"]},
                {"name": "opt", "optional": True}],
}


class Scratch(unittest.TestCase):
    """A fresh directory per test: bin/ for stub binaries, out/ for runs."""

    def setUp(self):
        tmp = tempfile.TemporaryDirectory(prefix="venn_orch_")
        self.addCleanup(tmp.cleanup)
        self.dir = tmp.name

    def path(self, *parts):
        return os.path.join(self.dir, *parts)

    def write(self, rel, text, mode=0o644):
        path = self.path(rel)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
        os.chmod(path, mode)
        return path

    def read(self, *parts):
        with open(self.path(*parts), encoding="utf-8") as f:
            return f.read()

    def stub(self, name, script):
        self.write(os.path.join("bin", name), f"#!/bin/sh\n{script}\n", 0o755)

    def doc(self, **keys):
        return {"out_root": self.path("out"), "bin_dir": self.path("bin"),
                **keys}

    def main(self, doc, *flags):
        """orchestrate.main on `doc` written to a file: (exit, out, err)."""
        config = self.write("config.json", json.dumps(doc))
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = orchestrate.main(["--config", config, *flags])
        return code, out.getvalue(), err.getvalue()


class OrchestratorJson(unittest.TestCase):
    def testRejectsMalformedDocuments(self):
        for text in ('{"a": }', "[1, 2,]", '{"a": 1} trailing',
                     '{"a": 1, "a": 2}', '"unterminated', "01e999",
                     '{"a": NaN}', '{"a": 1e999}', ""):
            with self.subTest(text=text), self.assertRaises(ValueError):
                orchestrate.parse_json(text)
        # In a config it is a config error that names the file.
        with self.assertRaisesRegex(ConfigError,
                                    '^cfg.json: duplicate key "name"'):
            parse_config('{"name": "a", "name": "b"}', "cfg.json")


class OrchestratorConfig(Scratch):
    def testExpandsMatrixAndBenches(self):
        cfg = parse_config(json.dumps(self.doc(**SMALL)), "test")
        self.assertEqual((cfg.name, cfg.jobs), ("exp", 3))
        # 2 scenarios x 2 policies x 1 protocol x 2 seeds + 2 benches.
        self.assertEqual(len(cfg.runs), 8 + 2)
        first = cfg.runs[0]
        self.assertEqual((first.id, first.kind), ("a-venn-sync-s1", "matrix"))
        self.assertEqual(first.cmd, [
            self.path("bin", "venn_sim_cli"), "--devices=100",
            "--churn=weibull", "--policy=venn", "--protocol=sync",
            "--seed=1"])
        self.assertEqual(first.dir, self.path("out", "exp", "runs",
                                              "a-venn-sync-s1"))
        self.assertEqual(first.tags, {"scenario": "a", "policy": "venn",
                                      "protocol": "sync", "seed": 1})
        self.assertEqual([r.id for r in cfg.runs[1:4]],
                         ["a-venn-sync-s2", "a-fifo-sync-s1",
                          "a-fifo-sync-s2"])
        bench, opt = cfg.runs[8:]
        self.assertEqual((bench.id, bench.kind, bench.optional, bench.tags),
                         ("fig", "bench", False, {}))
        self.assertEqual(bench.cmd, [self.path("bin", "fig_bin"), "--x=1"])
        # The binary defaults to the bench's name.
        self.assertEqual((opt.cmd, opt.optional),
                         ([self.path("bin", "opt")], True))
        # Defaults: one "default" scenario, venn, sync, seed 42.
        cfg = parse_config('{"name": "d", "matrix": {"binary": "b"}}', "t")
        self.assertEqual([r.id for r in cfg.runs], ["default-venn-sync-s42"])
        self.assertEqual((cfg.out_root, cfg.bin_dir, cfg.jobs),
                         ("bench_runs", "build", 2))

    def testRejectsUnknownKeys(self):
        # Top level, matrix, scenario entry and bench entry each reject an
        # unknown key by name.
        for doc, key in (
                ({"name": "x", "benches": [{"name": "b"}], "jbos": 2},
                 "jbos"),
                ({"name": "x", "matrix": {"binary": "b",
                                          "polices": ["venn"]}}, "polices"),
                ({"name": "x", "matrix": {"binary": "b", "scenarios": [
                    {"name": "s", "arg": []}]}}, "arg"),
                ({"name": "x", "benches": [{"name": "b", "option": True}]},
                 "option")):
            with self.subTest(key=key):
                with self.assertRaisesRegex(ConfigError,
                                            f'unknown key "{key}"'):
                    parse_config(json.dumps(doc), "test")
                # The command line exits 2 and names it, running nothing.
                code, out, err = self.main(doc)
                self.assertEqual((code, out), (2, ""))
                self.assertIn(f'unknown key "{key}"', err)
                self.assertFalse(os.path.exists(self.path("out")))

    def testRejectsMalformedMatrix(self):
        for doc, message in (
                ({"matrix": {"seeds": [1]}}, 'missing "binary"'),
                ({"matrix": {"binary": "b", "policies": "venn"}},
                 "matrix.policies: expected an array of strings"),
                ({"matrix": {"binary": "b", "seeds": ["one"]}},
                 "matrix.seeds: expected an array of numbers"),
                ({"matrix": {"binary": "b", "seeds": [1.5]}},
                 "non-negative integers"),
                ({"matrix": {"binary": "b", "seeds": [-1]}},
                 "non-negative integers"),
                ({"matrix": {"binary": "b", "policies": []}},
                 "axes must not be empty"),
                ({"matrix": {"binary": "b", "seeds": []}},
                 "axes must not be empty"),
                ({"matrix": {"binary": 7}}, "matrix.binary: expected"),
                ({"matrix": []}, "config.matrix: expected an object"),
                ({"jobs": True, "benches": [{"name": "b"}]}, "config.jobs"),
                ({"jobs": 0, "benches": [{"name": "b"}]}, "[1, 256]"),
                ({"bin_dir": "", "benches": [{"name": "b"}]},
                 "bin_dir must not be empty"),
                ({"benches": [{"name": "b", "optional": "yes"}]},
                 "benches.optional: expected a boolean"),
                ({"benches": {"name": "b"}}, "config.benches: expected"),
                # Path-walking ids are refused before any directory exists.
                ({"matrix": {"binary": "b", "scenarios": [
                    {"name": "../evil"}]}}, '"../evil"'),
                ({"benches": [{"name": ".."}]}, '".."'),
                ({}, "defines no runs"),
                ({"benches": [{"name": "b"}, {"name": "b"}]},
                 'duplicate run id "b"'),
                ({"matrix": {"binary": "b", "seeds": [1]},
                  "benches": [{"name": "default-venn-sync-s1"}]},
                 "duplicate run id")):
            with self.subTest(message=message):
                with self.assertRaisesRegex(ConfigError, re.escape(message)):
                    parse_config(json.dumps({"name": "x", **doc}), "test")
        with self.assertRaisesRegex(ConfigError, 'missing "name"'):
            parse_config('{"benches": [{"name": "b"}]}', "test")
        with self.assertRaisesRegex(ConfigError, "must be a JSON object"):
            parse_config("[]", "test")


class OrchestratorResumeTest(Scratch):
    def testSkipDecisionsAgainstStaleVsMatchingMeta(self):
        cmd = ["/bin/echo", "--a=1", "--b=2"]
        run = orchestrate.Run("r", "bench", cmd, self.path("r"))

        def meta(recorded, exit_code):
            self.write("r/meta.json",
                       json.dumps({"cmd": recorded, "exit_code": exit_code}))
            return orchestrate.resume_satisfied(run)

        self.assertFalse(orchestrate.resume_satisfied(run))  # no meta: run
        self.assertTrue(meta(cmd, 0))  # same command, exit 0: skip
        self.assertFalse(meta(cmd, 1))  # prior failure: redo
        self.assertFalse(meta(cmd, False))  # not an exit code: redo
        self.assertFalse(meta(["/bin/echo", "--a=1", "--b=3"], 0))  # stale
        self.assertFalse(meta(["/bin/echo", "--a=1"], 0))  # arg dropped
        self.assertFalse(meta(cmd + ["--c"], 0))  # arg added
        self.write("r/meta.json", '{"cmd": [')  # unparsable: never trust it
        self.assertFalse(orchestrate.resume_satisfied(run))
        self.write("r/meta.json", "[]")
        self.assertFalse(orchestrate.resume_satisfied(run))


class OrchestratorPlanTest(Scratch):
    def testRendersPlanWithCommandsAndResumeDecisions(self):
        doc = self.doc(**SMALL)
        cfg = parse_config(json.dumps(doc), "test")
        plan = orchestrate.render_plan(cfg, 3, resume=False)
        lines = plan.splitlines()
        # Header with the run count and the bound on concurrency.
        self.assertEqual(lines[0], "experiment exp: 10 runs, jobs=3")
        self.assertEqual(len(lines), 11)
        # Full command with the resolved absolute binary.
        self.assertEqual(lines[1], "  a-venn-sync-s1: "
                         f"{self.path('bin', 'venn_sim_cli')} --devices=100 "
                         "--churn=weibull --policy=venn --protocol=sync "
                         "--seed=1")
        self.assertNotIn("[skip, resume]", plan)

        # With --resume and a completed matching run on disk, the plan
        # marks that run and only that run.
        first = cfg.runs[0]
        self.write(os.path.join(first.dir, "meta.json"),
                   json.dumps({"cmd": first.cmd, "exit_code": 0}))
        resumed = orchestrate.render_plan(cfg, 3, resume=True)
        self.assertIn("  a-venn-sync-s1: [skip, resume] /", resumed)
        self.assertEqual(resumed.count("[skip, resume]"), 1)

        # The command line prints the same plan, --jobs overriding the
        # config, and creates nothing.
        code, out, _ = self.main(doc, "--dry_run", "--jobs", "5")
        self.assertEqual(code, 0)
        self.assertEqual(out, plan.replace("jobs=3", "jobs=5"))
        self.assertFalse(os.path.exists(self.path("out", "exp", "aggregate")))

    def testShippedConfigsExpand(self):
        for name, runs, jobs in (("quick", 39, 2), ("smoke", 2, 2),
                                 ("paper", 89, 4)):
            with self.subTest(name=name):
                path = os.path.join(REPO, "bench", "experiments",
                                    f"{name}.json")
                code, out, err = self.main(json.loads(orchestrate.read_text(path)),
                                           "--dry_run")
                self.assertEqual(code, 0, err)
                lines = out.splitlines()
                self.assertEqual(lines[0], f"experiment {name}: {runs} runs, "
                                 f"jobs={jobs}")
                self.assertEqual(len(lines), 1 + runs)
        # Paper: 2 scenarios x 4 policies x 3 protocols x 3 seeds, then the
        # 17 benches.
        self.assertTrue(lines[72].startswith("  weibull-venn-async-s3: "))
        self.assertTrue(lines[73].startswith("  fig02a_availability: "))


class OrchestratorAggregateTest(Scratch):
    def testFoldsFixtureRunTreeIntoRunsCsv(self):
        # One matrix run with a headline, one failed bench run without,
        # one run whose meta.json is torn.
        self.write("exp/runs/a-venn-sync-s1/meta.json", json.dumps({
            "run_id": "a-venn-sync-s1", "kind": "matrix",
            "binary": "/bin/venn_sim_cli",
            "cmd": ["/bin/venn_sim_cli", "--seed=1"], "scenario": "a",
            "policy": "venn", "protocol": "sync", "seed": 1,
            "build_info": "venn test-build", "start_unix": 100,
            "end_unix": 103, "wall_time_s": 2.5, "exit_code": 0}))
        self.write("exp/runs/a-venn-sync-s1/stdout.txt",
                   "Venn             avg JCT      12345 s   finished 28/30   "
                   "aborts 0\n")
        self.write("exp/runs/fig03/meta.json", json.dumps({
            "run_id": "fig03", "kind": "bench", "binary": "/bin/fig03",
            "cmd": ["/bin/fig03"], "build_info": "venn test-build",
            "start_unix": 100, "end_unix": 101, "wall_time_s": 1.25,
            "exit_code": 1}))
        self.write("exp/runs/fig03/stdout.txt", "no metrics here\n")
        self.write("exp/runs/broken/meta.json", '{"run_id": ')

        records, malformed = orchestrate.aggregate(self.path("exp"))
        self.assertEqual(malformed, [self.path("exp", "runs", "broken")])
        self.assertEqual([r["run_id"] for r in records],
                         ["a-venn-sync-s1", "fig03"])
        matrix, bench = records
        self.assertEqual((matrix["policy"], matrix["seed"],
                          matrix["exit_code"], matrix["wall_time_s"]),
                         ("venn", 1, 0, 2.5))
        self.assertEqual((matrix["avg_jct_s"], matrix["finished_jobs"],
                          matrix["total_jobs"]), (12345.0, 28, 30))
        self.assertEqual((bench["exit_code"], bench["avg_jct_s"],
                          bench["finished_jobs"]), (1, None, None))

        csv = orchestrate.runs_csv(records).splitlines()
        self.assertEqual(csv, [
            "run_id,kind,scenario,policy,protocol,seed,binary,exit_code,"
            "wall_time_s,start_unix,end_unix,avg_jct_s,finished_jobs,"
            "total_jobs,build_info",
            "a-venn-sync-s1,matrix,a,venn,sync,1,/bin/venn_sim_cli,0,"
            "2.500000,100,103,12345.000000,28,30,venn test-build",
            "fig03,bench,,,,,/bin/fig03,1,1.250000,100,101,,,,"
            "venn test-build"])

        # The report renders from the same records, marks the failure, and
        # is self-contained: no stylesheet, script or image is fetched.
        report = orchestrate.report_html("exp", records)
        for needle in ("a-venn-sync-s1", '<tr class="fail">', "<svg",
                       "protocol = sync", "Wall time per run",
                       "<b>1</b>failed", "venn test-build"):
            self.assertIn(needle, report)
        for needle in ("<link", "<script", "src=", "https://"):
            self.assertNotIn(needle, report)

    def testCsvEscapesSeparatorsAndQuotes(self):
        record = dict.fromkeys(orchestrate.COLUMNS)
        record.update(run_id="weird", kind="bench", binary="/bin/has,comma",
                      build_info='says "hi"', scenario="two\nlines",
                      exit_code=0, wall_time_s=1.0)
        row = orchestrate.runs_csv([record]).split("\n", 1)[1]
        self.assertIn('"/bin/has,comma"', row)
        self.assertIn('"says ""hi"""', row)
        self.assertIn('"two\nlines"', row)
        self.assertTrue(row.startswith("weird,bench,"))


class OrchestratorExecuteTest(Scratch):
    def testExecutesCapturesAndResumes(self):
        self.stub("venn_sim_cli", 'echo "venn stub-build (Test, sh)"')
        self.stub("good", "echo out-line; echo err-line >&2; pwd > cwd.txt")
        self.stub("bad", "exit 3")
        self.stub("killed", "kill -TERM $$")
        doc = self.doc(name="e2e", jobs=2, benches=[
            {"name": "good", "args": ["x y"]}, {"name": "bad"},
            {"name": "killed"},
            {"name": "absent", "binary": "nowhere", "optional": True},
            {"name": "gone", "binary": "nowhere"}])
        code, out, err = self.main(doc)
        self.assertEqual(code, 1)
        self.assertIn("executed 4, skipped 1, failed 3\n", out)
        self.assertIn("  [skip ] absent (optional, not built: ", out)
        for failed in ("bad (exit 3)", "killed (exit 143)",
                       "gone (exit 127)"):
            self.assertIn(f"FAILED: {failed} — see ", err)

        # Captured streams; the run's directory is its working directory.
        runs = self.path("out", "e2e", "runs")
        self.assertEqual(self.read(runs, "good", "stdout.txt"), "out-line\n")
        self.assertEqual(self.read(runs, "good", "stderr.txt"), "err-line\n")
        self.assertEqual(self.read(runs, "good", "cwd.txt").strip(),
                         os.path.realpath(os.path.join(runs, "good")))
        self.assertIn("cannot execute: ",
                      self.read(runs, "gone", "stderr.txt"))
        self.assertFalse(os.path.exists(os.path.join(runs, "absent")))

        # meta.json provenance, written whole.
        meta = json.loads(self.read(runs, "good", "meta.json"))
        self.assertEqual(list(meta), [
            "run_id", "kind", "binary", "cmd", "build_info", "start_unix",
            "end_unix", "start_utc", "end_utc", "wall_time_s", "exit_code"])
        self.assertEqual(meta["cmd"], [self.path("bin", "good"), "x y"])
        self.assertEqual(meta["build_info"], "venn stub-build (Test, sh)")
        self.assertEqual(meta["exit_code"], 0)
        self.assertGreaterEqual(meta["end_unix"], meta["start_unix"])
        self.assertFalse(os.path.exists(os.path.join(runs, "good",
                                                     "meta.json.tmp")))

        # Resume: the successful run skips, the failed ones run again.
        code, out, _ = self.main(doc, "--resume")
        self.assertEqual(code, 1)
        self.assertIn("  [skip ] good (resume: meta.json up to date)", out)
        self.assertIn("executed 3, skipped 2, failed 3\n", out)

        records, malformed = orchestrate.aggregate(self.path("out", "e2e"))
        self.assertEqual(malformed, [])
        self.assertEqual([(r["run_id"], r["exit_code"]) for r in records],
                         [("bad", 3), ("gone", 127), ("good", 0),
                          ("killed", 143)])
        self.assertTrue(os.path.isfile(self.path(
            "out", "e2e", "report", "report.html")))

    def testSecondResumePassSkipsEverything(self):
        # The shape of CI's smoke job: a 2-cell matrix, then --resume.
        self.stub("venn_sim_cli",
                  '[ "$1" = --version ] && echo "venn stub" && exit 0\n'
                  'echo "Venn avg JCT 100 s   finished 4/4   aborts 0"')
        doc = self.doc(name="smoke", matrix={
            "binary": "venn_sim_cli", "policies": ["fifo", "venn"],
            "seeds": [7]})
        code, out, _ = self.main(doc)
        self.assertEqual(code, 0)
        self.assertTrue(out.startswith("experiment smoke: 2 runs, jobs=2, "))
        self.assertIn("executed 2, skipped 0, failed 0\n", out)
        code, out, _ = self.main(doc, "--resume")
        self.assertEqual(code, 0)
        self.assertIn("executed 0, skipped 2, failed 0\n", out)
        code, out, _ = self.main(doc, "--resume", "--dry_run")
        self.assertEqual(out.count("[skip, resume]"), 2)
        csv = self.read("out", "smoke", "aggregate", "runs.csv").splitlines()
        self.assertEqual(csv[0], ",".join(orchestrate.COLUMNS))
        self.assertTrue(csv[1].startswith(
            "default-fifo-sync-s7,matrix,default,fifo,sync,7,"))
        self.assertTrue(csv[1].endswith(",100.000000,4,4,venn stub"))

    def testSurvivesSignalsInterruptingReap(self):
        # A signal that reaches the harness while it waits on its runs
        # (here a 5 ms SIGALRM with a no-op handler) must not abort them.
        self.stub("slow", "sleep 0.3")
        cfg = parse_config(json.dumps(self.doc(name="eintr", benches=[
            {"name": f"slow{i}", "binary": "slow"} for i in range(3)])), "t")
        old = signal.signal(signal.SIGALRM, lambda *_: None)
        signal.setitimer(signal.ITIMER_REAL, 0.005, 0.005)
        try:
            codes = orchestrate.execute(cfg, 2, False, lambda line: None)
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
            signal.signal(signal.SIGALRM, old)
        self.assertEqual(codes, [0, 0, 0])

    @unittest.skipUnless(HAVE_CLI, "venn_sim_cli is not built")
    def testRunsRealSimulatorMatrixCell(self):
        doc = self.doc(name="real", jobs=1, matrix={
            "binary": "venn_sim_cli",
            "common_args": ["--devices=300", "--jobs=3", "--horizon-days=6",
                            "--churn=weibull"],
            "seeds": [5]}, bin_dir=BIN_DIR)
        code, _, err = self.main(doc)
        self.assertEqual(code, 0, err)
        records, _ = orchestrate.aggregate(self.path("out", "real"))
        [record] = records
        self.assertEqual(record["run_id"], "default-venn-sync-s5")
        self.assertGreater(record["avg_jct_s"], 0.0)
        self.assertEqual(record["total_jobs"], 3)
        self.assertTrue(record["build_info"].startswith("venn "))
        meta = json.loads(self.read("out", "real", "runs",
                                    "default-venn-sync-s5", "meta.json"))
        self.assertEqual({k: meta[k] for k in ("scenario", "policy",
                                               "protocol", "seed")},
                         {"scenario": "default", "policy": "venn",
                          "protocol": "sync", "seed": 5})

    @unittest.skipUnless(HAVE_CLI, "venn_sim_cli is not built")
    def testZeroJobRunReportsFinishedZeroAndExitsClean(self):
        # A run with no jobs has no mean JCT: the CLI exits 0 and reports
        # finished 0/0, and aggregation leaves the mean empty.
        doc = self.doc(name="zero", bin_dir=BIN_DIR, benches=[
            {"name": "nojobs", "binary": "venn_sim_cli",
             "args": ["--devices=200", "--jobs=0", "--horizon-days=1"]}])
        code, _, err = self.main(doc)
        self.assertEqual(code, 0, err)
        self.assertIn("finished 0/0", self.read(
            "out", "zero", "runs", "nojobs", "stdout.txt"))
        [record], _ = orchestrate.aggregate(self.path("out", "zero"))
        self.assertEqual((record["avg_jct_s"], record["finished_jobs"],
                          record["total_jobs"]), (None, 0, 0))


class OrchestratorMetrics(unittest.TestCase):
    def testScrapesLabeledValuesFromRunStdout(self):
        scrape = orchestrate.scrape_headline
        self.assertEqual(
            scrape("Venn             avg JCT      51754 s   finished 30/30  "
                   " aborts 2\n"),
            {"avg_jct_s": 51754.0, "finished_jobs": 30, "total_jobs": 30})
        self.assertEqual(scrape("no such label"), {
            "avg_jct_s": None, "finished_jobs": None, "total_jobs": None})
        self.assertIsNone(scrape("finished x/y")["finished_jobs"])
        self.assertIsNone(scrape("avg JCT nan s")["avg_jct_s"])
        # Only the first occurrence of a label counts.
        self.assertEqual(scrape("finished 1/2 finished 3/4")["total_jobs"], 2)
        self.assertEqual(scrape("avg JCT 1.5e3 s")["avg_jct_s"], 1500.0)


def case_names():
    suite = unittest.defaultTestLoader.loadTestsFromModule(
        sys.modules[__name__])
    for group in suite:
        for test in group:
            cls, method = test.id().split(".")[-2:]
            yield f"{cls}.{method[len('test'):]}"


if __name__ == "__main__":
    if sys.argv[1:] == ["--list"]:
        print("\n".join(case_names()))
    else:
        unittest.main(argv=sys.argv[:1] + [
            re.sub(r"\.(\w+)$", r".test\1", arg) for arg in sys.argv[1:]])
