#!/usr/bin/env python3
"""The benchmark's own test: deterministic work counters repeat exactly.

    python3 perfbench/test_counters.py [workload ...]

Run from the root of a checkout (it calls perfbench/run.py, which builds
first). For each workload (default: both) it runs the benchmark twice
traced and once untraced on one seed and asserts that

  * every run passes its output checks;
  * the two traced runs report identical work counters (sim.events, sweep
    visits/offers/skips, scheduler call counts, journal records/bytes,
    replay.events_verified, ...) and identical result digests;
  * the untraced run's counters and digests equal the traced run's on every
    key both report (tracing is purely observational);
  * the scheduler decorator's split of calls into inside and outside idle-pool
    sweeps is consistent with the coordinator's counts: no more in-sweep
    assigns than sweep offers, and no more other assigns than check-ins.

Count-based claims about a later change rest on these counters being exact.
"""
import json
import subprocess
import sys
import unittest

SEED = 7
# Short runs: the counters depend on the seed and the run length only.
SECONDS = {"contention": 4, "service": 2}


def bench(workload, trace):
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(SEED), "--seconds", str(SECONDS[workload]),
         "--trace", str(trace)],
        capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise AssertionError(f"{workload} trace={trace} exited {out.returncode}:\n"
                             f"{out.stderr[-2000:]}")
    lines = out.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    counters = next(json.loads(l[len("counters "):]) for l in lines
                    if l.startswith("counters "))
    return result, counters["counters"], counters["digests"]


class CountersRepeat(unittest.TestCase):
    workloads = list(SECONDS)

    def test_counters_repeat_exactly(self):
        for w in self.workloads:
            with self.subTest(workload=w):
                r1, c1, d1 = bench(w, 1)
                r2, c2, d2 = bench(w, 1)
                r0, c0, d0 = bench(w, 0)
                for r in (r0, r1, r2):
                    self.assertTrue(r["correct"], r)
                    self.assertEqual(r["failed"], 0)
                self.assertTrue(c1, "no counters reported")
                self.assertEqual(c1, c2)
                self.assertEqual(d1, d2)
                common = set(c0) & set(c1)
                self.assertTrue(common)
                self.assertEqual({k: c0[k] for k in common},
                                 {k: c1[k] for k in common})
                for k, v in d1.items():
                    self.assertEqual(d0.get(k), v, k)
                self.assertLessEqual(c1["scheduler.sweep_assigns"], c1["core.sweep_offers"])
                self.assertLessEqual(
                    c1["scheduler.assign_calls"] - c1["scheduler.sweep_assigns"],
                    c1["scheduler.checkin_calls"])


if __name__ == "__main__":
    if len(sys.argv) > 1 and not sys.argv[1].startswith("-"):
        CountersRepeat.workloads = sys.argv[1:]
        sys.argv = sys.argv[:1]
    unittest.main()
