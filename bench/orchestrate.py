#!/usr/bin/env python3
"""Runs an experiment config: the paper's scenario x policy x protocol x
seed grid over venn_sim_cli, plus the per-figure bench binaries.

    python3 bench/orchestrate.py --config bench/experiments/paper.json \\
        [--jobs N] [--dry_run] [--resume]

--jobs N runs at most N processes at once (default: the config's "jobs").
--resume skips a run whose meta.json records the same command with exit
code 0. --dry_run prints each run's id and command (and what --resume
would skip) and runs nothing.

Config keys (bench/experiments/*.json), defaults in parentheses: name,
out_root ("bench_runs"), bin_dir ("build"), jobs (2), matrix {binary,
common_args, scenarios [{name, args}], policies (["venn"]), protocols
(["sync"]), seeds ([42])}, benches [{name, binary (the name), args,
optional (false)}]. An unknown key, a wrong type, an empty axis or a
duplicate run id exits 2 and names the key. Matrix run
"<scenario>-<policy>-<protocol>-s<seed>" executes <bin_dir>/<binary>
<common_args> <scenario args> --policy=P --protocol=P --seed=S; bench run
"<name>" executes <bin_dir>/<binary> <args>, and is skipped when optional
and absent. Each run executes in <out_root>/<name>/runs/<id>/, beside its
stdout.txt, stderr.txt and meta.json; all of them are then folded into
<out_root>/<name>/aggregate/runs.csv and report/report.html.

Exits 0 when every executed run succeeded, 1 when a run failed or a run
directory holds a malformed meta.json, 2 on a config or usage error."""
import argparse
import html
import itertools
import json
import math
import os
import re
import subprocess
import sys
import threading
import time
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field

COLUMNS = ("run_id", "kind", "scenario", "policy", "protocol", "seed",
           "binary", "exit_code", "wall_time_s", "start_unix", "end_unix",
           "avg_jct_s", "finished_jobs", "total_jobs", "build_info")


class ConfigError(ValueError):
    pass


@dataclass
class Run:
    id: str
    kind: str  # "matrix" | "bench"
    cmd: list  # argv, the binary made absolute against bin_dir
    dir: str  # absolute <out_root>/<name>/runs/<id>; the run's cwd
    optional: bool = False
    tags: dict = field(default_factory=dict)  # matrix axes, for meta.json


@dataclass
class Config:
    name: str
    out_root: str = "bench_runs"
    bin_dir: str = "build"
    jobs: int = 2
    runs: list = field(default_factory=list)


def parse_json(text):
    """json.loads without what strict JSON forbids: duplicate keys, NaN,
    Infinity, and numbers beyond double range."""
    def unique_keys(pairs):
        keys = [key for key, _ in pairs]
        for key in keys:
            if keys.count(key) > 1:
                raise ValueError(f'duplicate key "{key}"')
        return dict(pairs)

    def reject(token):
        raise ValueError(f"invalid number {token}")

    return json.loads(text, object_pairs_hook=unique_keys,
                      parse_constant=reject,
                      parse_float=lambda t: float(t)
                      if math.isfinite(float(t)) else reject(t))


def _is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


# A config value's expected shape, by the name its error message uses.
SHAPES = {
    "a string": lambda v: isinstance(v, str),
    "a boolean": lambda v: isinstance(v, bool),
    "an object": lambda v: isinstance(v, dict),
    "an array of strings":
        lambda v: isinstance(v, list) and all(isinstance(s, str) for s in v),
    "an array of objects":
        lambda v: isinstance(v, list) and all(isinstance(o, dict) for o in v),
    "an array of numbers":
        lambda v: isinstance(v, list) and all(map(_is_number, v)),
}


def parse_config(text, origin):
    def fail(what):
        raise ConfigError(f"{origin}: {what}")

    def keys(obj, where, known):
        for key in obj:
            if key not in known:
                fail(f'unknown key "{key}" in {where}')
        return obj

    def get(obj, where, key, shape, default=None):
        """obj[key], or `default` when absent; required when that is None."""
        if key not in obj and default is None:
            fail(f'{where}: missing "{key}"')
        if not SHAPES[shape](obj.get(key, default)):
            fail(f"{where}.{key}: expected {shape}")
        return obj.get(key, default)

    # Ids become directory names: a config must not be able to walk paths.
    def ident(v, what):
        if not re.fullmatch(r"[A-Za-z0-9._-]+", v) or v in (".", ".."):
            fail(f'{what} "{v}" is not a [A-Za-z0-9._-] name')
        return v

    def add(run_id, kind, binary, args, **fields):
        if any(run.id == run_id for run in cfg.runs):
            fail(f'duplicate run id "{run_id}"')
        binary = os.path.join(os.path.abspath(cfg.bin_dir), binary)
        cfg.runs.append(Run(run_id, kind, [os.path.normpath(binary)] + args,
                            os.path.abspath(os.path.join(
                                cfg.out_root, cfg.name, "runs", run_id)),
                            **fields))

    try:
        doc = parse_json(text)
    except ValueError as e:
        fail(str(e))
    if not isinstance(doc, dict):
        fail("config must be a JSON object")
    keys(doc, "config",
         ("name", "out_root", "bin_dir", "jobs", "matrix", "benches"))
    cfg = Config(ident(get(doc, "config", "name", "a string"),
                       "experiment name"))
    for key in ("out_root", "bin_dir"):
        setattr(cfg, key, get(doc, "config", key, "a string",
                              getattr(cfg, key)))
        if not getattr(cfg, key):
            fail(f"{key} must not be empty")
    jobs = doc.get("jobs", cfg.jobs)
    if not _is_number(jobs) or jobs != int(jobs):
        fail("config.jobs: expected an integer")
    if not 1 <= jobs <= 256:
        fail("jobs must be in [1, 256]")
    cfg.jobs = int(jobs)

    if "matrix" in doc:
        m = keys(get(doc, "config", "matrix", "an object"), "matrix",
                 ("binary", "common_args", "scenarios", "policies",
                  "protocols", "seeds"))
        scenarios = []
        for s in get(m, "matrix", "scenarios", "an array of objects", []):
            keys(s, "matrix.scenarios entry", ("name", "args"))
            scenarios.append((
                ident(get(s, "matrix.scenarios", "name", "a string"),
                      "scenario name"),
                get(s, "matrix.scenarios", "args", "an array of strings", [])))
        axes = [get(m, "matrix", axis, "an array of strings", [default])
                for axis, default in (("policies", "venn"),
                                      ("protocols", "sync"))]
        for what, values in zip(("policy", "protocol"), axes):
            for v in values:
                ident(v, what)
        seeds = get(m, "matrix", "seeds", "an array of numbers", [42])
        if not all(s == int(s) and 0 <= s <= 1.8e19 for s in seeds):
            fail("matrix.seeds: expected non-negative integers")
        if not axes[0] or not axes[1] or not seeds:
            fail("matrix axes must not be empty")
        binary = get(m, "matrix", "binary", "a string")
        common = get(m, "matrix", "common_args", "an array of strings", [])
        for (scenario, args), policy, protocol, seed in itertools.product(
                scenarios or [("default", [])], *axes, map(int, seeds)):
            add(f"{scenario}-{policy}-{protocol}-s{seed}", "matrix", binary,
                common + args + [f"--policy={policy}",
                                 f"--protocol={protocol}", f"--seed={seed}"],
                tags={"scenario": scenario, "policy": policy,
                      "protocol": protocol, "seed": seed})

    for b in get(doc, "config", "benches", "an array of objects", []):
        keys(b, "benches entry", ("name", "binary", "args", "optional"))
        name = ident(get(b, "benches", "name", "a string"), "bench name")
        add(name, "bench", get(b, "benches", "binary", "a string", name),
            get(b, "benches", "args", "an array of strings", []),
            optional=get(b, "benches", "optional", "a boolean", False))
    if not cfg.runs:
        fail('config defines no runs (need "matrix" and/or "benches")')
    return cfg


def read_text(path):
    """The file's text, or "" when it cannot be read."""
    try:
        with open(path, encoding="utf-8", errors="replace") as f:
            return f.read()
    except OSError:
        return ""


def resume_satisfied(run):
    """True iff the run's meta.json records exactly its command with exit
    code 0. A missing, unparsable or stale meta.json means: run again."""
    try:
        meta = parse_json(read_text(os.path.join(run.dir, "meta.json")))
    except ValueError:
        return False
    return (isinstance(meta, dict) and _is_number(meta.get("exit_code"))
            and meta["exit_code"] == 0 and meta.get("cmd") == run.cmd)


def render_plan(cfg, jobs, resume):
    lines = [f"experiment {cfg.name}: {len(cfg.runs)} runs, jobs={jobs}"]
    for run in cfg.runs:
        skip = " [skip, resume]" if resume and resume_satisfied(run) else ""
        lines.append(f"  {run.id}:{skip} " + " ".join(run.cmd))
    return "\n".join(lines) + "\n"


def utc(unix):
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime(unix))


def execute(cfg, jobs, resume, log):
    """Runs the plan, at most `jobs` processes at once, launched in config
    order. Returns each run's exit code, None where it was skipped."""
    try:  # the build the runs came from
        build_info = subprocess.run(
            [os.path.join(os.path.abspath(cfg.bin_dir), "venn_sim_cli"),
             "--version"], capture_output=True, text=True).stdout.strip()
    except OSError:
        build_info = ""

    def one(run):
        if resume and resume_satisfied(run):
            log(f"  [skip ] {run.id} (resume: meta.json up to date)")
            return None
        if run.optional and not os.access(run.cmd[0], os.X_OK):
            log(f"  [skip ] {run.id} (optional, not built: {run.cmd[0]})")
            return None
        os.makedirs(run.dir, exist_ok=True)
        log(f"  [start] {run.id} ({run.cmd[0]})")
        start, t0 = int(time.time()), time.monotonic()
        with open(os.path.join(run.dir, "stdout.txt"), "wb") as out, \
                open(os.path.join(run.dir, "stderr.txt"), "wb") as err:
            try:
                code = subprocess.run(run.cmd, cwd=run.dir, stdout=out,
                                      stderr=err).returncode
            except OSError as e:  # missing or not executable
                err.write(f"cannot execute: {e}\n".encode())
                code = 127
        wall, end = time.monotonic() - t0, int(time.time())
        code = 128 - code if code < 0 else code  # signal n: 128 + n
        meta = {"run_id": run.id, "kind": run.kind, "binary": run.cmd[0],
                "cmd": run.cmd, **run.tags, "build_info": build_info,
                "start_unix": start, "end_unix": end,
                "start_utc": utc(start), "end_utc": utc(end),
                "wall_time_s": wall, "exit_code": code}
        # tmp + rename: --resume never reads a half-written meta.json.
        tmp = os.path.join(run.dir, "meta.json.tmp")
        with open(tmp, "w", encoding="utf-8") as f:
            f.write(json.dumps(meta, indent=2) + "\n")
        os.replace(tmp, os.path.join(run.dir, "meta.json"))
        log(f"  [done ] {run.id} ({'ok' if code == 0 else 'FAILED'}, "
            f"exit {code}, {wall:.2f}s)")
        return code

    with ThreadPoolExecutor(max_workers=jobs) as pool:
        return list(pool.map(one, cfg.runs))


def scrape_headline(stdout):
    """venn_sim_cli's headline "avg JCT <n> s   finished <a>/<b>": each
    label's first occurrence, None where it is absent."""
    def after(label, pattern):
        pos = stdout.find(label)
        return pos >= 0 and re.compile(pattern).match(stdout,
                                                      pos + len(label))

    jct = after("avg JCT", r" *([-+]?(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?)")
    done = after("finished", r" *(\d+)/ *(\d+)")
    return {"avg_jct_s": float(jct[1]) if jct else None,
            "finished_jobs": int(done[1]) if done else None,
            "total_jobs": int(done[2]) if done else None}


def read_record(directory):
    """One runs.csv row from a run directory; None when its meta.json is
    missing or malformed."""
    try:
        meta = parse_json(read_text(os.path.join(directory, "meta.json")))
    except ValueError:
        return None
    if not isinstance(meta, dict):
        return None

    def number(key, default):
        return meta[key] if _is_number(meta.get(key)) else default

    record = {key: meta[key] if isinstance(meta.get(key), str) else ""
              for key in ("run_id", "kind", "scenario", "policy",
                          "protocol", "binary", "build_info")}
    seed = number("seed", None)
    record.update(run_id=record["run_id"] or os.path.basename(directory),
                  seed=None if seed is None else int(seed),
                  exit_code=int(number("exit_code", -1)),
                  wall_time_s=float(number("wall_time_s", 0.0)),
                  start_unix=int(number("start_unix", 0)),
                  end_unix=int(number("end_unix", 0)))
    stdout = read_text(os.path.join(directory, "stdout.txt"))
    return {**record, **scrape_headline(stdout)}


def aggregate(exp_dir):
    """(records sorted by run_id, run directories with malformed meta)."""
    root = os.path.join(exp_dir, "runs")
    dirs = sorted(e.path for e in os.scandir(root) if e.is_dir()) \
        if os.path.isdir(root) else []
    records = {d: read_record(d) for d in dirs}
    return (sorted((r for r in records.values() if r),
                   key=lambda r: r["run_id"]),
            [d for d, r in records.items() if r is None])


def runs_csv(records):
    def field(value):
        if value is None:
            return ""
        text = f"{value:.6f}" if isinstance(value, float) else str(value)
        if any(c in text for c in ',"\n\r'):
            return '"' + text.replace('"', '""') + '"'
        return text

    rows = [COLUMNS] + [[field(r[c]) for c in COLUMNS] for r in records]
    return "".join(",".join(row) + "\n" for row in rows)


# Colorblind-safe categorical palette (Okabe-Ito); failures use the last.
COLORS = ("#0072b2", "#e69f00", "#009e73", "#cc79a7", "#56b4e9", "#d55e00")
STYLE = """\
  body { font: 14px/1.5 system-ui, sans-serif; color: #1a1a2e;
         max-width: 1100px; margin: 2em auto; padding: 0 1em; }
  h1 { font-size: 1.5em; } h2 { font-size: 1.15em; margin-top: 2em; }
  h3 { font-size: 0.95em; color: #555; } .meta, .empty { color: #555; }
  .tiles { display: flex; gap: 1em; flex-wrap: wrap; }
  .tile { border: 1px solid #d8d8e0; border-radius: 6px; padding: .6em 1.2em; }
  .tile b { display: block; font-size: 1.4em; }
  .tile.bad b { color: #d55e00; } svg { width: 100%; height: auto; }
  svg .lbl { font: 11px system-ui, sans-serif; fill: #1a1a2e; }
  svg .val { font: 11px system-ui, sans-serif; fill: #555; }
  table { border-collapse: collapse; width: 100%; }
  th, td { border-bottom: 1px solid #e4e4ea; padding: 4px 8px;
           text-align: left; font-size: 13px; }
  th { border-bottom: 2px solid #b8b8c4; } tr.fail td { background: #fdeee6; }
"""
esc = html.escape


def hbar_chart(bars, fmt):
    """Horizontal bars of (label, value, color): label left, value right."""
    if not bars:
        return '<p class="empty">no data</p>'
    row_h, label_w, chart_w, value_w = 22, 340, 520, 90
    top = max(max(value for _, value, _ in bars), 0.0) or 1.0
    box = f"0 0 {label_w + chart_w + value_w} {len(bars) * row_h + 8}"
    svg = [f'<svg viewBox="{box}" role="img" '
           'xmlns="http://www.w3.org/2000/svg">']
    for i, (label, value, color) in enumerate(bars):
        y, w = 4 + i * row_h, max(1, int(value / top * chart_w + 0.5))
        svg += [f'  <text x="{label_w - 8}" y="{y + 15}" text-anchor="end" '
                f'class="lbl">{esc(label)}</text>',
                f'  <rect x="{label_w}" y="{y + 3}" width="{w}" '
                f'height="{row_h - 8}" fill="{color}"/>',
                f'  <text x="{label_w + w + 6}" y="{y + 15}" class="val">'
                f'{fmt % value}</text>']
    return "\n".join(svg + ["</svg>"])


def report_html(name, records):
    failed = sum(r["exit_code"] != 0 for r in records)
    build = records[0]["build_info"] if records else ""
    build = f" · {esc(build)}" if build else ""
    wall = sum(r["wall_time_s"] for r in records)
    out = ['<!doctype html>\n<html lang="en">\n<head>\n<meta charset="utf-8">',
           f"<title>venn bench report — {esc(name)}</title>",
           f"<style>\n{STYLE}</style>\n</head>\n<body>",
           f"<h1>venn bench report — {esc(name)}</h1>",
           f'<p class="meta">generated {utc(time.time())}{build}</p>',
           '<div class="tiles">',
           *(f'<div class="tile{" bad" if bad else ""}"><b>{n}</b>{what}</div>'
             for n, what, bad in ((len(records), "runs", 0),
                                  (len(records) - failed, "succeeded", 0),
                                  (failed, "failed", failed),
                                  (f"{wall:.1f}s", "total run wall", 0))),
           "</div>"]

    jct = {}  # protocol -> policy -> avg JCTs of successful matrix runs
    for r in records:
        if r["kind"] == "matrix" and r["avg_jct_s"] is not None \
                and r["exit_code"] == 0:
            jct.setdefault(r["protocol"], {}).setdefault(
                r["policy"], []).append(r["avg_jct_s"])
    if jct:
        out.append("<h2>Mean avg JCT by policy (matrix runs)</h2>")
    for i, protocol in enumerate(sorted(jct)):
        means = sorted((sum(v) / len(v), p) for p, v in jct[protocol].items())
        out.append(f"<h3>protocol = {esc(protocol)}</h3>")
        out.append(hbar_chart([(p, m, COLORS[i % len(COLORS)])
                               for m, p in means], "%.0fs"))

    out.append("<h2>Wall time per run</h2>")
    out.append(hbar_chart(
        [(r["run_id"], r["wall_time_s"], COLORS[-1 if r["exit_code"] else 0])
         for r in sorted(records, key=lambda r: -r["wall_time_s"])], "%.2fs"))

    out.append("<h2>All runs</h2>\n<table>\n<tr>" + "".join(
        f"<th>{h}</th>" for h in ("run", "kind", "scenario", "policy",
                                  "protocol", "seed", "exit", "wall (s)",
                                  "avg JCT (s)", "finished")) + "</tr>")
    for r in records:
        cells = [esc(r[k]) for k in COLUMNS[:5]] + [
            "" if r["seed"] is None else str(r["seed"]), str(r["exit_code"]),
            f"{r['wall_time_s']:.2f}",
            "" if r["avg_jct_s"] is None else f"{r['avg_jct_s']:.0f}",
            "" if r["finished_jobs"] is None
            else f"{r['finished_jobs']}/{r['total_jobs']}"]
        row = '<tr class="fail">' if r["exit_code"] else "<tr>"
        out.append(row + "".join(f"<td>{c}</td>" for c in cells) + "</tr>")
    out.append("</table>\n</body>\n</html>\n")
    return "\n".join(out)


def main(argv=None):
    parser = argparse.ArgumentParser(
        description="Run an experiment config and aggregate its runs.",
        allow_abbrev=False)
    parser.add_argument("--config", required=True, metavar="PATH")
    parser.add_argument("--jobs", type=int, metavar="N")
    parser.add_argument("--dry_run", action="store_true")
    parser.add_argument("--resume", action="store_true")
    args = parser.parse_args(argv)
    if args.jobs is not None and not 1 <= args.jobs <= 256:
        parser.error("--jobs must be in [1, 256]")
    try:
        with open(args.config, encoding="utf-8") as f:
            cfg = parse_config(f.read(), args.config)
    except (OSError, ValueError) as e:  # a ConfigError is a ValueError
        print(f"error: {e}", file=sys.stderr)
        return 2
    jobs = args.jobs or cfg.jobs
    if args.dry_run:
        sys.stdout.write(render_plan(cfg, jobs, args.resume))
        return 0

    lock = threading.Lock()

    def log(line):
        with lock:
            print(line, flush=True)

    print(f"experiment {cfg.name}: {len(cfg.runs)} runs, jobs={jobs}, "
          f"out={os.path.join(cfg.out_root, cfg.name)}", flush=True)
    codes = execute(cfg, jobs, args.resume, log)
    exp_dir = os.path.abspath(os.path.join(cfg.out_root, cfg.name))
    records, malformed = aggregate(exp_dir)
    for sub, text in (("aggregate/runs.csv", runs_csv(records)),
                      ("report/report.html", report_html(cfg.name, records))):
        path = os.path.join(exp_dir, sub)
        os.makedirs(os.path.dirname(path), exist_ok=True)
        with open(path, "w", encoding="utf-8") as f:
            f.write(text)
    for bad in malformed:
        print(f"WARNING: malformed run metadata in {bad}", file=sys.stderr)
    failed = [(run, code) for run, code in zip(cfg.runs, codes) if code]
    print(f"aggregated {len(records)} runs -> {exp_dir}/aggregate/runs.csv, "
          f"{exp_dir}/report/report.html")
    print(f"executed {len(codes) - codes.count(None)}, "
          f"skipped {codes.count(None)}, failed {len(failed)}")
    for run, code in failed:
        print(f"FAILED: {run.id} (exit {code}) — see {run.dir}/stderr.txt",
              file=sys.stderr)
    return 1 if failed or malformed else 0


if __name__ == "__main__":
    sys.exit(main())
