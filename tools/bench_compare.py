#!/usr/bin/env python3
"""bench_compare: judge a change against a base commit on the repo benchmark.

Runs alternating pairs of the repository benchmark (`perfbench/run.py`) on a
base commit and on the working tree, then judges every end-to-end metric
BENCHMARK.json declares, per workload:

    tools/bench_compare.py --base HEAD~1 --pairs 10 \\
        --claim hotspot_sharded:cycle_ms.p50
    tools/bench_compare.py --base HEAD~1 --workload city_paper

Run it from the repository root. `--base REF` exports REF's committed files
with `git archive` into a temporary directory (under $TMPDIR) and deletes
it afterwards, so the base side runs exactly what REF committed. Each side
builds its own benchmark tree (`.bench_build/` under its root) on its first
run, and every run lasts BENCHMARK.json's `run_seconds`. Pair i runs the
base first when i is even and the change first when i is odd. Progress goes
to stderr; the report goes to stdout.

The verdicts follow the repository's benchmark rules:

  claim       at least 10 pairs were run; the change wins at least 9/10
              of them (a tie or a pair with a failed run counts for
              neither side); its median beats the base median by more
              than the base runs' interquartile range; and its share of
              failed operations is no larger than the base's;
  regressed   the change's median is worse than the base median by more
              than the metric's BENCHMARK.json bound;
  unresolved  not regressed, but the runs spread (interquartile range over
              median, on either side; unknown from a single pair) wider
              than the bound, so "no change" cannot be told from noise,
              unless every change run reads better than every base run;
  ok          within the bound and resolvable.

A run that exits non-zero or reports `"correct": false` counts as failed;
its pair is left out of the samples, and the failed/attempted operation
counts of the runs are reported per side. Exit status: 0 when no metric
regressed, no run failed, the change's failed share is no larger, and the
claim (if any) holds; 1 otherwise; 2 on usage errors.

The tool reads only BENCHMARK.json and runs only perfbench/run.py.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
MIN_CLAIM_PAIRS = 10


def log(msg):
    print(msg, file=sys.stderr, flush=True)


# --- statistics and verdicts (pure; unit-tested on canned numbers) ---------

def quartiles(values):
    """(q1, median, q3) of a non-empty sample (inclusive method)."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, med, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, med, q3


def better(a, b, direction):
    """True when value `a` is strictly better than `b`."""
    return a < b if direction == "lower" else a > b


def worsening(base_med, change_med, direction):
    """Relative amount by which the change's median is worse (<= 0: not
    worse). A zero base median is worse by +inf unless unchanged."""
    delta = change_med - base_med if direction == "lower" else \
        base_med - change_med
    if base_med == 0:
        return 0.0 if delta <= 0 else math.inf
    return delta / abs(base_med)


def relative_spread(values):
    """Interquartile range over median; unknown (+inf) from one run."""
    if len(values) < 2:
        return math.inf
    q1, med, q3 = quartiles(values)
    if med == 0:
        return 0.0 if q3 == q1 else math.inf
    return (q3 - q1) / abs(med)


def judge(base, change, direction, bound, claimed=False, attempted=None,
          more_failed=False):
    """Judges one metric from paired samples (base[i] and change[i] ran in
    pair i). `attempted` is the number of pairs run, failed ones included
    (default: len(base)); wins are counted out of it. `more_failed` says
    the change's share of failed operations exceeds the base's. Returns a
    dict with the summary statistics and a verdict: "holds"/"not met" for
    the claimed metric, else "regressed", "unresolved" or "ok"."""
    assert base and len(base) == len(change)
    attempted = len(base) if attempted is None else attempted
    assert attempted >= len(base)
    bq1, bmed, bq3 = quartiles(base)
    cq1, cmed, cq3 = quartiles(change)
    wins = sum(1 for b, c in zip(base, change) if better(c, b, direction))
    losses = sum(1 for b, c in zip(base, change) if better(b, c, direction))
    worse = worsening(bmed, cmed, direction)
    spread = max(relative_spread(base), relative_spread(change))
    result = {
        "base": {"q1": bq1, "median": bmed, "q3": bq3},
        "change": {"q1": cq1, "median": cmed, "q3": cq3},
        "pairs": attempted, "wins": wins, "losses": losses,
        "worsening": worse, "spread": spread,
        "samples": {"base": list(base), "change": list(change)},
    }
    if claimed:
        gap = bmed - cmed if direction == "lower" else cmed - bmed
        holds = (attempted >= MIN_CLAIM_PAIRS and
                 wins * 10 >= 9 * attempted and
                 gap > bq3 - bq1 and not more_failed)
        result["verdict"] = "holds" if holds else "not met"
        return result
    if worse > bound:
        result["verdict"] = "regressed"
    elif spread > bound and not all(
            better(c, b, direction) for c in change for b in base):
        result["verdict"] = "unresolved"
    else:
        result["verdict"] = "ok"
    return result


# --- running the benchmark ---------------------------------------------------

def run_once(root, workload, seed, seconds):
    """One `perfbench/run.py` run in checkout `root`. Returns the parsed
    result dict with an added "ok" flag and "wall_s"."""
    cmd = [sys.executable, os.path.join("perfbench", "run.py"),
           "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds)]
    start = time.monotonic()
    proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True)
    wall = time.monotonic() - start
    result = {"correct": False, "attempted": 0, "failed": 0, "metrics": {}}
    lines = [l for l in proc.stdout.splitlines() if l.strip()]
    if lines:
        try:
            result = json.loads(lines[-1])
        except json.JSONDecodeError:
            pass
    result["ok"] = proc.returncode == 0 and bool(result.get("correct"))
    result["wall_s"] = wall
    if not result["ok"]:
        log(proc.stderr[-2000:])
    return result


def failed_share(runs):
    return runs["failed"] / runs["attempted"] if runs["attempted"] else 0.0


def compare_workload(sides, workload, spec, args, claim_metric):
    runs = {"base": [], "change": []}
    for i in range(args.pairs):
        order = ("base", "change") if i % 2 == 0 else ("change", "base")
        for side in order:
            r = run_once(sides[side], workload, args.seed,
                         spec["run_seconds"])
            runs[side].append(r)
            log(f"{workload} pair {i + 1}/{args.pairs} {side}: "
                f"{'ok' if r['ok'] else 'FAILED'} in {r['wall_s']:.0f} s")
    report = {"workload": workload, "metrics": {}, "runs": {}}
    for side in ("base", "change"):
        report["runs"][side] = {
            "runs": len(runs[side]),
            "failed_runs": sum(1 for r in runs[side] if not r["ok"]),
            "attempted": sum(r.get("attempted", 0) for r in runs[side]),
            "failed": sum(r.get("failed", 0) for r in runs[side]),
        }
    more_failed = failed_share(report["runs"]["change"]) > \
        failed_share(report["runs"]["base"])
    pairs = [(b, c) for b, c in zip(runs["base"], runs["change"])
             if b["ok"] and c["ok"]]
    for metric in spec["end_to_end"]:
        name = metric["name"]
        got = [(b["metrics"].get(name), c["metrics"].get(name))
               for b, c in pairs]
        got = [(b["value"], c["value"]) for b, c in got if b and c]
        if not got:
            continue
        report["metrics"][name] = judge(
            [b for b, _ in got], [c for _, c in got], metric["better"],
            metric["bound"], claimed=(name == claim_metric),
            attempted=args.pairs, more_failed=more_failed)
        report["metrics"][name]["unit"] = metric["unit"]
        report["metrics"][name]["bound"] = metric["bound"]
    return report


def describe(side):
    def num(v):
        return f"{v:.0f}" if abs(v) >= 1000 else f"{v:.4g}"
    return f"{num(side['median'])} [{num(side['q1'])}, {num(side['q3'])}]"


def print_report(report):
    print(f"== {report['workload']}")
    print(f"{'metric':<24}{'base median [q1, q3]':<28}"
          f"{'change median [q1, q3]':<28}{'delta':>8}{'won':>7}  verdict")
    for name, m in report["metrics"].items():
        b, c = m["base"], m["change"]
        delta = (f"{(c['median'] / b['median'] - 1) * 100:+.1f}%"
                 if b["median"] else "n/a")
        print(f"{name:<24}{describe(b):<28}{describe(c):<28}{delta:>8}"
              f"{m['wins']:>4}/{m['pairs']:<2}  {m['verdict']} "
              f"(spread {m['spread']:.1%}, bound {m['bound']:.0%})")
    for side in ("base", "change"):
        r = report["runs"][side]
        print(f"  {side}: failed/attempted {r['failed']}/{r['attempted']}, "
              f"{r['failed_runs']}/{r['runs']} runs failed")


def export_ref(ref, dest):
    """Writes the files `ref` committed into the empty directory `dest`."""
    archive = subprocess.Popen(["git", "-C", ROOT, "archive", ref],
                               stdout=subprocess.PIPE)
    subprocess.run(["tar", "-x", "-C", dest], stdin=archive.stdout,
                   check=True)
    archive.stdout.close()
    if archive.wait() != 0:
        raise subprocess.CalledProcessError(archive.returncode, "git archive")


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--base", required=True,
                    help="git ref of the base commit")
    ap.add_argument("--workload", action="append",
                    help="workload to run (repeatable; default: all)")
    ap.add_argument("--pairs", type=int, default=MIN_CLAIM_PAIRS)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    ap.add_argument("--json", help="also write the report to this path")
    args = ap.parse_args()

    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as f:
        spec = json.load(f)
    names = [w["name"] for w in spec["workloads"]]
    workloads = args.workload or names
    for w in workloads:
        if w not in names:
            ap.error(f"unknown workload {w!r} (BENCHMARK.json has {names})")
    claim_workload = claim_metric = None
    if args.claim:
        claim_workload, _, claim_metric = args.claim.partition(":")
        if claim_workload not in workloads or not any(
                m["name"] == claim_metric for m in spec["end_to_end"]):
            ap.error(f"--claim {args.claim!r}: not a run workload:metric")
    if args.pairs < 1:
        ap.error("--pairs must be >= 1")
    commit = subprocess.run(
        ["git", "-C", ROOT, "rev-parse", "--verify", "--quiet",
         args.base + "^{commit}"], capture_output=True, text=True)
    if commit.returncode != 0:
        ap.error(f"--base {args.base!r}: not a commit")

    base_root = tempfile.mkdtemp(prefix="bench_compare_base_")
    reports = []
    try:
        export_ref(commit.stdout.strip(), base_root)
        sides = {"base": base_root, "change": ROOT}
        for w in workloads:
            reports.append(compare_workload(
                sides, w, spec, args,
                claim_metric if w == claim_workload else None))
            print_report(reports[-1])
            sys.stdout.flush()
    finally:
        shutil.rmtree(base_root, ignore_errors=True)
    if args.json:
        with open(args.json, "w", encoding="utf-8") as f:
            json.dump(reports, f, indent=1)

    bad = False
    for r in reports:
        for side in ("base", "change"):
            bad |= r["runs"][side]["failed_runs"] > 0
        bad |= failed_share(r["runs"]["change"]) > \
            failed_share(r["runs"]["base"])
        for m in r["metrics"].values():
            bad |= m["verdict"] in ("regressed", "not met")
    return 1 if bad else 0


if __name__ == "__main__":
    sys.exit(main())
