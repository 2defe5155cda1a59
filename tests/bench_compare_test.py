#!/usr/bin/env python3
"""Unit test for the verdict logic of tools/bench_compare.py.

Feeds canned paired samples to bench_compare.judge() and checks each
verdict: a claim that holds, claims that miss on pairs won, on the
median gap, on too few pairs, on failed pairs or on a larger failed
share, a regression past the bound, a spread too wide to resolve, an
unresolvable spread rescued by a clean separation, and a single pair
whose spread is unknown. Run from anywhere; registered in ctest as
`bench_compare_test`.
"""

import importlib.util
import os
import sys

sys.dont_write_bytecode = True
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
spec = importlib.util.spec_from_file_location(
    "bench_compare", os.path.join(REPO, "tools", "bench_compare.py"))
bench_compare = importlib.util.module_from_spec(spec)
spec.loader.exec_module(bench_compare)
judge = bench_compare.judge


def check(name, got, want, failures):
    if got != want:
        print(f"FAIL: {name}: want {want!r}, got {got!r}", file=sys.stderr)
        failures.append(name)


def main():
    failures = []
    base = [1200, 1250, 1190, 1300, 1220, 1280, 1210, 1260, 1240, 1230]

    # 10/10 pairs won and a gap far beyond the base IQR: the claim holds.
    faster = [v * 0.7 for v in base]
    r = judge(base, faster, "lower", 0.25, claimed=True)
    check("claim holds", r["verdict"], "holds", failures)
    check("claim wins", r["wins"], 10, failures)

    # Only 8 of 10 pairs won: not met, however large the median gap.
    mostly = list(faster)
    mostly[0] = base[0] + 1
    mostly[1] = base[1] + 1
    r = judge(base, mostly, "lower", 0.25, claimed=True)
    check("claim 8/10", r["verdict"], "not met", failures)
    check("claim 8/10 wins", r["wins"], 8, failures)

    # Every pair won, but by less than the base runs' interquartile range.
    q1, _, q3 = bench_compare.quartiles(base)
    slightly = [v - 1 for v in base]
    r = judge(base, slightly, "lower", 0.25, claimed=True)
    check("claim small gap", r["verdict"], "not met", failures)
    check("base iqr", q3 - q1 > 1, True, failures)

    # A higher-is-better claim wins the same way in the other direction.
    r = judge(base, [v * 1.3 for v in base], "higher", 0.25, claimed=True)
    check("claim higher", r["verdict"], "holds", failures)

    # Too few pairs to claim anything, however clean: one pair (whose
    # interquartile range is 0) and three pairs, all won by far.
    r = judge([7.0], [6.0], "lower", 0.25, claimed=True)
    check("claim 1 pair", r["verdict"], "not met", failures)
    r = judge(base[:3], faster[:3], "lower", 0.25, claimed=True)
    check("claim 3 pairs", r["verdict"], "not met", failures)
    check("claim 3 pairs wins", (r["wins"], r["pairs"]), (3, 3), failures)

    # Wins count out of every pair run: 9 clean wins of 10 pairs hold,
    # 9 clean wins of 11 pairs (two failed) do not.
    r = judge(base[:9], faster[:9], "lower", 0.25, claimed=True,
              attempted=10)
    check("claim 9 of 10", r["verdict"], "holds", failures)
    r = judge(base[:9], faster[:9], "lower", 0.25, claimed=True,
              attempted=11)
    check("claim 9 of 11", r["verdict"], "not met", failures)
    check("claim 9 of 11 pairs", (r["wins"], r["pairs"]), (9, 11), failures)

    # A gain bought with a larger share of failed operations does not
    # count; the other metrics are judged as usual.
    r = judge(base, faster, "lower", 0.25, claimed=True, more_failed=True)
    check("claim more failed", r["verdict"], "not met", failures)
    r = judge(base, faster, "lower", 0.25, more_failed=True)
    check("unclaimed more failed", r["verdict"], "ok", failures)

    # Ties count for neither side.
    r = judge([5, 5, 5], [5, 5, 4], "lower", 0.25)
    check("ties", (r["wins"], r["losses"]), (1, 0), failures)

    # A median 40% worse than the base, bound 25%: regressed.
    r = judge(base, [v * 1.4 for v in base], "lower", 0.25)
    check("regressed", r["verdict"], "regressed", failures)

    # 10% worse within a 25% bound, tight runs: ok.
    r = judge(base, [v * 1.1 for v in base], "lower", 0.25)
    check("within bound", r["verdict"], "ok", failures)

    # Higher-is-better regression: throughput down 30%.
    r = judge(base, [v * 0.7 for v in base], "higher", 0.25)
    check("regressed higher", r["verdict"], "regressed", failures)

    # Same medians, but the change's runs spread over 50% of their
    # median against a 5% bound: unresolved, not "unchanged".
    noisy = [600, 1800, 1240, 700, 1700, 1230, 650, 1750, 1220, 1235]
    r = judge(base, noisy, "lower", 0.05)
    check("unresolved", r["verdict"], "unresolved", failures)

    # Wide spread on both sides, but every change run beats every base
    # run: resolved in the change's favour.
    wide_base = [2000, 3000, 4000, 2500, 3500]
    wide_change = [1000, 1500, 1900, 1200, 1800]
    r = judge(wide_base, wide_change, "lower", 0.05)
    check("separated", r["verdict"], "ok", failures)

    # A zero base median: unchanged stays ok, any worsening is infinite.
    r = judge([0, 0, 0], [0, 0, 0], "lower", 0.1)
    check("zero ok", r["verdict"], "ok", failures)
    r = judge([0, 0, 0], [1, 1, 1], "lower", 0.1)
    check("zero regressed", r["verdict"], "regressed", failures)

    # A single pair reduces the quartiles to the value itself, but its
    # spread is unknown: unresolved unless the change reads better.
    check("single quartiles", bench_compare.quartiles([7.0]),
          (7.0, 7.0, 7.0), failures)
    r = judge([7.0], [7.1], "lower", 0.25)
    check("single pair", r["verdict"], "unresolved", failures)
    r = judge([7.0], [6.9], "lower", 0.25)
    check("single pair better", r["verdict"], "ok", failures)

    if failures:
        print(f"{len(failures)} failure(s)", file=sys.stderr)
        return 1
    print("OK: bench_compare verdicts")
    return 0


if __name__ == "__main__":
    sys.exit(main())
