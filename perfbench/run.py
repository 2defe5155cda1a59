#!/usr/bin/env python3
"""Repository benchmark entry point.

Builds the stq library and the stq_e2e benchmark program from this checkout's
sources (CMake, into .bench_build/perfbench), then runs one workload:

    python3 perfbench/run.py --workload city_paper --seed 1 --seconds 20 --trace 0

Run it from the repository root. Build output goes to stderr; the
stq_e2e's report goes to stdout, and its last line is the JSON result
({"correct", "attempted", "failed", "metrics"}). The exit code is the
stq_e2e's: 0 only when every correctness check passed.

--trace 1 runs the separate traced run that reports the per-layer
metrics and writes a Chrome trace-event file (open it in Perfetto or
chrome://tracing) to .bench_build/perfbench/trace_<workload>.json.

Seeds: DEFAULT_SEED is the one the stream/counter fingerprints are pinned
at; HELD_OUT_SEED is pinned too, and is kept for confirming a claimed gain
on a seed the change was not tuned on.
"""

import argparse
import hashlib
import os
import subprocess
import sys

DEFAULT_SEED = 1
HELD_OUT_SEED = 2

# Fingerprint (update-stream CRC + program counters after the warm-up
# periods) per (workload, seed). Identical for untraced, traced and bare
# runs: the layer decorators must not change what the program does.
PINS = {
    ("city_paper", DEFAULT_SEED): "0xdd50d44b",
    ("city_paper", HELD_OUT_SEED): "0xb4356bf1",
    ("hotspot_sharded", DEFAULT_SEED): "0x60068a68",
    ("hotspot_sharded", HELD_OUT_SEED): "0xbcba40dd",
    ("durable_churn", DEFAULT_SEED): "0x50b9e7a8",
    ("durable_churn", HELD_OUT_SEED): "0x64137c43",
}

WORKLOADS = ("city_paper", "hotspot_sharded", "durable_churn")
BUILD_DIR = os.path.join(".bench_build", "perfbench")
BENCH_DIR = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH_DIR)


def log(msg):
    print(msg, file=sys.stderr, flush=True)


def source_id():
    """The git commit when available, else a hash of the source tree."""
    try:
        if not os.path.exists(os.path.join(ROOT, ".git")):
            raise OSError("not a git checkout")
        out = subprocess.run(["git", "-C", ROOT, "rev-parse", "HEAD"],
                             capture_output=True, text=True, timeout=10)
        if out.returncode == 0 and out.stdout.strip():
            return out.stdout.strip()
    except (OSError, subprocess.SubprocessError):
        pass
    h = hashlib.sha1()
    for top in ("src", "cmake", "perfbench"):
        for dirpath, dirnames, filenames in os.walk(os.path.join(ROOT, top)):
            dirnames.sort()
            for name in sorted(filenames):
                path = os.path.join(dirpath, name)
                h.update(os.path.relpath(path, ROOT).encode())
                with open(path, "rb") as f:
                    h.update(f.read())
    return "tree-" + h.hexdigest()[:12]


def build():
    jobs = str(min(4, os.cpu_count() or 1))
    if not os.path.exists(os.path.join(BUILD_DIR, "CMakeCache.txt")):
        cmd = ["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR,
               "-DCMAKE_BUILD_TYPE=RelWithDebInfo"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            return False
    cmd = ["cmake", "--build", BUILD_DIR, "--target", "stq_e2e", "-j", jobs]
    return subprocess.run(cmd, stdout=sys.stderr,
                          stderr=sys.stderr).returncode == 0


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=20.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--bare", action="store_true",
                    help="no decorators: fingerprint only (decorator check)")
    args = ap.parse_args()

    if not os.path.exists(os.path.join(ROOT, "src", "CMakeLists.txt")):
        log("perfbench: the stq sources (src/) are not in this checkout")
        return 2
    if not build():
        log("perfbench: build failed")
        return 2

    cmd = [os.path.join(BUILD_DIR, "stq_e2e"),
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--trace", str(args.trace),
           "--sha", source_id()]
    pin = PINS.get((args.workload, args.seed))
    if pin:
        cmd += ["--expect-fingerprint", pin]
    if args.trace:
        cmd += ["--trace-out",
                os.path.join(BUILD_DIR, "trace_%s.json" % args.workload)]
    if args.bare:
        cmd.append("--bare")
    sys.stdout.flush()
    return subprocess.run(cmd).returncode


if __name__ == "__main__":
    sys.exit(main())
