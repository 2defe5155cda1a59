#!/usr/bin/env python3
"""stq-lint: the repository's unified static-analysis driver.

One entry point for every file-scoped source check (CONTRIBUTING.md,
"Static analysis"). Checks run on comment- and string-stripped code so a
mention of fopen in prose never trips the gate, and every finding can be
waived in place with a justification:

    // stq-lint: allow(<check>[/<rule>]): <why this line is exempt>

A waiver on a code line exempts that line; a waiver on a comment-only
line exempts the line below it (for multi-line declarations put the
waiver directly above the flagged line). A file-scoped waiver

    // stq-lint: allow-file(<check>[/<rule>]): <why this file is exempt>

anywhere in a file exempts the whole file from that check (or rule).

Checks
------
  io-routing        Every byte the library reads or writes must flow
                    through stq::Env so fault injection and the crash
                    torture harness see it. Raw OS I/O is confined to
                    storage/posix_env.cc (stderr logging keeps <cstdio>
                    in common/logging.cc). Rules: os-header, stdio,
                    std-file.
  determinism       Stream-emitting code (core/, grid/, storage/) must
                    stay byte-deterministic: no ambient randomness, no
                    wall-clock reads, no std::unordered_* (its iteration
                    order varies across libraries and runs). Seeded
                    stq::Xorshift128Plus and std::chrono::steady_clock
                    (monotonic, stats-only) are permitted. Rules:
                    random, clock, unordered.
  alloc-discipline  Hot-path dirs (core/, grid/, common/) follow the
                    PR-5 allocation rules: FlatMap/FlatSet over
                    std::unordered_*, template visitors over
                    std::function, no naked new-expressions. Rules:
                    container, function, new.
  grid-adaptation   Cell refinement levels mutate only through the
                    adaptive layer: GridIndex::SetCellLevel re-buckets a
                    cell's entries, so an ad-hoc caller that skips the
                    refiner's hysteresis/cooldown policy (or passes the
                    wrong geometry oracle) silently corrupts slot
                    bookkeeping. Calls are confined to
                    core/grid_refiner.cc. Rule: set-cell-level.
  delivery-routing  Client answer state mutates only through the session
                    layer: direct calls to Client::ApplyUpdates /
                    ApplyFullAnswer outside core/session.cc bypass the
                    sequence/gap machinery, so a dropped envelope would
                    go unnoticed and the convergence proof breaks.
                    Rule: direct-apply.
  simd-confinement  Raw SIMD intrinsics (x86 <immintrin.h>/_mm*, NEON
                    <arm_neon.h>/vector types) are banned under src/stq:
                    they compile on one ISA only, and hand-written
                    AVX2/NEON kernels measured no faster than the
                    portable scalar kernels in core/match_kernels.cc,
                    which the compiler may auto-vectorize. Rules:
                    intrinsics-header, intrinsics.
  include-hygiene   Banned headers under src/stq: <iostream> (static-init
                    fiasco; use common/logging.h), <random> (use
                    common/random.h), <regex>, <filesystem> (bypasses
                    stq::Env), and <mutex>/<condition_variable>/
                    <shared_mutex> outside common/mutex.h (use the
                    annotated stq::Mutex wrappers). Rule: banned-header.

Usage
-----
    tools/stq_lint.py [--root DIR] [--compile-commands PATH]
                      [--check NAME ...] [--list-checks] [--verbose]

Exit status: 0 when clean, 1 when findings remain, 2 on usage error.
When a compile_commands.json is given (or found at build/), every
translation unit it compiles under src/ is folded into the scan set, so
generated or out-of-tree sources cannot dodge the gate.
"""

import argparse
import json
import os
import re
import sys

# --------------------------------------------------------------------------
# Source preprocessing


def strip_comments_and_strings(text):
    """Blanks out comments, string literals, and char literals.

    Every stripped character becomes a space, so line numbers and columns
    are preserved. Line continuations inside literals are not handled (the
    codebase has none).
    """
    out = []
    i = 0
    n = len(text)
    NORMAL, LINE_COMMENT, BLOCK_COMMENT, STRING, CHAR = range(5)
    state = NORMAL
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if state == NORMAL:
            if c == "/" and nxt == "/":
                state = LINE_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                state = BLOCK_COMMENT
                out.append("  ")
                i += 2
                continue
            if c == '"':
                state = STRING
                out.append(" ")
                i += 1
                continue
            if c == "'":
                state = CHAR
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif state == LINE_COMMENT:
            if c == "\n":
                state = NORMAL
                out.append("\n")
            else:
                out.append(" ")
        elif state == BLOCK_COMMENT:
            if c == "*" and nxt == "/":
                state = NORMAL
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        elif state in (STRING, CHAR):
            quote = '"' if state == STRING else "'"
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if c == quote:
                state = NORMAL
            out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


# --------------------------------------------------------------------------
# Waivers

WAIVER_RE = re.compile(
    r"stq-lint:\s*(allow|allow-file)\(([A-Za-z0-9_-]+)(?:/([A-Za-z0-9_-]+))?\)"
)


class Waivers:
    """Per-file waiver index built from the *unstripped* source."""

    def __init__(self, raw_text, stripped_text):
        self.file_level = set()  # (check, rule-or-None)
        self.line_level = {}  # line number -> set of (check, rule-or-None)
        raw_lines = raw_text.split("\n")
        stripped_lines = stripped_text.split("\n")
        for idx, raw in enumerate(raw_lines):
            lineno = idx + 1
            for m in WAIVER_RE.finditer(raw):
                scope_kind, check, rule = m.group(1), m.group(2), m.group(3)
                key = (check, rule)
                if scope_kind == "allow-file":
                    self.file_level.add(key)
                    continue
                # A waiver on a comment-only line applies to the next line.
                code = (
                    stripped_lines[idx] if idx < len(stripped_lines) else ""
                )
                target = lineno + 1 if code.strip() == "" else lineno
                self.line_level.setdefault(target, set()).add(key)

    def waived(self, check, rule, lineno):
        for key in ((check, None), (check, rule)):
            if key in self.file_level:
                return True
            if key in self.line_level.get(lineno, set()):
                return True
        return False


# --------------------------------------------------------------------------
# Check definitions

SRC_EXTENSIONS = (".h", ".cc")


class Rule:
    def __init__(self, check, rule, dirs, pattern, message, exclude=()):
        self.check = check
        self.rule = rule
        self.dirs = dirs  # path prefixes relative to root, '/' separated
        self.pattern = re.compile(pattern)
        self.message = message
        self.exclude = exclude  # relpath suffixes exempt from this rule

    def applies_to(self, relpath):
        if not any(relpath.startswith(d) for d in self.dirs):
            return False
        return not any(relpath.endswith(e) for e in self.exclude)


STREAM_DIRS = ("src/stq/core/", "src/stq/grid/", "src/stq/storage/")
HOT_DIRS = ("src/stq/core/", "src/stq/grid/", "src/stq/common/")
ALL_SRC = ("src/stq/",)

RULES = [
    # --- io-routing (the old tools/check_io_routing.sh, now one of four) ---
    Rule(
        "io-routing", "os-header", ALL_SRC,
        r"#\s*include\s*<(fcntl\.h|unistd\.h|sys/stat\.h|sys/uio\.h|dirent\.h)>",
        "OS I/O header outside posix_env.cc; route file access through stq::Env",
        exclude=("storage/posix_env.cc",),
    ),
    Rule(
        "io-routing", "stdio", ALL_SRC,
        r"\b(fopen|fwrite|fread|fclose|fseeko?|ftello?|fsync|fdatasync"
        r"|ftruncate|fileno)\s*\(",
        "raw stdio/fd file I/O outside posix_env.cc; route through stq::Env",
        exclude=("storage/posix_env.cc", "common/logging.cc"),
    ),
    Rule(
        "io-routing", "std-file", ALL_SRC,
        r"\bstd::(rename|tmpfile|freopen)\s*\(",
        "std:: file operation outside posix_env.cc; use Env::RenameFile et al.",
        exclude=("storage/posix_env.cc",),
    ),
    # --- determinism (stream-emitting code must be byte-deterministic) ----
    Rule(
        "determinism", "random", STREAM_DIRS,
        r"std::random_device|std::mt19937|std::default_random_engine"
        r"|std::uniform_(?:int|real)_distribution"
        r"|(?<![\w.>])(?:rand|srand|drand48|lrand48|mrand48)\s*\(",
        "ambient randomness in stream-emitting code; use a seeded "
        "stq::Xorshift128Plus plumbed from options",
    ),
    Rule(
        "determinism", "clock", STREAM_DIRS,
        r"std::chrono::system_clock"
        r"|(?<![\w.>])(?:time|clock|gettimeofday|clock_gettime|localtime"
        r"|gmtime)\s*\(",
        "wall-clock read in stream-emitting code; ticks advance via the "
        "Timestamp argument (steady_clock is allowed for stats timing only)",
    ),
    Rule(
        "determinism", "unordered", STREAM_DIRS,
        r"std::unordered_(?:map|set|multimap|multiset)",
        "std::unordered_* iteration order is nondeterministic; use "
        "FlatMap/FlatSet and sort before emission",
    ),
    # --- alloc-discipline (PR-5 hot-path allocation rules) ----------------
    Rule(
        "alloc-discipline", "container", HOT_DIRS,
        r"std::unordered_(?:map|set|multimap|multiset)",
        "node-based hash container in a hot-path dir; use FlatMap/FlatSet "
        "(common/flat_hash.h)",
    ),
    Rule(
        "alloc-discipline", "function", HOT_DIRS,
        r"std::function",
        "std::function in a hot-path dir allocates per wrap; take a "
        "template callable (see GridIndex::ForEach*)",
    ),
    Rule(
        "alloc-discipline", "new", HOT_DIRS,
        r"(?<![\w:])new\s+[A-Za-z_(:]",
        "naked new-expression in a hot-path dir; use std::make_unique, a "
        "container, or SmallVector",
    ),
    # --- grid-adaptation (cell resolution mutates only via the refiner) ---
    Rule(
        "grid-adaptation", "set-cell-level", ALL_SRC,
        r"(?:\.|->)\s*SetCellLevel\s*\(",
        "direct cell-resolution mutation outside the adaptive layer; "
        "splits/merges go through GridRefiner (core/grid_refiner.cc)",
        exclude=("core/grid_refiner.cc",),
    ),
    # --- delivery-routing (answers mutate only via the session layer) -----
    Rule(
        "delivery-routing", "direct-apply", ALL_SRC,
        r"(?:\.|->)Apply(?:Updates|FullAnswer)\s*\(",
        "direct Client::Apply* call outside core/session.cc bypasses the "
        "sequenced-envelope path; deliver through ClientSession",
        exclude=("core/session.cc",),
    ),
    # --- simd-confinement (no raw intrinsics anywhere in src/stq) ---------
    Rule(
        "simd-confinement", "intrinsics-header", ALL_SRC,
        r"#\s*include\s*<(immintrin\.h|x86intrin\.h|emmintrin\.h"
        r"|xmmintrin\.h|smmintrin\.h|arm_neon\.h)>",
        "SIMD intrinsics header under src/stq; write the kernel as a "
        "portable loop in core/match_kernels.cc instead",
    ),
    Rule(
        "simd-confinement", "intrinsics", ALL_SRC,
        r"(?<![\w])_mm\d*_\w+\s*\(|\b__m(?:128|256|512)[di]?\b"
        r"|\b(?:float|int|uint)(?:32|64)x[24]_t\b",
        "raw SIMD intrinsic under src/stq; write the kernel as a portable "
        "loop in core/match_kernels.cc instead",
    ),
    # --- include-hygiene --------------------------------------------------
    Rule(
        "include-hygiene", "banned-header", ALL_SRC,
        r"#\s*include\s*<(iostream|random|regex|filesystem|strstream)>",
        "banned header under src/stq (logging.h for output, random.h for "
        "PRNGs, stq::Env for the filesystem)",
    ),
    Rule(
        "include-hygiene", "banned-header", ALL_SRC,
        r"#\s*include\s*<(mutex|condition_variable|shared_mutex)>",
        "raw synchronization header outside common/mutex.h; use the "
        "annotated stq::Mutex/MutexLock/CondVar",
        exclude=("common/mutex.h",),
    ),
]

CHECKS = sorted({r.check for r in RULES})


# --------------------------------------------------------------------------
# File collection


def walk_sources(root):
    files = []
    src_root = os.path.join(root, "src")
    for dirpath, _, names in os.walk(src_root):
        for name in names:
            if name.endswith(SRC_EXTENSIONS):
                path = os.path.join(dirpath, name)
                files.append(os.path.relpath(path, root))
    return sorted(files)


def compile_db_sources(root, db_path):
    """Translation units from compile_commands.json that live under root."""
    try:
        with open(db_path, "r", encoding="utf-8") as f:
            entries = json.load(f)
    except (OSError, ValueError) as e:
        print(f"stq-lint: warning: unreadable compile db {db_path}: {e}",
              file=sys.stderr)
        return []
    found = []
    root_abs = os.path.realpath(root)
    for entry in entries:
        path = entry.get("file", "")
        if not os.path.isabs(path):
            path = os.path.join(entry.get("directory", ""), path)
        path = os.path.realpath(path)
        if path.startswith(root_abs + os.sep):
            rel = os.path.relpath(path, root_abs)
            if rel.startswith("src" + os.sep):
                found.append(rel.replace(os.sep, "/"))
    return sorted(set(found))


# --------------------------------------------------------------------------
# Driver


def lint_file(root, relpath, rules):
    try:
        with open(os.path.join(root, relpath), "r", encoding="utf-8") as f:
            raw = f.read()
    except OSError as e:
        return [(relpath, 0, "driver", "io", f"unreadable file: {e}")]
    stripped = strip_comments_and_strings(raw)
    waivers = Waivers(raw, stripped)
    findings = []
    lines = stripped.split("\n")
    for rule in rules:
        if not rule.applies_to(relpath):
            continue
        for idx, line in enumerate(lines):
            if not rule.pattern.search(line):
                continue
            lineno = idx + 1
            if waivers.waived(rule.check, rule.rule, lineno):
                continue
            findings.append(
                (relpath, lineno, rule.check, rule.rule, rule.message))
    return findings


def main(argv):
    parser = argparse.ArgumentParser(
        prog="stq_lint.py", description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--root", default=None,
                        help="repository root (default: the tools/ parent)")
    parser.add_argument("--compile-commands", default=None,
                        help="compile_commands.json to fold into the scan "
                             "set (default: <root>/build/compile_commands"
                             ".json when present)")
    parser.add_argument("--check", action="append", default=None,
                        choices=CHECKS, help="run only the named check(s)")
    parser.add_argument("--list-checks", action="store_true")
    parser.add_argument("--verbose", action="store_true")
    args = parser.parse_args(argv)

    if args.list_checks:
        for check in CHECKS:
            rules = sorted(r.rule for r in RULES if r.check == check)
            print(f"{check}: rules {', '.join(rules)}")
        return 0

    root = args.root or os.path.dirname(
        os.path.dirname(os.path.abspath(__file__)))
    if not os.path.isdir(os.path.join(root, "src")):
        print(f"stq-lint: error: no src/ under root {root}", file=sys.stderr)
        return 2

    rules = RULES
    if args.check:
        rules = [r for r in RULES if r.check in set(args.check)]

    files = walk_sources(root)
    db_path = args.compile_commands
    if db_path is None:
        default_db = os.path.join(root, "build", "compile_commands.json")
        if os.path.exists(default_db):
            db_path = default_db
    if db_path is not None and os.path.exists(db_path):
        extra = [f for f in compile_db_sources(root, db_path)
                 if f not in set(files)]
        if extra and args.verbose:
            print(f"stq-lint: +{len(extra)} compile-db sources",
                  file=sys.stderr)
        files = sorted(set(files) | set(extra))

    findings = []
    for relpath in files:
        findings.extend(lint_file(root, relpath.replace(os.sep, "/"), rules))

    findings.sort()
    for relpath, lineno, check, rule, message in findings:
        print(f"{relpath}:{lineno}: [{check}/{rule}] {message}")
    if findings:
        print(f"stq-lint: {len(findings)} finding(s) in "
              f"{len({f[0] for f in findings})} file(s); waive with "
              f"'// stq-lint: allow(<check>[/<rule>]): <reason>'",
              file=sys.stderr)
        return 1
    if args.verbose:
        print(f"stq-lint: clean ({len(files)} files)", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
