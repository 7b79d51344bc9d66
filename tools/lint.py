#!/usr/bin/env python3
"""Project-invariant linter for PivotScale (docs/analysis.md).

Checks conventions a compiler cannot see:

  telemetry-name   AddCounter names must match ^[a-z]+(\\.[a-z_]+)+$ so the
                   run-report JSON namespace stays flat and greppable
                   (tests/ exempt: registry-mechanics tests use toy names).
  no-libc-random   rand()/srand()/time( are banned in src/: every random
                   stream must come from the seeded generators
                   (src/graph/generators.*) so runs are reproducible.
  no-naked-new     `new` expressions are banned in src/: ownership goes
                   through containers and smart-pointer factories.
  include-guards   every header carries a PIVOTSCALE_*_H_ include guard
                   matching its path.
  atomic-writes    file-writing handles (std::ofstream, fopen with a write
                   mode) in src/, examples/ and bench/ are only allowed
                   inside util/atomic_file.cc; all other writers must go
                   through WriteFileAtomic so readers can never observe a
                   truncated file. tests/ is exempt: some tests write
                   corrupt files on purpose.
  no-openmp        `#pragma omp`, an omp.h include and omp_* calls are
                   banned in src/, tests/, bench/ and examples/, with no
                   exemption: every parallel region runs on the exec
                   layer's own pool through the Executor primitives
                   (ParallelFor / ParallelReduce / ParallelForWorkers), so
                   the thread capacity, chunking and exec.* telemetry stay
                   uniform and no binary needs an OpenMP runtime.
  thread-owner     std::thread, std::jthread and pthread_create are banned
                   in src/ outside src/exec/ and src/net/: the exec
                   layer's helper pool owns the threads that parallel
                   work runs on (and the thread capacity they draw from),
                   and the serving stack owns its event loop and workers,
                   so no other module starts threads the capacity cannot
                   see.
  core-includes-repro
                   no file of the production library pivotscale_core may
                   include a header of the reproduction library
                   pivotscale_repro. Both source lists are read from
                   src/CMakeLists.txt, so the split is written down once: a
                   header belongs to the library that lists it or its .cc,
                   and any other header belongs to the core
                   (src/pivotscale.h, the umbrella over both, is exempt).

Exit status: 0 when clean, 1 when any finding was printed. Run from
anywhere; paths resolve relative to the repo root (this file's parent's
parent). `--list-rules` prints rule names and exits.
"""

import argparse
import pathlib
import re
import sys

REPO_ROOT = pathlib.Path(__file__).resolve().parent.parent
SRC_DIR = REPO_ROOT / "src"

COUNTER_NAME_RE = re.compile(r"^[a-z]+(\.[a-z_]+)+$")
ADD_COUNTER_RE = re.compile(r"""AddCounter\(\s*"([^"]*)"\s*,""")
LIBC_RANDOM_RE = re.compile(r"(?<![\w.:])(?:s?rand|time)\s*\(")
NAKED_NEW_RE = re.compile(r"(?<![\w.])new\b(?!\s*\()")
WRITE_HANDLE_RE = re.compile(
    r"std::ofstream|\bofstream\b|fopen\s*\([^)]*,\s*\"[wa]"
)

# The one blessed write site (temp file + rename) and the module that owns
# deliberately dynamic telemetry counter names.
ATOMIC_WRITE_OWNER = "util/atomic_file.cc"
ATOMIC_WRITE_SCOPE = ("src/", "examples/", "bench/")

OMP_PRAGMA_RE = re.compile(r"#\s*pragma\s+omp\b")
OMP_CALL_RE = re.compile(r"(?<![\w.:>])omp_\w+\s*\(")
OMP_INCLUDE_RE = re.compile(r'^\s*#\s*include\s*[<"]omp\.h[>"]')

THREAD_RE = re.compile(r"\bstd::j?thread\b|(?<![\w.:])pthread_create\s*\(")
THREAD_OWNERS = ("src/exec/", "src/net/")

LIBRARY_CMAKE = SRC_DIR / "CMakeLists.txt"
INCLUDE_RE = re.compile(r'^\s*#\s*include\s+"([^"]+)"')
UMBRELLA_HEADER = "src/pivotscale.h"


def strip_comments_and_strings(text):
    """Blanks comments and string/char literals, preserving line structure.

    Keeps AddCounter name literals intact is NOT needed here: callers that
    need literals run on the raw text; this stripped view exists so keyword
    rules (new / rand / ofstream) cannot be tripped by prose or strings.
    """
    out = []
    i = 0
    n = len(text)
    mode = "code"  # code | line_comment | block_comment | string | char
    while i < n:
        c = text[i]
        nxt = text[i + 1] if i + 1 < n else ""
        if mode == "code":
            if c == "/" and nxt == "/":
                mode = "line_comment"
                out.append("  ")
                i += 2
                continue
            if c == "/" and nxt == "*":
                mode = "block_comment"
                out.append("  ")
                i += 2
                continue
            if c == '"':
                mode = "string"
                out.append(" ")
                i += 1
                continue
            if c == "'":
                mode = "char"
                out.append(" ")
                i += 1
                continue
            out.append(c)
        elif mode == "line_comment":
            if c == "\n":
                mode = "code"
                out.append("\n")
            else:
                out.append(" ")
        elif mode == "block_comment":
            if c == "*" and nxt == "/":
                mode = "code"
                out.append("  ")
                i += 2
                continue
            out.append("\n" if c == "\n" else " ")
        else:  # string or char literal
            if c == "\\":
                out.append("  ")
                i += 2
                continue
            if (mode == "string" and c == '"') or (mode == "char" and c == "'"):
                mode = "code"
                out.append(" ")
            else:
                out.append("\n" if c == "\n" else " ")
        i += 1
    return "".join(out)


def library_stems(library):
    """Paths below src/, without extension, of one library's sources and
    of the headers it lists by name (those without a .cc)."""
    text = LIBRARY_CMAKE.read_text(encoding="utf-8")
    match = re.search(r"add_library\(\s*" + re.escape(library)
                      + r"\s+STATIC\s+([^)]*)\)", text)
    if match is None:
        return set()
    return {str(pathlib.PurePosixPath(token).with_suffix(""))
            for token in match.group(1).split()
            if token.endswith((".cc", ".h"))}


REPRO_STEMS = library_stems("pivotscale_repro")


def iter_findings_for_file(path):
    rel = path.relative_to(REPO_ROOT).as_posix()
    raw = path.read_text(encoding="utf-8", errors="replace")
    code = strip_comments_and_strings(raw)
    raw_lines = raw.splitlines()
    code_lines = code.splitlines()

    # telemetry-name: raw text, the names live in string literals. Tests
    # exercising registry mechanics may use toy names; the namespace rule
    # protects what shipping binaries emit.
    is_test = rel.startswith("tests/")
    for lineno, line in enumerate(raw_lines, 1):
        if is_test:
            break
        for match in ADD_COUNTER_RE.finditer(line):
            name = match.group(1)
            if not COUNTER_NAME_RE.match(name):
                yield (rel, lineno, "telemetry-name",
                       f'counter "{name}" does not match '
                       "^[a-z]+(\\.[a-z_]+)+$")

    in_src = rel.startswith("src/")
    for lineno, line in enumerate(raw_lines, 1):
        if OMP_INCLUDE_RE.match(line):
            yield (rel, lineno, "no-openmp",
                   "omp.h include; the tree uses no OpenMP")
    for lineno, line in enumerate(code_lines, 1):
        if OMP_PRAGMA_RE.search(line) or OMP_CALL_RE.search(line):
            yield (rel, lineno, "no-openmp",
                   "OpenMP pragma or omp_* call; use the Executor "
                   "primitives (exec/executor.h)")
        if (in_src and not rel.startswith(THREAD_OWNERS)
                and THREAD_RE.search(line)):
            yield (rel, lineno, "thread-owner",
                   "thread started outside src/exec/ and src/net/; run "
                   "parallel work through the Executor primitives "
                   "(exec/executor.h)")
        if in_src and LIBC_RANDOM_RE.search(line):
            yield (rel, lineno, "no-libc-random",
                   "rand()/time( is banned; use the seeded generators")
        if in_src and NAKED_NEW_RE.search(line):
            yield (rel, lineno, "no-naked-new",
                   "naked new; use containers or make_unique/make_shared")
        if (rel.startswith(ATOMIC_WRITE_SCOPE)
                and rel != f"src/{ATOMIC_WRITE_OWNER}"
                and WRITE_HANDLE_RE.search(line)):
            yield (rel, lineno, "atomic-writes",
                   "file write outside util/atomic_file; "
                   "route it through WriteFileAtomic")

    # core-includes-repro: a core file's quoted includes, resolved from
    # src/.
    stem = str(pathlib.PurePosixPath(rel.removeprefix("src/")).with_suffix(""))
    if (in_src and rel != UMBRELLA_HEADER and path.suffix in (".h", ".cc")
            and stem not in REPRO_STEMS):
        for lineno, line in enumerate(raw_lines, 1):
            match = INCLUDE_RE.match(line)
            if match is None:
                continue
            included = str(pathlib.PurePosixPath(match.group(1))
                           .with_suffix(""))
            if included in REPRO_STEMS:
                yield (rel, lineno, "core-includes-repro",
                       f'core file includes "{match.group(1)}" of '
                       "pivotscale_repro (src/CMakeLists.txt)")

    # include-guards: headers only.
    if path.suffix == ".h":
        expected = (
            "PIVOTSCALE_"
            + re.sub(r"[^A-Za-z0-9]", "_",
                     rel.removeprefix("src/")).upper()
            + "_"
        )
        if (f"#ifndef {expected}" not in raw
                or f"#define {expected}" not in raw):
            yield (rel, 1, "include-guards",
                   f"missing include guard {expected}")


def lint(paths):
    findings = []
    for path in paths:
        findings.extend(iter_findings_for_file(path))
    return findings


def default_targets():
    targets = []
    for root in (SRC_DIR, REPO_ROOT / "tests", REPO_ROOT / "bench",
                 REPO_ROOT / "examples"):
        if root.is_dir():
            targets.extend(sorted(root.rglob("*.h")))
            targets.extend(sorted(root.rglob("*.cc")))
            targets.extend(sorted(root.rglob("*.cpp")))
    return targets


def main(argv):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("files", nargs="*",
                        help="files to lint (default: src/ tests/ bench/ "
                             "examples/)")
    parser.add_argument("--list-rules", action="store_true")
    args = parser.parse_args(argv)

    if args.list_rules:
        print("telemetry-name no-libc-random no-naked-new include-guards "
              "atomic-writes no-openmp thread-owner core-includes-repro")
        return 0

    if args.files:
        targets = [pathlib.Path(f).resolve() for f in args.files]
        targets = [t for t in targets if t.suffix in (".h", ".cc", ".cpp")]
    else:
        targets = default_targets()

    findings = lint(targets)
    for rel, lineno, rule, message in findings:
        print(f"{rel}:{lineno}: [{rule}] {message}")
    if findings:
        print(f"lint.py: {len(findings)} finding(s)", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
