#!/usr/bin/env python3
"""quickview project lint — rules clang cannot express, run in the CI
`analyze` leg next to -Wthread-safety and clang-tidy (and locally via
`python3 tools/lint.py` or the `project_lint` ctest).

Rules
-----
bare-sync       std::mutex / std::shared_mutex / std::lock_guard /
                std::unique_lock / std::shared_lock / std::scoped_lock /
                std::condition_variable (and their <mutex>-family
                includes) are forbidden everywhere except
                src/common/sync.h. Every lock in the tree must be a
                qv:: primitive so the clang thread-safety analysis sees
                it; a bare std::mutex is invisible to the analysis and
                punches a hole in the lock-discipline proof.

unchecked-value Calling .value() on a variable declared as Result<T>
                without a visible .ok() / .status() check between the
                declaration and the use (same enclosing function).
                Result::value() on an error is undefined behavior in
                Release builds (assert compiles away). Propagating
                macros (QUICKVIEW_ASSIGN_OR_RETURN etc.) never expose
                the Result, so they are naturally clean. Limitation:
                the rule keys on a visible `Result<...> ident`
                declaration — `auto` declarations and chained
                temporaries are not matched (kept conservative to stay
                false-positive-free on e.g. obs::Counter::value()).

raw-durability  fsync / fdatasync / pwrite outside src/pagestore/. All
                durability syscalls belong to the storage engine; a
                stray fsync elsewhere bypasses the WAL's write/flush
                protocol and its group-commit batching.

wal-durability  The inverse guard: src/pagestore/wal.cc must CONTAIN a
                real durability syscall. The original delta-log bug was
                an append path that only flushed userspace buffers —
                "durable" in name only. raw-durability permits the
                syscall in the log module; this rule requires it, so
                the pair pins fdatasync to exactly the commit path.

adhoc-stats     A new `struct FooStats` / `struct FooCounters`
                declaration under src/ outside src/obs/. Process-wide
                telemetry belongs in obs::MetricsRegistry instruments
                (Counter / Gauge / Histogram) so it appears in the
                Prometheus text exposition and the Stats RPC instead of
                growing another hand-rolled snapshot struct. Genuine
                per-request value types (EngineStats and friends, wire
                structs, baseline measurement records) carry a waiver
                naming why they are data, not telemetry.

raw-socket      socket / bind / listen / accept / connect / recv / send
                (and friends) outside src/server/. All network I/O goes
                through the framed protocol in src/server/ — Server on
                the accept side, Client/LoadDriver on the dial side — so
                every byte on the wire is checksummed, deadline-scoped,
                and counted by the serving stats. A stray socket() in a
                tool or test bypasses admission control and the
                observability stack.

Suppressions: append `// lint:allow(<rule>)` to the offending line with
a justifying comment; the README documents the policy.

Exit status: 0 clean, 1 findings, 2 usage error. `--selftest` runs the
rules against embedded good/bad snippets and fails if any rule has gone
blunt — proof the gate bites, mirroring tests/negative/ for the
compiler-enforced gates.
"""

import argparse
import os
import re
import sys

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Directories scanned by default (relative to repo root).
DEFAULT_ROOTS = ["src", "tools", "tests", "bench", "examples"]

# The one file allowed to name std primitives.
SYNC_H = os.path.join("src", "common", "sync.h")

BARE_SYNC_TYPES = (
    r"std::(?:recursive_|shared_|timed_|recursive_timed_)?mutex\b"
    r"|std::(?:lock_guard|unique_lock|shared_lock|scoped_lock)\b"
    r"|std::condition_variable(?:_any)?\b"
)
BARE_SYNC_INCLUDES = r'#\s*include\s*<(?:mutex|shared_mutex|condition_variable)>'

DURABILITY_CALL = r"(?:::)?\b(?:fsync|fdatasync|pwrite)\s*\("

SOCKET_CALL = (
    r"(?:::)?\b(?:socket|bind|listen|accept4?|connect|recv|send|sendto|"
    r"recvfrom|setsockopt|getsockopt|getsockname|shutdown|"
    r"epoll_create1?|epoll_ctl|epoll_wait)\s*\(")

ADHOC_STATS = re.compile(r"^\s*struct\s+\w*(?:Stats|Counters)\b")

RESULT_DECL = re.compile(r"\bResult<.*>\s+(\w+)\s*(?:=|\{|\(|;)")
VALUE_USE = re.compile(r"(?:std::move\s*\(\s*)?\b(\w+)\s*\)?\s*\.\s*value\s*\(\s*\)")

ALLOW = re.compile(r"//\s*lint:allow\((?P<rules>[a-z\-, ]+)\)")


def strip_comments_and_strings(lines):
    """Returns lines with comments and string/char literal *contents*
    blanked (structure and line count preserved), plus the raw lines (for
    suppression comments)."""
    out = []
    in_block = False
    string_re = re.compile(
        r'"(?:\\.|[^"\\])*"'     # string literal
        r"|'(?:\\.|[^'\\])'"     # char literal
    )
    for line in lines:
        if in_block:
            end = line.find("*/")
            if end < 0:
                out.append("")
                continue
            line = " " * (end + 2) + line[end + 2:]
            in_block = False
        # Blank string/char literal contents first so // inside a string
        # does not look like a comment.
        line = string_re.sub(lambda m: '"' + " " * (len(m.group(0)) - 2) + '"',
                             line)
        # Trailing block comments on one line.
        while True:
            start = line.find("/*")
            if start < 0:
                break
            end = line.find("*/", start + 2)
            if end < 0:
                line = line[:start]
                in_block = True
                break
            line = line[:start] + " " * (end + 2 - start) + line[end + 2:]
        cut = line.find("//")
        if cut >= 0:
            line = line[:cut]
        out.append(line)
    return out


def allowed(raw_line, rule):
    m = ALLOW.search(raw_line)
    if not m:
        return False
    rules = {r.strip() for r in m.group("rules").split(",")}
    return rule in rules


def is_function_boundary(line):
    """Heuristic start-of-window for the unchecked-value scope walk: a
    column-0 `}` (end of previous function) or a column-0 line opening a
    brace (function/namespace head in the project style)."""
    return bool(re.match(r"^\}", line)) or bool(re.match(r"^\S.*\{\s*$", line))


def check_file(rel_path, raw_lines, findings):
    code = strip_comments_and_strings(raw_lines)
    norm = rel_path.replace(os.sep, "/")

    # --- bare-sync --------------------------------------------------------
    if norm != SYNC_H.replace(os.sep, "/"):
        for i, line in enumerate(code):
            if re.search(BARE_SYNC_TYPES, line) or re.search(
                    BARE_SYNC_INCLUDES, line):
                if not allowed(raw_lines[i], "bare-sync"):
                    findings.append(
                        (rel_path, i + 1, "bare-sync",
                         "bare std synchronization primitive; use the "
                         "annotated qv:: wrappers from common/sync.h"))

    # --- raw-durability ---------------------------------------------------
    if not norm.startswith("src/pagestore/"):
        for i, line in enumerate(code):
            if re.search(DURABILITY_CALL, line):
                if not allowed(raw_lines[i], "raw-durability"):
                    findings.append(
                        (rel_path, i + 1, "raw-durability",
                         "durability syscall outside src/pagestore/; all "
                         "fsync/pwrite belong to the storage engine"))

    # --- wal-durability ---------------------------------------------------
    if norm == "src/pagestore/wal.cc":
        if not any(re.search(DURABILITY_CALL, line) for line in code):
            findings.append(
                (rel_path, 1, "wal-durability",
                 "the WAL commit path contains no fsync/fdatasync; an "
                 "append that only flushes userspace buffers is not "
                 "durable"))

    # --- adhoc-stats ------------------------------------------------------
    if norm.startswith("src/") and not norm.startswith("src/obs/"):
        for i, line in enumerate(code):
            if ADHOC_STATS.match(line):
                if not allowed(raw_lines[i], "adhoc-stats"):
                    findings.append(
                        (rel_path, i + 1, "adhoc-stats",
                         "ad-hoc stats struct; register obs:: Counter/"
                         "Gauge/Histogram instruments instead (waive "
                         "per-request value types with a justification)"))

    # --- raw-socket -------------------------------------------------------
    if not norm.startswith("src/server/"):
        for i, line in enumerate(code):
            if re.search(SOCKET_CALL, line):
                if not allowed(raw_lines[i], "raw-socket"):
                    findings.append(
                        (rel_path, i + 1, "raw-socket",
                         "socket syscall outside src/server/; all network "
                         "I/O goes through the framed Server/Client stack"))

    # --- unchecked-value --------------------------------------------------
    for i, line in enumerate(code):
        for use in VALUE_USE.finditer(line):
            ident = use.group(1)
            # Walk back to the enclosing-function boundary collecting the
            # window; stop early once we see the declaration.
            declared = False
            checked = False
            window = range(i, -1, -1)
            check_re = re.compile(
                r"\b%s\s*(?:\.|->)\s*(?:ok|status)\s*\(" % re.escape(ident))
            decl_re = re.compile(r"\bResult<.*>\s+%s\b" % re.escape(ident))
            for j in window:
                if j != i and is_function_boundary(code[j]):
                    break
                if check_re.search(code[j]):
                    checked = True
                    break
                if decl_re.search(code[j]):
                    declared = True
                    break
            if declared and not checked:
                if not allowed(raw_lines[i], "unchecked-value"):
                    findings.append(
                        (rel_path, i + 1, "unchecked-value",
                         "Result<T>::value() on '%s' without a visible "
                         ".ok()/.status() check in the same scope" % ident))


def iter_files(roots):
    for root in roots:
        base = os.path.join(REPO_ROOT, root)
        if os.path.isfile(base):
            yield os.path.relpath(base, REPO_ROOT)
            continue
        for dirpath, _, names in os.walk(base):
            for name in sorted(names):
                if name.endswith((".cc", ".h")):
                    yield os.path.relpath(os.path.join(dirpath, name),
                                          REPO_ROOT)


def run(roots):
    findings = []
    for rel in iter_files(roots):
        with open(os.path.join(REPO_ROOT, rel), encoding="utf-8") as f:
            raw = f.read().splitlines()
        check_file(rel, raw, findings)
    for path, line, rule, msg in findings:
        print("%s:%d: [%s] %s" % (path, line, rule, msg))
    return 1 if findings else 0


# ---------------------------------------------------------------------------
# Self-test: every rule must flag its bad snippet and pass its good one.
# ---------------------------------------------------------------------------
SELFTEST_CASES = [
    ("bare-sync", "src/foo/bar.h", "std::mutex mu_;", True),
    ("bare-sync", "src/foo/bar.cc",
     "std::lock_guard<std::mutex> lock(mu_);", True),
    ("bare-sync", "src/foo/bar.cc", "#include <mutex>", True),
    ("bare-sync", "src/common/sync.h", "std::mutex mu_;", False),
    ("bare-sync", "src/foo/bar.h", "qv::Mutex mu_;", False),
    ("bare-sync", "src/foo/bar.h", "// talks about std::mutex only", False),
    ("bare-sync", "src/foo/bar.h",
     "std::mutex raw_;  // lint:allow(bare-sync) interop with libfoo", False),
    ("raw-durability", "src/storage/x.cc", "  ::fsync(fd);", True),
    ("raw-durability", "tools/x.cc", "  pwrite(fd, buf, n, off);", True),
    ("raw-durability", "src/pagestore/paged_file.cc", "  ::fsync(fd_);",
     False),
    ("raw-durability", "src/storage/x.cc", '  Log("about fsync()");', False),
    # The two halves of the WAL durability pin: the log module may (and
    # must) call fdatasync; a flush-only wal.cc is the original bug.
    ("raw-durability", "src/pagestore/wal.cc", "  ::fdatasync(fd_);", False),
    ("wal-durability", "src/pagestore/wal.cc",
     "Status Wal::WriteAndSync() {\n  ::fdatasync(fd_);\n}", False),
    ("wal-durability", "src/pagestore/wal.cc",
     "Status Wal::WriteAndSync() {\n  out_.flush();\n}", True),
    # A syscall that only appears in a comment does not count.
    ("wal-durability", "src/pagestore/wal.cc",
     "// calls fdatasync eventually\nStatus F() {\n  out_.flush();\n}",
     True),
    # Other files are not required to sync.
    ("wal-durability", "src/pagestore/pack.cc",
     "Status F() {\n  out_.flush();\n}", False),
    ("raw-socket", "tools/x.cc",
     "  int fd = socket(AF_INET, SOCK_STREAM, 0);", True),
    ("raw-socket", "tests/x_test.cc", "  ::connect(fd, addr, len);", True),
    ("raw-socket", "src/service/x.cc", "  recv(fd, buf, n, 0);", True),
    ("raw-socket", "src/server/server.cc",
     "  int fd = ::socket(AF_INET, SOCK_STREAM, 0);", False),
    ("raw-socket", "src/server/client.cc", "  ::send(fd_, p, n, 0);", False),
    # Method calls and project wrappers stay clean: the pattern requires a
    # bare C identifier, not a qualified member.
    ("raw-socket", "tools/x.cc", "  client.Connect(host, port);", False),
    ("raw-socket", "tools/x.cc", '  Log("about socket()");', False),
    ("raw-socket", "src/storage/x.cc",
     "  ::shutdown(fd, SHUT_RDWR);  // lint:allow(raw-socket) interop",
     False),
    ("adhoc-stats", "src/foo/bar.h", "struct FooStats {", True),
    ("adhoc-stats", "src/foo/bar.h", "  struct Stats {", True),
    ("adhoc-stats", "src/foo/bar.cc", "struct IoCounters {", True),
    # The registry's own instruments live in src/obs/.
    ("adhoc-stats", "src/obs/metrics.h", "struct FooStats {", False),
    # Tools/tests/bench report their own run-local numbers freely.
    ("adhoc-stats", "tools/x.cc", "struct RunStats {", False),
    # Suffix must be a whole word: Statistics / StatsResponse-style
    # uses inside a name do not match.
    ("adhoc-stats", "src/foo/bar.h", "struct Statistics {", False),
    ("adhoc-stats", "src/foo/bar.h", "struct StatsResponseView {", False),
    ("adhoc-stats", "src/foo/bar.h",
     "struct FooStats {  // lint:allow(adhoc-stats) per-request values",
     False),
    ("unchecked-value", "src/foo/bar.cc",
     "void F() {\n  Result<int> r = G();\n  Use(r.value());\n}", True),
    ("unchecked-value", "src/foo/bar.cc",
     "void F() {\n  Result<int> r = G();\n  if (!r.ok()) return;\n"
     "  Use(r.value());\n}", False),
    ("unchecked-value", "src/foo/bar.cc",
     "void F() {\n  Result<int> r = G();\n  ASSERT_TRUE(r.ok());\n"
     "  Use(std::move(r).value());\n}", False),
    # Unrelated .value() receivers (no Result declaration) stay clean.
    ("unchecked-value", "src/foo/bar.cc",
     "void F() {\n  for (auto it = t.Begin(); it.Valid(); it.Next())\n"
     "    Use(it.value());\n}", False),
    # A check belonging to the PREVIOUS function must not leak in.
    ("unchecked-value", "src/foo/bar.cc",
     "void E() {\n  Result<int> r = G();\n  if (!r.ok()) return;\n}\n"
     "void F() {\n  Result<int> r = G();\n  Use(r.value());\n}", True),
]


def selftest():
    failures = 0
    for rule, path, snippet, should_flag in SELFTEST_CASES:
        findings = []
        check_file(path, snippet.splitlines(), findings)
        flagged = any(f[2] == rule for f in findings)
        if flagged != should_flag:
            failures += 1
            print("SELFTEST FAIL [%s] %s: expected %s, got %s\n  %r" %
                  (rule, path, "flag" if should_flag else "clean",
                   "flag" if flagged else "clean", snippet))
    if failures:
        print("%d selftest case(s) failed" % failures)
        return 1
    print("selftest: %d cases OK" % len(SELFTEST_CASES))
    return 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("paths", nargs="*", default=None,
                        help="files or directories relative to the repo "
                             "root (default: %s)" % " ".join(DEFAULT_ROOTS))
    parser.add_argument("--selftest", action="store_true",
                        help="run the embedded rule self-test and exit")
    args = parser.parse_args()
    if args.selftest:
        return selftest()
    return run(args.paths or DEFAULT_ROOTS)


if __name__ == "__main__":
    sys.exit(main())
