#!/usr/bin/env python3
"""Shows that the benchmark's output checks bite.

    python3 perfbench/selftest.py

Run from the root of a quickview checkout. Each case runs perfbench/run.py
and asserts its verdict:

- hot_paged with one read response corrupted on the client side before
  it is checked: the run must exit non-zero, report "correct": false and
  name the answer that differs from the replay;
- live_ingest checked against a copy of the server's WAL that lacks the
  first write writer connection 1 had acknowledged (the copy is
  re-framed, so it still replays cleanly): the run must exit non-zero,
  report "correct": false and name the missing write, not a replay
  error;
- live_ingest unmodified: the run must pass;
- a directory holding only BENCHMARK.json and perfbench/: the run must
  exit non-zero without printing a result.
"""

import json
import os
import shutil
import subprocess
import sys

SECONDS = "3"


def run(args, cwd="."):
    proc = subprocess.run([sys.executable, os.path.join("perfbench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=900)
    lines = proc.stdout.strip().splitlines()
    result = None
    if lines:
        try:
            result = json.loads(lines[-1])
        except ValueError:
            result = None
    return proc.returncode, result, proc.stderr


def expect_caught(name, args, needle, unwanted=None):
    code, result, stderr = run(args)
    ok = (code != 0 and result is not None and result["correct"] is False
          and needle in stderr and (unwanted is None or unwanted not in stderr))
    print("%-28s %s (exit %d)" % (name, "caught" if ok else "NOT CAUGHT", code))
    if not ok:
        print(stderr[-3000:])
    return ok


def main():
    if not os.path.isfile(os.path.join("perfbench", "run.py")):
        print("run from the root of a quickview checkout")
        return 2
    results = [
        expect_caught("corrupted response", ["--workload", "hot_paged", "--seed", "1",
                                             "--seconds", SECONDS, "--inject", "response"],
                      "wire answer differs from replay"),
        expect_caught("WAL missing an acked write", ["--workload", "live_ingest", "--seed", "1",
                                                     "--seconds", SECONDS, "--inject", "wal"],
                      "of connection 1 missing from the WAL", unwanted="WAL replay failed"),
    ]
    code, result, stderr = run(["--workload", "live_ingest", "--seed", "1", "--seconds", SECONDS])
    clean = code == 0 and result is not None and result["correct"] is True
    print("%-28s %s (exit %d)" % ("unmodified run", "passes" if clean else "FAILS", code))
    if not clean:
        print(stderr[-3000:])
    results.append(clean)

    bare = os.path.join(".bench_work", "selftest-bare")
    shutil.rmtree(bare, ignore_errors=True)
    os.makedirs(bare)
    shutil.copy("BENCHMARK.json", bare)
    shutil.copytree("perfbench", os.path.join(bare, "perfbench"))
    code, result, _ = run(["--workload", "cold_plans", "--seed", "1", "--seconds", "1"], cwd=bare)
    shutil.rmtree(bare, ignore_errors=True)
    refused = code != 0 and result is None
    print("%-28s %s (exit %d)" % ("benchmark files alone", "refused" if refused else "NOT REFUSED",
                                  code))
    results.append(refused)
    return 0 if all(results) else 1


if __name__ == "__main__":
    sys.exit(main())
