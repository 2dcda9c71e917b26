#!/usr/bin/env python3
"""End-to-end serving benchmark of quickview.

    python3 perfbench/run.py --workload cold_plans|hot_paged|live_ingest \
        --seed N --seconds S --trace 0|1

Run from the root of a quickview checkout. One invocation:

1. builds the tree in Release (`cmake -S perfbench -B .bench_build`): the
   quickview library, quickview_server, quickview_cli and the qvbench
   program, and refuses any other build type;
2. generates the workload's seeded corpus and views (`qvbench gen`);
3. sets the program up from those files through its deployable entry
   points -- `quickview_cli index` (and `pack --shards 4 --colocate isbn`
   for hot_paged), `quickview_server` (with `--live --wal` for
   live_ingest), view registration over the wire -- timing each set-up
   until the server answers its first request (five set-ups with
   --trace 0, the median is setup_s);
4. drives the workload over loopback from one process (`qvbench drive`),
   checks every answer against the in-process replay and, on
   live_ingest, the WAL against every acknowledged write; with --trace 1
   it also replays the requests in-process under spans;
5. reads the server's peak RSS, stops it, and prints one JSON line: the
   end-to-end metrics of BENCHMARK.json with --trace 0, its per-layer
   metrics with --trace 1.

The exit code is 0 only when every output check passed.
"""

import argparse
import hashlib
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time

BENCH_DIR = "perfbench"
BUILD_DIR = ".bench_build"
WORK_DIR = ".bench_work"
# Traced runs leave their span list here (one JSON object per line).
SPANS_DIR = os.path.join(WORK_DIR, "spans")
WORKLOADS = ("cold_plans", "hot_paged", "live_ingest")
STEP_TIMEOUT_S = 150
# Open-loop Searches due in the last quarter waiting this many times as
# long (median) as those due in the first flag a growing backlog.
BACKLOG_GROWTH = 1.5


class BenchError(Exception):
    pass


def log(message):
    print(message, file=sys.stderr, flush=True)


def run(cmd, timeout=STEP_TIMEOUT_S, capture=True):
    proc = subprocess.run(cmd, stdout=subprocess.PIPE if capture else subprocess.DEVNULL,
                          stderr=subprocess.PIPE, text=True, timeout=timeout)
    if proc.returncode != 0:
        raise BenchError("%s failed (%d): %s" % (os.path.basename(cmd[0]), proc.returncode,
                                                 proc.stderr.strip()[-2000:]))
    return proc.stdout if capture else ""


def cmake_cache():
    values = {}
    path = os.path.join(BUILD_DIR, "CMakeCache.txt")
    if os.path.exists(path):
        with open(path) as f:
            for line in f:
                if "=" in line and ":" in line.split("=", 1)[0]:
                    key, value = line.rstrip("\n").split("=", 1)
                    values[key.split(":", 1)[0]] = value
    return values


def build():
    """Configures and builds in Release; returns the binary paths."""
    jobs = str(os.cpu_count() or 1)
    run(["cmake", "-S", BENCH_DIR, "-B", BUILD_DIR, "-DCMAKE_BUILD_TYPE=Release"], timeout=600)
    cache = cmake_cache()
    if cache.get("CMAKE_BUILD_TYPE") != "Release":
        raise BenchError("refusing a %r build: timings need Release"
                         % cache.get("CMAKE_BUILD_TYPE"))
    run(["cmake", "--build", BUILD_DIR, "-j", jobs], timeout=900)
    bins = {
        "qvbench": os.path.join(BUILD_DIR, "qvbench"),
        "server": os.path.join(BUILD_DIR, "quickview", "tools", "quickview_server"),
        "cli": os.path.join(BUILD_DIR, "quickview", "tools", "quickview_cli"),
    }
    for path in bins.values():
        if not os.access(path, os.X_OK):
            raise BenchError("build did not produce " + path)
    return bins, cache


def source_digest():
    """sha1 over the program's sources, for checkouts without git."""
    digest = hashlib.sha1()
    for top in ("CMakeLists.txt", "src", "tools"):
        paths = [top] if os.path.isfile(top) else sorted(
            os.path.join(d, f) for d, _, files in os.walk(top) for f in files)
        for path in sorted(paths):
            digest.update(path.encode())
            with open(path, "rb") as f:
                digest.update(f.read())
    return digest.hexdigest()


def run_context(cache, seed, workload, trace):
    try:
        rev = subprocess.run(["git", "rev-parse", "HEAD"], capture_output=True, text=True,
                             timeout=10).stdout.strip() or "unknown"
    except (OSError, subprocess.SubprocessError):
        rev = "unknown"
    compiler = cache.get("CMAKE_CXX_COMPILER", "c++")
    try:
        version = subprocess.run([compiler, "--version"], capture_output=True, text=True,
                                 timeout=10).stdout.splitlines()[0]
    except (OSError, subprocess.SubprocessError, IndexError):
        version = "unknown"
    return {
        "git_revision": rev,
        "source_sha1": source_digest(),
        "compiler": compiler,
        "compiler_version": version,
        "cmake_build_type": cache.get("CMAKE_BUILD_TYPE"),
        "nproc": os.cpu_count(),
        "loadavg_before": os.getloadavg()[0],
        "seed": seed,
        "workload": workload,
        "trace": trace,
    }


def dir_bytes(path):
    return sum(os.path.getsize(os.path.join(d, f)) for d, _, files in os.walk(path) for f in files)


def vm_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM for the server")


class Server:
    """One quickview_server process on an ephemeral loopback port."""

    def __init__(self, binary, args, setup_dir):
        self.port_file = os.path.join(setup_dir, "port")
        self.log_path = os.path.join(setup_dir, "server.log")
        self.log = open(self.log_path, "w")
        self.proc = subprocess.Popen([binary] + args + ["--port-file", self.port_file],
                                     stdout=self.log, stderr=subprocess.STDOUT)
        deadline = time.monotonic() + 120
        while True:
            if os.path.exists(self.port_file) and os.path.getsize(self.port_file) > 0:
                with open(self.port_file) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    return
            if self.proc.poll() is not None:
                self.log.close()
                raise BenchError("server exited early: " + open(self.log_path).read()[-2000:])
            if time.monotonic() > deadline:
                self.stop()
                raise BenchError("server never wrote its port")
            time.sleep(0.001)

    def stop(self):
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.log.close()
        return self.proc.returncode


def set_up(bins, workload, inputs, setup_dir):
    """Hands the generated files to the program; returns (server, seconds,
    pooled requests the readiness probe sent)."""
    os.makedirs(setup_dir)
    start = time.perf_counter()
    db = os.path.join(setup_dir, "db")
    run([bins["cli"], "index"] + inputs["paths"] + ["--out", db])
    args = [db]
    if workload == "hot_paged":
        os.makedirs(os.path.join(setup_dir, "pack"))
        qvset = os.path.join(setup_dir, "pack", "set.qvset")
        run([bins["cli"], "pack", db, qvset, "--shards", str(inputs["shards"]),
             "--colocate", "isbn"])
        args = [qvset, "--frames", str(inputs["frames"])]
    elif workload == "live_ingest":
        args = [db, "--live", "--wal", os.path.join(setup_dir, "wal.log")]
    server = Server(bins["server"], args, setup_dir)
    try:
        ready = json.loads(run([bins["qvbench"], "ready", "--workload", workload,
                                "--port", str(server.port), "--dir", inputs["dir"]]))
    except BaseException:
        server.stop()
        raise
    return server, time.perf_counter() - start, ready["pooled_sent"]


def load_spec():
    with open("BENCHMARK.json") as f:
        return json.load(f)


# Per-layer metric name -> key in qvbench's report, where they differ.
REPORT_KEYS = {
    "page_p50_ms": "page_ms.p50",
    "page_p99_ms": "page_ms.p99",
    "insert_p50_ms": "insert_ms.p50",
    "insert_p99_ms": "insert_ms.p99",
}


def bench(args):
    spec = load_spec()
    bins, cache = build()
    context = run_context(cache, args.seed, args.workload, args.trace)
    work = os.path.join(WORK_DIR, "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    server = None
    try:
        in_dir = os.path.join(work, "in")
        gen = json.loads(run([bins["qvbench"], "gen", "--workload", args.workload,
                              "--seed", str(args.seed), "--out", in_dir]))
        inputs = {"dir": in_dir, "paths": [os.path.join(in_dir, n) for n in gen["files"]],
                  "frames": gen["frames"], "shards": gen["shards"]}
        setups = 1 if args.trace else 5
        setup_times = []
        for k in range(setups):
            if server is not None:
                server.stop()
            setup_dir = os.path.join(work, "setup%d" % k)
            server, seconds, ready_sent = set_up(bins, args.workload, inputs, setup_dir)
            setup_times.append(seconds)
        report_path = os.path.join(work, "drive.json")
        cmd = [bins["qvbench"], "drive", "--workload", args.workload, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace),
               "--port", str(server.port), "--server-pid", str(server.proc.pid),
               "--setup", setup_dir, "--work", work,
               "--ready-sent", str(ready_sent), "--out", report_path]
        if args.workload == "live_ingest":
            cmd += ["--wal", os.path.join(setup_dir, "wal.log")]
        if args.trace:
            os.makedirs(SPANS_DIR, exist_ok=True)
            cmd += ["--spans", os.path.join(SPANS_DIR, "%s-%d.jsonl" % (args.workload, args.seed))]
        if args.inject:
            cmd += ["--inject", args.inject]
        run(cmd, capture=False)
        with open(report_path) as f:
            report = json.load(f)
        rss_mb = vm_hwm_mb(server.proc.pid)
        code = server.stop()
        server = None
        if code != 0:
            raise BenchError("server exited with %d on SIGTERM" % code)
        metrics = report["metrics"]
        metrics["setup_s"] = statistics.median(setup_times)
        metrics["rss_mb"] = rss_mb
        metrics["search_p50_ms"] = metrics["search_ms.p50"]
        metrics["search_p99_ms"] = metrics["search_ms.p99"]
        if args.workload == "cold_plans":
            metrics["bytes_per_input_byte"] = dir_bytes(os.path.join(setup_dir, "db")) / gen["input_bytes"]
        elif args.workload == "hot_paged":
            metrics["bytes_per_input_byte"] = dir_bytes(os.path.join(setup_dir, "pack")) / gen["input_bytes"]
        for name, key in REPORT_KEYS.items():
            if key in metrics:
                metrics[name] = metrics[key]
    finally:
        if server is not None:
            server.stop()
        shutil.rmtree(work, ignore_errors=True)

    context["loadavg_after"] = os.getloadavg()[0]
    context["load_above_nproc"] = max(context["loadavg_before"], context["loadavg_after"]) > (os.cpu_count() or 1)
    context["corpus_digest"] = gen["corpus_digest"]
    context["schedule_digest"] = report["info"].get("schedule_digest")
    context["input_bytes"] = gen["input_bytes"]
    context["setup_s_each"] = setup_times
    context["search_samples"] = metrics.get("search_samples")
    context["answers_checked"] = metrics.get("bench.answers_checked")
    context["wal_records_checked"] = metrics.get("bench.wal_records_checked")
    context["replayed_requests"] = metrics.get("bench.replayed_requests")
    context["offered_qps"] = metrics.get("offered_qps")
    context["p99_limit_ms"] = metrics.get("p99_limit_ms")
    context["search_p50_ms"] = metrics.get("search_ms.p50")
    context["search_p99_ms"] = metrics.get("search_ms.p99")
    context["p99_over_limit"] = metrics["search_ms.p99"] > metrics["p99_limit_ms"]
    context["backlog_growth"] = metrics.get("bench.backlog_growth")
    context["backlog"] = metrics["bench.backlog_growth"] > BACKLOG_GROWTH
    if context["load_above_nproc"]:
        log("warning: load average above nproc; timings are not trustworthy")
    if context["p99_over_limit"]:
        log("warning: search p99 %.1f ms is over the workload's limit of %.0f ms"
            % (metrics["search_ms.p99"], metrics["p99_limit_ms"]))
    if context["backlog"]:
        log("warning: open-loop latency grew %.2fx from the first to the last quarter: "
            "the server did not keep up with the offered rate" % metrics["bench.backlog_growth"])
    for key in ("slowest", "slowest_replayed"):
        if report["info"].get(key):
            log("%s: %s" % (key, report["info"][key]))
    for failure in report["failures"]:
        log("output check failed: " + failure)
    print("context: " + json.dumps(context, sort_keys=True))

    if args.trace:
        # A layer the workload does not exercise reports 0.
        wanted = spec["per_layer"]
        for m in wanted:
            metrics.setdefault(m["name"], 0.0)
    else:
        wanted = spec["end_to_end"]
        missing = [m["name"] for m in wanted if m["name"] not in metrics]
        if missing:
            raise BenchError("report lacks metrics: " + ", ".join(missing))
    result = {
        "correct": bool(report["correct"]),
        "attempted": int(report["attempted"]),
        "failed": int(report["failed"]),
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def main():
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--inject", choices=("response", "wal"),
                        help="test hook: corrupt one response, or check a WAL copy lacking one acked write")
    args = parser.parse_args()
    if not (os.path.isfile("CMakeLists.txt") and os.path.isdir("src")
            and os.path.isfile(os.path.join(BENCH_DIR, "CMakeLists.txt"))):
        log("run from the root of a quickview checkout (CMakeLists.txt, src/, %s/)" % BENCH_DIR)
        return 2
    if args.seconds < 1:
        log("--seconds must be >= 1")
        return 2
    # On SIGTERM, unwind through bench()'s cleanup so no server outlives us.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    try:
        return bench(args)
    except (BenchError, subprocess.SubprocessError, OSError, KeyError, ValueError) as err:
        log("benchmark failed: %s" % err)
        return 3


if __name__ == "__main__":
    sys.exit(main())
