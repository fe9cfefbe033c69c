#!/usr/bin/env python3
"""End-to-end benchmark of the unprotected pipeline.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  It builds unp_report, unp_query, unp_serve
and perfbench_driver (driver.cpp, added to the repository's CMake build by
hook.cmake) under $CARGO_TARGET_DIR (default .bench_build), runs one
workload, checks every output, and prints metrics; the last stdout line is
one JSON object {correct, attempted, failed, metrics}.

Workloads (BENCHMARK.json records why each was chosen):
  report_cold  unp_report --all against an emptied private campaign cache:
               simulate, spill, extract, 14 analyzers, render.
  report_warm  the same command once set-up filled the cache: UNPS replay,
               extraction, analyzers, render.
  serve_mix    unp_serve over two UNPF stores, driven by a seeded request
               mix from one load-generator process, with periodic swaps.

--trace 0 measures the CLIs untraced and prints the end-to-end metrics.
--trace 1 runs each workload through perfbench_driver with spans at every
layer boundary, prints each layer's self time, and reports the per-layer
metrics.  Everything it writes stays under .bench_work/ and .bench_traces/
in the working directory.
"""
import argparse
import json
import os
import platform
import re
import shutil
import socket
import statistics
import subprocess
import sys
import time
from concurrent.futures import ThreadPoolExecutor

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import lib  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
TARGETS = ("unp_report", "unp_query", "unp_serve", "perfbench_driver")
BUILD_TYPE = "RelWithDebInfo"

# The report workloads run the calibrated study campaign.  The benchmark seed
# does not pick the campaign: record-stream size, and with it every timing,
# moves by +-20% between campaign seeds, which would swamp any bound.
CAMPAIGN_SEED = 42
SWAP_SEED = 43          # the second store serve_mix swaps to
# serve_mix asks a fixed request vocabulary in a fixed closed-loop batch;
# the benchmark seed sets the open-loop arrival times and order.  Predicate
# selectivity, and the result-cache misses a batch order causes, move the
# cost of a pass by +-20% between seeds.
VOCABULARY_SEED = 42
SETUP_REPEATS = 3       # set-ups per run; setup_s is their median
TRACE_ROUNDS = 5        # CLI / untraced driver / traced driver rounds

# serve_mix load, fixed so both sides of a comparison offer the same load.
# Capacity on one connection was ~1,600 requests/s (4-core Xeon, AVX2).
LOW_QPS = 400.0
HIGH_QPS = 800.0
P99_LIMIT_MS = 50.0     # max_qps: highest rate whose p99 stays under this
SWAP_EVERY_S = 1.0
OPEN_S = 3.0            # per fixed rate: 1,000+ samples at LOW_QPS, so p99
                        # is reportable
SEARCH_S = 2.0          # max_qps search budget
WARMUP_PASSES = 2       # untimed closed-loop passes before the timed ones
CACHE_ENTRIES = 64      # < distinct lines, so the result cache evicts

END_TO_END = (("setup_s", "s"), ("wall_s", "s"), ("cpu_s", "s"),
              ("peak_rss_mb", "MB"))
SINK_LABELS = ("errors-grid", "multibit-patterns", "adjacency", "direction",
               "grouping", "hour-of-day", "temperature", "daily-errors",
               "top-nodes", "node-patterns", "regime", "interarrival",
               "regime-dynamics", "alignment")
PER_LAYER = (
    [("sim.busy_ms", "ms"), ("sim.nodes", "count"), ("sim.emit_gap_max_ms", "ms"),
     ("telemetry.spill_ms", "ms"), ("telemetry.spill_bytes", "bytes"),
     ("telemetry.decode_ms", "ms"), ("telemetry.decode_bytes", "bytes"),
     ("telemetry.decode_mb_per_s", "MB/s"), ("telemetry.frames", "count"),
     ("analysis.extract_feed_ms", "ms"), ("analysis.extract_finish_ms", "ms"),
     ("analysis.scan_profile_ms", "ms"), ("analysis.raw_errors", "count"),
     ("analysis.faults", "count"), ("analysis.raw_kept_ratio", "ratio"),
     ("analysis.fanout_ms", "ms")]
    + [("analysis.sink.%s_ms" % s, "ms") for s in SINK_LABELS]
    + [("report.render_ms", "ms"), ("report.bytes", "bytes"),
       ("store.build_ms", "ms"), ("store.bytes", "bytes"),
       ("store.open_ms", "ms"), ("store.scan_ms.p50", "ms"),
       ("store.scan_ms.p99", "ms"), ("store.materialize_ms", "ms"),
       ("store.segments_scanned", "count"), ("store.segments_pruned", "count"),
       ("store.rows_scanned", "count"), ("store.rows_matched", "count"),
       ("serve.render_ms.p50", "ms"), ("serve.render_ms.p99", "ms"),
       ("serve.transport_ms", "ms"), ("serve.cache_hit_ratio", "ratio"),
       ("serve.swap_ms", "ms"),
       ("loadgen.lag_p99_ms", "ms"), ("loadgen.sent", "count"),
       ("loadgen.achieved_qps", "1/s"),
       ("p50_ms.low", "ms"), ("p99_ms.low", "ms"),
       ("p50_ms.high", "ms"), ("p99_ms.high", "ms")]
    + [("self.%s_ms" % l, "ms") for l in
       ("sim", "telemetry", "analysis", "report", "store", "serve", "driver")]
    + [("trace.coverage", "ratio"), ("trace.overhead_ms", "ms"),
       ("trace.driver_cli_ratio", "ratio")])


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


# --- processes ---------------------------------------------------------------

class Ctx:
    def __init__(self, args):
        self.args = args
        self.root = os.getcwd()
        self.nproc = len(os.sched_getaffinity(0))
        self.threads = self.nproc
        build_root = os.environ.get("CARGO_TARGET_DIR", ".bench_build")
        self.build = os.path.join(os.path.abspath(build_root), "cmake")
        self.bin = os.path.join(self.build, "bench")
        self.work = os.path.join(self.root, ".bench_work", args.workload)
        self.attempted = 0
        self.failed = 0
        self.procs = []
        self.env = dict(os.environ)
        self.env["UNP_CACHE_DIR"] = self.path("cache")
        self.env["TMPDIR"] = self.path("tmp")

    def path(self, *parts):
        return os.path.join(self.work, *parts)

    def exe(self, name):
        return os.path.join(self.bin, name)

    def check(self, ok, what):
        self.attempted += 1
        if not ok:
            self.failed += 1
            log("FAILED: %s" % what)
        return ok


def reset_dir(path):
    shutil.rmtree(path, ignore_errors=True)
    os.makedirs(path)


def timed(ctx, cmd, stdout_path, timeout=120):
    """Run `cmd`, stdout to a file; returns (wall_s, cpu_s, peak_rss_mb, rc)."""
    with open(stdout_path, "wb") as out, \
            open(ctx.path("stderr.log"), "ab") as err:
        t0 = time.perf_counter()
        proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=ctx.env)
        ctx.procs.append(proc)
        deadline = t0 + timeout
        while True:
            pid, status, ru = os.wait4(proc.pid, os.WNOHANG)
            if pid:
                break
            if time.perf_counter() > deadline:
                proc.kill()
                pid, status, ru = os.wait4(proc.pid, 0)
                break
            time.sleep(0.002)
        wall = time.perf_counter() - t0
        proc.returncode = os.waitstatus_to_exitcode(status)
        ctx.procs.remove(proc)
    return wall, ru.ru_utime + ru.ru_stime, ru.ru_maxrss / 1024.0, proc.returncode


def read(path):
    with open(path, "rb") as f:
        return f.read()


def build(ctx):
    for rel in ("CMakeLists.txt", "src", "bench"):
        if not os.path.exists(os.path.join(ctx.root, rel)):
            raise BenchError("repository sources not found (%s missing); "
                             "run from the repository root" % rel)
    os.makedirs(ctx.build, exist_ok=True)
    logf = os.path.join(os.path.dirname(ctx.build), "build.log")
    with open(logf, "ab") as out:
        if not os.path.exists(os.path.join(ctx.build, "CMakeCache.txt")):
            rc = subprocess.call(
                ["cmake", "-S", ctx.root, "-B", ctx.build,
                 "-DCMAKE_BUILD_TYPE=" + BUILD_TYPE,
                 "-DCMAKE_PROJECT_unprotected_INCLUDE=" +
                 os.path.join(HERE, "hook.cmake")],
                stdout=out, stderr=subprocess.STDOUT)
            if rc:
                raise BenchError("cmake configure failed; see %s" % logf)
        rc = subprocess.call(
            ["cmake", "--build", ctx.build, "-j", str(ctx.nproc), "--target"]
            + list(TARGETS), stdout=out, stderr=subprocess.STDOUT)
        if rc:
            raise BenchError("build failed; see %s" % logf)


def active_isa(ctx):
    out = subprocess.run([ctx.exe("perfbench_driver"), "isa"], env=ctx.env,
                         capture_output=True, text=True, timeout=30)
    return out.stdout.strip() or "unknown"


# --- report workloads -----------------------------------------------------------

def build_store(ctx, path, seed, cache):
    """`unp_query --build` into an emptied cache: simulates, spills the
    campaign cache entry and writes the UNPF store.  Returns wall seconds."""
    reset_dir(cache)
    wall, _, _, rc = timed(ctx, [ctx.exe("unp_query"), "--build", path,
                                 "--seed", str(seed), "--threads",
                                 str(ctx.threads), "--cache-dir", cache],
                           ctx.path("build_stdout.txt"))
    if rc != 0:
        raise BenchError("unp_query --build failed (exit %d)" % rc)
    return wall


def report_setup(ctx):
    """Fill the campaign cache and build the store, SETUP_REPEATS times;
    returns (median seconds, reference report from `unp_report --store`)."""
    times = [build_store(ctx, ctx.path("store.unpf"), CAMPAIGN_SEED,
                         ctx.path("cache"))
             for _ in range(SETUP_REPEATS if not ctx.args.trace else 1)]
    ref_path = ctx.path("ref_store.txt")
    _, _, _, rc = timed(ctx, [ctx.exe("unp_report"), "--store",
                              ctx.path("store.unpf"), "--threads",
                              str(ctx.threads)], ref_path)
    ctx.check(rc == 0, "unp_report --store exited %d" % rc)
    return statistics.median(times), read(ref_path)


def cli_report(ctx, cold, tag):
    """One `unp_report --all` run; cold runs get an emptied cache dir."""
    cache = ctx.path("cold") if cold else ctx.path("cache")
    if cold:
        reset_dir(cache)
    out = ctx.path("report_%s.txt" % tag)
    wall, cpu, rss, rc = timed(ctx, [ctx.exe("unp_report"), "--all", "--seed",
                                     str(CAMPAIGN_SEED), "--threads",
                                     str(ctx.threads), "--cache-dir", cache],
                               out)
    return wall, cpu, rss, rc, out


def report_workload(ctx, cold):
    setup_s, ref = report_setup(ctx)
    os.sync()  # set-up's disk writes must not land on the measured runs
    if ctx.args.trace:
        return report_traced(ctx, cold, ref)
    walls, cpus, rsss = [], [], []
    runs = 0
    t_end = time.perf_counter() + ctx.args.seconds
    while (time.perf_counter() < t_end and runs < 60) or runs < 3:
        runs += 1
        wall, cpu, rss, rc, out = cli_report(ctx, cold, "measured")
        if ctx.check(rc == 0 and read(out) == ref,
                     "%s report differs from unp_report --store (exit %d)"
                     % ("cold" if cold else "warm", rc)):
            walls.append(wall)
            cpus.append(cpu)
            rsss.append(rss)
    # The other cache state once, outside the timing: cold, warm and store
    # reports must all be byte-identical.
    _, _, _, rc, out = cli_report(ctx, not cold, "other")
    ctx.check(rc == 0 and read(out) == ref,
              "%s report differs from unp_report --store"
              % ("warm" if cold else "cold"))
    log("report runs: %d  wall_s %s" % (len(walls), " ".join(
        "%.3f" % w for w in walls)))
    if not walls:
        raise BenchError("no report run succeeded")
    return {"setup_s": setup_s, "wall_s": lib.lower_quartile(walls),
            "cpu_s": lib.lower_quartile(cpus),
            "peak_rss_mb": statistics.median(rsss)}


def driver_report(ctx, cold, traced, tag):
    cache = ctx.path("cold") if cold else ctx.path("cache")
    if cold:
        reset_dir(cache)
    out = ctx.path("driver_%s.txt" % tag)
    js = ctx.path("driver_%s.json" % tag)
    cmd = [ctx.exe("perfbench_driver"), "report", "--mode",
           "cold" if cold else "warm", "--seed", str(CAMPAIGN_SEED),
           "--threads", str(ctx.threads), "--cache-dir", cache, "--out", out,
           "--json", js]
    if traced:
        cmd += ["--trace", "--store-out", ctx.path("driver_store.unpf")]
    wall, _, _, rc = timed(ctx, cmd, ctx.path("driver_stdout.txt"))
    result = None
    if rc == 0:
        with open(js) as f:
            result = json.load(f)
    return wall, rc, out, result


def report_layer_metrics(result):
    spans = result["spans"]
    c = result["counters"]
    m = {k: c[k] for k in ("sim.nodes", "sim.emit_gap_max_ms",
                           "telemetry.spill_bytes", "telemetry.decode_bytes",
                           "telemetry.frames", "analysis.raw_errors",
                           "analysis.faults", "analysis.raw_kept_ratio",
                           "report.bytes", "store.bytes") if k in c}
    m.update({k: v for k, v in c.items() if k.startswith("analysis.sink.")})
    m["sim.busy_ms"] = lib.span_ms(spans, "sim.run_campaign", self_only=True)
    for metric, name in (("telemetry.spill_ms", "telemetry.spill"),
                         ("telemetry.decode_ms", "telemetry.decode"),
                         ("analysis.extract_feed_ms", "analysis.extract_feed"),
                         ("analysis.extract_finish_ms", "analysis.extract_finish"),
                         ("analysis.scan_profile_ms", "analysis.scan_profile"),
                         ("analysis.fanout_ms", "analysis.fanout"),
                         ("report.render_ms", "report.render"),
                         ("store.build_ms", "store.build")):
        m[metric] = lib.span_ms(spans, name)
    if m["telemetry.decode_ms"] > 0:
        m["telemetry.decode_mb_per_s"] = (m.get("telemetry.decode_bytes", 0) / 1e6
                                          / (m["telemetry.decode_ms"] / 1e3))
    for layer, ms in lib.layer_self_ms(spans).items():
        m["self.%s_ms" % layer] = ms
    m["trace.coverage"] = lib.coverage(spans)
    return m


def report_traced(ctx, cold, ref):
    """CLI, untraced driver and traced driver, TRACE_ROUNDS times each."""
    cli_walls, drv_walls, drv_inner, layer_runs = [], [], [], []
    for r in range(TRACE_ROUNDS):
        wall, _, _, rc, out = cli_report(ctx, cold, "cli")
        if ctx.check(rc == 0 and read(out) == ref, "CLI report differs"):
            cli_walls.append(wall)
        wall, rc, out, res = driver_report(ctx, cold, False, "plain")
        if ctx.check(rc == 0 and read(out) == ref,
                     "untraced driver report differs (exit %d)" % rc):
            drv_walls.append(wall)
            drv_inner.append(res["wall_ms"])
        wall, rc, out, res = driver_report(ctx, cold, True, "traced")
        if ctx.check(rc == 0 and read(out) == ref,
                     "traced driver report differs (exit %d)" % rc):
            m = report_layer_metrics(res)
            m["trace.overhead_ms"] = res["wall_ms"]
            ctx.check(m["trace.coverage"] >= 0.95,
                      "named spans cover %.3f < 0.95 of traced wall time"
                      % m["trace.coverage"])
            ctx.check(res["counters"].get("trace.per_record_calls", 0) == 0,
                      "TimedSink saw per-record calls: bulk path lost")
            layer_runs.append(m)
            if r == 0:
                save_trace(ctx, res)
    if not (cli_walls and drv_walls and layer_runs):
        raise BenchError("traced report runs failed")
    metrics = merge_runs(layer_runs)
    metrics["trace.overhead_ms"] -= statistics.median(drv_inner)
    ratio = statistics.median(drv_walls) / statistics.median(cli_walls)
    metrics["trace.driver_cli_ratio"] = ratio
    ctx.check(abs(ratio - 1) <= 0.25,
              "untraced driver wall is %.3f x the CLI's" % ratio)
    return metrics


def merge_runs(runs):
    keys = set().union(*runs)
    return {k: statistics.median([r[k] for r in runs if k in r]) for k in keys}


def save_trace(ctx, result):
    """Keep a traced run's spans as Chrome trace-event JSON."""
    out_dir = os.path.join(ctx.root, ".bench_traces")
    os.makedirs(out_dir, exist_ok=True)
    events = []
    t0 = min((s[1] for s in result["spans"]), default=0)
    for name, start, end, sid, parent, request in result["spans"]:
        events.append({"name": name, "cat": lib.layer_of(name), "ph": "X",
                       "ts": (start - t0) / 1e3, "dur": (end - start) / 1e3,
                       "pid": 1, "tid": request,
                       "args": {"id": sid, "parent": parent}})
    with open(os.path.join(out_dir, ctx.args.workload + ".json"), "w") as f:
        json.dump({"traceEvents": events, "counters": result["counters"]}, f)


# --- serve workload -------------------------------------------------------------

def serve_sizes(ctx):
    """Server workers and open-loop query connections.  A worker serves one
    connection for its whole life, so there is one worker per connection:
    the query connections plus the admin connection that carries the swaps
    (the closed-loop passes use the same query connections and no admin
    one).  With the generator's one thread, workers + query connections + 1
    stay within nproc from 4 cores up; on 4 cores: 2 workers, 1 query
    connection.  Below 4 cores the minimum of 2 workers, 1 connection and
    the generator exceeds nproc."""
    conns = max(1, (ctx.nproc - 2) // 2)
    return conns + 1, conns


def roundtrip(port, line, timeout=30):
    with socket.create_connection(("127.0.0.1", port), timeout=timeout) as s:
        s.sendall(line.encode() + b"\n")
        buf = b""
        while b"\n" not in buf:
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("server closed the connection")
            buf += chunk
        head, body = buf.split(b"\n", 1)
        n = int(head.split()[1])
        while len(body) < n:
            chunk = s.recv(65536)
            if not chunk:
                raise BenchError("short response")
            body += chunk
        return head.startswith(b"OK"), body[:n]


class Server:
    """unp_serve (or the driver's server) as a child process."""

    def __init__(self, ctx, cmd):
        self.ctx = ctx
        pf = ctx.path("port")
        if os.path.exists(pf):
            os.remove(pf)
        self.err = open(ctx.path("stderr.log"), "ab")
        self.proc = subprocess.Popen(cmd + ["--port-file", pf],
                                     stdout=self.err, stderr=self.err,
                                     env=ctx.env)
        ctx.procs.append(self.proc)
        deadline = time.perf_counter() + 30
        self.port = None
        while time.perf_counter() < deadline:
            if self.proc.poll() is not None:
                raise BenchError("server exited with %d" % self.proc.returncode)
            try:
                with open(pf) as f:
                    text = f.read()
                if text.endswith("\n"):
                    self.port = int(text)
                    break
            except FileNotFoundError:
                pass
            time.sleep(0.002)
        if self.port is None:
            raise BenchError("server did not report its port")

    def cpu_s(self):
        """CPU time of the server's threads, from the scheduler's
        nanosecond counters (the worker threads live as long as the
        server)."""
        total = 0
        task_dir = "/proc/%d/task" % self.proc.pid
        for tid in os.listdir(task_dir):
            try:
                with open(os.path.join(task_dir, tid, "schedstat")) as f:
                    total += int(f.read().split()[0])
            except FileNotFoundError:
                pass
        return total / 1e9

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.proc.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        return 0.0

    def stats(self):
        _, body = roundtrip(self.port, "stats")
        text = body.decode()
        hits = re.search(r"hits\D*(\d+)", text)
        misses = re.search(r"misses\D*(\d+)", text)
        return (int(hits.group(1)) if hits else 0,
                int(misses.group(1)) if misses else 0)

    def stop(self):
        if self.proc.poll() is None:
            try:
                roundtrip(self.port, "shutdown", timeout=5)
            except (OSError, BenchError):
                pass
            try:
                self.proc.wait(timeout=15)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait()
        self.err.close()
        if self.proc in self.ctx.procs:
            self.ctx.procs.remove(self.proc)
        return self.proc.returncode


def serve_refs(ctx, stores, lines):
    """FNV-1a of unp_query's stdout for every (store, line)."""
    def one(job):
        si, li = job
        out = subprocess.run([ctx.exe("unp_query"), "--store", stores[si],
                              "--threads", "1"] + lines[li].split(),
                             capture_output=True, env=ctx.env, timeout=60)
        if out.returncode != 0:
            raise BenchError("unp_query failed on '%s': %s"
                             % (lines[li], out.stderr.decode()[:200]))
        return job, lib.fnv1a(out.stdout)
    jobs = [(s, l) for s in range(len(stores)) for l in range(len(lines))]
    with ThreadPoolExecutor(max_workers=ctx.nproc) as pool:
        return dict(pool.map(one, jobs))


class Phase:
    """One loadgen invocation and its checked outcome."""

    def __init__(self, ctx, port, name, entries, stores, start_store, refs,
                 closed=False, conns=1):
        sched = ctx.path("schedule_%s.txt" % name)
        with open(sched, "w") as f:
            for due, kind, arg in entries:
                f.write("%d %s %d\n" % (due, kind, arg))
        out = ctx.path("loadgen_%s.txt" % name)
        cmd = [ctx.exe("perfbench_driver"), "loadgen", "--port", str(port),
               "--lines", ctx.path("lines.txt"), "--schedule", sched,
               "--out", out, "--conns", str(conns)]
        for store in stores:
            cmd += ["--store", store]
        if closed:
            cmd.append("--closed")
        span = entries[-1][0] / 1e6 if entries else 0
        rc = subprocess.call(cmd, env=ctx.env, timeout=span + 60)
        ctx.check(rc == 0, "loadgen exited %d" % rc)
        queries, swaps = [], []
        with open(out) as f:
            for line in f:
                kind, arg, due, sent, recv, status, h = line.split()
                rec = (int(arg), int(due), int(sent), int(recv), int(status),
                       int(h, 16))
                (swaps if kind == "s" else queries).append(rec)
        # Successful swaps in order, with the store each switched from.
        timeline = []
        current = start_store
        for arg, due, sent, recv, status, h in swaps:
            if ctx.check(status == 0, "swap to store %d failed" % arg):
                timeline.append((sent, recv, current, arg))
                current = arg
        self.end_store = current
        self.swap_ms = [(r[1] - r[0]) / 1e6 for r in timeline]
        self.latency_ms, self.lag_ms, self.ok = [], [], 0
        for li, due, sent, recv, status, h in queries:
            good = status == 0 and any(
                refs[(s, li)] == h for s in
                lib.candidate_stores(sent, recv, start_store, timeline))
            ctx.check(good, "request '%s' %s" % (
                ctx.lines[li], "unanswered or refused" if status else
                "body differs from unp_query on the serving store"))
            if sent >= 0:
                self.lag_ms.append((sent - due) / 1e6)
            # A failed request counts as missing any latency limit.
            self.latency_ms.append((recv - due) / 1e6 if good else float("inf"))
            self.ok += good
        self.sent = sum(1 for q in queries if q[2] >= 0)
        # First due time to last answer, as the generator's clock saw it.
        answered = [q[3] for q in queries if q[3] >= 0]
        self.wall_s = ((max(answered) - min(q[1] for q in queries)) / 1e9
                       if answered else float("inf"))
        self.span_s = span

    def p(self, q):
        return lib.percentile(self.latency_ms, q)

    def meets_limit(self):
        p99 = self.p(99)
        return (p99 is not None and p99 <= P99_LIMIT_MS
                and not lib.backlog_grows(self.latency_ms))


def serve_setup(ctx, server_cmd):
    """Build both stores from an emptied cache and start the server."""
    t0 = time.perf_counter()
    build_store(ctx, ctx.stores[0], CAMPAIGN_SEED, ctx.path("cache"))
    build_store(ctx, ctx.stores[1], SWAP_SEED, ctx.path("cache"))
    server = Server(ctx, server_cmd)
    return time.perf_counter() - t0, server


def serve_cmd(ctx, driver=False, traced=False, json_out=None):
    workers, _ = serve_sizes(ctx)
    if driver:
        cmd = [ctx.exe("perfbench_driver"), "serve", "--store", ctx.stores[0],
               "--store", ctx.stores[1], "--json", json_out]
        if traced:
            cmd.append("--trace")
    else:
        cmd = [ctx.exe("unp_serve"), "--store", ctx.stores[0], "--port", "0"]
    return cmd + ["--workers", str(workers), "--cache", str(CACHE_ENTRIES)]


def open_phase(ctx, server, name, rate, seconds, start_store, phase_seed):
    _, conns = serve_sizes(ctx)
    entries = lib.open_schedule(phase_seed, len(ctx.lines), ctx.hot, rate,
                                seconds, len(ctx.stores), start_store,
                                SWAP_EVERY_S)
    return Phase(ctx, server.port, name, entries, ctx.stores, start_store,
                 ctx.refs, conns=conns)


def serve_workload(ctx):
    seed = ctx.args.seed
    ctx.stores = [ctx.path("store_a.unpf"), ctx.path("store_b.unpf")]
    ctx.lines, ctx.hot = lib.request_mix(VOCABULARY_SEED)
    with open(ctx.path("lines.txt"), "w") as f:
        f.write("\n".join(ctx.lines) + "\n")
    if ctx.args.trace:
        return serve_traced(ctx)

    setups = []
    for i in range(SETUP_REPEATS):
        secs, server = serve_setup(ctx, serve_cmd(ctx))
        setups.append(secs)
        if i + 1 < SETUP_REPEATS:
            server.stop()
    try:
        ctx.refs = serve_refs(ctx, ctx.stores, ctx.lines)
        os.sync()
        s = ctx.args.seconds
        # Most of the run goes to closed-loop passes (wall and server CPU
        # per fixed batch), in four blocks around the open-loop phases and
        # the max_qps search, so a slow stretch of the machine does not land
        # on all of them.
        batch = lib.closed_batch(VOCABULARY_SEED, len(ctx.lines), ctx.hot)
        entries = [(0, "q", li) for li in batch]
        walls, cpus = [], []
        store = 0
        _, conns = serve_sizes(ctx)

        def closed_pass():
            cpu0 = server.cpu_s()
            # One request in flight, over the open loop's query connections.
            phase = Phase(ctx, server.port, "closed", entries, ctx.stores,
                          store, ctx.refs, closed=True, conns=conns)
            return phase.wall_s, server.cpu_s() - cpu0

        def closed_block(seconds):
            t_end = time.perf_counter() + seconds
            while time.perf_counter() < t_end or not walls:
                wall, cpu = closed_pass()
                walls.append(wall)
                cpus.append(cpu)

        # Warm-up, untimed: the result cache and the store's lazily decoded
        # state fill on the first pass.
        for _ in range(WARMUP_PASSES):
            closed_pass()
        block_s = max(1.0, s - 2 * OPEN_S - SEARCH_S) / 4
        closed_block(block_s)
        # Peak memory after the fixed batch; the open-loop phases below
        # interleave differently on every run.
        rss = server.peak_rss_mb()
        # Open loop at the two fixed rates, swaps in flight.
        low = open_phase(ctx, server, "low", LOW_QPS, OPEN_S, store, seed)
        store = low.end_store
        closed_block(block_s)
        high = open_phase(ctx, server, "high", HIGH_QPS, OPEN_S, store,
                          seed + 1)
        store = high.end_store
        closed_block(block_s)
        # max_qps: step the rate up until p99 breaks the limit or the
        # backlog grows.
        max_qps = LOW_QPS if low.meets_limit() else 0.0
        if high.meets_limit():
            max_qps = HIGH_QPS
            rate = HIGH_QPS
            t_end = time.perf_counter() + SEARCH_S
            while time.perf_counter() < t_end:
                rate *= 1.5
                step = open_phase(ctx, server, "step", rate,
                                  max(1.0, 1000.0 / rate), store, seed + 2)
                store = step.end_store
                if not step.meets_limit():
                    break
                max_qps = rate
        closed_block(block_s)
        hits, misses = server.stats()
    finally:
        server.stop()
    for name, ph in (("low", low), ("high", high)):
        log("serve %-4s %5.0f/s  p50 %s ms  p99 %s ms  lag p99 %s ms  sent %d"
            % (name, LOW_QPS if name == "low" else HIGH_QPS, fmt(ph.p(50)),
               fmt(ph.p(99)), fmt(lib.percentile(ph.lag_ms, 99)), ph.sent))
    log("closed passes wall_s %s" % " ".join("%.3f" % w for w in walls))
    log("serve max_qps %.0f/s (p99 <= %.0f ms)  cache hit ratio %s  "
        "closed passes %d" % (max_qps, P99_LIMIT_MS,
                              fmt(hits / (hits + misses) if hits + misses else None),
                              len(walls)))
    return {"setup_s": statistics.median(setups),
            "wall_s": lib.lower_quartile(walls),
            "cpu_s": lib.lower_quartile(cpus), "peak_rss_mb": rss}


def fmt(v):
    return "n/a" if v is None else "%.3f" % v


def serve_traced(ctx):
    """CLI server and untraced driver server at the low rate, then the
    traced driver server at both rates."""
    _, server = serve_setup(ctx, serve_cmd(ctx))
    # Phases of OPEN_S, as in the untraced run, whatever --seconds says: the
    # traced numbers need no more samples than the percentile rule asks.
    try:
        ctx.refs = serve_refs(ctx, ctx.stores, ctx.lines)
        os.sync()
        cli_low = open_phase(ctx, server, "cli_low", LOW_QPS, OPEN_S, 0,
                             ctx.args.seed)
        cli_high = open_phase(ctx, server, "cli_high", HIGH_QPS, OPEN_S,
                              cli_low.end_store, ctx.args.seed + 1)
    finally:
        server.stop()
    plain = Server(ctx, serve_cmd(ctx, driver=True,
                                  json_out=ctx.path("serve_plain.json")))
    try:
        drv_low = open_phase(ctx, plain, "plain_low", LOW_QPS, OPEN_S, 0,
                             ctx.args.seed)
    finally:
        ctx.check(plain.stop() == 0, "untraced driver server failed")
    traced = Server(ctx, serve_cmd(ctx, driver=True, traced=True,
                                   json_out=ctx.path("serve_traced.json")))
    # Twice as long, for over 1,000 store scans, so store.scan_ms.p99 is
    # reportable.
    try:
        tr_low = open_phase(ctx, traced, "traced_low", LOW_QPS, 2 * OPEN_S, 0,
                            ctx.args.seed)
        tr_high = open_phase(ctx, traced, "traced_high", HIGH_QPS, 2 * OPEN_S,
                             tr_low.end_store, ctx.args.seed + 1)
    finally:
        ctx.check(traced.stop() == 0, "traced driver server failed")
    with open(ctx.path("serve_traced.json")) as f:
        res = json.load(f)
    save_trace(ctx, res)
    spans = res["spans"]
    c = res["counters"]
    m = {k: c.get(k, 0) for k in ("store.segments_scanned",
                                  "store.segments_pruned",
                                  "store.rows_scanned", "store.rows_matched")}
    m.update({k: v for k, v in c.items() if k.startswith("analysis.sink.")})
    m["store.open_ms"] = lib.median(lib.span_durations_ms(spans, "store.open"))
    scans = lib.span_durations_ms(spans, "store.scan")
    m["store.scan_ms.p50"] = lib.median(scans)
    m["store.scan_ms.p99"] = lib.percentile(scans, 99)
    m["store.materialize_ms"] = lib.median(
        lib.span_durations_ms(spans, "store.materialize"))
    renders = lib.span_durations_ms(spans, "serve.render")
    m["serve.render_ms.p50"] = lib.median(renders)
    m["serve.render_ms.p99"] = lib.percentile(renders, 99)
    phases = (tr_low, tr_high)
    answered = [x for ph in phases for x in ph.latency_ms if x != float("inf")]
    m["serve.transport_ms"] = (statistics.fmean(answered)
                               - sum(renders) / max(1, len(answered))
                               if answered else None)
    hits, misses = c.get("serve.cache_hits", 0), c.get("serve.cache_misses", 0)
    m["serve.cache_hit_ratio"] = hits / (hits + misses) if hits + misses else None
    m["serve.swap_ms"] = lib.median([x for ph in phases for x in ph.swap_ms])
    m["analysis.fanout_ms"] = lib.span_ms(spans, "analysis.fanout")
    m["report.render_ms"] = lib.span_ms(spans, "report.render")
    m["loadgen.lag_p99_ms"] = lib.percentile(
        [x for ph in phases for x in ph.lag_ms], 99)
    m["loadgen.sent"] = sum(ph.sent for ph in phases)
    m["loadgen.achieved_qps"] = (sum(ph.ok for ph in phases)
                                 / sum(ph.span_s for ph in phases))
    m["p50_ms.low"], m["p99_ms.low"] = cli_low.p(50), cli_low.p(99)
    m["p50_ms.high"], m["p99_ms.high"] = cli_high.p(50), cli_high.p(99)
    for layer, ms in lib.layer_self_ms(spans).items():
        m["self.%s_ms" % layer] = ms
    # Roots here are the render and store-open spans, so coverage is a share
    # of render time; cache hits, framing and queueing have no spans and
    # show as serve.transport_ms instead.
    m["trace.coverage"] = lib.coverage(spans)
    ctx.check(m["trace.coverage"] is not None and m["trace.coverage"] >= 0.95,
              "named spans cover %s of traced render time" % m["trace.coverage"])
    if answered:
        log("serve: render spans cover %.3f of summed request latency "
            "(from due time); the rest is cache hits, framing and queueing"
            % (sum(renders) / sum(answered)))
    if tr_low.p(50) is not None and drv_low.p(50) is not None:
        m["trace.overhead_ms"] = tr_low.p(50) - drv_low.p(50)
    if ctx.check(drv_low.p(50) is not None and cli_low.p(50) is not None,
                 "low-rate p50 not reportable for the driver or the CLI"):
        ratio = drv_low.p(50) / cli_low.p(50)
        m["trace.driver_cli_ratio"] = ratio
        ctx.check(abs(ratio - 1) <= 0.25,
                  "untraced driver p50 is %.3f x the CLI server's" % ratio)
    return m


# --- main ---------------------------------------------------------------------

WORKLOADS = {
    "report_cold": lambda ctx: report_workload(ctx, cold=True),
    "report_warm": lambda ctx: report_workload(ctx, cold=False),
    "serve_mix": serve_workload,
}


def print_layers(metrics):
    selfs = {k: v for k, v in metrics.items() if k.startswith("self.") and v}
    total = sum(selfs.values()) or 1
    log("layer self time (traced):")
    for k, v in sorted(selfs.items(), key=lambda kv: -kv[1]):
        log("  %-16s %10.2f ms  %5.1f%%" % (k[5:-3], v, 100 * v / total))


def main(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    ctx = Ctx(args)
    try:
        build(ctx)
        reset_dir(ctx.work)
        for sub in ("cache", "cold", "tmp"):
            os.makedirs(ctx.path(sub))
        workers, conns = serve_sizes(ctx)
        context = {"machine": platform.machine(),
                   "cpu": platform.processor() or platform.machine(),
                   "isa": active_isa(ctx),
                   "unp_kernel": os.environ.get("UNP_KERNEL", "auto"),
                   "nproc": ctx.nproc, "threads": ctx.threads,
                   "serve_workers": workers, "serve_connections": conns,
                   "build_type": BUILD_TYPE,
                   "cache": {"report_cold": "cold", "report_warm": "warm",
                             "serve_mix": "n/a"}[args.workload],
                   "workload": args.workload, "seed": args.seed,
                   "trace": args.trace}
        log("context: " + json.dumps(context, sort_keys=True))
        metrics = WORKLOADS[args.workload](ctx)
    except (BenchError, subprocess.SubprocessError, OSError) as e:
        print("perfbench: %s" % e, file=sys.stderr)
        return 2
    finally:
        for proc in list(ctx.procs):
            proc.kill()
            proc.wait()
        shutil.rmtree(ctx.work, ignore_errors=True)

    wanted = PER_LAYER if args.trace else END_TO_END
    out = {}
    for name, unit in wanted:
        value = metrics.get(name)
        out[name] = {"value": float(value) if value is not None else 0.0,
                     "unit": unit}
    if args.trace:
        print_layers(metrics)
    missing = [name for name, _ in wanted if metrics.get(name) is None]
    if missing:
        log("not measured on %s (reported as 0): %s"
            % (args.workload, " ".join(missing)))
    error_rate = ctx.failed / ctx.attempted if ctx.attempted else 0.0
    log("error_rate %.6f (%d failed of %d checked operations)"
        % (error_rate, ctx.failed, ctx.attempted))
    for name, unit in wanted:
        log("%-28s %14.4f %s" % (name, out[name]["value"], unit))
    print(json.dumps({"correct": ctx.failed == 0,
                      "attempted": max(1, ctx.attempted),
                      "failed": ctx.failed, "metrics": out}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
