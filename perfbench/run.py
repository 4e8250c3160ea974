#!/usr/bin/env python3
"""Planning-service benchmark.

Builds ``fusecu_opt`` from the checkout it runs in, starts the real
``fusecu_opt serve --socket`` daemon, drives one workload through it from
this single client (one connection, closed loop, ``--batch 1``, a fresh
``--store`` file), checks every answer with the benchmark's own
arithmetic (check.py) and prints one JSON object as its last line.

    python3 perfbench/run.py --workload mm_cold --seed 1 --seconds 10 --trace 0

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs the same
requests through the daemon, then replays them in process through each
layer's public entry points (perfbench/trace.ml) and reports the
per-layer metrics; the replay's responses must equal the daemon's.
Everything the run writes goes under ``.perfbench/`` in the checkout.
"""

import argparse
import json
import math
import os
import shutil
import socket
import statistics
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import check  # noqa: E402
import gen  # noqa: E402

EXE = os.path.join("_build", "default", "bin", "fusecu_opt.exe")
TRACE_EXE = os.path.join("_build", "default", "perfbench", "trace.exe")
WORKLOADS = ("mm_cold", "nest_cold", "model_sweep", "warm_restart")

# Percentile reported as latency_tail_ms.  p99 has ten samples beyond it
# only on mm_cold and warm_restart, and there it wanders with a handful of
# slow requests or host stalls (README, "End-to-end metrics").
TAIL = {"mm_cold": 90, "nest_cold": 90, "model_sweep": 90, "warm_restart": 90}
# Rounds every run completes whatever --seconds says; traffic_over_bound
# is taken over exactly these, so it is a function of the seed alone.
MIN_ROUNDS = {"mm_cold": 25, "nest_cold": 12, "model_sweep": 56, "warm_restart": 1}
SETUP_TRIALS = 51
LONE_TIMEOUT = 0.1  # --timeout of the second (default --batch) daemon
CACHE_ENTRIES = 1 << 16
WARM_CHUNK = 10000  # warm_restart reports medians over chunks of this many hits


def log(*a):
    print(*a, file=sys.stderr, flush=True)


class BenchError(Exception):
    pass


# ------------------------------------------------------------------ build


def dune_cmd():
    dune = shutil.which("dune")
    if dune:
        return [dune]
    if shutil.which("opam"):
        return ["opam", "exec", "--", "dune"]
    raise BenchError("dune not found")


def build():
    if not (os.path.exists("dune-project") and os.path.exists(os.path.join("bin", "fusecu_opt.ml"))):
        raise BenchError("run from the root of a fusecu checkout (dune-project, bin/ missing)")
    cmd = dune_cmd() + ["build", "--root", ".", "./bin/fusecu_opt.exe", "./perfbench/trace.exe"]
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True)
    if r.returncode != 0:
        raise BenchError("build failed:\n" + r.stdout[-4000:])


# ------------------------------------------------------------------ daemon


def proc_cpu_s(pid):
    with open("/proc/%d/stat" % pid) as f:
        rest = f.read().rsplit(")", 1)[1].split()
    return (int(rest[11]) + int(rest[12])) / os.sysconf("SC_CLK_TCK")


def proc_hwm_mb(pid):
    with open("/proc/%d/status" % pid) as f:
        for line in f:
            if line.startswith("VmHWM:"):
                return int(line.split()[1]) / 1024.0
    raise BenchError("no VmHWM")


LIVE = []  # daemons not yet closed, killed on the way out of an error


class Daemon:
    """One ``fusecu_opt serve --socket`` process and one client connection."""

    def __init__(self, workdir, name, store=None, batch=1, timeout=None):
        self.path = os.path.join(workdir, name + ".sock")
        if os.path.exists(self.path):
            os.unlink(self.path)
        args = [EXE, "serve", "--socket", self.path, "--mapper", "bnb",
                "--cache-entries", str(CACHE_ENTRIES)]
        if batch is not None:
            args += ["--batch", str(batch)]
        if timeout is not None:
            args += ["--timeout", str(timeout)]
        if store is not None:
            args += ["--store", store]
        env = {k: v for k, v in os.environ.items() if not k.startswith("FUSECU_")}
        self.errfile = open(os.path.join(workdir, name + ".err"), "ab")
        self.t0 = time.perf_counter()
        self.proc = subprocess.Popen(args, stdin=subprocess.DEVNULL, stdout=self.errfile,
                                     stderr=self.errfile, env=env)
        LIVE.append(self)
        self.sock = self.connect()
        self.rf = self.sock.makefile("rb")

    def connect(self, deadline_s=60.0):
        while True:
            if self.proc.poll() is not None:
                raise BenchError("daemon exited with %s" % self.proc.returncode)
            s = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
            try:
                s.connect(self.path)
                return s
            except OSError:
                s.close()
                if time.perf_counter() - self.t0 > deadline_s:
                    raise BenchError("daemon did not listen")
                time.sleep(0.0002)

    def call(self, line):
        """Send one request line (bytes, newline included); return (ns, response)."""
        t = time.perf_counter_ns()
        self.sock.sendall(line)
        resp = self.rf.readline()
        dt = time.perf_counter_ns() - t
        if not resp:
            raise BenchError("daemon closed the connection")
        return dt, resp

    def first_answer_s(self):
        self.call(b'{"op":"stats"}\n')
        return time.perf_counter() - self.t0

    def stats(self):
        return json.loads(self.call(b'{"op":"stats"}\n')[1])["result"]

    def close(self):
        try:
            self.call(b'{"op":"shutdown"}\n')
        except (OSError, BenchError):
            pass
        self.rf.close()
        self.sock.close()
        try:
            self.proc.wait(timeout=60)
        except subprocess.TimeoutExpired:
            self.kill()
        self.errfile.close()
        LIVE.remove(self)

    def kill(self):
        self.proc.kill()
        self.proc.wait()


def setup_trials(workdir, store_for_trial):
    """Spawn-to-first-answer times of SETUP_TRIALS fresh daemons."""
    times = []
    for i in range(SETUP_TRIALS):
        d = Daemon(workdir, "setup", store=store_for_trial(i))
        times.append(d.first_answer_s())
        d.close()
    return times


def fresh_store(workdir, name):
    path = os.path.join(workdir, name)
    if os.path.exists(path):
        os.unlink(path)
    return path


# ------------------------------------------------------------------ workloads


def encode(req, rid):
    return (json.dumps(gen.wire(req, rid), separators=(",", ":")) + "\n").encode()


def run_cold(args, workdir, round_fn):
    """Timed closed loop over whole rounds of distinct requests."""
    setups = setup_trials(workdir, lambda i: fresh_store(workdir, "setup%d.store" % i))
    store = fresh_store(workdir, "serve.store")
    d = Daemon(workdir, "serve", store=store)
    setups.append(d.first_answer_s())
    distinct = gen.Distinct()
    sent = []  # (round, req, line, rtt_ns, resp)
    window = 0.0
    rounds = 0
    cpu0 = proc_cpu_s(d.proc.pid)
    while window < args.seconds or rounds < MIN_ROUNDS[args.workload]:
        reqs = round_fn(args.seed, rounds, distinct)
        lines = [encode(q, len(sent) + i) for i, q in enumerate(reqs)]
        t = time.perf_counter()
        for q, line in zip(reqs, lines):
            ns, resp = d.call(line)
            sent.append((rounds, q, line, ns, resp))
        window += time.perf_counter() - t
        rounds += 1
        if rounds == MIN_ROUNDS[args.workload]:
            # after a fixed amount of work, so host speed does not move it
            hwm = proc_hwm_mb(d.proc.pid)
    cpu = proc_cpu_s(d.proc.pid) - cpu0
    st = d.stats()
    d.close()
    return {"setups": setups, "sent": sent, "window": window, "rounds": rounds, "cpu": cpu,
            "stats": st, "hwm": hwm, "store": store, "lone": []}


def run_warm(args, workdir):
    """Fill a store from a cold daemon, restart on it, stream Zipf repeats."""
    pool = gen.warm_pool(args.seed)
    pool_lines = [encode(q, i) for i, q in enumerate(pool)]
    store = fresh_store(workdir, "warm.store")
    d = Daemon(workdir, "fill", store=store)
    cold = [d.call(line)[1] for line in pool_lines]
    d.close()
    setups = setup_trials(workdir, lambda i: store)
    d = Daemon(workdir, "serve", store=store)
    setups.append(d.first_answer_s())
    order = gen.zipf_order(args.seed, pool)
    rtts, seq = [], []
    mismatched = 0
    window = 0.0
    rounds = 0
    cpu0 = proc_cpu_s(d.proc.pid)
    chunks = []  # (requests, seconds, p99 ms) per WARM_CHUNK requests
    while window < args.seconds or rounds < MIN_ROUNDS["warm_restart"]:
        idxs = gen.warm_stream_round(args.seed, rounds, order)
        call = d.call
        for c0 in range(0, len(idxs), WARM_CHUNK):
            chunk = idxs[c0:c0 + WARM_CHUNK]
            out = []
            t = time.perf_counter()
            for i in chunk:
                ns, resp = call(pool_lines[i])
                out.append(ns)
                if resp != cold[i]:
                    mismatched += 1
            dt = time.perf_counter() - t
            window += dt
            rtts.extend(out)
            out.sort()
            chunks.append((len(chunk), dt, percentile(out, TAIL["warm_restart"]) / 1e6))
        seq.extend(idxs)
        rounds += 1
    cpu = proc_cpu_s(d.proc.pid) - cpu0
    st = d.stats()
    hwm = proc_hwm_mb(d.proc.pid)
    d.close()
    lone = run_lone(workdir, rounds)
    return {"setups": setups, "pool": pool, "pool_lines": pool_lines, "cold": cold,
            "rtts": rtts, "seq": seq, "mismatched": mismatched, "window": window,
            "rounds": rounds, "cpu": cpu, "stats": st, "hwm": hwm, "store": store,
            "lone": lone, "chunks": chunks}


def run_lone(workdir, n):
    """One send-one-wait-one request per round to a daemon at the default
    --batch: each must be answered within 0.8 x the idle deadline, timed
    from the send, so a client stall cannot move the count."""
    d = Daemon(workdir, "lone", batch=None, timeout=LONE_TIMEOUT)
    d.rf.close()
    d.sock.close()
    results = []
    for r in range(n):
        req = gen.lone_request(r)
        s = d.connect()
        s.settimeout(LONE_TIMEOUT + 5.0)
        rf = s.makefile("rb")
        t = time.perf_counter()
        s.sendall(encode(req, r))
        try:
            resp = rf.readline()
        except (socket.timeout, OSError):
            resp = b""
        in_time = bool(resp) and time.perf_counter() - t < 0.8 * LONE_TIMEOUT
        rf.close()
        s.close()
        results.append((req, resp, in_time))
    d.sock = d.connect()
    d.rf = d.sock.makefile("rb")
    d.close()
    return results


# ------------------------------------------------------------------ checks


def percentile(sorted_vals, p):
    """Nearest-rank percentile of an ascending list."""
    k = max(0, math.ceil(p / 100.0 * len(sorted_vals)) - 1)
    return sorted_vals[k]


def check_answer(req, resp_bytes):
    try:
        resp = json.loads(resp_bytes)
    except ValueError:
        return ["unparseable response"], None
    return check.check(req, resp), resp


def grade_cold(args, res):
    failed = 0
    incorrect = []
    ok_in_window = 0
    logs = []
    for rnd, req, line, ns, resp_b in res["sent"]:
        problems, resp = check_answer(req, resp_b)
        if problems:
            failed += 1
            if "_fault" not in req:
                incorrect.append((req, problems))
            continue
        ok_in_window += 1
        if rnd < MIN_ROUNDS[args.workload]:
            t = check.planned_traffic(req, resp)
            lo = check.compulsory(req)
            if t is not None and lo:
                logs.append(math.log(t / lo))
    return failed, incorrect, ok_in_window, logs


def grade_warm(res):
    incorrect = []
    for req, resp_b in zip(res["pool"], res["cold"]):
        problems, _ = check_answer(req, resp_b)
        if problems:
            incorrect.append((req, problems))
    failed = res["mismatched"]
    if res["mismatched"]:
        incorrect.append(("warm stream", ["%d hits differ from the cold answer" % res["mismatched"]]))
    # traffic_over_bound over the distinct answers the stream serves
    logs = []
    for req, resp_b in zip(res["pool"], res["cold"]):
        t = check.planned_traffic(req, json.loads(resp_b))
        lo = check.compulsory(req)
        if t is not None and lo:
            logs.append(math.log(t / lo))
    for req, resp_b, in_time in res["lone"]:
        if not in_time:
            failed += 1
        else:
            problems, _ = check_answer(req, resp_b)
            if problems:
                failed += 1
                incorrect.append((req, problems))
    ok_in_window = len(res["seq"]) - res["mismatched"]
    return failed, incorrect, ok_in_window, logs


def end_to_end(args, res, ok_in_window, logs, rtts_ns):
    lat = sorted(x / 1e6 for x in rtts_ns)
    plans = max(ok_in_window, 1)
    rate = ok_in_window / res["window"]
    tail = percentile(lat, TAIL[args.workload])
    if "chunks" in res:
        # µs-scale hits: a few host stalls move a 10 s aggregate, so the
        # warm stream reports the median over WARM_CHUNK-request chunks
        rate = statistics.median(n / dt for n, dt, _ in res["chunks"])
        tail = statistics.median(p for _, _, p in res["chunks"])
    return {
        "setup_s": {"value": statistics.median(res["setups"]), "unit": "s"},
        "plans_per_s": {"value": rate, "unit": "1/s"},
        "latency_p50_ms": {"value": statistics.median(lat), "unit": "ms"},
        "latency_tail_ms": {"value": tail, "unit": "ms"},
        "cpu_ms_per_plan": {"value": 1000.0 * res["cpu"] / plans, "unit": "ms"},
        "peak_rss_mb": {"value": res["hwm"], "unit": "MB"},
        "traffic_over_bound": {"value": math.exp(sum(logs) / len(logs)) if logs else 1.0,
                               "unit": "ratio"},
    }


def op_summary(sent):
    """Per-op latency summary on stderr (ms)."""
    by = {}
    for _rnd, req, _line, ns, _resp in sent:
        cls = req["op"] if req["op"] != "nest" else req["kind"]
        if "_fault" in req:
            cls += "(fault)"
        by.setdefault(cls, []).append(ns / 1e6)
    for cls, v in sorted(by.items()):
        v.sort()
        log("  %-18s n=%-5d p50=%9.3f p90=%9.3f max=%9.3f ms"
            % (cls, len(v), statistics.median(v), percentile(v, 90), v[-1]))


def design_check(workload, st):
    hits, misses = st["cache"]["hits"], st["cache"]["misses"]
    log("engine stats: hits=%d misses=%d hit_rate=%.4f" % (hits, misses, st["cache"]["hit_rate"]))
    if workload in ("mm_cold", "nest_cold") and hits != 0:
        log("WARNING: %s is meant to have no cache hits" % workload)
    if workload == "warm_restart" and misses != 0:
        log("WARNING: warm_restart is meant to have no cache misses")


# ------------------------------------------------------------------ traced replay


def traced(args, workdir, res, rtts_ns):
    """Replay the daemon's requests in process, layer by layer."""
    lines_f = os.path.join(workdir, "lines.ndjson")
    expect_f = os.path.join(workdir, "expected.ndjson")
    seq_f = os.path.join(workdir, "seq.txt")
    handle_f = os.path.join(workdir, "handle_us.txt")
    spans_f = os.path.join(".perfbench", "spans-%s.ndjson" % args.workload)
    if args.workload == "warm_restart":
        lines, expected, seq = res["pool_lines"], res["cold"], res["seq"]
        store = res["store"]
    else:
        lines = [s[2] for s in res["sent"]]
        expected = [s[4] for s in res["sent"]]
        seq = range(len(lines))
        store = fresh_store(workdir, "replay.store")
    with open(lines_f, "wb") as f:
        f.writelines(lines)
    with open(expect_f, "wb") as f:
        f.writelines(expected)
    with open(seq_f, "w") as f:
        f.write("\n".join(str(i) for i in seq) + "\n")
    cmd = [TRACE_EXE, "--lines", lines_f, "--expected", expect_f, "--seq", seq_f,
           "--store", store, "--cache-entries", str(CACHE_ENTRIES), "--spans", spans_f,
           "--handle", handle_f]
    if args.workload == "warm_restart":
        cmd.append("--warm")
    r = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True)
    sys.stderr.write(r.stderr)
    if r.returncode != 0:
        raise BenchError("traced replay failed (exit %d)" % r.returncode)
    out = json.loads(r.stdout.strip().splitlines()[-1])
    with open(handle_f) as f:
        handle = [float(x) for x in f]
    overhead = sorted(ns / 1000.0 - h for ns, h in zip(rtts_ns, handle))
    metrics = out["metrics"]
    metrics["server.overhead_us"] = {"value": statistics.median(overhead), "unit": "us"}
    log("spans written to %s" % spans_f)
    return out["identical"], metrics


# ------------------------------------------------------------------ main


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    try:
        build()
        os.makedirs(".perfbench", exist_ok=True)
        workdir = os.path.join(".perfbench", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
        shutil.rmtree(workdir, ignore_errors=True)
        os.makedirs(workdir)
        try:
            result = run(args, workdir)
        finally:
            for d in LIVE:
                d.kill()
            shutil.rmtree(workdir, ignore_errors=True)
    except BenchError as e:
        log("perfbench: %s" % e)
        return 1
    print(json.dumps(result))
    return 0


def run(args, workdir):
    if args.workload == "warm_restart":
        # A hit costs about 10 µs, and a wake-up on the other core as much
        # again: left to the scheduler, whether client and daemon share a
        # core halved or doubled a whole run.  Pin this process and every
        # daemon it starts to one CPU.
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
        res = run_warm(args, workdir)
        failed, incorrect, ok_in_window, logs = grade_warm(res)
        rtts = res["rtts"]
        attempted = len(res["seq"]) + len(res["lone"])
    else:
        round_fn = {"mm_cold": gen.mm_cold_round, "nest_cold": gen.nest_cold_round,
                    "model_sweep": gen.model_sweep_round}[args.workload]
        res = run_cold(args, workdir, round_fn)
        failed, incorrect, ok_in_window, logs = grade_cold(args, res)
        rtts = [s[3] for s in res["sent"]]
        op_summary(res["sent"])
        attempted = len(res["sent"])
    design_check(args.workload, res["stats"])
    log("%s seed %d: %d rounds, %d attempted, %d failed, %.2f s window"
        % (args.workload, args.seed, res["rounds"], attempted, failed, res["window"]))
    for req, problems in incorrect[:10]:
        log("WRONG ANSWER: %s: %s" % (json.dumps(req)[:300], "; ".join(problems)[:500]))
    correct = not incorrect
    if args.trace:
        identical, metrics = traced(args, workdir, res, rtts)
        if not identical:
            log("traced replay responses differ from the daemon's")
            correct = False
    else:
        metrics = end_to_end(args, res, ok_in_window, logs, rtts)
    return {"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}


if __name__ == "__main__":
    sys.exit(main())
