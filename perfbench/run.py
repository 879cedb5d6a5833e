#!/usr/bin/env python3
"""The pqdb benchmark: one command, four workloads, checked answers.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a pqdb checkout.  It builds `pqdb` and the benchmark
helper (perfbench/pqbench.ml) from source with dune, generates the
workload's inputs from the seed, drives the real program for S seconds,
checks every answer, and prints one JSON object as the last line of stdout.
With --trace 0 that object holds the end-to-end metrics of BENCHMARK.json;
with --trace 1 it holds the per-layer metrics of a traced run instead.
BENCHMARK.json lists batch-compile, serve-mix and query-mix; batch-sample
runs by hand only, because a known defect fails its answer check on every
run.  See perfbench/README.md for what each workload and metric means.
"""

import argparse
import json
import math
import os
import shutil
import statistics
import subprocess
import sys
import time

WORKLOADS = ("batch-compile", "batch-sample", "serve-mix", "query-mix")
PQDB = os.path.join("_build", "default", "bin", "pqdb_cli.exe")
HELPER = os.path.join("_build", "default", "perfbench", "pqbench.exe")
# Set-up is measured repeatedly in a run and the median reported.
SETUP_MIN_REPS = 9
SETUP_MIN_S = 3.0
SETUP_MAX_REPS = 201
STEP_TIMEOUT = 150  # no single program invocation may take longer
# A σ̂ decision far from its threshold may be wrong with probability δ (the
# per-tuple error target the answer states).  A run's wrong ones count as
# failed when so many would occur at rate δ with less than this probability.
SIGMA_ALPHA = 1e-4


class BenchError(Exception):
    pass


def log(msg):
    print(msg, flush=True)


def run(argv, timeout=STEP_TIMEOUT, stdout=None):
    """Run a program to completion; return (wall_s, returncode, peak_rss_kb,
    stdout_text_or_None, stderr_text)."""
    out = open(stdout, "wb") if stdout else subprocess.PIPE
    try:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.PIPE)
        try:
            o, e = p.communicate(timeout=timeout)
        except subprocess.TimeoutExpired:
            p.kill()
            p.communicate()
            raise BenchError("timed out: %s" % " ".join(argv))
        wall = time.perf_counter() - t0
    finally:
        if stdout:
            out.close()
    rss = 0
    for line in e.decode(errors="replace").splitlines():
        if line.startswith("-- peak rss "):
            rss = int(line.split()[3])
    return wall, p.returncode, rss, (o.decode() if o is not None else None), e.decode(errors="replace")


def run_rusage(argv, stdout):
    """Run with stdout to a file; return (wall_s, returncode, maxrss_kb)."""
    with open(stdout, "wb") as out:
        t0 = time.perf_counter()
        p = subprocess.Popen(argv, stdout=out, stderr=subprocess.STDOUT)
        _, status, ru = os.wait4(p.pid, 0)
        wall = time.perf_counter() - t0
        p.returncode = os.waitstatus_to_exitcode(status)
    return wall, p.returncode, ru.ru_maxrss


def helper(*args, timeout=STEP_TIMEOUT):
    wall, rc, _, out, err = run([HELPER] + list(args), timeout=timeout)
    if rc != 0:
        raise BenchError("pqbench %s failed: %s" % (args[0], err.strip()))
    return out


def high_percentile(values, target=0.99):
    """The target percentile if at least 10 samples lie beyond it, else the
    highest percentile that has 10 beyond it.  Below 100 samples that
    percentile is no tail at all (with 14 samples it would be p28), so the
    maximum is reported instead.  Returns (value, percentile used)."""
    s = sorted(values)
    n = len(s)
    beyond = max(10, int(round(n * (1 - target))))
    if n < 100:
        return s[-1], 1.0
    idx = n - 1 - beyond
    return s[idx], (idx + 1) / n


def setup_median(step):
    """The median of repeated set-up times: step() sets up once and returns
    its time.  Repeats at least SETUP_MIN_REPS times and until SETUP_MIN_S
    seconds are spent (at most SETUP_MAX_REPS times), so a fast set-up is
    sampled often enough that process-start noise averages out."""
    times = []
    t0 = time.perf_counter()
    while len(times) < SETUP_MIN_REPS or (
            time.perf_counter() - t0 < SETUP_MIN_S and len(times) < SETUP_MAX_REPS):
        times.append(step())
    return statistics.median(times)


def timed_setup(argv):
    def step():
        r = run(argv)
        if r[1] != 0:
            raise BenchError("set-up step failed: %s" % r[4].strip())
        return r[0]
    return setup_median(step)


def binomial_tail(n, k, p):
    """P[X >= k] for X ~ Binomial(n, p)."""
    if k <= 0:
        return 1.0
    if p <= 0:
        return 0.0
    if p >= 1:
        return 1.0
    return min(1.0, sum(math.exp(math.lgamma(n + 1) - math.lgamma(i + 1) - math.lgamma(n - i + 1)
                                 + i * math.log(p) + (n - i) * math.log1p(-p))
                        for i in range(k, n + 1)))


def latency_metrics(lats_ms):
    p99, used = high_percentile(lats_ms)
    log("latency: %d samples, p50 %.3f ms, p%.1f %.3f ms (reported as lat_p99_ms)"
        % (len(lats_ms), statistics.median(lats_ms), 100 * used, p99))
    return statistics.median(lats_ms), p99


# ---------------------------------------------------------------- batch-*

BATCH_EPS = 0.1  # batch-compile runs with the `pqdb batch` default, batch-sample sets it


def batch_argv(workload, work, k):
    argv = [PQDB, "batch", "--db", os.path.join(work, "db.udbb"), "--relation", "R"]
    if workload == "batch-compile":
        journal = os.path.join(work, "journal-%d" % k)
        if os.path.exists(journal):
            os.remove(journal)
        argv += ["--checkpoint", journal]
    else:
        argv += ["--eps", str(BATCH_EPS), "--delta", "0.05"]
    return argv


def check_batch_lines(text, reference):
    """Check one batch output; return (wrong answers, estimates outside
    their bracket).  A line is wrong if it is malformed, differs from the
    first run's bytes (the program is deterministic per seed), its bracket
    is not a probability interval (0 <= lo <= hi <= 1), or its estimate lies
    outside the bracket.  The last is a known defect: without a budget the
    Karp-Luby/DKLR estimate is reported unclamped (lib/montecarlo/
    karp_luby.ml), so it can leave its certified bracket, even [0, 1]; those
    lines are wrong, and also counted apart."""
    wrong = outside = 0
    lines = text.splitlines()
    ref = reference.splitlines() if reference is not None else lines
    wrong += abs(len(lines) - len(ref))
    for a, b in zip(lines, ref):
        f = a.split()
        try:
            est, lo, hi = (float.fromhex(x) for x in f[1:4])
            good = len(f) == 5 and a == b and 0 <= lo <= hi <= 1
        except (ValueError, IndexError):
            good = False
        if good and not lo <= est <= hi:
            outside += 1
            good = False
        if not good:
            wrong += 1
    return wrong, outside


def run_batch(workload, work, seed, seconds):
    db = os.path.join(work, "db.udbb")
    setup = timed_setup([PQDB, "run", "--db", db, "select[id < 0](R)"])
    walls, tuples, rss = [], [], []
    attempted = failed = outside = 0
    reference = None
    t_end = time.perf_counter() + seconds
    k = 0
    while k == 0 or time.perf_counter() < t_end:
        out_path = os.path.join(work, "out-%d" % k)
        wall, rc, peak, _, err = run(batch_argv(workload, work, k), stdout=out_path)
        with open(out_path) as f:
            text = f.read()
        os.remove(out_path)
        n = text.count("\n")
        attempted += max(n, 1)
        if rc != 0:
            failed += max(n, 1)
            log("batch run %d failed: %s" % (k, err.strip()))
        elif reference is None and workload == "batch-compile":
            # the first output against the rational oracle; later ones
            # must repeat it byte for byte
            with open(os.path.join(work, "first.out"), "w") as f:
                f.write(text)
            failed += int(helper("check-compile", db, os.path.join(work, "first.out"),
                                 str(seed), "20").split()[3])
        else:
            wrong, out = check_batch_lines(text, reference)
            failed += wrong
            outside += out
        if rc == 0 and reference is None:
            reference = text
        walls.append(wall)
        tuples.append(n)
        rss.append(peak / 1024.0)
        k += 1
    log("batch: %d runs of %d tuples, wall %s s; %d estimates outside their certified bracket (counted as wrong)"
        % (k, tuples[0], " ".join("%.3f" % w for w in walls), outside))
    p50, p99 = latency_metrics([w * 1000 for w in walls])
    return {
        "setup_s": setup,
        "throughput_tps": statistics.median(t / w for t, w in zip(tuples, walls)),
        "throughput_rps": k / sum(walls),
        "lat_p50_ms": p50,
        "lat_p99_ms": p99,
        "peak_rss_mb": statistics.median(rss),
    }, attempted, failed


# ---------------------------------------------------------------- serve-mix

class Daemon:
    """A `pqdb serve` subprocess on a Unix socket inside the work dir."""

    def __init__(self, db, socket):
        self.socket = socket
        if os.path.exists(socket):
            os.remove(socket)
        t0 = time.perf_counter()
        self.p = subprocess.Popen([PQDB, "serve", db, "--socket", socket],
                                  stdout=subprocess.PIPE, stderr=subprocess.PIPE)
        line = self.p.stdout.readline().decode()
        self.ready_s = time.perf_counter() - t0
        if "listening" not in line:
            self.stop()
            raise BenchError("daemon did not start: %r" % line)

    def peak_rss_mb(self):
        with open("/proc/%d/status" % self.p.pid) as f:
            for line in f:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024.0
        raise BenchError("no VmHWM for the daemon")

    def stop(self):
        if self.p.poll() is None:
            run([PQDB, "query", "--socket", self.socket, "shutdown"], timeout=30)
            try:
                self.p.wait(timeout=30)
            except subprocess.TimeoutExpired:
                self.p.kill()
                self.p.wait()
        self.p.stdout.close()
        self.p.stderr.close()


def serve_refs(work):
    db = os.path.join(work, "db.udbb")
    for rel in ("hot", "cold"):
        _, rc, _, _, err = run([PQDB, "batch", "--db", db, "--relation", rel, "--eps", "0.05",
                                "--delta", "0.01", "--seed", "42"],
                               stdout=os.path.join(work, rel + ".ref"))
        if rc != 0:
            raise BenchError("reference batch failed: %s" % err.strip())
    helper("refs-serve", db, work)


def serve_load(work, seed, seconds):
    """Run the closed-loop client against a fresh daemon; return the parsed
    request records, the client's summary and the daemon's peak RSS."""
    db = os.path.join(work, "db.udbb")
    sock = os.path.join(work, "s.sock")
    d = Daemon(db, sock)
    try:
        summary = helper("serve-load", sock, repr(float(seconds)), str(seed), work,
                         os.path.join(work, "load.tsv"), timeout=seconds + STEP_TIMEOUT)
        rss = d.peak_rss_mb()
    finally:
        d.stop()
    recs = []
    with open(os.path.join(work, "load.tsv")) as f:
        for line in f:
            t, kind, start, lat, ok, verdict, tuples, deadline = line.split()
            recs.append({"kind": kind, "lat_ms": float(lat), "verdict": verdict,
                         "tuples": int(tuples), "deadline": float(deadline)})
    fields = summary.split()
    info = dict(zip(fields[0::2], fields[1::2]))
    return recs, info, rss


def deadline_miss_frac(recs):
    dl = [r for r in recs if r["deadline"] > 0]
    if not dl:
        return 0.0
    miss = [r for r in dl if r["verdict"] == "wrong" or r["lat_ms"] > 2000 * r["deadline"]]
    return len(miss) / len(dl)


def run_serve(workload, work, seed, seconds):
    db = os.path.join(work, "db.udbb")
    sock = os.path.join(work, "s.sock")
    def step():
        d = Daemon(db, sock)
        d.stop()
        return d.ready_s
    setup = setup_median(step)
    serve_refs(work)
    recs, info, rss = serve_load(work, seed, seconds)
    elapsed = float(info["elapsed"])
    kinds = sorted({r["kind"] for r in recs})
    for k in kinds:
        rs = [r for r in recs if r["kind"] == k]
        log("serve %-8s %5d requests, median %.3f ms, %d wrong, %d with the precision defect"
            % (k, len(rs), statistics.median(r["lat_ms"] for r in rs),
               sum(1 for r in rs if r["verdict"] == "wrong"),
               sum(1 for r in rs if r["verdict"] == "precision")))
    log("serve: memo hits %s misses %s evictions %s; deadline_miss_frac %.4f"
        % (info["memo_hits"], info["memo_misses"], info["memo_evictions"], deadline_miss_frac(recs)))
    p50, p99 = latency_metrics([r["lat_ms"] for r in recs])
    failed = sum(1 for r in recs if r["verdict"] == "wrong")
    return {
        "setup_s": setup,
        "throughput_tps": sum(r["tuples"] for r in recs) / elapsed,
        "throughput_rps": len(recs) / elapsed,
        "lat_p50_ms": p50,
        "lat_p99_ms": p99,
        "peak_rss_mb": rss,
    }, len(recs), failed


# ---------------------------------------------------------------- query-mix

def read_queries(work):
    qs = []
    with open(os.path.join(work, "queries.tsv")) as f:
        for line in f:
            kind, sub, qseed, theta, text, oracle = line.rstrip("\n").split("\t")
            qs.append((kind, sub, qseed, text))
    return qs


def query_argv(db, sub, text, seed):
    if sub == "topk":
        return [PQDB, "topk", "--db", db, "-k", "3", "--seed", seed, text]
    return [PQDB, "run", "-a", "-O", "--db", db, "--seed", seed, text]


def answer_rows(text):
    rows = [l for l in text.splitlines() if l.startswith("| ")]
    ranked = [l for l in text.splitlines() if l[:1].isdigit() and ". (" in l]
    return max(len(rows) - 1, 0) + len(ranked)


def query_pass(work, deadline, limit=None):
    """Send the query list round-robin, one at a time, until the deadline
    (or once through with limit); returns per-request records and the
    manifest for the oracle check."""
    db = os.path.join(work, "db.udbb")
    qs = read_queries(work)
    outdir = os.path.join(work, "out")
    os.makedirs(outdir, exist_ok=True)
    recs, manifest = [], []
    i = 0
    while i < limit if limit is not None else (i == 0 or time.perf_counter() < deadline):
        qi = i % len(qs)
        kind, sub, qseed, text = qs[qi]
        path = os.path.join(outdir, "r%d.out" % i)
        wall, rc, maxrss = run_rusage(query_argv(db, sub, text, qseed), path)
        with open(path) as f:
            rows = answer_rows(f.read())
        recs.append({"kind": kind, "lat_ms": wall * 1000, "rc": rc, "rows": rows, "rss_kb": maxrss})
        if rc == 0:  # a failed request is counted once, below
            manifest.append("%d\t%s" % (qi, path))
        i += 1
    man = os.path.join(work, "manifest.tsv")
    with open(man, "w") as f:
        f.write("\n".join(manifest) + "\n")
    res = helper("check-query", work, man).split()
    wrong, far, far_wrong, suspect = (int(res[i]) for i in (3, 5, 7, 9))
    delta = float.fromhex(res[11])
    tail = binomial_tail(far, far_wrong, delta)
    log("query: %d of %d σ̂ decisions far from their threshold were wrong (%d flagged as "
        "singularity suspects); at the stated delta %g, %d or more has probability %.3g"
        % (far_wrong, far, suspect, delta, far_wrong, tail))
    if tail < SIGMA_ALPHA:
        wrong += far_wrong
    failed = wrong + sum(1 for r in recs if r["rc"] != 0)
    return recs, failed, suspect


def run_query(workload, work, seed, seconds):
    db = os.path.join(work, "db.udbb")
    setup = timed_setup([PQDB, "run", "--db", db, "select[a < 0](S)"])
    t0 = time.perf_counter()
    recs, failed, suspect = query_pass(work, t0 + seconds)
    elapsed = sum(r["lat_ms"] for r in recs) / 1000.0
    for k in sorted({r["kind"] for r in recs}):
        rs = [r["lat_ms"] for r in recs if r["kind"] == k]
        log("query %-6s %5d requests, median %.3f ms" % (k, len(rs), statistics.median(rs)))
    log("query: %d wrong" % failed)
    p50, p99 = latency_metrics([r["lat_ms"] for r in recs])
    return {
        "setup_s": setup,
        "throughput_tps": sum(r["rows"] for r in recs) / elapsed,
        "throughput_rps": len(recs) / elapsed,
        "lat_p50_ms": p50,
        "lat_p99_ms": p99,
        "peak_rss_mb": statistics.median(r["rss_kb"] for r in recs) / 1024.0,
    }, len(recs), failed


# ---------------------------------------------------------------- traced run

def traced(workload, work, seed):
    """The per-layer metrics: an untraced sample through the real program
    (failures, deadline misses, its wall time), then the in-process replay
    with spans (pqbench trace)."""
    extra = {}
    attempted = failed = 0
    if workload.startswith("batch-"):
        out = os.path.join(work, "cli.out")
        wall, rc, _, _, err = run(batch_argv(workload, work, 0), stdout=out)
        if rc != 0:
            raise BenchError("batch failed: %s" % err.strip())
        with open(out) as f:
            text = f.read()
        attempted = text.count("\n")
        failed, outside = check_batch_lines(text, None)
        extra["montecarlo.est_outside_bracket"] = outside
        extra["trace.e2e_ms"] = wall * 1000
    elif workload == "serve-mix":
        serve_refs(work)
        recs, _, _ = serve_load(work, seed, 3)
        attempted, failed = len(recs), sum(1 for r in recs if r["verdict"] == "wrong")
        extra["serve.deadline_miss_frac"] = deadline_miss_frac(recs)
    else:
        recs, failed, suspect = query_pass(work, None, limit=240)
        attempted = len(recs)
        extra["core.suspect_mismatches"] = suspect
        extra["trace.e2e_ms"] = sum(r["lat_ms"] for r in recs)
    extra["check.failed_frac"] = failed / max(attempted, 1)
    os.makedirs(os.path.join("perfbench", "_work"), exist_ok=True)
    spans = os.path.join("perfbench", "_work", "trace-%s.tsv" % workload)
    out = helper("trace", workload, work, str(seed), spans, timeout=170)
    metrics = {}
    for line in out.splitlines():
        if line.startswith("metric "):
            _, name, value = line.split()
            metrics[name] = float(value)
        else:
            log(line)
    if workload.startswith("batch-"):
        same = open(os.path.join(work, "replay.out")).read() == open(os.path.join(work, "cli.out")).read()
        log("replayed answers byte-identical to pqdb batch: %s" % ("yes" if same else "NO"))
    metrics.update(extra)
    log("span records: %s (one line per span: id, parent, request, name, start, end)" % spans)
    log("tracing overhead: %.3f ms (traced %.3f ms - untraced %.3f ms replay); cores: %d"
        % (metrics.get("trace.overhead_ms", 0), metrics.get("trace.traced_ms", 0),
           metrics.get("trace.untraced_ms", 0), metrics.get("trace.cores", 0)))
    return metrics, attempted, failed


# ---------------------------------------------------------------- main

def main():
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    for needed in ("dune-project", os.path.join("bin", "pqdb_cli.ml"),
                   os.path.join("perfbench", "pqbench.ml"), "BENCHMARK.json"):
        if not os.path.exists(needed):
            print("run.py: %s missing; run from the root of a pqdb checkout" % needed, file=sys.stderr)
            return 2
    with open("BENCHMARK.json") as f:
        spec = json.load(f)

    # The shared dune cache would write outside the checkout.
    env = dict(os.environ, DUNE_CACHE="disabled")
    build = subprocess.run(["dune", "build", "--root", ".", "./bin/pqdb_cli.exe", "./perfbench/pqbench.exe"],
                           stdout=subprocess.PIPE, stderr=subprocess.STDOUT, timeout=850, env=env)
    if build.returncode != 0:
        print(build.stdout.decode(errors="replace")[-4000:], file=sys.stderr)
        print("run.py: build failed", file=sys.stderr)
        return 1

    work = os.path.join("perfbench", "_work", "%s-%d-%d" % (args.workload, args.seed, os.getpid()))
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    try:
        log(helper("gen", args.workload, str(args.seed), work).strip())
        if args.trace:
            values, attempted, failed = traced(args.workload, work, args.seed)
            wanted = spec["per_layer"]
        else:
            fn = {"batch-compile": run_batch, "batch-sample": run_batch,
                  "serve-mix": run_serve, "query-mix": run_query}[args.workload]
            values, attempted, failed = fn(args.workload, work, args.seed, args.seconds)
            wanted = spec["end_to_end"]
    except (BenchError, OSError, subprocess.SubprocessError, ValueError, KeyError) as e:
        print("run.py: %s" % e, file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(work, ignore_errors=True)

    metrics = {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]} for m in wanted}
    if args.trace == 0:
        log("failed_frac %.6f (%d of %d answers)" % (failed / max(attempted, 1), failed, attempted))
    print(json.dumps({"correct": failed == 0, "attempted": int(max(attempted, 1)),
                      "failed": int(failed), "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
