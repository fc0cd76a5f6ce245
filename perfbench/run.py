#!/usr/bin/env python3
"""Federation benchmark: the MeshNode pair pipeline, its in-simulator twin
and the offline causal checker (perfbench/README.md).

    python3 perfbench/run.py --workload mesh_chain2 --seed 1 --seconds 30 --trace 0
    python3 perfbench/run.py --all --seed 1 --seconds 30      # every workload

Builds the driver from the checkout's sources into .bench_build (Release),
runs one untraced pass of the workload (and, with --trace 1, a traced pass
after it), checks the outputs and prints a readable report followed by one
JSON line: the end-to-end metrics with --trace 0, the per-layer metrics with
--trace 1. Exits non-zero without a result line when the build fails, the
build is not optimized, or a reported percentile has too few samples.
"""

import argparse
import json
import os
import subprocess
import sys
import time

sys.dont_write_bytecode = True
HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)

import analysis as an  # noqa: E402

WORKLOADS = ("mesh_chain2", "sim_chain2", "check_cm")
PIPELINES = ("mesh_chain2", "sim_chain2")

END_TO_END = {
    "pairs_per_s": "1/s",
    "cpu_us_per_pair": "us",
    "check_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "mesh.join_ms": "ms",
    "mesh.link_pairs_per_s": "1/s",
    "mesh.tail_busy_ms": "ms",
    "mesh.tail_idle_ms": "ms",
    "mesh.starved_ms": "ms",
    "session.journal_depth.p50": "frames",
    "session.journal_depth.p99": "frames",
    "session.lag_ms.p50": "ms",
    "session.lag_ms.p99": "ms",
    "session.queue_full_stalls": "count",
    "session.rtt_us": "us",
    "session.hb_miss": "count",
    "session.resumes": "count",
    "session.dup_drops": "count",
    "net.syscalls_per_pair": "1/pair",
    "net.coalesced_frac": "ratio",
    "net.epoll_waits_per_pair": "1/pair",
    "net.wakeups_per_pair": "1/pair",
    "net.wire_bytes_per_pair": "B/pair",
    "net.wire.encode_ns.p50": "ns",
    "net.wire.decode_ns.p50": "ns",
    "net.acks_per_pair": "1/pair",
    "net.retx_per_kpair": "1/kpair",
    "runtime.ctx_switches_per_pair": "1/pair",
    "cpu.sys_frac": "ratio",
    "cpu.cores_busy": "cores",
    "sim.events_per_pair": "1/pair",
    "sim.queue_depth_peak": "events",
    "mcs.isp_reads_per_pair": "1/pair",
    "proto.updates_applied_per_pair": "1/pair",
    "proto.buffer_occupancy.p99": "updates",
    "isc.pairs_sent": "count",
    "isc.pairs_received": "count",
    "trace.events_per_pair": "1/pair",
    "trace.dropped": "count",
    "checker.violations": "count",
    "checker.build_ms": "ms",
    "checker.check_ms": "ms",
    "checker.explicit_edges_per_op": "1/op",
    "checker.ambiguous_reads": "count",
    "checker.assignments_tried": "count",
    "checker.bytes_per_op": "B/op",
    "checker.verify_ms": "ms",
    "trace.overhead_pct": "%",
}

# Whole-run budget once the driver is built: every run must end in 180 s.
RUN_BUDGET_S = 170.0


class BenchError(Exception):
    """The benchmark cannot produce a trustworthy result."""


def log(msg):
    print(msg, flush=True)


# ---- build -------------------------------------------------------------------

def build_dir():
    return os.path.join(ROOT, ".bench_build")


def build():
    out = build_dir()
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    if not os.path.exists(os.path.join(out, "CMakeCache.txt")):
        cmd = ["cmake", "-S", HERE, "-B", out, "-DCMAKE_BUILD_TYPE=Release"]
        if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
            raise BenchError("cmake configure failed")
    cmd = ["cmake", "--build", out, "-j", jobs]
    if subprocess.run(cmd, stdout=sys.stderr, stderr=sys.stderr).returncode:
        raise BenchError("build failed")
    return os.path.join(out, "perfbench_driver")


# ---- driver passes -------------------------------------------------------------

# Repetitions per run: one per SECONDS_PER_REP of --seconds, at least
# MIN_REPS; a traced run splits them between its untraced and traced pass.
# The count does not depend on how long repetitions actually take: a
# time-based stop would let more short repetitions into a run and tilt the
# median towards them. mesh_chain2 needs 31 repetitions for a steady median
# (README.md, "Repetitions"), so its runs last longer than --seconds.
# sim_chain2 needs 40 for the slower quartile (see end_to_end).
SECONDS_PER_REP = {"mesh_chain2": 2.5, "sim_chain2": 0.65, "check_cm": 20.0}
MIN_REPS = {"mesh_chain2": 31, "sim_chain2": 40, "check_cm": 1}
MASK = (1 << 64) - 1


def rep_seed(seed, k):
    """Seed of repetition k of a run (splitmix64 of the run's seed and k)."""
    z = (seed + 0x9E3779B97F4A7C15 * (k + 1)) & MASK
    z = ((z ^ (z >> 30)) * 0xBF58476D1CE4E5B9) & MASK
    z = ((z ^ (z >> 27)) * 0x94D049BB133111EB) & MASK
    return z ^ (z >> 31)


def run_rep(driver, workload, seed, traced, timeout):
    """One repetition in a driver process of its own: (record, error)."""
    cmd = [driver, workload, "--seed", str(seed),
           "--traced", "1" if traced else "0"]
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=sys.stderr,
                              timeout=timeout)
    except subprocess.TimeoutExpired:
        return None, f"repetition with seed {seed} missed its deadline"
    if proc.returncode == 3:
        raise BenchError("driver refused to measure (see above)")
    if proc.returncode != 0:
        return None, f"driver exited with code {proc.returncode}"
    for line in proc.stdout.decode(errors="replace").splitlines():
        try:
            return json.loads(line)["rep"], None
        except (ValueError, KeyError, TypeError):
            continue
    return None, "driver printed no record"


def rep_count(workload, seconds, trace):
    n = max(MIN_REPS[workload], int(seconds / SECONDS_PER_REP[workload]))
    return (n + 1) // 2 if trace else n


def run_pass(driver, workload, seed, count, traced, deadline):
    """(repetition records, why the pass ended early or None)."""
    reps, error = [], None
    for k in range(count):
        left = deadline - time.monotonic()
        if left <= 0:
            error = "deadline missed"
            break
        rep, error = run_rep(driver, workload, rep_seed(seed, k), traced, left)
        if error:
            break
        reps.append(rep)
    return reps, error


# ---- end-to-end metrics --------------------------------------------------------

def cpu_s(usage):
    return usage["user_s"] + usage["sys_s"]


def rep_headline(workload, r):
    """One repetition's own end-to-end figures, for the report."""
    if workload == "check_cm":
        return {"pairs_per_s": r["pairs"] / r["check_s"],
                "check_s": r["check_s"]}
    u = r["usage"]
    return {"pairs_per_s": r["pairs_received"] / u["wall_s"],
            "cpu_us_per_pair": cpu_s(u) * 1e6 / max(1, r["pairs_received"]),
            "wall_s": u["wall_s"]}


def slower_quartile(values, name):
    """p75 of a lower-is-better figure: the repetition that three quarters
    of the run's repetitions match or beat, with ten or more beyond it."""
    return an.checked_percentile(values, 75, name)


def end_to_end(workload, reps, quartile=False):
    """The run's end-to-end figures: medians over its repetitions, or on
    sim_chain2 with `quartile` the slower quartile of its time figures.

    sim_chain2's repetitions are single-threaded and CPU-bound, so each one
    runs at whatever speed the shared host gives it at that moment: a sharp
    slow mode and a spread of faster ones (README.md, "Host drift"). Their
    median wanders with the share of fast repetitions; the slower quartile
    sits in the slow mode.
    """
    if workload == "sim_chain2" and quartile:
        wall = [r["usage"]["wall_s"] / max(1, r["pairs_received"])
                for r in reps]
        cpu = [cpu_s(r["usage"]) * 1e6 / max(1, r["pairs_received"])
               for r in reps]
        return {
            "pairs_per_s": 1.0 / slower_quartile(wall, "pairs_per_s"),
            "cpu_us_per_pair": slower_quartile(cpu, "cpu_us_per_pair"),
            "check_s": slower_quartile([r["verify"]["check_s"] for r in reps],
                                       "check_s"),
            "setup_s": an.median([r["setup_s"] for r in reps]),
            "peak_rss_mb": an.median([r["maxrss_kb"] for r in reps]) / 1024.0,
        }
    if workload == "check_cm":
        rate = [r["pairs"] / r["check_s"] for r in reps]
        cpu = [cpu_s(r["usage"]) * 1e6 / r["pairs"] for r in reps]
        check = [r["check_s"] for r in reps]
        setup = [b for r in reps for b in r["build_s"]]
    else:
        rate = [r["pairs_received"] / r["usage"]["wall_s"] for r in reps]
        cpu = [cpu_s(r["usage"]) * 1e6 / max(1, r["pairs_received"])
               for r in reps]
        check = [r["verify"]["check_s"] for r in reps if "verify" in r]
        setup = [r["setup_s"] for r in reps]
    return {
        "pairs_per_s": an.median(rate),
        "cpu_us_per_pair": an.median(cpu),
        "check_s": an.median(check),
        "setup_s": an.median(setup),
        "peak_rss_mb": an.median([r["maxrss_kb"] for r in reps]) / 1024.0,
    }


def accounting(workload, reps, error):
    """(attempted, failed, reasons). A failed repetition counts the whole
    run as failed."""
    reasons = [r["why"] for r in reps if not r["ok"]]
    if error:
        reasons.append(error)
    if workload == "check_cm":
        attempted = sum(r.get("ops", 0) for r in reps)
        failed = 0
    else:
        attempted = sum(r.get("pairs_sent", 0) for r in reps)
        failed = sum(max(0, r["pairs_sent"] - r["pairs_received"])
                     for r in reps if r["ok"])
    attempted = max(1, attempted)
    if reasons:
        failed = attempted
    return attempted, failed, reasons


# ---- per-layer metrics ---------------------------------------------------------

def mesh_layers(reps, m):
    """Session, link and tail metrics from the sampled mesh series."""
    join, link_rate, busy, idle, starved = [], [], [], [], []
    depth, lags = [], []
    for r in reps:
        join.append(max(r["join_ms0"], r["join_ms1"]))
        rows = r.get("samples") or []
        if len(rows) < 2:
            continue
        t = [row[0] for row in rows]
        sent = ([row[1] for row in rows], [row[5] for row in rows])
        deliv = ([row[2] for row in rows], [row[6] for row in rows])
        cpu = [row[9] for row in rows]
        for row in rows:
            depth += [row[3], row[7]]
        # Each direction of the link: node 0 -> node 1 and node 1 -> node 0.
        for d_sent, d_deliv in ((sent[0], deliv[1]), (sent[1], deliv[0])):
            lags += an.fifo_lags(t, d_sent, d_deliv)
            win = an.steady_window(t, d_deliv)
            if win is not None:
                link_rate.append(win[2] * 1e9)
        total = [a + b for a, b in zip(*deliv)]
        t_last = an.crossing_time(t, total, total[-1])
        t_end = max(r["t_end0"], r["t_end1"])
        b, i = an.tail_split(t, cpu, t_last, t_end)
        busy.append(b * 1e-6)
        idle.append(i * 1e-6)
        starved.append(max(an.longest_starvation(t, s, s[-1]) for s in sent)
                       * 1e-6)
    m["mesh.join_ms"] = an.median(join)
    m["mesh.link_pairs_per_s"] = an.median(link_rate)
    m["mesh.tail_busy_ms"] = an.median(busy)
    m["mesh.tail_idle_ms"] = an.median(idle)
    m["mesh.starved_ms"] = an.median(starved)
    for q in (50, 99):
        m[f"session.journal_depth.p{q}"] = an.checked_percentile(
            depth, q, "session.journal_depth")
        m[f"session.lag_ms.p{q}"] = an.checked_percentile(
            lags, q, "session.lag_ms") * 1e-6
    sess = [r["session"] for r in reps]
    pairs = [max(1, s["data_delivered"]) for s in sess]
    m["session.queue_full_stalls"] = an.median(
        [s["queue_full_stalls"] for s in sess])
    m["session.rtt_us"] = an.median([s["best_rtt_ns"] * 1e-3 for s in sess])
    for k in ("hb_miss", "resumes", "dup_drops"):
        m[f"session.{k}"] = sum(s[k] for s in sess)
    m["net.syscalls_per_pair"] = an.median(
        [(s["syscalls_read"] + s["syscalls_write"]) / n
         for s, n in zip(sess, pairs)])
    m["net.coalesced_frac"] = an.median(
        [s["frames_coalesced"] / max(1, s["data_sent"]) for s in sess])
    m["net.wire_bytes_per_pair"] = an.median(
        [s["wire_bytes_out"] / max(1, s["data_sent"]) for s in sess])
    codec = [r["codec"] for r in reps]
    if sum(c["count"] for c in codec) < 2 * an.MIN_BEYOND:
        raise an.InsufficientSamples("net.wire codec timing: too few samples")
    m["net.wire.encode_ns.p50"] = an.median([c["encode_ns.p50"] for c in codec])
    m["net.wire.decode_ns.p50"] = an.median([c["decode_ns.p50"] for c in codec])


def histogram_p(c, name, q):
    """A percentile the program computed, with its sample-count check."""
    n = c[f"{name}.count"]
    beyond = n - min(n, max(1, -(-q * n // 100)))
    if beyond < an.MIN_BEYOND:
        raise an.InsufficientSamples(
            f"{name}: p{q} of {n} samples has {beyond} beyond it")
    return c[f"{name}.p{q}"]


def per_layer(workload, reps):
    # Layers a workload does not cross report 0 (README.md, "Metrics").
    m = {name: 0.0 for name in PER_LAYER}
    usage = [r["usage"] for r in reps]
    m["cpu.sys_frac"] = an.median(
        [u["sys_s"] / max(1e-9, cpu_s(u)) for u in usage])
    m["cpu.cores_busy"] = an.median(
        [cpu_s(u) / max(1e-9, u["wall_s"]) for u in usage])
    if workload == "check_cm":
        m["checker.build_ms"] = an.median(
            [b * 1e3 for r in reps for b in r["build_s"]])
        m["checker.check_ms"] = an.median([r["check_s"] * 1e3 for r in reps])
        m["checker.explicit_edges_per_op"] = an.median(
            [r["explicit_edges"] / r["ops"] for r in reps])
        m["checker.ambiguous_reads"] = an.median(
            [r["ambiguous_reads"] for r in reps])
        m["checker.assignments_tried"] = an.median(
            [r["assignments_tried"] for r in reps])
        m["checker.bytes_per_op"] = an.median([r["bytes_per_op"] for r in reps])
        m["runtime.ctx_switches_per_pair"] = an.median(
            [r["usage"]["ctx_switches"] / r["pairs"] for r in reps])
        return m

    pairs = [max(1, r["pairs_received"]) for r in reps]
    cnt = [r["counters"] for r in reps]

    def per_pair(key, scale=1.0):
        return an.median([c[key] * scale / n for c, n in zip(cnt, pairs)])

    m["runtime.ctx_switches_per_pair"] = an.median(
        [u["ctx_switches"] / n for u, n in zip(usage, pairs)])
    m["sim.events_per_pair"] = per_pair("sim.events_fired")
    m["sim.queue_depth_peak"] = an.median(
        [c["sim.queue_depth_peak"] for c in cnt])
    m["mcs.isp_reads_per_pair"] = per_pair("mcs.isp_reads")
    m["proto.updates_applied_per_pair"] = per_pair("proto.updates_applied")
    m["proto.buffer_occupancy.p99"] = an.median(
        [histogram_p(c, "proto.buffer_occupancy", 99) for c in cnt])
    m["isc.pairs_sent"] = sum(c["isc.pairs_sent"] for c in cnt)
    m["isc.pairs_received"] = sum(c["isc.pairs_received"] for c in cnt)
    m["trace.events_per_pair"] = per_pair("trace.events")
    m["trace.dropped"] = sum(c["trace.dropped"] for c in cnt)
    m["checker.violations"] = sum(c["checker.violations"] for c in cnt)
    ver = [r["verify"] for r in reps]
    m["checker.build_ms"] = an.median([v["build_s"] * 1e3 for v in ver])
    m["checker.check_ms"] = an.median([v["check_s"] * 1e3 for v in ver])
    m["checker.verify_ms"] = m["checker.check_ms"]
    m["checker.explicit_edges_per_op"] = an.median(
        [v["explicit_edges"] / max(1, v["ops"]) for v in ver])
    m["checker.ambiguous_reads"] = an.median([v["ambiguous_reads"] for v in ver])
    m["checker.assignments_tried"] = an.median(
        [v["assignments_tried"] for v in ver])
    m["checker.bytes_per_op"] = an.median([v["bytes_per_op"] for v in ver])
    if workload == "sim_chain2":
        m["net.wire_bytes_per_pair"] = per_pair("net.wire.bytes_out")
        m["net.wire.encode_ns.p50"] = an.median(
            [histogram_p(c, "net.wire.encode_ns", 50) for c in cnt])
        m["net.wire.decode_ns.p50"] = an.median(
            [histogram_p(c, "net.wire.decode_ns", 50) for c in cnt])
        m["net.acks_per_pair"] = per_pair("net.acks")
        m["net.retx_per_kpair"] = per_pair("net.retx.sent", 1000.0)
    else:
        m["net.epoll_waits_per_pair"] = per_pair("net.mesh.epoll_waits")
        m["net.wakeups_per_pair"] = per_pair("net.mesh.wakeups")
        mesh_layers(reps, m)
    return m


# ---- reporting -----------------------------------------------------------------

def report_spans(workload, reps):
    """Write the traced pass's spans and print each span's median."""
    spans = [sp for r in reps for sp in r.get("spans", [])]
    path = os.path.join(build_dir(), f"perfbench-spans-{workload}.json")
    with open(path, "w") as f:
        json.dump([{"name": n, "start_ns": a, "end_ns": b, "node": node}
                   for n, a, b, node in spans], f)
    by_name = {}
    for name, a, b, _ in spans:
        by_name.setdefault(name, []).append((b - a) * 1e-6)
    for name, ds in sorted(by_name.items()):
        log(f"  span {name:16s} median {an.median(ds):10.3f} ms over {len(ds)}")


def last_result_path(workload):
    return os.path.join(build_dir(), f"perfbench-last-{workload}.json")


def boundary_line():
    """cpu_us_per_pair mesh minus sim, medians of each: the per-pair cost of
    the process boundary. Printed only when the last run of both workloads
    passed."""
    res = {}
    for w in PIPELINES:
        try:
            with open(last_result_path(w)) as f:
                res[w] = json.load(f)
        except (OSError, ValueError):
            return
    if not all(r["correct"] for r in res.values()):
        return
    mesh = res["mesh_chain2"]["cpu_us_per_pair"]
    sim = res["sim_chain2"]["cpu_us_per_pair"]
    log(f"boundary: cpu_us_per_pair mesh_chain2 - sim_chain2 = "
        f"{mesh - sim:.2f} us/pair ({mesh:.2f} - {sim:.2f}; medians of the "
        f"last run of each)")


def run_workload(driver, workload, seed, seconds, trace):
    deadline = time.monotonic() + RUN_BUDGET_S
    # A traced run measures an untraced and a traced pass of the same seeds,
    # half the repetitions each, so their difference is the tracing overhead.
    count = rep_count(workload, seconds, trace)
    base, error = run_pass(driver, workload, seed, count, False, deadline)
    attempted, failed, reasons = accounting(workload, base, error)
    traced = []
    if trace:
        traced, error = run_pass(driver, workload, seed, count, True, deadline)
        _, t_failed, t_reasons = accounting(workload, traced, error)
        reasons += t_reasons
        if t_failed:
            failed = attempted
    correct = not reasons

    log(f"perfbench {workload} seed={seed} reps={len(base)} "
        f"failed_frac={failed / attempted:.6g}")
    for why in reasons:
        log(f"  FAILED: {why}")
    for i, r in enumerate(base):
        if r["ok"]:
            log(f"  rep {i}: " + " ".join(
                f"{k}={v:.6g}" for k, v in rep_headline(workload, r).items()))
    names = PER_LAYER if trace else END_TO_END
    try:
        metrics = measured(workload, [r for r in base if r["ok"]],
                           [r for r in traced if r["ok"]], trace, seed, correct)
    except an.InsufficientSamples:
        if correct:
            raise
        # A failed run still prints its result; nothing it measured counts.
        metrics = {k: 0.0 for k in names}
    return {
        "correct": correct,
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": metrics[k], "unit": u}
                    for k, u in names.items()},
    }


def measured(workload, base, traced, trace, seed, correct):
    """Report and return the run's metrics: end to end from the untraced
    pass, per layer from the traced one. A traced run's passes hold half
    the repetitions each, too few for a quartile: it compares medians."""
    e2e = end_to_end(workload, base, quartile=not trace)
    for name, unit in END_TO_END.items():
        log(f"  {name:16s} {e2e[name]:14.6g} {unit}")
    if workload in PIPELINES:
        # The boundary line compares medians on both sides.
        with open(last_result_path(workload), "w") as f:
            json.dump({"correct": correct, "seed": seed, "cpu_us_per_pair":
                       end_to_end(workload, base)["cpu_us_per_pair"]}, f)
        boundary_line()
    if not trace:
        return e2e
    layers = per_layer(workload, traced)
    t_e2e = end_to_end(workload, traced)
    key = "check_s" if workload == "check_cm" else "cpu_us_per_pair"
    layers["trace.overhead_pct"] = (t_e2e[key] / e2e[key] - 1.0) * 100.0
    log("  traced - untraced:")
    for name, unit in END_TO_END.items():
        log(f"    {name:16s} {t_e2e[name] - e2e[name]:+14.6g} {unit}")
    report_spans(workload, traced)
    for name, unit in PER_LAYER.items():
        log(f"  {name:32s} {layers[name]:14.6g} {unit}")
    return layers


def main():
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=WORKLOADS)
    ap.add_argument("--all", action="store_true",
                    help="run every workload, each in its own process")
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()
    if not args.all and args.workload is None:
        ap.error("give --workload or --all")
    try:
        driver = build()
        if args.all:
            for w in WORKLOADS:
                run_workload(driver, w, args.seed, args.seconds, args.trace)
            return 0
        result = run_workload(driver, args.workload, args.seed, args.seconds,
                              args.trace)
    except (BenchError, an.InsufficientSamples) as e:
        print(f"perfbench: {e}", file=sys.stderr)
        return 2
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
