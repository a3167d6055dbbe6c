"""The repository's benchmark: Algorithm 1, the Figure 3 sweep, robust
solves and the campaign fleet, each measured end to end and by layer.

    python3 perfbench/run.py --workload figure3-cold --seed 1 --seconds 12 --trace 0
    python3 perfbench/run.py --workload all --seed 1 --seconds 12
    python3 perfbench/run.py --compare A.json B.json

Run it from the repository root.  The last line of standard output is one
JSON object ``{"correct", "attempted", "failed", "metrics"}``; with
``--trace 0`` it holds the end-to-end metrics, with ``--trace 1`` the
per-layer ones.  Each run also writes its environment fingerprint, every
metric and the per-operation work counts to
``.bench_build/perfbench/results/``; ``--compare`` diffs the work counts
of two such files.  README.md lists every metric.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import pathlib
import resource
import shutil
import statistics
import subprocess
import sys
from collections import defaultdict

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_build" / "perfbench"
#: Everything the workloads touch, imported in set-up.
IMPORTS = ("import repro.campaign.service, repro.campaign.worker, "
           "repro.core.explorer, repro.faults.resilience")
#: Set-up repetitions of the imports, each in a fresh interpreter.
IMPORT_REPEATS = 3
ADDR_NO_RANDOMIZE = 0x0040000


def steady_process() -> None:
    """Make this process, and the worker process it starts, as steady to
    time as the host allows (README.md, "Timing noise").

    A fixed layout: the same string hashes (``PYTHONHASHSEED=0``) and the
    same addresses (no address-space randomisation) in every run; a fresh
    layout per run moved fleet-warm's campaign time by a fifth.  The
    script runs itself again once to get it.  One BLAS thread: the MILP's
    dense solves are small, and a second thread only adds scheduling
    noise.  One CPU: each CPU of the host slows down on its own, and the
    probe must time the CPU that runs the work."""
    if os.environ.get("PERFBENCH_LAYOUT") != "fixed":
        try:
            libc = ctypes.CDLL(None, use_errno=True)
            libc.personality.argtypes = [ctypes.c_ulong]
            libc.personality.restype = ctypes.c_int
            current = libc.personality(0xFFFFFFFF)
            libc.personality(current | ADDR_NO_RANDOMIZE)
        except (OSError, AttributeError):
            pass  # no personality(2): the hash seed alone is fixed
        os.execve(sys.executable, [sys.executable, *sys.argv],
                  dict(os.environ, PYTHONHASHSEED="0",
                       PERFBENCH_LAYOUT="fixed"))
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})


def declared_units(trace: int) -> dict:
    """Name → unit of the metrics ``BENCHMARK.json`` declares for a run
    with this ``--trace``."""
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in bench["per_layer" if trace else "end_to_end"]}


def tail(values):
    """(value, percentile, samples): the highest percentile with at least
    ten samples beyond it, or the maximum when there are too few."""
    ordered = sorted(values)
    n = len(ordered)
    if n > 10:
        return ordered[n - 11], 100.0 * (n - 10) / n, n
    return ordered[-1], 100.0, n


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


# -- environment fingerprint -----------------------------------------------------


def _openblas() -> dict:
    """Version and thread count of the OpenBLAS loaded by numpy."""
    info = {"library": None, "config": None, "threads": None}
    try:
        maps = pathlib.Path("/proc/self/maps").read_text()
    except OSError:
        return info
    # numpy's own copy: scipy may load a second one.
    paths = sorted({line.split()[-1] for line in maps.splitlines()
                    if "openblas" in line.lower() and "/" in line},
                   key=lambda path: "numpy" not in path)
    if not paths:
        return info
    info["library"] = pathlib.Path(paths[0]).name
    lib = ctypes.CDLL(paths[0])
    for prefix in ("scipy_openblas", "openblas"):
        for suffix in ("64_", ""):
            get_config = getattr(lib, f"{prefix}_get_config{suffix}", None)
            threads = getattr(lib, f"{prefix}_get_num_threads{suffix}", None)
            if get_config is not None and threads is not None:
                get_config.restype = ctypes.c_char_p
                threads.restype = ctypes.c_int
                info["config"] = get_config().decode()
                info["threads"] = threads()
                return info
    return info


def fingerprint() -> dict:
    import platform

    import numpy
    import scipy

    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT,
                              capture_output=True, text=True)
        commit = proc.stdout.strip() or None
    return {
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "git_commit": commit,
        "nproc": len(os.sched_getaffinity(0)),
        "openblas": _openblas(),
        "blas_threads_env": os.environ["OPENBLAS_NUM_THREADS"],
    }


# -- per-layer metrics from the traced pass --------------------------------------


def layer_metrics(spans, w0, w1, records, worker_report) -> dict:
    import tracer

    calls = defaultdict(int)
    busy = defaultdict(float)
    extra = defaultdict(lambda: defaultdict(int))
    durations = defaultdict(list)
    for span in spans:
        if span is None:
            continue
        name, start, end, _, _, more = span
        if end <= w0 or start >= w1:
            continue
        calls[name] += 1
        busy[name] += end - start
        durations[name].append(end - start)
        for key, value in (more or {}).items():
            extra[name][key] += value
    work = defaultdict(int)
    for record in records:
        for key, value in record.work.items():
            work[key] += value

    def ratio(a, b):
        return a / b if b else 0.0

    # Lookups made inside WearerResultCache.put are the cache's own.
    lookups = [
        span[5]["hit"] for span in spans
        if span and span[0] == "wearer_cache.get" and w0 <= span[1] <= w1
        and not (span[3] >= 0 and spans[span[3]]
                 and spans[span[3]][0] == "wearer_cache.put")
    ]
    hits = work["memory_hits"] + work["disk_hits"]
    events = extra["net.run"]["events"]
    worker_lane = None
    for span in spans:
        if span and span[0] == "campaign.shard":
            worker_lane = span[4]
            break
    shard_busy = sum(
        min(s[2], w1) - max(s[1], w0) for s in spans
        if s and s[0] == "campaign.shard" and s[4] == worker_lane
        and s[2] > w0 and s[1] < w1
    )
    out = {
        "milp.enumerate_s": busy["milp.enumerate"],
        "milp.enumerate_calls": calls["milp.enumerate"],
        "milp.simplex_s": busy["milp.simplex"],
        "milp.simplex_calls": calls["milp.simplex"],
        "milp.lp_iterations": extra["milp.bb"]["lp_iterations"],
        "milp.bb_nodes": extra["milp.bb"]["bb_nodes"],
        "milp.warm_share": ratio(extra["milp.bb"]["warm_lp_solves"],
                                 calls["milp.simplex"]),
        "oracle.evaluate_many_s": busy["oracle.evaluate_many"],
        "oracle.simulations": work["simulations"],
        "oracle.memory_hits": work["memory_hits"],
        "oracle.disk_hits": work["disk_hits"],
        "oracle.hit_ratio": ratio(hits, hits + work["simulations"]),
        "net.run_s": busy["net.run"],
        "net.runs": calls["net.run"],
        "des.events": events,
        "des.host_us_per_event": ratio(1e6 * busy["net.run"], events),
        "channel.fanout_s": busy["channel.fanout"],
        "channel.fanout_calls": calls["channel.fanout"],
        "batch.evaluate_s": busy["batch.evaluate"],
        "batch.calls": calls["batch.evaluate"],
        "batch.lanes": extra["batch.evaluate"]["lanes"],
        "batch.share": ratio(extra["batch.evaluate"]["lanes"],
                             work["simulations"]),
        "faults.ensemble_s": busy["faults.ensemble"],
        "faults.worlds_per_config": ratio(
            extra["faults.ensemble"]["worlds"], calls["faults.ensemble"]),
        "result_cache.load_s": busy["result_cache.load"],
        "result_cache.get_calls": calls["result_cache.get"],
        "result_cache.put_s": busy["result_cache.put"],
        "result_cache.put_calls": calls["result_cache.put"],
        "result_cache.bytes": extra["result_cache.load"]["bytes"]
        + extra["result_cache.put"]["bytes"],
        "journal.append_s": busy["journal.append"],
        "journal.appends": calls["journal.append"],
        "journal.bytes": extra["journal.append"]["bytes"],
        "pool.map_s": busy["pool.map"],
        "pool.spawns": calls["pool.spawn"],
        "pool.tasks": extra["pool.map"]["tasks"],
        "pool.retries": extra["pool.map"]["retries"],
        "fabric.requests": calls["fabric.request"],
        "fabric.connections": (worker_report or {}).get("connections", 0),
        "fabric.rpc_s.p50": (statistics.median(durations["fabric.request"])
                             if durations["fabric.request"] else 0.0),
        "fabric.retries": calls["fabric.roundtrip"] - calls["fabric.request"],
        "queue.commit_s": busy["queue.commit"],
        "aggregate.build_s": busy["aggregate.build"],
        "wearer_cache.hits": sum(lookups),
        "wearer_cache.misses": len(lookups) - sum(lookups),
        "worker.idle_s": (w1 - w0 - shard_busy) if worker_lane else 0.0,
    }
    out.update(tracer.ledger(spans, w0, w1))
    out["traced_wall_s"] = w1 - w0
    return out


def op_work_from_spans(spans, records) -> None:
    """Add the span-derived work counts of each traced operation to its
    record: what the program did, not how long it took."""
    import tracer

    ops = {}
    for span in spans:
        if span and span[0] == tracer.OP_SPAN:
            ops[span[5]["op"]] = (span[1], span[2])
    fields = {
        "milp.simplex": ("simplex_calls", None),
        "milp.bb": ("bb_nodes", "bb_nodes"),
        "net.run": ("des_events", "events"),
        "channel.fanout": ("fanout_calls", None),
        "batch.evaluate": ("batch_lanes", "lanes"),
        "fabric.serve": ("rpc_work_requests", "work"),
    }
    lp = "lp_iterations"
    for record in records:
        start, end = ops[record.index]
        counts = defaultdict(int)
        for span in spans:
            if span is None or not start <= span[1] <= end:
                continue
            field = fields.get(span[0])
            if field is None:
                continue
            key, extra_key = field
            more = span[5] or {}
            counts[key] += more.get(extra_key, 0) if extra_key else 1
            if span[0] == "milp.bb":
                counts[lp] += more.get(lp, 0)
        record.work.update(counts)


# -- one run -----------------------------------------------------------------------


def run(args) -> int:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import repro

    if pathlib.Path(repro.__file__).resolve().parent != SRC / "repro":
        print("perfbench: imported repro from outside src/", file=sys.stderr)
        return 2
    import probe
    import tracer
    import workloads

    # Import everything the workloads touch before anything is timed.
    import repro.campaign.service  # noqa: F401
    import repro.campaign.worker  # noqa: F401
    import repro.core.explorer  # noqa: F401
    import repro.faults.resilience  # noqa: F401

    load_before = os.getloadavg()
    scratch = OUT / f"scratch-{args.workload}-{args.seed}-{os.getpid()}"
    shutil.rmtree(scratch, ignore_errors=True)
    scratch.mkdir(parents=True)
    workload = workloads.WORKLOADS[args.workload](args.seed, scratch)
    try:
        prepares = []
        for _ in range(workload.setup_repeats):
            timer = probe.ScaledTimer()
            workload.prepare(timer.step)
            timer.step()
            prepares.append(timer)
        seconds = args.seconds / 2 if args.trace else args.seconds
        os.sync()
        records = workload.measure(workload.ops_for(seconds))
        probes = workload.probes
        phases = [records]
        metrics = {}
        if args.trace:
            tracer.RECORDER.reset()
            tracer.install()
            try:
                traced = workload.measure(len(records), traced=True)
            finally:
                tracer.uninstall()
            w0, w1 = traced[0].start, traced[-1].end
            phases.append(traced)
            report = workload.worker_report()
            if report:
                tracer.adopt(report["spans"])
            spans = tracer.RECORDER.spans
            op_work_from_spans(spans, traced)
            metrics = layer_metrics(spans, w0, w1, traced, report)
            untraced_wall = (records[-1].end - records[0].start
                             + records[-1].sampler_s
                             - sum(r.sampler_s for r in records))
            metrics["untraced_wall_s"] = untraced_wall
            metrics["trace_overhead_s"] = w1 - w0 - untraced_wall
        done = [(i, r) for i, r in enumerate(records) if not r.error]
        if not done:
            raise RuntimeError("no operation succeeded")
        raw = [r.latency_s for _, r in done]
        latencies = [
            probe.at_reference_speed(
                r.latency_s, probe.beside(probes, i) + r.host_probes)
            for i, r in done
        ]
        work = sum(r.work.get(workload.work_unit, 0) for _, r in done)
        tail_value, tail_pct, samples = tail(latencies)
        spread = {  # printed and saved, not gated (README.md)
            "op_s.p50": statistics.median(latencies),
            "op_s.tail": tail_value,
            "op_s.tail_percentile": tail_pct,
            "op_s.samples": samples,
        }
        rss_mb = peak_rss_mb()
        # Set-up is the median interpreter start plus imports, timed last
        # so that these interpreters stay out of peak_rss_mb, plus the
        # median workload set-up; both at the reference speed.
        imports = []
        for _ in range(IMPORT_REPEATS):
            timer = probe.ScaledTimer()
            subprocess.run([sys.executable, "-c", IMPORTS], check=True,
                           env=dict(os.environ, PYTHONPATH=str(SRC)))
            timer.step()
            imports.append(timer)
        e2e = {
            "setup_s": statistics.median(t.scaled for t in imports)
            + statistics.median(t.scaled for t in prepares),
            "op_s.mean": statistics.fmean(latencies),
            "work_per_s": work / sum(latencies),
            "peak_rss_mb": rss_mb,
        }
    finally:
        workload.close()
        shutil.rmtree(scratch, ignore_errors=True)
        os.sync()

    all_records = [r for done in phases for r in done]
    failures = [r for r in all_records if r.error]
    setup_errors = workload.setup_errors()
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "environment": fingerprint(),
        "load_average": {"before": load_before, "after": os.getloadavg()},
        "latency_spread": spread,
        "probe_s": {"reference": probe.REFERENCE_S, "operations": probes},
        "as_measured": {
            "setup_s": statistics.median(t.seconds for t in imports)
            + statistics.median(t.seconds for t in prepares),
            "op_s.mean": statistics.fmean(raw),
            "op_s.p50": statistics.median(raw),
            "work_per_s": work / sum(raw),
        },
        "setup_samples_s": {
            "imports": [t.seconds for t in imports],
            "prepare": [t.seconds for t in prepares],
        },
        "end_to_end": e2e,
        "per_layer": metrics,
        "setup_errors": setup_errors,
        "errors": sorted({r.error for r in failures}),
        "ops": [
            {"spec": r.spec, "latency_s": r.latency_s, "work": r.work,
             "answer": r.answer, "error": r.error}
            for r in (phases[-1] if args.trace else records)
        ],
    }
    if args.workload.startswith("figure3"):
        info["sweep_s"] = workloads.sweep_seconds(records)
    results = OUT / "results"
    results.mkdir(parents=True, exist_ok=True)
    path = results / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(info, indent=1))

    shown = metrics if args.trace else e2e
    units = declared_units(args.trace)
    if set(units) != set(shown):
        raise RuntimeError(
            f"metrics {sorted(set(shown) ^ set(units))} are measured or "
            "declared in BENCHMARK.json, not both")
    print(f"perfbench {args.workload} seed={args.seed} "
          f"ops={len(records)} details={path.relative_to(ROOT)}")
    for name, value in shown.items():
        print(f"  {name:28s} {value:14.6g} {units[name]}")
    if not args.trace:
        print(f"  op_s.p50 {spread['op_s.p50']:.4g} s, op_s.tail "
              f"{tail_value:.4g} s (p{tail_pct:.1f} of {samples} operations)")
        print(f"  as measured, before scaling to the reference speed: "
              f"op_s.mean {info['as_measured']['op_s.mean']:.4g} s")
        if "sweep_s" in info and info["sweep_s"]:
            print(f"  sweep_s.p50 {statistics.median(info['sweep_s']):.4g} s "
                  f"over {len(info['sweep_s'])} sweeps")
    for error in setup_errors + info["errors"]:
        print(f"  WRONG: {error}")
    print(json.dumps({
        "correct": not failures and not setup_errors,
        "attempted": len(all_records),
        "failed": len(failures),
        "metrics": {k: {"value": v, "unit": units[k]}
                    for k, v in shown.items()},
    }))
    return 0


def run_all(args) -> int:
    """Every workload in turn, in its own process; one table at the end."""
    import workloads

    rows, code = [], 0
    for name in workloads.WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(HERE / "run.py"), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        if proc.returncode != 0:
            code = proc.returncode
            continue
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        for metric, entry in result["metrics"].items():
            rows.append((name, metric, entry["value"], entry["unit"]))
        rows.append((name, "failed_frac",
                     result["failed"] / result["attempted"], "ratio"))
    print(f"\n{'workload':14s} {'metric':28s} {'value':>14s} unit")
    for name, metric, value, unit in rows:
        print(f"{name:14s} {metric:28s} {value:14.6g} {unit}")
    return code


def compare(path_a: str, path_b: str) -> int:
    """Diff the per-operation work counts of two result files over the
    operations both ran; a difference means the two runs did different
    work, so their times are not comparable."""
    a = json.loads(pathlib.Path(path_a).read_text())
    b = json.loads(pathlib.Path(path_b).read_text())
    common = min(len(a["ops"]), len(b["ops"]))
    diffs = 0
    for index in range(common):
        wa, wb = a["ops"][index]["work"], b["ops"][index]["work"]
        for key in sorted(set(wa) | set(wb)):
            if wa.get(key) != wb.get(key):
                diffs += 1
                print(f"op {index} {key}: {wa.get(key)} -> {wb.get(key)}")
        if a["ops"][index]["answer"] != b["ops"][index]["answer"]:
            diffs += 1
            print(f"op {index} answer differs")
    print(f"{common} operations compared, {diffs} differences")
    for name in sorted(set(a["end_to_end"]) & set(b["end_to_end"])):
        print(f"  {name}: {a['end_to_end'][name]:.6g} -> "
              f"{b['end_to_end'][name]:.6g}")
    return 1 if diffs else 0


def main(argv=None) -> int:
    sys.path.insert(0, str(HERE))
    from workloads import WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=[*WORKLOADS, "all"])
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=12.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--compare", nargs=2, metavar="RESULT_JSON")
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload is None:
        parser.error("--workload is required")
    return run_all(args) if args.workload == "all" else run(args)


if __name__ == "__main__":
    steady_process()
    sys.exit(main())
