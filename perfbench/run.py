"""Benchmark entry point.

    python3 perfbench/run.py --workload line-sweep --seed 1 --seconds 24 --trace 0

Run from the root of a checkout.  ``--trace 0`` measures the
end-to-end metrics with nothing wrapped, over fresh-process sub-runs;
``--trace 1`` runs a shorter plan twice, untraced and traced, and
reports the per-layer metrics.
Human-readable lines come first (host facts, the digest of the seeded
deterministic records, every metric with its unit); the last line of
standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  Exits 2 without a result
when the checkout holds no program source.
"""

from __future__ import annotations

import time

_STARTED = time.perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import os  # noqa: E402
import pickle  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

ROOT = Path(__file__).resolve().parents[1]
#: An untraced run is the workload's ``sub_runs`` sub-runs, one after
#: another, each in a fresh interpreter with its share of ``--seconds``,
#: then as many set-up-only processes as bring the set-ups to this
#: count; ``setup_s`` is their median.  The other metrics pool every
#: sub-run's timed phase: totals for wall time and throughput, medians
#: over every op for latencies, the highest peak for memory.  The
#: reference box's speed drifts by 15-40 % for seconds at a time, so a
#: figure read off one op or one sub-run is as noisy as that, and a
#: figure pooled over the whole run much less so.
SET_UPS = 3
#: The traced run's plan is this share of ``--seconds`` (it runs twice,
#: and the traced pass is slower).
TRACE_SHARE = 0.25
#: Per-op latency tail: the highest of these percentiles that has at
#: least ten samples beyond it (the median when there are fewer than 20).
#: Capped at p75: on the shared 2-core reference VM the p99 of the
#: service's millisecond jobs moved by a third between identical runs,
#: and the p90 by 0.26 of its median over ten runs.
TAIL_PERCENTILES = (75.0, 50.0)

END_TO_END = (
    ("setup_s", "s"),
    ("wall_s", "s"),
    ("eff_per_s", "1/s"),
    ("configs_per_s", "1/s"),
    ("jobs_per_s", "1/s"),
    ("cold_p50_ms", "ms"),
    ("cold_tail_ms", "ms"),
    ("warm_p50_ms", "ms"),
    ("warm_tail_ms", "ms"),
    ("peak_rss_mb", "MB"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--sub-run", action="store_true",
                        help="run one untraced sub-run in this process and "
                             "print its raw result (used by the parent run)")
    parser.add_argument("--set-up-only", action="store_true",
                        help="as --sub-run, but stop after set-up")
    return parser.parse_args(argv)


def host_facts() -> dict:
    return {
        "cpu_count": os.cpu_count(),
        "usable_cores": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "platform": platform.platform(),
    }


def tail(values: list[float]) -> tuple[float, float]:
    """``(percentile, value)`` of the highest :data:`TAIL_PERCENTILES`
    entry with at least ten samples beyond it (nearest rank), or the
    median when none has."""
    ordered = sorted(values)
    n = len(ordered)
    for q in TAIL_PERCENTILES[:-1]:
        rank = math.ceil(round(q * n / 100, 9))
        if n - rank >= 10:
            return q, ordered[rank - 1]
    return 50.0, statistics.median(ordered)


def latency_metrics(prefix: str, values: list[float], notes: dict) -> dict:
    ms = [v * 1000 for v in values]
    q, worst = tail(ms)
    notes[f"{prefix}_tail_ms"] = f"p{q:g} of {len(ms)} ops"
    notes[f"{prefix}_p50_ms"] = f"median of {len(ms)} ops"
    return {f"{prefix}_p50_ms": statistics.median(ms), f"{prefix}_tail_ms": worst}


def sub_runs(args, count: int) -> tuple[list[dict], list[float]]:
    """Run ``count`` untraced sub-runs, each in a fresh interpreter,
    then set-up-only processes up to :data:`SET_UPS` set-ups, one after
    another; returns the sub-runs' raw results and every set-up time."""
    outs = []
    for i in range(max(count, SET_UPS)):
        flag = "--sub-run" if i < count else "--set-up-only"
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
             "--seed", str(args.seed), "--seconds", str(args.seconds / count), flag],
            cwd=ROOT, capture_output=True, text=True, timeout=170,
        )
        if proc.returncode != 0:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"sub-run exited with status {proc.returncode}")
        outs.append(json.loads(proc.stdout.strip().splitlines()[-1]))
    return outs[:count], [out["setup_s"] for out in outs]


def pin_to_one_core() -> set[int]:
    """Confine this process (all its threads) to one of its usable
    cores; returns the cores it had.

    Every workload is a closed loop, and the interpreter runs one
    thread at a time, so one core loses no work.  It does save the
    cross-core wake-ups between the service's client, HTTP and worker
    threads: on the 2-core reference VM they made service-mix 1.5x
    slower and its figures spread 0.3-0.6 over four runs, against
    0.15-0.2 pinned, in runs taken alternately."""
    cores = os.sched_getaffinity(0)
    os.sched_setaffinity(0, {max(cores)})
    return cores


def sub_run(workload_cls, args, workdir) -> dict:
    """One untraced sub-run: set up (timed from interpreter start),
    run the plan for ``--seconds``, check the outputs; returns raw
    timings for the parent to pool.  With ``--set-up-only`` it closes
    right after set-up and returns only ``setup_s``."""
    from perfbench.workloads import digest, run_ops, work_counts

    pin_to_one_core()
    ops = workload_cls().plan(args.seed, args.seconds)
    workload = workload_cls()
    workload.open(workdir)
    setup = time.perf_counter() - _STARTED
    if args.set_up_only:
        workload.close()
        return {"setup_s": setup}
    try:
        results, wall = run_ops(workload.execute, ops)
    finally:
        workload.close()
    failures, n_aggregate = workload.check(ops, results)
    work = work_counts(results)
    return {
        "setup_s": setup,
        "wall_s": wall,
        "ops": len(ops),
        "effective": work["effective"],
        "configs": work["configs"],
        "latency_s": {kind: [r.latency_s for op, r in zip(ops, results) if op.kind == kind]
                      for kind in ("cold", "warm")},
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
        "digest": digest(results),
        "attempted": len(ops) + n_aggregate, "failed": count_failed(failures),
        "messages": [m for _, m in failures],
    }


def pooled(outs: list[dict], setups: list[float]) -> tuple[dict, dict]:
    """The end-to-end metrics of a run from its sub-runs' raw results
    and its set-up times: ``(metrics, notes)``."""
    wall = sum(out["wall_s"] for out in outs)
    notes = {
        "setup_s": f"median of {len(setups)} fresh-process set-ups",
        "wall_s": f"sum of {len(outs)} sub-runs' timed phases",
        "peak_rss_mb": f"highest of {len(outs)} sub-runs",
    }
    metrics = {
        "setup_s": statistics.median(setups),
        "wall_s": wall,
        "eff_per_s": sum(out["effective"] for out in outs) / wall,
        "configs_per_s": sum(out["configs"] for out in outs) / wall,
        "jobs_per_s": sum(out["ops"] for out in outs) / wall,
    }
    for kind in ("cold", "warm"):
        metrics.update(latency_metrics(
            kind, [v for out in outs for v in out["latency_s"][kind]], notes))
    metrics["peak_rss_mb"] = max(out["peak_rss_mb"] for out in outs)
    return {name: metrics[name] for name, _ in END_TO_END}, notes


def count_failed(failures) -> int:
    """Failed operations: each op counted once, each aggregate check once."""
    return len({i for i, _ in failures if i is not None}) + sum(1 for i, _ in failures if i is None)


def untraced_facts(workload, results) -> dict:
    """Per-layer inputs that need no wrapper, from an untraced pass."""
    records = [r for res in results for r in res.records]
    facts = {
        "engine_s": workload.finals.engine_s,
        "effective": sum(getattr(r, "effective_steps", 0) for r in records),
        "steps": sum(getattr(r, "steps", 0) for r in records),
    }
    store = getattr(workload, "store", None)
    if store is not None:
        facts["store_hits"], facts["store_misses"] = store.hits, store.misses
        facts["jobs_engine_s"] = workload.finals.engine_s
        infos = [res.info for res in results if not res.error]
        lags = [i["end_lag_s"] * 1000 for i in infos if i["end_lag_s"] is not None]
        turns = [i["turnaround_s"] * 1000 for i in infos if i["turnaround_s"] is not None]
        facts["end_lag_ms"] = statistics.median(lags) if lags else 0.0
        facts["turnaround_ms"] = statistics.median(turns) if turns else 0.0
        facts["frames_per_job"] = statistics.fmean(i["frames"] for i in infos) if infos else 0.0
    if workload.name == "verify-model":
        facts["verify_configs"] = sum(res.configs for res in results)
    return facts


def execute(workload_cls, ops, workdir, tracer=None):
    """Open a fresh workload, run ``ops`` (traced when ``tracer`` is
    given), close it; returns ``(workload, results, wall_s)``."""
    from perfbench import layers
    from perfbench.workloads import run_ops

    workload = workload_cls()
    workload.open(workdir)
    try:
        if tracer is None:
            results, wall = run_ops(workload.execute, ops)
        else:
            layers.install(tracer)
            try:
                per_kind = {k: tracer.traced(workload.execute, f"op.{k}") for k in ("cold", "warm")}
                results, wall = run_ops(lambda op: per_kind[op.kind](op), ops)
            finally:
                tracer.restore()
    finally:
        workload.close()
    return workload, results, wall


def pool_rows() -> tuple[dict, list[str]]:
    """line-sweep's process-pool rows: one sweep (two trials at each of
    the three smallest sizes) on the serial executor and again on the
    process executor at jobs = usable cores."""
    from repro.analysis.runner import Runner
    from perfbench.workloads import LineSweep

    cores = len(os.sched_getaffinity(0))
    line = LineSweep()
    spec = line.sweep(2, line.sizes[:3])
    start = time.perf_counter()
    serial = Runner(jobs=1, executor="serial").run(spec)
    serial_s = time.perf_counter() - start
    start = time.perf_counter()
    pooled = Runner(jobs=cores, executor="process").run(spec)
    pooled_s = time.perf_counter() - start
    failures = []
    if [r.deterministic() for r in serial.records] != [r.deterministic() for r in pooled.records]:
        failures.append("process-executor records differ from the serial executor's")
    sizes = [len(pickle.dumps(t)) + len(pickle.dumps(r)) for t, r in zip(spec.expand(), pooled.records)]
    return {
        "runner.pool.speedup": serial_s / pooled_s,
        "runner.pool.pickled_bytes_per_trial": statistics.fmean(sizes),
        "runner.pool.jobs": cores,
    }, failures


def write_spans(workdir: Path, workload: str, spans, summary: dict) -> Path:
    """The traced run's spans: ``trace-<workload>.json`` (names, layout,
    summary) beside ``trace-<workload>.bin`` (the four columns)."""
    workdir.mkdir(parents=True, exist_ok=True)
    binary = workdir / f"trace-{workload}.bin"
    with open(binary, "wb") as fh:
        for column in (spans.name, spans.parent, spans.start, spans.end):
            column.tofile(fh)
    meta = {
        "names": spans.names,
        "spans": len(spans),
        "columns": [["name", "i"], ["parent", "q"], ["start", "d"], ["end", "d"]],
        **summary,
    }
    (workdir / f"trace-{workload}.json").write_text(json.dumps(meta, indent=1))
    return binary


def report(lines: list[str], metrics: dict, units: dict, notes: dict) -> None:
    for line in lines:
        print(line)
    for name, value in metrics.items():
        note = f"  ({notes[name]})" if name in notes else ""
        print(f"  {name:<38} {value:>16.6g} {units[name]}{note}")


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro" / "__init__.py").is_file():
        print(f"perfbench: no program source under {ROOT.name}/src/repro; "
              "run from a checkout of the repository", file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(ROOT)]
    from perfbench import layers
    from perfbench.tracing import Tracer
    from perfbench.workloads import WORKLOADS, digest, work_counts

    if args.workload not in WORKLOADS:
        print(f"perfbench: unknown workload {args.workload!r}; "
              f"choose from {', '.join(WORKLOADS)}", file=sys.stderr)
        return 2
    workload_cls = WORKLOADS[args.workload]
    outdir = ROOT / ".perfbench"
    workdir = outdir / f"tmp-{os.getpid()}"

    if args.sub_run or args.set_up_only:
        try:
            print(json.dumps(sub_run(workload_cls, args, workdir)))
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
        return 0

    facts = host_facts()
    header = [f"perfbench {args.workload} seed={args.seed} seconds={args.seconds:g} trace={args.trace}",
              f"host: {json.dumps(facts)}"]
    try:
        if args.trace == 0:
            outs, setups = sub_runs(args, workload_cls.sub_runs)
            metrics, notes = pooled(outs, setups)
            units = dict(END_TO_END)
            digests = sorted({out["digest"] for out in outs})
            lines = [f"digest: {' '.join(digests)}"]
            failed = sum(out["failed"] for out in outs)
            attempted = sum(out["attempted"] for out in outs) + 1
            messages = [m for out in outs for m in out["messages"]]
            if len(digests) != 1:
                failed += 1
                messages.append("sub-runs in fresh processes produced different records")
        else:
            ops = workload_cls().plan(args.seed, args.seconds * TRACE_SHARE)
            cores = pin_to_one_core()
            try:
                plain, results_u, wall_u = execute(workload_cls, ops, workdir)
                tracer = Tracer()
                traced, results_t, wall_t = execute(workload_cls, ops, workdir, tracer)
            finally:
                os.sched_setaffinity(0, cores)
            failures, n_aggregate = plain.check(ops, results_u)
            traced_failures, _ = traced.check(ops, results_t)
            # Traced ops count as operations of their own.
            failures += [(None if i is None else i + len(ops), m) for i, m in traced_failures]
            attempted = 2 * (len(ops) + n_aggregate) + 1
            digests = digest(results_u), digest(results_t)
            if digests[0] != digests[1]:
                failures.append((None, "traced run's records differ from the untraced run's"))
            extra: dict = {}
            if args.workload == "line-sweep":
                extra, pool_failures = pool_rows()
                failures += [(None, f) for f in pool_failures]
                attempted += 1
            traced_work = work_counts(results_t)
            spans = tracer.spans()
            metrics = layers.per_layer(
                spans, tracer.counters, traced_wall=wall_t, untraced_wall=wall_u,
                traced_work=traced_work, untraced=untraced_facts(plain, results_u), extra=extra,
            )
            summary = {"host": facts, "workload": args.workload, "seed": args.seed,
                       "metrics": metrics, "pool": extra}
            where = write_spans(outdir, args.workload, spans, summary)
            units = dict(layers.PER_LAYER)
            notes = {}
            lines = [f"digest: {digests[0]} (traced: {digests[1]})",
                     f"spans: {len(spans)} written to {where.relative_to(ROOT)}"]
            if extra:
                lines.append(f"pool: jobs={extra['runner.pool.jobs']}")
            failed = count_failed(failures)
            messages = [m for _, m in failures]
        lines.append(f"failed_frac: {failed / attempted:.6g} ({failed}/{attempted} operations)")
        lines += [f"FAILED: {message}" for message in messages[:20]]
        report(header + lines, metrics, units, notes)
        print(json.dumps({
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {name: {"value": metrics[name], "unit": units[name]} for name in metrics},
        }))
        return 0
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


if __name__ == "__main__":
    sys.exit(main())
