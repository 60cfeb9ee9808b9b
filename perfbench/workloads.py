"""The four benchmark workloads.

Each workload is a closed loop from one process: a seeded list of
operations (:class:`Op`), each sent only after the previous one
returned.  An operation is *cold* when its input is new to the run and
*warm* when it resubmits an earlier operation's input.  On the service
path a warm job is answered from the result store; the other paths
have no result cache, so a warm operation recomputes and the benchmark
checks that it reproduces its cold twin bit for bit.

A workload plans its operations (:meth:`Workload.plan`), opens what it
needs (:meth:`Workload.open`, the set-up), executes operations one at a
time (:meth:`Workload.execute`), closes, and finally checks every
output (:meth:`Workload.check`) against facts computed here, not
against the program's own verdicts.  See ``README.md`` for why each
workload exists and which layers it exercises.
"""

from __future__ import annotations

import hashlib
import json
import random
import shutil
import time
from collections import Counter
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any

from perfbench.tracing import Patches


@dataclass
class Op:
    """One operation: ``payload`` is the workload's input; a warm op
    names the cold op it resubmits in ``twin``."""

    kind: str
    payload: Any
    twin: int | None = None


@dataclass
class OpResult:
    """What one executed operation returned.

    ``records`` are the deterministic outputs (timings stripped) that
    the digest and the twin comparison use; ``effective`` and
    ``configs`` are the work units the throughput metrics count."""

    latency_s: float
    records: tuple = ()
    effective: int = 0
    configs: int = 0
    info: dict = field(default_factory=dict)
    error: str = ""


class FinalConfigs(Patches):
    """Keeps each engine run's final configuration, in run order.

    Sweep and robustness records do not carry the final network, which
    the output checks need; this wraps every registered engine's
    ``run`` with a pass-through that appends ``result.config`` to
    :attr:`taken` and adds the run's wall time to :attr:`engine_s`.
    One extra call per trial, no per-interaction cost.
    """

    def __init__(self) -> None:
        super().__init__()
        self.taken: list = []
        self.engine_s = 0.0

    def install(self) -> "FinalConfigs":
        from repro.core.simulator import ENGINES

        for cls in set(ENGINES.values()):
            original = cls.__dict__.get("run")
            if original is None:
                continue
            self.patch(cls, "run", self._tap(original))
        return self

    def _tap(self, run):
        taken = self.taken
        tap = self

        def tapped(engine, *args, **kwargs):
            start = time.perf_counter()
            result = run(engine, *args, **kwargs)
            tap.engine_s += time.perf_counter() - start
            taken.append(result.config)
            return result

        tapped.__wrapped__ = run
        return tapped

    def take(self) -> list:
        out, self.taken[:] = list(self.taken), []
        return out


def is_spanning_line(nodes: list[int], edges) -> bool:
    """``edges`` form one simple path through every node of ``nodes``:
    |nodes| - 1 edges, maximum degree 2, connected."""
    edges = list(edges)
    if len(edges) != len(nodes) - 1:
        return False
    members = set(nodes)
    adjacency: dict[int, list[int]] = {u: [] for u in nodes}
    for u, v in edges:
        if u not in members or v not in members:
            return False
        adjacency[u].append(v)
        adjacency[v].append(u)
    if any(len(nbrs) > 2 for nbrs in adjacency.values()):
        return False
    seen = {nodes[0]}
    stack = [nodes[0]]
    while stack:
        for v in adjacency[stack.pop()]:
            if v not in seen:
                seen.add(v)
                stack.append(v)
    return len(seen) == len(nodes)


def _edges(config) -> tuple:
    return tuple(sorted(config.active_edges()))


class Workload:
    """Base class; subclasses fill in the five steps."""

    name = ""
    #: Registry specs the workload runs (instantiated during set-up).
    protocols: tuple[str, ...] = ()
    #: An untraced run is this many fresh-process sub-runs, each running
    #: the whole plan for its share of ``--seconds``.
    sub_runs = 3

    def plan(self, seed: int, seconds: float) -> list[Op]:
        raise NotImplementedError

    def open(self, workdir: Path) -> None:
        """Set-up: everything the timed phase needs, nothing it measures
        (here: the protocol registry and the engine tap)."""
        from repro.protocols import registry

        for spec in self.protocols:
            registry.instantiate(spec)
        self.finals = FinalConfigs().install()

    def execute(self, op: Op) -> OpResult:
        raise NotImplementedError

    def close(self) -> None:
        """Release what :meth:`open` acquired."""
        self.finals.restore()

    def check(self, ops: list[Op], results: list[OpResult]) -> tuple[list[tuple[int | None, str]], int]:
        """Output checks: ``(failures, n_aggregate)``.  A failure names
        the op index it concerns (``None`` for an aggregate check);
        ``n_aggregate`` counts aggregate checks attempted."""
        return [], 0


def _twin_failures(ops: list[Op], results: list[OpResult]) -> list[tuple[int, str]]:
    """Warm ops must reproduce their cold twin's deterministic output."""
    failures = []
    for i, op in enumerate(ops):
        if op.kind != "warm" or results[i].error or results[op.twin].error:
            continue
        mine, theirs = results[i], results[op.twin]
        if mine.records != theirs.records or mine.info.get("final") != theirs.info.get("final"):
            failures.append((i, f"op {i} differs from its cold twin op {op.twin}"))
    return failures


def _error_failures(results: list[OpResult]) -> list[tuple[int, str]]:
    return [(i, f"op {i} raised {r.error}") for i, r in enumerate(results) if r.error]


# ----------------------------------------------------------------------
# line-sweep
# ----------------------------------------------------------------------

class LineSweep(Workload):
    """Runner sweeps of ``simple-global-line`` (Protocol 1) on the
    serial executor, indexed engine, uniform scheduler.

    The timed phase is one sweep over every size (cold), then the same
    sweep resubmitted (warm).  Trials are few and long, so the op is the
    whole sweep.  An untraced run is two sub-runs, so each latency
    median is the mean of two identical sweeps rather than one sweep
    read off the middle of three.

    The sweep's base seed is fixed (0) and ``--seed`` is unused: at
    these sizes a trial's convergence time varies by a factor of two
    from seed to seed, and only a handful of trials fit in a run, so a
    seeded trial set would move every timing by more than the changes
    this workload exists to measure.  The law's seed-to-seed variation
    is the distributional tests' business, not the benchmark's."""

    name = "line-sweep"
    protocols = ("simple-global-line",)
    sizes = (240, 320, 400, 480)
    base_seed = 0
    sub_runs = 2

    def trial_seconds(self, n: int) -> float:
        """Estimated wall seconds of one trial at size ``n`` on the
        reference box (sizes the plan): mean over three seeds, 0.55 s
        at n=240, growing about as n^2.2."""
        return 0.55 * (n / 240) ** 2.2

    def sweep(self, trials: int, sizes: tuple[int, ...] | None = None):
        from repro.analysis.runner import ExperimentSpec

        return ExperimentSpec(
            self.protocols[0], sizes or self.sizes, trials, engine="indexed",
            base_seed=self.base_seed,
        )

    def plan(self, seed: int, seconds: float) -> list[Op]:
        per_trial_round = sum(self.trial_seconds(n) for n in self.sizes)
        spec = self.sweep(max(1, round(seconds / (2 * per_trial_round))))
        return [Op("cold", spec), Op("warm", spec, 0)]

    def open(self, workdir: Path) -> None:
        from repro.analysis.runner import Runner

        super().open(workdir)
        self.runner = Runner(jobs=1, executor="serial")

    def execute(self, op: Op) -> OpResult:
        start = time.perf_counter()
        result = self.runner.run(op.payload)
        latency = time.perf_counter() - start
        finals = self.finals.take()
        records = tuple(r.deterministic() for r in result.records)
        effective = sum(r.effective_steps for r in records)
        return OpResult(
            latency, records, effective, effective + len(records),
            {"final": tuple(_edges(c) for c in finals)},
        )

    def check(self, ops, results):
        failures = _error_failures(results) + _twin_failures(ops, results)
        for i, (op, res) in enumerate(zip(ops, results)):
            if res.error or op.kind != "cold":
                continue
            finals = res.info["final"]
            if len(finals) != len(res.records):
                failures.append((i, f"op {i}: {len(finals)} final networks for {len(res.records)} trials"))
                continue
            for record, edges in zip(res.records, finals):
                if not record.converged or record.stop_reason != "stabilized":
                    failures.append((i, f"op {i}: n={record.n} stopped by {record.stop_reason}"))
                elif not is_spanning_line(list(range(record.n)), edges):
                    failures.append((i, f"op {i}: n={record.n} final network is not a spanning line"))
        return failures, 0


# ----------------------------------------------------------------------
# fault-grid
# ----------------------------------------------------------------------

class FaultGrid(Workload):
    """``run_robustness`` cells of the three line constructors under
    crash loads at n=64 (indexed engine), plus one small crash cell
    under the round-robin scheduler, which routes to the sequential
    engine.

    One op is one cell.  A round runs every (protocol, load) cell with a
    shared base seed, so the protocols face identical fault streams,
    then the round-robin cell.  After the cold rounds every cell is
    resubmitted once, in seeded order (warm), so warm and cold ops do the
    same work.

    Round r uses base seed r, whatever ``--seed`` is: whether a
    simple-global-line trial re-stabilizes quickly or burns its whole
    step budget depends on the trial seed, and with the 130 trials that
    fit in a run, seeded rounds moved the total work (effective
    interactions) by about 40 % between seeds (389k-548k), which swamps
    the wall and latency figures."""

    name = "fault-grid"
    protocols = ("simple-global-line", "ft-global-line", "rc-global-line:k=2")
    loads = (0, 1, 2, 4)
    n = 64
    trials = 2
    #: Step budgets: ft-global-line re-stabilizes well inside them, the
    #: simple constructor mostly burns them; larger budgets only add
    #: budget-burning time and fewer cells per run.
    max_steps = 2_000_000
    sequential_n = 12
    sequential_max_steps = 50_000
    #: Wall seconds of one round on the reference box (sizes the plan).
    round_seconds = 1.3

    def plan(self, seed: int, seconds: float) -> list[Op]:
        from repro.analysis.robustness import RobustnessSpec

        ops: list[Op] = []
        for base in range(max(1, round(seconds / (2 * self.round_seconds)))):
            for protocol in self.protocols:
                for load in self.loads:
                    ops.append(Op("cold", RobustnessSpec(
                        (protocol,), (load,), n=self.n, trials=self.trials,
                        faults="crash", engine="indexed", base_seed=base,
                        max_steps=self.max_steps,
                    )))
            ops.append(Op("cold", RobustnessSpec(
                self.protocols, (1,), n=self.sequential_n, trials=1,
                faults="crash", scheduler="round-robin", base_seed=base,
                max_steps=self.sequential_max_steps,
            )))
        order = list(range(len(ops)))
        random.Random(seed).shuffle(order)
        ops += [Op("warm", ops[twin].payload, twin) for twin in order]
        return ops

    def execute(self, op: Op) -> OpResult:
        from repro.analysis.robustness import run_robustness

        start = time.perf_counter()
        result = run_robustness(op.payload)
        latency = time.perf_counter() - start
        finals = self.finals.take()
        records = tuple(r.deterministic() for r in result.records)
        effective = sum(r.effective_steps for r in records)
        return OpResult(
            latency, records, effective, effective + len(records),
            {"final": tuple(_edges(c) for c in finals), "configs": finals},
        )

    def check(self, ops, results):
        from repro.core.faults import compact_survivors
        from repro.protocols import registry

        failures = _error_failures(results) + _twin_failures(ops, results)
        survived: dict[tuple[str, float], list[bool]] = {}
        for i, (op, res) in enumerate(zip(ops, results)):
            if res.error:
                continue
            configs = res.info.pop("configs", None)
            if op.kind != "cold":
                continue
            if configs is None or len(configs) != len(res.records):
                failures.append((i, f"op {i}: final networks missing"))
                continue
            for record, config in zip(res.records, configs):
                target = registry.target_predicate(registry.instantiate(record.protocol))
                reached = record.converged and bool(target(compact_survivors(config)))
                if record.survived != reached:
                    failures.append((i, (
                        f"op {i}: {record.protocol} load={record.load} "
                        f"trial={record.trial} says survived={record.survived}, "
                        f"target over the alive nodes says {reached}"
                    )))
                if op.payload.scheduler == "uniform":
                    survived.setdefault((record.protocol, record.load), []).append(record.survived)
        aggregate = 0
        for load in self.loads:
            if load <= 0:
                continue
            aggregate += 1
            ft = survived.get(("ft-global-line", load), [])
            simple = survived.get(("simple-global-line", load), [])
            if ft and simple and sum(ft) / len(ft) < sum(simple) / len(simple):
                failures.append((None, f"ft-global-line survives less than simple-global-line at crash load {load}"))
        return failures, aggregate


# ----------------------------------------------------------------------
# service-mix
# ----------------------------------------------------------------------

class ServiceMix(Workload):
    """An in-process ``ExperimentService`` (workers=1, fresh on-disk
    ``ResultStore``) driven over HTTP by one client.

    The seeded job stream interleaves fresh small sweep specs (cold:
    the engine runs and the store is written) with resubmissions of
    earlier specs (warm: keys and store reads only), half and half.
    Cold specs cycle through a fixed list of (protocol, sizes) shapes
    with fresh seeded base seeds, so every run has the same mix of job
    sizes.  Per job the client submits with ``stream=False``, follows
    the job's SSE stream to its ``end`` frame and fetches the result."""

    name = "service-mix"
    protocols = ("simple-global-line", "cycle-cover", "global-star")
    sizes = ((8,), (12,), (16,), (8, 12))
    trials = 2
    #: Jobs per second on the reference box (sizes the plan).
    jobs_per_second = 160

    def plan(self, seed: int, seconds: float) -> list[Op]:
        from repro.analysis.runner import ExperimentSpec

        rng = random.Random(seed)
        shapes = [(p, s) for p in self.protocols for s in self.sizes]
        ops: list[Op] = []
        cold: list[int] = []
        seeds: set[int] = set()
        for _ in range(max(2, round(seconds * self.jobs_per_second))):
            if cold and rng.random() < 0.5:
                twin = rng.choice(cold)
                ops.append(Op("warm", ops[twin].payload, twin))
                continue
            base = rng.randrange(2**31)
            while base in seeds:
                base = rng.randrange(2**31)
            seeds.add(base)
            protocol, sizes = shapes[len(cold) % len(shapes)]
            cold.append(len(ops))
            ops.append(Op("cold", ExperimentSpec(
                protocol, sizes, self.trials, engine="indexed", base_seed=base,
            )))
        return ops

    def open(self, workdir: Path) -> None:
        from repro.service.api import ExperimentService
        from repro.service.client import ServiceClient
        from repro.service.store import ResultStore

        super().open(workdir)
        self.store_dir = Path(workdir) / f"store-{time.monotonic_ns()}"
        self.store_dir.mkdir(parents=True)
        self.store = ResultStore(self.store_dir)
        self.service = ExperimentService(
            store=self.store, workers=1, host="127.0.0.1", port=0
        )
        self.service.start()
        self.client = ServiceClient(self.service.url, timeout=60.0)

    def execute(self, op: Op) -> OpResult:
        from repro.analysis.runner import SweepResult

        client = self.client
        start = time.perf_counter()
        job = client.submit(op.payload.to_dict(), kind="sweep", stream=False)
        frames = 0
        finished_at = submitted_at = end_seen = None
        events = client.events(job["id"])
        try:
            for frame in events:
                frames += 1
                if frame.get("type") == "status":
                    submitted_at = frame.get("submitted_at")
                    finished_at = frame.get("finished_at")
                elif frame.get("type") == "end":
                    end_seen = time.time()
                    break
        finally:
            events.close()
        payload = client.result(job["id"])
        latency = time.perf_counter() - start
        self.finals.take()
        result = SweepResult.from_dict(payload["result"])
        records = tuple(r.deterministic() for r in result.records)
        effective = sum(r.effective_steps for r in records) if op.kind == "cold" else 0
        return OpResult(
            latency, records, effective,
            effective + len(records) if op.kind == "cold" else 0,
            {
                "state": payload["state"],
                "cached": payload["cached"],
                "total": payload["total"],
                "frames": frames,
                "end_lag_s": None if end_seen is None or finished_at is None else end_seen - finished_at,
                "turnaround_s": None if finished_at is None else finished_at - submitted_at,
                "bytes": json.dumps(payload["result"], sort_keys=True),
            },
        )

    def close(self) -> None:
        wedged = self.service.stop()
        super().close()
        if wedged:
            raise RuntimeError(f"service threads did not stop: {wedged}")
        shutil.rmtree(self.store_dir, ignore_errors=True)

    def check(self, ops, results):
        failures = _error_failures(results)
        for i, (op, res) in enumerate(zip(ops, results)):
            if res.error:
                continue
            info = res.info
            if info["state"] != "done":
                failures.append((i, f"job {i} ended {info['state']}"))
            elif op.kind == "cold" and info["cached"] != 0:
                failures.append((i, f"cold job {i} had {info['cached']} store hits"))
            elif op.kind == "warm" and info["cached"] != info["total"]:
                failures.append((i, f"warm job {i} had {info['cached']}/{info['total']} store hits"))
            elif op.kind == "warm" and info["bytes"] != results[op.twin].info["bytes"]:
                failures.append((i, f"warm job {i} result differs from cold job {op.twin}"))
        return failures, 0


# ----------------------------------------------------------------------
# verify-model
# ----------------------------------------------------------------------

#: (protocol, n) -> committed (verdict ok, canonical configuration
#: count), plus the cell's approximate seconds on the reference box
#: (sizes the plan).
VERIFY_CELLS: dict[tuple[str, int], tuple[bool, int, float]] = {
    ("2rc", 6): (True, 506, 0.26),
    ("c-cliques", 8): (True, 119, 0.33),
    ("fast-global-line", 8): (True, 178, 0.36),
    ("faster-global-line", 8): (True, 116, 0.34),
    ("global-ring", 8): (True, 373, 0.43),
    ("simple-global-line", 8): (True, 44, 0.36),
    # Not a benchmark cell: the benchmark's own tests run it.
    ("global-star", 5): (True, 178, 0.10),
}


class VerifyModel(Workload):
    """``model_check`` over fixed cells; deterministic, so the seed is
    unused.

    One op is one cell.  The cells cost about the same (0.25-0.45 s on
    the reference box), so the latency medians are medians of like
    measurements.  The cold ops check every cell once; warm ops then
    recheck the cells in the same order, pass after pass, as the budget
    allows (at least one pass; the verifier path has no result cache,
    so a warm op recomputes)."""

    name = "verify-model"
    cells: tuple[tuple[str, int], ...] = (
        ("2rc", 6), ("c-cliques", 8), ("fast-global-line", 8),
        ("faster-global-line", 8), ("global-ring", 8), ("simple-global-line", 8),
    )

    @property
    def protocols(self) -> tuple[str, ...]:
        return tuple(sorted({name for name, _ in self.cells}))

    def plan(self, seed: int, seconds: float) -> list[Op]:
        passes = max(2, round(seconds / sum(VERIFY_CELLS[c][2] for c in self.cells)))
        ops = [Op("cold", cell) for cell in self.cells]
        ops += [Op("warm", cell, i) for _ in range(passes - 1) for i, cell in enumerate(self.cells)]
        return ops

    def open(self, workdir: Path) -> None:
        import repro.verify.model  # noqa: F401  (imported at set-up, not by the first op)

        super().open(workdir)

    def execute(self, op: Op) -> OpResult:
        from repro.protocols import registry
        from repro.verify.model import model_check

        name, n = op.payload
        start = time.perf_counter()
        report = model_check(registry.instantiate(name), n)
        latency = time.perf_counter() - start
        records = ((
            name, n, report.ok, report.n_configs, report.n_transitions,
            report.n_sccs, report.n_terminal_sccs,
        ),)
        return OpResult(latency, records, report.n_transitions, report.n_configs)

    def check(self, ops, results):
        failures = _error_failures(results) + _twin_failures(ops, results)
        for i, res in enumerate(results):
            if res.error:
                continue
            for name, n, ok, n_configs, *_ in res.records:
                committed = VERIFY_CELLS[(name, n)][:2]
                if (ok, n_configs) != committed:
                    failures.append((i, (
                        f"{name} n={n}: verdict ok={ok} with {n_configs} "
                        f"configurations, committed {committed}"
                    )))
        return failures, 0


WORKLOADS: dict[str, type[Workload]] = {
    cls.name: cls for cls in (LineSweep, FaultGrid, ServiceMix, VerifyModel)
}


def run_ops(execute, ops: list[Op]) -> tuple[list[OpResult], float]:
    """The timed phase: ``execute(op)`` each op in order; returns the
    results and the phase's wall seconds."""
    results: list[OpResult] = []
    start = time.perf_counter()
    for op in ops:
        op_start = time.perf_counter()
        try:
            results.append(execute(op))
        except Exception as exc:  # one failed op must not hide the rest
            results.append(OpResult(
                time.perf_counter() - op_start,
                error=f"{type(exc).__name__}: {exc}",
            ))
    return results, time.perf_counter() - start


def digest(results: list[OpResult]) -> str:
    """sha256 over every op's deterministic records, in op order."""
    h = hashlib.sha256()
    for res in results:
        h.update(repr(res.records).encode())
        h.update(b"\x00")
    return h.hexdigest()


def work_counts(results: list[OpResult]) -> Counter:
    total: Counter = Counter()
    for res in results:
        total["effective"] += res.effective
        total["configs"] += res.configs
    return total
