"""Which program functions the traced run wraps, and the per-layer
metrics derived from the spans.

Span names are ``"<group>:<function>"``; the group is the per-layer
metric prefix (``indexing.upkeep``, ``store.get``, ...).  A group's
``calls`` counts its outermost spans (a call nested in another call of
the same group, such as ``move_edge`` -> ``add_edge``, is not counted
again); its ``self_s`` sums the self time of all its spans.
"""

from __future__ import annotations

import os
import statistics
from collections import Counter

from perfbench.tracing import Spans, Tracer, self_times

#: Every per-layer metric, in the order BENCHMARK.json lists them.
PER_LAYER = (
    ("indexing.upkeep.calls", "count"),
    ("indexing.upkeep.self_s", "s"),
    ("indexing.upkeep.self_frac", "fraction"),
    ("indexing.refresh_pairs_per_eff", "count"),
    ("indexing.sample.calls", "count"),
    ("indexing.sample.self_s", "s"),
    ("indexing.sample.tries_per_pair", "count"),
    ("protocol.resolve.calls", "count"),
    ("protocol.resolve.self_s", "s"),
    ("protocol.certificate.calls", "count"),
    ("protocol.certificate.self_s", "s"),
    ("configuration.write.calls", "count"),
    ("configuration.write.self_s", "s"),
    ("simulator.loop.self_s", "s"),
    ("simulator.us_per_eff", "us"),
    ("simulator.eff_frac", "fraction"),
    ("faults.plan.calls", "count"),
    ("faults.plan.self_s", "s"),
    ("faults.actions.crash", "count"),
    ("faults.actions.cut", "count"),
    ("faults.actions.corrupt", "count"),
    ("faults.actions.arrive", "count"),
    ("faults.actions.revive", "count"),
    ("faults.notify.calls", "count"),
    ("runner.dispatch.self_s", "s"),
    ("runner.trials", "count"),
    ("runner.pool.speedup", "ratio"),
    ("runner.pool.pickled_bytes_per_trial", "bytes"),
    ("keys.digest.calls", "count"),
    ("keys.digest.self_s", "s"),
    ("store.get.calls", "count"),
    ("store.get.self_s", "s"),
    ("store.hit_frac", "fraction"),
    ("store.put.calls", "count"),
    ("store.put.self_s", "s"),
    ("store.put.bytes", "bytes"),
    ("jobs.engine_s", "s"),
    ("jobs.turnaround_ms", "ms"),
    ("api.handle.calls", "count"),
    ("api.handle.self_s", "s"),
    ("api.http_overhead_ms", "ms"),
    ("sse.frames_per_job", "count"),
    ("sse.end_lag_ms", "ms"),
    ("verify.canonicalize.calls", "count"),
    ("verify.canonicalize.self_s", "s"),
    ("verify.explore.self_s", "s"),
    ("verify.scc.self_s", "s"),
    ("verify.configs", "count"),
    ("verify.canon_per_config", "count"),
    ("trace.overhead_frac", "fraction"),
)

FAULT_KINDS = ("crash", "cut", "corrupt", "arrive", "revive")

SAMPLE_PAIR = "indexing.sample:sample_pair"
TRIAL_SPANS = ("runner.dispatch:run_trial", "runner.dispatch:run_robustness_trial")


def _subclasses(cls: type) -> list[type]:
    out, todo = [], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in out:
                out.append(sub)
                todo.append(sub)
    return [cls] + out


def _own_functions(classes, attr: str):
    for cls in classes:
        if callable(cls.__dict__.get(attr)):
            yield cls


def install(tracer: Tracer) -> None:
    """Wrap the public functions of every layer (restored by
    ``tracer.restore()``)."""
    from repro.analysis import robustness, runner
    from repro.core.configuration import Configuration
    from repro.core import faults
    from repro.core.indexing import PairClassIndex
    from repro.core.protocol import CompiledProtocol, Protocol
    from repro.core.simulator import ENGINES
    from repro.protocols import registry
    from repro.service import jobs, keys
    from repro.service.api import ExperimentService
    from repro.service.client import ServiceClient
    from repro.service.store import ResultStore
    from repro.verify import model

    registry.ensure_populated()
    for attr in ("refresh_pair", "refresh_involving", "move_node", "move_edge",
                 "add_node", "add_edge", "remove_node", "remove_edge", "rebuild"):
        tracer.wrap_method(PairClassIndex, attr, f"indexing.upkeep:{attr}")
    for attr in ("sample_class", "sample_pair"):
        tracer.wrap_method(PairClassIndex, attr, f"indexing.sample:{attr}")
    tracer.patch(Configuration, "edge_state", tracer.counted(
        Configuration.edge_state, "indexing.sample.probes", when=SAMPLE_PAIR,
    ))

    tracer.wrap_method(CompiledProtocol, "resolved", "protocol.resolve:resolved")
    protocols = _subclasses(Protocol)
    for cls in _own_functions(protocols, "stabilized"):
        tracer.wrap_method(cls, "stabilized", f"protocol.certificate:{cls.__name__}")
    for attr in ("on_neighbor_crash", "on_edge_loss"):
        for cls in _own_functions(protocols, attr):
            tracer.patch(cls, attr, tracer.counted(cls.__dict__[attr], "faults.notify.calls"))
    for attr in ("set_state", "set_edge"):
        tracer.wrap_method(Configuration, attr, f"configuration.write:{attr}")
    for cls in set(ENGINES.values()):
        if "run" in cls.__dict__:
            tracer.wrap_method(cls, "run", f"simulator.loop:{cls.__name__}")

    tracer.wrap_function(faults.compile_fault_plan, "faults.plan:compile_fault_plan")
    plans = _subclasses(faults.FaultPlan)
    for cls in _own_functions(plans, "next_step"):
        tracer.wrap_method(cls, "next_step", f"faults.plan:{cls.__name__}.next_step")
    for cls in _own_functions(plans, "actions_at"):
        tracer.wrap_method(cls, "actions_at", f"faults.plan:{cls.__name__}.actions_at",
                           hook=_count_actions)

    tracer.wrap_method(runner.Runner, "run", "runner.dispatch:Runner.run")
    tracer.wrap_function(robustness.run_robustness, "runner.dispatch:run_robustness")
    # The job service keeps its own references in JOB_KINDS.
    swap = {
        fn: tracer.wrap_function(fn, name)
        for fn, name in zip((runner.run_trial, robustness.run_robustness_trial), TRIAL_SPANS)
    }
    for fn in (keys.trial_key, keys.robustness_trial_key, keys.code_digest):
        swap[fn] = tracer.wrap_function(fn, f"keys.digest:{fn.__name__}")
    for kind, (run_fn, key_fn, tag) in list(jobs.JOB_KINDS.items()):
        tracer.patch_item(jobs.JOB_KINDS, kind, (
            swap.get(run_fn, run_fn), swap.get(key_fn, key_fn), tag,
        ))
    tracer.wrap_method(ResultStore, "get", "store.get:get")
    tracer.wrap_method(ResultStore, "put", "store.put:put", hook=_count_put_bytes)
    tracer.wrap_method(ExperimentService, "handle", "api.handle:handle")
    tracer.wrap_method(ServiceClient, "_request", "api.client:request")

    tracer.wrap_function(model.canonicalize, "verify.canonicalize:canonicalize")
    tracer.wrap_function(model.explore, "verify.explore:explore")
    tracer.wrap_function(model.strongly_connected_components, "verify.scc:strongly_connected_components")
    tracer.wrap_function(model.model_check, "verify.model:model_check")


def _count_actions(args, kwargs, actions, tracer: Tracer) -> None:
    for action in actions:
        tracer.add(f"faults.actions.{action.kind}")


def _count_put_bytes(args, kwargs, result, tracer: Tracer) -> None:
    store, key = args[0], args[1]
    tracer.add("store.put.bytes", os.path.getsize(store.path(key)))


def group_of(name: str) -> str:
    return name.split(":", 1)[0]


def aggregate(spans: Spans) -> dict:
    """Per group: outermost ``calls`` and summed ``self_s``; per span
    name: ``count`` (recorded plus folded calls)."""
    import numpy as np

    n = len(spans)
    group_names = sorted({group_of(name) for name in spans.names})
    group_index = np.array([group_names.index(group_of(name)) for name in spans.names] or [0])
    nid = np.frombuffer(spans.name, dtype=np.int32, count=n)
    parent = np.frombuffer(spans.parent, dtype=np.int64, count=n)
    gid = group_index[nid]
    parent_gid = np.where(parent >= 0, gid[np.maximum(parent, 0)], -1)
    size = len(group_names)
    selfs = np.bincount(gid, weights=np.asarray(self_times(spans)), minlength=size)
    calls = np.bincount(gid[parent_gid != gid], minlength=size)
    recorded = np.bincount(nid, minlength=len(spans.names))
    return {
        "calls": Counter({g: int(calls[i]) for i, g in enumerate(group_names)}),
        "self_s": Counter({g: float(selfs[i]) for i, g in enumerate(group_names)}),
        "count": Counter({
            name: int(recorded[i]) + spans.nested[i] for i, name in enumerate(spans.names)
        }),
    }


def http_overhead_ms(spans: Spans) -> float:
    """Median over client requests of the request's wall time minus the
    server ``handle`` time it contains (0 when there are none)."""
    ids = {n: i for i, n in enumerate(spans.names)}
    client_id, handle_id = ids.get("api.client:request"), ids.get("api.handle:handle")
    if client_id is None or handle_id is None:
        return 0.0
    handles = sorted(
        (spans.start[i], spans.end[i]) for i in range(len(spans)) if spans.name[i] == handle_id
    )
    overheads = []
    j = 0
    for i in sorted(
        (i for i in range(len(spans)) if spans.name[i] == client_id),
        key=lambda i: spans.start[i],
    ):
        lo, hi = spans.start[i], spans.end[i]
        inside = 0.0
        while j < len(handles) and handles[j][0] < lo:
            j += 1
        k = j
        while k < len(handles) and handles[k][1] <= hi:
            inside += handles[k][1] - handles[k][0]
            k += 1
        overheads.append((hi - lo - inside) * 1000)
    return statistics.median(overheads) if overheads else 0.0


def per_layer(spans: Spans, counters: dict, *, traced_wall: float, untraced_wall: float,
              traced_work: dict, untraced: dict, extra: dict) -> dict[str, float]:
    """Every :data:`PER_LAYER` metric.  ``traced_work`` holds the traced
    pass's ``effective`` count and ``configs``; ``untraced`` the values
    taken from the untraced pass (``engine_s``, ``effective``,
    ``steps``, job facts, store hit counters); ``extra`` anything the
    workload measured on its own (the process-pool rows)."""
    agg = aggregate(spans)
    calls, self_s, count = agg["calls"], agg["self_s"], agg["count"]

    def ratio(a: float, b: float) -> float:
        return a / b if b else 0.0

    eff = traced_work.get("effective", 0)
    pairs = count[SAMPLE_PAIR]
    m = {
        "indexing.upkeep.calls": calls["indexing.upkeep"],
        "indexing.upkeep.self_s": self_s["indexing.upkeep"],
        "indexing.upkeep.self_frac": ratio(self_s["indexing.upkeep"], traced_wall),
        "indexing.refresh_pairs_per_eff": ratio(count["indexing.upkeep:refresh_pair"], eff),
        "indexing.sample.calls": pairs,
        "indexing.sample.self_s": self_s["indexing.sample"],
        "indexing.sample.tries_per_pair": ratio(counters.get("indexing.sample.probes", 0), pairs),
        "protocol.resolve.calls": calls["protocol.resolve"],
        "protocol.resolve.self_s": self_s["protocol.resolve"],
        "protocol.certificate.calls": calls["protocol.certificate"],
        "protocol.certificate.self_s": self_s["protocol.certificate"],
        "configuration.write.calls": calls["configuration.write"],
        "configuration.write.self_s": self_s["configuration.write"],
        "simulator.loop.self_s": self_s["simulator.loop"],
        "simulator.us_per_eff": ratio(untraced.get("engine_s", 0.0) * 1e6, untraced.get("effective", 0)),
        "simulator.eff_frac": ratio(untraced.get("effective", 0), untraced.get("steps", 0)),
        "faults.plan.calls": calls["faults.plan"],
        "faults.plan.self_s": self_s["faults.plan"],
        "faults.notify.calls": counters.get("faults.notify.calls", 0),
        "runner.dispatch.self_s": self_s["runner.dispatch"],
        "runner.trials": sum(count[name] for name in TRIAL_SPANS),
        "runner.pool.speedup": extra.get("runner.pool.speedup", 0.0),
        "runner.pool.pickled_bytes_per_trial": extra.get("runner.pool.pickled_bytes_per_trial", 0.0),
        "keys.digest.calls": calls["keys.digest"],
        "keys.digest.self_s": self_s["keys.digest"],
        "store.get.calls": calls["store.get"],
        "store.get.self_s": self_s["store.get"],
        "store.hit_frac": ratio(untraced.get("store_hits", 0),
                                untraced.get("store_hits", 0) + untraced.get("store_misses", 0)),
        "store.put.calls": calls["store.put"],
        "store.put.self_s": self_s["store.put"],
        "store.put.bytes": ratio(counters.get("store.put.bytes", 0), calls["store.put"]),
        "jobs.engine_s": untraced.get("jobs_engine_s", 0.0),
        "jobs.turnaround_ms": untraced.get("turnaround_ms", 0.0),
        "api.handle.calls": calls["api.handle"],
        "api.handle.self_s": self_s["api.handle"],
        "api.http_overhead_ms": http_overhead_ms(spans),
        "sse.frames_per_job": untraced.get("frames_per_job", 0.0),
        "sse.end_lag_ms": untraced.get("end_lag_ms", 0.0),
        "verify.canonicalize.calls": calls["verify.canonicalize"],
        "verify.canonicalize.self_s": self_s["verify.canonicalize"],
        "verify.explore.self_s": self_s["verify.explore"],
        "verify.scc.self_s": self_s["verify.scc"],
        "verify.configs": untraced.get("verify_configs", 0),
        "verify.canon_per_config": ratio(calls["verify.canonicalize"], traced_work.get("configs", 0)),
        "trace.overhead_frac": ratio(traced_wall, untraced_wall) - 1.0,
    }
    for kind in FAULT_KINDS:
        m[f"faults.actions.{kind}"] = counters.get(f"faults.actions.{kind}", 0)
    return {name: float(m[name]) for name, _ in PER_LAYER}
