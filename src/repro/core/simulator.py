"""Simulation engines for network constructors.

Three per-node engines share identical interaction semantics; under the
uniform random scheduler all three sample the **same distribution** over
executions (verified by the distributional-equivalence tests), so the
choice is purely a performance/flexibility trade-off.

Engine-selection guide
----------------------
* :class:`SequentialSimulator` — the reference implementation: one
  scheduler pick per step, **any** :class:`~repro.core.scheduler.Scheduler`
  (round-robin, scripted, adversarial...).  O(1) per scheduler step but
  walks every ineffective step; use it when you need a non-uniform
  scheduler or a ground-truth check.  Its pick-by-pick loop shares no
  code with the event-driven loop, so the KS gates compare two
  independent samplers of the scheduler's law.
* :class:`AgitatedSimulator` — event-driven; its pair source is the
  explicit set of *effective* pairs, rescanned over all ``n - 1``
  partners of a node whenever its state changes: O(n) per effective
  interaction.  Kept as the independently-coded cross-check of the
  indexed pair source.
* :class:`IndexedSimulator` — the default production engine (used by
  :func:`run_to_convergence`); its pair source is a class-level census
  (:class:`~repro.core.indexing.PairClassIndex`, see its docs) over the
  interned rule table of :meth:`~repro.core.protocol.Protocol.compile`:
  O(present states + degree) per effective interaction — O(1) amortized
  for the paper's constant-state protocols — instead of O(n).

Use the :data:`ENGINES` registry (``"sequential"``, ``"agitated"``,
``"indexed"``) to select an engine by name.  All engines measure the
paper's convergence time: the last step at which the output graph
changed (``RunResult.convergence_time``).  Engines are
*capability-aware*: each class declares ``supports(scenario)`` (see
:mod:`repro.core.scenario`).  The event-driven engines require the
uniform random scheduler — their geometric skips encode its law — so
adaptive schedulers (``targeted:aim=...``), which read the live
configuration, run on the sequential engine.

One loop, one fault applier
---------------------------
The event-driven engines run on **one uniform loop**
(:meth:`_UniformEngine.run`): the clock advances by a
``Geometric(k/m) - 1`` skip of ineffective picks (``k`` effective pairs
among the ``m`` alive pairs), then one sampled interaction fires; the
loop jumps to the next fault event when that comes first and stops on
quiescence, on the certificate, or on the ``max_steps`` /
``max_effective_steps`` budgets.  The engines differ only in the *pair
source* behind it, which counts the effective pairs, fires one
interaction, and takes the fault hooks.

All three engines apply the run's step-indexed
:class:`~repro.core.faults.FaultPlan` (compiled per run from the
``faults`` models) through **one** :class:`FaultApplier`, which holds
the semantics; each engine's :class:`Bookkeeping` hooks carry them out.
Crashed nodes move to the :data:`~repro.core.faults.DEAD` state, lose
their edges and leave the census; scheduler steps count picks among
*alive* pairs only.  Each surviving neighbor of a crash victim is
notified through :meth:`~repro.core.protocol.Protocol.on_neighbor_crash`
(the minimal strengthening of Fault Tolerant Network Constructors 2019)
and both endpoints of an environment edge deletion
(``cut``/``edge-drop``/``edge-rate``) through
:meth:`~repro.core.protocol.Protocol.on_edge_loss`; *silent* cuts and
``corrupt`` state lies (:class:`~repro.core.faults.ByzantineFaults`)
bypass the hooks.  The ``arrive``, ``recover`` and ``churn`` models
grow or shrink the alive population: joining nodes take the protocol's
initial state, and the sequential engine re-binds its scheduler's pair
stream to the new population size.  A fault that changes the
configuration counts as an output-graph change, so ``convergence_time``
measures the *restabilization* time of the surviving population.
Stabilization gates on the plan's *horizon*: a certificate holding
before a scheduled event does not end the run, and quiescence is never
declared while a population-mutating plan has pending events (a joining
node can create effective pairs out of nothing).
"""

from __future__ import annotations

import math
import random
from dataclasses import dataclass
from typing import Callable

from repro.core.configuration import Configuration
from repro.core.errors import ConvergenceError, SimulationError
from repro.core.faults import DEAD, FaultModel, FaultPlan, compile_fault_plan
from repro.core.indexing import IndexedSet, PairClassIndex
from repro.core.protocol import Protocol, resolve, sample_outcome
from repro.core.scheduler import Scheduler, UniformRandomScheduler
from repro.core.trace import (
    Event,
    FaultFrame,
    RunMeta,
    Trace,
    TraceBus,
    merge_sinks,
)

StopPredicate = Callable[[Configuration], bool]


def _join_state(protocol: Protocol):
    """The state in which arriving/recovering nodes join the run."""
    state = protocol.initial_state
    if state is None:
        raise SimulationError(
            f"{protocol.name} declares no initial_state; population events "
            "(arrive/churn/recover) need one to initialize joining nodes"
        )
    return state


@dataclass(frozen=True)
class InteractionResult:
    """What one applied interaction changed."""

    changed: bool
    u_state_changed: bool
    v_state_changed: bool
    edge_changed: bool
    event: Event | None = None


def apply_interaction(
    protocol: Protocol,
    config: Configuration,
    u: int,
    v: int,
    rng: random.Random,
    step: int = 0,
) -> InteractionResult:
    """Apply one interaction between nodes ``u`` and ``v`` in place.

    Implements the full Section 3.1 semantics: partial-function
    orientation resolution, probabilistic outcome sampling (PREL), and the
    equiprobable symmetry breaking for ``(a, a, c) -> (a', b', c')`` rules
    with ``a' != b'``.
    """
    if u == v:
        raise SimulationError(f"node {u} cannot interact with itself")
    a, b = config.state(u), config.state(v)
    c = config.edge_state(u, v)
    resolved = resolve(protocol, a, b, c)
    if resolved is None:
        return InteractionResult(False, False, False, False)
    dist, swapped = resolved
    outcome = sample_outcome(dist, rng)
    if swapped:
        new_u, new_v = outcome.b, outcome.a
    else:
        new_u, new_v = outcome.a, outcome.b
    if a == b and new_u != new_v:
        # The single genuinely symmetric case: both nodes in the same state
        # receiving distinct new states — the assignment is a fair coin.
        if rng.random() < 0.5:
            new_u, new_v = new_v, new_u
    new_edge = outcome.edge
    u_changed = new_u != a
    v_changed = new_v != b
    edge_changed = new_edge != c
    if not (u_changed or v_changed or edge_changed):
        return InteractionResult(False, False, False, False)
    if u_changed:
        config.set_state(u, new_u)
    if v_changed:
        config.set_state(v, new_v)
    if edge_changed:
        config.set_edge(u, v, new_edge)
    event = Event(step, u, v, a, new_u, b, new_v, c, new_edge)
    return InteractionResult(True, u_changed, v_changed, edge_changed, event)


@dataclass
class RunResult:
    """Outcome of a simulation run.

    Attributes
    ----------
    converged:
        True when the run ended because the protocol stabilized (its
        :meth:`~repro.core.protocol.Protocol.stabilized` certificate held or
        no effective pair remained), rather than by exhausting the budget.
    steps:
        Total scheduler steps elapsed (including ineffective ones).
    effective_steps:
        Number of applied interactions that changed something.
    last_change_step:
        Step index of the last change of any kind (node state or edge).
    last_output_change_step:
        Step index of the last change to the *output graph* — the paper's
        running time / time to convergence.
    config:
        Final configuration.
    stop_reason:
        One of ``"stabilized"``, ``"quiescent"``, ``"max_steps"``.
    trace:
        The recorded trace if one was requested.
    """

    converged: bool
    steps: int
    effective_steps: int
    last_change_step: int
    last_output_change_step: int
    config: Configuration
    stop_reason: str
    trace: Trace | None = None

    @property
    def convergence_time(self) -> int:
        """The paper's running time: min t s.t. the output graph is fixed
        from step t onward.  Meaningful when ``converged`` is True."""
        return self.last_output_change_step


def _output_affected(out: frozenset | None, event: Event) -> bool:
    """Did this interaction possibly change the output graph G(C)?
    ``out`` is the protocol's ``output_states`` (``None``: all states)."""
    edge_changed = event.edge_before != event.edge_after
    if out is None:
        return edge_changed
    if (event.u_before in out) != (event.u_after in out):
        return True
    if (event.v_before in out) != (event.v_after in out):
        return True
    # Conservative: an edge touching at least one output node counts
    # only if both endpoints are output nodes.
    return edge_changed and event.u_after in out and event.v_after in out


def _start(
    engine_name: str, protocol: Protocol, n: int, config: Configuration | None,
    copy_config: bool, trace: Trace | None, bus: TraceBus | None, min_n: int = 0,
):
    """The run's starting configuration and merged publish sink
    (``None`` when nobody is watching; ``run_started`` is published)."""
    if config is None:
        cfg = protocol.initial_configuration(n)
    else:
        cfg = config.copy() if copy_config else config
    if cfg.n != n:
        raise SimulationError(f"configuration has {cfg.n} nodes, expected {n}")
    if n < min_n:
        raise SimulationError(f"need at least {min_n} nodes")
    publish = merge_sinks(trace, bus)
    if publish is not None:
        publish.run_started(RunMeta(
            protocol.name, n, engine_name,
            dict(cfg.state_counts()), cfg.n_active_edges,
        ))
    return cfg, publish


class Bookkeeping:
    """How one engine carries out what :class:`FaultApplier` decided a
    fault does.  This base keeps only the configuration (the sequential
    engine); the event-driven pair sources extend every hook to keep
    their effective-pair bookkeeping coherent.  ``dead`` is the run's
    set of crashed nodes, shared with the applier."""

    def __init__(self, cfg: Configuration) -> None:
        self.cfg = cfg
        self.dead: set[int] = set()

    def neighbors(self, w: int) -> list[int]:
        """``w``'s active neighbors, in the order the hooks visit them."""
        return list(self.cfg.neighbors(w))

    def remove_node(self, w: int, nbrs: list[int], moves: list) -> None:
        """Crash: drop ``w`` and its edges to ``nbrs``, then apply the
        notified neighbors' ``(node, new state)`` moves."""
        cfg = self.cfg
        for x in nbrs:
            cfg.set_edge(w, x, 0)
        for x, state in moves:
            cfg.set_state(x, state)
        # Marked DEAD after the moves, unlike the pair sources: the
        # order fixes the census key order in this engine's fault frames.
        cfg.set_state(w, DEAD)

    def remove_edge(self, a: int, b: int, moves: list) -> None:
        """Cut: deactivate ``(a, b)``; then apply the endpoints' moves."""
        cfg = self.cfg
        cfg.set_edge(a, b, 0)
        for x, state in moves:
            cfg.set_state(x, state)

    def move_node(self, w: int, state) -> None:
        """A byzantine lie: ``w`` claims ``state``."""
        self.cfg.set_state(w, state)

    def add_node(self, state) -> int:
        """An arrival in ``state``; returns the new node's id."""
        return self.cfg.add_node(state)

    def revive_node(self, w: int, state) -> None:
        """Dead node ``w`` rejoins in ``state``."""
        self.cfg.set_state(w, state)


class FaultApplier:
    """Applies a run's :class:`~repro.core.faults.FaultPlan`: the one
    place the fault semantics of the module docstring live.  ``book``
    carries each effect out in the engine's own structures; a
    :class:`FaultFrame` is published only for a step that changed
    something."""

    def __init__(
        self, plan: FaultPlan | None, protocol: Protocol, book: Bookkeeping, publish
    ) -> None:
        self.plan = plan
        self.protocol = protocol
        self.book = book
        self.dead = book.dead
        self.publish = publish
        #: The next step with a scheduled event (``None``: nothing left).
        self.next = plan.next_step(-1) if plan is not None else None
        #: Certificates do not end the run before this step.
        self.horizon = plan.horizon if plan is not None else -1
        #: A pending event may create effective pairs out of nothing.
        self.mutates_population = plan is not None and plan.mutates_population

    def drain(self, steps: int) -> bool:
        """Apply every event due at or before ``steps``; True when any
        of them changed the configuration."""
        changed = False
        while self.next is not None and self.next <= steps:
            changed |= self._apply(self.next)
            self.next = self.plan.next_step(self.next)
        return changed

    def gate_open(self, steps: int) -> bool:
        """Whether a holding certificate may end the run at ``steps``:
        the horizon has passed and no event is due now."""
        return steps >= self.horizon and (self.next is None or self.next > steps)

    def _notified(self, nodes, hook) -> list[tuple[int, object]]:
        state = self.book.cfg.state
        moves = []
        for x in nodes:
            new_state = hook(state(x))
            if new_state is not None and new_state != state(x):
                moves.append((x, new_state))
        return moves

    def _apply(self, at: int) -> bool:
        book, dead, cfg = self.book, self.dead, self.book.cfg
        changed = False
        kinds: list[str] = []
        alive = [u for u in range(cfg.n) if u not in dead]
        for action in self.plan.actions_at(at, cfg, alive):
            kinds.append(action.kind)
            if action.kind == "crash":
                for w in action.nodes:
                    if w in dead:
                        continue
                    nbrs = book.neighbors(w)
                    moves = self._notified(nbrs, self.protocol.on_neighbor_crash)
                    dead.add(w)
                    book.remove_node(w, nbrs, moves)
                    changed = True
            elif action.kind == "cut":
                for a, b in action.edges:
                    if a in dead or b in dead or not cfg.edge_state(a, b):
                        continue
                    moves = [] if action.silent else self._notified(
                        (a, b), self.protocol.on_edge_loss
                    )
                    book.remove_edge(a, b, moves)
                    changed = True
            elif action.kind == "corrupt":
                for w, claim in zip(action.nodes, action.states):
                    if w not in dead and cfg.state(w) != claim:
                        book.move_node(w, claim)
                        changed = True
            elif action.kind == "arrive":
                join = _join_state(self.protocol)
                for _ in range(action.count):
                    book.add_node(join)
                changed = True
            else:  # revive
                for w in action.nodes:
                    if w in dead:
                        dead.discard(w)
                        book.revive_node(w, _join_state(self.protocol))
                        changed = True
        if changed and self.publish is not None:
            self.publish.fault(FaultFrame(
                at, tuple(kinds), dict(cfg.state_counts()), cfg.n_active_edges,
            ))
        return changed


class SequentialSimulator:
    """Reference engine: one scheduler pick per step.

    Parameters
    ----------
    scheduler:
        Any fair scheduler; defaults to the uniform random scheduler.
    seed:
        Seed for the engine-owned :class:`random.Random`.
    faults:
        Fault models applied between scheduler picks (compiled per run).
    """

    def __init__(
        self,
        scheduler: Scheduler | None = None,
        seed: int | None = None,
        faults: tuple[FaultModel, ...] = (),
    ) -> None:
        self.scheduler = scheduler or UniformRandomScheduler()
        self.seed = seed
        self.faults = tuple(faults)

    #: Registry name, stamped into :class:`~repro.core.trace.RunMeta`.
    engine_name = "sequential"

    @classmethod
    def supports(cls, scenario) -> bool:
        """The reference engine drives every scenario (it walks each
        scheduler pick), at the price of a finite ``max_steps`` budget."""
        return True

    def run(
        self,
        protocol: Protocol,
        n: int,
        max_steps: int,
        *,
        config: Configuration | None = None,
        stop: StopPredicate | None = None,
        trace: Trace | None = None,
        bus: TraceBus | None = None,
        check_interval: int = 1,
        require_convergence: bool = False,
        copy_config: bool = True,
    ) -> RunResult:
        """Run for at most ``max_steps`` steps.

        Stops early when the protocol's ``stabilized`` certificate (or the
        ``stop`` override) holds.  ``check_interval`` throttles how often
        the certificate is evaluated (in effective steps).
        ``copy_config=False`` evolves the caller's configuration in place
        (used when running several protocol phases over one population).
        """
        if max_steps is None:
            raise SimulationError(
                "the sequential engine walks every step and needs a finite "
                "max_steps budget"
            )
        rng = random.Random(self.seed)
        cfg, publish = _start(
            self.engine_name, protocol, n, config, copy_config, trace, bus
        )
        stabilized = stop if stop is not None else protocol.stabilized
        out = protocol.output_states
        plan = compile_fault_plan(self.faults, n, self.seed, protocol)
        faults = FaultApplier(plan, protocol, Bookkeeping(cfg), publish)
        dead = faults.dead
        adaptive = getattr(self.scheduler, "adaptive", False)

        def bind_stream():
            if adaptive:
                return self.scheduler.pairs(
                    cfg.n, rng, config=cfg, protocol=protocol
                )
            return self.scheduler.pairs(cfg.n, rng)

        steps = effective = last_change = last_output_change = since_check = 0
        faults.drain(0)  # faults due before the first pick
        fault_next = faults.next
        if stabilized(cfg) and steps >= faults.horizon:
            return RunResult(True, 0, 0, 0, 0, cfg, "stabilized", trace)
        pair_stream = bind_stream()
        n = cfg.n
        stop_reason = "max_steps"
        while steps < max_steps:
            if dead and n - len(dead) < 2:
                if not (faults.mutates_population and fault_next is not None):
                    stop_reason = "quiescent"
                    break
                # No alive pair can advance the clock; jump it straight
                # to the next population event.
                if fault_next > max_steps:
                    steps = max_steps
                    break
                steps = fault_next
            else:
                u, v = next(pair_stream)
                if dead and (u in dead or v in dead):
                    # Crashed nodes left the interaction graph: this
                    # pick is redrawn without counting a step, so the
                    # clock counts picks among alive pairs only — as in
                    # every engine.
                    continue
                steps += 1
                result = apply_interaction(protocol, cfg, u, v, rng, steps)
                if result.changed:
                    effective += 1
                    last_change = steps
                    event = result.event
                    assert event is not None
                    if _output_affected(out, event):
                        last_output_change = steps
                    if publish is not None:
                        publish.interaction(event, cfg)
                    since_check += 1
            if fault_next is not None and fault_next <= steps:
                if faults.drain(steps):
                    last_change = last_output_change = steps
                fault_next = faults.next
                if cfg.n != n:
                    # Arrivals grew the population: re-bind the stream.
                    n = cfg.n
                    pair_stream = bind_stream()
                # Re-check even for a no-op fault: the certificate may
                # have held for a while, suppressed only by the horizon
                # gate, and no further effective step may come to
                # re-trigger the since_check path.
                if faults.gate_open(steps) and stabilized(cfg):
                    stop_reason = "stabilized"
                    break
            if since_check >= check_interval:
                since_check = 0
                if stabilized(cfg) and faults.gate_open(steps):
                    stop_reason = "stabilized"
                    break
        if stop_reason == "max_steps" and require_convergence:
            raise ConvergenceError(
                f"{protocol.name} did not stabilize within {max_steps} steps "
                f"(n={cfg.n})", steps,
            )
        return RunResult(
            stop_reason != "max_steps", steps, effective, last_change,
            last_output_change, cfg, stop_reason, trace,
        )


class _EffectivePairs(Bookkeeping):
    """The agitated engine's pair source: the explicit set of effective
    pairs, maintained by rescanning all ``n - 1`` partners of every node
    whose state changes — O(n) per effective interaction."""

    def __init__(self, protocol: Protocol, cfg: Configuration) -> None:
        super().__init__(cfg)
        self.protocol = protocol
        self.is_effective = protocol.is_effective
        self.pairs = IndexedSet()
        for u in range(cfg.n):
            self._refresh(u)

    def count(self) -> int:
        """How many alive pairs are effective."""
        return len(self.pairs)

    def _refresh(self, w: int) -> None:
        cfg, dead, pairs = self.cfg, self.dead, self.pairs
        sw = cfg.state(w)
        for x in range(cfg.n):
            if x == w or (dead and x in dead):
                continue
            pair = (w, x) if w < x else (x, w)
            if self.is_effective(sw, cfg.state(x), cfg.edge_state(w, x)):
                pairs.add(pair)
            else:
                pairs.discard(pair)

    def fire(self, rng: random.Random, step: int) -> Event | None:
        """Apply one uniformly drawn effective pair; its event, or
        ``None`` when a probabilistic rule sampled the identity."""
        u, v = self.pairs.sample(rng)
        cfg = self.cfg
        result = apply_interaction(self.protocol, cfg, u, v, rng, step)
        if not result.changed:
            return None
        if result.u_state_changed:
            self._refresh(u)
        if result.v_state_changed:
            self._refresh(v)
        pair = (u, v) if u < v else (v, u)
        if self.is_effective(cfg.state(u), cfg.state(v), cfg.edge_state(u, v)):
            self.pairs.add(pair)
        else:
            self.pairs.discard(pair)
        return result.event

    def remove_node(self, w, nbrs, moves) -> None:
        cfg = self.cfg
        for x in nbrs:
            cfg.set_edge(w, x, 0)
        for x in range(cfg.n):
            if x != w:
                self.pairs.discard((w, x) if w < x else (x, w))
        cfg.set_state(w, DEAD)
        for x, state in moves:
            self.move_node(x, state)

    def remove_edge(self, a, b, moves) -> None:
        super().remove_edge(a, b, moves)
        # Re-file every pair of both endpoints: the edge went inactive
        # and either state may have moved.
        self._refresh(a)
        self._refresh(b)

    def move_node(self, w, state) -> None:
        self.cfg.set_state(w, state)
        self._refresh(w)

    def add_node(self, state) -> int:
        u = self.cfg.add_node(state)
        self._refresh(u)
        return u

    revive_node = move_node


class _ClassCensus(Bookkeeping):
    """The indexed engine's pair source: a
    :class:`~repro.core.indexing.PairClassIndex` over interned state ids.
    A state change re-files the node's O(degree) active edges and
    recomputes the O(present states) class weights touching its old and
    new state."""

    def __init__(self, protocol: Protocol, cfg: Configuration) -> None:
        super().__init__(cfg)
        self.compiled = compiled = protocol.compile()
        self.intern = compiled.intern
        self.state_of = compiled.state_of
        self.sid = sid = [compiled.intern(cfg.state(u)) for u in range(cfg.n)]
        self.adj = cfg._adj  # engine-internal: avoids a frozenset copy per move
        self.index = index = PairClassIndex(compiled.is_effective)
        for u in range(cfg.n):
            index.add_node(u, sid[u])
        for u, v in cfg.active_edges():
            index.add_edge(u, v, sid[u], sid[v])
        index.rebuild()

    def count(self) -> int:
        """How many alive pairs are effective."""
        return self.index.total

    def _move(self, w: int, old: int, new: int) -> None:
        self.cfg.set_state(w, self.state_of(new))
        self.index.move_node(w, old, new, self.adj[w], self.sid)
        self.sid[w] = new

    def fire(self, rng: random.Random, step: int) -> Event | None:
        """Apply one effective pair drawn class-then-pair; its event, or
        ``None`` when a probabilistic rule sampled the identity."""
        index, sid = self.index, self.sid
        key = index.sample_class(rng)
        u, v = index.sample_pair(key, rng, self.cfg.edge_state)
        su, sv = sid[u], sid[v]
        c = key[2]
        dist, swapped = self.compiled.resolved(su, sv, c)
        outcome = sample_outcome(dist, rng)
        if swapped:
            new_u, new_v = outcome[1], outcome[0]
        else:
            new_u, new_v = outcome[0], outcome[1]
        if su == sv and new_u != new_v and rng.random() < 0.5:
            new_u, new_v = new_v, new_u
        new_edge = outcome[2]
        u_changed = new_u != su
        v_changed = new_v != sv
        edge_changed = new_edge != c
        if not (u_changed or v_changed or edge_changed):
            return None
        if u_changed:
            self._move(u, su, new_u)
        if v_changed:
            self._move(v, sv, new_v)
        if edge_changed:
            self.cfg.set_edge(u, v, new_edge)
            if new_edge:
                index.add_edge(u, v, sid[u], sid[v])
            else:
                index.remove_edge(u, v, sid[u], sid[v])
        if u_changed or v_changed:
            dirty = {su, new_u} if u_changed else set()
            if v_changed:
                dirty.update((sv, new_v))
            index.refresh_involving(dirty)
        else:
            index.refresh_pair(sid[u], sid[v])
        state_of = self.state_of
        return Event(
            step, u, v,
            state_of(su), state_of(new_u),
            state_of(sv), state_of(new_v),
            c, new_edge,
        )

    def neighbors(self, w) -> list[int]:
        return list(self.adj[w])  # the live set's order, no frozenset copy

    def _apply_moves(self, moves, dirty: set[int]) -> None:
        sid = self.sid
        for x, state in moves:
            new_id = self.intern(state)
            dirty.add(sid[x])
            dirty.add(new_id)
            self._move(x, sid[x], new_id)
        self.index.refresh_involving(dirty)

    def remove_node(self, w, nbrs, moves) -> None:
        sid, index, cfg = self.sid, self.index, self.cfg
        sw = sid[w]
        for x in nbrs:
            index.remove_edge(w, x, sw, sid[x])
            cfg.set_edge(w, x, 0)
        index.remove_node(w, sw)
        cfg.set_state(w, DEAD)
        self._apply_moves(moves, {sw})

    def remove_edge(self, a, b, moves) -> None:
        sid = self.sid
        self.index.remove_edge(a, b, sid[a], sid[b])
        self.cfg.set_edge(a, b, 0)
        self._apply_moves(moves, {sid[a], sid[b]})

    def move_node(self, w, state) -> None:
        self._apply_moves([(w, state)], set())

    def revive_node(self, w, state) -> None:
        s = self.intern(state)
        self.cfg.set_state(w, state)
        self.sid[w] = s
        self.index.add_node(w, s)
        self.index.refresh_involving({s})

    def add_node(self, state) -> int:
        u = self.cfg.add_node(state)
        self.sid.append(None)  # filed by revive_node
        self.revive_node(u, state)
        return u


class _UniformEngine:
    """The event-driven engines' shared constructor, routing and loop
    (see the module docstring); subclasses differ only in ``_source``."""

    #: The pair source class, built as ``_source(protocol, cfg)``.
    _source: type

    def __init__(
        self,
        seed: int | None = None,
        faults: tuple[FaultModel, ...] = (),
    ) -> None:
        self.seed = seed
        self.faults = tuple(faults)

    @classmethod
    def supports(cls, scenario) -> bool:
        """Event-driven: requires the uniform random scheduler (the
        geometric skip encodes its law); faults and initial-configuration
        overrides are fine."""
        return scenario.uses_uniform_scheduler

    def run(
        self,
        protocol: Protocol,
        n: int,
        max_steps: int | None = None,
        *,
        config: Configuration | None = None,
        stop: StopPredicate | None = None,
        trace: Trace | None = None,
        bus: TraceBus | None = None,
        check_interval: int = 1,
        require_convergence: bool = False,
        max_effective_steps: int | None = None,
        copy_config: bool = True,
    ) -> RunResult:
        rng = random.Random(self.seed)
        cfg, publish = _start(
            self.engine_name, protocol, n, config, copy_config, trace, bus, 2
        )
        stabilized = stop if stop is not None else protocol.stabilized
        out = protocol.output_states
        source = self._source(protocol, cfg)
        plan = compile_fault_plan(self.faults, n, self.seed, protocol)
        faults = FaultApplier(plan, protocol, source, publish)
        count, fire = source.count, source.fire
        log = math.log

        steps = effective = last_change = last_output_change = since_check = 0
        faults.drain(0)  # faults due before the first pick
        fault_next = faults.next
        if stabilized(cfg) and steps >= faults.horizon:
            return RunResult(True, 0, 0, 0, 0, cfg, "stabilized", trace)
        alive = cfg.n - len(source.dead)
        m = alive * (alive - 1) // 2

        stop_reason = "max_steps"
        while True:
            if fault_next is not None and fault_next <= steps:
                if faults.drain(steps):
                    last_change = last_output_change = steps
                fault_next = faults.next
                alive = cfg.n - len(source.dead)
                m = alive * (alive - 1) // 2
                # Re-check even for a no-op fault: the certificate may
                # have been suppressed only by the horizon gate.
                if steps >= faults.horizon and stabilized(cfg):
                    stop_reason = "stabilized"
                    break
            k = count()
            if k == 0:
                if fault_next is None or not (
                    faults.horizon > steps
                    or cfg.n_active_edges > 0
                    or faults.mutates_population
                ):
                    stop_reason = "quiescent"
                    break
                # Nothing can change before the next fault event: jump
                # the clock straight to it.  Population-mutating plans
                # always warrant the jump — an arrival can create
                # effective pairs out of nothing.
                jump = True
            else:
                if max_effective_steps is not None and effective >= max_effective_steps:
                    break
                if k == m:
                    skip = 0
                else:
                    # Number of failed (ineffective) picks before a success.
                    skip = int(log(1.0 - rng.random()) / log(1.0 - k / m))
                # A fault firing before the next effective pick: the
                # skip is memoryless, so jump to the fault and redraw.
                jump = fault_next is not None and steps + skip + 1 > fault_next
            if jump:
                if max_steps is not None and fault_next > max_steps:
                    steps = max_steps
                    break
                steps = fault_next
                continue
            if max_steps is not None and steps + skip + 1 > max_steps:
                steps = max_steps
                break
            steps += skip + 1
            event = fire(rng, steps)
            if event is None:
                # An effective pair may sample an identity outcome in a
                # probabilistic rule; the step still elapsed.
                continue
            effective += 1
            last_change = steps
            if _output_affected(out, event):
                last_output_change = steps
            if publish is not None:
                publish.interaction(event, cfg)
            since_check += 1
            if since_check >= check_interval:
                since_check = 0
                if stabilized(cfg) and faults.gate_open(steps):
                    stop_reason = "stabilized"
                    break
        if stop_reason == "max_steps" and require_convergence:
            raise ConvergenceError(
                f"{protocol.name} did not stabilize within budget (n={cfg.n})",
                steps,
            )
        return RunResult(
            stop_reason != "max_steps", steps, effective, last_change,
            last_output_change, cfg, stop_reason, trace,
        )


class AgitatedSimulator(_UniformEngine):
    """Event-driven engine for the uniform random scheduler.

    Maintains the set of effective pairs; each iteration advances the step
    counter by ``Geometric(p) - 1`` skipped ineffective steps with
    ``p = |effective| / m`` and then applies a uniformly chosen effective
    pair — exactly the law of the uniform random scheduler restricted to
    its effective picks.
    """

    #: Registry name, stamped into :class:`~repro.core.trace.RunMeta`.
    engine_name = "agitated"
    _source = _EffectivePairs
    # Bound in the class body so per-engine profiling (perfbench)
    # attributes the loop's time to this class.
    run = _UniformEngine.run


class IndexedSimulator(_UniformEngine):
    """State-indexed event-driven engine for the uniform random scheduler.

    Distributionally identical to :class:`SequentialSimulator` /
    :class:`AgitatedSimulator` under the uniform random scheduler: the
    step counter advances by the same ``Geometric(k/m) - 1`` skip, and the
    two-stage class-then-pair draw is exactly a uniform draw over the
    effective pairs.  The difference is the bookkeeping: instead of
    rescanning a changed node's ``n - 1`` partners, only the O(present
    states) class weights touching the changed states are recomputed and
    the changed node's O(degree) incident active edges re-filed.
    """

    #: Registry name, stamped into :class:`~repro.core.trace.RunMeta`.
    engine_name = "indexed"
    _source = _ClassCensus
    run = _UniformEngine.run  # see AgitatedSimulator.run


#: Engine registry: name -> engine class taking ``seed=`` and
#: ``faults=``.  The sequential engine additionally accepts a
#: ``scheduler`` and requires a finite ``max_steps`` budget.  Every
#: class declares ``supports(scenario)`` for capability-aware routing
#: (see :func:`repro.core.scenario.resolve_engine`).  The ``count``
#: engine registers itself from :mod:`repro.core.counting` (imported at
#: the bottom of this module), keeping the census/tau-leap machinery out
#: of this file while `ENGINES` stays the single registry.
ENGINES: dict[str, type] = {
    "sequential": SequentialSimulator,
    "agitated": AgitatedSimulator,
    "indexed": IndexedSimulator,
}


def make_engine(engine: str, seed: int | None = None):
    """Instantiate an engine from the :data:`ENGINES` registry by name."""
    try:
        cls = ENGINES[engine]
    except KeyError:
        raise SimulationError(
            f"unknown engine {engine!r}; choose from {sorted(ENGINES)}"
        ) from None
    return cls(seed=seed)


def run_summary(result: RunResult) -> dict:
    """The JSON-able terminal summary a driver publishes as the bus's
    ``run_finished`` payload."""
    return {
        "converged": result.converged,
        "steps": result.steps,
        "effective": result.effective_steps,
        "last_change": result.last_change_step,
        "last_output_change": result.last_output_change_step,
        "stop_reason": result.stop_reason,
    }


def run_to_convergence(
    protocol: Protocol,
    n: int,
    *,
    seed: int | None = None,
    max_steps: int | None = None,
    trace: Trace | None = None,
    bus: TraceBus | None = None,
    check_interval: int = 1,
    engine: str = "indexed",
    scenario=None,
) -> RunResult:
    """Convenience wrapper: run an engine (the state-indexed one by
    default) until the protocol stabilizes (raises
    :class:`ConvergenceError` if a finite ``max_steps`` budget is
    exhausted first).

    ``scenario`` selects the environment (scheduler, faults, initial
    configuration; see :mod:`repro.core.scenario`).  If the requested
    engine does not support the scenario the run is routed to a
    supporting engine — with a warning — instead of silently assuming
    the uniform random scheduler; scenario runs never raise on budget
    exhaustion (the record says ``converged=False`` instead).
    """
    if scenario is None or scenario.is_default:
        sim = make_engine(engine, seed=seed)
        config = None
        require_convergence = max_steps is not None
    else:
        from repro.core.scenario import make_scenario_engine, resolve_engine

        engine = resolve_engine(engine, scenario)
        sim = make_scenario_engine(engine, seed, scenario)
        config = scenario.build_initial(protocol, n)
        require_convergence = False
    result = sim.run(
        protocol,
        n,
        max_steps,
        config=config,
        trace=trace,
        bus=bus,
        check_interval=check_interval,
        require_convergence=require_convergence,
    )
    if bus is not None:
        # Engines publish start/interaction/census/fault; the driver
        # owns the terminal summary (one site instead of one per return).
        bus.run_finished(run_summary(result))
    return result


# Imported last so the two modules can reference each other: counting.py
# subclasses IndexedSimulator and registers the "count" engine in
# ENGINES at its own import time, whichever module is imported first.
from repro.core import counting as _counting  # noqa: E402,F401
