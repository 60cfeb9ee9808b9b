"""The indexed engine's census stays exact at every step of a run.

A checking pair source re-derives the whole :class:`PairClassIndex`
census by brute force after every effective interaction and after every
fault hook (crash, recover, edge loss, arrival, byzantine lie), and
checks the flat buckets against their position maps.  The
dense-class fallback of :meth:`PairClassIndex.sample_pair` is tested on
its own at the end.
"""

from __future__ import annotations

import random
from collections import Counter

import pytest

from repro.core.faults import DEAD
from repro.core.indexing import _REJECTION_CAP, PairClassIndex
from repro.core.scenario import Scenario
from repro.core.simulator import IndexedSimulator, _ClassCensus
from repro.protocols.registry import instantiate


class _CheckedCensus(_ClassCensus):
    """A census that audits itself after each change and counts the
    effective interactions and fault hooks it audited."""

    def __init__(self, protocol, cfg) -> None:
        super().__init__(protocol, cfg)
        self.protocol = protocol
        self.audits: Counter = Counter()
        self.audit("init")

    def audit(self, what: str) -> None:
        self.audits[what] += 1
        assert_coherent(self)

    def fire(self, rng, step):
        event = super().fire(rng, step)
        if event is not None:
            self.audit("interaction")
        return event

    def remove_node(self, w, nbrs, moves) -> None:
        super().remove_node(w, nbrs, moves)
        self.audit("crash")

    def remove_edge(self, a, b, moves) -> None:
        super().remove_edge(a, b, moves)
        self.audit("cut")

    def move_node(self, w, state) -> None:
        super().move_node(w, state)
        self.audit("corrupt")

    def revive_node(self, w, state) -> None:
        super().revive_node(w, state)
        self.audit("revive")


def assert_coherent(census: _ClassCensus) -> None:
    """``total`` and every weight equal a brute-force count over the
    alive pairs, and every bucket agrees with its position map."""
    index, cfg, sid, dead = census.index, census.cfg, census.sid, census.dead
    alive = [u for u in range(cfg.n) if u not in dead]
    for u in range(cfg.n):
        if u in dead:
            assert cfg.state(u) == DEAD
        else:
            assert census.state_of(sid[u]) == cfg.state(u)

    expected: Counter = Counter()
    for i, u in enumerate(alive):
        for v in alive[i + 1 :]:
            c = cfg.edge_state(u, v)
            if census.protocol.is_effective(cfg.state(u), cfg.state(v), c):
                lo, hi = sorted((sid[u], sid[v]))
                expected[(lo, hi, c)] += 1
    assert index.weights == dict(expected)
    assert index.total == sum(expected.values())

    filed = []
    for state, bucket in index.nodes.items():
        assert bucket, f"empty node bucket for state {state}"
        for pos, u in enumerate(bucket):
            assert index.node_pos[u] == pos
            assert sid[u] == state
            filed.append(u)
    assert sorted(filed) == alive
    assert len(index.node_pos) == len(alive)

    filed_edges = []
    for key, bucket in index.edges.items():
        assert bucket, f"empty edge bucket for class {key}"
        for pos, (u, v) in enumerate(bucket):
            assert u < v
            assert index.edge_pos[(u, v)] == pos
            assert tuple(sorted((sid[u], sid[v]))) == key
            filed_edges.append((u, v))
    assert sorted(filed_edges) == sorted(cfg.active_edges())
    assert len(index.edge_pos) == len(filed_edges)


class _CheckedIndexed(IndexedSimulator):
    def run(self, protocol, n, max_steps=None, **options):
        # Keep the source to read its audit counts after the run.
        sources = []

        def source(protocol, cfg):
            sources.append(_CheckedCensus(protocol, cfg))
            return sources[-1]

        self._source = source
        result = super().run(protocol, n, max_steps, **options)
        self.audits = sources[0].audits
        return result


#: name -> (protocol spec, fault specs, n, fault hooks that must fire).
#: Runs ignore the stabilization certificate and stop on quiescence or
#: after EFFECTIVE interactions (or BUDGET steps).
CELLS = {
    "line-crash": ("simple-global-line", ("crash:count=2,at=300",), 12, {"crash"}),
    "crash": ("2rc", ("crash:count=3,at=200",), 14, {"crash"}),
    "recover": (
        "2rc", ("crash:count=3,at=150", "recover:count=3,at=600"), 14,
        {"crash", "revive"},
    ),
    "churn": ("2rc", ("churn:rate=0.01",), 12, {"crash", "revive"}),
    "edge-drop": ("ft-global-line", ("edge-drop:rate=0.02",), 12, {"cut"}),
    "arrive": ("c-cliques", ("arrive:count=4,at=100",), 12, {"revive"}),
    "byzantine": (
        "ft-global-line", ("byzantine:count=2,rate=0.05,lie=0.5",), 12,
        {"corrupt", "cut"},
    ),
    "star-crash": ("global-star", ("crash:count=4,at=40",), 16, {"crash"}),
}
EFFECTIVE = 600
BUDGET = 50_000


@pytest.mark.parametrize("cell", sorted(CELLS))
@pytest.mark.parametrize("seed", [0, 1])
def test_census_matches_brute_force_at_every_step(cell, seed):
    spec, faults, n, hooks = CELLS[cell]
    engine = _CheckedIndexed(seed=seed, faults=Scenario(faults=faults).make_faults())
    result = engine.run(
        instantiate(spec), n, BUDGET,
        max_effective_steps=EFFECTIVE, stop=lambda cfg: False,
    )
    assert result.effective_steps > 0
    assert engine.audits["interaction"] == result.effective_steps
    for hook in hooks:
        assert engine.audits[hook] > 0, (hook, dict(engine.audits))


class TestDenseClassFallback:
    """A class of mostly active edges defeats rejection sampling; the
    enumeration fallback must still return only non-edges, uniformly."""

    @staticmethod
    def draw(index, key, active, draws=300):
        probes = []

        def edge_state(u, v):
            probes[-1] += 1
            return 1 if (min(u, v), max(u, v)) in active else 0

        rng = random.Random(7)
        seen = Counter()
        for _ in range(draws):
            probes.append(0)
            u, v = index.sample_pair(key, rng, edge_state)
            seen[(min(u, v), max(u, v))] += 1
        # The fallback probes every candidate pair after the capped
        # rejection attempts; make sure it carried most draws.
        fell_back = sum(1 for p in probes if p > _REJECTION_CAP)
        assert fell_back > draws // 2
        return seen

    def test_same_state_class(self):
        k = 40
        index = PairClassIndex(lambda a, b, c: True)
        for u in range(k):
            index.add_node(u, 0)
        holes = {(3, 17), (8, 29)}
        active = {
            (u, v) for u in range(k) for v in range(u + 1, k)
        } - holes
        for u, v in active:
            index.add_edge(u, v, 0, 0)
        index.rebuild()
        assert index.weights[(0, 0, 0)] == 2
        seen = self.draw(index, (0, 0, 0), active)
        assert set(seen) == holes
        assert min(seen.values()) > 50

    def test_two_state_class(self):
        index = PairClassIndex(lambda a, b, c: True)
        left, right = range(0, 30), range(30, 60)
        for u in left:
            index.add_node(u, 0)
        for v in right:
            index.add_node(v, 1)
        holes = {(2, 41), (19, 30)}
        active = {(u, v) for u in left for v in right} - holes
        for u, v in active:
            index.add_edge(u, v, 0, 1)
        index.rebuild()
        assert index.weights[(0, 1, 0)] == 2
        seen = self.draw(index, (0, 1, 0), active)
        assert set(seen) == holes
