"""Canonicalization under node permutation, and the model checker's
explored graphs pinned bit for bit.

:func:`repro.verify.model.canonicalize` returns the lexicographically
smallest ``(states, sorted edges)`` relabeling of a configuration plus
one permutation realizing it.  The permutation is not arbitrary: it is
recorded on every transition label and composed into counterexample
schedules, so it must be the *first* minimizing permutation in the
reference enumeration order below (every within-block permutation, the
blocks being the equal-state node groups in state order, iterated by
``itertools.product`` over ``itertools.permutations``).  The brute-force
reference lives here and is the oracle for the fast search.

The graph pins hash the explored successor map, transition labels
(permutations included), BFS depths and report fields of fixed cells;
the counterexample pins hash witness listings.  The expected values
were recorded with the brute-force implementation and are fixed: a
mismatch means the checker's output changed, which needs a deliberate
decision, not a re-pin.
"""

from __future__ import annotations

import hashlib
import random
from itertools import permutations, product

import pytest

from repro.core.protocol import TableProtocol
from repro.protocols import registry
from repro.verify import canonicalize, explore, model_check
from repro.verify import model as model_module


# ----------------------------------------------------------------------
# Brute-force reference
# ----------------------------------------------------------------------

def _candidate_perms(states):
    """Permutations (node -> position) that sort the state vector, in
    the reference order: blocks of equal state in increasing state,
    each block's nodes permuted in ``itertools.permutations`` order."""
    n = len(states)
    order = sorted(range(n), key=lambda u: (states[u], u))
    blocks = []
    i = 0
    while i < n:
        j = i
        while j < n and states[order[j]] == states[order[i]]:
            j += 1
        blocks.append(order[i:j])
        i = j
    for combo in product(*(permutations(block) for block in blocks)):
        perm = [0] * n
        position = 0
        for block in combo:
            for u in block:
                perm[u] = position
                position += 1
        yield tuple(perm)


def brute_force_canonicalize(states, edges):
    n = len(states)
    best_key = best_perm = None
    for perm in _candidate_perms(states):
        new_states = [0] * n
        for u in range(n):
            new_states[perm[u]] = states[u]
        new_edges = tuple(sorted(
            (perm[u], perm[v]) if perm[u] < perm[v] else (perm[v], perm[u])
            for u, v in edges
        ))
        key = (tuple(new_states), new_edges)
        if best_key is None or key < best_key:
            best_key, best_perm = key, perm
    return best_key, best_perm


def _assert_matches_reference(states, edges):
    states = tuple(states)
    edges = set(edges)
    assert canonicalize(states, edges) == brute_force_canonicalize(
        states, edges
    ), (states, sorted(edges))


def _random_configuration(rng):
    n = rng.randint(1, 7)
    n_states = rng.randint(1, 3)
    density = rng.choice((0.0, 0.1, 0.3, 0.5, 0.7, 0.9, 1.0))
    states = tuple(rng.randrange(n_states) for _ in range(n))
    edges = {
        (u, v) for u in range(n) for v in range(u + 1, n)
        if rng.random() < density
    }
    return states, edges


# ----------------------------------------------------------------------
# Oracle tests
# ----------------------------------------------------------------------

@pytest.mark.parametrize("seed", range(4))
def test_random_configurations_match_brute_force(seed):
    rng = random.Random(seed)
    for _ in range(500):
        _assert_matches_reference(*_random_configuration(rng))


def _relabeled(states, edges, perm):
    new_states = [0] * len(states)
    for u, s in enumerate(states):
        new_states[perm[u]] = s
    return tuple(new_states), {
        (min(perm[u], perm[v]), max(perm[u], perm[v])) for u, v in edges
    }


def _shapes():
    """Tie-heavy configurations: every node's refinement signature
    equals many others', so the search must branch."""
    yield "isolated", (0,) * 7, set()
    yield "two-triangles", (0,) * 6, {
        (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)
    }
    yield "cliques-3-3-1", (0,) * 7, {
        (0, 1), (0, 2), (1, 2), (3, 4), (3, 5), (4, 5)
    }
    yield "cliques-2-2-2", (0,) * 6, {(0, 1), (2, 3), (4, 5)}
    yield "ring-7", (0,) * 7, {(u, (u + 1) % 7) if u < 6 else (0, 6)
                               for u in range(7)}
    yield "two-rings", (0,) * 7, {(0, 1), (1, 2), (0, 2), (3, 4), (4, 5),
                                  (5, 6), (3, 6)}
    yield "star", (0,) * 7, {(0, v) for v in range(1, 7)}
    yield "star-doped-center", (1,) + (0,) * 6, {(0, v) for v in range(1, 7)}
    yield "star-doped-leaf", (0,) * 6 + (1,), {(0, v) for v in range(1, 7)}
    yield "complete", (0,) * 7, {
        (u, v) for u in range(7) for v in range(u + 1, 7)
    }
    yield "two-state-ring", (0, 1) * 3, {(u, (u + 1) % 6) if u < 5
                                         else (0, 5) for u in range(6)}


@pytest.mark.parametrize(
    "states,edges", [shape[1:] for shape in _shapes()],
    ids=[shape[0] for shape in _shapes()],
)
def test_tie_heavy_shapes_match_brute_force(states, edges):
    _assert_matches_reference(states, edges)
    # Every relabeling of the shape, drawn at random, too: the winning
    # permutation depends on the input numbering.
    rng = random.Random(len(states) * 1000 + len(edges))
    for _ in range(20):
        perm = list(range(len(states)))
        rng.shuffle(perm)
        _assert_matches_reference(*_relabeled(states, edges, perm))


ORACLE_CELLS = (
    ("simple-global-line", 6),
    ("global-star", 5),
    ("global-ring", 6),
    ("c-cliques", 6),
    ("2rc", 5),
    ("ft-global-line", 4),
)


@pytest.mark.parametrize(
    "spec,n", ORACLE_CELLS, ids=[f"{s}-n{n}" for s, n in ORACLE_CELLS]
)
def test_every_explored_configuration_matches_brute_force(
    spec, n, monkeypatch
):
    """Every (pre-canonical) successor ``explore`` hands to
    ``canonicalize`` gets the reference answer."""
    seen = []
    real = model_module.canonicalize

    def recording(states, edges):
        seen.append((tuple(states), frozenset(edges)))
        return real(states, edges)

    monkeypatch.setattr(model_module, "canonicalize", recording)
    explore(registry.instantiate(spec), n)
    assert seen
    for states, edges in set(seen):
        _assert_matches_reference(states, edges)


# ----------------------------------------------------------------------
# Explored-graph pins
# ----------------------------------------------------------------------

def _graph_digest(spec, n, monkeypatch):
    """sha256 over the explored graph (after any edge-loss pass
    extended it) and the report of ``model_check(spec, n)``."""
    graphs = []
    real = model_module.explore

    def capture(*args, **kwargs):
        graph = real(*args, **kwargs)
        graphs.append(graph)
        return graph

    monkeypatch.setattr(model_module, "explore", capture)
    report = model_check(registry.instantiate(spec), n)
    (graph,) = graphs
    h = hashlib.sha256()
    for part in (
        sorted((key, sorted(children)) for key, children in graph.succ.items()),
        sorted(graph.labels.items()),
        sorted(graph.depth.items()),
        (
            report.protocol, report.n, report.n_configs,
            report.n_transitions, report.n_sccs, report.n_terminal_sccs,
            report.target, report.checked,
            [(v.kind, v.detail) for v in report.violations],
        ),
    ):
        h.update(repr(part).encode())
        h.update(b"\x00")
    return h.hexdigest()


#: (protocol, n) -> sha256, recorded with the brute-force canonicalize.
EXPECTED_GRAPHS = {
    ("2rc", 6): "248b8f17131ca160097f2330a73c8098932d24c4e75407d3af4d5b828a6d38b2",
    ("c-cliques", 8): "04497083b8dbe95a4e6c2f5f3f047e9f7209147cf11f1b0adca34b81727176be",
    ("fast-global-line", 8): "14cd9059e951cd3461cd7793ec17b6b76fdadc87a4b56873a811ff2da368f294",
    ("faster-global-line", 8): "bb6f298286f8e9475dce39d3e60fc77176440aa8cf2870a08d6ca77c3eeafdff",
    ("global-ring", 8): "e73cddee6237151f213467434558b7236ca421ec2160d8447fa2d186d964e15e",
    ("simple-global-line", 8): "ef1f8e008adf1bc645b1871b20ec531f52f8a9036946b2a61a10c1a0446f4978",
    ("global-star", 5): "7902daa9c28738b22ae33ed86052db4186e5ea50420fbdebaab803eecc811804",
    ("global-star", 6): "3d311bbeda73dc99edd9a6d9a14835c94e7b3d98fdc4e91cfdf6d0ffe6bdf070",
    ("ft-global-line", 5): "5061f0ccfda16000c10b6f211206c9eb84e9cc5b8921a83e916cc2eaed86751a",
    ("ft-global-line", 6): "1718b20b98f16b2b2d16aa0e0265ca58d6490ad35f634675b3e55d9cafc78ebb",
    ("rc-global-line", 6): "049f4bef576cdf256dfb5a60916459e71bae48a5ea3f4b821da7edc99db77a87",
}


@pytest.mark.parametrize(
    "spec,n", sorted(EXPECTED_GRAPHS),
    ids=[f"{s}-n{n}" for s, n in sorted(EXPECTED_GRAPHS)],
)
def test_explored_graph_is_pinned(spec, n, monkeypatch):
    assert _graph_digest(spec, n, monkeypatch) == EXPECTED_GRAPHS[(spec, n)]


# ----------------------------------------------------------------------
# Counterexample pins
# ----------------------------------------------------------------------

class Unsound(TableProtocol):
    def __init__(self):
        super().__init__(
            name="unsound", initial_state="a",
            rules={("a", "a", 0): ("b", "b", 1)},
        )

    def stabilized(self, config):
        return True  # accepts even before the edge appears


class BrittleLine(TableProtocol):
    fault_claims = ("edge-loss",)

    def __init__(self):
        base = registry.instantiate("simple-global-line")
        super().__init__(
            name="brittle-line", initial_state="q0", rules=dict(base.rules())
        )


def _sgl_without(deleted):
    rules = dict(registry.instantiate("simple-global-line").rules())
    del rules[deleted]
    return TableProtocol(
        name=f"sgl-minus-{deleted}", initial_state="q0", rules=rules
    )


#: name -> (protocol factory, n, target, violation kind)
WITNESS_CELLS = {
    "unsound": (Unsound, 3, None, "fairness-closure"),
    "brittle-line": (BrittleLine, 4, "spanning-line", "edge-loss-recovery"),
    "sgl-minus-l-l-0": (
        lambda: _sgl_without(("l", "l", 0)), 5, "spanning-line",
        "terminal-scc",
    ),
    "sgl-minus-w-q1-1": (
        lambda: _sgl_without(("w", "q1", 1)), 5, "spanning-line",
        "terminal-scc",
    ),
}

#: The Unsound certificate's fairness-closure witness, verbatim.
UNSOUND_LISTING = """\
counterexample [fairness-closure] for unsound at n=3: stabilized() accepts \
a configuration from which interaction (0, 1) can still change the output \
graph: certificate is unsound for output stability
  initial: states=['a', 'a', 'a'], edges=[]
  step 1: (0, 1) 'a','a' -> 'b','b', edge 0->1
  final: states=['b', 'b', 'a'], edges=[(0, 1)]"""

#: name -> sha256 of the first witness listing of the cell's kind.
EXPECTED_WITNESSES = {
    "brittle-line": "687b2fd619f416a727e138cb03c05dcac790274a6836408c590102e3ced71cac",
    "sgl-minus-l-l-0": "c4c70a0a6aa4aca14c6c31ade34b625340c3dba5503ee2989e24818440aadd75",
    "sgl-minus-w-q1-1": "d210afacf18e8a60894b9f3a96ff0b462e023f9d2fa74fa22c9e968f4ed9edf8",
    "unsound": "1a032a90add183e9d7177eacabfcb6cf11fe1cb8fc30f79d28b1c49af1fa950a",
}


def _witness_listing(name):
    factory, n, target, kind = WITNESS_CELLS[name]
    report = model_check(factory(), n, target=target)
    witness = next(
        v.counterexample for v in report.violations
        if v.kind == kind and v.counterexample is not None
    )
    return witness.format()


def test_unsound_witness_listing_is_pinned():
    assert _witness_listing("unsound") == UNSOUND_LISTING


@pytest.mark.parametrize("name", sorted(EXPECTED_WITNESSES))
def test_witness_listing_is_pinned(name):
    listing = _witness_listing(name)
    assert hashlib.sha256(listing.encode()).hexdigest() == (
        EXPECTED_WITNESSES[name]
    )
