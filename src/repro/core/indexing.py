"""Incremental indexes for event-driven simulation.

Two data structures back the :class:`~repro.core.simulator.IndexedSimulator`
and the incremental bookkeeping on :class:`~repro.core.configuration.Configuration`:

* :class:`IndexedSet` — a set with O(1) add / discard / membership *and*
  O(1) uniform random sampling (list + position dict with swap-remove).
  :class:`~repro.core.configuration.Configuration` and the agitated
  engine use it.
* :class:`PairClassIndex` — a census of the candidate interaction pairs of
  a population, grouped into *state classes* ``(a, b, c)``: the unordered
  pair of node states plus the edge status between them.  Effectiveness of
  an interaction depends only on its class, so the set of effective pairs
  can be tracked as a handful of per-class counts instead of per-pair
  entries:

  - pairs over an **active** edge are indexed explicitly per class (there
    are at most ``n - 1`` active edges in the sparse constructions of the
    paper, and never more than the edges actually present);
  - pairs over a **non-edge** are counted *combinatorially* from the
    per-state node counts minus the active-edge count of the class —
    no per-pair storage at all.

  Sampling a uniformly random effective pair is then: draw a class with
  probability proportional to its pair count, then a uniform pair within
  the class (directly for edge classes, by rejection against the active
  adjacency for non-edge classes).  Maintenance after an interaction is
  O(present states) + O(degree of the changed nodes) instead of the O(n)
  per-node rescans of :class:`~repro.core.simulator.AgitatedSimulator`.

**Flat buckets.**  The census keeps its buckets as plain lists: one list
of node ids per present state (``nodes``) and one list of active edges
``(u, v)``, ``u < v``, per state pair (``edges``), with a single
node -> position map and a single edge -> position map beside them —
every node and every active edge sits in exactly one bucket.  Each state
pair's effective classes are asked of the oracle once and cached.  An
interaction costs one :meth:`PairClassIndex.move_node` call per node
that changed state (the node is re-filed together with its active
edges) and one :meth:`PairClassIndex.refresh_involving` call, which
recomputes the touched class weights inline.

**Load-bearing orders.**  A seeded run draws positions in these lists
(``rng.randrange(len(bucket))``) and walks ``weights`` in insertion order
to pick a class, so the orders below decide which pair a given random
draw selects.  Changing any of them keeps every run correct in law but
changes every seeded output, which ``tests/test_engine_digests.py`` pins:

- removal is swap-remove: the bucket's last element takes the freed
  position, and an addition appends;
- an edge move re-files the node's edges in neighbour order, before the
  node itself; a bucket left empty is deleted from ``nodes``/``edges``
  (so a state that reappears goes to the end of ``nodes``, whose key
  order seeds the class order of :meth:`PairClassIndex.rebuild` and of
  ``set(nodes)``);
- a refreshed effective class is popped from ``weights`` and re-inserted
  at the end even when its weight did not change, c=0 before c=1, and
  dropped when its weight is zero;
- :meth:`PairClassIndex.refresh_involving` visits classes in the order
  ``for x in states: for t in set(nodes) | states``, each state pair once.

States here are the dense integer ids produced by
:meth:`repro.core.protocol.Protocol.compile`; the index never looks at raw
state values.
"""

from __future__ import annotations

import random
from typing import Callable, Hashable, Iterable, Iterator, Sequence


class IndexedSet:
    """A set with O(1) add/discard/contains and O(1) uniform sampling."""

    __slots__ = ("_items", "_index")

    def __init__(self) -> None:
        self._items: list[Hashable] = []
        self._index: dict[Hashable, int] = {}

    def __len__(self) -> int:
        return len(self._items)

    def __contains__(self, item: Hashable) -> bool:
        return item in self._index

    def __iter__(self) -> Iterator[Hashable]:
        return iter(self._items)

    def add(self, item: Hashable) -> None:
        if item not in self._index:
            self._index[item] = len(self._items)
            self._items.append(item)

    def discard(self, item: Hashable) -> None:
        idx = self._index.pop(item, None)
        if idx is None:
            return
        last = self._items.pop()
        if idx < len(self._items):
            self._items[idx] = last
            self._index[last] = idx

    def sample(self, rng: random.Random):
        """A uniformly random element (the set must be non-empty)."""
        return self._items[rng.randrange(len(self._items))]

    def copy(self) -> "IndexedSet":
        clone = IndexedSet.__new__(IndexedSet)
        clone._items = list(self._items)
        clone._index = dict(self._index)
        return clone


#: Effectiveness oracle over interned state-id triples ``(a, b, c)``.
EffectivenessOracle = Callable[[int, int, int], bool]

#: How many rejection attempts to make when sampling a non-edge pair
#: before falling back to explicit enumeration.  Per-attempt success
#: probability is (non-edge pairs)/(all pairs) of the class; whenever it
#: is >= 1/2 the fallback's probability is 2^-64.  A class that is
#: mostly active edges (a near-complete same-state cluster) can push the
#: success probability low and make the O(class size^2) enumeration the
#: common path for that class — correct but slow; the paper's sparse
#: constructions (<= n-1 active edges) never approach that regime.
_REJECTION_CAP = 64

#: The cached classes of a state pair with no effective class.
_INERT: tuple[None, None] = (None, None)


class PairClassIndex:
    """Candidate-pair census grouped by state class ``(a, b, c)``.

    Parameters
    ----------
    is_effective:
        Memoized oracle ``(a_id, b_id, c) -> bool``; only effective
        classes contribute weight (their pair count) to :attr:`total`.
    """

    __slots__ = (
        "_eff", "_classes", "nodes", "node_pos", "edges", "edge_pos",
        "weights", "total",
    )

    def __init__(self, is_effective: EffectivenessOracle) -> None:
        self._eff = is_effective
        #: (lo, hi) -> the weight keys ``(lo, hi, c)`` of its effective
        #: classes at c=0 and c=1 (``None`` where ineffective)
        self._classes: dict[tuple[int, int], tuple] = {}
        #: state id -> list of its node ids (present states only)
        self.nodes: dict[int, list[int]] = {}
        #: node id -> its position in its state's list
        self.node_pos: dict[int, int] = {}
        #: (lo, hi) state-id pair -> list of active edges (u, v), u < v
        self.edges: dict[tuple[int, int], list[tuple[int, int]]] = {}
        #: active edge (u, v), u < v -> its position in its class's list
        self.edge_pos: dict[tuple[int, int], int] = {}
        #: (lo, hi, c) -> number of candidate pairs, effective classes only
        self.weights: dict[tuple[int, int, int], int] = {}
        #: total number of effective pairs
        self.total = 0

    # ------------------------------------------------------------------
    # Structural updates (no weight maintenance; call refresh_* after)
    # ------------------------------------------------------------------
    def add_node(self, u: int, state: int) -> None:
        bucket = self.nodes.get(state)
        if bucket is None:
            bucket = self.nodes[state] = []
        self.node_pos[u] = len(bucket)
        bucket.append(u)

    def move_node(
        self, u: int, old: int, new: int,
        nbrs: Iterable[int] = (), sid: Sequence[int] = (),
    ) -> None:
        """Move ``u`` from state ``old`` to ``new``, and re-file its
        active edges to ``nbrs`` (neighbour ``x`` is in state ``sid[x]``)
        from their ``old`` classes to their ``new`` ones, in ``nbrs``
        order, before the node itself.  The per-interaction hot path:
        the swap-removes of :func:`_discard` are inlined."""
        edges, edge_pos = self.edges, self.edge_pos
        for x in nbrs:
            sx = sid[x]
            edge = (u, x) if u < x else (x, u)
            key = (old, sx) if old <= sx else (sx, old)
            bucket = edges[key]
            pos = edge_pos[edge]
            last = bucket.pop()
            if pos < len(bucket):
                bucket[pos] = last
                edge_pos[last] = pos
            elif not bucket:
                del edges[key]
            key = (new, sx) if new <= sx else (sx, new)
            bucket = edges.get(key)
            if bucket is None:
                bucket = edges[key] = []
            edge_pos[edge] = len(bucket)
            bucket.append(edge)
        nodes, node_pos = self.nodes, self.node_pos
        bucket = nodes[old]
        pos = node_pos[u]
        last = bucket.pop()
        if pos < len(bucket):
            bucket[pos] = last
            node_pos[last] = pos
        elif not bucket:
            del nodes[old]
        bucket = nodes.get(new)
        if bucket is None:
            bucket = nodes[new] = []
        node_pos[u] = len(bucket)
        bucket.append(u)

    def remove_node(self, u: int, state: int) -> None:
        """Drop ``u`` from the census entirely (crash-stop faults): the
        node stops contributing candidate pairs of any class."""
        bucket = self.nodes.get(state)
        if bucket is not None and _discard(bucket, self.node_pos, u):
            del self.nodes[state]

    def add_edge(self, u: int, v: int, su: int, sv: int) -> None:
        key = (su, sv) if su <= sv else (sv, su)
        bucket = self.edges.get(key)
        if bucket is None:
            bucket = self.edges[key] = []
        edge = (u, v) if u < v else (v, u)
        self.edge_pos[edge] = len(bucket)
        bucket.append(edge)

    def remove_edge(self, u: int, v: int, su: int, sv: int) -> None:
        key = (su, sv) if su <= sv else (sv, su)
        bucket = self.edges.get(key)
        edge = (u, v) if u < v else (v, u)
        if bucket is not None and _discard(bucket, self.edge_pos, edge):
            del self.edges[key]

    def move_edge(self, u: int, v: int, old_su: int, sv: int, new_su: int) -> None:
        """Re-file the active edge ``(u, v)`` after ``u`` moved state."""
        self.remove_edge(u, v, old_su, sv)
        self.add_edge(u, v, new_su, sv)

    # ------------------------------------------------------------------
    # Weight maintenance
    # ------------------------------------------------------------------
    def _classes_of(self, lo: int, hi: int) -> tuple:
        """Cache and return the effective-class keys of ``{lo, hi}``:
        the oracle is asked at c=0, then c=1, once per state pair."""
        eff0, eff1 = self._eff(lo, hi, 0), self._eff(lo, hi, 1)
        if eff0 or eff1:
            classes = ((lo, hi, 0) if eff0 else None, (lo, hi, 1) if eff1 else None)
        else:
            classes = _INERT
        self._classes[(lo, hi)] = classes
        return classes

    def refresh_pair(self, a: int, b: int) -> None:
        """Recompute the weights of both classes over the state pair."""
        lo, hi = (a, b) if a <= b else (b, a)
        key = (lo, hi)
        classes = self._classes.get(key)
        if classes is None:
            classes = self._classes_of(lo, hi)
        if classes is _INERT:
            return
        nodes = self.nodes
        bucket = nodes.get(lo)
        na = len(bucket) if bucket is not None else 0
        if lo == hi:
            pairs = na * (na - 1) // 2
        else:
            bucket = nodes.get(hi)
            pairs = na * len(bucket) if bucket is not None else 0
        bucket = self.edges.get(key)
        n_edges = len(bucket) if bucket is not None else 0
        weights = self.weights
        for ckey, weight in zip(classes, (pairs - n_edges, n_edges)):
            if ckey is not None:
                old = weights.pop(ckey, 0)
                if weight:
                    weights[ckey] = weight
                self.total += weight - old

    def refresh_involving(self, states: set[int]) -> None:
        """Recompute every class that involves one of ``states``.

        Called after node state changes: only classes touching an old or
        new state of a changed node can have gained or lost pairs.  The
        visiting order is load-bearing (see the module docstring): for
        each ``x`` in ``states``, every ``t`` in ``set(nodes) | states``
        whose pair with ``x`` an earlier ``x`` did not already visit."""
        nodes, edges, weights = self.nodes, self.edges, self.weights
        cache = self._classes
        targets = set(nodes)
        targets.update(states)
        total = self.total
        done: list[int] = []
        for x in states:
            bucket = nodes.get(x)
            nx = len(bucket) if bucket is not None else 0
            for t in targets:
                if t in done:
                    continue
                if x <= t:
                    lo, hi = x, t
                else:
                    lo, hi = t, x
                key = (lo, hi)
                classes = cache.get(key)
                if classes is None:
                    classes = self._classes_of(lo, hi)
                if classes is _INERT:
                    continue
                if t == x:
                    pairs = nx * (nx - 1) // 2
                else:
                    bucket = nodes.get(t)
                    pairs = nx * len(bucket) if bucket is not None else 0
                bucket = edges.get(key)
                n_edges = len(bucket) if bucket is not None else 0
                ckey, ekey = classes
                if ckey is not None:
                    weight = pairs - n_edges
                    old = weights.pop(ckey, 0)
                    if weight:
                        weights[ckey] = weight
                    total += weight - old
                if ekey is not None:
                    old = weights.pop(ekey, 0)
                    if n_edges:
                        weights[ekey] = n_edges
                    total += n_edges - old
            done.append(x)
        self.total = total

    def rebuild(self) -> None:
        """Recompute all weights from scratch (initialization)."""
        self.weights.clear()
        self.total = 0
        present = list(self.nodes)
        for i, a in enumerate(present):
            for b in present[i:]:
                self.refresh_pair(a, b)

    # ------------------------------------------------------------------
    # Sampling
    # ------------------------------------------------------------------
    def sample_class(self, rng: random.Random) -> tuple[int, int, int]:
        """Draw a class with probability proportional to its pair count."""
        r = rng.randrange(self.total)
        for key, weight in self.weights.items():
            r -= weight
            if r < 0:
                return key
        raise AssertionError("PairClassIndex weights out of sync with total")

    def sample_pair(
        self,
        key: tuple[int, int, int],
        rng: random.Random,
        edge_state: Callable[[int, int], int],
    ) -> tuple[int, int]:
        """A uniform pair within class ``key``; the first node returned is
        in state ``key[0]``, the second in ``key[1]`` (for edge classes the
        orientation is by node id — callers resolve rules by state)."""
        lo, hi, c = key
        randrange = rng.randrange
        if c == 1:
            bucket = self.edges[(lo, hi)]
            return bucket[randrange(len(bucket))]
        a = self.nodes[lo]
        b = self.nodes[hi]
        na, nb = len(a), len(b)
        for _ in range(_REJECTION_CAP):
            u = a[randrange(na)]
            v = b[randrange(nb)]
            if u == v:
                continue
            if not edge_state(u, v):
                return (u, v)
        # Dense class: most candidate pairs are active edges.  Enumerate
        # the non-edges explicitly; this path is cold by construction.
        if lo == hi:
            candidates = [
                (u, v)
                for i, u in enumerate(a)
                for v in a[i + 1 :]
                if not edge_state(u, v)
            ]
        else:
            candidates = [
                (u, v) for u in a for v in b if not edge_state(u, v)
            ]
        return candidates[randrange(len(candidates))]


def _discard(bucket: list, pos: dict, item) -> bool:
    """Swap-remove ``item`` (if filed) from ``bucket``, keeping the
    position map ``pos`` in step; True when ``bucket`` is left empty."""
    at = pos.pop(item, None)
    if at is None:
        return False
    last = bucket.pop()
    if at < len(bucket):
        bucket[at] = last
        pos[last] = at
    return not bucket
