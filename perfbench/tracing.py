"""In-memory span recorder and attribute wrappers for the traced run.

A :class:`Tracer` replaces selected functions and methods of the
program with thin wrappers that record one span per call: name, start,
end and parent (the innermost open span of the same thread).  Spans
live in per-thread ``array`` buffers while the run is going and are
merged into one :class:`Spans` table when it ends.  :meth:`Tracer.restore`
puts every replaced attribute back exactly as it was.

Self time is a span's duration minus the part of its interval that its
child spans cover (:func:`self_times`); children that overlap are
counted once.
"""

from __future__ import annotations

import functools
import sys
import threading
import time
from array import array
from dataclasses import dataclass
from typing import Callable, Iterable

_MISSING = object()


class _Buffer:
    """Spans recorded by one thread; ``parent`` indexes this buffer."""

    __slots__ = ("name", "parent", "start", "end", "stack")

    def __init__(self) -> None:
        self.name = array("i")
        self.parent = array("q")
        self.start = array("d")
        self.end = array("d")
        self.stack: list[int] = []


@dataclass
class Spans:
    """Every recorded span, parents as indices into the same table."""

    names: list[str]
    name: array
    parent: array
    start: array
    end: array
    #: Per name id: calls folded into an enclosing same-group span.
    nested: list[int]

    def __len__(self) -> int:
        return len(self.name)


class Patches:
    """Attribute and item replacements that :meth:`restore` undoes,
    newest first.  Also a context manager that restores on exit."""

    def __init__(self) -> None:
        self._undo: list[Callable[[], None]] = []

    def patch(self, owner: object, attr: str, value: object) -> None:
        """Set ``owner.attr = value``, remembering how to undo it."""
        original = vars(owner).get(attr, _MISSING)

        def undo() -> None:
            if original is _MISSING:
                delattr(owner, attr)
            else:
                setattr(owner, attr, original)

        self._undo.append(undo)
        setattr(owner, attr, value)

    def patch_item(self, mapping: dict, key: object, value: object) -> None:
        """Set ``mapping[key] = value``, remembering how to undo it."""
        original = mapping[key]
        self._undo.append(lambda: mapping.__setitem__(key, original))
        mapping[key] = value

    def restore(self) -> None:
        """Undo every patch, newest first (idempotent)."""
        while self._undo:
            self._undo.pop()()

    def __enter__(self):
        return self

    def __exit__(self, *exc) -> None:
        self.restore()


class Tracer(Patches):
    """Records spans around wrapped callables; see the module docstring.

    ``counters`` holds plain counts added by :meth:`add` and by
    :meth:`counted` wrappers.
    """

    def __init__(self) -> None:
        super().__init__()
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self._buffers: list[_Buffer] = []
        self._lock = threading.Lock()
        self._local = threading.local()
        self.counters: dict[str, float] = {}
        #: Per span name id: calls folded into an enclosing span of the
        #: same group instead of being recorded.
        self.nested: list[int] = []
        self._group: list[int] = []
        self._group_ids: dict[str, int] = {}

    # -- recording -----------------------------------------------------
    def _id(self, name: str) -> int:
        nid = self._ids.get(name)
        if nid is None:
            nid = self._ids[name] = len(self.names)
            self.names.append(name)
            self.nested.append(0)
            group = name.split(":", 1)[0]
            self._group.append(self._group_ids.setdefault(group, len(self._group_ids)))
        return nid

    def _buffer(self) -> _Buffer:
        buf = getattr(self._local, "buf", None)
        if buf is None:
            buf = self._local.buf = _Buffer()
            with self._lock:
                self._buffers.append(buf)
        return buf

    def current(self) -> str | None:
        """Name of the innermost open span of the calling thread."""
        buf = self._buffer()
        if not buf.stack:
            return None
        return self.names[buf.name[buf.stack[-1]]]

    def traced(self, fn: Callable, name: str, hook: Callable | None = None) -> Callable:
        """``fn`` wrapped to record a span called ``name``; ``hook``, if
        given, sees ``(args, kwargs, result, tracer)`` after each call.

        Names are ``"<group>:<function>"``.  A call made while a span of
        the same group is innermost in the same thread is not recorded
        as a span of its own: its time stays in the enclosing span's
        self time, so the group's total is unchanged, only its count is
        kept in :attr:`nested`, and its hook does not run (the enclosing
        call's hook sees what it returned).  This keeps the span table
        small where a layer calls itself per interaction (``move_edge``
        -> ``add_edge``)."""
        nid = self._id(name)
        gid = self._group[nid]
        group_of = self._group
        nested = self.nested
        buffer_of = self._buffer
        clock = time.perf_counter
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            buf = buffer_of()
            stack = buf.stack
            if stack and group_of[buf.name[stack[-1]]] == gid:
                nested[nid] += 1
                return fn(*args, **kwargs)
            idx = len(buf.name)
            buf.name.append(nid)
            buf.parent.append(stack[-1] if stack else -1)
            buf.start.append(0.0)
            buf.end.append(0.0)
            stack.append(idx)
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                buf.start[idx] = t0
                buf.end[idx] = t1
            if hook is not None:
                hook(args, kwargs, result, tracer)
            return result

        return wrapper

    def add(self, counter: str, amount: float = 1) -> None:
        self.counters[counter] = self.counters.get(counter, 0) + amount

    # -- installing wrappers ---------------------------------------------
    def wrap_method(self, cls: type, attr: str, name: str, hook=None) -> None:
        """Trace ``cls.attr`` (a plain function in the class body)."""
        raw = cls.__dict__[attr]
        if isinstance(raw, staticmethod):
            self.patch(cls, attr, staticmethod(self.traced(raw.__func__, name, hook)))
        else:
            self.patch(cls, attr, self.traced(raw, name, hook))

    def wrap_function(self, fn: Callable, name: str, hook=None) -> Callable:
        """Trace a module-level function under every name the ``repro``
        modules bind it to (``from x import f`` copies the binding)."""
        wrapper = self.traced(fn, name, hook)
        for mod_name, module in list(sys.modules.items()):
            if module is None or not mod_name.startswith("repro"):
                continue
            for attr, value in list(vars(module).items()):
                if value is fn:
                    self.patch(module, attr, wrapper)
        return wrapper

    def counted(self, fn: Callable, counter: str, when: str | None = None) -> Callable:
        """``fn`` wrapped to bump ``counter`` per call (no span); with
        ``when``, only calls made inside a span of that name count."""
        tracer = self

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if when is None or tracer.current() == when:
                tracer.add(counter)
            return fn(*args, **kwargs)

        return wrapper

    # -- results -----------------------------------------------------------
    def spans(self) -> Spans:
        """All threads' spans merged into one table."""
        name, parent = array("i"), array("q")
        start, end = array("d"), array("d")
        for buf in self._buffers:
            offset = len(name)
            name.extend(buf.name)
            parent.extend(p + offset if p >= 0 else -1 for p in buf.parent)
            start.extend(buf.start)
            end.extend(buf.end)
        return Spans(list(self.names), name, parent, start, end, list(self.nested))


def covered(interval: tuple[float, float], children: Iterable[tuple[float, float]]) -> float:
    """Length of ``interval`` covered by the union of ``children``."""
    lo, hi = interval
    total = 0.0
    run_start = run_end = None
    for s, e in sorted(children):
        s, e = max(s, lo), min(e, hi)
        if e <= s:
            continue
        if run_end is None or s > run_end:
            if run_end is not None:
                total += run_end - run_start
            run_start, run_end = s, e
        elif e > run_end:
            run_end = e
    if run_end is not None:
        total += run_end - run_start
    return total


def self_times(spans: Spans) -> list[float]:
    """Per-span self time: duration minus the union of its children.

    Children are grouped by parent and sorted by start; where no child
    starts before its predecessor ends (always, for synchronous calls in
    one thread) the union is the plain sum, computed with numpy; other
    parents go through :func:`covered`."""
    import numpy as np

    n = len(spans)
    start = np.frombuffer(spans.start, dtype=np.float64, count=n)
    end = np.frombuffer(spans.end, dtype=np.float64, count=n)
    parent = np.frombuffer(spans.parent, dtype=np.int64, count=n)
    result = end - start
    kids = np.nonzero(parent >= 0)[0]
    if kids.size:
        order = kids[np.lexsort((start[kids], parent[kids]))]
        par = parent[order]
        lo = np.maximum(start[order], start[par])
        hi = np.minimum(end[order], end[par])
        length = np.clip(hi - lo, 0.0, None)
        same = np.zeros(order.size, dtype=bool)
        same[1:] = par[1:] == par[:-1]
        overlap = np.zeros(order.size, dtype=bool)
        overlap[1:] = same[1:] & (lo[1:] < hi[:-1])
        tangled = np.unique(par[overlap])
        plain = ~np.isin(par, tangled)
        np.subtract.at(result, par[plain], length[plain])
        for p in tangled.tolist():
            members = order[par == p]
            result[p] -= covered((spans.start[p], spans.end[p]),
                                 zip(start[members].tolist(), end[members].tolist()))
    return result.tolist()
