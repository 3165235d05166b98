"""Span recorder installed around the public functions of ``kramers_gl``.

The recorder wraps every public function of the six layers and replaces
each binding of the original function in every package module, because
the modules bind names with ``from .x import y`` (``rates.solve_m_from_L``
and ``instanton.elliptic_K`` are separate bindings of the same function).
Span stacks are thread-local since ``sweep`` evaluates rows on a thread
pool; a span opened on a thread with an empty stack takes the innermost
open span of the installing (client) thread as its parent. Spans stay in
memory until the caller dumps them.
"""

from __future__ import annotations

import contextlib
import functools
import importlib
import inspect
import itertools
import threading
import time

LAYERS = ("specfun", "instanton", "spectrum", "rates", "simulator", "cli")

# Spans of these functions keep one attribute of their result, which is
# how sweep rows are classified as uniform or instanton rows.
_RESULT_TAGS = {"rates.prefactor_corrected": "regime"}


class Span:
    __slots__ = ("id", "parent", "name", "thread", "start", "end", "tag")

    def __init__(self, id, parent, name, thread, start, end=0, tag=None):
        self.id = id
        self.parent = parent
        self.name = name
        self.thread = thread
        self.start = start
        self.end = end
        self.tag = tag

    @property
    def duration(self) -> int:
        return self.end - self.start

    @property
    def layer(self) -> str:
        return self.name.split(".", 1)[0]

    def to_list(self) -> list:
        return [self.id, self.parent, self.name, self.thread, self.start, self.end, self.tag]

    @classmethod
    def from_list(cls, item) -> "Span":
        return cls(*item)


class Tracer:
    """Collects spans (times in perf_counter nanoseconds) in memory."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._client_stack: list[Span] = []
        self._client_thread = threading.get_ident()

    def _stack(self) -> list:
        if threading.get_ident() == self._client_thread:
            return self._client_stack
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def wrap(self, name: str, fn):
        tag_attr = _RESULT_TAGS.get(name)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            stack = self._stack()
            if stack:
                parent = stack[-1].id
            elif self._client_stack:
                parent = self._client_stack[-1].id
            else:
                parent = None
            span = Span(next(self._ids), parent, name, threading.get_ident(), 0)
            stack.append(span)
            span.start = time.perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                span.end = time.perf_counter_ns()
                stack.pop()
                self.spans.append(span)
            if tag_attr is not None:
                span.tag = getattr(result, tag_attr, None)
            return result

        return traced


def public_functions(module) -> dict:
    """name -> function for the functions a module defines without a leading underscore."""
    return {
        name: obj
        for name, obj in vars(module).items()
        if inspect.isfunction(obj)
        and obj.__module__ == module.__name__
        and not name.startswith("_")
    }


@contextlib.contextmanager
def installed(tracer: Tracer, replacements: dict | None = None):
    """Wrap every public layer function at every import site for the block.

    ``replacements`` maps "layer.function" to a substitute that is wrapped
    and installed in place of the original (used for the RNG timing proxy).
    """
    import kramers_gl

    layer_modules = {layer: importlib.import_module(f"kramers_gl.{layer}") for layer in LAYERS}
    wrappers = {}
    for layer, module in layer_modules.items():
        for name, fn in public_functions(module).items():
            qual = f"{layer}.{name}"
            target = (replacements or {}).get(qual, fn)
            wrappers[id(fn)] = tracer.wrap(qual, target)
    saved = []
    for module in (kramers_gl, *layer_modules.values()):
        for attr, value in list(vars(module).items()):
            wrapper = wrappers.get(id(value))
            if wrapper is not None:
                saved.append((module, attr, value))
                setattr(module, attr, wrapper)
    try:
        yield tracer
    finally:
        for module, attr, value in saved:
            setattr(module, attr, value)


# ---------------------------------------------------------------------------
# analysis
# ---------------------------------------------------------------------------


def _covered(intervals, lo: int, hi: int) -> int:
    """Length of the union of intervals, clipped to [lo, hi]."""
    total = 0
    cur_lo = cur_hi = None
    for a, b in sorted(intervals):
        a, b = max(a, lo), min(b, hi)
        if b <= a:
            continue
        if cur_hi is None or a > cur_hi:
            if cur_hi is not None:
                total += cur_hi - cur_lo
            cur_lo, cur_hi = a, b
        else:
            cur_hi = max(cur_hi, b)
    if cur_hi is not None:
        total += cur_hi - cur_lo
    return total


class SpanTree:
    """Parent/child index over a list of spans, with self times."""

    def __init__(self, spans):
        self.spans = sorted(spans, key=lambda s: (s.start, s.id))
        self.children: dict = {}
        for s in self.spans:
            self.children.setdefault(s.parent, []).append(s)

    def self_ns(self, span: Span) -> int:
        kids = self.children.get(span.id, ())
        return span.duration - _covered([(k.start, k.end) for k in kids], span.start, span.end)

    def descendants(self, span: Span):
        todo = list(self.children.get(span.id, ()))
        while todo:
            s = todo.pop()
            yield s
            todo.extend(self.children.get(s.id, ()))

    def named(self, name: str):
        return [s for s in self.spans if s.name == name]

    def rows(self):
        """Sweep/rate rows: (regime, spans) per top-level prefactor_corrected.

        A row is a ``rates.prefactor_corrected`` span whose parent is a
        ``cli.main`` span, together with the later sibling spans on the
        same thread up to the next row (``cli`` re-solves the modulus
        after the prefactor), and all their descendants.
        """
        rows = []
        for main in self.named("cli.main"):
            open_rows = {}
            for child in self.children.get(main.id, ()):
                if child.name == "rates.prefactor_corrected":
                    row = (child.tag, [child])
                    rows.append(row)
                    open_rows[child.thread] = row
                elif child.thread in open_rows:
                    open_rows[child.thread][1].append(child)
        out = []
        for regime, tops in rows:
            members = []
            for top in tops:
                members.append(top)
                members.extend(self.descendants(top))
            out.append((regime, members))
        return out
