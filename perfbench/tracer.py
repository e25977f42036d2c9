"""Outside-in span tracer for the mixedhess layers.

The tracer wraps functions of an already imported package without
editing its source.  Each wrapper times one call as a span and folds it
into per-name totals at once, so memory stays flat however many calls a
report makes.  A span's self time is its duration minus the time its
traced children (spans opened while it was running) took.

Modules that did ``from .linalg import matrix_rank`` hold their own
binding of the function, so wrapping ``linalg.matrix_rank`` alone would
miss every call made through them.  ``install`` therefore rebinds each
wrapped object in every loaded module of the package that refers to it.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from typing import Callable

# Functions too small and too hot to time one call at a time: each is a
# leaf called millions of times inside a traced layer, where a wrapper
# would cost more than the work it measures and would skew the self
# time of the layer that calls it.
UNTRACED = frozenset({
    "linalg.sparse_axpy",
    "linalg.RowSpace.reduce",
    "linalg.RowSpace.contains",
    # Point evaluation is left inside the caller: it is the self time of
    # ``hessians.rank_at``, the evaluation layer.
    "hessians.evaluate_matrix",
})

# The layers wrapped in a traced run.  Of the CLI only ``main`` is
# wrapped, so its self time is the command's own work: argument
# parsing, report assembly and JSON serialisation.
TRACED_MODULES: dict[str, list[str] | None] = {
    "apolarity": None,
    "hessians": None,
    "linalg": None,
    "lefschetz": None,
    "complexes": None,
    "families": None,
    "cli": ["main"],
}


def _cells(rows) -> int:
    return len(rows) * len(rows[0]) if rows else 0


# Work counters recorded at a span boundary: the counter's name and its
# increment, computed from the call's arguments and result.
COUNTERS: dict[str, tuple[str, Callable]] = {
    "linalg.RowSpace.insert": ("useful", lambda args, grew: int(grew)),
    "linalg.matrix_rank": ("cells", lambda args, rank: _cells(args[0])),
    "hessians.generic_rank": ("exact", lambda args, cert: int(cert.is_exact)),
    "lefschetz.mult_map_matrix": ("cells", lambda args, matrix: _cells(matrix)),
    "hessians.mixed_hessian": ("entries", lambda args, h: h.nrows * h.ncols),
}


class SpanStats:
    """Totals of every span recorded under one name."""

    __slots__ = ("calls", "total_s", "self_s", "counters")

    def __init__(self, counter: str | None = None) -> None:
        self.calls = 0
        self.total_s = 0.0
        self.self_s = 0.0
        self.counters = {counter: 0} if counter else {}

    def as_dict(self) -> dict:
        return {
            "calls": self.calls,
            "total_s": self.total_s,
            "self_s": self.self_s,
            **self.counters,
        }


class Tracer:
    """Records nested spans of one thread.

    ``_open`` holds, for each span still running, the time covered so
    far by its finished children.
    """

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.stats: dict[str, SpanStats] = {}
        self._open: list[float] = []

    def wrap(self, name: str, fn: Callable, count: tuple[str, Callable] | None = None) -> Callable:
        """``fn`` timed as span ``name``; ``count`` is a (counter,
        increment) pair as in ``COUNTERS``."""
        counter, increment = count or (None, None)
        stats = self.stats.setdefault(name, SpanStats(counter))
        open_spans = self._open
        clock = self.clock

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            open_spans.append(0.0)
            start = clock()
            try:
                result = fn(*args, **kwargs)
                if counter:
                    stats.counters[counter] += increment(args, result)
                return result
            finally:
                duration = clock() - start
                children = open_spans.pop()
                stats.calls += 1
                stats.total_s += duration
                stats.self_s += duration - children
                if open_spans:
                    open_spans[-1] += duration

        return traced

    def summary(self) -> dict[str, dict]:
        return {name: s.as_dict() for name, s in sorted(self.stats.items())}


def traceable(module) -> dict[str, tuple[object, str, object]]:
    """Public functions and public plain methods defined in ``module``,
    keyed by span name ``<module>.<qualname>`` (without the package
    prefix).  Values are (owner, attribute, function)."""
    short = module.__name__.rsplit(".", 1)[-1]
    found: dict[str, tuple[object, str, object]] = {}
    for name, obj in vars(module).items():
        if name.startswith("_") or getattr(obj, "__module__", None) != module.__name__:
            continue
        if inspect.isfunction(obj):
            found[f"{short}.{name}"] = (module, name, obj)
        elif inspect.isclass(obj):
            for attr, member in vars(obj).items():
                if not attr.startswith("_") and inspect.isfunction(member):
                    found[f"{short}.{name}.{attr}"] = (obj, attr, member)
    return {k: v for k, v in found.items() if k not in UNTRACED}


def install(tracer: Tracer, package: str, modules: dict[str, list[str] | None]) -> None:
    """Wrap functions of ``package.<module>`` for each module named.

    ``modules`` maps a module to the public names to wrap there, or to
    None for all of them.  Every module of the package that bound one of
    the originals is rebound to the wrapper.
    """
    originals: dict[int, object] = {}
    for short, only in modules.items():
        module = sys.modules[f"{package}.{short}"]
        for span, (owner, attr, fn) in traceable(module).items():
            if only is not None and attr not in only:
                continue
            wrapper = tracer.wrap(span, fn, COUNTERS.get(span))
            setattr(owner, attr, wrapper)
            originals[id(fn)] = wrapper
    for modname, module in list(sys.modules.items()):
        if module is None or not (modname == package or modname.startswith(package + ".")):
            continue
        for attr, value in list(vars(module).items()):
            wrapper = originals.get(id(value))
            if wrapper is not None:
                setattr(module, attr, wrapper)
