"""Outside-in layer tracer for flatsurfkit.

The library has no instrumentation of its own, so the tracer replaces
library functions with timing wrappers from outside, without editing the
program:

* a function is replaced at every module binding that holds it, because
  the modules import names directly (``from .delaunay import hinge``);
* ``CubicNumber`` methods are replaced on the class, aliases included
  (``__rmul__`` is ``__mul__``);
* ``quadrature.integrate`` gets its integrand wrapped so evaluations are
  counted.

A *span* records calls and self time (its duration minus the part its
traced children cover); a *counter* only counts calls and leaves the time
with its caller.  A target that no longer exists (a later refactor may
rename or remove it) is recorded in ``missing`` and every metric derived
from it is left out, instead of failing the run.
"""

from __future__ import annotations

import sys
import time
from collections import defaultdict
from typing import Callable, Dict, List, Set

# (layer metric prefix, module, attribute path).  Spans time their calls.
SPANS = [
    ("numeric.cubic_mul", "numeric", "CubicNumber.__mul__"),
    ("numeric.cubic_sign", "numeric", "CubicNumber.sign"),
    ("numeric.cubic_inverse", "numeric", "CubicNumber.inverse"),
    ("numeric.cubic_float", "numeric", "CubicNumber.__float__"),
    ("delaunay.canonical_code", "delaunay", "canonical_code"),
    ("delaunay.delaunayize", "delaunay", "delaunayize"),
    ("delaunay.decomposition", "delaunay", "decomposition"),
    ("isodelaunay.explore", "isodelaunay", "explore"),
    ("isodelaunay.cell_at", "isodelaunay", "cell_at"),
    ("isodelaunay.delaunayize_at", "isodelaunay", "delaunayize_at"),
    ("isodelaunay.wall_of_hinge", "isodelaunay", "wall_of_hinge"),
    ("symmetry.isometries", "symmetry", "isometries"),
    ("symmetry.isometries_between", "symmetry", "isometries_between"),
    ("symmetry.group_summary", "symmetry", "group_summary"),
    ("symmetry.fixed_points", "symmetry", "fixed_points"),
    ("periods.segment_integrals", "periods", "segment_integrals"),
    ("periods.solve_tu", "periods", "solve_tu"),
    ("periods.solve_t_rectangle", "periods", "solve_t_rectangle"),
    ("periods.silhol_ratio", "periods", "silhol_ratio"),
    ("quadrature.integrate", "quadrature", "integrate"),
    ("surface_io.loads", "surface_io", "loads"),
    ("surface_io.dumps", "surface_io", "dumps"),
    ("cli.run", "cli", "run"),
]

# Counters only count calls; their time stays in the caller's self time.
# A counter with a (span, metric) pair also counts, under that metric, the
# calls made while the span is open.
COUNTERS = [
    ("numeric.alpha_bisections", "numeric", "_AlphaInterval.refine", None),
    ("delaunay.hinge.calls", "delaunay", "hinge", None),
    ("delaunay.flips", "delaunay", "_flip_in_place",
     ("isodelaunay.delaunayize_at", "isodelaunay.delaunayize_at.flips")),
]

PACKAGE = "flatsurfkit"


def _hinge_key(t, edge):
    """The developed hinge (p2, p3, p3 -> p4) of ``wall_of_hinge(t, edge)``.

    Read from the triangulation's fields without arithmetic that a span
    would count: p3 = vec(edge), p4 - p3 = vec(next(edge)) and p2 is the
    twin's next vector in the edge's chart.
    """
    tri, e = edge
    tw = t.glue[edge]
    vu = t.vecs[tw[0]][(tw[1] + 1) % 3]
    p2 = vu if t.chart_sign[edge] == 1 else (-vu[0], -vu[1])
    return (p2, t.vecs[tri][e], t.vecs[tri][(e + 1) % 3])


class Tracer:
    def __init__(self) -> None:
        self.calls: Dict[str, int] = defaultdict(int)
        self.self_s: Dict[str, float] = defaultdict(float)
        self.counts: Dict[str, int] = defaultdict(int)
        self.missing: List[str] = []
        self._stack: List[float] = []  # child time of each open span
        self._active: Dict[str, int] = defaultdict(int)
        self._hinges: Set = set()
        self._cells: Set = set()
        self._undo: List[Callable[[], None]] = []

    # -- wrappers ---------------------------------------------------------------

    def _span(self, name: str, fn, before=None, after=None):
        stack, active, calls, self_s = self._stack, self._active, self.calls, self.self_s
        clock = time.perf_counter

        def wrapper(*args, **kwargs):
            if before is not None:
                args, kwargs = before(args, kwargs)
            stack.append(0.0)
            active[name] += 1
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = clock() - t0
                child = stack.pop()
                active[name] -= 1
                calls[name] += 1
                self_s[name] += dt - child
                if stack:
                    stack[-1] += dt
            if after is not None:
                # Bookkeeping is charged to no layer: it counts as a child
                # of the enclosing span.
                h0 = clock()
                after(args, result)
                if stack:
                    stack[-1] += clock() - h0
            return result

        return wrapper

    def _counter(self, name: str, fn, within=None):
        counts, active = self.counts, self._active
        span, inner = within or (None, None)

        def wrapper(*args, **kwargs):
            counts[name] += 1
            if span is not None and active[span]:
                counts[inner] += 1
            return fn(*args, **kwargs)

        return wrapper

    # -- hooks ------------------------------------------------------------------

    def _count_integrand(self, args, kwargs):
        if self._active["quadrature.integrate"]:  # a > b recursion: already counted
            return args, kwargs
        counts = self.counts

        def wrap(f):
            def counted(*a):
                counts["quadrature.integrand_evals"] += 1
                return f(*a)
            return counted

        if args:
            args = (wrap(args[0]),) + tuple(args[1:])
        else:
            kwargs = dict(kwargs, f=wrap(kwargs["f"]))
        return args, kwargs

    def _note_hinge(self, args, result):
        try:
            self._hinges.add(_hinge_key(*args[:2]))
        except (AttributeError, KeyError, IndexError, TypeError, ValueError):
            self._hinges = None  # signature or layout changed: ratio missing

    def _note_cell(self, args, result):
        try:
            self._cells.add(result.key)
        except (AttributeError, TypeError):
            self._cells = None

    # -- installation -----------------------------------------------------------

    def install(self) -> None:
        hooks = {
            "quadrature.integrate": {"before": self._count_integrand},
            "isodelaunay.wall_of_hinge": {"after": self._note_hinge},
            "isodelaunay.cell_at": {"after": self._note_cell},
        }
        for name, module, path in SPANS:
            self._replace(name, module, path, lambda fn, n=name: self._span(n, fn, **hooks.get(n, {})))
        for name, module, path, within in COUNTERS:
            self._replace(name, module, path, lambda fn, n=name, w=within: self._counter(n, fn, w))

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    def _replace(self, name: str, module: str, path: str, make) -> None:
        owner = sys.modules.get(f"{PACKAGE}.{module}")
        *outer, attr = path.split(".")
        for part in outer:
            owner = getattr(owner, part, None)
        original = getattr(owner, attr, None) if owner is not None else None
        if original is None:
            self.missing.append(name)
            return
        wrapper = make(original)
        if outer:  # a method: patch every alias on the class
            for key, value in list(vars(owner).items()):
                if value is original:
                    self._set(owner, key, wrapper, original)
            return
        for m in list(sys.modules.values()):
            d = getattr(m, "__dict__", None)
            if not isinstance(d, dict):
                continue
            for key, value in list(d.items()):
                if value is original:
                    self._set(m, key, wrapper, original)

    def _set(self, owner, key: str, wrapper, original) -> None:
        setattr(owner, key, wrapper)
        self._undo.append(lambda: setattr(owner, key, original))

    # -- results ----------------------------------------------------------------

    def metrics(self) -> Dict[str, float]:
        """Flat per-layer metrics; names derived from missing targets are absent."""
        out: Dict[str, float] = {}
        for name, _, _ in SPANS:
            if name not in self.missing:
                out[f"{name}.calls"] = self.calls[name]
                out[f"{name}.self_s"] = self.self_s[name]
        for name, _, _, within in COUNTERS:
            if name not in self.missing:
                out[name] = self.counts[name]
                if within is not None and within[0] not in self.missing:
                    out[within[1]] = self.counts[within[1]]
        if "quadrature.integrate" not in self.missing:
            out["quadrature.integrand_evals"] = self.counts["quadrature.integrand_evals"]
        if self._hinges is not None and "isodelaunay.wall_of_hinge" not in self.missing:
            n = self.calls["isodelaunay.wall_of_hinge"]
            out["isodelaunay.wall_of_hinge.distinct_ratio"] = len(self._hinges) / n if n else 0.0
        if self._cells is not None and "isodelaunay.cell_at" not in self.missing:
            n = self.calls["isodelaunay.cell_at"]
            out["isodelaunay.cell_at.new_cell_ratio"] = len(self._cells) / n if n else 0.0
        return out


def traced(fn, *args) -> tuple:
    """Run fn(*args) under a fresh tracer; returns (result, seconds, tracer)."""
    tracer = Tracer()
    tracer.install()
    try:
        t0 = time.perf_counter()
        result = fn(*args)
        seconds = time.perf_counter() - t0
    finally:
        tracer.uninstall()
    return result, seconds, tracer
