"""Span tracing of the bdgtools layers, installed from outside the package.

:meth:`Tracer.install` replaces each function in :data:`TARGETS` in every
``bdgtools`` module namespace that holds it, and wraps the class methods
in place.  Each call then records a span (name, start, end, parent) in
memory; :meth:`Tracer.uninstall` puts the originals back.  The program's
own code is not changed.

A span's self time is its duration minus the part of it that its child
spans cover.  Children run on pool threads inherit the span of the
``parallel_map`` call that started them, so overlapping children are
counted once.
"""

from __future__ import annotations

import functools
import inspect
import itertools
import sys
import threading
import time
from dataclasses import dataclass, field

MARK = "__perfbench_original__"

# (module, attribute, span name); "Class.method" attributes wrap the class
TARGETS = (
    ("bdgtools.lattice", "assemble_bloch", "lattice.assemble_bloch"),
    ("bdgtools.lattice", "assemble_finite_volume", "lattice.assemble_finite_volume"),
    ("bdgtools.lattice", "FiniteVolumeOperator.eigenvalues", "lattice.eigenvalues"),
    ("bdgtools.models", "build_model", "models.build_model"),
    ("bdgtools.models", "central_gap", "models.central_gap"),
    ("bdgtools.disorder", "sample_realization", "disorder.sample_realization"),
    ("bdgtools.disorder", "build_random_hamiltonian", "disorder.build_random_hamiltonian"),
    ("bdgtools.spectral", "ids_estimate", "spectral.ids_estimate"),
    ("bdgtools.spectral", "ids_squared_estimate", "spectral.ids_squared_estimate"),
    ("bdgtools.spectral", "dos_histogram", "spectral.dos_histogram"),
    ("bdgtools.greens", "ResolventSolver.__init__", "greens.ResolventSolver"),
    ("bdgtools.greens", "ResolventSolver.columns", "greens.ResolventSolver.columns"),
    ("bdgtools.greens", "fractional_moment_scan", "greens.fractional_moment_scan"),
    ("bdgtools.greens", "localization_phase_diagram", "greens.localization_phase_diagram"),
    ("bdgtools.greens", "bloch_band_grid", "greens.bloch_band_grid"),
    ("bdgtools.chern", "transfer_matrix", "chern.transfer_matrix"),
    ("bdgtools.chern", "chern_transfer", "chern.chern_transfer"),
    ("bdgtools.chern", "berry_flux_chern", "chern.berry_flux_chern"),
    ("bdgtools.chern", "transition_winding", "chern.transition_winding"),
    ("bdgtools.chern", "pauli_decompose", "chern.pauli_decompose"),
    ("bdgtools.chern", "fermi_projector", "chern.fermi_projector"),
    ("bdgtools.chern", "real_space_chern", "chern.real_space_chern"),
    ("bdgtools._parallel", "parallel_map", "parallel_map"),
)


def _realization_key(args: inspect.BoundArguments) -> dict:
    L = args.arguments["L"]
    box = (int(L[0]), int(L[1])) if isinstance(L, (tuple, list)) else (int(L), int(L))
    return {"key": (int(args.arguments["seed"]), box)}


# span name -> function of the bound call arguments giving the span's work
WORK = {
    "lattice.eigenvalues": lambda a: {"n3": a.arguments["self"].dim ** 3},
    "disorder.sample_realization": _realization_key,
}


@dataclass
class Span:
    sid: int
    name: str
    parent: int | None
    start: float = 0.0
    end: float = 0.0
    failed: bool = False
    work: dict = field(default_factory=dict)


def _modules():
    return [m for name, m in list(sys.modules.items()) if name.split(".")[0] == "bdgtools" and m is not None]


def installed_wrappers() -> list[str]:
    """Names under which a tracing wrapper is still reachable."""
    found = []
    for mod in _modules():
        for attr, value in vars(mod).items():
            if hasattr(value, MARK):
                found.append(f"{mod.__name__}.{attr}")
            elif isinstance(value, type) and value.__module__ == mod.__name__:
                found += [f"{mod.__name__}.{attr}.{k}" for k, v in vars(value).items() if hasattr(v, MARK)]
    return found


class Tracer:
    """In-memory span recorder; one per traced phase of a run."""

    def __init__(self):
        self.spans: list[Span] = []
        self._ids = itertools.count(1)
        self._local = threading.local()
        self._patches: list[tuple[object, str, object]] = []

    def _stack(self) -> list[int]:
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        return stack

    def call(self, name: str, body, work=None):
        """Run ``body(span)`` inside a new span that is a child of the current one."""
        stack = self._stack()
        span = Span(next(self._ids), name, stack[-1] if stack else None)
        if work is not None:
            span.work = work
        stack.append(span.sid)
        span.start = time.perf_counter()
        try:
            return body(span)
        except BaseException:
            span.failed = True
            raise
        finally:
            span.end = time.perf_counter()
            stack.pop()
            self.spans.append(span)

    def _wrap(self, name: str, fn):
        if name == "parallel_map":
            return self._wrap_parallel_map(fn)
        signature = inspect.signature(fn)
        measure = WORK.get(name)

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            work = measure(signature.bind(*args, **kwargs)) if measure else None
            return self.call(name, lambda span: fn(*args, **kwargs), work)

        setattr(wrapper, MARK, fn)
        return wrapper

    def _wrap_parallel_map(self, fn):
        @functools.wraps(fn)
        def wrapper(func, items, threads: int = 1):
            items = list(items)
            busy: list[float] = []

            def body(span):
                def timed(x):
                    stack = self._stack()
                    stack.append(span.sid)
                    t0 = time.perf_counter()
                    try:
                        return func(x)
                    finally:
                        busy.append(time.perf_counter() - t0)
                        stack.pop()

                try:
                    return fn(timed, items, threads)
                finally:
                    span.work = {"items": len(items), "threads": max(int(threads), 1), "busy": sum(busy)}

            return self.call("parallel_map", body)

        setattr(wrapper, MARK, fn)
        return wrapper

    def install(self) -> None:
        modules = _modules()
        for module, attr, name in TARGETS:
            owner = sys.modules[module]
            cls_name, _, meth = attr.rpartition(".")
            if cls_name:
                cls = getattr(owner, cls_name)
                self._patch(cls, meth, self._wrap(name, vars(cls)[meth]))
                continue
            original = getattr(owner, attr)
            wrapper = self._wrap(name, original)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._patch(mod, key, wrapper)

    def _patch(self, owner, attr: str, wrapper) -> None:
        self._patches.append((owner, attr, vars(owner)[attr]))
        setattr(owner, attr, wrapper)

    def uninstall(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def to_records(self):
        """The spans as plain dicts, for writing out at the end of a run."""
        for s in self.spans:
            yield {
                "id": s.sid, "name": s.name, "parent": s.parent, "start": s.start,
                "end": s.end, "failed": s.failed,
                "work": {k: list(v) if isinstance(v, tuple) else v for k, v in s.work.items()},
            }


def self_times(spans: list[Span]) -> dict[int, float]:
    """Span id -> duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for s in spans:
        if s.parent is not None:
            children.setdefault(s.parent, []).append((s.start, s.end))
    out = {}
    for s in spans:
        covered, reach = 0.0, s.start
        for a, b in sorted(children.get(s.sid, ())):
            a, b = max(a, reach), min(b, s.end)
            if b > a:
                covered += b - a
                reach = b
        out[s.sid] = (s.end - s.start) - covered
    return out


@dataclass
class LayerStats:
    calls: int = 0
    failed: int = 0
    self_s: float = 0.0
    n3: int = 0
    keys: set = field(default_factory=set)
    items: int = 0
    busy: float = 0.0
    capacity: float = 0.0


def layer_stats(spans: list[Span]) -> dict[str, LayerStats]:
    """Per span name: call counts, self time and the work the spans recorded."""
    own = self_times(spans)
    stats: dict[str, LayerStats] = {}
    for s in spans:
        st = stats.setdefault(s.name, LayerStats())
        st.calls += 1
        st.failed += s.failed
        st.self_s += own[s.sid]
        st.n3 += s.work.get("n3", 0)
        if "key" in s.work:
            st.keys.add(s.work["key"])
        st.items += s.work.get("items", 0)
        st.busy += s.work.get("busy", 0.0)
        st.capacity += (s.end - s.start) * s.work.get("threads", 0)
    return stats
