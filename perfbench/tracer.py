"""Outside-in tracer: wraps the package's public functions for one traced pass.

Nothing under ``src/`` knows about tracing. ``Tracer.installed()`` replaces
every module binding of each target function (``luxemburg`` is bound in
``orliczalg.norms``, ``orliczalg.algebra``, ``orliczalg.porosity``,
``orliczalg.cli`` and the package itself) and the listed class attributes,
and puts every original back on exit, so untraced passes run unwrapped code.

Each wrapped call records a span. Spans nest on a stack; when one ends,
its duration is added to the parent's child time, so a span's self time
is its duration minus the time its direct children cover. Spans are
aggregated as they end (per name, and per parent -> child edge) instead
of being kept one by one, because a battery pass makes ~10^5 ``modular``
calls.
"""

from __future__ import annotations

import functools
import inspect
import sys
import time
from collections import Counter
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Any, Callable

PACKAGE = "orliczalg"
ROOT_SPAN = "<pass>"


@dataclass
class SpanStats:
    calls: int = 0
    total_s: float = 0.0
    self_s: float = 0.0


class _Frame:
    __slots__ = ("name", "start", "child_s")

    def __init__(self, name: str, start: float):
        self.name = name
        self.start = start
        self.child_s = 0.0


class Tracer:
    """Span stack plus per-name aggregates and plain counters for one pass."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.spans: dict[str, SpanStats] = {}
        self.edges: Counter = Counter()
        self.counts: Counter = Counter()
        self.plateau_keys: set = set()
        self._stack: list[_Frame] = []

    def enter(self, name: str) -> _Frame:
        frame = _Frame(name, self.clock())
        self._stack.append(frame)
        return frame

    def exit(self, frame: _Frame) -> None:
        duration = self.clock() - frame.start
        popped = self._stack.pop()
        if popped is not frame:
            raise RuntimeError(f"span {frame.name} closed out of order")
        stats = self.spans.setdefault(frame.name, SpanStats())
        stats.calls += 1
        stats.total_s += duration
        stats.self_s += duration - frame.child_s
        parent = self._stack[-1].name if self._stack else ROOT_SPAN
        if self._stack:
            self._stack[-1].child_s += duration
        self.edges[(parent, frame.name)] += 1

    def add(self, counter: str, amount: int = 1) -> None:
        self.counts[counter] += amount

    def note_plateau(self, key) -> None:
        """Count a build_plateau call whose shape key was already seen this pass."""
        if key in self.plateau_keys:
            self.counts["algebra.build_plateau.repeats"] += 1
        self.plateau_keys.add(key)

    @contextmanager
    def installed(self):
        """Wrap every binding of every target for the duration of the block."""
        restore = install(self)
        try:
            yield self
        finally:
            uninstall(restore)

    def metrics(self) -> dict[str, float]:
        """Flat ``<module>.<function>.<stat>`` values for every declared metric."""
        out: dict[str, float] = {}
        for name in SPAN_NAMES:
            stats = self.spans.get(name, SpanStats())
            out[f"{name}.calls"] = stats.calls
            out[f"{name}.self_s"] = stats.self_s
            out[f"{name}.total_s"] = stats.total_s
        for name in ITER_NAMES:
            out[f"{name}.iters"] = self.counts[f"{name}.iters"]
        for name in COUNT_NAMES:
            out[name] = self.counts[name]
        calls = self.spans.get("algebra.build_plateau", SpanStats()).calls
        repeats = self.counts["algebra.build_plateau.repeats"]
        out["algebra.build_plateau.repeat_frac"] = repeats / calls if calls else 0.0
        return out


# ---------------------------------------------------------------------------
# targets
# ---------------------------------------------------------------------------

def plateau_shape_key(space, plateau_set, pair, epsilon) -> tuple:
    """(pair, epsilon, carrier, E) with window sets shifted to start at 0.

    Two build_plateau calls with equal keys differ only by a translation
    of E, so a translation-aware cache could answer the second from the
    first. Finite carriers are not ordered, so their E is kept as is
    (by carrier index).
    """
    if space.is_window:
        points = sorted(plateau_set)
        shape = tuple(x - points[0] for x in points)
    else:
        shape = tuple(sorted(space.index(x) for x in plateau_set))
    return (pair.phi.label, pair.psi.label, float(epsilon), space.name, shape)


def _orlicz_name(args, kwargs) -> str:
    return ("norms.orlicz_norm_xcheck" if kwargs.get("cross_check", True)
            else "norms.orlicz_norm_plain")


def _convolve_name(args, kwargs) -> str:
    return "groups.convolve_window" if args[0].space.is_window else "groups.convolve_finite"


def _after_norm(tracer: Tracer, name: str, args, kwargs, result) -> None:
    tracer.add(f"{name}.iters", result.iterations)
    if any(flag.startswith("oracle-") for flag in result.flags):
        tracer.add("norms.oracle_flagged")


def _after_iters(tracer: Tracer, name: str, args, kwargs, result) -> None:
    tracer.add(f"{name}.iters", result.iterations)


def _after_convolve(tracer: Tracer, name: str, args, kwargs, result) -> None:
    f = args[0]
    tracer.add("groups.convolve.cells", f.space.size * len(f.support))


@dataclass(frozen=True)
class Target:
    """One traced callable: where it is defined and what its span records."""

    module: str
    attr: str                     # "func" or "Class.method"
    name: str | Callable = ""     # span name, or a function of (args, kwargs)
    after: Callable | None = None
    count_only: str = ""          # counter name; no span (too hot to time)


TARGETS = (
    Target("orliczalg.norms", "modular", "norms.modular"),
    Target("orliczalg.norms", "luxemburg", "norms.luxemburg", _after_norm),
    Target("orliczalg.norms", "orlicz_norm", _orlicz_name, _after_norm),
    Target("orliczalg.norms", "char_fn_norm", "norms.char_fn_norm"),
    Target("orliczalg.numerics", "golden_min", "numerics.golden_min", _after_iters),
    Target("orliczalg.numerics", "bisect_increasing", "numerics.bisect_increasing",
           _after_iters),
    Target("orliczalg.groups", "GroupFunction.__init__",
           count_only="groups.GroupFunction.new.calls"),
    Target("orliczalg.groups", "GroupFunction.scale",
           count_only="groups.GroupFunction.scale.calls"),
    Target("orliczalg.groups", "convolve", _convolve_name, _after_convolve),
    Target("orliczalg.groups", "leptin_search", "groups.leptin_search"),
    Target("orliczalg.algebra", "build_plateau", "algebra.build_plateau"),
    Target("orliczalg.algebra", "decomposition_cost", "algebra.decomposition_cost"),
    Target("orliczalg.algebra", "algebra_norm_upper", "algebra.algebra_norm_upper"),
    Target("orliczalg.algebra", "submultiplicativity_report",
           "algebra.submultiplicativity_report"),
    Target("orliczalg.porosity", "build_witness", "porosity.build_witness"),
    Target("orliczalg.porosity", "level_integral", "porosity.level_integral"),
    Target("orliczalg.structure", "segal_report", "structure.segal_report"),
    Target("orliczalg.structure", "convolution_unit", "structure.convolution_unit"),
    Target("orliczalg.structure", "enumerate_characters", "structure.enumerate_characters"),
    Target("orliczalg.structure", "multiplicative_functional_search",
           "structure.multiplicative_functional_search"),
    Target("orliczalg.nfunctions", "validate_pair", "nfunctions.validate_pair"),
    Target("orliczalg.nfunctions", "inverse_product_ratio",
           "nfunctions.inverse_product_ratio"),
    Target("orliczalg.cli", "main", "cli.main"),
    Target("orliczalg.specio", "Report.render", "specio.Report.render"),
)

SPAN_NAMES = (
    "norms.modular", "norms.luxemburg", "norms.orlicz_norm_xcheck",
    "norms.orlicz_norm_plain", "norms.char_fn_norm",
    "numerics.golden_min", "numerics.bisect_increasing",
    "groups.convolve_finite", "groups.convolve_window", "groups.leptin_search",
    "algebra.build_plateau", "algebra.decomposition_cost",
    "algebra.algebra_norm_upper", "algebra.submultiplicativity_report",
    "porosity.build_witness", "porosity.level_integral",
    "structure.segal_report", "structure.convolution_unit",
    "structure.enumerate_characters", "structure.multiplicative_functional_search",
    "nfunctions.validate_pair", "nfunctions.inverse_product_ratio",
    "cli.main", "specio.Report.render",
)
ITER_NAMES = ("norms.luxemburg", "norms.orlicz_norm_xcheck", "norms.orlicz_norm_plain",
              "numerics.golden_min", "numerics.bisect_increasing")
COUNT_NAMES = ("groups.GroupFunction.new.calls", "groups.GroupFunction.scale.calls",
               "groups.convolve.cells", "norms.oracle_flagged")


def _wrap(tracer: Tracer, target: Target, fn: Callable) -> Callable:
    if target.count_only:
        counter = target.count_only

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            tracer.counts[counter] += 1
            return fn(*args, **kwargs)
        return counted

    name_of = target.name if callable(target.name) else (lambda a, k, n=target.name: n)
    after = target.after
    plateau = target.attr == "build_plateau"
    signature = inspect.signature(fn) if plateau else None

    @functools.wraps(fn)
    def spanned(*args, **kwargs):
        if plateau:
            bound = signature.bind(*args, **kwargs)
            # materialise E once, so a one-shot iterable reaches the
            # original intact after the key has read it
            bound.arguments["plateau_set"] = tuple(bound.arguments["plateau_set"])
            args, kwargs = bound.args, bound.kwargs
            tracer.note_plateau(plateau_shape_key(*args, **kwargs))
        name = name_of(args, kwargs)
        frame = tracer.enter(name)
        try:
            result = fn(*args, **kwargs)
        finally:
            tracer.exit(frame)
        if after is not None:
            after(tracer, name, args, kwargs, result)
        return result
    return spanned


def _package_modules() -> list:
    return [m for n, m in list(sys.modules.items())
            if m is not None and (n == PACKAGE or n.startswith(PACKAGE + "."))]


def install(tracer: Tracer) -> list[tuple[Any, str, Any]]:
    """Wrap every binding of every target; return what ``uninstall`` needs."""
    restore: list[tuple[Any, str, Any]] = []
    modules = _package_modules()
    try:
        for target in TARGETS:
            home = sys.modules[target.module]
            if "." in target.attr:
                cls_name, meth = target.attr.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                restore.append((cls, meth, original))
                setattr(cls, meth, _wrap(tracer, target, original))
                continue
            original = getattr(home, target.attr)
            wrapper = _wrap(tracer, target, original)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        restore.append((mod, attr, original))
                        setattr(mod, attr, wrapper)
    except BaseException:
        uninstall(restore)
        raise
    return restore


def uninstall(restore: list[tuple[Any, str, Any]]) -> None:
    for owner, attr, original in reversed(restore):
        setattr(owner, attr, original)
