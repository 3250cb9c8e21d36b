"""The tracer's arithmetic, its binding restoration and the plateau shape key."""

import json
import sys
from pathlib import Path

import pytest

from perfbench import tracer as tr

ROOT = Path(__file__).resolve().parents[2]
sys.path.insert(0, str(ROOT / "src"))

import orliczalg  # noqa: E402
import orliczalg.cli  # noqa: E402,F401


class ScriptedClock:
    def __init__(self, *ticks):
        self.ticks = list(ticks)

    def __call__(self):
        return self.ticks.pop(0)


def test_self_time_subtracts_direct_children():
    # a [0, 10] holds b [1, 4] and c [5, 9]; c holds d [6, 8]
    t = tr.Tracer(clock=ScriptedClock(0.0, 1.0, 4.0, 5.0, 6.0, 8.0, 9.0, 10.0))
    a = t.enter("a")
    b = t.enter("b")
    t.exit(b)
    c = t.enter("c")
    d = t.enter("d")
    t.exit(d)
    t.exit(c)
    t.exit(a)
    assert t.spans["a"].total_s == 10.0 and t.spans["a"].self_s == 3.0
    assert t.spans["b"].self_s == 3.0
    assert t.spans["c"].total_s == 4.0 and t.spans["c"].self_s == 2.0
    assert t.spans["d"].self_s == 2.0
    assert t.edges == {(tr.ROOT_SPAN, "a"): 1, ("a", "b"): 1, ("a", "c"): 1, ("c", "d"): 1}


def test_repeated_calls_accumulate():
    t = tr.Tracer(clock=ScriptedClock(0.0, 1.0, 2.0, 2.5, 3.0, 6.0))
    outer = t.enter("x")
    inner = t.enter("x")
    t.exit(inner)
    t.exit(outer)
    late = t.enter("x")
    t.exit(late)
    assert t.spans["x"].calls == 3
    assert t.spans["x"].self_s == pytest.approx(1.5 + 1.0 + 3.0)


def test_out_of_order_exit_is_an_error():
    t = tr.Tracer(clock=ScriptedClock(0.0, 1.0, 2.0))
    a = t.enter("a")
    t.enter("b")
    with pytest.raises(RuntimeError):
        t.exit(a)


def _bindings():
    """Every (owner, attribute) -> object for all targets, across the package."""
    out = {}
    for mod in tr._package_modules():
        for attr, value in vars(mod).items():
            if callable(value):
                out[(mod.__name__, attr)] = value
    out["GroupFunction.__init__"] = orliczalg.GroupFunction.__dict__["__init__"]
    out["GroupFunction.scale"] = orliczalg.GroupFunction.__dict__["scale"]
    out["Report.render"] = orliczalg.specio.Report.__dict__["render"]
    return out


def test_every_binding_is_wrapped_then_restored():
    before = _bindings()
    originals = {orliczalg.norms.luxemburg, orliczalg.algebra.build_plateau}
    t = tr.Tracer()
    with t.installed():
        during = _bindings()
        for name in ("norms", "algebra", "porosity", "cli"):
            assert getattr(getattr(orliczalg, name), "luxemburg") not in originals
        assert orliczalg.porosity.build_plateau is orliczalg.algebra.build_plateau
        assert orliczalg.porosity.build_plateau not in originals
        assert during["GroupFunction.__init__"] is not before["GroupFunction.__init__"]
        space = orliczalg.cyclic(4)
        pair = orliczalg.pair_from_name("power-2")
        orliczalg.algebra.luxemburg(pair.phi, orliczalg.GroupFunction.delta(space, 0))
    assert _bindings() == before
    assert t.spans["norms.luxemburg"].calls == 1
    assert t.counts["groups.GroupFunction.new.calls"] >= 1
    assert t.spans["norms.modular"].calls >= 1


def test_bindings_are_restored_when_the_pass_raises():
    before = _bindings()
    with pytest.raises(ZeroDivisionError):
        with tr.Tracer().installed():
            1 / 0
    assert _bindings() == before


def test_plateau_key_is_translation_invariant_on_windows():
    pair = orliczalg.pair_from_name("entropy")
    window = orliczalg.integer_window(32)
    key = tr.plateau_shape_key(window, range(-1, 2), pair, 1.0)
    assert tr.plateau_shape_key(window, [5, 3, 4], pair, 1.0) == key
    assert tr.plateau_shape_key(window, [3, 4, 6], pair, 1.0) != key
    assert tr.plateau_shape_key(window, [3, 4, 5], pair, 0.5) != key
    other = orliczalg.pair_from_name("cosh")
    assert tr.plateau_shape_key(window, [3, 4, 5], other, 1.0) != key
    z6 = orliczalg.cyclic(6)
    assert tr.plateau_shape_key(z6, [1, 2], pair, 1.0) != tr.plateau_shape_key(
        z6, [0, 1], pair, 1.0)


def test_repeat_frac_counts_translated_plateaus():
    pair = orliczalg.pair_from_name("power-2")
    window = orliczalg.integer_window(64)
    t = tr.Tracer()
    with t.installed():
        for start in (-10, 0, 7):
            orliczalg.porosity.build_plateau(window, iter(range(start, start + 3)), pair, 1.0)
        orliczalg.porosity.build_plateau(window, [0, 2], pair, 1.0)
    m = t.metrics()
    assert m["algebra.build_plateau.calls"] == 4
    assert m["algebra.build_plateau.repeat_frac"] == 0.5


def test_every_fixed_span_name_is_reported():
    fixed = {t.name for t in tr.TARGETS if isinstance(t.name, str) and not t.count_only}
    assert fixed <= set(tr.SPAN_NAMES)
    assert {t.count_only for t in tr.TARGETS if t.count_only} <= set(tr.COUNT_NAMES)


def test_metric_names_match_benchmark_json():
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {m["name"] for m in bench["per_layer"]}
    emitted = set(tr.Tracer().metrics())
    emitted |= {"trace.run_s", "trace.untraced_run_s", "trace.overhead_s"}
    assert emitted == declared
