"""Each correctness gate accepts a good output and rejects a hand-made bad one."""

import math

from perfbench.workloads import (
    BATTERY_CHECKS,
    WITNESS_PROBES,
    NormOutcome,
    battery_gate,
    norm_gate,
    witness_gate,
)

GOOD_BATTERY = f"verb=suite\nchecks-total={BATTERY_CHECKS}\nchecks-failed=0\npassed=true\n"


def test_battery_gate():
    assert battery_gate(0, GOOD_BATTERY).failed == 0
    assert battery_gate(0, GOOD_BATTERY).attempted == BATTERY_CHECKS
    two_failed = GOOD_BATTERY.replace("checks-failed=0", "checks-failed=2").replace(
        "passed=true", "passed=false")
    assert battery_gate(1, two_failed).failed == 2
    short = GOOD_BATTERY.replace(f"checks-total={BATTERY_CHECKS}", "checks-total=105")
    assert battery_gate(0, short).failed == BATTERY_CHECKS
    assert battery_gate(0, GOOD_BATTERY.replace("passed=true", "passed=false")).failed == 1
    assert battery_gate(4, GOOD_BATTERY).failed == 1
    assert battery_gate(4, "").failed == BATTERY_CHECKS


def _witness(probes=WITNESS_PROBES, violations=WITNESS_PROBES, passed="true"):
    return f"verb=porosity witness\nprobes={probes}\nviolations={violations}\npassed={passed}\n"


def test_witness_gate():
    assert witness_gate("cosh", 0, _witness()).failed == 0
    assert witness_gate("cosh", 1, _witness(violations=97, passed="false")).failed == 3
    assert witness_gate("cosh", 0, _witness(probes=99, violations=99)).failed == WITNESS_PROBES
    assert witness_gate("cosh", 1, _witness(passed="false")).failed == 1
    assert witness_gate("cosh", 0, _witness(passed="false")).failed == 1
    assert witness_gate("cosh", 4, "").failed == WITNESS_PROBES


# f = 3 delta_0 on Z4 under power-2: |f|_2 = (9/4)^(1/2) = 1.5, lam(supp) = 1/4
LP, MASS, P, Q = 1.5, 0.25, 2.0, 2.0
LUX = P ** (-1 / P) * LP
ORL = Q ** (1 / Q) * LP
CHAR = (MASS / P) ** (1 / P)


def _outcome(**changes):
    base = dict(luxemburg=LUX * (1 + 1e-13), xcheck=ORL, oracle=ORL * (1 - 1e-13),
                xcheck_flags=(), plain=ORL, char_fn=CHAR)
    base.update(changes)
    return NormOutcome(**base)


def _failed(out, pair="power-2", lp=LP):
    return norm_gate(pair, out, 1, MASS, lp).failed


def test_norm_gate_accepts_closed_forms():
    gate = norm_gate("power-2", _outcome(), 1, MASS, LP)
    assert (gate.attempted, gate.failed) == (4, 0)
    assert _failed(_outcome(), pair="entropy", lp=None) == 0


def test_norm_gate_rejects_each_bad_value():
    assert _failed(_outcome(luxemburg=LUX * (1 + 1e-6))) == 1       # closed form
    assert _failed(_outcome(luxemburg=LUX * (1 - 1e-12))) == 1      # below its closed form
    assert _failed(_outcome(xcheck=ORL * (1 + 1e-6))) == 1          # closed form
    assert _failed(_outcome(plain=ORL * (1 - 1e-6))) == 1
    assert _failed(_outcome(char_fn=CHAR * 1.01)) == 1
    assert _failed(_outcome(oracle=ORL * (1 + 1e-12))) == 1         # oracle above the value
    assert norm_gate("power-2", _outcome(oracle=ORL * (1 + 4e-16)), 64, MASS, LP).failed == 0
    assert _failed(_outcome(oracle=None)) == 1
    assert _failed(_outcome(xcheck_flags=("oracle-disagreement",))) == 1
    assert _failed(_outcome(luxemburg=math.nan)) == 1
    assert _failed(_outcome(char_fn=math.inf)) == 1
    assert _failed(_outcome(plain=0.0)) == 1


def test_norm_gate_equivalence_for_every_pair():
    n = 1.0
    assert _failed(_outcome(luxemburg=n, xcheck=1.5, oracle=1.5, plain=1.5),
                   pair="cosh", lp=None) == 0
    assert _failed(_outcome(luxemburg=n, xcheck=2.1, oracle=2.1, plain=2.1),
                   pair="cosh", lp=None) == 1
    assert _failed(_outcome(luxemburg=n, xcheck=0.9, oracle=0.9, plain=0.9),
                   pair="entropy", lp=None) == 1
