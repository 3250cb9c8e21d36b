"""The three benchmark workloads and the correctness gates on their outputs.

A workload object is built once per process (set-up) and then run in
passes. Each pass gets its own seed, from which ``prepare`` makes the
inputs outside the timed region; ``run`` is the timed call into the
package; ``check`` turns the outputs into a ``Gate``: operations attempted,
operations failed and the first few problems.

The package is reached through module attributes at call time
(``cli.main``, ``norms.luxemburg``) so that a traced pass sees the
tracer's wrappers.
"""

from __future__ import annotations

import io
import math
import sys
from contextlib import redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from random import Random

#: ``orliczalg suite`` with the default battery: 6 groups x 4 pairs.
BATTERY_CHECKS = 106
WITNESS_PROBES = 100
#: catalog pair name -> N-function spec accepted by ``--nfunction``
CATALOG_PAIRS = (
    ("power-2", '{"kind": "power", "p": 2}'),
    ("power-3", '{"kind": "power", "p": 3}'),
    ("entropy", '{"kind": "entropy"}'),
    ("cosh", '{"kind": "cosh"}'),
)
#: (carrier constructor, its argument, support size) for the norms sweep
NORM_SHAPES = (("cyclic", 64, 64), ("cyclic", 256, 128), ("integer_window", 512, 64))
NORM_FUNCTIONS_PER_SHAPE = 2
#: the evaluations each norms-sweep function goes through
NORM_EVALUATIONS = ("luxemburg", "orlicz_xcheck", "orlicz_plain", "char_fn")
CLOSED_FORM_RTOL = 1e-9
EQUIVALENCE_RTOL = 1e-9
MAX_PROBLEMS = 5


@dataclass
class Gate:
    attempted: int = 0
    failed: int = 0
    problems: list[str] = field(default_factory=list)

    def fail(self, count: int, problem: str) -> None:
        self.failed += count
        if len(self.problems) < MAX_PROBLEMS:
            self.problems.append(problem)

    def merge(self, other: "Gate") -> None:
        self.attempted += other.attempted
        self.failed += other.failed
        for problem in other.problems:
            if len(self.problems) < MAX_PROBLEMS:
                self.problems.append(problem)


def parse_report(text: str) -> dict[str, str]:
    """Machine report lines ``key=value`` as a dict (first '=' splits)."""
    out = {}
    for line in text.splitlines():
        key, sep, value = line.partition("=")
        if sep:
            out[key] = value
    return out


def _int(report: dict[str, str], key: str) -> int | None:
    try:
        return int(report[key])
    except (KeyError, ValueError):
        return None


def _run_cli(cli, argv: list[str]) -> tuple[int, str]:
    """(exit code, report text); an error message stands in for an empty report."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = cli.main(argv)
    return code, out.getvalue() or err.getvalue().split("\n", 1)[0]


# ---------------------------------------------------------------------------
# battery
# ---------------------------------------------------------------------------

def battery_gate(code: int, text: str) -> Gate:
    """passed=true, checks-total=106, checks-failed=0 and exit code 0."""
    gate = Gate(attempted=BATTERY_CHECKS)
    report = parse_report(text)
    total, failed = _int(report, "checks-total"), _int(report, "checks-failed")
    if total != BATTERY_CHECKS or failed is None:
        gate.fail(BATTERY_CHECKS, f"battery: exit {code}, checks-total={total}, "
                                  f"checks-failed={failed}: {text[:200]!r}")
        return gate
    if failed:
        gate.fail(failed, f"battery: {failed} checks failed")
    elif code != 0 or report.get("passed") != "true":
        gate.fail(1, f"battery: exit {code}, passed={report.get('passed')}")
    return gate


class Battery:
    """``orliczalg suite`` with the default battery, through ``cli.main``."""

    name = "battery"
    operations = BATTERY_CHECKS

    def __init__(self, orliczalg):
        self.cli = orliczalg.cli

    def prepare(self, seed: int) -> list[str]:
        return ["suite", "--seed", str(seed)]

    def run(self, argv: list[str]) -> tuple[int, str]:
        return _run_cli(self.cli, argv)

    def check(self, argv, output) -> Gate:
        return battery_gate(*output)


# ---------------------------------------------------------------------------
# witness
# ---------------------------------------------------------------------------

def witness_gate(pair_name: str, code: int, text: str) -> Gate:
    """probes=100, violations=probes, passed=true and exit code 0."""
    gate = Gate(attempted=WITNESS_PROBES)
    report = parse_report(text)
    probes, violations = _int(report, "probes"), _int(report, "violations")
    if probes != WITNESS_PROBES or violations is None:
        gate.fail(WITNESS_PROBES, f"witness {pair_name}: exit {code}, probes={probes}, "
                                  f"violations={violations}: {text[:200]!r}")
        return gate
    if violations != probes:
        gate.fail(probes - violations,
                  f"witness {pair_name}: {probes - violations} probes did not violate")
    elif code != 0 or report.get("passed") != "true":
        gate.fail(1, f"witness {pair_name}: exit {code}, passed={report.get('passed')}")
    return gate


class Witness:
    """``orliczalg porosity witness --probes 100`` once per catalog pair."""

    name = "witness"
    operations = WITNESS_PROBES * len(CATALOG_PAIRS)

    def __init__(self, orliczalg):
        self.cli = orliczalg.cli

    def prepare(self, seed: int) -> list[list[str]]:
        return [["porosity", "witness", "--probes", str(WITNESS_PROBES),
                 "--nfunction", spec, "--seed", str(seed)] for _, spec in CATALOG_PAIRS]

    def run(self, argvs: list[list[str]]) -> list[tuple[int, str]]:
        return [_run_cli(self.cli, argv) for argv in argvs]

    def check(self, argvs, outputs) -> Gate:
        gate = Gate()
        for (pair_name, _), (code, text) in zip(CATALOG_PAIRS, outputs):
            gate.merge(witness_gate(pair_name, code, text))
        return gate


# ---------------------------------------------------------------------------
# norms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NormCase:
    pair_name: str
    pair: object
    space: object
    f: object
    support: tuple


@dataclass(frozen=True)
class NormOutcome:
    """The numbers one function's four evaluations produced."""

    luxemburg: float
    xcheck: float
    oracle: float | None
    xcheck_flags: tuple
    plain: float
    char_fn: float


def power_exponent(pair_name: str) -> float | None:
    if pair_name.startswith("power-"):
        return float(pair_name.split("-", 1)[1])
    return None


def lp_norm(f, p: float) -> float:
    """(sum |f(x)|^p weight(x))^(1/p), summed exactly with fsum."""
    return math.fsum(abs(v) ** p * f.space.weight_float(x) for x, v in f.items()) ** (1 / p)


def norm_gate(pair_name: str, out: NormOutcome, support_size: int,
              support_mass: float, lp: float | None = None) -> Gate:
    """Gate one function's four evaluations; each failed evaluation counts once.

    Every pair: all values finite and positive, no oracle flag, the
    oracle at most the Orlicz value, N <= ||f|| <= 2N and the plain
    Orlicz value equal to the cross-checked one (relative tolerance).
    Power pairs add the Rao-Ren closed forms N = p^(-1/p) ||f||_p and
    ||f|| = q^(1/q) ||f||_p, and chi_F's norm (lam(F)/p)^(1/p).

    The two one-sided checks (oracle <= Orlicz value, Luxemburg value >=
    its closed form) compare sums of n = ``support_size`` positive float
    terms, so each side carries up to (n + 4) unit roundoffs of relative
    rounding; they allow that much and no more.
    """
    rounding = (support_size + 4) * sys.float_info.epsilon
    bad: dict[str, str] = {}
    values = {"luxemburg": out.luxemburg, "orlicz_xcheck": out.xcheck,
              "orlicz_plain": out.plain, "char_fn": out.char_fn}
    for ev, value in values.items():
        if not (math.isfinite(value) and value > 0.0):
            bad[ev] = f"{ev} value {value!r}"
    oracle = out.oracle
    if oracle is None or not math.isfinite(oracle):
        bad.setdefault("orlicz_xcheck", f"oracle value {oracle!r}")
    elif oracle > out.xcheck * (1.0 + rounding):
        bad.setdefault("orlicz_xcheck", f"oracle {oracle!r} > value {out.xcheck!r}")
    if any(flag.startswith("oracle-") for flag in out.xcheck_flags):
        bad.setdefault("orlicz_xcheck", f"flags {out.xcheck_flags}")
    n, o = out.luxemburg, out.xcheck
    if "luxemburg" not in bad and "orlicz_xcheck" not in bad:
        if not (n <= o * (1 + EQUIVALENCE_RTOL) and o <= 2.0 * n * (1 + EQUIVALENCE_RTOL)):
            bad["orlicz_xcheck"] = f"N={n!r}, ||f||={o!r} break N <= ||f|| <= 2N"
    if "orlicz_plain" not in bad and "orlicz_xcheck" not in bad:
        if not abs(out.plain - o) <= EQUIVALENCE_RTOL * o:
            bad["orlicz_plain"] = f"plain {out.plain!r} != cross-checked {o!r}"

    p = power_exponent(pair_name)
    if p is not None:
        if lp is None:
            raise ValueError("power pairs need the p-norm for their closed forms")
        q = p / (p - 1.0)
        closed = {"luxemburg": p ** (-1 / p) * lp, "orlicz_xcheck": q ** (1 / q) * lp,
                  "orlicz_plain": q ** (1 / q) * lp,
                  "char_fn": (support_mass / p) ** (1 / p)}
        for ev, expected in closed.items():
            if not abs(values[ev] - expected) <= CLOSED_FORM_RTOL * expected:
                bad.setdefault(ev, f"{ev} {values[ev]!r} vs closed form {expected!r}")
        if out.luxemburg < closed["luxemburg"] * (1.0 - rounding):
            bad.setdefault("luxemburg", f"Luxemburg {out.luxemburg!r} below closed form "
                                        f"{closed['luxemburg']!r}")

    gate = Gate(attempted=len(NORM_EVALUATIONS))
    for ev, problem in bad.items():
        gate.fail(1, f"norms {pair_name}: {problem}")
    return gate


class Norms:
    """Library sweep: Luxemburg, Orlicz with and without the oracle, chi_F norm."""

    name = "norms"
    operations = (len(CATALOG_PAIRS) * len(NORM_SHAPES) * NORM_FUNCTIONS_PER_SHAPE
                  * len(NORM_EVALUATIONS))

    def __init__(self, orliczalg):
        self.norms = orliczalg.norms
        self.random_function = orliczalg.groups.random_function
        self.spaces = [(getattr(orliczalg, kind)(arg), size)
                       for kind, arg, size in NORM_SHAPES]
        self.pairs = [(name, orliczalg.pair_from_name(name)) for name, _ in CATALOG_PAIRS]

    def prepare(self, seed: int) -> list[NormCase]:
        rng = Random(seed)
        cases = []
        for pair_name, pair in self.pairs:
            for space, size in self.spaces:
                for _ in range(NORM_FUNCTIONS_PER_SHAPE):
                    f = self.random_function(space, rng, support_size=size)
                    cases.append(NormCase(pair_name, pair, space, f, f.support))
        return cases

    def run(self, cases: list[NormCase]) -> list[NormOutcome]:
        norms = self.norms
        outcomes = []
        for c in cases:
            lux = norms.luxemburg(c.pair.phi, c.f)
            xc = norms.orlicz_norm(c.pair, c.f)
            plain = norms.orlicz_norm(c.pair, c.f, cross_check=False)
            char = norms.char_fn_norm(c.pair.phi, c.space, c.support)
            outcomes.append(NormOutcome(
                luxemburg=lux.value, xcheck=xc.value, oracle=xc.oracle_value,
                xcheck_flags=xc.flags, plain=plain.value, char_fn=char))
        return outcomes

    def check(self, cases: list[NormCase], outcomes: list[NormOutcome]) -> Gate:
        gate = Gate()
        for c, out in zip(cases, outcomes):
            p = power_exponent(c.pair_name)
            lp = lp_norm(c.f, p) if p is not None else None
            mass = math.fsum(c.space.weight_float(x) for x in c.support)
            gate.merge(norm_gate(c.pair_name, out, len(c.support), mass, lp))
        return gate


WORKLOADS = {w.name: w for w in (Battery, Witness, Norms)}
