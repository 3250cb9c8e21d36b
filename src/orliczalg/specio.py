"""Structured-text input formats and report rendering.

Specs are JSON, parsed strictly: unknown keys are rejected so that a
typo cannot silently fall back to a default. Group specs:

    {"type": "Zn", "n": 8}
    {"type": "Zwindow", "radius": 256}
    {"type": "product", "factors": [{"type": "Zn", "n": 2}, ...]}
    {"type": "table", "elements": [...], "mul": [[...]], "identity": ...}
    {"type": "S3"}                       # built-in permutation table

N-function specs:

    {"kind": "power", "p": 2}
    {"kind": "entropy"} | {"kind": "cosh"}
    {"kind": "custom", "table": [[x, value, slope], ...]}

A pair spec is an N-function spec; catalog kinds get their closed-form
complements, custom tables a numeric conjugate, and
{"construction": "numeric"} forces the numeric route for any kind. Each
kind takes only its own keys, "construction" is "closed-form" (not for
custom tables) or "numeric", and every number must be finite. A spec
whose values build no N-function (p <= 1, a table that is not convex
or whose value column disagrees with its derivative) is malformed input
too: a SpecFormatError.

Function data files are rows [element, re, im]; elements of product
groups are written as (nested) lists.

Reports are ordered key/value lines. The machine rendering is
byte-stable for a fixed config and seed (no timestamps); the human
rendering adds alignment and the wall-clock line.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Mapping

from .errors import CheckResult, InvalidNFunctionError, SpecFormatError
from .groups import (
    GroupFunction,
    GroupSpace,
    TableGroup,
    cyclic,
    direct_product,
    integer_window,
    symmetric_group3,
)
from .nfunctions import (
    ComplementaryPair,
    cosh_minus_one,
    entropy,
    from_table,
    numeric_pair,
    pair_cosh,
    pair_entropy,
    pair_power,
    power,
)


def read_json(source: str | Path) -> Any:
    """Parse a path to a JSON file, or an inline JSON literal."""
    text = str(source)
    if text.lstrip().startswith(("{", "[")):
        payload, name = text, "<inline>"
    else:
        path = Path(text)
        if not path.exists():
            raise SpecFormatError(f"no such file: {text}")
        try:
            payload, name = path.read_text(encoding="utf-8"), text
        except (OSError, UnicodeDecodeError) as exc:
            raise SpecFormatError(f"cannot read {text}: {exc}") from None
    try:
        return json.loads(payload)
    except json.JSONDecodeError as exc:
        raise SpecFormatError(f"{name}: {exc.msg}", line=exc.lineno,
                              column=exc.colno) from exc


def write_text(path: str, text: str) -> None:
    """Write text to a file; an OSError is a SpecFormatError, as in ``read_json``."""
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise SpecFormatError(f"cannot write {path}: {exc}") from None


def finite_float(value: Any, what: str = "value") -> float:
    """A finite float from a flag's text or a JSON number, else SpecFormatError:
    a ValueError, which argparse reports as a usage error (exit 2)."""
    try:
        number = float(value)
    except (TypeError, ValueError):
        number = math.nan
    if not math.isfinite(number):
        raise SpecFormatError(f"{what} must be a finite number, got {value!r}")
    return number


def json_int(value: Any, what: str) -> int:
    """A JSON integer, else SpecFormatError: a float, bool, string or null is
    neither rounded nor parsed."""
    if isinstance(value, bool) or not isinstance(value, int):
        raise SpecFormatError(f"{what} must be an integer, got {value!r}")
    return value


def _check_keys(obj: Mapping, required: set[str], optional: set[str], context: str) -> None:
    if not isinstance(obj, Mapping):
        raise SpecFormatError(f"{context}: expected an object, got {type(obj).__name__}")
    keys = set(obj)
    missing = required - keys
    unknown = keys - required - optional
    if missing:
        raise SpecFormatError(f"{context}: missing keys {sorted(missing)}")
    if unknown:
        raise SpecFormatError(f"{context}: unknown keys {sorted(unknown)} (strict parsing)")


def group_from_spec(spec: Any) -> GroupSpace:
    if isinstance(spec, (str, Path)):
        spec = read_json(spec)
    _check_keys(spec, {"type"}, {"n", "radius", "factors", "elements", "mul", "identity"},
                "group spec")
    kind = spec["type"]
    if kind == "Zn":
        _check_keys(spec, {"type", "n"}, set(), "Zn spec")
        return cyclic(json_int(spec["n"], "Zn spec: 'n'"))
    if kind == "Zwindow":
        _check_keys(spec, {"type", "radius"}, set(), "Zwindow spec")
        return integer_window(json_int(spec["radius"], "Zwindow spec: 'radius'"))
    if kind == "product":
        _check_keys(spec, {"type", "factors"}, set(), "product spec")
        if not isinstance(spec["factors"], list):
            raise SpecFormatError("product spec: 'factors' must be a list of group specs")
        return direct_product(*(group_from_spec(f) for f in spec["factors"]))
    if kind == "table":
        _check_keys(spec, {"type", "elements", "mul", "identity"}, set(), "table spec")
        elements, mul = spec["elements"], spec["mul"]
        if not isinstance(elements, list):
            raise SpecFormatError("table spec: 'elements' must be a list")
        if not isinstance(mul, list) or not all(isinstance(row, list) for row in mul):
            raise SpecFormatError("table spec: 'mul' must be a list of rows")
        mul = [[json_int(v, f"table spec: 'mul' entry [{i}][{j}]") for j, v in enumerate(row)]
               for i, row in enumerate(mul)]
        elements = [_decode_element(x, "table spec: 'elements'") for x in elements]
        return TableGroup("table", elements, mul,
                          _decode_element(spec["identity"], "table spec: 'identity'"))
    if kind == "S3":
        _check_keys(spec, {"type"}, set(), "S3 spec")
        return symmetric_group3()
    raise SpecFormatError(f"unknown group type {kind!r}")


def group_from_name(name: str) -> GroupSpace:
    """The group of a battery name (Z8, Z2xZ2xZ3, S3, Zwindow256), a spec path or
    a JSON spec."""
    if name.lstrip().startswith("{") or name.endswith(".json"):
        return group_from_spec(name)
    if "x" in name:
        return direct_product(*(group_from_name(p) for p in name.split("x")))
    if name == "S3":
        return symmetric_group3()
    for prefix, build in (("Zwindow", integer_window), ("Z", cyclic)):
        digits = name[len(prefix):]
        if name.startswith(prefix) and digits.isdecimal():
            return build(int(digits))
    raise SpecFormatError(f"unknown group name {name!r}")


def _decode_element(x: Any, what: str):
    """An element from JSON, lists as tuples; an object cannot label one."""
    if isinstance(x, list):
        return tuple(_decode_element(v, what) for v in x)
    if isinstance(x, dict):
        raise SpecFormatError(f"{what}: an element cannot be a JSON object, got {x!r}")
    return x


def _encode_element(x: Any):
    if isinstance(x, tuple):
        return [_encode_element(v) for v in x]
    return x


#: the keys each N-function kind takes besides "kind" and "construction"
_KIND_KEYS = {"power": {"p"}, "entropy": set(), "cosh": set(), "custom": {"table"}}


def pair_from_spec(spec: Any) -> ComplementaryPair:
    """The complementary pair of an N-function spec; each Phi is built once."""
    if isinstance(spec, (str, Path)):
        spec = read_json(spec)
    _check_keys(spec, {"kind"}, {"p", "table", "construction"}, "nfunction spec")
    kind = spec["kind"]
    if not isinstance(kind, str) or kind not in _KIND_KEYS:
        raise SpecFormatError(f"unknown N-function kind {kind!r}")
    _check_keys(spec, {"kind"} | _KIND_KEYS[kind], {"construction"}, f"{kind} spec")
    allowed = ("numeric",) if kind == "custom" else ("closed-form", "numeric")
    construction = spec.get("construction", allowed[0])
    if construction not in allowed:
        raise SpecFormatError(f"{kind} spec: construction {construction!r} not in {allowed}")
    numeric = construction == "numeric"
    try:
        if kind == "power":
            p = finite_float(spec["p"], "power spec: 'p'")
            return numeric_pair(power(p)) if numeric else pair_power(p)
        if kind == "entropy":
            return numeric_pair(entropy()) if numeric else pair_entropy()
        if kind == "cosh":
            return numeric_pair(cosh_minus_one()) if numeric else pair_cosh()
        table = spec["table"]
        if not isinstance(table, list) or any(not isinstance(r, list) or len(r) != 3
                                              for r in table):
            raise SpecFormatError("custom spec: 'table' must be a list of [x, value, slope] rows")
        return numeric_pair(from_table([[finite_float(v, f"custom spec: table row {i}")
                                         for v in row] for i, row in enumerate(table)]))
    except InvalidNFunctionError as exc:  # the spec's values build no N-function
        raise SpecFormatError(str(exc)) from None


def pair_from_name(name: str) -> ComplementaryPair:
    """The catalog pair of a battery name ("power-<p>", "entropy", "cosh"),
    through its N-function spec; a bad name is a SpecFormatError."""
    if name.startswith("power-"):
        return pair_from_spec({"kind": "power", "p": name[len("power-"):]})
    return pair_from_spec({"kind": name})


def function_from_rows(space: GroupSpace, rows: Any) -> GroupFunction:
    if isinstance(rows, (str, Path)):
        rows = read_json(rows)
    if not isinstance(rows, list):
        raise SpecFormatError("function data must be a list of [element, re, im] rows")
    vals = {}
    for i, row in enumerate(rows):
        if not isinstance(row, list) or len(row) != 3:
            raise SpecFormatError(f"function data row {i}: expected [element, re, im]")
        x = _decode_element(row[0], f"function data row {i}")
        if not space.contains(x):
            raise SpecFormatError(f"function data row {i}: {x!r} not in {space.name}")
        try:
            real, imag = float(row[1]), float(row[2])
        except (TypeError, ValueError):
            raise SpecFormatError(f"function data row {i}: values must be numbers") from None
        if not (math.isfinite(real) and math.isfinite(imag)):
            raise SpecFormatError(f"function data row {i}: non-finite value")
        vals[x] = complex(real, imag)
    return GroupFunction(space, vals)


def function_to_rows(f: GroupFunction) -> list:
    return [[_encode_element(x), v.real, v.imag] for x, v in f.items()]


# ---------------------------------------------------------------------------
# reports
# ---------------------------------------------------------------------------

@dataclass
class Report:
    """Ordered key/value lines; each check line is also kept as a ``CheckResult``."""

    verb: str
    lines: list[tuple[str, str]] = field(default_factory=list)
    checks: list[CheckResult] = field(default_factory=list)
    out_of_scope: list[tuple[str, str]] = field(default_factory=list)  # (key, reason)

    def add(self, key: str, value: Any) -> None:
        self.lines.append((key, _render_value(value)))

    def check(self, key: str, passed: bool, slack: float, detail: str = "") -> None:
        self.record(CheckResult(key, passed, slack, detail))

    def record(self, *checks: CheckResult) -> None:
        """A check line for each clause: pass/fail, numeric slack, optional provenance."""
        for c in checks:
            suffix = f" {c.detail}" if c.detail else ""
            self.lines.append((f"check.{c.name}", f"{'pass' if c.passed else 'FAIL'} "
                               f"slack={_render_value(c.slack)}{suffix}"))
            self.checks.append(c)

    def skip(self, key: str, reason: str) -> None:
        """An ``out-of-scope.<key>`` line for a check that could not run.

        It is not a check, but a report that carries one has not passed.
        """
        self.lines.append((f"out-of-scope.{key}", reason))
        self.out_of_scope.append((key, reason))

    @property
    def failures(self) -> list[str]:
        return [c.name for c in self.checks if not c.passed]

    @property
    def passed(self) -> bool:
        return not self.out_of_scope and all(c.passed for c in self.checks)

    def render(self, fmt: str = "machine", wall_clock: float | None = None) -> str:
        if fmt == "machine":
            body = [f"{k}={v}" for k, v in self.lines]
            return "\n".join([f"verb={self.verb}", *body,
                              f"passed={str(self.passed).lower()}"]) + "\n"
        width = max((len(k) for k, _ in self.lines), default=0)
        out = [f"== {self.verb} =="]
        out += [f"{k.ljust(width)} : {v}" for k, v in self.lines]
        out.append(f"{'passed'.ljust(width)} : {self.passed}")
        if wall_clock is not None:
            out.append(f"{'wall-clock-s'.ljust(width)} : {wall_clock:.3f}")
        return "\n".join(out) + "\n"


def _render_value(value: Any) -> str:
    if isinstance(value, float):
        return repr(value)
    if isinstance(value, complex):
        return f"{value.real!r}{value.imag:+}j"
    if isinstance(value, (list, tuple)):
        return "[" + ", ".join(_render_value(v) for v in value) + "]"
    return str(value)
