"""CLI behavior: verbs, exit codes, strict parsing, reproducible reports."""

import argparse
import dataclasses
import functools
import io
import json
import math
import os
import re
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from random import Random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import orliczalg.cli as cli
import orliczalg.nfunctions as nfunctions
import orliczalg.norms as norms
import orliczalg.porosity as porosity
import orliczalg.structure as structure
from orliczalg.algebra import (
    Decomposition,
    build_plateau,
    decomposition_cost,
    merged_decomposition,
)
from orliczalg.errors import TheoremContradictionError
from orliczalg.groups import (
    GroupFunction,
    convolve,
    integer_window,
    leptin_search,
    random_function,
    set_product,
)
from orliczalg.nfunctions import CATALOG_PAIR_NAMES, ComplementaryPair, power, young_equality_check
from orliczalg.specio import (
    Report,
    function_from_rows,
    function_to_rows,
    group_from_spec,
    pair_from_name,
)
from test_golden import RUNS as GOLDEN_RUNS

Z8 = '{"type": "Zn", "n": 8}'
QUAD = '{"kind": "power", "p": 2}'
CHI_HALF = json.dumps([[x, 1, 0] for x in range(4)])
GOLDEN_DIR = Path(__file__).with_name("golden")


@functools.cache
def parser_tree(command=None):
    """``cli._build_parser(command)``, built once. None gives the whole tree, the
    reference: the root ``cli._build_parser`` makes, with every builder in
    ``cli._COMMANDS`` called on it."""
    if command is not None:
        return cli._build_parser(command)
    root = cli._build_parser(None)
    whole = argparse.ArgumentParser(prog=root.prog, description=root.description)
    whole.add_argument("--version", action="version", version=cli.__version__)
    tops = whole.add_subparsers(dest="command", required=True)
    for _, add in cli._COMMANDS.values():
        add(tops)
    return whole


def parse_outcome(parser, argv):
    """(Namespace or None, exit code or None, stdout, stderr) of parsing argv."""
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        try:
            args, code = parser.parse_args(argv), None
        except SystemExit as exc:
            args, code = None, exc.code
    return args, code, out.getvalue(), err.getvalue()


def assert_one_command_tree_parses_alike(argv):
    """The tree ``main`` builds for argv parses it as the whole tree does."""
    argv = list(argv)
    # '' names no command, as the None that main passes for an empty argv does
    assert parse_outcome(parser_tree(argv[0] if argv else ""), argv) == \
        parse_outcome(parser_tree(), argv)


def run_cli(capsys, *argv):
    assert_one_command_tree_parses_alike(argv)
    code = cli.main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_luxemburg_closed_form_via_cli(capsys):
    code, out, _ = run_cli(capsys, "norm", "luxemburg", "--group", Z8,
                           "--nfunction", QUAD, "--function", CHI_HALF)
    assert code == 0
    value = float(next(line.split("=")[1] for line in out.splitlines()
                       if line.startswith("value=")))
    assert value == pytest.approx(0.5, abs=1e-10)
    assert "passed=true" in out


def test_charfn_cross_check(capsys):
    code, out, _ = run_cli(capsys, "norm", "charfn", "--group", Z8,
                           "--nfunction", QUAD, "--subset", "[0,1,2,3]")
    assert code == 0
    assert "check.closed-form-vs-regula-falsi=pass" in out


@pytest.mark.parametrize("group, subset, element", [
    ('{"type": "Zwindow", "radius": 4}', "[1, 1]", "1"),
    ('{"type": "Zn", "n": 4}', "[0, 0, 0, 0, 0]", "0"),
], ids=["Zwindow4", "Z4"])
def test_charfn_repeated_element_exits_2(capsys, group, subset, element):
    # lam summed over the list would count the element twice, unlike the
    # indicator of the set that the cross-check prices
    code, out, err = run_cli(capsys, "norm", "charfn", "--group", group,
                             "--nfunction", QUAD, "--subset", subset)
    assert (code, out) == (2, "")
    assert err == f"parse error: characteristic-function subset repeats {element}\n"


@pytest.mark.parametrize("nfunction, points, message", [
    (QUAD, ",", "--points lists no ordinate"),
    ('{"kind": "entropy"}', "1,1e3",
     "--points entry 1000 exceeds the domain cap 690.776 of exp-minus-linear"),
    (QUAD, "1e308", "--points entry 1e+308 exceeds the domain cap 1.41421e+150 of power(p=2)"),
], ids=["empty", "entropy-1e3", "power-2-1e308"])
def test_nfunc_conjugate_points_that_check_nothing_or_leave_psi_domain_exit_2(
        capsys, nfunction, points, message):
    code, out, err = run_cli(capsys, "nfunc", "conjugate", "--nfunction", nfunction,
                             "--points", points)
    assert (code, out) == (2, "")
    assert err == f"parse error: {message}\n"


@pytest.mark.parametrize("argv, flag", [
    (("group", "check", "--group", Z8), "--output"),
    (("group", "convolve", "--group", Z8, "--left", CHI_HALF, "--right", CHI_HALF), "--save"),
], ids=["output", "save"])
def test_unwritable_output_path_exits_2(capsys, tmp_path, argv, flag):
    path = tmp_path / "missing" / "out.txt"
    code, out, err = run_cli(capsys, *argv, flag, str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot write {path}: ")
    assert not path.exists()


def test_malformed_group_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "group", "check", "--group", '{"type": "Zn", "n":')
    assert code == 2
    assert "line 1" in err and "column" in err


@pytest.mark.parametrize("spec, code, message", [
    ('{"type": "Zn", "n": 0}', 2, "parse error: cyclic order must be positive, got 0"),
    ('{"type": "Zwindow", "radius": 0}', 2, "parse error: window radius must be positive, got 0"),
    ('{"type": "product", "factors": []}', 2, "parse error: product needs at least one factor"),
    ('{"type": "product", "factors": [{"type": "Zn", "n": 2}, {"type": "Zwindow", "radius": 2}]}',
     3, "scope error: window factors in products are out of scope"),
    ('{"type": "table", "elements": [0, 1], "mul": [[0, 1], [1, 2]], "identity": 0}',
     2, "parse error: table: mul table entry 2 out of range"),
    ('{"type": "table", "elements": [0, 0], "mul": [[0, 1], [1, 0]], "identity": 0}',
     2, "parse error: table: duplicate carrier elements"),
    ('{"type": "table", "elements": [0, 1], "mul": [[0, 1], [1, 0]], "identity": 5}',
     2, "parse error: table: identity not in carrier"),
    ('{"type": "table", "elements": [0, 1], "mul": [[1, 0], [0, 1]], "identity": 0}',
     3, "scope error: table: identity law fails at 0"),
], ids=["Z0", "Zwindow0", "empty-product", "window-factor", "entry-out-of-range",
        "duplicate-elements", "identity-outside", "identity-law"])
def test_group_spec_that_builds_no_group_exits_2_or_3(capsys, spec, code, message):
    assert run_cli(capsys, "group", "check", "--group", spec) == (code, "", f"{message}\n")


def test_unknown_key_rejected_exits_2(capsys):
    code, _, err = run_cli(capsys, "group", "check", "--group",
                           '{"type": "Zn", "n": 4, "extra": 1}')
    assert code == 2
    assert "strict parsing" in err


def test_scope_error_exits_3(capsys):
    code, _, err = run_cli(capsys, "unit", "check", "--group",
                           '{"type": "Zwindow", "radius": 8}', "--nfunction", QUAD)
    assert code == 3


@pytest.mark.parametrize("argv, size", [
    (("group", "check", "--group", '{"type":"Zn","n":100000000}'), 100000000),
    (("porosity", "witness", "--window", "100000000"), 200000001),
    (("suite", "--groups", "Z100000000", "--pairs", "power-2"), 100000000),
])
def test_a_carrier_over_the_limit_exits_3_naming_its_size(capsys, argv, size):
    code, out, err = run_cli(capsys, *argv)
    assert code == 3
    assert f"a carrier of {size} points exceeds the carrier limit" in err


@pytest.mark.parametrize("verb, group, nfunction, value", [
    ("luxemburg", '{"type": "Zn", "n": 64}', '{"kind": "entropy"}', 1e-307),
    ("orlicz", '{"type": "Zn", "n": 4}', QUAD, 1e-308),
])
def test_a_norm_whose_solve_scale_overflows_exits_3(capsys, verb, group, nfunction, value):
    # the scale 1/k (Luxemburg) or k (Amemiya) passes the largest float
    # before the root, which a solve would misread as the cap
    code, out, err = run_cli(capsys, "norm", verb, "--group", group, "--nfunction",
                             nfunction, "--function", json.dumps([[0, value, 0]]))
    assert code == 3
    assert out == ""
    assert f"sup|f| = {value:g}" in err


#: a custom table capped at 3, where Phi(3) = 3
TABLE_CAP3 = '{"kind":"custom","table":[[0,0,0],[1,0.5,1],[2,1.5,1],[3,3,2]]}'


@pytest.mark.parametrize("verb", [("norm", "luxemburg"), ("norm", "orlicz")])
def test_a_norm_whose_root_lies_past_the_cap_exits_3_naming_it(capsys, verb):
    # rho(f/k) = Phi(100/k)/8 = 1 needs Phi = 8, above Phi(cap) = 3: the solve
    # ends against the cap outside its window, so there is no root to report
    code, out, err = run_cli(capsys, *verb, "--group", Z8, "--nfunction", TABLE_CAP3,
                             "--function", "[[0,100,0]]")
    assert code == 3
    assert out == ""
    assert err == ("scope error: tabulated: the norm's root for sup|f| = 100 "
                   "lies past its domain cap 3\n")


def test_a_bound_priced_past_the_cap_keeps_its_upper_end(capsys):
    # pricing needs only upper bounds: the Luxemburg solve's feasible point
    # at the cap, k = 100/3, and the Amemiya objective it evaluated
    code, out, _ = run_cli(capsys, "aphi", "bound", "--group", Z8, "--nfunction", TABLE_CAP3,
                           "--function", "[[0,100,0]]")
    assert code == 0
    assert "lower=100.0\nupper=183.33333333333334\n" in out
    assert "check.bracket-order=pass" in out and "passed=true" in out


def test_a_norm_whose_root_lies_inside_the_cap_keeps_its_report(capsys):
    # the constant 1 on Z8: rho(f/k) = Phi(1/k) = 1 at 1/k = 1.5, below the cap
    code, out, _ = run_cli(capsys, "norm", "luxemburg", "--group", Z8, "--nfunction",
                           TABLE_CAP3, "--function", json.dumps([[x, 1, 0] for x in range(8)]))
    assert code == 0
    value = float(next(line[len("value="):] for line in out.splitlines()
                       if line.startswith("value=")))
    assert value == pytest.approx(1 / 1.5, rel=1e-12)
    assert "check.modular-at-value=pass" in out and "passed=true" in out


def test_a_tiny_norm_whose_solve_scale_stays_finite_keeps_its_report(capsys):
    code, out, _ = run_cli(capsys, "norm", "orlicz", "--group", '{"type": "Zn", "n": 4}',
                           "--nfunction", QUAD, "--function", "[[0, 3e-308, 0]]")
    assert code == 0
    assert out.splitlines()[4:10] == [
        "value=2.121320343559643e-308",
        "method=amemiya-min",
        "oracle-value=2.121320343559112e-308",
        "provenance=computed (minimization) vs computed (dual point at the Amemiya root)",
        "check.oracle-agreement=pass slack=2.121319813e-314",
        "check.norm-equivalence=pass slack=1e-09",
    ]


def test_window_infeasibility_exits_3(capsys):
    code, _, err = run_cli(capsys, "group", "leptin", "--group",
                           '{"type": "Zwindow", "radius": 50}',
                           "--compact", "[-1,0,1]", "--epsilon", "0.01")
    assert code == 3
    assert "101" in err


def test_theorem_contradiction_exits_4(capsys, monkeypatch):
    # the mapping itself: a surfaced contradiction must reach exit code 4
    def boom(*args, **kwargs):
        raise TheoremContradictionError("forced for the exit-code contract",
                                        state={"probe": 0})
    monkeypatch.setattr(cli, "build_witness", boom)
    code, _, err = run_cli(capsys, "porosity", "witness", "--probes", "1")
    assert code == 4
    assert "CONTRADICTION" in err
    assert "state.probe" in err


def test_porosity_default_instance(capsys):
    code, out, _ = run_cli(capsys, "porosity", "witness", "--probes", "5",
                           "--seed", "3")
    assert code == 0
    assert "lam-k=6.0" in out
    assert "check.all-probes-violate=pass" in out


def test_machine_reports_are_byte_identical(capsys):
    args = ("porosity", "witness", "--probes", "10", "--seed", "11")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2


def test_seed_changes_machine_report(capsys):
    _, out1, _ = run_cli(capsys, "porosity", "witness", "--probes", "10", "--seed", "1")
    _, out2, _ = run_cli(capsys, "porosity", "witness", "--probes", "10", "--seed", "2")
    assert out1 != out2


def test_defaults_are_echoed(capsys):
    code, out, _ = run_cli(capsys, "characters", "enumerate", "--group",
                           '{"type": "Zn", "n": 3}')
    assert code == 0
    assert "config.seed=0 (default)" in out
    assert "config.tol_slack=1e-09 (default)" in out


def test_config_env_overrides_defaults(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"seed": 77}')
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    code, out, _ = run_cli(capsys, "characters", "enumerate", "--group",
                           '{"type": "Zn", "n": 3}')
    assert code == 0
    assert "config.seed=77 (set)" in out


def test_config_env_unknown_key_exits_2(capsys, tmp_path, monkeypatch):
    cfg = tmp_path / "cfg.json"
    cfg.write_text('{"sede": 77}')
    monkeypatch.setenv(cli.CONFIG_ENV, str(cfg))
    code, _, err = run_cli(capsys, "characters", "enumerate", "--group",
                           '{"type": "Zn", "n": 3}')
    assert code == 2


def test_output_flag_writes_file(capsys, tmp_path):
    target = tmp_path / "report.txt"
    code, out, _ = run_cli(capsys, "group", "check", "--group", Z8,
                           "--output", str(target))
    assert code == 0
    assert out == ""
    assert "verb=group check" in target.read_text()


def test_human_format_has_wall_clock(capsys):
    code, out, _ = run_cli(capsys, "group", "check", "--group", Z8,
                           "--format", "human")
    assert code == 0
    assert "wall-clock-s" in out


def test_aphi_plateau_and_alias(capsys):
    code, out, _ = run_cli(capsys, "aphi", "plateau", "--group",
                           '{"type": "Zwindow", "radius": 64}',
                           "--nfunction", QUAD, "--set", "[-1,0,1]",
                           "--epsilon", "0.5")
    assert code == 0
    assert "check.cost-phi-below-bound=pass" in out
    assert "chain.phi.inverse-product-lower-bound.bound=3.0" in out
    with pytest.raises(SystemExit) as exc:  # the former alias lemma-r is gone
        cli.main(["aphi", "lemma-r", "--group", '{"type": "Zwindow", "radius": 64}',
                  "--nfunction", QUAD, "--set", "[-1,0,1]"])
    assert exc.value.code == 2


def test_aphi_plateau_truncated_by_window_fails(capsys):
    # E = [3, 5] gives V = [-1, 1], and E V V^(-1) = [1, 7] exits radius 6
    code, out, _ = run_cli(capsys, "aphi", "plateau", "--group",
                           '{"type": "Zwindow", "radius": 6}', "--nfunction", QUAD,
                           "--set", "[3,4,5]", "--epsilon", "1")
    assert code == 1
    assert "check.not-truncated=FAIL" in out
    assert "passed=false" in out


@pytest.mark.parametrize("window", ["7", "8", "9"])
def test_porosity_window_truncating_k_plateau_exits_3(capsys, window):
    code, out, err = run_cli(capsys, "porosity", "witness", "--window", window,
                             "--probes", "5", "--seed", "7")
    assert code == 3
    assert out == ""
    assert "needs window radius 10" in err


@pytest.mark.parametrize("argv", [
    ("porosity", "witness", "--window", "4"),
    ("porosity", "witness", "--window", "1"),
    ("porosity", "witness", "--window", "3", "--f", "[[0, 1, 0]]"),
    ("suite", "--groups", "Zwindow4", "--pairs", "power-2"),
], ids=["witness-window4", "witness-window1", "witness-window3-default-g", "suite-Zwindow4"])
def test_default_witness_functions_off_a_small_window_exit_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err == ("scope error: the witness on the default indicator of [-5, 5] "
                   "needs window radius 10\n")


@pytest.mark.parametrize("window", range(4, 11))
def test_default_witness_functions_name_the_window_that_runs(capsys, window):
    # windows 4-9 once named radius 5, 7 or 10, whichever step failed first
    code, out, err = run_cli(capsys, "porosity", "witness", "--window", str(window),
                             "--probes", "5")
    if window < 10:
        assert (code, out) == (3, "")
        assert err == ("scope error: the witness on the default indicator of [-5, 5] "
                       "needs window radius 10\n")
    else:
        assert (code, err) == (0, "") and out.endswith("passed=true\n")


def test_a_radius_past_the_default_window_is_named_without_building_it(capsys, monkeypatch):
    built = []
    monkeypatch.setattr(cli, "integer_window",
                        lambda radius: built.append(radius) or integer_window(radius))
    code, out, err = run_cli(capsys, "porosity", "witness", "--n", "100000", "--probes", "5")
    assert (code, out) == (3, "") and built == [256]
    assert err == ("scope error: window radius 256 cannot hold enough translate mass for "
                   "lam(K) > 50000\n")


def test_witness_data_off_a_small_window_stays_a_parse_error(capsys):
    code, out, err = run_cli(capsys, "porosity", "witness", "--window", "3",
                             "--f", "[[0, 1, 0]]", "--g", "[[7, 1, 0]]")
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def _exit_code(capsys, *argv) -> tuple[int, str]:
    """Exit code and stderr of a run, whether argparse or the handler rejects it."""
    try:
        code = cli.main(list(argv))
    except SystemExit as exc:
        code = exc.code
    captured = capsys.readouterr()
    assert captured.out == ""
    return code, captured.err


@pytest.mark.parametrize("flag, value", [("--R", "-3"), ("--n", "0"), ("--V-radius", "0")])
def test_porosity_out_of_range_number_exits_2(capsys, flag, value):
    code, err = _exit_code(capsys, "porosity", "witness", flag, value, "--probes", "1")
    assert code == 2
    assert "must be" in err


# 512 n leaves the floats from n = 10**306 on; 400 nines do not even convert to a float
@pytest.mark.parametrize("n", [str(10 ** 306), "9" * 400], ids=["1e306", "400-nines"])
def test_porosity_n_past_the_float_range_exits_2_naming_n(capsys, n):
    code, err = _exit_code(capsys, "porosity", "witness", "--n", n, "--probes", "1")
    assert code == 2
    assert err.startswith(f"parse error: level index n = {n} puts 512 n outside the floats")
    assert "Traceback" not in err


def test_porosity_n_inside_the_float_range_the_window_cannot_hold_exits_3(capsys):
    code, err = _exit_code(capsys, "porosity", "witness", "--n", str(10 ** 305), "--probes", "1")
    assert code == 3
    assert err.startswith("scope error: window radius 256 cannot hold")


def test_porosity_v_radius_beyond_the_window_exits_3(capsys):
    code, err = _exit_code(capsys, "porosity", "witness", "--window", "16", "--V-radius", "17",
                           "--probes", "1")
    assert code == 3
    assert "exceeds the window 16" in err


# p = 200 underflows to 0.0 at x = 1e-6 and reaches 1e200-sized Young
# terms; p = 1.001 has the conjugate exponent 1001; from p = 500 on,
# phi'(x) reaches Psi's cap below Phi's own cap
@pytest.mark.parametrize("kind", ['"power", "p": 2', '"power", "p": 3', '"power", "p": 1.5',
                                  '"power", "p": 200', '"power", "p": 1.001',
                                  '"power", "p": 500', '"power", "p": 1e5',
                                  '"power", "p": 1e7', '"entropy"', '"cosh"'])
@pytest.mark.parametrize("construction", ["closed-form", "numeric"])
def test_nfunc_check_reports_for_every_catalog_kind(capsys, kind, construction):
    spec = f'{{"kind": {kind}, "construction": "{construction}"}}'
    code, out, err = run_cli(capsys, "nfunc", "check", "--nfunction", spec)
    assert code == 0, err
    assert "check.inverse-product-range=pass" in out
    assert "passed=true" in out


# the second Psi is 1e-9 off the conjugate exponent, where the terms
# reach 1e200 and the tolerance scales with them
@pytest.mark.parametrize("p, q", [(2.0, 3.0), (200.0, 200.0 / 199.0 * (1.0 + 1e-9))])
def test_young_equality_fails_a_psi_that_is_not_the_complement(p, q):
    rep = Report("young")
    rep.record(young_equality_check(ComplementaryPair(phi=power(p), psi=power(q),
                                                      construction="closed-form")))
    assert rep.failures == ["young-equality-at-derivative"]


# above p = 1e7 the double q = p / (p - 1) is the exact conjugate of a
# different p, so only the numeric construction takes such exponents
@pytest.mark.parametrize("construction, p, expected", [("closed-form", "2e7", 2),
                                                       ("numeric", "3e7", 0)])
def test_nfunc_check_power_above_1e7(capsys, construction, p, expected):
    code, out, err = run_cli(capsys, "nfunc", "check", "--nfunction",
                             f'{{"kind": "power", "p": {p}, "construction": "{construction}"}}')
    assert code == expected, err
    if expected == 2:
        assert out == ""
        assert err.startswith("parse error: closed-form power requires p <= 1e+07")
        assert '"construction": "numeric"' in err
    else:
        assert "passed=true" in out


@pytest.mark.parametrize("p", ["1e9", "1.000000001"])  # the second's conjugate has q ~ 1e9
def test_nfunc_check_power_past_max_exponent_exits_2(capsys, p):
    code, out, err = run_cli(capsys, "nfunc", "check", "--nfunction",
                             f'{{"kind": "power", "p": {p}}}')
    assert (code, out) == (2, "")
    assert err.startswith("parse error: power kind requires p <= 1e+08")


def test_aphi_bound_and_submult(capsys):
    fn = json.dumps([[x, 1, 0] for x in range(8)])
    code, out, _ = run_cli(capsys, "aphi", "bound", "--group", Z8,
                           "--nfunction", QUAD, "--function", fn)
    assert code == 0
    assert "check.bracket-order=pass" in out
    code2, out2, _ = run_cli(capsys, "aphi", "submult", "--group", Z8,
                             "--nfunction", QUAD, "--left", fn, "--right", fn)
    assert code2 == 0
    assert "check.inner-chain=pass" in out2 and "check.outer-chain=pass" in out2


def test_group_convolve_values(capsys):
    code, out, _ = run_cli(capsys, "group", "convolve", "--group",
                           '{"type": "Zn", "n": 4}',
                           "--left", "[[0,1,0]]", "--right", "[[0,1,0]]")
    assert code == 0
    assert "value.0=0.25+0.0j" in out


def test_characters_brute_agreement(capsys):
    code, out, _ = run_cli(capsys, "characters", "brute", "--group",
                           '{"type": "product", "factors": '
                           '[{"type": "Zn", "n": 2}, {"type": "Zn", "n": 2}]}')
    assert code == 0
    assert "check.routes-agree=pass" in out
    assert "count=4" in out


def test_segal_and_unit_verbs(capsys):
    code, out, _ = run_cli(capsys, "segal", "report", "--group",
                           '{"type": "S3"}', "--nfunction", QUAD,
                           "--samples", "6")
    assert code == 0
    assert "check.density-spanning=pass" in out
    code2, out2, _ = run_cli(capsys, "unit", "check", "--group",
                             '{"type": "Zn", "n": 6}', "--nfunction", QUAD)
    assert code2 == 0
    assert "check.two-sided-unit=pass" in out2


def test_nfunc_check_and_conjugate(capsys):
    code, out, _ = run_cli(capsys, "nfunc", "check", "--nfunction",
                           '{"kind": "entropy"}')
    assert code == 0
    assert "check.inverse-product-range=pass" in out
    code2, out2, _ = run_cli(capsys, "nfunc", "conjugate", "--nfunction",
                             '{"kind": "power", "p": 3}', "--points", "0.5,1,2")
    assert code2 == 0
    assert out2.count("closed-form-agreement") == 3


def sign_rule_breaks(report: str) -> list[str]:
    """check. lines that read FAIL with a positive slack or pass with a negative one."""
    breaks = []
    for line in report.splitlines():
        if line.startswith("check."):
            verdict, slack = re.match(r"[^=]+=(pass|FAIL) slack=(\S+)", line).groups()
            if (verdict == "FAIL" and float(slack) > 0) or (verdict == "pass" and float(slack) < 0):
                breaks.append(line)
    return breaks


def test_check_verdicts_agree_with_their_slacks(capsys):
    for path in sorted(GOLDEN_DIR.glob("*.txt")):
        assert sign_rule_breaks(path.read_text(encoding="utf-8")) == [], path.name
    code, out, _ = run_cli(capsys, "suite", "--seed", "7")
    assert code == 0
    assert sign_rule_breaks(out) == []


def test_closed_form_agreement_against_a_wrong_complement_fails_with_negative_slack(
        capsys, monkeypatch):
    wrong = ComplementaryPair(phi=power(2.0), psi=power(3.0), construction="closed-form")
    monkeypatch.setattr(cli, "pair_from_spec", lambda spec: wrong)
    code, out, _ = run_cli(capsys, "nfunc", "conjugate", "--nfunction", QUAD)
    assert code == 1
    assert "check.closed-form-agreement.100=FAIL slack=-" in out
    assert sign_rule_breaks(out) == []


def test_inverse_product_range_below_one_fails_with_negative_slack(capsys, monkeypatch):
    monkeypatch.setattr(nfunctions, "inverse_product_ratio", lambda pair, t: 0.9)
    code, out, _ = run_cli(capsys, "nfunc", "check", "--nfunction", QUAD)
    assert code == 1
    line = next(x for x in out.splitlines() if x.startswith("check.inverse-product-range="))
    assert line.startswith("check.inverse-product-range=FAIL slack=-0.09999")
    assert sign_rule_breaks(out) == []


def test_suite_empty_battery_vacuous(capsys):
    code, out, _ = run_cli(capsys, "suite", "--groups", "", "--pairs", "")
    assert code == 0
    assert "checks-total=0" in out


def test_suite_small_battery(capsys):
    code, out, _ = run_cli(capsys, "suite", "--groups", "Z4", "--pairs",
                           "power-2", "--samples", "4", "--probes", "5")
    assert code == 0
    assert "checks-failed=0" in out


def test_suite_forced_zero_tolerance_reports_float_slack(capsys):
    # negative control: with zero slack tolerance the quadratic pair's
    # inverse-product maximum (2 + one ulp) must be reported as a failure
    code, out, _ = run_cli(capsys, "suite", "--groups", "", "--pairs", "power-2",
                           "--tol-slack", "0")
    assert code == 1
    assert "check.inverse-product.power-2=FAIL" in out


@pytest.mark.parametrize("verb", [("porosity", "witness"), ("suite",)])
@pytest.mark.parametrize("probes", ["0", "-3"])
def test_probe_count_below_one_exits_2_at_parse_time(capsys, verb, probes):
    with pytest.raises(SystemExit) as exc:
        cli.main([*verb, "--probes", probes])
    assert exc.value.code == 2
    assert "--probes: must be at least 1" in capsys.readouterr().err


@pytest.mark.parametrize("verb", [("suite",),
                                  ("segal", "report", "--group", Z8, "--nfunction", QUAD)])
@pytest.mark.parametrize("samples", ["0", "-3"])
def test_sample_count_below_one_exits_2_at_parse_time(capsys, verb, samples):
    with pytest.raises(SystemExit) as exc:
        cli.main([*verb, "--samples", samples])
    assert exc.value.code == 2
    assert "--samples: must be at least 1" in capsys.readouterr().err


# Z10's character search makes 810 exponent trials and Z2xZ2xZ3's 528, so
# both pass this cap; Z2's 2 trials stay under it
LOW_NODE_CAP = 100


def test_characters_brute_beyond_search_limit_exits_3_before_enumerating(capsys, monkeypatch):
    monkeypatch.setattr(structure, "SEARCH_NODE_LIMIT", LOW_NODE_CAP)
    started = time.monotonic()
    code, out, err = run_cli(capsys, "characters", "brute", "--group",
                             '{"type": "Zn", "n": 10}')
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert out == ""
    assert "search on Z10 passed the cap of 100 nodes" in err


def test_suite_with_a_group_beyond_the_search_limit_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(structure, "SEARCH_NODE_LIMIT", LOW_NODE_CAP)
    started = time.monotonic()
    code, out, err = run_cli(capsys, "suite", "--groups", "Z10", "--pairs", "")
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert "search on Z10 passed the cap of 100 nodes" in err


@pytest.mark.parametrize("norm_verb", ["modular", "luxemburg", "orlicz"])
@pytest.mark.parametrize("row", ["[[0, NaN, 0]]", "[[0, Infinity, 0]]",
                                 "[[1, 0.5, -Infinity]]"])
def test_non_finite_function_data_exits_2(capsys, norm_verb, row):
    code, out, err = run_cli(capsys, "norm", norm_verb, "--group", Z8,
                             "--nfunction", QUAD, "--function", row)
    assert code == 2
    assert out == ""
    assert "non-finite value" in err


@pytest.mark.parametrize("row", ['[[0, "a", 0]]', "[[0, null, 0]]", "[[0, 1, [2]]]"])
def test_non_numeric_function_data_exits_2(capsys, row):
    code, out, err = run_cli(capsys, "norm", "luxemburg", "--group", Z8,
                             "--nfunction", QUAD, "--function", row)
    assert code == 2
    assert out == ""
    assert "values must be numbers" in err


@pytest.mark.parametrize("slack", [math.nan, math.inf, -math.inf])
def test_check_with_non_finite_slack_fails(slack):
    rep = Report("probe")
    rep.check("vacuous", True, slack)
    assert rep.failures == ["vacuous"]
    assert not rep.passed
    assert "check.vacuous=FAIL" in rep.render()


def test_nfunc_check_custom_table_with_low_caps_passes(capsys):
    # Phi(cap) = Psi(cap) = 32 < 1e3: the t-grid stops at 32, the x-grid at 8
    table = '{"kind":"custom","table":[[0,0,0],[1,0.5,1],[2,2,2],[4,8,4],[8,32,8]]}'
    code, out, err = run_cli(capsys, "nfunc", "check", "--nfunction", table)
    assert code == 0, err
    assert "t in [1e-3, 32], 41 points" in out
    assert "passed=true" in out


def test_suite_reports_oracle_nonconvergence_as_a_failed_check(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArithmeticError("forced non-finite dual pairing")
    monkeypatch.setattr(norms, "_dual_point", no_convergence)
    code, out, _ = run_cli(capsys, "suite", "--groups", "Z2", "--pairs", "power-2",
                           "--samples", "1", "--probes", "1")
    assert code == 1
    assert "check.norm-equivalence.Z2.power-2=FAIL" in out


def test_aphi_bound_and_submult_run_no_oracle(capsys, monkeypatch):
    calls = []
    dual_point = norms._dual_point

    def counting(*args):
        calls.append(args)
        return dual_point(*args)

    monkeypatch.setattr(norms, "_dual_point", counting)
    z6 = '{"type": "Zn", "n": 6}'
    left = json.dumps([[x, 0.25 * x, 0.5] for x in range(6)])
    right = json.dumps([[0, 1, 0], [2, -0.5, 0.25], [5, 0.75, 0]])
    for verb, operands in (("bound", ("--function", left)),
                           ("submult", ("--left", left, "--right", right))):
        code, out, _ = run_cli(capsys, "aphi", verb, "--group", z6, "--nfunction", QUAD,
                               *operands)
        assert code == 0 and "passed=true" in out
    assert calls == []
    # the counter does see the dual bound where a report reads it
    code, out, _ = run_cli(capsys, "norm", "orlicz", "--group", z6, "--nfunction", QUAD,
                           "--function", left)
    assert code == 0 and "check.oracle-agreement=pass" in out
    assert len(calls) == 1


def test_suite_reports_an_out_of_scope_entry_and_runs_the_rest(capsys, monkeypatch):
    monkeypatch.setattr(structure, "SEARCH_NODE_LIMIT", LOW_NODE_CAP)
    started = time.monotonic()
    code, out, err = run_cli(capsys, "suite", "--groups", "Z2xZ2xZ3", "--pairs", "power-2")
    assert time.monotonic() - started < 1.0
    assert code == 3
    lines = out.splitlines()
    assert any(line.startswith("out-of-scope.characters.Z2xZ2xZ3=")
               and "cap of 100 nodes" in line for line in lines)
    assert not any(line.startswith("check.characters.") for line in lines)
    checks = [line for line in lines if line.startswith("check.")]
    assert len(checks) == 7 and all("=pass " in line for line in checks)
    assert "checks-total=7" in lines and "checks-failed=0" in lines
    assert lines[-1] == "passed=false" and "passed=true" not in out
    assert "scope error: characters.Z2xZ2xZ3:" in err


def test_suite_with_a_failed_check_and_an_out_of_scope_entry_exits_1(capsys, monkeypatch):
    def no_convergence(*args, **kwargs):
        raise ArithmeticError("forced non-finite dual pairing")
    monkeypatch.setattr(norms, "_dual_point", no_convergence)
    monkeypatch.setattr(structure, "SEARCH_NODE_LIMIT", LOW_NODE_CAP)
    started = time.monotonic()
    code, out, _ = run_cli(capsys, "suite", "--groups", "Z2,Z10", "--pairs", "power-2",
                           "--samples", "1", "--probes", "1")
    assert time.monotonic() - started < 1.0
    assert code == 1
    assert "check.norm-equivalence.Z2.power-2=FAIL" in out
    assert "out-of-scope.characters.Z10=" in out and "passed=false" in out


def test_suite_checks_the_characters_of_z12_and_z2xz2xz3(capsys):
    code, out, err = run_cli(capsys, "suite", "--groups", "Z12,Z2xZ2xZ3", "--pairs", "power-2")
    assert code == 0, err
    lines = out.splitlines()
    for group in ("Z12", "Z2xZ2xZ3"):
        assert any(line.startswith(f"check.characters.{group}=pass ") for line in lines)
    assert not any(line.startswith("out-of-scope.") for line in lines)
    assert lines[-1] == "passed=true"


def test_suite_unknown_group_name_exits_2(capsys):
    code, out, err = run_cli(capsys, "suite", "--groups", "Zfoo", "--pairs", "")
    assert code == 2
    assert out == ""
    assert "unknown group name 'Zfoo'" in err


def test_suite_power_1_pair_fails_like_the_power_1_spec(capsys):
    code, out, err = run_cli(capsys, "suite", "--groups", "", "--pairs", "power-1")
    spec_code, _, spec_err = run_cli(capsys, "nfunc", "check", "--nfunction",
                                     '{"kind": "power", "p": 1}')
    assert out == ""
    assert (code, err) == (spec_code, spec_err) == (2, "parse error: power kind requires "
                                                       "p > 1, got 1.0\n")


@pytest.mark.parametrize("spec, message", [
    ('{"kind": "power", "p": 1}', "power kind requires p > 1, got 1.0"),
    ('{"kind": "custom", "table": [[0, 0, 0], [1, 0.5, 1]]}', "table needs at least 3 rows"),
    ('{"kind": "custom", "table": [[0, 1, 0], [1, 1.5, 1], [2, 3, 2]]}',
     "table must start with the row (0, 0, 0)"),
    ('{"kind": "custom", "table": [[0, 0, 0], [1, 0.5, 1], [1, 0.5, 2]]}',
     "table abscissae must be strictly increasing"),
    ('{"kind": "custom", "table": [[0, 0, 0], [1, 1, 2], [2, 2.5, 1]]}',
     "derivative column must be nondecreasing (convexity)"),
    ('{"kind": "custom", "table": [[0, 0, 0], [1, 0.5, 1], [2, 3, 2]]}',
     "table row 2: value column 3 inconsistent with the integrated derivative 2"),
], ids=["power-1", "two-rows", "first-row", "abscissae", "decreasing-slope", "value-column"])
def test_nfunc_spec_that_builds_no_nfunction_exits_2(capsys, spec, message):
    code, out, err = run_cli(capsys, "nfunc", "check", "--nfunction", spec)
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


@pytest.mark.parametrize("name", ["foo", "power-x", "power-nan"])
def test_suite_bad_pair_name_exits_2(capsys, name):
    code, out, err = run_cli(capsys, "suite", "--groups", "", "--pairs", name)
    assert (code, out) == (2, "")
    assert err.startswith("parse error: ")


def test_characters_brute_reports_routes_that_disagree(capsys, monkeypatch):
    real = structure.enumerate_characters

    def one_short(space):
        found = real(space)
        return dataclasses.replace(found, characters=found.characters[1:])
    monkeypatch.setattr(structure, "enumerate_characters", one_short)
    monkeypatch.setattr(cli, "enumerate_characters", one_short)
    code, out, err = run_cli(capsys, "characters", "brute", "--group", Z6)
    assert (code, err) == (1, "")
    assert "check.routes-agree=FAIL" in out
    assert "check.completeness=FAIL" in out
    assert out.endswith("passed=false\n")


@settings(max_examples=20, deadline=None)
@given(radius=st.sampled_from([16, 64]), lo=st.integers(-3, 1), width=st.integers(0, 3),
       name=st.sampled_from(CATALOG_PAIR_NAMES), epsilon=st.sampled_from(["0.5", "1"]),
       tol_value=st.sampled_from(["1e-12", "1e-6"]))
def test_aphi_plateau_check_lines_are_the_certificate_checks(radius, lo, width, name,
                                                             epsilon, tol_value):
    plateau_set = list(range(lo, lo + width + 1))
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["aphi", "plateau", "--group", f'{{"type": "Zwindow", "radius": {radius}}}',
                         "--nfunction", json.dumps(_pair_spec(name)), "--set",
                         json.dumps(plateau_set), "--epsilon", epsilon, "--tol-value", tol_value])
    assert code in (0, 1)
    _, cert = build_plateau(integer_window(radius), plateau_set, pair_from_name(name),
                            float(epsilon))
    expected = Report("aphi plateau")
    for c in cert.checks(float(tol_value)):
        expected.record(c)
    assert [line for line in out.getvalue().splitlines() if line.startswith("check.")] == \
        [f"{key}={value}" for key, value in expected.lines]


def _pair_spec(name: str) -> dict:
    kind, _, p = name.partition("-")
    return {"kind": kind, "p": float(p)} if p else {"kind": kind}


def _fold(report: str) -> tuple[bool, float]:
    """(every check passed, smallest slack) of the check lines of a machine report."""
    checks = [line.split("=", 1)[1].split()[:2] for line in report.splitlines()
              if line.startswith("check.")]
    return (all(status == "pass" for status, _ in checks),
            min(float(slack.removeprefix("slack=")) for _, slack in checks))


CONSISTENCY_PAIRS = {"power-3": '{"kind": "power", "p": 3}', "entropy": '{"kind": "entropy"}'}
Z6 = '{"type": "Zn", "n": 6}'
Z6_VERBS = {
    "unit": ("unit", "check", "--group", Z6),
    "segal": ("segal", "report", "--group", Z6, "--samples", "4", "--seed", "7"),
}
WINDOW_VERBS = {
    "plateau": ("aphi", "plateau", "--group", '{"type": "Zwindow", "radius": 256}',
                "--set", "[-1,0,1]", "--epsilon", "0.5"),
    "porosity": ("porosity", "witness", "--probes", "20", "--seed", "7"),
}


@pytest.fixture(scope="module")
def consistency_suite():
    out = io.StringIO()
    with redirect_stdout(out):
        code = cli.main(["suite", "--groups", "Z6,Zwindow256", "--pairs",
                         ",".join(CONSISTENCY_PAIRS), "--seed", "7"])
    assert code == 0
    return {line.split("=", 1)[0]: line.split("=", 1)[1]
            for line in out.getvalue().splitlines() if line.startswith("check.")}


@pytest.mark.parametrize("pair", sorted(CONSISTENCY_PAIRS))
@pytest.mark.parametrize("family", sorted({**Z6_VERBS, **WINDOW_VERBS}))
def test_suite_entry_is_the_fold_of_its_verb(capsys, consistency_suite, family, pair):
    group, argv = ("Z6", Z6_VERBS[family]) if family in Z6_VERBS else \
        ("Zwindow256", WINDOW_VERBS[family])
    code, out, _ = run_cli(capsys, *argv, "--nfunction", CONSISTENCY_PAIRS[pair])
    assert code == 0
    entry = consistency_suite[f"check.{family}.{group}.{pair}"]
    assert _fold(f"check.{family}={entry}") == _fold(out)


def test_suite_characters_entry_is_the_fold_of_characters_brute(capsys, consistency_suite):
    code, out, _ = run_cli(capsys, "characters", "brute", "--group", Z6)
    assert code == 0
    assert _fold(f"check.characters={consistency_suite['check.characters.Z6']}") == _fold(out)


def _entries(suite: dict, *names: str) -> str:
    """The suite's check lines of the named entries, as a report for ``_fold``."""
    return "\n".join(f"check.{name}={suite[f'check.{name}']}" for name in names)


@pytest.mark.parametrize("group, spec", [("Z6", Z6),
                                         ("Zwindow256", '{"type": "Zwindow", "radius": 256}')])
def test_suite_group_laws_entry_is_the_fold_of_group_check(capsys, consistency_suite, group, spec):
    code, out, _ = run_cli(capsys, "group", "check", "--group", spec)
    assert code == 0
    assert _fold(_entries(consistency_suite, f"group-laws.{group}")) == _fold(out)


@pytest.mark.parametrize("pair", sorted(CONSISTENCY_PAIRS))
def test_suite_pair_entries_are_the_fold_of_nfunc_check(capsys, consistency_suite, pair):
    code, out, _ = run_cli(capsys, "nfunc", "check", "--nfunction", CONSISTENCY_PAIRS[pair])
    assert code == 0
    entries = _entries(consistency_suite, f"pair-axioms.{pair}", f"inverse-product.{pair}")
    assert _fold(entries) == _fold(out)


def _suite_draws(count: int) -> list[str]:
    """The first ``count`` functions the consistency suite draws on Z6 for a
    pair, as function data: its 8 (default --samples) norm samples, then u and v."""
    space, rng = group_from_spec(Z6), Random(7)
    return [json.dumps(function_to_rows(random_function(space, rng))) for _ in range(count)]


@pytest.mark.parametrize("pair", sorted(CONSISTENCY_PAIRS))
def test_suite_norm_equivalence_entry_is_the_fold_of_norm_orlicz(capsys, consistency_suite, pair):
    outs = []
    for f in _suite_draws(8):
        code, out, _ = run_cli(capsys, "norm", "orlicz", "--group", Z6,
                               "--nfunction", CONSISTENCY_PAIRS[pair], "--function", f)
        assert code == 0
        outs.append(out)
    assert _fold(_entries(consistency_suite, f"norm-equivalence.Z6.{pair}")) == _fold("".join(outs))


@pytest.mark.parametrize("pair", sorted(CONSISTENCY_PAIRS))
def test_suite_submult_entry_is_the_fold_of_aphi_submult(capsys, consistency_suite, pair):
    u, v = _suite_draws(10)[8:]
    code, out, _ = run_cli(capsys, "aphi", "submult", "--group", Z6,
                           "--nfunction", CONSISTENCY_PAIRS[pair], "--left", u, "--right", v)
    assert code == 0
    assert _fold(_entries(consistency_suite, f"submult.Z6.{pair}")) == _fold(out)


def test_nfunc_check_custom_table_ending_at_ten_passes(capsys):
    # the cap is 10 and geometric_grid(1e-2, 1e1, 7) ends one ulp above it
    table = '{"kind":"custom","table":[[0,0,0],[1,0.5,1],[2,2,2],[4,8,4],[10,50,10]]}'
    code, out, err = run_cli(capsys, "nfunc", "check", "--nfunction", table)
    assert code == 0, err
    assert "check.young-equality-at-derivative=pass" in out
    assert "passed=true" in out


@pytest.mark.parametrize("table, top", [
    ('[[0,0,0],[1,0.5,1],[2,2,2],[4,8,4],[10,50,10]]', "10"),
    ('[[0,0,0],[1,0.5,1],[2,1.5,1],[3,3,2]]', "2"),  # a flat run of slope 1 on [1, 2]
])
def test_nfunc_conjugate_default_grid_stops_at_psi_domain_cap(capsys, table, top):
    code, out, err = run_cli(capsys, "nfunc", "conjugate", "--nfunction",
                             f'{{"kind":"custom","table":{table}}}')
    assert code == 0, err
    assert f"points=geometric 1e-2..{top} (Psi's domain cap) x9 (default)" in out
    assert out.count("closed-form-agreement") == 9
    assert f"conjugate.{top}=" in out
    assert "passed=true" in out


@pytest.mark.parametrize("field, check",[("imag_error", "imag-residue"),
                                          ("reflected_error", "reflected-decomposition")])
def test_plateau_certificate_clause_fails_verb_and_suite(capsys, monkeypatch, field, check):
    real_build_plateau = cli.build_plateau

    def spoiled(*args, **kwargs):
        u, cert = real_build_plateau(*args, **kwargs)
        return u, dataclasses.replace(cert, **{field: 0.5})
    monkeypatch.setattr(cli, "build_plateau", spoiled)
    code, out, _ = run_cli(capsys, "aphi", "plateau", "--group", '{"type": "Zwindow", "radius": 64}',
                           "--nfunction", '{"kind": "entropy"}', "--set", "[-1,0,1]",
                           "--epsilon", "0.5")
    assert code == 1
    assert f"check.{check}=FAIL" in out
    code, out, _ = run_cli(capsys, "suite", "--groups", "Zwindow256", "--pairs", "entropy",
                           "--probes", "1")
    assert code == 1
    assert "check.plateau.Zwindow256.entropy=FAIL" in out


WINDOW64 = '{"type": "Zwindow", "radius": 64}'


@pytest.mark.parametrize("argv", [
    ("aphi", "plateau", "--group", WINDOW64, "--nfunction", QUAD, "--set", "[-1,0,1]",
     "--epsilon", "nan"),
    ("group", "leptin", "--group", WINDOW64, "--compact", "[-1,0,1]", "--epsilon", "inf"),
    ("unit", "check", "--group", Z8, "--nfunction", QUAD, "--epsilon", "nan"),
    ("porosity", "witness", "--R", "nan", "--probes", "1"),
    ("group", "check", "--group", Z8, "--tol-slack=-inf"),
    ("group", "check", "--group", Z8, "--tol-value", "nan"),
], ids=["plateau-epsilon", "leptin-epsilon", "unit-epsilon", "porosity-R", "tol-slack",
        "tol-value"])
def test_non_finite_float_flag_exits_2(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(list(argv))
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "invalid finite_float value" in captured.err


@pytest.mark.parametrize("value", ["NaN", "Infinity", '"x"'])
def test_non_finite_config_tolerance_exits_2(capsys, monkeypatch, tmp_path, value):
    config = tmp_path / "config.json"
    config.write_text(f'{{"tol_value": {value}}}', encoding="utf-8")
    monkeypatch.setenv(cli.CONFIG_ENV, str(config))
    code, out, err = run_cli(capsys, "group", "check", "--group", Z8)
    assert code == 2
    assert out == ""
    assert "config file: tol_value must be a finite number" in err


def test_charfn_empty_subset_exits_2(capsys):
    code, out, err = run_cli(capsys, "norm", "charfn", "--group", Z8,
                             "--nfunction", QUAD, "--subset", "[]")
    assert code == 2
    assert out == ""
    assert "nonempty subset" in err


@pytest.mark.parametrize("spec, message", [
    ('{"kind": "entropy", "construction": "numric"}', "construction 'numric' not in"),
    ('{"kind": "custom", "construction": "closed-form", "table": '
     '[[0,0,0],[1,0.5,1],[2,2,2],[4,8,4],[8,32,8]]}', "construction 'closed-form' not in"),
    ('{"kind": "cosh", "p": 7, "table": [[0,0,0]]}', "cosh spec: unknown keys ['p', 'table']"),
    ('{"kind": "entropy", "p": 2}', "entropy spec: unknown keys ['p']"),
    ('{"kind": "power", "p": 2, "table": [[0,0,0]]}', "power spec: unknown keys ['table']"),
    ('{"kind": "power", "p": NaN}', "'p' must be a finite number"),
    ('{"kind": "custom", "table": [[0,0,0],[1,0.5,1],[2,NaN,2],[4,8,4],[8,32,8]]}',
     "table row 2 must be a finite number"),
    ('{"kind": "custom", "table": [[0,0,0],[1,0.5,1],[2,2,Infinity]]}',
     "table row 2 must be a finite number"),
    ('{"kind": "custom", "table": [[0,0,0],[1,0.5]]}', "[x, value, slope] rows"),
], ids=["construction-typo", "custom-closed-form", "cosh-foreign-keys", "entropy-p",
        "power-table", "nan-p", "nan-table-value", "inf-table-slope", "short-row"])
def test_strict_pair_spec_exits_2(capsys, spec, message):
    code, out, err = run_cli(capsys, "nfunc", "check", "--nfunction", spec)
    assert code == 2
    assert out == ""
    assert message in err


def test_suite_groups_accepts_inline_json_specs(capsys):
    code, out, err = run_cli(capsys, "suite", "--groups", 'Z2,{"type": "Zn", "n": 4}',
                             "--pairs", "power-2", "--samples", "1", "--probes", "1")
    assert code == 0, err
    assert 'groups=Z2,{"type": "Zn", "n": 4}\n' in out
    assert 'check.group-laws.{"type": "Zn", "n": 4}=pass' in out
    assert "check.group-laws.Z2=pass" in out


def test_split_names_splits_only_outside_brackets():
    assert cli._split_names('Z2,,{"type": "product", "factors": [{"type": "Zn", "n": 2}, '
                            '{"type": "S3"}]},S3') == [
        "Z2", '{"type": "product", "factors": [{"type": "Zn", "n": 2}, {"type": "S3"}]}', "S3"]
    assert cli._split_names("") == []


def test_cli_import_loads_no_numpy():
    code = "import sys, orliczalg.cli; print('numpy' in sys.modules)"
    src = str(Path(cli.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": src}
    done = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, check=True)
    assert done.stdout.strip() == "False"


LOOP = json.dumps({"type": "table", "elements": [0, 1, 2, 3, 4],
                   "mul": [[0, 1, 2, 3, 4], [1, 0, 3, 4, 2], [2, 3, 4, 0, 1],
                           [3, 4, 1, 2, 0], [4, 2, 0, 1, 3]], "identity": 0})


@pytest.mark.parametrize("verb", [("segal", "report", "--nfunction", QUAD),
                                  ("unit", "check", "--nfunction", QUAD),
                                  ("group", "check")])
def test_table_that_is_not_a_group_exits_3(capsys, verb):
    # a loop: identity row and column and a right inverse for every element
    code, out, err = run_cli(capsys, *verb, "--group", LOOP)
    assert (code, out) == (3, "")
    assert err == "scope error: table: inverse law fails at 2\n"


def test_table_spec_with_an_inverse_table_exits_2(capsys):
    spec = '{"type": "table", "elements": [0, 1], "mul": [[0, 1], [1, 0]], "identity": 0, ' \
           '"inv": [0, 1]}'
    code, out, err = run_cli(capsys, "group", "check", "--group", spec)
    assert (code, out) == (2, "")
    assert "unknown keys ['inv']" in err


def test_characters_brute_on_a_relabelled_table(capsys):
    # Z4 in the carrier order 0, 2, 1, 3: the greedy generators 2 and 1 are
    # dependent, so the enumeration drops inconsistent exponent assignments
    els = [0, 2, 1, 3]
    spec = json.dumps({"type": "table", "elements": els, "identity": 0,
                       "mul": [[els.index((a + b) % 4) for b in els] for a in els]})
    code, out, err = run_cli(capsys, "characters", "brute", "--group", spec)
    assert code == 0, err
    assert "group=table\n" in out
    assert "check.routes-agree=pass" in out
    assert "count=4\n" in out


def test_non_associative_table_exits_3(capsys):
    # identity row and column and two-sided inverses, but (1 1) 2 = 2 and 1 (1 2) = 0
    spec = '{"type": "table", "elements": [0, 1, 2], "identity": 0, ' \
           '"mul": [[0, 1, 2], [1, 0, 1], [2, 1, 0]]}'
    code, out, err = run_cli(capsys, "group", "check", "--group", spec)
    assert (code, out) == (3, "")
    assert err == "scope error: table: associativity fails at (1,1,2)\n"


def _table(elements, mul, identity=0) -> str:
    return json.dumps({"type": "table", "elements": elements, "mul": mul,
                       "identity": identity})


@pytest.mark.parametrize("spec, message", [
    (_table([], []), "table: a group table needs at least one element"),
    *((f'{{"type": "Zn", "n": {v}}}', f"Zn spec: 'n' must be an integer, got {r}")
      for v, r in (('"x"', "'x'"), ("null", "None"), ("1.5", "1.5"), ("true", "True"))),
    *((f'{{"type": "Zwindow", "radius": {v}}}',
       f"Zwindow spec: 'radius' must be an integer, got {r}")
      for v, r in (('"x"', "'x'"), ("null", "None"), ("2.7", "2.7"))),
    *((_table([0, 1], [[0, 1], [1, v]]),
       f"table spec: 'mul' entry [1][1] must be an integer, got {v!r}")
      for v in ("x", None, 0.5)),
    (_table([0, 1], 3), "table spec: 'mul' must be a list of rows"),
    (_table("ab", [[0, 1], [1, 0]], "a"), "table spec: 'elements' must be a list"),
    (_table([0, {"a": 1}], [[0, 1], [1, 0]]),
     "table spec: 'elements': an element cannot be a JSON object, got {'a': 1}"),
    (_table([0, 1], [[0, 1], [1, 0]], {"a": 1}),
     "table spec: 'identity': an element cannot be a JSON object, got {'a': 1}"),
    ('{"type": "product", "factors": 3}', "product spec: 'factors' must be a list"),
], ids=["empty-table", "n-string", "n-null", "n-float", "n-bool", "radius-string",
        "radius-null", "radius-float", "mul-string", "mul-null", "mul-float", "mul-not-rows",
        "elements-string", "element-object", "identity-object", "factors-int"])
def test_group_spec_values_must_be_json_integers_and_lists(capsys, spec, message):
    code, out, err = run_cli(capsys, "group", "check", "--group", spec)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: {message}"), err


@pytest.mark.parametrize("argv, config, message", [
    (("group", "check", "--group", "no-such-spec.json"), None, "no such file: no-such-spec.json"),
    (("group", "check", "--group", "[1, 2]"), None, "group spec: expected an object, got list"),
    (("group", "check", "--group", '{"n": 3}'), None, "group spec: missing keys ['type']"),
    (("group", "check", "--group", '{"type": "Zq"}'), None, "unknown group type 'Zq'"),
    (("norm", "modular", "--group", Z8, "--nfunction", QUAD, "--function", '{"a": 1}'), None,
     "function data must be a list of [element, re, im] rows"),
    (("group", "check", "--group", Z8), '{"format": "xml"}', "unknown output format 'xml'"),
    (("group", "leptin", "--group", Z8, "--compact", "[]", "--epsilon", "0.5"), None,
     "Leptin search needs a nonempty compact set"),
    (("group", "leptin", "--group", Z8, "--compact", "[0]", "--epsilon", "0"), None,
     "Leptin search needs epsilon > 0, got 0"),
    (("norm", "charfn", "--group", Z8, "--nfunction", QUAD, "--subset", "[9]"), None,
     "Z8: 9 not in carrier"),
], ids=["missing-file", "not-an-object", "missing-keys", "unknown-type", "rows-not-a-list",
        "config-format-xml", "leptin-empty-compact", "leptin-epsilon-0", "charfn-outside"])
def test_parse_errors_exit_2(capsys, monkeypatch, tmp_path, argv, config, message):
    if config is not None:
        path = tmp_path / "config.json"
        path.write_text(config, encoding="utf-8")
        monkeypatch.setenv(cli.CONFIG_ENV, str(path))
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (2, "", f"parse error: {message}\n")


def _by_element_order(n: int) -> str:
    """Zn as a table over its carrier listed by increasing element order
    (0, n/2, n/4, 3n/4, ...), where the greedy generators are dependent."""
    elements = sorted(range(n), key=lambda x: (n // math.gcd(x, n), x))
    return _table(elements, [[elements.index((a + b) % n) for b in elements] for a in elements])


# Z16 by element order: the greedy generators 8, 4, 2, 1 have orders 2, 4, 8, 16
Z16_RELABELLED = _by_element_order(16)


def _character_runs(n: int) -> list[tuple[str, ...]]:
    """The three commands that enumerate the characters of Zn."""
    spec = f'{{"type": "Zn", "n": {n}}}'
    return [("characters", "enumerate", "--group", spec), ("characters", "brute", "--group", spec),
            ("suite", "--groups", f"Z{n}", "--pairs", "")]


@pytest.mark.parametrize("at", range(3), ids=["enumerate", "brute", "suite"])
def test_character_enumeration_past_the_exponent_limit_exits_3(capsys, monkeypatch, at):
    # Z16 builds 16^2 = 256 exponents: one past a limit of 255, checked
    # before the group exponent, which would fail here
    argv = _character_runs(16)[at]
    monkeypatch.setattr(structure, "CARRIER_LIMIT", 255)
    with monkeypatch.context() as m:
        m.setattr(structure, "group_exponent", None)
        started = time.monotonic()
        code, out, err = run_cli(capsys, *argv)
        assert time.monotonic() - started < 1.0
    message = "character enumeration on Z16 builds 256 exponents, past the carrier limit of 255"
    assert code == 3
    if argv[0] == "suite":
        assert f"out-of-scope.characters.Z16={message}\n" in out
    else:
        assert (out, err) == ("", f"scope error: {message}\n")
    monkeypatch.setattr(structure, "CARRIER_LIMIT", 256)
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    assert ("check.characters.Z16=pass" if argv[0] == "suite" else "count=16\n") in out


@pytest.mark.parametrize("at", range(3), ids=["enumerate", "brute", "suite"])
def test_a_group_past_the_exponent_limit_exits_3_at_once(capsys, at):
    started = time.monotonic()
    code, out, err = run_cli(capsys, *_character_runs(100000)[at])
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert ("character enumeration on Z100000 builds 10000000000 exponents, past the "
            "carrier limit of 10000000") in out + err


def test_z128_by_element_order_enumerates_its_128_characters(capsys):
    code, out, err = run_cli(capsys, "characters", "enumerate", "--group", _by_element_order(128))
    assert code == 0, err
    assert "count=128\n" in out
    assert "check.completeness=pass slack=0.0" in out


Z2XZ3 = '{"type": "product", "factors": [{"type": "Zn", "n": 2}, {"type": "Zn", "n": 3}]}'


def test_function_data_on_a_product_group_takes_list_elements(capsys):
    code, out, err = run_cli(capsys, "norm", "luxemburg", "--group", Z2XZ3, "--nfunction", QUAD,
                             "--function", "[[[0, 1], 1, 0], [[1, 2], 0, -2]]")
    assert code == 0, err
    space = group_from_spec(Z2XZ3)
    f = GroupFunction(space, {(0, 1): 1.0, (1, 2): -2j})
    assert f"value={norms.luxemburg(power(2.0), f).value!r}\n" in out
    assert "support-size=2\n" in out


def test_group_convolve_save_writes_rows_that_read_back_as_the_result(capsys, tmp_path):
    left, right = "[[[0, 1], 1, 0], [[1, 2], 0.5, -1]]", "[[[1, 1], 2, 0], [[0, 0], 1, 1]]"
    saved = tmp_path / "out.json"
    code, out, err = run_cli(capsys, "group", "convolve", "--group", Z2XZ3, "--left", left,
                             "--right", right, "--save", str(saved))
    assert code == 0, err
    assert f"saved={saved}\n" in out
    space = group_from_spec(Z2XZ3)
    expected = convolve(function_from_rows(space, left), function_from_rows(space, right))
    back = function_from_rows(space, str(saved))
    assert list(back.items()) == list(expected.items())


@pytest.mark.parametrize("rows, message", [
    ("[5]", "function data row 0: expected [element, re, im]"),
    ("[[0, 1, 0], [1, 1]]", "function data row 1: expected [element, re, im]"),
    ("[[8, 1, 0]]", "function data row 0: 8 not in Z8"),
])
def test_malformed_function_rows_exit_2(capsys, rows, message):
    code, out, err = run_cli(capsys, "norm", "modular", "--group", Z8, "--nfunction", QUAD,
                             "--function", rows)
    assert (code, out) == (2, "")
    assert message in err


def _leptin_restart(u, epsilon):
    """The window restart that the bracket does not try, kept as a reference:
    u = c chi_S rebuilt as c chi_{S+V} * (chi_V / |V|)^ over the Leptin set V
    of (S, epsilon)."""
    space = u.space
    v_set = leptin_search(space, u.support, epsilon).members
    f = GroupFunction.indicator(space, set_product(space, u.support, v_set))
    g = GroupFunction.indicator(space, v_set).scale(1.0 / len(v_set))
    c = u(u.support[0])
    return v_set, Decomposition(terms=((f.scale(c), g),), target=u)


@pytest.mark.parametrize("radius", [32, 64])
def test_aphi_bound_budget_3_on_a_window_needs_no_leptin_restart(capsys, radius):
    group = json.dumps({"type": "Zwindow", "radius": radius})
    space = group_from_spec(group)
    for support in ([-2, -1, 0, 1, 2], [0, 1], [-7, -3, 4, 5, 6], list(range(-10, 1))):
        for c in (1.0, 0.5, -3.0, 1e-6, 1e-12):
            u = GroupFunction(space, {x: c for x in support})
            for epsilon in (1.0, 0.5):
                v_set, restart = _leptin_restart(u, epsilon)
                # nonzero at max(S) + 1, outside S, so the error is at least |c| / |V|
                assert len(v_set) >= 3
                rec_err = restart.reconstruction_error()
                assert rec_err >= abs(c) / len(v_set) * (1 - 1e-12) > 1e-9 * abs(c)
            rows = json.dumps([[x, c, 0] for x in support])
            code, out, err = run_cli(capsys, "aphi", "bound", "--group", group,
                                     "--nfunction", QUAD, "--function", rows)
            assert code == 0, err
            # the merged pair (u, chi_0), one term, rebuilds u exactly
            assert "witness-terms=1\n" in out
            merged = decomposition_cost(merged_decomposition(u), pair_from_name("power-2"))
            assert f"upper={merged!r}\n" in out


def test_aphi_bound_has_no_budget_option(capsys):
    code, err = _exit_code(capsys, "aphi", "bound", "--budget", "3", "--group", Z8,
                           "--nfunction", QUAD, "--function", CHI_HALF)
    assert code == 2
    assert "unrecognized arguments: --budget 3" in err


@pytest.mark.parametrize("where", ["--group", "--nfunction", "config"])
@pytest.mark.parametrize("kind", ["directory", "not-utf-8"])
def test_unreadable_spec_path_exits_2(capsys, tmp_path, monkeypatch, where, kind):
    path = tmp_path / "spec.json"
    if kind == "directory":
        path.mkdir()
    else:
        path.write_bytes(b"\xff\xfe{}")
    argv = ["norm", "modular", "--group", Z8, "--nfunction", QUAD, "--function", CHI_HALF]
    if where == "config":
        monkeypatch.setenv(cli.CONFIG_ENV, str(path))
    else:
        argv[argv.index(where) + 1] = str(path)
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith(f"parse error: cannot read {path}: ")


def test_witness_whose_probes_do_not_violate_exits_4(capsys, monkeypatch):
    # the shared level kernel reads every integral as n = 11: the instance is
    # a member and no probe violates
    monkeypatch.setattr(porosity, "_level_max", lambda f_abs, g_abs, w, r: (11.0, 0))
    code, out, err = run_cli(capsys, "porosity", "witness", "--probes", "2")
    assert (code, out) == (4, "")
    assert "witness checks failed: all-probes-violate" in err
    assert "state.failures=[CheckResult(name='all-probes-violate'" in err
    assert "state.non_violating=(ProbeRecord(index=0, delta_f=Perturbation(kind=" in err


TINY = ("norm", "orlicz", "--group", '{"type":"Zn","n":4}',
        "--nfunction", '{"kind":"entropy"}', "--function", "[[0, 1e-200, 0]]")


def _value(out, key):
    return float(next(line.split("=", 1)[1] for line in out.splitlines()
                      if line.startswith(key + "=")))


def test_oracle_agreement_is_relative_below_one(capsys, monkeypatch):
    # 1e-200 delta_0: the dual point at the root k ~ 1/sup|f| recovers the value
    code, out, _ = run_cli(capsys, *TINY)
    value, oracle = _value(out, "value"), _value(out, "oracle-value")
    assert code == 0 and "check.oracle-agreement=pass" in out
    assert 0.0 < oracle <= value and value - oracle <= 1e-6 * value
    # a lower end that underflows to 0.0 disagrees at this scale; an
    # absolute tolerance of 1e-6 let it pass
    monkeypatch.setattr(norms, "_dual_point", lambda pair, f, k: (0.0, f, 0))
    code, out, _ = run_cli(capsys, *TINY)
    assert code == 1
    assert "check.oracle-agreement=FAIL" in out and "passed=false" in out


def test_witness_stops_collecting_on_its_own_clauses(capsys):
    # 512 n / R^2 = 107.99999999999999 here: lam(K) = 108 passes the
    # threshold but (R^2/512) 108 = 11.0 does not exceed n = 11
    code, out, err = run_cli(capsys, "porosity", "witness", "--n", "11",
                             "--R", "7.221367470787521", "--probes", "5")
    assert code == 0, err
    assert "check.lam-k-exceeds-threshold=pass" in out
    assert "check.guaranteed-exceeds-n=pass" in out
    assert "passed=true" in out


COSH = '{"kind": "cosh"}'
MEMO_COMMANDS = (
    ("suite", "--seed", "13"),
    ("segal", "report", "--group", '{"type": "S3"}', "--nfunction", COSH),
    ("aphi", "bound", "--group", '{"type": "Zn", "n": 6}',
     "--nfunction", '{"kind": "entropy"}',
     "--function", json.dumps([[x, 0.25 * x - 0.5, 0.125 * x] for x in range(6)])),
    ("unit", "check", "--group", '{"type": "Zn", "n": 6}', "--nfunction", COSH),
)


@pytest.mark.parametrize("argv", MEMO_COMMANDS, ids=lambda argv: " ".join(argv[:2]))
def test_machine_reports_equal_the_unmemoised_solves(capsys, monkeypatch, argv):
    shipped = run_cli(capsys, *argv)
    monkeypatch.setattr(norms, "_solve_once", lambda kind, phi, f, solve: solve())
    direct = run_cli(capsys, *argv)
    assert shipped[0] == 0
    assert shipped == direct


def _recording(seen, fn):
    """``fn``, recording the memo active each time it runs."""
    def recording(*args, **kwargs):
        seen.append(norms._SOLVES.get())
        return fn(*args, **kwargs)
    return recording


def _contradiction(*args, **kwargs):
    raise TheoremContradictionError("forced for the scope test", state={"probe": 0})


@pytest.mark.parametrize("argv, expected, attr, replacement", [
    (("norm", "luxemburg", "--group", Z8, "--nfunction", QUAD, "--function", CHI_HALF),
     0, "luxemburg", None),
    (("norm", "luxemburg", "--group", Z8, "--nfunction", QUAD,
      "--function", "[[0, NaN, 0]]"), 2, "function_from_rows", None),
    (("unit", "check", "--group", '{"type": "Zwindow", "radius": 8}', "--nfunction", QUAD),
     3, "pair_from_spec", None),
    (("porosity", "witness", "--probes", "1"), 4, "build_witness", _contradiction),
])
def test_main_leaves_no_solve_scope_active(capsys, monkeypatch, argv, expected, attr,
                                           replacement):
    seen = []
    monkeypatch.setattr(cli, attr, _recording(seen, replacement or getattr(cli, attr)))
    assert norms._SOLVES.get() is None
    code, _, _ = run_cli(capsys, *argv)
    assert code == expected
    assert seen and all(isinstance(memo, dict) for memo in seen)
    assert norms._SOLVES.get() is None


# -- the one-command argument tree ----------------------------------------------

COMMAND_VERBS = {"nfunc": "check", "norm": "modular", "group": "check", "aphi": "bound",
                 "porosity": "witness", "segal": "report", "unit": "check",
                 "characters": "brute"}
TREE_ARGVS = [[], ["--help"], ["--version"], ["frobnicate"], ["frobnicate", "--help"],
              ["--seed", "3", "suite"], ["suite", "--help"], ["suite", "--bogus"],
              ["porosity", "witness", "--probes", "0"], ["norm", "modular", "--group", Z8]]
for _command, _verb in COMMAND_VERBS.items():
    TREE_ARGVS += [[_command], [_command, "--help"], [_command, _verb, "--help"],
                   [_command, "frobnicate"]]


@pytest.mark.parametrize("argv", [list(argv) for argv in GOLDEN_RUNS.values()] + TREE_ARGVS,
                         ids=" ".join)
def test_one_command_tree_parses_like_the_whole_tree(argv):
    assert_one_command_tree_parses_alike(argv)


def test_main_builds_only_the_named_command(capsys, monkeypatch):
    built, build = [], cli._build_parser

    def spy(command=None):
        built.append(command)
        return build(command)

    monkeypatch.setattr(cli, "_build_parser", spy)
    assert cli.main(["unit", "check", "--group", Z8, "--nfunction", QUAD]) == 0
    with pytest.raises(SystemExit):
        cli.main(["--help"])
    capsys.readouterr()
    assert built == ["unit", "--help"]
    # a command that is not the one built is registered by name alone
    assert parse_outcome(parser_tree("unit"), ["group", "check", "--group", Z8])[1] == 2
    assert parse_outcome(parser_tree(), ["group", "check", "--group", Z8])[1] is None


HUGE = ("norm", "orlicz", "--group", '{"type":"Zn","n":4}',
        "--nfunction", '{"kind":"power","p":2}', "--function")


def test_pairing_past_the_float_range_exits_3(capsys):
    code, out, err = run_cli(capsys, *HUGE, "[[0, 1e308, 0]]")
    assert (code, out) == (3, "")
    assert err == ("scope error: sup|f| = 1e+308 is above the float range of the "
                   "pairing sum |f g| dlam: it overflows\n")


def test_pairing_just_inside_the_float_range_keeps_its_report(capsys):
    code, out, _ = run_cli(capsys, *HUGE, "[[0, 5e307, 0]]")
    assert code == 0
    assert out == (
        "verb=norm orlicz\n"
        "group=Z4\n"
        "nfunction=power(p=2)\n"
        "support-size=1\n"
        "value=3.5355339059327373e+307\n"
        "method=amemiya-min\n"
        "oracle-value=3.5355339059318547e+307\n"
        "provenance=computed (minimization) vs computed (dual point at the Amemiya root)\n"
        "check.oracle-agreement=pass slack=3.5355330232723603e+301\n"
        "check.norm-equivalence=pass slack=8.836582970464972e+294\n"
        "config.seed=0 (default)\n"
        "config.format=machine (default)\n"
        "config.output=None (default)\n"
        "config.tol_slack=1e-09 (default)\n"
        "config.tol_value=1e-12 (default)\n"
        "passed=true\n")


# -- input past the float range: a scope or parse error, never a traceback ------

W16 = '{"type": "Zwindow", "radius": 16}'
PAST_THE_FLOATS = {
    "plateau-power2-eps1e308": ("aphi", "plateau", "--group", W16, "--nfunction", QUAD,
                                "--set", "[0]", "--epsilon", "1e308"),
    "convolve-1e200": ("group", "convolve", "--group", Z8,
                       "--left", "[[0, 1e200, 0]]", "--right", "[[0, 1e200, 0]]"),
    "submult-1e200": ("aphi", "submult", "--group", Z8, "--nfunction", QUAD,
                      "--left", "[[0, 1e200, 0]]", "--right", "[[1, 1e200, 0]]"),
    "bound-1e308": ("aphi", "bound", "--group", Z8, "--nfunction", QUAD,
                    "--function", "[[0, 1e308, 0]]"),
}


@pytest.mark.parametrize("argv", PAST_THE_FLOATS.values(), ids=PAST_THE_FLOATS)
def test_input_past_the_float_range_exits_3(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("scope error: ") and err.count("\n") == 1
    assert "nan" not in err and "inf" not in err


#: t = 1/((1+eps) lam(V)) is a normal float here, far below where the
#: inverses' solve used to read 0
INSIDE_THE_FLOATS = {
    "plateau-cosh-eps1e20": ("aphi", "plateau", "--group", W16, "--nfunction", COSH,
                             "--set", "[0]", "--epsilon", "1e20"),
    "unit-cosh-eps1e20": ("unit", "check", "--group", '{"type": "Zn", "n": 6}',
                          "--nfunction", COSH, "--epsilon", "1e20"),
    "plateau-power2-eps1e150": ("aphi", "plateau", "--group", W16, "--nfunction", QUAD,
                                "--set", "[0]", "--epsilon", "1e150"),
    "plateau-entropy-eps1e50": ("aphi", "plateau", "--group", W16, "--nfunction",
                                '{"kind": "entropy"}', "--set", "[0]", "--epsilon", "1e50"),
}


@pytest.mark.parametrize("argv", INSIDE_THE_FLOATS.values(), ids=INSIDE_THE_FLOATS)
def test_epsilon_whose_t_is_a_normal_float_certifies(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert (code, err) == (0, "")
    assert out.endswith("passed=true\n")


@pytest.mark.parametrize("radius", ["1e155", "1e-163", "1e-160"])
def test_ball_radius_whose_square_leaves_the_floats_exits_2(capsys, radius):
    # 1e-160 squares to a positive float, but 512 n / R^2 overflows
    code, out, err = run_cli(capsys, "porosity", "witness", "--R", radius, "--probes", "1")
    assert (code, out) == (2, "")
    assert err == (f"parse error: ball radius R = {float(radius):g} puts R^2 or 512 n / R^2 "
                   "outside the positive floats\n")
