"""CLI behavior: verbs, exit codes, strict parsing, reproducible reports."""

import json
import math
import time

import pytest

import orliczalg.cli as cli
from orliczalg.errors import TheoremContradictionError
from orliczalg.specio import Report

Z8 = '{"type": "Zn", "n": 8}'
QUAD = '{"kind": "power", "p": 2}'
CHI_HALF = json.dumps([[x, 1, 0] for x in range(4)])


def run_cli(capsys, *argv):
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
    assert "check.closed-form-vs-bisection=pass" in out


def test_malformed_group_spec_exits_2(capsys):
    code, _, err = run_cli(capsys, "group", "check", "--group", '{"type": "Zn", "n":')
    assert code == 2
    assert "line 1" in err and "column" in err


def test_unknown_key_rejected_exits_2(capsys):
    code, _, err = run_cli(capsys, "group", "check", "--group",
                           '{"type": "Zn", "n": 4, "extra": 1}')
    assert code == 2
    assert "strict parsing" in err


def test_scope_error_exits_3(capsys):
    code, _, err = run_cli(capsys, "unit", "check", "--group",
                           '{"type": "Zwindow", "radius": 8}', "--nfunction", QUAD)
    assert code == 3


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
    for verb in ("plateau", "lemma-r"):
        code, out, _ = run_cli(capsys, "aphi", verb, "--group",
                               '{"type": "Zwindow", "radius": 64}',
                               "--nfunction", QUAD, "--set", "[-1,0,1]",
                               "--epsilon", "0.5")
        assert code == 0
        assert "check.cost-phi-below-bound=pass" in out
        assert "chain.phi.inverse-product-lower-bound.bound=3.0" in out


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


def test_characters_brute_beyond_search_limit_exits_3_before_enumerating(capsys):
    started = time.monotonic()
    code, out, err = run_cli(capsys, "characters", "brute", "--group",
                             '{"type": "Zn", "n": 10}')
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert out == ""
    assert "10^9 weight vectors" in err


def test_suite_with_a_group_beyond_the_search_limit_exits_3(capsys):
    started = time.monotonic()
    code, out, err = run_cli(capsys, "suite", "--groups", "Z10", "--pairs", "")
    assert time.monotonic() - started < 1.0
    assert code == 3
    assert "10^9 weight vectors" in err


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
