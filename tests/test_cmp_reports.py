"""The report comparison of scripts/cmp_reports.py, on hand-made directories."""

import importlib.util
import io
import math
from contextlib import redirect_stdout
from pathlib import Path

import orliczalg.cli as cli
from test_cli import CAP_RUNS, Z16_RELABELLED

SCRIPTS = Path(__file__).resolve().parent.parent / "scripts"


def _load(monkeypatch):
    monkeypatch.syspath_prepend(str(SCRIPTS))  # for its bench_pairs import
    spec = importlib.util.spec_from_file_location("cmp_reports", SCRIPTS / "cmp_reports.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_differing_names_changed_and_one_sided_reports_only(tmp_path, monkeypatch):
    cmp_reports = _load(monkeypatch)
    base, change = tmp_path / "base", tmp_path / "change"
    for side in (base, change):
        side.mkdir()
        (side / "same.txt").write_text("exit=0\nvalue=1.0\n")
    (base / "changed.txt").write_text("exit=0\nvalue=1.0\n")
    (change / "changed.txt").write_text("exit=0\nvalue=1.0000000000000002\n")
    (base / "exit.txt").write_text("exit=0\nvalue=1.0\n")
    (change / "exit.txt").write_text("exit=1\nvalue=1.0\n")
    (base / "base-only.txt").write_text("exit=0\n")
    (change / "change-only.txt").write_text("exit=0\n")
    assert cmp_reports.differing(base, change) == [
        "base-only.txt", "change-only.txt", "changed.txt", "exit.txt"]
    assert cmp_reports.differing(base, base) == []
    assert cmp_reports.changed_keys(base / "changed.txt", change / "changed.txt") == ["value"]
    assert cmp_reports.changed_keys(base / "exit.txt", change / "exit.txt") == ["exit"]
    assert cmp_reports.changed_keys(base / "same.txt", change / "same.txt") == []


def test_changed_keys_names_added_dropped_and_bare_lines(tmp_path, monkeypatch):
    cmp_reports = _load(monkeypatch)
    base, change = tmp_path / "base.txt", tmp_path / "change.txt"
    base.write_text("exit=0\nvalue=1.0\ndropped=x\nusage: orliczalg suite\n")
    change.write_text("exit=0\nvalue=1.0\nadded=y\nusage: orliczalg suite [-h]\n")
    assert cmp_reports.changed_keys(base, change) == [
        "dropped", "usage: orliczalg suite", "added", "usage: orliczalg suite [-h]"]


def test_main_names_the_keys_of_each_differing_report(tmp_path, monkeypatch, capsys):
    cmp_reports = _load(monkeypatch)
    reports = {"change": {"a": "exit=0\nvalue=2.0\n", "new": "exit=0\n"},
               "base": {"a": "exit=0\nvalue=1.0\n"}}
    monkeypatch.setattr(cmp_reports, "commands", lambda: {"a": [], "new": []})
    monkeypatch.setattr(cmp_reports, "extract", lambda rev: tmp_path / "base-tree")
    monkeypatch.setattr(cmp_reports.tempfile, "mkdtemp", lambda prefix: str(tmp_path / "out"))

    def write_reports(root, runs, dest):
        dest.mkdir(parents=True)
        for name, text in reports[dest.name].items():
            (dest / f"{name}.txt").write_text(text)

    monkeypatch.setattr(cmp_reports, "write_reports", write_reports)
    assert cmp_reports.main(["--base", "REV"]) == 1
    assert capsys.readouterr().out.splitlines()[:3] == [
        "differs: a.txt: value", "differs: new.txt: only in change",
        "0 of 2 reports identical to REV"]


def test_help_runs_cover_every_command_and_verb(monkeypatch):
    cmp_reports = _load(monkeypatch)
    assert len(cmp_reports.HELP_RUNS) == 27
    assert list(cmp_reports.COMMAND_VERBS) == list(cli._COMMANDS)
    for command, verbs in cmp_reports.COMMAND_VERBS.items():
        subtree = cli._build_parser(command)._subparsers._group_actions[0].choices[command]
        choices = [a.choices for a in subtree._actions if a.dest == "verb"]
        assert list(choices[0] if choices else ()) == list(verbs)


def test_clause_runs_are_passing_commands(monkeypatch):
    cmp_reports = _load(monkeypatch)
    assert len(cmp_reports.CLAUSE_RUNS) == 4
    for name, argv in cmp_reports.CLAUSE_RUNS.items():
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(list(argv)) == 0, name
        assert "check." in out.getvalue(), name


def test_table_runs_are_passing_commands(monkeypatch):
    cmp_reports = _load(monkeypatch)
    assert len(cmp_reports.TABLE_RUNS) == 8
    for name, argv in cmp_reports.TABLE_RUNS.items():
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(list(argv)) == 0, name
        assert "passed=true" in out.getvalue(), name


def test_small_t_runs_are_passing_commands(monkeypatch):
    cmp_reports = _load(monkeypatch)
    assert len(cmp_reports.SMALL_T_RUNS) == 3
    for name, argv in cmp_reports.SMALL_T_RUNS.items():
        out = io.StringIO()
        with redirect_stdout(out):
            assert cli.main(list(argv)) == 0, name
        assert out.getvalue().endswith("passed=true\n"), name


def test_edge_runs_exit_as_named(monkeypatch, capsys):
    cmp_reports = _load(monkeypatch)
    assert cmp_reports.Z16_RELABELLED == Z16_RELABELLED
    codes = {}
    for name, argv in cmp_reports.EDGE_RUNS.items():
        codes[name] = cli.main(list(argv))
    out, err = capsys.readouterr()
    assert codes == {"characters-enumerate-Z16-by-order": 0, "characters-brute-Z16-by-order": 0,
                     "characters-enumerate-Z2xZ4xZ3": 0, "group-leptin-Zwindow16-past-the-edge": 3}
    assert out.count("count=16\n") == 2 and "count=24\n" in out
    assert err == "scope error: Zwindow16: Leptin set for eps=0.5 needs radius 30\n"


def test_witness_runs_pass_and_reach_the_new_edges(monkeypatch, capsys):
    cmp_reports = _load(monkeypatch)
    assert len(cmp_reports.WITNESS_RUNS) == 4
    outs = {}
    for name, argv in cmp_reports.WITNESS_RUNS.items():
        assert cli.main(list(argv)) == 0, name
        outs[name] = capsys.readouterr().out
        assert outs[name].endswith("passed=true\n"), name
    # the translates of [-1, 1] cover [-16, 16], so f's support at +-17 is
    # left out of the count that (-1, 1) wins
    edge = outs["witness-window17-quadrant-m1p1-probes50"].splitlines()
    assert "quadrant=(-1,1)" in edge and "base-points=[0, 3, -3]" in edge
    # f and g both given, on supports that overlap
    shifted = outs["witness-shifted-supports-probes100"].splitlines()
    assert not any(line.startswith(("f=", "g=")) for line in shifted)
    assert "membership-max-integral=0.0" not in shifted


def test_cap_and_input_runs_exit_as_named(monkeypatch, capsys):
    cmp_reports = _load(monkeypatch)
    assert {name: tuple(argv) for name, argv in cmp_reports.CAP_RUNS.items()} == CAP_RUNS
    runs = {**cmp_reports.CAP_RUNS, **cmp_reports.INPUT_RUNS}
    codes = {name: cli.main(list(argv)) for name, argv in runs.items()}
    assert codes == {**dict.fromkeys(CAP_RUNS, 3), "characters-brute-Z12-tol-slack0": 0,
                     "norm-luxemburg-Z4-power-p-string": 2}
    err = capsys.readouterr().err.splitlines()
    assert [line.split(":")[0] for line in err] == ["scope error"] * 4 + ["parse error"]

def test_parse_error_runs_exit_2(monkeypatch, capsys):
    cmp_reports = _load(monkeypatch)
    assert len(cmp_reports.PARSE_ERROR_RUNS) == 4
    for name, argv in cmp_reports.PARSE_ERROR_RUNS.items():
        assert cli.main(list(argv)) == 2, name
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("parse error: "), name


def test_sized_changes_give_each_numeric_move_and_the_largest_solved_one(tmp_path, monkeypatch):
    cmp_reports = _load(monkeypatch)
    base, change = tmp_path / "base.txt", tmp_path / "change.txt"
    base.write_text("exit=0\nvalue=0.5\niterations=9\nmethod=illinois\nzero=0.0\n"
                    "check.bound=pass slack=2.0 rho(f/k) <= 1\nslack.min=4.0\nsame=1.0\n")
    change.write_text("exit=0\nvalue=0.5000000000000001\niterations=6\nmethod=regula-falsi\n"
                      "zero=1e-300\ncheck.bound=FAIL slack=-1.0 rho(f/k) <= 1\nslack.min=5.0\n"
                      "same=1.0\n")
    assert cmp_reports.relative_change("0.5", "0.5000000000000001") == 2 ** -52
    assert cmp_reports.relative_change("pass slack=2.0 detail", "FAIL slack=-1.0") == 1.5
    assert cmp_reports.relative_change("0.0", "1e-300") == math.inf
    assert cmp_reports.relative_change("illinois", "regula-falsi") is None
    assert cmp_reports.relative_change("1.0", None) is None
    assert cmp_reports.sized_changes(base, change) == (
        "value 2.22e-16, iterations 0.333, zero inf, check.bound 1.5, slack.min 0.25; "
        "largest non-slack: zero inf")
    base.write_text("exit=0\nmethod=illinois\ncheck.x=pass slack=1.0\n")
    change.write_text("exit=0\nmethod=regula-falsi\ncheck.x=pass slack=3.0\n")
    assert cmp_reports.sized_changes(base, change) == "check.x 2"
    change.write_text("exit=0\nmethod=regula-falsi\ncheck.x=pass slack=1.0\n")
    assert cmp_reports.sized_changes(base, change) == ""


def test_main_sizes_the_numeric_moves_after_the_summary(tmp_path, monkeypatch, capsys):
    cmp_reports = _load(monkeypatch)
    reports = {"change": {"a": "exit=0\nvalue=2.0\n", "b": "exit=0\nmethod=x\n"},
               "base": {"a": "exit=0\nvalue=1.0\n", "b": "exit=0\nmethod=y\n"}}
    monkeypatch.setattr(cmp_reports, "commands", lambda: {"a": [], "b": []})
    monkeypatch.setattr(cmp_reports, "extract", lambda rev: tmp_path / "base-tree")
    monkeypatch.setattr(cmp_reports.tempfile, "mkdtemp", lambda prefix: str(tmp_path / "out"))

    def write_reports(root, runs, dest):
        dest.mkdir(parents=True)
        for name, text in reports[dest.name].items():
            (dest / f"{name}.txt").write_text(text)

    monkeypatch.setattr(cmp_reports, "write_reports", write_reports)
    assert cmp_reports.main(["--base", "REV"]) == 1
    lines = capsys.readouterr().out.splitlines()
    assert lines[:3] == ["differs: a.txt: value", "differs: b.txt: method",
                         "0 of 2 reports identical to REV"]
    assert lines[4:] == ["relative: a.txt: value 1; largest non-slack: value 1"]
