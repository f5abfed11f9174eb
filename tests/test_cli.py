"""Command line contract: exit codes, payload schema, determinism."""

import importlib
import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

from gamma_monodromy import cli, monodromy
from gamma_monodromy.numerics import NumericsError


# ---------------------------------------------------------------------------
# argument handling
# ---------------------------------------------------------------------------

def test_parse_space():
    assert cli.parse_space("proj:2") == ("proj", 2)
    assert cli.parse_space("twisted:4") == ("twisted", 4)
    for bad in ("weird:3", "blproj:3", "proj", "proj:x", "proj:-1", "",
                None):
        with pytest.raises(cli.UsageError):
            cli.parse_space(bad)


def test_check_tol_window():
    assert cli._check_tol(1e-4) == 1e-4
    with pytest.raises(cli.UsageError):
        cli._check_tol(1e-2)
    with pytest.raises(cli.UsageError):
        cli._check_tol(1e-13)


def test_branch_value():
    assert abs(cli._branch_value([2.0, 0.0], "--q") - 2.0) < 1e-15
    assert abs(cli._branch_value([1.0, 1.0], "--q") + 1.0) < 1e-15
    assert abs(cli._branch_value([1.0, 0.5], "--q") - 1j) < 1e-15
    with pytest.raises(cli.UsageError):
        cli._branch_value([-1.0, 0.0], "--q")
    with pytest.raises(cli.UsageError):
        cli._branch_value(None, "--q")


def test_missing_subcommand_exits_usage():
    with pytest.raises(SystemExit) as exc:
        cli.main([])
    assert exc.value.code == cli.EXIT_USAGE


def test_usage_errors_return_64():
    assert cli.main(["reflections", "--space", "weird:3",
                     "--q", "1"]) == cli.EXIT_USAGE
    assert cli.main(["reflections", "--space", "proj:1"]) == cli.EXIT_USAGE
    assert cli.main(["reflections", "--space", "proj:1", "--q", "1",
                     "--k", "7"]) == cli.EXIT_USAGE
    assert cli.main(["phi", "--space", "twisted:3",
                     "--q", "1"]) == cli.EXIT_USAGE
    assert cli.main(["phi", "--space", "proj:1", "--q", "1",
                     "--q-arg", "0.5"]) == cli.EXIT_USAGE
    assert cli.main(["suite", "--only", "nonsense"]) == cli.EXIT_USAGE


@pytest.mark.parametrize("space", ["proj:0", "proj:9", "twisted:1",
                                   "twisted:2", "twisted:9"])
def test_space_out_of_range_exits_usage(space, capsys):
    assert cli.main(["reflections", "--space", space, "--q", "1",
                     "--Q", "1"]) == cli.EXIT_USAGE
    assert "out of range" in capsys.readouterr().err


@pytest.mark.parametrize("argv", [
    ["suite", "--q", "1"],
    ["reflections", "--space", "proj:1", "--q", "1", "--k", "0",
     "--format", "csv"],
    ["phi", "--space", "proj:1", "--q", "1", "--Q", "1"],
])
def test_flags_a_command_ignores_exit_usage(argv):
    with pytest.raises(SystemExit) as exc:
        cli.main(argv)
    assert exc.value.code == cli.EXIT_USAGE


# ---------------------------------------------------------------------------
# reflections command
# ---------------------------------------------------------------------------

def test_reflections_json_payload(tmp_path):
    out = tmp_path / "refl.json"
    rc = cli.main(["reflections", "--space", "proj:1", "--q", "1",
                   "--k", "0", "--out", str(out)])
    assert rc == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["schema"] == "gamma-monodromy/1"
    assert data["pass"] is True
    (entry,) = data["results"]
    assert entry["k"] == 0
    assert entry["sign"] in (1, -1)
    assert entry["residual"] < entry["tolerance"]
    assert entry["pairing_residual"] < entry["pairing_tolerance"]
    # complex numbers are [re, im] pairs
    assert all(len(z) == 2 for z in entry["alpha"])


def test_reflections_output_is_deterministic(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    args = ["reflections", "--space", "proj:1", "--q", "1", "--k", "1"]
    assert cli.main(args + ["--out", str(a)]) == 0
    assert cli.main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_reflections_twisted_payload(tmp_path):
    out = tmp_path / "tw.json"
    rc = cli.main(["reflections", "--space", "twisted:3", "--Q", "1",
                   "--k", "0", "--out", str(out)])
    assert rc == cli.EXIT_OK
    data = json.loads(out.read_text())
    (entry,) = data["results"]
    assert entry["constant_deviation"] < entry["tolerance"]
    assert entry["pairing_residual"] < entry["pairing_tolerance"]


def test_reflections_tolerance_breach_exits_1(tmp_path, monkeypatch):
    # a candidate that cannot match forces residual above tolerance
    monkeypatch.setattr(
        monodromy, "psi_map",
        lambda space, kcl, q_log: np.full(space.size, 37.0, dtype=complex))
    out = tmp_path / "breach.json"
    rc = cli.main(["reflections", "--space", "proj:1", "--q", "1",
                   "--k", "0", "--out", str(out)])
    assert rc == cli.EXIT_FAIL
    assert json.loads(out.read_text())["pass"] is False


def test_numerical_failure_exits_2(monkeypatch, capsys):
    def boom(*a, **k):
        raise NumericsError("synthetic blowup")

    monkeypatch.setattr(monodromy, "monodromy_matrix", boom)
    rc = cli.main(["reflections", "--space", "proj:1", "--q", "1",
                   "--k", "0"])
    assert rc == cli.EXIT_NUMERIC
    assert "numerical failure" in capsys.readouterr().err


def _failing_at(k_bad):
    """proj_reflection_check that raises NumericsError at loop k_bad."""
    real = cli.proj_reflection_check

    def check(n, q, k, m=None):
        if k == k_bad:
            raise NumericsError("synthetic blowup")
        return real(n, q, k, m=m)

    return check


def test_failed_loop_keeps_the_report(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(cli, "proj_reflection_check", _failing_at(1))
    out = tmp_path / "part.json"
    rc = cli.main(["reflections", "--space", "proj:2", "--q", "1",
                   "--out", str(out)])
    assert rc == cli.EXIT_NUMERIC
    assert "k = 1: synthetic blowup" in capsys.readouterr().err
    data = json.loads(out.read_text())
    assert data["pass"] is False
    ok0, bad, ok2 = data["results"]
    assert bad == {"k": 1, "error": "synthetic blowup", "pass": False}
    assert ok0["k"] == 0 and ok0["pass"] and ok2["k"] == 2 and ok2["pass"]


def test_proj_entries_carry_the_loop_counters(tmp_path):
    out = tmp_path / "counters.json"
    assert cli.main(["reflections", "--space", "proj:2", "--q", "1",
                     "--out", str(out)]) == cli.EXIT_OK
    for entry in json.loads(out.read_text())["results"]:
        counters = entry["counters"]
        assert set(counters) == {"series_terms", "frobenius_terms"}
        assert counters["series_terms"] > 0
        assert counters["frobenius_terms"] > 0


# ---------------------------------------------------------------------------
# phi command
# ---------------------------------------------------------------------------

def test_phi_json_payload(tmp_path):
    out = tmp_path / "phi.json"
    rc = cli.main(["phi", "--space", "proj:1", "--q", "1", "--m", "3",
                   "--out", str(out)])
    assert rc == cli.EXIT_OK
    data = json.loads(out.read_text())
    assert data["pass"] is True
    assert data["n"] == 3 and data["m"] == 3
    assert data["branch_point"] == 2.0
    assert data["zero_region"]["max_abs"] < data["zero_region"]["tolerance"]
    comp = data["comparison"]
    assert comp["max_abs_diff"] < comp["tolerance"]
    assert len(comp["rows"]) == 10
    # the contour's own error estimate, step and rule size travel along
    assert "tail_bound" not in comp
    assert 0.0 < comp["quadrature_error"] <= 1e-7
    assert comp["quadrature_h"] == 0.025
    assert comp["nodes_per_lambda"] == 720
    fit = data["exponent_fit"]
    assert fit["expected"] == 2.5
    assert fit["deviation"] < fit["tolerance"]


@pytest.mark.parametrize("space, code", [
    ("proj:1", cli.EXIT_OK), ("proj:2", cli.EXIT_OK),
    # odd m: the residue series stops at the terms its smallest lambda
    # needs, short of the deep poles whose 1/Gamma factor overflows
    ("proj:3", cli.EXIT_OK), ("proj:4", cli.EXIT_OK),
    # the exponent fit is 0.025 from m - 1/2, against 0.02
    ("proj:5", cli.EXIT_FAIL),
])
def test_phi_exit_codes(space, code, tmp_path):
    out = tmp_path / "phi.json"
    assert cli.main(["phi", "--space", space, "--q", "1",
                     "--out", str(out)]) == code
    data = json.loads(out.read_text())
    assert data["pass"] is (code == cli.EXIT_OK)
    assert data["comparison"]["max_abs_diff"] < 1e-8


def test_phi_fit_quality_error_exits_2(monkeypatch, capsys):
    from gamma_monodromy import mirror

    def poor_fit(*args):
        raise mirror.FitQualityError("exponent fit r^2 = 0.5")

    monkeypatch.setattr(mirror, "local_exponent_fit", poor_fit)
    assert cli.main(["phi", "--space", "proj:1", "--q", "1"]) \
        == cli.EXIT_NUMERIC
    assert "numerical failure: exponent fit" in capsys.readouterr().err


def test_phi_csv_contract(tmp_path):
    out = tmp_path / "phi.csv"
    rc = cli.main(["phi", "--space", "proj:1", "--q", "1", "--m", "3",
                   "--format", "csv", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "lambda,re_phi_series,re_phi_mb,abs_diff"
    assert len(lines) == 11
    first = [float(x) for x in lines[1].split(",")]
    assert len(first) == 4
    assert first[3] < 1e-6


# ---------------------------------------------------------------------------
# suite command
# ---------------------------------------------------------------------------

def test_suite_single_criterion(tmp_path, capsys):
    out = tmp_path / "suite.json"
    rc = cli.main(["suite", "--only", "calibration", "--out", str(out)])
    assert rc == cli.EXIT_OK
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 1
    assert lines[0].startswith("PASS")
    assert "calibration" in lines[0]
    data = json.loads(out.read_text())
    assert data["pass"] is True
    # timings are kept out of the stored payload
    assert "seconds" not in json.dumps(data)


def test_suite_out_is_byte_identical_across_runs(tmp_path, capsys):
    # all ten criteria: the payload carries numpy scalars and complex
    # numbers, which the timing strip turns into plain JSON
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert cli.main(["suite", "--out", str(a)]) == cli.EXIT_OK
    assert cli.main(["suite", "--out", str(b)]) == cli.EXIT_OK
    assert a.read_bytes() == b.read_bytes()
    data = json.loads(a.read_text())
    assert len(data["results"]) == 10 and data["pass"] is True
    assert len(capsys.readouterr().out.strip().splitlines()) == 20


def test_phi_without_q_exits_64(capsys):
    assert cli.main(["phi", "--space", "proj:1"]) == cli.EXIT_USAGE
    assert "missing required argument --q" in capsys.readouterr().err


@pytest.mark.parametrize("argv, message", [
    (["reflections", "--space", "twisted:3", "--Q", "1", "--Q-arg", "0.5"],
     "twisted spaces require real positive --Q"),
    (["phi", "--space", "proj:1", "--q", "1", "--m", "0"],
     "phi requires --m >= 1"),
])
def test_out_of_domain_flags_exit_64(argv, message, capsys):
    # both died with a traceback and exit 1, the code of a tolerance breach
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == "gamma-monodromy: error: %s\n" % message


@pytest.mark.parametrize("argv", [
    ["reflections", "--space", "twisted:3", "--Q", "nan"],
    ["reflections", "--space", "twisted:3", "--Q", "inf"],
    ["phi", "--space", "proj:1", "--q", "nan"],
    ["phi", "--space", "proj:1", "--q", "inf"],
    ["reflections", "--space", "proj:1", "--q", "nan"],
    ["reflections", "--space", "proj:1", "--q", "inf"],
    ["reflections", "--space", "proj:1", "--q", "1", "--q-arg", "nan"],
    ["reflections", "--space", "proj:1", "--q", "1", "--q-arg", "inf"],
])
def test_non_finite_numbers_exit_64(argv, capsys):
    # they died with a traceback and exit 1, or exit 2 from a numpy check
    assert cli.main(argv) == cli.EXIT_USAGE
    assert capsys.readouterr().err == (
        "gamma-monodromy: error: not a finite number: %s\n" % argv[-1])


def test_unwritable_out_exits_64(capsys):
    assert cli.main(["reflections", "--space", "proj:1", "--q", "1",
                     "--k", "0", "--out", "/nonexistent/x.json"]) \
        == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("gamma-monodromy: error: ")
    assert "/nonexistent/x.json" in err
    assert err.count("\n") == 1 and "Traceback" not in err


def _never(*args, **kwargs):
    raise AssertionError("computed before --out was checked")


@pytest.mark.parametrize("argv", [
    ["suite"],
    ["reflections", "--space", "proj:2", "--q", "1"],
    ["phi", "--space", "proj:1", "--q", "1"],
])
def test_unwritable_out_exits_before_any_computation(argv, monkeypatch,
                                                     capsys):
    from gamma_monodromy import mirror, suite
    monkeypatch.setattr(suite, "run_suite", _never)
    monkeypatch.setattr(cli, "proj_reflection_check", _never)
    monkeypatch.setattr(mirror, "zero_region_scan", _never)
    assert cli.main(argv + ["--out", "/nonexistent/x.json"]) \
        == cli.EXIT_USAGE
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("gamma-monodromy: error: ")
    assert captured.err.count("\n") == 1


def test_numerical_failure_leaves_out_as_it_was(tmp_path, monkeypatch):
    # exit 2 with no payload: a new path stays absent, an old file keeps
    # its bytes
    from gamma_monodromy import suite

    def blowup(only=None):
        raise NumericsError("synthetic blowup")

    monkeypatch.setattr(suite, "run_suite", blowup)
    new, old = tmp_path / "new.json", tmp_path / "old.json"
    old.write_text("{}\n")
    for out in (new, old):
        assert cli.main(["suite", "--out", str(out)]) == cli.EXIT_NUMERIC
    assert not new.exists() and old.read_text() == "{}\n"


def test_overflowing_q_is_a_numerical_failure(capsys):
    # q = -Q^-2 at Q = 1e-300 overflows a double: a failure at every loop
    # that names Q and the bound on it
    assert cli.main(["reflections", "--space", "twisted:3",
                     "--Q", "1e-300"]) == cli.EXIT_NUMERIC
    lines = capsys.readouterr().err.splitlines()
    assert lines == ["gamma-monodromy: numerical failure at k = %d: math "
                     "range error at Q = 1e-300 (|log Q| must be below "
                     "709/2)" % k for k in range(2)]


@pytest.mark.parametrize("argv", [
    ["--space", "proj:1", "--q", "1e300"],
    ["--space", "proj:1", "--q", "1e-30"],
    ["--space", "twisted:3", "--Q", "1e300"],
    ["--space", "twisted:3", "--Q", "1e-150"],
    ["--space", "twisted:3", "--Q", "1e-300"],
])
def test_extreme_q_fails_at_every_loop_and_keeps_the_payload(argv, tmp_path):
    # in a fresh interpreter, where numpy would warn on stderr
    out = tmp_path / "out.json"
    proc = subprocess.run([sys.executable, "-m", "gamma_monodromy.cli",
                           "reflections", *argv, "--out", str(out)],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_NUMERIC
    lines = proc.stderr.splitlines()
    assert len(lines) == 2
    assert all(line.startswith("gamma-monodromy: numerical failure at k = "
                               "%d: " % k) for k, line in enumerate(lines))
    flag = argv[2][2:] + " = " + argv[3].replace("e", "e+").replace("+-", "-")
    assert all(flag in line for line in lines)
    assert "RuntimeWarning" not in proc.stderr
    payload = json.loads(out.read_text())
    assert payload["pass"] is False
    assert [r["k"] for r in payload["results"]] == [0, 1]
    assert all("error" in r for r in payload["results"])


def test_console_script_usage_error():
    exe = shutil.which("gamma-monodromy")
    if exe is None:
        pytest.skip("console script not on PATH")
    proc = subprocess.run([exe, "reflections", "--space", "nope"],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_USAGE
    assert "error" in proc.stderr


def test_console_script_target_usage_error(capsys):
    # the [project.scripts] target, run without installing the script
    tomllib = pytest.importorskip("tomllib")    # Python 3.11+
    with open(Path(__file__).parents[1] / "pyproject.toml", "rb") as fh:
        target = tomllib.load(fh)["project"]["scripts"]["gamma-monodromy"]
    module, name = target.split(":")
    main = getattr(importlib.import_module(module), name)
    assert main(["reflections", "--space", "nope"]) == cli.EXIT_USAGE
    assert "error" in capsys.readouterr().err


def test_module_entry_point_matches():
    proc = subprocess.run([sys.executable, "-m", "gamma_monodromy.cli",
                           "phi", "--space", "proj:1", "--q", "-2"],
                          capture_output=True, text=True)
    assert proc.returncode == cli.EXIT_USAGE


def test_cli_import_leaves_mirror_and_suite_unloaded():
    # reflections needs neither; phi and suite import them when they run
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, gamma_monodromy.cli; "
         "print(sorted(set(sys.modules) & {'gamma_monodromy.mirror', "
         "'gamma_monodromy.suite'}))"],
        capture_output=True, text=True, check=True)
    assert proc.stdout == "[]\n"


@pytest.mark.parametrize("argv, code", [
    (["--space", "proj:3", "--q", "1"], cli.EXIT_OK),
    (["--space", "twisted:4", "--Q", "1.3"], cli.EXIT_OK),
    # read where the two series meet, the loops are at most 4.1e-9 from a
    # reflection (k = 5) and 1.9e-6 from their candidates (k = 6), against
    # 1e-4 for both
    (["--space", "proj:6", "--q", "1"], cli.EXIT_OK),
    # k = 8 fails numerically: its direction comes out isotropic, and k = 6
    # and 7 are 2.3e-3 and 1.3e-2 from their candidates
    (["--space", "proj:8", "--q", "1"], cli.EXIT_NUMERIC),
    # every loop is a reflection, but k = 7 is 5.5e-4 from its candidate
    (["--space", "proj:7", "--q", "1"], cli.EXIT_FAIL),
    # its reflection gate reads 2.5e-8 against 1e-4
    (["--space", "proj:6", "--q", "0.3"], cli.EXIT_OK),
])
def test_reflections_exit_codes(argv, code, capsys):
    assert cli.main(["reflections"] + argv) == code
    if code == cli.EXIT_NUMERIC:
        err = capsys.readouterr().err
        assert "k = 8: anti-invariant direction is isotropic" in err
        # the cause: I at lambda_in is singular to working precision
        assert "(cond of I at lambda_in 1.5e+18)" in err


@pytest.mark.parametrize("argv", [
    ["--space", "proj:1", "--q", "1", "--m", "0"],
    ["--space", "proj:1", "--q", "1", "--m", "-3"],
    ["--space", "proj:3", "--q", "1", "--m", "1"],
    ["--space", "twisted:3", "--Q", "1", "--m", "0"],
])
def test_reflections_degenerate_level_exits_64(argv, capsys):
    # theta + m + 1/2 is a nonpositive integer for some theta: 1/Gamma
    # vanishes there, and the period matrix is exactly singular
    assert cli.main(["reflections"] + argv) == cli.EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("gamma-monodromy: error: --m ")
    assert "makes the period matrix singular" in err
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("argv, code", [
    (["--space", "proj:2", "--q", "1", "--m", "0"], cli.EXIT_OK),
    (["--space", "twisted:4", "--Q", "1", "--m", "-3"], cli.EXIT_OK),
    # no theta + m + 1/2 is a pole of Gamma here; the periods overflow
    (["--space", "proj:1", "--q", "1", "--m", "40"], cli.EXIT_NUMERIC),
])
def test_reflections_regular_levels_keep_their_codes(argv, code, capsys):
    assert cli.main(["reflections"] + argv) == code
