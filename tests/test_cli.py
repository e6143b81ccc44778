"""Command-line interface: exit codes, manifests, env-var precedence,
and curve file format."""

import json
import os
import pathlib
import subprocess
import sys
import tempfile

import pytest
from click.testing import CliRunner
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

import wrightbound
from wrightbound.cli import main


@pytest.fixture()
def runner():
    return CliRunner()


def _manifest(tmp_path, command):
    path = tmp_path / f"{command}-manifest.json"
    assert path.exists()
    return json.loads(path.read_text())


# -- verify --------------------------------------------------------------


def test_verify_single_selector_exit_zero(runner, tmp_path):
    res = runner.invoke(main, ["verify", "2.15a", "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert "2.15a: holds" in res.output
    man = _manifest(tmp_path, "verify")
    assert man["command"] == "verify"
    assert man["config"] == {"selector": "2.15a"}
    assert len(man["verdicts"]) == 1
    assert man["verdicts"][0]["holds"] is True
    assert man["environment"]["endpoint_precision"] == "binary64"


def test_verify_unknown_selector_exit_two(runner, tmp_path):
    res = runner.invoke(main, ["verify", "bogus", "--out", str(tmp_path)])
    assert res.exit_code == 2
    assert "unknown selector" in res.output


def test_verify_manifest_round_trips_through_json(runner, tmp_path):
    runner.invoke(main, ["verify", "appendix-1", "--out", str(tmp_path)])
    man = _manifest(tmp_path, "verify")
    assert json.loads(json.dumps(man)) == man


# -- separate ------------------------------------------------------------


def test_separate_exit_zero_when_separated(runner, tmp_path):
    res = runner.invoke(main, ["separate", "--from", "0.12", "--to", "0.11",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert "separated" in res.output
    man = _manifest(tmp_path, "separate")
    assert man["reports"][0]["separated"] is True
    assert man["config"]["M_start"] == 0.12


def test_separate_reversed_range_exit_two(runner, tmp_path):
    res = runner.invoke(main, ["separate", "--from", "0.1", "--to", "0.2",
                               "--out", str(tmp_path)])
    assert res.exit_code == 2


def test_separate_max_steps_flag_beats_env(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("WRIGHT_MAX_STEPS", "999999")
    res = runner.invoke(main, ["separate", "--from", "0.12", "--to", "0.11",
                               "--max-steps", "7", "--out", str(tmp_path)])
    man = _manifest(tmp_path, "separate")
    assert man["config"]["max_iterations"] == 7
    assert res.exit_code in (0, 1)


def test_separate_env_max_steps_default(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("WRIGHT_MAX_STEPS", "123456")
    runner.invoke(main, ["separate", "--from", "0.12", "--to", "0.11",
                         "--out", str(tmp_path)])
    man = _manifest(tmp_path, "separate")
    assert man["config"]["max_iterations"] == 123456


def test_separate_exhausted_budget_exit_one(runner, tmp_path):
    res = runner.invoke(main, ["separate", "--from", "0.3", "--to", "0.1",
                               "--max-steps", "2", "--out", str(tmp_path)])
    assert res.exit_code == 1
    man = _manifest(tmp_path, "separate")
    assert man["reports"][0]["separated"] is False


@pytest.mark.parametrize("a, m", [("-1.6", -0.2661687841784008),
                                  ("-1.2", -0.1592686155701917)])
def test_separate_domain_error_writes_manifest(runner, tmp_path, a, m):
    # At a = -1.6, m_k(0.377) leaves theta_n's window; at a = -1.2 the
    # tilde envelope's breakpoint is not negative.
    res = runner.invoke(main, ["separate", "--from", "0.377", "--to", "0.36",
                               "--a", a, "--out", str(tmp_path)])
    assert res.exit_code == 1
    assert res.exception is None or isinstance(res.exception, SystemExit)
    assert "domain_error" in res.output
    report = _manifest(tmp_path, "separate")["reports"][0]
    assert report["separated"] is False
    assert report["failure_reason"] == "domain_error"
    assert (report["final_M"], report["final_m"]) == (0.377, m)


def test_separate_has_no_chunks_option(runner):
    res = runner.invoke(main, ["separate", "--help"])
    assert res.exit_code == 0 and "--chunks" not in res.output


def test_import_leaves_numpy_unloaded():
    src = str(pathlib.Path(wrightbound.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    code = "import sys, wrightbound.cli; print('numpy' in sys.modules)"
    out = subprocess.run([sys.executable, "-c", code], capture_output=True,
                         text=True, check=True, env=env)
    assert out.stdout.strip() == "False"


# -- env-var output directory --------------------------------------------


def test_out_dir_env_fallback(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("WRIGHT_OUT_DIR", str(tmp_path / "envdir"))
    res = runner.invoke(main, ["verify", "appendix-1"])
    assert res.exit_code == 0
    assert (tmp_path / "envdir" / "verify-manifest.json").exists()


def test_out_flag_beats_env(runner, tmp_path, monkeypatch):
    monkeypatch.setenv("WRIGHT_OUT_DIR", str(tmp_path / "envdir"))
    flag_dir = tmp_path / "flagdir"
    runner.invoke(main, ["verify", "appendix-1", "--out", str(flag_dir)])
    assert (flag_dir / "verify-manifest.json").exists()
    assert not (tmp_path / "envdir").exists()


# -- curves --------------------------------------------------------------


def test_curves_file_format(runner, tmp_path):
    res = runner.invoke(main, ["curves", "A", "--grid-start", "-0.25",
                               "--grid-stop", "-0.05", "--points", "5",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "curve-A.dat").read_text().splitlines()
    assert lines[0] == "x lower upper"
    assert len(lines) == 6
    for line in lines[1:]:
        x, lo, hi = map(float, line.split())
        assert lo <= hi
    man = _manifest(tmp_path, "curves")
    assert man["config"]["which"] == "A"
    assert man["config"]["points"] == 5


def test_curves_empty_grid_header_only(runner, tmp_path):
    res = runner.invoke(main, ["curves", "A", "--grid-start", "-0.2",
                               "--grid-stop", "-0.1", "--points", "0",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0
    assert (tmp_path / "curve-A.dat").read_text() == "x lower upper\n"


def test_curves_bad_abscissa_commented(runner, tmp_path):
    res = runner.invoke(main, ["curves", "m_k", "--grid-start", "0.009401",
                               "--grid-stop", "0.5", "--points", "2",
                               "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "curve-m_k.dat").read_text().splitlines()
    assert any(line.startswith("#") and "error" in line for line in lines)
    assert "failed abscissas" in res.output


@pytest.mark.parametrize("points", [100, 400])
def test_curves_grid_ends_at_grid_stop(runner, tmp_path, points):
    res = runner.invoke(main, ["curves", "theta_n", "--grid-start", "-0.25",
                               "--grid-stop", "-0.0093", "--points",
                               str(points), "--out", str(tmp_path)])
    assert res.exit_code == 0
    lines = (tmp_path / "curve-theta_n.dat").read_text().splitlines()[1:]
    assert len(lines) == points
    assert not any(line.startswith("#") for line in lines)
    assert float(lines[-1].split()[0]) == -0.0093


def test_curves_unknown_name_exit_two(runner, tmp_path):
    res = runner.invoke(main, ["curves", "bogus", "--grid-start", "0.1",
                               "--grid-stop", "0.2", "--out", str(tmp_path)])
    assert res.exit_code == 2


# -- fuzz ----------------------------------------------------------------


def _inside_or_outside(lo, hi):
    """Floats inside [lo, hi] and anywhere else, with inf and nan."""
    return st.one_of(st.floats(lo, hi),
                     st.floats(allow_nan=True, allow_infinity=True))


_SLOPES = st.one_of(st.just(-37.0 / 24.0), st.floats(-2.0, 0.0),
                    st.floats(allow_nan=True, allow_infinity=True))


@st.composite
def _cli_args(draw):
    """A separate or curves command of bounded cost: at most 3 rungs or
    5 abscissas."""
    common = ["--k", str(draw(st.integers(0, 7))),
              "--n", str(draw(st.integers(0, 7))),
              "--a", repr(draw(_SLOPES))]
    if draw(st.booleans()):
        if draw(st.booleans()):
            M_stop = draw(st.floats(0.0094, 0.376))
            M_start = draw(st.floats(M_stop, 0.377, exclude_min=True))
        else:
            M_stop = draw(_inside_or_outside(0.0094, 0.377))
            M_start = draw(_inside_or_outside(0.0094, 0.377))
        return "separate", [
            "separate", "--from", repr(M_start), "--to", repr(M_stop),
            "--max-steps", str(draw(st.integers(0, 3)))] + common
    which = draw(st.sampled_from(["A", "m_k", "theta_n", "Lhat_lower"]))
    window = (0.0094, 0.377) if which == "m_k" else (-0.25, -0.0093)
    return "curves", [
        "curves", which,
        "--grid-start", repr(draw(_inside_or_outside(*window))),
        "--grid-stop", repr(draw(_inside_or_outside(*window))),
        "--points", str(draw(st.integers(-1, 5)))] + common


@settings(max_examples=400, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(_cli_args())
def test_cli_fuzz_exits_cleanly(command_argv):
    """Every reachable input ends with exit code 0, 1 or 2 and no
    traceback, and with a manifest unless it was a usage error."""
    command, argv = command_argv
    with tempfile.TemporaryDirectory() as out:
        res = CliRunner().invoke(main, argv + ["--out", out])
        assert res.exception is None or isinstance(res.exception,
                                                   SystemExit), argv
        assert res.exit_code in (0, 1, 2), argv
        assert "Traceback" not in res.output, argv
        if res.exit_code in (0, 1):
            assert (pathlib.Path(out)
                    / f"{command}-manifest.json").exists(), argv
