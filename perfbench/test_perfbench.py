"""Tests of the benchmark's own checks and traces.

    python3 -m pytest perfbench

Each output check is shown to fail on a doctored manifest or data file,
and the two totals the traced run compares are shown to agree on small
commands.  The suite takes a few seconds.
"""

import copy
import json
import pathlib
import shutil
import subprocess
import sys

import pytest

HERE = pathlib.Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import calltrace  # noqa: E402
import layers  # noqa: E402
import mesh  # noqa: E402
import oracle  # noqa: E402
import probe  # noqa: E402
import rounds  # noqa: E402
import workloads as W  # noqa: E402


# -- doctored outputs make each check fail --------------------------------


def _verify_manifest():
    """A ``verify all`` manifest shaped as the program writes it."""
    roots = [[-1.0000000000000002, -0.9999999999999998],
             [-0.22601787087075232, -0.22601787087075199]]
    verdicts = [{"lemma_id": k, "holds": True, "runtime_ms": 1.0,
                 "evidence": {}} for k in W.LEMMAS]
    verdicts[1]["evidence"] = {
        "sup": 0.9099818316063678,
        "sup_at": [0.009, 0.01, -0.0094, -0.009],
        "nonneg_certified_core": True, "evaluations": 45031,
        "boxes": 149, "extended_uncertified_boxes": 36}
    verdicts[-1]["evidence"] = {"cubic_roots": roots}
    return {"verdicts": verdicts}


def test_verdicts_pass_as_written():
    assert W.check_verdicts(_verify_manifest()) == (0, [])


def test_verdicts_fail_on_sup_above_limit():
    man = _verify_manifest()
    man["verdicts"][1]["evidence"]["sup"] = 0.92
    failed, problems = W.check_verdicts(man)
    assert failed == 0 and any("sup=0.92" in p for p in problems)


def test_verdicts_fail_on_false_verdict_and_lost_root():
    man = _verify_manifest()
    man["verdicts"][4]["holds"] = False
    man["verdicts"][-1]["evidence"]["cubic_roots"] = [[-1.1, -1.05]]
    failed, problems = W.check_verdicts(man)
    assert failed == 1
    assert any("4.8" in p for p in problems)
    assert sum("appendix-1" in p for p in problems) == 2


def test_sup_check_against_mpmath():
    points = W.mesh_points([0.009, 0.01, -0.0094, -0.009])
    assert W.CORNER in points
    assert W.check_sup(0.9099818316063678, points) == []
    # The true dL/dm near the corner is about 0.093.
    assert W.check_sup(0.05, points)


def _separation_report():
    traj = [0.0121 - 1e-6 * j for j in range(40)]
    return {"separated": True, "failure_reason": None, "iterations": 232,
            "final_M": traj[-1] - 1e-3, "final_m": -0.0118,
            "trajectory_sample": traj}


def test_separation_passes_as_written():
    assert W.check_separation(_separation_report(), "0.0121", "0.012",
                              232, exits=False) == []


def test_separation_fails_on_rising_rung():
    report = _separation_report()
    report["trajectory_sample"][7] = report["trajectory_sample"][5]
    problems = W.check_separation(report, "0.0121", "0.012", 232,
                                  exits=False)
    assert any("does not fall at sample 6" in p for p in problems)


def test_separation_fails_outside_band_and_exit():
    report = _separation_report()
    report["iterations"] = 10 ** 4
    problems = W.check_separation(report, "0.0121", "0.012", 232,
                                  exits=True)
    assert any("outside" in p for p in problems)
    assert any("exit band" in p for p in problems)


def test_rung_check_against_mpmath():
    exact = float(oracle.m_k(0.0097))
    assert W.check_rung(0.0097, exact - 1e-15) == []
    assert W.check_rung(0.0097, exact + 1e-15)


def _theta_rows(tmp_path):
    """A theta_n data file as ``curves`` writes it, with its
    out-of-window last abscissa."""
    path = tmp_path / "curve-theta_n.dat"
    A = float(oracle.A(-0.1))
    path.write_text(
        "x lower upper\n"
        f"-0.1 nan {0.5 * (0.1 + A)!r}\n"
        "# x=-0.009299999999999975 error: m=-0.009299999999999975 "
        "outside [-0.25, -0.0093]\n")
    return path


def test_curve_allows_only_the_named_failure(tmp_path):
    rows = W.read_curve(_theta_rows(tmp_path))
    assert W.check_curve("theta_n", rows, "-0.25", "-0.0093", 2) == (1, [])
    # The same failure on another curve, or inside the window, counts.
    assert W.check_curve("Lhat_lower", rows, "-0.25", "-0.0093", 2)[1]
    assert W.check_curve("theta_n", rows, "-0.25", "-0.009", 2)[1]


def test_curve_fails_on_theta_row_above_A(tmp_path):
    path = _theta_rows(tmp_path)
    A = float(oracle.A(-0.1))
    path.write_text(path.read_text().replace(
        repr(0.5 * (0.1 + A)), repr(A + 1e-6)))
    _, problems = W.check_curve("theta_n", W.read_curve(path),
                                "-0.25", "-0.0093", 2)
    assert any("theta_n(-0.1)" in p for p in problems)


def test_curve_fails_on_bounds_of_m_k_and_Lhat():
    assert W.check_curve("m_k", [(0.1, -0.11, None, None)],
                         "0.0094", "0.377", 1)[1]
    assert W.check_curve("Lhat_lower", [(-0.1, 0.38, None, None)],
                         "-0.25", "-0.0093", 1)[1]
    assert W.check_curve("m_k", [(0.1, -0.09, None, None)],
                         "0.0094", "0.377", 1) == (0, [])


def test_rounds_must_repeat():
    man = _verify_manifest()
    later = copy.deepcopy(man)
    later["verdicts"][0]["runtime_ms"] = 99.0
    assert W.without_timing(man) == W.without_timing(later)
    later["verdicts"][1]["evidence"]["evaluations"] += 1
    assert W.without_timing(man) != W.without_timing(later)


# -- totals reached by independent paths agree ----------------------------


@pytest.fixture()
def wb():
    return rounds.import_wrightbound()


def _traced(wb, commands, outdir):
    tracer, seen = calltrace.Tracer(), layers.Observed()
    layers.install(tracer, wb, seen)
    try:
        result = rounds.inprocess_round(wb, commands, outdir)
    finally:
        tracer.undo()
    assert set(result["codes"].values()) == {0}
    return tracer.stats(), seen


def test_traced_m_k_calls_equal_manifest_iterations(wb, tmp_path):
    cmd = W.Command("seg", ("separate", "--from", "0.12", "--to", "0.11"))
    stats, seen = _traced(wb, [cmd], tmp_path)
    report = W.read_manifest(tmp_path, "seg", "separate")["reports"][0]
    counts = {"separation.rungs": report["iterations"]}
    assert stats["separation.m_k"]["calls"] == report["iterations"] > 5
    assert layers.cross_checks(stats, counts) == []
    assert seen.min_step() > 0
    counts["separation.rungs"] += 1
    assert layers.cross_checks(stats, counts)


def test_traced_dL_dm_returns_equal_evaluations_plus_one(
        wb, tmp_path, monkeypatch):
    monkeypatch.setattr(mesh, "ROW_TOPS", (-0.069,))
    cmd = W.Command("b", ("verify", "2.15b"), mesh_slice=True)
    stats, _ = _traced(wb, [cmd], tmp_path)
    ev = W.read_manifest(tmp_path, "b", "verify")["verdicts"][0]["evidence"]
    counts = {"verifiers.2.15b.evaluations": ev["evaluations"]}
    assert stats["bounds.dL_dm"]["returned"] == ev["evaluations"] + 1
    assert layers.cross_checks(stats, counts) == []
    assert stats["verifiers.2.15b"]["parents"] == {calltrace.ROOT: 1}
    # The wrappers are gone again.
    assert wb.bounds.dL_dm is wb.verifiers.dL_dm
    assert not hasattr(wb.verifiers.dL_dm, "__wrapped__")


def test_op_counter_counts_and_restores(wb):
    Interval = wb.interval.Interval
    counter = calltrace.OpCounter(Interval)
    counter.install()
    try:
        x = Interval(1.0, 2.0)
        (x + x * 2.0).sqrt()
    finally:
        counter.undo()
    assert counter.counts() == {"__add__": 1, "__mul__": 1, "sqrt": 1}
    assert "counted" not in Interval.__add__.__qualname__


# -- timing a command ------------------------------------------------------


def test_timed_command_rescales_by_the_probe(tmp_path):
    done = rounds.timed_command(["--help"], tmp_path / "p.json")
    seen = json.loads((tmp_path / "p.json").read_text())
    assert done["code"] == 0
    assert len(seen["samples"]) >= 6
    assert 0 < seen["spent"] < done["raw_wall_s"]
    host_s = sum(seen["samples"]) / len(seen["samples"])
    assert done["wall_s"] == pytest.approx(
        (done["raw_wall_s"] - seen["spent"]) * probe.REFERENCE_S / host_s)


def test_probe_samples_during_a_long_command(tmp_path):
    cmd = ["separate", "--from", "0.12", "--to", "0.1",
           "--out", str(tmp_path / "sep")]
    done = rounds.timed_command(cmd, tmp_path / "p.json")
    seen = json.loads((tmp_path / "p.json").read_text())
    assert done["code"] == 0
    during = len(seen["samples"]) - 6
    assert during >= int(done["raw_wall_s"] / probe.PERIOD_S) - 2


# -- the benchmark refuses a tree without the program ---------------------


def test_run_fails_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "curves",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert done.returncode != 0
    assert done.stdout == ""
