"""Staircase recursions and the separation driver."""

import math
import time

import numpy as np
import pytest

from wrightbound.bounds import DEFAULT_A, A
from wrightbound.interval import Interval
from wrightbound.separation import (
    CurveSample,
    SeparationConfig,
    SeparationReport,
    emit_curves,
    m_k,
    run_separation,
    theta_n,
)

pt = Interval.point


# -- m_k -----------------------------------------------------------------


def test_m_k_exit_band_anchor():
    t0 = time.perf_counter()
    assert m_k(0.009401) > -0.0093
    assert time.perf_counter() - t0 < 1.0


def test_m_k_deep_point():
    t0 = time.perf_counter()
    v = m_k(0.27)
    assert time.perf_counter() - t0 < 1.0
    assert -0.2 < v < -0.19
    assert m_k(0.27, a=-1.5) > v  # milder slope lifts the bound


def test_m_k_starts_at_minus_M():
    # Depth one applies a single certified step from -M.
    assert m_k(0.1, k=1) > -0.1


def test_m_k_depth_monotonicity():
    for M in (0.05, 0.15, 0.3):
        vals = [m_k(M, k) for k in range(1, 7)]
        assert all(b >= a for a, b in zip(vals, vals[1:]))
        assert vals[-1] > vals[0]


def test_m_k_domain_validation():
    with pytest.raises(ValueError):
        m_k(0.5)
    with pytest.raises(ValueError):
        m_k(0.1, k=0)


# -- theta_n -------------------------------------------------------------


def test_theta_first_step_descends():
    m = -0.1
    theta0 = A(pt(m), DEFAULT_A).hi
    assert theta_n(m, n=1) < theta0


def test_theta_depth_monotonicity():
    for m in (-0.05, -0.12, -0.2):
        vals = [theta_n(m, n) for n in range(1, 7)]
        assert all(b <= a for a, b in zip(vals, vals[1:]))


def test_theta_region_consistency_at_fixed_point_spot():
    # Sigma(0.27, -0.2343) > 0.27 forces the certified upper curve at
    # m = -0.2343 to stay above 0.27.
    assert theta_n(-0.2343, n=6) >= 0.27


def test_theta_domain_validation():
    with pytest.raises(ValueError):
        theta_n(-0.3)
    with pytest.raises(ValueError):
        theta_n(-0.1, n=0)


def test_staircase_contraction_on_grid():
    for M in np.linspace(0.0095, 0.376, 100):
        M = float(M)
        mm = m_k(M)
        if mm > -0.0093:
            continue
        assert theta_n(mm) < M


# -- run_separation ------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        SeparationConfig(0.1, 0.2)
    with pytest.raises(ValueError):
        SeparationConfig(0.5, 0.1)
    with pytest.raises(ValueError):
        SeparationConfig(0.2, 0.1, k=0)


def test_table_first_row():
    rep = run_separation(SeparationConfig(0.377, 0.1005))
    assert rep.separated
    assert 31 <= rep.iterations <= 189  # reference count 63
    assert rep.failure_reason is None


def test_small_tail_run():
    rep = run_separation(SeparationConfig(0.0100002, 0.0094))
    assert rep.separated


def test_staircase_trajectory_strictly_decreasing():
    rep = run_separation(SeparationConfig(0.2, 0.15))
    assert rep.separated
    traj = rep.trajectory_sample
    assert all(b < a for a, b in zip(traj, traj[1:]))
    for a_, b in zip(traj, traj[1:]):
        assert m_k(b) > m_k(a_)  # the lower curve descends with M


def test_report_serialization():
    rep = run_separation(SeparationConfig(0.12, 0.11))
    d = rep.to_dict()
    assert d["separated"] is True
    assert d["config"]["M_start"] == 0.12
    assert isinstance(rep, SeparationReport)
    assert len(d["trajectory_sample"]) <= 1001


# -- emit_curves ---------------------------------------------------------


def test_curves_A_two_sided():
    rows = emit_curves([-0.25, -0.1], "A")
    assert len(rows) == 2
    assert 0.3769 < rows[0].lower <= rows[0].upper < 0.377


def test_curves_m_k_lower_only():
    rows = emit_curves([0.009401], "m_k")
    assert rows[0].lower > -0.0093
    assert math.isnan(rows[0].upper)


def test_curves_theta_upper_only():
    rows = emit_curves([-0.1], "theta_n")
    assert math.isnan(rows[0].lower)
    assert rows[0].upper > 0.1


def test_curves_lhat_lower_monotone_decreasing():
    grid = [-0.2, -0.15, -0.1, -0.05, -0.02]
    rows = emit_curves(grid, "Lhat_lower")
    vals = [r.lower for r in rows]
    assert all(b < a for a, b in zip(vals, vals[1:]))


def test_curves_empty_grid():
    assert emit_curves([], "A") == []


def test_curves_bad_abscissa_reported_not_raised():
    rows = emit_curves([0.5], "m_k")
    assert rows[0].error is not None
    assert isinstance(rows[0], CurveSample)


def test_curves_unknown_name():
    with pytest.raises(ValueError):
        emit_curves([0.1], "bogus")
