"""Staircase recursions and the separation driver."""

import math
import time

import numpy as np
import pytest

from wrightbound import separation
from wrightbound.bounds import DEFAULT_A, A
from wrightbound.interval import Interval
from wrightbound.separation import (
    CurveSample,
    InternalConsistencyError,
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


def test_m_k_stalls_within_the_enclosure():
    # At depth 15 the step from -0.0289623492686888 has an enclosure of
    # L whose lower end lies a few ulps below it: a stall, not a failure.
    deep = m_k(0.03001, 15)
    assert deep >= m_k(0.03001, 5)
    assert deep == m_k(0.03001, 20)


def test_m_k_raises_when_the_whole_step_falls(monkeypatch):
    monkeypatch.setattr(separation, "L",
                        lambda p: Interval(p.m.lo - 0.02, p.m.lo - 0.01))
    with pytest.raises(InternalConsistencyError):
        m_k(0.1)


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


@pytest.mark.parametrize("m", [-0.2343, -0.1, -0.0121, -0.0094])
def test_theta_warm_start_above_A_is_cold(m):
    top = A(pt(m), DEFAULT_A).hi
    for n in (1, 6):
        cold = theta_n(m, n, DEFAULT_A)
        for s in (top, math.nextafter(top, 1.0), top + 0.01):
            assert theta_n(m, n, DEFAULT_A, start=s) == cold


@pytest.mark.parametrize("m", [-0.2343, -0.1, -0.0121, -0.0094])
def test_theta_warm_result_at_most_start(m):
    for j in range(1, 5):
        s = theta_n(m, j)
        for n in (1, 6):
            assert theta_n(m, n, start=s) <= s


def test_warm_rungs_stay_above_the_converged_bound():
    # Each rung's bound must hold theta(m_j) for its own m_j; the cold
    # 60-step iterate is the tightest certified bound of it.
    rep = run_separation(SeparationConfig(0.2, 0.15))
    traj = rep.trajectory_sample
    assert rep.separated and len(traj) == rep.iterations + 1
    for M, M_next in zip(traj, traj[1:]):
        assert M_next >= theta_n(m_k(M), 60)


def test_falling_m_makes_the_rung_cold(monkeypatch):
    ms, starts = [], []

    def fake_m_k(M, k, a):
        # The third rung's m falls below the second's.
        ms.append(m_k(M, k, a) if len(ms) != 2 else ms[-1] - 1e-4)
        return ms[-1]

    def spy_theta_n(m, n, a, *, start=None):
        starts.append(start)
        return theta_n(m, n, a, start=start)

    monkeypatch.setattr(separation, "m_k", fake_m_k)
    monkeypatch.setattr(separation, "theta_n", spy_theta_n)
    rep = run_separation(SeparationConfig(0.2, 0.15, max_iterations=5))
    traj = rep.trajectory_sample
    assert len(starts) == 5
    assert starts[0] is None and starts[2] is None
    # The fourth rung's m is above the third's doctored one: warm again.
    assert [starts[i] for i in (1, 3, 4)] == [traj[i] for i in (1, 3, 4)]


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


@pytest.mark.parametrize("start, stop", [(0.0121, 0.012),
                                         (0.00942, 0.00940007)])
def test_tail_pieces_separate_with_a_cold_first_rung(start, stop):
    # The first rung runs theta_n cold with the default n; n <= 3 stalls
    # here, so the default must stay above it.
    rep = run_separation(SeparationConfig(start, stop))
    assert rep.separated and rep.config.n == 6


def test_deep_recursions_separate_after_an_m_k_stall():
    rep = run_separation(SeparationConfig(0.03001, 0.020002, k=20, n=20))
    assert rep.separated
    assert 1274 // 2 <= rep.iterations <= 3 * 1274


def test_proof_health_fields():
    rep = run_separation(SeparationConfig(0.2, 0.09))
    traj = rep.trajectory_sample
    steps = [(a_ - b, a_) for a_, b in zip(traj, traj[1:])]
    assert (rep.min_step, rep.min_step_at) == min(steps)
    assert sum(rep.rungs_by_decade.values()) == rep.iterations
    assert set(rep.rungs_by_decade) == {"1e-1", "1e-2"}
    d = rep.to_dict()
    assert d["min_step"] == rep.min_step
    assert d["rungs_by_decade"] == rep.rungs_by_decade


def test_proof_health_without_a_step():
    rep = run_separation(SeparationConfig(0.0094001, 0.0094))
    assert rep.separated and rep.iterations == 1
    assert rep.min_step is None and rep.min_step_at is None
    assert rep.rungs_by_decade == {"1e-3": 1}


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
