"""Named lemma verifiers: every default verdict holds with the expected
evidence shape."""

import math
from fractions import Fraction

import pytest

from wrightbound import verifiers
from wrightbound.bounds import AdmissibilityError
from wrightbound.verifiers import (
    VERIFIERS,
    LemmaVerdict,
    _defining_residual,
    _mu_partial,
    verify_2_15a,
    verify_2_15c,
    verify_2_15d,
    verify_4_8,
    verify_4_18,
    verify_appendix1,
    verify_remark_2_18,
)


def test_registry_complete():
    assert set(VERIFIERS) == {"2.15a", "2.15b", "2.15c", "2.15d", "4.8",
                              "4.18", "remark-2.18", "appendix-1"}


def test_2_15a_holds_with_count_band():
    v = verify_2_15a()
    assert v.holds
    assert 50 <= v.evidence["billiard"]["steps"] <= 300
    assert v.runtime_ms < 5000


def test_2_15b_holds(verdict_2_15b):
    v = verdict_2_15b
    assert v.holds
    assert v.evidence["sup"] < 0.91
    assert v.evidence["nonneg_certified_core"]
    assert v.evidence["finite_difference_check"]["ok"]
    assert v.evidence["rows"] >= 600
    assert v.runtime_ms < 10 * 60 * 1000


def _one_row(monkeypatch, top):
    """Cut the 2.15b mesh to its row with top m = top."""
    real = verifiers._row_boxes
    monkeypatch.setattr(verifiers, "_row_boxes",
                        lambda m1, m2, a: real(m1, m2, a) if m1 == top
                        else [])


def test_2_15b_corner_row_evaluation_count(monkeypatch):
    # The corner box [0.009, 0.01] x [-0.0094, -0.009] is where naive
    # enclosures of dL/dm are widest; the centred form keeps its
    # refinement to a few hundred evaluations.
    _one_row(monkeypatch, -0.009)
    ev = verifiers.verify_2_15b().evidence
    assert ev["boxes"] == 1
    assert ev["evaluations"] <= 1000
    assert ev["extended_uncertified_boxes"] == 0
    assert sum(ev["evaluations_by_phase"].values()) == ev["evaluations"]
    assert ev["sup_margin"] == ev["sup_limit"] - ev["sup"]


def test_2_15b_unenclosed_inside_box_fails_the_verdict(monkeypatch):
    # A box inside the region whose enclosure raises is never skipped:
    # bisection runs out of depth on it and the verdict fails.
    real = verifiers.dL_dm
    M0, m0 = 0.15031, -0.130173

    def dL_dm(p):
        if p.M.contains(M0) and p.m.contains(m0):
            raise AdmissibilityError("stub")
        return real(p)

    _one_row(monkeypatch, -0.13)
    monkeypatch.setattr(verifiers, "dL_dm", dL_dm)
    v = verifiers.verify_2_15b()
    assert not v.holds
    assert not v.evidence["nonneg_certified_core"]
    assert v.evidence["max_depth"] == 14
    assert len(v.evidence["failures"]) == 2


def test_2_15c_holds_with_count_band():
    v = verify_2_15c()
    assert v.holds
    assert 30 <= v.evidence["billiard"]["steps"] <= 200
    assert v.runtime_ms < 5000


def test_2_15d_holds_with_count_band():
    v = verify_2_15d()
    assert v.holds
    assert 20 <= v.evidence["billiard"]["steps"] <= 120
    assert v.runtime_ms < 5000


def test_4_8_holds_with_count_bands():
    v = verify_4_8()
    assert v.holds
    assert v.evidence["diagonal_run"]["separated"]
    assert 30 <= v.evidence["diagonal_run_counted"]["steps"] <= 200
    assert v.evidence["fixed_M_run"]["separated"]
    assert 5 <= v.evidence["fixed_M_run_counted"]["steps"] <= 50
    lo, hi = v.evidence["beta_tilde(0.1,-0.1)"]
    assert hi < 0.0


def test_4_18_holds_with_count_band():
    v = verify_4_18()
    assert v.holds
    assert 50 <= v.evidence["billiard"]["steps"] <= 300
    lo, hi = v.evidence["Sigma(0.27,-0.2343)"]
    assert lo > 0.27
    assert 0.29 <= lo <= hi <= 0.31


def test_remark_2_18_holds():
    v = verify_remark_2_18()
    assert v.holds
    assert v.evidence["m5(0.009401)"] > -0.0093
    lo, hi = v.evidence["L(0.0094,-0.009)"]
    # The reference value is truncated to ten digits, so the enclosure
    # must land inside the truncation window.
    assert -0.0092701898 <= lo <= hi <= -0.0092701897


def test_appendix1_holds():
    v = verify_appendix1()
    assert v.holds
    assert v.evidence["residual_at_-37/24"] == "0"
    assert v.evidence["transversality_derivative"] == "11/12"


def test_defining_residual_linear_in_a():
    # The exact reduction: residual(a) = a + 13/24 + 1.
    for a in (Fraction(-37, 24), Fraction(-3, 2), Fraction(-1)):
        assert _defining_residual(a) == a + Fraction(13, 24) + 1


def test_mu_partial_exact():
    assert _mu_partial() == Fraction(11, 12)


def test_modified_slope_fails_honestly():
    # Far milder feedback: the anchor inequality L(-m, m) > m fails,
    # and the verifier reports rather than raises.
    v = verify_2_15a(a=-0.5)
    assert isinstance(v, LemmaVerdict)
    assert not v.holds


def test_cubic_root_digits():
    v = verify_appendix1()
    roots = v.evidence["cubic_roots"]
    targets = sorted([-1.0, (-1.0 - math.sqrt(97)) / 48.0])
    for (lo, hi), t in zip(roots, targets):
        assert lo - 1e-12 <= t <= hi + 1e-12


def test_verdict_serialization():
    d = verify_remark_2_18().to_dict()
    assert d["lemma_id"] == "remark-2.18"
    assert d["holds"] is True
    assert "evidence" in d and "runtime_ms" in d
