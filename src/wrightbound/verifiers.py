"""Named machine checks, one per certified inequality of the proof.

Each verifier packages a rigorous computation (a curve-separation run, a
certified grid bound, or an exact rational identity) into a LemmaVerdict
carrying its evidence.  A false verdict is evidence output, not an
error: runs with modified parameters are expected to fail.
"""

import math
import time
from dataclasses import dataclass
from fractions import Fraction

from . import billiard
from .bounds import (
    DEFAULT_A,
    A,
    BoundParams,
    L,
    d_enclosure,
    dL_dm,
    envelope_tilde,
    sigma_enclosure,
)
from .interval import Interval, IntervalError, verified_real_roots
from .separation import m_k

P = BoundParams


@dataclass(frozen=True)
class LemmaVerdict:
    lemma_id: str
    holds: bool
    evidence: dict
    runtime_ms: float

    def to_dict(self):
        return {
            "lemma_id": self.lemma_id,
            "holds": self.holds,
            "runtime_ms": self.runtime_ms,
            "evidence": self.evidence,
        }


def _verdict(lemma_id, start, holds, evidence):
    return LemmaVerdict(lemma_id, bool(holds), evidence,
                        1000.0 * (time.perf_counter() - start))


def _pt(x):
    return Interval.point(x)


def verify_2_15a(a=DEFAULT_A):
    """m < L(-m, m) on [-0.61, -0.009] by curve separation."""
    start = time.perf_counter()

    def q(t):
        return L(P(a, _pt(-t), _pt(t)))

    out = billiard.run(billiard.BilliardProblem(
        q, billiard.identity_inverse, -0.61, -0.009))
    spot1 = L(P(a, _pt(0.3), _pt(-0.3)))
    spot2 = L(P(a, _pt(0.009), _pt(-0.009)))
    holds = (out.separated and 50 <= out.steps <= 300
             and spot1.lo > -0.3 and spot2.lo > -0.009)
    return _verdict("2.15a", start, holds, {
        "billiard": out.to_dict(),
        "L(0.3,-0.3)": [spot1.lo, spot1.hi],
        "L(0.009,-0.009)": [spot2.lo, spot2.hi],
    })


def _row_boxes(m1, m2, a, h=1e-3):
    """M-boxes of width h covering [-m1, A(m2)] for the row m in [m2, m1]."""
    a2 = -m1
    top = A(_pt(m2), a).hi
    count = math.floor((top - a2) * (1.0 / h)) + 1
    return [Interval(a2 + k * h, a2 + (k + 1) * h) for k in range(count)]


def _outside_region(M, m, a):
    """True if the box lies wholly above the upper boundary M = A(m)."""
    return M.lo >= A(_pt(m.lo), a).hi


def _refine(M, m, a, accept, depth, budget=None):
    """Certify accept(enclosure of dL/dm) on every part of the box
    M x m below M = A(m), where the box's own enclosure did not pass or
    could not be made, by adaptive four-way bisection.

    A sub-box is dropped only when _outside_region certifies it lies
    wholly above A(m).  One whose enclosure fails accept, or raises, is
    split again, down to level depth below the box.  Returns
    (ok, evals, deepest, top): evals counts the dL_dm calls that
    returned, deepest is the deepest level evaluated, and top the
    largest upper endpoint of an accepted enclosure.  An exhausted
    depth or eval budget counts as not certified, never as a violation.
    """
    stack = _quarters(M, m, 0)
    evals = deepest = 0
    top = -math.inf
    while stack:
        Mi, mi, level = stack.pop()
        if _outside_region(Mi, mi, a):
            continue
        if budget is not None and evals >= budget:
            return False, evals, deepest, top
        deepest = max(deepest, level)
        try:
            v = dL_dm(P(a, Mi, mi))
        except IntervalError:
            pass
        else:
            evals += 1
            if accept(v):
                top = max(top, v.hi)
                continue
        if level == depth:
            return False, evals, deepest, top
        stack += _quarters(Mi, mi, level)
    return True, evals, deepest, top


def _quarters(M, m, level):
    return [(Ms, ms, level + 1) for Ms in M.split() for ms in m.split()]


def verify_2_15b(a=DEFAULT_A, sup_limit=0.91):
    """dL/dm in [0, 0.91) over the region -m <= M <= A(m),
    m in [-0.25, -0.009], on the reference mesh.

    The supremum is bounded on every row; the nonnegativity side is
    certified by bisection and gates the verdict on rows m <= -0.13,
    with the remaining rows reported separately.  A mesh box is skipped
    only when it lies wholly above A(m); one that cannot be enclosed is
    bisected like one whose enclosure misses a bound.

    sup is the largest certified upper bound among the accepted
    enclosures (the raw one of a mesh box, or its refined leaves).  It
    bounds dL/dm from above and stops refining once below sup_limit,
    so it is not the maximum of dL/dm.
    """
    start = time.perf_counter()
    step = 4e-4
    rows = []
    for j in range(1, 301):
        rows.append((-0.13 - (j - 1) * step, -0.13 - j * step, True))
    m1 = -0.009
    while m1 > -0.13 + 0.5 * step:
        rows.append((m1, max(m1 - step, -0.13), False))
        m1 -= step
    sup = -math.inf
    sup_at = None
    sup_ok = True
    by_phase = dict.fromkeys(
        ("raw", "sup_refinement", "core_nonneg", "extended_nonneg"), 0)
    max_depth = 0
    boxes = 0
    core_low_ok = True
    extended_low_ok = True
    extended_uncertified = 0
    failures = []
    for m1, m2, core in rows:
        m = Interval(m2, m1)
        for M in _row_boxes(m1, m2, a):
            boxes += 1
            if _outside_region(M, m, a):
                continue
            try:
                v = dL_dm(P(a, M, m))
            except IntervalError:
                v = None
            else:
                by_phase["raw"] += 1
            if v is not None and v.hi < sup_limit:
                ok, v_hi = True, v.hi
            else:
                # Too wide (or no enclosure) for the limit: refine by
                # bisection until every sub-box clears it.
                ok, n, depth, v_hi = _refine(
                    M, m, a, lambda w: w.hi < sup_limit, depth=14)
                by_phase["sup_refinement"] += n
                max_depth = max(max_depth, depth)
                if not ok:
                    sup_ok = False
                    failures.append({"box": [M.lo, M.hi, m2, m1],
                                     "upper": None if v is None else v.hi})
            if ok and v_hi > sup:
                sup, sup_at = v_hi, (M.lo, M.hi, m2, m1)
            if v is None or v.lo < 0.0:
                # Core rows must certify; extended rows get a bounded
                # attempt (their lower side is reported, not gating).
                ok, n, depth, _ = _refine(
                    M, m, a, lambda w: w.lo >= 0.0, depth=12,
                    budget=None if core else 300)
                by_phase["core_nonneg" if core else "extended_nonneg"] += n
                max_depth = max(max_depth, depth)
                if not ok:
                    if core:
                        core_low_ok = False
                        failures.append({"box": [M.lo, M.hi, m2, m1],
                                         "lower_uncertified": True})
                    else:
                        extended_low_ok = False
                        extended_uncertified += 1
    # Independent cross-check of one interior box by finite differences.
    Mc, mc = 0.2, -0.15
    eps = 1e-6
    fd = (L(P(a, _pt(Mc), _pt(mc + eps))).mid()
          - L(P(a, _pt(Mc), _pt(mc - eps))).mid()) / (2 * eps)
    enc = dL_dm(P(a, _pt(Mc), _pt(mc)))
    fd_ok = enc.lo - 1e-6 <= fd <= enc.hi + 1e-6
    holds = (sup_ok and sup < sup_limit and core_low_ok and fd_ok)
    return _verdict("2.15b", start, holds, {
        "sup": sup, "sup_at": sup_at, "sup_limit": sup_limit,
        "sup_margin": sup_limit - sup,
        "nonneg_certified_core": core_low_ok,
        "nonneg_certified_extended": extended_low_ok,
        "extended_uncertified_boxes": extended_uncertified,
        "rows": len(rows), "boxes": boxes,
        "evaluations": sum(by_phase.values()),
        "evaluations_by_phase": by_phase,
        "max_depth": max_depth,
        "finite_difference_check": {"value": fd,
                                    "enclosure": [enc.lo, enc.hi],
                                    "ok": fd_ok},
        "failures": failures[:20],
    })


def _C_upper(m, a):
    """Upper bound of C(m) = L(A(m), m): L decreases in M, so a lower
    bound of A(m) in the M slot biases L upward."""
    return L(P(a, _pt(A(_pt(m), a).lo), _pt(m)))


def _C_lower(m, a):
    """Certified enclosure of C(m) via the full A(m) enclosure; its lo
    endpoint is a sound lower bound."""
    return L(P(a, A(_pt(m), a), _pt(m)))


def verify_2_15c(a=DEFAULT_A):
    """m > C(m) := L(A(m), m) on [-1/9, -0.009] by curve separation."""
    start = time.perf_counter()

    def q(t):
        return -_C_upper(-t, a)

    out = billiard.run(billiard.BilliardProblem(
        q, billiard.identity_inverse, 0.009, 1.0 / 9.0))
    spot = _C_upper(-0.05, a)
    abscissas = [-0.1, -0.05, -0.01]
    cs = [_C_upper(x, a).hi for x in abscissas]
    increasing = cs[0] < cs[1] < cs[2]
    holds = (out.separated and 30 <= out.steps <= 200
             and spot.hi < -0.05 and increasing)
    return _verdict("2.15c", start, holds, {
        "billiard": out.to_dict(),
        "C(-0.05)_upper": spot.hi,
        "monotone_spot": {"abscissas": abscissas, "upper_bounds": cs,
                          "increasing": increasing},
    })


def verify_2_15d(a=DEFAULT_A):
    """m < C(m) on [-0.61, -0.25] by curve separation."""
    start = time.perf_counter()

    def q(t):
        return _C_lower(t, a)

    out = billiard.run(billiard.BilliardProblem(
        q, billiard.identity_inverse, -0.61, -0.25))
    a_at = A(_pt(-0.25), a)
    spot = _C_lower(-0.4, a)
    holds = (out.separated and 20 <= out.steps <= 120
             and a_at.hi < 0.377 and spot.lo > -0.4)
    return _verdict("2.15d", start, holds, {
        "billiard": out.to_dict(),
        "A(-0.25)": [a_at.lo, a_at.hi],
        "C(-0.4)_lower": spot.lo,
    })


def _parabolic_inverse(y):
    """Inverse of p(t) = 0.5 t/(1-t)^2 on (0, 1): t = 1/(z + sqrt(z^2-1))
    with z = 1 + 0.25/y."""
    z = 1.0 + 0.25 / y
    return 1.0 / (z + (z.sqr() - 1.0).sqrt())


def _capped_separation(q, t_start, t_end, cap):
    """Separate on [t_start, t_end] while counting steps the reference
    way: the iteration continues under the larger cap and typically ends
    by stalling past t_end, so the reported count includes the tail."""
    escape = billiard.run(billiard.BilliardProblem(
        q, _parabolic_inverse, t_start, t_end))
    counted = billiard.run(billiard.BilliardProblem(
        q, _parabolic_inverse, t_start, cap))
    return escape, counted


def verify_4_8(a=-1.5):
    """-0.5 m/(1+m)^2 < Z_a(M, m) via two curve-separation runs for the
    curvature bound Z = D/a^2."""
    start = time.perf_counter()

    def z_lower(M, m):
        return _pt(d_enclosure(P(a, _pt(M), _pt(m)), "lower")) / (a * a)

    out1, cnt1 = _capped_separation(
        lambda t: z_lower(t, -t), 0.0093, 0.2343, 0.26)
    out2, cnt2 = _capped_separation(
        lambda t: z_lower(0.27, -t), 0.21, 0.25, 0.26)
    p = P(a, _pt(0.1), _pt(-0.1))
    curvature = z_lower(0.1, -0.1) * (a * a)
    tilde = envelope_tilde(p, curvature)
    t0 = Interval.point(0.1)
    roundtrip = _parabolic_inverse(0.5 * t0 / (1.0 - t0).sqr())
    holds = (out1.separated and 30 <= cnt1.steps <= 200
             and out2.separated and 5 <= cnt2.steps <= 50
             and tilde.beta_tilde.hi < 0.0 and roundtrip.contains(0.1))
    return _verdict("4.8", start, holds, {
        "diagonal_run": out1.to_dict(),
        "diagonal_run_counted": cnt1.to_dict(),
        "fixed_M_run": out2.to_dict(),
        "fixed_M_run_counted": cnt2.to_dict(),
        "beta_tilde(0.1,-0.1)": [tilde.beta_tilde.lo, tilde.beta_tilde.hi],
        "p_inverse_roundtrip": [roundtrip.lo, roundtrip.hi],
    })


def verify_4_18(a=DEFAULT_A):
    """Sigma(m, m) > m-type separation: Sigma_lower(t, -t) > t on
    [0.0093, 0.26], plus fixed-point direction spot checks."""
    start = time.perf_counter()

    def q(t):
        return _pt(sigma_enclosure(P(a, _pt(t), _pt(-t)), "lower"))

    out = billiard.run(billiard.BilliardProblem(
        q, billiard.identity_inverse, 0.0093, 0.26))
    s_main = sigma_enclosure(P(a, _pt(0.27), _pt(-0.2343)), "lower")
    s_main_up = sigma_enclosure(P(a, _pt(0.27), _pt(-0.2343)), "upper")
    s_small = sigma_enclosure(P(a, _pt(0.1), _pt(-0.1)), "lower")
    Am = A(_pt(-0.1), a)
    s_at_A = sigma_enclosure(
        P(a, _pt(Am.lo * (1.0 - 1e-12)), _pt(-0.1)), "upper")
    holds = (out.separated and 50 <= out.steps <= 300
             and s_main > 0.27 and 0.29 <= s_main <= s_main_up <= 0.31
             and s_small > 0.1 and Am.lo > s_at_A)
    return _verdict("4.18", start, holds, {
        "billiard": out.to_dict(),
        "Sigma(0.27,-0.2343)": [s_main, s_main_up],
        "Sigma_lower(0.1,-0.1)": s_small,
        "A(-0.1)_vs_Sigma_upper": [Am.lo, s_at_A],
    })


def verify_remark_2_18(a=DEFAULT_A):
    """Certified recursion and direct-evaluation facts anchoring the
    staircase exit band."""
    start = time.perf_counter()
    m5 = m_k(0.009401, 5, a)
    enc = L(P(a, _pt(0.0094), _pt(-0.009)))
    target = -0.00927019
    m1 = L(P(a, _pt(0.01), _pt(-0.01))).lo
    holds = (m5 > -0.0093
             and enc.lo >= target - 1e-8 and enc.hi <= target + 1e-8
             and m1 > -0.01)
    return _verdict("remark-2.18", start, holds, {
        "m5(0.009401)": m5,
        "L(0.0094,-0.009)": [enc.lo, enc.hi],
        "m1(0.01)": m1,
    })


def _defining_residual(a):
    """Exact residual of the relation fixing the critical slope.

    The unit-interval balance -1 = I_lin + I_par + I_const with
    breakpoints 3/(2a) and 1/(2a) reduces, piece by piece in exact
    arithmetic, to a + 13/24 + 1.
    """
    a = Fraction(a)
    ap0 = Fraction(3, 2) / a
    bp0 = Fraction(1, 2) / a
    i_lin = -(a * a) * bp0 * bp0 / 2
    w = bp0 - ap0
    i_par = a * w - (a ** 3) * (w ** 3) / 6
    i_const = a * (ap0 + 1)
    return i_lin + i_par + i_const + 1


def _mu_partial():
    """Exact value 1 + 1/6 - 1/4 of the transversality derivative at the
    degenerate corner, for any slope a (the pieces are a-free)."""
    a = Fraction(-37, 24)
    w = -1 / a
    piece = (a * a / 2) * (-a * w ** 3 / 3 - w ** 2 / 2)
    return 1 + piece


def verify_appendix1():
    """Exact-arithmetic identities singling out the critical slope."""
    start = time.perf_counter()
    a_star = Fraction(-37, 24)
    residual = _defining_residual(a_star)
    nearby = [_defining_residual(a_star + Fraction(d, 1000))
              for d in (-2, -1, 1, 2)]
    monotone = nearby[0] < nearby[1] < 0 < nearby[2] < nearby[3]
    partial = _mu_partial()
    cubic = [24.0, 25.0, 0.0, -1.0]
    roots = verified_real_roots(cubic, Interval(-1.5, 0.0))
    expect = sorted([-1.0, (-1.0 - math.sqrt(97)) / 48.0])
    roots_ok = (len(roots) == 2
                and all(abs(r.mid() - e) < 1e-12
                        for r, e in zip(roots, expect)))
    window = verified_real_roots(cubic, Interval(-1.1, -0.9))
    # Each enclosure holds exactly one root, so one enclosure in the
    # window that contains -1 means -1 is the window's only root.
    unique_ok = len(window) == 1 and window[0].contains(-1.0)
    holds = (residual == 0 and monotone
             and partial == Fraction(11, 12) and roots_ok and unique_ok)
    return _verdict("appendix-1", start, holds, {
        "residual_at_-37/24": str(residual),
        "residual_nearby": [str(r) for r in nearby],
        "transversality_derivative": str(partial),
        "cubic_roots": [[r.lo, r.hi] for r in roots],
        "unique_root_in_[-1.1,-0.9]": unique_ok,
    })


VERIFIERS = {
    "2.15a": verify_2_15a,
    "2.15b": verify_2_15b,
    "2.15c": verify_2_15c,
    "2.15d": verify_2_15d,
    "4.8": verify_4_8,
    "4.18": verify_4_18,
    "remark-2.18": verify_remark_2_18,
    "appendix-1": verify_appendix1,
}


def verify_all():
    """Run every verifier in turn; returns verdicts in registry order."""
    return [fn() for fn in VERIFIERS.values()]
