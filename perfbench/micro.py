"""Per-call costs of the layers on fixed operands, and a host calibration.

The operands come from the workloads: the staircase tail point
(M, m) = (0.0097, -0.0095) and the 2.15b core box
M in [0.18, 0.181], m in [-0.1504, -0.15].  Each cost is the median of
three timed batches, a batch being long enough (about 20 ms, or one
call for calls longer than that) that the clock's resolution does not
show.  These costs are the same whichever workload runs, so they can be
read side by side with the workload's call counts.
"""

import statistics
import time
import timeit

import mesh
import probe

TAIL = (0.0097, -0.0095)
CORE_BOX = ((0.18, 0.181), (-0.1504, -0.15))


def _median_cost(batch, target, repeat):
    """Median seconds per call; ``batch(n)`` times n calls."""
    n = 1
    while batch(n) < target:
        n *= 2
    return statistics.median(batch(n) / n for _ in range(repeat))


def _per_call(fn, target=0.02, repeat=3):
    """Median seconds per call of ``fn()``."""
    def batch(n):
        start = time.perf_counter()
        for _ in range(n):
            fn()
        return time.perf_counter() - start
    return _median_cost(batch, target, repeat)


def _per_op(stmt, names, target=0.02, repeat=3):
    """Median seconds per evaluation of an expression, via timeit."""
    return _median_cost(timeit.Timer(stmt, globals=names).timeit,
                        target, repeat)


def calibration_ms():
    """probe.py's kernel, on its own: it moves with the host, not the
    code."""
    return 1e3 * statistics.median(probe.loop_seconds() for _ in range(5))


def interval_costs(Interval):
    M = Interval(*CORE_BOX[0])
    m = Interval(*CORE_BOX[1])
    names = {"M": M, "m": m}
    exprs = {"add": "M + m", "mul": "M * m", "div": "M / m",
             "sqr": "m.sqr()", "sqrt": "M.sqrt()", "ln": "M.ln()",
             "ln1p": "m.ln1p()", "atan": "m.atan()"}
    return {f"interval.{op}_us": 1e6 * _per_op(stmt, names)
            for op, stmt in exprs.items()}


def layer_costs(wb):
    """µs (or ms) per call of the bounds, separation, billiard and
    verifiers layers; ``wb`` holds the imported wrightbound modules."""
    bounds, separation = wb.bounds, wb.separation
    a = bounds.DEFAULT_A
    I = wb.interval.Interval
    tail = bounds.BoundParams(a, I.point(TAIL[0]), I.point(TAIL[1]))
    core = bounds.BoundParams(a, I(*CORE_BOX[0]), I(*CORE_BOX[1]))
    out = {
        "bounds.L.us": _per_call(lambda: bounds.L(tail)),
        "bounds.dL_dm.us": _per_call(lambda: bounds.dL_dm(core)),
        "bounds.A.us": _per_call(lambda: bounds.A(core.m, a)),
        "bounds.d_enclosure.upper.us":
            _per_call(lambda: bounds.d_enclosure(tail, "upper")),
        "bounds.d_enclosure.lower.us":
            _per_call(lambda: bounds.d_enclosure(tail, "lower")),
        "bounds.sigma_enclosure.us": _sigma_self(bounds, tail),
        "separation.m_k.us": _per_call(lambda: separation.m_k(TAIL[0])),
        "separation.theta_n.us":
            _per_call(lambda: separation.theta_n(TAIL[1])),
        "separation.rung_ms": _per_call(
            lambda: separation.theta_n(separation.m_k(TAIL[0]))),
    }
    out = {k: 1e3 * v if k.endswith("_ms") else 1e6 * v
           for k, v in out.items()}
    out["billiard.ms"] = 1e3 * _per_call(lambda: _billiard_2_15a(wb))
    lemmas = [fn for name, fn in wb.verifiers.VERIFIERS.items()
              if name != "2.15b"]
    out["verifiers.lemmas.ms"] = 1e3 * _per_call(
        lambda: [fn() for fn in lemmas], target=0.0, repeat=3)
    return out


def sliced_2_15b_s(wb):
    """Seconds of one 2.15b verifier call on the benchmark's mesh slice
    (mesh.py), in this process and untraced."""
    with mesh.sliced(wb.verifiers):
        start = time.perf_counter()
        verdict = wb.verifiers.VERIFIERS["2.15b"]()
        elapsed = time.perf_counter() - start
    if not verdict.holds:
        raise RuntimeError("2.15b does not hold on the mesh slice")
    return elapsed


def _sigma_self(bounds, p):
    """sigma_enclosure without its d_enclosure call: the callee is
    replaced by its precomputed value while timing."""
    d = bounds.d_enclosure(p, "upper")
    real = bounds.d_enclosure
    bounds.d_enclosure = lambda *args, **kwargs: d
    try:
        return _per_call(lambda: bounds.sigma_enclosure(p, "upper"))
    finally:
        bounds.d_enclosure = real


def _billiard_2_15a(wb):
    """The curve separation of lemma 2.15a: L(-t, t) against t."""
    bounds, billiard, I = wb.bounds, wb.billiard, wb.interval.Interval
    a = bounds.DEFAULT_A

    def q(t):
        return bounds.L(bounds.BoundParams(a, I.point(-t), I.point(t)))

    out = billiard.run(billiard.BilliardProblem(
        q, billiard.identity_inverse, -0.61, -0.009))
    if not out.separated:
        raise RuntimeError(f"2.15a billiard run failed: {out.failure_reason}")
    return out
