"""A fixed slice of the 2.15b mesh, small enough for one benchmark round.

``verify 2.15b`` walks 603 rows of M-boxes (300 core rows m <= -0.13 and
303 extended rows above them) and takes about 500-800 s on a 2-core
host, longer than a benchmark run may last.  The slice keeps every
150th row, counted from the first core row: the core rows at
m = -0.13 and -0.19, the extended rows at -0.009, -0.069 and -0.129.
The row at -0.009 holds the corner box [0.009, 0.01] x [-0.0094, -0.009]
where the supremum refinement spends its evaluations.  Those five rows
held 0.95% of the full mesh's time and 0.92% of its evaluations.

Every other row gets no boxes, so the verifier's own loop, bisection,
counters and verdict all run unchanged on the rows kept.  The one
private name this relies on is ``verifiers._row_boxes(m1, m2, a)``,
the boxes of the row with top m1.
"""

import contextlib

ROW_TOPS = (-0.13, -0.19, -0.009, -0.069, -0.129)


def _kept(m1):
    return round(m1, 4) in ROW_TOPS


def _slice(verifiers):
    """Point verifiers._row_boxes at the sliced version; returns the
    original."""
    real = getattr(verifiers, "_row_boxes", None)
    if real is None:
        raise RuntimeError("wrightbound.verifiers._row_boxes is gone; "
                           "the 2.15b mesh slice needs it")

    def row_boxes(m1, *args, **kwargs):
        return real(m1, *args, **kwargs) if _kept(m1) else []

    verifiers._row_boxes = row_boxes
    return real


@contextlib.contextmanager
def sliced(verifiers):
    real = _slice(verifiers)
    try:
        yield
    finally:
        verifiers._row_boxes = real


def install():
    """Slice the mesh for the rest of this process."""
    from wrightbound import verifiers
    _slice(verifiers)
