"""Scalar over-relaxation law in exact rational arithmetic: the oracle for the
rows code of :mod:`latmc.proposals`.

The law is computed independently of the library's closed form, by the
trapezoid rule between the kinks of the piecewise-linear landing overlap.
Every operation runs in :class:`fractions.Fraction` on the exact values of the
float CDF entries and ``beta``, so the returned probability is the float
nearest to the true conditional of those rows.
"""

from fractions import Fraction


def _circular_overlap(u, width, lo, hi):
    """Length of ([u, u + width) mod 1) intersected with [lo, hi)."""
    end = u + width
    if end <= 1:
        return max(0, min(end, hi) - max(u, lo))
    return max(0, hi - max(u, lo)) + max(0, min(end - 1, hi) - lo)


def _overlap_segment_integral(t0, t1, width, lo, hi):
    """Integral of the overlap over arc starts t in [t0, t1] within [0, 1].

    The overlap is piecewise linear in t; splitting at its kinks makes the
    trapezoid rule exact.
    """
    knots = {t0, t1}
    for knot in (lo, hi, (lo - width) % 1, (hi - width) % 1, (1 - width) % 1):
        if t0 < knot < t1:
            knots.add(knot)
    grid = sorted(knots)
    return sum(
        (b - a) * (_circular_overlap(a, width, lo, hi) + _circular_overlap(b, width, lo, hi)) / 2
        for a, b in zip(grid[:-1], grid[1:])
    )


def _cdf_bounds(cdf, index):
    return (Fraction(float(cdf[index - 1])) if index > 0 else Fraction(0)), Fraction(float(cdf[index]))


def _indicator_segment(t0, t1, lo, hi):
    return max(0, min(t1, hi) - max(t0, lo))


def _conditional_from_cdf(cdf, x0_index: int, x1_index: int, beta: float) -> float:
    """p(x1 | x0) of w1 = (-w0 + beta w~) mod 1, w0 uniform on the CDF interval
    of x0 and w~ uniform on [0, 1), from a row CDF whose last entry is 1.

    A zero-width interval of x0 takes the point-interval limit of overlap/p0,
    an indicator in the arc start.
    """
    a, b = _cdf_bounds(cdf, x0_index)
    lo, hi = _cdf_bounds(cdf, x1_index)
    p0 = b - a
    beta = Fraction(float(beta))
    if beta == 0:
        # w1 = (-w0) mod 1 deterministic in w~; the landing arc starts at -b
        if p0 == 0:
            return float(lo <= (-b) % 1 < hi)
        return float(_circular_overlap((-b) % 1, p0, lo, hi) / p0)
    span = abs(beta)
    full, rem = divmod(span, 1)
    # average overlap over a full period is p0 * p1
    total = full * (hi - lo) * (1 if p0 == 0 else p0)
    if rem > 0:
        start = min(-b, beta - b) % 1
        segments = [(start, min(start + rem, Fraction(1)))]
        if start + rem > 1:
            segments.append((Fraction(0), start + rem - 1))
        for t0, t1 in segments:
            if p0 == 0:
                total += _indicator_segment(t0, t1, lo, hi)
            else:
                total += _overlap_segment_integral(t0, t1, p0, lo, hi)
    return float(total / (span * (1 if p0 == 0 else p0)))
