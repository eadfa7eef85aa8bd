"""Per-coordinate categorical proposals and CDF-space over-relaxation.

All normalization happens in log space; unnormalized weights are never
exponentiated.  Row log-probabilities are clamped at ``LOG_FLOOR`` so that
transition log-probabilities stay finite even for underflowed values.

The row functions are batched over any leading axes (chains, coordinates).
Rows are indexed ``rows[..., i, k]``, value ``k`` last, but stored value-major:
they view C-contiguous ``(K, ..., d)`` arrays, and row operations reduce whole
value planes over axis 0, never a short trailing axis.  The scalar law
:func:`over_relax_conditional` is the reference for the over-relaxation rows.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError, NumericGuardError
from .precondition import Preconditioner

LOG_FLOOR = -745.0


def _planes(rows):
    """Value-major view ``(K, ..., d)`` of rows indexed ``(..., d, K)``."""
    return rows.transpose((rows.ndim - 1, *range(rows.ndim - 1)))


def _rows(planes):
    """Rows indexed ``(..., d, K)`` viewing value-major planes ``(K, ..., d)``."""
    return planes.transpose((*range(1, planes.ndim), 0))


def _value_sums(planes):
    """Sum over the value axis with the bits of numpy's pairwise sum over a contiguous axis:
    planes added in turn below 8 values, else a transposed copy up to 128 rows, else the pairs."""
    n = planes.shape[0]
    if n < 8:
        return planes.sum(axis=0)
    if planes[0].size <= 128:
        return np.ascontiguousarray(_rows(planes)).sum(axis=-1)
    if n > 128:
        half = n // 2 - n // 2 % 8
        return _value_sums(planes[:half]) + _value_sums(planes[half:])
    body = n - n % 8
    r = planes[:body].reshape(body // 8, -1).sum(axis=0).reshape(8, *planes.shape[1:])
    total = r[0] + r[1] + (r[2] + r[3]) + (r[4] + r[5] + (r[6] + r[7]))
    for plane in planes[body:]:
        total += plane
    return total


def proposal_log_rows(grad, s_ref, z, pre: Preconditioner, values) -> np.ndarray:
    """Log-probability rows of the product proposal induced by a quadratic
    surrogate around ``s_ref``, clamped at ``LOG_FLOOR``:

    logits[..., i, k] = -1/2 lam a_k^2 + [grad_i - (W s_ref)_i + ((W + lam I) z)_i] a_k.

    Inputs are ``(d,)`` or ``(m, d)``; a non-finite coefficient raises
    :class:`NumericGuardError` naming the first offending chain.
    """
    coeff = grad - pre.times(s_ref, "W") + pre.times(z, "W_shifted")
    finite = np.isfinite(coeff).reshape(-1, coeff.shape[-1]).all(axis=1)
    if not finite.all():
        raise NumericGuardError("proposal logits", int(np.argmin(finite)))
    column = (-1,) + (1,) * coeff.ndim
    logits = (-0.5 * pre.lam * values**2).reshape(column) + coeff * values.reshape(column)
    peak = logits.max(axis=0)
    weights = logits - peak
    np.exp(weights, out=weights)
    logits -= np.log(_value_sums(weights)) + peak
    return _rows(np.maximum(logits, LOG_FLOOR, out=logits))


def cdf_rows(pmf_rows: np.ndarray) -> np.ndarray:
    """Monotone CDF rows: running sums (of planes past 128 rows) clipped at 1, the last pinned at 1."""
    pmf = _planes(pmf_rows)
    if np.size(pmf[0]) <= 128:
        cdf = np.cumsum(pmf, axis=0)
    else:
        cdf = pmf.copy()
        for prev, cur in zip(cdf, cdf[1:]):
            np.add(prev, cur, out=cur)
    np.minimum(cdf, 1.0, out=cdf)
    cdf[-1] = 1.0
    return _rows(cdf)


def stack_rows(rows_seq) -> np.ndarray:
    """Rows stacked on a new leading axis, stored value-major."""
    return _rows(np.stack([_planes(rows) for rows in rows_seq], axis=1))


def sample_rows_inverse_cdf(pmf_rows: np.ndarray, uniforms: np.ndarray) -> np.ndarray:
    """Inverse-CDF draw per row: first index whose CDF exceeds the uniform,
    the count of entries at or below it (the last, pinned at 1, never is)."""
    return (_planes(cdf_rows(pmf_rows))[:-1] <= uniforms).sum(axis=0)


def _circular_overlap(u: float, width: float, lo: float, hi: float) -> float:
    """Length of ([u, u + width) mod 1) intersected with [lo, hi)."""
    end = u + width
    if end <= 1.0:
        return max(0.0, min(end, hi) - max(u, lo))
    return max(0.0, hi - max(u, lo)) + max(0.0, min(end - 1.0, hi) - lo)


def _overlap_segment_integral(t0: float, t1: float, width: float, lo: float, hi: float) -> float:
    """Integral of the overlap over arc starts t in [t0, t1] within [0, 1].

    The overlap is piecewise linear in t; splitting at its kinks makes the
    trapezoid rule exact.
    """
    knots = {t0, t1}
    for knot in (lo, hi, (lo - width) % 1.0, (hi - width) % 1.0, (1.0 - width) % 1.0):
        if t0 < knot < t1:
            knots.add(knot)
    grid = sorted(knots)
    total = 0.0
    for a, b in zip(grid[:-1], grid[1:]):
        total += (b - a) * 0.5 * (
            _circular_overlap(a, width, lo, hi) + _circular_overlap(b, width, lo, hi)
        )
    return total


def _cdf_bounds(cdf: np.ndarray, index: int):
    lower = cdf[index - 1] if index > 0 else 0.0
    return float(lower), float(cdf[index])


def _indicator_segment(t0: float, t1: float, lo: float, hi: float) -> float:
    return max(0.0, min(t1, hi) - max(t0, lo))


def over_relax_conditional(row_pmf: np.ndarray, x0_index: int, x1_index: int, beta: float) -> float:
    """Exact conditional probability p(x1 | x0) of the CDF-reflection move.

    The landing interval of w1 = (-w0 + beta w~) mod 1 is measured by exact
    piecewise-linear integration over w~, with w0 uniform on the CDF interval
    of x0.
    """
    row_pmf = np.asarray(row_pmf, dtype=float)
    K = row_pmf.size
    if K == 1:
        return 1.0 if x1_index == x0_index else 0.0
    if row_pmf[x0_index] <= 0.0:
        raise InvalidStateError("current value has zero probability under the reference row")
    return _conditional_from_cdf(cdf_rows(row_pmf), x0_index, x1_index, beta)


def _conditional_from_cdf(cdf, x0_index: int, x1_index: int, beta: float) -> float:
    """Conditional law from a precomputed row CDF (last entry pinned at 1)."""
    a, b = _cdf_bounds(cdf, x0_index)
    p0 = b - a
    lo, hi = _cdf_bounds(cdf, x1_index)

    if p0 <= 0.0:
        # the CDF interval of x0 underflowed to zero width: use the
        # point-interval limit of overlap/p0, an indicator in the arc start
        if beta == 0.0:
            return 1.0 if lo <= (-b) % 1.0 < hi else 0.0
        span = abs(beta)
        full, rem = divmod(span, 1.0)
        total = full * (hi - lo)
        if rem > 0.0:
            start = (min(-b, beta - b)) % 1.0
            t_end = start + rem
            if t_end <= 1.0:
                total += _indicator_segment(start, t_end, lo, hi)
            else:
                total += _indicator_segment(start, 1.0, lo, hi)
                total += _indicator_segment(0.0, t_end - 1.0, lo, hi)
        return total / span

    if beta == 0.0:
        # w1 = (-w0) mod 1 deterministic in w~; the landing arc starts at -b
        return _circular_overlap((-b) % 1.0, p0, lo, hi) / p0

    span = abs(beta)
    full, rem = divmod(span, 1.0)
    # average overlap over a full period is p0 * p1
    total = full * p0 * (hi - lo)
    if rem > 0.0:
        start = (min(-b, beta - b)) % 1.0
        t_end = start + rem
        if t_end <= 1.0:
            total += _overlap_segment_integral(start, t_end, p0, lo, hi)
        else:
            total += _overlap_segment_integral(start, 1.0, p0, lo, hi)
            total += _overlap_segment_integral(0.0, t_end - 1.0, p0, lo, hi)
    return total / (span * p0)


def over_relax_sample_rows(
    pmf_rows: np.ndarray,
    x0_indices: np.ndarray,
    beta: float,
    u0: np.ndarray,
    u_tilde: np.ndarray,
) -> np.ndarray:
    """Vectorized landing indices of the over-relaxation map, one per row."""
    return over_relax_rows_from_cdf(cdf_rows(pmf_rows), x0_indices, beta, u0, u_tilde)


def over_relax_rows_from_cdf(cdf, x0_indices, beta, u0, u_tilde) -> np.ndarray:
    """Draw w0 uniformly on the CDF interval of x0 (from ``u0``), map
    w1 = (-w0 + beta w~) mod 1 (w~ = ``u_tilde``) and return the landing index;
    a w1 that rounds to 1 is 0 mod 1 and lands on index 0."""
    lower, upper = _cdf_interval_rows(cdf, np.asarray(x0_indices))
    w0 = lower + (upper - lower) * u0
    w1 = (-w0 + beta * u_tilde) % 1.0
    return np.where(w1 < 1.0, (_planes(cdf)[:-1] <= w1).sum(axis=0), 0)


def row_entries(rows, idx) -> np.ndarray:
    """Entry ``idx[..., j]`` of each row ``rows[..., j, :]``, gathered by
    flat position in the value-major layout (``idx`` has the rows' leading shape)."""
    return _planes(rows).reshape(-1)[idx * idx.size + np.arange(idx.size).reshape(idx.shape)]


def _cdf_interval_rows(cdf, idx):
    """CDF interval [lower, upper) of value ``idx`` in each row."""
    return np.where(idx > 0, row_entries(cdf, idx - 1), 0.0), row_entries(cdf, idx)


def _overlap_rows(u, width, lo, hi):
    """Vectorized circular overlap of [u, u+width) with [lo, hi)."""
    end = u + width
    direct = np.maximum(0.0, np.minimum(end, hi) - np.maximum(u, lo))
    wrapped = np.maximum(0.0, hi - np.maximum(u, lo)) + np.maximum(
        0.0, np.minimum(end - 1.0, hi) - lo
    )
    return np.where(end <= 1.0, direct, wrapped)


def _segment_integral_rows(t0, t1, width, lo, hi):
    """Vectorized exact integral of the overlap over arc starts in [t0, t1].

    Trapezoid over the per-row kink candidates clipped into the segment;
    clipped duplicates contribute zero-width pieces.  ``t0``/``t1`` may carry
    extra leading axes over the rows.
    """
    kinks = np.stack(
        [lo, hi, (lo - width) % 1.0, (hi - width) % 1.0, (1.0 - width) % 1.0], axis=-1
    )
    kinks = np.minimum(np.maximum(kinks, t0[..., None]), t1[..., None])
    knots = np.concatenate([np.stack([t0, t1], axis=-1), kinks], axis=-1)
    knots.sort(axis=-1)
    g = _overlap_rows(knots, width[..., None], lo[..., None], hi[..., None])
    steps = np.diff(knots, axis=-1)
    return (steps * 0.5 * (g[..., 1:] + g[..., :-1])).sum(axis=-1)


def over_relax_log_prob_rows(cdf, x0_indices, x1_indices, beta: float) -> np.ndarray:
    """Vectorized exact conditional log-probabilities from row CDFs.

    Rows whose x0 CDF interval underflowed to zero width take the
    point-interval limit of overlap / p0: the share of arc starts in
    [lo, hi), an indicator at ``beta = 0``.
    """
    a, b = _cdf_interval_rows(cdf, np.asarray(x0_indices))
    lo, hi = _cdf_interval_rows(cdf, np.asarray(x1_indices))
    p0 = b - a
    point = p0 <= 0.0
    p0_safe = np.where(point, 1.0, p0)

    if beta == 0.0:
        # w1 = (-w0) mod 1 deterministic in w~; the landing arc starts at -b
        start = (-b) % 1.0
        prob = np.where(
            point, (lo <= start) & (start < hi), _overlap_rows(start, p0, lo, hi) / p0_safe
        )
    else:
        span = abs(beta)
        full, rem = divmod(span, 1.0)
        # average overlap over a full period is p0 * p1
        total = full * p0_safe * (hi - lo)
        if rem > 0.0:
            start = np.minimum(-b, beta - b) % 1.0
            t_end = start + rem
            # the arc of starts [start, start + rem), split where it wraps past 1
            first, wrapped = _segment_integral_rows(
                np.stack([start, np.zeros_like(start)]),
                np.stack([np.minimum(t_end, 1.0), np.maximum(t_end - 1.0, 0.0)]),
                p0,
                lo,
                hi,
            )
            total = np.where(
                point, total + _overlap_rows(start, rem, lo, hi), total + first + wrapped
            )
        prob = total / (span * p0_safe)
    with np.errstate(divide="ignore"):
        return np.maximum(np.log(prob), LOG_FLOOR)
