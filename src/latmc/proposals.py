"""Per-coordinate categorical proposals and CDF-space over-relaxation.

All normalization happens in log space; unnormalized weights are never
exponentiated.  Row log-probabilities are clamped at ``LOG_FLOOR`` so that
transition log-probabilities stay finite even for underflowed values.

The row functions are batched over any leading axes (chains, coordinates).
Rows are indexed ``rows[..., i, k]``, value ``k`` last, but stored value-major:
they view C-contiguous ``(K, ..., d)`` arrays, and row operations reduce whole
value planes over axis 0, never a short trailing axis; a row sum adds the
planes in index order; single entries are taken at flat positions.  The
over-relaxation law is computed once, in closed form: a difference of window
means of the landing measure over the arc of reflection starts.  It gathers
each CDF interval once (the draw's x0 interval is passed on; otherwise x0's and
x1's come from one gather), reads only the x1 interval at whole-period beta,
and at fractional beta evaluates both window means and both periods in one
stacked pass over blocks of ``LAW_BLOCK_ROWS`` rows.
"""

from __future__ import annotations

import numpy as np

from .errors import InvalidStateError, NumericGuardError
from .precondition import Preconditioner

LOG_FLOOR = -745.0

# Rows per pass of the fractional-beta law: at eight doubles a row, a block's
# temporaries (about 1 MB) stay in L2; smaller blocks pay more call overhead.
LAW_BLOCK_ROWS = 8192
_PERIODS = np.array([[0.0], [1.0]])  # the two periods a window meets


def _planes(rows):
    """Value-major view ``(K, ..., d)`` of rows indexed ``(..., d, K)``."""
    return rows.transpose((rows.ndim - 1, *range(rows.ndim - 1)))


def _rows(planes):
    """Rows indexed ``(..., d, K)`` viewing value-major planes ``(K, ..., d)``."""
    return planes.transpose((*range(1, planes.ndim), 0))


def proposal_log_rows(grad, s_ref, z, pre: Preconditioner, values) -> np.ndarray:
    """Log-probability rows of the product proposal induced by a quadratic
    surrogate around ``s_ref``, clamped at ``LOG_FLOOR``:

    logits[..., i, k] = -1/2 lam a_k^2 + [grad_i - (W s_ref)_i + ((W + lam I) z)_i] a_k.

    Inputs are ``(d,)`` or ``(m, d)``; a non-finite coefficient raises
    :class:`NumericGuardError` naming the first offending chain.
    """
    logits = _logits(grad, s_ref, z, pre, values)
    peak = logits.max(axis=0)
    weights = logits - peak
    logits -= np.log(np.exp(weights, out=weights).sum(axis=0)) + peak
    return _rows(np.maximum(logits, LOG_FLOOR, out=logits))


def proposal_log_entries(grad, s_ref, z, pre: Preconditioner, values, idx) -> np.ndarray:
    """Entries ``idx`` of :func:`proposal_log_rows`, with the same bits: the logits
    are gathered first, and no row table is normalised or floored."""
    logits = _logits(grad, s_ref, z, pre, values)
    entries, peak = row_entries(_rows(logits), idx), logits.max(axis=0)
    logits -= peak
    return np.maximum(entries - (np.log(np.exp(logits, out=logits).sum(axis=0)) + peak), LOG_FLOOR)


def _logits(grad, s_ref, z, pre: Preconditioner, values):
    """Value planes ``(K, ..., d)`` of the logits of :func:`proposal_log_rows`."""
    coeff = grad - pre.times(s_ref, "W") + pre.times(z, "W_shifted")
    finite = np.isfinite(coeff).reshape(-1, coeff.shape[-1]).all(axis=1)
    if not finite.all():
        raise NumericGuardError("proposal logits", int(np.argmin(finite)))
    column = (-1,) + (1,) * coeff.ndim
    logits = coeff * values.reshape(column)
    logits += (-0.5 * pre.lam * values**2).reshape(column)
    return logits


def cdf_rows(pmf_rows: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Monotone CDF rows: running sums (of planes past 128 rows) clipped at 1, the
    last pinned at 1; in a new array, or over ``pmf_rows`` when ``in_place``."""
    pmf = _planes(pmf_rows)
    if np.size(pmf[0]) <= 128:
        cdf = np.cumsum(pmf, axis=0, out=pmf if in_place else None)
    else:
        cdf = pmf if in_place else pmf.copy()
        for prev, cur in zip(cdf, cdf[1:]):
            np.add(prev, cur, out=cur)
    np.minimum(cdf, 1.0, out=cdf)
    cdf[-1] = 1.0
    return _rows(cdf)


def sample_rows_inverse_cdf(pmf_rows: np.ndarray, uniforms: np.ndarray, in_place: bool = False) -> np.ndarray:
    """Inverse-CDF draw per row: first index whose CDF exceeds the uniform,
    the count of entries at or below it (the last, pinned at 1, never is);
    ``in_place`` forms the CDFs over ``pmf_rows``."""
    return (_planes(cdf_rows(pmf_rows, in_place=in_place))[:-1] <= uniforms).sum(axis=0)


def over_relax_conditional(row_pmf: np.ndarray, x0_index: int, x1_index: int, beta: float) -> float:
    """Exact conditional probability p(x1 | x0) of the CDF-reflection move
    w1 = (-w0 + beta w~) mod 1, w0 uniform on the CDF interval of x0: a
    one-row call of the rows law."""
    row_pmf = np.asarray(row_pmf, dtype=float)
    if row_pmf[x0_index] <= 0.0:
        raise InvalidStateError("current value has zero probability under the reference row")
    x0, x1 = np.array([x0_index]), np.array([x1_index])
    return float(_over_relax_prob_rows(cdf_rows(row_pmf[None]), x0, x1, beta)[0])


def over_relax_rows_from_cdf(cdf, x0_indices, beta, u0, u_tilde, x0_interval=None) -> np.ndarray:
    """Draw w0 uniformly on the CDF interval of x0 (from ``u0``), map
    w1 = (-w0 + beta w~) mod 1 (w~ = ``u_tilde``) and return the landing index;
    a w1 that rounds to 1 is 0 mod 1 and lands on index 0.  ``x0_interval``:
    the interval of x0 from :func:`cdf_interval_rows`, if already gathered."""
    lower, upper = cdf_interval_rows(cdf, x0_indices) if x0_interval is None else x0_interval
    w0 = lower + (upper - lower) * u0
    w1 = -w0 + beta * u_tilde
    w1 -= np.floor(w1)  # x - floor(x) is x % 1.0 to the bit for finite x, and faster
    return np.where(w1 < 1.0, (_planes(cdf)[:-1] <= w1).sum(axis=0), 0)


def row_entries(rows, idx) -> np.ndarray:
    """Entry ``idx[..., j]`` of each row ``rows[..., j, :]``, taken at flat
    positions in the value-major layout (``idx`` has the rows' leading shape)."""
    return np.take(_planes(rows), idx * idx.size + np.arange(idx.size).reshape(idx.shape))


def cdf_interval_rows(cdf, idx) -> np.ndarray:
    """CDF interval [lower, upper) of value ``idx`` in each row, stacked on a new
    first axis: entries ``idx - 1`` (0 at ``idx = 0``) and ``idx``.  ``idx`` has
    the rows' leading shape, or more leading axes to gather several index sets."""
    idx = np.asarray(idx)
    n = cdf.size // cdf.shape[-1]
    upper_at = idx * n + np.arange(n).reshape(cdf.shape[:-1])
    ends = np.take(_planes(cdf), (upper_at - n, upper_at))
    np.copyto(ends[0], 0.0, where=idx == 0)
    return ends


def _window_gain(start, rem, p0, ends, mass):
    """M(start + rem) - M(start), both windows and both periods in one stacked pass.

    M(x) is the mean over [x, x + p0] (x >= 0) of H(y), the measure of [lo, hi) + Z
    in [0, y) with (lo, hi) = ``ends``, hi - lo = ``mass``: H(x) plus, for the two
    periods the window meets, the integral of 1 - u/p0 over the window offsets u in
    [0, p0] that land in [lo, hi).  Only offsets are divided by p0, so the mean is
    accurate in absolute terms at every width; at p0 = 0 it is H(x)."""
    lo, hi = ends
    f = np.add.outer((rem, 0.0), start)  # (window, row)
    mean = np.floor(f)
    f -= mean
    mean *= mass
    # minimum(maximum(...)) is np.clip to the bit here, since no operand is ever -0
    mean += np.minimum(np.maximum(f, lo), hi)
    mean -= lo
    u = (ends[:, None] + _PERIODS)[:, :, None] - f  # (end, period, window, row)
    np.minimum(np.maximum(u, 0.0, out=u), p0, out=u)
    u0, u1 = u
    weight = np.add(u0, u1)
    weight *= 0.5
    weight /= np.where(p0 > 0.0, p0, 1.0)
    term = np.subtract(u1, u0, out=u1)
    term *= np.subtract(1.0, weight, out=weight)
    mean += term[0]
    mean += term[1]
    return mean[0] - mean[1]


def _over_relax_prob_rows(cdf, x0_indices, x1_indices, beta: float, x0_interval=None) -> np.ndarray:
    """Exact conditional probabilities from row CDFs.

    Arc starts t = beta w~ - b are uniform on [s, s + |beta|), and the landing
    arc [t, t + p0) meets [lo, hi) + Z in H(t + p0) - H(t); so p(x1 | x0) is
    (M(s + |beta|) - M(s)) / |beta| with M the window mean of H, and each whole
    period of |beta| adds hi - lo, which is the whole law at whole-period beta.
    At ``beta = 0`` the move is the reflection w1 = (-w0) mod 1; a zero-width x0
    interval takes the point-interval limit, an indicator of where its end b lands.
    """
    span = abs(beta)
    full, rem = divmod(span, 1.0)
    if beta != 0.0 and rem == 0.0:
        lo, hi = cdf_interval_rows(cdf, x1_indices)
        return full * (hi - lo) / span
    if x0_interval is None:  # both intervals in one gather
        ends, (a, b) = cdf_interval_rows(cdf, np.stack((x1_indices, x0_indices))).swapaxes(0, 1)
    else:
        ends, (a, b) = cdf_interval_rows(cdf, x1_indices), x0_interval
    lo, hi = ends
    p0 = b - a
    if beta == 0.0:
        # 1 - x is exact for x in [1/2, 1] (Sterbenz): reflect the x0 interval's part
        # above 1/2 onto [lo, hi), and [lo, hi) onto its part below
        above = np.minimum(1.0 - np.maximum(a, 0.5), hi) - np.maximum(1.0 - np.maximum(b, 0.5), lo)
        below = np.minimum(np.minimum(b, 0.5), 1.0 - lo) - np.maximum(np.minimum(a, 0.5), 1.0 - hi)
        overlap = np.maximum(above, 0.0) + np.maximum(below, 0.0)
        end = -b - np.floor(-b)  # exact unless 0 < b < 1/2, where [lo, hi) is reflected instead
        hit = np.where((0.0 < b) & (b < 0.5), (1.0 - hi < b) & (b <= 1.0 - lo), (lo <= end) & (end < hi))
        return np.where(p0 > 0.0, overlap / np.where(p0 > 0.0, p0, 1.0), hit)
    prob = np.empty(p0.shape)
    flat = prob.reshape(-1), np.reshape(b, -1), p0.reshape(-1), ends.reshape(2, -1)
    for i in range(0, prob.size, LAW_BLOCK_ROWS):
        out, b, p0, ends = (x[..., i : i + LAW_BLOCK_ROWS] for x in flat)
        start = np.subtract(beta, b) if beta < 0.0 else np.negative(b)  # min(-b, beta - b): rounding keeps order
        start -= np.floor(start)
        mass = ends[1] - ends[0]
        # M is nondecreasing; clip the rounding that can leave an unreachable x1 just below 0
        np.maximum(full * mass + _window_gain(start, rem, p0, ends, mass), 0.0, out=out)
        out /= span
    return prob


def over_relax_log_prob_rows(cdf, x0_indices, x1_indices, beta: float, x0_interval=None) -> np.ndarray:
    """Vectorized exact conditional log-probabilities from row CDFs, floored at
    ``LOG_FLOOR``; ``x0_interval`` as for :func:`over_relax_rows_from_cdf`."""
    with np.errstate(divide="ignore"):
        prob = _over_relax_prob_rows(cdf, x0_indices, x1_indices, beta, x0_interval)
        return np.maximum(np.log(prob), LOG_FLOOR)
