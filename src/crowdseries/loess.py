"""Locally weighted regression with tricube weights.

Each fitted value is a weighted least-squares polynomial fit (degree 0 or
1) over the ``window`` nearest neighbours of the evaluation point, with
tricube distance weights optionally multiplied by robustness weights.
"""

from __future__ import annotations

import warnings

import numpy as np
from numpy.lib.stride_tricks import sliding_window_view


def tricube(u):
    u = np.clip(np.abs(u), 0.0, 1.0)
    return (1.0 - u**3) ** 3


def _window_starts(x, eval_points, window):
    """Start index of the contiguous nearest-``window`` slice per eval point.

    For sorted x the nearest-q neighbourhood is always contiguous; start
    from the insertion point and slide while the point just outside the
    slice is strictly closer than the farthest one inside.
    """
    n = len(x)
    lo = np.clip(np.searchsorted(x, eval_points) - window // 2, 0, n - window)
    for _ in range(n):
        left = (lo > 0) & (eval_points - x[np.maximum(lo - 1, 0)] < x[lo + window - 1] - eval_points)
        right = (lo < n - window) & (
            x[np.minimum(lo + window, n - 1)] - eval_points < eval_points - x[lo]
        )
        if not (left.any() or right.any()):
            break
        lo = lo - left + right
    return lo


def loess_smooth(
    x,
    y,
    eval_points,
    window: int,
    degree: int = 1,
    robustness_weights=None,
):
    """Fitted values at ``eval_points``; x must be strictly increasing.

    ``y`` is one series of shape ``(n,)`` or ``k`` series sharing ``x`` of
    shape ``(k, n)``, with robustness weights of the same shape; the result
    has shape ``(len(eval_points),)`` or ``(k, len(eval_points))``. Each row
    of a batched call has the bits of a single-series call, except where
    the single series takes the convolution path: a uniform grid evaluated
    at its own points, without robustness weights.
    When ``window`` exceeds the number of data points it is clamped (with a
    warning). A local fit whose weights all vanish or whose normal
    equations are singular falls back to the plain weighted mean.
    """
    x = np.asarray(x, dtype=float)
    y = np.asarray(y, dtype=float)
    eval_points = np.asarray(eval_points, dtype=float)
    n = len(x)
    if y.ndim not in (1, 2):
        raise ValueError("y must have shape (n,) or (k, n)")
    if n != y.shape[-1]:
        raise ValueError("x and y must have equal length")
    if n < 3:
        raise ValueError("need at least 3 data points")
    if np.any(np.diff(x) <= 0):
        raise ValueError("x must be strictly increasing")
    if degree not in (0, 1):
        raise ValueError("degree must be 0 or 1")
    if window < 3:
        raise ValueError("window must be >= 3")
    if window > n:
        warnings.warn(f"window {window} clamped to series length {n}", stacklevel=2)
        window = n
    rho = robustness_weights
    if rho is not None:
        rho = np.asarray(rho, dtype=float)
        if rho.shape != y.shape:
            raise ValueError("robustness weights must have the shape of y")

    if y.ndim == 2:
        return _fit_windowed(x, y, eval_points, window, degree, rho)
    if rho is None and window % 2 == 1 and np.array_equal(eval_points, x):
        dx = x[1] - x[0]
        if np.all(np.diff(x) == dx):
            return _fit_uniform(x, y, window, degree)
    rho = None if rho is None else rho[None]
    return _fit_windowed(x, y[None], eval_points, window, degree, rho)[0]


def _fit_uniform(x, y, window, degree):
    """Evaluation on a uniform grid at the data points themselves.

    Interior neighbourhoods are symmetric, so the weighted sum of centered
    abscissas vanishes and both degree-0 and degree-1 fits reduce to one
    fixed normalized kernel applied by convolution; only the ``window // 2``
    points at each end need the general nearest-neighbour fit.
    """
    half = window // 2
    offsets = np.arange(-half, half + 1, dtype=float)
    w = tricube(offsets / offsets[-1])
    kernel = w / w.sum()
    out = np.empty(len(x))
    out[half : len(x) - half] = np.convolve(y, kernel, mode="valid")
    if half:
        out[:half] = _fit_windowed(x, y[None], x[:half], window, degree, None)[0]
        out[-half:] = _fit_windowed(x, y[None], x[-half:], window, degree, None)[0]
    return out


# cells (series x evaluation points x window) per block of temporaries, so
# the working memory of a fit does not grow with the number of points
_BLOCK_CELLS = 2**17


def _fit_windowed(x, y, eval_points, window, degree, rho):
    """Nearest-neighbour fits of the rows of ``y`` (shape k x n) at ``eval_points``.

    The points are fitted in blocks; every fitted value comes from the same
    elementwise expressions and reductions over its own window whatever
    the block size, so blocking leaves each value's bits unchanged.
    """
    lo = _window_starts(x, eval_points, window)
    out = np.empty((len(y), len(eval_points)))
    rows = max(1, _BLOCK_CELLS // (len(y) * window))
    for b in range(0, len(eval_points), rows):
        block = slice(b, b + rows)
        out[:, block] = _fit_block(x, y, eval_points[block], lo[block], window, degree, rho)
    return out


def _fit_block(x, y, eval_points, lo, window, degree, rho):
    xs = sliding_window_view(x, window)[lo]
    ys = sliding_window_view(y, window, axis=-1)[:, lo]
    d = np.abs(xs - eval_points[:, None])
    h = d.max(axis=1)
    # tricube weights are shared by every series; robustness weights are not
    w = np.where(h[:, None] > 0, tricube(d / np.where(h == 0, 1.0, h)[:, None]), 1.0)
    if rho is not None:
        # the indexed windows are a fresh copy; multiplying into it gives the
        # same products without allocating a (k, rows, window) result
        rho_w = sliding_window_view(rho, window, axis=-1)[:, lo]
        rho_w *= w
        w = rho_w

    sw = w.sum(axis=-1)
    swy = np.einsum("...ij,...ij->...i", w, ys)
    mean = np.where(sw > 0, swy / np.where(sw == 0, 1.0, sw), ys.mean(axis=-1))
    if degree == 0:
        return mean
    xc = xs - eval_points[:, None]  # centered: the intercept is the fitted value
    swx = np.einsum("...ij,...ij->...i", w, xc)
    swxx = np.einsum("...ij,...ij,...ij->...i", w, xc, xc)
    swxy = np.einsum("...ij,...ij,...ij->...i", w, xc, ys)
    denom = sw * swxx - swx * swx
    ok = (sw > 0) & (denom > 1e-12 * np.abs(sw * swxx))
    safe = np.where(ok, denom, 1.0)
    fitted = (swxx * swy - swx * swxy) / safe
    return np.where(ok, fitted, mean)
