import numpy as np
import pytest

from conftest import brute_force_loess


def test_constant_reproduced_exactly():
    from crowdseries.loess import loess_smooth

    x = np.arange(30, dtype=float)
    y = np.full(30, 4.2)
    for window in (3, 7, 15):
        for degree in (0, 1):
            out = loess_smooth(x, y, x, window, degree)
            np.testing.assert_allclose(out, y, atol=1e-12)


def test_degree_one_exact_on_affine():
    from crowdseries.loess import loess_smooth

    x = np.arange(80, dtype=float)
    y = 3.5 * x - 12.0
    for window in (5, 21, 79):
        out = loess_smooth(x, y, x, window, degree=1)
        np.testing.assert_allclose(out, y, rtol=1e-9)


def test_sine_matches_reference():
    from crowdseries.loess import loess_smooth

    x = np.arange(50, dtype=float)
    y = np.sin(x * 2 * np.pi / 25)
    out = loess_smooth(x, y, x, window=7, degree=1)
    ref = brute_force_loess(x, y, x, window=7, degree=1)
    np.testing.assert_allclose(out, ref, atol=1e-6)


def test_matches_reference_on_irregular_grid():
    from crowdseries.loess import loess_smooth

    rng = np.random.default_rng(4)
    x = np.sort(rng.uniform(0, 20, 60))
    y = np.cos(x) + rng.normal(0, 0.2, 60)
    eval_points = np.linspace(1, 19, 41)
    for degree in (0, 1):
        out = loess_smooth(x, y, eval_points, window=11, degree=degree)
        ref = brute_force_loess(x, y, eval_points, window=11, degree=degree)
        np.testing.assert_allclose(out, ref, atol=1e-9)


def test_robustness_weights_downweight_outlier():
    from crowdseries.loess import loess_smooth

    x = np.arange(21, dtype=float)
    y = np.zeros(21)
    y[10] = 100.0
    rho = np.ones(21)
    rho[10] = 0.0
    out = loess_smooth(x, y, x, window=7, degree=1, robustness_weights=rho)
    np.testing.assert_allclose(out, np.zeros(21), atol=1e-9)


def test_robustness_weights_match_reference():
    from crowdseries.loess import loess_smooth

    rng = np.random.default_rng(5)
    x = np.arange(40, dtype=float)
    y = rng.normal(size=40)
    rho = rng.uniform(0.1, 1.0, 40)
    out = loess_smooth(x, y, x, window=9, degree=1, robustness_weights=rho)
    ref = brute_force_loess(x, y, x, window=9, degree=1, robustness_weights=rho)
    np.testing.assert_allclose(out, ref, atol=1e-9)


def test_window_clamped_with_warning():
    from crowdseries.loess import loess_smooth

    x = np.arange(10, dtype=float)
    y = x * 2
    with pytest.warns(UserWarning, match="clamped"):
        out = loess_smooth(x, y, x, window=25, degree=1)
    np.testing.assert_allclose(out, y, rtol=1e-9)


def test_extrapolation_beyond_range():
    from crowdseries.loess import loess_smooth

    x = np.arange(12, dtype=float)
    y = 2.0 * x + 1.0
    out = loess_smooth(x, y, np.array([-1.0, 12.0]), window=5, degree=1)
    np.testing.assert_allclose(out, [-1.0, 25.0], rtol=1e-9)


def test_rejects_bad_inputs():
    from crowdseries.loess import loess_smooth

    x = np.arange(10, dtype=float)
    with pytest.raises(ValueError, match="strictly increasing"):
        loess_smooth(x[::-1], x, x, 5)
    with pytest.raises(ValueError, match="window"):
        loess_smooth(x, x, x, 2)
    with pytest.raises(ValueError, match="degree"):
        loess_smooth(x, x, x, 5, degree=2)
    with pytest.raises(ValueError, match="equal length"):
        loess_smooth(x, x[:5], x, 5)


def _one_block_reference(x, y, eval_points, window, degree, robustness_weights):
    """One series fitted at every point at once: the unblocked windowed fit."""
    from numpy.lib.stride_tricks import sliding_window_view

    from crowdseries.loess import _window_starts, tricube

    lo = _window_starts(x, eval_points, window)
    xs = sliding_window_view(x, window)[lo]
    ys = sliding_window_view(y, window)[lo]
    d = np.abs(xs - eval_points[:, None])
    h = d.max(axis=1)
    w = np.where(h[:, None] > 0, tricube(d / np.where(h == 0, 1.0, h)[:, None]), 1.0)
    if robustness_weights is not None:
        w = w * sliding_window_view(robustness_weights, window)[lo]
    sw = w.sum(axis=1)
    swy = np.einsum("ij,ij->i", w, ys)
    mean = np.where(sw > 0, swy / np.where(sw == 0, 1.0, sw), ys.mean(axis=1))
    if degree == 0:
        return mean
    xc = xs - eval_points[:, None]
    swx = np.einsum("ij,ij->i", w, xc)
    swxx = np.einsum("ij,ij,ij->i", w, xc, xc)
    swxy = np.einsum("ij,ij,ij->i", w, xc, ys)
    denom = sw * swxx - swx * swx
    ok = (sw > 0) & (denom > 1e-12 * np.abs(sw * swxx))
    fitted = (swxx * swy - swx * swxy) / np.where(ok, denom, 1.0)
    return np.where(ok, fitted, mean)


def _hex(values):
    return [float(v).hex() for v in np.ravel(values)]


def _batch(k=3, n=60, seed=8):
    """Irregular x, k noisy series, and robustness weights with a zero run
    wide enough to empty whole windows (the weighted-mean fallback)."""
    rng = np.random.default_rng(seed)
    x = np.cumsum(rng.uniform(0.5, 1.5, n))
    y = np.sin(x / 4) + rng.normal(0, 0.3, (k, n))
    rho = rng.uniform(0.0, 1.0, (k, n))
    rho[0, 20:40] = 0.0
    eval_points = np.concatenate([[x[0] - 2.0], x[::3], (x[1:] + x[:-1])[::4] / 2, [x[-1] + 1.5]])
    return x, y, rho, eval_points


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("use_rho", [False, True], ids=["plain", "robust"])
@pytest.mark.parametrize("rows", [1, 7, 10**6], ids=["one-row", "ragged-blocks", "one-block"])
def test_block_size_leaves_bits_unchanged(monkeypatch, rows, use_rho, degree):
    from crowdseries import loess

    x, y, rho, eval_points = _batch()
    window = 9
    assert len(eval_points) % 7 != 0  # the last block is short
    monkeypatch.setattr(loess, "_BLOCK_CELLS", rows * len(y) * window)
    weights = rho if use_rho else None
    out = loess._fit_windowed(x, y, eval_points, window, degree, weights)
    for i in range(len(y)):
        ref = _one_block_reference(
            x, y[i], eval_points, window, degree, None if weights is None else weights[i]
        )
        assert _hex(out[i]) == _hex(ref)


@pytest.mark.parametrize("degree", [0, 1])
@pytest.mark.parametrize("use_rho", [False, True], ids=["plain", "robust"])
def test_rows_of_a_batched_call_match_single_calls(use_rho, degree):
    from crowdseries.loess import loess_smooth

    x, y, rho, eval_points = _batch(k=4, seed=9)
    weights = rho if use_rho else None
    out = loess_smooth(x, y, eval_points, 11, degree, weights)
    assert out.shape == (4, len(eval_points))
    for i in range(len(y)):
        row_rho = None if weights is None else weights[i]
        single = loess_smooth(x, y[i], eval_points, 11, degree, row_rho)
        assert _hex(out[i]) == _hex(single)


def test_batched_call_rejects_mismatched_weights():
    from crowdseries.loess import loess_smooth

    x = np.arange(10, dtype=float)
    y = np.ones((2, 10))
    with pytest.raises(ValueError, match="shape of y"):
        loess_smooth(x, y, x, 5, robustness_weights=np.ones(10))
    with pytest.raises(ValueError, match="shape"):
        loess_smooth(x, np.ones((2, 2, 10)), x, 5)
