"""Hypothesis tests against closed forms, hand ranks, and frozen
reference values (cross-checked once against an independent stack)."""
import math

import numpy as np
import pytest

import msaf.stats

from msaf import (
    ConstantSample,
    DegenerateData,
    SampleSizeOutOfRange,
    TooFewGroups,
    chi_square_sf,
    dunn_posthoc,
    kruskal_wallis,
    normal_sf,
    shapiro_wilk,
)

from oracles import chi2_sf_df2, kw_h_by_ranks, mann_whitney_z


def test_kruskal_wallis_textbook_example():
    res = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    assert res.statistic == pytest.approx(7.2, abs=1e-12)
    assert res.p_value == pytest.approx(math.exp(-3.6), abs=1e-9)
    assert res.df == 2
    assert res.tie_corrected is False


def test_kruskal_wallis_matches_rank_oracle():
    rng = np.random.default_rng(0)
    for _ in range(30):
        k = int(rng.integers(2, 5))
        groups = [rng.normal(gi * 0.4, 1.0, int(rng.integers(4, 12)))
                  for gi in range(k)]
        if rng.random() < 0.4:  # force ties sometimes
            groups = [np.round(g, 1) for g in groups]
        res = kruskal_wallis(groups)
        assert res.statistic == pytest.approx(
            kw_h_by_ranks(*[list(g) for g in groups]), abs=1e-10)


def test_kruskal_wallis_two_groups_equals_mw_z_squared():
    rng = np.random.default_rng(1)
    for _ in range(50):
        a = rng.standard_normal(int(rng.integers(4, 15)))
        b = rng.standard_normal(int(rng.integers(4, 15))) + 0.3
        res = kruskal_wallis([a, b])
        z = mann_whitney_z(list(a), list(b))
        assert res.statistic == pytest.approx(z * z, abs=1e-9)


def test_kruskal_wallis_errors():
    with pytest.raises(TooFewGroups):
        kruskal_wallis([[1.0, 2.0]])
    with pytest.raises(DegenerateData):
        kruskal_wallis([[3.0, 3.0], [3.0, 3.0]])


def test_chi_square_sf_df2_closed_form():
    for x in (0.5, 1.0, 3.6, 7.2, 20.0):
        assert chi_square_sf(x, 2) == pytest.approx(chi2_sf_df2(x), rel=1e-12)


def test_normal_sf_symmetry():
    assert normal_sf(0.0) == pytest.approx(0.5, abs=1e-12)
    for z in (0.5, 1.0, 1.96, 3.0):
        assert normal_sf(z) + normal_sf(-z) == pytest.approx(1.0, abs=1e-12)


def test_tail_functions_against_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    for z in (-3.0, -0.7, 0.0, 0.5, 1.96, 4.2):
        want = float(mp.erfc(mp.mpf(z) / mp.sqrt(2)) / 2)
        assert normal_sf(z) == pytest.approx(want, rel=1e-12, abs=1e-15)
    for x, df in ((0.5, 1), (3.6, 2), (7.2, 2), (11.07, 5), (30.0, 10)):
        want = float(
            mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, mp.inf)
            / mp.gamma(mp.mpf(df) / 2)
        )
        assert chi_square_sf(x, df) == pytest.approx(want, rel=1e-10)


def test_chi_square_sf_against_mpmath_gammainc():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    rng = np.random.default_rng(9)
    xs = [0.0, 1e-300, 1e-8, 0.3, 1.0, 3.6, 7.2, 42.0, 300.0, 999.5, 1000.0]
    xs += list(rng.uniform(0.0, 1000.0, 12))
    worst = 0.0
    for df in range(1, 61):
        for x in xs:
            want = float(mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, regularized=True))
            worst = max(worst, abs(chi_square_sf(float(x), df) - want) / want)
    assert worst <= 1e-13, worst


def test_chi_square_sf_underflow_and_large_df():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 40
    # the true tail is below the smallest double: exactly 0.0, never NaN
    for x, df in ((1e4, 1), (1e4, 2), (1e4, 60), (1e6, 7), (2000.0, 3)):
        assert chi_square_sf(x, df) == 0.0
    # exp(-x/2) alone underflows or the partial sums pass the double range,
    # the tail does not
    for x, df in ((1600.0, 60), (2000.0, 2000), (3000.0, 2001), (5000.0, 4000)):
        want = float(mp.gammainc(mp.mpf(df) / 2, mp.mpf(x) / 2, regularized=True))
        assert chi_square_sf(x, df) == pytest.approx(want, rel=1e-11)


def test_shapiro_wilk_equals_scipy_ndtri_blom_scores(monkeypatch):
    ndtri = pytest.importorskip("scipy.special").ndtri

    class NdtriNormal:
        inv_cdf = staticmethod(lambda q: float(ndtri(q)))

    rng = np.random.default_rng(10)
    samples = [rng.standard_normal(n) for n in (3, 4, 5, 6, 11, 12, 50, 400, 5000)]
    samples += [rng.exponential(size=n) for n in (8, 30, 300)]
    ours = [shapiro_wilk(x) for x in samples]
    monkeypatch.setattr(msaf.stats, "NormalDist", NdtriNormal)
    for x, a in zip(samples, ours):
        b = shapiro_wilk(x)
        assert a.statistic == pytest.approx(b.statistic, rel=1e-12, abs=0)
        assert a.p_value == pytest.approx(b.p_value, rel=1e-12, abs=1e-300)


def test_shapiro_wilk_n3_exact():
    res = shapiro_wilk([1.0, 2.0, 3.0])
    assert res.statistic == pytest.approx(1.0, abs=1e-9)
    res2 = shapiro_wilk([1.0, 1.0, 2.0])
    assert res2.statistic == pytest.approx(0.75, abs=1e-9)


def test_shapiro_wilk_frozen_references():
    # reference W and p computed once on an independent implementation
    x1 = [2.1, 3.4, 1.9, 5.6, 3.3, 4.8, 2.2, 3.9, 4.1, 2.7, 3.0, 5.1]
    r1 = shapiro_wilk(x1)
    assert r1.statistic == pytest.approx(0.9514677965292793, abs=2e-9)
    assert r1.p_value == pytest.approx(0.65853397468791, abs=5e-8)
    x2 = [0.1, 0.2, 0.15, 0.3, 8.0, 9.5, 0.25, 0.18, 7.7,
          0.22, 0.12, 0.28, 8.8, 0.19]
    r2 = shapiro_wilk(x2)
    assert r2.statistic == pytest.approx(0.6218090996251681, abs=2e-9)
    assert r2.p_value == pytest.approx(6.38897459641128e-05, abs=1e-9)
    assert r2.p_value < 0.05 < r1.p_value


def _shapiro_w_mpmath(mp, sample):
    """Royston's W with every step in 50-digit arithmetic."""
    mp.mp.dps = 50
    x = sorted(mp.mpf(float(v)) for v in sample)
    n = len(x)
    assert 4 <= n <= 5
    m = [mp.sqrt(2) * mp.erfinv(2 * (i - mp.mpf(3) / 8) / (n + mp.mpf(1) / 4) - 1)
         for i in range(1, n + 1)]
    mm = mp.fsum(v * v for v in m)
    coef = [mp.mpf(c) for c in (-2.706056, 4.434685, -2.071190, -0.147981, 0.221157)]
    a_n = mp.polyval(coef + [m[-1] / mp.sqrt(mm)], 1 / mp.sqrt(n))
    a = [v / mp.sqrt((mm - 2 * m[-1] ** 2) / (1 - 2 * a_n ** 2)) for v in m]
    a[0], a[-1] = -a_n, a_n
    mean = mp.fsum(x) / n
    xc = [v - mean for v in x]
    return mp.fsum(ai * vi for ai, vi in zip(a, xc)) ** 2 / mp.fsum(v * v for v in xc)


def test_shapiro_wilk_nearly_constant_group_against_mpmath():
    # n = 4 groups of a *_meancorr feature spread over 0.9453-0.9468: summing
    # the weights against the uncentered values cancels about three digits
    mp = pytest.importorskip("mpmath")
    for sample in ([0.9453, 0.9461, 0.9464, 0.9468],
                   [0.94531, 0.94577, 0.94612, 0.94679],
                   [0.9468, 0.9453, 0.94555, 0.94661]):
        want = float(_shapiro_w_mpmath(mp, sample))
        assert shapiro_wilk(sample).statistic == pytest.approx(want, rel=1e-14, abs=0)


def test_shapiro_wilk_bounds_and_errors():
    rng = np.random.default_rng(2)
    for n in (3, 10, 50, 200):
        res = shapiro_wilk(rng.standard_normal(n))
        assert 0.0 < res.statistic <= 1.0
        assert 0.0 <= res.p_value <= 1.0
    with pytest.raises(SampleSizeOutOfRange):
        shapiro_wilk([1.0, 2.0])
    with pytest.raises(ConstantSample):
        shapiro_wilk([5.0] * 10)


def test_dunn_bonferroni_bounds_and_sign():
    rng = np.random.default_rng(3)
    for _ in range(100):
        k = int(rng.integers(2, 5))
        groups = [rng.normal(gi, 1.0, int(rng.integers(4, 10)))
                  for gi in range(k)]
        pairs = dunn_posthoc(groups)
        assert len(pairs) == k * (k - 1) // 2
        m = len(pairs)
        for p in pairs:
            assert p.p_value <= p.p_adjusted <= 1.0 + 1e-15
            assert p.p_adjusted == pytest.approx(
                min(1.0, p.p_value * m), abs=1e-12)
    # group means increase with index, so z for (0, k-1) is negative
    groups = [[1.0, 2.0, 3.0], [4.0, 5.0, 6.0], [7.0, 8.0, 9.0]]
    pairs = {(p.group_i, p.group_j): p for p in dunn_posthoc(groups)}
    assert pairs[(0, 2)].z < pairs[(0, 1)].z < 0


def test_results_serialize():
    res = kruskal_wallis([[1, 2, 3], [4, 5, 6]])
    d = res.to_json_dict()
    assert d["method"] == res.method
    assert d["statistic"] == res.statistic
    pw = dunn_posthoc([[1.0, 2.0, 3.0], [4.0, 5.0, 6.0]])[0]
    assert pw.to_json_dict()["group_j"] == 1
