"""Nonparametric group statistics.

Implements the Shapiro-Wilk normality test following Royston's AS R94
approximation (Blom plotting positions, polynomial weight corrections,
n-dependent normalizing transforms), the Kruskal-Wallis omnibus test on
midranks with tie correction, and Dunn's post-hoc z-tests with
Bonferroni adjustment. The normal and chi-square survival functions are
closed forms over math.erfc and math.exp; the normal quantiles come
from statistics.NormalDist. Everything else is implemented here.
"""
from __future__ import annotations

import math
from dataclasses import dataclass
from statistics import NormalDist
from typing import Optional, Sequence

import numpy as np

from .errors import (
    ConstantSample,
    DegenerateData,
    InvalidDomain,
    NonFiniteData,
    SampleSizeOutOfRange,
    TooFewGroups,
    TooFewSamples,
)

# chi_square_sf applies exp(-y) in factors of this size once its sum grows
_EXP_M690 = math.exp(-690.0)


@dataclass(frozen=True)
class TestResult:
    """Outcome of a single hypothesis test."""

    method: str
    statistic: float
    p_value: float
    n: int
    df: Optional[int] = None
    tie_corrected: Optional[bool] = None

    def to_json_dict(self) -> dict:
        out = {
            "method": self.method,
            "statistic": float(self.statistic),
            "p_value": float(self.p_value),
            "n": int(self.n),
        }
        if self.df is not None:
            out["df"] = int(self.df)
        if self.tie_corrected is not None:
            out["tie_corrected"] = bool(self.tie_corrected)
        return out


@dataclass(frozen=True)
class PairwiseResult:
    """One pairwise comparison from a post-hoc procedure."""

    group_i: int
    group_j: int
    z: float
    p_value: float
    p_adjusted: float

    def to_json_dict(self) -> dict:
        return {
            "group_i": self.group_i,
            "group_j": self.group_j,
            "z": float(self.z),
            "p_value": float(self.p_value),
            "p_adjusted": float(self.p_adjusted),
        }


def normal_sf(z: float) -> float:
    """Standard normal survival function P(Z > z)."""
    return 0.5 * math.erfc(z / math.sqrt(2.0))


def chi_square_sf(x: float, df: int) -> float:
    """Chi-square survival function P(X > x) with df degrees of freedom.

    Closed forms for integer df (Abramowitz & Stegun 26.4.4-26.4.5), with
    y = x/2: exp(-y) sum_{r < df/2} y^r / r! for even df, and
    erfc(sqrt(y)) + 2 sqrt(y/pi) exp(-y) sum_{r < (df-1)/2} y^r / (3/2)_r
    for odd df. exp(-y) is applied in factors of exp(-690): early
    whenever the partial sum passes 1e300, the rest after the sum, so no
    intermediate overflows and only a result below the double range
    underflows to 0.
    """
    if not (isinstance(df, (int, np.integer)) and df >= 1):
        raise InvalidDomain(f"df must be a positive integer, got {df!r}")
    if not (isinstance(x, (int, float)) and math.isfinite(x) and x >= 0):
        raise InvalidDomain(f"statistic must be finite and >= 0, got {x!r}")
    y = 0.5 * x
    odd = int(df) % 2
    total, term, exponent = 0.0, 1.0, -y
    for r in range(int(df) // 2):
        if r:
            term *= y / (r + 0.5 * odd)
        total += term
        if total > 1e300:
            total *= _EXP_M690
            term *= _EXP_M690
            exponent += 690.0
    while exponent < -690.0:
        total *= _EXP_M690
        exponent += 690.0
    series = total * math.exp(exponent)
    if not odd:
        return series
    return math.erfc(math.sqrt(y)) + 2.0 * math.sqrt(y / math.pi) * series


def _midranks(values: np.ndarray) -> tuple[np.ndarray, list[int]]:
    """Ranks 1..n with ties sharing their average rank.

    Returns:
        (ranks, tie_group_sizes) where tie sizes include only groups
        of 2 or more.
    """
    n = values.size
    order = np.argsort(values, kind="stable")
    ranks = np.empty(n, dtype=np.float64)
    ties: list[int] = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and values[order[j + 1]] == values[order[i]]:
            j += 1
        ranks[order[i : j + 1]] = (i + j) / 2.0 + 1.0
        if j > i:
            ties.append(j - i + 1)
        i = j + 1
    return ranks, ties


def shapiro_wilk(sample) -> TestResult:
    """Shapiro-Wilk W test of normality, 3 <= n <= 5000.

    The weight vector uses Blom scores m_i = Phi^-1((i-3/8)/(n+1/4)),
    from statistics.NormalDist.inv_cdf (Wichura 1988, AS241),
    the two largest weights (one for n <= 5) replaced by fifth-order
    polynomials in 1/sqrt(n), and the remainder rescaled so the weights
    stay normalized. n = 3 uses the exact weights (-sqrt(1/2), 0,
    sqrt(1/2)) and an exact arcsine p-value; larger n map W through
    Royston's log-normal transforms.

    Raises:
        SampleSizeOutOfRange: n outside [3, 5000].
        ConstantSample: all observations identical.
    """
    x = np.sort(np.asarray(sample, dtype=np.float64).ravel())
    n = x.size
    if not np.all(np.isfinite(x)):
        raise NonFiniteData("sample contains non-finite values")
    if n < 3 or n > 5000:
        raise SampleSizeOutOfRange(f"Shapiro-Wilk needs 3 <= n <= 5000, got {n}")
    if x[0] == x[-1]:
        raise ConstantSample("all observations identical, W undefined")

    inv_cdf = NormalDist().inv_cdf
    m = np.array([inv_cdf(q) for q in (np.arange(1, n + 1) - 0.375) / (n + 0.25)])
    mm = float(m @ m)
    u = 1.0 / math.sqrt(n)
    if n == 3:
        a = np.array([-math.sqrt(0.5), 0.0, math.sqrt(0.5)])
    else:
        c = m / math.sqrt(mm)
        a_n = np.polyval(
            [-2.706056, 4.434685, -2.071190, -0.147981, 0.221157, c[-1]], u
        )
        if n <= 5:
            phi = (mm - 2.0 * m[-1] ** 2) / (1.0 - 2.0 * a_n**2)
            a = m / math.sqrt(phi)
            a[-1], a[0] = a_n, -a_n
        else:
            a_n1 = np.polyval(
                [-3.582633, 5.682633, -1.752461, -0.293762, 0.042981, c[-2]], u
            )
            phi = (mm - 2.0 * m[-1] ** 2 - 2.0 * m[-2] ** 2) / (
                1.0 - 2.0 * a_n**2 - 2.0 * a_n1**2
            )
            a = m / math.sqrt(phi)
            a[-1], a[-2], a[0], a[1] = a_n, a_n1, -a_n, -a_n1

    xc = x - x.mean()
    xc -= xc.mean()
    ssq = float(xc @ xc)
    w = float(a @ xc) ** 2 / ssq
    w = min(w, 1.0)

    if n == 3:
        p = (6.0 / math.pi) * (math.asin(math.sqrt(w)) - math.asin(math.sqrt(0.75)))
        p = min(1.0, max(0.0, p))
    elif n <= 11:
        gamma = -2.273 + 0.459 * n
        arg = gamma - (math.log1p(-w) if w < 1.0 else -math.inf)
        if arg <= 0.0:
            p = 0.0
        else:
            wt = -math.log(arg)
            mu = 0.5440 - 0.39978 * n + 0.025054 * n**2 - 0.0006714 * n**3
            sigma = math.exp(1.3822 - 0.77857 * n + 0.062767 * n**2 - 0.0020322 * n**3)
            p = normal_sf((wt - mu) / sigma)
    else:
        if w >= 1.0:
            p = 1.0
        else:
            wt = math.log1p(-w)
            ln_n = math.log(n)
            mu = 0.0038915 * ln_n**3 - 0.083751 * ln_n**2 - 0.31082 * ln_n - 1.5861
            sigma = math.exp(0.0030302 * ln_n**2 - 0.082676 * ln_n - 0.4803)
            p = normal_sf((wt - mu) / sigma)
    return TestResult(method="shapiro-wilk", statistic=w, p_value=p, n=n)


def _validate_groups(groups: Sequence) -> list[np.ndarray]:
    gs = [np.asarray(g, dtype=np.float64).ravel() for g in groups]
    if len(gs) < 2:
        raise TooFewGroups(f"need at least 2 groups, got {len(gs)}")
    for i, g in enumerate(gs):
        if g.size < 1:
            raise TooFewSamples(f"group {i} is empty")
        if not np.all(np.isfinite(g)):
            raise NonFiniteData(f"group {i} contains non-finite values")
    if sum(g.size for g in gs) < 3:
        raise TooFewSamples("need at least 3 observations in total")
    return gs


def kruskal_wallis(groups: Sequence) -> TestResult:
    """Kruskal-Wallis H test on midranks with tie correction.

    H = [12/(N(N+1))] * sum R_j^2/n_j - 3(N+1), divided by
    1 - sum(t^3 - t)/(N^3 - N) over tie groups; the p-value is the
    chi-square survival function with k-1 degrees of freedom.

    Raises:
        DegenerateData: if every observation is identical.
    """
    gs = _validate_groups(groups)
    pooled = np.concatenate(gs)
    n_total = pooled.size
    if np.all(pooled == pooled[0]):
        raise DegenerateData("all observations tied, ranks carry no information")
    ranks, ties = _midranks(pooled)
    h = 0.0
    offset = 0
    for g in gs:
        r_sum = float(ranks[offset : offset + g.size].sum())
        h += r_sum * r_sum / g.size
        offset += g.size
    h = 12.0 / (n_total * (n_total + 1.0)) * h - 3.0 * (n_total + 1.0)
    tie_sum = sum(t**3 - t for t in ties)
    h /= 1.0 - tie_sum / (n_total**3 - n_total)
    return TestResult(
        method="kruskal-wallis",
        statistic=h,
        p_value=chi_square_sf(h, len(gs) - 1),
        n=n_total,
        df=len(gs) - 1,
        tie_corrected=bool(ties),
    )


def dunn_posthoc(groups: Sequence) -> list[PairwiseResult]:
    """Dunn's pairwise z-tests on the pooled midranks.

    z_ij = (Rbar_i - Rbar_j) / sqrt([N(N+1)/12 - sum(t^3-t)/(12(N-1))]
    * (1/n_i + 1/n_j)); two-sided p-values, Bonferroni-multiplied by the
    number of pairs and capped at 1.
    """
    gs = _validate_groups(groups)
    pooled = np.concatenate(gs)
    n_total = pooled.size
    if np.all(pooled == pooled[0]):
        raise DegenerateData("all observations tied, ranks carry no information")
    ranks, ties = _midranks(pooled)
    tie_sum = sum(t**3 - t for t in ties)
    var_base = n_total * (n_total + 1.0) / 12.0 - tie_sum / (12.0 * (n_total - 1.0))
    if var_base <= 0.0:
        raise DegenerateData("rank variance is zero")
    mean_ranks = []
    offset = 0
    for g in gs:
        mean_ranks.append(float(ranks[offset : offset + g.size].mean()))
        offset += g.size
    k = len(gs)
    n_pairs = k * (k - 1) // 2
    out = []
    for i in range(k):
        for j in range(i + 1, k):
            se = math.sqrt(var_base * (1.0 / gs[i].size + 1.0 / gs[j].size))
            z = (mean_ranks[i] - mean_ranks[j]) / se
            p = 2.0 * normal_sf(abs(z))
            out.append(PairwiseResult(
                group_i=i, group_j=j, z=z, p_value=p, p_adjusted=min(1.0, p * n_pairs)
            ))
    return out
