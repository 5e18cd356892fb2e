"""Independent reference implementations the tests compare against.

Everything here is deliberately written by a different route than the
package: plain loops, itertools, cmath, closed forms. Keep this module
free of msaf imports so a bug cannot appear on both sides of a check.
"""
from __future__ import annotations

import cmath
import itertools
import json
import math

import numpy as np


# --- microstate feature metrics, brute force ---

def run_groups(states) -> list[tuple[int, int, int]]:
    """(start, stop, state) runs via itertools.groupby, stop exclusive."""
    out = []
    pos = 0
    for state, grp in itertools.groupby(int(s) for s in states):
        n = sum(1 for _ in grp)
        out.append((pos, pos + n, state))
        pos += n
    return out


def features_brute_force(
    states,
    corr,
    gfp,
    fs: float,
    k: int,
    state_labels,
    gfp_aggregate: str = "mean",
    trim_edge_runs: bool = False,
) -> dict[str, float]:
    """Per-state metric dict {label_metric: value} plus global "gfp".

    Mirrors the published metric definitions directly; exactly rounded
    sums (math.fsum) make the result independent of iteration order, so
    agreement with the package must be bit-for-bit.
    """
    states = [int(v) for v in states]
    corr = [float(v) for v in corr]
    gfp = [float(v) for v in gfp]
    t = len(states)
    duration_s = t / fs
    denom = math.fsum(g * g for g in gfp)
    runs = run_groups(states)
    if trim_edge_runs and len(runs) > 2:
        runs = runs[1:-1]

    out = {}
    for c in range(k):
        pairs = [(g, r) for s, g, r in zip(states, gfp, corr) if s == c]
        n_assigned = len(pairs)
        my_runs = [(a, b) for a, b, s in runs if s == c]
        if denom > 0.0 and n_assigned:
            gev = math.fsum((g * r) * (g * r) for g, r in pairs) / denom
        else:
            gev = 0.0
        meancorr = (
            math.fsum(r for _, r in pairs) / n_assigned if n_assigned else 0.0
        )
        occurrence = len(my_runs) / duration_s if my_runs else 0.0
        timecov = n_assigned / t if n_assigned else 0.0
        if my_runs:
            durs = [((b - a) / fs) * 1000.0 for a, b in my_runs]
            meandur = math.fsum(durs) / len(durs)
        else:
            meandur = 0.0
        label = state_labels[c]
        out[f"{label}_gev"] = gev
        out[f"{label}_meancorr"] = meancorr
        out[f"{label}_occurrence"] = occurrence
        out[f"{label}_timecov"] = timecov
        out[f"{label}_meandur"] = meandur
    if gfp_aggregate == "mean":
        out["gfp"] = math.fsum(gfp) / t
    else:
        out["gfp"] = float(np.median(np.asarray(gfp)))
    return out


# --- GFP peaks with a minimum distance, one kept peak at a time ---

def gfp_peaks_min_distance_loop(values, fs: float, min_distance_ms: float) -> list[int]:
    """Strict local maxima kept greedily by descending value (ties to the
    earlier sample), each checked against every peak kept so far."""
    v = [float(x) for x in values]
    idx = [t for t in range(1, len(v) - 1) if v[t] > v[t - 1] and v[t] > v[t + 1]]
    d_min = math.ceil(min_distance_ms * fs / 1000.0 - 1e-9)
    if d_min <= 1:
        return idx
    kept: list[int] = []
    for t in sorted(idx, key=lambda t: (-v[t], t)):
        if all(abs(t - j) >= d_min for j in kept):
            kept.append(t)
    return sorted(kept)


# --- synthetic state sequences, one Generator.choice per dwell ---

def synth_states_choice_loop(seed: int, n: int, fs: float, mean_dwell_ms, transition):
    """The states of a generated recording of n samples, each next state
    drawn with rng.choice(k, p=row) from rng = default_rng([seed])."""
    rng = np.random.default_rng([seed])
    k = len(mean_dwell_ms)
    states = np.empty(n, dtype=np.int64)
    state = int(rng.integers(k))
    t = 0
    while t < n:
        mean_samples = max(mean_dwell_ms[state] / 1000.0 * fs, 1.0)
        dwell = int(rng.geometric(min(1.0, 1.0 / mean_samples)))
        states[t:min(t + dwell, n)] = state
        rng.integers(2)  # the run's polarity
        t += dwell
        if k > 1:
            state = int(rng.choice(k, p=np.asarray(transition[state], dtype=np.float64)))
    return states


# --- backfit's short-run pass, one sample at a time ---

def run_lengths_loop(states) -> list[tuple[int, int, int]]:
    """(start, stop, state) runs by scanning for the next change, stop exclusive."""
    out = []
    start = 0
    for t in range(1, len(states) + 1):
        if t == len(states) or states[t] != states[start]:
            out.append((start, t, int(states[start])))
            start = t
    return out


def absorb_short_runs_loop(states, c, min_len: int) -> list[int]:
    """Move each sample of a run shorter than min_len to a neighbouring run's state.

    The neighbour whose state correlates better at that sample wins, the
    left one on ties; the first and last runs have one neighbour. Runs are
    taken from the sequence before any sample moves.
    """
    states = [int(s) for s in states]
    out = list(states)
    runs = run_lengths_loop(states)
    if len(runs) < 2:
        return out
    for r, (start, stop, _) in enumerate(runs):
        if stop - start >= min_len:
            continue
        left = runs[r - 1][2] if r > 0 else None
        right = runs[r + 1][2] if r + 1 < len(runs) else None
        for t in range(start, stop):
            if left is None:
                out[t] = right
            elif right is None or c[t][left] >= c[t][right]:
                out[t] = left
            else:
                out[t] = right
    return out


# --- modified k-means, one restart at a time ---

class EmptyClusterError(RuntimeError):
    """A cluster stayed empty after k reseeds."""


# Relative GEV distance under which restarts tie; the earliest tied one wins.
GEV_TIE_RTOL = 1e-12


def _dominant_eigenvector(members, start, tol=1e-10, max_iter=1000):
    """Dominant eigenvector of the members' scatter matrix, by power
    iteration from start, monotone in Rayleigh quotient."""
    s = members.T @ members
    v = start / np.linalg.norm(start)
    for _ in range(max_iter):
        w = s @ v
        norm = np.linalg.norm(w)
        if norm <= 1e-300:
            return v
        w /= norm
        if np.linalg.norm(w - v) <= tol:
            return w
        v = w
    return v


def _one_power_step(members, start):
    """normalize(sum_i (start . x_i) x_i) over the member rows x_i;
    start itself if that sum vanishes."""
    w = (members @ start) @ members
    norm = np.linalg.norm(w)
    return w / norm if norm > 0.0 else start


def modified_kmeans_loop(
    peak_maps, k, n_inits=20, max_iter=200, tol=1e-8, seed=0, update=_one_power_step
) -> dict:
    """Polarity-invariant modified k-means, restarts run one after another.

    Restart r starts from k distinct usable rows drawn with
    default_rng([seed, r]); each iteration assigns rows by the largest
    squared projection, refills an empty cluster from the worst-explained
    usable row (at most k times), replaces each map by update(members,
    map), by default one power step on the members' scatter, and stops the
    restart once the GEV gains less than tol.

    Returns a dict with the winning restart's raw maps ("maps", polarity
    not normalized), "winner", the final GEV of every restart
    ("restart_gev") and the trace rows ("trace", restart-major).
    """
    x = np.asarray(peak_maps, dtype=np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(xc, axis=1)
    total_power = float(norms @ norms)
    scale = max(1.0, float(np.max(np.abs(x))))
    valid = np.nonzero(norms > 1e-12 * scale)[0]
    restart_maps, restart_gev, trace = [], [], []
    for restart in range(n_inits):
        rng = np.random.default_rng([seed, restart])
        init = rng.choice(valid, size=k, replace=False)
        maps = xc[init] / norms[init, np.newaxis]
        prev = -np.inf
        for iteration in range(1, max_iter + 1):
            proj = xc @ maps.T
            states = np.argmax(proj * proj, axis=1)
            for attempt in range(k + 1):
                counts = np.bincount(states, minlength=k)
                empties = np.nonzero(counts == 0)[0]
                if empties.size == 0:
                    break
                if attempt == k:
                    raise EmptyClusterError(
                        f"cluster went empty and {k} reseeds did not recover"
                    )
                explained = np.full(x.shape[0], np.inf)
                assigned = proj[np.arange(x.shape[0]), states] ** 2
                explained[valid] = assigned[valid] / (norms[valid] ** 2)
                maps[empties[0]] = xc[explained.argmin()] / norms[explained.argmin()]
                proj = xc @ maps.T
                states = np.argmax(proj * proj, axis=1)
            for c in range(k):
                maps[c] = update(xc[states == c], maps[c])
            proj = xc @ maps.T
            gev_now = float(np.max(proj * proj, axis=1).sum() / total_power)
            trace.append({"restart": restart, "iteration": iteration, "gev": gev_now})
            if gev_now - prev < tol:
                break
            prev = gev_now
        restart_maps.append(maps.copy())
        restart_gev.append(gev_now)
    best = max(restart_gev)
    winner = next(
        r for r, g in enumerate(restart_gev) if g >= best - GEV_TIE_RTOL * abs(best)
    )
    return {
        "maps": restart_maps[winner],
        "winner": winner,
        "restart_gev": restart_gev,
        "trace": trace,
    }


def modified_kmeans_eigen_loop(
    peak_maps, k, n_inits=20, max_iter=200, tol=1e-8, seed=0
) -> dict:
    """modified_kmeans_loop with the classic update of Pascual-Marqui et
    al. (1995): each map becomes the dominant eigenvector of its members'
    scatter matrix (power iteration from the previous map to a 1e-10 step)."""
    return modified_kmeans_loop(
        peak_maps, k, n_inits, max_iter, tol, seed, update=_dominant_eigenvector
    )


def _assign_states(maps, xt):
    """Signed projection on the best map and that map's index, per restart and
    sample; ties go to the lower map index."""
    r, k, n_ch = maps.shape
    proj = (maps.reshape(r * k, n_ch) @ xt).reshape(r, k, -1)
    sq = proj * proj
    best = sq[:, 0].copy()
    states = np.zeros(best.shape, dtype=np.intp)
    for c in range(1, k):
        states += (sq[:, c] > best) * (c - states)
        np.maximum(best, sq[:, c], out=best)
    return np.take_along_axis(proj, states[:, np.newaxis], axis=1)[:, 0], states


def _reseed_states(maps, proj, states, xc, norms, valid):
    k = maps.shape[0]
    rows = np.arange(xc.shape[0])
    for attempt in range(k + 1):
        empties = np.nonzero(np.bincount(states, minlength=k) == 0)[0]
        if empties.size == 0:
            return proj, states
        if attempt == k:
            raise EmptyClusterError(f"cluster went empty and {k} reseeds did not recover")
        explained = np.full(xc.shape[0], np.inf)
        explained[valid] = proj[valid] ** 2 / (norms[valid] ** 2)
        worst = explained.argmin()
        maps[empties[0]] = xc[worst] / norms[worst]
        all_proj = xc @ maps.T
        states = np.argmax(all_proj * all_proj, axis=1)
        proj = all_proj[rows, states]


def modified_kmeans_state_batch(peak_maps, k, n_inits=20, max_iter=200, tol=1e-8, seed=0):
    """Batched modified k-means on integer states: the restarts advance together,
    each sample's best-map index is found by a select loop, and the power step
    scatters the signed projections into a zeroed (restarts * k, n) weight
    matrix by state index.

    Returns the finished maps ("maps": polarity normalized, average
    referenced, unit norm), "gev_total" and the trace rows ("trace",
    restart-major).
    """
    x = np.asarray(peak_maps, dtype=np.float64)
    xc = x - x.mean(axis=1, keepdims=True)
    norms = np.linalg.norm(xc, axis=1)
    total_power = float(norms @ norms)
    valid = np.nonzero(norms > 1e-12 * max(1.0, float(np.max(np.abs(x)))))[0]
    n, n_ch = x.shape
    maps = np.empty((n_inits, k, n_ch))
    for restart in range(n_inits):
        init = np.random.default_rng([seed, restart]).choice(valid, size=k, replace=False)
        maps[restart] = xc[init] / norms[init, np.newaxis]
    xt = np.ascontiguousarray(xc.T)
    sample = np.arange(n)
    active = np.arange(n_inits)
    proj, states = _assign_states(maps, xt)
    prev = np.full(n_inits, -np.inf)
    gevs = [[] for _ in range(n_inits)]
    for _ in range(max_iter):
        a = active.size
        offsets = k * np.arange(a)[:, np.newaxis]
        counts = np.bincount((states + offsets).ravel(), minlength=a * k)
        for j in np.nonzero((counts.reshape(a, k) == 0).any(axis=1))[0]:
            proj[j], states[j] = _reseed_states(
                maps[active[j]], proj[j], states[j], xc, norms, valid
            )
        weights = np.zeros((a * k, n))
        weights[states + offsets, sample] = proj
        step = weights @ xc
        step_norm = np.linalg.norm(step, axis=1)
        moved = step_norm > 0.0
        flat = maps[active].reshape(a * k, n_ch)
        flat[moved] = step[moved] / step_norm[moved, np.newaxis]
        maps[active] = flat.reshape(a, k, n_ch)
        proj, states = _assign_states(maps[active], xt)
        gev_now = (proj * proj).sum(axis=1) / total_power
        for r, g in zip(active, gev_now):
            gevs[r].append(float(g))
        going = ~(gev_now - prev[active] < tol)
        prev[active] = gev_now
        if not going.all():
            active, proj, states = active[going], proj[going], states[going]
            if active.size == 0:
                break
    trace = [{"restart": r, "iteration": i, "gev": g}
             for r, rows in enumerate(gevs) for i, g in enumerate(rows, start=1)]
    final = np.array([rows[-1] for rows in gevs])
    top = final.max()
    winner = int(np.nonzero(final >= top - GEV_TIE_RTOL * abs(top))[0][0])
    best = maps[winner].copy()
    for row in best:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    best -= best.mean(axis=1, keepdims=True)
    best /= np.linalg.norm(best, axis=1, keepdims=True)
    return {"maps": best, "gev_total": float(final[winner]), "trace": trace}


# --- FIR frequency response, direct DTFT ---

def dtft_magnitude(taps, fs: float, freq: float) -> float:
    """|H(f)| = |sum_n h[n] e^{-2 pi i f n / fs}| by a plain loop."""
    acc = 0j
    for n, h in enumerate(taps):
        acc += float(h) * cmath.exp(-2j * cmath.pi * freq * n / fs)
    return abs(acc)


def db(ratio: float) -> float:
    return 20.0 * math.log10(ratio)


# --- classification metrics by hand ---

def macro_f1_by_hand(y_true, y_pred) -> float:
    """Macro F1 from counting dicts; absent class gets F1 = 0."""
    labels = sorted(set(y_true) | set(y_pred))
    f1s = []
    for c in labels:
        tp = sum(1 for t, p in zip(y_true, y_pred) if t == c and p == c)
        fp = sum(1 for t, p in zip(y_true, y_pred) if t != c and p == c)
        fn = sum(1 for t, p in zip(y_true, y_pred) if t == c and p != c)
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return sum(f1s) / len(f1s)


def accuracy_by_hand(y_true, y_pred) -> float:
    return sum(1 for t, p in zip(y_true, y_pred) if t == p) / len(y_true)


# --- XOR RBF-SVM dual solution in closed form ---

def xor_alpha_star(gamma: float) -> float:
    """Optimal dual variable for the symmetric XOR problem.

    Points (+-1, +-1) with label +1 on the main diagonal. By symmetry
    all four alphas are equal; stationarity of the dual gives
    alpha = 1 / (1 - e^{-4 gamma})^2, valid whenever C >= alpha.
    Decision values at the training points are then exactly +-1 and the
    bias is 0.
    """
    return 1.0 / (1.0 - math.exp(-4.0 * gamma)) ** 2


XOR_X = [(1.0, 1.0), (-1.0, -1.0), (1.0, -1.0), (-1.0, 1.0)]
XOR_Y = [1, 1, 0, 0]


# --- statistics closed forms and brute force ---

def chi2_sf_df2(x: float) -> float:
    """Survival function of chi-square with 2 dof: e^{-x/2}."""
    return math.exp(-x / 2.0)


def mann_whitney_z(a, b) -> float:
    """Standardized U by direct pairwise counting (no tie handling)."""
    n1, n2 = len(a), len(b)
    u = 0.0
    for x in a:
        for y in b:
            if x > y:
                u += 1.0
            elif x == y:
                u += 0.5
    mean_u = n1 * n2 / 2.0
    sd_u = math.sqrt(n1 * n2 * (n1 + n2 + 1) / 12.0)
    return (u - mean_u) / sd_u


def kw_h_by_ranks(*groups) -> float:
    """Kruskal-Wallis H from hand-assigned midranks (ties allowed)."""
    pooled = sorted((v, gi) for gi, g in enumerate(groups) for v in g)
    n = len(pooled)
    ranks = [0.0] * n
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1][0] == pooled[i][0]:
            j += 1
        mid = (i + j) / 2.0 + 1.0
        for t in range(i, j + 1):
            ranks[t] = mid
        i = j + 1
    sums = [0.0] * len(groups)
    counts = [0] * len(groups)
    for r, (_, gi) in zip(ranks, pooled):
        sums[gi] += r
        counts[gi] += 1
    h = 12.0 / (n * (n + 1)) * sum(
        s * s / c for s, c in zip(sums, counts)
    ) - 3.0 * (n + 1)
    tie_sizes = []
    i = 0
    while i < n:
        j = i
        while j + 1 < n and pooled[j + 1][0] == pooled[i][0]:
            j += 1
        if j > i:
            tie_sizes.append(j - i + 1)
        i = j + 1
    if tie_sizes:
        correction = 1.0 - sum(t ** 3 - t for t in tie_sizes) / (n ** 3 - n)
        h /= correction
    return h


# --- Shapley values by permutation averaging ---

def shapley_by_permutations(score_fn, x_row, background) -> tuple[np.ndarray, np.ndarray]:
    """Average marginal contribution over all d! feature orderings.

    The coalition value is the interventional expectation: features in
    the coalition come from x_row, the rest from each background row in
    turn, scores averaged over the background. Returns (phi (d, C),
    phi0 (C,)). Only sensible for small d.
    """
    x_row = np.asarray(x_row, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    d = x_row.size

    cache: dict[frozenset, np.ndarray] = {}

    def value(coalition: frozenset) -> np.ndarray:
        if coalition not in cache:
            rows = []
            for brow in background:
                z = brow.copy()
                for i in coalition:
                    z[i] = x_row[i]
                rows.append(z)
            scores = np.asarray(score_fn(np.asarray(rows)), dtype=np.float64)
            if scores.ndim == 1:
                scores = scores[:, None]
            cache[coalition] = scores.mean(axis=0)
        return cache[coalition]

    phi0 = value(frozenset())
    phi = np.zeros((d, phi0.size))
    n_perm = 0
    for perm in itertools.permutations(range(d)):
        n_perm += 1
        seen: set = set()
        for i in perm:
            before = value(frozenset(seen))
            seen.add(i)
            after = value(frozenset(seen))
            phi[i] += after - before
    phi /= n_perm
    return phi, phi0


def exact_shapley_dense(value_fn, d: int) -> tuple[np.ndarray, np.ndarray]:
    """Exact Shapley values from the whole (2^d, d) int64 coalition matrix.

    The package's exact enumeration as it was before it generated its
    coalitions per chunk: value_fn maps that matrix to the (2^d, C)
    coalition values. Returns (phi (d, C), phi0 (C,)).
    """
    n_masks = 1 << d
    bits = (np.arange(n_masks)[:, np.newaxis] >> np.arange(d)) & 1
    v = value_fn(bits)
    popcount = bits.sum(axis=1)
    weights = np.array(
        [
            math.factorial(s) * math.factorial(d - s - 1) / math.factorial(d)
            for s in range(d)
        ]
    )
    phi = np.zeros((d, v.shape[1]))
    masks = np.arange(n_masks)
    for i in range(d):
        without = (masks & (1 << i)) == 0
        idx = masks[without]
        w = weights[popcount[idx]]
        phi[i] = (v[idx | (1 << i)] - v[idx]).T @ w
    return phi, v[0].copy()


# --- tree ensembles, one split position and one row at a time ---
#
# Trees are the flat dicts of model.json: node i splits on feature[i] at
# threshold[i] into nodes left[i] and right[i], or is a leaf (left[i] == -1)
# whose value[i] is a weight (boosting) or class counts (forest). Node 0 is
# the root, and a row goes left when x[feature] <= threshold.

def _newton_score(g_sum, h_sum, lam):
    return g_sum * g_sum / max(h_sum + lam, 1e-12)


def gbt_node_loop(x, g, h, rows, depth, max_depth, lam, gamma_leaf, cache=None):
    """(leaf weight, feature, threshold) of a Newton regression tree node, one cut at a time.

    cache, the fit's node cache, is ignored: every node is sorted afresh.

    Features in order, cuts in sorted order (stable argsort), skipping
    cuts between equal values; a cut wins when its gain beats the best
    so far by more than 1e-15, and its threshold is the midpoint. No cut
    wins: feature -1, threshold 0.0, a leaf.
    """
    g_total = float(g[rows].sum())
    h_total = float(h[rows].sum())
    weight = -g_total / max(h_total + lam, 1e-12)
    if depth >= max_depth or rows.size < 2:
        return weight, -1, 0.0
    parent_term = _newton_score(g_total, h_total, lam)
    best_gain, best_feature, best_threshold = 0.0, -1, 0.0
    for f in range(x.shape[1]):
        vals = x[rows, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sg = g[rows][order]
        sh = h[rows][order]
        gl = hl = 0.0
        for pos in range(rows.size - 1):
            gl += float(sg[pos])
            hl += float(sh[pos])
            if sv[pos + 1] == sv[pos]:
                continue
            gain = 0.5 * (
                _newton_score(gl, hl, lam)
                + _newton_score(g_total - gl, h_total - hl, lam)
                - parent_term
            ) - gamma_leaf
            if gain > best_gain + 1e-15:
                best_gain, best_feature = gain, int(f)
                best_threshold = float((sv[pos] + sv[pos + 1]) / 2.0)
    return weight, best_feature, best_threshold


def _gini_loop(counts) -> float:
    n = counts.sum()
    if n <= 0:
        return 0.0
    p = counts / n
    return float(1.0 - p @ p)


def rf_best_split_loop(x, y_idx, rows, n_classes, mtry, rng):
    """(gain, feature, threshold) of the best Gini cut, one cut at a time.

    Draws the feature subset from rng as the forest does, then scans
    features in sorted order with running class counts, keeping the
    first cut whose gain beats the best so far by more than 1e-15.
    """
    d = x.shape[1]
    feats = np.sort(rng.choice(d, size=mtry, replace=False))
    parent_counts = np.bincount(y_idx[rows], minlength=n_classes).astype(np.float64)
    n = rows.size
    parent_impurity = _gini_loop(parent_counts)
    best = (0.0, -1, 0.0)
    for f in feats:
        vals = x[rows, f]
        order = np.argsort(vals, kind="stable")
        sv = vals[order]
        sy = y_idx[rows][order]
        left = np.zeros(n_classes)
        right = parent_counts.copy()
        for pos in range(n - 1):
            left[sy[pos]] += 1.0
            right[sy[pos]] -= 1.0
            if sv[pos + 1] == sv[pos]:
                continue
            n_left = pos + 1
            gain = parent_impurity - (
                n_left * _gini_loop(left) + (n - n_left) * _gini_loop(right)
            ) / n
            if gain > best[0] + 1e-15:
                best = (gain, int(f), float((sv[pos] + sv[pos + 1]) / 2.0))
    return best


def leaf_of(tree: dict, row):
    """The value of the leaf a row reaches."""
    i = 0
    while tree["left"][i] >= 0:
        go_left = row[tree["feature"][i]] <= tree["threshold"][i]
        i = tree["left"][i] if go_left else tree["right"][i]
    return tree["value"][i]


def ensemble_scores_loop(model_doc: dict, x) -> np.ndarray:
    """Forest class scores or boosted margins, row by row, tree by tree."""
    x = np.asarray(x, dtype=np.float64)
    n_classes = len(model_doc["classes"])
    out = np.zeros((x.shape[0], n_classes))
    for i, row in enumerate(x):
        if model_doc["kind"] == "rf":
            for tree in model_doc["trees"]:
                counts = np.asarray(leaf_of(tree, row), dtype=np.float64)
                if counts.sum() > 0:
                    out[i] += counts / counts.sum()
            out[i] /= len(model_doc["trees"])
        else:
            out[i] = model_doc["base_scores"]
            for round_trees in model_doc["trees"]:
                for c, tree in enumerate(round_trees):
                    out[i, c] += model_doc["learning_rate"] * leaf_of(tree, row)
    return out


def _leaf_boxes(tree: dict, i: int, bounds: dict, out: list) -> None:
    """(features, lo, hi, leaf value) for every reachable leaf below node i: lo < x[f] <= hi."""
    if tree["left"][i] < 0:
        feats = sorted(bounds)
        out.append((np.array(feats, dtype=np.int64),
                    np.array([bounds[f][0] for f in feats]),
                    np.array([bounds[f][1] for f in feats]), tree["value"][i]))
        return
    f, t = tree["feature"][i], tree["threshold"][i]
    lo, hi = bounds.get(f, (-np.inf, np.inf))
    for child, box in ((tree["left"][i], (lo, min(hi, t))), (tree["right"][i], (max(lo, t), hi))):
        if box[0] < box[1]:
            _leaf_boxes(tree, child, {**bounds, f: box}, out)


def tree_shap_loop(model_doc: dict, x_row, background) -> tuple[np.ndarray, np.ndarray]:
    """Interventional TreeSHAP of one row from model.json, leaf by leaf.

    For each leaf and background row b, the leaf's value is reached by a
    coalition S exactly when every path feature in S passes on x_row and
    every one outside passes on b. With a features passing only on x_row
    and c only on b (the rest on both), the Shapley weight of such an
    AND game is (a-1)! c! / (a+c)! for each of the a features and minus
    a! (c-1)! / (a+c)! for each of the c features. Returns (phi (d, C),
    phi0 (C,)).
    """
    x_row = np.asarray(x_row, dtype=np.float64)
    background = np.asarray(background, dtype=np.float64)
    n_classes = len(model_doc["classes"])
    if model_doc["kind"] == "rf":
        n_trees = len(model_doc["trees"])
        trees = [(t, None) for t in model_doc["trees"]]
        phi0 = np.zeros(n_classes)
    else:
        trees = [(t, c) for row in model_doc["trees"] for c, t in enumerate(row)]
        phi0 = np.asarray(model_doc["base_scores"], dtype=np.float64).copy()
    phi = np.zeros((x_row.size, n_classes))
    b_count = background.shape[0]
    for tree, cls in trees:
        leaves: list = []
        _leaf_boxes(tree, 0, {}, leaves)
        for feats, lo, hi, leaf in leaves:
            if cls is None:
                counts = np.asarray(leaf, dtype=np.float64)
                value = counts / counts.sum() / n_trees if counts.sum() > 0 else 0 * counts
            else:
                value = np.zeros(n_classes)
                value[cls] = model_doc["learning_rate"] * leaf
            x_ok = [lo[j] < x_row[f] <= hi[j] for j, f in enumerate(feats)]
            for brow in background:
                b_ok = [lo[j] < brow[f] <= hi[j] for j, f in enumerate(feats)]
                if not all(xo or bo for xo, bo in zip(x_ok, b_ok)):
                    continue
                a = sum(xo and not bo for xo, bo in zip(x_ok, b_ok))
                c = sum(bo and not xo for xo, bo in zip(x_ok, b_ok))
                if a == 0:
                    phi0 += value / b_count
                for j, f in enumerate(feats):
                    if x_ok[j] and not b_ok[j]:
                        w = math.factorial(a - 1) * math.factorial(c) / math.factorial(a + c)
                        phi[f] += w * value / b_count
                    elif b_ok[j] and not x_ok[j]:
                        w = math.factorial(a) * math.factorial(c - 1) / math.factorial(a + c)
                        phi[f] -= w * value / b_count
    return phi, phi0


def tree_shap_per_leaf(model, x, background) -> tuple[np.ndarray, np.ndarray]:
    """Batched interventional TreeSHAP with every leaf's box weighed afresh.

    msaf's `_tree_shap` as it was before boxes were shared between
    leaves: the same leaf tables and weight tables, one pass per leaf, in
    leaf order. Returns (phi (n, d, C), phi0 (C,)).
    """
    from msaf.explain import _factorial_tables, _model_leaf_tables

    leaves, offset = _model_leaf_tables(model)
    n = x.shape[0]
    b = background.shape[0]
    max_path = max((len(leaf[0]) for leaf in leaves), default=1)
    w_in, w_out = _factorial_tables(max(max_path, 1))
    phi = np.zeros((n, model.n_features, len(model.classes)))
    phi0 = np.zeros(len(model.classes))
    for feats, lo, hi, value in leaves:
        if feats.size == 0:
            phi0 += value
            continue
        bf = background[:, feats].T
        b_ok = (bf > lo[:, np.newaxis]) & (bf <= hi[:, np.newaxis])
        n_base = int(b_ok.all(axis=0).sum())
        if n_base:
            phi0 += value * (n_base / b)
        xf = x[:, feats]
        x_ok = ((xf > lo) & (xf <= hi))[:, :, np.newaxis]
        alive = ~np.any(~x_ok & ~b_ok, axis=1)
        if not alive.any():
            continue
        in_mask = x_ok & ~b_ok
        out_mask = ~x_ok & b_ok
        a_count = in_mask.sum(axis=1)
        c_count = out_mask.sum(axis=1)
        win_rows = np.where(alive, w_in[a_count, c_count], 0.0)
        wout_rows = np.where(alive, w_out[a_count, c_count], 0.0)
        in_total = np.matmul(in_mask.astype(np.float64), win_rows[:, :, np.newaxis])
        out_total = np.matmul(out_mask.astype(np.float64), wout_rows[:, :, np.newaxis])
        phi[:, feats] += (in_total - out_total) / b * value
    phi0 += offset
    return phi, phi0


# --- framed files (.eegb, .seg), taken apart by hand ---

def with_header(blob: bytes, edit) -> bytes:
    """blob, a framed file's bytes, with its header replaced by edit(header).

    The frame is 8 magic bytes, the header length as a little-endian
    uint32, the JSON header, then the payload. edit takes the header as a
    dict and returns a dict, written as compact sorted-key JSON, or raw
    bytes.
    """
    n = int.from_bytes(blob[8:12], "little")
    header = edit(json.loads(blob[12:12 + n]))
    if isinstance(header, dict):
        header = json.dumps(header, sort_keys=True, separators=(",", ":")).encode()
    return blob[:8] + len(header).to_bytes(4, "little") + header + blob[12 + n:]
