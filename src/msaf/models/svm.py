"""RBF-kernel support vector classifier trained by SMO.

The dual problem for each one-vs-rest machine is solved with sequential
minimal optimization using maximal-violating-pair working-set selection:
at each step the most violating index from the "up" set and the least
from the "down" set form the pair, the two dual variables move jointly
along the equality constraint, and optimization stops when the KKT gap
m(alpha) - M(alpha) drops to the tolerance. Features are standardized
internally; the scaler is part of the model.
"""
from __future__ import annotations

import logging
from dataclasses import dataclass

import numpy as np

from ..config import BLOCK_DOUBLES, PARAMS, SVM_MACHINE, SVM_MODEL, check, decode
from ._common import validate_x, validate_xy

logger = logging.getLogger("msaf.models.svm")


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for all pairs."""
    sq = (
        np.sum(a * a, axis=1)[:, np.newaxis]
        + np.sum(b * b, axis=1)[np.newaxis, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(sq, 0.0))


@dataclass(frozen=True)
class BinarySvm:
    """One trained one-vs-rest machine in standardized feature space."""

    support_vectors: np.ndarray
    dual_coef: np.ndarray  # alpha_i * y_i for each support vector
    bias: float
    kkt_gap: float
    n_iter: int


@dataclass(frozen=True)
class SvmModel:
    """One-vs-rest RBF SVM with its internal feature scaler."""

    classes: tuple[int, ...]
    mean: np.ndarray
    scale: np.ndarray
    c: float
    gamma: float
    machines: tuple[BinarySvm, ...]

    @property
    def n_features(self) -> int:
        return self.mean.size

    def decision_scores(self, x) -> np.ndarray:
        """(n, n_classes) one-vs-rest decision values."""
        x = validate_x(x, self.n_features)
        z = (x - self.mean) / self.scale
        out = np.empty((z.shape[0], len(self.machines)))
        for i, m in enumerate(self.machines):
            k = rbf_kernel(z, m.support_vectors, self.gamma)
            out[:, i] = k @ m.dual_coef + m.bias
        return out

    def coalition_scores(self, x, background, z) -> np.ndarray:
        """(n, m, n_classes) decision values averaged over the background rows.

        Entry [i, j] is the mean of decision_scores over the composites that
        take feature f from row i of x where z[j, f] is 1 and from the
        background row where it is 0, computed without building them. In
        standardized space ||c - sv||^2 = z . (x - sv)^2 + (1 - z) . (b - sv)^2,
        so the background mean of the kernel is
        exp(-gamma z . (x - sv)^2) * G[z, sv] with
        G[z, sv] = mean_b exp(-gamma (1 - z) . (b - sv)^2), which no row of x
        enters. Each chunk of coalitions builds G once from one matrix product
        over every (background row, support vector of any machine) pair; a
        row then costs one product over the support vectors.
        """
        d = self.n_features
        xs = (validate_x(x, d) - self.mean) / self.scale
        bs = (validate_x(background, d) - self.mean) / self.scale
        sv = np.vstack([m.support_vectors for m in self.machines])
        # block coefficients: support vector s scores only its own machine
        sizes = [m.dual_coef.size for m in self.machines]
        coef = np.zeros((sv.shape[0], len(self.machines)))
        coef[np.arange(sv.shape[0]), np.repeat(np.arange(len(sizes)), sizes)] = (
            np.concatenate([m.dual_coef for m in self.machines])
        )
        bias = np.array([m.bias for m in self.machines])

        def squares(rows):  # (d, rows * n_sv): (row - sv)^2 per feature
            diff = rows[:, np.newaxis, :] - sv[np.newaxis, :, :]
            np.square(diff, out=diff)
            return diff.reshape(-1, d).T

        n, n_bg, n_sv = xs.shape[0], bs.shape[0], sv.shape[0]
        xsq, bsq = squares(xs), squares(bs)
        m_total = z.shape[0]
        out = np.empty((n, m_total, len(self.machines)))
        # coalitions in chunks, rows in blocks: each kernel buffer about BLOCK_DOUBLES
        chunk = max(1, min(m_total, BLOCK_DOUBLES // max(1, n_bg * n_sv)))
        block = max(1, min(n, BLOCK_DOUBLES // max(1, chunk * n_sv)))
        g_buf = np.empty((chunk, n_bg * n_sv))
        k_buf = np.empty(chunk * block * n_sv)
        for start in range(0, m_total, chunk):
            zc = np.asarray(z[start : start + chunk], dtype=np.float64)
            mc = zc.shape[0]
            g = np.matmul(1.0 - zc, bsq, out=g_buf[:mc])
            g *= -self.gamma
            np.exp(g, out=g)
            g = g.reshape(mc, n_bg, n_sv).mean(axis=1)
            for r in range(0, n, block):
                nb = min(block, n - r)
                k = k_buf[: mc * nb * n_sv].reshape(mc, nb * n_sv)
                np.matmul(zc, xsq[:, r * n_sv : (r + nb) * n_sv], out=k)
                k *= -self.gamma
                np.exp(k, out=k)
                k = k.reshape(mc, nb, n_sv)
                k *= g[:, np.newaxis, :]
                scores = k @ coef
                scores += bias
                out[r : r + nb, start : start + mc] = scores.transpose(1, 0, 2)
        return out

    def predict(self, x) -> np.ndarray:
        scores = self.decision_scores(x)
        return np.asarray(self.classes)[np.argmax(scores, axis=1)]

    def to_json_dict(self) -> dict:
        return {
            "kind": "svm",
            "classes": list(self.classes),
            "mean": [float(v) for v in self.mean],
            "scale": [float(v) for v in self.scale],
            "c": self.c,
            "gamma": self.gamma,
            "machines": [
                {
                    "support_vectors": [[float(v) for v in row] for row in m.support_vectors],
                    "dual_coef": [float(v) for v in m.dual_coef],
                    "bias": m.bias,
                    "kkt_gap": m.kkt_gap,
                    "n_iter": m.n_iter,
                }
                for m in self.machines
            ],
        }

    @classmethod
    def from_json_dict(cls, d: dict) -> "SvmModel":
        """The model of a `to_json_dict` form, decoded by `SVM_MODEL` and `SVM_MACHINE`."""
        d = decode("svm model", SVM_MODEL, d)
        width = {"n_features": d["mean"].size}
        machines = [BinarySvm(**decode("svm machine", SVM_MACHINE, m, width))
                    for m in d["machines"]]
        return cls(**{**d, "machines": tuple(machines)})


def _smo(
    kernel: np.ndarray, yb: np.ndarray, c: float, tol: float, max_iter: int
) -> tuple[np.ndarray, float, float, int]:
    """Solve min 1/2 a'Qa - sum(a), 0 <= a <= C, y'a = 0.

    Returns (alpha, bias, kkt_gap, n_iter).
    """
    n = yb.size
    alpha = np.zeros(n)
    grad = -np.ones(n)  # gradient of the dual objective at alpha
    eps = 1e-12
    gap = np.inf
    it = 0
    while it < max_iter:
        yg = -yb * grad
        up = ((yb > 0) & (alpha < c - eps)) | ((yb < 0) & (alpha > eps))
        low = ((yb < 0) & (alpha < c - eps)) | ((yb > 0) & (alpha > eps))
        if not up.any() or not low.any():
            gap = 0.0
            break
        i = int(np.argmax(np.where(up, yg, -np.inf)))
        j = int(np.argmin(np.where(low, yg, np.inf)))
        gap = float(yg[i] - yg[j])
        if gap <= tol:
            break
        quad = max(kernel[i, i] + kernel[j, j] - 2.0 * kernel[i, j], 1e-12)
        room_i = (c - alpha[i]) if yb[i] > 0 else alpha[i]
        room_j = alpha[j] if yb[j] > 0 else (c - alpha[j])
        step = min(gap / quad, room_i, room_j)
        d_i = yb[i] * step
        d_j = -yb[j] * step
        alpha[i] += d_i
        alpha[j] += d_j
        grad += (yb * yb[i]) * kernel[:, i] * d_i + (yb * yb[j]) * kernel[:, j] * d_j
        it += 1

    yg = -yb * grad
    up = ((yb > 0) & (alpha < c - eps)) | ((yb < 0) & (alpha > eps))
    low = ((yb < 0) & (alpha < c - eps)) | ((yb > 0) & (alpha > eps))
    free = (alpha > eps) & (alpha < c - eps)
    if free.any():
        bias = float(yg[free].mean())
    elif up.any() and low.any():
        bias = float((np.max(yg[up]) + np.min(yg[low])) / 2.0)
    else:
        bias = 0.0
    return alpha, bias, max(gap, 0.0), it


def train_svm_ovr(
    x,
    y,
    c: float = 1.0,
    gamma: float = 0.05,
    tol: float = 1e-3,
    max_iter: int = 200_000,
    seed: int = 0,
) -> SvmModel:
    """Train one RBF machine per class against the rest.

    The algorithm is deterministic; `seed` exists for interface parity
    with the other trainers and is unused.

    Args:
        x: (n, d) feature matrix.
        y: (n,) integer class labels, at least two distinct.
        c: Box constraint.
        gamma: RBF width, must be positive.
        tol: KKT stopping tolerance on m(alpha) - M(alpha).
        max_iter: Cap on pair updates per machine; machines that reach
            it are reported in one warning.
    """
    del seed
    x, y, classes = validate_xy(x, y)
    check("svm", PARAMS["svm"], {"c": c, "gamma": gamma, "tol": tol, "max_iter": max_iter})
    mean = x.mean(axis=0)
    std = x.std(axis=0)
    scale = np.where(std > 1e-12, std, 1.0)
    z = (x - mean) / scale
    kernel = rbf_kernel(z, z, gamma)
    machines = []
    for cls in classes:
        yb = np.where(y == cls, 1.0, -1.0)
        alpha, bias, gap, n_iter = _smo(kernel, yb, c, tol, max_iter)
        sv = alpha > 1e-12
        machines.append(
            BinarySvm(
                support_vectors=z[sv].copy(),
                dual_coef=(alpha * yb)[sv],
                bias=bias,
                kkt_gap=gap,
                n_iter=n_iter,
            )
        )
    capped = [m for m in machines if m.n_iter >= max_iter]
    if capped:
        logger.warning(
            "SMO: %d of %d one-vs-rest machines stopped at max_iter=%d "
            "with KKT gap up to %.3g > tol=%g",
            len(capped), len(machines), max_iter, max(m.kkt_gap for m in capped), tol,
        )
    return SvmModel(
        classes=classes,
        mean=mean,
        scale=scale,
        c=float(c),
        gamma=float(gamma),
        machines=tuple(machines),
    )
