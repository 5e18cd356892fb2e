"""Attribution engines against each other and a permutation oracle."""
import sys
import tracemalloc
import weakref

import numpy as np
import pytest

from msaf import (
    EmptyBackground,
    InvalidConfig,
    TooManyFeatures,
    explain,
    global_ranking,
    make_trainer,
    train_gbt,
    train_rf,
    train_svm_ovr,
)
from msaf.explain import (
    _coalition_values,
    _exact_row,
    _kernel_coalitions,
    _kernel_rows,
    _model_leaf_tables,
    _score_fn_for,
    _tree_shap,
)
from msaf.models._common import child_seed
import msaf.models.svm
from msaf.config import BLOCK_DOUBLES

from oracles import (
    exact_shapley_dense,
    shapley_by_permutations,
    tree_shap_loop,
    tree_shap_per_leaf,
)

# the module: the package binds `msaf.explain` to the function
explain_module = sys.modules["msaf.explain"]


def _tree_row(model, row, background):
    phi, phi0 = _tree_shap(model, row[np.newaxis, :], background)
    return phi[0], phi0


def _data(rng, n_per=12, d=5):
    centers = np.eye(3, d) * 3.0
    x = np.vstack([
        centers[c] + 0.5 * rng.standard_normal((n_per, d))
        for c in range(3)
    ])
    y = np.repeat(np.arange(3), n_per)
    return x, y


def test_exact_matches_permutation_oracle():
    rng = np.random.default_rng(0)
    x, y = _data(rng, d=5)
    model = train_rf(x, y, n_trees=10, max_depth=4, seed=1)
    fn = _score_fn_for(model)
    background = x[::9][:4]
    for row in (x[0], x[13], x[29]):
        phi, phi0 = _exact_row(model, row, background)
        phi_o, phi0_o = shapley_by_permutations(fn, row, background)
        assert np.max(np.abs(phi - phi_o)) < 1e-10
        assert np.max(np.abs(phi0 - phi0_o)) < 1e-12


def test_local_accuracy_all_methods():
    rng = np.random.default_rng(1)
    x, y = _data(rng, d=6)
    background = x[:8]
    models = [
        train_svm_ovr(x, y, c=5.0, gamma=0.2),
        train_rf(x, y, n_trees=12, seed=0),
        train_gbt(x, y, n_rounds=15, learning_rate=0.3,
                  valid_fraction=0.0, seed=0),
    ]
    for model in models:
        fn = _score_fn_for(model)
        scores = fn(x[:6])
        methods = ["exact", "kernel"]
        if hasattr(model, "trees"):
            methods.append("tree")
        for method in methods:
            expl = explain(model, x[:6], background, method=method, seed=2)
            recon = expl.phi0[None, :] + expl.phi.sum(axis=1)
            assert np.max(np.abs(recon - scores)) < 1e-6, method


def test_tree_equals_exact_on_forest():
    rng = np.random.default_rng(2)
    x, y = _data(rng, d=6)
    model = train_rf(x, y, n_trees=15, max_depth=5, seed=3)
    background = x[: 10]
    for row in x[::7]:
        phi_t, phi0_t = _tree_row(model, row, background)
        phi_e, phi0_e = _exact_row(model, row, background)
        assert np.max(np.abs(phi_t - phi_e)) < 1e-9
        assert np.max(np.abs(phi0_t - phi0_e)) < 1e-9


def test_tree_equals_exact_on_gbt():
    rng = np.random.default_rng(3)
    x, y = _data(rng, d=5)
    model = train_gbt(x, y, n_rounds=12, learning_rate=0.3,
                      valid_fraction=0.0, seed=0)
    background = x[:10]
    for row in x[::11]:
        phi_t, phi0_t = _tree_row(model, row, background)
        phi_e, phi0_e = _exact_row(model, row, background)
        assert np.max(np.abs(phi_t - phi_e)) < 1e-9


def _boxes(model):
    """The (features, lo, hi) key of every leaf box with a path, in leaf order."""
    leaves, _ = _model_leaf_tables(model)
    return [(f.tobytes(), lo.tobytes(), hi.tobytes()) for f, lo, hi, _ in leaves if f.size]


def _repeating_gbt(rng):
    """A boosted model whose 527 leaves hold 90 distinct boxes, and its 90 x 4 table."""
    x = rng.standard_normal((90, 4))
    x[:, ::2] = np.round(2.0 * x[:, ::2])
    y = (x[:, 0] + x[:, 1] * x[:, 2] + 0.5 * rng.standard_normal(90) > 0).astype(int)
    model = train_gbt(x, y + (x[:, 3] > 0.8), n_rounds=30, valid_fraction=0.0, seed=0)
    return model, x


@pytest.mark.parametrize("kind", ["gbt", "rf"])
def test_tree_shap_equals_the_per_leaf_reference_bit_for_bit(kind):
    rng = np.random.default_rng(21)
    if kind == "gbt":
        model, x = _repeating_gbt(rng)
        assert len(set(_boxes(model))) < len(_boxes(model)) / 2
    else:
        x, y = _data(rng, n_per=10, d=8)
        model = train_rf(x, y, n_trees=20, seed=3)
    background = x[::3]
    phi, phi0 = _tree_shap(model, x, background)
    want_phi, want_phi0 = tree_shap_per_leaf(model, x, background)
    assert phi.tobytes() == want_phi.tobytes()
    assert phi0.tobytes() == want_phi0.tobytes()


def test_tree_shap_weighs_each_box_once_within_its_budget(monkeypatch):
    model, x = _repeating_gbt(np.random.default_rng(22))
    background = x[::3]
    boxes = _boxes(model)
    made, live_peak = [], []
    weigh = explain_module._box_weights

    def recorded(*args):
        # live weights: those held for later leaves, and the last leaf's
        live_peak.append(sum(c.size for c in (r() for r in made) if c is not None))
        n_base, contrib = weigh(*args)
        if contrib is not None:
            made.append(weakref.ref(contrib))
        return n_base, contrib

    monkeypatch.setattr(explain_module, "_box_weights", recorded)
    want = tree_shap_per_leaf(model, x, background)
    peaks, weighed = {}, {}
    for floats_per_cell in (32, 1, 0):
        monkeypatch.setattr(explain_module, "_BOX_FLOATS_PER_CELL", floats_per_cell)
        made.clear()
        live_peak.clear()
        phi, phi0 = _tree_shap(model, x, background)
        assert (phi.tobytes(), phi0.tobytes()) == (want[0].tobytes(), want[1].tobytes())
        # a box holds (n, p, 1) floats, p <= max_depth = 3
        peaks[floats_per_cell], weighed[floats_per_cell] = max(live_peak), len(live_peak)
        assert peaks[floats_per_cell] <= floats_per_cell * x.size + 3 * len(x)
    assert weighed[32] == len(set(boxes)) < weighed[1] < weighed[0] == len(boxes)
    # the default budget holds every box until its last leaf, which the
    # one-float budget could not
    assert peaks[32] > x.size + 3 * len(x)


@pytest.mark.parametrize("kind", ["rf", "gbt"])
def test_batched_tree_shap_matches_per_row_and_loop(kind):
    rng = np.random.default_rng(10)
    x, y = _data(rng, d=5)
    x[:, 2] = np.round(x[:, 2])
    if kind == "rf":
        model = train_rf(x, y, n_trees=8, max_depth=None, seed=2)
    else:
        model = train_gbt(x, y, n_rounds=10, learning_rate=0.3, max_depth=3,
                          valid_fraction=0.0, seed=2)
    background = x[::5]
    expl = explain(model, x, background, method="tree")
    doc = model.to_json_dict()
    for i, row in enumerate(x):
        phi, phi0 = _tree_row(model, row, background)
        phi_l, phi0_l = tree_shap_loop(doc, row, background)
        assert np.max(np.abs(expl.phi[i] - phi)) <= 1e-12
        assert np.max(np.abs(expl.phi[i] - phi_l)) <= 1e-12
        assert np.max(np.abs(expl.phi0 - phi0)) <= 1e-12
        assert np.max(np.abs(expl.phi0 - phi0_l)) <= 1e-12
    for i in (0, 17, 35):
        phi_e, phi0_e = _exact_row(model, x[i], background)
        assert np.max(np.abs(expl.phi[i] - phi_e)) < 1e-9
        assert np.max(np.abs(expl.phi0 - phi0_e)) < 1e-9


def test_kernel_full_enumeration_equals_exact():
    rng = np.random.default_rng(4)
    x, y = _data(rng, d=5)
    model = train_svm_ovr(x, y, c=2.0, gamma=0.3)
    background = x[:6]
    # 2^5 - 2 = 30 proper coalitions; any budget >= that enumerates
    rows = x[::13]
    expl = explain(model, rows, background, method="kernel", n_samples=64)
    exact = explain(model, rows, background, method="exact")
    assert expl.meta["enumerated"]
    assert np.max(np.abs(expl.phi - exact.phi)) < 1e-6
    assert np.max(np.abs(expl.phi0 - exact.phi0)) < 1e-9


def test_svm_coalition_scores_match_composite_rows():
    rng = np.random.default_rng(11)
    x, y = _data(rng, n_per=30, d=7)
    model = train_svm_ovr(x, y, c=5.0, gamma=0.2)
    background = x[::3]
    n_sv = sum(m.dual_coef.size for m in model.machines)
    chunk = BLOCK_DOUBLES // (background.shape[0] * n_sv)
    z = (rng.random((2 * chunk + 5, 7)) < 0.5).astype(np.float64)
    assert z.shape[0] > 2 * chunk  # three chunks
    got = _coalition_values(model, x[4], background, z)
    composite = np.where(z.astype(bool)[:, np.newaxis, :], x[4], background[np.newaxis])
    want = model.decision_scores(composite.reshape(-1, 7))
    want = want.reshape(z.shape[0], background.shape[0], -1).mean(axis=1)
    assert np.max(np.abs(got - want)) <= 1e-12


def test_svm_batched_coalition_scores_match_composite_rows():
    rng = np.random.default_rng(16)
    x, y = _data(rng, n_per=30, d=7)
    model = train_svm_ovr(x, y, c=5.0, gamma=0.2)
    background = x[::3]
    rows = x[[4, 40, 77]]
    n_sv = sum(m.dual_coef.size for m in model.machines)
    chunk = BLOCK_DOUBLES // (background.shape[0] * n_sv)
    z = (rng.random((2 * chunk + 5, 7)) < 0.5).astype(np.float64)
    assert z.shape[0] > 2 * chunk  # three chunks
    got = model.coalition_scores(rows, background, z)
    assert got.shape == (3, z.shape[0], 3)
    for i, row in enumerate(rows):
        composite = np.where(z.astype(bool)[:, np.newaxis, :], row, background[np.newaxis])
        want = model.decision_scores(composite.reshape(-1, 7))
        want = want.reshape(z.shape[0], background.shape[0], -1).mean(axis=1)
        assert np.max(np.abs(got[i] - want)) <= 1e-12


@pytest.mark.parametrize("kind", ["svm", "rf", "gbt"])
def test_explain_kernel_rows_equal_one_row_calls(kind):
    rng = np.random.default_rng(17)
    x, y = _data(rng, d=9)
    params = {"svm": {"c": 2.0, "gamma": 0.2}, "rf": {"n_trees": 6},
              "gbt": {"n_rounds": 5, "valid_fraction": 0.0}}[kind]
    model = make_trainer(kind, params)(x, y, seed=0)
    background = x[::5]
    expl = explain(model, x[:6], background, method="kernel", n_samples=200, seed=5)
    for i in range(6):
        one = explain(model, x[i], background, method="kernel", n_samples=200, seed=5)
        assert np.max(np.abs(expl.phi[i] - one.phi[0])) <= 1e-12
        assert np.max(np.abs(expl.phi0 - one.phi0)) <= 1e-12
        assert one.meta == expl.meta
    # explain draws its coalitions with the child seed (seed, 0)
    phi, _, _ = _kernel_rows(model, x[:6], background, 200, child_seed(5, 0))
    assert np.array_equal(expl.phi, phi)
    z, _, _ = _kernel_coalitions(9, 200, child_seed(5, 0))
    assert expl.meta["n_coalitions"] == z.shape[0]


@pytest.mark.parametrize("kind", ["svm", "rf"])
def test_explain_exact_without_rows_gives_the_background_mean(kind):
    rng = np.random.default_rng(20)
    x, y = _data(rng, d=5)
    params = {"svm": {"c": 2.0, "gamma": 0.2}, "rf": {"n_trees": 6}}[kind]
    model = make_trainer(kind, params)(x, y, seed=0)
    background = x[::5]
    exact = explain(model, x[:0], background, method="exact")
    kernel = explain(model, x[:0], background, method="kernel")
    assert exact.phi.shape == (0, 5, 3) and exact.phi0.shape == (3,)
    assert np.max(np.abs(exact.phi0 - kernel.phi0)) <= 1e-12
    # the value every row's enumeration reports
    _, phi0_row = _exact_row(model, x[0], background)
    assert np.max(np.abs(exact.phi0 - phi0_row)) <= 1e-12


def test_explain_kernel_does_not_depend_on_the_chunk_size(monkeypatch):
    rng = np.random.default_rng(18)
    x, y = _data(rng, n_per=20, d=9)
    model = train_svm_ovr(x, y, c=2.0, gamma=0.2)
    runs = []
    # 1 << 10 doubles: chunks of a few coalitions and blocks of a few rows
    for doubles in (BLOCK_DOUBLES, 1 << 10):
        monkeypatch.setattr(msaf.models.svm, "BLOCK_DOUBLES", doubles)
        runs.append(explain(model, x[:12], x[::4], method="kernel", n_samples=300, seed=1))
    assert np.max(np.abs(runs[0].phi - runs[1].phi)) <= 1e-12
    assert np.max(np.abs(runs[0].phi0 - runs[1].phi0)) <= 1e-12


def test_explain_kernel_memory_on_piecewise_shapes():
    rng = np.random.default_rng(19)
    # the piecewise workload's shapes: 30 rows of 21 features (k = 4),
    # 3 classes and a background of all 30 rows
    x, y = _data(rng, n_per=10, d=21)
    model = train_svm_ovr(x, y, c=1.0, gamma=0.05)
    tracemalloc.start()
    try:
        explain(model, x, x, method="kernel", seed=0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # one coalition sample per row took 9.7 MB: its (chunk, B * SV)
    # distance buffer alone was 8 MB; 4.35 MB with 1 MB kernel buffers,
    # 2.46 MB with 128 KiB ones
    assert peak < 3.0e6, peak


@pytest.mark.parametrize("d, n_samples", [(9, 200), (9, 201), (70, 500)])
def test_kernel_sampler_pairs_complements_within_budget(d, n_samples):
    z, w, enumerated = _kernel_coalitions(d, n_samples, seed=4)
    assert not enumerated
    sizes = z.sum(axis=1)
    assert sizes.min() >= 1 and sizes.max() <= d - 1
    counts = {tuple(row): c for row, c in zip(z.astype(bool), w)}
    assert len(counts) == z.shape[0]
    for row, c in counts.items():
        assert counts[tuple(not v for v in row)] == c
    assert w.sum() == 2 * -(-n_samples // 2)
    z2, w2, _ = _kernel_coalitions(d, n_samples, seed=4)
    assert np.array_equal(z, z2) and np.array_equal(w, w2)
    z3, _, _ = _kernel_coalitions(d, n_samples, seed=5)
    assert z3.shape != z.shape or not np.array_equal(z3, z)


def test_kernel_sampler_size_frequencies_follow_shapley_kernel():
    d, n_samples = 10, 200_000
    z, w, _ = _kernel_coalitions(d, n_samples, seed=1)
    sizes = np.arange(1, d)
    p = (d - 1) / (sizes * (d - sizes))
    p /= p.sum()
    freq = np.bincount(z.sum(axis=1).astype(int), weights=w, minlength=d)[1:] / w.sum()
    # 100k size draws: each frequency's standard error is below 0.0016
    assert np.max(np.abs(freq - p)) < 0.01


def test_kernel_sampled_regime_is_close_to_exact():
    rng = np.random.default_rng(12)
    x, y = _data(rng, d=9)
    model = train_svm_ovr(x, y, c=2.0, gamma=0.2)
    background = x[::6]
    for row in x[::17]:
        phi_k, _, meta = _kernel_rows(model, row[np.newaxis, :], background, 200, 3)
        phi_e, _ = _exact_row(model, row, background)
        assert not meta["enumerated"]
        assert np.max(np.abs(phi_k[0] - phi_e)) <= 0.1 * np.max(np.abs(phi_e))


def test_explain_kernel_meta_enumerated():
    rng = np.random.default_rng(13)
    x, y = _data(rng, d=5)
    model = train_svm_ovr(x, y, c=1.0, gamma=0.3)
    # 2^5 - 2 = 30 non-trivial coalitions
    for n_samples, enumerated in ((30, True), (29, False)):
        expl = explain(model, x[:3], x[:6], method="kernel", n_samples=n_samples)
        assert expl.meta["enumerated"] is enumerated
    one = train_svm_ovr(x[:, :1], y, c=1.0, gamma=0.3)
    expl = explain(one, x[:3, :1], x[:6, :1], method="kernel", n_samples=8)
    assert expl.meta["enumerated"] is True


def test_explain_auto_dispatch():
    rng = np.random.default_rng(5)
    x, y = _data(rng, d=4)
    bg = x[:5]
    rf = train_rf(x, y, n_trees=8, seed=0)
    svm = train_svm_ovr(x, y, c=1.0, gamma=0.3)
    assert explain(rf, x[:2], bg, method="auto").method == "tree"
    # non-tree models fall back to the sampling method
    assert explain(svm, x[:2], bg, method="auto").method == "kernel"


def test_explain_kernel_is_seed_deterministic():
    rng = np.random.default_rng(6)
    x, y = _data(rng, d=8)
    model = train_svm_ovr(x, y, c=1.0, gamma=0.2)
    a = explain(model, x[:3], x[:6], method="kernel", n_samples=128, seed=9)
    b = explain(model, x[:3], x[:6], method="kernel", n_samples=128, seed=9)
    assert np.array_equal(a.phi, b.phi)


@pytest.mark.parametrize("kind", ["svm", "rf", "gbt"])
def test_exact_is_bit_identical_to_dense_enumeration(kind, monkeypatch):
    rng = np.random.default_rng(14)
    x, y = _data(rng, n_per=20, d=12)
    params = {"svm": {"c": 2.0, "gamma": 0.1}, "rf": {"n_trees": 6},
              "gbt": {"n_rounds": 5, "valid_fraction": 0.0}}[kind]
    model = make_trainer(kind, params)(x, y, seed=0)
    background = x[::2]
    # several chunks of coalitions on the SVM path (the generic path takes
    # 65536 // 30 rows per chunk, two chunks of the 4096 coalitions)
    monkeypatch.setattr(msaf.models.svm, "BLOCK_DOUBLES", 1 << 16)
    for row in (x[0], x[31]):
        phi, phi0 = _exact_row(model, row, background)
        phi_d, phi0_d = exact_shapley_dense(
            lambda z: _coalition_values(model, row, background, z), 12)
        assert np.array_equal(phi, phi_d) and np.array_equal(phi0, phi0_d)


def test_exact_memory_is_bounded_by_the_value_table(monkeypatch):
    rng = np.random.default_rng(15)
    d = 16
    x, y = _data(rng, n_per=10, d=d)
    model = train_svm_ovr(x, y, c=2.0, gamma=0.1)
    monkeypatch.setattr(msaf.models.svm, "BLOCK_DOUBLES", 1 << 14)
    tracemalloc.start()
    try:
        _exact_row(model, x[0], x[:4])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    # the (2^16, 3) value table is 1.6 MB and one feature's gathers from it
    # 2.4 MB; the whole int64 coalition matrix alone would be
    # 2^16 * 16 * 8 B = 8.4 MB
    assert peak < 6e6, peak


def test_exact_refuses_high_dimension():
    rng = np.random.default_rng(7)
    x = rng.standard_normal((8, 21))
    y = np.array([0, 0, 0, 0, 1, 1, 1, 1])
    model = train_svm_ovr(x, y, c=1.0, gamma=0.1)
    with pytest.raises(TooManyFeatures):
        explain(model, x[:1], x, method="exact")


def test_unknown_method_is_a_config_error():
    rng = np.random.default_rng(8)
    x, y = _data(rng, d=4)
    model = train_svm_ovr(x, y, c=1.0, gamma=0.3)
    with pytest.raises(InvalidConfig, match="explain method"):
        explain(model, x[:2], x[:4], method="bogus")


def test_empty_background_rejected():
    rng = np.random.default_rng(8)
    x, y = _data(rng, d=4)
    model = train_svm_ovr(x, y, c=1.0, gamma=0.3)
    with pytest.raises(EmptyBackground):
        explain(model, x[:2], x[:0], method="exact")


def test_global_ranking_orders_by_mean_abs():
    rng = np.random.default_rng(9)
    x, y = _data(rng, d=4)
    model = train_rf(x, y, n_trees=10, seed=0)
    expl = explain(model, x, x[:8], method="tree",
                   feature_names=("a", "b", "c", "d"))
    ranking = global_ranking(expl)
    scores = [s for _, s in ranking]
    assert scores == sorted(scores, reverse=True)
    assert set(n for n, _ in ranking) == {"a", "b", "c", "d"}
    by_hand = np.abs(expl.phi).mean(axis=(0, 2))
    assert max(scores) == pytest.approx(by_hand.max(), abs=1e-12)
