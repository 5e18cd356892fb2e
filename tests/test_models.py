"""Classifiers against closed-form and hand-counted oracles."""
import json
import tracemalloc

import numpy as np
import pytest

from msaf import (
    SingleClass,
    evaluate,
    grid_search,
    make_trainer,
    model_from_json_dict,
    stratified_fold_indices,
    stratified_kfold_cv,
    train_gbt,
    train_rf,
    train_svm_ovr,
    write_json,
)

from msaf.config import GBT_TREE, RF_TREE
from msaf.models import boosted, forest
from msaf.models._common import Tree, first_best_split

from oracles import (
    XOR_X,
    XOR_Y,
    accuracy_by_hand,
    ensemble_scores_loop,
    gbt_node_loop,
    macro_f1_by_hand,
    rf_best_split_loop,
    xor_alpha_star,
)


def _blobs(rng, n_per=20, d=4, spread=0.3):
    centers = np.eye(3, d) * 4.0
    x = np.vstack([
        centers[c] + spread * rng.standard_normal((n_per, d))
        for c in range(3)
    ])
    y = np.repeat(np.arange(3), n_per)
    return x, y


# --- SVM against the closed-form XOR dual solution ---

def test_svm_xor_dual_matches_closed_form():
    gamma = 0.5
    model = train_svm_ovr(XOR_X, XOR_Y, c=10.0, gamma=gamma, tol=1e-10)
    alpha = xor_alpha_star(gamma)
    for m in model.machines:
        assert m.support_vectors.shape[0] == 4  # every point supports
        assert np.max(np.abs(np.abs(m.dual_coef) - alpha)) < 1e-6
        assert abs(m.bias) < 1e-6
    scores = model.decision_scores(np.asarray(XOR_X))
    # margins are exactly +-1 at the optimum
    signed = np.where(np.asarray(XOR_Y) == 1, 1.0, -1.0)
    assert np.max(np.abs(scores[:, 1] - signed)) < 1e-6
    assert np.max(np.abs(scores[:, 0] + signed)) < 1e-6
    assert np.array_equal(model.predict(np.asarray(XOR_X)), XOR_Y)


def test_svm_xor_various_gammas():
    for gamma in (0.2, 1.0, 2.5):
        model = train_svm_ovr(XOR_X, XOR_Y, c=50.0, gamma=gamma, tol=1e-10)
        alpha = xor_alpha_star(gamma)
        m = model.machines[1]
        assert np.max(np.abs(np.abs(m.dual_coef) - alpha)) < 1e-5


def test_svm_separable_blobs():
    rng = np.random.default_rng(0)
    x, y = _blobs(rng)
    model = train_svm_ovr(x, y, c=10.0, gamma=0.5)
    assert np.mean(model.predict(x) == y) == 1.0


def test_svm_rejects_single_class():
    with pytest.raises(SingleClass):
        train_svm_ovr(np.zeros((4, 2)), [1, 1, 1, 1])


# --- forest and boosting sanity ---

def test_rf_fits_and_is_deterministic():
    rng = np.random.default_rng(1)
    x, y = _blobs(rng)
    a = train_rf(x, y, n_trees=30, seed=5)
    b = train_rf(x, y, n_trees=30, seed=5)
    assert np.mean(a.predict(x) == y) >= 0.95
    assert np.array_equal(a.decision_scores(x), b.decision_scores(x))


def test_rf_scores_are_probabilities():
    rng = np.random.default_rng(2)
    x, y = _blobs(rng)
    scores = train_rf(x, y, n_trees=20, seed=0).decision_scores(x)
    assert np.all(scores >= 0.0)
    assert np.allclose(scores.sum(axis=1), 1.0, atol=1e-12)


def test_gbt_fits_training_set():
    rng = np.random.default_rng(3)
    x, y = _blobs(rng)
    model = train_gbt(x, y, n_rounds=60, learning_rate=0.3,
                      valid_fraction=0.0, seed=0)
    assert np.mean(model.predict(x) == y) == 1.0
    # reported scores are softmax probabilities over raw margins
    probs = model.decision_scores(x)
    assert np.allclose(probs.sum(axis=1), 1.0, atol=1e-12)
    assert np.all(probs > 0)
    assert not np.allclose(model.margins(x).sum(axis=1), 1.0)


def test_gbt_early_stopping_trace():
    rng = np.random.default_rng(4)
    x, y = _blobs(rng, n_per=30)
    model = train_gbt(x, y, n_rounds=200, learning_rate=0.2,
                      valid_fraction=0.2, patience=5, seed=0)
    assert model.best_round <= len(model.valid_loss_trace)
    assert len(model.train_loss_trace) >= model.best_round


# --- vectorized split search and traversal against the loop references ---

def _tied(seed, n=48, d=6):
    """Random rows with many tied values and a constant column."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x[:, 1] = np.round(x[:, 1])
    x[:, 3] = 0.25
    x[:, 4] = np.round(2.0 * x[:, 4]) / 2.0
    y = rng.integers(0, 3, n)
    y[:3] = [0, 1, 2]
    return x, y


def test_split_rule_keeps_first_gain_beating_best_by_1e15():
    rng = np.random.default_rng(0)
    for _ in range(300):
        m, f = int(rng.integers(2, 12)), int(rng.integers(1, 5))
        sv = np.sort(rng.integers(0, 4, size=(m, f)).astype(float), axis=0)
        # near-ties within 1e-15, where a plain argmax picks another cut
        gains = rng.choice([0.1, 0.2], size=(m - 1, f))
        gains = gains + rng.integers(-3, 4, size=(m - 1, f)) * 4e-16
        best, want = 0.0, (0.0, -1, 0.0)
        for col in range(f):
            for pos in range(m - 1):
                if sv[pos + 1, col] != sv[pos, col] and gains[pos, col] > best + 1e-15:
                    best = float(gains[pos, col])
                    want = (best, col, float((sv[pos, col] + sv[pos + 1, col]) / 2.0))
        assert first_best_split(gains, sv) == want


@pytest.mark.parametrize("max_depth", [1, 2, 3, 4])
@pytest.mark.parametrize("valid_fraction", [0.25, 0.0])
def test_gbt_trees_match_loop_reference(monkeypatch, max_depth, valid_fraction):
    x, y = _tied(max_depth)
    kw = dict(n_rounds=12, learning_rate=0.4, max_depth=max_depth,
              valid_fraction=valid_fraction, patience=3, seed=max_depth)
    fast = train_gbt(x, y, **kw).to_json_dict()
    monkeypatch.setattr(boosted, "_node", gbt_node_loop)
    assert fast == train_gbt(x, y, **kw).to_json_dict()
    assert any(t["left"][0] >= 0 for row in fast["trees"] for t in row)
    if valid_fraction:
        assert len(fast["valid_loss_trace"]) < kw["n_rounds"]  # stopped early


def _wide(n=450, d=21, seed=5):
    """n rows of 3 classes set by a feature interaction, tied in every third column."""
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((n, d))
    x[:, ::3] = np.round(2.0 * x[:, ::3])
    y = (x[:, 0] + x[:, 1] * x[:, 2] + 0.5 * rng.standard_normal(n) > 0).astype(int)
    return x, y + (x[:, 3] > 0.8)


@pytest.mark.parametrize("valid_fraction", [0.0, 0.25])
def test_gbt_node_cache_changes_no_model_json_byte(monkeypatch, tmp_path, valid_fraction):
    x, y = _wide(n=90)
    kw = dict(n_rounds=40, learning_rate=0.4, max_depth=4,
              valid_fraction=valid_fraction, patience=3, seed=2)
    paths = []
    for ids_per_cell in (boosted._CACHE_IDS_PER_CELL, 0):
        monkeypatch.setattr(boosted, "_CACHE_IDS_PER_CELL", ids_per_cell)
        model = train_gbt(x, y, **kw)
        paths.append(write_json(str(tmp_path / f"{ids_per_cell}.json"), model.to_json_dict()))
    assert open(paths[0], "rb").read() == open(paths[1], "rb").read()
    if valid_fraction:
        assert len(model.valid_loss_trace) < kw["n_rounds"]  # stopped early


def test_gbt_node_cache_stays_within_its_budget(monkeypatch):
    caches = []

    class Recorded(boosted._NodeCache):
        def __init__(self, room):
            super().__init__(room)
            self.budget, self.calls = room, 0
            caches.append(self)

        def presorted(self, x, rows):
            self.calls += 1
            return super().presorted(x, rows)

    monkeypatch.setattr(boosted, "_NodeCache", Recorded)
    x, y = _wide()
    tracemalloc.start()
    try:
        train_gbt(x, y, n_rounds=100, max_depth=6, valid_fraction=0.0)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    (cache,) = caches
    held = sum(sorted_rows.size for sorted_rows, _ in cache.values())
    assert cache.budget == 32 * x.size and held + cache.room == cache.budget
    assert cache.room < 450 * 21  # full: later nodes are sorted afresh
    assert cache.calls > 2 * len(cache)
    # the cache's ids and values take 4.8 MB at the budget; the fit alone
    # peaked at 2.5 MB and an unbounded cache at 37 MB
    assert peak < 10e6, peak
    train_rf(x, y, n_trees=4, seed=0)
    assert len(caches) == 1  # the forest's nodes do not repeat: no cache


@pytest.mark.parametrize("bootstrap,max_depth,mtry", [
    (True, None, 3), (False, None, 2), (True, 3, None), (False, 2, 6),
])
def test_rf_trees_match_loop_reference(monkeypatch, bootstrap, max_depth, mtry):
    x, y = _tied(10 + (max_depth or 0))
    kw = dict(n_trees=6, max_depth=max_depth, bootstrap=bootstrap, seed=4,
              n_features_per_split=mtry)
    fast = train_rf(x, y, **kw).to_json_dict()
    monkeypatch.setattr(forest, "_best_split", rf_best_split_loop)
    assert fast == train_rf(x, y, **kw).to_json_dict()


def test_rf_split_gain_matches_loop_bit_for_bit():
    x, y = _tied(40, n=30)
    rng = np.random.default_rng(41)
    for trial in range(60):
        rows = rng.integers(0, len(y), size=int(rng.integers(2, 30)))
        mtry = int(rng.integers(1, x.shape[1] + 1))
        got = forest._best_split(x, y, rows, 3, mtry, np.random.default_rng(trial))
        want = rf_best_split_loop(x, y, rows, 3, mtry, np.random.default_rng(trial))
        assert got == want


def test_vectorized_traversal_matches_per_row_walk():
    x, y = _tied(30)
    rf = train_rf(x, y, n_trees=8, max_depth=None, seed=1)
    gbt = train_gbt(x, y, n_rounds=8, learning_rate=0.3, valid_fraction=0.0, seed=1)
    # query rows: training rows, fresh rows, and rows sitting on thresholds
    rng = np.random.default_rng(31)
    on_cut = []
    for model in (rf, gbt):
        for tree in np.ravel(model.to_json_dict()["trees"]):
            for f, t in zip(tree["feature"], tree["threshold"]):
                if f >= 0:
                    row = x[len(on_cut) % len(x)].copy()
                    row[f] = t
                    on_cut.append(row)
    xq = np.vstack([x, rng.standard_normal((20, x.shape[1])), on_cut])
    assert np.array_equal(rf.decision_scores(xq),
                          ensemble_scores_loop(rf.to_json_dict(), xq))
    assert np.array_equal(gbt.margins(xq),
                          ensemble_scores_loop(gbt.to_json_dict(), xq))


# --- JSON round-trips preserve behavior exactly ---

@pytest.mark.parametrize("kind,params", [
    ("svm", {"c": 5.0, "gamma": 0.2}),
    ("rf", {"n_trees": 15, "max_depth": 6}),
    ("gbt", {"n_rounds": 20, "learning_rate": 0.3, "valid_fraction": 0.0}),
])
def test_model_json_roundtrip(kind, params):
    rng = np.random.default_rng(6)
    x, y = _blobs(rng, n_per=12)
    model = make_trainer(kind, params)(x, y, 3)
    back = model_from_json_dict(model.to_json_dict())
    assert np.array_equal(back.decision_scores(x), model.decision_scores(x))
    assert np.array_equal(back.predict(x), model.predict(x))


@pytest.mark.parametrize("kind,params", [
    ("svm", {"c": 5.0, "gamma": 0.2}),
    ("rf", {"n_trees": 6, "max_depth": None}),
    ("gbt", {"n_rounds": 8, "learning_rate": 0.3, "max_depth": 3}),
])
def test_model_json_bytes_survive_load_and_save(kind, params):
    x, y = _tied(50)
    doc = make_trainer(kind, params)(x, y, 5).to_json_dict()
    assert json.dumps(model_from_json_dict(doc).to_json_dict()) == json.dumps(doc)
    if kind == "svm":
        return
    # trees that are a single leaf survive too, and score every row from it
    doc = make_trainer(kind, params)(np.zeros((6, 2)), [0, 1] * 3, 5).to_json_dict()
    assert all(t["left"] == [-1] for t in np.ravel(doc["trees"]))
    assert json.dumps(model_from_json_dict(doc).to_json_dict()) == json.dumps(doc)
    stump = model_from_json_dict(doc)
    score = stump.margins if kind == "gbt" else stump.decision_scores
    assert np.array_equal(score(x[:, :2]), ensemble_scores_loop(doc, x[:, :2]))


@pytest.mark.parametrize("kind,params", [
    *(("rf", {"n_trees": 4, "max_depth": depth, "bootstrap": bootstrap})
      for depth in (None, 3) for bootstrap in (True, False)),
    ("gbt", {"n_rounds": 6, "learning_rate": 0.4, "max_depth": 4}),
])
def test_grown_trees_equal_their_decoded_json(kind, params):
    x, y = _tied(60)
    model = make_trainer(kind, params)(x, y, 7)
    trees = list(np.ravel(model.trees))
    assert any(t.left[0] >= 0 for t in trees)
    table, sizes = (RF_TREE, {"n_classes": 3}) if kind == "rf" else (GBT_TREE, None)
    for tree in trees:
        doc = json.loads(json.dumps(tree.to_json_dict()))
        back = Tree.from_json_dict(doc, table, x.shape[1], sizes)
        for name in ("feature", "threshold", "left", "right", "value"):
            got, want = getattr(tree, name), getattr(back, name)
            assert got.dtype == want.dtype and np.array_equal(got, want), name


def test_svm_warns_when_a_machine_stops_at_max_iter(caplog):
    rng = np.random.default_rng(12)
    x, y = _blobs(rng, n_per=10, spread=2.0)
    with caplog.at_level("WARNING", logger="msaf.models.svm"):
        model = train_svm_ovr(x, y, c=10.0, gamma=0.5, max_iter=3)
    records = [r for r in caplog.records if r.name == "msaf.models.svm"]
    assert len(records) == 1
    assert "3 of 3 one-vs-rest machines stopped at max_iter=3" in records[0].getMessage()
    assert all(m.n_iter == 3 for m in model.machines)
    caplog.clear()
    with caplog.at_level("WARNING", logger="msaf.models.svm"):
        train_svm_ovr(x, y, c=10.0, gamma=0.5)
    assert not [r for r in caplog.records if r.name == "msaf.models.svm"]


# --- metrics against hand counting ---

def test_macro_f1_hand_example():
    y_true = [0, 0, 1, 1, 2, 2]
    y_pred = [0, 1, 1, 1, 2, 0]
    report = evaluate(y_true, y_pred)
    assert report.precision == pytest.approx((0.5, 2 / 3, 1.0), abs=1e-12)
    assert report.recall == pytest.approx((0.5, 1.0, 0.5), abs=1e-12)
    assert report.f1 == pytest.approx((0.5, 0.8, 2 / 3), abs=1e-12)
    assert report.macro_f1 == pytest.approx(0.6556, abs=1e-4)
    assert report.macro_f1 == pytest.approx(macro_f1_by_hand(y_true, y_pred), abs=1e-12)


def test_perfect_predictions():
    report = evaluate([0, 1, 2], [0, 1, 2])
    assert report.accuracy == 1.0
    assert np.all(report.f1 == 1.0)


def test_metrics_match_hand_counts_random():
    rng = np.random.default_rng(8)
    for _ in range(25):
        n = int(rng.integers(5, 40))
        k = int(rng.integers(2, 5))
        y_true = rng.integers(0, k, n)
        y_pred = rng.integers(0, k, n)
        report = evaluate(y_true, y_pred, n_classes=k)
        assert report.accuracy == pytest.approx(
            accuracy_by_hand(list(y_true), list(y_pred)), abs=1e-12)


def test_metrics_permutation_invariance():
    rng = np.random.default_rng(9)
    for _ in range(50):
        n = int(rng.integers(6, 50))
        y_true = rng.integers(0, 3, n)
        y_pred = rng.integers(0, 3, n)
        perm = rng.permutation(n)
        a = evaluate(y_true, y_pred, n_classes=3)
        b = evaluate(y_true[perm], y_pred[perm], n_classes=3)
        assert a.accuracy == b.accuracy
        assert a.macro_f1 == b.macro_f1
        assert a.macro_precision == b.macro_precision
        assert a.macro_recall == b.macro_recall
        assert np.array_equal(a.confusion, b.confusion)


# --- cross-validation machinery ---

def test_stratified_folds_cover_and_balance():
    y = np.array([0] * 10 + [1] * 15 + [2] * 5)
    folds = stratified_fold_indices(y, 5, seed=0)
    all_idx = np.sort(np.concatenate(folds))
    assert np.array_equal(all_idx, np.arange(30))
    for f in folds:
        assert np.sum(y[f] == 0) == 2
        assert np.sum(y[f] == 1) == 3
        assert np.sum(y[f] == 2) == 1


def test_cv_report_is_seed_deterministic():
    rng = np.random.default_rng(10)
    x, y = _blobs(rng, n_per=15)
    t = make_trainer("svm", {"c": 1.0, "gamma": 0.5})
    a = stratified_kfold_cv(t, x, y, n_folds=5, seed=7)
    b = stratified_kfold_cv(t, x, y, n_folds=5, seed=7)
    assert a.to_json_dict() == b.to_json_dict()


def test_grid_search_picks_best_mean_accuracy():
    rng = np.random.default_rng(11)
    x, y = _blobs(rng, n_per=15, spread=1.5)
    grid = {"c": [0.01, 1.0, 10.0], "gamma": [0.1]}
    gs = grid_search(lambda p: make_trainer("svm", p), x, y, grid,
                     n_folds=3, seed=0)
    assert gs.best_params["gamma"] == 0.1
    assert gs.best_score == max(r["mean_accuracy"] for r in gs.results)
    assert len(gs.results) == 3
