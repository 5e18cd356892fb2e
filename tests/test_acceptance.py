"""End-to-end acceptance checks, one test per release criterion.

Every test prints a single [PASS]/[FAIL] line with the measured
numbers (bypassing capture) and enforces its stated tolerances.
"""
import filecmp
import itertools
import math
import os
import subprocess
import sys
import time

import numpy as np

import msaf
from msaf import (
    MicrostateMaps,
    PipelineConfig,
    Segmentation,
    SynthConfig,
    average_reference,
    backfit,
    band_sweep,
    build_feature_table,
    canonical_templates,
    design_fir_bandpass,
    dunn_posthoc,
    evaluate,
    explain,
    extract_features,
    find_gfp_peaks,
    generate,
    gev,
    gfp,
    group_cluster,
    kruskal_wallis,
    label_maps,
    make_cohort,
    make_trainer,
    modified_kmeans,
    save_recording,
    shapiro_wilk,
    spatial_correlation,
    stratified_kfold_cv,
    write_json,
    zscore_channels,
)
from msaf.explain import _score_fn_for
from msaf.models._common import child_seed
from msaf.synth import STANDARD_BANDS, make_band_cohort

from oracles import (
    db,
    dtft_magnitude,
    features_brute_force,
    macro_f1_by_hand,
    mann_whitney_z,
)


def _finish(capsys, num: int, name: str, failures: list, detail: str = ""):
    status = "FAIL" if failures else "PASS"
    line = f"[{status}] criterion {num:>2}: {name}"
    if detail:
        line += f" ({detail})"
    with capsys.disabled():
        print("\n" + line, end="")
    assert not failures, "; ".join(failures)


# -- 1: noiseless recovery ---------------------------------------------------

def test_c01_noiseless_recovery(capsys):
    failures, t0 = [], time.perf_counter()
    pairs = make_cohort(1, seed=11, base={"snr": math.inf, "duration": 8.0})
    worst_corr, worst_agree, worst_gev_err = 1.0, 1.0, 0.0
    for rec, truth in pairs:
        peaks = find_gfp_peaks(gfp(rec), rec.fs)
        maps = modified_kmeans(rec.data[:, peaks].T, 4, n_inits=10,
                               seed=child_seed(11, 100),
                               channels=rec.montage.names)
        templates = canonical_templates(rec.montage)
        corr = np.array([[abs(spatial_correlation(maps.maps[i], templates.maps[j]))
                          for j in range(4)] for i in range(4)])
        # optimal assignment: template j -> recovered perm[j]
        perm = max(itertools.permutations(range(4)),
                   key=lambda p: sum(corr[p[j], j] for j in range(4)))
        matched = min(corr[perm[j], j] for j in range(4))
        worst_corr = min(worst_corr, matched)

        seg = backfit(rec, maps)
        agree = float(np.mean(seg.states == np.asarray(perm)[truth.states]))
        worst_agree = min(worst_agree, agree)

        total, _ = gev(rec, seg)
        worst_gev_err = max(worst_gev_err, abs(total - 1.0))
    elapsed = time.perf_counter() - t0

    if worst_corr < 0.999:
        failures.append(f"template |corr| {worst_corr:.6f} < 0.999")
    if worst_agree != 1.0:
        failures.append(f"backfit agreement {worst_agree:.6f} != 1.0")
    if worst_gev_err > 1e-9:
        failures.append(f"total GEV off by {worst_gev_err:.3e} > 1e-9")
    if elapsed >= 10.0:
        failures.append(f"runtime {elapsed:.1f}s >= 10s")
    _finish(capsys, 1, "noiseless recovery", failures,
            f"min |corr| {worst_corr:.6f}, agreement {worst_agree:.3f}, "
            f"|GEV-1| {worst_gev_err:.2e}, {elapsed:.2f}s")


# -- 2: objective monotonicity ----------------------------------------------

def test_c02_kmeans_trace_monotone(capsys):
    failures = []
    worst_drop, n_points = 0.0, 0
    for seed in range(20):
        rec, _, _ = generate(SynthConfig(seed=seed, snr=2.0, duration=4.0))
        peaks = find_gfp_peaks(gfp(rec), rec.fs)
        trace: list = []
        modified_kmeans(rec.data[:, peaks].T, 4, n_inits=10, seed=seed,
                        channels=rec.montage.names, trace_sink=trace)
        by_restart: dict = {}
        for row in trace:
            by_restart.setdefault(row["restart"], []).append(row)
        for rows in by_restart.values():
            rows.sort(key=lambda r: r["iteration"])
            vals = [r["gev"] for r in rows]
            n_points += len(vals)
            for a, b in zip(vals, vals[1:]):
                worst_drop = max(worst_drop, a - b)
    if worst_drop > 1e-12:
        failures.append(f"GEV dropped by {worst_drop:.3e} > 1e-12")
    _finish(capsys, 2, "k-means GEV trace non-decreasing", failures,
            f"20 runs, {n_points} accepted iterates, worst drop {worst_drop:.2e}")


# -- 3: feature identities ---------------------------------------------------

def _random_segmentation(rng) -> Segmentation:
    k = int(rng.integers(2, 7))
    fs = float(rng.choice([100.0, 128.0, 250.0]))
    n = int(rng.integers(int(fs), int(5 * fs)))
    n_ch = int(rng.integers(4, 20))
    maps = rng.standard_normal((k, n_ch))
    maps -= maps.mean(axis=1, keepdims=True)
    maps /= np.linalg.norm(maps, axis=1, keepdims=True)
    mm = MicrostateMaps(
        channels=tuple(f"c{i}" for i in range(n_ch)),
        maps=maps,
        labels=tuple(chr(ord("A") + i) for i in range(k)),
    )
    return Segmentation(
        states=rng.integers(0, k, size=n),
        corr=rng.random(n),
        gfp=rng.random(n) * 5.0,
        fs=fs,
        maps=mm,
        subject_id="s",
    )


def test_c03_feature_identities_and_oracle(capsys):
    failures = []
    mismatched_keys = 0
    worst_cov, worst_occdur = 0.0, 0.0
    for seed in range(100):
        rng = np.random.default_rng(seed)
        seg = _random_segmentation(rng)
        got = extract_features(seg)
        want = features_brute_force(seg.states, seg.corr, seg.gfp,
                                    seg.fs, seg.maps.k, seg.maps.labels)
        if got.keys() != want.keys():
            failures.append(f"seed {seed}: key sets differ")
            continue
        mismatched_keys += sum(1 for key in want if got[key] != want[key])
        cov_sum = math.fsum(got[f"{s}_timecov"] for s in seg.maps.labels)
        worst_cov = max(worst_cov, abs(cov_sum - 1.0))
        for s in seg.maps.labels:
            lhs = got[f"{s}_occurrence"] * (got[f"{s}_meandur"] / 1000.0)
            worst_occdur = max(worst_occdur, abs(lhs - got[f"{s}_timecov"]))
    if mismatched_keys:
        failures.append(f"{mismatched_keys} feature values differ from oracle")
    if worst_cov > 1e-9:
        failures.append(f"coverage sum off by {worst_cov:.3e} > 1e-9")
    if worst_occdur > 1e-9:
        failures.append(f"occurrence*dur vs coverage off by {worst_occdur:.3e}")
    _finish(capsys, 3, "feature identities + bit-for-bit oracle", failures,
            f"100 segmentations, max |cov sum - 1| {worst_cov:.2e}, "
            f"max |occ*dur - cov| {worst_occdur:.2e}")


# -- 4: attribution correctness ----------------------------------------------

def test_c04_shap_three_methods(capsys):
    failures, t0 = [], time.perf_counter()
    rng = np.random.default_rng(4)
    d = 10
    x = rng.normal(size=(60, d))
    w = rng.normal(size=(d, 3))
    y = np.argmax(x @ w + 0.3 * rng.normal(size=(60, 3)), axis=1)
    rf = make_trainer("rf", {"n_trees": 20, "max_depth": 4})(x, y, 1)
    gbt = make_trainer("gbt", {"n_rounds": 15, "max_depth": 3})(x, y, 1)
    svm = make_trainer("svm", {})(x[:, :6], y, 1)
    background, rows = x[:10], x[10:15]

    def local_err(model, xs, expl) -> float:
        score = _score_fn_for(model)(xs)
        recon = expl.phi0[np.newaxis, :] + expl.phi.sum(axis=1)
        return float(np.max(np.abs(recon - score)))

    worst_local = {"exact": 0.0, "kernel": 0.0, "tree": 0.0}
    worst_tree_exact, worst_kernel_exact = 0.0, 0.0
    for model, xs, bg, n_enum in ((rf, rows, background, 1022),
                                  (gbt, rows, background, 1022),
                                  (svm, x[10:15, :6], x[:10, :6], 62)):
        ex = explain(model, xs, bg, method="exact")
        ke = explain(model, xs, bg, method="kernel", n_samples=n_enum, seed=3)
        worst_local["exact"] = max(worst_local["exact"], local_err(model, xs, ex))
        worst_local["kernel"] = max(worst_local["kernel"], local_err(model, xs, ke))
        if not ke.meta.get("enumerated"):
            failures.append("kernel explainer did not enumerate all coalitions")
        worst_kernel_exact = max(worst_kernel_exact,
                                 float(np.max(np.abs(ke.phi - ex.phi))))
        if hasattr(model, "trees") or hasattr(model, "rounds"):
            tr = explain(model, xs, bg, method="tree")
            worst_local["tree"] = max(worst_local["tree"], local_err(model, xs, tr))
            worst_tree_exact = max(worst_tree_exact,
                                   float(np.max(np.abs(tr.phi - ex.phi))))
    elapsed = time.perf_counter() - t0

    for method, err in worst_local.items():
        if err > 1e-6:
            failures.append(f"{method} local accuracy {err:.3e} > 1e-6")
    if worst_tree_exact > 1e-9:
        failures.append(f"tree vs exact {worst_tree_exact:.3e} > 1e-9")
    if worst_kernel_exact > 1e-6:
        failures.append(f"kernel vs exact {worst_kernel_exact:.3e} > 1e-6")
    if elapsed >= 60.0:
        failures.append(f"runtime {elapsed:.1f}s >= 60s")
    _finish(capsys, 4, "Shapley attribution agreement", failures,
            f"local max {max(worst_local.values()):.2e}, tree-exact "
            f"{worst_tree_exact:.2e}, kernel-exact {worst_kernel_exact:.2e}, "
            f"{elapsed:.1f}s")


# -- 5: cohort classification ------------------------------------------------

def test_c05_cohort_classifier_accuracy(capsys):
    failures, t0 = [], time.perf_counter()
    pairs = make_cohort(30, seed=42)
    subj_maps = []
    for i, (rec, _) in enumerate(pairs):
        peaks = find_gfp_peaks(gfp(rec), rec.fs)
        subj_maps.append(modified_kmeans(rec.data[:, peaks].T, 4, n_inits=10,
                                         seed=child_seed(42, 100, i),
                                         channels=rec.montage.names))
    gmaps = group_cluster(subj_maps, 4, seed=child_seed(42, 200))
    gmaps = label_maps(gmaps, templates=canonical_templates(pairs[0][0].montage))
    entries = []
    for rec, _ in pairs:
        seg = backfit(rec, gmaps)
        entries.append((rec.subject_id, rec.label, extract_features(seg)))
    table = build_feature_table(entries)

    acc = {}
    for kind in ("svm", "rf", "gbt"):
        report = stratified_kfold_cv(make_trainer(kind, {}), table.values,
                                     table.y, n_folds=5,
                                     seed=child_seed(42, 400))
        acc[kind] = report.accuracy
    elapsed = time.perf_counter() - t0

    if acc["svm"] < 0.90:
        failures.append(f"svm accuracy {acc['svm']:.4f} < 0.90")
    for kind in ("rf", "gbt"):
        if acc[kind] < 0.80:
            failures.append(f"{kind} accuracy {acc[kind]:.4f} < 0.80")
    if elapsed >= 120.0:
        failures.append(f"runtime {elapsed:.1f}s >= 120s")
    _finish(capsys, 5, "synthetic cohort 5-fold CV", failures,
            f"svm {acc['svm']:.4f}, rf {acc['rf']:.4f}, gbt {acc['gbt']:.4f}, "
            f"90 subjects, {elapsed:.1f}s")


# -- 6: evaluation metrics ---------------------------------------------------

def test_c06_metrics_hand_example_and_invariance(capsys):
    failures = []
    report = evaluate([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0])
    want_precision = (0.5, 2.0 / 3.0, 1.0)
    want_recall = (0.5, 1.0, 0.5)
    want_f1 = (0.5, 0.8, 2.0 / 3.0)
    for name, got, want in (("precision", report.precision, want_precision),
                            ("recall", report.recall, want_recall),
                            ("f1", report.f1, want_f1)):
        err = float(np.max(np.abs(np.asarray(got) - np.asarray(want))))
        if err > 1e-12:
            failures.append(f"{name} off by {err:.3e}")
    macro_err = abs(report.macro_f1 - 0.6556)
    if macro_err > 1e-4:
        failures.append(f"macro-F1 {report.macro_f1:.6f} not 0.6556 +/- 1e-4")
    oracle = macro_f1_by_hand([0, 0, 1, 1, 2, 2], [0, 1, 1, 1, 2, 0])
    if abs(report.macro_f1 - oracle) > 1e-12:
        failures.append(f"macro-F1 differs from counting oracle by "
                        f"{abs(report.macro_f1 - oracle):.3e}")

    rng = np.random.default_rng(66)
    broken = 0
    for _ in range(50):
        n = int(rng.integers(20, 60))
        k = int(rng.integers(2, 6))
        y_true = rng.integers(0, k, size=n)
        y_pred = rng.integers(0, k, size=n)
        a = evaluate(y_true, y_pred, n_classes=k)
        p = rng.permutation(n)
        b = evaluate(y_true[p], y_pred[p], n_classes=k)
        same = (a.accuracy == b.accuracy and a.macro_f1 == b.macro_f1
                and a.macro_precision == b.macro_precision
                and a.macro_recall == b.macro_recall
                and np.array_equal(a.confusion, b.confusion)
                and np.array_equal(a.f1, b.f1))
        broken += 0 if same else 1
    if broken:
        failures.append(f"{broken}/50 reports changed under permutation")
    _finish(capsys, 6, "metrics hand example + permutation invariance",
            failures, f"macro-F1 {report.macro_f1:.6f}, 50 shuffled reports")


# -- 7: statistics -----------------------------------------------------------

def test_c07_statistics(capsys):
    failures = []
    kw = kruskal_wallis([[1, 2, 3], [4, 5, 6], [7, 8, 9]])
    h_err = abs(kw.statistic - 7.2)
    p_err = abs(kw.p_value - math.exp(-3.6))
    if h_err > 1e-12:
        failures.append(f"H {kw.statistic!r} != 7.2 (err {h_err:.3e})")
    if kw.tie_corrected:
        failures.append("tie correction applied to a tie-free sample")
    if p_err > 1e-9:
        failures.append(f"p off e^-3.6 by {p_err:.3e} > 1e-9")
    sw = shapiro_wilk([1.0, 2.0, 3.0])
    if abs(sw.statistic - 1.0) > 1e-9:
        failures.append(f"W({{1,2,3}}) = {sw.statistic!r} not 1 +/- 1e-9")

    rng = np.random.default_rng(77)
    bad_interval = 0
    for _ in range(100):
        k = int(rng.integers(3, 6))
        groups = [np.round(rng.normal(size=rng.integers(4, 12)), 1)
                  for _ in range(k)]
        for pair in dunn_posthoc(groups):
            if not (pair.p_value <= pair.p_adjusted <= 1.0 + 1e-15):
                bad_interval += 1
    if bad_interval:
        failures.append(f"{bad_interval} Dunn pairs outside [p, 1]")

    worst_hz = 0.0
    for trial in range(50):
        r = np.random.default_rng(1000 + trial)
        a = r.normal(size=int(r.integers(5, 16)))
        b = r.normal(size=int(r.integers(5, 16)))
        assert len(np.unique(np.concatenate([a, b]))) == a.size + b.size
        h2 = kruskal_wallis([a, b]).statistic
        z = mann_whitney_z(a, b)
        worst_hz = max(worst_hz, abs(h2 - z * z))
    if worst_hz > 1e-9:
        failures.append(f"2-group H vs z^2 off by {worst_hz:.3e} > 1e-9")
    _finish(capsys, 7, "rank statistics", failures,
            f"|H-7.2| {h_err:.1e}, |p-e^-3.6| {p_err:.1e}, 100 Dunn sets, "
            f"max |H-z^2| {worst_hz:.1e}")


# -- 8: filters and normalization ---------------------------------------------

def test_c08_theta_filter_and_postconditions(capsys):
    failures = []
    filt = design_fir_bandpass(4.0, 8.0, 200.0)
    gains = {}
    for f_hz in (0.5, 6.0, 30.0):
        mag_pkg = float(np.abs(filt.frequency_response([f_hz]))[0])
        mag_ora = dtft_magnitude(filt.taps, filt.fs, f_hz)
        if abs(mag_pkg - mag_ora) > 1e-9:
            failures.append(f"response at {f_hz} Hz differs from oracle")
        gains[f_hz] = db(mag_ora)
    if abs(gains[6.0]) > 1.0:
        failures.append(f"6 Hz gain {gains[6.0]:+.3f} dB outside +/-1 dB")
    for f_hz in (0.5, 30.0):
        if gains[f_hz] > -30.0:
            failures.append(f"{f_hz} Hz gain {gains[f_hz]:+.1f} dB > -30 dB")

    from msaf import Recording, standard_1020_montage
    montage = standard_1020_montage()
    worst_z, worst_ref = 0.0, 0.0
    for seed in range(10):
        r = np.random.default_rng(seed)
        rec = Recording(data=r.normal(3.0, 10.0, size=(19, 400)), fs=250.0,
                        montage=montage, subject_id=f"s{seed}")
        z = zscore_channels(rec).data
        worst_z = max(worst_z,
                      float(np.max(np.abs(z.mean(axis=1)))),
                      float(np.max(np.abs(z.std(axis=1) - 1.0))))
        ref = average_reference(rec).data
        worst_ref = max(worst_ref, float(np.max(np.abs(ref.mean(axis=0)))))
    if worst_z > 1e-9:
        failures.append(f"z-score postcondition off by {worst_z:.3e}")
    if worst_ref > 1e-9:
        failures.append(f"average reference residual {worst_ref:.3e}")
    _finish(capsys, 8, "theta FIR + normalization postconditions", failures,
            f"6 Hz {gains[6.0]:+.3f} dB, 0.5 Hz {gains[0.5]:+.1f} dB, "
            f"30 Hz {gains[30.0]:+.1f} dB, residuals {max(worst_z, worst_ref):.1e}")


# -- 9: band sweep direction ---------------------------------------------------

def test_c09_band_sweep_ranks_theta_first(capsys, tmp_path):
    failures, t0 = [], time.perf_counter()
    raw = tmp_path / "raw"
    raw.mkdir()
    for rec, _ in make_band_cohort(12, seed=7):
        save_recording(rec, str(raw / rec.subject_id))
    cfg = PipelineConfig(
        input_dir=str(raw),
        out_dir=str(tmp_path / "sweep"),
        classifier={"kind": "svm"},
        cv_folds=5,
        kmeans={"n_inits": 10},
        explain={"method": "kernel", "n_samples": 128, "background": 8},
        seed=7,
    )
    bands = [(name, STANDARD_BANDS[name])
             for name in ("delta", "theta", "alpha", "beta")]
    rows = band_sweep(cfg, bands)
    elapsed = time.perf_counter() - t0
    ranked = sorted(rows, key=lambda r: r["rank"])
    if ranked[0]["band"] != "theta":
        failures.append(f"rank 1 is {ranked[0]['band']!r}, expected theta")
    summary = ", ".join(f"{r['band']} {r['cv_accuracy']:.3f}" for r in ranked)
    _finish(capsys, 9, "band sweep ranks theta first", failures,
            f"{summary}, {elapsed:.1f}s")


# -- 10: CLI determinism -------------------------------------------------------

def test_c10_cli_run_byte_identical(capsys, tmp_path):
    failures = []
    data = tmp_path / "data"
    data.mkdir()
    for rec, _ in make_cohort(2, seed=5, base={"duration": 6.0}):
        save_recording(rec, str(data / rec.subject_id))
    cfg_path = str(tmp_path / "run.json")
    write_json(cfg_path, {
        "input_dir": str(data),
        "k": 4,
        "cv_folds": 2,
        "kmeans": {"n_inits": 10},
        "classifier": {"kind": "rf", "params": {"n_trees": 10}},
        "explain": {"method": "tree", "background": 4},
    })
    # The children run in tmp_path, where a relative PYTHONPATH entry (such
    # as `src`) resolves elsewhere; put the directory of the msaf package
    # this process imported first, so they run the same code.
    pkg_root = os.path.dirname(os.path.dirname(msaf.__file__))
    pythonpath = os.environ.get("PYTHONPATH")
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(
        [pkg_root, pythonpath] if pythonpath else [pkg_root])}
    for out, threads in (("run1", "1"), ("run2", "4")):
        try:
            proc = subprocess.run(
                [sys.executable, "-m", "msaf.cli", "run",
                 "--config", cfg_path, "--seed", "5",
                 "--out", str(tmp_path / out), "--threads", threads],
                capture_output=True, text=True, timeout=300,
                cwd=str(tmp_path), env=env,
            )
        except subprocess.TimeoutExpired as exc:
            failures.append(f"{out} timed out after {exc.timeout:g}s")
            continue
        if proc.returncode != 0:
            # The exception or msaf's JSON error line ends stderr.
            failures.append(f"{out} exited {proc.returncode}: "
                            f"{proc.stderr.strip()[-300:]}")
    differing = []
    if not failures:
        for name in ("features.csv", "eval.json", "shap.json"):
            if not filecmp.cmp(tmp_path / "run1" / name,
                               tmp_path / "run2" / name, shallow=False):
                differing.append(name)
    if differing:
        failures.append(f"artifacts differ between runs: {differing}")
    _finish(capsys, 10, "repeated `msaf run` byte-identical", failures,
            "features.csv, eval.json, shap.json at --threads 1 vs 4")
