"""EEG microstate analysis framework.

Resting-state EEG in, diagnosis-ready artifacts out: deterministic
preprocessing, polarity-invariant microstate segmentation, temporal
dynamics features, from-scratch classifiers with additive attribution,
and nonparametric group statistics, all driven by one seed.

`import msaf` loads `errors`, `io`, `preprocess`, `microstates`,
`features`, `models` and `explain` at once. `stats`, `synth`, `topo` and
`pipeline`, and the names they make public, load on first use.
"""

from importlib import import_module as _import_module

from . import errors

__version__ = "0.1.0"

# Each submodule and the names it makes public, imported in this order: a name is
# bound after its submodule loads, so `msaf.explain` is the function, not the module.
# Every MsafError subclass in `errors` is public.
_PUBLIC = {
    "errors": " ".join(name for name, obj in vars(errors).items()
                       if isinstance(obj, type) and issubclass(obj, errors.MsafError)),
    "io": """
        FeatureTable Montage Recording STANDARD_1020_NAMES commit_segmentation
        load_feature_table load_recording load_segmentation read_json save_recording
        standard_1020_montage write_json""",
    "preprocess": """
        FirFilter apply_fir average_reference crop design_fir_bandpass design_fir_lowpass
        design_fir_notch resample surface_laplacian zscore_channels""",
    "microstates": """
        MicrostateMaps Segmentation backfit find_gfp_peaks gev gfp group_cluster label_maps
        modified_kmeans spatial_correlation""",
    "features": "STATE_METRICS build_feature_table extract_features",
    "models": """
        DEFAULT_GRIDS EvalReport GbtModel MODEL_KINDS RfModel SvmModel evaluate grid_search
        make_trainer model_from_json_dict stratified_fold_indices stratified_kfold_cv
        train_gbt train_rf train_svm_ovr""",
    "explain": "ShapExplanation explain global_ranking",
    "stats": """
        PairwiseResult TestResult chi_square_sf dunn_posthoc kruskal_wallis normal_sf
        shapiro_wilk""",
    "synth": """
        CANONICAL_LABELS STANDARD_BANDS SynthConfig canonical_templates
        default_cohort_profiles generate make_band_cohort make_cohort transition_from_weights""",
    "topo": "render_bar_chart render_topomap",
    "pipeline": "PipelineConfig band_sweep config_hash run_pipeline",
}

# name -> the submodule that defines it, for the submodules loaded on first use
# (the submodule's own name included)
_LAZY = {name: module for module in ("stats", "synth", "topo", "pipeline")
         for name in [module, *_PUBLIC[module].split()]}

__all__ = ["__version__"]
for _module, _names in _PUBLIC.items():
    __all__ += _names.split()
    if _module not in _LAZY:
        _loaded = _import_module(f".{_module}", __name__)
        for _name in _names.split():
            globals()[_name] = getattr(_loaded, _name)
del _module, _names, _loaded, _name


def __getattr__(name):
    if name not in _LAZY:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _import_module(f".{_LAZY[name]}", __name__)
    return module if name == _LAZY[name] else getattr(module, name)


def __dir__():
    return sorted({*globals(), *_LAZY})
