"""Traced msaf process and span aggregation for the benchmark's traced run.

Run as a script, this is one traced CLI invocation:

    python3 perfbench/tracing.py SPANS_JSON <msaf arguments...>

It imports msaf, wraps the public functions of each module in timing
spans, calls ``msaf.cli.main`` with the remaining arguments and, when
the command returns, writes the spans and counters to SPANS_JSON. The
program source is not modified; the wrappers are installed by rebinding
names in the already-imported msaf modules.

Imported as a module, it provides :func:`layer_metrics`, which turns the
span files of one op (one file per traced process) into per-layer metrics.
"""
from __future__ import annotations

import functools
import json
import os
import sys
import time
from collections import Counter, defaultdict


class Tracer:
    """In-memory spans (name, start, end, parent index) and counters.

    A call into a layer that is already open on the stack gets no span of
    its own, so a layer's time is never counted twice when one of its
    functions calls another (``load_input_recordings`` calling
    ``load_recording``, ``GbtModel.decision_scores`` calling ``margins``).
    """

    def __init__(self):
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._open: Counter = Counter()

    def wrap(self, name, fn, count=None):
        """Span every outermost call of fn under `name`.

        count(counts, args, kwargs, result) runs after a spanned call and
        adds the call's work to the counters.
        """

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if self._open[name]:
                return fn(*args, **kwargs)
            idx = len(self.spans)
            parent = self._stack[-1] if self._stack else -1
            self.spans.append([name, 0.0, 0.0, parent])
            self._stack.append(idx)
            self._open[name] += 1
            start = time.perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                self._stack.pop()
                self._open[name] -= 1
                self.spans[idx][1] = start
                self.spans[idx][2] = end
            if count is not None:
                count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def counter(self, fn, count):
        """Count the work of every call of fn without opening a span."""

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            result = fn(*args, **kwargs)
            count(self.counts, args, kwargs, result)
            return result

        return wrapper

    def dump(self, path: str) -> None:
        with open(path, "w", encoding="utf-8") as f:
            json.dump({"spans": self.spans, "counts": dict(self.counts)}, f)


# --- counters: each reads the work of one call from its arguments or result


def _file_bytes(prefix, arg):
    """Size of the file named by positional argument `arg`."""

    def count(counts, args, kwargs, result):
        counts[prefix + "_bytes"] += os.path.getsize(args[arg])
        counts[prefix + "_files"] += 1

    return count


def _saved_recording(counts, args, kwargs, result):
    counts["io.write_bytes"] += sum(os.path.getsize(p) for p in result)
    counts["io.write_files"] += len(result)


def _samples(key):
    """Time points of the recording or segmentation passed first."""

    def count(counts, args, kwargs, result):
        counts[key] += args[0].n_samples

    return count


def _rows_scored(counts, args, kwargs, result):
    counts["models.rows_scored"] += len(result)


def _explained(counts, args, kwargs, result):
    counts["explain.instances"] += result.phi.shape[0]


def _coalitions(counts, args, kwargs, result):
    counts["explain.coalitions"] += args[3].shape[0]


def _kmeans_work(counts, fn):
    """modified_kmeans that also counts its peak maps and recorded iterates."""

    @functools.wraps(fn)
    def wrapper(peak_maps, k, *args, trace_sink=None, **kwargs):
        sink = [] if trace_sink is None else trace_sink
        before = len(sink)
        result = fn(peak_maps, k, *args, trace_sink=sink, **kwargs)
        counts["microstates.kmeans_peak_maps"] += len(peak_maps)
        counts["microstates.kmeans_iterations"] += len(sink) - before
        return result

    return wrapper


# (module, function, span name, counter). Each function is wrapped once and
# the wrapper replaces every binding of it in the msaf modules, because
# msaf.pipeline and msaf.cli import functions by name.
FUNCTIONS = (
    ("msaf.pipeline", "run_pipeline", "pipeline.run", None),
    ("msaf.pipeline", "load_input_recordings", "io.load", None),
    ("msaf.io", "load_recording", "io.load", None),
    ("msaf.io", "save_recording", "io.write", _saved_recording),
    ("msaf.io", "write_json", "io.write", _file_bytes("io.write", 0)),
    ("msaf.pipeline", "_commit_text", "io.write", _file_bytes("io.write", 0)),
    ("msaf.io", "read_json", "io.read", _file_bytes("io.read", 0)),
    ("msaf.io", "load_feature_table", "io.read", _file_bytes("io.read", 0)),
    ("msaf.preprocess", "apply_fir", "preprocess.fir", _samples("preprocess.samples")),
    ("msaf.microstates", "gfp", "microstates.peaks", None),
    ("msaf.microstates", "find_gfp_peaks", "microstates.peaks", None),
    ("msaf.microstates", "group_cluster", "microstates.group", None),
    ("msaf.microstates", "label_maps", "microstates.group", None),
    ("msaf.microstates", "backfit", "microstates.backfit",
     _samples("microstates.backfit_samples")),
    ("msaf.features", "extract_features", "features.extract", _samples("features.samples")),
    ("msaf.models.evaluate", "stratified_kfold_cv", "models.cv", None),
    ("msaf.explain", "explain", "explain", _explained),
    ("msaf.pipeline", "compute_stats", "stats", None),
)


def install(tracer: Tracer) -> None:
    """Wrap msaf's public functions in spans of `tracer`."""
    import msaf
    import msaf.cli  # noqa: F401  (binds the names the CLI imported)

    modules = [
        m for n, m in list(sys.modules.items())
        if m is not None and (n == "msaf" or n.startswith("msaf."))
    ]

    def rebind(orig, wrapped):
        for m in modules:
            for attr, val in list(vars(m).items()):
                if val is orig:
                    setattr(m, attr, wrapped)

    for mod_name, attr, name, count in FUNCTIONS:
        orig = getattr(sys.modules[mod_name], attr)
        rebind(orig, tracer.wrap(name, orig, count))

    # Only the pipeline's per-subject call site: group_cluster calls
    # microstates.modified_kmeans internally, and that time belongs to
    # microstates.group.
    pipeline = sys.modules["msaf.pipeline"]
    pipeline.modified_kmeans = tracer.wrap(
        "microstates.kmeans", _kmeans_work(tracer.counts, pipeline.modified_kmeans)
    )

    # make_trainer looks trainers up in this table at call time.
    trainers = sys.modules["msaf.models"]._TRAINERS
    for kind, fn in list(trainers.items()):
        trainers[kind] = tracer.wrap("models.train", fn)

    for cls in (msaf.SvmModel, msaf.RfModel, msaf.GbtModel):
        for meth in ("decision_scores", "margins"):
            if meth in vars(cls):
                setattr(cls, meth, tracer.wrap("models.score", vars(cls)[meth], _rows_scored))

    msaf.FeatureTable.to_csv = tracer.wrap(
        "io.write", vars(msaf.FeatureTable)["to_csv"], _file_bytes("io.write", 1)
    )
    decode = vars(msaf.Segmentation)["from_json_dict"].__func__
    msaf.Segmentation.from_json_dict = classmethod(
        tracer.wrap("microstates.seg_decode", decode)
    )
    # `import msaf.explain` yields the explain() function, not the module.
    explain_mod = sys.modules["msaf.explain"]
    explain_mod._coalition_values = tracer.counter(explain_mod._coalition_values, _coalitions)


def main(argv: list[str]) -> int:
    spans_path, msaf_argv = argv[0], argv[1:]
    import msaf.cli

    tracer = Tracer()
    install(tracer)
    try:
        code = msaf.cli.main(msaf_argv)
    except SystemExit as e:
        code = e.code if isinstance(e.code, int) else (0 if e.code is None else 1)
    finally:
        tracer.dump(spans_path)
    return int(code or 0)


# --- aggregation in the benchmark process


def span_times(docs: list[dict]) -> tuple[dict, dict, Counter, float]:
    """Total and self seconds per span name over the processes of one op.

    Also returns call counts and the time of trainer calls made outside
    cross-validation (the final fit).
    """
    total: dict = defaultdict(float)
    self_time: dict = defaultdict(float)
    calls: Counter = Counter()
    fit = 0.0
    for doc in docs:
        spans = doc["spans"]
        covered = [0.0] * len(spans)
        for name, start, end, parent in spans:
            if parent >= 0:
                covered[parent] += end - start
        for i, (name, start, end, parent) in enumerate(spans):
            total[name] += end - start
            self_time[name] += end - start - covered[i]
            calls[name] += 1
            if name == "models.train":
                p = parent
                while p >= 0 and spans[p][0] != "models.cv":
                    p = spans[p][3]
                if p < 0:
                    fit += end - start
    return total, self_time, calls, fit


def _ratio(num: float, den: float) -> float:
    return num / den if den > 0 else 0.0


def layer_metrics(docs: list[dict]) -> dict:
    """Per-layer metrics of one traced op (units as in BENCHMARK.json)."""
    total, self_time, calls, fit = span_times(docs)
    counts: Counter = Counter()
    for doc in docs:
        counts.update(doc["counts"])
    kmeans_s = total["microstates.kmeans"]
    return {
        "io.load_s": total["io.load"],
        "io.write_s": total["io.write"],
        "io.write_mb": counts["io.write_bytes"] / 1e6,
        "io.write_files": counts["io.write_files"],
        "io.read_s": total["io.read"],
        "io.read_mb": counts["io.read_bytes"] / 1e6,
        "preprocess.fir_s": total["preprocess.fir"],
        "preprocess.msamples_per_s": _ratio(
            counts["preprocess.samples"] / 1e6, total["preprocess.fir"]),
        "microstates.peaks_s": total["microstates.peaks"],
        "microstates.kmeans_s": kmeans_s,
        "microstates.kmeans_ms_per_subject": _ratio(
            kmeans_s * 1e3, calls["microstates.kmeans"]),
        "microstates.kmeans_peak_maps": counts["microstates.kmeans_peak_maps"],
        "microstates.kmeans_iterations": counts["microstates.kmeans_iterations"],
        "microstates.group_s": total["microstates.group"],
        "microstates.backfit_s": total["microstates.backfit"],
        "microstates.backfit_msamples_per_s": _ratio(
            counts["microstates.backfit_samples"] / 1e6, total["microstates.backfit"]),
        "microstates.seg_decode_s": total["microstates.seg_decode"],
        "features.extract_s": total["features.extract"],
        "features.msamples_per_s": _ratio(
            counts["features.samples"] / 1e6, total["features.extract"]),
        "models.fit_s": fit,
        "models.cv_s": total["models.cv"],
        "models.score_s": total["models.score"],
        "models.rows_scored": counts["models.rows_scored"],
        "explain.s": total["explain"],
        "explain.ms_per_instance": _ratio(
            total["explain"] * 1e3, counts["explain.instances"]),
        "explain.self_s": self_time["explain"],
        "explain.coalitions": counts["explain.coalitions"],
        "stats.s": total["stats"],
        "pipeline.self_s": self_time["pipeline.run"],
    }


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
