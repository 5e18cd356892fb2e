"""Workloads, op execution and output checks of the msaf benchmark.

An *op* is what a user runs: fresh ``msaf`` processes over a generated
cohort of ``.eegb`` files. Every process is launched with the absolute
path of the repository's ``src/`` on PYTHONPATH (the package is not
installed), runs with the work directory as its cwd, and is reaped with
``os.wait4`` so its own CPU time and max-RSS are read, not the
cumulative ``RUSAGE_CHILDREN``. Every op's outputs are checked before its
output directory is deleted.
"""
from __future__ import annotations

import hashlib
import json
import os
import shutil
import subprocess
import sys
import time
from dataclasses import dataclass, field, replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
# One BLAS/OpenMP thread, set before numpy loads here and inherited by every
# msaf process: ops run --threads 1, and on a small shared box BLAS thread
# pools only add noise.
THREAD_ENV = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1", "MKL_NUM_THREADS": "1"}
os.environ.update(THREAD_ENV)

import numpy as np  # noqa: E402

import msaf  # noqa: E402

FS = 250.0
K = 4
BANDPASS = {"kind": "bandpass", "low": 2.0, "high": 20.0}
# The program's own seed is fixed; the workload seed only shapes the cohort.
COMMON_FLAGS = ("--seed", "0", "--threads", "1")
SETUP_REPS = 3
SHAP_TOL = 1e-6
MAP_R_FLOOR = 0.9
# Artifacts that must be byte-identical across every repetition of a workload.
IDENTICAL = ("features.csv", "eval.json", "shap.json")
PIECEWISE_OUTPUTS = ("features.csv", "model.json", "eval.json", "shap.json")


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a cohort shape and the op run on it.

    For a piecewise workload the run config describes the preparatory
    ``msaf run`` made during set-up; the op then runs ``features``,
    ``train``, ``evaluate`` and ``explain`` over its artifacts.
    """

    name: str
    n_per_class: int
    duration_s: float
    classifier: str
    cv_folds: int
    explain_method: str
    background: int
    params: dict = field(default_factory=dict)
    piecewise: bool = False

    def smoke(self) -> "Workload":
        """The same op on a cohort of 3 subjects per class x 6 s.

        Three, not two: GBT's early stopping needs 4 training rows per fold.
        """
        return replace(self, n_per_class=3, duration_s=6.0, cv_folds=2)

    def run_config(self) -> dict:
        return {
            "input_dir": "inputs",
            "k": K,
            "steps": [BANDPASS],
            "classifier": {"kind": self.classifier, "params": dict(self.params)},
            "cv_folds": self.cv_folds,
            "explain": {"method": self.explain_method, "background": self.background},
        }

    def run_command(self, out: str) -> list[str]:
        """`msaf run` of the run config, writing to `out` (relative to the work dir)."""
        return ["run", "--config", "run.json", "--out", out, *COMMON_FLAGS]

    def op_commands(self, out: str) -> list[list[str]]:
        """msaf argument lists of one op writing to `out` (relative to the work dir)."""
        if not self.piecewise:
            return [self.run_command(out)]
        common = COMMON_FLAGS  # piecewise: the CLI verbs with their defaults
        return [
            ["features", "prep/segmentations", "--out", f"{out}/features.csv", *common],
            ["train", f"{out}/features.csv", "--model", self.classifier,
             "--out", f"{out}/model.json", *common],
            ["evaluate", f"{out}/features.csv", "--model", self.classifier,
             "--folds", str(self.cv_folds), "--out", f"{out}/eval.json", *common],
            ["explain", f"{out}/model.json", f"{out}/features.csv",
             "--out", f"{out}/shap.json", *common],
        ]


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            name="long-recordings",
            n_per_class=6, duration_s=120.0, classifier="rf", cv_folds=3,
            explain_method="tree", background=16,
        ),
        Workload(
            name="many-subjects",
            n_per_class=30, duration_s=8.0, classifier="gbt", cv_folds=5,
            explain_method="tree", background=32,
            # A fixed number of rounds: with early stopping the ensemble's
            # size, and so fit, CV and TreeSHAP cost, varied up to 6x by seed.
            params={"n_rounds": 30, "valid_fraction": 0.0},
        ),
        Workload(
            name="piecewise",
            n_per_class=10, duration_s=60.0, classifier="svm", cv_folds=5,
            explain_method="auto", background=32, piecewise=True,
        ),
    )
}


def write_cohort(n_per_class: int, duration_s: float, seed: int, out: Path, reps: int) -> dict:
    """Generate a cohort and write it to `out`, `reps` times over.

    Returns, per repetition, the seconds in make_cohort (generate_s), in
    make_cohort plus the writes (setup_s), and a digest of the written files.
    """
    result: dict = {"generate_s": [], "setup_s": [], "digest": []}
    for _ in range(reps):
        shutil.rmtree(out, ignore_errors=True)
        out.mkdir()
        start = time.perf_counter()
        pairs = msaf.make_cohort(n_per_class, seed=seed, base={"duration": duration_s, "fs": FS})
        generated = time.perf_counter()
        for rec, _ in pairs:
            msaf.save_recording(rec, str(out / rec.subject_id))
        result["setup_s"].append(time.perf_counter() - start)
        result["generate_s"].append(generated - start)
        del pairs
        digest = hashlib.sha256()
        for p in sorted(out.iterdir()):
            digest.update(p.read_bytes())
        result["digest"].append(digest.hexdigest())
    return result


def child_env() -> dict:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(SRC), os.environ.get("PYTHONPATH", "")) if p
    )
    return env


def msaf_argv(args: list[str]) -> list[str]:
    return [sys.executable, "-m", "msaf.cli", *args]


def traced_argv(spans_path: str, args: list[str]) -> list[str]:
    return [sys.executable, str(HERE / "tracing.py"), spans_path, *args]


@dataclass
class ProcStats:
    code: int
    wall_s: float
    cpu_s: float
    max_rss_mb: float


def launch(argv: list[str], cwd: Path, log: Path) -> ProcStats:
    """Run one process to completion; stderr goes to `log`."""
    with open(log, "wb") as err:
        start = time.perf_counter()
        proc = subprocess.Popen(
            argv, cwd=cwd, env=child_env(), stdin=subprocess.DEVNULL,
            stdout=subprocess.DEVNULL, stderr=err,
        )
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return ProcStats(
        code=proc.returncode,
        wall_s=wall,
        cpu_s=usage.ru_utime + usage.ru_stime,
        max_rss_mb=usage.ru_maxrss * 1024 / 1e6,
    )


def dir_bytes(path: Path) -> int:
    return sum(p.stat().st_size for p in path.rglob("*") if p.is_file())


def sha256(path: Path) -> str:
    return hashlib.sha256(path.read_bytes()).hexdigest()


def read_json(path: Path):
    with open(path, "r", encoding="utf-8") as f:
        return json.load(f)


# --- output checks: each returns a list of problems, empty when the output holds


def map_template_r_min(maps_path: Path) -> float:
    """Minimum |r| between each labeled group map and its canonical template."""
    maps = msaf.MicrostateMaps.from_json_dict(read_json(maps_path))
    templates = msaf.canonical_templates(msaf.standard_1020_montage(maps.channels))
    r = []
    for i, label in enumerate(maps.labels):
        if label not in templates.labels:
            return 0.0
        j = templates.labels.index(label)
        r.append(abs(msaf.spatial_correlation(maps.maps[i], templates.maps[j])))
    return float(min(r))


def check_maps(maps_path: Path) -> tuple[list[str], float]:
    r = map_template_r_min(maps_path)
    if not r >= MAP_R_FLOOR:
        return [f"{maps_path.name}: map/template |r| {r:.4f} < {MAP_R_FLOOR}"], r
    return [], r


def check_local_accuracy(model_path: Path, features_path: Path, shap_path: Path) -> list[str]:
    """phi0 + sum(phi) equals the reloaded model's score for every explained row."""
    model = msaf.model_from_json_dict(read_json(model_path))
    table = msaf.load_feature_table(str(features_path))
    shap = read_json(shap_path)
    if shap.get("subject_ids") != list(table.subject_ids):
        return [f"{shap_path.name}: subject ids differ from {features_path.name}"]
    phi = np.asarray(shap["phi"], dtype=np.float64)
    phi0 = np.asarray(shap["phi0"], dtype=np.float64)
    expected = (table.n_rows, len(table.feature_names), len(model.classes))
    if phi.shape != expected or phi0.shape != expected[2:]:
        return [f"{shap_path.name}: phi {phi.shape} / phi0 {phi0.shape}, expected {expected}"]
    if isinstance(model, msaf.GbtModel):
        score = model.margins(table.values)
    else:
        score = model.decision_scores(table.values)
    err = float(np.max(np.abs(phi0 + phi.sum(axis=1) - score)))
    if not err <= SHAP_TOL:
        return [f"{shap_path.name}: local accuracy error {err:.3g} > {SHAP_TOL}"]
    return []


def check_manifest(out: Path) -> list[str]:
    manifest = read_json(out / "manifest.json")
    return [
        f"manifest artifact missing: {a}"
        for a in manifest["artifacts"] if not (out / a).is_file()
    ]


def cv_accuracy(eval_path: Path) -> float:
    return float(read_json(eval_path)["accuracy"])


@dataclass
class OpResult:
    """Accounting and checks of one op."""

    wall_s: float = 0.0
    cpu_s: float = 0.0
    peak_rss_mb: float = 0.0
    output_mb: float = 0.0
    cv_accuracy: float = 0.0
    map_r_min: float = 0.0
    problems: list[str] = field(default_factory=list)
    span_docs: list[dict] = field(default_factory=list)


class WorkloadRun:
    """Set-up, ops and checks of one workload at one seed, inside `work`."""

    def __init__(self, workload: Workload, seed: int, work: Path):
        self.w = workload
        self.seed = seed
        self.work = Path(work)
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []
        self.reference: dict[str, str] = {}
        self.prep_maps_r = 0.0
        self._n_ops = 0

    # -- set-up

    def setup(self) -> tuple[float, float]:
        """Write the cohort SETUP_REPS times; for a piecewise workload also
        make the preparatory run. Returns (setup_s, make_cohort seconds), medians.

        The cohort is written by a child process: wait4 reports a child's
        max-RSS as at least its parent's peak RSS at spawn, so this process
        must never hold a cohort.
        """
        self.work.mkdir(parents=True, exist_ok=True)
        (self.work / "run.json").write_text(json.dumps(self.w.run_config(), indent=2))
        argv = [sys.executable, str(HERE / "workloads.py"), str(self.w.n_per_class),
                str(self.w.duration_s), str(self.seed), "inputs", str(SETUP_REPS)]
        proc = subprocess.run(argv, cwd=self.work, env=child_env(), capture_output=True, text=True)
        if proc.returncode != 0:
            raise RuntimeError(f"writing the cohort failed: {proc.stderr.strip()[-400:]}")
        done = json.loads(proc.stdout)
        if len(set(done["digest"])) != 1:
            raise RuntimeError("the same seed generated different inputs")
        setup_s = float(np.median(done["setup_s"]))
        if self.w.piecewise:
            res = self.op(prep=True)
            if res.problems:
                raise RuntimeError("preparatory run failed: " + "; ".join(res.problems))
            setup_s += res.wall_s
        return setup_s, float(np.median(done["generate_s"]))

    def input_info(self) -> dict:
        inputs = self.work / "inputs"
        subjects = sorted(p.stem for p in inputs.glob("*.eegb"))
        return {
            "seed": self.seed,
            "subjects": len(subjects),
            "seconds": self.w.duration_s,
            "channels": len(msaf.STANDARD_1020_NAMES),
            "fs": FS,
            "samples": int(round(len(subjects) * self.w.duration_s * FS)),
            "input_mb": dir_bytes(inputs) / 1e6,
        }

    # -- ops

    def op(self, traced: bool = False, prep: bool = False) -> OpResult:
        """Run, account and check one op, then delete its outputs.

        With prep=True this is the preparatory `msaf run` of a piecewise
        workload, whose outputs stay in `prep/` for the ops that follow.
        """
        if prep:
            name, commands = "prep", [self.w.run_command("prep")]
        else:
            self._n_ops += 1
            name = f"op-{self._n_ops:04d}"
            commands = self.w.op_commands(name)
        out = self.work / name
        out.mkdir()
        res = OpResult()
        log = self.work / "stderr.log"
        for i, args in enumerate(commands):
            spans = self.work / f"{name}.spans{i}.json"
            argv = traced_argv(spans.name, args) if traced else msaf_argv(args)
            stats = launch(argv, self.work, log)
            res.wall_s += stats.wall_s
            res.cpu_s += stats.cpu_s
            res.peak_rss_mb = max(res.peak_rss_mb, stats.max_rss_mb)
            if traced and spans.is_file():
                res.span_docs.append(read_json(spans))
                spans.unlink()
            if stats.code != 0:
                tail = log.read_text(errors="replace").strip()[-400:]
                res.problems.append(f"{name}: `msaf {args[0]}` exited {stats.code}: {tail}")
                break
        if not res.problems:
            try:
                res.problems += self._check(out, res, prep)
            except Exception as e:  # a malformed artifact fails the op, not the benchmark
                res.problems.append(f"{name}: check raised {type(e).__name__}: {e}")
        res.output_mb = dir_bytes(out) / 1e6
        if not prep:
            shutil.rmtree(out)
        self.attempted += 1
        if res.problems:
            self.failed += 1
            self.problems += res.problems
        return res

    def _check(self, out: Path, res: OpResult, prep: bool) -> list[str]:
        problems = []
        if self.w.piecewise and not prep:
            problems += [
                f"missing output: {f}" for f in PIECEWISE_OUTPUTS if not (out / f).is_file()
            ]
            if problems:
                return problems
            if (out / "features.csv").read_bytes() != (
                    self.work / "prep" / "features.csv").read_bytes():
                problems.append("features.csv differs from the preparatory run's")
            res.map_r_min = self.prep_maps_r
        else:
            problems += check_manifest(out)
            if problems:
                return problems
            found, res.map_r_min = check_maps(out / "maps.json")
            problems += found
            if prep:
                self.prep_maps_r = res.map_r_min
        problems += check_local_accuracy(out / "model.json", out / "features.csv", out / "shap.json")
        res.cv_accuracy = cv_accuracy(out / "eval.json")
        if not prep:
            for f in IDENTICAL:
                digest = sha256(out / f)
                if self.reference.setdefault(f, digest) != digest:
                    problems.append(f"{f} differs from the first repetition")
        return problems


if __name__ == "__main__":
    # python3 workloads.py N_PER_CLASS DURATION_S SEED OUT_DIR REPS (see WorkloadRun.setup)
    n, duration, seed, out, reps = sys.argv[1:6]
    print(json.dumps(write_cohort(int(n), float(duration), int(seed), Path(out), int(reps))))
