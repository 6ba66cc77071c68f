"""One benchmark repetition, run in a fresh process by bench/run.py.

The process sets up one workload (imports, config parsing and, for
files_roundtrip, writing the world and model files), notes the moment the
timed operation can begin, runs it and writes a JSON result file. The
working directory is the repetition's scratch directory; every path the
program sees is relative to it.

With ``--traced`` the operation is rebuilt from the package's public calls
(the bodies of ``run_experiment``, ``run_level`` and the ``cmd_*``
functions) with a span around each call into a layer. The untraced and
traced forms must write the same bytes; run.py checks that.

Usage: python3 bench/child.py --workload NAME --seed N --scale full|tiny
       --result PATH [--traced]
"""

from __future__ import annotations

import argparse
import hashlib
import inspect
import json
import os
import sys
import time
from contextlib import contextmanager

import numpy as np
import workloads as wl

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
sys.path.insert(0, SRC)

import recwhiten  # noqa: E402
from recwhiten import cli, experiment, metrics, plda, whitening  # noqa: E402
from recwhiten.config import load_experiment_config, parse_experiment_config  # noqa: E402
from recwhiten.data import (load_scores, load_trials, load_vector_table,  # noqa: E402
                            save_scores)
from recwhiten.projection import project_sets  # noqa: E402
from recwhiten.synth import generate_world  # noqa: E402

WORLD = {key: f"{wl.WORLD_DIR}/{fname}" for key, fname in wl.WORLD_FILES.items()}

FILES_ARGV = [
    ["run-experiment", "--config", wl.DATA_CONFIG_PATH, "--out", wl.EXP_DIR],
    ["score", "--plda", wl.PLDA_PATH, "--enroll", WORLD["enroll"],
     "--test", WORLD["test"], "--trials", WORLD["trials"],
     "--whitener", wl.WHITENER_PATH, "--out", wl.SCORES_PATH],
    ["evaluate", "--scores", wl.SCORES_PATH, "--out", wl.REPORT_PATH],
    ["project"] + [a for k in wl.PROJECTED_SETS for a in ("--vectors", WORLD[k])]
    + ["--whitener", wl.WHITENER_PATH, "--out", wl.PROJECTION_PATH],
]

# Globals of the whitening module that fit_recursive calls, and their spans.
FIT_SPANS = {"fit_stage": "whitening.fit_stage",
             "transform_matrix": "whitening.transform_matrix",
             "estimate_moments": "stats.estimate_moments",
             "select_subcorpus": "whitening.select_subcorpus",
             "whitening_matrix": "stats.whitening_matrix"}

# Functions the traced run rebuilds from public calls, or runs with wrapped
# globals. run.py compares digests of their source with reference.json, so a
# change to any of them fails --trace 1 until the rebuild here follows it.
REBUILT = (experiment.load_corpora, experiment.fit_full_whitener,
           whitening.fit_recursive, experiment.run_level, experiment.run_experiment,
           cli._load_config, cli.cmd_run_experiment, cli.cmd_score,
           cli.cmd_evaluate, cli.cmd_project)

# Spans whose self time counts as per-trial work in share.trials.
TRIAL_SPANS = {"plda.score_trials", "plda.cohort_score", "metrics.snorm",
               "metrics.evaluate", "data.save_scores", "data.load_trials",
               "data.load_scores"}


class Tracer:
    """In-memory span recorder: name, start, end, parent span and run id,
    plus the counts recorded at the same boundary."""

    def __init__(self, run_id: str):
        self.run_id = run_id
        self.spans: list[dict] = []
        self._stack: list[int] = []

    @contextmanager
    def span(self, name: str, **counts):
        rec = {"id": len(self.spans), "name": name, "run": self.run_id,
               "parent": self._stack[-1] if self._stack else None,
               "start": time.perf_counter(), "end": None, "counts": counts}
        self.spans.append(rec)
        self._stack.append(rec["id"])
        try:
            yield rec
        finally:
            rec["end"] = time.perf_counter()
            self._stack.pop()


# --- set-up and the untraced operation --------------------------------------

def setup(name: str, scale: str, seed: int):
    """Everything before the timed operation; returns what the operation needs."""
    cfg = parse_experiment_config(wl.synth_config_text(name, scale, seed))
    os.makedirs(wl.OUT_DIR)
    if not wl.WORKLOADS[name]["files"]:
        return cfg
    world = generate_world(cfg.synth)
    experiment.write_world(world, wl.WORLD_DIR, cfg.config_hash)
    corpora = experiment.Corpora(world.ood_labeled, world.indomain_unlabeled,
                                 world.enroll, world.test, world.trials)
    full = experiment.fit_full_whitener(cfg, corpora)
    whitening.save_whitener(full, wl.WHITENER_PATH)
    model = plda.train_plda(whitening.transform_set(full, corpora.ood), cfg.plda_rank)
    plda.save_plda(model, wl.PLDA_PATH)
    with open(wl.DATA_CONFIG_PATH, "w", encoding="utf-8") as fh:
        fh.write(wl.data_config_text(name))
    return None


def run_plain(name: str, cfg) -> None:
    if cfg is not None:
        experiment.run_experiment(cfg, wl.EXP_DIR)
        return
    for argv in FILES_ARGV:
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"recwhiten {argv[0]} exited with {code}")


# --- the traced rebuild -----------------------------------------------------

def t_transform(tr, w, vset):
    with tr.span("whitening.transform_set", rows=len(vset)):
        return whitening.transform_set(w, vset)


def t_load_vectors(tr, path):
    with tr.span("data.load_vector_table", bytes_read=os.path.getsize(path)):
        return load_vector_table(path)


def t_load_corpora(tr, cfg):
    if cfg.synth is not None:
        with tr.span("synth.generate_world"):
            w = generate_world(cfg.synth)
        return experiment.Corpora(w.ood_labeled, w.indomain_unlabeled,
                                  w.enroll, w.test, w.trials)
    p = cfg.data_paths
    sets = [t_load_vectors(tr, p[k]) for k in ("ood", "unlabeled", "enroll", "test")]
    with tr.span("data.load_trials", bytes_read=os.path.getsize(p["trials"])):
        trials = load_trials(p["trials"])
    return experiment.Corpora(*sets, trials)


@contextmanager
def spans_around(tr, module, labels: dict[str, str]):
    """Swap the named module globals for wrappers that record a span around
    each call, so that an unmodified function looking them up at call time
    reports its inner layers; the originals are restored on exit."""
    saved = {name: getattr(module, name) for name in labels}

    def wrap(label, fn):
        def traced(*args, **kwargs):
            with tr.span(label):
                return fn(*args, **kwargs)
        return traced

    for name, label in labels.items():
        setattr(module, name, wrap(label, saved[name]))
    try:
        yield
    finally:
        for name, fn in saved.items():
            setattr(module, name, fn)


def t_fit_full_whitener(tr, cfg, corpora):
    """The program's own fit_full_whitener, with its calls into whitening and
    stats spanned."""
    with tr.span("experiment.fit_full_whitener"), \
            spans_around(tr, experiment, {"fit_recursive": "whitening.fit_recursive"}), \
            spans_around(tr, whitening, FIT_SPANS):
        return experiment.fit_full_whitener(cfg, corpora)


def t_run_level(tr, cfg, corpora, w, level, probe):
    with tr.span("experiment.run_level", level=level):
        ood_t = t_transform(tr, w, corpora.ood)
        enroll_t = t_transform(tr, w, corpora.enroll)
        test_t = t_transform(tr, w, corpora.test)
        with tr.span("plda.train_plda", rows=len(ood_t)):
            model = plda.train_plda(ood_t, cfg.plda_rank)
        with tr.span("plda.score_trials", trials=len(corpora.trials)):
            scores = plda.score_trials(model, enroll_t, test_t, corpora.trials)
        probe["score"] = (model, enroll_t, test_t, corpora.trials)
        if cfg.snorm:
            cohort_t = t_transform(tr, w, corpora.unlabeled)
            with tr.span("plda.cohort_score"):
                model_ids, model_vecs = plda.enroll_models(enroll_t)
                cohort_mat = cohort_t.matrix()
                e_scores = plda.score_matrix(model, model_vecs, cohort_mat)
                t_scores = plda.score_matrix(model, test_t.matrix(), cohort_mat)
                enroll_cohort = {mid: e_scores[i] for i, mid in enumerate(model_ids)}
                test_cohort = {e.id: t_scores[i] for i, e in enumerate(test_t.entries)}
            with tr.span("metrics.snorm", trials=len(scores)):
                scores = metrics.snorm(scores, enroll_cohort, test_cohort)
        with tr.span("metrics.evaluate", trials=len(scores)):
            report = metrics.evaluate(scores, cfg.ops)
    return scores, report


def t_save_scores(tr, scores, path):
    with tr.span("data.save_scores", trials=len(scores)) as rec:
        save_scores(scores, path)
    rec["counts"]["bytes_written"] = os.path.getsize(path)


def t_run_experiment(tr, cfg, out_dir, probe):
    """run_experiment, writing straight into out_dir (same names and bytes)."""
    with tr.span("experiment.run_experiment"):
        corpora = t_load_corpora(tr, cfg)
        full = t_fit_full_whitener(tr, cfg, corpora)
        probe["transform"] = (full, corpora.ood)
        header = [f"config_hash={cfg.config_hash}",
                  f"snorm={'on' if cfg.snorm else 'off'}"]
        reports = {}
        os.makedirs(out_dir, exist_ok=True)
        for level in cfg.levels:
            scores, report = t_run_level(
                tr, cfg, corpora, experiment.whitener_prefix(full, level), level, probe)
            report.header = header + [f"level={level}"]
            with open(os.path.join(out_dir, f"report_level{level}.txt"), "w",
                      encoding="utf-8") as fh:
                fh.write(report.render())
            t_save_scores(tr, scores, os.path.join(out_dir, f"scores_level{level}.txt"))
            reports[level] = report
        with tr.span("whitening.save_whitener"):
            whitening.save_whitener(full, os.path.join(out_dir, "whitener.txt"))
        with open(os.path.join(out_dir, "comparison.txt"), "w", encoding="utf-8") as fh:
            for h in header:
                fh.write(f"#{h}\n")
            fh.write(experiment.comparison_table(cfg, reports))
    return reports


def t_files(tr, probe) -> None:
    """The four cmd_* bodies that FILES_ARGV runs through cli.main."""
    with tr.span("cli.run_experiment"):
        with tr.span("config.load_experiment_config"):
            cfg = load_experiment_config(wl.DATA_CONFIG_PATH)
        reports = t_run_experiment(tr, cfg, wl.EXP_DIR, probe)
        sys.stdout.write(experiment.comparison_table(cfg, reports))

    with tr.span("cli.score"):
        with tr.span("plda.load_plda"):
            model = plda.load_plda(wl.PLDA_PATH)
        enroll = t_load_vectors(tr, WORLD["enroll"])
        test = t_load_vectors(tr, WORLD["test"])
        with tr.span("data.load_trials", bytes_read=os.path.getsize(WORLD["trials"])):
            trials = load_trials(WORLD["trials"])
        with tr.span("whitening.load_whitener"):
            w = whitening.load_whitener(wl.WHITENER_PATH)
        enroll = t_transform(tr, w, enroll)
        test = t_transform(tr, w, test)
        with tr.span("plda.score_trials", trials=len(trials)):
            scores = plda.score_trials(model, enroll, test, trials)
        probe["score"] = (model, enroll, test, trials)
        t_save_scores(tr, scores, wl.SCORES_PATH)
        print(wl.SCORES_PATH)

    with tr.span("cli.evaluate"):
        with tr.span("data.load_scores", bytes_read=os.path.getsize(wl.SCORES_PATH)):
            scores = load_scores(wl.SCORES_PATH)
        ops = metrics.DEFAULT_OPERATING_POINTS
        with tr.span("metrics.evaluate", trials=len(scores)):
            report = metrics.evaluate(scores, ops)
        report.header = [f"scores={wl.SCORES_PATH}"] + [
            f"op={op.name}:{op.p_target}:{op.c_miss}:{op.c_fa}" for op in ops]
        text = report.render()
        with open(wl.REPORT_PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
        sys.stdout.write(text)

    with tr.span("cli.project"):
        sets = [t_load_vectors(tr, WORLD[k]) for k in wl.PROJECTED_SETS]
        with tr.span("whitening.load_whitener"):
            w = whitening.load_whitener(wl.WHITENER_PATH)
        with tr.span("projection.project_sets", rows=sum(len(s) for s in sets)):
            text = project_sets(sets, w, 2)
        with open(wl.PROJECTION_PATH, "w", encoding="utf-8") as fh:
            fh.write(text)
        print(wl.PROJECTION_PATH)


def calibrate() -> float:
    """Wall time of a fixed loop that never changes with the program: Python
    object work (dicts, sorting, formatting) and a single-threaded BLAS
    product, the two kinds of work the workloads do. run.py divides by it to
    take the shared host's speed swings out of the time metrics."""
    t0 = time.perf_counter()
    state, rows = 12345, []
    for i in range(80000):
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        rows.append({"id": f"s{i % 977}", "v": state / 2147483648.0})
    rows.sort(key=lambda r: (r["v"], r["id"]))
    "".join(f"{r['id']}\t{r['v']:.6f}\n" for r in rows)
    a = np.arange(40000, dtype=np.float64).reshape(200, 200) / 4e4
    for _ in range(30):
        a = a @ a.T
        a /= a.max()
    return time.perf_counter() - t0


def _timed(fn, *args):
    t0 = time.perf_counter()
    fn(*args)
    return time.perf_counter() - t0


def source_digests() -> dict[str, str]:
    return {f"{fn.__module__}.{fn.__qualname__}":
            hashlib.sha256(inspect.getsource(fn).encode()).hexdigest()
            for fn in REBUILT}


def kernel_shares(probe) -> dict[str, float]:
    """Batched kernel time over its row-object wrapper, on the same input."""
    w, raw = probe["transform"]
    x = raw.matrix()
    t_set = _timed(whitening.transform_set, w, raw)
    t_kernel = _timed(whitening.transform_matrix, w, x)
    model, enroll_t, test_t, trials = probe["score"]
    _, model_vecs = plda.enroll_models(enroll_t)
    test_vecs = test_t.matrix()
    t_trials = _timed(plda.score_trials, model, enroll_t, test_t, trials)
    t_matrix = _timed(plda.score_matrix, model, model_vecs, test_vecs)
    return {"whitening.transform_kernel_share": t_kernel / t_set,
            "plda.score_kernel_share": t_matrix / t_trials}


def layer_metrics(spans: list[dict]) -> dict[str, float]:
    """Per-layer totals, self-time shares and boundary counts of one traced run."""
    dur = {s["id"]: s["end"] - s["start"] for s in spans}
    child_time = {s["id"]: 0.0 for s in spans}
    for s in spans:
        if s["parent"] is not None:
            child_time[s["parent"]] += dur[s["id"]]
    self_time = {i: dur[i] - child_time[i] for i in dur}
    op_total = sum(dur[s["id"]] for s in spans if s["parent"] is None)

    def total(name):
        return sum(dur[s["id"]] for s in spans if s["name"] == name)

    def count(key, names=None):
        return sum(s["counts"].get(key, 0) for s in spans
                   if names is None or s["name"] in names)

    def self_share(pred):
        return sum(self_time[s["id"]] for s in spans if pred(s["name"])) / op_total

    loads = ("data.load_vector_table", "data.load_trials", "data.load_scores")
    load_s = sum(total(n) for n in loads)
    transform_s = total("whitening.transform_set")
    rows = count("rows", {"whitening.transform_set"})
    out = {
        "synth.generate_world_s": total("synth.generate_world"),
        "config.load_experiment_config_s": total("config.load_experiment_config"),
        "experiment.self_s": sum(self_time[s["id"]] for s in spans
                                 if s["name"].startswith("experiment.")),
        "whitening.fit_s": total("whitening.fit_recursive"),
        "stats.estimate_moments_s": total("stats.estimate_moments"),
        "whitening.select_subcorpus_s": total("whitening.select_subcorpus"),
        "whitening.transform_s": transform_s,
        "whitening.rows_transformed": rows,
        "whitening.transform_rows_per_s": rows / transform_s,
        "plda.train_s": total("plda.train_plda"),
        "plda.score_trials_s": total("plda.score_trials"),
        "plda.trials_scored": count("trials", {"plda.score_trials"}),
        "plda.cohort_score_s": total("plda.cohort_score"),
        "metrics.snorm_s": total("metrics.snorm"),
        "metrics.evaluate_s": total("metrics.evaluate"),
        "data.save_scores_s": total("data.save_scores"),
        "data.bytes_written": count("bytes_written"),
        "data.load_vector_table_s": total("data.load_vector_table"),
        "data.load_trials_s": total("data.load_trials"),
        "data.load_scores_s": total("data.load_scores"),
        "data.bytes_read": count("bytes_read"),
        "data.read_mb_per_s": count("bytes_read") / 1e6 / load_s if load_s else 0.0,
        "whitening.load_whitener_s": total("whitening.load_whitener"),
        "plda.load_plda_s": total("plda.load_plda"),
        "projection.project_sets_s": total("projection.project_sets"),
        "cli.run_experiment_s": total("cli.run_experiment"),
        "cli.score_s": total("cli.score"),
        "cli.evaluate_s": total("cli.evaluate"),
        "cli.project_s": total("cli.project"),
        "share.whitening": self_share(
            lambda n: n.startswith("whitening.") or n.startswith("stats.")),
        "share.trials": self_share(lambda n: n in TRIAL_SPANS),
    }
    out["vectors_whitened"] = rows + count("rows", {"projection.project_sets"})
    return out


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(wl.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--scale", required=True, choices=("full", "tiny"))
    ap.add_argument("--result", required=True)
    ap.add_argument("--traced", action="store_true")
    args = ap.parse_args()
    if os.path.dirname(os.path.abspath(recwhiten.__file__)) != os.path.join(SRC, "recwhiten"):
        raise SystemExit(f"recwhiten imported from {recwhiten.__file__}, not {SRC}")

    cfg = setup(args.workload, args.scale, args.seed)
    result = {"t_ready": time.monotonic(), "cal_before_s": calibrate()}
    if not args.traced:
        t0 = time.perf_counter()
        run_plain(args.workload, cfg)
        result["run_s"] = time.perf_counter() - t0
    else:
        tr = Tracer(f"{args.workload}-{args.seed}-{os.getpid()}")
        probe: dict = {}
        t0 = time.perf_counter()
        if cfg is not None:
            t_run_experiment(tr, cfg, wl.EXP_DIR, probe)
        else:
            t_files(tr, probe)
        result["run_s"] = time.perf_counter() - t0
        result["layers"] = layer_metrics(tr.spans)
        result["layers"].update(kernel_shares(probe))
        result["spans"] = tr.spans
    result["cal_after_s"] = calibrate()
    result["sources"] = source_digests()
    with open(args.result, "w", encoding="utf-8") as fh:
        json.dump(result, fh)
    return 0


if __name__ == "__main__":
    sys.exit(main())
