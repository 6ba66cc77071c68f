"""Command-line surface: the recwhiten subcommands, and main, which maps each
error type to its exit code (README "Exit codes")."""

from __future__ import annotations

import argparse
import os
import sys

# BLAS and LAPACK kernels sum in another order on more threads, so output bytes
# would depend on the thread count. The variables act only before numpy's first
# import: a program that imported numpy before the CLI keeps its own setting.
if "numpy" not in sys.modules:
    os.environ.update(dict.fromkeys(
        ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"), "1"))

import numpy as np

from . import metrics, plda, whitening
from .config import load_experiment_config, operating_points
from .data import (ConfigError, DataError, load_scores, load_trials, load_vector_table,
                   save_scores)
from .experiment import (comparison_table, fit_full_whitener, load_corpora,
                         run_experiment, write_world)
from .projection import project_sets
from .synth import generate_world
from .whitening import load_whitener

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_DATA = 3
EXIT_NUMERICAL = 4


def _load_config(args):
    cfg = load_experiment_config(args.config)
    if getattr(args, "seed", None) is not None:
        if cfg.synth is None:
            raise ConfigError("--seed only applies to synthetic configs")
        cfg.synth.seed = args.seed
    return cfg


def cmd_synth(args) -> int:
    cfg = _load_config(args)
    if cfg.synth is None:
        raise ConfigError("synth command needs a [synth] section")
    world = generate_world(cfg.synth)
    for name in write_world(world, args.out, cfg.config_hash):
        print(name)
    return EXIT_OK


def cmd_fit_whitener(args) -> int:
    cfg = _load_config(args)
    corpora = load_corpora(cfg)
    whitener = fit_full_whitener(cfg, corpora)
    os.makedirs(args.out, exist_ok=True)
    path = os.path.join(args.out, "whitener.txt")
    whitening.save_whitener(whitener, path)
    print(f"#config_hash={cfg.config_hash}")
    print("level\tcandidate\tloglik\tchosen")
    for sel in whitener.selection_log:
        for i, (cid, ll) in enumerate(sel.logliks):
            mark = "chosen" if i == sel.chosen else "-"
            print(f"{sel.level}\t{cid}\t{ll:.6f}\t{mark}")
    print(path)
    return EXIT_OK


def cmd_run_experiment(args) -> int:
    cfg = _load_config(args)
    reports = run_experiment(cfg, args.out)
    sys.stdout.write(comparison_table(cfg, reports))
    return EXIT_OK


def cmd_score(args) -> int:
    model = plda.load_plda(args.plda)
    enroll = load_vector_table(args.enroll)
    test = load_vector_table(args.test)
    trials = load_trials(args.trials)
    if args.whitener:
        w = load_whitener(args.whitener)
        enroll = whitening.transform_set(w, enroll)
        test = whitening.transform_set(w, test)
    scores = plda.score_trials(model, enroll, test, trials)
    save_scores(scores, args.out)
    print(args.out)
    return EXIT_OK


def _operating_points(args):
    if not args.op:
        return metrics.DEFAULT_OPERATING_POINTS
    return operating_points((name, values) for name, *values in
                            (token.split(":") for token in args.op))


def cmd_evaluate(args) -> int:
    scores = load_scores(args.scores)
    ops = _operating_points(args)
    report = metrics.evaluate(scores, ops)
    report.header = [f"scores={args.scores}"] + [
        f"op={op.name}:{op.p_target}:{op.c_miss}:{op.c_fa}" for op in ops]
    text = report.render()
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return EXIT_OK


def cmd_project(args) -> int:
    sets = [load_vector_table(p) for p in args.vectors]
    w = load_whitener(args.whitener) if args.whitener else None
    text = project_sets(sets, w, args.components)
    with open(args.out, "w", encoding="utf-8") as fh:
        fh.write(text)
    print(args.out)
    return EXIT_OK


def _path(text: str) -> str:
    """An argparse type refusing the empty path, which a command takes for none."""
    if not text:
        raise argparse.ArgumentTypeError("empty path")
    return text


class _Parser(argparse.ArgumentParser):
    """An ArgumentParser, and the class of its subparsers, whose errors are
    ConfigErrors, so that a bad command line prints one line and exits 2, and
    whose options are spelled in full: no prefix stands for an option."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)

    def error(self, message):
        raise ConfigError(message)


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="recwhiten",
        description="Recursive whitening backend: synthesis, fitting, "
                    "scoring and evaluation.")
    sub = parser.add_subparsers(dest="command", required=True)

    for name, func, text in (
            ("synth", cmd_synth, "generate a synthetic multi-domain world"),
            ("fit-whitener", cmd_fit_whitener, "fit the recursive whitener"),
            ("run-experiment", cmd_run_experiment, "run the level comparison protocol")):
        p = sub.add_parser(name, help=text)
        p.add_argument("--config", required=True)
        p.add_argument("--out", required=True)
        p.add_argument("--seed", type=int, default=None)
        p.set_defaults(func=func)

    p = sub.add_parser("score", help="score a trial list with a PLDA model")
    p.add_argument("--plda", required=True)
    p.add_argument("--enroll", required=True)
    p.add_argument("--test", required=True)
    p.add_argument("--trials", required=True)
    p.add_argument("--whitener", type=_path, default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_score)

    p = sub.add_parser("evaluate", help="compute EER and detection costs")
    p.add_argument("--scores", required=True)
    p.add_argument("--op", action="append", default=[],
                   help="operating point as name:p_target:c_miss:c_fa (twice)")
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_evaluate)

    p = sub.add_parser("project", help="export PCA projection coordinates")
    p.add_argument("--vectors", action="append", required=True)
    p.add_argument("--whitener", type=_path, default=None)
    p.add_argument("--components", type=int, default=2)
    p.add_argument("--out", required=True)
    p.set_defaults(func=cmd_project)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        with np.errstate(over="raise", invalid="raise", divide="raise"):
            return args.func(args)
    except ConfigError as e:
        print(f"config error: {e}", file=sys.stderr)
        return EXIT_CONFIG
    except (DataError, OSError, MemoryError) as e:
        print(f"data error: {e}", file=sys.stderr)
        return EXIT_DATA
    except ArithmeticError as e:
        print(f"numerical failure: {e}", file=sys.stderr)
        return EXIT_NUMERICAL


if __name__ == "__main__":
    sys.exit(main())
