"""Workload definitions for the recwhiten benchmark.

Pure data plus config rendering; importing this module does not import
recwhiten, so the parent driver can use it without loading the package.

Each workload exists at two scales: ``full`` (what the benchmark measures)
and ``tiny`` (what the smoke test runs). The seed is always an argument; the
program sees only the config text rendered from it.
"""

from __future__ import annotations

# Relative paths, resolved against the child's working directory, so that
# config hashes and report headers do not depend on where the checkout lives.
WORLD_DIR = "world"
OUT_DIR = "out"
WHITENER_PATH = "world/whitener.txt"
PLDA_PATH = "world/plda.txt"
DATA_CONFIG_PATH = "data.cfg"
EXP_DIR = "out/exp"
SCORES_PATH = "out/scores.txt"
REPORT_PATH = "out/report.txt"
PROJECTION_PATH = "out/projection.txt"
WORLD_FILES = {"ood": "vectors_ood.txt", "unlabeled": "vectors_unlabeled.txt",
               "enroll": "vectors_enroll.txt", "test": "vectors_test.txt",
               "trials": "trials.txt"}
PROJECTED_SETS = ("unlabeled", "enroll", "test")

WORKLOADS = {
    # Whitening fit and transform dominate: dim 200, four sub-corpora, three
    # recursion levels, so fit_recursive and the per-prefix re-transform of
    # every set do most of the work while only 1,875 trials per level are scored.
    "whiten_deep": {
        "default_seed": 0,
        "hierarchy": [["ood_a+ood_b", "ood_c+ood_d", "ood_a+ood_c", "ood_b+ood_d"],
                      ["ood_a", "ood_b", "ood_c", "ood_d"],
                      ["ood_a", "ood_b", "ood_c", "ood_d"]],
        "levels": [0, 1, 2, 3],
        "snorm": False,
        "files": False,
        "scales": {
            "full": {"dim": 200, "n_eval": 25, "n_unlabeled": 1000,
                     "subcorpora": [("ood_a", 200, 10, 0.0), ("ood_b", 200, 10, 6.0),
                                    ("ood_c", 200, 10, 3.0), ("ood_d", 200, 10, 9.0)]},
            "tiny": {"dim": 12, "n_eval": 8, "n_unlabeled": 40,
                     "subcorpora": [("ood_a", 12, 4, 0.0), ("ood_b", 12, 4, 6.0),
                                    ("ood_c", 12, 4, 3.0), ("ood_d", 12, 4, 9.0)]},
        },
    },
    # The per-trial layers dominate: a low dim keeps whitening cheap while
    # hundreds of thousands of trials go through score_trials, S-norm,
    # evaluate and save_scores at each level.
    "trials_snorm": {
        "default_seed": 0,
        "hierarchy": [["ood_a", "ood_b"]],
        "levels": [0, 1],
        "snorm": True,
        "files": False,
        "scales": {
            "full": {"dim": 50, "n_eval": 140, "n_unlabeled": 300,
                     "subcorpora": [("ood_a", 250, 8, 0.0), ("ood_b", 250, 8, 6.0)]},
            "tiny": {"dim": 10, "n_eval": 12, "n_unlabeled": 30,
                     "subcorpora": [("ood_a", 20, 4, 0.0), ("ood_b", 20, 4, 6.0)]},
        },
    },
    # Set-up writes the world and both model files; the timed part runs four
    # CLI subcommands that parse them, so the text codecs and projection are
    # measured and synth is not.
    "files_roundtrip": {
        "default_seed": 0,
        "hierarchy": [["ood_a", "ood_b"]],
        "levels": [0, 1],
        "snorm": False,
        "files": True,
        "scales": {
            "full": {"dim": 100, "n_eval": 100, "n_unlabeled": 300,
                     "subcorpora": [("ood_a", 200, 8, 0.0), ("ood_b", 200, 8, 6.0)]},
            "tiny": {"dim": 10, "n_eval": 10, "n_unlabeled": 30,
                     "subcorpora": [("ood_a", 20, 4, 0.0), ("ood_b", 20, 4, 6.0)]},
        },
    },
}

SESSIONS = {"enroll": 3, "test": 3}


def _backend_text(w: dict) -> str:
    lines = ["[hierarchy]"]
    lines += [f"level{i} = {' '.join(tokens)}"
              for i, tokens in enumerate(w["hierarchy"], start=1)]
    lines += ["", "[backend]",
              "levels = " + " ".join(str(v) for v in w["levels"]),
              "snorm = " + ("on" if w["snorm"] else "off")]
    return "\n".join(lines) + "\n"


def synth_config_text(name: str, scale: str, seed: int) -> str:
    """The [synth] experiment config of a workload at one scale and seed."""
    w = WORKLOADS[name]
    s = w["scales"][scale]
    tokens = " ".join(f"{cid}:{spk}:{sess}:{shift}"
                      for cid, spk, sess, shift in s["subcorpora"])
    return (f"[synth]\nseed = {seed}\ndim = {s['dim']}\nsubcorpora = {tokens}\n"
            f"n_enroll_speakers = {s['n_eval']}\n"
            f"enroll_sessions = {SESSIONS['enroll']}\n"
            f"test_sessions = {SESSIONS['test']}\n"
            f"n_unlabeled = {s['n_unlabeled']}\n\n" + _backend_text(w))


def data_config_text(name: str) -> str:
    """The [data] config that points run-experiment at the written world."""
    paths = "\n".join(f"{key} = {WORLD_DIR}/{fname}"
                      for key, fname in WORLD_FILES.items())
    return f"[data]\n{paths}\n\n" + _backend_text(WORKLOADS[name])


def set_sizes(name: str, scale: str) -> dict[str, int]:
    s = WORKLOADS[name]["scales"][scale]
    n_test = s["n_eval"] * SESSIONS["test"]
    return {
        "ood": sum(spk * sess for _, spk, sess, _ in s["subcorpora"]),
        "unlabeled": s["n_unlabeled"],
        "enroll": s["n_eval"] * SESSIONS["enroll"],
        "test": n_test,
        "trials": s["n_eval"] * n_test,  # full cross of models and tests
    }


def expected_counts(name: str, scale: str) -> dict[str, int]:
    """Trials scored and vectors whitened by one timed operation.

    Vectors count every row passed through a whitener outside the fit: per
    level the OOD, enrollment and test sets (plus the cohort with S-norm on);
    on files_roundtrip also the sets that `score` and `project` transform.
    """
    w = WORKLOADS[name]
    n = set_sizes(name, scale)
    per_level = n["ood"] + n["enroll"] + n["test"] + (n["unlabeled"] if w["snorm"] else 0)
    levels = len(w["levels"])
    trials = levels * n["trials"]
    vectors = levels * per_level
    if w["files"]:
        trials += n["trials"]
        vectors += n["enroll"] + n["test"] + sum(n[k] for k in PROJECTED_SETS)
    return {"trials": trials, "vectors": vectors}
