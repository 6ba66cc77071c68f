"""Smoke test of the benchmark itself, at the tiny scale of every workload.

Checks that each run emits exactly the contract's result keys and every
metric BENCHMARK.json names, with its unit; that a corrupted reference
digest, or a changed source digest of a function the traced run rebuilds,
makes the run fail; and that the benchmark fails without printing a
result when the package sources are missing.

Usage: python3 bench/smoke.py     (exit 0 when every check passes)
"""

from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys

sys.dont_write_bytecode = True

import workloads as wl  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
SCRATCH = os.path.join(ROOT, ".bench_build", "smoke")
TIMEOUT_S = 180


def bench(args: list[str], cwd: str = ROOT) -> tuple[int, dict | None, str]:
    proc = subprocess.run([sys.executable, os.path.join("bench", "run.py")] + args,
                          cwd=cwd, capture_output=True, text=True, timeout=TIMEOUT_S)
    lines = proc.stdout.strip().splitlines()
    try:
        result = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        result = None
    return proc.returncode, result, proc.stdout + proc.stderr


# The metrics the benchmark exists to report; BENCHMARK.json must keep them.
REQUIRED = {
    "end_to_end": {"setup_s", "run_s", "run_s_p75", "trials_per_s", "vectors_per_s",
                   "peak_rss_mb", "completed_fraction", "eer_deepest",
                   "c_primary_deepest"},
    "per_layer": {
        "synth.generate_world_s", "whitening.fit_s", "whitening.transform_s",
        "whitening.transform_rows_per_s", "whitening.transform_kernel_share",
        "plda.train_s", "plda.score_trials_s", "plda.score_kernel_share",
        "plda.cohort_score_s", "metrics.snorm_s", "metrics.evaluate_s",
        "data.save_scores_s", "data.bytes_written", "data.load_vector_table_s",
        "data.load_trials_s", "data.load_scores_s", "data.bytes_read",
        "data.read_mb_per_s", "whitening.load_whitener_s", "plda.load_plda_s",
        "projection.project_sets_s", "cli.run_experiment_s", "cli.score_s",
        "cli.evaluate_s", "cli.project_s", "trace.overhead_s"},
}


def main() -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    failures = []

    def check(ok: bool, what: str, detail: str = "") -> None:
        print(("PASS " if ok else "FAIL ") + what)
        if not ok:
            failures.append(what)
            print(detail[-3000:])

    for kind, names in REQUIRED.items():
        declared = {m["name"] for m in spec[kind]}
        check(names <= declared, f"BENCHMARK.json declares every required {kind} metric",
              f"missing {sorted(names - declared)}")

    for name in wl.WORKLOADS:
        for trace, kind in ((0, "end_to_end"), (1, "per_layer")):
            code, res, out = bench(["--workload", name, "--seed", "3", "--seconds", "0",
                                    "--trace", str(trace), "--scale", "tiny"])
            what = f"{name} --trace {trace}"
            check(code == 0 and res is not None, f"{what}: exit 0 with a result", out)
            if res is None:
                continue
            check(set(res) == {"correct", "attempted", "failed", "metrics"}
                  and res["correct"] is True and res["failed"] == 0
                  and res["attempted"] >= 1, f"{what}: result keys and counts", out)
            want = {m["name"]: m["unit"] for m in spec[kind]}
            got = {k: v.get("unit") for k, v in res["metrics"].items()}
            check(got == want, f"{what}: every {kind} metric with its unit",
                  f"missing {sorted(set(want) - set(got))}, "
                  f"extra {sorted(set(got) - set(want))}")
            check(all(isinstance(v["value"], (int, float)) for v in res["metrics"].values()),
                  f"{what}: numeric values", out)

    shutil.rmtree(SCRATCH, ignore_errors=True)
    os.makedirs(SCRATCH)
    corrupt = os.path.join(SCRATCH, "corrupt")
    skip = shutil.ignore_patterns("__pycache__")
    shutil.copytree(BENCH, os.path.join(corrupt, "bench"), ignore=skip)
    shutil.copytree(os.path.join(ROOT, "src"), os.path.join(corrupt, "src"), ignore=skip)
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), corrupt)
    name = "files_roundtrip"
    for trace, field, what in ((0, "digests", "corrupted reference digest"),
                               (1, "sources", "corrupted rebuild source digest")):
        with open(os.path.join(BENCH, "reference.json"), encoding="utf-8") as fh:
            ref = json.load(fh)
        table = ref["digests"][name]["tiny"] if field == "digests" else ref["sources"]
        key = sorted(table)[0]
        table[key] = ("0" if table[key][0] != "0" else "1") + table[key][1:]
        with open(os.path.join(corrupt, "bench", "reference.json"), "w",
                  encoding="utf-8") as fh:
            json.dump(ref, fh)
        code, res, out = bench(["--workload", name, "--seed", "3", "--seconds", "0",
                                "--trace", str(trace), "--scale", "tiny"], cwd=corrupt)
        check(code != 0 and res is not None and res["correct"] is False
              and res["failed"] >= 1, f"{what} fails the --trace {trace} run", out)

    bare = os.path.join(SCRATCH, "bare")
    shutil.copytree(BENCH, os.path.join(bare, "bench"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), bare)
    code, res, out = bench(["--workload", name, "--seed", "3", "--seconds", "1",
                            "--trace", "0"], cwd=bare)
    check(code != 0 and res is None, "without src/ the run fails and prints no result", out)

    print(f"{len(failures)} failed" if failures else "all smoke checks passed")
    return 1 if failures else 0


if __name__ == "__main__":
    sys.exit(main())
