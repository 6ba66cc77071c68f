"""Benchmark driver for recwhiten: one closed-loop client, one run at a time.

Each repetition is a fresh child process (bench/child.py) with the BLAS
thread count pinned, so that peak RSS belongs to that repetition alone and
output bytes are reproducible. Repetitions run back to back until
``--seconds`` have passed (at least MIN_REPS); metrics are medians over them.
The time metrics are scaled to a fixed machine speed by a calibration loop
that each child times around its operation (see run_child). After the loop
one more child runs the workload at its default seed and its output digests
are compared with bench/reference.json. With --trace 1 the source digests of
the functions the traced rebuild mirrors must also match reference.json, so
the rebuild cannot drift from the program unnoticed.

Usage:
  python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1
  python3 bench/run.py --all [--trace 0|1]     # every workload, one line each
  python3 bench/run.py --record                # rewrite bench/reference.json

The last line of stdout is one JSON object: correct, attempted, failed and
metrics (the end_to_end metrics of BENCHMARK.json with --trace 0, the
per_layer ones with --trace 1). Exit code 0 only when every output is correct.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import statistics
import subprocess
import sys
import threading
import time

sys.dont_write_bytecode = True

import workloads as wl  # noqa: E402

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(ROOT, ".bench_build", "recwhiten")
REFERENCE = os.path.join(BENCH, "reference.json")
BLAS_THREADS = 1  # output bytes depend on it; see reference.json "notes"
MIN_REPS = 3
# Calibration time, in seconds, of the machine speed that the time metrics are
# reported at: about the median of child.calibrate() on the 2-vCPU Xeon VM
# (2.1 GHz) where reference.json was recorded. See run_child.
CAL_REF_S = 0.25
CHILD_TIMEOUT_S = 150


class RepFailed(Exception):
    pass


def child_env() -> dict[str, str]:
    env = dict(os.environ)
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        env[var] = str(BLAS_THREADS)
    env["PYTHONDONTWRITEBYTECODE"] = "1"
    env.pop("PYTHONPATH", None)
    return env


def digests(top: str) -> dict[str, str]:
    out = {}
    for dirpath, _, files in os.walk(top):
        for name in files:
            path = os.path.join(dirpath, name)
            with open(path, "rb") as fh:
                rel = os.path.relpath(path, top).replace(os.sep, "/")
                out[rel] = hashlib.sha256(fh.read()).hexdigest()
    return dict(sorted(out.items()))


def run_child(name: str, seed: int, scale: str, traced: bool) -> dict:
    """One repetition in a fresh process; returns its timings and digests."""
    base = os.path.join(WORK, name)
    work = os.path.join(base, "traced" if traced else "plain")
    result_path = os.path.join(base, "result.json")
    log_path = os.path.join(base, "child.log")
    shutil.rmtree(work, ignore_errors=True)
    os.makedirs(work)
    if os.path.exists(result_path):
        os.remove(result_path)
    cmd = [sys.executable, os.path.join(BENCH, "child.py"), "--workload", name,
           "--seed", str(seed), "--scale", scale, "--result", result_path]
    if traced:
        cmd.append("--traced")
    with open(log_path, "w", encoding="utf-8") as log:
        t_spawn = time.monotonic()
        proc = subprocess.Popen(cmd, cwd=work, env=child_env(),
                                stdout=subprocess.DEVNULL, stderr=log)
        killer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        killer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        finally:
            killer.cancel()
        proc.returncode = os.waitstatus_to_exitcode(status)
    if proc.returncode != 0:
        with open(log_path, encoding="utf-8") as fh:
            tail = fh.read()[-2000:]
        raise RepFailed(f"{name} seed {seed} exited {proc.returncode}:\n{tail}")
    with open(result_path, encoding="utf-8") as fh:
        res = json.load(fh)
    # The host is shared and its speed swings by up to a factor of two within
    # minutes. Each child times a fixed calibration loop right before and
    # right after the operation, and the time metrics are scaled by
    # CAL_REF_S / calibration time: seconds at the reference machine speed.
    # The raw wall times are kept for the log.
    res["setup_wall_s"] = res["t_ready"] - t_spawn
    res["run_wall_s"] = res["run_s"]
    res["setup_s"] = res["setup_wall_s"] * CAL_REF_S / res["cal_before_s"]
    res["run_s"] = res["run_wall_s"] * CAL_REF_S / statistics.mean(
        (res["cal_before_s"], res["cal_after_s"]))
    res["peak_rss_mb"] = usage.ru_maxrss / 1024.0  # Linux reports KiB
    res["digests"] = digests(work)
    res["trials_in_files"] = sum(
        _count_lines(os.path.join(work, rel)) for rel in res["digests"]
        if os.path.basename(rel).startswith("scores"))
    res["deepest"] = _deepest_row(os.path.join(work, wl.EXP_DIR, "comparison.txt"))
    return res


def _count_lines(path: str) -> int:
    with open(path, "rb") as fh:
        return fh.read().count(b"\n")


def _deepest_row(path: str) -> dict[str, float]:
    """EER and c_primary of the last level in comparison.txt."""
    with open(path, encoding="utf-8") as fh:
        rows = [line.split("\t") for line in fh if not line.startswith("#")]
    return {"eer": float(rows[-1][1]), "c_primary": float(rows[-1][-1])}


def _differing(a: dict, b: dict) -> list[str]:
    return sorted(k for k in set(a) | set(b) if a.get(k) != b.get(k))


def check_rep(name: str, scale: str, res: dict, first: dict | None) -> None:
    expect = wl.expected_counts(name, scale)
    if res["trials_in_files"] != expect["trials"]:
        raise RepFailed(f"{name}: {res['trials_in_files']} scored trials in files, "
                        f"expected {expect['trials']}")
    if first is not None and res["digests"] != first["digests"]:
        raise RepFailed(f"{name}: outputs differ between repetitions of one seed")
    layers = res.get("layers")
    if layers is not None:
        counted = {"trials": layers["plda.trials_scored"],
                   "vectors": layers["vectors_whitened"]}
        if counted != expect:
            raise RepFailed(f"{name}: traced counts {counted} != expected {expect}")


def load_spec() -> dict:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        return json.load(fh)


def measure(name: str, seed: int, seconds: float, trace: bool, scale: str,
            reference: dict) -> dict:
    """Run one workload; returns the contract's result object (plus 'log')."""
    plain, traced, log = [], [], []
    attempted = failed = 0
    try:
        start = time.monotonic()
        while len(plain) < MIN_REPS or time.monotonic() - start < seconds:
            attempted += 1
            res = run_child(name, seed, scale, traced=False)
            check_rep(name, scale, res, plain[0] if plain else None)
            plain.append(res)
            if trace:
                attempted += 1
                tres = run_child(name, seed, scale, traced=True)
                check_rep(name, scale, tres, None)
                if tres["digests"] != res["digests"]:
                    raise RepFailed(f"{name}: traced outputs differ from untraced")
                if tres["sources"] != reference["sources"]:
                    raise RepFailed(f"{name}: the traced rebuild in child.py no longer "
                                    f"matches the program; changed: "
                                    f"{_differing(tres['sources'], reference['sources'])}")
                traced.append(tres)
        attempted += 1
        ref = run_child(name, wl.WORKLOADS[name]["default_seed"], scale, traced=False)
        check_rep(name, scale, ref, None)
        want = reference["digests"][name][scale]
        if ref["digests"] != want:
            raise RepFailed(f"{name}: digests differ from reference.json: "
                            f"{_differing(ref['digests'], want)}")
    except RepFailed as e:
        failed += 1
        log.append(f"FAILED: {e}")
        return {"correct": False, "attempted": attempted, "failed": failed,
                "metrics": {}, "log": log}

    spec = load_spec()
    run_times = [r["run_s"] for r in plain]
    run_s = statistics.median(run_times)
    counts = wl.expected_counts(name, scale)
    values = {
        "setup_s": statistics.median(r["setup_s"] for r in plain),
        "run_s": run_s,
        "run_s_p75": statistics.quantiles(run_times, n=4, method="inclusive")[2],
        "trials_per_s": counts["trials"] / run_s,
        "vectors_per_s": counts["vectors"] / run_s,
        "peak_rss_mb": statistics.median(r["peak_rss_mb"] for r in plain),
        "completed_fraction": (attempted - failed) / attempted,
        "eer_deepest": ref["deepest"]["eer"],
        "c_primary_deepest": ref["deepest"]["c_primary"],
    }
    log.append(f"{name}: seed {seed}, scale {scale}, {len(plain)} untraced reps, "
               f"{BLAS_THREADS} BLAS thread(s); run_s per rep "
               + " ".join(f"{t:.3f}" for t in run_times))
    log.append(f"{name}: wall clock per rep: run_s "
               + " ".join(f"{r['run_wall_s']:.3f}" for r in plain) + "; setup_s "
               + " ".join(f"{r['setup_wall_s']:.3f}" for r in plain) + "; calibration "
               + " ".join(f"{r['cal_before_s']:.3f}/{r['cal_after_s']:.3f}" for r in plain))
    log.append(f"{name}: at seed {seed} the deepest level gave eer "
               f"{plain[0]['deepest']['eer']} c_primary {plain[0]['deepest']['c_primary']}; "
               f"eer_deepest/c_primary_deepest below are the default seed's")
    kind = "end_to_end"
    if trace:
        kind = "per_layer"
        layer_names = [m["name"] for m in spec["per_layer"]]
        values = {k: statistics.median(t["layers"][k] for t in traced)
                  for k in layer_names if k != "trace.overhead_s"}
        # Each traced rep runs right after an untraced one; pairing them keeps
        # the machine's drift out of the difference, not its noise, so the
        # value can be 0 or negative when the tracer costs less than that noise.
        values["trace.overhead_s"] = statistics.median(
            t["run_s"] - p["run_s"] for p, t in zip(plain, traced))
        with open(os.path.join(WORK, name, "spans.json"), "w", encoding="utf-8") as fh:
            json.dump([t["spans"] for t in traced], fh)
        log.append(f"{name}: {len(traced)} traced reps; traced run_s median "
                   f"{statistics.median(t['run_s'] for t in traced):.3f} s")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
               for m in spec[kind]}
    for k, v in metrics.items():
        log.append(f"{name}: {k} = {v['value']:.6g} {v['unit']}")
    out = {"correct": True, "attempted": attempted, "failed": failed,
           "metrics": metrics, "log": log}
    if trace:
        out["traced_run_s"] = statistics.median(t["run_s"] for t in traced)
    return out


def record(seconds: float) -> int:
    """Rewrite reference.json: digests at the default seeds, environment and
    the traced layer shares that keep the workloads apart."""
    import numpy as np

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    ref = {
        "env": {"blas_threads": BLAS_THREADS, "nproc": os.cpu_count(),
                "python": platform.python_version(), "numpy": np.__version__,
                "blas": f"{blas.get('name')} {blas.get('version')}"},
        "notes": [
            "Output bytes depend on the BLAS thread count: at the full scale of "
            "every workload, OPENBLAS_NUM_THREADS=2 changes the score files and "
            "whitener (and on files_roundtrip the synthetic vector tables), so the "
            "digests hold only at blas_threads. The README's byte-identical rerun "
            "claim likewise holds only at a fixed thread count.",
            "shares: whitening and trials are the self time of the whitening/"
            "stats spans and of the per-trial spans, data_load the time in "
            "data.load_*, each divided by base_s, the median traced time of the "
            "timed operation; medians over traced reps at the default seed.",
            "sources: SHA-256 of the source of each function that child.py "
            "rebuilds or runs with wrapped globals in the traced run; --trace 1 "
            "fails when one of them changes, until the rebuild follows it.",
        ],
        "digests": {},
        "sources": {},
        "shares": {},
    }
    for name, w in wl.WORKLOADS.items():
        for scale in ("full", "tiny"):
            res = run_child(name, w["default_seed"], scale, traced=False)
            check_rep(name, scale, res, None)
            ref["digests"].setdefault(name, {})[scale] = res["digests"]
            ref["sources"] = res["sources"]
    why = {w["name"]: w["why"] for w in load_spec()["workloads"]}
    for name, w in wl.WORKLOADS.items():
        out = measure(name, w["default_seed"], seconds, True, "full", ref)
        if not out["correct"]:
            print("\n".join(out["log"]), file=sys.stderr)
            return 1
        m = {k: v["value"] for k, v in out["metrics"].items()}
        ref["shares"][name] = {
            "why": why[name],
            "whitening": round(m["share.whitening"], 4),
            "trials": round(m["share.trials"], 4),
            "data_load": round(sum(m[f"data.load_{k}_s"] for k in
                                   ("vector_table", "trials", "scores"))
                               / out["traced_run_s"], 4),
            "base_s": round(out["traced_run_s"], 4),
        }
    s = ref["shares"]
    separated = (s["whiten_deep"]["whitening"] > 0.5
                 and s["whiten_deep"]["trials"] < 0.10
                 and s["trials_snorm"]["whitening"] < 0.10
                 and s["trials_snorm"]["trials"] > 0.5)
    print(json.dumps(s, indent=1))
    if not separated:
        print("workloads no longer separate the layers; reference not written",
              file=sys.stderr)
        return 1
    with open(REFERENCE, "w", encoding="utf-8") as fh:
        json.dump(ref, fh, indent=1)
        fh.write("\n")
    return 0


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(wl.WORKLOADS))
    ap.add_argument("--all", action="store_true", help="run every workload")
    ap.add_argument("--record", action="store_true",
                    help="rewrite bench/reference.json")
    ap.add_argument("--seed", type=int, default=None)
    ap.add_argument("--seconds", type=float, default=10.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--scale", choices=("full", "tiny"), default="full")
    args = ap.parse_args()

    if not os.path.isfile(os.path.join(ROOT, "src", "recwhiten", "__init__.py")):
        print(f"error: no recwhiten sources under {ROOT}/src", file=sys.stderr)
        return 2
    if args.record:
        return record(args.seconds)
    names = sorted(wl.WORKLOADS) if args.all else [args.workload]
    if names == [None]:
        ap.error("give --workload NAME or --all")
    with open(REFERENCE, encoding="utf-8") as fh:
        reference = json.load(fh)
    ok = True
    for name in names:
        seed = wl.WORKLOADS[name]["default_seed"] if args.seed is None else args.seed
        out = measure(name, seed, args.seconds, bool(args.trace), args.scale, reference)
        print("\n".join(out.pop("log")))
        out.pop("traced_run_s", None)
        print(json.dumps(out), flush=True)
        ok = ok and out["correct"]
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
