"""write_blocks' two halves and its replace. A block of FORK_FLOATS float fields
or more has its second half formatted by a forked child (data._write_block),
and every file is written beside its path and moved onto it (data._replacing):
- forked and plain bytes are equal;
- a refused fork, a failing or killed child and a failing parent half each give
  the plain bytes or the same exception, and leave no child and no temp file;
- a process with a second OS thread never forks;
- at full scale only files_roundtrip's OOD table forks;
- a write that fails partway keeps the earlier file, and a FIFO, a symlink or
  /dev/stdout is written in place.

A process forks only when it has one OS thread, and this one has BLAS's
workers, so the forking tests run in a fresh interpreter with BLAS on one
thread and call the functions below that start with an underscore."""

import errno
import os
import signal
import stat
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np
import pytest

from recwhiten import cli, data, experiment, plda, synth, whitening
from recwhiten.config import parse_experiment_config
from recwhiten.data import (Factored, ScoreSet, TrialList, VectorSet, save_scores,
                            save_trials, save_vector_table, write_blocks)
from test_cli import SMALL_SYNTH
from test_whitening import run_pinned

BENCH = Path(__file__).resolve().parents[1] / "bench"
INF = float("inf")

forks = pytest.mark.skipif(not hasattr(os, "fork") or not os.path.isdir("/proc/self/task"),
                           reason="write_blocks forks only where os.fork and /proc exist")


def no_child_left() -> bool:
    try:
        os.waitpid(-1, os.WNOHANG)
    except ChildProcessError:
        return True
    return False


def spy_forks(record=lambda: True, refuse=False) -> list:
    """Replace os.fork by a spy that appends record() to the list returned,
    then forks, or raises OSError if refuse."""
    calls, fork = [], os.fork

    def spy():
        calls.append(record())
        if refuse:
            raise OSError(errno.EAGAIN, "fork refused")
        return fork()
    os.fork = spy
    return calls


def floats(rng, shape) -> np.ndarray:
    """Floats of every spelling %.17g has: normal, huge, tiny, subnormal,
    integral, -0.0."""
    x = rng.normal(size=shape) * 10.0 ** rng.integers(-300, 300, size=shape)
    pick = rng.integers(0, 6, size=shape)
    x[pick == 0] = 5e-324 * rng.integers(1, 1000, size=(pick == 0).sum())
    x[pick == 1] = np.round(x[pick == 1] % 1000)
    x[pick == 2] = -0.0
    return x


def vectors(rng, n: int, dim: int) -> VectorSet:
    return VectorSet([f"v{i}" for i in range(n)], [f"c{i % 3}" for i in range(n)],
                     [f"spk{i // 4}" for i in range(n)], floats(rng, (n, dim)))


def scores(rng, n_models: int, n_tests: int) -> ScoreSet:
    codes = np.indices((n_models, n_tests)).reshape(2, -1)
    labels = Factored(np.array(["nontarget", "target"]),
                      rng.integers(0, 2, size=codes.shape[1]).astype(np.intp))
    trials = TrialList(Factored(np.array([f"m{i}" for i in range(n_models)]), codes[0]),
                       Factored(np.array([f"t{i:04d}" for i in range(n_tests)]), codes[1]),
                       labels)
    return ScoreSet(trials, floats(rng, codes.shape[1]))


def whitener(rng, dim: int, levels: int) -> whitening.RecursiveWhitener:
    stages = [whitening.WhiteningStage(level, f"c{level}", rng.normal(size=dim),
                                       np.triu(rng.normal(size=(dim, dim))) + 3 * np.eye(dim))
              for level in range(levels)]
    log = [whitening.LevelSelection(level, ((f"c{level}", -1.5), ("x", -2.5)), 0)
           for level in range(1, levels)]
    return whitening.RecursiveWhitener(stages, log)


def plda_model(rng, dim: int) -> plda.PldaModel:
    """A model that factors: AC = BB^T, WC = I + CC^T."""
    b, c = rng.normal(size=(2, dim, dim))
    return plda.PldaModel(rng.normal(size=dim), b @ b.T, np.eye(dim) + c @ c.T, None)


def _cases(seed: int) -> list:
    """(name, save(path)) of drawn vector tables, score sets and multi-block
    model files. A chunk holds about 8,192 fields: 80 rows of 100 floats and
    2,049 scores are two chunks, the second one row."""
    rng = np.random.default_rng(seed)
    dim = int(rng.integers(1, 200))
    tables = [vectors(rng, 80, 100), vectors(rng, int(rng.integers(2, 1500)), dim)]
    score_sets = [scores(rng, 1, 2049), scores(rng, int(rng.integers(2, 40)), 211)]
    white = whitener(rng, int(rng.integers(2, 120)), 3)
    model = plda_model(rng, dim)
    blocks = [(["[a]"], [floats(rng, (300, 40))]), ([], [["x"] * 90, floats(rng, 90)]),
              (["[b]", "#c"], [floats(rng, (1, 7))])]
    return [("table-one-row-half", lambda p: save_vector_table(tables[0], p)),
            (f"table-{dim}", lambda p: save_vector_table(tables[1], p)),
            ("scores-one-row-half", lambda p: save_scores(score_sets[0], p)),
            ("scores", lambda p: save_scores(score_sets[1], p)),
            ("whitener", lambda p: whitening.save_whitener(white, p)),
            ("plda", lambda p: plda.save_plda(model, p)),
            ("blocks", lambda p: write_blocks(p, blocks))]


def _forked_equals_plain(directory: str) -> None:
    """Each case written plain and then with every float block forked gives the
    same bytes, and the forked write did fork."""
    calls = spy_forks()
    for seed in range(3):
        for name, save in _cases(seed):
            path = os.path.join(directory, f"{seed}-{name}")
            data.FORK_FLOATS = INF
            save(path)
            plain = Path(path).read_bytes()
            data.FORK_FLOATS, before = 1, len(calls)
            save(path)
            assert Path(path).read_bytes() == plain, (seed, name)
            assert len(calls) > before and no_child_left(), (seed, name)
    assert len(os.listdir(directory)) == 3 * 7


@forks
def test_forked_bytes_equal_plain_bytes(tmp_path):
    run_pinned(f"from test_write_blocks import _forked_equals_plain\n"
              f"_forked_equals_plain({str(tmp_path)!r})\n")


FAULTS = ["fork-refused", "child-exits-1", "child-killed", "parent-raises"]


def _fallback(fault: str, directory: str) -> None:
    """A forked write that meets fault gives the plain bytes, or raises the
    parent's error and keeps the earlier file, and leaves no child and no temp
    file behind."""
    rng = np.random.default_rng(7)
    table = vectors(rng, 400, 50)  # 3 chunks: the child's half is 2
    path = os.path.join(directory, "v.txt")
    data.FORK_FLOATS = INF
    save_vector_table(table, path)
    plain = Path(path).read_bytes()
    Path(path).write_bytes(b"earlier\n")
    data.FORK_FLOATS, parent, real = 1, os.getpid(), data._format
    calls = spy_forks(refuse=fault == "fork-refused")
    error = OSError(errno.ENOSPC, "No space left on device")

    def format_(row, values, starts):
        child = os.getpid() != parent
        for n, text in enumerate(real(row, values, starts)):
            if child and fault == "child-exits-1":
                raise RuntimeError("fault in the child")
            if child and fault == "child-killed" and n:
                os.kill(os.getpid(), signal.SIGKILL)
            if not child and fault == "parent-raises" and starts.start == 0:
                raise error
            yield text
    data._format = format_
    try:
        save_vector_table(table, path)
    except OSError as e:
        assert fault == "parent-raises" and e is error
        assert Path(path).read_bytes() == b"earlier\n"
    else:
        assert fault != "parent-raises" and Path(path).read_bytes() == plain
    assert calls and os.listdir(directory) == ["v.txt"] and no_child_left()


@forks
@pytest.mark.parametrize("fault", FAULTS)
def test_a_failed_fork_or_half_gives_the_plain_bytes(tmp_path, fault):
    run_pinned(f"from test_write_blocks import _fallback\n"
              f"_fallback({fault!r}, {str(tmp_path)!r})\n")


def _second_thread(directory: str) -> None:
    """No fork while a second thread runs; one once it has ended."""
    table = vectors(np.random.default_rng(8), 400, 50)
    calls, release = spy_forks(), threading.Event()
    helper = threading.Thread(target=release.wait, daemon=True)  # ends with a failure
    helper.start()
    data.FORK_FLOATS = 1
    save_vector_table(table, os.path.join(directory, "a.txt"))
    assert calls == []
    release.set()
    helper.join()
    for _ in range(100):  # the OS thread ends a moment after join returns
        if len(os.listdir("/proc/self/task")) == 1:
            break
        time.sleep(0.01)
    save_vector_table(table, os.path.join(directory, "b.txt"))
    assert len(calls) == 1
    assert Path(directory, "a.txt").read_bytes() == Path(directory, "b.txt").read_bytes()


@forks
def test_a_second_thread_prevents_the_fork(tmp_path):
    """With DeprecationWarning an error, as Python 3.12 warns on a fork beside
    another thread."""
    run_pinned(f"import warnings\n"
               f"warnings.simplefilter('error', DeprecationWarning)\n"
               f"from test_write_blocks import _second_thread\n"
               f"_second_thread({str(tmp_path)!r})\n")


def _full_scale(directory: str) -> None:
    """Print the files that fork when the bench workloads write at full scale:
    files_roundtrip's world, and trials_snorm's and whiten_deep's experiments."""
    sys.path.insert(0, str(BENCH))
    import workloads
    written, real = [], data._replacing

    def replacing(path):
        written.append(os.path.basename(path))
        return real(path)
    data._replacing = replacing
    calls = spy_forks(lambda: written[-1])
    for name in ("files_roundtrip", "trials_snorm", "whiten_deep"):
        cfg = parse_experiment_config(workloads.synth_config_text(name, "full", 0))
        out, start = os.path.join(directory, name), len(written)
        if name == "files_roundtrip":
            experiment.write_world(synth.generate_world(cfg.synth), out)
        else:
            experiment.run_experiment(cfg, out)
        print(name, sorted(written[start:]), calls)
        calls.clear()


@forks
def test_at_full_scale_only_the_ood_table_forks(tmp_path):
    got = run_pinned(f"from test_write_blocks import _full_scale\n"
                     f"_full_scale({str(tmp_path)!r})\n").splitlines()
    assert got == [
        "files_roundtrip ['trials.txt', 'vectors_enroll.txt', 'vectors_ood.txt', "
        "'vectors_test.txt', 'vectors_unlabeled.txt', 'world-manifest.txt'] "
        "['vectors_ood.txt']",
        "trials_snorm ['scores_level0.txt', 'scores_level1.txt', 'whitener.txt'] []",
        "whiten_deep ['scores_level0.txt', 'scores_level1.txt', 'scores_level2.txt', "
        "'scores_level3.txt', 'whitener.txt'] []"]
    assert (tmp_path / "trials_snorm" / "scores_level1.txt").read_text().count("\n") == 58_800


# --- the replace --------------------------------------------------------------

def failing_open(limit: int):
    """open, but a text file opened for writing raises EFBIG once it would
    hold more than limit characters, as a write under RLIMIT_FSIZE does."""
    def open_(file, mode="r", **kwargs):
        fh = open(file, mode, **kwargs)
        if "w" in mode:
            write, held = fh.write, [0]

            def capped(text):
                if held[0] + len(text) > limit:
                    write(text[:limit - held[0]])
                    raise OSError(errno.EFBIG, "File too large")
                held[0] += len(text)
                return write(text)
            fh.write = capped
        return fh
    return open_


SAVES = {
    "save_vector_table": lambda p: save_vector_table(vectors(np.random.default_rng(1), 300, 20), p),
    "save_trials": lambda p: save_trials(scores(np.random.default_rng(2), 20, 50).trials, p),
    "save_scores": lambda p: save_scores(scores(np.random.default_rng(3), 20, 50), p),
    "save_whitener": lambda p: whitening.save_whitener(
        whitener(np.random.default_rng(4), 20, 3), p),
    "save_plda": lambda p: plda.save_plda(plda_model(np.random.default_rng(5), 20), p),
}


@pytest.mark.parametrize("save", SAVES)
def test_a_save_that_fails_partway_keeps_the_earlier_file(tmp_path, monkeypatch, save):
    path = tmp_path / "f.txt"
    SAVES[save](path)
    assert path.stat().st_size > 5000
    path.write_bytes(b"earlier\n")
    monkeypatch.setattr(data, "open", failing_open(5000), raising=False)
    with pytest.raises(OSError, match="File too large"):
        SAVES[save](path)
    assert path.read_bytes() == b"earlier\n" and os.listdir(tmp_path) == ["f.txt"]


def limited(argv: list, limit: int) -> subprocess.CompletedProcess:
    """recwhiten argv in a fresh interpreter whose files may hold limit bytes
    (RLIMIT_FSIZE)."""
    path = [str(Path(data.__file__).resolve().parents[1]), os.environ.get("PYTHONPATH")]
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, path)),
               PYTHONDONTWRITEBYTECODE="1")
    script = ("import resource, sys\n"
              f"resource.setrlimit(resource.RLIMIT_FSIZE, ({limit}, {limit}))\n"
              "from recwhiten.cli import main\n"
              "sys.exit(main(sys.argv[1:]))\n")
    return subprocess.run([sys.executable, "-c", script, *map(str, argv)], env=env,
                          capture_output=True, text=True, timeout=120)


@pytest.fixture
def world(tmp_path):
    """SMALL_SYNTH's world, a [data] config over it, a PLDA model and a
    whitener, and the score command over them."""
    (tmp_path / "synth.cfg").write_text(SMALL_SYNTH)
    assert cli.main(["synth", "--config", str(tmp_path / "synth.cfg"),
                     "--out", str(tmp_path / "w")]) == 0
    paths = {key: tmp_path / "w" / name for key, name in (
        ("ood", "vectors_ood.txt"), ("unlabeled", "vectors_unlabeled.txt"),
        ("enroll", "vectors_enroll.txt"), ("test", "vectors_test.txt"),
        ("trials", "trials.txt"))}
    (tmp_path / "data.cfg").write_text(
        "[data]\n" + "".join(f"{key} = {p}\n" for key, p in paths.items())
        + SMALL_SYNTH[SMALL_SYNTH.index("[hierarchy]"):])
    plda.save_plda(plda.train_plda(data.load_vector_table(paths["ood"])), tmp_path / "plda.txt")
    score = ["score", "--plda", tmp_path / "plda.txt", "--enroll", paths["enroll"],
             "--test", paths["test"], "--trials", paths["trials"]]
    return tmp_path, score


COMMANDS = {
    "score": lambda tmp, score: (score + ["--out", tmp / "o" / "s.txt"], ["s.txt"]),
    "synth": lambda tmp, score: (["synth", "--config", tmp / "synth.cfg", "--out", tmp / "o"],
                                 sorted(os.listdir(tmp / "w"))),
    "fit-whitener": lambda tmp, score: (
        ["fit-whitener", "--config", tmp / "data.cfg", "--out", tmp / "o"], ["whitener.txt"]),
}


@pytest.mark.parametrize("command", COMMANDS)
def test_a_command_that_fails_partway_keeps_the_earlier_files(world, command):
    """Under a 1,024-byte RLIMIT_FSIZE each command exits 3 with one line;
    every file it would write keeps its earlier bytes, and no temp file stays."""
    tmp, score = world
    argv, names = COMMANDS[command](tmp, score)
    (tmp / "o").mkdir()
    for name in names:
        (tmp / "o" / name).write_text(f"earlier {name}\n")
    done = limited(argv, 1024)
    assert done.returncode == 3
    assert done.stderr == "data error: [Errno 27] File too large\n"
    assert sorted(os.listdir(tmp / "o")) == sorted(names)
    assert all((tmp / "o" / name).read_text() == f"earlier {name}\n" for name in names)
    assert limited(argv, 1 << 30).returncode == 0
    assert sorted(os.listdir(tmp / "o")) == sorted(names)


def test_score_into_a_fifo_streams_its_rows(world):
    tmp, score = world
    assert cli.main([str(a) for a in score + ["--out", tmp / "s.txt"]]) == 0
    os.mkfifo(tmp / "fifo")
    got = []
    reader = threading.Thread(target=lambda: got.append((tmp / "fifo").read_bytes()))
    reader.start()
    try:
        assert cli.main([str(a) for a in score + ["--out", tmp / "fifo"]]) == 0
    finally:
        reader.join(60)
    assert got == [(tmp / "s.txt").read_bytes()]
    assert stat.S_ISFIFO((tmp / "fifo").lstat().st_mode)
    assert sorted(os.listdir(tmp)) == sorted(["synth.cfg", "w", "data.cfg", "plda.txt",
                                              "s.txt", "fifo"])


def test_score_to_dev_stdout(world):
    tmp, score = world
    assert cli.main([str(a) for a in score + ["--out", tmp / "s.txt"]]) == 0
    done = limited(score + ["--out", "/dev/stdout"], 1 << 30)
    assert done.returncode == 0
    assert done.stdout == (tmp / "s.txt").read_text() + "/dev/stdout\n"


def test_modes_and_symlinks(tmp_path):
    """A new file gets 0666 & ~umask, as open(path, "w") gives it; an earlier
    file keeps its mode; a symlink stays a link and its target is written."""
    table = vectors(np.random.default_rng(5), 10, 3)
    umask = os.umask(0o022)
    os.umask(umask)
    save_vector_table(table, tmp_path / "new.txt")
    assert stat.S_IMODE((tmp_path / "new.txt").stat().st_mode) == 0o666 & ~umask
    (tmp_path / "old.txt").write_text("earlier\n")
    (tmp_path / "old.txt").chmod(0o640)
    save_vector_table(table, tmp_path / "old.txt")
    assert stat.S_IMODE((tmp_path / "old.txt").stat().st_mode) == 0o640
    (tmp_path / "link.txt").symlink_to(tmp_path / "old.txt")
    save_vector_table(vectors(np.random.default_rng(6), 10, 3), tmp_path / "link.txt")
    assert (tmp_path / "link.txt").is_symlink()
    assert (tmp_path / "old.txt").read_bytes() != (tmp_path / "new.txt").read_bytes()
    assert sorted(os.listdir(tmp_path)) == ["link.txt", "new.txt", "old.txt"]
