"""run_experiment's peak traced memory stays within a budget, and the run
leaves no thread behind.

tracemalloc sees every array numpy allocates, though not BLAS buffers or
allocator fragmentation, and its peak for one run is the same from run to
run. Each budget is a multiple of the bytes of the vectors the run holds
(its OOD, unlabeled, enrollment and test sets), so a change that keeps more
arrays alive, such as a candidate copied out of the OOD matrix, fails here.
"""

import threading
import tracemalloc

import pytest

from recwhiten.config import parse_experiment_config
from recwhiten.experiment import run_experiment

# dim 200, levels 0-3 without S-norm. Level 1's ood_a+ood_c and ood_b+ood_d
# skip a corpus, so their rows are gathered from the OOD matrix.
WHITEN_DEEP = """
[synth]
seed = 0
dim = 200
subcorpora = ood_a:200:10:0.0 ood_b:200:10:6.0 ood_c:200:10:3.0 ood_d:200:10:9.0
n_enroll_speakers = 25
n_unlabeled = 1000

[hierarchy]
level1 = ood_a+ood_b ood_c+ood_d ood_a+ood_c ood_b+ood_d
level2 = ood_a ood_b ood_c ood_d
level3 = ood_a ood_b ood_c ood_d

[backend]
levels = 0 1 2 3
"""

# dim 50, levels 0-1 with S-norm: 58,800 trials per level
TRIALS_SNORM = """
[synth]
seed = 0
dim = 50
subcorpora = ood_a:250:8:0.0 ood_b:250:8:6.0
n_enroll_speakers = 140
n_unlabeled = 300

[hierarchy]
level1 = ood_a ood_b

[backend]
levels = 0 1
snorm = on
"""


def vector_bytes(synth) -> int:
    rows = (sum(s.n_speakers * s.sessions_per_speaker for s in synth.ood_subcorpora)
            + synth.n_unlabeled
            + synth.n_enroll_speakers * (synth.enroll_sessions + synth.test_sessions))
    return 8 * rows * synth.dim


# Measured with numpy 2.4.6: 60.20 MB, 4.11 times the 14.64 MB of vectors
# (whiten_deep), and 13.59 MB, 6.61 times 2.06 MB (trials_snorm). Each budget
# leaves about 10 % of headroom; copying every candidate reads 5.3 on whiten_deep.
@pytest.mark.parametrize("text,budget", [(WHITEN_DEEP, 4.5), (TRIALS_SNORM, 7.25)],
                         ids=["whiten_deep", "trials_snorm"])
def test_peak_traced_memory_within_budget(text, budget, tmp_path):
    cfg = parse_experiment_config(text)
    threads = threading.active_count()
    tracemalloc.start()
    try:
        run_experiment(cfg, tmp_path)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak / vector_bytes(cfg.synth) <= budget
    assert threading.active_count() == threads
