"""A pool forked after a solve must not map the heap that solve freed.

glibc keeps freed blocks below its mmap threshold resident, and freeing a
large array lifts that threshold, so a process that has finished a solve can
hold a hundred megabytes that nothing reads.  A forked worker maps every
page its parent holds.  The engine hands the free heap back before it forks
a pool, so a second pool's workers stay as small as the first's.

Runs in a fresh interpreter: the measurement needs a heap that no other
test has shaped.
"""

import ctypes
import json
import os
import subprocess
import sys
import textwrap

import pytest

SCRIPT = textwrap.dedent("""
    import json
    import multiprocessing

    import numpy as np

    from repro.graphs import gnm_random_digraph, weighted_cascade
    from repro.parallel import ParallelSampler
    from repro.rrset.ic_sampler import ICRRSampler
    from repro.utils.rng import RandomSource

    graph = weighted_cascade(gnm_random_digraph(500, 3000, rng=1))

    def worker_peak_mb():
        with ParallelSampler(ICRRSampler(graph), jobs=2, start_method="fork") as sampler:
            sampler.sample_random_batch(4096, RandomSource(1))
            peaks = []
            for child in multiprocessing.active_children():
                with open(f"/proc/{child.pid}/status") as status:
                    for line in status:
                        if line.startswith("VmHWM:"):
                            peaks.append(int(line.split()[1]) / 1024)
        return max(peaks)

    first = worker_peak_mb()
    lift = np.ones(16 << 20, dtype=np.uint8)  # freeing it lifts the mmap threshold
    del lift
    blocks = [np.ones(1 << 20, dtype=np.uint8) for _ in range(200)]
    live = blocks[49::50]  # the last block stays live, so free() cannot trim the top
    del blocks
    second = worker_peak_mb()
    print(json.dumps([first, second]))
""")


def _has_malloc_trim() -> bool:
    try:
        return hasattr(ctypes.CDLL(None), "malloc_trim")
    except OSError:
        return False


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.skipif(not _has_malloc_trim(), reason="needs glibc's malloc_trim")
def test_second_pool_workers_do_not_map_the_freed_heap():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    first, second = json.loads(done.stdout.strip().splitlines()[-1])
    # Without the release the second pool's workers map the ~200 MB freed
    # between the pools (35 -> 233 MB measured).
    assert second - first <= 32, (first, second)
