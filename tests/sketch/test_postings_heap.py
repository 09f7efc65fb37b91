"""A postings build must not stack on heap that sampling freed.

glibc keeps freed blocks below its mmap threshold resident, and freeing a
large array lifts that threshold, so after sampling a process can hold a
hundred megabytes that nothing reads.  The postings arrays are large enough
to be mapped fresh, so without handing that heap back first the build's
peak is the freed heap plus the postings.  ``SketchIndex`` releases it
before it builds.

Runs in a fresh interpreter: the measurement needs a heap that no other
test has shaped.
"""

import json
import os
import subprocess
import sys
import textwrap

import pytest

from repro.utils.memory import _malloc_trim

SCRIPT = textwrap.dedent("""
    import json

    import numpy as np

    from repro.rrset import FlatRRCollection
    from repro.sketch import SketchIndex

    def vm_hwm_mb():
        with open("/proc/self/status") as status:
            for line in status:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1]) / 1024

    rng = np.random.default_rng(1)
    num_sets, num_nodes = 150_000, 2_000
    ptr = np.zeros(num_sets + 1, dtype=np.int64)
    np.cumsum(rng.integers(20, 60, size=num_sets), out=ptr[1:])
    nodes = rng.integers(0, num_nodes, size=int(ptr[-1])).astype(np.int32)
    zeros = np.zeros(num_sets, dtype=np.int64)
    index = SketchIndex(FlatRRCollection.from_arrays(
        num_nodes, 1, ptr, nodes, zeros, zeros, zeros))

    lift = np.ones(16 << 20, dtype=np.uint8)  # freeing it lifts the mmap threshold
    del lift
    blocks = [np.ones(1 << 20, dtype=np.uint8) for _ in range(160)]
    live = blocks[39::40]  # the last block stays live, so free() cannot trim the top
    del blocks
    before = vm_hwm_mb()
    index.coverage_count([0])  # builds the postings
    postings = (index._inv_ptr.nbytes + index._inv_sets.nbytes) / 2**20
    print(json.dumps([before, vm_hwm_mb(), postings]))
""")


@pytest.mark.skipif(not os.path.exists("/proc/self/status"), reason="needs /proc")
@pytest.mark.skipif(_malloc_trim() is None, reason="needs glibc's malloc_trim")
def test_postings_build_does_not_stack_on_the_freed_heap():
    src = os.path.join(os.path.dirname(__file__), os.pardir, os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=os.path.abspath(src))
    done = subprocess.run([sys.executable, "-c", SCRIPT], env=env, capture_output=True,
                          text=True, timeout=300, check=True)
    before, after, postings = json.loads(done.stdout.strip().splitlines()[-1])
    # The postings (~46 MB) are past glibc's largest mmap threshold (32 MB),
    # so they are mapped fresh.  Once the ~156 MB freed before the build are
    # handed back, the build stays under the peak the blocks set; without
    # the release it stacks the postings on top of them.
    assert postings > 32, postings
    assert after - before <= postings / 4, (before, after, postings)
