"""Put the checkout's ``src/`` and root on ``sys.path`` for the harness tests."""

import os
import sys

import pytest

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
for path in (ROOT, os.path.join(ROOT, "src")):
    if path not in sys.path:
        sys.path.insert(0, path)


@pytest.fixture
def small():
    """Workload sizes small enough to run every workload in about a second."""
    from perfbench.inputs import Sizes

    return Sizes(n=400, m=2400, serve_theta=2000, eval_theta=2000, solve_setups=3,
                 serve_setups=3, min_requests=200, trace_requests=200, trace_rounds=5,
                 read_stream=500, update_rounds=30, constrained_pool=8, max_select_k=20)
