"""tim_plus gives identical outputs with one and two pool workers."""

from dataclasses import replace

from perfbench import inputs
from perfbench.workloads import _solver


def test_tim_plus_outputs_do_not_depend_on_jobs(small):
    graph = inputs.build_graph(small, 11)
    one = _solver("tim_plus", replace(small, tim_jobs=1), 11)(graph)
    two = _solver("tim_plus", replace(small, tim_jobs=2), 11)(graph)
    assert one.seeds == two.seeds
    assert (one.theta, one.kpt_star, one.kpt_plus) == (two.theta, two.kpt_star, two.kpt_plus)
    assert one.rr_sets_per_phase == two.rr_sets_per_phase
