"""Property-based tests for max-coverage greedy (Algorithm 1's engine)."""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.rrset import (
    brute_force_max_coverage,
    coverage_of,
    greedy_max_coverage,
)
from tests.rrset.greedy_oracle import reference_greedy


@st.composite
def coverage_instances(draw, max_nodes=8, max_sets=20):
    n = draw(st.integers(min_value=2, max_value=max_nodes))
    num_sets = draw(st.integers(min_value=0, max_value=max_sets))
    sets = [
        tuple(
            draw(
                st.lists(
                    st.integers(min_value=0, max_value=n - 1),
                    min_size=1,
                    max_size=min(4, n),
                    unique=True,
                )
            )
        )
        for _ in range(num_sets)
    ]
    k = draw(st.integers(min_value=1, max_value=n))
    return n, sets, k


class TestGreedyCoverageProperties:
    @given(coverage_instances())
    @settings(max_examples=80, deadline=None)
    def test_contract(self, instance):
        n, sets, k = instance
        result = greedy_max_coverage(sets, n, k)
        assert len(result.seeds) == k
        assert len(set(result.seeds)) == k
        assert all(0 <= s < n for s in result.seeds)
        assert result.covered == coverage_of(sets, result.seeds)
        assert 0 <= result.covered <= len(sets)

    @given(coverage_instances())
    @settings(max_examples=80, deadline=None)
    def test_gains_non_increasing(self, instance):
        n, sets, k = instance
        gains = list(greedy_max_coverage(sets, n, k).marginal_gains)
        assert gains == sorted(gains, reverse=True)

    @given(coverage_instances())
    @settings(max_examples=80, deadline=None)
    def test_matches_oracle(self, instance):
        n, sets, k = instance
        result = greedy_max_coverage(sets, n, k)
        expected = reference_greedy(sets, n, k)
        assert result.seeds == expected.seeds
        assert result.covered == expected.covered
        assert result.marginal_gains == expected.marginal_gains

    @given(coverage_instances(max_nodes=6, max_sets=12))
    @settings(max_examples=40, deadline=None)
    def test_approximation_guarantee(self, instance):
        n, sets, k = instance
        if k > 3:
            k = 3  # keep brute force cheap
        greedy = greedy_max_coverage(sets, n, k)
        optimal = brute_force_max_coverage(sets, n, k)
        assert greedy.covered >= (1 - 1 / 2.718281828) * optimal.covered - 1e-9

    @given(coverage_instances())
    @settings(max_examples=40, deadline=None)
    def test_monotone_in_k(self, instance):
        n, sets, k = instance
        if k >= n:
            return
        smaller = greedy_max_coverage(sets, n, k)
        larger = greedy_max_coverage(sets, n, k + 1)
        assert larger.covered >= smaller.covered
        # Greedy is prefix-consistent: first k picks identical.
        assert larger.seeds[:k] == smaller.seeds
