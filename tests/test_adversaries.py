"""Unit tests for adversary framework: budget, strategies, NBD/ABD."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary.adaptive import (
    AdaptiveAdversary,
    SlidingWindowAdversary,
    TargetedAdaptiveAdversary,
)
from repro.adversary.base import RoundView
from repro.adversary.batched import BatchRoundView
from repro.adversary.budget import (
    FaultBudgetViolation,
    fault_degrees,
    greedy_symmetric_selection,
    max_faulty_degree,
    validate_fault_set,
)
from repro.adversary.nonadaptive import NonAdaptiveAdversary
from repro.adversary.strategies import (
    BlockStrategy,
    NoEdgesStrategy,
    RandomRegularStrategy,
    RoundRobinMatchingStrategy,
    StaticStrategy,
    corrupt_drop,
    corrupt_flip,
    corrupt_random,
    tournament_matchings,
)
from repro.perf.reference import (greedy_symmetric_selection_loop,
                                  tournament_matching_loop)
from repro.utils.rng import make_rng


def view_for(n, width=1, intended=None, index=0, label=""):
    if intended is None:
        intended = np.ones((n, n), dtype=np.int64)
    return RoundView(index=index, width=width, intended=intended,
                     history=[], label=label)


def batch_view_for(n, width=1, intended=None, index=0):
    """The one-trial view a one-seed batched adversary sees in a serial
    run."""
    if intended is None:
        intended = np.ones((n, n), dtype=np.int64)
    return BatchRoundView(index=index, width=width, intended=intended[None])


class TestBudget:
    def test_max_faulty_degree(self):
        assert max_faulty_degree(100, 0.05) == 5
        assert max_faulty_degree(100, 0.0) == 0

    def test_bad_alpha(self):
        with pytest.raises(ValueError):
            max_faulty_degree(10, 1.5)

    def test_validate_ok(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 1] = mask[1, 0] = True
        validate_fault_set(mask, 4, 0.25)

    def test_validate_rejects_asymmetric(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, 1] = True
        with pytest.raises(FaultBudgetViolation):
            validate_fault_set(mask, 4, 0.5)

    def test_validate_rejects_self_loop(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[2, 2] = True
        with pytest.raises(FaultBudgetViolation):
            validate_fault_set(mask, 4, 0.5)

    def test_validate_rejects_over_budget(self):
        mask = np.ones((4, 4), dtype=bool)
        np.fill_diagonal(mask, False)
        with pytest.raises(FaultBudgetViolation):
            validate_fault_set(mask, 4, 0.25)  # budget 1, degrees 3

    def test_fault_degrees(self):
        mask = np.zeros((4, 4), dtype=bool)
        mask[0, [1, 2]] = True
        mask[[1, 2], 0] = True
        assert list(fault_degrees(mask)) == [2, 1, 1, 0]

    def test_greedy_selection_respects_budget(self):
        rng = make_rng(5)
        priorities = rng.random((16, 16))
        mask = greedy_symmetric_selection(priorities, budget=3, rng=rng)
        validate_fault_set(mask, 16, 3 / 16)
        assert fault_degrees(mask).max() == 3  # greedy saturates

    def test_greedy_zero_budget(self):
        rng = make_rng(5)
        mask = greedy_symmetric_selection(np.ones((8, 8)), 0, rng)
        assert not mask.any()

    @pytest.mark.parametrize("n, alpha, budget", [
        (100, 0.29, 29), (50, 0.58, 29), (90, 0.7, 63)])
    def test_max_faulty_degree_counts_float_rounded_products(self, n, alpha,
                                                             budget):
        # alpha * n lands just below the integer in float arithmetic
        assert alpha * n < budget
        assert max_faulty_degree(n, alpha) == budget

    def test_max_faulty_degree_still_floors_fractions(self):
        assert max_faulty_degree(100, 0.295) == 29
        assert max_faulty_degree(64, 1 / 32) == 2
        assert max_faulty_degree(10, 1.0) == 10

    def test_budget_copies_agree_with_max_faulty_degree(self):
        from repro.analysis.bounds import (RoutingFeasibility,
                                           bounded_degree_fault_budget)
        from repro.core.adaptive import AdaptiveAllToAll
        from repro.core.profiles import SIMULATION, ProfileError
        from repro.faults.channels import ByzantineNodeAdversary

        # code sizing: 2 * 29 + 1 errors, not 2 * 28 + 1
        with pytest.raises(ProfileError, match=r"\+1=59 adversarial"):
            SIMULATION.select_routing_code(50, 0.58)
        assert bounded_degree_fault_budget(100, 0.29) == 29 * 100 // 2
        feasibility = RoutingFeasibility(n=100, alpha=0.29, codeword_bits=58,
                                         overlap=0.0, code_distance=0.5)
        assert feasibility.adversary_fraction == 1.0
        # (1/49) * 196 is 3.9999999999999996: the group count is 4, not 2
        assert AdaptiveAllToAll._num_parts(196, 1 / 49) == 4
        byzantine = ByzantineNodeAdversary(0.58)
        byzantine.begin_protocol(50, 1)
        view = batch_view_for(50)
        mask = byzantine.select_edges_many(view)
        assert (fault_degrees(mask[0]) == 49).sum() == 29
        delivered = byzantine.corrupt_many(view, mask)
        assert (delivered[0][mask[0]] == 0).all()  # width-1 flip of 1


class _ZeroRng:
    """An RNG stub whose tie-break draw is all zeros, so equal scores stay
    equal and only ``argsort`` decides their order."""

    def __init__(self):
        self.sizes = []

    def random(self, size):
        self.sizes.append(size)
        return np.zeros(size)


@pytest.fixture
def walks(monkeypatch):
    """The length of each edge list ``greedy_symmetric_selection`` walks:
    a selection that reaches the skip pass walks twice, first the head of
    the order and then the edges that survive the pass."""
    from repro.adversary import budget as module
    lengths = []
    original = module._take_edges

    def spy(us, *rest):
        lengths.append(len(us))
        return original(us, *rest)

    monkeypatch.setattr(module, "_take_edges", spy)
    return lengths


class TestGreedySelectionOracle:
    """The list walk must reproduce the frozen per-edge loop exactly: the
    same mask, and the same RNG state afterwards (the ``random`` content
    attack draws from the same stream next)."""

    @staticmethod
    def assert_matches_loop(priorities, budget, seed):
        fast_rng, loop_rng = make_rng(seed), make_rng(seed)
        fast = greedy_symmetric_selection(priorities, budget, fast_rng)
        slow = greedy_symmetric_selection_loop(priorities, budget, loop_rng)
        assert fast.dtype == slow.dtype == bool
        assert np.array_equal(fast, slow)
        assert fast_rng.random() == loop_rng.random()
        return fast

    @pytest.mark.parametrize("budget", [1, 2, 3])
    @pytest.mark.parametrize("seed", range(3))
    def test_forced_ties_follow_argsort(self, budget, seed):
        # three tied score classes in scrambled positions, where the
        # unstable argsort need not keep edges in index order
        priorities = make_rng(seed).integers(0, 3, size=(24, 24))
        fast_rng, loop_rng = _ZeroRng(), _ZeroRng()
        fast = greedy_symmetric_selection(priorities, budget, fast_rng)
        slow = greedy_symmetric_selection_loop(priorities, budget, loop_rng)
        assert np.array_equal(fast, slow)
        assert fast_rng.sizes == loop_rng.sizes == [276]

    @pytest.mark.parametrize("budget", [1, 2])
    @pytest.mark.parametrize("seed", range(6))
    def test_all_loaded_workload_planes(self, budget, seed):
        loaded = np.ones((64, 64))
        np.fill_diagonal(loaded, 0.0)
        mask = self.assert_matches_loop(loaded + loaded.T, budget, seed)
        assert fault_degrees(mask).max() == budget

    @pytest.mark.parametrize("kind", ["adaptive", "targeted", "sliding"])
    @pytest.mark.parametrize("seed", range(4))
    def test_boosted_random_priorities(self, kind, seed):
        n = 32
        adversary = {
            "adaptive": AdaptiveAdversary(3 / n),
            "targeted": TargetedAdaptiveAdversary(3 / n, victims=[seed, 7]),
            "sliding": SlidingWindowAdversary(3 / n),
        }[kind]
        adversary.begin_protocol(n)
        rng = make_rng(100 + seed)
        intended = np.where(rng.random((n, n)) < 0.5, 1, -1)
        priorities = adversary.edge_priorities(
            view_for(n, intended=intended, index=seed))
        assert (priorities.max() > 2) == (kind != "adaptive")  # boosts
        for budget in (1, 2, 5):
            self.assert_matches_loop(priorities, budget, seed)

    @pytest.mark.parametrize("budget", [7, 8, 20])
    def test_budget_at_least_n_minus_one_takes_every_edge(self, budget):
        mask = self.assert_matches_loop(make_rng(3).random((8, 8)), budget, 3)
        assert np.array_equal(mask, ~np.eye(8, dtype=bool))

    @pytest.mark.parametrize("budget", [1, 2])
    def test_two_nodes(self, budget):
        mask = self.assert_matches_loop(np.zeros((2, 2)), budget, 0)
        assert mask[0, 1] and mask[1, 0] and not mask.diagonal().any()

    @settings(max_examples=60, deadline=None)
    @given(n=st.integers(1, 12), budget=st.integers(0, 12),
           levels=st.integers(1, 3), seed=st.integers(0, 2 ** 16))
    def test_matches_loop_on_small_cliques(self, n, budget, levels, seed):
        priorities = make_rng(seed).integers(0, levels, size=(n, n))
        self.assert_matches_loop(priorities, budget, seed)

    #: sizes past the head walk's 2n edges, and budgets from a matching
    #: to every edge
    SKIP_PASS = [(n, budget) for n in (96, 128, 200)
                 for budget in (1, 2, 3, 8, n - 1)]

    @classmethod
    def assert_skip_pass_matches_loop(cls, walks, priorities, budget, seed):
        del walks[:]
        mask = cls.assert_matches_loop(priorities, budget, seed)
        n = len(priorities)
        assert walks[0] == 2 * n and len(walks) == 2  # the pass ran
        return mask

    @pytest.mark.parametrize("n,budget", SKIP_PASS)
    def test_skip_pass_random_priorities(self, walks, n, budget):
        priorities = make_rng(n).random((n, n))
        mask = self.assert_skip_pass_matches_loop(walks, priorities, budget,
                                                  n + budget)
        assert fault_degrees(mask).max() == budget

    @pytest.mark.parametrize("n,budget", SKIP_PASS)
    def test_skip_pass_forced_ties(self, walks, n, budget):
        # no tie-break noise: three score classes, ordered by argsort alone
        priorities = make_rng(n + budget).integers(0, 3, size=(n, n))
        fast_rng, loop_rng = _ZeroRng(), _ZeroRng()
        del walks[:]
        fast = greedy_symmetric_selection(priorities, budget, fast_rng)
        assert len(walks) == 2
        slow = greedy_symmetric_selection_loop(priorities, budget, loop_rng)
        assert np.array_equal(fast, slow)
        assert fast_rng.sizes == loop_rng.sizes == [n * (n - 1) // 2]

    @pytest.mark.parametrize("kind", ["targeted", "sliding"])
    @pytest.mark.parametrize("n,budget", SKIP_PASS)
    def test_skip_pass_boosted_priorities(self, walks, kind, n, budget):
        adversary = (TargetedAdaptiveAdversary(budget / n, victims=[1, n // 2])
                     if kind == "targeted"
                     else SlidingWindowAdversary(budget / n))
        adversary.begin_protocol(n)
        rng = make_rng(n + budget)
        intended = np.where(rng.random((n, n)) < 0.5, 1, -1)
        priorities = adversary.edge_priorities(
            view_for(n, intended=intended, index=budget))
        assert priorities.max() > 2  # the victim or window boost
        self.assert_skip_pass_matches_loop(walks, priorities, budget, budget)

    def test_edge_list_memo_holds_the_last_size_only(self):
        from repro.adversary import budget as module
        for n in (12, 40, 12):
            self.assert_matches_loop(np.ones((n, n)), 1, n)
            assert list(module._UPPER_EDGES) == [n]
            assert not module._UPPER_EDGES[n][0].flags.writeable

    def test_zero_budget_draws_nothing(self):
        mask = self.assert_matches_loop(np.ones((8, 8)), 0, 9)
        assert not mask.any()
        rng = make_rng(9)
        greedy_symmetric_selection(np.ones((8, 8)), 0, rng)
        assert rng.random() == make_rng(9).random()


class TestStrategies:
    @pytest.mark.parametrize("n", [8, 9, 16])
    def test_matching_is_degree_one(self, n):
        strategy = RoundRobinMatchingStrategy()
        for round_index in range(5):
            mask = strategy(n, 1, round_index, make_rng(0))
            assert fault_degrees(mask).max() <= 1

    def test_matching_is_mobile(self):
        strategy = RoundRobinMatchingStrategy()
        a = strategy(8, 1, 0, make_rng(0))
        b = strategy(8, 1, 1, make_rng(0))
        assert not np.array_equal(a, b)

    def test_random_regular_within_budget(self):
        strategy = RandomRegularStrategy()
        mask = strategy(16, 4, 0, make_rng(1))
        assert fault_degrees(mask).max() <= 4
        assert mask.sum() >= 16  # saturates a meaningful share

    def test_block_strategy_within_budget(self):
        strategy = BlockStrategy()
        mask = strategy(16, 3, 2, make_rng(2))
        validate_fault_set(mask, 16, 3 / 16)

    def test_static_strategy_constant(self):
        strategy = StaticStrategy()
        rng = make_rng(3)
        a = strategy(16, 2, 0, rng)
        b = strategy(16, 2, 7, rng)
        assert np.array_equal(a, b)

    def test_no_edges(self):
        assert not NoEdgesStrategy()(8, 4, 0, make_rng(0)).any()

    def test_tournament_matchings_match_the_loop(self):
        # the closed form against the circle-method loop it replaced: every
        # matching (and indices past one period) for n = 2..79, then the
        # unions of random choice sets RandomRegularStrategy draws
        rng = make_rng(17)
        for n in range(2, 80):
            k = n - 1 if n % 2 == 0 else n
            loops = [tournament_matching_loop(n, r) for r in range(k)]
            for r in range(k + 3):
                mask = tournament_matchings(n, [r])
                assert mask.shape == (n, n)
                assert np.array_equal(mask, loops[r % k]), (n, r)
                assert fault_degrees(mask).max() == 1
            for _ in range(4):
                choice = rng.permutation(k)[:int(rng.integers(1, k + 1))]
                union = np.logical_or.reduce([loops[r] for r in choice])
                assert np.array_equal(tournament_matchings(n, choice),
                                      union), (n, choice)


class TestContentAttacks:
    def test_flip_inverts_bits(self):
        intended = np.array([[-1, 0b101], [0b011, -1]], dtype=np.int64)
        mask = np.array([[False, True], [True, False]])
        out = corrupt_flip(intended, mask, width=3, rng=make_rng(0))
        assert out[0, 1] == 0b010
        assert out[1, 0] == 0b100

    def test_flip_fabricates_on_silent_edges(self):
        intended = np.full((2, 2), -1, dtype=np.int64)
        mask = np.array([[False, True], [True, False]])
        out = corrupt_flip(intended, mask, width=2, rng=make_rng(0))
        assert out[0, 1] == 0b11

    def test_drop(self):
        intended = np.ones((2, 2), dtype=np.int64)
        mask = np.array([[False, True], [False, False]])
        out = corrupt_drop(intended, mask, width=1, rng=make_rng(0))
        assert out[0, 1] == -1
        assert out[1, 0] == 1

    def test_random_stays_in_range(self):
        intended = np.zeros((4, 4), dtype=np.int64)
        mask = np.ones((4, 4), dtype=bool)
        out = corrupt_random(intended, mask, width=3, rng=make_rng(0))
        assert out.min() >= 0 and out.max() < 8


class TestNonAdaptive:
    def test_schedule_ignores_messages(self):
        adv = NonAdaptiveAdversary(0.25, seed=3)
        adv.begin_protocol(16, 1)
        a = adv.select_edges_many(batch_view_for(
            16, intended=np.zeros((16, 16), dtype=np.int64)))
        adv2 = NonAdaptiveAdversary(0.25, seed=3)
        adv2.begin_protocol(16, 1)
        b = adv2.select_edges_many(batch_view_for(
            16, intended=np.ones((16, 16), dtype=np.int64) * 7, width=3))
        assert a.any()
        assert np.array_equal(a, b)

    def test_schedule_varies_by_round(self):
        adv = NonAdaptiveAdversary(0.25, seed=3)
        adv.begin_protocol(16, 1)
        views = [batch_view_for(16, index=r) for r in range(2)]
        a, b = (adv.corrupt_many(view, adv.select_edges_many(view))
                for view in views)
        assert not np.array_equal(a, b)

    def test_unknown_attack_rejected(self):
        with pytest.raises(ValueError):
            NonAdaptiveAdversary(0.1, content_attack="nope")


class TestAdaptive:
    def test_prefers_loaded_edges(self):
        adv = AdaptiveAdversary(2 / 16, seed=0)
        adv.begin_protocol(16)
        intended = np.full((16, 16), -1, dtype=np.int64)
        intended[0, 1] = intended[1, 0] = 1
        intended[2, 3] = intended[3, 2] = 1
        mask = adv.select_edges(view_for(16, intended=intended))
        assert mask[0, 1] and mask[2, 3]

    def test_budget_respected(self):
        adv = AdaptiveAdversary(0.25, seed=1)
        adv.begin_protocol(16)
        mask = adv.select_edges(view_for(16))
        assert fault_degrees(mask).max() <= 4

    def test_targeted_boosts_victims(self):
        adv = TargetedAdaptiveAdversary(2 / 16, victims=[5], seed=2)
        adv.begin_protocol(16)
        mask = adv.select_edges(view_for(16))
        assert fault_degrees(mask)[5] == 2  # victim budget saturated

    def test_sliding_window_moves(self):
        adv = SlidingWindowAdversary(2 / 16, seed=3)
        adv.begin_protocol(16)
        a = adv.select_edges(view_for(16, index=0))
        b = adv.select_edges(view_for(16, index=5))
        assert not np.array_equal(a, b)
