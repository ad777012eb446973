"""Hypothesis property tests on the router's structural invariants."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.adversary import NullAdversary
from repro.cliquesim import CongestedClique
from repro.core.routing import (SuperMessage, SuperMessageRouter,
                                 _structure, plan_waves)


def build_router(n=32, bandwidth=8):
    net = CongestedClique(n, bandwidth=bandwidth, adversary=NullAdversary())
    return SuperMessageRouter(net), net


@st.composite
def routing_instances(draw):
    """Random well-formed instances: per-node slot counts <= 3, message
    lengths 1..40, random target sets of 1..3 nodes."""
    n = 32
    rng_seed = draw(st.integers(0, 2**31 - 1))
    rng = np.random.default_rng(rng_seed)
    messages = []
    num_sources = draw(st.integers(1, 8))
    sources = rng.choice(n, num_sources, replace=False)
    for source in sources:
        for slot in range(int(rng.integers(1, 4))):
            length = int(rng.integers(1, 41))
            bits = rng.integers(0, 2, length).astype(np.uint8)
            num_targets = int(rng.integers(1, 4))
            targets = [int(t) for t in rng.choice(n, num_targets,
                                                  replace=False)]
            messages.append(SuperMessage.make(int(source), slot, bits,
                                              targets))
    return messages


class TestRouterProperties:
    @given(routing_instances())
    @settings(max_examples=15, deadline=None)
    def test_exact_delivery_fault_free(self, messages):
        router, _ = build_router()
        result = router.route(messages)
        for msg in messages:
            expected = np.array(msg.bits, dtype=np.uint8)
            for target in msg.targets:
                assert np.array_equal(result.outputs[target][msg.key],
                                      expected)

    @given(routing_instances())
    @settings(max_examples=10, deadline=None)
    def test_round_parity(self, messages):
        """Rounds always come in (round 1, round 2) pairs per wave."""
        router, net = build_router()
        result = router.route(messages)
        assert result.rounds % 2 == 0
        assert result.rounds == net.rounds_used

    @given(routing_instances())
    @settings(max_examples=10, deadline=None)
    def test_outputs_only_at_targets(self, messages):
        router, _ = build_router()
        result = router.route(messages)
        targeted = {(t, msg.key) for msg in messages for t in msg.targets}
        appearing = {(t, key) for t, per_node in result.outputs.items()
                     for key in per_node}
        assert appearing == targeted

    def test_scheduler_never_double_books(self):
        """Within a batch no (source, block) or (target, block) repeats —
        the bandwidth-1 guarantee of Section 4.2's load rules."""
        rng = np.random.default_rng(7)
        messages = [
            SuperMessage.make(u, slot, rng.integers(0, 2, 8).astype(np.uint8),
                              [(u * 3 + slot + 1) % 32])
            for u in range(32) for slot in range(3)
        ]
        router, _ = build_router()
        length, code = router.profile.select_routing_code(32, 0.0)
        plan = plan_waves(1, 32, 32 // length, code.k,
                          *_structure(messages))
        batch = plan.batch[0]
        block = plan.block[0]
        assert plan.chunk_msg.size > plan.num_batches > 1
        source = plan.sources[0, plan.chunk_msg]
        target = plan.targets[0, plan.chunk_msg]  # one target per message
        for node in (source, target):
            cells = batch * 32 * 32 + node * 32 + block
            assert np.unique(cells).size == cells.size
