"""Unit + integration tests for the resilient super-message router
(Theorem 4.1)."""

import hashlib

import numpy as np
import pytest

from repro.adversary import (
    AdaptiveAdversary,
    NonAdaptiveAdversary,
    NullAdversary,
    RoundRobinMatchingStrategy,
)
from repro.cliquesim import CongestedClique
from repro.cliquesim.batched import BatchedClique
from repro.core.batched_routing import BatchedRouter
from repro.core.profiles import ProfileError, SIMULATION
from repro.core.routing import (
    RoutingResult,
    SuperMessage,
    SuperMessageRouter,
    broadcast,
)
from repro.faults.channels import BatchedIIDEdgeChannel, IIDEdgeChannel
from repro.utils.rng import make_rng


def route_instance(n, messages, adversary=None, bandwidth=8, mode="blocks"):
    net = CongestedClique(n, bandwidth=bandwidth,
                          adversary=adversary or NullAdversary())
    router = SuperMessageRouter(net, SIMULATION, mode=mode)
    return router.route(messages), net


class TestSuperMessage:
    def test_make_normalises(self):
        msg = SuperMessage.make(3, 1, [1, 0, 1], targets=[5, 2, 5])
        assert msg.targets == (2, 5)
        assert msg.key == (3, 1)

    def test_empty_message_rejected_by_router(self):
        with pytest.raises(ValueError):
            route_instance(16, [SuperMessage.make(0, 0, [], [1])])

    def test_no_targets_rejected(self):
        msg = SuperMessage(source=0, slot=0, bits=(1,), targets=())
        with pytest.raises(ValueError):
            route_instance(16, [msg])

    def test_duplicate_keys_rejected(self):
        msgs = [SuperMessage.make(0, 0, [1], [1]),
                SuperMessage.make(0, 0, [0], [2])]
        with pytest.raises(ValueError):
            route_instance(16, msgs)


class TestFaultFreeRouting:
    def test_single_message(self, rng):
        bits = rng.integers(0, 2, 10).astype(np.uint8)
        result, net = route_instance(
            16, [SuperMessage.make(2, 0, bits, [7])])
        assert np.array_equal(result.received(7, 2, 0), bits)
        assert result.rounds == 2

    def test_multi_target(self, rng):
        bits = rng.integers(0, 2, 6).astype(np.uint8)
        msg = SuperMessage.make(0, 0, bits, targets=[3, 8, 12])
        result, _ = route_instance(16, [msg])
        for target in (3, 8, 12):
            assert np.array_equal(result.received(target, 0, 0), bits)

    def test_every_node_sends_and_receives(self, rng):
        n = 16
        msgs = []
        truth = {}
        for u in range(n):
            bits = rng.integers(0, 2, 8).astype(np.uint8)
            target = (u + 3) % n
            msgs.append(SuperMessage.make(u, 0, bits, [target]))
            truth[(u, target)] = bits
        result, _ = route_instance(n, msgs)
        for (u, target), bits in truth.items():
            assert np.array_equal(result.received(target, u, 0), bits)

    def test_long_message_chunking(self, rng):
        """Messages far beyond the codeword capacity split into chunks and
        reassemble exactly (Theorem 4.1's O(k lambda / Bn) round scaling)."""
        bits = rng.integers(0, 2, 300).astype(np.uint8)
        result, _ = route_instance(16, [SuperMessage.make(1, 0, bits, [9])])
        assert np.array_equal(result.received(9, 1, 0), bits)

    def test_many_slots_per_node(self, rng):
        n = 16
        msgs = []
        for u in range(n):
            for slot in range(4):
                msgs.append(SuperMessage.make(
                    u, slot, rng.integers(0, 2, 4).astype(np.uint8),
                    [(u + slot + 1) % n]))
        result, _ = route_instance(n, msgs)
        for msg in msgs:
            got = result.received(msg.targets[0], msg.source, msg.slot)
            assert np.array_equal(got, np.array(msg.bits, dtype=np.uint8))

    def test_rounds_scale_with_bandwidth(self, rng):
        n = 16
        msgs = [SuperMessage.make(u, slot,
                                  rng.integers(0, 2, 4).astype(np.uint8),
                                  [(u + slot + 1) % n])
                for u in range(n) for slot in range(4)]
        slow, _ = route_instance(n, msgs, bandwidth=1)
        fast, _ = route_instance(n, msgs, bandwidth=8)
        assert fast.rounds <= slow.rounds


class TestAdversarialRouting:
    @pytest.mark.parametrize("adversary_factory", [
        lambda: AdaptiveAdversary(1 / 32, seed=7),
        lambda: AdaptiveAdversary(1 / 32, content_attack="random", seed=8),
        lambda: AdaptiveAdversary(1 / 32, content_attack="drop", seed=9),
        lambda: NonAdaptiveAdversary(1 / 32, seed=10),
        lambda: NonAdaptiveAdversary(
            1 / 32, RoundRobinMatchingStrategy(), seed=11),
    ])
    def test_delivery_under_attack(self, adversary_factory, rng):
        n = 64
        msgs = []
        for u in range(n):
            msgs.append(SuperMessage.make(
                u, 0, rng.integers(0, 2, 16).astype(np.uint8), [(u + 5) % n]))
        result, _ = route_instance(n, msgs, adversary=adversary_factory())
        assert not result.decode_failures
        for msg in msgs:
            got = result.received(msg.targets[0], msg.source, 0)
            assert np.array_equal(got, np.array(msg.bits, dtype=np.uint8))

    def test_adversary_exception_surfaces_as_itself(self):
        # the serial front end reports what a crashing adversary raised,
        # not the engine's per-trial wrapper around it
        class Crash(Exception):
            pass

        class Crashing(AdaptiveAdversary):
            def select_edges(self, view):
                raise Crash("select_edges")

        with pytest.raises(Crash, match="select_edges"):
            route_instance(64, [SuperMessage.make(0, 0, [1, 0, 1], [5])],
                           adversary=Crashing(1 / 32, seed=1))

    @pytest.mark.parametrize("mode", ["blocks", "coverfree"])
    def test_alpha_too_large_raises(self, mode):
        # both modes check the adversary's budget before any routing work
        with pytest.raises(ProfileError):
            route_instance(16, [SuperMessage.make(0, 0, [1], [1])],
                           adversary=AdaptiveAdversary(0.3, seed=1),
                           mode=mode)


def matching_adversary():
    return NonAdaptiveAdversary(1 / 128, RoundRobinMatchingStrategy(), seed=2)


#: routings, (mode, n, bandwidth, adversary, slots per node, bits per
#: message, targets per message), and the sha256 of their outputs; the
#: cover-free pins are what the per-bit cover-free executor computed
ROUTING_PINS = {
    "matching": (("coverfree", 128, 8, matching_adversary, 1, 16, 1),
                 "008eeec4b6c17386303909c735dbfc7d"
                 "74a9fe281939dce1a6c913f5e057d1ed"),
    # OutLoad across several targets: 32 batches in 8 rounds
    "fan-out-3": (("coverfree", 128, 8, matching_adversary, 1, 16, 3),
                  "543f2e107a178520b6f5df3b64027778"
                  "c5876b53f5f69879df3266b022b17287"),
    # positions skipped for their loads with nothing dropped
    "fault-free": (("coverfree", 512, 8, NullAdversary, 1, 64, 1),
                   "ce22e118bc275759784f460df3f42e20"
                   "88754df44816a12c0cd74e03e6096ffc"),
    # network drops, some of them declared round-2 erasures
    "erasures": (("coverfree", 128, 8,
                  lambda: IIDEdgeChannel(1 / 64, mode="erase", seed=3), 1,
                  16, 1),
                 "695797cdfc402ef978b11bbf41413967"
                 "92cd313082232643ffd927c6e23a63ce"),
    # 24 one-plane rounds, several slots per source; one delivery is
    # wrong and unflagged, the [8, 1, 5] code's 2e + s = d case
    "one-plane": (("coverfree", 128, 1, matching_adversary, 3, 8, 1),
                  "71ce092eaff45b8aa867f7b995a4eea4"
                  "fd713a14e5ffe110f953816e393c746b"),
    # blocks mode through the serial front end: 12 batches in 4 rounds,
    # two targets per message
    "blocks-adaptive": (("blocks", 64, 8,
                         lambda: AdaptiveAdversary(1 / 32, seed=7), 2, 24,
                         2),
                        "94fbfe8d19c6c304536ed10f323184db"
                        "49fd534e68301801a2c737104e143907"),
    # 864 codeword bits dropped, 556 of them declared round-2 erasures
    "blocks-erasures": (("blocks", 64, 8,
                         lambda: IIDEdgeChannel(1 / 32, mode="erase",
                                                seed=3), 2, 24, 2),
                        "4795c5a2117b01ff98b0f7f968e5cb8e"
                        "bb190833ec62bc71c2f26e267996872b"),
    "blocks-nonadaptive": (("blocks", 64, 8,
                            lambda: NonAdaptiveAdversary(1 / 32, seed=10),
                            2, 24, 2),
                           "d0dd247a5862a5c080fe76f9f7f29bd0"
                           "83cdbf7023bafb223f87aa132ae7ac48"),
}


class TestCoverFreeMode:
    """The paper-faithful relay-set mode needs group sizes >> k/delta, so
    it only becomes comfortable at larger n (README, "Cover-free routing
    runs on the same kernel") — these tests run at n >= 128 where the
    verified construction succeeds."""

    @pytest.mark.parametrize("n", [128, 256, 512])
    def test_fault_free(self, n, rng):
        # relay positions with InLoad or OutLoad > 1 are skipped, and the
        # target must declare them erasures, not read 0 bits: read as 0s
        # they lost messages at n=512
        msgs = [SuperMessage.make(u, 0,
                                  rng.integers(0, 2, 16).astype(np.uint8),
                                  [(u + 1) % n])
                for u in range(n)]
        result, _ = route_instance(n, msgs, mode="coverfree")
        assert result.decode_failures == []
        # nothing was dropped in transit, so nothing counts as erased
        assert result.dropped_entries == result.erased_entries == 0
        for msg in msgs:
            got = result.received(msg.targets[0], msg.source, 0)
            assert np.array_equal(got, np.array(msg.bits, dtype=np.uint8))

    def test_under_matching_adversary(self, rng):
        n = 128
        adv = NonAdaptiveAdversary(1 / n, RoundRobinMatchingStrategy(),
                                   seed=2)
        msgs = [SuperMessage.make(u, 0,
                                  rng.integers(0, 2, 4).astype(np.uint8),
                                  [(u * 7 + 1) % n])
                for u in range(n)]
        result, _ = route_instance(n, msgs, adversary=adv, mode="coverfree")
        correct = sum(
            np.array_equal(result.received(m.targets[0], m.source, 0),
                           np.array(m.bits, dtype=np.uint8))
            for m in msgs)
        assert correct >= int(0.95 * n)

    @pytest.mark.parametrize("case", list(ROUTING_PINS))
    def test_digest_under_matching_adversary(self, case):
        # pins the outputs — relay families, skipped positions declared
        # erasures, adversarial errors and drops — so that any router must
        # reproduce them exactly; the blocks-mode cases run at n=64.  Slot
        # s of node u goes to (7u + 1 + s + 5i) mod n for target i.
        (mode, n, bandwidth, adversary, slots, width, fan), pin = \
            ROUTING_PINS[case]
        bits = np.random.default_rng(11).integers(0, 2, (n, slots, width))
        msgs = [SuperMessage.make(u, s, bits[u, s].astype(np.uint8),
                                  [(7 * u + 1 + s + 5 * i) % n
                                   for i in range(fan)])
                for u in range(n) for s in range(slots)]
        result, net = route_instance(n, msgs, adversary=adversary(),
                                     bandwidth=bandwidth, mode=mode)
        if adversary is matching_adversary:
            assert net.entries_corrupted > 0
        digest = hashlib.sha256()
        for msg in msgs:
            for target in msg.targets:
                digest.update(result.received(target, msg.source,
                                              msg.slot).tobytes())
        # the bits sent count the relay positions the families left unskipped
        digest.update(repr((sorted(result.decode_failures), result.rounds,
                            result.batches, result.dropped_entries,
                            result.erased_entries, net.bits_sent,
                            net.entries_corrupted)).encode())
        assert digest.hexdigest() == pin

    def test_two_trials_are_two_one_trial_routes(self):
        # one family per batch serves every trial, and each trial keeps its
        # own channel stream, so a 2-trial route is two fresh one-trial
        # routes side by side
        n, width, seeds = 128, 16, [5, 6]
        sources, targets = np.arange(n), (7 * np.arange(n) + 1) % n
        bits = np.random.default_rng(4).integers(0, 2, (2, n, width),
                                                 dtype=np.uint8)

        def route(trial_seeds, rows):
            net = BatchedClique(n, len(trial_seeds), bandwidth=8,
                                adversary=BatchedIIDEdgeChannel(
                                    1 / 64, trial_seeds, mode="erase"))
            router = BatchedRouter(net, mode="coverfree")
            return router.route(sources, np.zeros(n), np.full(n, width),
                                targets, rows), net

        both, net = route(seeds, bits)
        assert both.dropped.min() > 0 and both.erased.min() > 0
        for t, seed in enumerate(seeds):
            one, one_net = route([seed], bits[t:t + 1])
            assert (one.rounds, one.batches) == (both.rounds, both.batches)
            for name in ("decoded", "failed", "dropped", "erased"):
                np.testing.assert_array_equal(getattr(both, name)[t],
                                              getattr(one, name)[0])
            assert net.bits_sent[t] == one_net.bits_sent[0]
            assert net.entries_corrupted[t] == one_net.entries_corrupted[0]

    def test_per_trial_ids_rejected(self):
        router = BatchedRouter(BatchedClique(128, 2, bandwidth=8),
                               mode="coverfree")
        bits = np.zeros((2, 2, 4), dtype=np.uint8)
        with pytest.raises(ValueError, match="shared"):
            router.route([[0, 1], [1, 0]], [0, 0], [4, 4], [5, 6], bits)

    def test_invalid_mode(self):
        with pytest.raises(ValueError, match="unknown routing mode"):
            SuperMessageRouter(CongestedClique(8), mode="wat")
        with pytest.raises(ValueError, match="unknown routing mode"):
            BatchedRouter(BatchedClique(8, 2), mode="wat")


class TestBroadcast:
    def test_fault_free(self, rng):
        net = CongestedClique(16, bandwidth=4)
        router = SuperMessageRouter(net)
        payload = rng.integers(0, 2, 12).astype(np.uint8)
        out = broadcast(router, 3, payload)
        assert all(np.array_equal(out[v], payload) for v in range(16))

    def test_under_adversary(self, rng):
        net = CongestedClique(64, bandwidth=4,
                              adversary=AdaptiveAdversary(1 / 32, seed=5))
        router = SuperMessageRouter(net)
        payload = rng.integers(0, 2, 32).astype(np.uint8)
        out = broadcast(router, 0, payload)
        assert all(np.array_equal(out[v], payload) for v in range(64))
        assert (net.rounds_used, net.bits_sent,
                net.entries_corrupted) == (2, 8190, 256)


class TestNodeIds:
    """A source or target outside [0, n), or a target listed twice, is
    refused by name instead of being routed under a wrapped id."""

    @pytest.mark.parametrize("node", [-1, 64])
    @pytest.mark.parametrize("role", ["source", "target"])
    def test_serial_rejects(self, role, node):
        source, target = (node, 5) if role == "source" else (0, node)
        msg = SuperMessage.make(source, 1, [1, 0, 1, 1], [target])
        with pytest.raises(ValueError,
                           match=rf"{role} {node} outside \[0, 64\)"):
            route_instance(64, [msg])

    @pytest.mark.parametrize("node", [-1, 64])
    @pytest.mark.parametrize("role", ["source", "target"])
    @pytest.mark.parametrize("per_trial", [False, True])
    def test_batched_rejects(self, role, node, per_trial):
        router = BatchedRouter(BatchedClique(64, 2, bandwidth=8))
        ids = np.array([[node, 7], [3, 7]]) if per_trial \
            else np.array([node, 7])
        good = np.array([[0, 1], [0, 1]]) if per_trial else np.array([0, 1])
        sources, targets = (ids, good) if role == "source" else (good, ids)
        bits = np.array([[[1, 0, 1, 1]] * 2] * 2, dtype=np.uint8)
        with pytest.raises(ValueError,
                           match=rf"{role} {node} outside \[0, 64\)"):
            router.route(sources, [1, 1], [4, 4], targets, bits)

    def test_repeated_target_rejected(self):
        msg = SuperMessage(source=0, slot=0, bits=(1, 0), targets=(3, 3))
        with pytest.raises(ValueError, match="target 3 twice"):
            route_instance(16, [msg])
