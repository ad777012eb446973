"""Fault-free waves stage nothing, and blocks-mode ones code nothing.

On an engine that delivers as sent — the fault-free clique without full
history — ``BatchedRouter.route`` hands ``route_waves`` the engine's
booking hook, so every wave books its two rounds and passes its rows
through.  A blocks-mode wave then moves each chunk's payload piece in
place of its codeword and takes it as the decoded row, which holds
because every routing code decodes its own codewords back to their
messages, unflagged; the first test checks that for every code a route
can pick.  Losing either fast path would only cost speed, so these tests
make it fail instead: with staging, the engine's ``round`` and the routing
codecs made to raise, every fault-free blocks-mode routing must still
complete correctly, while an engine recording full history must still
stage.  A cover-free route keeps its codec, since positions its loads
hold back reach the target as declared erasures.  The engine's guards
hold on the pass-through as on a staged round.
"""

import numpy as np
import pytest

from repro.cliquesim import BatchedClique, CongestedClique
from repro.cliquesim.batched import BandwidthViolation
from repro.coding.justesen import ConcatenatedCode, PaddedCode
from repro.coding.linear import LinearBlockCode, best_effort_linear_code
from repro.core import routing
from repro.core.alltoall import make_protocol, run_protocol
from repro.core.batched_routing import BatchedRouter, broadcast_many
from repro.core.messages import AllToAllInstance, verify_beliefs
from repro.core.profiles import SIMULATION
from repro.core.routing import SuperMessage, SuperMessageRouter, plan_waves
from repro.core.vmapped import run_protocol_many


def routing_codes():
    """Every code ``routing_code_at_rate`` returns at the lengths and rates
    ``select_routing_code`` tries for n in {16, ..., 1024}, and the
    nonadaptive protocol's ``[32, width]`` codes for widths up to a
    byte."""
    codes = {}
    for n in (16, 32, 64, 128, 256, 1024):
        for length in {max(8, n // 16), max(8, n // 8), max(8, n // 4),
                       max(8, n // 2), n}:
            for rate in (SIMULATION.code_rate, SIMULATION.code_rate / 2,
                         SIMULATION.code_rate / 4):
                try:
                    codes[f"L{length}-rate{rate}"] = \
                        SIMULATION.routing_code_at_rate(length, rate)
                except ValueError:
                    continue
    for width in range(1, 9):
        codes[f"nonadaptive-width{width}"] = best_effort_linear_code(
            width, 32, seed=SIMULATION.construction_seed)
    return codes


ROUTING_CODES = routing_codes()


@pytest.mark.parametrize("name", sorted(ROUTING_CODES))
def test_codewords_decode_to_their_messages(name):
    code = ROUTING_CODES[name]
    k = code.k
    if k <= 14:
        messages = ((np.arange(1 << k)[:, None] >> np.arange(k)) & 1) \
            .astype(np.uint8)
    else:
        messages = np.random.default_rng(k).integers(0, 2, (4096, k),
                                                     dtype=np.uint8)
    decoded, failed = code.decode_many_flagged(code.encode_many(messages))
    np.testing.assert_array_equal(decoded, messages)
    assert not np.asarray(failed).any()


@pytest.fixture
def no_staging(monkeypatch):
    """Make staging a round, reading one back and running an engine
    round raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a fault-free wave staged a round")

    monkeypatch.setattr(routing, "_stage", refuse)
    monkeypatch.setattr(routing, "_take", refuse)
    monkeypatch.setattr(BatchedClique, "round", refuse)


@pytest.fixture
def no_codec(monkeypatch):
    """Make the routing codes' batched encode and decode raise."""
    def refuse(*args, **kwargs):
        raise AssertionError("a fault-free blocks-mode wave ran the codec")

    for cls in (LinearBlockCode, ConcatenatedCode, PaddedCode):
        monkeypatch.setattr(cls, "encode_many", refuse)
        monkeypatch.setattr(cls, "decode_many_flagged", refuse)


def test_det_logn_batched_stages_nothing(no_staging, no_codec):
    instances = [AllToAllInstance.random(64, width=2, seed=s)
                 for s in (1, 2)]
    reports = run_protocol_many(make_protocol("det-logn"), instances,
                                bandwidth=8, seeds=[1, 2])
    assert [r.accuracy for r in reports] == [1.0, 1.0]


def test_det_logn_serial_with_history_stages_nothing(no_staging, no_codec):
    # run_protocol's CongestedClique keeps a per-round history
    report = run_protocol(make_protocol("det-logn"),
                          AllToAllInstance.random(64, width=2, seed=3),
                          bandwidth=8, seed=1)
    assert report.accuracy == 1.0 and report.rounds > 0


def test_coverfree_route_stages_nothing(no_staging):
    n = 128
    router = SuperMessageRouter(CongestedClique(n, bandwidth=16),
                                mode="coverfree")
    rng = np.random.default_rng(11)
    messages = [SuperMessage.make(u, 0, rng.integers(0, 2, 64),
                                  [(7 * u + 1) % n]) for u in range(n)]
    result = router.route(messages)
    assert not result.decode_failures and result.rounds > 0
    for msg in messages:
        np.testing.assert_array_equal(
            result.received(msg.targets[0], msg.source), msg.bits)


def test_broadcast_many_stages_nothing(no_staging, no_codec):
    payload = np.random.default_rng(12).integers(0, 2, (3, 40),
                                                 dtype=np.uint8)
    got = broadcast_many(BatchedRouter(BatchedClique(36, 3, bandwidth=8)),
                         5, payload)
    np.testing.assert_array_equal(got, np.broadcast_to(payload[:, None],
                                                       got.shape))


def test_full_history_engine_still_stages(monkeypatch):
    staged = []
    stage = routing._stage

    def counting(*args, **kwargs):
        staged.append(True)
        return stage(*args, **kwargs)

    monkeypatch.setattr(routing, "_stage", counting)
    instance = AllToAllInstance.random(64, width=2, seed=7)
    net = CongestedClique(64, bandwidth=8, record_full_history=True)
    beliefs = make_protocol("det-logn").run(instance, net, seed=1)
    assert verify_beliefs(instance, beliefs) == 64 * 64
    # every round of the run is a staged wave round
    assert len(staged) == net.rounds_used > 0
    assert all(r.intended is not None for r in net.history)


def _one_wave(n=32, trials=2):
    length, code = SIMULATION.select_routing_code(n, 0.0)
    plan = plan_waves(trials, n, n // length, code.k, np.arange(n),
                      np.zeros(n, np.int64), np.full(n, 12 * code.k),
                      (np.arange(n) + 1) % n)
    bits = np.random.default_rng(13).integers(
        0, 2, (trials, n, 12 * code.k), dtype=np.uint8)
    return length, code, plan, bits


def test_pass_through_after_ragged_exchange_raises():
    n, trials = 32, 2
    net = BatchedClique(n, trials, bandwidth=4)
    words = np.zeros((trials, n, n, 1), dtype=np.uint64)
    net.exchange_words_ragged(words, np.ones((trials, n, n), dtype=bool),
                              np.array([3, 9]))
    assert net.delivers_as_sent()
    length, code, plan, bits = _one_wave(n, trials)
    with pytest.raises(RuntimeError, match="ragged"):
        routing.route_waves(net.round, n, net.bandwidth, code, length, plan,
                            bits, "late", book=net.book_fault_free)


def test_pass_through_wider_than_bandwidth_raises():
    n, trials = 32, 2
    net = BatchedClique(n, trials, bandwidth=2)
    length, code, plan, bits = _one_wave(n, trials)
    assert plan.num_batches > net.bandwidth
    with pytest.raises(BandwidthViolation):
        routing.route_waves(net.round, n, plan.num_batches, code, length,
                            plan, bits, "wide", book=net.book_fault_free)
    assert net.rounds_used == 0
