"""The row wave kernel and its relay-set branch against the per-bit
oracle.

``repro.core.routing.route_waves`` stages every codeword as one row of a
(trial, node, block) view and reads whole rows back;
``repro.perf.reference.route_waves_per_bit`` moves each bit under its own
(trial, sender, receiver) key.  Given each block's own nodes as relay
sets, the kernel's relay-set branch moves each codeword position as its
own one-bit row.  On the same plan and the same deliveries all three must
stage the same rounds and return the same rows, failure flags and drop and
erasure counts — with tail nodes, fan-out, waves whose planes share cells,
the widest round, per-trial node ids and a lossy transport.  On a
fault-free transport both kernel legs also run on the engine, staged and
with its booking hook (nothing staged), and must book, record and trace
the same rounds.  A hand-built plan then checks what only relay sets can
do: positions whose loads exceed 1 stay off the network and are declared
erasures.
"""

import dataclasses

import numpy as np
import pytest

from repro.cliquesim.batched import BatchedClique
from repro.coding.repetition import RepetitionCode
from repro.core import batched_routing
from repro.core.batched_routing import BatchedRouter, broadcast_many
from repro.core.profiles import SIMULATION
from repro.core.routing import WavePlan, plan_waves, route_waves
from repro.obs import tracing
from repro.perf.reference import route_waves_per_bit


def lossy_round(seed, corrupt=0.0, drop=0.0):
    """A ``send_round`` that records every intended stack, then replaces
    a ``corrupt`` share of the sent entries with random words of the
    round's width and drops a ``drop`` share (``-1``)."""
    rng = np.random.default_rng(seed)
    staged = []

    def send(intended, width, label):
        staged.append((intended.copy(), width, label))
        out = np.array(intended, dtype=np.int64)
        sent = out >= 0
        hit = sent & (rng.random(out.shape) < corrupt)
        out[hit] = rng.integers(0, np.int64(1) << width, int(hit.sum()))
        out[sent & (rng.random(out.shape) < drop)] = -1
        return out

    return send, staged


def assert_kernels_agree(n, bandwidth, code, length, plan, bits,
                         corrupt=0.0, drop=0.0, seed=0):
    # the same plan with each block's own nodes as its relay sets
    relay_sets = dataclasses.replace(
        plan, relays=plan.block[:, :, None] * length + np.arange(length))
    results, stages = [], []
    for kernel, kernel_plan in ((route_waves_per_bit, plan),
                                (route_waves, plan),
                                (route_waves, relay_sets)):
        send, staged = lossy_round(seed, corrupt, drop)
        results.append(kernel(send, n, bandwidth, code, length, kernel_plan,
                              bits, "oracle"))
        stages.append(staged)
    per_bit, rows = results[:2]
    for result, staged in zip(results[1:], stages[1:]):
        # the same intended rounds, so the transport saw the same traffic
        assert len(staged) == len(stages[0]) == result.rounds
        for (a, width_a, label_a), (b, width_b, label_b) in zip(staged,
                                                                stages[0]):
            assert (width_a, label_a) == (width_b, label_b)
            assert a.dtype == np.int64 \
                and a.shape == (plan.batch.shape[0], n, n)
            np.testing.assert_array_equal(a, b)
        for name in ("decoded", "failed", "dropped", "erased", "row_pair",
                     "row_start", "row_size", "pair_msg"):
            np.testing.assert_array_equal(getattr(result, name),
                                          getattr(per_bit, name),
                                          err_msg=name)
        assert (result.rounds, result.batches, result.codeword_bits) == \
            (per_bit.rounds, per_bit.batches, per_bit.codeword_bits)
    if corrupt == drop == 0:
        for kernel_plan, result in zip((plan, relay_sets), results[1:]):
            assert_pass_through_agrees(n, bandwidth, code, length,
                                       kernel_plan, bits, result)
    return rows


def engine_run(n, bandwidth, code, length, plan, bits, pass_through,
               keep_history, observed):
    """``route_waves`` on a fault-free engine, staged or through its
    booking hook, and everything the engine booked, recorded and
    traced."""
    net = BatchedClique(n, plan.batch.shape[0], bandwidth=bandwidth,
                        keep_history=keep_history)
    with tracing.trace() as tracer:
        if not observed:
            tracing.uninstall()
        result = route_waves(net.round, n, bandwidth, code, length, plan,
                             bits, "oracle",
                             book=net.book_fault_free if pass_through
                             else None)
    rounds = [[(r.index, r.width, r.bits, r.label, r.corrupted_entries)
               for r in history] for history in net.histories]
    # spans time the code paths, which differ by design
    events = [{k: v for k, v in event.items() if k != "t"}
              for event in tracer.events[1:] if event["kind"] != "span"]
    return result, (net.rounds_used, net.bits_sent, net.entries_corrupted,
                    rounds, events, tracer.snapshot()["counters"])


def assert_pass_through_agrees(n, bandwidth, code, length, plan, bits,
                               expected):
    for keep_history in (False, True):
        for observed in (False, True):
            args = (n, bandwidth, code, length, plan, bits)
            staged, booked_s = engine_run(*args, False, keep_history,
                                          observed)
            passed, booked_p = engine_run(*args, True, keep_history,
                                          observed)
            for name in ("decoded", "failed", "dropped", "erased"):
                np.testing.assert_array_equal(getattr(passed, name),
                                              getattr(expected, name),
                                              err_msg=name)
                np.testing.assert_array_equal(getattr(staged, name),
                                              getattr(expected, name),
                                              err_msg=name)
            assert passed.rounds == staged.rounds == expected.rounds
            assert booked_s[0] == staged.rounds
            for a, b in zip(booked_p, booked_s):
                assert np.array_equal(a, b) if isinstance(a, np.ndarray) \
                    else a == b
            if keep_history:
                assert all(len(h) == staged.rounds for h in booked_s[3])
            if observed:
                assert len(booked_s[4]) == staged.rounds


def random_bits(rng, trials, sizes):
    """Random payloads, random past each message's end as well: neither
    kernel may encode what lies past a message's size."""
    return rng.integers(0, 2, (trials, len(sizes), max(sizes)),
                        dtype=np.uint8)


@pytest.mark.parametrize("n", [20, 36])
@pytest.mark.parametrize("corrupt,drop", [(0.0, 0.0), (0.05, 0.05)])
def test_tail_nodes(n, corrupt, drop):
    # L = 8 leaves 4 nodes past the last relay block: they send and
    # receive, and relay nothing
    length, code = SIMULATION.select_routing_code(n, 0.0)
    assert (length, n % length) == (8, 4)
    rng = np.random.default_rng(n)
    plan = plan_waves(1, n, n // length, code.k, np.arange(n),
                      np.zeros(n, np.int64), rng.integers(1, 20, n),
                      (np.arange(n) * 7 + 3) % n)
    bits = random_bits(rng, 1, plan.sizes.tolist())
    rows = assert_kernels_agree(n, 4, code, length, plan, bits, corrupt,
                                drop)
    if not corrupt:
        assert not rows.failed.any()


@pytest.mark.parametrize("bandwidth", [1, 2, 32, 62])
def test_planes_sharing_cells(bandwidth):
    # node 0 sends one long message to node 1 and every batch uses both
    # of its blocks, so each (source, block) and (target, block) cell has
    # a row in every plane of a wave; 62 planes is the widest round,
    # past the old kernel's 52-plane float guard
    n, length = 16, 8
    code = SIMULATION.routing_code_at_rate(length, 1 / 4)
    sizes = [124 * code.k, 5, 3 * code.k]
    plan = plan_waves(1, n, n // length, code.k, [0, 2, 0], [0, 0, 1],
                      sizes, [1, 3, 1])
    assert plan.num_batches >= 62
    bits = random_bits(np.random.default_rng(bandwidth), 1, sizes)
    for corrupt, drop in ((0.0, 0.0), (0.1, 0.05)):
        rows = assert_kernels_agree(n, bandwidth, code, length, plan, bits,
                                    corrupt, drop, seed=bandwidth)
    assert rows.rounds == 2 * -(-plan.num_batches // bandwidth)


def test_fan_out():
    # one message to several targets expands into a row per target
    n, length = 32, 8
    code = SIMULATION.routing_code_at_rate(length, 1 / 4)
    rng = np.random.default_rng(3)
    sizes = [40, 9, 17]
    plan = plan_waves(2, n, n // length, code.k, [5, 9, 5], [0, 0, 1],
                      sizes, [0, 1, 2, 3, 30, 7, 8, 5, 31],
                      fanout=[4, 1, 4])
    bits = random_bits(rng, 2, sizes)
    assert_kernels_agree(n, 8, code, length, plan, bits)
    assert_kernels_agree(n, 8, code, length, plan, bits, 0.05, 0.05)


def test_broadcast_many_matches_oracle(monkeypatch):
    # the router hands the fault-free engine's booking hook to the row
    # kernel, which then stages nothing; the oracle stages every round
    n, trials = 36, 3
    rng = np.random.default_rng(4)
    payload = rng.integers(0, 2, (trials, 50), dtype=np.uint8)

    def broadcast(kernel):
        monkeypatch.setattr(batched_routing, "route_waves", kernel)
        net = BatchedClique(n, trials=trials, bandwidth=8)
        return broadcast_many(BatchedRouter(net), 3, payload)

    got = broadcast(route_waves)
    np.testing.assert_array_equal(got, broadcast(
        lambda *args, book=None: route_waves_per_bit(*args)))
    np.testing.assert_array_equal(got, np.broadcast_to(payload[:, None],
                                                       got.shape))


def test_per_trial_node_ids():
    # every trial relabels the nodes; the schedule stays lockstep
    n, trials, length = 24, 3, 8
    code = SIMULATION.routing_code_at_rate(length, 1 / 4)
    rng = np.random.default_rng(5)
    sizes = rng.integers(1, 12, n)
    labels = np.stack([rng.permutation(n) for _ in range(trials)])
    plan = plan_waves(trials, n, n // length, code.k, labels,
                      np.zeros(n, np.int64), sizes,
                      labels[:, (np.arange(n) + 5) % n])
    bits = random_bits(rng, trials, sizes.tolist())
    assert_kernels_agree(n, 4, code, length, plan, bits)
    assert_kernels_agree(n, 4, code, length, plan, bits, 0.05, 0.1)


@pytest.mark.parametrize("make_code", [
    lambda: SIMULATION.routing_code_at_rate(8, 1 / 4),
    lambda: RepetitionCode(2, 4),
], ids=["erasure-aware", "plain"])
def test_lossy_transport(make_code):
    # drops in round 2 are declared erasures only to an erasure-aware code;
    # both kernels count them the same way
    code = make_code()
    n, length = 20, 8
    nodes = np.arange(n)
    plan = plan_waves(2, n, n // length, code.k, nodes, np.zeros(n, np.int64),
                      np.full(n, 9), (nodes + 1) % n)
    bits = random_bits(np.random.default_rng(6), 2, plan.sizes.tolist())
    rows = assert_kernels_agree(n, 8, code, length, plan, bits, 0.1, 0.2)
    assert rows.dropped.all()
    if code.supports_erasures:
        assert (rows.erased > 0).all()
    else:
        assert not rows.erased.any()


class ErasureSpy:
    """A code that records the erasure masks its decoder is given."""

    def __init__(self, code):
        self.code = code
        self.erasures = []

    def __getattr__(self, name):
        return getattr(self.code, name)

    def decode_many_flagged(self, words, erasures=None):
        self.erasures.append(erasures)
        if erasures is None:
            return self.code.decode_many_flagged(words)
        return self.code.decode_many_flagged(words, erasures=erasures)


def test_relay_set_loads():
    # one batch of three chunks: chunks 0 and 1 share the (source 0,
    # relay 3) pair (InLoad 2); the (chunk 0, target 5) and (chunk 2,
    # target 5) rows share the (relay 6, target 5) pair, and the (relay 3,
    # target 5) pair with chunk 0's position that never went out (OutLoad
    # 2 both)
    n, length = 16, 8
    code = ErasureSpy(SIMULATION.routing_code_at_rate(length, 1 / 4))
    assert code.supports_erasures
    relays = np.array([[0, 1, 2, 3, 4, 5, 6, 7],
                       [3, 8, 9, 10, 11, 12, 13, 14],
                       [6, 3, 10, 11, 12, 13, 14, 15]])
    plan = WavePlan(chunk_msg=np.arange(3), chunk_start=np.zeros(3, np.int64),
                    chunk_size=np.full(3, code.k), sizes=np.full(3, code.k),
                    fanout=np.ones(3, np.int64), sources=np.array([[0, 0, 1]]),
                    targets=np.array([[5, 6, 5]]),
                    batch=np.zeros((1, 3), np.int64), block=np.arange(3)[None],
                    num_batches=1, relays=relays[None])
    bits = np.random.default_rng(7).integers(0, 2, (1, 3, code.k),
                                             dtype=np.uint8)
    staged = []

    def send(intended, width, label):
        # the network drops chunk 2's position 2 on its way to relay 10,
        # and chunk 0's position 1 on its way from relay 1 to target 5
        staged.append(intended.copy())
        out = intended.copy()
        out[0, 1, 10 if label.endswith("r1") else 5] = -1
        return out

    result = route_waves(send, n, 1, code, length, plan, bits, "loads")
    round1, round2 = (intended[0] for intended in staged)
    # overloaded positions never reach the network
    assert round1[0, 3] == -1
    assert round2[3, 5] == round2[3, 6] == round2[6, 5] == -1
    # a position at InLoad 1 goes out even when its OutLoad is 2
    assert min(round1[0, 6], round1[1, 6], round1[1, 3]) >= 0
    assert (round1 >= 0).sum() == 3 * length - 2
    assert (round2 >= 0).sum() == 3 * length - 5
    # skipped positions and the round-2 drop are declared erasures; the
    # counters see the two network drops, and one of them as an erasure
    (declared,) = code.erasures
    expect = np.zeros((3, length), dtype=bool)
    expect[0, [1, 3, 6]] = expect[1, 0] = expect[2, [0, 1]] = True
    np.testing.assert_array_equal(declared, expect)
    assert (result.dropped.tolist(), result.erased.tolist()) == ([2], [1])
    assert not result.failed.any()
    np.testing.assert_array_equal(result.message_bits(), bits)
