"""The row wave kernel against its per-bit oracle.

``repro.core.routing.route_waves`` stages every codeword as one row of a
(trial, node, block) view and reads whole rows back;
``repro.perf.reference.route_waves_per_bit`` moves each bit under its own
(trial, sender, receiver) key.  On the same plan and the same deliveries
they must stage the same rounds and return the same rows, failure flags and
drop and erasure counts — with tail nodes, fan-out, waves whose planes
share cells, the widest round, per-trial node ids and a lossy transport.
"""

import numpy as np
import pytest

from repro.cliquesim.batched import BatchedClique
from repro.coding.repetition import RepetitionCode
from repro.core import batched_routing
from repro.core.batched_routing import BatchedRouter, broadcast_many
from repro.core.profiles import SIMULATION
from repro.core.routing import plan_waves, route_waves
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
    results, stages = [], []
    for kernel in (route_waves, route_waves_per_bit):
        send, staged = lossy_round(seed, corrupt, drop)
        results.append(kernel(send, n, bandwidth, code, length, plan, bits,
                              "oracle"))
        stages.append(staged)
    rows, per_bit = results
    # the same intended rounds, so the transport saw the same traffic
    assert len(stages[0]) == len(stages[1]) == rows.rounds
    for (a, width_a, label_a), (b, width_b, label_b) in zip(*stages):
        assert (width_a, label_a) == (width_b, label_b)
        assert a.dtype == np.int64 and a.shape == (plan.batch.shape[0], n, n)
        np.testing.assert_array_equal(a, b)
    for name in ("decoded", "failed", "dropped", "erased", "row_pair",
                 "row_start", "row_size", "pair_msg"):
        np.testing.assert_array_equal(getattr(rows, name),
                                      getattr(per_bit, name), err_msg=name)
    assert (rows.rounds, rows.batches, rows.codeword_bits) == \
        (per_bit.rounds, per_bit.batches, per_bit.codeword_bits)
    return rows


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
    n, trials = 36, 3
    rng = np.random.default_rng(4)
    payload = rng.integers(0, 2, (trials, 50), dtype=np.uint8)

    def broadcast(kernel):
        monkeypatch.setattr(batched_routing, "route_waves", kernel)
        net = BatchedClique(n, trials=trials, bandwidth=8)
        return broadcast_many(BatchedRouter(net), 3, payload)

    got = broadcast(route_waves)
    np.testing.assert_array_equal(got, broadcast(route_waves_per_bit))
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
