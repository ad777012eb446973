"""The blocks-mode scheduler `_grouped_greedy` must place every chunk
exactly as the set-based chunk-at-a-time oracle in `repro.perf.reference`.

`_grouped_greedy` schedules every blocks-mode route, serial and batched,
broadcasts included, so the fuzz covers multi-target runs (target sets of
every size up to all nodes), consecutive messages that share one (source,
targets) key, runs longer than 4 * num_blocks (several batches' worth of
clear bits) and up to 17 blocks, the most `select_routing_code` yields
(n=143, L=8).
"""

import numpy as np
import pytest

from repro.core.routing import _grouped_greedy
from repro.perf.reference import schedule_runs_reference


def random_runs(rng, nodes, num_messages, max_run):
    """Sources, flat targets, chunk counts and fanouts of a random
    instance; about a third of the messages repeat their predecessor's
    (source, targets) key."""
    srcs, tgts, counts, fanout = [], [], [], []
    targets = []
    for m in range(num_messages):
        if not m or rng.random() >= 0.35:
            source = int(rng.integers(0, nodes))
            fan = int(rng.integers(1, nodes + 1))
            targets = sorted(rng.choice(nodes, size=fan,
                                        replace=False).tolist())
        srcs.append(source)
        tgts.extend(targets)
        counts.append(int(rng.integers(1, max_run + 1)))
        fanout.append(len(targets))
    return (np.array(srcs), np.array(tgts), np.array(counts),
            np.array(fanout))


def assert_matches_oracle(srcs, tgts, counts, num_blocks, fanout):
    got = _grouped_greedy(srcs, tgts, counts, num_blocks, fanout)
    want = schedule_runs_reference(srcs, tgts, counts, num_blocks, fanout)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


@pytest.mark.parametrize("seed", range(30))
def test_bitmask_scheduler_matches_reference(seed):
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(2, 20))
    num_blocks = int(rng.integers(1, 18))
    srcs, tgts, counts, fanout = random_runs(
        rng, nodes, int(rng.integers(1, 40)), max_run=6 * num_blocks)
    assert_matches_oracle(srcs, tgts, counts, num_blocks, fanout)


def test_broadcasts_and_repeated_keys():
    # two full broadcasts interleaved with single-target runs that share
    # their source: every batch is target-saturated by the broadcasts
    nodes, num_blocks = 6, 3
    everyone = tuple(range(nodes))
    spec = [(0, everyone, 4), (0, (1,), 5), (2, everyone, 2), (0, (1,), 3),
            (3, (1, 4), 7), (3, (1, 4), 13)]
    assert_matches_oracle(
        np.array([src for src, _, _ in spec]),
        np.array([t for _, targets, _ in spec for t in targets]),
        np.array([run for _, _, run in spec]), num_blocks,
        np.array([len(targets) for _, targets, _ in spec]))
