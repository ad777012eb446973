"""Single-target runs of `_grouped_greedy` against the set-based oracle.

Every chunk must land in exactly the (batch, block) the chunk-at-a-time
greedy in `repro.perf.reference` gives it — that is what makes a route's
placements independent of which front end, serial or batched, built its
plan.  This fuzz pins the contract over random single-target workloads
with long runs, including repeated keys and sources whose first batches
fill up; `tests/test_schedule_oracle.py` covers multi-target runs.
"""

import numpy as np
import pytest

from repro.core.routing import _grouped_greedy
from repro.perf.reference import schedule_runs_reference


def assert_matches_oracle(srcs, tgts, counts, num_blocks):
    fanout = np.ones(len(srcs), dtype=np.int64)
    got = _grouped_greedy(srcs, tgts, counts, num_blocks, fanout)
    want = schedule_runs_reference(srcs, tgts, counts, num_blocks, fanout)
    np.testing.assert_array_equal(got[0], want[0])
    np.testing.assert_array_equal(got[1], want[1])
    assert got[2] == want[2]


@pytest.mark.parametrize("seed", range(20))
def test_grouped_greedy_matches_serial_scheduler(seed):
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(4, 24))
    num_messages = int(rng.integers(1, 60))
    num_blocks = int(rng.integers(1, 9))
    assert_matches_oracle(rng.integers(0, nodes, size=num_messages),
                          rng.integers(0, nodes, size=num_messages),
                          rng.integers(1, 6 * num_blocks, size=num_messages),
                          num_blocks)


def test_repeated_key_runs_share_batches():
    # consecutive messages of one (source, target) key take the clear
    # bits their predecessors left in a partly filled batch
    assert_matches_oracle(np.array([0, 0, 0, 1, 0]), np.array([2, 2, 2, 2, 2]),
                          np.array([5, 3, 7, 2, 4]), 4)


def test_empty_schedule():
    empty = np.zeros(0, dtype=np.int64)
    batch, block, num_batches = _grouped_greedy(empty, empty, empty, 4,
                                                empty)
    assert len(batch) == 0 and len(block) == 0 and num_batches == 0
