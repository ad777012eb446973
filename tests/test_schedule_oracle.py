"""`SuperMessageRouter._schedule_blocks` must place every chunk exactly as
its set-based oracle `_schedule_blocks_reference` does.

The bitmask scheduler schedules every shared and serial blocks-mode route,
broadcasts included, so the fuzz covers multi-target chunks (target sets of
every size up to all nodes) and runs of consecutive chunks that share one
(source, targets) key.
"""

import numpy as np
import pytest

from repro.core.routing import SuperMessageRouter, _Chunk


def random_chunks(rng, nodes, num_messages, max_run):
    chunks = []
    for slot in range(num_messages):
        source = int(rng.integers(0, nodes))
        fan = int(rng.integers(1, nodes + 1))
        targets = tuple(sorted(rng.choice(nodes, size=fan, replace=False)
                               .tolist()))
        for index in range(int(rng.integers(1, max_run + 1))):
            chunks.append(_Chunk(source=source, slot=slot, index=index,
                                 bits=np.ones(1, dtype=np.uint8),
                                 targets=targets))
    return chunks


def placements(batches):
    return [[(id(chunk), block) for chunk, block in batch]
            for batch in batches]


@pytest.mark.parametrize("seed", range(30))
def test_bitmask_scheduler_matches_reference(seed):
    rng = np.random.default_rng(seed)
    nodes = int(rng.integers(2, 20))
    num_blocks = int(rng.integers(1, 9))
    chunks = random_chunks(rng, nodes, int(rng.integers(1, 40)),
                           max_run=3 * num_blocks)
    got = SuperMessageRouter._schedule_blocks(chunks, num_blocks)
    want = SuperMessageRouter._schedule_blocks_reference(chunks, num_blocks)
    assert placements(got) == placements(want)


def test_broadcasts_and_repeated_keys():
    # two full broadcasts interleaved with single-target runs that share
    # their source: every batch is target-saturated by the broadcasts
    nodes, num_blocks = 6, 3
    everyone = tuple(range(nodes))
    spec = [(0, everyone, 4), (0, (1,), 5), (2, everyone, 2), (0, (1,), 3),
            (3, (1, 4), 7)]
    chunks = [_Chunk(source=src, slot=slot, index=index,
                     bits=np.ones(1, dtype=np.uint8), targets=targets)
              for slot, (src, targets, run) in enumerate(spec)
              for index in range(run)]
    got = SuperMessageRouter._schedule_blocks(chunks, num_blocks)
    want = SuperMessageRouter._schedule_blocks_reference(chunks, num_blocks)
    assert placements(got) == placements(want)
