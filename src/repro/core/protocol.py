"""Protocol base class and message-block packing helpers.

``M°(A, B)`` (Equation 1 of the paper) is the concatenation of the messages
``{m_{u,v} : u in A, v in B}`` in increasing order of message id
``id(u) ◦ id(v)`` — i.e. source-major, then target — with each message
contributing ``width`` little-endian bits.
"""

from __future__ import annotations

from typing import Dict, List, Sequence

import numpy as np

from repro.cliquesim.batched import BatchedClique
from repro.cliquesim.network import CongestedClique, _serial
from repro.core.messages import AllToAllInstance
from repro.utils.bits import pack_bits, pack_symbols, unpack_bits, unpack_symbols


class AllToAllProtocol:
    """A protocol solving AllToAllComm (Definition 1) on a given network.

    A protocol runs lockstep trials with :meth:`run_many`, and a serial
    :meth:`run` is its batch of one.  Protocols without a batched body
    override :meth:`run` instead."""

    #: short name used by the registry and the benchmark tables
    name: str = "abstract"

    #: per-trial records of the last :meth:`run_many` by attribute name,
    #: e.g. ``trial_records["diagnostics"][t]``; :meth:`run` exposes
    #: trial 0's under that name
    trial_records: Dict[str, List] = {}

    def run_many(self, instances: Sequence[AllToAllInstance],
                 net: BatchedClique, seeds: Sequence[int]) -> np.ndarray:
        """Execute trial ``t``'s instance with seed ``seeds[t]`` in trial
        ``t`` of ``net`` and return the ``(trials, n, n)`` belief stack."""
        raise NotImplementedError(
            f"{type(self).__name__} runs one trial at a time")

    def run(self, instance: AllToAllInstance, net: CongestedClique,
            seed: int = 0) -> np.ndarray:
        """Execute on ``net`` and return the belief matrix ``O`` with
        ``O[u, v]`` = node v's conclusion about ``m_{u,v}`` (-1 = none).

        This is :meth:`run_many` on ``net``'s one-trial engine; an
        exception of the serial adversary reaches the caller as itself."""
        beliefs = _serial(self.run_many, [instance], net.engine, [seed])[0]
        for name, per_trial in self.trial_records.items():
            setattr(self, name, per_trial[0])
        return beliefs


def common_shape(instances: Sequence[AllToAllInstance], net: BatchedClique,
                 seeds: Sequence[int]):
    """``(n, width)`` of a batch, checked against ``net`` and the seeds."""
    if not instances:
        raise ValueError("need at least one instance")
    n = instances[0].n
    width = instances[0].width
    if any(inst.n != n or inst.width != width for inst in instances):
        raise ValueError("batched trials must share n and width")
    if len(instances) != net.trials or len(seeds) != net.trials:
        raise ValueError(
            f"expected {net.trials} instances and seeds, got "
            f"{len(instances)} and {len(seeds)}")
    return n, width


def pack_block(values: np.ndarray, width: int) -> np.ndarray:
    """Pack an integer array (any shape, id-ordered when flattened row-major)
    into a flat bit array, ``width`` little-endian bits per entry.

    Internally stages through the packed word-plane representation
    (:func:`repro.utils.bits.pack_symbols`), so no ``(count, width)``
    bit-expansion tensor is ever materialised.
    """
    flat = np.asarray(values, dtype=np.int64).reshape(-1)
    if flat.size == 0:
        return np.zeros(0, dtype=np.uint8)
    if flat.min() < 0 or int(flat.max()) >> width:
        raise ValueError(f"values do not fit in {width} bits")
    if width == 0:
        return np.zeros(0, dtype=np.uint8)
    return unpack_bits(pack_symbols(flat, width), flat.size * width)


def unpack_block(bits: np.ndarray, count: int, width: int) -> np.ndarray:
    """Inverse of :func:`pack_block`: ``count`` integers of ``width`` bits."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.size != count * width:
        raise ValueError(f"expected {count * width} bits, got {bits.size}")
    if count == 0 or width == 0:
        return np.zeros(count, dtype=np.int64)
    return unpack_symbols(pack_bits(bits.reshape(-1)), count, width)


def pack_rows(values: np.ndarray, width: int) -> np.ndarray:
    """Row-batched :func:`pack_block`: a ``(rows, count)`` integer matrix
    becomes ``(rows, count * width)`` bits, each row packed independently."""
    vals = np.asarray(values, dtype=np.int64)
    if vals.ndim != 2:
        raise ValueError(f"expected a 2-d value matrix, got {vals.shape}")
    if vals.size and (vals.min() < 0 or int(vals.max()) >> width):
        raise ValueError(f"values do not fit in {width} bits")
    if vals.size == 0 or width == 0:
        return np.zeros((vals.shape[0], vals.shape[1] * width),
                        dtype=np.uint8)
    return unpack_bits(pack_symbols(vals, width), vals.shape[1] * width)


def unpack_rows(bits: np.ndarray, count: int, width: int) -> np.ndarray:
    """Row-batched :func:`unpack_block`: ``(rows, count * width)`` bits back
    into a ``(rows, count)`` integer matrix — one pack + strided symbol
    extraction for the whole stack instead of one call per row."""
    bits = np.asarray(bits, dtype=np.uint8)
    if bits.ndim != 2 or bits.shape[1] != count * width:
        raise ValueError(
            f"expected shape (*, {count * width}), got {bits.shape}")
    if count == 0 or width == 0:
        return np.zeros((bits.shape[0], count), dtype=np.int64)
    return unpack_symbols(pack_bits(bits), count, width)
