"""Content-addressed shard layout for a campaign's pending trials.

A *shard* is a deterministic slice of a campaign's pending trials: trial
``t`` lands in bucket ``int(t.content_hash(), 16) % num_shards``
(:meth:`~repro.experiments.spec.TrialSpec.shard_of`), so every process —
the dispatcher, N local workers, or workers on other hosts pointed at the
same directory — computes the identical partition from the manifest alone.
The shard's own id is a digest of its member trial hashes, which makes the
layout content-addressed end to end: re-creating a layout over the same
pending set reproduces the same shard ids, so done-markers and partial
shard stores from a previous (crashed) dispatch keep their meaning.

On-disk layout, next to a campaign store ``runs/x.jsonl``::

    runs/x.jsonl.shards/
        manifest.json            # campaign name + per-shard trial dicts
        shard-<id>.jsonl         # per-shard TrialStore (append-only rows)
        shard-<id>.lease         # live claim (see repro.sched.lease)
        shard-<id>.done          # completion marker

Shard stores inherit :class:`~repro.experiments.store.TrialStore`'s
concurrent-writer safety.  In the lease-break race two workers briefly
share a shard store, and the second one opens (loads) it while the first
is appending.  Two guarantees keep that race harmless.  Every row is one
``os.write`` to an ``O_APPEND`` descriptor, so two appenders never tear
or interleave each other's lines.  And appends hold a shared ``flock``
that the load's exclusive one waits out, so the load never truncates a
row in flight as if it were a torn tail.  The race therefore leaves whole
duplicate lines with identical payloads, which the merge compactor folds
away.  Without the lock, that truncation could delete the row in flight
and every row appended after the load's read.
"""

from __future__ import annotations

import hashlib
import json
import os
import time
from dataclasses import dataclass, field
from typing import Dict, List, Optional, Sequence

from repro.experiments.spec import TrialSpec
from repro.sched import lease as lease_proto

#: directory suffix tying a shard layout to its campaign store
SHARD_DIR_SUFFIX = ".shards"

MANIFEST_NAME = "manifest.json"

#: row fields that legitimately differ between two executions of the same
#: trial (timing, retry bookkeeping, instrumentation); everything else —
#: status, outcome counters, reasons — must be bit-identical across
#: backends, which is what :func:`row_digest` certifies
VOLATILE_ROW_FIELDS = frozenset(
    {"wall_seconds", "recorded_unix", "attempts", "fallback", "metrics",
     "traceback"})


def row_digest(row: Dict) -> str:
    """Digest of a result row's *deterministic* payload.

    Strips the volatile fields (wall clock, retries, metrics snapshots)
    and hashes the canonical JSON of the rest.  Two backends agree on a
    trial iff their rows have equal digests — the currency of the
    serial/sharded parity checks in CI and the tests.
    """
    clean = {k: v for k, v in row.items() if k not in VOLATILE_ROW_FIELDS}
    blob = json.dumps(clean, sort_keys=True, separators=(",", ":"))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:24]


def shard_dir_for(store_path: str) -> str:
    """The shard directory belonging to a campaign store path."""
    return store_path + SHARD_DIR_SUFFIX


def _shard_id(trial_hashes: Sequence[str]) -> str:
    blob = "shard:" + ",".join(sorted(trial_hashes))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()[:12]


@dataclass(frozen=True)
class Shard:
    """One slice of pending trials (content-addressed by its members)."""

    shard_id: str
    trials: List[Dict] = field(default_factory=list)

    @property
    def hashes(self) -> List[str]:
        return [TrialSpec.from_dict(d).content_hash() for d in self.trials]

    def __len__(self) -> int:
        return len(self.trials)


def partition(trials: Sequence[TrialSpec], num_shards: int) -> List[Shard]:
    """Deterministic hash partition of ``trials`` into at most
    ``num_shards`` non-empty shards (order follows bucket index, so the
    layout is reproducible from any permutation of the same trial set)."""
    if num_shards < 1:
        raise ValueError("num_shards must be at least 1")
    buckets: List[List[TrialSpec]] = [[] for _ in range(num_shards)]
    for trial in trials:
        buckets[trial.shard_of(num_shards)].append(trial)
    shards = []
    for bucket in buckets:
        if not bucket:
            continue
        dicts = [t.to_dict() for t in bucket]
        shards.append(Shard(shard_id=_shard_id([t.content_hash()
                                                for t in bucket]),
                            trials=dicts))
    return shards


class ShardLayout:
    """The manifest + file naming scheme of one sharded dispatch."""

    def __init__(self, directory: str, campaign: str, shards: List[Shard],
                 created_unix: float = 0.0):
        self.directory = directory
        self.campaign = campaign
        self.shards = shards
        self.created_unix = created_unix
        self._by_id = {s.shard_id: s for s in shards}

    # -- construction --------------------------------------------------------
    @classmethod
    def create(cls, directory: str, campaign: str,
               trials: Sequence[TrialSpec], num_shards: int) -> "ShardLayout":
        """Partition ``trials`` and write the manifest (atomically — a
        worker on another host either sees the whole manifest or none).
        An existing manifest is overwritten: shard ids are content-derived,
        so shards whose membership did not change keep their stores and
        done-markers."""
        shards = partition(trials, num_shards)
        layout = cls(directory, campaign, shards, created_unix=time.time())
        os.makedirs(directory, exist_ok=True)
        manifest = {
            "version": 1,
            "campaign": campaign,
            "created_unix": round(layout.created_unix, 6),
            "num_shards": len(shards),
            "shards": [{"id": s.shard_id, "trials": s.trials}
                       for s in shards],
        }
        tmp = os.path.join(directory, f"{MANIFEST_NAME}.tmp.{os.getpid()}")
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump(manifest, fh, sort_keys=True)
        os.replace(tmp, os.path.join(directory, MANIFEST_NAME))
        return layout

    @classmethod
    def load(cls, directory: str) -> "ShardLayout":
        path = os.path.join(directory, MANIFEST_NAME)
        with open(path, "r", encoding="utf-8") as fh:
            manifest = json.load(fh)
        shards = [Shard(shard_id=entry["id"], trials=entry["trials"])
                  for entry in manifest["shards"]]
        return cls(directory, manifest.get("campaign", "?"), shards,
                   created_unix=float(manifest.get("created_unix", 0.0)))

    # -- file naming ---------------------------------------------------------
    def store_path(self, shard: Shard) -> str:
        return os.path.join(self.directory, f"shard-{shard.shard_id}.jsonl")

    def lease_path(self, shard: Shard) -> str:
        return os.path.join(self.directory, f"shard-{shard.shard_id}.lease")

    def done_path(self, shard: Shard) -> str:
        return os.path.join(self.directory, f"shard-{shard.shard_id}.done")

    def shard_store_paths(self) -> List[str]:
        """Every shard store in the directory — including leftovers from a
        previous layout over a different pending set (their rows are still
        valid results; the merge compactor dedupes by trial hash)."""
        try:
            names = sorted(os.listdir(self.directory))
        except FileNotFoundError:
            return []
        return [os.path.join(self.directory, name) for name in names
                if name.startswith("shard-") and name.endswith(".jsonl")]

    # -- state ---------------------------------------------------------------
    def is_done(self, shard: Shard) -> bool:
        return os.path.exists(self.done_path(shard))

    def mark_done(self, shard: Shard, owner: str) -> None:
        """Completion marker (atomic create-or-replace; records who
        finished the shard and when, for post-mortems)."""
        tmp = f"{self.done_path(shard)}.tmp.{os.getpid()}"
        with open(tmp, "w", encoding="utf-8") as fh:
            json.dump({"owner": owner, "done_unix": round(time.time(), 6),
                       "trials": len(shard)}, fh)
        os.replace(tmp, self.done_path(shard))

    def all_done(self) -> bool:
        return all(self.is_done(s) for s in self.shards)

    def states(self) -> List[Dict]:
        """One status dict per shard: ``done`` / ``leased`` / ``pending``
        (+ owner/pid/expired for leased shards) — the ops view behind
        ``repro sched status`` and the shard-aware watch."""
        out = []
        for shard in self.shards:
            entry: Dict = {"id": shard.shard_id, "trials": len(shard)}
            if self.is_done(shard):
                entry["state"] = "done"
            else:
                info = lease_proto.read_lease(self.lease_path(shard))
                if info is None:
                    entry["state"] = "pending"
                else:
                    entry["state"] = "leased"
                    entry["owner"] = info.owner
                    entry["pid"] = info.pid
                    entry["expired"] = info.expired()
            out.append(entry)
        return out

    def find(self, shard_id: str) -> Optional[Shard]:
        return self._by_id.get(shard_id)

    def __repr__(self) -> str:
        done = sum(1 for s in self.shards if self.is_done(s))
        return (f"ShardLayout({self.directory!r}, campaign="
                f"{self.campaign!r}, shards={len(self.shards)}, "
                f"done={done})")
