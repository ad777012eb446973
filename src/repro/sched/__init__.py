"""``repro.sched`` — the campaign service layer.

Turns one-shot campaign scripts into long-lived, shardable, multi-worker
(and multi-host) dispatch:

* :mod:`~repro.sched.backend` — the :class:`~repro.sched.backend.Backend`
  protocol + registry unifying the ``serial`` / ``vmap`` / ``sharded``
  execution paths behind one interface;
* :mod:`~repro.sched.shards` — content-addressed partitioning of pending
  trials into per-shard JSONL stores next to the campaign store;
* :mod:`~repro.sched.lease` — the crash-tolerant file lease/heartbeat
  claim protocol (expired leases are reclaimed, so a SIGKILLed worker's
  shard is re-run by a survivor);
* :mod:`~repro.sched.worker` — the claim→run→done worker loop, spawned
  locally by the dispatcher or started on any host via
  ``repro sched work --shards DIR``; it runs each shard's cells batched;
* :mod:`~repro.sched.dispatcher` — the ``sharded`` campaign backend and
  the local fleet behind ``jobs > 1``: spawn ``jobs`` workers, merge each
  shard's rows back as its done-marker appears;
* :mod:`~repro.sched.merge` — store merging/compaction with
  duplicate-hash precedence (``repro store merge``).

Correctness model: shard stores are append-only JSONL with
content-addressed, deterministically-seeded rows, so every race the file
protocol tolerates (lease-break double-runs, torn fleets, repeated
merges) resolves to byte-identical payloads folded by precedence — the
leases avoid duplicated *work*; idempotence provides the safety.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "backend": ("Backend", "CampaignRun", "SHARDS_PER_WORKER", "backend_names",
                "get_backend", "register_backend"),
    "lease": ("DEFAULT_TTL_SECONDS", "LeaseInfo", "acquire", "heartbeat",
              "read_lease", "release"),
    "merge": ("MergeReport", "discover_shard_sources", "merge_rows",
              "merge_stores", "prefer"),
    "shards": ("Shard", "ShardLayout", "partition", "row_digest",
               "shard_dir_for"),
    "worker": ("WorkerStats", "work"),
})
