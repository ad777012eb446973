"""Content-addressed JSONL artifact store for trial results.

One line per completed trial::

    {"hash": "...", "trial": {...}, "status": "ok", "rounds": 12, ...}

The key is :meth:`TrialSpec.content_hash` — a digest of the trial's full
coordinate tuple (protocol, adversary, n, alpha, width, bandwidth,
replicate, base_seed).  Because the key is content-derived:

* re-running a campaign against the same store is *transparent caching* —
  completed trials are served from disk, only missing ones execute;
* two campaigns that share cells share work;
* a store can be concatenated from shards (last write wins on duplicates).

Crash tolerance: every append is a *single* ``os.write`` to an
``O_APPEND`` descriptor, so a row is either fully on disk or absent — a
killed campaign loses at most the trials in flight.  If a worker was
killed mid-write anyway (e.g. a partial line from a pre-hardening store,
or a torn page after power loss), ``_load`` detects the unterminated
final line, quarantines it to a ``<path>.torn`` sidecar, and truncates
the store back to the last complete row so the trial re-runs as pending;
mid-file garbage lines are quarantined the same way and skipped.

Concurrent writers: a reader can see another process's ``os.write`` half
done, and truncating that "torn" tail would delete the row in flight and
every row appended after the read.  So each append holds an advisory
shared ``flock`` around its one write, and ``_load`` holds an exclusive
one around its read, check and truncate: a torn tail seen under the
exclusive lock can only come from a writer that died.
"""

from __future__ import annotations

import fcntl
import json
import os
from typing import Dict, Iterable, Iterator, List, Optional

from repro.experiments.spec import TrialSpec


def iter_store_rows(path: Optional[str]) -> Iterator[Dict]:
    """Stream a store file's rows one line at a time.

    The streaming read behind the aggregation and merge paths: nothing
    but the current line is held in memory, so an n=1024-scale store can
    be reduced without materializing its grid.  Tolerant by the same
    rules as :class:`TrialStore`'s loader — corrupt/torn lines are
    skipped (quarantining is left to the owning writer's next load) —
    and a missing file is simply an empty stream.
    """
    if path is None or not os.path.exists(path):
        return
    with open(path, "rb") as fh:
        for raw in fh:
            if not raw.endswith(b"\n"):
                break  # unterminated tail: not a row yet
            if not raw.strip():
                continue
            try:
                row = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                continue
            if isinstance(row, dict):
                yield row


class TrialStore:
    """JSONL-backed map from trial content hash to result row.

    ``path=None`` gives a pure in-memory store (the benchmarks and unit
    tests use this; the CLI always passes a path).  After construction,
    :attr:`torn` counts the partially-written/corrupt lines that were
    quarantined to the ``.torn`` sidecar during load (0 for clean stores).
    """

    def __init__(self, path: Optional[str] = None):
        self.path = path
        self._rows: Dict[str, Dict] = {}
        self._fd: Optional[int] = None
        #: corrupt lines quarantined on load (torn tail + mid-file garbage)
        self.torn = 0
        if path is not None and os.path.exists(path):
            self._load()

    # -- reading -------------------------------------------------------------
    def _quarantine(self, fragment: bytes) -> None:
        """Append a corrupt line to the ``.torn`` sidecar for post-mortems."""
        self.torn += 1
        with open(self.path + ".torn", "ab") as sidecar:
            sidecar.write(fragment.rstrip(b"\n") + b"\n")

    def _load(self) -> None:
        with open(self.path, "rb") as fh:
            # waits out every append in flight; closing the file unlocks
            fcntl.flock(fh, fcntl.LOCK_EX)
            data = fh.read()
            if data and not data.endswith(b"\n"):
                # torn tail: a writer died mid-line.  Quarantine the
                # fragment and truncate the store back to the last
                # complete row — its trial is simply pending again.
                cut = data.rfind(b"\n") + 1
                self._quarantine(data[cut:])
                with open(self.path, "r+b") as rw:
                    rw.truncate(cut)
                data = data[:cut]
        for raw in data.split(b"\n"):
            if not raw.strip():
                continue
            try:
                row = json.loads(raw.decode("utf-8"))
            except (json.JSONDecodeError, UnicodeDecodeError):
                self._quarantine(raw)  # mid-file garbage: skip but keep it
                continue
            if isinstance(row, dict) and "hash" in row:
                self._rows[row["hash"]] = row

    def __len__(self) -> int:
        return len(self._rows)

    def __contains__(self, trial) -> bool:
        return self._hash_of(trial) in self._rows

    @staticmethod
    def _hash_of(trial) -> str:
        if not isinstance(trial, TrialSpec):
            # a silent str() fallback would turn a mistyped key into a cache
            # miss, re-running (or double-recording) the trial — fail loudly
            raise TypeError(
                f"store keys must be TrialSpec, got {type(trial).__name__}")
        return trial.content_hash()

    def get(self, trial) -> Optional[Dict]:
        return self._rows.get(self._hash_of(trial))

    def get_by_hash(self, digest: str) -> Optional[Dict]:
        """Row for an already-computed content hash (the explicit form —
        :meth:`get` only accepts :class:`TrialSpec` keys)."""
        return self._rows.get(digest)

    def rows(self) -> List[Dict]:
        return list(self._rows.values())

    def completed_hashes(self) -> set:
        return set(self._rows)

    def rows_for(self, trials: Iterable[TrialSpec]) -> List[Dict]:
        """Rows for exactly the given trials, in the given order (missing
        trials are skipped) — how a campaign reads back its own results."""
        out = []
        for trial in trials:
            row = self._rows.get(trial.content_hash())
            if row is not None:
                out.append(row)
        return out

    # -- writing -------------------------------------------------------------
    def append(self, row: Dict) -> None:
        if "hash" not in row:
            raise ValueError("result row must carry its trial hash")
        self._rows[row["hash"]] = row
        if self.path is not None:
            if self._fd is None:
                directory = os.path.dirname(self.path)
                if directory:
                    os.makedirs(directory, exist_ok=True)
                self._fd = os.open(self.path,
                                   os.O_WRONLY | os.O_APPEND | os.O_CREAT,
                                   0o644)
            # one os.write per row: O_APPEND makes the line land atomically
            # at the end of the file, so a SIGKILL between rows can never
            # interleave or tear a line of this writer.  The shared lock
            # keeps a concurrent _load from truncating it mid-write
            line = (json.dumps(row, sort_keys=True) + "\n").encode("utf-8")
            fcntl.flock(self._fd, fcntl.LOCK_SH)
            try:
                os.write(self._fd, line)
            finally:
                fcntl.flock(self._fd, fcntl.LOCK_UN)

    def extend(self, rows: Iterable[Dict]) -> None:
        for row in rows:
            self.append(row)

    def close(self) -> None:
        if self._fd is not None:
            os.close(self._fd)
            self._fd = None

    def __enter__(self) -> "TrialStore":
        return self

    def __exit__(self, *exc) -> None:
        self.close()

    def __repr__(self) -> str:
        where = self.path if self.path is not None else "memory"
        return f"TrialStore({where!r}, rows={len(self)})"
