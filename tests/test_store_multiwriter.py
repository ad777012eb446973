"""Concurrent-writer safety of the TrialStore append path.

The sharded scheduler's correctness rests on two properties of the store.
An append is a single ``os.write`` to an ``O_APPEND`` descriptor, so any
number of processes appending to the same JSONL file can only ever
produce whole lines — never interleaved or torn ones.  And a store that
opens (loads) the file while others append never mistakes a write in
flight for a torn tail: each append holds a shared ``flock`` and the load
an exclusive one.  These are the property tests: hammer one store file
from several processes at once and assert every line parses, every row is
intact, and nothing was lost.
"""

import fcntl
import json
import os
import subprocess
import sys
import threading
import time

from repro.experiments.store import TrialStore, iter_store_rows

SRC = os.path.join(os.path.dirname(__file__), "..", "src")

WRITER = """
import json, os, sys
sys.path.insert(0, {src!r})
from repro.experiments.store import TrialStore
writer_id, rows, payload, path = (int(sys.argv[1]), int(sys.argv[2]),
                                  int(sys.argv[3]), sys.argv[4])
with TrialStore(path) as store:
    for i in range(rows):
        store.append({{
            "hash": f"w{{writer_id}}-{{i:04d}}",
            "trial": {{"writer": writer_id, "i": i}},
            "status": "ok",
            # bulk payload makes a torn write far more likely if the
            # single-os.write guarantee were ever broken
            "payload": "x" * payload,
        }})
""".format(src=os.path.abspath(SRC))


def hammer(path, writers=4, rows=200, payload=512, stagger=0.0):
    """Run ``writers`` processes appending ``rows`` rows each to one
    store, started ``stagger`` seconds apart, so that each later writer
    loads the file while the earlier ones append."""
    procs = []
    for w in range(writers):
        procs.append(subprocess.Popen([sys.executable, "-c", WRITER,
                                       str(w), str(rows), str(payload),
                                       path]))
        time.sleep(stagger)
    for proc in procs:
        # a writer stuck on the store lock fails the run, not hangs it
        assert proc.wait(timeout=120) == 0
    return writers, rows


class TestMultiWriterStore:
    def test_concurrent_appends_never_tear_or_interleave(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        writers, rows = hammer(path)
        with open(path, "rb") as fh:
            raw_lines = fh.read().split(b"\n")
        assert raw_lines[-1] == b""  # file ends on a complete line
        parsed = [json.loads(line) for line in raw_lines[:-1]]
        assert len(parsed) == writers * rows  # nothing lost, nothing merged
        for row in parsed:
            # an interleaved write would corrupt the fixed-shape payload
            assert row["payload"] == "x" * 512
            assert row["hash"] == \
                f"w{row['trial']['writer']}-{row['trial']['i']:04d}"

    def test_every_writers_rows_all_land(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        writers, rows = hammer(path, writers=3, rows=150)
        seen = {r["hash"] for r in iter_store_rows(path)}
        expected = {f"w{w}-{i:04d}"
                    for w in range(writers) for i in range(rows)}
        assert seen == expected

    def test_store_reloads_clean_after_concurrent_writes(self, tmp_path):
        path = str(tmp_path / "store.jsonl")
        writers, rows = hammer(path, writers=3, rows=100)
        store = TrialStore(path)
        assert store.torn == 0
        assert len(store) == writers * rows

    def test_load_waits_out_an_append_in_flight(self, tmp_path):
        """A load that starts half-way through another writer's append
        must wait for it, not quarantine and truncate the half line."""
        path = str(tmp_path / "store.jsonl")
        with TrialStore(path) as store:
            store.append({"hash": "a", "status": "ok"})
        line = (json.dumps({"hash": "b", "status": "ok", "payload": "x" * 64})
                + "\n").encode("utf-8")
        loaded = []
        loader = threading.Thread(
            target=lambda: loaded.append(TrialStore(path)))
        fd = os.open(path, os.O_WRONLY | os.O_APPEND)
        try:
            # the other writer, holding the append lock, has written only
            # the first part of its row when the load starts
            fcntl.flock(fd, fcntl.LOCK_SH)
            os.write(fd, line[:20])
            loader.start()
            loader.join(timeout=0.5)
            assert loader.is_alive()  # blocked until the append finishes
            os.write(fd, line[20:])
            fcntl.flock(fd, fcntl.LOCK_UN)
        finally:
            os.close(fd)
        loader.join(timeout=30)
        assert not loader.is_alive()
        store = loaded[0]
        assert store.torn == 0
        assert not os.path.exists(path + ".torn")
        assert {row["hash"] for row in store.rows()} == {"a", "b"}
        assert [row["hash"] for row in iter_store_rows(path)] == ["a", "b"]
