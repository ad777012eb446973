"""Stress test of TrialStore under staggered concurrent writers.

Each of ten rounds runs the multiwriter test's ``hammer`` with 12 writer
processes started 10 ms apart, each appending 300 rows with 5000-byte
payloads to one store file.  Every writer loads the file while the
writers started before it are appending.  No writer dies, so a round
fails if a row is missing or if any load quarantined a line to the
``.torn`` sidecar.  Exits with status 1 if any round fails::

    python tests/store_stress.py
"""

from __future__ import annotations

import os
import sys
import tempfile

sys.path.insert(0, os.path.join(os.path.dirname(os.path.abspath(__file__)),
                                "..", "src"))

from repro.experiments.store import iter_store_rows  # noqa: E402
from test_store_multiwriter import hammer  # noqa: E402

ROUNDS = 10
WRITERS = 12
ROWS = 300
PAYLOAD = 5000
STAGGER = 0.01


def run_round(directory: str) -> str:
    """One staggered hammer; returns a failure message, or "" if clean."""
    path = os.path.join(directory, "store.jsonl")
    hammer(path, WRITERS, ROWS, payload=PAYLOAD, stagger=STAGGER)
    lost = WRITERS * ROWS - len({row["hash"]
                                 for row in iter_store_rows(path)})
    torn = os.path.exists(path + ".torn")
    if lost or torn:
        return f"{lost} rows lost, .torn sidecar: {torn}"
    return ""


def main() -> int:
    failed = 0
    for k in range(ROUNDS):
        with tempfile.TemporaryDirectory() as directory:
            problem = run_round(directory)
        print(f"round {k + 1}/{ROUNDS}: {problem or 'ok'}", flush=True)
        failed += bool(problem)
    print(f"{failed} of {ROUNDS} rounds failed")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
