"""Resilient trial execution: timeouts, retries, and chaos injection.

Long heavy-traffic campaigns die for boring reasons — one wedged trial, a
transient allocation failure, an operator SIGKILL.  This module holds
what the trial executor (:func:`repro.experiments.vmap.run_cell_batched`)
needs so campaigns survive all three:

* :class:`ResiliencePolicy` — per-trial wall-clock timeout (SIGALRM-based,
  active on the main thread of POSIX workers; elsewhere trials simply run
  unguarded) and bounded retries with exponential backoff.  A lockstep
  chunk runs under the summed timeout of its trials; a cell of one runs
  under its own and retries;
* retries re-run the *same* trial, so every derived seed is identical
  and a retry that succeeds produces the exact row an undisturbed run
  would have produced (bit-identical modulo wall-clock fields);
* ``REPRO_CHAOS_TIMEOUT=<p>`` injects a deterministic synthetic timeout
  into the first attempt of a ``p``-fraction of trials (keyed on the trial
  hash) — the chaos hook the CI chaos-smoke job uses to prove the retry
  and resume machinery actually heals.  Chaos-marked trials run as cells
  of one.

Rows that needed more than one attempt carry an ``attempts`` field; rows
that succeed first try are byte-identical to rows from an unguarded run,
which is what keeps the backend parity contract intact.
"""

from __future__ import annotations

import hashlib
import os
import signal
import threading
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Optional

#: environment hook: fraction of trials whose first attempt fails with a
#: synthetic TrialTimeout (deterministic per trial hash)
CHAOS_TIMEOUT_ENV = "REPRO_CHAOS_TIMEOUT"


class TrialTimeout(Exception):
    """A trial exceeded its wall-clock budget (or a chaos-injected one)."""


@dataclass(frozen=True)
class ResiliencePolicy:
    """How hard the runner fights for each trial.

    ``timeout_seconds=None`` disables the per-trial alarm; ``retries=0``
    disables re-execution.  The default policy is a no-op, so existing
    callers keep the exact legacy behaviour.
    """

    timeout_seconds: Optional[float] = None
    retries: int = 0
    backoff_seconds: float = 0.25

    def __post_init__(self):
        if self.timeout_seconds is not None and self.timeout_seconds <= 0:
            raise ValueError("timeout_seconds must be positive (or None)")
        if self.retries < 0:
            raise ValueError("retries must be >= 0")
        if self.backoff_seconds < 0:
            raise ValueError("backoff_seconds must be >= 0")

    @property
    def active(self) -> bool:
        return self.timeout_seconds is not None or self.retries > 0


#: the no-op policy (legacy behaviour)
NO_POLICY = ResiliencePolicy()


def _alarm_available() -> bool:
    return (hasattr(signal, "SIGALRM")
            and threading.current_thread() is threading.main_thread())


@contextmanager
def trial_alarm(seconds: Optional[float]):
    """Raise :class:`TrialTimeout` inside the block after ``seconds``.

    Uses ``setitimer``/SIGALRM, which can interrupt pure-numpy trial code
    between bytecodes; silently a no-op where SIGALRM cannot be armed
    (non-POSIX, or off the main thread) — the policy degrades to
    retries-only rather than refusing to run.
    """
    if seconds is None or not _alarm_available():
        yield
        return

    def _on_alarm(signum, frame):
        raise TrialTimeout(f"trial exceeded {seconds}s wall-clock budget")

    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, float(seconds))
    try:
        yield
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0.0)
        signal.signal(signal.SIGALRM, previous)


def chaos_timeout_fraction() -> float:
    """The configured chaos-injection probability (0.0 when disabled).
    A set value must be a fraction in [0, 1]; anything else raises
    ``ValueError`` rather than silently turning chaos off or on."""
    raw = os.environ.get(CHAOS_TIMEOUT_ENV)
    if not raw:
        return 0.0
    try:
        value = float(raw)
    except ValueError:
        value = float("nan")
    if not 0.0 <= value <= 1.0:
        raise ValueError(f"{CHAOS_TIMEOUT_ENV} must be a fraction in "
                         f"[0, 1]; got {raw!r}")
    return value


def _chaos_hits(trial_hash: str, fraction: float) -> bool:
    """Deterministic per-trial chaos decision: the same trial is hit in
    every process and on every resume, so chaos runs are reproducible."""
    if fraction <= 0.0:
        return False
    digest = hashlib.sha256(f"chaos:{trial_hash}".encode()).hexdigest()
    return int(digest[:8], 16) / float(1 << 32) < fraction
