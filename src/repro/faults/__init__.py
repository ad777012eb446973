"""Fault injection and runner resilience (`repro.faults`).

Two halves:

* :mod:`repro.faults.channels` — stochastic per-edge channel adversaries
  (i.i.d. and Gilbert–Elliott bursty, in ``corrupt`` and ``erase``
  flavours) and the Byzantine-*node* adversary, each one batched
  implementation whose serial name is its one-seed instance;
* :mod:`repro.faults.resilience` — per-trial wall-clock timeouts, bounded
  retries with exponential backoff (bit-identical on success), and the
  ``REPRO_CHAOS_TIMEOUT`` chaos-injection hook.

The channels register as adversary kinds ``iid-corrupt``, ``iid-erase``,
``gilbert-elliott`` and ``byzantine-nodes`` in the experiments runner and
land as the named campaigns ``stochastic-iid``, ``stochastic-bursty`` and
``byzantine-nodes`` in the registry.
"""

from repro import _lazy_exports

__getattr__, __dir__, __all__ = _lazy_exports(__name__, {
    "channels": ("BatchedByzantineNodeAdversary",
                 "BatchedGilbertElliottChannel", "BatchedIIDEdgeChannel",
                 "ByzantineNodeAdversary", "GilbertElliottChannel",
                 "IIDEdgeChannel", "degree_capped_mask"),
    "resilience": ("CHAOS_TIMEOUT_ENV", "NO_POLICY", "ResiliencePolicy",
                   "TrialTimeout", "chaos_timeout_fraction", "trial_alarm"),
})
