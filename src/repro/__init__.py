"""repro — resilient all-to-all communication in the Congested Clique.

Reproduction of Fischer & Parter, *All-to-All Communication with Mobile Edge
Adversary: Almost Linearly More Faults, For Free* (PODC 2025).

Public API highlights:

* :mod:`repro.cliquesim` — the Congested Clique simulator.
* :mod:`repro.adversary` — mobile bounded-faulty-degree Byzantine adversaries.
* :mod:`repro.core` — the super-message routing scheme and the four
  AllToAllComm protocols of Table 1, plus the round-by-round compiler.
* :mod:`repro.coding`, :mod:`repro.sketch`, :mod:`repro.coverfree`,
  :mod:`repro.hashing`, :mod:`repro.fields` — substrates.
* :mod:`repro.baseline` — comparison baselines (naive exchange and a
  Fischer–Parter 2023-style tree-upcast compiler).
* :mod:`repro.experiments` — declarative, parallel, resumable experiment
  campaigns (the engine behind the sweeps, benchmarks and CLI).
"""

import importlib
import sys
from typing import Callable, Dict, List, Sequence, Tuple

__version__ = "1.0.0"


def _lazy_exports(package: str, table: Dict[str, Sequence[str]]
                  ) -> Tuple[Callable, Callable, List[str]]:
    """``(__getattr__, __dir__, __all__)`` for a subpackage that exports
    lazily (PEP 562); ``table`` maps each submodule to the names it exports.

    Every campaign repetition and every sharded worker is a fresh
    interpreter, so whatever a package imports eagerly is paid on every
    start.  A lazy package imports a submodule only when one of its names
    is first read.  Names are not cached on the package: every read
    resolves through the submodule, so a patch applied there is seen
    through the package too.
    """
    owner = {name: submodule for submodule, names in table.items()
             for name in names}

    def __getattr__(name: str):
        try:
            submodule = owner[name]
        except KeyError:
            raise AttributeError(f"module {package!r} has no attribute "
                                 f"{name!r}") from None
        return getattr(importlib.import_module(f"{package}.{submodule}"),
                       name)

    def __dir__() -> List[str]:
        return sorted(set(vars(sys.modules[package])) | set(owner))

    return __getattr__, __dir__, list(owner)
