"""Outside-in layer profile for the end-to-end campaign benchmark.

The benchmark never edits the program to trace it.  ``install`` replaces
each layer's public entry points at runtime -- module functions under
*every* module name they are looked up by, and methods on every class that
defines them -- with wrappers that record a span per call into a
:class:`Tracer`.  ``Patcher.restore`` puts every original back.

A layer's self time is the duration of its spans minus the part covered by
their child spans, so the self times of all layers partition the time of
the outermost spans exactly; whatever the campaign spends outside any span
is reported as ``other``.
"""

from __future__ import annotations

import functools
import importlib
import pkgutil
import sys
import time
from collections import Counter, defaultdict
from typing import Callable, Dict, List, NamedTuple, Optional, Tuple


class Call(NamedTuple):
    """What a counting hook sees of one finished wrapped call."""

    args: tuple
    kwargs: dict
    result: object
    error: Optional[BaseException]
    #: the enclosing span belongs to the same layer (e.g. a concatenated
    #: code's decode calling its outer Reed-Solomon decode)
    nested: bool


Hook = Callable[["Tracer", Call], None]

#: the package whose modules are patched
PACKAGE = "repro"


class Tracer:
    """In-memory span accounting: per-layer self time, calls and counts."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.self_s: Dict[str, float] = defaultdict(float)
        self.calls: Counter = Counter()
        self.counts: Counter = Counter({name: 0 for name in COUNTS})
        # one [layer, seconds covered by child spans] frame per open span
        self._stack: List[list] = []

    def wrap(self, fn: Callable, layer: str, hook: Optional[Hook] = None):
        """Return ``fn`` wrapped in a span of ``layer``."""
        clock, stack = self.clock, self._stack
        self_s, calls = self.self_s, self.calls

        def traced(*args, **kwargs):
            nested = bool(stack) and stack[-1][0] == layer
            frame = [layer, 0.0]
            stack.append(frame)
            result, error = None, None
            start = clock()
            try:
                result = fn(*args, **kwargs)
                return result
            except BaseException as exc:
                error = exc
                raise
            finally:
                elapsed = clock() - start
                stack.pop()
                self_s[layer] += elapsed - frame[1]
                calls[layer] += 1
                if stack:
                    stack[-1][1] += elapsed
                if hook is not None:
                    hook(self, Call(args, kwargs, result, error, nested))

        return functools.wraps(fn)(traced)


# -- counting hooks -----------------------------------------------------------
def _count(name: str, amount: Callable[[Call], int] = lambda call: 1) -> Hook:
    def hook(tracer: Tracer, call: Call) -> None:
        tracer.counts[name] += int(amount(call))
    return hook


def _arg(call: Call, index: int, *names: str):
    """An argument of the call, passed by position or by any of ``names``."""
    if index < len(call.args):
        return call.args[index]
    return next(call.kwargs[name] for name in names if name in call.kwargs)


def _greedy_edges(call: Call) -> int:
    n = _arg(call, 0, "priorities").shape[0]
    return n * (n - 1) // 2 if _arg(call, 1, "budget") > 0 else 0


def _search(tracer: Tracer, call: Call) -> None:
    tracer.counts["core.profiles.searches"] += 1
    if isinstance(call.error, ValueError):
        tracer.counts["core.profiles.failed_searches"] += 1


def _decoded_words(tracer: Tracer, call: Call) -> None:
    # a concatenated code decodes through its inner and outer codes: only
    # the outermost call's words are words the protocol asked to decode
    if call.nested or call.error is not None:
        return
    tracer.counts["coding.words_decoded"] += len(
        _arg(call, 1, "received", "words"))
    tracer.counts["coding.words_failed"] += int(call.result[1].sum())


def _trial_row(call: Call) -> int:
    return int("trial" in _arg(call, 1, "row"))


# -- what gets wrapped --------------------------------------------------------
#: (layer, module, function names, hook per name)
FUNCTIONS: Tuple = (
    ("experiments", "repro.experiments.runner",
     ("run_campaign", "run_single"),
     {"run_single": _count("experiments.serial_trials")}),
    ("experiments", "repro.experiments.vmap", ("run_cell_batched",), {}),
    ("protocol", "repro.core.vmapped", ("run_protocol_many",), {}),
    ("protocol", "repro.core.alltoall", ("run_protocol",), {}),
    ("adversary.greedy", "repro.adversary.budget",
     ("greedy_symmetric_selection",),
     {"greedy_symmetric_selection": _count("adversary.greedy.edges_scanned",
                                           _greedy_edges)}),
    ("adversary.budget", "repro.adversary.budget",
     ("validate_fault_set", "validate_fault_sets"),
     {"validate_fault_set": _count("adversary.budget.sets_validated"),
      "validate_fault_sets": _count(
          "adversary.budget.sets_validated",
          lambda call: len(_arg(call, 0, "edges")))}),
    ("core.profiles", "repro.coding.linear",
     ("best_effort_linear_code", "search_linear_code"),
     {"search_linear_code": _search}),
    ("core.profiles", "repro.coding.justesen", ("make_justesen_code",), {}),
)

_CLIQUE = ("round", "round_many", "exchange", "exchange_words",
           "exchange_words_ragged", "exchange_bits")
_CODEC = ("encode_many", "decode_many_flagged", "correct_many")
#: a method list of ``None`` means every public method of the class
_PUBLIC = None

#: (layer, module, class, method names, include subclasses, hook per name)
METHODS: Tuple = (
    ("experiments", "repro.experiments.store", "TrialStore", ("append",),
     False, {"append": _count("experiments.rows", _trial_row)}),
    ("adversary", "repro.adversary.base", "Adversary",
     ("select_edges", "corrupt"), True, {}),
    ("adversary", "repro.adversary.batched", "BatchedAdversary",
     ("select_edges_many", "corrupt_many"), True, {}),
    ("cliquesim", "repro.cliquesim.batched", "BatchedClique", _CLIQUE,
     False, {}),
    ("cliquesim", "repro.cliquesim.network", "CongestedClique", _CLIQUE,
     False, {}),
    ("core.routing", "repro.core.batched_routing", "BatchedRouter",
     ("route", "route_shared", "route_grouped"), False, {}),
    ("core.routing", "repro.core.routing", "SuperMessageRouter", ("route",),
     False, {}),
    ("core.profiles", "repro.core.profiles", "ProtocolProfile",
     ("select_routing_code", "routing_code", "routing_code_at_rate"),
     False, {}),
    ("coding", "repro.coding.interfaces", "BinaryCode", _CODEC, True,
     {"decode_many_flagged": _decoded_words}),
    ("coding", "repro.coding.reed_solomon", "ReedSolomonCodec", _CODEC,
     False, {"decode_many_flagged": _decoded_words}),
    ("coding.reed_muller", "repro.coding.reed_muller", "ReedMullerLDC",
     ("encode_many", "local_decode_many", "local_decode", "decode_indices"),
     False,
     {"local_decode_many": _count("coding.reed_muller.rows",
                                  lambda call: len(_arg(call, 2, "values"))),
      "local_decode": _count("coding.reed_muller.bw_rows")}),
    ("sketch", "repro.sketch.ksparse", "KSparseSketch", _PUBLIC, False, {}),
    ("sketch", "repro.sketch.ksparse", "SketchPlanes", _PUBLIC, False, {}),
    ("sketch", "repro.sketch.ksparse", "SketchPlaneStack", _PUBLIC, False,
     {}),
    ("fields", "repro.fields.gfp", "PrimeField",
     ("solve", "matmul", "inv_matrix"), False, {}),
    ("fields", "repro.fields.gf2m", "GF2m", ("matmul",), False, {}),
)

#: every count the hooks keep
COUNTS = ("experiments.serial_trials", "experiments.rows",
          "adversary.greedy.edges_scanned", "adversary.budget.sets_validated",
          "core.profiles.searches", "core.profiles.failed_searches",
          "coding.words_decoded", "coding.words_failed",
          "coding.reed_muller.rows", "coding.reed_muller.bw_rows")

#: every layer; ``other`` is the campaign wall time that no span covers
LAYERS = tuple(dict.fromkeys(row[0] for row in FUNCTIONS + METHODS))


def import_all() -> None:
    """Import every module of the package so that module-level aliases of
    wrapped functions exist before the alias scan runs."""
    root = importlib.import_module(PACKAGE)
    for info in pkgutil.walk_packages(root.__path__, PACKAGE + "."):
        if not info.name.endswith("__main__"):
            importlib.import_module(info.name)


def _subclasses(cls) -> List[type]:
    seen, todo = [cls], [cls]
    while todo:
        for sub in todo.pop().__subclasses__():
            if sub not in seen:
                seen.append(sub)
                todo.append(sub)
    return seen


class Patcher:
    """Installs wrappers and remembers how to undo every replacement."""

    def __init__(self, tracer: Tracer):
        self.tracer = tracer
        self._undo: List[Tuple[object, str, object]] = []
        #: targets named in the tables that this program version lacks
        self.missing: List[str] = []

    def _set(self, owner, name: str, value) -> None:
        self._undo.append((owner, name, owner.__dict__[name]))
        setattr(owner, name, value)

    def patch_function(self, module_name: str, name: str, layer: str,
                       hook: Optional[Hook] = None) -> None:
        """Wrap a module function under every module that holds it."""
        original = getattr(sys.modules.get(module_name), name, None)
        if not callable(original):
            self.missing.append(f"{module_name}.{name}")
            return
        wrapped = self.tracer.wrap(original, layer, hook)
        for mod_name, mod in list(sys.modules.items()):
            if mod is None or not (mod_name == PACKAGE or
                                   mod_name.startswith(PACKAGE + ".")):
                continue
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._set(mod, attr, wrapped)

    def patch_methods(self, cls: type, names, layer: str,
                      hooks: Dict[str, Hook]) -> None:
        """Wrap the methods ``cls`` itself defines (all public ones when
        ``names`` is None)."""
        for name, raw in list(vars(cls).items()):
            if names is None:
                if name.startswith("_"):
                    continue
            elif name not in names:
                continue
            if getattr(raw, "__isabstractmethod__", False):
                continue
            hook = hooks.get(name)
            if isinstance(raw, (staticmethod, classmethod)):
                value = type(raw)(self.tracer.wrap(raw.__func__, layer, hook))
            elif callable(raw) and not isinstance(raw, type):
                value = self.tracer.wrap(raw, layer, hook)
            else:
                continue  # properties and plain attributes are not calls
            self._set(cls, name, value)

    def install(self) -> "Patcher":
        import_all()
        for layer, module, names, hooks in FUNCTIONS:
            for name in names:
                self.patch_function(module, name, layer, hooks.get(name))
        for layer, module, cls_name, names, subclasses, hooks in METHODS:
            cls = getattr(sys.modules.get(module), cls_name, None)
            if not isinstance(cls, type):
                self.missing.append(f"{module}.{cls_name}")
                continue
            for target in (_subclasses(cls) if subclasses else [cls]):
                self.patch_methods(target, names, layer, hooks)
        return self

    def restore(self) -> None:
        while self._undo:
            owner, name, original = self._undo.pop()
            setattr(owner, name, original)


def profile(tracer: Tracer, wall: float) -> Dict[str, float]:
    """Per-layer self seconds plus ``other`` (``wall`` minus their sum)."""
    out = {layer: tracer.self_s.get(layer, 0.0) for layer in LAYERS}
    out["other"] = wall - sum(out.values())
    return out
