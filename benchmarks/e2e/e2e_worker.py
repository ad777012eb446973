"""One repetition of an end-to-end benchmark workload.

Run as ``python e2e_worker.py <workload> <seed> <mode> <store.jsonl>``
from the repository root.  The process sets up the campaign the way a user
does -- import ``repro.experiments``, expand the spec, open the store --
prints ``ready`` on its own line, runs the campaign on the ``vmap``
backend, and prints one JSON report as its last line.  The parent measures
set-up time from process start to ``ready``; this process measures the
campaign itself.

``mode`` is one of :data:`MODES`.  Tracing imports every ``repro`` module
before the campaign starts, which takes the program's own lazy imports
out of the campaign's wall time; ``baseline`` does the same without
tracing, so that traced and baseline walls differ only by the tracing.

The workloads and their seed-0 digests live here so that the parent, this
process and the tests share one definition.
"""

from __future__ import annotations

import hashlib
import json
import os
import resource
import sys
import time
from typing import Callable, Dict, List, Optional

ROOT = os.path.dirname(os.path.dirname(os.path.dirname(
    os.path.abspath(__file__))))
SRC = os.path.join(ROOT, "src")

#: plain: as users run it; baseline: every module imported up front;
#: traced: baseline plus the layer spans of :mod:`e2e_layers`
MODES = ("plain", "baseline", "traced")

#: row statuses that mean a trial did not produce a result
FAILED_STATUSES = ("error", "skipped")


def _table1(seed: int):
    from repro.experiments import build_campaign
    # n=16 is the one size below the default n=64 that every Table 1
    # protocol accepts (det-sqrt needs a square, det-logn a power of two)
    return build_campaign("table1", n=16, base_seed=seed)


def _adv_logn(seed: int):
    from repro.experiments import free_grid
    return free_grid(name="adv-logn-n64", protocols=("det-logn",),
                     adversaries=("adaptive",), ns=(64,),
                     alphas=(1 / 64, 1 / 32), replicates=32, base_seed=seed)


def _free_logn(seed: int):
    from repro.experiments import free_grid
    return free_grid(name="free-logn-n512", protocols=("det-logn",),
                     adversaries=("null",), ns=(512,), alphas=(0.0,),
                     replicates=2, base_seed=seed)


def _stochastic(seed: int):
    from repro.experiments import build_campaign
    return build_campaign("stochastic-iid", n=32, replicates=2,
                          base_seed=seed)


#: workload name -> ``seed -> ExperimentSpec``
WORKLOADS: Dict[str, Callable] = {
    "table1": _table1,
    "adv-logn-n64": _adv_logn,
    "free-logn-n512": _free_logn,
    "stochastic-iid": _stochastic,
}

#: sha256 over the sorted ``repro.sched.row_digest`` of every trial row at
#: seed 0; any change to a simulated outcome changes it.  The serial
#: backend produces the same digests.
SEED0_DIGESTS: Dict[str, str] = {
    "table1":
        "058a165c2b8abdf3d09a67c32412dbe6c84cf342cb4d4f4d991019a6c4591216",
    "adv-logn-n64":
        "de0e4e3d50c6508e5e54a29fe50aa5736925c23c1763169c91ac972ad92179c3",
    "free-logn-n512":
        "f75c478caed936b21ac65ecdc11c0fc3bcde487e51d4b103b91b498ae0124749",
    "stochastic-iid":
        "1c6958fee55b1a4c58492835d2464b1c7cd4546bc423678cc2e89fe57be1619d",
}


def rows_digest(rows: List[Dict]) -> str:
    from repro.sched import row_digest
    blob = "\n".join(sorted(row_digest(row) for row in rows))
    return hashlib.sha256(blob.encode("utf-8")).hexdigest()


def check_rows(spec, trials, rows: List[Dict]) -> List[str]:
    """Problems with a campaign's rows; empty when every row is sound."""
    problems = []
    expected = {trial.content_hash() for trial in trials}
    got = {row["hash"] for row in rows}
    if got != expected:
        problems.append(f"{len(expected - got)} trials without a row")
    for row in rows:
        status = row.get("status")
        if status not in ("ok", "unsupported") + FAILED_STATUSES:
            problems.append(f"row {row['hash']}: unknown status {status!r}")
            continue
        if status != "ok":
            continue
        total, correct = row["total_entries"], row["correct_entries"]
        if not 0 <= correct <= total or \
                abs(row["accuracy"] - correct / total) > 1e-12:
            problems.append(f"row {row['hash']}: accuracy does not match "
                            f"{correct}/{total} entries")
        trial = row["trial"]
        if (trial["adversary"] == "null" or trial["alpha"] == 0) and (
                correct != total or row["entries_corrupted"] != 0):
            problems.append(f"row {row['hash']}: fault-free trial lost "
                            f"entries")
    return problems


def run_repetition(spec, store_path: Optional[str], mode: str = "plain",
                   ready: Callable[[], None] = lambda: None) -> Dict:
    """Run ``spec`` once on the vmap backend and report on it.  ``ready``
    is called when set-up is done and the campaign is about to start."""
    import numpy
    import repro.experiments as experiments
    from e2e_layers import Patcher, Tracer, import_all, profile

    trials = spec.trials()
    store = experiments.TrialStore(store_path)
    patcher = None
    if mode != "plain":
        import_all()
    if mode == "traced":
        patcher = Patcher(Tracer()).install()
    ready()
    try:
        start = time.perf_counter()
        result = experiments.run_campaign(spec, store=store, backend="vmap")
        wall = time.perf_counter() - start
    finally:
        store.close()
        if patcher is not None:
            patcher.restore()
    rows = result.rows()
    ok = [row for row in rows if row["status"] == "ok"]
    report = {
        "wall_s": wall,
        "attempted": len(trials),
        "failed": sum(row["status"] in FAILED_STATUSES for row in rows),
        "unsupported": sum(row["status"] == "unsupported" for row in rows),
        "below_bar": sum(row["accuracy"] < spec.accuracy_bar for row in ok),
        "digest": rows_digest(rows),
        "problems": check_rows(spec, trials, rows),
        "rounds": sum(row["rounds"] for row in ok),
        "bits": sum(row["bits_sent"] for row in ok),
        "peak_rss_mb": resource.getrusage(
            resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "numpy": numpy.__version__,
    }
    if patcher is not None:
        tracer = patcher.tracer
        report["self_s"] = profile(tracer, wall)
        report["calls"] = dict(tracer.calls)
        report["counts"] = dict(tracer.counts)
        report["missing_targets"] = patcher.missing
    return report


def import_program() -> None:
    """Import ``repro`` from this checkout's ``src`` and nowhere else."""
    sys.path.insert(0, SRC)
    import repro
    if os.path.dirname(os.path.dirname(os.path.abspath(
            repro.__file__))) != SRC:
        raise ImportError(f"repro imported from {repro.__file__}, "
                          f"not from {SRC}")


def main(argv: List[str]) -> int:
    workload, seed, mode, store_path = argv
    if mode not in MODES:
        raise SystemExit(f"mode must be one of {MODES}, not {mode!r}")
    import_program()
    spec = WORKLOADS[workload](int(seed))

    def ready() -> None:
        print("ready", flush=True)

    report = run_repetition(spec, store_path, mode, ready)
    print(json.dumps(report, sort_keys=True), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
