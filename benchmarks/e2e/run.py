"""End-to-end campaign benchmark.

Runs a named campaign workload the way users run it -- ``run_campaign(...,
backend="vmap")`` in a fresh interpreter -- over and over in a closed loop
(one repetition at a time, the next starting when the previous one ends)
for ``--seconds``, then prints every metric with its unit and checks that
the results are correct.  The metric names, units and bounds are the ones
in ``BENCHMARK.json`` at the repository root.

    python3 benchmarks/e2e/run.py                       # all workloads
    python3 benchmarks/e2e/run.py --workload table1 --seed 3 --seconds 20
    python3 benchmarks/e2e/run.py --workload table1 --trace 1   # layers
    python3 benchmarks/e2e/run.py --workload table1 --out parent.json
    python3 benchmarks/e2e/run.py compare parent.json change.json

The last line of a run is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics, or with
``--trace 1`` the per-layer ones.  See README.md beside this file.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import select
import statistics
import subprocess
import sys
import tempfile
import time
from typing import Dict, List, Optional

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)

import e2e_worker  # noqa: E402  (stdlib-only at import time)
from e2e_compare import compare_files, quartiles  # noqa: E402
from e2e_layers import LAYERS  # noqa: E402

ROOT = e2e_worker.ROOT
WORKER = os.path.join(HERE, "e2e_worker.py")

#: untraced repetitions per run at least, so that ``setup_s`` is the
#: median of that many fresh-interpreter set-ups
MIN_REPS = 5
#: untraced/traced repetition pairs per ``--trace 1`` run at least
MIN_TRACE_PAIRS = 3
#: a run starts no repetition once this much time has passed, and no
#: repetition may take longer
HARD_CAP_S = 150.0
#: math libraries run single-threaded, so the numbers measure the program
#: and not how the machine schedules a thread pool
THREAD_PIN = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}
#: self times of a traced repetition must add up to its wall time this
#: closely
RECONCILE_TOLERANCE = 0.01


class RepetitionFailed(RuntimeError):
    """A workload process crashed, hung or printed no report."""


def load_definition() -> Dict:
    with open(os.path.join(ROOT, "BENCHMARK.json")) as fh:
        return json.load(fh)


def child_env() -> Dict[str, str]:
    # the program sees only the generated spec: no REPRO_* tuning knobs,
    # and no import path but its own src/ (the worker adds that)
    env = {key: value for key, value in os.environ.items()
           if not key.startswith("REPRO_") and key != "PYTHONPATH"}
    env.update(THREAD_PIN)
    return env


def run_repetition(workload: str, seed: int, mode: str,
                   run_dir: str) -> Dict:
    """One fresh-process campaign run; its report plus ``setup_s``."""
    store = os.path.join(run_dir, f"{workload}.jsonl")
    start = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, WORKER, workload, str(seed), mode, store],
        cwd=ROOT, env=child_env(), stdout=subprocess.PIPE, text=True)
    try:
        first = ""
        if select.select([proc.stdout], [], [], HARD_CAP_S)[0]:
            first = proc.stdout.readline()
        setup = time.perf_counter() - start
        out, _ = proc.communicate(timeout=max(1.0, HARD_CAP_S - setup))
    except subprocess.TimeoutExpired:
        out = ""
    finally:
        if proc.poll() is None:
            proc.kill()
        proc.wait()
        for path in (store, store + ".torn"):
            if os.path.exists(path):
                os.remove(path)
    lines = out.strip().splitlines()
    if first.strip() != "ready" or proc.returncode != 0 or not lines:
        raise RepetitionFailed(
            f"{workload} seed {seed}: worker exited {proc.returncode} "
            f"after {time.perf_counter() - start:.1f}s without a report")
    report = json.loads(lines[-1])
    report.update(setup_s=setup, traced=mode == "traced")
    return report


def measure(workload: str, seed: int, seconds: float, traced: bool,
            run_dir: str) -> List[Dict]:
    """Closed loop of repetitions for ``seconds``; with ``traced`` the
    repetitions alternate baseline, traced, baseline, ...  Campaign stores
    go to ``run_dir``."""
    reports: List[Dict] = []
    need_plain = MIN_TRACE_PAIRS if traced else MIN_REPS
    need_traced = MIN_TRACE_PAIRS if traced else 0
    begin = time.monotonic()
    while True:
        mode = ("plain" if not traced else
                ("baseline", "traced")[len(reports) % 2])
        started = time.monotonic()
        reports.append(run_repetition(workload, seed, mode, run_dir))
        now = time.monotonic()
        done_traced = sum(r["traced"] for r in reports)
        enough = (len(reports) - done_traced >= need_plain
                  and done_traced >= need_traced)
        if (enough and now - begin >= seconds) or \
                now - begin + (now - started) > HARD_CAP_S:
            return reports


def summarize(workload: str, seed: int, reports: List[Dict],
              definition: Dict, traced: bool) -> Dict:
    """Fold repetition reports into the result: metrics, correctness and
    the samples behind each metric."""
    plain = [r for r in reports if not r["traced"]]
    problems = sorted({p for r in reports for p in r["problems"]})
    digests = sorted({r["digest"] for r in reports})
    if len(digests) > 1:
        problems.append(f"repetitions disagree: {len(digests)} digests")
    expected = e2e_worker.SEED0_DIGESTS.get(workload) if seed == 0 else None
    if expected is not None and digests != [expected]:
        problems.append(f"digest {digests[0][:16]} != seed-0 digest "
                        f"{expected[:16]}")
    samples = {
        "trials_per_s": [r["attempted"] / r["wall_s"] for r in plain],
        "setup_s": [r["setup_s"] for r in plain],
        "peak_rss_mb": [r["peak_rss_mb"] for r in plain],
        "wall_s": [r["wall_s"] for r in plain],
    }
    values = {name: statistics.median(v) for name, v in samples.items()}
    profile = None
    if traced:
        traced_reps = sorted((r for r in reports if r["traced"]),
                             key=lambda r: r["wall_s"])
        rep = traced_reps[len(traced_reps) // 2]
        profile = {"wall_s": rep["wall_s"], "self_s": rep["self_s"],
                   "calls": rep["calls"], "counts": rep["counts"]}
        values.update(layer_metrics(rep))
        values["trace_overhead_share"] = statistics.median(
            r["wall_s"] for r in traced_reps) / values["wall_s"] - 1
        for r in traced_reps:
            if abs(r["self_s"]["other"]) > RECONCILE_TOLERANCE * r["wall_s"]:
                problems.append("layer self times do not add up to the "
                                "traced wall time")
        missing = sorted({target for r in traced_reps
                          for target in r["missing_targets"]})
        if missing:
            print(f"warning: not traced, absent from the program: "
                  f"{', '.join(missing)}", file=sys.stderr)
    metrics = definition["per_layer" if traced else "end_to_end"]
    return {
        "workload": workload,
        "seed": seed,
        "traced": traced,
        "correct": not problems,
        "problems": problems,
        "attempted": sum(r["attempted"] for r in reports),
        "failed": sum(r["failed"] for r in reports),
        "below_bar": sum(r["below_bar"] for r in reports),
        "unsupported": sum(r["unsupported"] for r in reports),
        "repetitions": len(reports),
        "digest": digests[0],
        "metrics": {m["name"]: {"value": values[m["name"]], "unit": m["unit"]}
                    for m in metrics},
        "samples": samples,
        "profile": profile,
    }


def layer_metrics(rep: Dict) -> Dict[str, float]:
    """Per-layer values of one traced repetition, by metric name."""
    out = {f"{layer}.self_s": seconds
           for layer, seconds in rep["self_s"].items()}
    out.update({f"{layer}.calls": rep["calls"].get(layer, 0)
                for layer in LAYERS})
    counts = rep["counts"]
    out.update(counts)
    out["experiments.batched_trials"] = (counts["experiments.rows"]
                                         - counts["experiments.serial_trials"])
    out["cliquesim.rounds"] = rep["rounds"]
    out["cliquesim.bits"] = rep["bits"]
    return out


def print_summary(result: Dict, definition: Dict) -> None:
    """Human-readable block; the JSON line follows it."""
    mode = "traced" if result["traced"] else "untraced"
    print(f"== {result['workload']}  seed {result['seed']}  {mode}  "
          f"{result['repetitions']} repetitions  digest "
          f"{result['digest'][:16]}")
    samples = result["samples"]
    for m in definition["end_to_end"]:
        q1, q2, q3 = quartiles(samples[m["name"]])
        print(f"   {m['name']:<14} {q2:>10.4f} {m['unit']:<9} "
              f"IQR {q1:.4f}..{q3:.4f}  n={len(samples[m['name']])}")
    print(f"   trials: {result['attempted']} attempted, {result['failed']} "
          f"failed, {result['unsupported']} unsupported, "
          f"{result['below_bar']} below the accuracy bar")
    profile = result["profile"]
    if profile:
        wall = profile["wall_s"]
        print(f"   layer profile of the median traced repetition "
              f"({wall:.3f}s):")
        for layer, seconds in profile["self_s"].items():
            print(f"     {layer:<20} {seconds:>8.4f}s {seconds / wall:>6.1%}"
                  f"  calls {profile['calls'].get(layer, 0)}")
        print(f"   counts: {json.dumps(profile['counts'], sort_keys=True)}")
    for problem in result["problems"]:
        print(f"   INCORRECT: {problem}")


def provenance(result: Dict, numpy_version: str) -> Dict:
    return {
        "cpu": cpu_model(),
        "nproc": os.cpu_count(),
        "ram_mb": os.sysconf("SC_PAGE_SIZE") * os.sysconf("SC_PHYS_PAGES")
        // 2 ** 20,
        "python": platform.python_version(),
        "numpy": numpy_version,
        "commit": git_commit(),
        "seed": result["seed"],
        "blas_threads": THREAD_PIN,
        "traced": result["traced"],
    }


def cpu_model() -> str:
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def git_commit() -> Optional[str]:
    """HEAD of the checkout, read from ``.git`` without running git."""
    git = os.path.join(ROOT, ".git")
    try:
        with open(os.path.join(git, "HEAD")) as fh:
            head = fh.read().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        ref_path = os.path.join(git, ref)
        if os.path.exists(ref_path):
            with open(ref_path) as fh:
                return fh.read().strip()
        with open(os.path.join(git, "packed-refs")) as fh:
            for line in fh:
                if line.rstrip().endswith(" " + ref):
                    return line.split()[0]
    except OSError:
        pass
    return None


def append_record(path: str, record: Dict) -> None:
    runs = []
    if os.path.exists(path):
        with open(path) as fh:
            runs = json.load(fh)["runs"]
    runs.append(record)
    tmp = path + ".tmp"
    with open(tmp, "w") as fh:
        json.dump({"runs": runs}, fh, indent=1, sort_keys=True)
    os.replace(tmp, path)


def run_main(args, definition: Dict) -> int:
    if not os.path.isfile(os.path.join(ROOT, "src", "repro", "__init__.py")):
        print(f"error: no program to benchmark under {ROOT}/src",
              file=sys.stderr)
        return 2
    names = (list(e2e_worker.WORKLOADS) if args.workload == "all"
             else [args.workload])
    seconds = (definition["run_seconds"] if args.seconds is None
               else args.seconds)
    traced = bool(args.trace)
    for workload in names:
        started = time.time()
        try:
            with tempfile.TemporaryDirectory(prefix=".e2e-runs-",
                                             dir=ROOT) as run_dir:
                reports = measure(workload, args.seed, seconds, traced,
                                  run_dir)
        except RepetitionFailed as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        result = summarize(workload, args.seed, reports, definition, traced)
        print_summary(result, definition)
        if args.out:
            append_record(args.out, dict(
                result, started_unix=started,
                provenance=provenance(result, reports[0]["numpy"])))
        print(json.dumps({key: result[key] for key in
                          ("correct", "attempted", "failed", "metrics")}),
              flush=True)
    return 0


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        description="End-to-end campaign benchmark (see README.md).")
    parser.add_argument("--workload", default="all",
                        choices=["all"] + list(e2e_worker.WORKLOADS))
    parser.add_argument("--seed", type=int, default=0,
                        help="base_seed of the workload's campaign spec")
    parser.add_argument("--seconds", type=float, default=None,
                        help="measuring time per workload (default: "
                             "run_seconds in BENCHMARK.json)")
    parser.add_argument("--trace", type=int, nargs="?", const=1, default=0,
                        choices=(0, 1),
                        help="1: report per-layer metrics instead")
    parser.add_argument("--out", help="append each run, with provenance, "
                                      "to this result file")
    sub = parser.add_subparsers(dest="command")
    cmp = sub.add_parser("compare", help="judge a change against its parent "
                                         "from two result files")
    cmp.add_argument("parent")
    cmp.add_argument("change")
    args = parser.parse_args(argv)
    definition = load_definition()
    if args.command == "compare":
        return compare_files(args.parent, args.change, definition)
    return run_main(args, definition)


if __name__ == "__main__":
    sys.exit(main())
