"""Command-line interface: run protocols, sweeps and demos without code.

Usage (after ``pip install -e .``):

    python -m repro run --protocol det-sqrt --n 64 --alpha 0.03125
    python -m repro sweep --protocol det-logn --n 64 --alphas 0.01 0.02 0.04
    python -m repro table1 --n 64
    python -m repro consensus --n 64 --alpha 0.03125
    python -m repro experiment run --campaign table1 --jobs 4
    python -m repro experiment run --campaign table1 --backend vmap
    python -m repro experiment run --campaign table1 --budget-seconds 600
    python -m repro experiment resume --campaign table1
    python -m repro experiment report --store runs/table1.jsonl
    python -m repro experiment watch --store runs/table1.jsonl
    python -m repro experiment list
    python -m repro sched work --shards runs/table1.jsonl.shards
    python -m repro sched status --shards runs/table1.jsonl.shards
    python -m repro store merge --into runs/table1.jsonl
    python -m repro bench --smoke --check
    python -m repro bench --store runs/bench.jsonl
    python -m repro bench trend --store runs/bench.jsonl
    python -m repro trace record --protocol adaptive --out runs/trace.jsonl
    python -m repro trace show runs/trace.jsonl
"""

from __future__ import annotations

import argparse
import sys
import time

from repro.core import AllToAllInstance
from repro.core.alltoall import PROTOCOLS, make_protocol, run_protocol
from repro.core.applications import resilient_consensus
from repro.core.profiles import ProfileError
from repro.experiments.runner import make_adversary
from repro.utils.rng import make_rng


def _run_once(protocol_name: str, n: int, alpha: float, adversary_kind: str,
              bandwidth: int, seed: int, show_phases: bool,
              trace_path=None):
    from repro.obs import tracing
    instance = AllToAllInstance.random(n, width=1, seed=seed)
    protocol = make_protocol(protocol_name)
    adversary = make_adversary(adversary_kind, alpha, seed + 1)
    if trace_path or show_phases:
        with tracing.trace("run", protocol=protocol_name, n=n, alpha=alpha,
                           adversary=adversary_kind, bandwidth=bandwidth,
                           seed=seed) as tracer:
            with tracer.span("run"):
                report = run_protocol(protocol, instance, adversary,
                                      bandwidth=bandwidth, seed=seed + 2)
    else:
        report = run_protocol(protocol, instance, adversary,
                              bandwidth=bandwidth, seed=seed + 2)
    dropped = sum(v for k, v in report.extra.items()
                  if "dropped" in k and isinstance(v, int))
    print(f"protocol={protocol_name} n={n} alpha={alpha:.5f} "
          f"adversary={adversary_kind if alpha > 0 else 'none'}")
    print(f"rounds={report.rounds} bits={report.bits_sent} "
          f"corrupted_in_transit={report.entries_corrupted_in_transit} "
          f"dropped_in_transit={dropped}")
    print(f"accuracy={report.correct_entries}/{n * n} = "
          f"{report.accuracy:.4%}")
    if show_phases:
        print("\nper-phase breakdown:")
        print(tracing.render_summary(tracing.summarize(tracer.events)))
    if trace_path:
        tracer.write_jsonl(trace_path)
        print(f"trace -> {trace_path} ({len(tracer)} events)")
    return report.perfect


def cmd_run(args) -> int:
    ok = _run_once(args.protocol, args.n, args.alpha, args.adversary,
                   args.bandwidth, args.seed, args.phases,
                   trace_path=args.trace)
    return 0 if ok else 1


def cmd_sweep(args) -> int:
    print(f"{'alpha':>10} {'rounds':>7} {'accuracy':>10}")
    for alpha in args.alphas:
        instance = AllToAllInstance.random(args.n, width=1, seed=args.seed)
        try:
            report = run_protocol(
                make_protocol(args.protocol), instance,
                make_adversary(args.adversary, alpha, args.seed + 1),
                bandwidth=args.bandwidth, seed=args.seed + 2)
            print(f"{alpha:>10.5f} {report.rounds:>7} "
                  f"{report.accuracy:>10.4%}")
        except ProfileError as exc:
            print(f"{alpha:>10.5f} {'—':>7} unsupported: {exc}")
    return 0


def cmd_table1(args) -> int:
    settings = {
        "nonadaptive": ("nonadaptive", args.alpha),
        "adaptive": ("adaptive", args.alpha),
        "det-logn": ("adaptive", args.alpha),
        "det-sqrt": ("adaptive", min(args.alpha, 2.0 / args.n)),
    }
    print(f"{'protocol':>12} {'alpha':>9} {'rounds':>7} {'accuracy':>10}")
    status = 0
    for name in PROTOCOLS:
        adversary_kind, alpha = settings[name]
        instance = AllToAllInstance.random(args.n, width=1, seed=args.seed)
        try:
            report = run_protocol(
                make_protocol(name), instance,
                make_adversary(adversary_kind, alpha, args.seed + 1),
                bandwidth=args.bandwidth, seed=args.seed + 2)
            print(f"{name:>12} {alpha:>9.5f} {report.rounds:>7} "
                  f"{report.accuracy:>10.4%}")
        except ProfileError as exc:
            print(f"{name:>12} {alpha:>9.5f} unsupported: {exc}")
            status = 1
    return status


def cmd_consensus(args) -> int:
    rng = make_rng(args.seed)
    inputs = rng.integers(0, 2, size=args.n)
    protocol = make_protocol(args.protocol)
    adversary = make_adversary(args.adversary, args.alpha, args.seed + 1)
    report = resilient_consensus(inputs, protocol, adversary,
                                 bandwidth=args.bandwidth, seed=args.seed)
    print(f"inputs: {int(inputs.sum())} ones / {args.n}")
    print(f"rounds={report.rounds} agreement={report.agreement} "
          f"validity={report.validity}")
    print(f"decision: {int(report.decisions[0])}"
          if report.agreement else f"decisions: {report.decisions}")
    return 0 if report.consensus_reached else 1


def _campaign_from_args(args):
    """Resolve the campaign: named registry entry or a JSON spec file."""
    from repro.experiments import ExperimentSpec, build_campaign
    if getattr(args, "spec", None):
        with open(args.spec, "r", encoding="utf-8") as fh:
            spec = ExperimentSpec.from_json(fh.read())
        return spec.with_overrides(replicates=args.replicates,
                                   base_seed=args.seed_override,
                                   accuracy_bar=args.accuracy_bar)
    return build_campaign(args.campaign, replicates=args.replicates,
                          base_seed=args.seed_override,
                          accuracy_bar=args.accuracy_bar)


def _default_store(spec) -> str:
    return f"runs/{spec.name}.jsonl"


def _run_experiment(args, resume: bool) -> int:
    from repro.experiments import render_report, run_campaign
    spec = _campaign_from_args(args)
    if args.dump_spec:
        print(spec.to_json())
        return 0
    store_path = args.store or _default_store(spec)
    total = spec.size()
    backend = args.backend or ("sharded" if args.jobs > 1 else "serial")
    print(f"campaign {spec.name!r}: {total} trials -> {store_path} "
          f"(backend={backend}, jobs={args.jobs}, resume={resume})")

    start = time.perf_counter()

    def progress(done, pending, row):
        trial = row["trial"]
        elapsed = time.perf_counter() - start
        rate = done / elapsed if elapsed > 0 else 0.0
        remaining = (pending - done) / rate if rate > 0 else None
        eta = (f"eta {int(remaining) // 60}:{int(remaining) % 60:02d}"
               if remaining is not None else "eta --:--")
        print(f"  [{done}/{pending}] {trial['protocol']:>12} "
              f"{trial['adversary']:>13} n={trial['n']:<4} "
              f"alpha={trial['alpha']:<8.5f} r{trial['replicate']} "
              f"-> {row['status']} | {rate:.2f} trials/s | {eta}",
              flush=True)

    policy = None
    if args.timeout is not None or args.retries:
        from repro.faults import ResiliencePolicy
        policy = ResiliencePolicy(timeout_seconds=args.timeout,
                                  retries=args.retries)
    result = run_campaign(spec, store=store_path, jobs=args.jobs,
                          resume=resume, backend=args.backend,
                          policy=policy,
                          budget_seconds=args.budget_seconds,
                          shards=args.shards, lease_ttl=args.lease_ttl,
                          progress=progress if not args.quiet else None)
    print(result)
    print()
    print(render_report(result.rows(), accuracy_bar=spec.accuracy_bar))
    return 1 if result.errors else 0


def cmd_experiment_run(args) -> int:
    return _run_experiment(args, resume=False)


def cmd_experiment_resume(args) -> int:
    return _run_experiment(args, resume=True)


def cmd_experiment_report(args) -> int:
    from repro.experiments import TrialStore, render_report
    store = TrialStore(args.store)
    rows = store.rows()
    trial_rows = [r for r in rows if "trial" in r]
    if not trial_rows:
        print(f"no trial rows in {args.store}")
        return 1
    bar = args.accuracy_bar
    if bar is None:
        # the runner records each campaign's spec alongside its rows;
        # default to the bar the campaign itself declared
        specs = [r["spec"] for r in rows if r.get("kind") == "campaign"]
        bar = specs[-1]["accuracy_bar"] if specs else 1.0
    print(f"{len(trial_rows)} trial rows in {args.store}")
    print()
    print(render_report(trial_rows, accuracy_bar=bar))
    return 0


def cmd_experiment_watch(args) -> int:
    from repro.obs.watch import watch
    return watch(args.store, interval=args.interval, once=args.once)


def cmd_trace_record(args) -> int:
    ok = _run_once(args.protocol, args.n, args.alpha, args.adversary,
                   args.bandwidth, args.seed, show_phases=False,
                   trace_path=args.out)
    return 0 if ok else 1


def cmd_trace_show(args) -> int:
    from repro.obs import tracing
    rows = tracing.load_jsonl(args.path)
    if not rows:
        print(f"no trace events in {args.path}")
        return 1
    summary = tracing.summarize(rows)
    meta = {k: v for k, v in summary.meta.items()
            if k not in ("kind", "t")}
    print(f"trace {args.path}: {len(rows)} events, {meta}")
    print()
    print(tracing.render_summary(summary))
    return 0


def cmd_bench_trend(args) -> int:
    from repro.obs.trend import bench_trends, load_bench_rows, render_trends
    if not args.store:
        print("bench trend requires --store")
        return 2
    trends = bench_trends(load_bench_rows(args.store))
    print(render_trends(trends, factor=args.check_factor))
    if args.check and any(t.regressed(args.check_factor) for t in trends):
        return 1
    return 0


def cmd_bench(args) -> int:
    from repro.perf import (SUITE_FILES, check_regression, load_baseline,
                            run_suite, store_rows, write_results)
    if getattr(args, "action", "run") == "trend":
        return cmd_bench_trend(args)
    from repro.obs import tracing
    if tracing.metrics_enabled():
        print("warning: REPRO_OBS_METRICS is on — benchmark timings "
              "include instrumentation overhead", flush=True)
    suites = sorted(SUITE_FILES) if args.suite == "all" else [args.suite]
    status = 0
    store = None
    if args.store:
        from repro.experiments import TrialStore
        store = TrialStore(args.store)
    for suite in suites:
        baseline = load_baseline(suite, args.out_dir) if args.check else None
        if args.check and baseline is None:
            # a requested gate that cannot run must fail, not pass silently
            print(f"[{suite}] --check requested but no committed baseline "
                  f"({SUITE_FILES[suite]}) in {args.out_dir!r}")
            status = 1

        def progress(name, entry):
            speed = entry.get("speedup")
            tail = f"speedup {speed:>7.2f}x" if speed is not None else \
                f"{entry['batched_items_per_sec']:.1f} {entry['unit']}/s"
            print(f"  [{suite}] {name:<24} "
                  f"{entry['batched_seconds'] * 1e3:>9.2f} ms  {tail}",
                  flush=True)

        print(f"suite {suite!r} ({'smoke' if args.smoke else 'full'} mode):")
        results = run_suite(suite, smoke=args.smoke,
                            progress=None if args.quiet else progress)
        path = write_results(results, args.out_dir)
        print(f"  -> {path}")
        if store is not None:
            rows = store_rows(results)
            store.extend(rows)
            print(f"  -> {len(rows)} rows appended to {args.store}")
        if baseline is not None:
            failures = check_regression(baseline, results,
                                        factor=args.check_factor)
            for failure in failures:
                print(f"  REGRESSION [{suite}] {failure}")
            if failures:
                status = 1
            else:
                print(f"  [{suite}] no regression vs committed baseline "
                      f"(factor {args.check_factor})")
    if store is not None:
        store.close()
    return status


def cmd_sched_work(args) -> int:
    from repro.sched import work
    policy = None
    if args.timeout is not None or args.retries:
        from repro.faults import ResiliencePolicy
        policy = ResiliencePolicy(timeout_seconds=args.timeout,
                                  retries=args.retries)

    def progress(shard_id, row):
        print(f"  [{shard_id}] {row['hash']} -> {row['status']}", flush=True)

    stats = work(args.shards, owner=args.owner, policy=policy,
                 lease_ttl=args.ttl,
                 progress=None if args.quiet else progress)
    if not args.quiet:
        print(stats)
    return 0


def cmd_sched_status(args) -> int:
    from repro.sched import ShardLayout
    layout = ShardLayout.load(args.shards)
    states = layout.states()
    done = sum(1 for s in states if s["state"] == "done")
    print(f"campaign {layout.campaign!r}: {len(states)} shard(s), "
          f"{done} done")
    for state in states:
        extra = ""
        if state["state"] == "leased":
            extra = (f"  owner={state['owner']} pid={state['pid']}"
                     f"{' (EXPIRED)' if state['expired'] else ''}")
        print(f"  shard-{state['id']}  {state['trials']:>4} trials  "
              f"{state['state']:<7}{extra}")
    return 0 if done == len(states) else 1


def cmd_store_merge(args) -> int:
    from repro.sched import discover_shard_sources, merge_stores
    sources = args.sources or discover_shard_sources(args.into)
    if not sources:
        print(f"no sources given and no shard stores found next to "
              f"{args.into}")
        return 1
    report = merge_stores(args.into, sources, compact=not args.no_compact)
    print(report)
    return 0


def cmd_experiment_list(args) -> int:
    from repro.experiments import ADVERSARIES, build_campaign, campaign_names
    print("registered campaigns:")
    for name in campaign_names():
        spec = build_campaign(name)
        print(f"  {name:>18}  {spec.size():>4} trials  "
              f"(replicates={spec.replicates}, "
              f"bar={spec.accuracy_bar:.0%})")
    print("\nadversary kinds:")
    for kind, blurb in sorted(ADVERSARIES.items()):
        print(f"  {kind:>18}  {blurb}")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description="Resilient all-to-all communication under mobile "
                    "bounded-degree Byzantine edge adversaries "
                    "(Fischer & Parter, PODC 2025)")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--n", type=int, default=64)
        p.add_argument("--alpha", type=float, default=1 / 32)
        p.add_argument("--adversary", choices=("adaptive", "nonadaptive"),
                       default="adaptive")
        p.add_argument("--bandwidth", type=int, default=32)
        p.add_argument("--seed", type=int, default=0)

    run = sub.add_parser("run", help="one protocol execution")
    run.add_argument("--protocol", choices=sorted(PROTOCOLS),
                     default="det-sqrt")
    run.add_argument("--phases", action="store_true",
                     help="print the per-phase round breakdown")
    run.add_argument("--trace", default=None, metavar="PATH",
                     help="record a structured JSONL trace of the run")
    common(run)
    run.set_defaults(func=cmd_run)

    sweep = sub.add_parser("sweep", help="alpha sweep for one protocol")
    sweep.add_argument("--protocol", choices=sorted(PROTOCOLS),
                       default="det-logn")
    sweep.add_argument("--alphas", type=float, nargs="+",
                       default=[1 / 64, 1 / 32, 3 / 64])
    common(sweep)
    sweep.set_defaults(func=cmd_sweep)

    table1 = sub.add_parser("table1", help="all four protocols side by side")
    common(table1)
    table1.set_defaults(func=cmd_table1)

    consensus = sub.add_parser("consensus",
                               help="resilient binary consensus demo")
    consensus.add_argument("--protocol", choices=sorted(PROTOCOLS),
                           default="det-sqrt")
    common(consensus)
    consensus.set_defaults(func=cmd_consensus)

    experiment = sub.add_parser(
        "experiment", help="declarative parallel campaigns "
        "(run | resume | report | list)")
    esub = experiment.add_subparsers(dest="experiment_command", required=True)

    def campaign_args(p):
        p.add_argument("--campaign", default="table1",
                       help="registered campaign name (see 'experiment list')")
        p.add_argument("--spec", default=None,
                       help="path to an ExperimentSpec JSON file "
                            "(overrides --campaign)")
        p.add_argument("--store", default=None,
                       help="JSONL artifact store (default runs/<name>.jsonl)")
        p.add_argument("--jobs", type=int, default=1,
                       help="local worker processes: above 1 the default "
                            "backend is the local sharded fleet with this "
                            "many workers; 1 runs inline unless --backend "
                            "sharded")
        p.add_argument("--backend",
                       choices=("serial", "vmap", "sharded"),
                       default=None,
                       help="execution backend (default: sharded when "
                            "--jobs > 1, else serial; vmap batches each "
                            "campaign cell into one tensor program; sharded "
                            "partitions trials into leased shards drained "
                            "by --jobs worker subprocesses that batch each "
                            "cell — extra hosts can join via "
                            "'repro sched work')")
        p.add_argument("--replicates", type=int, default=None)
        p.add_argument("--seed", dest="seed_override", type=int, default=None)
        p.add_argument("--accuracy-bar", type=float, default=None)
        p.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-trial wall-clock budget; a trial past it "
                            "records an error row (and retries, if any)")
        p.add_argument("--retries", type=int, default=0,
                       help="re-run crashed/timed-out trials up to this "
                            "many times (retries reuse the trial's derived "
                            "seeds, so recovered rows are bit-identical)")
        p.add_argument("--budget-seconds", type=float, default=None,
                       metavar="SEC",
                       help="wall-clock budget for the whole invocation; "
                            "trials not reached at the deadline are "
                            "recorded as explicit 'skipped' rows (a later "
                            "resume re-runs them)")
        p.add_argument("--shards", type=int, default=None,
                       help="sharded backend: shard count (default "
                            "4 per --jobs worker)")
        p.add_argument("--lease-ttl", type=float, default=None, metavar="SEC",
                       help="sharded backend: lease heartbeat ttl; a worker "
                            "silent past it is presumed dead and its shard "
                            "is reclaimed")
        p.add_argument("--quiet", action="store_true",
                       help="suppress per-trial progress lines")
        p.add_argument("--dump-spec", action="store_true",
                       help="print the expanded spec JSON and exit")

    erun = esub.add_parser("run", help="execute a campaign from scratch")
    campaign_args(erun)
    erun.set_defaults(func=cmd_experiment_run)

    eresume = esub.add_parser(
        "resume", help="execute only trials missing from the store")
    campaign_args(eresume)
    eresume.set_defaults(func=cmd_experiment_resume)

    ereport = esub.add_parser("report", help="aggregate a result store")
    ereport.add_argument("--store", required=True)
    ereport.add_argument("--accuracy-bar", type=float, default=None,
                         help="threshold bar (default: the bar recorded by "
                              "the campaign that filled the store)")
    ereport.set_defaults(func=cmd_experiment_report)

    ewatch = esub.add_parser(
        "watch", help="live progress of a campaign by tailing its store")
    ewatch.add_argument("--store", required=True)
    ewatch.add_argument("--interval", type=float, default=2.0,
                        help="seconds between snapshots")
    ewatch.add_argument("--once", action="store_true",
                        help="print one snapshot and exit (scripting/CI)")
    ewatch.set_defaults(func=cmd_experiment_watch)

    elist = esub.add_parser("list", help="list campaigns and adversaries")
    elist.set_defaults(func=cmd_experiment_list)

    sched = sub.add_parser(
        "sched", help="sharded campaign scheduler (work | status)")
    ssub = sched.add_subparsers(dest="sched_command", required=True)

    swork = ssub.add_parser(
        "work", help="run the worker loop on a shard directory (any host "
        "that can see the directory can join the fleet)")
    swork.add_argument("--shards", required=True, metavar="DIR",
                       help="shard directory (<store>.shards, created by "
                            "the sharded backend)")
    swork.add_argument("--owner", default=None,
                       help="lease owner id (default <pid>@<host>)")
    swork.add_argument("--ttl", type=float, default=30.0, metavar="SEC",
                       help="lease heartbeat ttl")
    swork.add_argument("--timeout", type=float, default=None, metavar="SEC",
                       help="per-trial wall-clock budget")
    swork.add_argument("--retries", type=int, default=0)
    swork.add_argument("--quiet", action="store_true",
                       help="print nothing: no per-trial lines, no "
                            "closing summary")
    swork.set_defaults(func=cmd_sched_work)

    sstatus = ssub.add_parser(
        "status", help="one-shot shard/lease state of a shard directory "
        "(exit 0 when all shards are done)")
    sstatus.add_argument("--shards", required=True, metavar="DIR")
    sstatus.set_defaults(func=cmd_sched_status)

    store_cmd = sub.add_parser(
        "store", help="artifact-store maintenance (merge)")
    stsub = store_cmd.add_subparsers(dest="store_command", required=True)

    smerge = stsub.add_parser(
        "merge", help="merge/compact stores with duplicate-hash precedence "
        "(ok/unsupported > error > skipped; freshest among equals)")
    smerge.add_argument("--into", required=True, metavar="STORE",
                        help="target store file")
    smerge.add_argument("sources", nargs="*",
                        help="source stores (default: the target's own "
                             "shard stores in <store>.shards/)")
    smerge.add_argument("--no-compact", action="store_true",
                        help="append missing/upgraded rows instead of "
                             "rewriting the target as one row per hash")
    smerge.set_defaults(func=cmd_store_merge)

    trace = sub.add_parser(
        "trace", help="structured protocol traces (record | show)")
    tsub = trace.add_subparsers(dest="trace_command", required=True)

    trecord = tsub.add_parser("record",
                              help="run a protocol with tracing enabled")
    trecord.add_argument("--protocol", choices=sorted(PROTOCOLS),
                         default="det-sqrt")
    trecord.add_argument("--out", default="runs/trace.jsonl",
                         help="JSONL trace output path")
    common(trecord)
    trecord.set_defaults(func=cmd_trace_record)

    tshow = tsub.add_parser("show",
                            help="pretty-print / aggregate a recorded trace")
    tshow.add_argument("path", help="trace JSONL file")
    tshow.set_defaults(func=cmd_trace_show)

    bench = sub.add_parser(
        "bench", help="payload-path microbenchmarks "
        "(batched kernels vs frozen per-word references)")
    bench.add_argument("action", nargs="?", choices=("run", "trend"),
                       default="run",
                       help="'run' executes the suites (default); 'trend' "
                            "reports speedup-over-time from a --store file")
    bench.add_argument("--suite", choices=("coding", "network", "all"),
                       default="all")
    bench.add_argument("--smoke", action="store_true",
                       help="small sizes for CI (seconds instead of minutes)")
    bench.add_argument("--out-dir", default=".",
                       help="directory holding the BENCH_*.json artifacts")
    bench.add_argument("--check", action="store_true",
                       help="fail if any speedup regressed more than "
                            "--check-factor vs the committed baseline")
    bench.add_argument("--check-factor", type=float, default=2.0)
    bench.add_argument("--store", default=None,
                       help="append one row per benchmark to this "
                            "experiments-store JSONL (e.g. runs/bench.jsonl) "
                            "so perf trajectories are queryable like trials")
    bench.add_argument("--quiet", action="store_true")
    bench.set_defaults(func=cmd_bench)
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
