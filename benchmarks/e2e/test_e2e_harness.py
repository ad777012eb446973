"""Checks on the end-to-end benchmark's own machinery: span accounting,
runtime patching, and the metric names a run emits."""

import os
import sys

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import e2e_layers  # noqa: E402
import e2e_worker  # noqa: E402
import run  # noqa: E402
from e2e_layers import Patcher, Tracer  # noqa: E402


def test_self_times_of_nested_spans_sum_to_wall_time():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def work(seconds):
        now[0] += seconds

    def innermost():
        work(3.0)

    def inner():
        work(2.0)
        wrapped_innermost()

    def outer():
        work(1.0)
        wrapped_inner()
        wrapped_inner()
        work(0.5)

    # innermost shares outer's layer: a same-layer span nested in another
    wrapped_innermost = tracer.wrap(innermost, "experiments")
    wrapped_inner = tracer.wrap(inner, "coding")
    wrapped_outer = tracer.wrap(outer, "experiments")

    start = now[0]
    wrapped_outer()
    wall = now[0] - start
    assert wall == 11.5
    assert tracer.self_s["coding"] == 4.0
    assert tracer.self_s["experiments"] == 7.5
    assert tracer.calls["experiments"] == 3 and tracer.calls["coding"] == 2
    profile = e2e_layers.profile(tracer, wall + 0.25)
    assert profile["other"] == 0.25
    assert sum(profile.values()) == wall + 0.25


def test_a_raising_call_still_closes_its_span():
    now = [0.0]
    tracer = Tracer(clock=lambda: now[0])

    def fail():
        now[0] += 1.0
        raise ValueError("no code")

    wrapped = tracer.wrap(fail, "core.profiles", e2e_layers._search)
    try:
        wrapped()
    except ValueError:
        pass
    assert tracer.self_s["core.profiles"] == 1.0
    assert tracer.counts["core.profiles.failed_searches"] == 1
    assert not tracer._stack


def _function_targets():
    return [(module, name) for _, module, names, _ in e2e_layers.FUNCTIONS
            for name in names]


def test_patching_reaches_every_alias_and_restores_the_originals():
    e2e_worker.import_program()
    e2e_layers.import_all()
    import repro.adversary as adversary
    import repro.adversary.adaptive as adaptive
    import repro.cliquesim.batched as batched
    import repro.core.profiles as profiles
    import repro.core.vmapped as vmapped
    from repro.adversary.adaptive import AdaptiveAdversary
    from repro.faults.channels import BatchedIIDEdgeChannel

    originals = {target: getattr(sys.modules[target[0]], target[1])
                 for target in _function_targets()}
    greedy = adversary.budget.greedy_symmetric_selection
    select_edges = AdaptiveAdversary.__dict__["select_edges"]
    patcher = Patcher(Tracer()).install()
    try:
        assert patcher.missing == []
        assert adaptive.greedy_symmetric_selection.__wrapped__ is greedy
        assert adversary.greedy_symmetric_selection is \
            adaptive.greedy_symmetric_selection
        assert hasattr(batched.validate_fault_sets, "__wrapped__")
        assert hasattr(profiles.best_effort_linear_code, "__wrapped__")
        assert vmapped.best_effort_linear_code is \
            profiles.best_effort_linear_code
        assert AdaptiveAdversary.select_edges.__wrapped__ is select_edges
        assert hasattr(BatchedIIDEdgeChannel.select_edges_many, "__wrapped__")
        leftovers = [
            f"{mod_name}.{attr}"
            for mod_name, mod in list(sys.modules.items())
            if mod_name.startswith("repro")
            for attr, value in vars(mod).items()
            if any(value is original for original in originals.values())]
        assert leftovers == []
    finally:
        patcher.restore()
    for (module, name), original in originals.items():
        assert getattr(sys.modules[module], name) is original
    assert adaptive.greedy_symmetric_selection is greedy
    assert AdaptiveAdversary.__dict__["select_edges"] is select_edges
    assert not hasattr(BatchedIIDEdgeChannel.select_edges_many,
                       "__wrapped__")


def test_worker_path_emits_every_metric_in_benchmark_json():
    e2e_worker.import_program()
    from repro.experiments import build_campaign

    definition = run.load_definition()
    reports = []
    for mode in ("baseline", "traced"):
        report = e2e_worker.run_repetition(build_campaign("smoke"), None,
                                           mode)
        report.update(setup_s=0.1, traced=mode == "traced")
        reports.append(report)
    assert reports[0]["digest"] == reports[1]["digest"]
    for traced, section in ((False, "end_to_end"), (True, "per_layer")):
        result = run.summarize("smoke", 0, reports, definition, traced)
        assert result["correct"], result["problems"]
        assert result["failed"] == 0
        names = [metric["name"] for metric in definition[section]]
        assert list(result["metrics"]) == names
        for value in result["metrics"].values():
            assert isinstance(value["value"], (int, float))
