"""Tests for the benchmark itself: ``python3 -m pytest perfbench`` from the repository root."""

import os

import numpy as np
import pytest

import run
import tracing
import workloads

TINY = {"train_per_task": 64, "test_per_task": 40, "epochs": 1, "eval_k_prime": 4}


@pytest.fixture(scope="module")
def cli():
    return workloads.import_cli(run.ROOT)


@pytest.fixture(scope="module")
def spec():
    return run.load_spec()


class FakeClock:
    def __init__(self, ticks):
        self.ticks = iter(ticks)

    def __call__(self):
        return next(self.ticks)


def test_self_time_on_nested_spans():
    # root [0, 10] > a [1, 4] > b [2, 3]; root > a [5, 9]
    tracer = tracing.Tracer(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 9.0, 10.0]))
    root = tracer.begin("root")
    a = tracer.begin("a")
    with tracer.span("b"):
        pass
    tracer.end(a)
    with tracer.span("a"):
        pass
    tracer.end(root)
    assert tracer.parents == [-1, 0, 1, 0]
    assert tracer.self_times() == [3.0, 2.0, 1.0, 4.0]
    summary = tracer.summary()
    assert summary["a"] == {"calls": 2, "incl_s": 7.0, "self_s": 6.0}
    assert tracing.layer_metric(tracer, "root.s") == 3.0
    assert tracing.layer_metric(tracer, "a.calls") == 2.0
    assert tracing.layer_metric(tracer, "missing.calls") == 0.0


def test_wrappers_are_removed_after_a_traced_run(cli):
    import importlib

    import degm.bounds
    import degm.nn
    import degm.replay
    import degm.vae

    modules = {m: importlib.import_module(f"degm.{m}") for m in tracing.MODULES}
    before = {m: dict(vars(module)) for m, module in modules.items()}
    methods = (degm.nn.Mlp.forward, degm.nn.Mlp.forward_np, degm.bounds.HypothesisSnapshot.reconstruct)
    backward = degm.nn.backward
    tracer = tracing.Tracer()
    with tracing.installed(tracer, "degm") as patched:
        assert patched > 50
        # installed where the caller looks the name up, one wrapper per function
        assert degm.replay.backward is degm.nn.backward is not backward
        assert degm.replay.backward.__wrapped__ is backward
        assert degm.nn.Mlp.forward_np is not methods[1]
        degm.replay.generate_pseudo(degm.vae.build_vae(seed=0), 5, seed=1)
    summary = tracer.summary()
    assert summary["replay.generate_pseudo"]["calls"] == 1
    assert summary["nn.Mlp.forward_np"]["calls"] == 1
    assert summary["vae.build_vae"]["calls"] == 1
    for m, module in modules.items():
        assert all(vars(module)[k] is v for k, v in before[m].items()), m
    assert (degm.nn.Mlp.forward, degm.nn.Mlp.forward_np, degm.bounds.HypothesisSnapshot.reconstruct) == methods


def test_distinct_ratio_on_hand_built_input(cli):
    import degm.bounds
    import degm.rng
    import degm.vae

    snap_a = degm.bounds.HypothesisSnapshot(degm.vae.build_vae(seed=0))
    snap_b = degm.bounds.HypothesisSnapshot(degm.vae.build_vae(seed=0))  # same parameters as a
    x = np.linspace(0.0, 1.0, 4 * 144).reshape(4, 144)
    rows = np.stack([x[0], x[1], x[0], x[0], x[2]])
    tracer = tracing.Tracer()
    with tracing.installed(tracer, "degm"):
        for snap, data in ((snap_a, x), (snap_b, x), (snap_a, x.copy()), (snap_a, x[:2])):
            snap.reconstruct(data)
        degm.rng.content_keyed_normal(rows, 3, "a")
        degm.rng.content_keyed_normal(rows[:2], 3, "b")
    # reconstruct keys: (params, x) three times, (params, x[:2]) once
    assert tracing.layer_metric(tracer, "bounds.HypothesisSnapshot.reconstruct.distinct_ratio") == 2 / 4
    assert tracing.layer_metric(tracer, "bounds.HypothesisSnapshot.reconstruct.rows") == 14
    # noise keys: label "a" has 3 distinct of 5 rows, label "b" 2 distinct of 2
    assert tracing.layer_metric(tracer, "rng.content_keyed_normal.distinct_row_ratio") == 5 / 7
    assert tracing.layer_metric(tracer, "rng.content_keyed_normal.rows") == 7
    assert tracer.summary()["trace.keying"]["calls"] == 6


def test_all_finite(tmp_path):
    good, bad = tmp_path / "good.csv", tmp_path / "bad.csv"
    good.write_text("t,nll\n1,2.5;3.0,abc\n")
    bad.write_text("t,nll\n1,2.5;nan\n")
    assert run.all_finite(str(good))
    assert not run.all_finite(str(bad))


# Layers each workload must exercise (calls > 0) and bypass (calls == 0).
EXERCISED = {
    "gr-bernoulli": ["nn.backward", "replay.run_training", "replay.generate_pseudo", "vae.iw_logpx_np"],
    "degm-tau35-2seeds": ["graph.select_node", "graph.knowledge_novelty", "rng.content_keyed_normal",
                          "graph.evaluate_task", "checkpoint.save_graph"],
    "diagnose-gaussian": ["bounds.lelbo_breakdown", "bounds.HypothesisSnapshot.reconstruct",
                          "checkpoint.load_model", "cli.cmd_diagnose", "replay.generate_pseudo"],
}
BYPASSED = {
    "gr-bernoulli": ["graph.select_node", "rng.content_keyed_normal", "bounds.lelbo_breakdown",
                     "bounds.HypothesisSnapshot.reconstruct"],
    "degm-tau35-2seeds": ["replay.generate_pseudo", "bounds.lelbo_breakdown",
                          "bounds.HypothesisSnapshot.reconstruct"],
    "diagnose-gaussian": ["graph.select_node", "rng.content_keyed_normal", "graph.knowledge_novelty"],
}


@pytest.mark.parametrize("name", workloads.NAMES)
def test_workload_code_path_on_tiny_stream(cli, spec, name):
    scale = dict(TINY)
    if name == "diagnose-gaussian":
        scale["diagnostics"] = {"enabled": True, "sample_size": 32}
    plain = run.repeat(cli, name, 3, scale)
    tracer = tracing.Tracer()
    with tracing.installed(tracer, "degm"):
        traced = run.repeat(cli, name, 3, scale)
    for result in (plain, traced):
        assert "error" not in result, result.get("error")
        assert result["finite"]
    assert traced["digests"] == plain["digests"]
    assert (traced["diagnose_s"] is not None) == (name == "diagnose-gaussian")
    summary = tracer.summary()
    for m in spec["per_layer"]:
        if m["name"] != "trace.overhead_s":
            value = tracing.layer_metric(tracer, m["name"], summary)
            assert np.isfinite(value), m["name"]
            label, field = m["name"].rsplit(".", 1)
            if label in summary and field != "s" and field != "self_s":
                assert value > 0, m["name"]
    for label in EXERCISED[name]:
        assert summary.get(label, {}).get("calls", 0) > 0, label
    for label in BYPASSED[name]:
        assert label not in summary, label
    assert not [p for p in os.listdir(run.TMP_ROOT) if p.startswith(name)]


def test_benchmark_json_matches_harness(spec):
    assert [w["name"] for w in spec["workloads"]] == list(workloads.NAMES)
    assert "setup_s" in {m["name"] for m in spec["end_to_end"]}
    reference = run.load_reference()
    assert set(reference["workloads"]) == set(workloads.NAMES)
