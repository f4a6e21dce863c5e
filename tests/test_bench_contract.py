"""The benchmark's tracer patches program names from outside the program
(perfbench/tracer.py, WRAP_POINTS), and its gate (perfbench/gate.py) calls
the program's scalar API; a refactor that removes, renames or breaks one
of them would make every benchmark run fail, so resolve them all here,
check the argument positions the tracer's unit counters read, and run the
gate's expectations."""

import importlib.util
import inspect
import json
import math
import sys
from pathlib import Path

import numpy as np
import pytest

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"


def _load(name, path):
    spec = importlib.util.spec_from_file_location(name, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load("perfbench_tracer", PERFBENCH / "tracer.py")


@pytest.mark.parametrize("module,path", [(m, p) for m, p, *_ in tracer.WRAP_POINTS])
def test_wrap_point_resolves(module, path):
    owner, attr = tracer._resolve(module, path)
    assert callable(getattr(owner, attr))


def test_rng_normals_signature():
    # the tracer counts the variates drawn as the fifth positional argument
    from fracsphere.stochastic import RngStream
    params = list(inspect.signature(RngStream.normals).parameters)
    assert params == ["self", "realization", "ell", "role", "n"]


def test_synthesize_calls_traced_legendre_name(monkeypatch):
    # the tracer times the Legendre work as fracsphere.synthesis._norm_assoc_rows
    # and fails a traced simulate run in which that name records no call
    import fracsphere.synthesis as synthesis
    from fracsphere.stochastic import CoefficientSet

    calls = []
    inner = synthesis._norm_assoc_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return inner(*args, **kwargs)

    monkeypatch.setattr(synthesis, "_norm_assoc_rows", counted)
    synthesis.synthesize(CoefficientSet.from_square(np.zeros((5, 5))),
                         synthesis.GridSpec(3, 4))
    assert calls


@pytest.mark.parametrize("curve,sampler", [("truncation_error_curve", "sample_combined"),
                                           ("increment_curve", "sample_combined_pair")])
def test_curves_call_traced_sampler_names(curve, sampler, model05, record_calls):
    # the tracer times the draws as fracsphere.experiments.sample_combined*
    # and the reduction as CoefficientSet.degree_power; a traced run in
    # which a workload's layer records no call fails
    import fracsphere.experiments as experiments
    from fracsphere.stochastic import CoefficientSet

    record_calls(experiments, sampler)
    calls = record_calls(CoefficientSet, "degree_power")
    if curve == "truncation_error_curve":
        experiments.truncation_error_curve(model05, 16, [4, 8], 1e-4, 2, 1)
    else:
        experiments.increment_curve(model05, 8, 2e-5, [1e-6], 2, 1)
    assert sorted(set(calls)) == sorted([sampler, "degree_power"])


@pytest.mark.parametrize("workload", ["trunc-a075", "increments-a050"])
def test_gate_expectation_runs(workload, monkeypatch):
    # the gate's exact expectation calls scalar coefficient_variance,
    # spec.value, ml_neg, sigma_squared, cross_sigma and model_from_config
    gate = _load("gate", PERFBENCH / "gate.py")
    monkeypatch.setitem(sys.modules, "gate", gate)  # run.py imports it by name
    run = _load("perfbench_run", PERFBENCH / "run.py")
    wl = run.WORKLOADS[workload]
    cfg = {**run.MODEL, **wl["config"], **wl["tiny"]}
    rows = gate.curve_expectation(wl["command"], cfg)
    xs = cfg["l_grid"] if wl["command"] == "truncation" else cfg["h_grid"]
    assert [x for x, _, _ in rows] == [float(x) for x in xs]
    assert all(0.0 < mean < math.inf and 0.0 < se < math.inf for _, mean, se in rows)


@pytest.mark.parametrize("workload", [w["name"] for w in json.loads(
    (PERFBENCH.parent / "BENCHMARK.json").read_text())["workloads"]])
def test_workload_calls_its_traced_layers(workload, tmp_path, monkeypatch):
    # a traced benchmark run fails when a layer its workload "uses" records
    # no call; run the workload's tiny config through the CLI with every
    # wrap point counted, from cold law caches as in a fresh process
    from fracsphere import cli, stochastic

    gate = _load("gate", PERFBENCH / "gate.py")
    monkeypatch.setitem(sys.modules, "gate", gate)  # run.py imports it by name
    run = _load("perfbench_run", PERFBENCH / "run.py")
    wl = run.WORKLOADS[workload]
    called = set()
    for module, path, layer, *_ in tracer.WRAP_POINTS:
        owner, attr = tracer._resolve(module, path)

        def recorded(*args, _layer=layer, _inner=getattr(owner, attr), **kwargs):
            called.add(_layer)
            return _inner(*args, **kwargs)
        monkeypatch.setattr(owner, attr, recorded)
    cfg = tmp_path / "config.json"
    cfg.write_text(json.dumps({**run.MODEL, **wl["config"], **wl["tiny"]}))
    stochastic._law.cache_clear()
    assert cli.main([wl["command"], "--config", str(cfg), "--seed", "11",
                     "--out", str(tmp_path / "out")]) == 0
    expected = set(wl["uses"] + run.ALWAYS_USED) - {tracer.ROOT_LAYER}
    assert expected - called == set()
