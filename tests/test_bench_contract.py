"""The benchmark's tracer patches program names from outside the program
(perfbench/tracer.py, WRAP_POINTS); a refactor that removes or renames one
of them would make every benchmark run fail, so resolve them all here, and
check the argument positions its unit counters read."""

import importlib.util
import inspect
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def _load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


tracer = _load_tracer()


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
    synthesis.synthesize(CoefficientSet.zeros(4), synthesis.GridSpec(3, 4))
    assert calls
