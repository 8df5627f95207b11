"""The benchmark's goldens hold on every pool item of every workload.

``bench/workloads.py`` builds each request's chains and runs it, and
``bench/goldens.py`` compares its summary with the golden recorded for it;
both are read here as they are.  So a drifted continuized time, a flipped
verdict or a changed discrete time fails here, before a benchmark run.  The
bench tracer, read the same way, still sees the layers a report calls.
"""

import importlib.util
import json
import sys
from pathlib import Path

import pytest

import mixbounds
import mixbounds.cli  # noqa: F401  (the requests reach run_cli as mixbounds.cli.run_cli)

BENCH = Path(__file__).resolve().parent.parent / "bench"


def _load(name: str):
    """The bench module ``name``, under a name of its own."""
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    sys.modules[spec.name] = module  # dataclasses look their module up
    spec.loader.exec_module(module)
    return module


workloads, goldens = _load("workloads"), _load("goldens")


@pytest.mark.parametrize("workload", sorted(workloads.WORKLOADS))
def test_pool_items_match_their_goldens(workload, tmp_path):
    requests = workloads.WORKLOADS[workload].pool()
    inputs = workloads.Inputs(requests, tmp_path, mixbounds)
    want = goldens.load(workload)
    for request in requests:
        try:
            got = workloads.summarise(request, workloads.execute(request, inputs, mixbounds))
        except mixbounds.errors.MixboundsError as exc:
            got = {"error": type(exc).__name__}
        assert goldens.differences(want[request.key], json.loads(json.dumps(got))) == [], request.key


def test_the_bench_tracer_sees_a_reports_layers():
    """The tracer wraps each traced function at every mixbounds module
    attribute bound to it, so a report that reads conductance, classify and
    lazy through its module's globals shows each as a span under it."""
    tracer = _load("tracer").Tracer()
    base = mixbounds.random_reversible(12, 1)
    target = mixbounds.lazy(base)
    flow = mixbounds.build_canonical_flow(base, target)
    tracer.install()
    try:
        mixbounds.full_report(base, target, flow)
    finally:
        tracer.uninstall()

    def ancestors(span):
        while span[1] is not None:
            span = tracer.spans[span[1]]
            yield span[0]

    for name in ("spectral.conductance", "chains.classify", "chains.lazy"):
        assert any(span[0] == name and "bounds.full_report" in ancestors(span) for span in tracer.spans), name
