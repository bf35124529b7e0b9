"""The benchmark's calls into the package, run once in-process at smoke size.

bench/ drives trapcool through its public API (trapcool.__all__,
trapcool.cli.main, ScenarioConfig). Running each workload's timed unit and
gates here makes a change that breaks that API fail the test suite rather
than a benchmark run. The bench files are imported, never modified.
"""
import importlib.util
import pathlib

import pytest

BENCH = pathlib.Path(__file__).resolve().parents[1] / "bench"
# targets the tracer lists that the package no longer has: the step
# functions folded into HomodyneStepper
KNOWN_ABSENT = {"sme.homodyne_step", "sme.feedback_step"}


def _load(name):
    spec = importlib.util.spec_from_file_location(f"bench_{name}", BENCH / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


workloads = _load("workloads")
tracer = _load("tracer")


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_passes_every_gate_at_smoke_size(name):
    workload = workloads.WORKLOADS[name](0, workloads.SIZES["smoke"])
    undo = None
    if hasattr(workload, "capture"):  # installed the way bench/worker.py installs it
        undo = tracer.patch_everywhere("sme", "run_trajectory", workload.capture)
    try:
        workload.keep(workload.run(0))
    finally:
        if undo is not None:
            undo()
    gates = workload.check()
    failed = {gate: detail for gate, (ok, detail) in gates.results.items() if not ok}
    assert gates.results and failed == {}
    _, n_failed, detail = gates.operations
    assert n_failed == 0, detail


def test_every_traced_target_is_still_present():
    trace = tracer.Tracer("contract")
    trace.install()
    trace.remove()
    assert set(trace.absent) <= KNOWN_ABSENT
