"""Checks of the benchmark itself: counters repeat and seeds change inputs.

Run from the root of the repository:

    python3 -m pytest -q perfbench/test_perfbench.py
"""

import pytest

import run
from layers import hessian_density_calls
from tracing import Tracer
from workloads import WORKLOADS


def short_run(name, seed, workdir):
    """One traced op of a workload; the counters that must repeat exactly."""
    tracer = Tracer()
    workload = run.make_workload(name, seed, tracer, workdir=workdir)
    loop = run.timed_loop(workload, 0, tracer)
    counters = {"failed": loop.failed,
                "obj_evals": sum(tracer.per_op(lambda n: n.startswith("scores.")).values()),
                "inf_evals": tracer.counts["inf_evals"],
                "density_calls": tracer.counts["density_calls"]}
    for row in getattr(workload, "rounds", []):
        counters["cli_digests"] = {cmd: v[2] for cmd, v in row.items()}
    return counters


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_counters_repeat_on_one_seed(name, tmp_path):
    first = short_run(name, 3, tmp_path / "a")
    second = short_run(name, 3, tmp_path / "b")
    assert first == second
    assert first["failed"] == 0
    if name == "cli-diagnostics":
        assert len(first["cli_digests"]) == 7
    else:
        assert first["obj_evals"] > 0


def test_hessian_density_calls_repeat():
    calls = hessian_density_calls()
    assert calls > 0
    assert hessian_density_calls() == calls


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_second_seed_changes_inputs(name, tmp_path):
    digests = set()
    for seed in (3, 4):
        workload = run.make_workload(name, seed, workdir=tmp_path)
        digests.add(workload.digest(workload.prepare(1)))
    assert len(digests) == 2
