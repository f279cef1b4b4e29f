"""The Table 1 baseline task reuses its row's resolved program.

``table1_baseline`` used to instantiate its benchmark a second time —
recompiling the program and regenerating its interval invariants — only
to read the family and hand ``pts``/``invariants`` to the baseline.  It
now takes them from ``ProgramSpec.resolve()`` (the per-process memo its
sibling row tasks fill) and the family from the registry.  These tests
pin that the bound is bit-identical to the old path and that a row
generates interval invariants exactly once.
"""

import sys

import pytest

import repro.engine.task as task_mod
from repro.core import azuma_baseline, cfnh18_best_bound
from repro.core import invariants as invariants_mod
from repro.engine import AnalysisEngine, SerialScheduler
from repro.experiments.table1 import _deviation_baseline, row_tasks
from repro.programs import FAMILIES, benchmark_family, get_benchmark

#: one row per baseline family of the synth benchmark workload
ROWS = [
    ("RdAdder", dict(deviation=25), "d=25"),
    ("Rdwalk", dict(n=400), "T>400"),
    ("1DWalk", dict(x0=10), "x=10"),
]


def _instantiating_baseline(name, kwargs):
    """The baseline as computed before: through a fresh instance."""
    instance = get_benchmark(name, **kwargs)
    if instance.family == "Deviation":
        return _deviation_baseline(name, kwargs)
    if instance.family == "Concentration":
        return cfnh18_best_bound(instance.pts, instance.invariants, float(kwargs["n"]))
    return azuma_baseline(instance.pts, instance.invariants).log_bound


@pytest.mark.parametrize("name, kwargs, label", ROWS, ids=[r[0] for r in ROWS])
def test_row_generates_invariants_once_and_baseline_is_unchanged(
    name, kwargs, label, monkeypatch
):
    original = invariants_mod.generate_interval_invariants
    calls = []

    def counting(*args, **kw):
        calls.append(args)
        return original(*args, **kw)

    # every module holding its own reference to the generator
    for module_name, module in list(sys.modules.items()):
        if module_name.startswith("repro") and (
            getattr(module, "generate_interval_invariants", None) is original
        ):
            monkeypatch.setattr(module, "generate_interval_invariants", counting)
    # start from an empty resolve memo, as a fresh worker would
    monkeypatch.setattr(task_mod, "_RESOLVE_MEMO", {})

    tasks = row_tasks(name, kwargs, label)
    assert tasks[-1].algorithm == "table1_baseline"
    results = AnalysisEngine(SerialScheduler()).run(tasks)
    assert len(calls) == 1
    baseline = results[tasks[-1].task_id]
    assert baseline.ok
    assert baseline.solver_info == f"{benchmark_family(name)} baseline"
    assert baseline.log_bound == float(_instantiating_baseline(name, kwargs))


def test_registered_family_matches_the_instance():
    # every factory records its family at registration; instantiating a
    # cheap one must report the same family
    assert benchmark_family("RdAdder") == get_benchmark("RdAdder").family
    assert set(FAMILIES.values()) >= {"Deviation", "Concentration", "StoInv"}
