"""The benchmark's own tests: op-list determinism, no repeated program in
a run, and oracles that reject wrong results.

Run from the repository root::

    PYTHONPATH=src python3 -m pytest -q e2ebench
"""

import math
import sys
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parent))

import workloads as W  # noqa: E402
from run import percentile  # noqa: E402

WORKLOADS = ("synth", "exact", "cli-cold")


def program_key(workload, op):
    """What makes two ops the same program."""
    if workload == "synth":
        return repr((op["bench"], sorted(op["params"].items())))
    return op["source"]


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_bytes_other_seed_other_list(workload):
    count = W.MIN_OPS[workload]
    first = W.op_list_bytes(W.make_ops(workload, 7, count))
    assert W.op_list_bytes(W.make_ops(workload, 7, count)) == first
    assert W.op_list_bytes(W.make_ops(workload, 8, count)) != first


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("seed", (1, 2, 3))
def test_no_program_repeats_within_a_run(workload, seed):
    ops = W.make_ops(workload, seed, W.op_count(workload, 60))
    keys = [program_key(workload, op) for op in ops]
    assert len(set(keys)) == len(keys)
    warm_up = {
        "synth": program_key("synth", {"bench": W.SYNTH_WARMUP[0], "params": W.SYNTH_WARMUP[1]}),
        "exact": W._gambler(*W.EXACT_WARMUP),
        "cli-cold": W._cli_source(*W.CLI_WARMUP),
    }[workload]
    assert warm_up not in keys


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tail_percentile_has_ten_samples_beyond(workload):
    n = W.MIN_OPS[workload]
    latencies = [float(i) for i in range(n)]
    tail = percentile(latencies, W.TAIL_PERCENTILE[workload])
    assert sum(x > tail for x in latencies) >= 10


def test_stratified_mix_is_fixed_per_seed():
    for seed in (1, 2):
        benches = [op["bench"] for op in W.make_ops("synth", seed, 40)]
        assert {name: benches.count(name) for name, _ in W.SYNTH_MIX} == dict(W.SYNTH_MIX)


# -- oracles ------------------------------------------------------------------


def test_synth_oracle_rejects_explinsyn_above_hoeffding():
    op = {"bench": "RdAdder", "params": {"deviation": 30}}
    good = {"sec51": -3.8, "sec52": -3.9, "baseline": -3.6}
    assert W.check_synth(op, good, None) == []
    assert W.check_synth(op, dict(good, sec52=-3.7), None)


def test_synth_oracle_rejects_bounds_on_the_wrong_side_of_the_bracket():
    upper_op = {"bench": "1DWalk", "params": {"x0": 20}}
    outcome = {"sec51": -30.0, "sec52": -31.0, "baseline": -10.0}
    assert W.check_synth(upper_op, outcome, (math.exp(-32.0), math.exp(-32.0))) == []
    assert W.check_synth(upper_op, outcome, (math.exp(-30.5), math.exp(-30.5)))
    lower_op = {"bench": "Newton", "params": {"p": "1e-4"}}
    assert W.check_synth(lower_op, {"lower": -0.2}, (0.9, 0.9)) == []
    assert W.check_synth(lower_op, {"lower": -0.05}, (0.9, 0.9))
    assert W.check_synth(lower_op, {"lower": 0.1}, None)


def test_synth_oracle_rejects_a_failed_task():
    op = {"bench": "Rdwalk", "params": {"n": 400}}
    assert W.check_synth(op, {"errors": {"sec52": "infeasible"}}, None)


def test_exact_oracle_rejects_wrong_brackets():
    op = {"analytic": 0.25}
    good = {"lower": 0.25 - 1e-13, "upper": 0.25 + 1e-13, "verified": True, "truncated": False}
    assert W.check_exact(op, good) == []
    assert W.check_exact(op, dict(good, lower=0.26, upper=0.27))  # misses vpf
    assert W.check_exact({"analytic": None}, dict(good, lower=0.3, upper=0.2))
    assert W.check_exact(op, dict(good, verified=False))
    assert W.check_exact(op, dict(good, truncated=True))


def test_cli_oracle_rejects_a_bound_below_the_exact_value():
    out = "upper bound (explinsyn): Pr[violation] <= 1.295e-06\n  solved in 0.03s\n"
    outcome = {"returncode": 0, "stdout": out, "stderr": ""}
    assert W.check_cli({"vpf": 1.2766e-6}, outcome) == []
    assert W.check_cli({"vpf": 1.2955e-6}, outcome) == []  # within print rounding
    assert W.check_cli({"vpf": 1.31e-6}, outcome)
    assert W.check_cli({"vpf": 1e-9}, dict(outcome, returncode=1))
    assert W.check_cli({"vpf": 1e-9}, dict(outcome, stdout=""))


def test_cli_walk_vpf_matches_value_iteration():
    from repro.core.fixpoint import build_sparse_model, iterate_model
    from repro.lang import compile_source

    fair = (4, 9, 40, 20)  # up and down odds equal: vpf = 4 / 10
    for op in W.make_ops("cli-cold", 5, 6) + [{"source": W._cli_source(*fair), "vpf": W._walk_vpf(*fair)}]:
        result = iterate_model(build_sparse_model(compile_source(op["source"]).pts))
        assert result.lower * (1 - 1e-9) <= op["vpf"] <= result.upper * (1 + 1e-9)


def test_printed_bound_formats():
    line = "upper bound (explinsyn): Pr[violation] <= {}"
    assert W.parse_printed_bound(line.format("1.000e-02")) == pytest.approx(-2.0)
    assert W.parse_printed_bound(line.format("3.16e-400")) == pytest.approx(-399.5, abs=1e-3)
    assert W.parse_printed_bound(line.format("1")) == 0.0
    assert W.parse_printed_bound("no bound") is None


def test_metric_names_match_benchmark_json():
    import json

    from layers import Tracer

    spec = json.loads((Path(__file__).resolve().parent.parent / "BENCHMARK.json").read_text())
    layer = set(Tracer().metrics()) | {"cache.bytes", "trace.latency_p50_s"}
    assert {m["name"] for m in spec["per_layer"]} == layer
    assert {m["name"] for m in spec["end_to_end"]} == {
        "latency_p50_s",
        "latency_tail_s",
        "throughput_ops_s",
        "success_ratio",
        "setup_s",
        "peak_rss_mb",
    }
    assert [w["name"] for w in spec["workloads"]] == ["exact", "synth", "cli-cold"]
