"""End-to-end benchmark of the repro analysis stack.

Usage (from the repository root)::

    python3 e2ebench/run.py --workload synth|exact|cli-cold --seed N \\
        [--seconds S] [--trace 0|1]

Each run generates the workload's op list from ``--seed``, sets up, runs
every op once, closed loop with one client, checks every op's output with
an untimed oracle and prints one JSON line last:
``{"correct", "attempted", "failed", "metrics"}``.  With ``--trace 0`` the
metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones
(see ``e2ebench/README.md``).  The program is driven only through its
public functions (``synth``, ``exact``) or its command line (``cli-cold``).
"""

import os

# one BLAS/OpenMP thread for this process and its children, set before
# numpy is first imported: threads that spin double CPU time on 2 CPUs
os.environ["OPENBLAS_NUM_THREADS"] = "1"
os.environ["OMP_NUM_THREADS"] = "1"

import argparse  # noqa: E402
import json  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import time  # noqa: E402
from pathlib import Path  # noqa: E402

_START = time.perf_counter()
BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
SCRATCH = ROOT / ".e2ebench_tmp"
WORKLOADS = ("synth", "exact", "cli-cold")
#: set-ups per run whose median is ``setup_s``
SETUP_SAMPLES = 3
#: time of :func:`host_loop` on the reference host (a 2-CPU Xeon VM at its
#: fastest); every timed interval is scaled to this host speed
REF_LOOP_S = 0.007

import workloads as W  # noqa: E402


def percentile(values, q):
    """Linear interpolation between order statistics (numpy's default)."""
    data = sorted(values)
    pos = (len(data) - 1) * q / 100
    lo = int(pos)
    hi = min(lo + 1, len(data) - 1)
    return data[lo] + (data[hi] - data[lo]) * (pos - lo)


def host_loop():
    """Seconds taken by a fixed pure-Python loop that uses no program code.

    The hosts this benchmark runs on share their CPUs: the same op list
    runs up to 1.5x slower from one minute to the next, and the two CPUs
    of a VM can differ at the same moment.  The loop runs right before and
    right after every timed interval, on the CPU the interval runs on (see
    :func:`main`), and :func:`host_scale` turns the interval into
    reference-host seconds.  That cancels the host's speed at that moment
    and keeps the program's own speed.
    """
    chunks = []
    for _ in range(5):
        start = time.perf_counter()
        acc, table = 0, {}
        for i in range(12_000):
            acc += i * i % 7
            table[i & 255] = acc
        chunks.append(time.perf_counter() - start)
    # the median chunk ignores an interrupt that lands in one of them
    return 5 * statistics.median(chunks)


def host_scale(before, after):
    """Factor from wall seconds to reference-host seconds for an interval
    with host loops timed right before and right after it."""
    return 2 * REF_LOOP_S / (before + after)


def child_env():
    return dict(os.environ, PYTHONPATH=str(SRC), TMPDIR=str(SCRATCH))


# ---------------------------------------------------------------------------
# set-up: imports, then one warm-up op outside the op list


class Synth:
    def __init__(self, run_dir):
        from repro.engine import AnalysisEngine, ResultCache, SerialScheduler

        self.cache_dir = Path(run_dir) / "cache"
        self.engine = AnalysisEngine(SerialScheduler(), ResultCache(self.cache_dir))

    def warm_up(self):
        name, params = W.SYNTH_WARMUP
        self.run({"bench": name, "params": params})

    def run(self, op):
        from repro.engine import AnalysisTask, ProgramSpec
        from repro.experiments.table1 import row_tasks

        name, params = op["bench"], op["params"]
        if name in W.TABLE2:
            tasks = [AnalysisTask.make("explowsyn", ProgramSpec.benchmark(name, **params), task_id="op/lower")]
        else:
            tasks = row_tasks(name, params, "op")
        results = self.engine.run(tasks)
        outcome, errors = {}, {}
        for task in tasks:
            part = task.task_id.rsplit("/", 1)[1]
            result = results[task.task_id]
            if result.ok:
                outcome[part] = result.log_bound
            else:
                errors[part] = result.error
        if errors:
            outcome["errors"] = errors
        return outcome

    def check(self, op, outcome):
        bracket = None
        if op["bench"] in W.SYNTH_EXPLORABLE and "errors" not in outcome:
            from repro.core.fixpoint import build_sparse_model, iterate_model
            from repro.engine import ProgramSpec

            pts, _ = ProgramSpec.benchmark(op["bench"], **op["params"]).resolve()
            model = build_sparse_model(pts, max_states=50_000)
            if not model.truncated:
                result = iterate_model(model)
                bracket = (result.lower, result.upper)
        return W.check_synth(op, outcome, bracket)

    def close(self):
        self.engine.close()


class Exact:
    """Imports happen in the warm-up op."""

    def __init__(self, run_dir):
        pass

    def warm_up(self):
        self.run({"name": "warm-up", "source": W._gambler(*W.EXACT_WARMUP), "integer_mode": True})

    def run(self, op):
        from repro.core.fixpoint import build_sparse_model, iterate_model
        from repro.core.runcert import emit_run_certificate, verify_run_certificate
        from repro.lang import compile_source

        compiled = compile_source(op["source"], integer_mode=op["integer_mode"], name=op["name"])
        model = build_sparse_model(compiled.pts, max_states=W.EXACT_MAX_STATES, explore="auto")
        result = iterate_model(model)
        certificate = emit_run_certificate(
            compiled.pts,
            model,
            result,
            max_states=W.EXACT_MAX_STATES,
            explore="auto",
            name=op["name"],
            source=op["source"],
            integer_mode=op["integer_mode"],
        )
        report = verify_run_certificate(certificate)
        return {
            "lower": result.lower,
            "upper": result.upper,
            "truncated": result.truncated,
            "verified": report.ok,
        }

    def check(self, op, outcome):
        return W.check_exact(op, outcome)

    def close(self):
        pass


class CliCold:
    def __init__(self, run_dir):
        self.run_dir = Path(run_dir)
        self.tracer = None

    def warm_up(self):
        """One cold CLI run outside the op list; in a fresh checkout the
        first one also writes the bytecode caches."""
        self.run({"name": "warm-up", "source": W._cli_source(*W.CLI_WARMUP)})

    def run(self, op):
        path = self.run_dir / f"{op['name']}.prob"
        path.write_text(op["source"])
        argv = [sys.executable]
        if self.tracer is not None:
            argv += ["-X", "importtime"]
        argv += ["-m", "repro", "analyze", path.name]
        proc = subprocess.run(
            argv, cwd=self.run_dir, env=child_env(), capture_output=True, text=True, timeout=170
        )
        return {"returncode": proc.returncode, "stdout": proc.stdout, "stderr": proc.stderr}

    def trace_child(self, outcome):
        """Child-side layer times: imports (``-X importtime``, top-level
        entries) and the solve time the CLI prints."""
        imports_us = 0
        for line in outcome["stderr"].splitlines():
            if line.startswith("import time:") and "|" in line:
                _, cumulative, name = line[len("import time:"):].split("|")
                if cumulative.strip().isdigit() and not name.startswith("  "):
                    imports_us += int(cumulative)
        self.tracer.record("cli.import", imports_us / 1e6)
        for line in outcome["stdout"].splitlines():
            if "solved in " in line:
                self.tracer.record("cli.solve", float(line.split("solved in ")[1].split("s")[0]))

    def check(self, op, outcome):
        return W.check_cli(op, outcome)

    def close(self):
        pass


RUNNERS = {"synth": Synth, "exact": Exact, "cli-cold": CliCold}


def setup_probe(workload):
    """Seconds of one set-up in a fresh interpreter (see :func:`main`)."""
    proc = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload, "--setup-probe"],
        cwd=ROOT,
        env=child_env(),
        capture_output=True,
        text=True,
        timeout=170,
    )
    if proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed: {proc.stderr[-500:]}")
    return float(proc.stdout.strip().splitlines()[-1])


# ---------------------------------------------------------------------------


def environment_record(args, ops):
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "ops": len(ops),
        "op_list_sha256": W.op_list_sha256(ops),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
        "OMP_NUM_THREADS": os.environ["OMP_NUM_THREADS"],
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
    }


def measure(args, run_dir, started):
    # set-up: SETUP_SAMPLES - 1 fresh interpreters, then this process
    samples = []
    for _ in range(SETUP_SAMPLES - 1):
        before = host_loop()
        seconds = setup_probe(args.workload)
        samples.append(seconds * host_scale(before, host_loop()))
    before = host_loop()
    setup_start = time.perf_counter()
    runner = RUNNERS[args.workload](run_dir)
    tracer = None
    if args.trace:
        from layers import Tracer

        tracer = Tracer().install()
        runner.tracer = tracer
    try:
        runner.warm_up()
        seconds = started + time.perf_counter() - setup_start
        samples.append(seconds * host_scale(before, host_loop()))
        ops = W.make_ops(args.workload, args.seed, W.op_count(args.workload, args.seconds))
        latencies, scales, failures = [], [], []
        for op in ops:
            before = host_loop()
            if tracer is not None:
                tracer.begin_op()
            start = time.perf_counter()
            outcome = runner.run(op)
            latencies.append(time.perf_counter() - start)
            scales.append(host_scale(before, host_loop()))
            if tracer is not None:
                if args.workload == "cli-cold":
                    runner.trace_child(outcome)
                tracer.end_op()
            errors = runner.check(op, outcome)
            if errors:
                failures.append((op, errors))
    finally:
        runner.close()
        if tracer is not None:
            tracer.uninstall()
    who = resource.RUSAGE_CHILDREN if args.workload == "cli-cold" else resource.RUSAGE_SELF
    return {
        "ops": ops,
        "latencies": latencies,
        "scales": scales,
        "failures": failures,
        "setup": samples,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "tracer": tracer,
        "cache_bytes": sum(f.stat().st_size for f in Path(run_dir).rglob("*") if f.is_file())
        if args.workload == "synth"
        else 0,
    }


def main(argv=None):
    # a set-up is this script's own imports plus the runner's imports and
    # warm-up; interpreter start-up before the first line is not included
    started = time.perf_counter() - _START
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)

    if not (SRC / "repro" / "__init__.py").is_file():
        print(f"error: no program source at {SRC}/repro", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    # one CPU for this process and its children, so the host loop times
    # the CPU that the timed work then runs on
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    SCRATCH.mkdir(exist_ok=True)
    run_dir = tempfile.mkdtemp(dir=SCRATCH)
    tempfile.tempdir = run_dir
    try:
        if args.setup_probe:
            setup_start = time.perf_counter()
            runner = RUNNERS[args.workload](run_dir)
            runner.warm_up()
            runner.close()
            print(started + time.perf_counter() - setup_start)
            return 0
        run = measure(args, run_dir, started)
    finally:
        shutil.rmtree(run_dir, ignore_errors=True)

    ops, raw, failures = run["ops"], run["latencies"], run["failures"]
    lat = [t * scale for t, scale in zip(raw, run["scales"])]
    tail_q = W.TAIL_PERCENTILE[args.workload]
    tail = percentile(lat, tail_q)
    beyond = sum(x > tail for x in lat)
    end_to_end = {
        "latency_p50_s": (percentile(lat, 50), "s"),
        "latency_tail_s": (tail, "s"),
        "throughput_ops_s": (len(lat) / sum(lat), "1/s"),
        "success_ratio": ((len(ops) - len(failures)) / len(ops), "ratio"),
        "setup_s": (statistics.median(run["setup"]), "s"),
        "peak_rss_mb": (run["peak_rss_mb"], "MB"),
    }
    for op, errors in failures:
        print(f"FAILED {json.dumps(op)[:200]}: {'; '.join(errors)}")
    print(f"record {json.dumps(environment_record(args, ops), sort_keys=True)}")
    print(
        f"latency_tail_s is p{tail_q} of {len(lat)} ops ({beyond} beyond it); "
        f"setup_s is the median of {run['setup']}"
    )
    print(
        f"times are scaled to the reference host speed: host loop median "
        f"{REF_LOOP_S / statistics.median(run['scales']) * 1e3:.3f} ms, reference "
        f"{REF_LOOP_S * 1e3:.3f} ms; unscaled p50 {percentile(raw, 50):.6f} s, "
        f"p{tail_q} {percentile(raw, tail_q):.6f} s, {len(raw) / sum(raw):.6f} ops/s"
    )
    for name, (value, unit) in end_to_end.items():
        print(f"{name:<18} {value:12.6f} {unit}")
    if args.trace:
        layer = run["tracer"].metrics(run["scales"])
        layer["cache.bytes"] = run["cache_bytes"]
        layer["trace.latency_p50_s"] = end_to_end["latency_p50_s"][0]
        metrics = {name: {"value": value, "unit": layer_unit(name)} for name, value in layer.items()}
    else:
        metrics = {name: {"value": value, "unit": unit} for name, (value, unit) in end_to_end.items()}
    print(
        json.dumps(
            {
                "correct": not failures,
                "attempted": len(ops),
                "failed": len(failures),
                "metrics": metrics,
            }
        )
    )
    return 0


def layer_unit(name):
    if name.endswith("_s"):
        return "s"
    if name.endswith("_ratio"):
        return "ratio"
    if name == "cache.bytes":
        return "bytes"
    return "count"


if __name__ == "__main__":
    sys.exit(main())
