"""Run-to-run steadiness of the benchmark's metrics.

Runs ``e2ebench/run.py`` once per seed (and ``--repeat`` times per seed)
and prints, for every metric, the median, the quartiles, the quartile
spread as a share of the median (the figure a benchmark bound must
exceed), and the max/min ratio::

    python3 e2ebench/steadiness.py --workload exact --seeds 1-5 [--trace 1]

With ``--trace 1 --repeat 2`` it also reports whether every per-layer
count repeats exactly across runs of the same seed.  With
``--overhead`` it runs each seed untraced and traced and prints the
tracing overhead: traced median op latency minus untraced median.
"""

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

RUN = Path(__file__).resolve().parent / "run.py"


def parse_seeds(text):
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def run_once(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(RUN), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        capture_output=True,
        text=True,
        timeout=600,
    )
    if proc.returncode != 0:
        raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}\n{proc.stderr[-2000:]}")
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    if not result["correct"]:
        print(proc.stdout, file=sys.stderr)
    return result


def summarize(results):
    names = list(results[0]["metrics"])
    print(f"{'metric':<30} {'median':>12} {'q1':>12} {'q3':>12} {'iqr/med':>8} {'max/min':>8}")
    for name in names:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
        spread = (q3 - q1) / med if med else 0.0
        ratio = max(values) / min(values) if min(values) > 0 else float("nan")
        unit = results[0]["metrics"][name]["unit"]
        print(f"{name:<30} {med:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.3f} {ratio:8.3f}  {unit}")
    failed = sum(r["failed"] for r in results)
    print(f"runs={len(results)} failed ops={failed} all correct={all(r['correct'] for r in results)}")


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-5", help="e.g. 1-10 or 3,7")
    parser.add_argument("--seconds", type=float, default=20)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--repeat", type=int, default=1)
    parser.add_argument("--overhead", action="store_true")
    args = parser.parse_args(argv)

    seeds = parse_seeds(args.seeds)
    if args.overhead:
        plain, traced = [], []
        for seed in seeds:
            plain.append(run_once(args.workload, seed, args.seconds, 0)["metrics"]["latency_p50_s"]["value"])
            traced.append(run_once(args.workload, seed, args.seconds, 1)["metrics"]["trace.latency_p50_s"]["value"])
        a, b = statistics.median(plain), statistics.median(traced)
        print(f"untraced median latency_p50_s {a:.6f} s, traced {b:.6f} s, "
              f"tracing overhead {b - a:+.6f} s ({(b - a) / a:+.1%})")
        return 0

    results, by_seed = [], {}
    for seed in seeds:
        for _ in range(args.repeat):
            result = run_once(args.workload, seed, args.seconds, args.trace)
            results.append(result)
            by_seed.setdefault(seed, []).append(result)
            print(f"seed {seed}: " + json.dumps({k: round(v["value"], 6) for k, v in result["metrics"].items()}),
                  flush=True)
    summarize(results)
    if args.repeat > 1:
        counts = [n for n, m in results[0]["metrics"].items() if m["unit"] == "count"]
        drift = [
            (seed, n)
            for seed, runs in by_seed.items()
            for n in counts
            if len({r["metrics"][n]["value"] for r in runs}) > 1
        ]
        print("counts repeat exactly across runs of each seed" if not drift else f"counts differ: {drift}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
