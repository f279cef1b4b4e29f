"""Op lists and correctness oracles of the three workloads.

Every op list is a pure function of ``(workload, seed, count)``: the same
arguments give a byte-identical list (see :func:`op_list_bytes`), and no
program appears twice in one list.  The program under test only ever sees
the generated programs, never the seed.

The op mixes are stratified: each workload draws a fixed number of ops from
each program family and only the parameters vary with the seed.  With the
counts below, ``latency_p50_s`` and the tail percentile fall inside a
cluster of ops of similar cost on every seed, rather than on the boundary
between two families, so seed-to-seed spread stays small.
"""

from __future__ import annotations

import hashlib
import json
import math
import random
from typing import Dict, List, Optional

#: minimum op count per workload: the tail percentile needs at least ten
#: samples beyond it (p75 of 40, p90 of 100, p67 of 30).  A cli-cold op
#: costs 1.5-2 s of interpreter start-up and imports, so that workload
#: stops at 30 ops to keep a run near a minute.
MIN_OPS = {"synth": 40, "exact": 100, "cli-cold": 30}
TAIL_PERCENTILE = {"synth": 75, "exact": 90, "cli-cold": 67}
#: nominal ops per second on a 2-CPU x86 box with one BLAS thread; the op
#: count grows with ``--seconds`` beyond the minimum, never shrinks below it
NOMINAL_RATE = {"synth": 1.2, "exact": 5.0, "cli-cold": 0.6}

#: synth: (benchmark, ops per 40).  Table 2 hardware families are cheap
#: explowsyn ops (p50 lands among the 14 M1DWalk ops); the twelve Table 1
#: rows run the hoeffding -> explinsyn + baseline DAG (p75 lands among
#: them).  3DWalk, 2DWalk, Coupon, Prspeed, Robot and Race rows cost 3-11 s
#: each and are left out to keep a run inside its time budget.
SYNTH_MIX = (
    ("Newton", 12),
    ("M1DWalk", 14),
    ("Ref", 2),
    ("RdAdder", 4),
    ("Rdwalk", 4),
    ("1DWalk", 4),
)
TABLE2 = {"Newton", "M1DWalk", "Ref"}
#: benchmarks whose state space is small enough to explore, so the
#: oracle can check the synthesized bound against the exact bracket
SYNTH_EXPLORABLE = {"Newton", "Ref", "1DWalk"}

#: exact: ``(shape, sizes)`` slots, one op per size.  Sizes are the same on
#: every seed; the seed draws the rest of each program (the gambler's start,
#: the walk's odds, the fuzz generator's seed), so every seed has the same
#: cost profile.  The 37 mixed-lattice and small gambler ops are the
#: cheapest, so p50 falls in the 24-op gambler ladder above them; p90 falls
#: in the 16-op dense gambler ladder (dense value iteration just under the
#: 2048-state limit), below only the two gridworlds (0.7 s compile, 0.7 s
#: verify).
EXACT_SLOTS = (
    ("mixed-lattice", (None,) * 26),
    ("birth-death", (None,) * 4),
    ("inventory", (None,) * 4),
    # gridworld sizes vary 400-2000 states and 50-250 MB peak memory:
    # the slots pin (width, height, horizon)
    ("gridworld", ((4, 4, 11), (5, 5, 12))),
    ("gambler", tuple(range(20, 64, 4))),  # 11 small walks
    ("gambler", tuple(range(100, 220, 5))),  # 24: the p50 ladder
    ("gambler", tuple(range(960, 1040, 5))),  # 16 dense: the p90 ladder
    ("gambler", (2200, 2600, 3000, 3400)),  # CSR value iteration
    ("asym", ((8, 30), (10, 35), (12, 40))),  # int64 explorer, dense
    ("asym-scaled", ((8, 30), (10, 35), (12, 40))),  # scaled-int64 explorer
    ("asym", ((22, 90), (25, 100), (28, 110))),  # int64 explorer, CSR
)
EXACT_MAX_STATES = 200_000
#: the fuzz farm's four families; the fifth, "random", is left out: its
#: programs range from 7 to thousands of states, and the peak memory and
#: tail latency of a run would depend on the seed
FUZZ_FAMILIES = {"mixed-lattice", "birth-death", "inventory", "gridworld"}


def op_count(workload: str, seconds: float) -> int:
    return max(MIN_OPS[workload], round(seconds * NOMINAL_RATE[workload]))


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"e2ebench/{workload}/{seed}")


def _stratified(mix, count: int) -> List[str]:
    """Family labels for ``count`` ops, in ``mix`` proportions."""
    total = sum(n for _, n in mix)
    labels: List[str] = []
    for name, n in mix:
        labels += [name] * round(n * count / total)
    return labels[:count] + [mix[0][0]] * (count - len(labels))


# ---------------------------------------------------------------------------
# op lists


def _synth_ops(rng: random.Random, count: int) -> List[Dict]:
    labels = _stratified(SYNTH_MIX, count)
    pools = {
        # Newton p in 1e-4..2e-3; the warm-up uses 1e-5, outside the pool
        "Newton": (range(10, 200), lambda k: {"p": f"{k}e-5"}),
        "M1DWalk": (range(1, 2000), lambda k: {"p": f"{k}e-7"}),
        "Ref": (range(1, 100), lambda k: {"p": f"{k}e-7"}),
        "RdAdder": (range(20, 91), lambda k: {"deviation": k}),
        "Rdwalk": (range(300, 701), lambda k: {"n": k}),
        "1DWalk": (range(5, 151), lambda k: {"x0": k}),
    }
    ops = []
    for name, (pool, params) in pools.items():
        for k in rng.sample(pool, labels.count(name)):
            ops.append({"bench": name, "params": params(k)})
    rng.shuffle(ops)
    return ops


def _gambler(k: int, n: int) -> str:
    return (
        f"x := {k}\nwhile x >= 1 and x <= {n - 1}:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0"
    )


def _asym(limit: int, horizon: int, up: int, step: str) -> str:
    return (
        f"x := 0\nt := 0\nwhile x <= {limit} and t <= {horizon}:\n    switch:\n"
        f"        prob({up}/4): x, t := x + {step}, t + 1\n"
        f"        prob({4 - up}/4): x, t := x - {step}, t + 1\n"
        f"assert x <= {limit}"
    )


def _exact_op(rng: random.Random, shape: str, size, shift: int) -> Dict:
    """One exact-workload program; ``analytic`` is its exact violation
    probability where one is known in closed form.  ``shift`` grows the
    sizes of op lists longer than one round of slots."""
    if shape in FUZZ_FAMILIES:
        from repro.fuzz.generators import generate

        while True:
            prog = generate(shape, rng.randrange(10**9))
            p = prog.params
            if size is None or size == (p["width"], p["height"], p["horizon"]):
                return {"name": prog.name, "source": prog.source, "integer_mode": prog.integer_mode}
    if shape == "gambler":
        n = size + shift
        k = rng.randrange(1, n)
        # the assert fires on the rich exit x = n: Pr = k / n for a fair walk
        return {
            "name": f"gambler-{k}-{n}",
            "source": _gambler(k, n),
            "integer_mode": True,
            "analytic": k / n,
        }
    limit, horizon = size[0] + shift, size[1]
    up = rng.randrange(1, 4)
    step = "1/2" if shape == "asym-scaled" else "1"
    return {
        "name": f"{shape}-{limit}-{horizon}-{up}",
        "source": _asym(limit, horizon, up, step),
        "integer_mode": shape != "asym-scaled",
    }


def _exact_ops(rng: random.Random, count: int) -> List[Dict]:
    slots = [(shape, size) for shape, sizes in EXACT_SLOTS for size in sizes]
    ops: List[Dict] = []
    seen = {_gambler(*EXACT_WARMUP)}
    for i in range(count):
        shape, size = slots[i % len(slots)]
        while True:
            op = _exact_op(rng, shape, size, i // len(slots))
            if op["source"] not in seen:
                seen.add(op["source"])
                ops.append(op)
                break
    rng.shuffle(ops)
    return ops


def _cli_source(start: int, top: int, up: int, stay: int) -> str:
    """A walk from ``start`` that moves up w.p. ``up`` percent, stays
    w.p. ``stay`` percent, else moves down; it fails on reaching the top."""
    p_up, p_down = f"{up / 100:.2f}", f"{(100 - up - stay) / 100:.2f}"
    if stay == 0:
        body = f"    if prob({p_up}):\n        x := x + 1\n    else:\n        x := x - 1\n"
    else:
        body = (
            f"    switch:\n        prob({p_up}): x := x + 1\n"
            f"        prob({p_down}): x := x - 1\n        prob({stay / 100:.2f}): skip\n"
        )
    return f"x := {start}\nwhile x >= 1 and x <= {top}:\n{body}assert x <= 0\n"


def _walk_vpf(start: int, top: int, up: int, stay: int) -> float:
    """Exact violation probability of :func:`_cli_source`: gambler's ruin
    with odds ``down / up`` (stays do not change where the walk exits),
    reaching ``top + 1`` before 0."""
    down = 100 - up - stay
    if down == up:
        return start / (top + 1)
    ratio = down / up
    return (1 - ratio**start) / (1 - ratio ** (top + 1))


def _cli_ops(rng: random.Random, count: int) -> List[Dict]:
    """Small drift-down walks: tens of states (exact bracket in
    milliseconds) and non-trivial upper bounds."""
    ops, seen = [], {CLI_WARMUP}
    while len(ops) < count:
        top = rng.randrange(8, 31)
        key = (rng.randrange(2, top // 2 + 1), top, rng.randrange(10, 41), rng.choice((0, 0, 10, 20)))
        if key not in seen:
            seen.add(key)
            ops.append(
                {
                    "name": "walk-{}-{}-{}-{}".format(*key),
                    "source": _cli_source(*key),
                    "vpf": _walk_vpf(*key),
                }
            )
    return ops


#: warm-up programs, kept out of every op list
SYNTH_WARMUP = ("Newton", {"p": "1e-5"})
EXACT_WARMUP = (3, 10)
CLI_WARMUP = (3, 10, 30, 0)

_BUILDERS = {"synth": _synth_ops, "exact": _exact_ops, "cli-cold": _cli_ops}


def make_ops(workload: str, seed: int, count: int) -> List[Dict]:
    return _BUILDERS[workload](_rng(workload, seed), count)


def op_list_bytes(ops: List[Dict]) -> bytes:
    return json.dumps(ops, sort_keys=True, separators=(",", ":")).encode()


def op_list_sha256(ops: List[Dict]) -> str:
    return hashlib.sha256(op_list_bytes(ops)).hexdigest()


# ---------------------------------------------------------------------------
# oracles: pure functions of (op, outcome, reference) -> list of failures

_LOG_SLACK = 1e-9


def check_synth(op: Dict, outcome: Dict, bracket: Optional[tuple]) -> List[str]:
    """Table 1 rows: explinsyn <= hoeffding (sec 5.2 completeness) and a
    baseline; explorable programs: upper >= exact lower, lower <= exact
    upper.  ``bracket`` is the exact ``(lower, upper)`` or ``None``."""
    errors = [f"{k}: {v}" for k, v in outcome.get("errors", {}).items()]
    if errors:
        return errors
    if op["bench"] in TABLE2:
        low = outcome["lower"]
        if not low <= _LOG_SLACK:
            errors.append(f"lower bound exp({low}) > 1")
        if bracket is not None and math.exp(low) > bracket[1] * (1 + 1e-9) + 1e-15:
            errors.append(f"lower bound {math.exp(low)} > exact upper {bracket[1]}")
        return errors
    sec51, sec52 = outcome["sec51"], outcome["sec52"]
    if not sec52 <= sec51 + _LOG_SLACK * max(1.0, abs(sec51)):
        errors.append(f"explinsyn {sec52} > hoeffding {sec51}")
    if outcome.get("baseline") is None:
        errors.append("no baseline bound")
    if bracket is not None and bracket[0] > 0:
        if sec52 < math.log(bracket[0]) - _LOG_SLACK * max(1.0, abs(sec52)):
            errors.append(f"upper bound exp({sec52}) < exact lower {bracket[0]}")
    return errors


def check_exact(op: Dict, outcome: Dict) -> List[str]:
    errors = []
    if not outcome["verified"]:
        errors.append("run certificate did not verify")
    if outcome["truncated"]:
        errors.append("exploration truncated")
    lower, upper = outcome["lower"], outcome["upper"]
    if not lower <= upper:
        errors.append(f"lower {lower} > upper {upper}")
    vpf = op.get("analytic")
    if vpf is not None and not (lower - 1e-12 <= vpf <= upper + 1e-12):
        errors.append(f"analytic vpf {vpf} outside [{lower}, {upper}]")
    return errors


def parse_printed_bound(text: str) -> Optional[float]:
    """log10 of the bound ``repro analyze`` printed, or ``None``."""
    for line in text.splitlines():
        if "Pr[violation] <=" in line:
            value = line.rsplit("<=", 1)[1].strip()
            if value == "1" or value.startswith("exp("):
                return 0.0
            if value == "0":
                return -math.inf
            mantissa, _, exponent = value.partition("e")
            return math.log10(float(mantissa)) + int(exponent or 0)
    return None


def check_cli(op: Dict, outcome: Dict) -> List[str]:
    """The printed upper bound is at least the walk's exact violation
    probability ``op["vpf"]``."""
    if outcome["returncode"] != 0:
        return [f"exit code {outcome['returncode']}: {outcome['stderr'][-300:]}"]
    log10 = parse_printed_bound(outcome["stdout"])
    if log10 is None:
        return ["no upper bound printed"]
    # the CLI prints four significant digits: allow half a unit of rounding
    if log10 + math.log10(1 + 5e-4) < math.log10(op["vpf"]):
        return [f"printed bound 10^{log10:.4f} < exact {op['vpf']}"]
    return []
