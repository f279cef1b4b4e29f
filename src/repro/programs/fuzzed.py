"""Promoted finds from the fuzzing farm's generated workload corpus.

Each benchmark here started life as a ``repro fuzz`` corpus entry —
generated by :mod:`repro.fuzz.generators`, survived the differential
explorer/solver grid, and earned promotion for exercising a shape the
hand-picked bench table did not.  Promotion *freezes* the program text:
the source below is the literal corpus entry (replayable from the
recorded ``(generator_version, family, seed)`` triple), so later
generator changes cannot silently move a benchmark.

Promoted here:

* ``fz-queue-surge`` — a saturating M/M/1-style queue (arrivals beat
  service 56:32) whose overflow probability sits mid-range (~0.42),
  where both bracket edges carry information;
* ``fz-grid-trap`` — a 5x6 gridworld whose obstacle at (1, 4) resets
  the walker, the largest-state promoted find (~1.9k states from one
  loop);
* ``fz-lattice-strain`` — fractional drift in steps of 1/999983, a
  denominator one prime shy of the 1e6 scale cap: the scaled-int64
  explorer must admit it with a near-maximal multiplier, making it the
  admission-boundary regression the curated table lacked.
"""

from __future__ import annotations

from repro.programs.registry import BenchmarkInstance, make_instance, register

__all__ = [
    "FUZZED_SOURCES",
    "queue_surge",
    "grid_trap",
    "lattice_strain",
]

#: frozen corpus text, keyed by promoted name — the bench workload table
#: (`repro.experiments.fixpoint_bench`) references these same strings so
#: benchmark and registry can never drift apart.
#: Replay triples (generator fuzz-gen.v1): queue-surge = ("birth-death",
#: seed 6), grid-trap = ("gridworld", seed 0), lattice-strain =
#: ("mixed-lattice", seed 2).
FUZZED_SOURCES = {
    "fz-queue-surge": """
q := 1
t := 0
while t <= 21:
    switch:
        prob(56/100): q := q + 1
        prob(12/100): skip
        prob(32/100):
            if q >= 1:
                q := q - 1
            else:
                skip
    t := t + 1
assert q <= 7
""",
    "fz-grid-trap": """
x := 0
y := 0
t := 0
while t <= 16:
    switch:
        prob(4/11):
            if x <= 4:
                x := x + 1
        prob(3/11):
            if y <= 5:
                y := y + 1
        prob(3/11):
            if x >= 1:
                x := x - 1
        prob(1/11):
            if y >= 1:
                y := y - 1
    if x == 1 and y == 4:
        x, y := 0, 0
    t := t + 1
assert x + y <= 6
""",
    "fz-lattice-strain": """
x := 0
t := 0
while t <= 12:
    if prob(6/8):
        x := x + 1/999983
    else:
        x := x - 2/999983
    t := t + 1
assert x <= 9/1999966
""",
}


@register("fz-queue-surge", family="Fuzzed")
def queue_surge() -> BenchmarkInstance:
    """Saturating queue: arrivals at 56/100 vs service at 32/100 over 22
    ticks; Pr[overflow past 7] ~ 0.4236."""
    return make_instance(
        name="fz-queue-surge",
        source=FUZZED_SOURCES["fz-queue-surge"],
        params={},
        description="fuzz find (birth-death, seed 6): saturating queue overflow",
        notes="promoted from the repro-fuzz corpus; replay: fuzz-gen.v1",
    )


@register("fz-grid-trap", family="Fuzzed")
def grid_trap() -> BenchmarkInstance:
    """5x6 gridworld with a resetting obstacle at (1, 4); Pr[reach the
    far corner region within 17 steps] ~ 0.3301."""
    return make_instance(
        name="fz-grid-trap",
        source=FUZZED_SOURCES["fz-grid-trap"],
        params={},
        description="fuzz find (gridworld, seed 0): obstacle-reset walk",
        notes="promoted from the repro-fuzz corpus; replay: fuzz-gen.v1",
    )


@register("fz-lattice-strain", family="Fuzzed")
def lattice_strain() -> BenchmarkInstance:
    """Fractional drift in steps of 1/999983 — the scaled-lattice
    admission boundary (cap 1e6); Pr[violation] ~ 0.3326."""
    return make_instance(
        name="fz-lattice-strain",
        source=FUZZED_SOURCES["fz-lattice-strain"],
        params={},
        description="fuzz find (mixed-lattice, seed 2): near-cap scaled admission",
        notes="promoted from the repro-fuzz corpus; replay: fuzz-gen.v1",
        integer_mode=False,
    )
