"""Unreliable-hardware benchmarks (Table 2) — from [CMR13, SHA19].

Reliability analysis reduces to *lower* bounds on assertion violation
(Section 3.3): the program ends in ``assert false``, so the assertion is
violated exactly when no hardware fault (``exit``) occurred during the run.

Reconstruction notes: ``Newton`` and ``Ref`` follow the paper's Figures 11
and 12 verbatim (loop shapes and per-step failure probabilities); the
``ABSTRACTED`` skips are genuine no-ops.  For ``Ref`` the analytic survival
probability ``(1-p)^(20 * (16 * 16 * 3 + 1))`` reproduces the paper's
reported lower bounds to all printed digits (0.998463 / 0.984738 /
0.857443), confirming the reconstruction.
"""

from __future__ import annotations

from repro.programs.registry import BenchmarkInstance, make_instance, register

__all__ = ["m1dwalk", "newton", "ref"]


@register("M1DWalk", family="Hardware")
def m1dwalk(p: str = "1e-7") -> BenchmarkInstance:
    """Figure 3 / Section 3.3: the asymmetric walk on unreliable hardware."""
    source = f"""
const p = {p}
x := 1
while x <= 99:
    switch:
        prob(p): exit
        prob(0.75 * (1 - p)): x := x + 1
        prob(0.25 * (1 - p)): x := x - 1
assert false
"""
    return make_instance(
        name="M1DWalk",
        source=source,
        params={"p": p},
        description=f"Pr[walk finishes with no hardware fault], fault rate {p}",
    )


@register("Newton", family="Hardware")
def newton(p: str = "5e-4") -> BenchmarkInstance:
    """Figure 11: Newton's iteration on unreliable hardware.

    41 iterations; each runs five fallible blocks with survival
    probabilities ``(1-p)^5``, ``0.9999``, ``0.9999``, ``(1-p)^3`` and
    ``(1-p)^6`` (the abstracted arithmetic is fault-free ``skip``).
    """
    source = f"""
const p = {p}
i := 0
while i <= 40:
    if prob((1 - p) * (1 - p) * (1 - p) * (1 - p) * (1 - p)):
        skip
    else:
        exit
    if prob(0.9999):
        skip
    else:
        exit
    if prob(0.9999):
        skip
    else:
        exit
    if prob((1 - p) * (1 - p) * (1 - p)):
        skip
    else:
        exit
    if prob((1 - p) * (1 - p) * (1 - p) * (1 - p) * (1 - p) * (1 - p)):
        skip
    else:
        exit
    i := i + 1
assert false
"""
    return make_instance(
        name="Newton",
        source=source,
        params={"p": p},
        description=f"Pr[Newton iteration survives 41 rounds], fault rate {p}",
    )


@register("Ref", family="Hardware")
def ref(p: str = "1e-7") -> BenchmarkInstance:
    """Figure 12: the Searchref kernel — 20 x 16 x 16 fallible inner steps
    plus one fallible per-outer-iteration step."""
    source = f"""
const p = {p}
i := 0
j := 0
k := 0
while i <= 19:
    j := 0
    while j <= 15:
        k := 0
        while k <= 15:
            if prob((1 - p) * (1 - p) * (1 - p)):
                skip
            else:
                exit
            k := k + 1
        j := j + 1
    if prob(1 - p):
        skip
    else:
        exit
    i := i + 1
assert false
"""
    return make_instance(
        name="Ref",
        source=source,
        params={"p": p},
        description=f"Pr[Searchref survives], fault rate {p}",
    )
