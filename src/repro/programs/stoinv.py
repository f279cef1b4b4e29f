"""Stochastic-invariant benchmarks (Table 1, third block) — from [CNZ17].

Random walks with a drift away from the failure region; the assertion
violation probability decreases exponentially in the distance, which is
where the paper's bounds beat [CNZ17] by hundreds to thousands of orders
of magnitude.
"""

from __future__ import annotations

from repro.programs.registry import BenchmarkInstance, make_instance, register

__all__ = ["walk_1d", "walk_2d", "walk_3d", "race"]


@register("1DWalk", family="StoInv")
def walk_1d(x0: int = 10) -> BenchmarkInstance:
    """Figure 6: drift -1/2 walk started at ``x0``; fails if it ever
    climbs past 1000 before absorbing below 0."""
    source = f"""
x := {x0}
while x >= 0:
    assert x <= 1000
    switch:
        prob(0.5): x := x - 2
        prob(0.5): x := x + 1
"""
    return make_instance(
        name="1DWalk",
        source=source,
        params={"x": x0},
        description=f"1D walk from x={x0}: Pr[reach x > 1000 before x < 0]",
    )


@register("2DWalk", family="StoInv")
def walk_2d(x0: int = 1000, y0: int = 10) -> BenchmarkInstance:
    """Figure 7: x drifts up, y drifts down; fails if x hits 0 while the
    loop (driven by y >= 1) is still running."""
    source = f"""
x := {x0}
y := {y0}
while y >= 1:
    if prob(0.5):
        switch:
            prob(0.75): x := x + 1
            prob(0.25): x := x - 1
    else:
        switch:
            prob(0.75): y := y - 1
            prob(0.25): y := y + 1
    assert x >= 1
"""
    return make_instance(
        name="2DWalk",
        source=source,
        params={"x": x0, "y": y0},
        description=f"2D walk from ({x0}, {y0}): Pr[x reaches 0 before y does]",
    )


@register("3DWalk", family="StoInv")
def walk_3d(x0: int = 100, y0: int = 100, z0: int = 100) -> BenchmarkInstance:
    """Figure 8: three coordinates drifting down by 1 w.p. 0.9 and up by
    0.1 w.p. 0.1; fails if the sum ever exceeds 1000."""
    source = f"""
x := {x0}
y := {y0}
z := {z0}
while x >= 0 and y >= 0 and z >= 0:
    assert x + y + z <= 1000
    if prob(0.9):
        switch:
            prob(0.5): x, y := x - 1, y - 1
            prob(0.5): z := z - 1
    else:
        switch:
            prob(0.5): x, y := x + 0.1, y + 0.1
            prob(0.5): z := z + 0.1
"""
    return make_instance(
        name="3DWalk",
        source=source,
        params={"x": x0, "y": y0, "z": z0},
        description=f"3D walk from ({x0}, {y0}, {z0}): Pr[x+y+z > 1000]",
        integer_mode=False,  # 0.1-steps: strict guards must not be tightened
    )


@register("Race", family="StoInv")
def race(x0: int = 40, y0: int = 0) -> BenchmarkInstance:
    """Figure 1 / Section 3.1: the tortoise-hare race."""
    source = f"""
x := {x0}
y := {y0}
while x <= 99 and y <= 99:
    if prob(0.5):
        x, y := x + 1, y + 2
    else:
        x := x + 1
assert x >= 100
"""
    return make_instance(
        name="Race",
        source=source,
        params={"x": x0, "y": y0},
        description=f"tortoise-hare race from ({x0}, {y0}): Pr[hare wins]",
    )
