"""Concentration benchmarks (Table 1, second block) — from [CFNH18, NCH18].

Each program tracks its running time in a variable ``t`` and asserts
``t <= N`` inside the loop, so the assertion violation probability is
exactly ``Pr[T > N]`` — the concentration of the termination time
(Section 3.2 of the paper).
"""

from __future__ import annotations

from repro.programs.registry import BenchmarkInstance, make_instance, register

__all__ = ["rdwalk", "coupon", "prspeed"]


@register("Rdwalk", family="Concentration")
def rdwalk(n: int = 400) -> BenchmarkInstance:
    """Figure 2: asymmetric random walk, Pr[T > n]."""
    source = f"""
x := 0
t := 0
while x <= 99:
    switch:
        prob(0.75): x, t := x + 1, t + 1
        prob(0.25): x, t := x - 1, t + 1
    assert t <= {n}
"""
    return make_instance(
        name="Rdwalk",
        source=source,
        params={"n": n},
        description=f"Pr[T > {n}] for the asymmetric random walk (drift +1/2)",
    )


@register("Coupon", family="Concentration")
def coupon(n: int = 100) -> BenchmarkInstance:
    """Figure 9: coupon collector with 5 coupons, Pr[T > n].

    At stage ``i`` a new coupon arrives with probability ``(5 - i) / 5``;
    ``t`` counts the draws.
    """
    source = f"""
i := 0
t := 0
while i <= 4:
    if i <= 0:
        i, t := i + 1, t + 1
    else:
        if i <= 1:
            if prob(0.8):
                i, t := i + 1, t + 1
            else:
                t := t + 1
        else:
            if i <= 2:
                if prob(0.6):
                    i, t := i + 1, t + 1
                else:
                    t := t + 1
            else:
                if i <= 3:
                    if prob(0.4):
                        i, t := i + 1, t + 1
                    else:
                        t := t + 1
                else:
                    if prob(0.2):
                        i, t := i + 1, t + 1
                    else:
                        t := t + 1
    assert t <= {n}
"""
    return make_instance(
        name="Coupon",
        source=source,
        params={"n": n},
        description=f"Pr[T > {n}] for the 5-item coupon collector",
    )


@register("Prspeed", family="Concentration")
def prspeed(n: int = 150) -> BenchmarkInstance:
    """Figure 10 (reconstructed): random walk with randomized speed.

    Each step advances ``x`` by Uniform{0, 1, 2, 3} until ``x + 3 > 50``.
    Figure 10 additionally shows a coin-driven ``y`` prelude, but that
    prelude alone contributes ~100 expected steps, making the *true*
    ``Pr[T > 150]`` around 5% — far above the paper's reported upper bound
    of 5.42e-7, which is impossible for a sound bound.  The reported
    numbers are consistent with the randomized-speed phase alone, so that
    is what we evaluate (see EXPERIMENTS.md).
    """
    source = f"""
x := 0
t := 0
while x + 3 <= 50:
    switch:
        prob(0.25): t := t + 1
        prob(0.25): x, t := x + 1, t + 1
        prob(0.25): x, t := x + 2, t + 1
        prob(0.25): x, t := x + 3, t + 1
    assert t <= {n}
"""
    return make_instance(
        name="Prspeed",
        source=source,
        params={"n": n},
        description=f"Pr[T > {n}] for the randomized-speed walk",
    )
