"""All paper benchmarks (Figures 1-12), instantiable by name.

Example::

    from repro.programs import get_benchmark

    race = get_benchmark("Race", x0=40, y0=0)
    print(race.pts.pretty())
"""

from repro.programs.registry import (
    BenchmarkInstance,
    BENCHMARKS,
    FAMILIES,
    benchmark_family,
    get_benchmark,
    make_instance,
    register,
)
from repro.programs import deviation, concentration, stoinv, hardware  # noqa: F401

__all__ = [
    "BenchmarkInstance",
    "BENCHMARKS",
    "FAMILIES",
    "benchmark_family",
    "get_benchmark",
    "make_instance",
    "register",
]
