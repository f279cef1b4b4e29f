"""Benchmark registry: one entry per paper benchmark.

Each benchmark is a factory producing a :class:`BenchmarkInstance` — the
compiled PTS, its invariants, and bookkeeping for the experiment harness.
Sources are written in the surface language exactly as the paper's
Figures 1-12 give them (reconstructions of abbreviated figures are
documented per family module and in ``EXPERIMENTS.md``).
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Dict

from repro.errors import ModelError
from repro.lang import compile_source
from repro.pts.model import PTS
from repro.core.invariants import InvariantMap, generate_interval_invariants

__all__ = [
    "BenchmarkInstance",
    "make_instance",
    "BENCHMARKS",
    "FAMILIES",
    "register",
    "get_benchmark",
    "benchmark_family",
]


@dataclass
class BenchmarkInstance:
    """A ready-to-analyze benchmark."""

    name: str
    family: str
    params: Dict[str, object]
    pts: PTS
    invariants: InvariantMap
    description: str = ""
    notes: str = ""

    @property
    def label(self) -> str:
        inner = ", ".join(f"{k}={v}" for k, v in self.params.items())
        return f"{self.name}({inner})"


def make_instance(
    name: str,
    source: str,
    params: Dict[str, object],
    description: str = "",
    notes: str = "",
    integer_mode: bool = True,
) -> BenchmarkInstance:
    """Compile a benchmark source and generate its interval invariants
    (the family is the one ``name`` was registered under)."""
    result = compile_source(source, integer_mode=integer_mode, name=name)
    invariants = generate_interval_invariants(result.pts)
    if result.invariants:
        invariants = invariants.merged_with(result.invariants)
    return BenchmarkInstance(
        name=name,
        family=FAMILIES[name],
        params=dict(params),
        pts=result.pts,
        invariants=invariants,
        description=description,
        notes=notes,
    )


BENCHMARKS: Dict[str, Callable[..., BenchmarkInstance]] = {}

#: benchmark name -> family, recorded at registration so callers that only
#: need the family never compile a program or generate invariants
FAMILIES: Dict[str, str] = {}


def register(name: str, family: str):
    """Decorator registering a benchmark factory under ``name``."""

    def wrap(fn: Callable[..., BenchmarkInstance]):
        BENCHMARKS[name] = fn
        FAMILIES[name] = family
        return fn

    return wrap


def _registered(name: str) -> None:
    # import the family modules so their registrations run
    from repro.programs import (  # noqa: F401
        concentration,
        deviation,
        fuzzed,
        hardware,
        stoinv,
    )

    if name not in BENCHMARKS:
        raise ModelError(
            f"unknown benchmark {name!r}; available: {sorted(BENCHMARKS)}"
        )


def get_benchmark(name: str, **params) -> BenchmarkInstance:
    """Instantiate a registered benchmark by name."""
    _registered(name)
    return BENCHMARKS[name](**params)


def benchmark_family(name: str) -> str:
    """The family of a registered benchmark, without instantiating it."""
    _registered(name)
    return FAMILIES[name]
