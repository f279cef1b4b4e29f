#!/usr/bin/env python3
"""PR-blocking explorer- and solver-parity gate (the ``explorer-parity``
CI job).

Explorer section: runs small fractional workloads through
``explore="scaled"`` and ``explore="fraction"`` and asserts the resulting
models are *bit-identical* — state count, truncation flag, transition
matrix, affine offsets, lattice start vectors and the (descaled) state
index.  One integer-lattice workload rides along through
``explore="int64"`` so the plain frontier engine is gated too.

Solver section: runs the solve-then-certify oracles
(``solver="direct"|"sor"|"anderson"``, plus ``"auto"``) against the
pure-sweep engine on bracket workloads and asserts every certified
bracket is consistent with the reference — it overlaps the sweep bracket
(both contain vpf, so disjointness means one of them is wrong), never
escapes it outward by more than the certification slack budget, and on
the slow-mixing chain the ``auto`` bracket is additionally
tighter-or-equal and fully certified (the acceptance bar of the
solve-then-certify design).

Engine regressions used to surface only in the nightly non-blocking bench
workflow; this script is deliberately tiny (seconds, no LP solver, no
synthesis) so it can block every push and pull request.

Exit status 0 when every workload passes, 1 otherwise (one diagnostic
line per mismatching field).  Needs ``repro`` importable
(``PYTHONPATH=src`` or an installed checkout).
"""

from __future__ import annotations

import sys

import numpy as np

#: name -> (source, max_states, integer_mode, forced explore mode).
#: Budgets are chosen so every workload truncates or absorbs within a few
#: seconds while still crossing the 2048-state one-block boundary of the
#: Gauss-Seidel sweep at least once.
WORKLOADS = {
    # Table 1's 3DWalk shape (0.1-steps, scale-10 lattice), truncated
    "3dwalk-slice": (
        "x := 10\ny := 10\nz := 10\n"
        "while x >= 0 and y >= 0 and z >= 0:\n"
        "    assert x + y + z <= 100\n"
        "    if prob(0.9):\n        switch:\n"
        "            prob(0.5): x, y := x - 1, y - 1\n"
        "            prob(0.5): z := z - 1\n"
        "    else:\n        switch:\n"
        "            prob(0.5): x, y := x + 0.1, y + 0.1\n"
        "            prob(0.5): z := z + 0.1\n",
        4_000,
        False,
        "scaled",
    ),
    # Table 1's Robot shape (1.414 displacements, +-0.05 noise, scale 500)
    "robot-slice": (
        "noise ~ discrete((0.5, -0.05), (0.5, 0.05))\n"
        "i := 0\nx := 0\nex := 0\n"
        "while i <= 11:\n    switch:\n"
        "        prob(0.2): i, x, ex := i + 1, x - 1.414 + noise, ex - 1.414\n"
        "        prob(0.2): i, x, ex := i + 1, x + 1.414 + noise, ex + 1.414\n"
        "        prob(0.2): i, x, ex := i + 1, x - 1 + noise, ex - 1\n"
        "        prob(0.2): i, x, ex := i + 1, x + 1 + noise, ex + 1\n"
        "        prob(0.2): i, x, ex := i + 1, x + noise, ex\n"
        "assert x - ex <= 1.8",
        4_000,
        False,
        "scaled",
    ),
    # mixed lattice: integral counter + half-integer accumulator, with a
    # guard boundary hit exactly at a fractional state
    "mixed-boundary": (
        "i := 0\nx := 0\nwhile i <= 20 and x - 15/2 <= 0:\n"
        "    if prob(0.5):\n        i, x := i + 1, x + 1/2\n"
        "    else:\n        i := i + 1\n"
        "assert x >= 8",
        10_000,
        False,
        "scaled",
    ),
    # integer lattice control through the plain int64 frontier engine
    "gambler-int": (
        "x := 3\nwhile x >= 1 and x <= 9:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0",
        20_000,
        True,
        "int64",
    ),
}


#: name -> (source, max_states, integer_mode, expect auto-certified).
#: Small bracket workloads stressing the three oracle shapes: a
#: slow-mixing one-block fair walk (the solve-then-certify target regime),
#: a drifted Jacobi-swept chain where SOR has to fall back to its omega=1
#: restart, and a truncated fragment whose bracket legitimately stays [0, 1].
SOLVER_WORKLOADS = {
    "gambler-120": (
        "x := 30\nwhile x >= 1 and x <= 119:\n    switch:\n"
        "        prob(0.5): x := x + 1\n        prob(0.5): x := x - 1\n"
        "assert x <= 0",
        20_000,
        True,
        True,
    ),
    "drift-chain": (
        "x := 0\nt := 0\nwhile x <= 19:\n    switch:\n"
        "        prob(0.75): x, t := x + 1, t + 1\n"
        "        prob(0.25): x, t := x - 1, t + 1\n"
        "assert t <= 60",
        20_000,
        True,
        False,
    ),
    "rdadder-trunc": (
        "i := 0\nx := 0\nwhile i <= 199:\n    if prob(0.5):\n"
        "        i, x := i + 1, x + 1\n    else:\n        i := i + 1\n"
        "assert x <= 110",
        8_000,
        True,
        False,
    ),
}

#: outward-escape budget per solver: ``auto``/``direct`` adopt candidates
#: at near machine precision; ``sor``/``anderson`` nudge along the
#: expected-visits witness, whose magnitude inflates the slack to
#: ~eps * max(w) (measured ~7e-8 on the fair walk).
SOLVER_TOLERANCES = {
    "auto": 1e-9,
    "direct": 1e-9,
    "sor": 1e-6,
    "anderson": 1e-6,
}


def csr_bit_identical(a, b) -> bool:
    """Bitwise CSR equality without densifying: same shape and dtype, both
    canonical, then ``indptr``, ``indices`` and ``data`` equal byte for
    byte — as strict as an elementwise dense comparison."""
    return (
        a.format == b.format == "csr"
        and a.shape == b.shape
        and a.dtype == b.dtype
        and a.has_canonical_format
        and b.has_canonical_format
        and np.array_equal(a.indptr, b.indptr)
        and np.array_equal(a.indices, b.indices)
        and a.data.tobytes() == b.data.tobytes()
    )


def compare(name: str, fast, exact) -> list:
    """Field-by-field bitwise comparison; returns diagnostic strings."""
    problems = []
    if fast.n != exact.n:
        problems.append(f"{name}: state count {fast.n} != {exact.n}")
    if fast.truncated != exact.truncated:
        problems.append(f"{name}: truncated {fast.truncated} != {exact.truncated}")
    if problems:  # shapes differ: element comparisons would just throw
        return problems
    if not csr_bit_identical(fast.matrix, exact.matrix):
        problems.append(f"{name}: transition matrices differ")
    for field in ("b_lower", "b_upper", "x0_lower", "x0_upper"):
        if not (getattr(fast, field) == getattr(exact, field)).all():
            problems.append(f"{name}: {field} differs")
    if fast.index != exact.index:
        problems.append(f"{name}: descaled state index differs")
    return problems


def compare_solver(name: str, solver: str, fast, ref, expect_certified: bool) -> list:
    """Solver-parity checks of one oracle bracket against the pure sweep."""
    problems = []
    tol = SOLVER_TOLERANCES[solver]
    if not (fast.lower <= fast.upper + 1e-12):
        problems.append(
            f"{name}[{solver}]: inverted bracket "
            f"[{fast.lower!r}, {fast.upper!r}]"
        )
    # never escape the sweep bracket outward beyond the slack budget; a
    # *certified* bracket may legitimately be tighter than the sweep's
    if fast.lower < ref.lower - tol:
        problems.append(
            f"{name}[{solver}]: lower bound escaped outward "
            f"({fast.lower!r} < sweep {ref.lower!r} - {tol})"
        )
    if fast.upper > ref.upper + tol:
        problems.append(
            f"{name}[{solver}]: upper bound escaped outward "
            f"({fast.upper!r} > sweep {ref.upper!r} + {tol})"
        )
    # overlap: both brackets contain vpf, so disjointness means a bug
    if fast.lower > ref.upper + tol or fast.upper < ref.lower - tol:
        problems.append(
            f"{name}[{solver}]: bracket [{fast.lower!r}, {fast.upper!r}] "
            f"disjoint from sweep [{ref.lower!r}, {ref.upper!r}]"
        )
    if solver == "auto" and expect_certified:
        if not fast.certified:
            problems.append(
                f"{name}[auto]: expected a fully certified bracket, "
                f"got certified={fast.certified}"
            )
        # the acceptance bar: certified auto brackets are tighter-or-equal
        if fast.lower < ref.lower - 1e-12 or fast.upper > ref.upper + 1e-12:
            problems.append(
                f"{name}[auto]: certified bracket wider than the sweep's "
                f"([{fast.lower!r}, {fast.upper!r}] vs "
                f"[{ref.lower!r}, {ref.upper!r}])"
            )
    return problems


def main() -> int:
    from repro.core.fixpoint import build_sparse_model, iterate_model
    from repro.lang import compile_source

    failures = []
    for name, (source, max_states, integer_mode, explore) in WORKLOADS.items():
        pts = compile_source(source, name=name, integer_mode=integer_mode).pts
        fast = build_sparse_model(pts, max_states=max_states, explore=explore)
        exact = build_sparse_model(pts, max_states=max_states, explore="fraction")
        expected = "scaled-int64" if explore == "scaled" else "int64"
        if fast.explored_via != expected:
            failures.append(
                f"{name}: explored via {fast.explored_via!r}, expected {expected!r}"
            )
        problems = compare(name, fast, exact)
        failures.extend(problems)
        status = "MISMATCH" if problems else "ok"
        print(
            f"{name:<16} {fast.explored_via:<13} states={fast.n:>6} "
            f"truncated={str(fast.truncated):<5} {status}"
        )
    print()
    for name, (source, max_states, integer_mode, expect_cert) in SOLVER_WORKLOADS.items():
        pts = compile_source(source, name=name, integer_mode=integer_mode).pts
        model = build_sparse_model(pts, max_states=max_states)
        ref = iterate_model(model, solver="sweep")
        for solver in ("auto", "direct", "sor", "anderson"):
            fast = iterate_model(model, solver=solver)
            problems = compare_solver(name, solver, fast, ref, expect_cert)
            failures.extend(problems)
            status = "MISMATCH" if problems else "ok"
            print(
                f"{name:<16} {solver:<9} used={fast.solver:<9} "
                f"certified={str(fast.certified):<5} "
                f"[{fast.lower:.12f}, {fast.upper:.12f}] {status}"
            )
    if failures:
        print(f"\nexplorer/solver parity FAILED ({len(failures)} problem(s)):")
        for line in failures:
            print(f"  - {line}")
        return 1
    print(
        f"\nexplorer parity ok: {len(WORKLOADS)} workload(s) bit-identical; "
        f"solver parity ok: {len(SOLVER_WORKLOADS)} workload(s) x 4 solvers"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
