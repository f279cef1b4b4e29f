"""Solve-then-certify oracles for the value-iteration bracket passes.

The fixpoint engine (:mod:`repro.core.fixpoint`) computes a rigorous
bracket ``lower <= vpf <= upper`` by monotone sweeps of the affine
transformer ``T(x) = A x + b`` — increasing from the lattice bottom
(``lfp``), decreasing from the top (``gfp``).  Slow-mixing chains need
tens of thousands of sweeps to pass a 1e-12 tolerance, which made value
iteration the last super-second phase of every bench workload.

This module removes that cost without weakening the bracket, following
the translation-validation posture of the exploration engines: *don't
trust the fast path — check its answer*.  An **oracle** (sparse direct
solve, SOR, Anderson acceleration) produces a candidate ``x*`` by any
means whatsoever; a constant number of monotone **certification sweeps**
then decides whether the candidate may be adopted:

* **Upper side (unconditional).**  ``A >= 0`` makes ``T`` monotone, so by
  Knaster–Tarski any pre-fixpoint — ``T(u) <= u`` componentwise — satisfies
  ``u >= lfp(T)``.  With the upper pass's offset ``b_upper`` (which folds
  in the truncation pessimization), ``lfp(A, b_upper)`` already dominates
  the true violation probability, hence any verified pre-fixpoint is a
  sound upper output.  Verification is one sweep.

* **Lower side (needs a contraction witness).**  A post-fixpoint
  ``T(l) >= l`` only bounds ``l <= gfp`` in general; to conclude
  ``l <= lfp`` the fixed point must be unique, i.e. ``rho(A) < 1``.  That
  is certified by a **witness vector** ``w`` with ``w - A w >= 1/2``
  componentwise, ``w`` finite: then the weighted operator norm satisfies
  ``||A||_w <= max_i (w_i - 1/2) / w_i < 1``, so ``I - A`` is invertible
  with ``(I - A)^{-1} = sum A^k >= 0``, and ``T(l) >= l`` gives
  ``lfp - l = (I - A)^{-1} (T(l) - l) >= 0``.  The natural witness is the
  expected-visits vector solving ``(I - A) w = 1`` (exact residual ``1``,
  so the ``1/2`` margin tolerates enormous oracle error); every oracle
  simply carries ``ones`` as a third right-hand-side column, and the
  witness check is one more sweep.

Candidates are *nudged along the witness before verification*: since
``(I - A) w = 1`` (up to oracle error), shifting a candidate by
``eps * w`` converts its residual into uniform margin —
``T(x +- eps*w) - (x +- eps*w) = residual -+ eps * (w - A w)`` — where a
*constant* shift would be annihilated on interior rows whose transition
mass sums to exactly 1.  A short ladder of residual-scaled ``eps`` values
is tried (each trial is one two-column sweep) until the componentwise
check passes or the ladder is exhausted; the verified trial is then maxed
(lower) / minned (upper) with the current — always valid — iterate, which
can only tighten and stays sound because both operands bound the fixed
point from the same side.  A candidate that never verifies — wrong,
non-bracketing, NaN/inf — is simply discarded and the engine falls back
to sweeping from its current (unchanged, still valid) iterate, so a
broken oracle can cost time but never soundness.

All checks run in IEEE double arithmetic, the same rigor standard as the
sweeps themselves (the slack ladder keeps candidates strictly inside the
verified region, so a one-ulp matvec error cannot flip a decision that
had any margin).
"""

from __future__ import annotations

from typing import List, Optional, Tuple

import numpy as np

__all__ = [
    "SOLVERS",
    "SLACK_CAP",
    "SLACK_MULTIPLES",
    "OracleFailure",
    "run_oracle",
    "contraction_witness_ok",
    "certify_bracket",
    "gs_blocks",
    "gs_sweep",
]

#: accepted values of the ``solver`` parameter of ``value_iteration``
SOLVERS = ("auto", "sweep", "direct", "sor", "anderson")

#: plain sweeps run before ``solver="auto"`` engages an oracle: fast-mixing
#: systems converge inside the warmup and never pay oracle setup, keeping
#: their results bit-identical to ``solver="sweep"``
WARMUP_SWEEPS = 32

#: witness-direction nudge ladder: multiples of the oracle residual tried
#: (in order) as the ``eps`` of the ``eps * w`` outward shift; the final
#: rung is additionally floored so the worst-case bracket inflation
#: ``eps * max(w)`` reaches ``_SLACK_CAP`` before giving up
SLACK_MULTIPLES = (2.0, 16.0, 256.0)

#: absolute bracket-inflation budget of the last ladder rung (also the
#: agreement tolerance the solver-parity gate checks oracles against).
#: ``SLACK_CAP`` is the public name recorded in run certificates; the
#: underscored alias is kept for the certifier's internal use.
SLACK_CAP = 1e-9
_SLACK_CAP = SLACK_CAP

#: required componentwise margin of ``w - A w`` for the contraction
#: witness; the exact residual of the expected-visits vector is 1, so a
#: candidate ``w`` may be off by half its magnitude and still certify
WITNESS_MARGIN = 0.5

#: iteration caps of the iterative oracles (they stop early at tolerance;
#: certification makes a non-converged candidate safe, just useless)
_SOR_SWEEP_CAP = 4096
_ANDERSON_CAP = 512
_ANDERSON_WINDOW = 8

#: a delta blowing past this aborts the over-relaxed SOR schedule (the
#: omega estimate is meaningless on strongly non-normal systems, e.g.
#: counter-carrying DAG-shaped walks); SOR then restarts at omega = 1 —
#: an exact Gauss-Seidel sweep, which always converges here
_SOR_DIVERGENCE_LIMIT = 1e6

#: power-iteration steps of the SOR spectral-radius estimate
_RHO_ESTIMATE_SWEEPS = 24

#: block size of the blocked Gauss-Seidel sweep (one sparse triangular
#: solve per block); models of at most this many states are one block and
#: always sweep in place, larger ones only under ``schedule="gauss-seidel"``
GS_BLOCK = 2048


class OracleFailure(Exception):
    """An oracle could not produce a candidate (singular system, memory,
    divergence).  Callers fall back to monotone sweeping."""


# ---------------------------------------------------------------------------
# blocked Gauss-Seidel sweep machinery (shared by the "gauss-seidel"
# schedule and the SOR oracle)
# ---------------------------------------------------------------------------


def gs_blocks(matrix, n: int) -> List[Tuple]:
    """Per-block data of the blocked Gauss-Seidel sweep: contiguous
    ``GS_BLOCK``-sized row blocks, each split (entries moved, never summed)
    into its strict in-block lower triangle ``L_kk`` and the rest ``R_k``
    of its rows, plus a SuperLU factorization of the unit-lower-triangular
    ``(I - L_kk)`` under the NATURAL ordering (the factorization of a
    triangular matrix is itself, so this is setup-free in exact arithmetic
    and ``lu.solve`` is an order of magnitude faster per sweep than
    ``spsolve_triangular``)."""
    from scipy.sparse import csr_matrix, eye
    from scipy.sparse.linalg import splu

    blocks = []
    for s in range(0, n, GS_BLOCK):
        e = min(n, s + GS_BLOCK)
        rows = matrix[s:e, :].tocoo()
        in_lower = (rows.col >= s) & (rows.col < rows.row + s)
        rest = csr_matrix(
            (rows.data[~in_lower], (rows.row[~in_lower], rows.col[~in_lower])),
            shape=rows.shape,
        )
        if in_lower.any():
            strict_lower = csr_matrix(
                (
                    rows.data[in_lower],
                    (rows.row[in_lower], rows.col[in_lower] - s),
                ),
                shape=(e - s, e - s),
            )
            solver = splu(
                (eye(e - s, format="csr") - strict_lower).tocsc(),
                permc_spec="NATURAL",
            )
            blocks.append((s, e, rest, solver))
        else:
            blocks.append((s, e, rest, None))
    return blocks


def gs_sweep(blocks, x: np.ndarray, b: np.ndarray) -> np.ndarray:
    """One blocked Gauss-Seidel sweep ``x -> x'`` (input left untouched).

    Earlier blocks are updated in place before later ones read them
    (through ``R_k``) and the in-block strict-lower contribution is solved
    implicitly, so a full sweep uses the *latest* value for every
    already-visited state — exactly the reference engine's in-place
    schedule."""
    x = x.copy()
    for s, e, rest, solver in blocks:
        rhs = rest @ x + b[s:e]
        x[s:e] = rhs if solver is None else solver.solve(rhs)
    return x


# ---------------------------------------------------------------------------
# oracles: candidate producers (untrusted; certification follows)
# ---------------------------------------------------------------------------


def _oracle_direct(matrix, rhs: np.ndarray, n: int) -> np.ndarray:
    """Solve ``(I - A) x = rhs`` directly with SuperLU under the NATURAL
    column ordering — the BFS state order makes ``I - A`` nearly lower
    triangular, so natural-order LU fill stays around 2x the matrix nnz
    where COLAMD pays 8x."""
    from scipy.sparse import identity
    from scipy.sparse.linalg import splu

    try:
        lu = splu((identity(n, format="csr") - matrix).tocsc(), permc_spec="NATURAL")
        return lu.solve(rhs)
    except (RuntimeError, MemoryError, ValueError) as exc:
        raise OracleFailure(f"direct solve failed: {exc}") from None


def _estimate_rho(matrix, n: int) -> float:
    """Power-iteration estimate of ``rho(A)`` on a positive vector (the
    iterates of ``A^k 1`` expose the slowest-mixing mode)."""
    v = np.ones(n)
    rho = 0.0
    for _ in range(_RHO_ESTIMATE_SWEEPS):
        nxt = matrix @ v
        top = float(nxt.max(initial=0.0))
        if top <= 0.0 or not np.isfinite(top):
            return 0.0
        rho = top / float(v.max(initial=1.0))
        v = nxt / top
    return min(max(rho, 0.0), 1.0 - 1e-12)


def _oracle_sor(
    matrix, rhs: np.ndarray, x0: np.ndarray, n: int, tol: float
) -> np.ndarray:
    """Successive over-relaxation with a spectral-radius-guided relaxation
    factor ``omega = 2 / (1 + sqrt(1 - rho_J^2))`` (the consistently-
    ordered optimum; any overshoot is caught by certification, not
    trusted).  One sweep solves ``(I - omega L) x' = ((1 - omega) I +
    omega (A - L)) x + omega rhs`` — the component-wise SOR schedule, with
    the strict-lower contribution implicit exactly as in the blocked
    Gauss-Seidel kernel."""
    from scipy.sparse import identity, tril
    from scipy.sparse.linalg import splu

    strict_lower = tril(matrix, k=-1, format="csr")
    upper = (matrix - strict_lower).tocsr()

    def make_sweep(omega):
        try:
            lu = splu(
                (identity(n, format="csr") - omega * strict_lower).tocsc(),
                permc_spec="NATURAL",
            )
        except (RuntimeError, MemoryError, ValueError) as exc:
            raise OracleFailure(f"SOR factorization failed: {exc}") from None
        return lambda v: lu.solve((1.0 - omega) * v + omega * (upper @ v + rhs))

    rho = _estimate_rho(matrix, n)
    omega = 2.0 / (1.0 + np.sqrt(max(0.0, 1.0 - rho * rho)))
    omega = float(np.clip(omega, 1.0, 1.9))
    sweep = make_sweep(omega)
    x = x0.copy()
    budget = _SOR_SWEEP_CAP
    while budget > 0:
        budget -= 1
        x_new = sweep(x)
        delta = float(np.abs(x_new - x).max()) if n else 0.0
        if not np.isfinite(delta) or delta > _SOR_DIVERGENCE_LIMIT:
            if omega == 1.0:
                raise OracleFailure("SOR diverged at omega = 1")
            # non-normal system: the over-relaxed schedule blew up, so
            # restart from scratch as exact (omega = 1) Gauss-Seidel
            omega = 1.0
            sweep = make_sweep(omega)
            x = x0.copy()
            continue
        x = x_new
        if delta <= tol:
            break
    return x


def _oracle_anderson(
    matrix, rhs: np.ndarray, x0: np.ndarray, n: int, tol: float
) -> np.ndarray:
    """Anderson acceleration (window ``m``) over the Jacobi sweep
    ``T(x) = A x + rhs``, run on the flattened multi-column iterate.  The
    least-squares mixing can overshoot the monotone lattice freely — the
    certification sweeps are what makes adopting the result sound."""
    cols = x0.shape[1]
    x = x0.reshape(-1).copy()

    def apply_t(v):
        return (matrix @ v.reshape(n, cols) + rhs).reshape(-1)

    xs: List[np.ndarray] = []
    fs: List[np.ndarray] = []
    best = x
    best_res = np.inf
    fx = apply_t(x)
    for _ in range(_ANDERSON_CAP):
        f = fx - x
        res = float(np.abs(f).max()) if n else 0.0
        if not np.isfinite(res):
            break
        if res < best_res:
            best, best_res = x, res
        if res <= tol:
            break
        xs.append(x)
        fs.append(f)
        if len(xs) > _ANDERSON_WINDOW:
            xs.pop(0)
            fs.pop(0)
        if len(xs) > 1:
            df = np.stack([fs[i + 1] - fs[i] for i in range(len(fs) - 1)], axis=1)
            dx = np.stack([xs[i + 1] - xs[i] for i in range(len(xs) - 1)], axis=1)
            gamma, *_ = np.linalg.lstsq(df, f, rcond=None)
            x = x + f - (dx + df) @ gamma
        else:
            x = fx
        fx = apply_t(x)
    if not np.isfinite(best_res):
        raise OracleFailure("Anderson acceleration produced no finite iterate")
    return best.reshape(n, cols)


def run_oracle(
    matrix, rhs: np.ndarray, x0: np.ndarray, oracle: str, n: int, tol: float
) -> np.ndarray:
    """Produce an (untrusted) candidate solution of ``(I - A) x = rhs``
    for every right-hand-side column.  Raises :class:`OracleFailure` when
    the oracle cannot deliver one at all."""
    if oracle == "direct":
        return _oracle_direct(matrix, rhs, n)
    if oracle == "sor":
        return _oracle_sor(matrix, rhs, x0, n, tol)
    if oracle == "anderson":
        return _oracle_anderson(matrix, rhs, x0, n, tol)
    raise ValueError(f"unknown oracle {oracle!r}")


# ---------------------------------------------------------------------------
# certification: the only trusted code path
# ---------------------------------------------------------------------------


def contraction_witness_ok(matrix, w: np.ndarray) -> bool:
    """True when ``w`` certifies ``rho(A) < 1`` (one sweep): ``w`` finite
    and ``w - A w >= 1/2`` componentwise — see the module docstring for
    the weighted-norm argument.  Implies ``w >= 1/2 > 0`` because
    ``A w`` cannot be negative once the margin check passes."""
    if not np.isfinite(w).all():
        return False
    return bool(((w - matrix @ w) >= WITNESS_MARGIN).all())


def certify_bracket(
    matrix,
    b: np.ndarray,
    x: np.ndarray,
    candidate: np.ndarray,
    witness: np.ndarray,
    residual: float,
    allow_lower: bool,
) -> Tuple[np.ndarray, bool, bool, int]:
    """Verify the oracle candidate and fold what certifies into the bracket.

    ``b`` and ``x`` are the two-column (lower-pass, upper-pass) offsets
    and the current — always valid — iterate; ``witness`` the candidate
    expected-visits vector (the nudge direction), ``residual`` the
    candidate's sup-norm fixed-point residual (the nudge scale).  Returns
    ``(x', lower_adopted, upper_adopted, sweeps_used)``; a column whose
    trials never verify keeps its current values, so a rejected candidate
    leaves the bracket unchanged.

    The lower column is only eligible with ``allow_lower`` (the
    contraction witness — without ``rho(A) < 1`` a post-fixpoint only
    bounds the *greatest* fixed point); the upper column's pre-fixpoint
    check is unconditionally sound.  Adoption takes ``max`` (lower) /
    ``min`` (upper) with the current iterate: both operands bound the
    fixed point from the same side, so the combination does too, and the
    bracket can only tighten.
    """
    x = x.copy()
    ok_lower = False
    ok_upper = False
    sweeps = 0
    finite_lower = bool(np.isfinite(candidate[:, 0]).all())
    finite_upper = bool(np.isfinite(candidate[:, 1]).all())
    want_lower = allow_lower and finite_lower
    want_upper = finite_upper
    if not (want_lower or want_upper):
        return x, ok_lower, ok_upper, sweeps
    if np.isfinite(witness).all() and bool((witness > 0.0).all()):
        nudge = witness
    else:
        nudge = np.ones(len(witness))
    w_max = float(nudge.max(initial=1.0))
    base = max(residual, 2.0**-52)
    ladder = [m * base for m in SLACK_MULTIPLES]
    ladder[-1] = max(ladder[-1], _SLACK_CAP / w_max)
    # strict-improvement floor/ceiling: sweep iterates can overshoot the
    # [0, 1] lattice by an ulp (sweep rounding), and a garbage trial
    # clipped to the lattice top would read as "improving" on a 1 + ulp
    # iterate — measure improvement against the clamped iterate so
    # vacuous all-zeros/all-ones trials are always rejections
    lower_floor = np.maximum(x[:, 0], 0.0)
    upper_ceil = np.minimum(x[:, 1], 1.0)
    for eps in ladder:
        trial = x.copy()
        if want_lower and not ok_lower:
            trial[:, 0] = np.clip(candidate[:, 0] - eps * nudge, 0.0, 1.0)
        if want_upper and not ok_upper:
            trial[:, 1] = np.clip(candidate[:, 1] + eps * nudge, 0.0, 1.0)
        swept = matrix @ trial + b
        sweeps += 1
        if (
            want_lower
            and not ok_lower
            and bool((swept[:, 0] >= trial[:, 0]).all())
            and bool((trial[:, 0] > lower_floor).any())
        ):
            # verified post-fixpoint + witness: trial <= lfp.  Adoption
            # additionally requires strict improvement somewhere — a
            # garbage candidate whose nudge clipped it to the lattice
            # bottom verifies vacuously but must read as a rejection
            x[:, 0] = np.maximum(x[:, 0], trial[:, 0])
            ok_lower = True
        if (
            want_upper
            and not ok_upper
            and bool((swept[:, 1] <= trial[:, 1]).all())
            and bool((trial[:, 1] < upper_ceil).any())
        ):
            # verified pre-fixpoint: trial >= lfp = vpf
            x[:, 1] = np.minimum(x[:, 1], trial[:, 1])
            ok_upper = True
        if ok_lower == want_lower and ok_upper == want_upper:
            break
    return x, ok_lower, ok_upper, sweeps
