"""Per-layer tracing from outside the program.

:class:`Tracer` wraps the program's public layer entry points in spans:
class methods are replaced on the class, and module-level functions are
rebound in every loaded ``repro`` module that holds them, because
``from x import f`` binds the name when the consumer is imported.  Spans
and counts are kept in memory and turned into metrics after the run.

Only spans opened while an op is running are recorded: warm-up and the
untimed correctness oracles run through the same wrappers but leave no
trace.  A call into a layer that is already open (``LinearProgram.feasible``
calling ``solve``, recursion) is not recorded a second time, so a layer's
busy time is the union of its outermost spans.
"""

from __future__ import annotations

import sys
import time
from collections import Counter
from typing import Callable, Dict, List, Optional

#: ``(module, attribute, span name)`` of the module-level functions traced
FUNCTIONS = (
    ("repro.lang.compiler", "compile_source", "lang.compile"),
    ("repro.core.invariants", "generate_interval_invariants", "invariants.generate"),
    ("repro.numeric.ser", "ternary_search", "ser.search"),
    ("repro.core.hoeffding", "synthesize", "hoeffding.synth"),
    ("repro.core.explinsyn", "synthesize", "explinsyn.synth"),
    ("repro.core.explowsyn", "synthesize", "explowsyn.synth"),
    ("repro.experiments.table1", "synthesize_baseline", "baselines.bound"),
    ("repro.core.fixpoint", "build_sparse_model", "fixpoint.explore"),
    ("repro.core.fixpoint", "iterate_model", "fixpoint.vi"),
    ("repro.core.runcert", "emit_run_certificate", "runcert.emit"),
    ("repro.core.runcert", "verify_run_certificate", "runcert.verify"),
)
#: ``(module, class, method, span name)`` of the methods traced
METHODS = (
    ("repro.numeric.lp", "LinearProgram", "solve", "lp.solve"),
    ("repro.numeric.convex", "ConvexProgram", "solve", "convex.solve"),
    ("repro.polyhedra.constraints", "Polyhedron", "is_empty", "polyhedra.is_empty"),
    ("repro.engine.cache", "ResultCache", "put", "cache.put"),
    ("repro.engine.engine", "AnalysisEngine", "run", "engine"),
)
#: modules whose import binds a traced function; imported before patching
#: so the rebinding reaches them
CONSUMERS = (
    "repro.core",
    "repro.engine",
    "repro.experiments.table1",
    "repro.experiments.table2",
    "repro.programs",
    "repro.lang",
)


def _on_result(name: str, counts: Counter, result, args) -> None:
    """Counts taken from a finished call's arguments and result."""
    if name == "lp.solve":
        counts["lp.rows"] += args[0].num_constraints
    elif name == "ser.search":
        counts["ser.probes"] += result.evaluations
    elif name == "hoeffding.synth":
        counts["hoeffding.refused"] += not result.ok
    elif name == "engine":
        counts["engine.tasks"] += len(args[1])
    elif name == "fixpoint.explore":
        counts["fixpoint.states"] += result.n
        counts["fixpoint.fraction"] += result.explored_via == "fraction"
    elif name == "fixpoint.vi":
        counts["fixpoint.vi_sweeps"] += result.iterations
        counts["fixpoint.dense"] += not hasattr(args[0].matrix, "nnz")
        counts["solvers.oracle_adopted"] += result.solver != "sweep"
    elif name == "runcert.verify":
        counts["runcert.verified"] += result.ok


class Tracer:
    def __init__(self) -> None:
        #: ``[name, start, end, parent index, op number]``, in open order
        self.spans: List[list] = []
        self.counts: Counter = Counter()
        self._stack: List[int] = []
        self._op: Optional[int] = None
        self._ops = 0
        self._undo: List[Callable[[], None]] = []

    # -- recording ---------------------------------------------------------------
    def _open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self._ops])
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self) -> None:
        self.spans[self._stack.pop()][2] = time.perf_counter()

    def begin_op(self) -> None:
        self._op = self._open("op")

    def end_op(self) -> None:
        self._close()
        self._op = None
        self._ops += 1

    def record(self, name: str, seconds: float) -> None:
        """A child span of the running op measured elsewhere (a child
        process); it starts with the op."""
        start = self.spans[self._op][1]
        self.spans.append([name, start, start + seconds, self._op, self._ops])

    def _wrap(self, name: str, fn: Callable) -> Callable:
        tracer = self

        def traced(*args, **kwargs):
            if tracer._op is None or any(tracer.spans[i][0] == name for i in tracer._stack):
                return fn(*args, **kwargs)
            tracer._open(name)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer._close()
                tracer.counts[name + ".raised"] += 1
                raise
            tracer._close()
            _on_result(name, tracer.counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    # -- patching ----------------------------------------------------------------
    def install(self) -> "Tracer":
        import importlib

        for module in CONSUMERS:
            importlib.import_module(module)
        for module, cls_name, attr, name in METHODS:
            cls = getattr(importlib.import_module(module), cls_name)
            original = cls.__dict__[attr]
            setattr(cls, attr, self._wrap(name, original))
            self._undo.append(lambda cls=cls, attr=attr, original=original: setattr(cls, attr, original))
        for module, attr, name in FUNCTIONS:
            original = getattr(importlib.import_module(module), attr)
            traced = self._wrap(name, original)
            for mod in list(sys.modules.values()):
                if getattr(mod, "__name__", "").startswith("repro") and getattr(mod, attr, None) is original:
                    setattr(mod, attr, traced)
                    self._undo.append(lambda mod=mod, attr=attr, original=original: setattr(mod, attr, original))
        return self

    def uninstall(self) -> None:
        while self._undo:
            self._undo.pop()()

    # -- metrics -----------------------------------------------------------------
    def metrics(self, scales: Optional[List[float]] = None) -> Dict[str, float]:
        """Busy seconds and call counts per layer, the engine's self time,
        and the share of op time that named layer spans cover.  ``scales``
        holds each op's factor from wall to reference-host seconds."""
        busy: Counter = Counter()
        calls: Counter = Counter()
        child_time: Counter = Counter()
        seconds = [(end - start) * (scales[op] if scales else 1.0) for _, start, end, _, op in self.spans]
        for i, (name, _, _, parent, _) in enumerate(self.spans):
            busy[name] += seconds[i]
            calls[name] += 1
            if parent is not None:
                child_time[parent] += seconds[i]
        engine_self = sum(
            seconds[i] - child_time[i] for i, span in enumerate(self.spans) if span[0] == "engine"
        )
        # covered: spans whose parent is the op or an engine span
        covered = sum(
            seconds[i]
            for i, (name, _, _, parent, _) in enumerate(self.spans)
            if parent is not None and name != "engine" and self.spans[parent][0] in ("op", "engine")
        )
        c = self.counts

        def ratio(num: float, den: float) -> float:
            return num / den if den else 0.0

        return {
            "lang.compile_s": busy["lang.compile"],
            "lang.compiles": calls["lang.compile"],
            "polyhedra.is_empty_s": busy["polyhedra.is_empty"],
            "polyhedra.is_empty_calls": calls["polyhedra.is_empty"],
            "invariants.generate_s": busy["invariants.generate"],
            "lp.solve_s": busy["lp.solve"],
            "lp.solves": calls["lp.solve"],
            "lp.rows": c["lp.rows"],
            "lp.failed": c["lp.solve.raised"],
            "ser.probes": c["ser.probes"],
            "hoeffding.synth_s": busy["hoeffding.synth"],
            "hoeffding.refused_ratio": ratio(c["hoeffding.refused"], calls["hoeffding.synth"]),
            "baselines.bound_s": busy["baselines.bound"],
            "convex.solve_s": busy["convex.solve"],
            "convex.solves": calls["convex.solve"],
            "explinsyn.synth_s": busy["explinsyn.synth"],
            "explowsyn.synth_s": busy["explowsyn.synth"],
            "engine.self_s": engine_self,
            "engine.tasks": c["engine.tasks"],
            "cache.put_s": busy["cache.put"],
            "fixpoint.explore_s": busy["fixpoint.explore"],
            "fixpoint.states": c["fixpoint.states"],
            "fixpoint.fraction_ratio": ratio(c["fixpoint.fraction"], calls["fixpoint.explore"]),
            "fixpoint.vi_s": busy["fixpoint.vi"],
            "fixpoint.vi_sweeps": c["fixpoint.vi_sweeps"],
            "fixpoint.dense_ratio": ratio(c["fixpoint.dense"], calls["fixpoint.vi"]),
            "solvers.oracle_adopted_ratio": ratio(c["solvers.oracle_adopted"], calls["fixpoint.vi"]),
            "runcert.emit_s": busy["runcert.emit"],
            "runcert.verify_s": busy["runcert.verify"],
            "runcert.verified_ratio": ratio(c["runcert.verified"], calls["runcert.verify"]),
            "cli.import_s": busy["cli.import"],
            "cli.solve_s": busy["cli.solve"],
            "trace.op_s": busy["op"],
            "trace.coverage_ratio": ratio(covered, busy["op"]),
        }
