"""repro.analysis — static analysis between typechecking and execution.

Three cooperating passes over a ``CheckedProgram``:

* the **check-obligation pass** (:mod:`.obligations`) enumerates every
  dynamic check the runtime would emit — dfall guards, snapshot bound
  checks, mode-case eliminations — with a source span and a reason;
* the **mode-flow pass** (:mod:`.modeflow`, driven by the same walk)
  propagates dynamically-enforced mode intervals through locals and
  method boundaries;
* the **elision planner** (:mod:`.planner`) annotates the AST so the
  engines skip the checks proven to always pass;
* the **residual-cost pass** (:mod:`.cost`) bounds how many times each
  residual check can fire (loop-trip bounds × interprocedural
  activation counts) — the static overhead guarantee ``repro analyze``
  prints and ``static_vs_observed`` validates against profiler counts.

Entry points: :func:`analyze_program` (report only, or ``annotate=True``
to also plan), :func:`plan_elisions` (analyze + annotate, what
``repro run`` uses).  The soundness argument lives in docs/ANALYSIS.md.
"""

from repro.analysis.cost import (CHECK_COST, TRANSIENT_COST, ClassCost,
                                 CostSummary, activation_counts,
                                 attach_cost_bounds)
from repro.analysis.modeflow import (Bound, ModeFact, OMEGA, ONE, ZERO,
                                     join_facts, join_envs)
from repro.analysis.obligations import (CheckSite, ProgramAnalyzer,
                                        DFALL, SNAPSHOT_BOUND,
                                        MCASE_ELIM, STATIC, ELIDED,
                                        RESIDUAL)
from repro.analysis.planner import (analyze_program, apply_assignment,
                                    apply_plan, plan_elisions)
from repro.analysis.report import (AnalysisReport, StaticVsObserved,
                                   static_vs_observed)

__all__ = ["ModeFact", "join_facts", "join_envs", "CheckSite",
           "ProgramAnalyzer", "AnalysisReport", "StaticVsObserved",
           "static_vs_observed", "analyze_program", "apply_plan",
           "apply_assignment", "plan_elisions", "DFALL",
           "SNAPSHOT_BOUND", "MCASE_ELIM", "STATIC", "ELIDED",
           "RESIDUAL", "Bound", "OMEGA", "ONE", "ZERO", "CHECK_COST",
           "TRANSIENT_COST", "ClassCost", "CostSummary",
           "activation_counts", "attach_cost_bounds"]
