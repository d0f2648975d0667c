"""Which entry point is which layer, for the traced run.

Each entry is wrapped in the namespace its callers look it up in:
class methods on their class, module functions on the module that
calls them (``repro.lang.vm.lower_body``, not
``repro.lang.bytecode.lower_body``).  Layer names follow the modules.

The benchmark's own calls (``workloads``) hold direct references taken
at import time, so wrapping ``check_program`` or ``make_platform``
here times only the calls the advisor makes.
"""

from __future__ import annotations

from typing import Callable, Dict, List, Optional

from perfbench.spans import Patches, SpanRecorder, context_wrapper, \
    span_wrapper

#: Every per-layer metric the traced run reports, in output order.
#: A layer that a workload does not exercise reports 0.
BUSY_LAYERS = (
    "lexer", "parser", "typechecker", "analysis",
    "bytecode", "jit", "interp.walk", "interp.vm", "interp.jit",
    "fleet.device_params", "fleet.run_device", "fleet.seat",
    "fleet.fold",
    "embedded.snapshot", "embedded.boot", "embedded.mcase",
    "platform.cpu_work", "platform.net_bytes", "platform.sleep",
    "platform.drain",
    "advise.pin", "advise.check", "advise.analyze",
    "advise.make_platform", "advise.profiled_run", "advise.search",
)

COUNTERS = (
    "lexer.tokens", "parser.decls", "typechecker.accepted",
    "typechecker.rejected", "analysis.sites", "analysis.elided",
    "bytecode.bodies", "jit.compiles", "jit.deopts",
    "jit.invalidations", "jit.bailouts",
    "interp.walk.steps", "interp.vm.steps", "interp.jit.steps",
    "checks.executed", "checks.elided", "checks.shallow",
    "checks.energy_exceptions",
    "embedded.dfall_checks", "embedded.bound_checks",
    "advise.cells",
)

PLATFORM_LAYERS = ("platform.cpu_work", "platform.net_bytes",
                   "platform.sleep", "platform.drain")


def install(rec: SpanRecorder,
            on_cell: Optional[Callable[[dict], None]] = None) -> Patches:
    """Wrap every layer's entry points; returns the undo handle.

    ``on_cell`` receives each advisor calibration task as it starts.
    """
    from repro import analysis
    from repro.advise import search
    from repro.analysis import obligations, planner
    from repro.fleet import service, shard
    from repro.lang import jit, lexer, parser, typechecker, vm
    from repro.lang.interp import Interpreter
    from repro.platform import battery, systems
    from repro.runtime import embedded

    p = Patches()
    count = rec.count

    def span(target, attr, name, after=None):
        p.wrap(target, attr,
               lambda fn: span_wrapper(rec, name, fn, after))

    # -- front end ----------------------------------------------------
    span(lexer.Lexer, "tokenize", "lexer",
         lambda a, r, e: e is None and count("lexer.tokens", len(r)))
    span(parser.Parser, "parse_program", "parser",
         lambda a, r, e: e is None and count("parser.decls",
                                             len(r.classes)))

    def verdict(args, result, error):
        count("typechecker.rejected" if error is not None
              else "typechecker.accepted")
    span(typechecker.TypeChecker, "check", "typechecker", verdict)

    def sites(args, result, error):
        if error is None:
            count("analysis.sites", len(result))
            count("analysis.elided",
                  sum(1 for s in result if s.status == "elided"))
    span(obligations.ProgramAnalyzer, "analyze", "analysis", sites)
    span(planner, "attach_cost_bounds", "analysis")

    # -- execution ----------------------------------------------------
    span(vm, "lower_body", "bytecode",
         lambda a, r, e: count("bytecode.bodies"))
    span(vm, "lower_expr", "bytecode",
         lambda a, r, e: count("bytecode.bodies"))
    span(jit, "compile_body", "jit")

    def run_name(args):
        interp = args[0]
        if interp.profiler.enabled:
            return "advise.profiled_run"
        return f"interp.{interp.engine}"

    def run_counts(args, result, error):
        interp = args[0]
        stats = interp.stats
        if not interp.profiler.enabled:
            count(f"interp.{interp.engine}.steps", stats.steps)
        count("checks.executed", stats.dfall_checks + stats.bound_checks)
        count("checks.elided",
              stats.dfall_elided + stats.bound_checks_elided)
        count("checks.shallow", stats.shallow_checks)
        count("checks.energy_exceptions", stats.energy_exceptions)
        engine_vm = interp._vm
        if engine_vm is not None and hasattr(engine_vm, "jit_compiles"):
            count("jit.compiles", engine_vm.jit_compiles)
            count("jit.deopts", engine_vm.jit_deopts)
            count("jit.invalidations", engine_vm.jit_invalidations)
            count("jit.bailouts", engine_vm.jit_bailouts)
    span(Interpreter, "run", run_name, run_counts)

    # -- fleet, embedded runtime, platform -----------------------------
    span(shard, "device_params", "fleet.device_params")
    span(shard, "run_device", "fleet.run_device")
    span(systems.Platform, "reset", "fleet.seat")
    span(embedded.EntRuntime, "reset_device", "fleet.seat")
    span(embedded.EntRuntime, "bind_platform", "fleet.seat")

    def fold_counts(args, result, error):
        counters = args[1].registry.counters
        for name, key in (("embedded.dfall_checks",
                           "fleet.runtime.dfall_checks"),
                          ("embedded.bound_checks",
                           "fleet.runtime.bound_checks")):
            counter = counters.get(key)
            count(name, counter.value if counter else 0)
    span(service, "_fold", "fleet.fold", fold_counts)

    span(embedded.EntRuntime, "snapshot", "embedded.snapshot")
    p.wrap(embedded.EntRuntime, "booted",
           lambda fn: context_wrapper(rec, "embedded.boot", fn))
    span(embedded.ModeCase, "select", "embedded.mcase")

    span(systems.Platform, "cpu_work", "platform.cpu_work")
    span(systems.Platform, "net_bytes", "platform.net_bytes")
    span(systems.Platform, "sleep", "platform.sleep")
    # Every platform call drains the battery for the energy it used;
    # that is part of the call.  ``platform.drain`` is the device's own
    # background drain, called from outside the platform.
    span(battery.Battery, "drain",
         lambda a: (None if rec.innermost() in PLATFORM_LAYERS
                    else "platform.drain"))

    # -- advisor --------------------------------------------------------
    span(search, "advise_source", "advise.search")

    def calibration_cell(fn):
        def wrapper(task):
            count("advise.cells")
            if on_cell is not None:
                on_cell(task)
            return fn(task)
        return wrapper
    p.wrap(search, "_calibration_worker", calibration_cell)
    span(search, "pin_classes", "advise.pin")
    span(typechecker, "check_program", "advise.check")
    span(analysis, "analyze_program", "advise.analyze")
    # The fleet also builds platforms (``system_config``); only the
    # advisor's calls belong to this layer.
    span(systems, "make_platform",
         lambda a: ("advise.make_platform"
                    if rec.within("advise.search") else None))
    return p


def layer_metrics(summary: Dict[str, object],
                  counters: Dict[str, float]) -> Dict[str, float]:
    """The per-layer metric values from a span summary + counters."""
    busy: Dict[str, float] = summary["busy_s"]
    calls: Dict[str, int] = summary["calls"]
    out: Dict[str, float] = {}
    for layer in BUSY_LAYERS:
        out[f"{layer}.busy_s"] = busy.get(layer, 0.0)
        out[f"{layer}.calls"] = calls.get(layer, 0)
    for key in COUNTERS:
        out[key] = counters.get(key, 0)
    lex_busy = busy.get("lexer", 0.0)
    out["lexer.tokens_per_s"] = (counters.get("lexer.tokens", 0)
                                 / lex_busy if lex_busy else 0.0)
    sites = counters.get("analysis.sites", 0)
    out["analysis.elided_ratio"] = (counters.get("analysis.elided", 0)
                                    / sites if sites else 0.0)
    out["platform.calls"] = sum(calls.get(name, 0)
                                for name in PLATFORM_LAYERS)
    return out


def metric_names() -> List[str]:
    """Every per-layer metric name, as ``layer_metrics`` emits them."""
    return list(layer_metrics({"busy_s": {}, "calls": {}}, {}))
