"""The four workloads: their inputs, operations and oracles.

A workload's ``setup(seed)`` builds every input and every expected
answer and returns a list of :class:`Cell`.  One operation runs one
cell; :func:`schedule` cycles through the cells in a seeded order.
Each cell knows how to check its own result, so the measuring loop
in ``run.py`` is the same for every workload.

The program under test only ever receives the generated inputs; the
seed never reaches it except as a derived fleet or advisor seed,
which is part of those inputs.

Engines and check modes are always passed explicitly, so a change of
``repro.lang.engines.DEFAULT_ENGINE`` moves nothing here.  The
``compiled`` engine is left out on purpose (it is slated for
deletion).
"""

from __future__ import annotations

import hashlib
import json
import pathlib
import random
import time
from dataclasses import dataclass
from typing import Callable, Dict, Iterator, List, Optional

# Direct references, bound before the traced run wraps the module
# attributes: the benchmark's own calls must not be timed as the
# advisor's (see ``layers``).
from repro.advise import search as advise_search
from repro.advise.search import AdviseConfig
from repro.analysis import analyze_program
from repro.core.errors import EntError
from repro.fleet.service import run_fleet
from repro.fleet.spec import FleetSpec
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.lexer import tokenize
from repro.lang.parser import Parser
from repro.lang.typechecker import check_program
from repro.platform.systems import make_platform

from perfbench.corpus import generate_corpus
from perfbench.programs import generate_programs

HERE = pathlib.Path(__file__).resolve().parent
ROOT = HERE.parent
EXPECTED = HERE / "expected"
EXAMPLES = ("coadapt", "crawler", "media", "sensors", "thermal")

#: The seed the committed advisor hashes were recorded with.
DEFAULT_SEED = 0

EXEC_ENGINES = ("walk", "vm", "jit")
CHECK_MODES = ("full", "transient")
FUEL = 50_000_000

FLEET_SPECS = 4
FLEET_DEVICES = 128

#: Advisor sweep size: one calibration run per candidate at full
#: battery keeps a sweep of the largest example near half a second.
ADVISE_RUNS = 1
ADVISE_SAMPLES = 32
ADVISE_BATTERIES = (1.0,)


@dataclass
class Cell:
    """One kind of operation in a workload."""

    key: str
    run: Callable[[], object]
    #: Maps the result to ``None`` (correct) or a mismatch message.
    check: Callable[[object], Optional[str]]
    #: Units of work the result represents (see ``Workload.work_unit``).
    work: Callable[[object], float]


@dataclass(frozen=True)
class Workload:
    name: str
    setup: Callable[[int], List[Cell]]
    #: What one unit of ``work_per_s`` is on this workload.
    work_unit: str
    #: The tail percentile reported as ``op_ms_tail``: the highest that
    #: keeps at least ten samples beyond it at this workload's usual
    #: operation count in a run.
    tail_q: int


def schedule(cells: List[Cell], seed: int) -> Iterator[Cell]:
    """Endless passes over ``cells``, each pass in a seeded order."""
    rng = random.Random(f"schedule:{seed}")
    while True:
        order = list(cells)
        rng.shuffle(order)
        yield from order


def _example_source(stem: str) -> str:
    return (ROOT / "examples" / "ent" / f"{stem}.ent").read_text()


def _load_expected(name: str) -> Dict[str, object]:
    return json.loads((EXPECTED / name).read_text())


def _derived_seed(*parts: object) -> int:
    digest = hashlib.sha256(":".join(map(str, parts)).encode()).digest()
    return int.from_bytes(digest[:4], "big")


# ---------------------------------------------------------------------------
# compile: lexer -> parser -> typechecker -> analysis


def compile_source(source: str):
    """The ``repro check``/``analyze`` path; returns ``None`` when the
    program is accepted, else ``(error class name, line)``."""
    try:
        tokens = tokenize(source)
        program = Parser(tokens).parse_program()
        checked = check_program(program)
        analyze_program(checked, annotate=True)
    except EntError as exc:
        span = getattr(exc, "span", None)
        return (type(exc).__name__, span.line if span else None)
    return None


def _verdict_check(expect):
    expect = None if expect is None else tuple(expect)

    def check(result):
        if result != expect:
            return f"verdict {result!r}, expected {expect!r}"
        return None
    return check


def setup_compile(seed: int) -> List[Cell]:
    cells = []
    inputs = [(p.name, p.source, p.expect) for p in generate_corpus(seed)]
    # Every shipped example is a well-typed program.
    inputs += [(f"example-{stem}", _example_source(stem), None)
               for stem in EXAMPLES]
    for name, source, expect in inputs:
        kb = len(source.encode()) / 1024
        cells.append(Cell(key=name,
                          run=lambda s=source: compile_source(s),
                          check=_verdict_check(expect),
                          work=lambda _r, kb=kb: kb))
    return cells


# ---------------------------------------------------------------------------
# execute: fresh Interpreter.run() per operation, planned programs

#: Check counters that must agree across engines for one program and
#: check mode (``steps`` and engine-private counters excluded).
CHECK_COUNTERS = ("dfall_checks", "dfall_elided", "bound_checks",
                  "bound_checks_elided", "snapshots", "mcase_elims",
                  "shallow_checks", "energy_exceptions")


def _planned(source: str):
    checked = check_program(source)
    analyze_program(checked, annotate=True)
    return checked


def setup_execute(seed: int) -> List[Cell]:
    expected_examples = _load_expected("examples.json")
    # (program, checks) -> check counters of the first run seen.
    counters: Dict[tuple, tuple] = {}
    cells = []

    def add(name, checked, expect, engine, checks, platform):
        options = InterpOptions(engine=engine, checks=checks, fuel=FUEL)
        group = (name, checks)

        def run():
            interp = Interpreter(
                checked, options=options,
                platform=make_platform("A") if platform else None)
            interp.run()
            return interp

        def check(interp):
            if interp.output != expect:
                return f"output {interp.output!r}, expected {expect!r}"
            stats = interp.stats
            seen = tuple(getattr(stats, k) for k in CHECK_COUNTERS)
            first = counters.setdefault(group, seen)
            if seen != first:
                return (f"check counters {seen} differ from another "
                        f"engine's {first}")
            return None

        cells.append(Cell(key=f"{name}/{engine}/{checks}", run=run,
                          check=check, work=lambda _r: 1.0))

    for program in generate_programs(seed):
        checked = _planned(program.source)
        for engine in EXEC_ENGINES:
            for checks in CHECK_MODES:
                add(program.name, checked, program.expect, engine,
                    checks, platform=False)
    # The shipped examples run on a simulated platform, under the
    # paper's full checks (see README: transient mode and thermal.ent).
    for stem in EXAMPLES:
        checked = _planned(_example_source(stem))
        for engine in EXEC_ENGINES:
            add(f"example-{stem}", checked, expected_examples[stem],
                engine, "full", platform=True)
    return cells


# ---------------------------------------------------------------------------
# fleet: one in-process run_fleet per operation


def setup_fleet(seed: int) -> List[Cell]:
    cells = []
    for k in range(FLEET_SPECS):
        spec = FleetSpec(devices=FLEET_DEVICES,
                         seed=_derived_seed("fleet", seed, k))
        # The oracle: the fresh-objects reference engine's digest.
        reference = run_fleet(spec, shards=1,
                              engine="embedded").aggregate_digest()

        def check(report, reference=reference):
            if report.aggregate_digest() != reference:
                return "aggregate digest differs from the embedded engine"
            return None

        cells.append(Cell(
            key=f"fleet-{k}",
            run=lambda spec=spec: run_fleet(spec, shards=1,
                                            engine="batched"),
            check=check,
            work=lambda report: float(report.devices)))
    return cells


# ---------------------------------------------------------------------------
# advise: advise_source sweeps over the shipped examples


def advise_config(seed: int) -> AdviseConfig:
    return AdviseConfig(engine="jit", checks="full", jobs=1,
                        runs=ADVISE_RUNS, samples=ADVISE_SAMPLES,
                        batteries=ADVISE_BATTERIES, seed=seed)


def result_hash(result) -> str:
    return hashlib.sha256(result.to_json().encode()).hexdigest()


def setup_advise(seed: int) -> List[Cell]:
    committed = _load_expected("advise.json") if seed == DEFAULT_SEED \
        else {}
    cells = []
    for stem in EXAMPLES:
        source = _example_source(stem)
        # The advisor's input must be a well-typed program.
        check_program(source)
        file = f"examples/ent/{stem}.ent"
        sweep_seed = _derived_seed("advise", seed, stem)
        # Within a run every sweep of one example must hash alike; for
        # the default seed the hash must match the committed one.
        hashes = {"want": committed.get(stem)}

        def run(source=source, file=file, sweep_seed=sweep_seed):
            return advise_search.advise_source(
                source, file=file, config=advise_config(sweep_seed))

        def check(result, hashes=hashes):
            baseline = [c for c in result.frontier
                        if all(m is None for m in c.assignment.values())]
            if not baseline or baseline[0].risk != 0.0:
                return "all-dynamic baseline missing from the frontier " \
                       "at risk 0"
            digest = result_hash(result)
            want = hashes["want"]
            if want is None:
                hashes["want"] = digest
            elif digest != want:
                return f"result hash {digest[:12]} != {want[:12]}"
            return None

        cells.append(Cell(
            key=stem, run=run, check=check,
            work=lambda r: float(len(r.candidates) * r.config.runs
                                 * len(r.config.batteries))))
    return cells


def replay_cell(task: Dict[str, object], profiled: bool) -> float:
    """Seconds of ``Interpreter.run`` for one advisor calibration cell,
    with or without the profiler the advisor attaches.

    Rebuilds the cell the way ``repro.advise.search`` does (pinned
    source, residual checks discharged, same platform seed) but leaves
    out the attributor-event tracer, so the two runs differ only in the
    profiler.
    """
    from repro.analysis import apply_assignment
    from repro.core.errors import EnergyException
    from repro.obs.prof import Profiler

    assignment = task["assignment"]
    pinned = sorted(c for c, m in assignment.items() if m is not None)
    source = advise_search.pin_classes(task["source"], assignment,
                                       filename=task["file"])
    checked = check_program(source)
    report = analyze_program(checked, annotate=False, file=task["file"])
    apply_assignment(report.sites, pinned)
    platform = make_platform(task["system"], seed=task["platform_seed"],
                             battery_fraction=task["battery"])
    options = InterpOptions(engine=task["engine"], elide_checks=True,
                            fuel=task["fuel"], checks=task["checks"])
    interp = Interpreter(checked, platform=platform, options=options,
                         seed=task["platform_seed"],
                         profiler=Profiler(task["engine"]) if profiled
                         else None)
    started = time.perf_counter()
    try:
        interp.run(list(task["args"]))
    except EnergyException:
        pass
    return time.perf_counter() - started


#: Why each workload exists is recorded in BENCHMARK.json and README.md.
WORKLOADS: Dict[str, Workload] = {w.name: w for w in (
    Workload("compile", setup_compile, "source KB", 95),
    Workload("execute", setup_execute, "interpreter runs", 95),
    Workload("fleet", setup_fleet, "devices", 90),
    Workload("advise", setup_advise, "calibration cells", 80),
)}
