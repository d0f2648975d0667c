"""Cross-engine differential testing for the register-bytecode VM.

All three execution engines — tree walk, VM, and the VM's trace-JIT
tier — must be observationally identical on every program: same output
lines, same stats (minus ``steps``, which is engine-defined), same
exceptions with the same messages, with check elision and inline caches
toggled both ways.  This is the acceptance gate for ``docs/VM.md``'s
claim that the engines differ only in speed.  The battery sweep over
the same corpora lives in ``test_compiler_agreement.py``.

The ``jit`` engine runs twice over the fixed corpora: once with the
shipped hotness thresholds (tier-transition coverage — some bodies
compile mid-run, some never do) and once through the aggressive
``jit_hot`` runs below, where thresholds drop to 1 so essentially every
body executes as emitted Python.
"""

import pathlib

import pytest
from hypothesis import given, settings

from repro.analysis import plan_elisions
from repro.core.errors import (EnergyException, EntRuntimeError,
                               FuelExhausted)
from repro.lang.interp import Interpreter, InterpOptions, NullPlatform
from repro.lang.typechecker import check_program

# Reuse the soundness generator: its programs cover snapshots, bounds,
# messaging, mode cases, loops and exception handlers.
from test_soundness import programs  # type: ignore

_ROOT = pathlib.Path(__file__).resolve().parents[2]

#: Every shipped ENT example program, globbed so new ones are covered.
FIXED_PROGRAMS = sorted(
    str(p.relative_to(_ROOT))
    for p in (_ROOT / "examples" / "ent").glob("*.ent"))

ENGINES = ("walk", "vm", "jit")

_KERNEL_HEADER = """
modes { low <= mid; mid <= high; }

class Acc@mode<high> {
    int total;
    Acc() { total = 0; }
    int bump(int k) { total = total + k; return total; }
}

class Rank@mode<?X> {
    int links;
    attributor {
        if (links > 12) { return high; }
        if (links > 4) { return mid; }
        return low;
    }
    Rank(int links) { this.links = links; }
    mcase<int> iterations = mcase{ low: 2; mid: 5; high: 9; };
    int score(int seed) {
        int s = seed;
        int i = 0;
        while (i < iterations) { s = (s * 31 + links) % 1000; i = i + 1; }
        return s;
    }
}
"""

#: Workload-style kernels: the arithmetic/messaging shapes of the
#: Figure-7 workloads (accumulation loops, rank iteration with a
#: data-dependent mode, snapshot-driven degradation) as ENT programs.
KERNEL_PROGRAMS = [
    # accumulate: the hot-loop bench's shape, many messages to a
    # concretely-moded receiver.
    _KERNEL_HEADER + """
class Main {
    void main() {
        Acc a = new Acc();
        int i = 0;
        while (i < 400) { a.bump(i % 7); i = i + 1; }
        Sys.print(a.bump(0));
    }
}
""",
    # pagerank-ish: data-dependent attributor modes select different
    # iteration counts through an mcase field.
    _KERNEL_HEADER + """
class Main {
    void main() {
        int total = 0;
        int n = 0;
        while (n < 20) {
            Rank r = snapshot (new Rank(n));
            total = total + r.score(n);
            n = n + 1;
        }
        Sys.print(total);
    }
}
""",
    # crypto-ish: nested loops of modular arithmetic with casts and
    # list traffic.
    _KERNEL_HEADER + """
class Main {
    void main() {
        List blocks = [3, 5, 7, 11];
        int digest = 1;
        foreach (int b : blocks) {
            int round = 0;
            while (round < 16) {
                digest = (digest * (int) b + round) % 8191;
                round = round + 1;
            }
        }
        Sys.print(digest);
    }
}
""",
]



def run_engine(source: str, engine: str, battery: float = 0.6,
               elide: bool = False, inline_caches: bool = True,
               jit_hot: bool = False):
    """One run; returns everything observable: the outcome (with the
    exception's message — errors must match byte for byte), the output
    lines, and the stats dict minus ``steps``.  ``jit_hot`` drops the
    JIT's hotness thresholds to 1 so every body compiles immediately.
    """

    class _Battery(NullPlatform):
        def battery_fraction(self):
            return battery

    checked = check_program(source)
    if elide:
        plan_elisions(checked)
    interp = Interpreter(
        checked, platform=_Battery(),
        options=InterpOptions(engine=engine, fuel=500_000,
                              inline_caches=inline_caches))
    if jit_hot and engine == "jit":
        interp._vm._hot_call = 1
        interp._vm._hot_loop = 1
    try:
        interp.run()
        outcome = ("ok", None)
    except EnergyException as exc:
        outcome = ("energy", str(exc))
    except FuelExhausted:
        outcome = ("fuel", None)
    except EntRuntimeError as exc:
        outcome = ("error", type(exc).__name__, str(exc))
    stats = interp.stats.as_dict()
    del stats["steps"]  # engine-defined (documented in docs/VM.md)
    return outcome, tuple(interp.output), stats


@pytest.mark.parametrize("path", FIXED_PROGRAMS)
@pytest.mark.parametrize("elide", [False, True], ids=["checks", "elide"])
@pytest.mark.parametrize("inline_caches", [True, False],
                         ids=["ic", "noic"])
def test_examples_agree(path, elide, inline_caches):
    source = (_ROOT / path).read_text()
    results = [run_engine(source, engine, elide=elide,
                          inline_caches=inline_caches)
               for engine in ENGINES]
    results.append(run_engine(source, "jit", elide=elide,
                              inline_caches=inline_caches,
                              jit_hot=True))
    for got in results[1:]:
        assert got == results[0]


@pytest.mark.parametrize("index", range(len(KERNEL_PROGRAMS)),
                         ids=["accumulate", "pagerank", "crypto"])
@pytest.mark.parametrize("battery", [0.9, 0.3])
@pytest.mark.parametrize("elide", [False, True], ids=["checks", "elide"])
def test_workload_kernels_agree(index, battery, elide):
    source = KERNEL_PROGRAMS[index]
    results = [run_engine(source, engine, battery=battery, elide=elide)
               for engine in ENGINES]
    results.append(run_engine(source, "jit", battery=battery,
                              elide=elide, jit_hot=True))
    for got in results[1:]:
        assert got == results[0]
    assert results[0][1], "kernel should print a digest"


@pytest.mark.parametrize("index", [0, 1],
                         ids=["accumulate", "pagerank"])
def test_check_counts_invariant_under_elision(index):
    """The paper's check accounting: executed + elided is the same
    number whether or not the planner ran, on every engine."""
    source = KERNEL_PROGRAMS[index]
    totals = set()
    for engine in ENGINES:
        for elide in (False, True):
            _, _, stats = run_engine(source, engine, elide=elide)
            totals.add((stats["dfall_checks"] + stats["dfall_elided"],
                        stats["bound_checks"]
                        + stats["bound_checks_elided"]))
    assert len(totals) == 1, totals


@settings(max_examples=30, deadline=None)
@given(programs())
def test_random_programs_agree(source):
    walked = run_engine(source, "walk")
    vm = run_engine(source, "vm")
    assert walked == vm


@settings(max_examples=25, deadline=None)
@given(programs())
def test_random_programs_agree_jit(source):
    """The JIT with thresholds at 1 — every body runs as emitted
    Python — against the reference walk."""
    walked = run_engine(source, "walk")
    jit = run_engine(source, "jit", jit_hot=True)
    assert walked == jit


@settings(max_examples=15, deadline=None)
@given(programs())
def test_random_programs_agree_noic(source):
    """Inline caches off must not change VM observables either."""
    walked = run_engine(source, "walk")
    vm = run_engine(source, "vm", inline_caches=False)
    assert walked == vm
    jit = run_engine(source, "jit", inline_caches=False, jit_hot=True)
    assert walked == jit
