"""Property-based type-soundness tests (paper Theorem 1, Corollary 1).

A generator produces random ENT programs from well-typed-by-construction
building blocks: dynamic objects with data-dependent attributors,
bounded and unbounded snapshots (with and without handlers), messaging,
mode-case elimination, and loops.  Every generated program must
typecheck, and every run must either produce a value, exhaust its fuel
(divergence), or stop at an EnergyException from a bad check — never a
stuck state (``StuckError``).  A tracer's ``DfallCheckEvent`` stream
asserts the dynamic waterfall invariant on every message (Corollary 1)
on every engine under both check depths.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import (EnergyException, EntError, FuelExhausted,
                               StuckError)
from repro.lang.engines import ENGINES
from repro.lang.interp import Interpreter, InterpOptions
from repro.lang.typechecker import check_program
from repro.obs.events import DfallCheckEvent
from repro.obs.tracer import Tracer

HEADER = """
modes { energy_saver <= managed; managed <= full_throttle; }

class D@mode<?X> {
    int n;
    attributor {
        if (n > 20) { return full_throttle; }
        if (n > 10) { return managed; }
        return energy_saver;
    }
    D(int n) { this.n = n; }
    mcase<int> level = mcase{
        energy_saver: 1; managed: 2; full_throttle: 3;
    };
    int work(int k) { return n + k; }
    int grow() { n = n + 7; return n; }
}
"""

MODE_NAMES = ["energy_saver", "managed", "full_throttle"]

_bounds = st.one_of(
    st.none(),
    st.tuples(st.sampled_from(["_"] + MODE_NAMES),
              st.sampled_from(["_"] + MODE_NAMES)))


@st.composite
def programs(draw):
    """Emit a random Main over the fixed class library."""
    lines = []
    dyn_vars = []
    snap_vars = []
    var_count = 0

    def fresh():
        nonlocal var_count
        var_count += 1
        return f"v{var_count}"

    n_ops = draw(st.integers(min_value=1, max_value=12))
    lines.append("int acc = 0;")
    for _ in range(n_ops):
        choice = draw(st.integers(min_value=0, max_value=5))
        if choice == 0 or not dyn_vars:
            name = fresh()
            size = draw(st.integers(min_value=0, max_value=30))
            lines.append(f"D {name} = new D({size});")
            dyn_vars.append(name)
        elif choice == 1:
            src = draw(st.sampled_from(dyn_vars))
            name = fresh()
            bounds = draw(_bounds)
            snap = f"snapshot {src}"
            if bounds is not None:
                snap += f" [{bounds[0]}, {bounds[1]}]"
            guarded = draw(st.booleans())
            if guarded:
                # The snapshot result is scoped inside the handler-
                # protected block (non-equivocation: it cannot flow to
                # a dynamic-typed variable outside).
                lines.append(f"try {{ D {name} = {snap}; "
                             f"acc = acc + {name}.work(1); }} "
                             f"catch (EnergyException e) "
                             f"{{ acc = acc + 1; }}")
            else:
                lines.append(f"D {name} = {snap};")
                snap_vars.append(name)
        elif choice == 2 and snap_vars:
            target = draw(st.sampled_from(snap_vars))
            k = draw(st.integers(min_value=0, max_value=5))
            lines.append(f"acc = acc + {target}.work({k});")
        elif choice == 3 and snap_vars:
            target = draw(st.sampled_from(snap_vars))
            lines.append(f"acc = acc + {target}.level;")
        elif choice == 4 and dyn_vars:
            target = draw(st.sampled_from(dyn_vars))
            mode = draw(st.sampled_from(MODE_NAMES))
            lines.append(f"acc = acc + mselect({target}.level, {mode});")
        else:
            reps = draw(st.integers(min_value=0, max_value=4))
            lines.append(f"int i{var_count} = 0;")
            lines.append(f"while (i{var_count} < {reps}) "
                         f"{{ acc = acc + 1; "
                         f"i{var_count} = i{var_count} + 1; }}")
            var_count += 1
    body = "\n        ".join(lines)
    return (HEADER
            + "class Main { void main() { "
            + body + " Sys.print(acc); } }")


@settings(max_examples=60, deadline=None)
@given(programs())
def test_soundness_never_stuck(source):
    """Theorem 1: well-typed programs reduce to a value, diverge, or
    stop at a bad check — they never get stuck."""
    checked = check_program(source)  # must typecheck
    interp = Interpreter(checked, options=InterpOptions(fuel=200_000))
    try:
        interp.run()
    except (EnergyException, FuelExhausted):
        pass  # bad check or bounded divergence: allowed by soundness
    except StuckError as exc:  # pragma: no cover - a real bug
        raise AssertionError(f"stuck state reached: {exc}\n{source}")


def _run_to_end(interp):
    try:
        interp.run()
    except (EnergyException, FuelExhausted):
        pass
    return interp


@settings(max_examples=40, deadline=None)
@given(programs())
def test_waterfall_invariant_preservation(source):
    """Corollary 1: dfall holds at every message of a well-typed run,
    on every engine under both check depths.

    The gate cannot pass vacuously: the tracer must have kept every
    event, and it must have seen exactly the executed checks the stats
    count (at least the boot send to ``Main.main``).  An untraced run
    (the VM's leaf path; the JIT compiling every body on first entry)
    must count the same checks as the traced one."""
    checked = check_program(source)
    for engine in ENGINES:
        for checks in ("full", "transient"):
            config = (engine, checks)
            options = InterpOptions(fuel=200_000, engine=engine,
                                    checks=checks)
            tracer = Tracer()
            traced = _run_to_end(Interpreter(checked, options=options,
                                             tracer=tracer))
            assert tracer.dropped == 0, config
            executed = [e for e in tracer.events()
                        if isinstance(e, DfallCheckEvent) and not e.elided]
            assert len(executed) == traced.stats.dfall_checks > 0, (
                config, len(executed), traced.stats.dfall_checks)
            violations = [e for e in executed if not e.holds]
            assert not violations, (config, violations, source)
            untraced = Interpreter(checked, options=options)
            if engine == "jit":
                untraced._vm._hot_call = untraced._vm._hot_loop = 1
            _run_to_end(untraced)
            assert (untraced.stats.dfall_checks
                    == traced.stats.dfall_checks), config


@settings(max_examples=30, deadline=None)
@given(programs())
def test_silent_mode_never_raises(source):
    """The E1 silent build ignores every EnergyException."""
    checked = check_program(source)
    interp = Interpreter(checked,
                         options=InterpOptions(silent=True, fuel=200_000))
    try:
        interp.run()
    except FuelExhausted:
        pass


@settings(max_examples=30, deadline=None)
@given(programs())
def test_lazy_and_eager_copy_agree(source):
    """The lazy-copy optimization (section 5) is unobservable: lazy and
    eager snapshots produce identical program output."""
    def run(lazy):
        checked = check_program(source)
        interp = Interpreter(
            checked, options=InterpOptions(lazy_copy=lazy, fuel=200_000))
        try:
            interp.run()
        except (EnergyException, FuelExhausted) as exc:
            return ("exception", type(exc).__name__, interp.output)
        return ("ok", None, interp.output)

    assert run(True) == run(False)
