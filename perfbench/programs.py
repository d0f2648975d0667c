"""Generated ENT programs for the ``execute`` workload, each with a
Python model of its output.

The models are written from the programs' meaning, independently of
every engine, so a wrong answer from walk, vm or jit is caught even
when all three agree.  Trip counts come from the seed (within a
fixed band, so every seed runs the same amount of work to within a
few per cent); recursion depth stays far below any engine's call-depth
limit.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Callable, Dict, List

MODES = "modes { energy_saver <= managed; managed <= full_throttle; }\n"


@dataclass(frozen=True)
class ExecProgram:
    name: str
    source: str
    #: The output lines the program must print.
    expect: List[str]


def _trips(rng: random.Random, base: int) -> int:
    return base + rng.randint(-base // 20, base // 20)


def hot_loop(rng: random.Random) -> ExecProgram:
    """Message hot loop: one send to a fixed-mode object per trip."""
    n = _trips(rng, 2000)
    source = MODES + f"""
class Acc@mode<full_throttle> {{
    int total;
    int bump(int k) {{ total = total + k; return total; }}
}}
class Main {{
    void main() {{
        Acc a = new Acc();
        int i = 0;
        while (i < {n}) {{ a.bump(i % 7); i = i + 1; }}
        Sys.print(a.total);
    }}
}}
"""
    return ExecProgram("hot_loop", source,
                       [str(sum(i % 7 for i in range(n)))])


def residual_loop(rng: random.Random) -> ExecProgram:
    """Re-snapshot loop: a bounded snapshot of one tagged object and a
    residual dfall per trip.  The attributor's hull is wider than the
    bounds, so the planner cannot elide the checks."""
    n = _trips(rng, 1200)
    load = rng.randint(11, 100)          # attributor picks managed
    source = MODES + f"""
class R@mode<?X> {{
    int load;
    attributor {{
        if (load > 100) {{ return full_throttle; }}
        if (load > 10) {{ return managed; }}
        return energy_saver;
    }}
    R(int load) {{ this.load = load; }}
    int get() {{ return load; }}
}}
class Main {{
    void main() {{
        R@mode<?> r = new R@mode<?>({load});
        int total = 0;
        int i = 0;
        while (i < {n}) {{
            R s = snapshot r [managed, full_throttle];
            total = total + s.get();
            i = i + 1;
        }}
        Sys.print(total);
    }}
}}
"""
    return ExecProgram("residual_loop", source, [str(n * load)])


def tree_recursion(rng: random.Random) -> ExecProgram:
    """Call-heavy tree recursion (doubly recursive Fibonacci)."""
    # (depth, rounds) pairs that make about the same number of calls.
    depth, rounds = rng.choice(((12, 5), (13, 3)))

    def fib(k: int) -> int:
        a, b = 0, 1
        for _ in range(k):
            a, b = b, a + b
        return a

    source = MODES + f"""
class Tree@mode<managed> {{
    int fib(int n) {{
        if (n < 2) {{ return n; }}
        return this.fib(n - 1) + this.fib(n - 2);
    }}
}}
class Main {{
    void main() {{
        Tree t = new Tree();
        int r = 0;
        int total = 0;
        while (r < {rounds}) {{ total = total + t.fib({depth}); r = r + 1; }}
        Sys.print(total);
    }}
}}
"""
    return ExecProgram("tree_recursion", source,
                       [str(rounds * fib(depth))])


def poly_mcase(rng: random.Random) -> ExecProgram:
    """Polymorphic sends over four receiver classes, each result scaled
    by an mcase eliminated on a snapshotted dynamic object."""
    n = _trips(rng, 1000)
    load = rng.randint(0, 150)
    mode = 2 if load > 100 else (1 if load > 10 else 0)
    factor = (1, 2, 3)[mode]
    areas = [lambda k: k * k, lambda k: k * k // 2, lambda k: k * 3,
             lambda k: k]
    total = sum(factor * areas[i % 4](i % 10) for i in range(n))
    source = MODES + f"""
class Shape {{
    int area(int k) {{ return k; }}
}}
class Sq extends Shape {{
    int area(int k) {{ return k * k; }}
}}
class Tri extends Shape {{
    int area(int k) {{ return k * k / 2; }}
}}
class Rect extends Shape {{
    int area(int k) {{ return k * 3; }}
}}
class Scale@mode<?X> {{
    int load;
    attributor {{
        if (load > 100) {{ return full_throttle; }}
        if (load > 10) {{ return managed; }}
        return energy_saver;
    }}
    Scale(int load) {{ this.load = load; }}
    mcase<int> factor = mcase{{
        energy_saver: 1; managed: 2; full_throttle: 3;
    }};
    int apply(int v) {{ return v * factor; }}
}}
class Main {{
    void main() {{
        List shapes = new List();
        shapes.add(new Sq());
        shapes.add(new Tri());
        shapes.add(new Rect());
        shapes.add(new Shape());
        Scale s = snapshot (new Scale@mode<?>({load}));
        int total = 0;
        int i = 0;
        while (i < {n}) {{
            Shape sh = (Shape) shapes.get(i % 4);
            total = total + s.apply(sh.area(i % 10));
            i = i + 1;
        }}
        Sys.print(total);
    }}
}}
"""
    return ExecProgram("poly_mcase", source, [str(total)])


def alloc_snapshot(rng: random.Random) -> ExecProgram:
    """Allocate a fresh dynamic object and snapshot it, every trip."""
    n = _trips(rng, 800)
    source = MODES + f"""
class Item@mode<?X> {{
    int w;
    attributor {{
        if (w > 60) {{ return full_throttle; }}
        if (w > 20) {{ return managed; }}
        return energy_saver;
    }}
    Item(int w) {{ this.w = w; }}
    int weight() {{ return w; }}
}}
class Main {{
    void main() {{
        int total = 0;
        int i = 0;
        while (i < {n}) {{
            Item it = snapshot (new Item@mode<?>(i % 100)) [_, full_throttle];
            total = total + it.weight();
            i = i + 1;
        }}
        Sys.print(total);
    }}
}}
"""
    return ExecProgram("alloc_snapshot", source,
                       [str(sum(i % 100 for i in range(n)))])


GENERATORS: Dict[str, Callable[[random.Random], ExecProgram]] = {
    "hot_loop": hot_loop,
    "residual_loop": residual_loop,
    "tree_recursion": tree_recursion,
    "poly_mcase": poly_mcase,
    "alloc_snapshot": alloc_snapshot,
}


def generate_programs(seed: int) -> List[ExecProgram]:
    rng = random.Random(f"execute-programs:{seed}")
    return [make(rng) for make in GENERATORS.values()]
