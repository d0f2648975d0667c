"""Seeded ENT program generator for the ``compile`` workload.

Every generated program carries its known answer: accepted, or the
error class and line of the one defect injected into it.  The answer
comes from how the program was built, never from the checker.

Sizes are a fixed ladder from a few classes up to about 80, so every
seed sees the same size mix; the seed picks each program's features,
constants and names, and which program in each group of five carries
a defect and of what kind.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Tuple

HEADER = "modes { energy_saver <= managed; managed <= full_throttle; }"
MODES = ("energy_saver", "managed", "full_throttle")

#: The injected defects and the error class each must raise.
DEFECTS = {
    "waterfall": "WaterfallError",
    "unknown_variable": "EntTypeError",
    "unknown_mode": "EntTypeError",
    "syntax": "EntSyntaxError",
}

#: Programs per corpus and the share that carries a defect (one per
#: group of ``DEFECT_EVERY``).
PROGRAMS = 60
DEFECT_EVERY = 5
MIN_CLASSES = 3
MAX_CLASSES = 80


@dataclass(frozen=True)
class Program:
    name: str
    source: str
    #: ``None`` when the program must be accepted, else
    #: ``(error class name, line)``.
    expect: Optional[Tuple[str, int]]


def size_ladder(count: int = PROGRAMS) -> List[int]:
    """Class counts from ``MIN_CLASSES`` to ``MAX_CLASSES``, geometric."""
    ratio = MAX_CLASSES / MIN_CLASSES
    return [round(MIN_CLASSES * ratio ** (k / (count - 1)))
            for k in range(count)]


class _SourceLines:
    """Accumulates source lines and remembers where the defect went."""

    def __init__(self) -> None:
        self.lines: List[str] = [HEADER]
        self.defect_line: Optional[int] = None

    def add(self, line: str, defect: bool = False) -> None:
        self.lines.append(line)
        if defect:
            self.defect_line = len(self.lines)

    def source(self) -> str:
        return "\n".join(self.lines) + "\n"


def _dynamic(b: _SourceLines, rng: random.Random, i: int, with_mcase: bool,
             defect: Optional[str]) -> None:
    lo = rng.randint(5, 40)
    hi = lo + rng.randint(10, 80)
    b.add(f"class Node{i}@mode<?X> {{")
    b.add("    int load;")
    b.add("    attributor {")
    b.add(f"        if (load > {hi}) {{ return full_throttle; }}")
    b.add(f"        if (load > {lo}) {{ return managed; }}")
    b.add("        return energy_saver;")
    b.add("    }")
    b.add(f"    Node{i}(int load) {{ this.load = load; }}")
    if with_mcase:
        f = sorted(rng.sample(range(1, 9), 3))
        b.add("    mcase<int> factor = mcase{")
        b.add(f"        energy_saver: {f[0]}; managed: {f[1]}; "
              f"full_throttle: {f[2]};")
        b.add("    };")
    step = "factor" if with_mcase else str(rng.randint(1, 5))
    b.add("    int work(int amount) {")
    b.add("        int acc = 0;")
    b.add("        int i = 0;")
    b.add(f"        while (i < amount) {{ acc = acc + {step}; i = i + 1; }}")
    if defect == "unknown_variable":
        b.add(f"        return acc + ghost{i};", defect=True)
    elif defect == "syntax":
        b.add("        return acc +;", defect=True)
    else:
        b.add("        return acc;")
    b.add("    }")
    b.add("}")


def _service(b: _SourceLines, rng: random.Random, i: int, mode: str,
             defect: Optional[str]) -> None:
    a, c = rng.randint(2, 9), rng.randint(0, 99)
    b.add(f"class Svc{i}@mode<{mode}> {{")
    b.add("    int serve(int k) {")
    if defect == "unknown_variable":
        b.add(f"        return k * {a} + missing{i};", defect=True)
    elif defect == "syntax":
        b.add(f"        return k * {a} + {c}")
        # The missing ';' is reported at the next token: the '}'.
        b.add("    }", defect=True)
        b.add("}")
        return
    else:
        b.add(f"        return k * {a} + {c};")
    b.add("    }")
    b.add("}")


def _generic(b: _SourceLines, rng: random.Random, i: int) -> None:
    b.add(f"class Box{i}@mode<X> {{")
    b.add("    int v;")
    b.add(f"    Box{i}(int v) {{ this.v = v; }}")
    b.add(f"    int get() {{ return v + {rng.randint(0, 9)}; }}")
    b.add("}")


def _hub(b: _SourceLines, i: int, svc: int) -> None:
    b.add(f"class Hub{i}@mode<full_throttle> {{")
    b.add(f"    int relay(Svc{svc} s, int k) {{")
    b.add("        return s.serve(k) + 1;")
    b.add("    }")
    b.add("}")


def _waterfall_pair(b: _SourceLines, i: int) -> None:
    """A low-mode class messaging a high-mode one: rejected statically."""
    b.add(f"class Hot{i}@mode<full_throttle> {{")
    b.add("    int heat(int k) { return k + 1; }")
    b.add("}")
    b.add(f"class Cold{i}@mode<energy_saver> {{")
    b.add(f"    int poke(Hot{i} h) {{")
    b.add("        return h.heat(1);", defect=True)
    b.add("    }")
    b.add("}")


#: Share of each kind of class in a program.
KIND_SHARES = (("dyn", 0.40), ("svc", 0.25), ("gen", 0.20), ("hub", 0.15))


def _class_kinds(rng: random.Random, count: int) -> List[str]:
    """``count`` class kinds in fixed shares (largest remainder), in a
    seeded order.  Fixed shares keep two seeds' programs of one size
    about equally expensive.  There is always a service, and every hub
    comes after one (a hub relays to an earlier service)."""
    quotas = [(share * count, kind) for kind, share in KIND_SHARES]
    counts = {kind: int(q) for q, kind in quotas}
    by_remainder = sorted(quotas, key=lambda qk: qk[0] - int(qk[0]),
                          reverse=True)
    for q, kind in by_remainder[:count - sum(counts.values())]:
        counts[kind] += 1
    if counts["svc"] == 0:
        largest = max(counts, key=counts.get)
        counts[largest] -= 1
        counts["svc"] = 1
    kinds = [kind for kind, _ in KIND_SHARES for _ in range(counts[kind])]
    rng.shuffle(kinds)
    first_svc = kinds.index("svc")
    if "hub" in kinds[:first_svc]:
        first_hub = kinds.index("hub")
        kinds[first_hub], kinds[first_svc] = "svc", "hub"
    return kinds


def generate_program(rng: random.Random, name: str, classes: int,
                     defect: Optional[str]) -> Program:
    """One program with ``classes`` class declarations (Main included)."""
    b = _SourceLines()
    # Main is one class; a waterfall defect adds two.
    budget = max(1, classes - 1 - (2 if defect == "waterfall" else 0))
    kinds = _class_kinds(rng, budget)
    services = [i for i, kind in enumerate(kinds) if kind == "svc"]
    # The unit that carries an in-class defect (if any).
    target = None
    if defect in ("unknown_variable", "syntax"):
        candidates = [i for i, k in enumerate(kinds) if k in ("dyn", "svc")]
        target = rng.choice(candidates)
    hub_svc = {}
    for i, kind in enumerate(kinds):
        unit_defect = defect if i == target else None
        if kind == "dyn":
            _dynamic(b, rng, i, rng.random() < 0.6, unit_defect)
        elif kind == "svc":
            _service(b, rng, i, rng.choice(MODES), unit_defect)
        elif kind == "gen":
            _generic(b, rng, i)
        else:
            hub_svc[i] = rng.choice([s for s in services if s < i])
            _hub(b, i, hub_svc[i])
    if defect == "waterfall":
        _waterfall_pair(b, len(kinds))

    # Main: create every object and message it from the top mode.
    b.add("class Main {")
    b.add("    void main() {")
    b.add("        int total = 0;")
    mode_defect_at = None
    if defect == "unknown_mode":
        mode_defect_at = rng.choice(
            [i for i, k in enumerate(kinds) if k in ("dyn", "gen")]
            or [None])
    for i, kind in enumerate(kinds):
        bad = i == mode_defect_at
        if kind == "dyn":
            upper = "turbo" if bad else rng.choice(("_", "full_throttle"))
            b.add(f"        Node{i} n{i} = snapshot "
                  f"(new Node{i}@mode<?>({rng.randint(0, 150)})) "
                  f"[_, {upper}];", defect=bad)
            b.add(f"        total = total + n{i}.work({rng.randint(1, 9)});")
        elif kind == "svc":
            b.add(f"        Svc{i} s{i} = new Svc{i}();")
            b.add(f"        total = total + s{i}.serve({rng.randint(0, 50)});")
        elif kind == "gen":
            mode = "turbo" if bad else rng.choice(MODES)
            b.add(f"        Box{i}@mode<{mode}> b{i} = "
                  f"new Box{i}@mode<{mode}>({rng.randint(0, 50)});",
                  defect=bad)
            b.add(f"        total = total + b{i}.get();")
        else:
            b.add(f"        Hub{i} h{i} = new Hub{i}();")
            b.add(f"        total = total + h{i}.relay(s{hub_svc[i]}, "
                  f"{rng.randint(0, 9)});")
    if defect == "unknown_mode" and mode_defect_at is None:
        b.add("        Sys.print(turbo);", defect=True)
    b.add("        Sys.print(total);")
    b.add("    }")
    b.add("}")
    expect = None
    if defect is not None:
        expect = (DEFECTS[defect], b.defect_line)
    return Program(name=name, source=b.source(), expect=expect)


def generate_corpus(seed: int, count: int = PROGRAMS) -> List[Program]:
    """The seeded corpus: a size ladder, one defect per group of five.

    Defect kinds are dealt evenly and then shuffled: a syntax error
    stops at the parser, so a seed with many of them would compile
    measurably faster than one with few.
    """
    rng = random.Random(f"compile-corpus:{seed}")
    sizes = size_ladder(count)
    groups = range(0, count, DEFECT_EVERY)
    kinds = sorted(DEFECTS) * (len(groups) // len(DEFECTS) + 1)
    kinds = kinds[:len(groups)]
    rng.shuffle(kinds)
    programs = []
    for group, kind in zip(groups, kinds):
        members = list(range(group, min(group + DEFECT_EVERY, count)))
        bad = rng.choice(members)
        for k in members:
            defect = kind if k == bad else None
            programs.append(generate_program(
                rng, f"gen{k:02d}-{sizes[k]}c", sizes[k], defect))
    return programs
