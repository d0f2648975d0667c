"""Battery-sweep differential testing: the bytecode compiler (the ``vm``
engine) and its trace-JIT tier must be observationally identical to the
tree walk at high, medium and low battery.

Battery level decides which snapshots succeed, which mode cases are
eliminated and which ``EnergyException`` fires, so each level drives the
engines down different paths.  ``test_vm_agreement.py`` runs the same
corpora at the default level with elision and inline caches toggled;
this file varies the battery instead.
"""

import pathlib

import pytest
from hypothesis import given, settings

# Reuse the soundness generator: its programs cover snapshots, bounds,
# messaging, mode cases, loops and exception handlers.
from test_soundness import programs  # type: ignore

from test_vm_agreement import (  # type: ignore
    ENGINES, FIXED_PROGRAMS, KERNEL_PROGRAMS, run_engine)

_ROOT = pathlib.Path(__file__).resolve().parents[2]


def all_engines(source: str, battery: float, inline_caches: bool = True):
    """Every engine's observables, plus the JIT with thresholds at 1 so
    every body runs as emitted Python."""
    results = [run_engine(source, engine, battery=battery,
                          inline_caches=inline_caches)
               for engine in ENGINES]
    results.append(run_engine(source, "jit", battery=battery,
                              inline_caches=inline_caches, jit_hot=True))
    return results


@pytest.mark.parametrize("path", FIXED_PROGRAMS)
@pytest.mark.parametrize("battery", [0.9, 0.6, 0.3])
def test_listings_agree(path, battery):
    source = (_ROOT / path).read_text()
    results = all_engines(source, battery)
    for got in results[1:]:
        assert got == results[0]


@pytest.mark.parametrize("index", range(len(KERNEL_PROGRAMS)),
                         ids=["accumulate", "pagerank", "crypto"])
@pytest.mark.parametrize("battery", [0.9, 0.3])
def test_workload_kernels_agree(index, battery):
    """Inline caches off: the kernels in ``test_vm_agreement`` run with
    them on."""
    results = all_engines(KERNEL_PROGRAMS[index], battery,
                          inline_caches=False)
    for got in results[1:]:
        assert got == results[0]
    assert results[0][1], "kernel should print a digest"


@settings(max_examples=20, deadline=None)
@given(programs())
def test_random_programs_agree(source):
    for battery in (0.9, 0.3):
        results = all_engines(source, battery)
        for got in results[1:]:
            assert got == results[0], battery
