"""Ablation: the lazy-copy snapshot strategy (paper section 5).

The paper optimizes snapshotting by tagging the first snapshot of a
dynamic object in place and only physically copying from the second
snapshot on.  This ablation measures both strategies on a snapshot-
heavy loop (the E3 pattern re-snapshots one Sleep object hundreds of
times) and checks the expected relationship: lazy copying performs at
most one copy fewer per object but identical program behaviour.
"""

import pytest

from repro.lang.interp import InterpOptions, run_source

SNAPSHOT_LOOP = """
modes { energy_saver <= managed; managed <= full_throttle; }
class Probe@mode<?X> {
    int n;
    attributor {
        if (n > 10) { return full_throttle; }
        return energy_saver;
    }
    Probe(int n) { this.n = n; }
    mcase<int> weight = mcase{
        energy_saver: 1; managed: 2; full_throttle: 3;
    };
}
class Main {
    void main() {
        Probe probe = new Probe@mode<?>(50);
        int total = 0;
        int i = 0;
        while (i < 300) {
            Probe p = snapshot probe;
            total = total + p.weight;
            i = i + 1;
        }
        Sys.print(total);
    }
}
"""


@pytest.mark.parametrize("lazy", [True, False], ids=["lazy", "eager"])
def test_ablation_copy_strategy(benchmark, lazy):
    def run():
        return run_source(SNAPSHOT_LOOP,
                          options=InterpOptions(lazy_copy=lazy))

    interp = benchmark(run)
    assert interp.output == ["900"]
    if lazy:
        assert interp.stats.lazy_tags == 1
        assert interp.stats.copies == 299
    else:
        assert interp.stats.lazy_tags == 0
        assert interp.stats.copies == 300


def test_ablation_copy_strategies_agree(benchmark):
    """Identical observable behaviour (the property the optimization
    must preserve), timed as a pair."""

    def both():
        lazy = run_source(SNAPSHOT_LOOP,
                          options=InterpOptions(lazy_copy=True))
        eager = run_source(SNAPSHOT_LOOP,
                           options=InterpOptions(lazy_copy=False))
        return lazy.output, eager.output

    lazy_out, eager_out = benchmark.pedantic(both, rounds=1, iterations=1)
    assert lazy_out == eager_out


def test_ablation_embedded_runtime_copying(benchmark):
    """The same ablation at the embedded-API level."""
    from repro.runtime import EntRuntime

    def episode(lazy):
        rt = EntRuntime.standard(lazy_copy=lazy)

        @rt.dynamic
        class Probe:
            weight = rt.mcase({"energy_saver": 1, "managed": 2,
                               "full_throttle": 3})

            def __init__(self):
                self.n = 50

            def attributor(self):
                return "full_throttle" if self.n > 10 else "energy_saver"

        probe = Probe()
        total = 0
        for _ in range(300):
            total += rt.snapshot(probe).weight
        return total, rt.stats.copies

    def run_both():
        return episode(True), episode(False)

    (lazy_total, lazy_copies), (eager_total, eager_copies) = \
        benchmark(run_both)
    assert lazy_total == eager_total == 900
    assert lazy_copies == eager_copies - 1
