"""Unit tests for the process-pool episode executor."""

import os

import pytest

from repro.eval.parallel import EpisodeTask, resolve_jobs, run_episodes
from repro.eval.runner import run_e1_episode, run_e2_episode
from repro.obs.tracer import Tracer
from repro.workloads import ES, FT, MG, get_workload


def _e1_task(key, boot, workload_mode, seed=0, benchmark="jspider"):
    return EpisodeTask(
        kind="e1", key=key, benchmark=benchmark,
        params=dict(system="A", boot_mode=boot,
                    workload_mode=workload_mode, seed=seed))


class TestEpisodeTask:
    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown episode kind"):
            EpisodeTask(kind="e9", key=("x",), benchmark="jspider")

    def test_with_seed_extends_key_and_params(self):
        task = _e1_task(("a",), FT, MG)
        pinned = task.with_seed(7)
        assert pinned.key == ("a", 7)
        assert pinned.params["seed"] == 7
        assert task.params["seed"] == 0  # original untouched
        assert pinned.kind == task.kind
        assert pinned.benchmark == task.benchmark


class TestResolveJobs:
    def test_serial_defaults(self):
        assert resolve_jobs(None) == 1
        assert resolve_jobs(1) == 1

    def test_zero_means_all_cores(self):
        assert resolve_jobs(0) == (os.cpu_count() or 1)

    def test_explicit_count(self):
        assert resolve_jobs(3) == 3

    def test_negative_rejected(self):
        with pytest.raises(ValueError):
            resolve_jobs(-1)


class TestRunEpisodes:
    def test_empty_task_list_returns_empty_aggregate(self):
        # Regression: an empty batch must never reach a process pool,
        # which rejects max_workers=0 with a ValueError.
        assert run_episodes([]) == {}
        assert run_episodes([], jobs=8) == {}
        assert run_episodes(iter([]), jobs=0) == {}

    def test_empty_task_list_leaves_tracer_untouched(self):
        tracer = Tracer(capacity=16)
        assert run_episodes([], jobs=4, tracer=tracer) == {}
        assert list(tracer.events()) == []

    def test_duplicate_keys_rejected(self):
        tasks = [_e1_task(("dup",), FT, MG), _e1_task(("dup",), FT, ES)]
        with pytest.raises(ValueError, match="duplicate"):
            run_episodes(tasks)

    def test_serial_matches_direct_runner_calls(self):
        tasks = [_e1_task(("a",), FT, MG), _e1_task(("b",), MG, FT)]
        results = run_episodes(tasks)
        workload = get_workload("jspider")
        assert results[("a",)] == run_e1_episode(workload, "A", FT, MG)
        assert results[("b",)] == run_e1_episode(workload, "A", MG, FT)

    def test_parallel_matches_serial_mixed_batch(self):
        tasks = [
            _e1_task(("e1", "a"), FT, MG),
            _e1_task(("e1", "b"), ES, FT, seed=3),
            EpisodeTask(kind="e2", key=("e2", "a"), benchmark="crypto",
                        params=dict(system="A", boot_mode=MG,
                                    workload_mode=FT, seed=1)),
            EpisodeTask(kind="e3", key=("e3", "a"), benchmark="sunflow",
                        params=dict(variant="ent", seed=0, units=4)),
        ]
        serial = run_episodes(tasks)
        parallel = run_episodes(tasks, jobs=2)
        assert serial == parallel
        assert set(serial) == {t.key for t in tasks}

    def test_e2_worker_runs_real_episode(self):
        task = EpisodeTask(kind="e2", key=("k",), benchmark="crypto",
                           params=dict(system="A", boot_mode=ES,
                                       workload_mode=FT, seed=0))
        result = run_episodes([task], jobs=2)[("k",)]
        expected = run_e2_episode(get_workload("crypto"), "A", ES,
                                  workload_mode=FT, seed=0)
        assert result == expected

    def test_tracer_rings_merge_identically(self):
        tasks = [_e1_task(("a",), FT, MG), _e1_task(("b",), MG, FT)]
        serial_tracer = Tracer()
        run_episodes(tasks, tracer=serial_tracer)
        parallel_tracer = Tracer()
        run_episodes(tasks, jobs=2, tracer=parallel_tracer)
        serial_events = [e.as_dict() for e in serial_tracer.events()]
        parallel_events = [e.as_dict() for e in parallel_tracer.events()]
        assert serial_events == parallel_events
        assert parallel_tracer.dropped == serial_tracer.dropped

    def test_worker_ring_overflow_propagates_dropped(self):
        tasks = [_e1_task(("a",), FT, MG), _e1_task(("b",), FT, MG, seed=1)]
        tracer = Tracer(capacity=4)
        run_episodes(tasks, jobs=2, tracer=tracer, trace_capacity=4)
        assert len(tracer.events()) == 4
        assert tracer.dropped > 0

    def test_profiles_merge_identically_to_serial(self):
        from repro.obs.prof import Profiler

        tasks = [_e1_task(("a",), FT, MG), _e1_task(("b",), MG, FT),
                 _e1_task(("c",), FT, MG, seed=1)]
        serial = Profiler("embedded")
        run_episodes(tasks, profiler=serial)
        serial.finish()
        parallel = Profiler("embedded")
        run_episodes(tasks, jobs=2, profiler=parallel)
        parallel.finish()
        assert parallel.profile.check_sites == serial.profile.check_sites
        serial_calls = {sid: entry["calls"] for sid, entry
                        in serial.profile.call_sites.items()}
        parallel_calls = {sid: entry["calls"] for sid, entry
                          in parallel.profile.call_sites.items()}
        assert parallel_calls == serial_calls
        # Label *counts* (not times) are scheduling-independent too.
        serial_counts = {name: h.count for name, h
                         in serial.profile.registry.histograms.items()}
        parallel_counts = {name: h.count for name, h
                           in parallel.profile.registry.histograms.items()}
        assert parallel_counts == serial_counts

    def test_profile_merge_is_submission_order_independent(self):
        from repro.obs.prof import Profiler

        tasks = [_e1_task(("a",), FT, MG), _e1_task(("b",), MG, FT)]
        forward = Profiler("embedded")
        run_episodes(tasks, jobs=2, profiler=forward)
        backward = Profiler("embedded")
        run_episodes(list(reversed(tasks)), jobs=2, profiler=backward)
        assert forward.profile.check_sites == backward.profile.check_sites
        assert forward.profile.call_sites == backward.profile.call_sites

    def test_disabled_profiler_ships_no_profiles(self):
        tasks = [_e1_task(("a",), FT, MG), _e1_task(("b",), MG, FT)]
        results = run_episodes(tasks, jobs=2)
        assert set(results) == {("a",), ("b",)}
