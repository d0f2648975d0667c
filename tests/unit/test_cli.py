"""Unit tests for the ``python -m repro`` command-line interface."""

import json
import pathlib

import pytest

from repro.cli import main

ROOT = pathlib.Path(__file__).resolve().parents[2]

GOOD = """
modes { energy_saver <= managed; managed <= full_throttle; }
class Probe@mode<?X> {
    int n;
    attributor {
        if (n > 10) { return full_throttle; }
        return energy_saver;
    }
    Probe(int n) { this.n = n; }
    int get() { return n; }
}
class Main {
    void main() {
        Probe p = snapshot (new Probe@mode<?>(5));
        Sys.print("n=" + p.get());
    }
}
"""

BAD_TYPES = """
modes { lo <= hi; }
class Heavy@mode<hi> { int f() { return 1; } }
class Low@mode<lo> { int go(Heavy h) { return h.f(); } }
class Main { void main() { } }
"""

BAD_SYNTAX = "class { oops"

THROWING = """
modes { lo <= hi; }
class D@mode<?X> {
    attributor { return hi; }
    D() { }
}
class Main {
    void main() { D d = snapshot (new D@mode<?>()) [_, lo]; }
}
"""

#: Embedded-API code with one lint error (E002: a high-mode static
#: object messaged from a lower boot mode).
BAD_EMBEDDED = """
from repro.core.modes import ModeLattice
from repro.runtime.embedded import EntRuntime
rt = EntRuntime(ModeLattice.linear(["low", "mid", "high"]))

@rt.static("high")
class Burner:
    def go(self):
        pass

def main():
    b = Burner()
    with rt.booted("mid"):
        b.go()
"""


@pytest.fixture
def program(tmp_path):
    def write(source, name="prog.ent"):
        path = tmp_path / name
        path.write_text(source)
        return str(path)

    return write


class TestCheck:
    def test_ok(self, program, capsys):
        assert main(["check", program(GOOD)]) == 0
        assert "OK" in capsys.readouterr().out

    def test_type_error(self, program, capsys):
        assert main(["check", program(BAD_TYPES)]) == 1
        assert "waterfall" in capsys.readouterr().err

    def test_syntax_error(self, program, capsys):
        assert main(["check", program(BAD_SYNTAX)]) == 1
        assert "error" in capsys.readouterr().err

    def test_missing_file(self, capsys):
        assert main(["check", "/no/such/file.ent"]) == 2


class TestRun:
    def test_runs_and_prints(self, program, capsys):
        assert main(["run", program(GOOD)]) == 0
        assert "n=5" in capsys.readouterr().out

    def test_stats_flag(self, program, capsys):
        assert main(["run", program(GOOD), "--stats"]) == 0
        err = capsys.readouterr().err
        stats = json.loads(err.strip().splitlines()[-1])
        assert stats["snapshots"] == 1
        assert "battery" not in stats

    def test_platform_flag(self, program, capsys):
        assert main(["run", program(GOOD), "--system", "A",
                     "--battery", "0.5", "--stats"]) == 0
        err = capsys.readouterr().err
        stats = json.loads(err.strip().splitlines()[-1])
        assert 0.0 < stats["battery"] <= 0.5
        assert stats["energy_j"] >= 0.0

    def test_energy_exception_exit_code(self, program, capsys):
        assert main(["run", program(THROWING)]) == 3
        assert "EnergyException" in capsys.readouterr().err

    def test_silent_flag_suppresses(self, program):
        assert main(["run", program(THROWING), "--silent"]) == 0

    def test_fuel_flag(self, program, capsys):
        looping = GOOD.replace('Sys.print("n=" + p.get());',
                               "while (true) { }")
        path = program(looping, "loop.ent")
        assert main(["run", path, "--fuel", "5000"]) == 1
        assert "exceeded" in capsys.readouterr().err

    @pytest.mark.parametrize("engine", ["walk", "vm", "jit"])
    def test_engine_flag(self, program, capsys, engine):
        assert main(["run", program(GOOD), "--engine", engine]) == 0
        assert "n=5" in capsys.readouterr().out

    def test_engine_vm_with_toggles(self, program, capsys):
        assert main(["run", program(GOOD), "--engine", "vm",
                     "--no-elide", "--no-inline-caches",
                     "--stats"]) == 0
        captured = capsys.readouterr()
        assert "n=5" in captured.out
        stats = json.loads(captured.err.strip().splitlines()[-1])
        assert stats["snapshots"] == 1

    @pytest.mark.parametrize("flags", [["--engine=compiled"],
                                       ["--compile"]],
                             ids=["engine-compiled", "compile"])
    def test_removed_engine_is_usage_error(self, program, capsys, flags):
        """The closure-compiler engine and its ``--compile`` alias are
        gone: both are argparse usage errors (exit 2), not crashes."""
        with pytest.raises(SystemExit) as exc:
            main(["run", program(GOOD), *flags])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert "usage:" in err
        assert "Traceback" not in err


class TestDisasm:
    def test_disasm_annotates_checks(self, program, capsys):
        assert main(["disasm", program(GOOD), "--no-elide"]) == 0
        out = capsys.readouterr().out
        assert "Probe.<attributor>" in out
        assert "Main.main" in out
        assert ";; DFALL_CHECK" in out

    def test_disasm_shows_elision_handoff(self, program, capsys):
        assert main(["disasm", program(GOOD)]) == 0
        out = capsys.readouterr().out
        assert ("elided by repro.analysis" in out
                or ";; DFALL_CHECK" in out)

    def test_disasm_bad_program(self, program, capsys):
        assert main(["disasm", program("class { oops",
                                       "bad.ent")]) == 1


class TestObs:
    def test_trace_jsonl(self, program, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", program(GOOD), "--system", "A",
                     "--trace", str(trace)]) == 0
        lines = trace.read_text().strip().splitlines()
        assert lines
        kinds = {json.loads(line)["kind"] for line in lines}
        assert "snapshot" in kinds
        assert "attributor" in kinds

    def test_trace_chrome_is_valid_json(self, program, capsys, tmp_path):
        trace = tmp_path / "t.json"
        assert main(["run", program(GOOD), "--system", "A",
                     "--trace", str(trace),
                     "--trace-format", "chrome"]) == 0
        data = json.loads(trace.read_text())
        events = data["traceEvents"]
        assert events
        assert all("ph" in e and "pid" in e for e in events)

    def test_obs_report(self, program, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        assert main(["run", program(GOOD), "--system", "A",
                     "--trace", str(trace)]) == 0
        capsys.readouterr()
        assert main(["obs", "report", str(trace)]) == 0
        out = capsys.readouterr().out
        assert "trace report" in out
        assert "Counters:" in out

    def test_obs_convert(self, program, capsys, tmp_path):
        trace = tmp_path / "t.jsonl"
        out_path = tmp_path / "t.json"
        assert main(["run", program(GOOD), "--system", "A",
                     "--trace", str(trace)]) == 0
        assert main(["obs", "convert", str(trace), str(out_path)]) == 0
        assert json.loads(out_path.read_text())["traceEvents"]


class TestProfile:
    @pytest.mark.parametrize("engine", ["walk", "vm", "jit"])
    def test_profile_reports_hot_labels(self, program, capsys, engine):
        assert main(["profile", program(GOOD), "--engine", engine,
                     "--checks"]) == 0
        out = capsys.readouterr().out
        assert f"Profile (engine={engine})" in out
        assert "Hot labels:" in out
        assert "Check sites:" in out
        assert "Check totals:" in out
        assert "static-vs-observed clean" in out
        if engine == "walk":
            assert "node." in out
        else:
            assert "op." in out

    def test_profile_vm_reports_ic_and_check_sites(self, program, capsys):
        assert main(["profile", program(GOOD), "--engine", "vm",
                     "--checks"]) == 0
        out = capsys.readouterr().out
        assert "Call sites:" in out
        assert "ic hit rate" in out
        assert "snapshot_bound@" in out

    def test_profile_json_payload(self, program, capsys):
        assert main(["profile", program(GOOD), "--engine", "vm",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert payload["profile"]["engine"] == "vm"
        assert payload["profile"]["labels"]
        assert payload["static_vs_observed"]["clean"] is True

    def test_profile_no_elide_skips_diff(self, program, capsys):
        assert main(["profile", program(GOOD), "--no-elide",
                     "--json"]) == 0
        payload = json.loads(capsys.readouterr().out)
        assert "static_vs_observed" not in payload

    def test_profile_energy_column(self, program, capsys):
        assert main(["profile", program(GOOD), "--engine", "vm",
                     "--energy", "--system", "A"]) == 0
        assert "joules" in capsys.readouterr().out

    def test_profile_out_formats(self, program, capsys, tmp_path):
        path = program(GOOD)
        out = tmp_path / "p.json"
        assert main(["profile", path, "--out", str(out)]) == 0
        assert json.loads(out.read_text())["labels"]
        collapsed = tmp_path / "p.collapsed"
        assert main(["profile", path, "--out", str(collapsed),
                     "--format", "collapsed"]) == 0
        assert collapsed.read_text().strip()
        chrome = tmp_path / "p.chrome.json"
        assert main(["profile", path, "--out", str(chrome),
                     "--format", "chrome"]) == 0
        assert json.loads(chrome.read_text())["traceEvents"]
        capsys.readouterr()

    def test_profile_energy_exception_exit_code(self, program, capsys):
        assert main(["profile", program(THROWING)]) == 3
        captured = capsys.readouterr()
        assert "EnergyException" in captured.err
        assert "Profile" in captured.out


class TestPrettyAndTokens:
    def test_pretty_reparses(self, program, capsys, tmp_path):
        assert main(["pretty", program(GOOD)]) == 0
        printed = capsys.readouterr().out
        again = tmp_path / "again.ent"
        again.write_text(printed)
        assert main(["check", str(again)]) == 0

    def test_tokens(self, program, capsys):
        assert main(["tokens", program(GOOD)]) == 0
        out = capsys.readouterr().out
        assert "KW_SNAPSHOT" in out
        assert "EOF" in out


class TestLint:
    @pytest.mark.parametrize(
        "name", sorted(p.name for p in (ROOT / "examples").glob("*.py"))
        + ["bad_embedded.py"])
    def test_lint_matches_analyze_embedded(self, name, program, capsys):
        path = (program(BAD_EMBEDDED, name) if name == "bad_embedded.py"
                else str(ROOT / "examples" / name))
        lint_rc = main(["lint", path])
        lint_out = capsys.readouterr().out
        analyze_rc = main(["analyze", "--embedded", path])
        assert (lint_rc, lint_out) == (analyze_rc, capsys.readouterr().out)
        if name == "bad_embedded.py":
            assert lint_rc == 1 and "E002" in lint_out


class TestJobs:
    @pytest.mark.parametrize("argv", [
        ["eval", "figure8"], ["eval", "export"], ["eval", "drain"],
        ["advise", str(ROOT / "examples" / "ent" / "crawler.ent")],
    ], ids=["eval-figure8", "eval-export", "eval-drain", "advise"])
    def test_negative_jobs_is_usage_error(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            main(argv + ["--jobs", "-3"])
        assert exc.value.code == 2
        assert "--jobs: must be >= 0, got -3" in capsys.readouterr().err


class TestFleetArgs:
    @pytest.mark.parametrize("flag,value,message", [
        ("--devices", "-5", "must be >= 0, got -5"),
        ("--shards", "-2", "must be >= 0, got -2"),
        ("--steps", "0", "must be >= 1, got 0"),
    ], ids=["devices", "shards", "steps"])
    def test_bad_count_is_usage_error(self, flag, value, message, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["fleet", "run", "--devices", "3", flag, value])
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert f"{flag}: {message}" in err
        assert "Traceback" not in err

    def test_zero_devices_and_shards_still_run(self, capsys):
        assert main(["fleet", "run", "--devices", "0", "--shards", "0",
                     "--digest"]) == 0
        assert '"counters": {}' in capsys.readouterr().out
