"""Unit tests for the ``python -m repro.eval`` command line."""

import json

import pytest

from repro.eval.__main__ import main


class TestFigureCommands:
    def test_figure7(self, capsys):
        assert main(["figure7"]) == 0
        out = capsys.readouterr().out
        assert "Figure 7" in out
        assert "jspider" in out

    def test_figure10(self, capsys):
        assert main(["figure10", "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "es % saved" in out

    def test_export(self, tmp_path, capsys):
        assert main(["export", "--dir", str(tmp_path),
                     "--figures", "figure7"]) == 0
        data = json.loads((tmp_path / "figure7.json").read_text())
        assert len(data) == 15

    def test_drain(self, capsys):
        assert main(["drain", "--benchmark", "crypto",
                     "--iterations", "5",
                     "--battery-scale", "0.001"]) == 0
        out = capsys.readouterr().out
        assert "crypto on System A" in out
        assert "monotone downward: True" in out

    def test_unknown_command_rejected(self):
        with pytest.raises(SystemExit):
            main(["figure99"])


class TestRunCliRemovedAlias:
    def test_compile_alias_is_usage_error(self, tmp_path, capsys):
        """``repro run --compile`` named an engine that no longer
        exists: the flag is rejected, and the program runs without it."""
        from repro.cli import main as lang_main
        program = tmp_path / "p.ent"
        program.write_text("""
        modes { lo <= hi; }
        class Main {
            void main() {
                int acc = 0;
                int i = 0;
                while (i < 100) { acc = acc + i; i = i + 1; }
                Sys.print(acc);
            }
        }
        """)
        with pytest.raises(SystemExit) as exc:
            lang_main(["run", str(program), "--compile"])
        assert exc.value.code == 2
        capsys.readouterr()
        assert lang_main(["run", str(program)]) == 0
        assert "4950" in capsys.readouterr().out
