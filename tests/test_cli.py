"""Tests for the command line interface."""

from __future__ import annotations

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_run_defaults(self):
        args = build_parser().parse_args(["run", "--circuit", "s27"])
        assert args.n == 4
        assert args.seed == 1999

    def test_tables_n_override(self):
        args = build_parser().parse_args(["tables", "--n", "2", "4"])
        assert args.n == [2, 4]

    def test_tables_suite_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["tables", "--suite", "nope"])

    def test_backend_choices_are_the_registry(self, capsys):
        with pytest.raises(SystemExit) as excinfo:
            main(["run", "--circuit", "s27", "--backend", "numpy"])
        assert excinfo.value.code == 2
        err = capsys.readouterr().err
        assert "invalid choice: 'numpy'" in err
        assert "'python', 'native', 'auto'" in err


    @pytest.mark.parametrize(
        "argv",
        [
            pytest.param(["calibrate"], id="calibrate"),
            pytest.param(["run", "--circuit", "s27", "--profile"], id="run-profile"),
            pytest.param(
                ["atpg", "--circuit", "s27", "--profile", "p.json"],
                id="atpg-profile-path",
            ),
            pytest.param(["serve", "--no-autotune"], id="serve-no-autotune"),
            pytest.param(["serve", "--full-calibration"], id="serve-full-calibration"),
        ],
    )
    def test_calibration_options_are_gone(self, argv, capsys):
        """The execution policy needs no measurement, so the CLI offers
        no way to take or load one."""
        with pytest.raises(SystemExit) as excinfo:
            build_parser().parse_args(argv)
        assert excinfo.value.code == 2
        assert argv[-1] in capsys.readouterr().err

    def test_serve_help_names_the_chunk_threads(self, capsys):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["serve", "--help"])
        out = " ".join(capsys.readouterr().out.split())
        assert "chunk threads" in out
        assert "process" not in out
        assert "calibrat" not in out and "profile" not in out


class TestCommands:
    def test_info(self, capsys):
        assert main(["info"]) == 0
        out = capsys.readouterr().out
        assert "s27" in out
        assert "syn298" in out

    def test_run_s27(self, capsys):
        assert main(["run", "--circuit", "s27", "--n", "2"]) == 0
        out = capsys.readouterr().out
        assert "coverage preserved: True" in out
        assert "32/32" in out

    def test_run_with_figure(self, capsys):
        assert main(["run", "--circuit", "s27", "--n", "1", "--figure"]) == 0
        assert "Figure 1" in capsys.readouterr().out

    def test_atpg_s27(self, capsys, tmp_path):
        output = tmp_path / "t0.txt"
        assert (
            main(
                [
                    "atpg",
                    "--circuit",
                    "s27",
                    "--max-length",
                    "120",
                    "--output",
                    str(output),
                ]
            )
            == 0
        )
        out = capsys.readouterr().out
        assert "faults" in out
        lines = output.read_text().splitlines()
        assert all(set(line) <= {"0", "1"} for line in lines)
        assert all(len(line) == 4 for line in lines)

    def test_figure1_command(self, capsys):
        assert main(["figure1", "--circuit", "s27", "--n", "1"]) == 0
        assert "Figure 1" in capsys.readouterr().out
