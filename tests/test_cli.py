"""Command-line interface."""

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_subcommand(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_gemm_args(self):
        args = build_parser().parse_args(["gemm", "64", "128", "256", "--dtype", "fp32"])
        assert (args.m, args.k, args.n) == (64, 128, 256)
        assert args.dtype == "fp32"

    def test_bad_dtype_rejected(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["gemm", "1", "1", "1", "--dtype", "fp64"])


class TestCommands:
    def test_specs(self, capsys):
        assert main(["specs"]) == 0
        out = capsys.readouterr().out
        assert "Gaudi-2" in out and "1.5x" in out

    def test_gemm(self, capsys):
        assert main(["gemm", "2048", "2048", "2048"]) == 0
        out = capsys.readouterr().out
        assert "MME" in out and "CTA" in out

    def test_gemm_gaudi3(self, capsys):
        assert main(["gemm", "4096", "4096", "4096", "--backend", "gaudi3"]) == 0
        assert "Gaudi-3" in capsys.readouterr().out

    def test_figures_single(self, capsys, tmp_path):
        assert main(["figures", "--id", "table1", "--out", str(tmp_path)]) == 0
        assert (tmp_path / "table1.txt").exists()
        assert "matrix_tflops_ratio" in capsys.readouterr().out

    def test_serve(self, capsys):
        assert main(["serve", "--requests", "4", "--max-batch", "4"]) == 0
        out = capsys.readouterr().out
        assert "throughput" in out and "TTFT" in out

    def test_smi_both_vendors(self, capsys):
        assert main(["smi", "--backend", "gaudi2", "--workload", "llm"]) == 0
        assert main(["smi", "--backend", "a100", "--workload", "recsys"]) == 0
        out = capsys.readouterr().out
        assert "Gaudi-2" in out and "A100" in out

    def test_figures_markdown(self, capsys):
        assert main(["figures", "--markdown"]) == 0
        out = capsys.readouterr().out
        assert "Paper vs measured" in out
        assert "**NO**" not in out


class TestTypedErrors:
    """A ConfigError is one stderr line and exit code 2, never a traceback."""

    @pytest.mark.parametrize("argv", [
        ["fleet", "--tenants", "gold:tier=x"],
        ["fleet", "--nodes", "2y", "gaudi2"],
        ["serve", "--backend", "nosuch"],
        ["chaos", "--fail-device", "x@t=1"],
        ["chaos", "--tp", "4", "--fail-device", "1@t=nan"],
        ["chaos", "--tp", "4", "--degrade-link", "5-6@t=0,factor=0.1"],
        ["chaos", "--flap-link", "0-1@t=1,period=0.5,cycles=1.5"],
        ["serve", "--max-batch", "0"],
        ["serve", "--requests", "-5"],
        ["trace", "--requests", "0"],
        ["top", "--requests", "0"],
        ["top", "--max-batch", "0"],
        ["serve", "--tp", "3"],
        ["trace", "--tp", "3"],
        ["top", "--tp", "3"],
        ["chaos", "--tp", "3"],
        ["fleet", "--tp", "3"],
        # Feature flags are validated even when their switch is off.
        ["fleet", "--nodes", "2x gaudi2", "--max-inflight", "0"],
        ["fleet", "--nodes", "2x gaudi2", "--breaker-threshold", "0"],
        ["fleet", "--nodes", "2x gaudi2", "--autoscale-interval", "-1"],
        ["fleet", "--nodes", "2x gaudi2", "--admission"],
    ])
    def test_config_error_exits_2_with_one_line(self, argv, capsys):
        assert main(argv) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        lines = captured.err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(f"repro {argv[0]}: error: ")
