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
