"""Tests for the command-line interface."""

import re

import pytest

from repro.cli import build_parser, main


class TestParser:
    def test_requires_command(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args([])

    def test_solve_defaults(self):
        args = build_parser().parse_args(["solve"])
        assert args.n == 600 and args.nev == 30 and not args.distributed

    def test_backend_choices(self):
        with pytest.raises(SystemExit):
            build_parser().parse_args(["solve", "--backend", "bogus"])

    def test_problem_choices(self):
        args = build_parser().parse_args(["solve", "--problem", "NaCl-9k"])
        assert args.problem == "NaCl-9k"

    def test_precision_flags(self):
        args = build_parser().parse_args(
            ["solve", "--filter-dtype", "fp32", "--qr-dtype", "fp32"]
        )
        assert args.filter_dtype == "fp32" and args.qr_dtype == "fp32"
        # default None: the flags never clobber a tuned winner's scopes
        args = build_parser().parse_args(["solve"])
        assert args.filter_dtype is None and args.qr_dtype is None

    @pytest.mark.parametrize("argv", [
        ["--filter-dtype", "bf16"], ["--filter-dtype", "auto"],
        ["--qr-dtype", "fp16"], ["--comm-compress", "none"],
    ])
    def test_sub_fp32_flags_are_usage_errors(self, argv, capsys):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["solve", *argv])
        assert exc.value.code == 2
        if argv[0] != "--comm-compress":
            # argparse names the accepted values
            assert "'fp64', 'fp32'" in capsys.readouterr().err

    @pytest.mark.parametrize("argv,flag", [
        (["solve", "--ranks", "0"], "--ranks"),
        (["solve", "--ranks", "-3"], "--ranks"),
        (["solve", "--distributed", "--faults", "3", "--fault-events", "-1"],
         "--fault-events"),
        (["solve", "--distributed", "--faults", "3", "--fault-horizon", "-1"],
         "--fault-horizon"),
        (["tune", "--ranks", "0"], "--ranks"),
        (["serve", "--ranks", "0"], "--ranks"),
    ])
    def test_out_of_range_counts_are_usage_errors(self, argv, flag, capsys):
        """Exit 2 with argparse's usage message, not a traceback or a
        fault injector armed with no events."""
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert err.startswith("usage: repro") and f"argument {flag}" in err

    @pytest.mark.parametrize("argv", [
        ["--pipeline-filter"], ["--pipeline-chunks", "4"],
        ["--overlap", "0.5"],
    ])
    def test_pipelined_filter_flags_are_usage_errors(self, argv):
        with pytest.raises(SystemExit) as exc:
            build_parser().parse_args(["solve", *argv])
        assert exc.value.code == 2



class TestCommands:
    def test_solve_serial(self, capsys):
        rc = main(["solve", "--n", "200", "--nev", "8", "--seed", "1"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged: True" in out
        assert "QR variants" in out

    def test_solve_distributed(self, capsys):
        rc = main(
            ["solve", "--n", "200", "--nev", "8", "--distributed",
             "--backend", "nccl", "--seed", "1"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "simulated 2x2 grid" in out
        assert "modeled time-to-solution" in out

    def test_solve_table1_problem(self, capsys):
        rc = main(["solve", "--problem", "NaCl-9k", "--n", "240", "--seed", "11"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "NaCl-9k" in out

    def test_weak_points(self, capsys):
        rc = main(["weak", "--nodes", "1", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ChASE(NCCL)" in out and "ChASE(LMS)" in out

    def test_strong_points(self, capsys):
        rc = main(["strong", "--nodes", "4"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "ELPA2-GPU" in out

    def test_solve_mixed_precision(self, capsys):
        rc = main(
            ["solve", "--n", "200", "--nev", "8", "--distributed",
             "--ranks", "8", "--backend", "nccl", "--seed", "1",
             "--filter-dtype", "fp32"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert "converged: True" in out
        assert re.search(r"mixed precision: fp32 filter on [1-9]\d*/\d+ "
                         r"iterations", out)

    def test_solve_mixed_precision_never_admitted(self, capsys):
        """A precision request that never engages says so, and why."""
        rc = main(
            ["solve", "--n", "300", "--nev", "20", "--distributed",
             "--ranks", "4", "--seed", "3", "--filter-dtype", "fp32"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        assert re.search(
            r"mixed precision: fp32 requested, 0/\d+ iterations admitted — "
            r"iteration-1 cond estimate \d\.\de\+\d+ above the 1e\+06 gate",
            out)

    def test_tune_precision_is_a_usage_error(self):
        with pytest.raises(SystemExit) as exc:
            main(["tune", "--ranks", "4", "--n", "200", "--nev", "16",
                  "--precision", "--smoke"])
        assert exc.value.code == 2

    def test_solve_tuned_label_is_the_config_that_ran(self, capsys):
        """The ``tuned config:`` label includes the precision flags,
        because they are applied before the solve."""
        rc = main(
            ["solve", "--n", "300", "--nev", "32", "--nex", "16",
             "--distributed", "--ranks", "8", "--tuned", "--seed", "1",
             "--filter-dtype", "fp32", "--qr-dtype", "fp64"]
        )
        out = capsys.readouterr().out
        assert rc == 0
        label = re.search(r"tuned config: (.*) \(modeled", out).group(1)
        assert "filter=fp32" in label.split()
        assert not any(bit.startswith("qr=") for bit in label.split())

    def test_suite_small(self, capsys):
        rc = main(["suite", "--scale", "200"])
        out = capsys.readouterr().out
        assert rc == 0
        assert "NaCl-9k" in out and "TiO2-29k" in out
