"""Command-line parsing, presets, config-file precedence, and end-to-end runs."""

import os
import subprocess
import sys
from concurrent.futures import Executor, Future
from concurrent.futures.process import BrokenProcessPool
from pathlib import Path

import pytest

from onebit_mimo import cli, montecarlo
from onebit_mimo.cli import main, parse_run_spec
from onebit_mimo.errors import UsageError
from onebit_mimo.receivers import ReceiverKind
from onebit_mimo.results import read_records


class BrokenPool(Executor):
    """A worker pool whose every batch fails as if its worker had died."""

    def __init__(self, *args, **kwargs):
        pass

    def submit(self, fn, /, *args, **kwargs):
        future = Future()
        future.set_exception(BrokenProcessPool("a worker died"))
        return future


def geometry(plan):
    return plan.config.users, plan.config.antennas, plan.config.modulation


#: One representative, non-default value per config key.
KEY_VALUES = {
    "preset": "fig1b",
    "k": "3",
    "n": "8",
    "mod": "16qam",
    "snr-start": "-5",
    "snr-stop": "20",
    "snr-step": "2.5",
    "receivers": "zf,bmmse",
    "seed": "77",
    "max-trials": "3000",
    "min-bit-errors": "0",
    "unquantized": "yes",
    "workers": "2",
    "format": "json",
    "out": "o.json",
}
MANUAL_RUN = {"k": "2", "n": "4", "mod": "qpsk", "snr-start": "0", "snr-stop": "10"}


class TestParseRunSpec:
    def test_fig1a_preset(self):
        spec = parse_run_spec(["--preset", "fig1a", "--seed", "42", "--out", "r.csv"])
        (plan,) = spec.plans
        assert geometry(plan) == (2, 16, "qpsk")
        assert plan.snr_db_grid == tuple(float(s) for s in range(-10, 31, 5))
        assert plan.kinds == tuple(ReceiverKind)
        assert plan.seed == spec.seed == 42
        assert spec.out_path == "r.csv"
        assert plan.quantized

    def test_fig1b_preset(self):
        (plan,) = parse_run_spec(["--preset", "fig1b"]).plans
        assert geometry(plan) == (4, 64, "8psk")

    def test_fig2_preset(self):
        spec = parse_run_spec(["--preset", "fig2"])
        users = (2, 4, 6, 8, 10, 12, 14, 16)
        assert [geometry(plan) for plan in spec.plans] == [(k, 8 * k, "qpsk") for k in users]
        kinds = tuple(
            kind for kind in ReceiverKind
            if kind not in (ReceiverKind.AQNM_MMSE, ReceiverKind.WFQ)
        )
        for plan in spec.plans:
            assert plan.snr_db_grid == (30.0,)
            assert plan.kinds == kinds
            assert plan.quantized

    def test_fig2_receiver_restriction(self):
        spec = parse_run_spec(["--preset", "fig2", "--receivers", "mrc,bmrc"])
        assert {plan.kinds for plan in spec.plans} == {(ReceiverKind.MRC, ReceiverKind.BMRC)}

    def test_fig2_rejects_geometry_overrides(self):
        with pytest.raises(UsageError, match="--k"):
            parse_run_spec(["--preset", "fig2", "--k", "4"])

    def test_preset_override_by_flags(self):
        spec = parse_run_spec(
            ["--preset", "fig1a", "--snr-start", "25", "--snr-stop", "35"]
        )
        assert spec.plans[0].snr_db_grid == (25.0, 30.0, 35.0)

    @pytest.mark.parametrize(
        "args, need",
        [
            (["--preset", "fig1a", "--snr-step", "10"], "to change the preset's SNR grid"),
            (["--preset", "fig1a", "--snr-stop", "20"], "to change the preset's SNR grid"),
            (["--k", "2", "--n", "4", "--mod", "qpsk"], "without a preset SNR grid"),
        ],
        ids=["preset-step", "preset-stop", "manual"],
    )
    def test_grid_without_a_start_says_why_one_is_needed(self, args, need):
        with pytest.raises(UsageError, match=f"^--snr-start is required {need}$"):
            parse_run_spec(args)

    def test_antennas_must_cover_users(self):
        with pytest.raises(UsageError, match="N >= K"):
            parse_run_spec(["--k", "4", "--n", "2", "--mod", "qpsk", "--snr-start", "0"])

    def test_manual_mode_requires_geometry(self):
        with pytest.raises(UsageError):
            parse_run_spec(["--snr-start", "0"])

    def test_unknown_receiver_token(self):
        with pytest.raises(UsageError, match="--receivers"):
            parse_run_spec(["--preset", "fig1a", "--receivers", "mrc,bogus"])

    def test_unknown_flag_is_usage_error(self):
        with pytest.raises(UsageError):
            parse_run_spec(["--bogus"])

    def test_default_output_path_follows_format(self):
        assert parse_run_spec(["--preset", "fig1a"]).out_path == "results.csv"
        assert (
            parse_run_spec(["--preset", "fig1a", "--format", "json"]).out_path
            == "results.json"
        )

    def test_unquantized_flag(self):
        spec = parse_run_spec(["--preset", "fig1a", "--unquantized"])
        assert not spec.plans[0].quantized

    def test_single_point_grid(self):
        spec = parse_run_spec(["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "10"])
        assert spec.plans[0].snr_db_grid == (10.0,)

    def test_bad_step(self):
        with pytest.raises(UsageError, match="snr-step"):
            parse_run_spec(
                ["--k", "2", "--n", "4", "--mod", "qpsk",
                 "--snr-start", "0", "--snr-stop", "10", "--snr-step", "0"]
            )

    def test_decimal_step_gives_decimal_points(self):
        # start + i * step in binary would give 0.30000000000000004,
        # 0.6000000000000001 and 0.7000000000000001 here.
        spec = parse_run_spec(["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
                               "--snr-stop", "1", "--snr-step", "0.1"])
        grid = spec.plans[0].snr_db_grid
        assert [repr(point) for point in grid] == [f"0.{i}" for i in range(10)] + ["1.0"]

    def test_decimal_count_keeps_the_stop_point(self):
        # In binary, (50.0000005 - 50.0) / 1e-7 is 4.9999999874, which
        # dropped the stop point.
        assert cli._snr_grid(50.0, 50.0000005, 1e-7) == tuple(
            float(f"50.000000{i}") for i in range(6)
        )
        assert cli._snr_grid(30.0, 30.0000003, 1e-7)[-1] == 30.0000003
        # A stop between two points ends the grid at the point below it.
        assert cli._snr_grid(0.0, 1.0, 0.3) == (0.0, 0.3, 0.6, 0.9)

    def test_grid_point_bound(self):
        assert len(cli._snr_grid(0.0, 999_999.0, 1.0)) == cli._MAX_GRID_POINTS
        with pytest.raises(UsageError, match="^--snr-step: .* 1000001 grid points"):
            cli._snr_grid(0.0, 1_000_000.0, 1.0)


class TestConfigFile:
    def test_file_supplies_values_cli_overrides(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(
            "# comment line\n"
            "preset=fig1a\n"
            "seed=7\n"
            "max-trials=2000\n"
            "receivers=zf,bzf\n"
        )
        spec = parse_run_spec(["--config", str(cfg), "--seed", "99"])
        (plan,) = spec.plans
        assert geometry(plan) == (2, 16, "qpsk")  # the fig1a preset's
        assert plan.seed == 99  # flag beats file
        assert plan.max_trials == 2000
        assert plan.kinds == (ReceiverKind.ZF, ReceiverKind.BZF)

    def test_unknown_key(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("turbo=yes\n")
        with pytest.raises(UsageError, match="unknown key"):
            parse_run_spec(["--config", str(cfg)])

    def test_missing_file(self, tmp_path):
        with pytest.raises(UsageError, match="cannot read"):
            parse_run_spec(["--config", str(tmp_path / "nope.cfg")])

    def test_empty_path_is_not_unset(self):
        with pytest.raises(UsageError, match="cannot read"):
            parse_run_spec(["--preset", "fig1a", "--config", ""])

    @pytest.mark.parametrize("line", ["mod=bpsk", "format=xml"])
    def test_value_outside_flag_choices(self, tmp_path, capsys, line):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"preset=fig1a\nmax-trials=1000\n{line}\n")
        with pytest.raises(UsageError, match="choose from"):
            parse_run_spec(["--config", str(cfg)])
        # Rejected before any trial runs: usage exit code, no output file.
        out = tmp_path / "r.out"
        assert main(["--config", str(cfg), "--out", str(out)]) == 2
        assert not out.exists()

    def test_empty_receivers_value(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("preset=fig1a\nreceivers=\n")
        with pytest.raises(UsageError, match="empty receiver list"):
            parse_run_spec(["--config", str(cfg)])

    def test_bool_parsing(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("unquantized=true\n")
        spec = parse_run_spec(
            ["--config", str(cfg), "--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0"]
        )
        assert not spec.plans[0].quantized

    def test_table_covers_every_config_key(self):
        options = {
            option[2:]
            for action in cli._build_parser()._actions
            for option in action.option_strings
            if option.startswith("--")
        }
        assert set(KEY_VALUES) == options - {"config", "help"}

    @pytest.mark.parametrize("key", sorted(KEY_VALUES))
    def test_flag_and_config_line_agree(self, tmp_path, key):
        value = KEY_VALUES[key]
        # The rest of a manual run, less the key under test; a preset needs none.
        rest = [] if key == "preset" else [
            f"--{name}={text}" for name, text in MANUAL_RUN.items() if name != key
        ]
        flag = "--unquantized" if key == "unquantized" else f"--{key}={value}"
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"{key}={value}\n")
        from_flag = parse_run_spec([*rest, flag])
        assert from_flag == parse_run_spec([*rest, "--config", str(cfg)])
        manual = parse_run_spec([f"--{name}={text}" for name, text in MANUAL_RUN.items()])
        assert from_flag != manual  # the value took effect

    @pytest.mark.parametrize(
        "line, message",
        [
            ("k=two", "invalid int value"),
            ("workers=1.5", "invalid int value"),
            ("snr-step=x", "invalid float value"),
            ("unquantized=maybe", "bad value"),
            ("rec=zf", "unknown key"),
            ("config=other.cfg", "unknown key"),
            ("help=", "unknown key"),
            # Inside a value '#' is no comment, and zf#bzf names no receiver.
            ("receivers=zf#bzf", "unknown receiver 'zf#bzf'"),
        ],
    )
    def test_bad_line_names_path_and_line(self, tmp_path, line, message):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"preset=fig1a\n{line}\n")
        with pytest.raises(UsageError) as info:
            parse_run_spec(["--config", str(cfg)])
        assert str(info.value).startswith(f"--config: {cfg}:2: ")
        assert message in str(info.value)

    @pytest.mark.parametrize(
        "key, value, requirement",
        [
            ("k", "0", ">= 1"),
            ("n", "0", ">= 1"),
            ("seed", "-1", "an unsigned 64-bit integer"),
            ("seed", str(2**64), "an unsigned 64-bit integer"),
            ("max-trials", "0", ">= 1"),
            ("min-bit-errors", "-1", ">= 0"),
            ("workers", "0", ">= 1"),
        ],
    )
    def test_out_of_range_value_as_flag_and_line(self, tmp_path, key, value, requirement):
        message = f"argument --{key}: must be {requirement}, got {value}"
        with pytest.raises(UsageError) as info:
            parse_run_spec(["--preset", "fig1a", f"--{key}={value}"])
        assert str(info.value) == message
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"preset=fig1a\n{key}={value}\n")
        with pytest.raises(UsageError) as info:
            parse_run_spec(["--config", str(cfg)])
        assert str(info.value) == f"--config: {cfg}:2: {message}"

    def test_comment_starts_a_line_or_follows_whitespace(self, tmp_path):
        cfg = tmp_path / "run.cfg"
        cfg.write_text("  # comment line\npreset=fig1a\nout=run#1.csv\nseed=42  # note\n")
        spec = parse_run_spec(["--config", str(cfg)])
        assert spec.out_path == "run#1.csv"
        assert spec.seed == 42

    def test_abbreviation_is_a_flag_only(self):
        # The same abbreviation the config file rejects as an unknown key.
        (plan,) = parse_run_spec(["--preset", "fig1a", "--rec", "zf"]).plans
        assert plan.kinds == (ReceiverKind.ZF,)



class TestMain:
    def test_usage_error_exit_code(self, capsys):
        assert main(["--k", "4", "--n", "2", "--mod", "qpsk", "--snr-start", "0"]) == 2
        assert "error" in capsys.readouterr().err

    @pytest.mark.parametrize("receivers", ["", "  "])
    def test_empty_receivers_exit_code(self, tmp_path, capsys, receivers):
        # An empty list is a usage error, not "receivers not given".
        out = tmp_path / "r.csv"
        code = main(
            ["--k", "2", "--n", "16", "--mod", "qpsk", "--snr-start", "30",
             "--receivers", receivers, "--max-trials", "1000", "--out", str(out)]
        )
        assert code == 2
        assert capsys.readouterr().err == (
            "simulate: error: --receivers: empty receiver list\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize("out", ["", "   "])
    def test_empty_out_is_usage_error(self, tmp_path, capsys, monkeypatch, out):
        monkeypatch.chdir(tmp_path)
        args = ["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
                "--receivers", "zf", "--max-trials", "1000"]
        assert main([*args, "--out", out]) == 2
        cfg = tmp_path / "run.cfg"
        cfg.write_text(f"out={out}\n")
        assert main([*args, "--config", str(cfg)]) == 2
        assert capsys.readouterr().err == "simulate: error: --out: empty output path\n" * 2
        assert list(tmp_path.iterdir()) == [cfg]

    @pytest.mark.parametrize(
        "flags, config",
        [
            (["--snr-start", "nan"], ""),
            (["--snr-start", "0", "--snr-stop", "inf"], ""),
            (["--snr-start", "0", "--snr-stop", "10", "--snr-step", "nan"], ""),
            (["--snr-start", "0", "--snr-stop", "10", "--snr-step", "inf"], ""),
            (["--snr-stop", "10"], "snr-start=nan\n"),
        ],
        ids=["nan-start", "inf-stop", "nan-step", "inf-step", "config-nan-start"],
    )
    def test_non_finite_snr_is_usage_error(self, tmp_path, capsys, flags, config):
        cfg = tmp_path / "run.cfg"
        cfg.write_text(config)
        out = tmp_path / "r.csv"
        code = main(
            ["--k", "2", "--n", "4", "--mod", "qpsk", "--receivers", "zf",
             "--max-trials", "1000", "--config", str(cfg), *flags, "--out", str(out)]
        )
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("simulate: error: --snr-") and "must be finite" in line
        assert not out.exists()

    def test_snr_without_noise_power_is_usage_error(self, tmp_path, capsys):
        # 10**(-4000/10) underflows to a zero noise power.
        out = tmp_path / "r.csv"
        code = main(["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "4000",
                     "--receivers", "zf", "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "simulate: error: --snr-start: noise_power must be > 0, got 0.0\n"
        )
        assert not out.exists()

    @pytest.mark.parametrize(
        "flags",
        [
            ["--snr-start=-4000"],
            ["--snr-start=-1e308", "--snr-stop", "1e308"],
            ["--snr-start", "0", "--snr-stop", "4000", "--snr-step", "4000"],
        ],
        ids=["noise-overflow", "span-overflow", "later-point-underflow"],
    )
    def test_snr_grid_without_noise_power_is_usage_error(
        self, tmp_path, capsys, monkeypatch, flags
    ):
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_batch_counts", no_trials)
        out = tmp_path / "r.csv"
        code = main(["--k", "2", "--n", "4", "--mod", "qpsk", "--receivers", "zf",
                     *flags, "--out", str(out)])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("simulate: error: --snr-")
        assert not out.exists()

    def test_oversized_snr_grid_is_usage_error(self, tmp_path, capsys, monkeypatch):
        # 3e12 points: the count is refused before any grid point is built.
        def no_trials(*args):
            raise AssertionError("a trial ran")

        monkeypatch.setattr(montecarlo, "_batch_counts", no_trials)
        out = tmp_path / "r.csv"
        code = main(["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
                     "--snr-stop", "3000", "--snr-step", "1e-9", "--receivers", "zf",
                     "--out", str(out)])
        assert code == 2
        assert capsys.readouterr().err == (
            "simulate: error: --snr-step: 1e-09 dB steps from 0.0 to 3000.0 dB make "
            "3000000000001 grid points, more than 1000000\n"
        )
        assert not out.exists()

    def test_end_to_end_small_run(self, tmp_path, capsys):
        out = tmp_path / "r.csv"
        code = main(
            ["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
             "--receivers", "zf,bzf", "--seed", "3", "--max-trials", "1000",
             "--min-bit-errors", "0", "--out", str(out)]
        )
        assert code == 0
        records = read_records(out)
        assert len(records) == 2
        assert all(r.trials == 1000 for r in records)

    def test_close_grid_points_keep_distinct_labels(self, tmp_path, capsys):
        # Six significant digits would label all three points "100".
        out = tmp_path / "r.csv"
        argv = ["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "100",
                "--snr-stop", "100.0002", "--snr-step", "0.0001", "--receivers", "zf",
                "--max-trials", "10", "--min-bit-errors", "0", "--out", str(out)]
        assert main(argv) == 0
        labels = [line.split(",")[0] for line in out.read_text().splitlines()[1:]]
        assert len(set(labels)) == 3
        (plan,) = parse_run_spec(argv).plans
        assert [r.snr_db for r in read_records(out)] == list(plan.snr_db_grid)

    @pytest.mark.parametrize(
        "out, message",
        [("", "is a directory"), ("missing-dir/r.csv", "is not an existing directory")],
        ids=["directory", "missing-parent"],
    )
    def test_unwritable_out_is_refused_before_the_sweep(
        self, tmp_path, capsys, monkeypatch, out, message
    ):
        def no_sweep(*args, **kwargs):
            pytest.fail("the sweep ran")

        monkeypatch.setattr(cli, "ber_sweep", no_sweep)
        out = os.path.join(tmp_path, out)
        code = main(["--k", "2", "--n", "16", "--mod", "qpsk", "--snr-start", "0",
                     "--max-trials", "3000", "--min-bit-errors", "0", "--out", out])
        assert code == 2
        (line,) = capsys.readouterr().err.splitlines()
        assert line.startswith("simulate: error: --out: ") and line.endswith(message)
        assert list(tmp_path.iterdir()) == []

    def test_io_error_exit_code(self, tmp_path, capsys, monkeypatch):
        # The output directory vanishes during the sweep, after the check
        # before it passed.
        directory = tmp_path / "gone"
        directory.mkdir()

        def sweep_then_remove(*args, **kwargs):
            records = montecarlo.ber_sweep(*args, **kwargs)
            directory.rmdir()
            return records

        monkeypatch.setattr(cli, "ber_sweep", sweep_then_remove)
        code = main(
            ["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
             "--receivers", "zf", "--max-trials", "1000", "--out", str(directory / "r.csv")]
        )
        assert code == 1
        assert "[Errno 2]" in capsys.readouterr().err

    def test_broken_worker_pool_exit_code(self, tmp_path, capsys, monkeypatch):
        monkeypatch.setattr(montecarlo, "ProcessPoolExecutor", BrokenPool)
        code = main(
            ["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
             "--receivers", "zf", "--max-trials", "1000", "--workers", "2",
             "--out", str(tmp_path / "r.csv")]
        )
        assert code == 1
        assert "simulate: error: a worker died" in capsys.readouterr().err

    def test_keyboard_interrupt_exit_code(self, tmp_path, capsys, monkeypatch):
        def interrupted(spec):
            raise KeyboardInterrupt

        monkeypatch.setattr(cli, "run_spec", interrupted)
        out = tmp_path / "r.csv"
        code = main(
            ["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
             "--receivers", "zf", "--max-trials", "1000", "--out", str(out)]
        )
        assert code == 130
        assert capsys.readouterr().err == "simulate: interrupted\n"
        assert not out.exists()

    def test_same_seed_same_bytes(self, tmp_path, capsys):
        args = ["--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
                "--receivers", "mrc,zf", "--seed", "12", "--max-trials", "2000"]
        a, b = tmp_path / "a.csv", tmp_path / "b.csv"
        assert main(args + ["--out", str(a)]) == 0
        assert main(args + ["--out", str(b), "--workers", "2"]) == 0
        assert a.read_bytes() == b.read_bytes()


class TestEntryPoint:
    """``python -m onebit_mimo`` in a fresh interpreter."""

    @staticmethod
    def simulate(cwd, *args):
        src = str(Path(cli.__file__).parents[1])
        path = os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))
        return subprocess.run(
            [sys.executable, "-m", "onebit_mimo", *args], cwd=cwd,
            env={**os.environ, "PYTHONPATH": path},
            capture_output=True, text=True, timeout=120,
        )

    def test_small_run_writes_csv(self, tmp_path):
        result = self.simulate(
            tmp_path, "--k", "2", "--n", "4", "--mod", "qpsk", "--snr-start", "0",
            "--receivers", "zf", "--max-trials", "1000", "--min-bit-errors", "0",
            "--out", "r.csv",
        )
        assert result.returncode == 0, result.stderr
        (record,) = read_records(tmp_path / "r.csv")
        assert (record.users, record.antennas, record.trials) == (2, 4, 1000)

    def test_set_up_imports_no_scipy(self):
        src = str(Path(cli.__file__).parents[1])
        code = (
            "import sys\n"
            "import onebit_mimo.cli\n"
            "onebit_mimo.cli.parse_run_spec(['--preset', 'fig2'])\n"
            "print(sorted({'scipy', 'scipy.linalg'} & set(sys.modules)))\n"
        )
        result = subprocess.run(
            [sys.executable, "-c", code],
            env={**os.environ, "PYTHONPATH": src},
            capture_output=True, text=True, timeout=120,
        )
        assert result.returncode == 0, result.stderr
        assert result.stdout == "[]\n"

    def test_usage_error(self, tmp_path):
        result = self.simulate(
            tmp_path, "--k", "4", "--n", "2", "--mod", "qpsk", "--snr-start", "0"
        )
        assert result.returncode == 2
        (line,) = result.stderr.splitlines()
        assert line.startswith("simulate: error: --n:")
        assert list(tmp_path.iterdir()) == []
