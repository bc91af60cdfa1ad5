"""The ``simulate`` command line: presets, overrides, and result emission.

Precedence for every setting: command-line flag, then config-file value,
then preset default. A run is a tuple of trial plans swept through one
worker pool: one plan for a BER-versus-SNR sweep, and for the fig2 preset
one plan per user count at N = 8K antennas.
"""

import argparse
import decimal
import math
import os
import re
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from .channel import SystemConfig, noise_power_from_snr_db
from .errors import OneBitMimoError, UsageError
from .modulation import supported_modulations
from .montecarlo import TrialPlan, ber_sweep
from .receivers import ReceiverKind
from .results import emit_results

_ALL_KINDS = tuple(ReceiverKind)
#: Most SNR grid points a run may ask for; checked before the grid is built,
#: so a tiny --snr-step is refused instead of exhausting memory.
_MAX_GRID_POINTS = 10**6
_FIG_SNR_GRID = tuple(float(s) for s in range(-10, 31, 5))

PRESETS = {
    "fig1a": {
        "k": 2,
        "n": 16,
        "mod": "qpsk",
        "snr_db_grid": _FIG_SNR_GRID,
        "kinds": _ALL_KINDS,
    },
    "fig1b": {
        "k": 4,
        "n": 64,
        "mod": "8psk",
        "snr_db_grid": _FIG_SNR_GRID,
        "kinds": _ALL_KINDS,
    },
    # Error floors versus user count, read off at 30 dB with N = 8K. The
    # AQNM-MMSE and WFQ floors sit above ZF/MMSE and are left out.
    "fig2": {
        "user_counts": (2, 4, 6, 8, 10, 12, 14, 16),
        "antennas_per_user": 8,
        "mod": "qpsk",
        "snr_db_grid": (30.0,),
        "kinds": tuple(
            kind
            for kind in ReceiverKind
            if kind not in (ReceiverKind.AQNM_MMSE, ReceiverKind.WFQ)
        ),
    },
}

_DEFAULTS = {
    "seed": 1,
    "max_trials": 100_000,
    "min_bit_errors": 200,
    "unquantized": False,
    "workers": 1,
    "format": "csv",
    "snr_step": 5.0,
    "kinds": _ALL_KINDS,
}


@dataclass(frozen=True)
class RunSpec:
    """A validated run: the plans to sweep, in order, and where to write."""

    plans: tuple[TrialPlan, ...]
    workers: int
    out_format: str
    out_path: str

    @property
    def seed(self) -> int:
        return self.plans[0].seed


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    # An unset option stays out of the namespace: it holds just the settings given.
    parser = _Parser(
        prog="simulate",
        description="Monte Carlo BER simulation of linear receivers for "
        "uplink massive MIMO with one-bit ADCs.",
        argument_default=argparse.SUPPRESS,
    )
    parser.add_argument("--preset", choices=sorted(PRESETS))
    parser.add_argument("--config", metavar="FILE",
                        help="flat key=value file mirroring the flags")
    parser.add_argument("--k", type=_checked_int(lambda v: v >= 1, ">= 1"),
                        help="number of users")
    parser.add_argument("--n", type=_checked_int(lambda v: v >= 1, ">= 1"),
                        help="number of antennas")
    parser.add_argument("--mod", choices=supported_modulations())
    parser.add_argument("--snr-start", type=float, metavar="DB")
    parser.add_argument("--snr-stop", type=float, metavar="DB")
    parser.add_argument("--snr-step", type=float, metavar="DB")
    parser.add_argument("--receivers", type=_parse_kinds,
                        help="comma-separated receiver names, or 'all'")
    parser.add_argument("--seed", type=_checked_int(lambda v: 0 <= v < 2**64,
                                                    "an unsigned 64-bit integer"))
    parser.add_argument("--max-trials", type=_checked_int(lambda v: v >= 1, ">= 1"))
    parser.add_argument("--min-bit-errors", type=_checked_int(lambda v: v >= 0, ">= 0"),
                        help="early-stop error target per point (0 disables)")
    parser.add_argument("--unquantized", action="store_true",
                        help="bypass the one-bit quantizer (baseline mode)")
    parser.add_argument("--workers", type=_checked_int(lambda v: v >= 1, ">= 1"))
    parser.add_argument("--format", choices=("csv", "json"))
    parser.add_argument("--out", metavar="PATH")
    return parser


def _checked_int(accepts, requirement):
    """An argparse type: the integer a value spells, refused unless
    ``accepts`` holds for it; ``requirement`` says what that asks."""
    def parse(text):
        value = int(text)
        if not accepts(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {value}")
        return value

    # argparse names a value int() cannot read an "invalid int value".
    parse.__name__ = "int"
    return parse


_BOOL_TOKENS = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}


def _read_config_file(parser: _Parser, path) -> dict:
    """The settings of a flat ``key=value`` file, each parsed by its flag ``--key``."""
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    # Exact long option names only: argparse would also take an abbreviation.
    keys = {option[2:] for action in parser._actions for option in action.option_strings
            if option.startswith("--")} - {"config", "help"}
    values = {}
    for lineno, raw in enumerate(lines, start=1):
        # A comment starts at a '#' that opens the line or follows whitespace,
        # so a value such as out=run#1.csv keeps its '#'.
        line = re.split(r"(?:^|\s)#", raw, maxsplit=1)[0].strip()
        if not line:
            continue
        where = f"--config: {path}:{lineno}:"
        if "=" not in line:
            raise UsageError(f"{where} expected key=value")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in keys:
            raise UsageError(f"{where} unknown key {key!r}")
        if key == "unquantized":
            # The one store_true flag takes no value, so a line names its state.
            if text.lower() not in _BOOL_TOKENS:
                raise UsageError(f"{where} bad value for unquantized: {text!r}")
            values["unquantized"] = _BOOL_TOKENS[text.lower()]
            continue
        try:
            values.update(vars(parser.parse_args([f"--{key}={text}"])))
        except UsageError as exc:
            raise UsageError(f"{where} {exc}") from exc
    return values


def _parse_kinds(text: str) -> tuple[ReceiverKind, ...]:
    if not text.strip():
        raise UsageError("--receivers: empty receiver list")
    if text.strip().lower() == "all":
        return _ALL_KINDS
    kinds = []
    for token in text.split(","):
        token = token.strip().lower()
        try:
            kind = ReceiverKind(token)
        except ValueError:
            names = ", ".join(k.value for k in ReceiverKind)
            raise UsageError(
                f"--receivers: unknown receiver {token!r} (choose from {names}, all)"
            ) from None
        if kind not in kinds:
            kinds.append(kind)
    return tuple(kinds)


def _snr_grid(start, stop, step) -> tuple[float, ...]:
    if stop is None:
        stop = start
    for flag, db in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(db):
            raise UsageError(f"--snr-{flag}: must be finite, got {db}")
    if step <= 0:
        raise UsageError(f"--snr-step must be > 0, got {step}")
    if stop < start:
        raise UsageError(f"--snr-stop {stop} is below --snr-start {start}")
    steps = (stop - start) / step
    if not math.isfinite(steps):
        raise UsageError(
            f"--snr-stop: the grid from {start} to {stop} dB in {step} dB steps overflows"
        )
    # The grid is counted and built on the decimals the floats print as, so
    # 0 to 1 dB in 0.1 dB steps labels 0.3 dB as 0.3, not
    # 0.30000000000000004, and keeps its stop point at any step. Point i is
    # the float nearest the decimal start + i * step. The context's precision
    # makes every difference, quotient and product exact.
    with decimal.localcontext(decimal.Context(prec=decimal.MAX_PREC)):
        first, last, gap = (decimal.Decimal(repr(db)) for db in (start, stop, step))
        points = int((last - first) // gap) + 1
        if points > _MAX_GRID_POINTS:
            raise UsageError(
                f"--snr-step: {step} dB steps from {start} to {stop} dB make {points} "
                f"grid points, more than {_MAX_GRID_POINTS}"
            )
        return tuple(float(first + i * gap) for i in range(points))


def parse_run_spec(argv=None) -> RunSpec:
    """Parse flags (and the optional config file) into a validated RunSpec."""
    parser = _build_parser()
    flag_values = vars(parser.parse_args(argv))
    config_path = flag_values.pop("config", None)
    file_values = {} if config_path is None else _read_config_file(parser, config_path)
    given = {**file_values, **flag_values}
    preset = PRESETS.get(given.get("preset"), {})
    settings = {**_DEFAULTS, **preset, **file_values, **flag_values}

    floor_mode = given.get("preset") == "fig2"
    if floor_mode:
        for name in ("k", "n", "mod", "snr_start", "snr_stop", "snr_step"):
            if name in given:
                raise UsageError(f"--{name.replace('_', '-')}: fixed by the fig2 preset")
        if settings["unquantized"]:
            raise UsageError("--unquantized: error floors require the quantizer")
        geometry = [(k, preset["antennas_per_user"] * k) for k in preset["user_counts"]]

    if preset and not given.keys() & {"snr_start", "snr_stop", "snr_step"}:
        snr_db_grid = preset["snr_db_grid"]
    elif settings.get("snr_start") is None:
        raise UsageError(
            "--snr-start is required to change the preset's SNR grid"
            if preset
            else "--snr-start is required without a preset SNR grid"
        )
    else:
        snr_db_grid = _snr_grid(
            settings.get("snr_start"), settings.get("snr_stop"), settings["snr_step"]
        )

    if not floor_mode:
        if not settings.keys() >= {"k", "n", "mod"}:
            raise UsageError("--k, --n and --mod are required when no preset supplies them")
        users, antennas = settings["k"], settings["n"]
        if antennas < users:
            raise UsageError(
                f"--n: antennas must be >= users (N >= K), got --k {users} --n {antennas}"
            )
        geometry = [(users, antennas)]

    kinds = settings.get("receivers", settings["kinds"])
    out_format = settings["format"]
    out_path = settings.get("out", f"results.{out_format}")
    if not out_path.strip():
        raise UsageError("--out: empty output path")
    # Checked before the sweep, which may run for hours, and without creating
    # or truncating anything.
    if os.path.isdir(out_path):
        raise UsageError(f"--out: {out_path} is a directory")
    if not os.path.isdir(os.path.dirname(out_path) or "."):
        raise UsageError(f"--out: the parent of {out_path} is not an existing directory")

    try:
        noise_power_from_snr_db(snr_db_grid[0])
    except ValueError as exc:
        raise UsageError(f"--snr-start: {exc}") from exc
    try:
        plans = tuple(
            TrialPlan(
                config=SystemConfig(k, n, settings["mod"]),
                kinds=kinds,
                snr_db_grid=snr_db_grid,
                max_trials=settings["max_trials"],
                min_bit_errors=settings["min_bit_errors"],
                seed=settings["seed"],
                quantized=not settings["unquantized"],
            )
            for k, n in geometry
        )
    except ValueError as exc:
        # Past a valid first point: the noise power falls as the SNR rises,
        # so only the far end of the grid can underflow.
        raise UsageError(f"--snr-stop: {exc}") from exc
    return RunSpec(
        plans=plans, workers=settings["workers"], out_format=out_format, out_path=out_path
    )


def run_spec(spec: RunSpec):
    """Execute a RunSpec and return its records."""
    return ber_sweep(spec.plans, workers=spec.workers)


def main(argv=None) -> int:
    try:
        spec = parse_run_spec(argv)
    except UsageError as exc:
        print(f"simulate: error: {exc}", file=sys.stderr)
        return 2
    try:
        records = run_spec(spec)
        emit_results(records, spec.out_format, spec.out_path, seed=spec.seed)
    except (OneBitMimoError, OSError, ValueError, BrokenExecutor) as exc:
        print(f"simulate: error: {exc}", file=sys.stderr)
        return 1
    except KeyboardInterrupt:
        print("simulate: interrupted", file=sys.stderr)
        return 130
    print(f"wrote {len(records)} records to {spec.out_path}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
