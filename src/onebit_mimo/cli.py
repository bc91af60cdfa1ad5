"""The ``simulate`` command line: presets, overrides, and result emission.

Precedence for every setting: command-line flag, then config-file value,
then preset default. A run is a tuple of trial plans swept through one
worker pool: one plan for a BER-versus-SNR sweep, and for the fig2 preset
one plan per user count at N = 8K antennas.
"""

import argparse
import math
import sys
from concurrent.futures import BrokenExecutor
from dataclasses import dataclass

from .channel import SystemConfig
from .errors import OneBitMimoError, UsageError
from .modulation import supported_modulations
from .montecarlo import TrialPlan, ber_sweep
from .receivers import ReceiverKind
from .results import emit_results

_ALL_KINDS = tuple(ReceiverKind)
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


#: Allowed values of the settings that take one of a fixed set, for flags and
#: config-file keys alike.
_CHOICES = {
    "preset": tuple(sorted(PRESETS)),
    "mod": supported_modulations(),
    "format": ("csv", "json"),
}


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="simulate",
        description="Monte Carlo BER simulation of linear receivers for "
        "uplink massive MIMO with one-bit ADCs.",
    )
    parser.add_argument("--preset", choices=_CHOICES["preset"], default=None)
    parser.add_argument("--config", metavar="FILE", default=None,
                        help="flat key=value file mirroring the flags")
    parser.add_argument("--k", type=int, default=None, help="number of users")
    parser.add_argument("--n", type=int, default=None, help="number of antennas")
    parser.add_argument("--mod", choices=_CHOICES["mod"], default=None)
    parser.add_argument("--snr-start", type=float, default=None, metavar="DB")
    parser.add_argument("--snr-stop", type=float, default=None, metavar="DB")
    parser.add_argument("--snr-step", type=float, default=None, metavar="DB")
    parser.add_argument("--receivers", default=None,
                        help="comma-separated receiver names, or 'all'")
    parser.add_argument("--seed", type=int, default=None)
    parser.add_argument("--max-trials", type=int, default=None)
    parser.add_argument("--min-bit-errors", type=int, default=None,
                        help="early-stop error target per point (0 disables)")
    parser.add_argument("--unquantized", action="store_true", default=None,
                        help="bypass the one-bit quantizer (baseline mode)")
    parser.add_argument("--workers", type=int, default=None)
    parser.add_argument("--format", choices=_CHOICES["format"], default=None)
    parser.add_argument("--out", default=None, metavar="PATH")
    return parser


_BOOL_TOKENS = {"true": True, "1": True, "yes": True,
                "false": False, "0": False, "no": False}

_FILE_PARSERS = {
    "preset": str,
    "k": int,
    "n": int,
    "mod": str,
    "snr-start": float,
    "snr-stop": float,
    "snr-step": float,
    "receivers": str,
    "seed": int,
    "max-trials": int,
    "min-bit-errors": int,
    "unquantized": lambda s: _BOOL_TOKENS[s.lower()],
    "workers": int,
    "format": str,
    "out": str,
}


def _read_config_file(path) -> dict:
    values = {}
    try:
        with open(path) as handle:
            lines = handle.readlines()
    except OSError as exc:
        raise UsageError(f"--config: cannot read {path}: {exc}") from exc
    for lineno, raw in enumerate(lines, start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise UsageError(f"--config: {path}:{lineno}: expected key=value")
        key, _, text = line.partition("=")
        key, text = key.strip(), text.strip()
        if key not in _FILE_PARSERS:
            raise UsageError(f"--config: {path}:{lineno}: unknown key {key!r}")
        try:
            parsed = _FILE_PARSERS[key](text)
        except (ValueError, KeyError) as exc:
            raise UsageError(
                f"--config: {path}:{lineno}: bad value for {key}: {text!r}"
            ) from exc
        if key in _CHOICES and parsed not in _CHOICES[key]:
            raise UsageError(
                f"--config: {path}:{lineno}: bad value for {key}: {text!r} "
                f"(choose from {', '.join(_CHOICES[key])})"
            )
        values[key.replace("-", "_")] = parsed
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
    if start is None:
        raise UsageError("--snr-start is required without a preset SNR grid")
    if stop is None:
        stop = start
    for flag, db in (("start", start), ("stop", stop), ("step", step)):
        if not math.isfinite(db):
            raise UsageError(f"--snr-{flag}: must be finite, got {db}")
    if step <= 0:
        raise UsageError(f"--snr-step must be > 0, got {step}")
    if stop < start:
        raise UsageError(f"--snr-stop {stop} is below --snr-start {start}")
    count = int((stop - start) / step + 1e-9) + 1
    return tuple(start + i * step for i in range(count))


def _merged(name, cli_values, file_values, preset):
    for source in (cli_values, file_values):
        if source.get(name) is not None:
            return source[name]
    if preset is not None and name in preset:
        return preset[name]
    return _DEFAULTS.get(name)


def parse_run_spec(argv=None) -> RunSpec:
    """Parse flags (and the optional config file) into a validated RunSpec."""
    args = _build_parser().parse_args(argv)
    cli_values = vars(args)
    file_values = _read_config_file(args.config) if args.config else {}

    preset_name = cli_values.get("preset") or file_values.get("preset")
    preset = PRESETS[preset_name] if preset_name else None

    def value(name):
        return _merged(name, cli_values, file_values, preset)

    floor_mode = preset_name == "fig2"
    if floor_mode:
        for flag in ("k", "n", "mod", "snr_start", "snr_stop", "snr_step"):
            if cli_values.get(flag) is not None or file_values.get(flag) is not None:
                raise UsageError(
                    f"--{flag.replace('_', '-')}: fixed by the fig2 preset"
                )
        if value("unquantized"):
            raise UsageError("--unquantized: error floors require the quantizer")

    users = value("k")
    antennas = value("n")
    modulation = value("mod")
    if floor_mode:
        snr_db_grid = preset["snr_db_grid"]
        per_user = preset["antennas_per_user"]
        geometry = [(k, per_user * k) for k in preset["user_counts"]]
    elif preset is not None and all(
        source.get(f) is None
        for source in (cli_values, file_values)
        for f in ("snr_start", "snr_stop", "snr_step")
    ):
        snr_db_grid = preset["snr_db_grid"]
    else:
        snr_db_grid = _snr_grid(value("snr_start"), value("snr_stop"), value("snr_step"))

    if not floor_mode:
        if users is None or antennas is None or modulation is None:
            raise UsageError(
                "--k, --n and --mod are required when no preset supplies them"
            )
        if users < 1:
            raise UsageError(f"--k: must be >= 1, got {users}")
        if antennas < users:
            raise UsageError(
                f"--n: antennas must be >= users (N >= K), got --k {users} --n {antennas}"
            )
        geometry = [(users, antennas)]

    explicit_receivers = _merged("receivers", cli_values, file_values, None)
    if explicit_receivers is not None:
        kinds = _parse_kinds(explicit_receivers)
    elif preset is not None:
        kinds = preset["kinds"]
    else:
        kinds = _ALL_KINDS

    seed = value("seed")
    if seed < 0 or seed >= 2**64:
        raise UsageError(f"--seed: must be an unsigned 64-bit integer, got {seed}")
    max_trials = value("max_trials")
    if max_trials < 1:
        raise UsageError(f"--max-trials: must be >= 1, got {max_trials}")
    min_bit_errors = value("min_bit_errors")
    if min_bit_errors < 0:
        raise UsageError(f"--min-bit-errors: must be >= 0, got {min_bit_errors}")
    workers = value("workers")
    if workers < 1:
        raise UsageError(f"--workers: must be >= 1, got {workers}")
    out_format = value("format")
    out_path = value("out")
    if out_path is None:
        out_path = f"results.{out_format}"
    elif not out_path.strip():
        raise UsageError("--out: empty output path")

    try:
        plans = tuple(
            TrialPlan(
                config=SystemConfig.from_snr_db(k, n, snr_db_grid[0], modulation),
                kinds=kinds,
                snr_db_grid=snr_db_grid,
                max_trials=max_trials,
                min_bit_errors=min_bit_errors,
                seed=seed,
                quantized=not value("unquantized"),
            )
            for k, n in geometry
        )
    except ValueError as exc:
        # A first grid point whose noise power underflows to zero.
        raise UsageError(f"--snr-start: {exc}") from exc
    return RunSpec(plans=plans, workers=workers, out_format=out_format, out_path=out_path)


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
