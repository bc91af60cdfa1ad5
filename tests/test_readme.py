"""The README's library example runs against the package as it is."""

import dataclasses
import re
from pathlib import Path

import pytest

import onebit_mimo

README = Path(__file__).resolve().parents[1] / "README.md"


def library_example() -> str:
    """The ``python`` block under the README's "## Library use" heading."""
    text = README.read_text()
    section = text[text.index("\n## Library use\n"):]
    match = re.search(r"```python\n(.*?)```", section, re.DOTALL)
    assert match, "no python block under ## Library use"
    return match.group(1)


@pytest.fixture
def small_sweeps(monkeypatch):
    """``onebit_mimo.ber_sweep`` running the plans it is given at
    ``max_trials=10`` on one worker; the returned list collects those plans."""
    plans = []
    sweep = onebit_mimo.ber_sweep

    def small(given, workers=1):
        shrunk = [dataclasses.replace(plan, max_trials=10) for plan in given]
        plans.extend(shrunk)
        return sweep(shrunk, workers=1)

    monkeypatch.setattr(onebit_mimo, "ber_sweep", small)
    return plans


def test_library_example_prints_every_point_and_kind(small_sweeps, capsys):
    exec(library_example(), {})
    [plan] = small_sweeps
    printed = [line.split() for line in capsys.readouterr().out.splitlines()]
    assert [(float(snr_db), kind) for snr_db, kind, _ in printed] == [
        (snr_db, kind.value) for snr_db in plan.snr_db_grid for kind in plan.kinds
    ]


def test_a_noise_power_in_the_config_fails(small_sweeps):
    # Negative control: the example as written when SystemConfig still held
    # a noise power no longer runs.
    example = library_example()
    current = 'SystemConfig(users=2, antennas=16, modulation="qpsk")'
    assert current in example
    stale = example.replace(
        current,
        'SystemConfig.from_snr_db(users=2, antennas=16, snr_db=30, modulation="qpsk")',
    )
    with pytest.raises(AttributeError, match="from_snr_db"):
        exec(stale, {})
    assert small_sweeps == []
