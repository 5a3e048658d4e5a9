"""``scripts/bitdump.py --against``: the gate a value-moving PR has to pass."""
from __future__ import annotations

import copy
import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bitdump", Path(__file__).parent.parent / "scripts" / "bitdump.py"
)
bitdump = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(bitdump)


def _hex(*values: float) -> list[str]:
    return [float(v).hex() for v in values]


PARENT = {
    "facade": {
        "model": "m", "job": "j-old",
        "density": _hex(0.05, -1.3e-9), "cdf": _hex(0.4, 0.9997),
        "quantiles": {"0.9": float(31.0).hex()},
        "transform": {"(1+2j)": _hex(0.25, -0.5)},
        "statistics": {"s_points_computed": 66, "evaluator_engine": "batch"},
        "solve_blocks": [[66, 2400, 0, 0]],
    },
    "kernel/row": {
        "values": _hex(0.25, -0.5, 0.125, 0.0),
        "points": [[40, True, float(3e-9).hex(), "iterative", 0, 41, "batch"]],
    },
    "kernel/column": {"values": ["ab" * 32], "points": []},
}


def _against(capsys, change) -> tuple[int, str]:
    faults = bitdump.against(change, PARENT)
    return faults, capsys.readouterr().out


def test_identical_digest_only_and_moved_within_the_bound(capsys):
    change = copy.deepcopy(PARENT)
    change["facade"]["job"] = "j-new"
    faults, out = _against(capsys, change)
    assert faults == 0
    assert "digest-only   facade  [job digest]" in out
    assert "2 identical  1 digest-only  0 values-moved" in out

    change["facade"]["transform"]["(1+2j)"] = _hex(0.25 * (1 + 4e-12), -0.5)
    # noise-level tail density: sized against the scenario's largest inverted entry
    change["facade"]["density"] = _hex(0.05, -1.3e-9 * (1 + 2e-6))
    change["kernel/row"]["points"][0][2] = float(3e-9 * (1 + 1e-13)).hex()
    faults, out = _against(capsys, change)
    assert faults == 0
    assert "values-moved  facade  [job digest]  density 2.6" in out and "e-15" in out
    assert "1 identical  0 digest-only  2 values-moved" in out


@pytest.mark.parametrize("mutate, message", [
    (lambda d: d["kernel/row"]["points"][0].__setitem__(0, 41), "40 -> 41"),
    (lambda d: d["kernel/row"]["points"][0].__setitem__(3, "direct"), "'iterative' -> 'direct'"),
    (lambda d: d["facade"]["solve_blocks"][0].__setitem__(2, 1), "0 -> 1"),
    (lambda d: d["facade"]["statistics"].__setitem__("s_points_computed", 67), "66 -> 67"),
    (lambda d: d["facade"]["quantiles"].__setitem__("0.9", float(31.0 * (1 + 3e-9)).hex()),
     "quantiles moved 3.00e-09 > 1e-09"),
    (lambda d: d["facade"].__setitem__("cdf", _hex(0.4, 0.9997 + 2e-9)), "cdf moved"),
    (lambda d: d["kernel/column"].__setitem__("values", ["cd" * 32]), "'abab"),
    (lambda d: d["kernel/row"].__setitem__("values", _hex(0.25, -0.5)), "values:"),
    (lambda d: d.pop("kernel/column"), "only in the parent's dump"),
    (lambda d: d.__setitem__("extra", {}), "not in the parent's dump"),
])
def test_what_must_not_move_is_a_fault(capsys, mutate, message):
    change = copy.deepcopy(PARENT)
    mutate(change)
    faults, out = _against(capsys, change)
    assert faults == 1
    assert message in [line for line in out.splitlines() if line.startswith("FAULT")][0]
