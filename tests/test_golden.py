"""The golden-output contract: the files that `run --out --dump-solution`
and `audit --out` write, and the run's epsilon, E_S, E_G and err, have the
bits recorded in tests/golden.json (regenerated by tests/make_golden.py)."""

import json

from make_golden import GOLDEN, golden_outputs


def _first_difference(expected: dict, actual: dict) -> str | None:
    """The first field of a case whose recorded and present values differ,
    with both; None when none does."""
    for part in ("figures", "files"):
        for name in [*expected[part], *(k for k in actual[part] if k not in expected[part])]:
            want, got = expected[part].get(name), actual[part].get(name)
            if want != got:
                return f"{part[:-1]} {name}: recorded {want}, now {got}"
    return None


def test_outputs_equal_the_golden_data(monkeypatch, tmp_path):
    monkeypatch.chdir(tmp_path)
    with open(GOLDEN) as fh:
        golden = json.load(fh)
    actual = golden_outputs()
    assert list(actual["cases"]) == list(golden["cases"]), "tests/make_golden.py names other cases"
    moved = [f"{key} {golden[key]} -> {actual[key]}" for key in ("numpy", "machine")
             if golden[key] != actual[key]]
    setting = (f"; recorded with another setting: {', '.join(moved)}" if moved
               else "; recorded with this numpy and machine")
    for tag, outputs in actual["cases"].items():
        difference = _first_difference(golden["cases"][tag], outputs)
        assert difference is None, f"{tag}: {difference}{setting}"
