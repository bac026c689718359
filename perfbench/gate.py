"""Result gate: compare an op's fingerprint with the pinned seed-0 values.

Floats match within RTOL, so last-ulp drift passes and a real change fails;
integers, strings and None must match exactly.
"""

from __future__ import annotations

import json
import os

RTOL = 1e-9
PINNED_PATH = os.path.join(os.path.dirname(os.path.abspath(__file__)), "pinned.json")


def load_pinned(path: str = PINNED_PATH) -> dict:
    with open(path) as fh:
        return json.load(fh)


def mismatches(expected, got, where: str = "", rtol: float = RTOL) -> list[str]:
    """Human-readable differences between two fingerprints; empty if they match."""
    if isinstance(expected, float) and isinstance(got, float):
        if abs(expected - got) <= rtol * max(abs(expected), abs(got)):
            return []
        return [f"{where}: {got!r} != pinned {expected!r}"]
    if isinstance(expected, dict) and isinstance(got, dict):
        if expected.keys() != got.keys():
            return [f"{where}: keys {sorted(got)} != pinned {sorted(expected)}"]
        out = []
        for key in expected:
            out += mismatches(expected[key], got[key], f"{where}.{key}", rtol)
        return out
    if isinstance(expected, list) and isinstance(got, list):
        if len(expected) != len(got):
            return [f"{where}: {len(got)} entries != pinned {len(expected)}"]
        out = []
        for k, (e, g) in enumerate(zip(expected, got)):
            out += mismatches(e, g, f"{where}[{k}]", rtol)
        return out
    if type(expected) is type(got) and expected == got:
        return []
    return [f"{where}: {got!r} != pinned {expected!r}"]
