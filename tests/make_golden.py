"""Regenerate tests/golden.json, the golden-output contract that
tests/test_golden.py checks: the sha256 of every file that `fvbound run
--out --dump-solution` and then `fvbound audit --out` write, and float.hex
of the run's epsilon, E_S, E_G and err, for each case of CASES, with the
numpy version and machine they were made on.

Run from the root of a checkout:

    PYTHONPATH=src python tests/make_golden.py

Regenerating changes a check: log the fields that moved, and why, in
CHANGES.md.  Tier-1 does not collect this file."""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import platform
import tempfile

import numpy as np

from fvbound.cli import main

GOLDEN = os.path.join(os.path.dirname(os.path.abspath(__file__)), "golden.json")

# (case, level, extra run flags); the directories are relative to the working
# directory, so the audit report's "solution" path does not depend on it.
CASES = (
    ("psys-raref-shock", 6, ()),
    ("burgers-curved", 6, ("--ref", "none")),
)

# Report JSON key of each figure.
FIGURES = {"epsilon": "epsilon", "E_S": "e_surge", "E_G": "e_smooth"}


def _sha256(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def _hex(value) -> str | None:
    return None if value is None else float(value).hex()


def case_outputs(case: str, level: int, flags=()) -> dict:
    """Run case at level and audit its dump under the working directory:
    {"figures": float.hex of epsilon, E_S, E_G and err (None when there is
    no reference), "files": sha256 of every written file by its path}."""
    tag = f"{case}_L{level}"
    run_dir, audit_dir = os.path.join(tag, "run"), os.path.join(tag, "audit")
    dump = os.path.join(run_dir, f"{tag}_solution.csv")
    with contextlib.redirect_stdout(io.StringIO()):
        codes = (main(["run", "--case", case, "--level", str(level), *flags,
                       "--out", run_dir, "--dump-solution"]),
                 main(["audit", "--solution", dump, "--out", audit_dir]))
    if codes != (0, 0):
        raise RuntimeError(f"{tag}: run and audit exited with {codes}")
    with open(os.path.join(run_dir, f"{tag}_report.json")) as fh:
        report = json.load(fh)
    figures = {name: _hex(report["estimate"][key]) for name, key in FIGURES.items()}
    figures["err"] = _hex(report["linf_l1_error"])
    files = {os.path.join(directory, name).replace(os.sep, "/"):
             _sha256(os.path.join(directory, name))
             for directory in (run_dir, audit_dir) for name in sorted(os.listdir(directory))}
    return {"figures": figures, "files": files}


def golden_outputs() -> dict:
    """The golden data of every case, run under the working directory."""
    return {"numpy": np.__version__, "machine": platform.machine(),
            "cases": {f"{case}_L{level}": case_outputs(case, level, flags)
                      for case, level, flags in CASES}}


def write_golden() -> None:
    with tempfile.TemporaryDirectory() as tmp:
        here = os.getcwd()
        os.chdir(tmp)
        try:
            data = golden_outputs()
        finally:
            os.chdir(here)
    with open(GOLDEN, "w") as fh:
        json.dump(data, fh, indent=2)
        fh.write("\n")
    print(f"wrote {GOLDEN}")


if __name__ == "__main__":
    write_golden()
