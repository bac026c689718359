"""The benchmark's workloads: op inputs built from a seed, one op each through
the public fvbound API, and the result each op is gated on.

Seed 0 runs the paper's data exactly.  Any other seed runs the p-system
workloads as a custom Riemann problem whose densities are perturbed by up to
RHO_PERTURBATION; the velocities stay 0 and rho_L > rho_R, so the solution
stays a 1-rarefaction plus a 2-shock.  The Burgers workload has no Riemann
data and ignores the seed.
"""

from __future__ import annotations

import hashlib
import io
import json
import os
import random
import shutil
from contextlib import redirect_stdout
from dataclasses import dataclass

import fvbound
import fvbound.cli

PSYS_LEFT = (0.15, 0.0)
PSYS_RIGHT = (0.1, 0.0)
PSYS_T = 1.5
RHO_PERTURBATION = 0.02


class GateError(Exception):
    """An op ran but its result breaks a check the benchmark makes."""


@dataclass
class OpResult:
    fingerprint: dict  # values compared with the pinned seed-0 values
    digest: str  # hash of the whole result, compared between repeated ops
    files: dict  # written file name -> sha256
    output_bytes: int


def riemann_states(seed: int):
    """(left, right) p-system states for a seed; None means the paper case."""
    if seed == 0:
        return None
    rng = random.Random(seed)
    rho_l = PSYS_LEFT[0] * (1.0 + rng.uniform(-RHO_PERTURBATION, RHO_PERTURBATION))
    rho_r = PSYS_RIGHT[0] * (1.0 + rng.uniform(-RHO_PERTURBATION, RHO_PERTURBATION))
    return (rho_l, 0.0), (rho_r, 0.0)


def psys_config(seed: int, level: int) -> fvbound.CaseConfig:
    states = riemann_states(seed)
    if states is None:
        return fvbound.CaseConfig(case="psys-raref-shock", level=level)
    left, right = states
    return fvbound.CaseConfig(case="custom", model="psystem", left=left, right=right,
                              t_final=PSYS_T, level=level)


def _digest(blob) -> str:
    return hashlib.sha256(json.dumps(blob, sort_keys=True).encode()).hexdigest()


def _hash_file(path: str) -> str:
    with open(path, "rb") as fh:
        return hashlib.file_digest(fh, "sha256").hexdigest()


class PsysShock:
    """run_case on the rarefaction-shock problem with the exact reference."""

    name = "psys-shock-L11"

    def __init__(self, seed: int, work_dir: str, level: int = 11):
        self.config = psys_config(seed, level)

    def prepare(self) -> None:
        pass

    def op(self):
        return fvbound.cli.run_case(self.config)

    def result(self, raw) -> OpResult:
        sol, estimate, err, _ = raw
        fp = {"runs": [{
            "eps": estimate.epsilon_t,
            "E_S": estimate.e_surge,
            "E_G": estimate.e_smooth,
            "err": err,
            "surges": estimate.surge_count,
            "steps": sol.n_steps,
        }]}
        return OpResult(fp, _digest([fp, estimate.to_json_dict()]), {}, 0)


class BurgersConverge:
    """converge on the curved-shock Burgers problem with a fine-grid reference."""

    name = "burgers-converge"

    def __init__(self, seed: int, work_dir: str, levels=(8, 10), ref_level: int = 12):
        self.config = fvbound.CaseConfig(case="burgers-curved", level=levels[0],
                                         ref=f"fine:{ref_level}")
        self.levels = levels

    def prepare(self) -> None:
        pass

    def op(self):
        return fvbound.cli.converge(self.config, *self.levels)

    def result(self, table) -> OpResult:
        # The table is converge's whole result; it carries no surge or step counts.
        runs = [
            {"level": level, "eps": eps, "E_S": es, "E_G": eg, "err": err}
            for level, eps, es, eg, err in zip(table.levels, table.eps, table.e_surge,
                                               table.e_smooth, table.error)
        ]
        fp = {"runs": runs}
        return OpResult(fp, _digest(fp), {}, 0)


class PsysAudit:
    """CLI run with every output file and a solution dump, then an audit of
    the dump.  Paths are relative so the written files do not depend on
    where the checkout lives."""

    name = "psys-audit-L9"

    def __init__(self, seed: int, work_dir: str, level: int = 9):
        config = psys_config(seed, level)
        self.run_dir = os.path.join(work_dir, "run")
        self.audit_dir = os.path.join(work_dir, "audit")
        argv = ["run", "--case", config.case, "--level", str(level),
                "--out", self.run_dir, "--dump-solution"]
        if config.case == "custom":
            argv += ["--model", "psystem", "--T", repr(PSYS_T),
                     "--left", ",".join(map(repr, config.left)),
                     "--right", ",".join(map(repr, config.right))]
        self.run_argv = argv
        tag = f"{config.case}_L{level}"
        self.report = os.path.join(self.run_dir, f"{tag}_report.json")
        self.dump = os.path.join(self.run_dir, f"{tag}_solution.csv")
        self.audit_report = os.path.join(self.audit_dir, f"{tag}_solution_audit.json")
        self.audit_argv = ["audit", "--solution", self.dump, "--out", self.audit_dir]

    def prepare(self) -> None:
        for path in (self.run_dir, self.audit_dir):
            shutil.rmtree(path, ignore_errors=True)

    def op(self):
        out = io.StringIO()
        with redirect_stdout(out):
            codes = (fvbound.cli.main(self.run_argv), fvbound.cli.main(self.audit_argv))
        return codes

    def result(self, codes) -> OpResult:
        if codes != (0, 0):
            raise GateError(f"fvbound run/audit exited with {codes}")
        with open(self.report) as fh:
            report = json.load(fh)
        with open(self.audit_report) as fh:
            audit = json.load(fh)
        estimate = report["estimate"]
        if audit["estimate"] != estimate:
            raise GateError("audit re-estimate differs from the run estimate")
        fp = {"runs": [{
            "eps": estimate["epsilon"],
            "E_S": estimate["e_surge"],
            "E_G": estimate["e_smooth"],
            "err": report["linf_l1_error"],
            "surges": estimate["surge_count"],
            "steps": estimate["residual"]["levels"] - 1,
        }]}
        files = {}
        size = 0
        for directory in (self.run_dir, self.audit_dir):
            for name in sorted(os.listdir(directory)):
                path = os.path.join(directory, name)
                files[name] = _hash_file(path)
                size += os.path.getsize(path)
        return OpResult(fp, _digest([fp, files]), files, size)


WORKLOADS = {w.name: w for w in (PsysShock, BurgersConverge, PsysAudit)}


def make(name: str, seed: int, work_dir: str, **sizes):
    """Build the op inputs of one workload; sizes override the levels (tests)."""
    return WORKLOADS[name](seed, work_dir, **sizes)
