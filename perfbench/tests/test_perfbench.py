"""Tests of the benchmark's own code: span arithmetic, wrappers, the result
gate, and one tiny op per workload.

Run from the root of a checkout:  python3 -m pytest -q perfbench/tests
"""

import math
import os
import sys
import time
import types

import numpy as np
import pytest

BENCH_DIR = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path[:0] = [BENCH_DIR, os.path.join(os.path.dirname(BENCH_DIR), "src")]

import fvbound  # noqa: E402
import fvbound.cli  # noqa: E402
import gate  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "psys-shock-L11": {"level": 4},
    "burgers-converge": {"levels": (3, 4), "ref_level": 6},
    "psys-audit-L9": {"level": 4},
}


def _filled_tracer(spans):
    """Tracer holding (name, start, end, parent, op) spans, in start order."""
    tracer = tracing.Tracer()
    for name, start, end, parent, op in spans:
        tracer.name.append(tracer.name_id(name))
        tracer.start.append(start)
        tracer.end.append(end)
        tracer.parent.append(parent)
        tracer.op.append(op)
        tracer.work.append(0)
    return tracer


def test_self_time_of_nested_spans():
    # root [0, 10] > a [1, 4], b [5, 9] > c [6, 7]
    start = np.array([0.0, 1.0, 5.0, 6.0])
    end = np.array([10.0, 4.0, 9.0, 7.0])
    parent = np.array([-1, 0, 0, 2])
    assert tracing.self_times(start, end, parent).tolist() == [3.0, 3.0, 3.0, 1.0]


def test_layer_self_times_sum_to_the_traced_wall():
    tracer = _filled_tracer([
        ("cli.run_case", 0.0, 10.0, -1, 1),
        ("solver.run", 1.0, 4.0, 0, 1),
        ("solver.step", 2.0, 3.0, 1, 1),
        ("residual.epsilon", 5.0, 9.0, 0, 1),
        ("models.flux", 6.0, 7.0, 3, 1),
    ])
    m = tracing.layer_metrics(tracer, {1: 10.5}, [10.0], [], {1: 0})
    assert m["cli.self_s"]["value"] == 3.0
    assert m["solver.self_s"]["value"] == 3.0
    assert m["residual.self_s"]["value"] == 3.0
    assert m["residual.epsilon_self_s"]["value"] == 3.0
    assert m["models.self_s"]["value"] == 1.0
    assert sum(m[f"{layer}.self_s"]["value"] for layer in tracing.LAYERS) == 10.0
    assert m["trace.unattributed_share"]["value"] == pytest.approx(0.5 / 10.5)
    assert m["trace.overhead_s"]["value"] == pytest.approx(0.5)


@pytest.fixture
def fake_module(monkeypatch):
    mod = types.ModuleType("perfbench_fake")

    def double(x):
        return 2 * x

    def fail():
        raise KeyError("boom")

    def count_up(n):
        yield from range(n)

    class Model:
        def flux(self, u):
            return u + 1

    def outer(x):
        return mod.double(x) + 1

    mod.double, mod.fail, mod.count_up, mod.Model, mod.outer = double, fail, count_up, Model, outer
    monkeypatch.setitem(sys.modules, "perfbench_fake", mod)
    return mod


def test_wrappers_pass_results_and_errors_through_and_restore(fake_module):
    originals = (fake_module.double, fake_module.fail, fake_module.count_up,
                 fake_module.Model.flux, fake_module.outer)
    targets = [
        ("perfbench_fake.double", "solver.double", None),
        ("perfbench_fake.fail", "solver.fail", None),
        ("perfbench_fake.count_up", "solver.count_up", None),
        ("perfbench_fake.Model.flux", "models.flux", lambda args, result: 7),
        ("perfbench_fake.outer", "cli.outer", None),
        ("perfbench_fake.gone", "cli.gone", None),
        ("perfbench_fake.Model.gone", "models.gone", None),
    ]
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer, targets, {"perfbench_fake.count_up"}) as inst:
        assert fake_module.outer(3) == 7
        with pytest.raises(KeyError, match="boom"):
            fake_module.fail()
        assert list(fake_module.count_up(2)) == [0, 1]
        assert fake_module.Model().flux(1) == 2
        assert fake_module.double.__name__ == "double"
    assert inst.missing == ["perfbench_fake.gone", "perfbench_fake.Model.gone"]
    assert (fake_module.double, fake_module.fail, fake_module.count_up,
            fake_module.Model.flux, fake_module.outer) == originals

    names = [tracer.names[i] for i in tracer.name]
    # outer > double; fail; three resumes of count_up (the last one stops it); flux
    assert names == ["cli.outer", "solver.double", "solver.fail",
                     "solver.count_up", "solver.count_up", "solver.count_up", "models.flux"]
    assert tracer.parent == [-1, 0, -1, -1, -1, -1, -1]
    assert tracer.work[-1] == 7
    assert all(e >= s for s, e in zip(tracer.start, tracer.end))
    assert tracer._stack == [-1]


def test_gate_passes_one_ulp_and_fails_a_relative_change_of_1e6():
    pinned = {"runs": [{"eps": 0.00862140816115542, "surges": 8, "err": None}]}
    ulp = {"runs": [{"eps": math.nextafter(0.00862140816115542, 1.0), "surges": 8, "err": None}]}
    moved = {"runs": [{"eps": 0.00862140816115542 * (1 + 1e-6), "surges": 8, "err": None}]}
    assert gate.mismatches(pinned, ulp) == []
    assert gate.mismatches(pinned, moved) != []
    assert gate.mismatches(pinned, {"runs": [{"eps": 0.00862140816115542, "surges": 9,
                                              "err": None}]}) != []
    assert gate.mismatches(pinned, {"runs": []}) != []


def test_pinned_file_covers_every_workload():
    pinned = gate.load_pinned()
    assert tuple(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert sorted(pinned) == sorted(workloads.WORKLOADS)
    for entry in pinned.values():
        assert entry["fingerprint"]["runs"]


def test_seed_zero_is_the_paper_case_and_other_seeds_perturb_rho():
    assert workloads.riemann_states(0) is None
    for seed in range(1, 20):
        (rho_l, v_l), (rho_r, v_r) = workloads.riemann_states(seed)
        assert v_l == v_r == 0.0
        assert rho_l > rho_r
        assert abs(rho_l / 0.15 - 1.0) <= workloads.RHO_PERTURBATION
        assert abs(rho_r / 0.1 - 1.0) <= workloads.RHO_PERTURBATION
    assert workloads.riemann_states(7) == workloads.riemann_states(7)


def test_custom_case_with_the_paper_states_reproduces_the_paper_case():
    paper = fvbound.cli.run_case(workloads.psys_config(0, 5))
    custom = fvbound.cli.run_case(fvbound.CaseConfig(
        case="custom", model="psystem", left=workloads.PSYS_LEFT,
        right=workloads.PSYS_RIGHT, t_final=workloads.PSYS_T, level=5))
    assert np.array_equal(paper[0].states, custom[0].states)
    assert paper[1].to_json_dict() == custom[1].to_json_dict()
    assert paper[2] == custom[2]


@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
@pytest.mark.parametrize("seed", [0, 3])
def test_tiny_op_of_each_workload_passes_the_gate(name, seed, tmp_path):
    wl = workloads.make(name, seed, str(tmp_path), **TINY[name])
    wl.prepare()
    pinned_like = wl.result(wl.op())
    pinned = {"fingerprint": pinned_like.fingerprint, "files": pinned_like.files}
    m = run.measure(wl, pinned, 0.0)
    assert (m.attempted, m.failed, m.files_identical) == (1, 0, True)


def test_a_perturbed_result_counts_as_failed(tmp_path):
    wl = workloads.make("psys-shock-L11", 0, str(tmp_path), **TINY["psys-shock-L11"])
    wl.prepare()
    result = wl.result(wl.op())
    fingerprint = {"runs": [dict(result.fingerprint["runs"][0])]}
    fingerprint["runs"][0]["E_G"] *= 1 + 1e-6
    m = run.measure(wl, {"fingerprint": fingerprint, "files": {}}, 0.0)
    assert (m.attempted, m.failed) == (1, 1)


def test_an_audit_that_disagrees_with_the_run_counts_as_failed(tmp_path):
    wl = workloads.make("psys-audit-L9", 0, str(tmp_path), **TINY["psys-audit-L9"])
    audit_argv = wl.audit_argv
    wl.audit_argv = audit_argv + ["--sigma", "0.15"]  # the run used sigma 0.1
    m = run.measure(wl, None, 0.0)
    assert (m.attempted, m.failed) == (1, 1)
    wl.audit_argv = audit_argv
    assert run.measure(wl, None, 0.0).failed == 0


def test_traced_tiny_op_attributes_its_time_and_restores_fvbound(tmp_path):
    original = fvbound.cli.run_case
    wl = workloads.make("psys-audit-L9", 0, str(tmp_path), **TINY["psys-audit-L9"])
    tracer = tracing.Tracer()
    m = run.measure(wl, None, 0.0, tracer)
    assert (m.attempted, m.failed, m.missing) == (2, 0, [])
    assert fvbound.cli.run_case is original
    metrics = tracing.layer_metrics(tracer, m.traced, m.untraced, m.missing, m.output_bytes)
    assert metrics["trace.unattributed_share"]["value"] < 0.1
    assert metrics["solver.steps"]["value"] > 0
    assert metrics["residual.write_cells_csv_s"]["value"] > 0
    assert metrics["cli.output_mb"]["value"] > 0


class _Drifting:
    """A workload whose result changes from one op to the next."""

    def __init__(self):
        self.calls = 0

    def prepare(self):
        pass

    def op(self):
        time.sleep(0.3)
        self.calls += 1
        return self.calls

    def result(self, calls):
        return workloads.OpResult({"runs": []}, str(calls), {}, 0)


def test_a_repeated_op_that_is_not_bit_identical_counts_as_failed():
    m = run.measure(_Drifting(), None, 1.0)
    assert m.attempted >= 2
    assert m.failed == m.attempted - 1
