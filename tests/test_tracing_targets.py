"""The per-layer trace in perfbench/tracing.py wraps fvbound functions by
their dotted paths; a refactor that moves or renames one would silently drop
its span, so every path must still resolve."""

import importlib.util
import os

import fvbound.cli

_TRACING = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
                        "perfbench", "tracing.py")


def _load_tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", _TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_every_trace_target_resolves():
    tracing = _load_tracing()
    original = fvbound.cli.linf_l1_error
    with tracing.Instrumentation(tracing.Tracer()) as inst:
        assert inst.missing == []
        assert fvbound.cli.linf_l1_error is not original  # wrapped where callers look
    assert fvbound.cli.linf_l1_error is original


def test_the_trace_sees_one_step_span_per_step_with_its_window():
    """Instrumented, a burgers-curved L8 march through cli.march gives one
    solver.step span per step, whose cell counts sum to the cells of the
    windows the steps update: the per-layer solver.steps and
    solver.cell_updates count the stepping core's work."""
    tracing = _load_tracing()
    config = fvbound.cli._resolve(fvbound.cli.CaseConfig(case="burgers-curved", level=8))
    grid = fvbound.cli.build_grid(*fvbound.cli.DOMAIN, 8)
    args = (fvbound.cli._burgers_curved_averages(grid), fvbound.cli.make_model("burgers"), "llf",
            grid, config.cfl, config.t0, config.t_final)
    tracer = tracing.Tracer()
    with tracing.Instrumentation(tracer) as inst:
        assert inst.missing == []
        windows = [window for _, _, window in fvbound.cli.march(*args)]
    spans = tracer.arrays()
    steps = spans["name"] == tracer.names.index("solver.step")
    assert int(steps.sum()) == len(windows) - 1 > 100
    assert int(spans["work"][steps].sum()) == sum(hi - lo for lo, hi in windows[1:])
