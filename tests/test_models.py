import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from fvbound import (
    DomainError,
    UnsupportedFluxError,
    make_model,
    numerical_entropy_flux,
    numerical_flux,
)


@pytest.fixture
def burgers():
    return make_model("burgers")


@pytest.fixture
def psystem():
    return make_model("psystem", C=1.0, gamma=1.4)


def test_burgers_flux(burgers):
    assert burgers.flux(np.array([2.0])) == pytest.approx([2.0])


def test_psystem_flux_values(psystem):
    assert psystem.flux(np.array([1.0, 2.0])) == pytest.approx([2.0, 5.0])
    assert psystem.flux(np.array([1.0, 0.0])) == pytest.approx([0.0, 1.0])


def test_psystem_rejects_nonpositive_density(psystem):
    with pytest.raises(DomainError):
        psystem.flux(np.array([-0.5, 0.0]))
    with pytest.raises(DomainError):
        psystem.wave_speeds(np.array([0.0, 1.0]))


def test_wave_speeds(burgers, psystem):
    assert burgers.wave_speeds(np.array([-7.0])) == pytest.approx([-7.0])
    c = math.sqrt(1.4)
    assert psystem.wave_speeds(np.array([1.0, 0.0])) == pytest.approx([-c, c])
    assert psystem.wave_speeds(np.array([1.0, 2.0])) == pytest.approx([2.0 - c, 2.0 + c])


def test_entropy_pairs(burgers, psystem):
    u = np.array([2.0])
    assert burgers.entropy(u) == pytest.approx(2.0)
    assert burgers.entropy_flux(u) == pytest.approx(8.0 / 3.0)
    assert burgers.entropy(np.array([0.0])) == pytest.approx(0.0)
    assert burgers.entropy_flux(np.array([0.0])) == pytest.approx(0.0)
    w = np.array([1.0, 0.0])
    assert psystem.entropy(w) == pytest.approx(2.5)
    assert psystem.entropy_flux(w) == pytest.approx(0.0)


def _finite_difference_gradient(f, u, h):
    grad = np.empty(u.size)
    for i in range(u.size):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        grad[i] = (f(up) - f(um)) / (2.0 * h)
    return grad


def _finite_difference_jacobian(f, u, h):
    rows = []
    for i in range(u.size):
        up, um = u.copy(), u.copy()
        up[i] += h
        um[i] -= h
        rows.append((f(up) - f(um)) / (2.0 * h))
    return np.array(rows).T


@pytest.mark.parametrize("name", ["burgers", "psystem"])
def test_entropy_compatibility_by_finite_differences(name):
    # De . Df = Dq, checked at 1000 random admissible states
    model = make_model(name)
    rng = np.random.default_rng(42)
    for _ in range(1000):
        if name == "burgers":
            u = rng.uniform(-3.0, 3.0, 1)
        else:
            u = np.array([rng.uniform(0.2, 3.0), rng.uniform(-3.0, 3.0)])
        h = 1e-5 * (1.0 + np.abs(u).max())
        de = _finite_difference_gradient(lambda v: float(model.entropy(v)), u, h)
        dq = _finite_difference_gradient(lambda v: float(model.entropy_flux(v)), u, h)
        df = _finite_difference_jacobian(lambda v: model.flux(v), u, h)
        lhs = de @ df
        scale = np.maximum(np.abs(dq), 1.0)
        assert np.all(np.abs(lhs - dq) / scale <= 1e-6)


def test_strict_hyperbolicity(psystem):
    rng = np.random.default_rng(3)
    rho = rng.uniform(1e-3, 10.0, 200)
    u = np.column_stack([rho, rng.uniform(-5.0, 5.0, 200)])
    speeds = psystem.wave_speeds(u)
    assert np.all(speeds[:, 1] - speeds[:, 0] > 0.0)
    assert np.allclose(speeds[:, 1] - speeds[:, 0], 2.0 * psystem.sound_speed(rho))


@pytest.mark.parametrize("kind", ["llf", "godunov_burgers", "engquist_osher_burgers"])
def test_numerical_flux_consistency(kind, burgers):
    rng = np.random.default_rng(11)
    u = rng.uniform(-4.0, 4.0, (50, 1))
    fluxes = numerical_flux(kind, burgers, u, u)
    assert np.all(np.abs(fluxes - burgers.flux(u)) <= 1e-12)


def test_llf_consistency_psystem(psystem):
    rng = np.random.default_rng(12)
    u = np.column_stack([rng.uniform(0.2, 2.0, 50), rng.uniform(-2.0, 2.0, 50)])
    fluxes = numerical_flux("llf", psystem, u, u)
    assert np.all(np.abs(fluxes - psystem.flux(u)) <= 1e-12)


def test_llf_burgers_example(burgers):
    val = numerical_flux("llf", burgers, np.array([1.0]), np.array([-1.0]))
    assert val == pytest.approx([1.5])


def test_godunov_burgers_examples(burgers):
    assert numerical_flux("godunov", burgers, np.array([1.0]), np.array([0.0])) == pytest.approx([0.5])
    assert numerical_flux("godunov", burgers, np.array([0.0]), np.array([-1.0])) == pytest.approx([0.5])
    # transonic rarefaction passes through the sonic point
    assert numerical_flux("godunov", burgers, np.array([-1.0]), np.array([1.0])) == pytest.approx([0.0])


def test_scalar_fluxes_rejected_for_systems(psystem):
    u = np.array([1.0, 0.0])
    for kind in ("godunov", "eo"):
        with pytest.raises(UnsupportedFluxError):
            numerical_flux(kind, psystem, u, u)
    with pytest.raises(ValueError):
        numerical_flux("roe", psystem, u, u)


def test_numerical_entropy_flux(burgers, psystem):
    # consistency
    rng = np.random.default_rng(13)
    u = rng.uniform(-3.0, 3.0, (40, 1))
    assert np.all(np.abs(numerical_entropy_flux(burgers, u, u) - burgers.entropy_flux(u)) <= 1e-12)
    w = np.column_stack([rng.uniform(0.2, 2.0, 40), rng.uniform(-2.0, 2.0, 40)])
    assert np.all(np.abs(numerical_entropy_flux(psystem, w, w) - psystem.entropy_flux(w)) <= 1e-12)
    # hand-evaluated Burgers pairs
    assert numerical_entropy_flux(burgers, np.array([1.0]), np.array([0.0])) == pytest.approx(5.0 / 12.0)
    assert numerical_entropy_flux(burgers, np.array([0.0]), np.array([-1.0])) == pytest.approx(-5.0 / 12.0)


def test_flux_kind_aliases():
    from fvbound.models import normalize_flux_kind

    assert normalize_flux_kind("GODUNOV") == "godunov_burgers"
    assert normalize_flux_kind("godunov_burgers") == "godunov_burgers"
    assert normalize_flux_kind("eo") == "engquist_osher_burgers"
    assert normalize_flux_kind("LLF") == "llf"


def test_model_factory_validation():
    with pytest.raises(ValueError):
        make_model("euler")
    with pytest.raises(ValueError):
        make_model("psystem", C=-1.0)
    with pytest.raises(ValueError):
        make_model("psystem", gamma=1.0)


# ghost-padded levels: at least one interior cell between the two ghosts
_burgers_levels = st.lists(st.floats(-1e3, 1e3), min_size=3, max_size=40)
_psystem_levels = st.lists(st.tuples(st.floats(1e-3, 1e3), st.floats(-1e3, 1e3)),
                           min_size=3, max_size=40)
_psystem_params = st.tuples(st.floats(0.1, 10.0), st.floats(1.05, 3.0))


def _assert_level_terms_match(model, u):
    f, eta, q, speed, low, high = model.level_terms(u)
    speeds = model.wave_speeds(u)
    for got, want in ((f, model.flux(u)), (eta, model.entropy(u)),
                      (q, model.entropy_flux(u)), (speed, model.max_wave_speed(u)),
                      (low, speeds.min(axis=-1)), (high, speeds.max(axis=-1))):
        assert got.shape == want.shape
        assert np.array_equal(got, want)


@settings(max_examples=60, deadline=None)
@given(values=_burgers_levels)
def test_burgers_level_terms_equal_the_separate_methods(values):
    _assert_level_terms_match(make_model("burgers"), np.array(values)[:, None])


@settings(max_examples=60, deadline=None)
@given(states=_psystem_levels, params=_psystem_params)
def test_psystem_level_terms_equal_the_separate_methods(states, params):
    _assert_level_terms_match(make_model("psystem", C=params[0], gamma=params[1]),
                              np.array(states))


@settings(max_examples=40, deadline=None)
@given(states=_psystem_levels, data=st.data())
def test_level_terms_refuse_states_outside_the_domain(states, data):
    psystem = make_model("psystem", C=1.0, gamma=1.4)
    u = np.array(states)
    j = data.draw(st.integers(0, len(u) - 1))
    u[j, data.draw(st.sampled_from([0, 1]))] = np.nan
    with pytest.raises(DomainError):
        psystem.level_terms(u)
    u = np.array(states)
    u[j, 0] = data.draw(st.floats(-1e3, 0.0))
    with pytest.raises(DomainError):
        psystem.level_terms(u)
    burgers_u = np.array(states)[:, :1]
    burgers_u[j, 0] = data.draw(st.sampled_from([np.nan, np.inf, -np.inf]))
    with pytest.raises(DomainError):
        make_model("burgers").level_terms(burgers_u)


# Scalar states kept away from underflow, where 0.5*u*u and 0.5*(u*u) may round apart.
_burgers_states = st.lists(st.floats(-1e3, 1e3).filter(lambda v: v == 0.0 or abs(v) > 1e-100),
                           min_size=1, max_size=40)


@settings(max_examples=60, deadline=None)
@given(values=_burgers_states,
       kind=st.sampled_from(["llf", "godunov_burgers", "engquist_osher_burgers"]))
def test_burgers_numerical_fluxes_are_consistent(values, kind):
    """F(u, u) = f(u) exactly for every Burgers flux."""
    burgers = make_model("burgers")
    u = np.array(values)[:, None]
    assert np.array_equal(numerical_flux(kind, burgers, u, u), burgers.flux(u))


@settings(max_examples=60, deadline=None)
@given(states=_psystem_levels, params=_psystem_params)
def test_psystem_llf_flux_is_consistent(states, params):
    """F(u, u) = f(u) exactly for the p-system LLF flux at random C and gamma."""
    psystem = make_model("psystem", C=params[0], gamma=params[1])
    u = np.array(states)
    assert np.array_equal(numerical_flux("llf", psystem, u, u), psystem.flux(u))
