import itertools
import math

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import integrate, optimize

from spinreset import finite_size, renewal
from spinreset.observables import (
    connected_correlation,
    connected_correlation_closed_form,
    connected_correlations,
)
from spinreset.renewal import (
    DriveParams,
    ProtocolKind,
    ResetWeights,
    WaitingTime,
    exp_weighted_average,
    renewal_state_at_time,
    reset_rates_R,
    stationary_density_closed_form,
    stationary_state_p1,
    stationary_state_p2,
    stationary_states,
    survival_probability,
    waiting_time_from_uniform,
)
from spinreset.spin_dynamics import evolve_qubit, free_two_spin_state, require_qubit_state

from reference_sim import (_fourier_weight, average_poly, flip_probability, flip_probability_poly,
                           sample_waiting_time)

POISSON = WaitingTime.poisson(0.5)
CHOPPED = WaitingTime.chopped(0.5, 8.0)


def test_waiting_time_validation():
    with pytest.raises(ValueError):
        WaitingTime.poisson(0.0)
    with pytest.raises(ValueError):
        WaitingTime.poisson(-1.0)
    with pytest.raises(ValueError):
        WaitingTime.chopped(0.5, 0.0)


@pytest.mark.parametrize("dist", [POISSON, CHOPPED], ids=["poisson", "chopped"])
def test_density_normalization_and_survival(dist):
    hi = dist.t_max if dist.t_max else 80.0
    mass = 1.0 - math.exp(-dist.gamma * dist.t_max) if dist.t_max else 1.0

    def density(t):
        return dist.gamma * math.exp(-dist.gamma * t) / mass

    total, _ = integrate.quad(density, 0.0, hi, limit=200)
    assert total == pytest.approx(1.0, abs=1e-10)
    for t in (0.0, 0.3, 2.7, 7.9):
        tail, _ = integrate.quad(density, t, hi, limit=200)
        assert survival_probability(dist, t) == pytest.approx(tail, abs=1e-10)
    if dist.t_max:
        assert survival_probability(dist, dist.t_max) == 0.0
        assert survival_probability(dist, dist.t_max + 0.1) == 0.0


@pytest.mark.parametrize("dist", [POISSON, CHOPPED], ids=["poisson", "chopped"])
def test_inverse_cdf_inverts_the_cdf(dist):
    us = np.linspace(0.0, 0.999, 57)
    ts = waiting_time_from_uniform(dist, us)
    cdf = 1.0 - survival_probability(dist, ts)
    np.testing.assert_allclose(cdf, us, atol=1e-12)
    if dist.t_max:
        assert np.all(ts < dist.t_max)


@pytest.mark.parametrize("gamma", [0.5, 1.7])
@pytest.mark.parametrize("gtm", [1e-8, 1e-6, 1e-4, 0.3, 2.0])
def test_chopped_law_is_exact_to_rounding_at_small_gamma_t_max(gtm, gamma):
    # 1 - exp(-g t_max) and exp(-g t) - exp(-g t_max) cancel at small
    # gamma t_max: both go through expm1 at every gamma t_max, so every
    # value stays within a few rounding errors
    dist = WaitingTime.chopped(gamma, gtm / gamma)
    worst = 0.0
    with mpmath.workdps(50):
        g, t_max = mpmath.mpf(gamma), mpmath.mpf(dist.t_max)
        mass = -mpmath.expm1(-g * t_max)
        for frac in (0.0, 1.0 / 3.0, 0.5, 0.9, 1.0 - 1e-6):
            t = dist.t_max * frac
            ref_q = (mpmath.exp(-g * t) - mpmath.exp(-g * t_max)) / mass
            ref_t = -mpmath.log1p(-mpmath.mpf(frac) * mass) / g
            worst = max(worst, abs(survival_probability(dist, t) / ref_q - 1))
            if frac:
                worst = max(worst, abs(waiting_time_from_uniform(dist, frac) / ref_t - 1))
    assert worst <= 1e-14


@pytest.mark.parametrize("gamma", [1e-3, 0.5, 30.0])
def test_chopped_survival_weights_hold_their_digits_down_to_tiny_gamma_t_max(gamma):
    # U(w) is about t_max / 2 at small gamma * t_max; no step of its
    # fraction may underflow, down to gamma * t_max = 1e-300
    worst = 0.0
    for a in (1e-300, 1e-200, 1e-160, 1e-20, 1e-8, 1e-2, 0.49):
        # the reference cancels about log10(1 / a) digits
        with mpmath.workdps(40 + 2 * int(-math.log10(a))):
            g, t_max = mpmath.mpf(gamma), mpmath.mpf(a) / gamma
            mass = -mpmath.expm1(-g * t_max)
            for w in (0.0, 0.3, -2.2, 4.4, 1e4):
                if w:
                    z = 1j * w - g
                    ref = (mpmath.expm1(z * t_max) / z
                           - (1 - mass) * mpmath.expm1(1j * w * t_max) / (1j * w)) / mass
                else:
                    ref = (mass - g * t_max * (1 - mass)) / (g * mass)
                got = renewal._fourier_weights(WaitingTime.chopped(gamma, a / gamma), w)
                worst = max(worst, abs(mpmath.mpc(complex(got)) / ref - 1))
    assert worst <= 1e-15


def _float_bits(z):
    """The (re, im) float bits of complex values, as int64: signed zeros kept, and every
    NaN one NaN (the sign of a NaN that an overflowed w t_max makes is no value)."""
    z = np.asarray(z, dtype=complex)
    parts = np.stack([z.real, z.imag])
    return np.where(np.isnan(parts), np.nan, parts).view(np.int64)


_F_MAX = np.finfo(float).max


def _chopped(gamma, gamma_t_max):
    return WaitingTime.chopped(gamma, gamma_t_max / gamma)


def _decades(lo, hi):
    return st.floats(lo, hi).map(lambda e: 10.0 ** e)


# both laws, and the chopped law on both sides of _CHOPPED_SERIES_BELOW
WEIGHT_LAWS = {
    "poisson": _decades(-300.0, 300.0).map(WaitingTime.poisson),
    "chopped-short": st.builds(_chopped, _decades(-3.0, 3.0), _decades(-300.0, math.log10(0.49))),
    "chopped-long": st.builds(_chopped, _decades(-3.0, 3.0), st.floats(0.5, 1e3)),
}
# w: zero, tiny, subnormal, the k obar of a drive with 4 obar at the float max, log-uniform
WEIGHT_FREQUENCIES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -2.5e-308, 1e-300, -1e-300,
                     _F_MAX, -_F_MAX, _F_MAX / 2, -_F_MAX / 2, np.nextafter(_F_MAX, 0.0)]),
    st.builds(lambda e, sign: sign * 10.0 ** e, st.floats(-300.0, 300.0), st.sampled_from([-1, 1])),
)


@pytest.mark.parametrize("law", sorted(WEIGHT_LAWS))
@settings(max_examples=80, deadline=None)
@given(data=st.data())
def test_survival_weights_repeat_the_scalar_steps_bit_for_bit(law, data):
    dist = data.draw(WEIGHT_LAWS[law])
    ws = data.draw(st.lists(WEIGHT_FREQUENCIES, min_size=1, max_size=12))
    # w t_max past the float range makes NaN in both, with numpy's warnings
    with np.errstate(all="ignore"):
        ref = [complex(_fourier_weight(dist, w)) for w in ws]
        got = renewal._fourier_weights(dist, np.array(ws))
        grid = renewal._fourier_weights(dist, np.array([ws, ws[::-1]]))
        u0 = renewal._fourier_weights(dist, 0.0)
    assert got.dtype == complex and got.shape == (len(ws),)
    assert np.array_equal(_float_bits(got), _float_bits(ref))
    assert np.array_equal(_float_bits(grid), _float_bits([ref, ref[::-1]]))
    # U(0), the normalization, is the one-element case
    assert u0.shape == () and np.array_equal(_float_bits(u0), _float_bits(_fourier_weight(dist, 0.0)))


def test_branch_mix_takes_the_grid_weights_in_one_call(monkeypatch):
    calls, weights = [], renewal._fourier_weights

    def counting(dist, w):
        calls.append(np.shape(w))
        return weights(dist, w)

    monkeypatch.setattr(renewal, "_fourier_weights", counting)
    drives = [DriveParams(om, 1.0) for om in np.linspace(0.0, 3.0, 150)]  # three blocks
    for dist in (POISSON, CHOPPED, WaitingTime.chopped(0.5, 0.3)):
        for protocol in (ProtocolKind.UNCONDITIONAL_RESET, ProtocolKind.CONDITIONAL_TWO_STATE):
            calls.clear()
            states = stationary_states(protocol, drives, dist, n_spins=51)
            assert calls == [(5, len(drives))] and len(states) == len(drives)
    # obar comes from one hypot over the grid, not from each drive's cached one
    assert all("effective_rabi" not in vars(p) for p in drives)


@pytest.mark.parametrize("gamma, t_max, name", [(0.5, 5e-324, "t_max"), (0.5, 1e-310, "t_max"),
                                                (1e-3, 1e-306, "gamma \\* t_max")])
def test_chopped_law_refuses_subnormal_t_max_or_gamma_t_max(gamma, t_max, name):
    with pytest.raises(ValueError, match=f"{name} = .* below the smallest normal float"):
        WaitingTime.chopped(gamma, t_max)


def test_sampling_statistics():
    rng = np.random.default_rng(11)
    n = 200_000
    x = sample_waiting_time(POISSON, rng, size=n)
    assert abs(np.mean(x) - 1.0 / POISSON.gamma) < 4.0 * (1.0 / POISSON.gamma) / math.sqrt(n)
    y = sample_waiting_time(CHOPPED, rng, size=n)
    assert np.max(y) < CHOPPED.t_max
    g, tm = CHOPPED.gamma, CHOPPED.t_max
    mean = 1.0 / g - tm * math.exp(-g * tm) / (1.0 - math.exp(-g * tm))
    assert abs(np.mean(y) - mean) < 4.0 * mean / math.sqrt(n)
    assert isinstance(sample_waiting_time(POISSON, rng), float)


@pytest.mark.parametrize("dist", [POISSON, CHOPPED], ids=["poisson", "chopped"])
def test_exp_weighted_average_routes_agree(dist):
    params = DriveParams(omega=1.3, delta=1.0)
    via_poly = average_poly(dist, flip_probability_poly(params))
    via_quad = exp_weighted_average(dist, lambda t: flip_probability(params, float(t)))
    assert via_poly == pytest.approx(via_quad, abs=1e-9)
    # matrix-valued callable against the closed-form state
    mat_poly = stationary_state_p1(params, dist).state
    up = np.diag([1.0, 0.0]).astype(complex)
    mat_quad = exp_weighted_average(dist, lambda t: evolve_qubit(params, float(t), up))
    np.testing.assert_allclose(mat_poly, mat_quad, atol=1e-9)
    with pytest.raises(TypeError):
        exp_weighted_average(dist, 3.0)


def _pair_integrand(dist, params):
    """Survival-weighted free pair state from all-up, at one time or a node array."""
    def at(t):
        return survival_probability(dist, t) * free_two_spin_state(params, float(t), "up", "up")

    def on_nodes(nodes):
        return np.array([at(t) for t in nodes.tolist()])
    return at, on_nodes


QUAD_CASES = [(dist, omega) for gamma in (0.5, 1.7)
              for dist in (WaitingTime.poisson(gamma), WaitingTime.chopped(gamma, 4.0))
              for omega in (0.3, 1.3, 2.0)]


@pytest.mark.parametrize("dist,omega", QUAD_CASES,
                         ids=[f"{d.kind.value}-{d.gamma}-{om}" for d, om in QUAD_CASES])
def test_gauss_kronrod_quad_matches_quad_vec_with_no_more_evaluations(dist, omega):
    at, on_nodes = _pair_integrand(dist, DriveParams(omega, 1.0))
    hi = renewal._quad_upper_limit(dist)
    calls = [0, 0]

    def counted_scalar(t):
        calls[0] += 1
        return at(t)

    def counted_nodes(nodes):
        calls[1] += len(nodes)
        return on_nodes(nodes)

    ref, _ = integrate.quad_vec(counted_scalar, 0.0, hi)
    got = renewal.integrate.quad(counted_nodes, 0.0, hi)
    assert got.shape == (4, 4)
    assert np.max(np.abs(got - ref)) <= 1e-12
    assert calls[1] <= calls[0]


def test_gauss_kronrod_quad_scalar_integrand_and_failures(monkeypatch):
    # the density verify integrates: a scalar per node, a scalar result
    params, dist = DriveParams(1.0, 1.0), POISSON

    def density(t):
        rho = free_two_spin_state(params, t, "up", "up")
        return rho[0, 0].real + rho[1, 1].real

    quad = exp_weighted_average(dist, density)
    assert np.ndim(quad) == 0
    assert quad == pytest.approx(stationary_density_closed_form(params, dist), abs=1e-12)
    assert renewal.integrate.quad(np.cos, 0.0, 1.0) == pytest.approx(math.sin(1.0), abs=1e-15)
    with pytest.raises(ValueError, match="not finite"):
        renewal.integrate.quad(lambda x: np.where(x > 0.5, np.nan, x), 0.0, 1.0)
    monkeypatch.setattr(renewal.integrate, "_LIMIT", 4)
    with pytest.raises(ValueError, match="did not converge in 4 panels"):
        renewal.integrate.quad(lambda x: np.sin(1.0 / x), 1e-3, 1.0)


def test_poisson_stationary_density_closed_form():
    g = 0.5
    dist = WaitingTime.poisson(g)
    for omega in (0.2, 0.7, 1.0, 1.6):
        params = DriveParams(omega=omega, delta=1.0)
        ob2 = omega**2 + 1.0
        expect = 1.0 - 2.0 * omega**2 / (g**2 + 4.0 * ob2)
        assert stationary_density_closed_form(params, dist) == pytest.approx(expect, abs=0)
        st = stationary_state_p1(params, dist)
        assert st.density == pytest.approx(expect, abs=1e-12)
        assert require_qubit_state(st.state)[0, 0].real == pytest.approx(expect, abs=1e-12)
    # omega = delta = 1, gamma = 1/2 is the rational point 25/33
    assert stationary_density_closed_form(DriveParams(1.0, 1.0), dist) == pytest.approx(
        25.0 / 33.0, abs=1e-16)
    assert stationary_density_closed_form(DriveParams(0.0, 1.0), dist) == 1.0


def test_small_omega_populations_keep_full_precision():
    # the down populations are O(omega^2) and O(omega^4): every
    # coefficient is kept, so they stay right to rounding however small
    g = 0.5
    dist = WaitingTime.poisson(g)
    for x in np.logspace(-12.0, 0.0, 49):
        params = DriveParams(omega=float(x), delta=1.0)
        obar = params.effective_rabi
        r2, r4 = (g**2 / (g**2 + k**2 * obar**2) for k in (2, 4))
        st = stationary_state_p1(params, dist)
        down = (x / obar) ** 2 * (4.0 * obar**2 / (g**2 + 4.0 * obar**2)) / 2.0
        both_down = (x / obar) ** 4 * (3.0 - 4.0 * r2 + r4) / 8.0
        assert st.state[1, 1].real == pytest.approx(down, rel=1e-12, abs=0.0), x
        assert st.pair_state[3, 3].real == pytest.approx(both_down, rel=1e-12, abs=0.0), x


def test_chopped_stationary_density_matches_machinery():
    params = DriveParams(omega=0.8, delta=1.0)
    for gt in (1.0, 5.0, 20.0):
        dist = WaitingTime.chopped(0.5, gt / 0.5)
        closed = stationary_density_closed_form(params, dist)
        st = stationary_state_p1(params, dist)
        assert st.density == pytest.approx(closed, abs=1e-12)


def test_chopped_density_converges_to_poisson():
    params = DriveParams(omega=1.4, delta=1.0)
    poisson_val = stationary_density_closed_form(params, WaitingTime.poisson(0.5))
    gaps = []
    for t_max in (10.0, 40.0, 80.0):
        val = stationary_density_closed_form(params, WaitingTime.chopped(0.5, t_max))
        gaps.append(abs(val - poisson_val))
    assert gaps[1] < gaps[0] and gaps[2] <= gaps[1]
    assert gaps[2] < 1e-12
    # extreme truncation must not overflow the correction term
    far = stationary_density_closed_form(params, WaitingTime.chopped(0.5, 2000.0))
    assert far == pytest.approx(poisson_val, abs=1e-15)


@pytest.mark.parametrize("gamma", [0.5, 1.7])
def test_chopped_density_closed_form_at_small_gamma_t_max(gamma):
    # expm1(gt) - gt and the bracket cancel below the cutoff; through phi2
    # the closed form stays on the stationary state's density
    for gtm in (1e-8, 1e-6, 1e-4, 0.3):
        dist = WaitingTime.chopped(gamma, gtm / gamma)
        for omega in (0.3, 1.3, 2.0):
            params = DriveParams(omega, 1.0)
            closed = stationary_density_closed_form(params, dist)
            assert abs(closed - stationary_state_p1(params, dist).density) <= 1e-15
            assert closed <= 1.0


log_uniform = st.floats(-3.0, 3.0).map(lambda e: 10.0 ** e)


@settings(max_examples=100, deadline=None)
@given(omega=log_uniform, delta=log_uniform, gamma=log_uniform, t_max=log_uniform)
def test_closed_forms_equal_polynomial_averages_property(omega, delta, gamma, t_max):
    params = DriveParams(omega, delta)
    for dist in (WaitingTime.poisson(gamma), WaitingTime.chopped(gamma, t_max)):
        state = stationary_states(ProtocolKind.UNCONDITIONAL_RESET, [params], dist)[0]
        assert state.density == pytest.approx(
            stationary_density_closed_form(params, dist), abs=1e-13)
    poisson = WaitingTime.poisson(gamma)
    pairs = [stationary_states(ProtocolKind(k), [params], poisson)[0].pair_state for k in (1, 2)]
    for k, corr in zip((1, 2), connected_correlations(np.stack(pairs))):
        assert corr == pytest.approx(connected_correlation_closed_form(k, params, gamma),
                                     abs=1e-13)


def test_renewal_state_relaxes_to_stationary():
    params = DriveParams(omega=1.1, delta=1.0)
    gamma = 0.5
    st = stationary_state_p1(params, WaitingTime.poisson(gamma))
    # short times: survival term dominates, state is nearly the free one
    early = renewal_state_at_time(params, gamma, 0.0)
    np.testing.assert_allclose(early, np.diag([1.0, 0.0]), atol=1e-12)
    late = renewal_state_at_time(params, gamma, 120.0)
    np.testing.assert_allclose(late, st.state, atol=1e-12)
    for bad in (0.0, math.inf, math.nan):
        with pytest.raises(ValueError, match="gamma must be finite and > 0"):
            renewal_state_at_time(params, bad, 1.0)
    with pytest.raises(ValueError):
        renewal_state_at_time(params, gamma, -1.0)


def test_renewal_state_against_direct_quadrature():
    params = DriveParams(omega=0.9, delta=1.0)
    gamma, t = 0.6, 4.0
    up = np.diag([1.0, 0.0]).astype(complex)

    def hist(entry):
        def re_im(s, part):
            rho = evolve_qubit(params, s, up)
            return getattr(rho[entry], part)
        out = complex()
        for part in ("real", "imag"):
            val, _ = integrate.quad(
                lambda s: math.exp(-gamma * s) * re_im(s, part), 0.0, t, limit=200)
            out += val if part == "real" else 1j * val
        return out

    direct = np.empty((2, 2), dtype=complex)
    for idx in np.ndindex(2, 2):
        rho_t = evolve_qubit(params, t, up)
        direct[idx] = math.exp(-gamma * t) * rho_t[idx] + gamma * hist(idx)
    np.testing.assert_allclose(renewal_state_at_time(params, gamma, t), direct,
                               atol=1e-10)


def test_reset_rates_thermo_branches():
    dist = POISSON
    below = reset_rates_R(DriveParams(0.7, 1.0), dist)
    assert below.c_up == 1.0 and below.c_down == 0.0
    assert not below.degenerate
    at = reset_rates_R(DriveParams(1.0, 1.0), dist)
    assert at.c_up == 1.0 and at.degenerate
    above = reset_rates_R(DriveParams(1.5, 1.0), dist)
    assert above.c_up == above.c_down == 0.5
    assert not above.degenerate
    above_c = reset_rates_R(DriveParams(1.5, 1.0), WaitingTime.chopped(0.5, 60.0))
    assert above_c.c_up == above_c.c_down == 0.5


def test_reset_rates_thermo_chopped_cutoff_before_first_flip_window():
    # in the limit a reset flips only where the flip probability exceeds
    # 1/2; a cutoff before the first such window keeps every reset on up
    params = DriveParams(2.0, 1.0)
    w = params.effective_rabi
    t1 = optimize.brentq(lambda t: flip_probability(params, t) - 0.5, 0.0, 0.5 * math.pi / w,
                         xtol=1e-15)
    short = reset_rates_R(params, WaitingTime.chopped(0.5, t1 * (1.0 - 1e-6)))
    assert short.c_up == 1.0 and short.c_down == 0.0 and not short.degenerate
    long = reset_rates_R(params, WaitingTime.chopped(0.5, t1 * (1.0 + 1e-6)))
    assert long.c_up == long.c_down == 0.5
    dist = WaitingTime.chopped(0.5, 0.1)
    st2, st1 = stationary_state_p2(params, dist), stationary_state_p1(params, dist)
    np.testing.assert_array_equal(st2.state, st1.state)
    np.testing.assert_array_equal(st2.pair_state, st1.pair_state)
    assert st2.density == st1.density and st2.note == ""


@pytest.mark.parametrize("scale", [1e-170, np.float64(1e-170), 1e160, np.float64(1e160)],
                         ids=["tiny", "tiny-numpy", "huge", "huge-numpy"])
def test_reset_rates_thermo_cutoff_test_holds_at_any_scale(scale):
    # in units scaled by s the first flip window opens at t1 / s: deciding
    # whether it opens before the cutoff must neither overflow nor
    # underflow, on Python or numpy floats
    params = DriveParams(2.0, 1.0)
    t1 = optimize.brentq(lambda t: flip_probability(params, t) - 0.5, 0.0,
                         0.5 * math.pi / params.effective_rabi, xtol=1e-15)
    scaled = DriveParams(2.0 * scale, 1.0 * scale)
    for factor, c_up in ((1.0 - 1e-6, 1.0), (1.0 + 1e-6, 0.5)):
        dist = WaitingTime.chopped(0.5 * scale, t1 * factor / scale)
        assert reset_rates_R(scaled, dist).c_up == c_up
    assert reset_rates_R(scaled, WaitingTime.poisson(0.5 * scale)).c_up == 0.5


def test_reset_rates_finite_n():
    params = DriveParams(1.5, 1.0)
    for bad in (10, -3, 0):
        with pytest.raises(ValueError, match="positive odd"):
            reset_rates_R(params, POISSON, n_spins=bad)
    for n in (1, 11, 1001):
        assert reset_rates_R(params, POISSON, n_spins=n).c_up == 0.5
    # below threshold the step never fires in the limit, but finite N
    # leaks, so the chain still reaches all-down; omega == delta is no
    # special case
    for omega in (0.95, 1.0):
        weights = reset_rates_R(DriveParams(omega, 1.0), POISSON, n_spins=11)
        assert weights.c_up == weights.c_down == 0.5 and not weights.degenerate
    # without a drive no spin ever leaves up
    for dist in (POISSON, CHOPPED):
        idle = reset_rates_R(DriveParams(0.0, 1.0), dist, n_spins=51)
        assert idle.c_up == 1.0 and idle.c_down == 0.0 and not idle.degenerate


def test_reset_rates_compute_no_rate(monkeypatch):
    def forbidden(*args, **kwargs):
        raise AssertionError("reset_rates_R must not integrate a rate")

    monkeypatch.setattr(integrate, "quad", forbidden)
    monkeypatch.setattr(renewal.integrate, "quad", forbidden)
    # Through the module (a lazy `finite_size.transition_prob_exact`) and
    # through renewal's own namespace (a `from .finite_size import ...`).
    monkeypatch.setattr(finite_size, "transition_prob_exact", forbidden)
    monkeypatch.setattr(renewal, "transition_prob_exact", forbidden, raising=False)
    for omega in (0.0, 0.7, 1.0, 1.5):
        for dist in (POISSON, CHOPPED):
            for n in (None, 11):
                reset_rates_R(DriveParams(omega, 1.0), dist, n_spins=n)


def test_stationary_state_p2():
    dist = POISSON
    below = stationary_state_p2(DriveParams(0.7, 1.0), dist)
    ref = stationary_state_p1(DriveParams(0.7, 1.0), dist)
    np.testing.assert_allclose(below.state, ref.state, atol=1e-14)
    assert below.density == ref.density
    assert below.note == ""
    at = stationary_state_p2(DriveParams(1.0, 1.0), dist)
    assert "omega == delta" in at.note
    above = stationary_state_p2(DriveParams(1.5, 1.0), dist)
    assert above.density == 0.5  # exact by symmetry
    assert require_qubit_state(above.state)[0, 0].real == pytest.approx(0.5, abs=1e-14)
    # pair state carries positive correlations from the shared reset age
    assert connected_correlation(above.pair_state) > 0.0
    # exchange symmetry of the pair
    swap = np.zeros((4, 4))
    swap[0, 0] = swap[3, 3] = swap[1, 2] = swap[2, 1] = 1.0
    np.testing.assert_allclose(swap @ above.pair_state @ swap, above.pair_state,
                               atol=1e-12)


def _reference_state(protocol, params, gamma, t_max):
    """50-digit stationary qubit state, pair state and density under the chopped law.

    The free amplitudes are built from omega and delta, and each
    frequency's survival weight is the two-fraction integral, evaluated
    with enough digits to spare for its cancellation.
    """
    with mpmath.workdps(50):
        g, t = mpmath.mpf(gamma), mpmath.mpf(t_max)
        obar = mpmath.sqrt(mpmath.mpf(params.omega) ** 2 + mpmath.mpf(params.delta) ** 2)
        c = mpmath.exp(-g * t)
        u = {0: ((1 - c) / g - c * t) / (1 - c)}
        for k in range(-4, 5):
            if k:
                w = k * obar
                part = (1 - mpmath.exp((1j * w - g) * t)) / (g - 1j * w)
                u[k] = (part - c * (mpmath.exp(1j * w * t) - 1) / (1j * w)) / (1 - c)
        r, h = mpmath.mpf(params.delta) / (2 * obar), mpmath.mpf(params.omega) / (2 * obar)
        alpha, beta = {1: 0.5 - r, -1: 0.5 + r}, {1: -h, -1: h}
        origins = {"up": (alpha, beta), "down": (beta, {1: alpha[-1], -1: alpha[1]})}
        if protocol is ProtocolKind.UNCONDITIONAL_RESET:
            weights = ResetWeights(1.0, 0.0)
        else:
            weights = reset_rates_R(params, WaitingTime.chopped(gamma, t_max))
        state, pair = mpmath.matrix(2, 2), mpmath.matrix(4, 4)
        signs = (1, -1)
        for weight, origin in ((weights.c_up, "up"), (weights.c_down, "down")):
            a = origins[origin]
            for i, j in itertools.product(range(2), repeat=2):
                state[i, j] += weight * sum(a[i][s] * a[j][v] * u[s - v] for s in signs
                                            for v in signs) / u[0]
            for i, k, j, m in itertools.product(range(2), repeat=4):
                pair[2 * i + k, 2 * j + m] += weight * sum(
                    a[i][s1] * a[k][s2] * a[j][s3] * a[m][s4] * u[s1 + s2 - s3 - s4]
                    for s1, s2, s3, s4 in itertools.product(signs, repeat=4)) / u[0]
        density = mpmath.mpf(0.5) if weights.c_up == weights.c_down else mpmath.re(state[0, 0])
        return state, pair, density


@pytest.mark.parametrize("protocol", [ProtocolKind.UNCONDITIONAL_RESET,
                                      ProtocolKind.CONDITIONAL_TWO_STATE])
@pytest.mark.parametrize("gamma", [0.5, 1.7])
def test_chopped_states_match_a_50_digit_reference_at_any_gamma_t_max(protocol, gamma):
    # the waits are nearly uniform on [0, t_max] at small gamma * t_max,
    # where the two-fraction survival weight cancels; down to 1e-8 every
    # entry stays within a few rounding errors of the exact value
    worst = 0.0
    for a in (1e-8, 1e-6, 1e-4, 1e-2, 0.3, 0.99, 1.0, 2.0, 1e3):
        for x in (0.3, 1.3, 2.0):
            params = DriveParams(x, 1.0)
            st = stationary_states(protocol, [params], WaitingTime.chopped(gamma, a / gamma))[0]
            ref_state, ref_pair, ref_density = _reference_state(protocol, params, gamma,
                                                                a / gamma)
            for got, ref in ((st.state, ref_state), (st.pair_state, ref_pair)):
                for i, j in np.ndindex(*got.shape):
                    worst = max(worst, abs(mpmath.mpc(complex(got[i, j])) - ref[i, j]))
            worst = max(worst, abs(st.density - ref_density))
    assert worst <= 2e-15


def test_stationary_states_refuse_a_protocol_with_no_exact_state():
    with pytest.raises(ValueError, match="protocol 3"):
        stationary_states(ProtocolKind.CONDITIONAL_FLIP, [DriveParams(1.3)], POISSON)
