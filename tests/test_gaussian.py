"""Closed-form effective-bath theory: rates, moments, gain optimum, Wigner geometry."""
import math

import numpy as np
import pytest

from trapcool.errors import InvalidFeedbackPhase, NonPositiveCovariance, Unstable
from trapcool.gaussian import (
    BathParams,
    StationaryMoments,
    bath_params,
    contour_polyline,
    moment_fixed_point,
    optimal_gain,
    stability,
    stationary_moments,
    wigner_covariance,
)
from trapcool.hilbert import FockBasisSpec, expectation, quadrature, thermal_state
from trapcool.models import SystemParams
from trapcool.validation import property_grid

HALF_PI = math.pi / 2.0


def default_params(**overrides):
    """Workhorse parameter point: chi=4, kappa=40, heating 0.01, gain 0.375."""
    base = dict(
        chi=4.0, kappa=40.0, gamma_h=0.01, eta=0.9, nu=18.75, g=0.375, phi=-HALF_PI
    )
    base.update(overrides)
    return SystemParams(**base)


def test_bath_rates_hand_computed_point():
    # chi^2/kappa = 0.4, so M/4 = 0.1, g^2/(4 eta M) = 0.140625/1.44 = 0.09765625
    # N = (0.01 + 0.1 + 0.09765625)/0.375 - 1/2 = 0.05375
    # M_sq = (0.1 - 0.09765625)/(-0.375) = -0.00625
    b = bath_params(default_params())
    assert b.Gamma == pytest.approx(0.375, rel=1e-14)
    assert b.N == pytest.approx(0.05375, rel=1e-12)
    assert b.M.real == pytest.approx(-0.00625, rel=1e-9)
    assert abs(b.M.imag) < 1e-15  # cot(-pi/2) vanishes
    assert b.is_physical


def test_bath_physicality_bound_is_reported():
    good = BathParams(Gamma=1.0, N=0.5, M=0.5 + 0.5j)  # |M|^2 = 0.5 < 0.75
    bad = BathParams(Gamma=1.0, N=0.5, M=1.0 + 0.5j)
    assert good.is_physical
    assert not bad.is_physical


def test_stationary_moments_match_moment_ode_fixed_point():
    """The printed closed forms and the linear fixed-point solve must agree."""
    for params in (
        default_params(),
        default_params(nu=5.0, g=0.2),
        default_params(phi=-2.2, gamma_h=0.004),
        default_params(nu=0.12),  # Gamma/nu = 3.1: both are exact, not nu >> Gamma expansions
    ):
        mo = stationary_moments(params)
        fp = moment_fixed_point(params)
        assert mo.zeta == pytest.approx(fp.zeta, rel=1e-10)
        assert abs(mo.mu - fp.mu) <= 1e-10 * max(1.0, abs(fp.mu))


def test_fixed_point_solves_the_moment_flow():
    # oracle: plug (zeta, mu) back into the second-moment ODE right sides
    for params in (default_params(), default_params(nu=3.3, g=0.11, phi=-1.9)):
        b = bath_params(params)
        fp = moment_fixed_point(params)
        n, m = fp.zeta, fp.mu
        ndot = -b.Gamma * (n - b.N) - b.Gamma * m.real
        mdot = -(b.Gamma + 2j * params.nu) * m + b.Gamma * (b.M - n - 0.5)
        assert abs(ndot) < 1e-13 * max(1.0, b.Gamma)
        assert abs(mdot) < 1e-13 * max(1.0, b.Gamma * (1.0 + params.nu))


def test_frozen_reference_values():
    # regression anchors at the fast-trap point nu = 1000:
    # mu ~ Gamma (M - 1/2 - N)/(Gamma + 2 i nu) = -0.21/(0.375 + 2000 i)
    mo = stationary_moments(default_params(nu=1000.0))
    assert mo.zeta == pytest.approx(0.05375001968749997, rel=1e-12)
    assert mo.mu.imag == pytest.approx(1.05e-4, rel=1e-6)
    assert mo.mu.real == pytest.approx(-1.96875e-8, rel=1e-3)


def test_fast_trap_limit_recovers_bath_occupation():
    # nu / |g| = 1e4: coherences average away, zeta -> N and mu -> 0
    params = default_params(nu=3750.0)
    b = bath_params(params)
    mo = stationary_moments(params)
    assert abs(mo.zeta - b.N) < 1e-6 * b.N
    assert abs(mo.mu) < 1e-4


def test_gain_optimum_matches_brute_force_scan():
    params = default_params()
    g_opt, n_min = optimal_gain(params)
    assert g_opt == pytest.approx(0.397994974842648, rel=1e-12)
    assert n_min == pytest.approx(0.05277079839256671, rel=1e-12)

    grid = np.logspace(math.log10(g_opt / 100.0), math.log10(g_opt * 100.0), 4001)
    occupations = [bath_params(default_params(g=float(g))).N for g in grid]
    best = min(occupations)
    assert best >= n_min - 1e-12  # the closed form is a true lower bound
    assert best == pytest.approx(n_min, rel=1e-3)
    assert bath_params(default_params(g=g_opt)).N == pytest.approx(n_min, rel=1e-12)


def test_gain_optimum_scipy_cross_check():
    import scipy.optimize

    params = default_params()
    g_opt, _ = optimal_gain(params)
    res = scipy.optimize.minimize_scalar(
        lambda g: bath_params(default_params(g=g)).N,
        bounds=(g_opt / 10.0, g_opt * 10.0),
        method="bounded",
        options={"xatol": 1e-10},
    )
    assert res.x == pytest.approx(g_opt, rel=1e-3)


def test_perfect_detection_no_heating_reaches_ground_state():
    params = default_params(eta=1.0, gamma_h=0.0)
    _, n_min = optimal_gain(params)
    assert n_min == 0.0


def test_gain_optimum_equality_case():
    # with gamma_h = 0 the two gain-dependent terms balance at g = M sqrt(eta),
    # and the resulting occupation saturates the optimum
    m = 0.1  # chi^2/kappa
    eta = 0.7
    g_star = m * math.sqrt(eta)
    params = SystemParams(
        chi=2.0, kappa=40.0, gamma_h=0.0, eta=eta, nu=5.0, g=g_star, phi=-HALF_PI
    )
    g_opt, n_min = optimal_gain(params)
    assert g_opt == pytest.approx(g_star, rel=1e-12)
    assert bath_params(params).N == pytest.approx(n_min, rel=1e-12)
    assert n_min == pytest.approx(0.5 * (1.0 / math.sqrt(eta) - 1.0), rel=1e-12)


def test_unstable_gain_sign_rejected():
    wrong_sign = default_params(phi=HALF_PI)
    assert not stability(wrong_sign)
    assert stability(default_params())
    with pytest.raises(Unstable):
        stationary_moments(wrong_sign)
    with pytest.raises(Unstable):
        moment_fixed_point(wrong_sign)
    # raw rates are still reported for diagnostics, occupation just goes negative
    assert bath_params(wrong_sign).N < 0


def test_zero_gain_and_quadrature_phase_rejected():
    with pytest.raises(InvalidFeedbackPhase):
        bath_params(default_params(g=0.0))
    with pytest.raises(InvalidFeedbackPhase):
        bath_params(default_params(phi=0.0))


def test_wigner_circle_ground_and_thermal():
    ground = wigner_covariance(StationaryMoments(zeta=0.0, mu=0.0))
    assert ground.sigma_xx == pytest.approx(0.25)
    assert ground.sigma_pp == pytest.approx(0.25)
    assert ground.sigma_xp == 0.0
    assert ground.semi_axes[0] == pytest.approx(0.5)
    assert ground.semi_axes[1] == pytest.approx(0.5)

    hot = wigner_covariance(StationaryMoments(zeta=10.0, mu=0.0))
    assert hot.semi_axes[0] == pytest.approx(math.sqrt(21.0) / 2.0, rel=1e-12)


def test_wigner_thermal_radius_against_state_moments():
    # deep cutoff so the truncated thermal second moment is converged
    spec = FockBasisSpec(n_trunc=210, tail_tolerance=1e-6)
    rho = thermal_state(spec, 10.0)
    x = quadrature(spec, "position")
    xsq = float(expectation(rho, x @ x).real)
    ellipse = wigner_covariance(StationaryMoments(zeta=10.0, mu=0.0))
    assert xsq == pytest.approx(ellipse.sigma_xx, rel=1e-6)


def test_wigner_squeezed_point_geometry():
    mo = stationary_moments(default_params())
    e = wigner_covariance(mo)
    det = e.sigma_xx * e.sigma_pp - e.sigma_xp**2
    assert e.semi_axes[0] * e.semi_axes[1] == pytest.approx(math.sqrt(det), rel=1e-12)
    assert det >= (1.0 / 16.0) * (1.0 - 1e-12)  # uncertainty floor
    assert e.semi_axes[0] >= e.semi_axes[1]


def test_wigner_rejects_nonpositive_covariance():
    with pytest.raises(NonPositiveCovariance):
        wigner_covariance(StationaryMoments(zeta=0.0, mu=1.0))


def test_contour_square_of_four_points():
    e = wigner_covariance(StationaryMoments(zeta=0.0, mu=0.0))
    pts = contour_polyline(e, 4)
    expected = np.array([[0.5, 0.0], [0.0, 0.5], [-0.5, 0.0], [0.0, -0.5]])
    assert np.allclose(pts, expected, atol=1e-15)
    with pytest.raises(ValueError):
        contour_polyline(e, 3)


def test_contour_points_lie_on_the_ellipse():
    mo = stationary_moments(default_params(nu=2.0, g=0.3))
    e = wigner_covariance(mo)
    pts = np.array(contour_polyline(e, 256))
    sigma = np.array([[e.sigma_xx, e.sigma_xp], [e.sigma_xp, e.sigma_pp]])
    inv = np.linalg.inv(sigma)
    for q in pts:
        assert q @ inv @ q == pytest.approx(1.0, abs=1e-10)
    # shoelace area of the 256-gon against pi a b
    x, p = pts[:, 0], pts[:, 1]
    area = 0.5 * abs(np.dot(x, np.roll(p, -1)) - np.dot(p, np.roll(x, -1)))
    assert area == pytest.approx(math.pi * e.semi_axes[0] * e.semi_axes[1], rel=1e-3)


def test_property_grid_bounds():
    """Every stable grid point obeys the physicality and optimality bounds."""
    grid = property_grid()
    assert len(grid) == 240
    for params in grid:
        assert stability(params)
        b = bath_params(params)
        assert b.is_physical
        _, n_min = optimal_gain(params)
        assert b.N + 1e-12 >= n_min
        mo = stationary_moments(params)
        ellipse = wigner_covariance(mo)
        # quantum limit: no stationary quadrature dips below the vacuum variance
        assert min(ellipse.semi_axes) ** 2 >= 0.25 - 1e-9
        # the watched quadrature sits exactly at the effective-bath variance:
        # the fixed point forces zeta + Re mu = N, so sigma_xx = (1 + 2N)/4
        assert ellipse.sigma_xx == pytest.approx((1.0 + 2.0 * b.N) / 4.0, rel=1e-10)


def test_quadrature_floor_saturates_on_the_ideal_line():
    # perfect detection and no heating give N = 0; the minimum covariance
    # eigenvalue then sits below 1/4 by Gamma/(8 nu) to leading order, a
    # finite-trap-frequency squeezing effect that dies off as nu grows
    deficits = []
    for trap_ratio in (1e2, 1e3, 1e4):
        m = 0.1
        params = SystemParams(
            chi=2.0, kappa=40.0, gamma_h=0.0, eta=1.0, nu=trap_ratio * m, g=m, phi=-HALF_PI
        )
        b = bath_params(params)
        assert b.N == pytest.approx(0.0, abs=1e-15)
        e = wigner_covariance(stationary_moments(params))
        assert e.sigma_xx == pytest.approx(0.25, rel=1e-12)  # exact at N = 0
        deficit = 0.25 - min(e.semi_axes) ** 2
        assert deficit == pytest.approx(b.Gamma / (8.0 * params.nu), rel=0.05)
        deficits.append(deficit)
    assert deficits[0] > deficits[1] > deficits[2] > 0.0
