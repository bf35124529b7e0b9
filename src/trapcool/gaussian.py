"""Closed-form steady-state theory of the fed-back mode.

Everything here is analytic: the effective reservoir rates, the stationary
Gaussian moments, stability and optimality conditions, and the phase-space
ellipse geometry used for uncertainty contours. Conventions match the rest
of the package: X = (a + a')/2, P = (a - a')/(2i), and mu denotes the
stationary second moment <a^2> (so <a'^2> is its conjugate).
"""
from __future__ import annotations

import dataclasses
import math
import sys

from .errors import InvalidFeedbackPhase, NonPositiveCovariance, SimulationError, Unstable

__all__ = [
    "BathParams",
    "StationaryMoments",
    "WignerEllipse",
    "bath_params",
    "stationary_moments",
    "moment_fixed_point",
    "stability",
    "optimal_gain",
    "wigner_covariance",
    "contour_polyline",
]


@dataclasses.dataclass(frozen=True)
class BathParams:
    """Effective thermal-squeezed reservoir felt by the fed-back mode.

    Gamma is the contraction rate, N the effective occupancy, M the complex
    squeezing parameter of the reservoir.
    """

    Gamma: float
    N: float
    M: complex

    @property
    def is_physical(self) -> bool:
        """Squeezing within the positivity bound |M|^2 <= N(N+1)."""
        return abs(self.M) ** 2 <= self.N * (self.N + 1.0) + 1e-12


@dataclasses.dataclass(frozen=True)
class StationaryMoments:
    """Stationary second moments: zeta = <a'a>, mu = <a^2>."""

    zeta: float
    mu: complex


@dataclasses.dataclass(frozen=True)
class WignerEllipse:
    """Covariance of (X, P) under the Wigner function, plus ellipse geometry.

    semi_axes holds the square roots of the covariance eigenvalues, major
    first; tilt is the angle of the major axis against the X axis.
    """

    sigma_xx: float
    sigma_pp: float
    sigma_xp: float
    semi_axes: tuple
    tilt: float


# the largest double whose square is finite: x**2 overflows exactly when |x| exceeds it
_SQUARE_LIMIT = math.sqrt(sys.float_info.max)


def bath_params(params) -> BathParams:
    """Effective reservoir rates seen by the mode under measurement feedback.

    Gamma = -g sin(phi); N and M combine heating, measurement back-action
    and feedback noise, all divided by g sin(phi). Raises
    InvalidFeedbackPhase when that divisor vanishes, exactly or by
    underflow. For stable parameters the squeezing always respects
    |M|^2 <= N(N+1); this is verified, not assumed. With an unstable sign
    of g sin(phi) the returned rates are formal (negative occupancies are
    possible) and the bound is not checked. Rates too large for that bound
    to be evaluated in floating point raise ValueError naming the
    parameters they scale with.
    """
    s = math.sin(params.phi)
    if params.g == 0.0 or s == 0.0:
        raise InvalidFeedbackPhase("effective reservoir rates divide by g sin(phi)")
    m_rate = params.measurement_rate
    gs = params.g * s
    if gs == 0.0:
        raise InvalidFeedbackPhase(
            f"g sin(phi) underflows to zero at g = {params.g!r}, phi = {params.phi!r}; "
            "the effective reservoir rates divide by it"
        )
    gamma = -gs
    try:
        noise = params.g**2 / (4.0 * params.eta * m_rate)
    except OverflowError:
        raise ValueError(f"g = {params.g!r} is too large: g^2 overflows") from None
    n_eff = -(params.gamma_h + m_rate / 4.0 + noise) / gs - 0.5
    m_eff = (m_rate / 4.0 - noise) / gs - 0.5j * (math.cos(params.phi) / s)
    # is_physical squares both; written to fail closed on NaN
    if not (abs(n_eff) <= _SQUARE_LIMIT and abs(m_eff) <= _SQUARE_LIMIT):
        raise ValueError(
            f"effective reservoir out of floating range (N = {n_eff:.3g}, |M| = {abs(m_eff):.3g}) "
            f"at gamma_h = {params.gamma_h!r}, chi^2/kappa = {m_rate!r}, eta = {params.eta!r}, "
            f"g = {params.g!r}, phi = {params.phi!r}"
        )
    bp = BathParams(Gamma=gamma, N=n_eff, M=m_eff)
    if gamma > 0.0 and not bp.is_physical:
        raise SimulationError("squeezing bound |M|^2 <= N(N+1) violated for stable rates")
    return bp


def stability(params) -> bool:
    """True iff the feedback contracts, i.e. g sin(phi) < 0."""
    return params.g * math.sin(params.phi) < 0.0


def stationary_moments(params) -> StationaryMoments:
    """Closed-form stationary Gaussian moments (zeta, mu) of the fed-back mode.

    This is the exact fixed point of the closed moment system of
    moment_fixed_point, written out; the two agree to rounding at any
    Gamma/nu, Gamma > nu included. In the trap-dominated regime
    nu >> Gamma they satisfy zeta ~ N and mu ~ 0.
    """
    if not stability(params):
        raise Unstable("stationary moments need the contraction condition g sin(phi) < 0")
    return _stationary_moments(params)


def _stationary_moments(params, bp: BathParams | None = None) -> StationaryMoments:
    """stationary_moments past its stability check.

    A caller that holds bath_params(params) passes it as bp, so the
    reservoir is computed once; the nu check still comes first.
    """
    if params.nu == 0.0:
        raise ValueError("stationary moments need nu > 0")
    if bp is None:
        bp = bath_params(params)
    gs = params.g * math.sin(params.phi)
    re_m = bp.M.real
    im_m = bp.M.imag
    try:
        four_nu2 = 4.0 * params.nu**2
    except OverflowError:
        raise ValueError(f"nu = {params.nu!r} is too large: nu^2 overflows") from None
    if four_nu2 == 0.0:
        raise ValueError(f"nu = {params.nu!r} is too small: 4 nu^2 underflows to zero")
    zeta = (
        bp.N * (gs**2 + four_nu2)
        + gs * (2.0 * params.nu * im_m - gs * re_m)
        + 0.5 * gs**2
    ) / four_nu2
    mu_re = (
        bp.Gamma
        * ((bp.N + 0.5) * gs + bp.Gamma * re_m + 2.0 * params.nu * im_m)
        / four_nu2
    )
    mu_im = (gs / (2.0 * params.nu)) * (re_m - (bp.N + 0.5))
    if not (math.isfinite(zeta) and math.isfinite(mu_re) and math.isfinite(mu_im)):
        raise ValueError(
            f"stationary moments out of floating range (zeta = {zeta:.3g}) at N = {bp.N:.3g}, "
            f"nu = {params.nu!r}, g sin(phi) = {gs!r}"
        )
    if zeta < 0.0:
        raise Unstable("negative stationary occupancy signals a runaway parameter set")
    return StationaryMoments(zeta=zeta, mu=complex(mu_re, mu_im))


def moment_fixed_point(params) -> StationaryMoments:
    """Exact fixed point of the closed (<a'a>, <a^2>) moment system.

    The unconditioned master equation closes on n = <a'a> and m = <a^2>:

        dn/dt = -Gamma (n - N) - Gamma Re m
        dm/dt = -(Gamma + 2 i nu) m + Gamma (M - n - 1/2)

    This solves that linear system by eliminating m, with no expansion
    in Gamma/nu. stationary_moments writes out the same exact fixed point,
    so this is an independent route to it, not a more accurate one.
    """
    if not stability(params):
        raise Unstable("the moment system contracts only when g sin(phi) < 0")
    bp = bath_params(params)
    pole = bp.Gamma + 2j * params.nu
    # m(n) = offset - slope * n, then n = N - Re m(n) is linear in n
    offset = bp.Gamma * (bp.M - 0.5) / pole
    slope = bp.Gamma / pole
    n = (bp.N - offset.real) / (1.0 - slope.real)
    m = offset - slope * n
    return StationaryMoments(zeta=n, mu=m)


def optimal_gain(params) -> tuple:
    """Closed-form optimal gain and the occupancy floor it reaches.

    Minimizes the effective occupancy N over the gain at the reference
    phase |sin phi| = 1. Returns (g_opt, n_min) with

        g_opt = 4 sqrt((gamma_h + m/4) eta m / 4),  m = chi^2 / kappa
        n_min = ((sqrt(1 + 4 kappa gamma_h / chi^2) / sqrt eta) - 1) / 2
    """
    if params.chi <= 0.0:
        raise ValueError("optimal gain needs chi > 0")
    m_rate = params.measurement_rate
    quarter = m_rate / 4.0
    g_opt = 4.0 * math.sqrt((params.gamma_h + quarter) * params.eta * quarter)
    n_min = 0.5 * (
        math.sqrt((1.0 + 4.0 * params.kappa * params.gamma_h / params.chi**2) / params.eta)
        - 1.0
    )
    return g_opt, n_min


def wigner_covariance(m: StationaryMoments) -> WignerEllipse:
    """Phase-space covariance and 1/sqrt(e) contour ellipse of a Gaussian state.

    For a zero-mean Gaussian state with <a'a> = zeta and <a^2> = mu:

        sigma_xx = (1 + 2 zeta + 2 Re mu) / 4
        sigma_pp = (1 + 2 zeta - 2 Re mu) / 4
        sigma_xp = Im(mu) / 2

    The contour where the Wigner function falls to 1/sqrt(e) of its peak
    is the quadratic form q^T Sigma^{-1} q = 1.
    """
    sxx = (1.0 + 2.0 * m.zeta + 2.0 * m.mu.real) / 4.0
    spp = (1.0 + 2.0 * m.zeta - 2.0 * m.mu.real) / 4.0
    sxp = m.mu.imag / 2.0
    half_tr = 0.5 * (sxx + spp)
    disc = math.hypot(0.5 * (sxx - spp), sxp)
    lam_max = half_tr + disc
    lam_min = half_tr - disc
    if not lam_min > 0.0:  # fails closed on the NaN that overflowing moments leave
        raise NonPositiveCovariance(
            f"covariance eigenvalues ({lam_max:.3e}, {lam_min:.3e}) of zeta = {m.zeta:.3g}, "
            f"mu = {m.mu:.3g} are not both positive"
        )
    tilt = 0.5 * math.atan2(2.0 * sxp, sxx - spp)
    return WignerEllipse(
        sigma_xx=sxx,
        sigma_pp=spp,
        sigma_xp=sxp,
        semi_axes=(math.sqrt(lam_max), math.sqrt(lam_min)),
        tilt=tilt,
    )


def contour_polyline(e: WignerEllipse, n_points: int) -> list:
    """Sample the ellipse boundary as a closed polyline.

    Returns n_points (x, p) pairs starting on the major axis; the closing
    point equal to the first is not repeated. Needs at least 4 points.
    """
    if n_points < 4:
        raise ValueError("n_points must be at least 4")
    a, b = e.semi_axes
    ct = math.cos(e.tilt)
    st = math.sin(e.tilt)
    pts = []
    for k in range(n_points):
        t = 2.0 * math.pi * k / n_points
        u = a * math.cos(t)
        v = b * math.sin(t)
        pts.append((ct * u - st * v, st * u + ct * v))
    return pts

