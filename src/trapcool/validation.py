"""Self-checks behind the validate command.

Every check compares two independent routes to the same physical number:
closed forms against kernel solves, trajectory ensembles against master
equations, bipartite generators and steady states against the eliminated
model. The fast level runs the closed-form and small-dimension checks,
the projected bipartite generators among them; the full level adds the
time integrations, the trajectory ensemble and the bipartite steady
states. Both meter models, the resonant two-level meter and the detuned
field mode, go through one helper, elimination_agreement, and one check
body; the registry keeps a named entry for each.
"""
import dataclasses
import functools
import math
import time
import warnings
from typing import NamedTuple

import numpy as np

from . import gaussian
from .errors import SimulationError
from .hilbert import (
    FockBasisSpec,
    annihilation,
    coherent_state,
    expectation,
    fock_state,
    number_op,
    quadrature,
    tensor,
    thermal_state,
    trace_norm,
)
from .models import (
    SystemParams,
    Superoperator,
    _meter,
    adiabatic_expansion_residual,
    hamiltonian_term,
    heating_liouvillian,
    offresonant_full_liouvillian,
    reduced_feedback_liouvillian,
    resonant_full_liouvillian,
)
from .scenario import ScenarioConfig
from .sme import (
    IntegratorConfig,
    _certified_min_eig,
    _growing_rate,
    _real_form,
    ensemble_mean,
    integrate_lindblad,
    run_trajectory,
    steady_state,
)

HALF_PI = math.pi / 2.0

# trajectory-ensemble workload; sized for the consistency target of
# 3 standard errors at 20 checkpoints
ENSEMBLE_TRAJECTORIES = 200
ENSEMBLE_T_FINAL = 4.0
ENSEMBLE_SEED = 31415
ENSEMBLE_CHECKPOINTS = 20


class EliminationSet(NamedTuple):
    """One operating point for the fast-meter elimination checks.

    drive_x displaces the stationary state off the origin so that <X>
    carries a signal; the slow rates scale with chi so the two sets
    differ only in the meter-speed ratio chi/kappa.
    """

    params: SystemParams
    drive_x: float


ELIMINATION_SETS = (
    EliminationSet(
        SystemParams(chi=1.0, kappa=20.0, gamma_h=1e-3, eta=0.9,
                     nu=0.12, g=0.04, phi=-HALF_PI),
        -0.024,
    ),
    EliminationSet(
        SystemParams(chi=0.5, kappa=20.0, gamma_h=5e-4, eta=0.9,
                     nu=0.06, g=0.02, phi=-HALF_PI),
        -0.012,
    ),
)


@dataclasses.dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    detail: str
    seconds: float


def _rel(a, b):
    return abs(a - b) / max(abs(a), abs(b), 1e-300)


# ---------------------------------------------------------------- helpers
# shared by the registry below and by the acceptance tests


def relaxation_agreement() -> dict:
    """Integrate the fed-back master equation from vacuum to its plateau.

    The trap is slowed to nu = 18.75 at n_trunc = 30 and integrated to
    t = 14.25. Returns the integrated occupancy and squeezing moment next
    to the closed-form stationary values, plus the worst per-step
    positivity and trace excursions seen on the way. The step dt = 7.5e-4
    keeps the one-step map contractive on the fastest coherence band
    (nu * n_trunc * dt well below one radian), not just accurate on the
    low moments.
    """
    params = ScenarioConfig(nu=18.75).system_params()
    spec = FockBasisSpec(n_trunc=30)
    fp = gaussian.stationary_moments(params)
    L = reduced_feedback_liouvillian(params, spec)
    cfg = IntegratorConfig(dt=7.5e-4, t_final=14.25, tail_guard=1e-6)
    worst = {"min_eig": 0.0, "trace_dev": 0.0}

    def watch(_t, r):
        worst["min_eig"] = _certified_min_eig(r, worst["min_eig"])
        worst["trace_dev"] = max(worst["trace_dev"], abs(float(np.trace(r).real) - 1.0))

    out = integrate_lindblad(L, fock_state(spec, 0), cfg, rates=params.step_rates, callback=watch)
    a = annihilation(spec)
    return {
        "n_obs": expectation(out, number_op(spec)).real,
        "zeta": fp.zeta,
        "mu_obs": expectation(out, a @ a),
        "mu": fp.mu,
        "min_eig": worst["min_eig"],
        "trace_dev": worst["trace_dev"],
    }


def ensemble_agreement() -> dict:
    """Feedback-trajectory ensemble against the feedback master equation.

    Both sides start from the same thermal state and use the same step;
    the comparison is on <a'a>(t) at evenly spaced checkpoints, in units
    of the ensemble standard error. The trap is slowed to nu = 2 so the
    Euler unraveling stays contractive on every coherence band at a step
    that keeps two hundred trajectories affordable.
    """
    params = ScenarioConfig(nu=2.0, n0=1.5).system_params()
    spec = FockBasisSpec(n_trunc=26, tail_tolerance=3e-4)
    dt = 2e-3
    cfg = IntegratorConfig(dt=dt, t_final=ENSEMBLE_T_FINAL, seed=ENSEMBLE_SEED,
                           tail_guard=3e-4)
    records = [
        run_trajectory(params, spec, cfg, traj_index=i)
        for i in range(ENSEMBLE_TRAJECTORIES)
    ]
    ens = ensemble_mean(records)
    n_steps = cfg.n_steps
    n_mat = number_op(spec)
    ref = np.empty(n_steps + 1)
    rho0 = thermal_state(spec, params.n0)
    ref[0] = float((n_mat * rho0.matrix.T).sum().real)

    def keep(t, r):
        ref[int(round(t / dt))] = float((n_mat * r.T).sum().real)

    L = reduced_feedback_liouvillian(params, spec)
    integrate_lindblad(L, rho0, cfg, rates=params.step_rates, callback=keep)
    stride = n_steps // ENSEMBLE_CHECKPOINTS
    idx = [j * stride for j in range(1, ENSEMBLE_CHECKPOINTS + 1)]
    diffs = np.array([ens.n_mean[k] - ref[k] for k in idx])
    ses = np.array([ens.n_se[k] for k in idx])
    return {
        "diffs": diffs,
        "ses": ses,
        "z_max": float(np.max(np.abs(diffs) / ses)),
        "min_eig": min(r.min_eig for r in records),
        "uncertainty_min": min(r.uncertainty_min for r in records),
        "n_traj": ENSEMBLE_TRAJECTORIES,
    }


def elimination_agreement(es: EliminationSet, n_vib: int, n_field: int | None = None) -> dict:
    """Bipartite steady state against the eliminated model.

    n_field = None watches the vibration (levels 0..n_vib) with the
    resonant two-level meter; an integer n_field with the detuned field
    mode on levels 0..n_field. The meter dimension, L.dim // spec.dim,
    sets the steady state's tail block and the expansion residual's meter.
    """
    spec = FockBasisSpec(n_trunc=n_vib)
    if n_field is None:
        L = resonant_full_liouvillian(es.params, spec, include_feedback=True,
                                      drive_x=es.drive_x)
    else:
        L = offresonant_full_liouvillian(es.params, spec, FockBasisSpec(n_trunc=n_field),
                                         include_feedback=True, drive_x=es.drive_x)
    meter_dim = L.dim // spec.dim
    joint = steady_state(L, tail_block=meter_dim)
    id_m = np.eye(meter_dim)
    reduced = steady_state(
        reduced_feedback_liouvillian(es.params, spec, drive_x=es.drive_x)
    )
    return {
        "x_full": expectation(joint, tensor(quadrature(spec, "position"), id_m)).real,
        "n_full": expectation(joint, tensor(number_op(spec), id_m)).real,
        "x_reduced": expectation(reduced, quadrature(spec, "position")).real,
        "n_reduced": expectation(reduced, number_op(spec)).real,
        "residual": adiabatic_expansion_residual(joint, es.params, meter_dim),
    }


def _projected_generator(full: Superoperator, d: int, kappa: float) -> np.ndarray:
    """Second-order projection of a bipartite generator onto the vibration.

    L_eff = PVP - PVQ L_m^# QVP with P = |rest><rest| (x) Tr_m, applied as
    L_eff rho = Tr_m(L y) + Tr_m(L (-L_m^# Q L y)) for y = rho (x) |rest><rest|:
    the meter decay's parts drop out of both terms, because rest is its
    kernel and it preserves the trace. Returns the d^2 x d^2 matrix on
    column-stacked vibrational states.
    """
    m = full.dim // d
    n = d * m
    _, rest, respond = _meter(m, kappa)

    def joint(v):  # one column-stacked joint state per column -> tensors [i, a, j, b, column]
        return v.reshape(n, n, -1, order="F").reshape(d, m, d, m, -1)

    def traced(v):  # Tr_m of each column, column-stacked on the vibration
        return np.einsum("iaja...->ij...", joint(v)).reshape(d * d, -1, order="F")

    # L y for y = E_kl (x) |rest><rest|, one column per vibrational coordinate k + d l
    k, l = np.divmod(np.arange(d * d), d)[::-1]
    ly = full.csr[:, (k * m + rest) + n * (l * m + rest)].toarray()
    response = respond(joint(ly)).reshape(n, n, -1).reshape(n * n, -1, order="F")
    return traced(ly) + traced(full.csr @ response)


# ---------------------------------------------------------------- checks


def _check_formula_vs_kernel():
    params = ScenarioConfig().system_params()
    ms = gaussian.stationary_moments(params)
    spec = FockBasisSpec(n_trunc=20)
    # direct assembly shares no code with the closed-form rates
    rho = steady_state(reduced_feedback_liouvillian(params, spec, route="direct"))
    n_obs = expectation(rho, number_op(spec)).real
    rel = _rel(n_obs, ms.zeta)
    return rel < 1e-3, (
        f"kernel <a'a> = {n_obs:.8f} vs formula zeta = {ms.zeta:.8f} "
        f"(rel dev {rel:.2e}, bound 1e-3)"
    )


def _check_route_agreement():
    params = ScenarioConfig(nu=18.75, phi=-2.2).system_params()
    spec = FockBasisSpec(n_trunc=20)
    rho_sq = steady_state(reduced_feedback_liouvillian(params, spec))
    rho_di = steady_state(reduced_feedback_liouvillian(params, spec, route="direct"))
    dist = trace_norm(rho_sq.matrix - rho_di.matrix)
    return dist < 1e-8, (
        f"squeezed-bath vs direct steady states differ by {dist:.2e} "
        "in trace norm (bound 1e-8)"
    )


def _check_moment_fixed_point():
    worst = 0.0
    for params in (
        ScenarioConfig().system_params(),
        ScenarioConfig(nu=18.75).system_params(),
        ELIMINATION_SETS[0].params,
    ):
        bp = gaussian.bath_params(params)
        pole = bp.Gamma + 2j * params.nu
        for fp in (gaussian.moment_fixed_point(params), gaussian.stationary_moments(params)):
            r1 = abs(-bp.Gamma * (fp.zeta - bp.N) - bp.Gamma * fp.mu.real)
            r2 = abs(-pole * fp.mu + bp.Gamma * (bp.M - 0.5) - bp.Gamma * fp.zeta)
            scale = max(1.0, bp.Gamma * (1.0 + fp.zeta + abs(fp.mu)))
            worst = max(worst, r1 / scale, r2 / scale)
    return worst < 1e-10, (
        f"moment-flow residual at the closed-form fixed point: {worst:.2e} "
        "(bound 1e-10)"
    )


def _check_gain_optimum():
    params = ScenarioConfig().system_params()
    g_opt, n_min = gaussian.optimal_gain(params)
    grid = np.exp(np.linspace(math.log(g_opt / 30.0), math.log(30.0 * g_opt), 801))
    best_g, best_n = None, math.inf
    for g in grid:
        trial = dataclasses.replace(params, g=float(g))
        n_eff = gaussian.bath_params(trial).N
        if n_eff < best_n:
            best_g, best_n = float(g), n_eff
    ok = best_n >= n_min - 1e-12 and (best_n - n_min) <= 1e-3 * n_min
    ok = ok and abs(math.log(best_g / g_opt)) <= math.log(grid[1] / grid[0]) + 1e-12
    return ok, (
        f"scan minimum N = {best_n:.6f} at g = {best_g:.6f} vs closed form "
        f"n_min = {n_min:.6f} at g_opt = {g_opt:.6f} (0.1% bound)"
    )


def _check_contour_geometry():
    params = ScenarioConfig().system_params()
    ground = gaussian.wigner_covariance(gaussian.StationaryMoments(zeta=0.0, mu=0.0))
    thermal = gaussian.wigner_covariance(
        gaussian.StationaryMoments(zeta=params.n0, mu=0.0)
    )
    fed = gaussian.wigner_covariance(gaussian.stationary_moments(params))
    ok = abs(ground.semi_axes[0] - 0.5) < 1e-12
    ok = ok and abs(thermal.semi_axes[0] - math.sqrt(5.25)) < 1e-3
    excess = fed.semi_axes[0] / 0.5 - 1.0
    ok = ok and 0.0 < excess <= 0.06 and fed.semi_axes[1] > 0.5
    return ok, (
        f"ground radius {ground.semi_axes[0]:.6f}, thermal radius "
        f"{thermal.semi_axes[0]:.6f}, feedback ellipse exceeds the ground "
        f"circle by {100.0 * excess:.2f}% (bound 6%)"
    )


def _check_rotation_accuracy():
    nu = 1.0
    spec = FockBasisSpec(n_trunc=10)
    L = Superoperator(hamiltonian_term(nu * number_op(spec)))
    cfg = IntegratorConfig(dt=math.pi / 6000.0, t_final=2.0 * math.pi, tail_guard=1e-6)
    out = integrate_lindblad(L, coherent_state(spec, 0.5), cfg, rates=(nu,))
    err = abs(expectation(out, annihilation(spec)) - 0.5)
    return err < 1e-6, (
        f"coherent amplitude after one full trap period off by {err:.2e} "
        "(bound 1e-6)"
    )


def _check_heating_ramp():
    gamma_h = 0.2
    spec = FockBasisSpec(n_trunc=40)
    L = heating_liouvillian(spec, gamma_h)
    cfg = IntegratorConfig(dt=0.01, t_final=1.0, tail_guard=1e-6)
    out = integrate_lindblad(L, fock_state(spec, 0), cfg, rates=(gamma_h,))
    n_obs = expectation(out, number_op(spec)).real
    rel = _rel(n_obs, gamma_h * 1.0)
    return rel < 1e-6, (
        f"heating ramp reached <a'a> = {n_obs:.8f} vs gamma_h t = {gamma_h:.8f} "
        f"(rel dev {rel:.2e}, bound 1e-6)"
    )


def property_grid() -> list:
    """The documented stable-parameter grid used by the property suites.

    Axes: chi/kappa in [0.01, 0.2], gamma_h relative to the back-action
    floor chi^2/4kappa in [0.05, 10], eta in [0.1, 1], nu/|g| in
    [100, 1e6], phi = -pi/2. The gain is tied to the measurement rate
    (g = chi^2/kappa) so every set is stable. Absolute scale: kappa = 20
    in common rate units.

    The trap-frequency floor and the nonzero heating floor keep every set
    inside the regime where the stationary quadrature-variance lower bound
    of 1/4 actually holds: the bound is violated at order Gamma/nu on the
    ideal line N = 0 (perfect detection, no heating, any finite nu), which
    the limit-formula tests cover instead.
    """
    kappa = 20.0
    sets = []
    with warnings.catch_warnings():
        # the grid deliberately includes strained couplings up to chi/kappa = 0.2
        warnings.simplefilter("ignore", UserWarning)
        for ratio in (0.01, 0.05, 0.1, 0.2):
            chi = ratio * kappa
            floor = chi**2 / (4.0 * kappa)
            for rel_heat in (0.05, 0.3, 1.0, 3.0, 10.0):
                gamma_h = rel_heat * floor
                for eta in (0.1, 0.4, 0.7, 1.0):
                    g = chi**2 / kappa
                    for trap_ratio in (100.0, 10_000.0, 1_000_000.0):
                        sets.append(
                            SystemParams(
                                chi=chi,
                                kappa=kappa,
                                gamma_h=gamma_h,
                                eta=eta,
                                nu=trap_ratio * g,
                                g=g,
                                phi=-math.pi / 2.0,
                            )
                        )
    return sets


def _check_property_grid():
    sets = property_grid()
    worst_floor = math.inf
    for params in sets:
        bp = gaussian.bath_params(params)
        if not bp.is_physical:
            return False, f"unphysical squeezing at {params}"
        if not gaussian.stability(params):
            return False, f"contraction condition violated at {params}"
        ell = gaussian.wigner_covariance(gaussian.stationary_moments(params))
        lam_min = ell.semi_axes[1] ** 2
        worst_floor = min(worst_floor, lam_min)
        if lam_min < 0.25 - 1e-9:
            return False, f"covariance eigenvalue {lam_min} below 1/4 at {params}"
        sxx_pred = (1.0 + 2.0 * bp.N) / 4.0
        if _rel(ell.sigma_xx, sxx_pred) > 1e-10:
            return False, f"sigma_xx identity broken at {params}"
    # generator side of the stability equivalence, spot-checked on a small
    # basis; on a truncated space the expanding flow shows up as population
    # piling onto the edge, which the steady-state solver flags. The grid
    # corners reach N of a few, so the basis must hold a warm thermal state.
    spec = FockBasisSpec(n_trunc=24)
    for params in (sets[0], sets[-1]):
        L = reduced_feedback_liouvillian(params, spec)
        if _growing_rate(L, _real_form(L)[0]) is not None:
            return False, f"stable parameters with growing mode at {params}"
        steady_state(L)  # raises if the kernel state is not interior
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # the corner set re-warns on replace
        flipped = dataclasses.replace(sets[-1], phi=+HALF_PI)
    try:
        steady_state(reduced_feedback_liouvillian(flipped, spec))
    except SimulationError:
        pass
    else:
        return False, "sign-flipped feedback still relaxed to an interior state"
    return True, (
        f"{len(sets)} parameter sets: physical squeezing, contraction, "
        f"sigma_xx identity, covariance floor (worst eigenvalue {worst_floor:.9f} "
        ">= 1/4 - 1e-9)"
    )


def _check_relaxation_to_formula():
    res = relaxation_agreement()
    n_rel = _rel(res["n_obs"], res["zeta"])
    mu_abs = abs(res["mu_obs"] - res["mu"])
    ok = n_rel < 0.01 and mu_abs < 1e-3
    ok = ok and res["min_eig"] >= -1e-9 and res["trace_dev"] <= 1e-10
    return ok, (
        f"integrated <a'a> off by {100.0 * n_rel:.3f}% (bound 1%), <a^2> off by "
        f"{mu_abs:.2e} (bound 1e-3); per-step min eigenvalue {res['min_eig']:.2e}, "
        f"trace deviation {res['trace_dev']:.2e}"
    )


def _check_trajectory_ensemble():
    res = ensemble_agreement()
    ok = res["z_max"] < 3.0
    ok = ok and res["min_eig"] >= -1e-6
    ok = ok and res["uncertainty_min"] >= 1.0 / 16.0 - 1e-6
    return ok, (
        f"{res['n_traj']} trajectories, {len(res['diffs'])} checkpoints: largest "
        f"deviation {res['z_max']:.2f} SE (bound 3 SE); SE range "
        f"[{float(np.min(res['ses'])):.2e}, {float(np.max(res['ses'])):.2e}]; "
        f"conditioned min eigenvalue {res['min_eig']:.2e}"
    )


def _check_projected_generator():
    # the reduced builders are the bipartite ones with the meter projected
    # out, exactly, at every nu and chi/kappa. Elements that touch the top
    # Fock level are left out: the squeezed-bath route truncates differently there
    spec = FockBasisSpec(n_trunc=8)
    d = spec.dim
    interior = (np.arange(d * d) % d < d - 1) & (np.arange(d * d) // d < d - 1)
    worst = 0.0
    for params in (ScenarioConfig().system_params(), ScenarioConfig(nu=18.75, phi=-2.2).system_params()):
        reduced = [
            reduced_feedback_liouvillian(params, spec, route=route, drive_x=0.3).csr.toarray()[np.ix_(interior, interior)]
            for route in ("squeezed_bath", "direct")
        ]
        for full in (
            resonant_full_liouvillian(params, spec, include_feedback=True, drive_x=0.3),
            offresonant_full_liouvillian(params, spec, FockBasisSpec(n_trunc=3),
                                         include_feedback=True, drive_x=0.3),
        ):
            eff = _projected_generator(full, d, params.kappa)[np.ix_(interior, interior)]
            for red in reduced:
                worst = max(worst, float(np.max(np.abs(eff - red)) / np.max(np.abs(red))))
    return worst < 1e-12, (
        "reduced generator against the projected bipartite one, both meters and "
        f"both routes, two parameter sets: largest deviation {worst:.2e} of max |L| "
        "(bound 1e-12)"
    )


def _check_elimination(n_vib, n_field, label):
    thick, thin = (elimination_agreement(es, n_vib, n_field) for es in ELIMINATION_SETS)
    ratio = thick["residual"] / thin["residual"]
    ok = ratio >= 3.0 and all(
        _rel(res[f"{q}_full"], res[f"{q}_reduced"]) < 0.05 for res in (thin, thick) for q in "xn"
    )
    detail = (
        f"{label}: <X> {thick['x_full']:.5f} vs {thick['x_reduced']:.5f}, "
        f"<a'a> {thick['n_full']:.5f} vs {thick['n_reduced']:.5f} (5% bounds); "
        f"expansion residual shrinks {ratio:.1f}x when chi/kappa halves "
        "(bound 3x)"
    )
    return ok, detail


CHECKS = (
    ("formula_vs_kernel", "fast", _check_formula_vs_kernel),
    ("route_agreement", "fast", _check_route_agreement),
    ("moment_fixed_point", "fast", _check_moment_fixed_point),
    ("gain_optimum", "fast", _check_gain_optimum),
    ("contour_geometry", "fast", _check_contour_geometry),
    ("rotation_accuracy", "fast", _check_rotation_accuracy),
    ("heating_ramp", "fast", _check_heating_ramp),
    ("property_grid", "fast", _check_property_grid),
    ("projected_generator", "fast", _check_projected_generator),
    ("relaxation_to_formula", "full", _check_relaxation_to_formula),
    ("trajectory_ensemble", "full", _check_trajectory_ensemble),
    ("resonant_elimination", "full", functools.partial(_check_elimination, 25, None, "resonant meter")),
    ("offresonant_elimination", "full", functools.partial(_check_elimination, 13, 3, "detuned field")),
)


def run_checks(level: str) -> list:
    """Run the registry at the given level; a crashed check is a failed check."""
    if level not in ("fast", "full"):
        raise ValueError("level must be 'fast' or 'full'")
    results = []
    for name, tier, fn in CHECKS:
        if tier == "full" and level != "full":
            continue
        start = time.perf_counter()
        try:
            passed, detail = fn()
        except Exception as err:
            passed, detail = False, f"raised {type(err).__name__}: {err}"
        results.append(CheckResult(name, passed, detail, time.perf_counter() - start))
    return results
