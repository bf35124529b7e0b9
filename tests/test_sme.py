"""Integrators and the conditioned unraveling: steps, kicks, trajectories."""
import math
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.sparse
import scipy.sparse.linalg

from trapcool.errors import (
    DimensionMismatch,
    NotUnique,
    StepTooLarge,
    TailTooHeavy,
    Unstable,
)
from trapcool.gaussian import stationary_moments
from trapcool.hilbert import (
    DenseOperator,
    FockBasisSpec,
    annihilation,
    coherent_state,
    expectation,
    fock_state,
    number_op,
    quadrature,
    thermal_state,
    trace_norm,
    two_level_ops,
)
from trapcool.models import (
    StepRates,
    Superoperator,
    SystemParams,
    dissipator,
    hamiltonian_term,
    heating_liouvillian,
    left_mult,
    offresonant_full_liouvillian,
    reduced_feedback_liouvillian,
    reduced_measurement_liouvillian,
    resonant_full_liouvillian,
)
from trapcool import sme
from trapcool.sme import (
    HomodyneStepper,
    IntegratorConfig,
    TrajectoryRecord,
    enforce_step_limit,
    ensemble_mean,
    integrate_lindblad,
    run_trajectory,
    steady_state,
)

HALF_PI = math.pi / 2.0


def slow_trap_params(**overrides):
    """Headline rates with the trap slowed to nu = 2 so stepping stays cheap."""
    base = dict(
        chi=4.0, kappa=40.0, gamma_h=0.01, eta=0.9, nu=2.0, g=0.375, phi=-HALF_PI, n0=0.5
    )
    base.update(overrides)
    return SystemParams(**base)


def test_step_limit_thresholds():
    with pytest.raises(StepTooLarge):
        enforce_step_limit(0.011, (10.0,))
    with pytest.warns(UserWarning):
        enforce_step_limit(0.003, (10.0,))
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        enforce_step_limit(0.002, (10.0,))  # exactly the advisory boundary
        enforce_step_limit(0.5, ())


def test_step_limit_names_the_rate_that_sets_the_maximum():
    rates = StepRates(nu=2.0, gamma_h=0.01, measurement=0.4, damping=0.375, feedback_noise=90.0)
    with pytest.raises(StepTooLarge, match=r"^dt \* max rate \(feedback_noise\) = 0\.18 exceeds"):
        enforce_step_limit(2e-3, rates)
    with pytest.warns(UserWarning, match=r"^dt \* max rate \(nu\) = 0\.03 is above"):
        enforce_step_limit(0.015, rates._replace(feedback_noise=0.0))
    # a plain tuple has no field names, so the line names none
    with pytest.raises(StepTooLarge, match=r"^dt \* max rate = 0\.18 exceeds"):
        enforce_step_limit(2e-3, tuple(rates))


def test_integrator_config_validation():
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.0, t_final=1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_final=-1.0)
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_final=1.0, seed=-3)
    # SeedSequence would raise an untyped TypeError on a float seed
    for seed in (1.5, 2.0**63, 0.0):
        with pytest.raises(ValueError, match="seed"):
            IntegratorConfig(dt=0.1, t_final=1.0, seed=seed)
    assert IntegratorConfig(dt=0.1, t_final=1.0, seed=np.uint64(2**64 - 1)).seed == 2**64 - 1
    with pytest.raises(ValueError):
        IntegratorConfig(dt=0.1, t_final=1.0, tail_guard=2.0)
    # non-finite values fail closed, each naming its field
    for field, bad in (("dt", dict(dt=math.nan, t_final=1.0)),
                       ("dt", dict(dt=math.inf, t_final=1.0)),
                       ("t_final", dict(dt=0.1, t_final=math.nan)),
                       ("t_final", dict(dt=0.1, t_final=math.inf))):
        with pytest.raises(ValueError, match=field):
            IntegratorConfig(**bad)
    assert IntegratorConfig(dt=0.1, t_final=1.05).n_steps == 10


def test_heun_holds_phase_over_a_full_rotation():
    nu = 1.0
    spec = FockBasisSpec(n_trunc=10)
    L = Superoperator(hamiltonian_term(nu * number_op(spec)))
    rho0 = coherent_state(spec, 0.5)
    # dt divides t_final exactly: 12000 steps close the loop with no phase bias
    cfg = IntegratorConfig(dt=math.pi / 6000.0, t_final=2.0 * math.pi, tail_guard=1e-6)
    out = integrate_lindblad(L, rho0, cfg, rates=(nu,))
    amp = expectation(out, annihilation(spec))
    assert abs(amp - 0.5) < 1e-6


def test_real_basis_steps_match_the_complex_heun_loop():
    def reference(L, rho0, cfg):
        # complex Heun on the column-stacked state: step, hermitize,
        # check the trace, renormalize
        d = L.dim
        v = rho0.matrix.astype(complex).reshape(-1, order="F")
        for _ in range(cfg.n_steps):
            k1 = L.csr @ v
            k2 = L.csr @ (v + cfg.dt * k1)
            r = (v + (0.5 * cfg.dt) * (k1 + k2)).reshape(d, d, order="F")
            r = 0.5 * (r + r.conj().T)
            tr = float(np.trace(r).real)
            assert abs(tr - 1.0) <= 1e-7
            v = (r / tr).reshape(-1, order="F")
        return v.reshape(d, d, order="F")

    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=12)
    reduced = reduced_feedback_liouvillian(params, spec)
    meter_spec = FockBasisSpec(n_trunc=6)
    excited = np.zeros((2, 2), dtype=complex)
    excited[0, 0] = 1.0  # meter basis ordering [ |+>, |-> ]
    cases = (
        (reduced, fock_state(spec, 0), 1),
        (reduced, coherent_state(spec, 0.6), 1),
        (resonant_full_liouvillian(params, meter_spec, include_feedback=True),
         DenseOperator(np.kron(fock_state(meter_spec, 0).matrix, excited)), 2),
    )
    cfg = IntegratorConfig(dt=2e-3, t_final=0.5)
    outs = []
    for L, rho0, block in cases:
        seen = []

        def watch(t, r):
            assert np.array_equal(r, r.conj().T)
            assert abs(np.trace(r) - 1.0) <= 1e-13
            seen.append(t)

        out = integrate_lindblad(L, rho0, cfg, tail_block=block, callback=watch)
        assert len(seen) == cfg.n_steps
        ref = reference(L, rho0, cfg)
        assert np.abs(out.matrix - ref).max() <= 1e-13
        outs.append(out)
    # the reduced generators conserve the parity of i - j: a vacuum start
    # steps the even block alone and leaves the odd one exactly zero
    i, j = np.indices((spec.dim, spec.dim))
    assert np.all(outs[0].matrix[(i - j) % 2 == 1] == 0.0)
    G, T = sme._real_form(reduced)
    for rho0, count in ((fock_state(spec, 0), int(np.sum((i - j) % 2 == 0))),
                        (coherent_state(spec, 0.6), spec.dim**2)):
        c = (T.conj().T @ sme._vec(rho0.matrix)).real
        assert sme._reachable(G, c, spec.dim).size == count


def test_trace_violating_generator_is_caught():
    spec = FockBasisSpec(n_trunc=3)
    pump = Superoperator(0.1 * left_mult(np.eye(spec.dim)))  # d rho/dt = 0.1 rho
    cfg = IntegratorConfig(dt=1e-3, t_final=1.0)
    with pytest.raises(StepTooLarge):
        integrate_lindblad(pump, fock_state(spec, 0), cfg)


def test_runaway_population_is_caught():
    spec = FockBasisSpec(n_trunc=4)
    L = heating_liouvillian(spec, 0.5)
    cfg = IntegratorConfig(dt=1e-3, t_final=2.0)
    with pytest.raises(TailTooHeavy) as info:
        integrate_lindblad(L, fock_state(spec, 0), cfg, rates=(0.5,))
    assert info.value.tail > 1e-6


def test_nan_states_trip_the_step_guards():
    # NaN fails every comparison, so the guards are written to fail closed
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=14)
    rho = thermal_state(spec, params.n0)
    st = HomodyneStepper(params, spec)
    with pytest.raises(StepTooLarge):
        st.measure(rho.matrix, float("nan"), 2e-3, spec.tail_tolerance, st.mean(st.x, rho.matrix))
    L = reduced_feedback_liouvillian(params, spec)
    bad = np.array(rho.matrix)
    bad[2, 2] = np.nan
    cfg = IntegratorConfig(dt=2e-3, t_final=0.01)
    with pytest.raises(StepTooLarge):
        integrate_lindblad(L, DenseOperator(bad), cfg)
    # the reduced generators conserve the parity of i - j, so a NaN in an
    # odd-parity coherence never reaches the trace or the tail
    bad = np.array(rho.matrix)
    bad[0, 1] = bad[1, 0] = np.nan
    with pytest.raises(StepTooLarge, match="non-finite"):
        integrate_lindblad(L, DenseOperator(bad), IntegratorConfig(dt=2e-3, t_final=1.0))


def _two_stage_heun(G, c, dt):
    return c + (0.5 * dt) * (G @ c + G @ (c + dt * (G @ c)))


def test_one_increment_product_is_the_two_stage_heun_update():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=12)
    meter_spec = FockBasisSpec(n_trunc=6)
    excited = np.zeros((2, 2), dtype=complex)
    excited[0, 0] = 1.0
    cases = (
        (reduced_feedback_liouvillian(params, spec), coherent_state(spec, 0.6)),
        (resonant_full_liouvillian(params, meter_spec, include_feedback=True),
         DenseOperator(np.kron(coherent_state(meter_spec, 0.4).matrix, excited))),
    )
    for L, rho in cases:
        G, T = sme._real_form(L)
        c = (T.conj().T @ sme._vec(rho.matrix)).real
        for dt in (2e-3, 1e-2):
            K = sme._heun_increment(G, dt)
            assert np.abs((c + K @ c) - _two_stage_heun(G, c, dt)).max() <= 1e-14


def test_a_too_large_step_trips_the_trace_guard_where_the_two_stage_update_does():
    # a two-level decay at kappa dt = 4: Heun multiplies the decaying
    # population by 1 - 4 + 8 = 5 per step, so the trace, exact in exact
    # arithmetic, is lost to rounding once that population nears 1/eps
    d = 2
    low = np.zeros((d, d))
    low[1, 0] = 1.0
    L = Superoperator(40.0 * dissipator(low))
    rho = np.zeros((d, d), dtype=complex)
    rho[0, 0] = 1.0
    cfg = IntegratorConfig(dt=0.1, t_final=40.0, tail_guard=0.5)
    G, T = sme._real_form(L)
    c = (T.conj().T @ sme._vec(rho)).real
    for step in range(1, cfg.n_steps + 1):
        c = _two_stage_heun(G, c, cfg.dt)
        tr = float(c[:d].sum())
        if not abs(tr - 1.0) <= 1e-7:
            break
        c = c / tr
    assert step == 23
    with pytest.raises(StepTooLarge, match=f"at step {step};"):
        integrate_lindblad(L, DenseOperator(rho), cfg)


def test_an_overflowing_kernel_residual_is_typed_without_a_warning():
    # heating at 1e300 overflows the squares inside the residual norm
    params = slow_trap_params(gamma_h=1e300)
    L = reduced_feedback_liouvillian(params, FockBasisSpec(n_trunc=8), route="direct")
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnique, match="kernel residual inf exceeds 1e-10"):
            steady_state(L)


def test_tail_block_outside_the_basis_is_rejected():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=6)
    L = reduced_feedback_liouvillian(params, spec)
    rho = fock_state(spec, 0)
    cfg = IntegratorConfig(dt=2e-3, t_final=0.01)
    for block in (0, -1, spec.dim):
        with pytest.raises(ValueError, match="tail_block"):
            steady_state(L, tail_block=block)
        with pytest.raises(ValueError, match="tail_block"):
            integrate_lindblad(L, rho, cfg, tail_block=block)


def test_measurement_off_reduces_to_deterministic_step():
    params = slow_trap_params(chi=0.0, g=0.0)
    spec = FockBasisSpec(n_trunc=8)
    rho0 = coherent_state(spec, 0.3)
    dt = 1e-3
    st = HomodyneStepper(params, spec)
    out, dI = st.measure(rho0.matrix, 0.027, dt, spec.tail_tolerance, st.mean(st.x, rho0.matrix))
    assert dI == 0.0
    L = reduced_measurement_liouvillian(params, spec)
    v = rho0.matrix.reshape(-1, order="F")
    manual = (v + dt * (L.matrix @ v)).reshape(spec.dim, spec.dim, order="F")
    manual = 0.5 * (manual + manual.conj().T)
    manual = manual / np.trace(manual).real
    assert np.allclose(out, manual, atol=1e-14)


def test_zero_noise_step_is_an_euler_step_of_the_measurement_generator():
    # chi > 0 and gamma_h > 0, on a full-rank state that populates the top
    # Fock level, where a hand-written drift could part from the generator
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=8)
    rng = np.random.default_rng(7)
    m = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal((spec.dim, spec.dim))
    rho = m @ m.conj().T
    rho0 = DenseOperator(rho / np.trace(rho).real)
    dt = 1e-3
    st = HomodyneStepper(params, spec)
    out, _ = st.measure(rho0.matrix, 0.0, dt, 0.99, st.mean(st.x, rho0.matrix))
    L = reduced_measurement_liouvillian(params, spec)
    v = rho0.matrix.reshape(-1, order="F")
    manual = (v + dt * (L.matrix @ v)).reshape(spec.dim, spec.dim, order="F")
    manual = 0.5 * (manual + manual.conj().T)
    manual = manual / np.trace(manual).real
    assert np.allclose(out, manual, rtol=0.0, atol=1e-14)


def test_current_increment_formula():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=12)
    rho = coherent_state(spec, 0.3)  # <X> = 0.3
    dt, dW = 2e-3, 0.013
    _, dI = HomodyneStepper(params, spec).measure(rho.matrix, dW, dt, spec.tail_tolerance, 0.3)
    em = params.eta * params.measurement_rate
    expected = 2.0 * em * math.sin(params.phi) * 0.3 * dt + math.sqrt(em) * dW
    assert dI == pytest.approx(expected, rel=1e-12)


def test_noise_superoperator_at_quadrature_phase():
    # phi = -pi/2 collapses the innovation to sqrt(eta M)(X rho + rho X - 2<X> rho);
    # it is trace-free, so the noise shifts the renormalized update by exactly dW times it
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=10)
    st = HomodyneStepper(params, spec)
    rho = coherent_state(spec, 0.4).matrix
    x = quadrature(spec, "position")
    x_mean = float(np.trace(x @ rho).real)
    dt, dW = 1e-3, 0.05
    noisy, _ = st.measure(rho, dW, dt, spec.tail_tolerance, x_mean)
    quiet, _ = st.measure(rho, 0.0, dt, spec.tail_tolerance, x_mean)
    got = (noisy - quiet) / dW
    want = st.sqrt_eta_m * (x @ rho + rho @ x - 2.0 * x_mean * rho)
    assert np.allclose(got, want, atol=1e-14)


def test_measure_is_the_ito_euler_update_at_a_general_phase():
    # a phase off the quadrature keeps both the i e^{i phi} r X and the
    # -i e^{-i phi} X r terms, so a wrong phase or sign in either shows
    params = slow_trap_params(phi=-0.7)
    spec = FockBasisSpec(n_trunc=8)
    rng = np.random.default_rng(11)
    m = rng.standard_normal((spec.dim, spec.dim)) + 1j * rng.standard_normal((spec.dim, spec.dim))
    rho = m @ m.conj().T
    rho = rho / np.trace(rho).real
    x = quadrature(spec, "position")
    x_mean = float(np.trace(x @ rho).real)
    dt, dW = 1e-3, 0.021
    st = HomodyneStepper(params, spec)
    got, dI = st.measure(rho, dW, dt, 0.99, x_mean)
    L = reduced_measurement_liouvillian(params, spec).matrix
    sqrt_em = math.sqrt(params.eta * params.measurement_rate)
    e = np.exp(1j * params.phi)
    drift = (L @ rho.reshape(-1, order="F")).reshape(spec.dim, spec.dim, order="F")
    noise = sqrt_em * (
        1j * e * rho @ x - 1j * np.conj(e) * x @ rho + 2.0 * math.sin(params.phi) * x_mean * rho
    )
    want = rho + dt * drift + dW * noise
    want = 0.5 * (want + want.conj().T)
    want = want / np.trace(want).real
    assert np.allclose(got, want, rtol=0.0, atol=1e-14)
    assert dI == pytest.approx(
        2.0 * sqrt_em**2 * math.sin(params.phi) * x_mean * dt + sqrt_em * dW, rel=1e-12
    )
    # the five recorded moments, read in one product, are the traces tr(op rho)
    for op, value in zip((st.x, st.p, st.n_mat, st.x2, st.p2), st.moments(got)):
        assert abs(value - st.mean(op, got)) <= 1e-15
        assert abs(value - np.trace(op @ got).real) <= 1e-14


def test_zero_gain_kick_is_the_identity():
    # no measurement and no gain: the kick scale divides by eta chi^2/kappa = 0
    params = slow_trap_params(chi=0.0, g=0.0)
    spec = FockBasisSpec(n_trunc=8)
    rho = coherent_state(spec, 0.3).matrix
    out = HomodyneStepper(params, spec).kick(rho, 0.02, 1e-3)
    assert np.array_equal(out, rho)


def test_conditioned_mean_over_antithetic_pair_is_deterministic():
    # the innovation is trace-free and linear in dW, so a +-dW average undoes it
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=10)
    rho = coherent_state(spec, 0.2).matrix
    dt = 1e-4
    dW = math.sqrt(dt)
    st = HomodyneStepper(params, spec)
    plus, minus, base = (
        st.measure(rho, w, dt, spec.tail_tolerance, st.mean(st.x, rho))[0] for w in (dW, -dW, 0.0)
    )
    assert np.allclose(0.5 * (plus + minus), base, atol=1e-13)


def test_kick_matches_exact_momentum_exponential():
    params = slow_trap_params(g=0.12)
    spec = FockBasisSpec(n_trunc=15)
    rho = coherent_state(spec, 0.25)
    s = 0.3
    dI = -s * params.eta * params.measurement_rate / 2.0  # dt = 0: bare kick scale s
    kicked = HomodyneStepper(params, spec).kick(rho.matrix, dI, 0.0)
    p = quadrature(spec, "momentum")
    u = scipy.linalg.expm(-0.5j * params.g * s * p)
    want = u @ rho.matrix @ u.conj().T
    assert np.allclose(kicked, want, atol=1e-12)


def test_kick_displaces_position_linearly():
    # exp(-i (g/2) P s) shifts <X> by +g s/4
    params = slow_trap_params(g=0.12)
    spec = FockBasisSpec(n_trunc=15)
    vac = fock_state(spec, 0).matrix
    x = quadrature(spec, "position")
    st = HomodyneStepper(params, spec)
    for s in (-0.4, 0.15, 0.3):
        dI = -s * params.eta * params.measurement_rate / 2.0
        kicked = DenseOperator(st.kick(vac, dI, 0.0))
        assert expectation(kicked, x).real == pytest.approx(
            params.g * s / 4.0, rel=1e-9
        )


def test_zero_increment_on_centered_state_is_identity():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=8)
    vac = fock_state(spec, 0).matrix  # <X> = 0, so the mean correction vanishes too
    out = HomodyneStepper(params, spec).kick(vac, 0.0, 1e-3)
    assert np.allclose(out, vac, atol=1e-14)


def test_trajectory_is_deterministic_in_seed():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=10, tail_tolerance=1e-4)
    cfg = IntegratorConfig(dt=2e-3, t_final=0.1, seed=77, tail_guard=1e-4)
    rec1 = run_trajectory(params, spec, cfg)
    rec2 = run_trajectory(params, spec, cfg)
    assert np.array_equal(rec1.x_cond, rec2.x_cond)
    assert np.array_equal(rec1.current, rec2.current)
    assert np.array_equal(rec1.p_cond, rec2.p_cond)
    assert np.array_equal(rec1.n_cond, rec2.n_cond)
    other = run_trajectory(params, spec, cfg, traj_index=1)
    assert not np.array_equal(rec1.current, other.current)


def test_antithetic_noise_mirrors_the_trajectory():
    """Parity symmetry: flipping every dW reflects the conditioned state in X, P."""
    params = slow_trap_params(n0=0.0)
    spec = FockBasisSpec(n_trunc=10, tail_tolerance=1e-4)
    cfg = IntegratorConfig(dt=2e-3, t_final=0.05, seed=5, tail_guard=1e-4)
    plus = run_trajectory(params, spec, cfg)
    x, p, n, current, _, _ = _reference_trajectory(params, spec, cfg, antithetic=True)
    assert np.allclose(plus.x_cond, -x, atol=1e-10)
    assert np.allclose(plus.p_cond, -p, atol=1e-10)
    assert np.allclose(plus.n_cond, n, atol=1e-10)
    assert np.allclose(plus.current, -current, atol=1e-10)


def test_trajectory_states_stay_physical():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=12, tail_tolerance=1e-4)
    cfg = IntegratorConfig(dt=2e-3, t_final=1.0, seed=11, tail_guard=1e-4)
    rec = run_trajectory(params, spec, cfg)
    assert rec.min_eig >= -1e-6
    assert rec.uncertainty_min >= 1.0 / 16.0 - 1e-6
    assert rec.times.shape == rec.n_cond.shape
    assert rec.current[0] == 0.0


def _reference_trajectory(params, spec, cfg, *, antithetic=False):
    """run_trajectory by hand: stepper calls, eigvalsh at every step.

    The moments are read with HomodyneStepper.moments, as run_trajectory
    reads them, so the next measurement gets the same <X> to the last bit.
    antithetic flips the sign of every noise increment.
    """
    st = HomodyneStepper(params, spec)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(0,)))
    )
    rho = thermal_state(spec, params.n0).matrix
    rows = []  # <X>, <P>, <n>, <X^2>, <P^2>, lowest eigenvalue

    def record(r):
        rows.append(list(st.moments(r)) + [float(np.linalg.eigvalsh(r)[0])])

    record(rho)
    current = [0.0]
    for _ in range(cfg.n_steps):
        dW = math.sqrt(cfg.dt) * float(rng.standard_normal())
        if antithetic:
            dW = -dW
        rho, dI = st.measure(rho, dW, cfg.dt, cfg.tail_guard, rows[-1][0])
        if params.g != 0.0:
            rho = st.kick(rho, dI, cfg.dt)
        current.append(dI / cfg.dt)
        record(rho)
    x, p, n, x2, p2, low = np.array(rows).T
    return x, p, n, np.array(current), low, (x2 - x * x) * (p2 - p * p)


def test_certified_positivity_tracking_matches_an_eigvalsh_reference(monkeypatch):
    # seed 3 keeps lowering the minimum eigenvalue well after step 0 (it
    # lands at step 284 with feedback, 300 without), so a certificate that
    # let a new minimum through would change min_eig; with chi = 0 heating
    # only raises the top population and the minimum stays at step 0
    spec = FockBasisSpec(n_trunc=12, tail_tolerance=1e-4)
    cfg = IntegratorConfig(dt=2e-3, t_final=0.6, seed=3, tail_guard=1e-4)
    cases = (
        (slow_trap_params(), True),
        (slow_trap_params(g=0.0), True),
        (slow_trap_params(chi=0.0, g=0.0, gamma_h=0.2), False),
    )
    exact = np.linalg.eigvalsh
    calls = []

    def counted(a):
        calls.append(1)
        return exact(a)

    for params, falls_later in cases:
        x, p, n, current, low, unc = _reference_trajectory(params, spec, cfg)
        assert (int(np.argmin(low)) > 0) == falls_later
        calls.clear()
        monkeypatch.setattr(np.linalg, "eigvalsh", counted)
        rec = run_trajectory(params, spec, cfg)
        monkeypatch.setattr(np.linalg, "eigvalsh", exact)
        assert np.array_equal(rec.x_cond, x)
        assert np.array_equal(rec.p_cond, p)
        assert np.array_equal(rec.n_cond, n)
        assert np.array_equal(rec.current, current)
        assert rec.min_eig == low.min()
        assert rec.uncertainty_min == unc.min()
        # the exact eigenvalue is taken only where the certificate fails
        assert len(calls) < cfg.n_steps // 2


def test_unmonitored_ensemble_recovers_lindblad():
    """No feedback: trajectory averages must track the measurement master equation."""
    params = slow_trap_params(g=0.0)
    # unchecked position diffusion needs headroom over the feedback case
    spec = FockBasisSpec(n_trunc=16, tail_tolerance=1e-5)
    cfg = IntegratorConfig(dt=2e-3, t_final=1.0, seed=101, tail_guard=1e-5)
    records = [
        run_trajectory(params, spec, cfg, traj_index=i)
        for i in range(40)
    ]
    ens = ensemble_mean(records)
    L = reduced_measurement_liouvillian(params, spec)
    n_op = number_op(spec)
    rho = thermal_state(spec, params.n0)
    for k in (100, 250, 500):
        sub = IntegratorConfig(dt=cfg.dt, t_final=k * cfg.dt, tail_guard=1e-5)
        bench = integrate_lindblad(L, rho, sub, rates=(params.nu,))
        n_ref = expectation(bench, n_op).real
        margin = 4.0 * ens.n_se[k] + 5e-3  # sampling noise plus Euler bias
        assert abs(ens.n_mean[k] - n_ref) < margin


def test_feedback_ensemble_recovers_feedback_master_equation():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=14, tail_tolerance=1e-5)
    cfg = IntegratorConfig(dt=2e-3, t_final=1.0, seed=202, tail_guard=1e-5)
    records = [
        run_trajectory(params, spec, cfg, traj_index=i) for i in range(30)
    ]
    ens = ensemble_mean(records)
    L = reduced_feedback_liouvillian(params, spec)
    n_op = number_op(spec)
    rho = thermal_state(spec, params.n0)
    for k in (100, 250, 500):
        sub = IntegratorConfig(dt=cfg.dt, t_final=k * cfg.dt, tail_guard=1e-5)
        bench = integrate_lindblad(L, rho, sub, rates=(params.nu,))
        n_ref = expectation(bench, n_op).real
        margin = 4.0 * ens.n_se[k] + 5e-3
        assert abs(ens.n_mean[k] - n_ref) < margin
    # cooling is actually happening in the conditioned picture as well
    assert ens.n_mean[-1] < 0.8 * params.n0


def test_steady_state_handles_fast_trap_scales():
    # entries of the generator span four decades; refinement keeps the
    # kernel residual at the documented level
    params = slow_trap_params(nu=1000.0)
    spec = FockBasisSpec(n_trunc=20)
    rho = steady_state(reduced_feedback_liouvillian(params, spec))
    n_obs = expectation(rho, number_op(spec)).real
    assert n_obs == pytest.approx(stationary_moments(params).zeta, rel=2e-4)


def test_ensemble_mean_requires_compatible_records():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=12, tail_tolerance=1e-4)
    cfg = IntegratorConfig(dt=2e-3, t_final=0.02, seed=9, tail_guard=1e-4)
    rec = run_trajectory(params, spec, cfg)
    with pytest.raises(ValueError):
        ensemble_mean([rec])
    twin = run_trajectory(params, spec, cfg)
    ens = ensemble_mean([rec, twin])
    assert np.allclose(ens.n_mean, rec.n_cond)
    assert np.all(ens.n_se == 0.0)
    longer = IntegratorConfig(dt=2e-3, t_final=0.04, seed=9, tail_guard=1e-4)
    other = run_trajectory(params, spec, longer)
    with pytest.raises(DimensionMismatch):
        ensemble_mean([rec, other])


def test_trajectory_record_length_guard():
    with pytest.raises(ValueError):
        TrajectoryRecord(
            times=np.zeros(3),
            x_cond=np.zeros(3),
            p_cond=np.zeros(2),
            n_cond=np.zeros(3),
            current=np.zeros(3),
            min_eig=0.0,
            uncertainty_min=0.25,
        )


def _dense_kernel(L):
    """Replaced-row kernel system solved densely, independent of the package solver."""
    a = np.array(L.matrix)
    a[0, :] = np.eye(L.dim).reshape(-1, order="F")
    b = np.zeros(a.shape[0], dtype=complex)
    b[0] = 1.0
    r = scipy.linalg.solve(a, b).reshape(L.dim, L.dim, order="F")
    r = 0.5 * (r + r.conj().T)
    return r / np.trace(r).real


def test_sparse_kernels_match_a_dense_solve():
    params = SystemParams(chi=1.0, kappa=20.0, gamma_h=1e-3, eta=0.9,
                          nu=0.12, g=0.04, phi=-HALF_PI)
    field = FockBasisSpec(n_trunc=2)
    cases = (
        (resonant_full_liouvillian(params, FockBasisSpec(n_trunc=8),
                                   include_feedback=True, drive_x=-0.024), 2),
        (offresonant_full_liouvillian(params, FockBasisSpec(n_trunc=5), field,
                                      include_feedback=True, drive_x=-0.024), field.dim),
    )
    for L, meter in cases:
        rho = steady_state(L, tail_block=meter)
        assert trace_norm(rho.matrix - _dense_kernel(L)) <= 1e-12
        # real Hermitian-basis coordinates need no symmetrization
        assert np.array_equal(rho.matrix, rho.matrix.conj().T)


def _count_splu(monkeypatch):
    """Patch scipy.sparse.linalg.splu to count its calls; returns the list of factored (shape, dtype)."""
    calls = []
    splu = scipy.sparse.linalg.splu

    def counting_splu(A, *args, **kwargs):
        calls.append((A.shape, A.dtype))
        return splu(A, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.linalg, "splu", counting_splu)
    return calls


def test_steady_state_rejects_a_growing_mode():
    # the pump relaxes the meter into |+>, an interior state with no edge
    # population, while negative dephasing 0.4 grows the coherences at
    # 0.8 - 1/2: only the spectrum of the generator shows the instability
    ops = two_level_ops()
    with pytest.raises(Unstable, match=r"generator eigenvalue with real part 3\.000e-01 > 0"):
        steady_state(Superoperator(dissipator(ops.sigma_plus) - 0.4 * dissipator(ops.sigma_z)))
    rho = steady_state(Superoperator(dissipator(ops.sigma_plus) - 0.1 * dissipator(ops.sigma_z)))
    assert np.allclose(rho.matrix, np.diag([1.0, 0.0]), atol=1e-12)


def test_decoupled_spectator_kernel_is_degenerate(monkeypatch):
    # a decaying meter beside an untouched spectator keeps one kernel state
    # per spectator state; SuperLU reports the exactly singular factor as a
    # RuntimeError, which must reach callers as the typed NotUnique after
    # that one factorization: every population row is singular alike
    spectator = np.kron(two_level_ops().sigma_minus, np.eye(3))
    calls = _count_splu(monkeypatch)
    with pytest.raises(NotUnique, match="kernel solve failed; "):
        steady_state(Superoperator(dissipator(spectator)))
    assert len(calls) == 1


def _bipartite_generators():
    """Both bipartite generators (d = 34 and 40), each with its meter dimension."""
    params = SystemParams(chi=1.0, kappa=20.0, gamma_h=1e-3, eta=0.9,
                          nu=0.12, g=0.04, phi=-HALF_PI)
    field = FockBasisSpec(n_trunc=3)
    return (
        (resonant_full_liouvillian(params, FockBasisSpec(n_trunc=16),
                                   include_feedback=True, drive_x=-0.024), 2),
        (offresonant_full_liouvillian(params, FockBasisSpec(n_trunc=9), field,
                                      include_feedback=True, drive_x=-0.024), field.dim),
    )


def _reduced_generators():
    """Reduced generators at n_trunc 12 and 30 on both assembly routes, meter dimension 1."""
    params = slow_trap_params(nu=18.75)
    return tuple(
        (reduced_feedback_liouvillian(params, FockBasisSpec(n_trunc=n), route=route), 1)
        for n in (12, 30)
        for route in ("squeezed_bath", "direct")
    )


def _cross_systems(L):
    """The two replaced-row systems that steady_state solves, trace row on population 0, then d // 2, and the basis T."""
    G, T = sme._real_form(L)
    return sme._replaced_row_system(G, 0), sme._replaced_row_system(G, L.dim // 2), T


def test_rank2_cross_solve_matches_a_fresh_factorization():
    for L, _ in _reduced_generators() + _bipartite_generators():
        (A1, b1), (A2, b2), T = _cross_systems(L)
        rank2 = sme._low_rank_solve(sme._solve(A1, b1)[0], A1, A2, b2, [0, L.dim // 2])
        fresh = sme._refine(A2, b2, scipy.sparse.linalg.splu(A2).solve)
        dist = trace_norm(sme._state_from_vec(rank2, T) - sme._state_from_vec(fresh, T))
        assert dist <= 1e-12


def test_steady_state_factorizes_once_at_every_size(monkeypatch):
    calls = _count_splu(monkeypatch)
    reduced = reduced_feedback_liouvillian(slow_trap_params(nu=18.75), FockBasisSpec(n_trunc=34))
    small = resonant_full_liouvillian(slow_trap_params(nu=18.75), FockBasisSpec(n_trunc=8),
                                      include_feedback=True)
    cases = _reduced_generators() + ((small, 2), (reduced, 1)) + _bipartite_generators()
    for L, meter in cases:
        calls.clear()
        steady_state(L, tail_block=meter)
        assert calls == [((L.dim**2, L.dim**2), np.float64)]
    assert min(L.dim for L, _ in cases) <= 20 and max(L.dim for L, _ in cases) > 32


def test_each_solve_builds_the_hermitian_basis_once(monkeypatch):
    built = []
    real_form = sme._real_form

    def counting_real_form(L):
        built.append(L.dim)
        return real_form(L)

    monkeypatch.setattr(sme, "_real_form", counting_real_form)
    calls = _count_splu(monkeypatch)
    params = slow_trap_params(nu=18.75)
    spec = FockBasisSpec(n_trunc=12)
    small = reduced_feedback_liouvillian(params, spec)
    # up to d = 20 the right-half-plane rule reads the G of the solve; the
    # weakly coupled ladders (d = 24) take the fresh-LU fallback
    cases = (
        (reduced_feedback_liouvillian(params, FockBasisSpec(n_trunc=30)), 1, 1),
        (_two_block_generator(0.0, 12, coupling=1e-6), 1, 2),
        (small, 1, 1),
    )
    for L, builds, factorizations in cases:
        built.clear()
        calls.clear()
        steady_state(L)
        assert built == [L.dim] * builds
        assert len(calls) == factorizations
    built.clear()
    integrate_lindblad(small, fock_state(spec, 0), IntegratorConfig(dt=1e-3, t_final=0.01))
    assert built == [small.dim]


def _two_block_generator(leak: float, levels: int = 17, coupling: float = 0.0) -> Superoperator:
    """Two decay ladders of the given number of levels, coupled by coupling * sigma_x (x) X.

    Each block relaxes to its own ground state, and an energy offset between
    the blocks makes every cross coherence rotate. A uniform decay leak
    makes the matrix invertible, so both replaced-row systems solve; each
    returns the ground state of the block its trace row sits in. A nonzero
    coupling with no leak leaves one kernel state, nearly decoupled when
    the coupling is weak.
    """
    spec = FockBasisSpec(n_trunc=levels - 1)
    a = annihilation(spec)
    block_a, block_b = np.diag([1.0, 0.0]), np.diag([0.0, 1.0])
    gen = dissipator(np.kron(block_a, a)) + dissipator(np.kron(block_b, a))
    sigma_x = np.array([[0.0, 1.0], [1.0, 0.0]])
    x = quadrature(spec, "position")
    gen = gen + hamiltonian_term(np.kron(block_b, np.eye(levels)) + coupling * np.kron(sigma_x, x))
    return Superoperator(gen - leak * scipy.sparse.identity(gen.shape[0]))


def test_cross_check_catches_two_kernel_states():
    for levels in (2, 8, 16, 17):
        L = _two_block_generator(1e-12, levels)
        assert L.dim == 2 * levels
        with pytest.raises(NotUnique, match="two kernel solves disagree"):
            steady_state(L)


def test_cross_check_confirms_a_rejection_with_a_fresh_factorization(monkeypatch):
    # weakly coupled ladders have one kernel state; the rank-2 update misses
    # it by far more than the bound, a second factorization by rounding
    L = _two_block_generator(0.0, 12, coupling=1e-6)
    (A1, b1), (A2, b2), T = _cross_systems(L)
    lu, first = sme._solve(A1, b1)
    rank2 = sme._low_rank_solve(lu, A1, A2, b2, [0, L.dim // 2])
    assert trace_norm(sme._state_from_vec(first, T) - sme._state_from_vec(rank2, T)) > 1e-7
    calls = _count_splu(monkeypatch)
    rho = steady_state(L)
    assert len(calls) == 2
    assert trace_norm(rho.matrix - sme._state_from_vec(first, T)) <= 1e-12


def test_fallback_factors_the_cross_system_it_assembled(monkeypatch):
    # the rank-2 update misses this kernel, so the cross system is factored
    # afresh: from the matrix assembled for the update, not a second build
    L = _two_block_generator(0.0, 12, coupling=1e-6)
    built = []
    assemble = sme._replaced_row_system

    def counting_assemble(G, row):
        built.append(row)
        return assemble(G, row)

    monkeypatch.setattr(sme, "_replaced_row_system", counting_assemble)
    calls = _count_splu(monkeypatch)
    steady_state(L)
    assert built == [0, L.dim // 2]
    assert len(calls) == 2


def test_both_population_rows_solve_weakly_coupled_ladders_to_rounding():
    # the kernel condition number reaches 1e13 here; row pivoting that mixes
    # the two ladders moved the kernel by up to 1e-4 in trace norm when the
    # trace row sat in the second ladder
    for levels in (12, 16, 17, 20):
        for coupling in (1e-6, 1e-5, 1e-4):
            L = _two_block_generator(0.0, levels, coupling=coupling)
            *systems, T = _cross_systems(L)
            first, second = (sme._solve(A, b)[1] for A, b in systems)
            dist = trace_norm(sme._state_from_vec(first, T) - sme._state_from_vec(second, T))
            assert dist <= 1e-12, (levels, coupling, dist)
