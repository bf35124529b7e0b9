"""Integrators and the conditioned unraveling: steps, kicks, trajectories."""
import math
import sys
import threading
import warnings

import numpy as np
import pytest
import scipy.linalg
import scipy.linalg.lapack
import scipy.sparse
import scipy.sparse.csgraph
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
from trapcool.scenario import ScenarioConfig
from trapcool.validation import ELIMINATION_SETS, property_grid

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
        (reduced, fock_state(spec, 0)),
        (reduced, coherent_state(spec, 0.6)),
        (resonant_full_liouvillian(params, meter_spec, include_feedback=True),
         DenseOperator(np.kron(fock_state(meter_spec, 0).matrix, excited))),
    )
    cfg = IntegratorConfig(dt=2e-3, t_final=0.5)
    outs = []
    for L, rho0 in cases:
        seen = []

        def watch(t, r):
            assert np.array_equal(r, r.conj().T)
            assert abs(np.trace(r) - 1.0) <= 1e-13
            seen.append(t)

        out = integrate_lindblad(L, rho0, cfg, callback=watch)
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
        st.measure(rho.matrix, float("nan"), 2e-3, spec.tail_tolerance, st.moments(rho.matrix)[0])
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


def _count_blocks(monkeypatch):
    """Patch sme._block_map to count its calls; returns the list of block lengths built."""
    lengths = []
    block_map = sme._block_map

    def counting_block_map(K, d, m):
        lengths.append(m)
        return block_map(K, d, m)

    monkeypatch.setattr(sme, "_block_map", counting_block_map)
    return lengths


def _single_steps(L, rho0, cfg):
    """integrate_lindblad's one-step loop with no guards: (final state, top-level population after each step)."""
    d = L.dim
    G, T = sme._real_form(L)
    c = (T.conj().T @ sme._vec(rho0.matrix)).real
    keep = sme._reachable(G, c, d)
    K = sme._heun_increment(G[keep][:, keep], cfg.dt)
    c = c[keep]
    tops = []
    for _ in range(cfg.n_steps):
        c += K @ c
        c /= float(c[:d].sum())
        tops.append(float(c[d - 1]))
    return sme._unvec(T[:, keep] @ c, d), np.array(tops)


def test_block_steps_match_single_steps(monkeypatch):
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=12)
    reduced = reduced_feedback_liouvillian(params, spec)
    meter_spec = FockBasisSpec(n_trunc=6)
    excited = np.zeros((2, 2), dtype=complex)
    excited[0, 0] = 1.0
    cases = (
        # a vacuum start steps the even parity block alone
        (reduced, fock_state(spec, 0)),
        (reduced, coherent_state(spec, 0.6)),
        (resonant_full_liouvillian(params, meter_spec, include_feedback=True, drive_x=0.3),
         DenseOperator(np.kron(fock_state(meter_spec, 0).matrix, excited))),
    )
    cfg = IntegratorConfig(dt=2e-3, t_final=4.202, tail_guard=1e-3)
    for L, rho0 in cases:
        lengths = _count_blocks(monkeypatch)
        blocked = integrate_lindblad(L, rho0, cfg)
        # the block path ran, and left single steps over
        assert len(lengths) == 1 and cfg.n_steps % lengths[0] != 0
        stepped = integrate_lindblad(L, rho0, cfg, callback=lambda t, r: None)
        assert len(lengths) == 1
        assert trace_norm(blocked.matrix - stepped.matrix) <= 1e-13
        # a callback run is the one-step loop, bit for bit
        assert np.array_equal(stepped.matrix, _single_steps(L, rho0, cfg)[0])


def test_guards_inside_a_block_trip_where_single_steps_do(monkeypatch):
    # a Rabi swap of |0> to the top of three levels, pi/10 per step:
    # Heun overshoots to 1.04 at step 5 and is back under 0.99 at step 6
    d = 3
    swap = np.zeros((d, d), dtype=complex)
    swap[0, 2] = swap[2, 0] = 1.0
    dt = 1e-2
    rabi = Superoperator(hamiltonian_term((0.1 * math.pi / dt) * swap))
    ground = DenseOperator(np.diag([1.0, 0.0, 0.0]).astype(complex))
    spec = FockBasisSpec(n_trunc=4)
    cases = (
        (rabi, ground, IntegratorConfig(dt=dt, t_final=0.2, tail_guard=0.99), TailTooHeavy),
        (heating_liouvillian(spec, 0.5), fock_state(spec, 0),
         IntegratorConfig(dt=1e-3, t_final=2.0), TailTooHeavy),
        (Superoperator(0.1 * left_mult(np.eye(spec.dim))), fock_state(spec, 0),
         IntegratorConfig(dt=1e-3, t_final=1.0), StepTooLarge),
    )
    for L, rho0, cfg, error in cases:
        lengths = _count_blocks(monkeypatch)
        with pytest.raises(error) as blocked:
            integrate_lindblad(L, rho0, cfg)
        assert len(lengths) == 1
        seen = []
        with pytest.raises(error) as single:
            integrate_lindblad(L, rho0, cfg, callback=lambda t, r: seen.append(t))
        assert str(blocked.value) == str(single.value)
        if error is TailTooHeavy:
            # neighbouring steps' tails differ by percents, the two paths by rounding
            assert blocked.value.tail == pytest.approx(single.value.tail, rel=1e-12)
        if L is rabi:
            m = lengths[0]
            tops = _single_steps(L, rho0, cfg)[1]
            step = len(seen) + 1
            start = (step - 1) // m * m
            assert tops[step - 1] > cfg.tail_guard
            # the excursion starts after the block's first state and ends
            # before its last, so only a reading inside the block sees it
            assert 0 < start and tops[start - 1] <= cfg.tail_guard
            assert tops[start + m - 1] <= cfg.tail_guard


def test_an_initial_trace_off_one_is_rejected_before_any_step():
    spec = FockBasisSpec(n_trunc=4)
    L = heating_liouvillian(spec, 0.5)
    double = DenseOperator(2.0 * fock_state(spec, 0).matrix)
    for t_final in (0.0, 1.0):
        steps = []
        with pytest.raises(ValueError, match=r"^initial state has trace 2\.000000000;"):
            integrate_lindblad(L, double, IntegratorConfig(dt=1e-3, t_final=t_final),
                               callback=lambda t, r: steps.append(t))
        assert steps == []
    # a trace off by rounding is stepped and renormalized
    near = DenseOperator((1.0 + 5e-8) * fock_state(spec, 0).matrix)
    out = integrate_lindblad(L, near, IntegratorConfig(dt=1e-3, t_final=0.01))
    assert abs(np.trace(out.matrix) - 1.0) <= 1e-13


def test_an_overflowing_kernel_residual_is_typed_without_a_warning(monkeypatch):
    # heating at 1e300 overflows the squares inside the residual norm
    params = slow_trap_params(gamma_h=1e300)
    L = reduced_feedback_liouvillian(params, FockBasisSpec(n_trunc=8), route="direct")
    band = _count_band(monkeypatch)
    calls = _count_splu(monkeypatch)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(NotUnique, match="kernel residual inf exceeds 1e-10"):
            steady_state(L)
    # entries beyond single precision skip the band factor for SuperLU
    assert band == [] and len(calls) == 1


def test_tail_block_outside_the_basis_is_rejected():
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=6)
    L = reduced_feedback_liouvillian(params, spec)
    for block in (0, -1, spec.dim):
        with pytest.raises(ValueError, match="tail_block"):
            steady_state(L, tail_block=block)


def test_measurement_off_reduces_to_deterministic_step():
    params = slow_trap_params(chi=0.0, g=0.0)
    spec = FockBasisSpec(n_trunc=8)
    rho0 = coherent_state(spec, 0.3)
    dt = 1e-3
    st = HomodyneStepper(params, spec)
    out, dI = st.measure(rho0.matrix, 0.027, dt, spec.tail_tolerance, st.moments(rho0.matrix)[0])
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
    out, _ = st.measure(rho0.matrix, 0.0, dt, 0.99, st.moments(rho0.matrix)[0])
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
    p = quadrature(spec, "momentum")
    assert np.array_equal(st.ops, np.stack([x, p, number_op(spec), x @ x, p @ p]))
    for op, value in zip(st.ops, st.moments(got)):
        assert abs(value - np.vdot(got, op).real) <= 1e-15
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
        st.measure(rho, w, dt, spec.tail_tolerance, st.moments(rho)[0])[0] for w in (dW, -dW, 0.0)
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


def _mixed_state(dim, seed):
    """A full-rank complex density matrix, Hermitian to the last bit, as measure returns one."""
    rng = np.random.default_rng(seed)
    a = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = a @ a.conj().T
    rho = rho + rho.conj().T
    return rho / rho.trace().real


def _bare_kick_current(params, theta):
    """The dI whose dt = 0 kick is exp(i theta P), theta = -g s/2."""
    s = -2.0 * theta / params.g
    return -s * params.eta * params.measurement_rate / 2.0


# dim 15 has the zero mode of P, dim 16 has none. g >= 0 is a parameter
# rule, so both signs of the kick angle theta = -g s/2 come from the current
@pytest.mark.parametrize("n_trunc", [14, 15])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_real_kick_matches_the_complex_rotation_beyond_a_full_turn(n_trunc, sign):
    params = slow_trap_params(g=0.12)
    spec = FockBasisSpec(n_trunc=n_trunc)
    p = quadrature(spec, "momentum")
    evals, vecs = np.linalg.eigh(p)
    theta = sign * 2.5 * math.pi / evals[-1]  # |theta| * max lambda = 2.5 pi
    rho = _mixed_state(spec.dim, n_trunc)
    kicked = HomodyneStepper(params, spec).kick(rho, _bare_kick_current(params, theta), 0.0)
    # the complex three-product kick it replaced, and the exponential itself
    u = (vecs * np.exp(1j * theta * evals)) @ vecs.conj().T
    assert np.abs(kicked - u @ rho @ u.conj().T).max() <= 1e-13
    u = scipy.linalg.expm(1j * theta * p)
    assert np.abs(kicked - u @ rho @ u.conj().T).max() <= 1e-13


@pytest.mark.parametrize("n_trunc", [14, 15])
@pytest.mark.parametrize("sign", [1.0, -1.0])
def test_consecutive_kicks_compose_into_one(n_trunc, sign):
    params = slow_trap_params(g=0.12)
    spec = FockBasisSpec(n_trunc=n_trunc)
    st = HomodyneStepper(params, spec)
    rho = _mixed_state(spec.dim, 100 + n_trunc)
    theta1, theta2 = sign * 1.7, sign * -4.1
    both = st.kick(
        st.kick(rho, _bare_kick_current(params, theta1), 0.0),
        _bare_kick_current(params, theta2),
        0.0,
    )
    once = st.kick(rho, _bare_kick_current(params, theta1 + theta2), 0.0)
    assert np.abs(both - once).max() <= 1e-14


# eigh fixes no eigenvector phase (a LAPACK build may return the zero mode
# of dim 15 times any e^{i alpha}); V e^{i theta lambda} V^H must not depend on it
@pytest.mark.parametrize("n_trunc", [14, 15])
def test_kick_does_not_depend_on_the_eigenvector_phases(n_trunc, monkeypatch):
    eigh = np.linalg.eigh
    rng = np.random.default_rng(300 + n_trunc)
    calls = []

    def phased(a):
        evals, vecs = eigh(a)
        calls.append(a)
        return evals, vecs * np.exp(2j * math.pi * rng.random(vecs.shape[1]))

    params = slow_trap_params(g=0.12)
    spec = FockBasisSpec(n_trunc=n_trunc)
    with monkeypatch.context() as m:
        m.setattr(sme.np.linalg, "eigh", phased)
        st = HomodyneStepper(params, spec)
    assert len(calls) == 1
    theta = 2.5
    rho = _mixed_state(spec.dim, 300 + n_trunc)
    kicked = st.kick(rho, _bare_kick_current(params, theta), 0.0)
    u = scipy.linalg.expm(1j * theta * quadrature(spec, "momentum"))
    assert np.abs(kicked - u @ rho @ u.conj().T).max() <= 1e-13


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


@pytest.mark.parametrize("traj_index", [1.5, -1])
def test_a_bad_trajectory_index_is_named_before_any_work(traj_index, monkeypatch):
    def no_stepper(*args):
        raise AssertionError("a stepper was built")

    monkeypatch.setattr(sme, "_shared_stepper", no_stepper)
    params = slow_trap_params()
    spec = FockBasisSpec(n_trunc=10, tail_tolerance=1e-4)
    cfg = IntegratorConfig(dt=2e-3, t_final=0.01, seed=77, tail_guard=1e-4)
    with pytest.raises(ValueError, match=rf"^traj_index must be a non-negative integer, got {traj_index}$"):
        run_trajectory(params, spec, cfg, traj_index=traj_index)


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


def _count_band(monkeypatch):
    """Patch LAPACK's sgbtrf to count its calls; returns the list of factored band shapes."""
    calls = []
    sgbtrf = scipy.linalg.lapack.sgbtrf

    def counting_sgbtrf(ab, *args, **kwargs):
        calls.append(ab.shape)
        return sgbtrf(ab, *args, **kwargs)

    monkeypatch.setattr(scipy.linalg.lapack, "sgbtrf", counting_sgbtrf)
    return calls


def _superlu_state(L, tail_block, monkeypatch):
    """steady_state's state with the band path switched off, so the SuperLU fallback decides."""
    with monkeypatch.context() as m:
        m.setattr(sme, "_band_solves", lambda *args: None)
        return steady_state(L, tail_block=tail_block).matrix


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
    band = _count_band(monkeypatch)
    calls = _count_splu(monkeypatch)
    with pytest.raises(NotUnique, match="kernel solve failed; "):
        steady_state(Superoperator(dissipator(spectator)))
    # the band factor of a degenerate kernel is singular too: tried, declined
    assert len(band) == 1 and len(calls) == 1


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
    """The two replaced-row systems that steady_state solves, trace row on population 0, then d // 2, the basis T and the order both are factored in."""
    G, T = sme._real_form(L)
    return sme._replaced_row_system(G, 0), sme._replaced_row_system(G, L.dim // 2), T, sme._ordering(G)


def test_steady_state_factorizes_once_at_every_size(monkeypatch):
    band = _count_band(monkeypatch)
    calls = _count_splu(monkeypatch)
    reduced = reduced_feedback_liouvillian(slow_trap_params(nu=18.75), FockBasisSpec(n_trunc=34))
    small = resonant_full_liouvillian(slow_trap_params(nu=18.75), FockBasisSpec(n_trunc=8),
                                      include_feedback=True)
    cases = _reduced_generators() + ((small, 2), (reduced, 1)) + _bipartite_generators()
    for L, meter in cases:
        band.clear()
        calls.clear()
        steady_state(L, tail_block=meter)
        # one band factor over every coordinate, and no SuperLU fallback
        assert len(band) == 1 and band[0][1] == L.dim**2
        assert calls == []
    assert min(L.dim for L, _ in cases) <= 20 and max(L.dim for L, _ in cases) > 32


def test_each_solve_builds_the_hermitian_basis_once(monkeypatch):
    built = []
    real_form = sme._real_form

    def counting_real_form(L):
        built.append(L.dim)
        return real_form(L)

    monkeypatch.setattr(sme, "_real_form", counting_real_form)
    band = _count_band(monkeypatch)
    calls = _count_splu(monkeypatch)
    orderings = []
    rcm = scipy.sparse.csgraph.reverse_cuthill_mckee

    def counting_rcm(graph, *args, **kwargs):
        orderings.append(graph.shape)
        return rcm(graph, *args, **kwargs)

    monkeypatch.setattr(scipy.sparse.csgraph, "reverse_cuthill_mckee", counting_rcm)
    params = slow_trap_params(nu=18.75)
    spec = FockBasisSpec(n_trunc=12)
    small = reduced_feedback_liouvillian(params, spec)
    # up to d = 20 the right-half-plane rule reads the G of the solve; the
    # weakly coupled ladders (d = 24) decline the band factor and take
    # SuperLU's two factors, both in the order of the first solve
    cases = (
        (reduced_feedback_liouvillian(params, FockBasisSpec(n_trunc=30)), 1, 0),
        (_two_block_generator(0.0, 12, coupling=1e-6), 1, 2),
        (small, 1, 0),
    )
    for L, builds, factorizations in cases:
        built.clear()
        band.clear()
        calls.clear()
        orderings.clear()
        steady_state(L)
        assert built == [L.dim] * builds
        assert len(band) == 1
        assert len(calls) == factorizations
        assert orderings == [(L.dim**2, L.dim**2)]
    built.clear()
    integrate_lindblad(small, fock_state(spec, 0), IntegratorConfig(dt=1e-3, t_final=0.01))
    assert built == [small.dim]


def test_detuned_field_kernel_factors_with_less_fill(monkeypatch):
    # the detuned-field joint of the thick elimination set (13 vibration,
    # 3 field levels, n = 3136): SuperLU's COLAMD order left 2,880,394
    # entries in L and U, the reverse Cuthill-McKee order of G 1,954,833.
    # steady_state settles this kernel on the band factor, so the fallback's
    # factorization is taken directly
    fill = []
    splu = scipy.sparse.linalg.splu

    def measuring_splu(A, *args, **kwargs):
        lu = splu(A, *args, **kwargs)
        fill.append(lu.L.nnz + lu.U.nnz)
        return lu

    monkeypatch.setattr(scipy.sparse.linalg, "splu", measuring_splu)
    es = ELIMINATION_SETS[0]
    field = FockBasisSpec(n_trunc=3)
    L = offresonant_full_liouvillian(es.params, FockBasisSpec(n_trunc=13), field,
                                     include_feedback=True, drive_x=es.drive_x)
    (A1, b1), _, _, order = _cross_systems(L)
    x = sme._solve(A1, b1, order)
    assert x is not None
    assert len(fill) == 1 and fill[0] < 2_880_394


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


def test_cross_check_catches_two_kernel_states(monkeypatch):
    band = _count_band(monkeypatch)
    calls = _count_splu(monkeypatch)
    for levels in (2, 8, 16, 17):
        L = _two_block_generator(1e-12, levels)
        assert L.dim == 2 * levels
        band.clear()
        calls.clear()
        with pytest.raises(NotUnique, match="two kernel solves disagree"):
            steady_state(L)
        # the band path saw the two states too and left the verdict to SuperLU
        assert len(band) == 1 and len(calls) == 2


def test_cross_check_confirms_a_band_rejection_with_two_superlu_factors(monkeypatch):
    # weakly coupled ladders have one kernel state, which SuperLU's
    # factors of both replaced-row systems reach to rounding
    L = _two_block_generator(0.0, 12, coupling=1e-6)
    (A1, b1), _, T, order = _cross_systems(L)
    first = sme._solve(A1, b1, order)
    band = _count_band(monkeypatch)
    calls = _count_splu(monkeypatch)
    rho = steady_state(L)
    # the band factor's partial pivoting mixes the ladders: tried, declined
    assert len(band) == 1
    assert len(calls) == 2
    assert trace_norm(rho.matrix - sme._state_from_vec(first, T)) <= 1e-12


def test_fallback_factors_the_cross_system_it_assembled(monkeypatch):
    # the band path declines this kernel, so SuperLU factors the cross
    # system: the matrix assembled for the band path, not a second build
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


def test_both_population_rows_solve_weakly_coupled_ladders_to_rounding(monkeypatch):
    # the kernel condition number reaches 1e13 here; row pivoting that mixes
    # the two ladders moved the kernel by up to 1e-4 in trace norm when the
    # trace row sat in the second ladder. The band factor pivots that way:
    # its two states mostly disagree and SuperLU decides, and the state
    # steady_state returns on either path is SuperLU's to rounding
    for levels in (12, 16, 17, 20):
        for coupling in (1e-6, 1e-5, 1e-4):
            L = _two_block_generator(0.0, levels, coupling=coupling)
            *systems, T, order = _cross_systems(L)
            first, second = (sme._solve(A, b, order) for A, b in systems)
            dist = trace_norm(sme._state_from_vec(first, T) - sme._state_from_vec(second, T))
            assert dist <= 1e-12, (levels, coupling, dist)
            dist = trace_norm(steady_state(L).matrix - _superlu_state(L, 1, monkeypatch))
            assert dist <= 1e-12, (levels, coupling, dist)


def test_superlu_fallback_reaches_the_closed_form_to_rounding(monkeypatch):
    # the reduced kernel is exactly Gaussian, so <a'a> is the closed form's
    # zeta up to rounding and the truncation's far smaller tail. Refining
    # while the correction shrinks gets there; a residual target stops on
    # the trace row's rounding floor first
    for overrides in ({}, {"nu": 18.75, "phi": -2.2}):
        params = ScenarioConfig(**overrides).system_params()
        zeta = stationary_moments(params).zeta
        for n in (20, 40):
            spec = FockBasisSpec(n_trunc=n)
            for route in ("squeezed_bath", "direct"):
                L = reduced_feedback_liouvillian(params, spec, route=route)
                rho = DenseOperator(_superlu_state(L, 1, monkeypatch))
                rel = abs(expectation(rho, number_op(spec)).real - zeta) / zeta
                assert rel <= 1e-13, (overrides, n, route, rel)


def test_band_path_states_equal_the_superlu_path(monkeypatch):
    # every kernel here settles on the band factor; the SuperLU fallback,
    # run alone, reaches the same state to rounding
    defaults = tuple(
        (reduced_feedback_liouvillian(cfg.system_params(), cfg.basis_spec()), 1)
        for cfg in (ScenarioConfig().replace(n_trunc=n) for n in (12, 20, 40))
    )
    grid = property_grid()
    corners = tuple(
        (reduced_feedback_liouvillian(params, FockBasisSpec(n_trunc=24)), 1)
        for params in (grid[0], grid[-1])
    )
    cases = _reduced_generators() + _bipartite_generators() + defaults + corners
    for L, meter in cases:
        calls = _count_splu(monkeypatch)
        rho = steady_state(L, tail_block=meter).matrix
        assert calls == []
        dist = trace_norm(rho - _superlu_state(L, meter, monkeypatch))
        assert dist <= 1e-11, (L.dim, dist)


def _empty_coordinate_zero_generator() -> Superoperator:
    """Two jumps into level 1 of three levels: the kernel state leaves population 0 empty."""
    jump_in_from_0 = np.zeros((3, 3))
    jump_in_from_0[1, 0] = 1.0
    jump_in_from_2 = np.zeros((3, 3))
    jump_in_from_2[1, 2] = 0.5
    return Superoperator(dissipator(jump_in_from_0) + dissipator(jump_in_from_2))


def test_an_empty_coordinate_zero_solves_through_the_fallback(monkeypatch):
    # both jumps land in level 1, so population 0 of the kernel state is
    # empty and G + s e0 e0' is singular: the band factor declines, and
    # SuperLU, whose replaced-row systems stay regular, solves the kernel
    L = _empty_coordinate_zero_generator()
    band = _count_band(monkeypatch)
    calls = _count_splu(monkeypatch)
    rho = steady_state(L)
    assert len(band) == 1 and len(calls) == 2
    assert trace_norm(rho.matrix - _dense_kernel(L)) <= 1e-12
    assert np.allclose(rho.matrix, np.diag([0.0, 1.0, 0.0]), atol=1e-12)


@pytest.fixture
def blas_threads():
    """scipy's OpenBLAS thread setter, at two threads for the test and reset after it; skips without one."""
    set_threads = sme._blas_thread_setter()
    if set_threads is None:
        pytest.skip("scipy's BLAS library has no openblas_set_num_threads_local")
    # two threads, not the host's count, so a count left at one shows
    previous = set_threads(2)
    yield set_threads
    set_threads(previous)


def _thread_count(set_threads) -> int:
    """The library's thread count, read as the previous count of setting it."""
    count = set_threads(1)
    set_threads(count)
    return count


def test_band_factor_and_solves_run_on_one_blas_thread(monkeypatch, blas_threads):
    # sgbtrf's small blocked updates cost more to share between threads than
    # they save; the count is restored however the band path ends
    seen = {"sgbtrf": [], "sgbtrs": []}
    for name, counts in seen.items():
        routine = getattr(scipy.linalg.lapack, name)

        def watching(*args, routine=routine, counts=counts, **kwargs):
            counts.append(_thread_count(blas_threads))
            return routine(*args, **kwargs)

        monkeypatch.setattr(scipy.linalg.lapack, name, watching)
    calls = _count_splu(monkeypatch)
    L = reduced_feedback_liouvillian(ScenarioConfig().system_params(), FockBasisSpec(n_trunc=12))
    steady_state(L)
    assert calls == []
    assert seen["sgbtrf"] == [1] and len(seen["sgbtrs"]) > 2 and set(seen["sgbtrs"]) == {1}
    assert _thread_count(blas_threads) == 2
    # the singular-B fallback: the band factor declines, SuperLU solves
    steady_state(_empty_coordinate_zero_generator())
    assert seen["sgbtrf"] == [1, 1] and len(calls) == 2
    assert _thread_count(blas_threads) == 2

    def failing_sgbtrs(*args, **kwargs):
        raise RuntimeError("sgbtrs failed")

    monkeypatch.setattr(scipy.linalg.lapack, "sgbtrs", failing_sgbtrs)
    with pytest.raises(RuntimeError, match="sgbtrs failed"):
        steady_state(L)
    assert seen["sgbtrf"] == [1, 1, 1]
    assert _thread_count(blas_threads) == 2


def test_band_paths_in_several_threads_leave_the_blas_thread_count_as_found(blas_threads):
    # the count is one per process: without turns, a second thread reads
    # the first one's pin as the count to restore and leaves one behind
    cfg = ScenarioConfig().replace(n_trunc=6)
    L = reduced_feedback_liouvillian(cfg.system_params(), cfg.basis_spec())
    expected = steady_state(L).matrix
    mismatches = []

    def solve_repeatedly():
        for _ in range(30):
            if not np.array_equal(steady_state(L).matrix, expected):
                mismatches.append(1)

    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        workers = [threading.Thread(target=solve_repeatedly) for _ in range(4)]
        for worker in workers:
            worker.start()
        for worker in workers:
            worker.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(worker.is_alive() for worker in workers)
    assert mismatches == []
    assert _thread_count(blas_threads) == 2


def test_kernel_states_do_not_depend_on_the_blas_thread_pin(monkeypatch):
    # the detuned-field (13, 3) kernel, whose factor is the widest band a
    # workload factors, and the default reduced kernel at n_trunc = 40;
    # unpinned, the factor runs on the library's count, two where it is set
    es = ELIMINATION_SETS[0]
    field = FockBasisSpec(n_trunc=3)
    cfg = ScenarioConfig().replace(n_trunc=40)
    cases = (
        (offresonant_full_liouvillian(es.params, FockBasisSpec(n_trunc=13), field,
                                      include_feedback=True, drive_x=es.drive_x), field.dim),
        (reduced_feedback_liouvillian(cfg.system_params(), cfg.basis_spec()), 1),
    )
    set_threads = sme._blas_thread_setter()
    previous = None if set_threads is None else set_threads(2)
    try:
        for L, meter in cases:
            pinned = steady_state(L, tail_block=meter).matrix
            with monkeypatch.context() as m:
                m.setattr(sme, "_blas_thread_setter", lambda: None)
                unpinned = steady_state(L, tail_block=meter).matrix
            assert np.array_equal(pinned, unpinned), L.dim
    finally:
        if previous is not None:
            set_threads(previous)


def test_no_thread_setter_where_scipy_bundles_no_openblas(monkeypatch, tmp_path):
    # a package directory with no scipy.libs, then one whose library does
    # not load: the lookup finds nothing there and returns None
    package = tmp_path / "scipy"
    package.mkdir()
    monkeypatch.setattr(scipy, "__file__", str(package / "__init__.py"))
    sme._blas_thread_setter.cache_clear()
    try:
        assert sme._blas_thread_setter() is None
        (tmp_path / "scipy.libs").mkdir()
        (tmp_path / "scipy.libs" / "libscipy_openblas-0.so").write_bytes(b"not a library")
        sme._blas_thread_setter.cache_clear()
        assert sme._blas_thread_setter() is None
    finally:
        sme._blas_thread_setter.cache_clear()
