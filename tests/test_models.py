"""Liouvillian builders: algebra, route equivalence, physics cross-checks."""
import dataclasses
import math

import numpy as np
import pytest
import scipy.optimize

from trapcool.errors import (
    DimensionMismatch,
    InvalidFeedbackPhase,
    NotUnique,
    Unstable,
)
from trapcool.gaussian import bath_params, moment_fixed_point, stationary_moments
from trapcool.hilbert import (
    DenseOperator,
    FockBasisSpec,
    annihilation,
    expectation,
    fock_state,
    identity,
    number_op,
    partial_trace,
    quadrature,
    tensor,
    thermal_state,
    trace_norm,
    two_level_ops,
)
from trapcool.models import (
    Superoperator,
    SystemParams,
    adiabatic_expansion,
    adiabatic_expansion_residual,
    dissipator,
    hamiltonian_term,
    heating_liouvillian,
    left_mult,
    markovian_feedback_terms,
    offresonant_full_liouvillian,
    reduced_feedback_liouvillian,
    reduced_measurement_liouvillian,
    resonant_full_liouvillian,
    right_mult,
)
from trapcool import models, sme, validation
from trapcool.sme import IntegratorConfig, integrate_lindblad, steady_state

HALF_PI = math.pi / 2.0


def default_params(**overrides):
    base = dict(
        chi=4.0, kappa=40.0, gamma_h=0.01, eta=0.9, nu=18.75, g=0.375, phi=-HALF_PI
    )
    base.update(overrides)
    return SystemParams(**base)


def weak_coupling_params(**overrides):
    """chi/kappa = 0.05 with every slow rate tied to the coupling."""
    base = dict(
        chi=1.0, kappa=20.0, gamma_h=0.001, eta=0.9, nu=0.12, g=0.04, phi=-HALF_PI
    )
    base.update(overrides)
    return SystemParams(**base)


def random_density(rng, dim):
    m = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    rho = m @ m.conj().T
    return rho / np.trace(rho).real


def apply_map(L, r):
    """The image of the array r under L, through the column stack vec(r)."""
    return (L.csr @ r.reshape(-1, order="F")).reshape(L.dim, L.dim, order="F")


def all_builders(spec):
    params = default_params()
    meter = FockBasisSpec(n_trunc=2)
    return [
        reduced_measurement_liouvillian(params, spec),
        reduced_feedback_liouvillian(params, spec, route="squeezed_bath"),
        reduced_feedback_liouvillian(params, spec, route="direct"),
        reduced_feedback_liouvillian(params, spec, route="direct", drive_x=-0.3),
        resonant_full_liouvillian(params, spec),
        resonant_full_liouvillian(params, spec, include_feedback=True, drive_x=0.1),
        offresonant_full_liouvillian(params, spec, meter),
        offresonant_full_liouvillian(params, spec, meter, include_feedback=True),
    ]


def test_builders_preserve_trace_and_hermiticity():
    spec = FockBasisSpec(n_trunc=7)
    rng = np.random.default_rng(42)
    for L in all_builders(spec):
        vec_id = np.eye(L.dim, dtype=complex).reshape(-1, order="F")
        assert np.linalg.norm(vec_id @ L.csr) < 1e-12 * np.linalg.norm(L.csr.data)
        for _ in range(12):
            out = apply_map(L, random_density(rng, L.dim))
            assert np.linalg.norm(out - out.conj().T) < 1e-12 * max(
                1.0, np.linalg.norm(out)
            )


def test_stable_generators_have_left_half_plane_spectra():
    # dissipative contraction: every eigenvalue sits at Re <= 0 up to rounding
    spec = FockBasisSpec(n_trunc=7)
    for L in all_builders(spec):
        lam = np.linalg.eigvals(L.matrix)
        bound = 1e-10 * max(1.0, float(np.abs(L.matrix).max()))
        assert float(lam.real.max()) <= bound


def test_feedback_routes_identical_at_quadrature_phase():
    spec = FockBasisSpec(n_trunc=8)
    params = default_params()
    a = reduced_feedback_liouvillian(params, spec, route="squeezed_bath").matrix
    b = reduced_feedback_liouvillian(params, spec, route="direct").matrix
    scale = np.linalg.norm(a)
    assert np.linalg.norm(a - b) < 1e-14 * scale


def test_feedback_routes_differ_only_by_truncation_corner():
    """Away from phi = -pi/2 the two assemblies differ by one corner commutator.

    The squeezed-bath form keeps an (a^2 - a'^2) commutator whose truncated
    product picks up a boundary term that the direct form, built from X and
    P separately, does not: the exact difference is

        L_sq - L_dir = -(i g cos(phi)/4) (n_trunc + 1) [ |n_t><n_t| , . ]
    """
    spec = FockBasisSpec(n_trunc=6)
    top = np.zeros((spec.dim, spec.dim))
    top[-1, -1] = 1.0
    corner_comm = left_mult(top) - right_mult(top)
    rng = np.random.default_rng(1234)
    for _ in range(20):
        params = SystemParams(
            chi=float(rng.uniform(0.5, 1.5)),
            kappa=float(rng.uniform(15.0, 40.0)),
            gamma_h=float(rng.uniform(0.0, 0.02)),
            eta=float(rng.uniform(0.1, 1.0)),
            nu=float(rng.uniform(0.5, 20.0)),
            g=float(rng.uniform(0.01, 0.5)),
            phi=float(-rng.uniform(0.2, math.pi - 0.2)),
        )
        a = reduced_feedback_liouvillian(params, spec, route="squeezed_bath").matrix
        b = reduced_feedback_liouvillian(params, spec, route="direct").matrix
        corner = (
            -0.25j * params.g * math.cos(params.phi) * (spec.n_trunc + 1) * corner_comm
        )
        assert np.linalg.norm(a - b - corner) < 1e-12 * np.linalg.norm(a)


def test_feedback_route_kernels_agree_off_quadrature():
    # the corner term only touches the top Fock level, so for a cold steady
    # state the two routes give the same physics to solver precision
    spec = FockBasisSpec(n_trunc=30)
    params = default_params(phi=-2.2)
    rho_a = steady_state(reduced_feedback_liouvillian(params, spec, route="squeezed_bath"))
    rho_b = steady_state(reduced_feedback_liouvillian(params, spec, route="direct"))
    assert trace_norm(rho_a.matrix - rho_b.matrix) < 1e-9


def test_reduced_kernel_matches_moment_theory():
    """Dense kernel solve against the closed-form stationary moments."""
    spec = FockBasisSpec(n_trunc=30)
    params = default_params()
    rho = steady_state(reduced_feedback_liouvillian(params, spec))
    a_op = annihilation(spec)
    n_obs = expectation(rho, number_op(spec)).real
    m_obs = expectation(rho, a_op @ a_op)
    fp = moment_fixed_point(params)
    assert abs(n_obs - fp.zeta) < 1e-8
    assert abs(m_obs - fp.mu) < 1e-8
    mo = stationary_moments(params)
    assert n_obs == pytest.approx(mo.zeta, rel=1e-6)


def test_driven_reduced_kernel_first_moments():
    # a static X drive displaces the stationary state without touching the
    # covariances: <X> = -f/(2 nu), <P> = g <X> / nu, <n> = zeta + |<a>|^2
    f = -0.024
    params = weak_coupling_params()
    spec = FockBasisSpec(n_trunc=25)
    rho = steady_state(reduced_feedback_liouvillian(params, spec, drive_x=f))
    x_obs = expectation(rho, quadrature(spec, "position")).real
    p_obs = expectation(rho, quadrature(spec, "momentum")).real
    n_obs = expectation(rho, number_op(spec)).real
    assert x_obs == pytest.approx(-f / (2.0 * params.nu), rel=1e-6)
    assert p_obs == pytest.approx(params.g * x_obs / params.nu, rel=1e-5)
    zeta = stationary_moments(params).zeta
    assert n_obs == pytest.approx(zeta + x_obs**2 + p_obs**2, rel=1e-5)


def test_full_resonant_current_tracks_position():
    """The meter dipole reports the displaced position through the coupling ratio.

    In the stationary regime <e^{-i phi} sigma- + h.c.> locks to
    -2 (chi/kappa) sin(phi) <X>, which is what makes the fluorescence
    homodyne signal a position measurement.
    """
    f = -0.024
    params = weak_coupling_params(gamma_h=0.0)
    spec = FockBasisSpec(n_trunc=25)
    L = resonant_full_liouvillian(params, spec, include_feedback=True, drive_x=f)
    rho = steady_state(L, tail_block=2)
    ident_m = np.eye(2, dtype=complex)
    x_joint = tensor(quadrature(spec, "position"), ident_m)
    x_obs = expectation(rho, x_joint).real
    assert x_obs == pytest.approx(-f / (2.0 * params.nu), rel=0.05)
    lower = two_level_ops().sigma_minus
    phase = complex(math.cos(params.phi), -math.sin(params.phi))
    dipole_op = tensor(identity(spec), phase * lower + np.conj(phase) * lower.conj().T)
    dipole = expectation(rho, dipole_op).real
    expected = -2.0 * (params.chi / params.kappa) * math.sin(params.phi) * x_obs
    assert dipole == pytest.approx(expected, rel=0.05)


def test_full_offresonant_field_population():
    # the eliminated cavity mode carries (chi/kappa)^2 <X^2> photons
    f = -0.024
    params = weak_coupling_params()
    spec_vib = FockBasisSpec(n_trunc=13)
    spec_field = FockBasisSpec(n_trunc=2)
    L = offresonant_full_liouvillian(
        params, spec_vib, spec_field, include_feedback=True, drive_x=f
    )
    rho = steady_state(L, tail_block=spec_field.dim)
    x = quadrature(spec_vib, "position")
    xsq = expectation(rho, tensor(x @ x, identity(spec_field))).real
    photons = expectation(rho, tensor(identity(spec_vib), number_op(spec_field))).real
    assert photons == pytest.approx((params.chi / params.kappa) ** 2 * xsq, rel=0.10)


def test_heating_rate_and_linear_ramp():
    spec = FockBasisSpec(n_trunc=60, tail_tolerance=1e-6)
    gamma_h = 0.05
    L = heating_liouvillian(spec, gamma_h)
    rho = thermal_state(spec, 2.0)
    # instantaneous energy growth d<n>/dt = gamma_h, independent of the state
    dn = np.trace(apply_map(L, rho.matrix) @ number_op(spec)).real
    assert dn == pytest.approx(gamma_h, rel=1e-7)
    cfg = IntegratorConfig(dt=0.01, t_final=1.0)
    out = integrate_lindblad(L, rho, cfg, rates=(gamma_h,))
    n_final = expectation(out, number_op(spec)).real
    assert n_final == pytest.approx(2.0 + gamma_h, rel=1e-6)


def test_uncoupled_meter_decays_exponentially():
    # chi = 0 leaves the meter alone: excited population falls as e^{-kappa t}
    params = default_params(chi=0.0, g=0.0, nu=3.0, kappa=2.0, gamma_h=0.0)
    spec = FockBasisSpec(n_trunc=3)
    L = resonant_full_liouvillian(params, spec)
    excited = np.zeros((2, 2), dtype=complex)
    excited[0, 0] = 1.0  # meter basis ordering [ |+>, |-> ]
    rho0 = DenseOperator(tensor(fock_state(spec, 0).matrix, excited))
    cfg = IntegratorConfig(dt=1e-3, t_final=0.5, tail_guard=0.5)
    out = integrate_lindblad(L, rho0, cfg, rates=(params.kappa, params.nu))
    proj = tensor(identity(spec), excited)
    pop = expectation(out, proj).real
    assert pop == pytest.approx(math.exp(-params.kappa * 0.5), rel=1e-5)


def test_free_rotation_of_coherent_amplitude():
    from trapcool.hilbert import coherent_state

    params = default_params(chi=0.0, g=0.0, gamma_h=0.0, nu=2.0)
    spec = FockBasisSpec(n_trunc=12)
    L = reduced_measurement_liouvillian(params, spec)
    rho0 = coherent_state(spec, 0.4)
    t = 0.7
    cfg = IntegratorConfig(dt=1e-3, t_final=t, tail_guard=1e-5)
    out = integrate_lindblad(L, rho0, cfg, rates=(params.nu,))
    amp = expectation(out, annihilation(spec))
    expected = 0.4 * complex(math.cos(params.nu * t), -math.sin(params.nu * t))
    assert abs(amp - expected) < 1e-5


def test_expansion_reduces_to_product_at_zero_coupling():
    spec = FockBasisSpec(n_trunc=9, tail_tolerance=0.01)
    rho = thermal_state(spec, 0.8)
    params = default_params(chi=0.0, g=0.0)
    joint = adiabatic_expansion(rho, params, 2)
    assert adiabatic_expansion_residual(joint, params, 2) == pytest.approx(
        0.0, abs=1e-14
    )


def test_expansion_is_trace_preserving_and_consistent():
    spec = FockBasisSpec(n_trunc=9, tail_tolerance=0.01)
    rho = thermal_state(spec, 0.8)
    params = weak_coupling_params()
    # 2 is the two-level meter; 3, the smallest field, and 4 are field modes
    for meter_dim in (2, 3, 4):
        joint = adiabatic_expansion(rho, params, meter_dim)
        assert joint.dim == spec.dim * meter_dim
        assert np.trace(joint.matrix).real == pytest.approx(1.0, abs=1e-12)
        back = partial_trace(joint, meter_dim)
        assert trace_norm(back.matrix - rho.matrix) < 1e-12


def _hand_written_field_expansion(rho, r, meter_dim):
    """The field meter's weak-coupling expansion written out to (chi/kappa)^2 = r^2."""
    d = rho.shape[0]
    x = quadrature(FockBasisSpec(n_trunc=d - 1), "position")
    xr, rx = x @ rho, rho @ x
    out = np.zeros((d, meter_dim, d, meter_dim), dtype=complex)
    out[:, 0, :, 0] = rho - r**2 * (xr @ x)
    out[:, 1, :, 0] = -1j * r * xr
    out[:, 0, :, 1] = 1j * r * rx
    out[:, 1, :, 1] = r**2 * (xr @ x)
    out[:, 2, :, 0] = -(r**2 / math.sqrt(2.0)) * (x @ xr)
    out[:, 0, :, 2] = -(r**2 / math.sqrt(2.0)) * (rx @ x)
    return out


def test_the_projected_expansion_is_the_hand_written_one_for_both_meters():
    rng = np.random.default_rng(11)
    d = 8
    rho = DenseOperator(random_density(rng, d))
    params = weak_coupling_params()
    r = params.chi / params.kappa
    fields = {}
    for meter_dim in (3, 4, 6):
        fields[meter_dim] = adiabatic_expansion(rho, params, meter_dim).matrix.reshape(d, meter_dim, d, meter_dim)
        ref = _hand_written_field_expansion(rho.matrix, r, meter_dim)
        assert np.max(np.abs(fields[meter_dim] - ref)) <= 1e-15, meter_dim
    # the two-level meter's resting level g = |-> and excited level e = |+>
    # play the roles of the field's |0> and |1>, to second order too
    two = adiabatic_expansion(rho, params, 2).matrix.reshape(d, 2, d, 2)
    g, e = 1, 0
    for (a, b), (fa, fb) in {(g, g): (0, 0), (e, g): (1, 0), (g, e): (0, 1), (e, e): (1, 1)}.items():
        assert np.max(np.abs(two[:, a, :, b] - fields[3][:, fa, :, fb])) <= 1e-15, (a, b)


def test_expansion_rejects_a_meter_dimension_that_names_no_meter():
    spec = FockBasisSpec(n_trunc=5, tail_tolerance=0.01)
    rho = thermal_state(spec, 0.1)
    params = weak_coupling_params()
    with pytest.raises(ValueError, match="meter_dim"):
        adiabatic_expansion(rho, params, 1)
    joint = adiabatic_expansion(rho, params, 2)  # dimension 12
    with pytest.raises(DimensionMismatch):
        adiabatic_expansion_residual(joint, params, 5)


def test_wrong_gain_sign_has_no_physical_steady_state():
    spec = FockBasisSpec(n_trunc=20)
    params = default_params(phi=HALF_PI)  # g sin(phi) > 0: feedback pumps energy in
    L = reduced_feedback_liouvillian(params, spec, route="direct")
    with pytest.raises(Unstable):
        steady_state(L)


def test_free_rotation_kernel_is_degenerate():
    params = default_params(chi=0.0, g=0.0, gamma_h=0.0, nu=2.0)
    spec = FockBasisSpec(n_trunc=6)
    L = reduced_measurement_liouvillian(params, spec)
    with pytest.raises(NotUnique):
        steady_state(L)


def test_hermitian_basis_matrix_keeps_the_spectrum():
    params = weak_coupling_params()
    spec = FockBasisSpec(n_trunc=8)
    cases = (
        reduced_feedback_liouvillian(default_params(), FockBasisSpec(n_trunc=12)),
        reduced_feedback_liouvillian(default_params(), FockBasisSpec(n_trunc=12), route="direct"),
        resonant_full_liouvillian(params, spec, include_feedback=True, drive_x=-0.024),
        offresonant_full_liouvillian(params, FockBasisSpec(n_trunc=5), FockBasisSpec(n_trunc=2),
                                     include_feedback=True, drive_x=-0.024),
    )
    for L in cases:
        real = sme._real_form(L)[0].toarray()
        dense = L.matrix
        assert real.dtype == np.float64 and real.shape == dense.shape
        s_real = np.linalg.svd(real, compute_uv=False)
        s_dense = np.linalg.svd(dense, compute_uv=False)
        assert np.abs(s_real - s_dense).max() <= 1e-12 * s_dense[0]
        lam, vecs = np.linalg.eig(dense)
        lam_real = np.linalg.eigvals(real)
        cost = np.abs(lam_real[:, None] - lam[None, :])
        i, j = scipy.optimize.linear_sum_assignment(cost)
        # a non-normal generator computes each eigenvalue only to its
        # condition number times rounding, in either basis
        left = np.linalg.inv(vecs)
        kappa = np.linalg.norm(left, axis=1) * np.linalg.norm(vecs, axis=0)
        scale = np.abs(lam).max()
        assert np.all(cost[i, j] <= 1e-12 * scale * np.maximum(1.0, kappa[j]))


def test_hermitian_basis_matrix_rejects_a_map_that_breaks_hermiticity():
    spec = FockBasisSpec(n_trunc=4)
    L = Superoperator(left_mult(annihilation(spec)))
    with pytest.raises(ValueError, match="Hermiticity"):
        sme._real_form(L)
    # the deterministic integrator steps the state in the same basis
    with pytest.raises(ValueError, match="Hermiticity"):
        integrate_lindblad(L, fock_state(spec, 0), IntegratorConfig(dt=1e-3, t_final=0.01))


def test_superoperator_apply_and_shape_guards():
    spec = FockBasisSpec(n_trunc=4)
    h = number_op(spec)
    L = Superoperator(hamiltonian_term(h))
    rho = thermal_state(FockBasisSpec(n_trunc=4, tail_tolerance=0.05), 0.5)
    manual = -1j * (h @ rho.matrix - rho.matrix @ h)
    assert np.allclose(apply_map(L, rho.matrix), manual, atol=1e-14)
    vec_id = np.eye(L.dim, dtype=complex).reshape(-1, order="F")
    assert np.linalg.norm(vec_id @ L.csr) < 1e-14 * np.linalg.norm(L.csr.data)
    with pytest.raises(DimensionMismatch):
        Superoperator(np.zeros((5, 4)))
    with pytest.raises(DimensionMismatch):
        Superoperator(np.zeros((5, 5)))  # not a perfect-square edge


def test_dissipator_trace_annihilation():
    spec = FockBasisSpec(n_trunc=5)
    c = annihilation(spec)
    vec_id = np.eye(spec.dim, dtype=complex).reshape(-1, order="F")
    assert np.linalg.norm(vec_id @ dissipator(c)) < 1e-13


def test_parameter_validation():
    with pytest.raises(ValueError):
        default_params(chi=-1.0)
    with pytest.raises(ValueError):
        default_params(kappa=0.0)
    with pytest.raises(ValueError):
        default_params(eta=0.0)
    with pytest.raises(ValueError):
        default_params(eta=1.2)
    # non-finite values fail closed, each naming its field
    for name, value in (("chi", math.nan), ("nu", math.inf), ("gamma_h", math.nan),
                        ("kappa", math.inf), ("g", math.nan), ("n0", math.inf),
                        ("eta", math.nan), ("phi", math.nan), ("phi", -math.inf)):
        with pytest.raises(ValueError, match=name):
            default_params(**{name: value})
    with pytest.warns(UserWarning):
        default_params(chi=8.0)  # chi/kappa = 0.2 strains the elimination
    # the feedback current is the measurement: a gain needs a coupling
    with pytest.raises(ValueError, match="chi = 0 with g != 0"):
        default_params(chi=0.0, g=0.1)
    with pytest.raises(ValueError, match="measurement rate"):
        default_params(chi=1e-200, g=0.1)  # chi^2/kappa underflows to 0
    assert default_params(chi=0.0, g=0.0).measurement_rate == 0.0
    # chi^2 overflows: the rate is rejected by name, with or without a gain
    for g in (0.0, 0.1):
        with pytest.raises(ValueError, match=r"chi = 1e\+200 .*overflows"):
            default_params(chi=1e200, g=g)


def test_both_routes_refuse_feedback_without_a_position_signal():
    # at sin(phi) = 0 the current carries no position signal: the direct
    # route, which divides by nothing, refuses as the squeezed-bath one does
    spec = FockBasisSpec(n_trunc=5)
    for phi in (0.0, -0.0):
        for route in ("squeezed_bath", "direct"):
            with pytest.raises(InvalidFeedbackPhase, match="no position signal"):
                reduced_feedback_liouvillian(default_params(phi=phi), spec, route=route)
            # without a gain there is nothing to refuse
            L = reduced_feedback_liouvillian(default_params(phi=phi, g=0.0), spec, route=route)
            assert L.dim == spec.dim


@pytest.mark.parametrize(
    "term",
    [
        lambda a: 1e-3 * dissipator(a @ a),
        lambda a: hamiltonian_term(0.05 * np.linalg.matrix_power(a.conj().T @ a, 2)),
        lambda a: 1e-3 * dissipator(a.conj().T @ a),
    ],
    ids=["two_phonon_loss", "kerr", "dephasing"],
)
def test_a_non_gaussian_term_in_one_reduced_route_fails_the_projected_generator(monkeypatch, term):
    # each of these passed every other fast check when added to both routes
    direct = models._direct_assembly
    monkeypatch.setattr(
        models, "_direct_assembly",
        lambda params, spec, drive_x: direct(params, spec, drive_x) + term(annihilation(spec)),
    )
    ok, detail = validation._check_projected_generator()
    assert not ok, detail


def test_a_heating_rate_error_in_the_bipartite_builders_fails_the_projected_generator(monkeypatch):
    bipartite = models._meter_vibration_liouvillian

    def hotter(params, *args):
        return bipartite(dataclasses.replace(params, gamma_h=1.001 * params.gamma_h), *args)

    monkeypatch.setattr(models, "_meter_vibration_liouvillian", hotter)
    ok, detail = validation._check_projected_generator()
    assert not ok, detail


def test_feedback_builder_rejects_bad_setups():
    spec = FockBasisSpec(n_trunc=5)
    with pytest.raises(InvalidFeedbackPhase):
        reduced_feedback_liouvillian(default_params(phi=0.0), spec)
    with pytest.raises(ValueError):
        reduced_feedback_liouvillian(default_params(), spec, route="other")
    with pytest.raises(ValueError):
        offresonant_full_liouvillian(default_params(), spec, FockBasisSpec(n_trunc=1))
    with pytest.warns(UserWarning):
        strained = default_params(chi=12.0)  # chi/kappa = 0.3: outside the expansion
    joint = adiabatic_expansion(thermal_state(FockBasisSpec(n_trunc=5, tail_tolerance=0.01), 0.1), strained, 2)
    with pytest.raises(ValueError):
        adiabatic_expansion_residual(joint, strained, 2)


def _dense_feedback_formula(c, f, eta):
    """-i (I x F - F^T x I)(I x C + conj(C) x I) + D[F]/eta, built with np.kron."""
    eye = np.eye(c.shape[0])
    comm_f = np.kron(eye, f) - np.kron(f.T, eye)
    signal = np.kron(eye, c) + np.kron(c.conj(), eye)
    fdf = f.conj().T @ f
    d_f = np.kron(f.conj(), f) - 0.5 * (np.kron(eye, fdf) + np.kron(fdf.T, eye))
    return -1j * (comm_f @ signal) + d_f / eta


def test_markovian_feedback_terms_match_the_dense_formula():
    rng = np.random.default_rng(7)

    def random_op(dim):
        return rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))

    d, m = 4, 3
    cases = [
        (random_op(d + 1), random_op(d + 1)),  # reduced: both on the vibration
        # bipartite: C on the meter, F on the vibration, as the builders use them
        (np.kron(np.eye(d), random_op(m)), np.kron(random_op(d), np.eye(m))),
    ]
    for c, f in cases:
        for eta in (1.0, 0.37):
            got = markovian_feedback_terms(c, f, eta).toarray()
            want = _dense_feedback_formula(c, f, eta)
            assert np.linalg.norm(got - want) <= 1e-13 * np.linalg.norm(want)


def test_markovian_feedback_terms_shape_guard():
    spec = FockBasisSpec(n_trunc=4)
    small = FockBasisSpec(n_trunc=3)
    with pytest.raises(DimensionMismatch):
        markovian_feedback_terms(
            quadrature(spec, "position"),
            quadrature(small, "momentum"),
            0.9,
        )
    with pytest.raises(ValueError):
        markovian_feedback_terms(
            quadrature(spec, "position"),
            quadrature(spec, "momentum"),
            0.0,
        )
