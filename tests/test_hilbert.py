"""Truncated Fock algebra: ladder action, commutators, states, tensor layout."""
import math

import numpy as np
import pytest

from trapcool.errors import DimensionMismatch, DimensionOverflow, TailTooHeavy
from trapcool.hilbert import (
    MAX_TENSOR_DIM,
    DenseOperator,
    FockBasisSpec,
    annihilation,
    coherent_state,
    creation,
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


def geometric_mean_occupation(nbar, n_trunc):
    """Independent oracle: renormalized mean of the truncated geometric law."""
    q = nbar / (nbar + 1.0)
    n = np.arange(n_trunc + 1)
    w = q**n
    w = w / w.sum()
    return float((w * n).sum())


def test_lowering_operator_matrix_elements():
    spec = FockBasisSpec(n_trunc=6)
    a = annihilation(spec)
    for n in range(1, 7):
        col = np.zeros(7)
        col[n] = 1.0
        out = a @ col
        assert abs(out[n - 1] - math.sqrt(n)) < 1e-14
        out[n - 1] = 0.0
        assert np.all(out == 0)
    assert np.all(a @ np.eye(7)[:, 0] == 0)  # a|0> = 0


def test_creation_is_adjoint_of_annihilation():
    spec = FockBasisSpec(n_trunc=9)
    assert np.allclose(creation(spec), annihilation(spec).conj().T)


def test_quadrature_commutator_exact_truncated_form():
    # [X, P] = (i/2)(I - (n_trunc+1)|n_trunc><n_trunc|): canonical on the
    # interior, with the whole truncation deviation confined to the corner.
    for n_trunc in (4, 11):
        spec = FockBasisSpec(n_trunc=n_trunc)
        X = quadrature(spec, "position")
        P = quadrature(spec, "momentum")
        comm = X @ P - P @ X
        expected = 0.5j * np.eye(n_trunc + 1)
        expected[n_trunc, n_trunc] = 0.5j * (1 - (n_trunc + 1))
        assert np.max(np.abs(comm - expected)) < 1e-13
        interior = comm[:n_trunc, :n_trunc]
        assert np.max(np.abs(interior - 0.5j * np.eye(n_trunc))) < 1e-13


def test_vacuum_quadrature_variance_quarter():
    spec = FockBasisSpec(n_trunc=8)
    vac = fock_state(spec, 0)
    for which in ("position", "momentum"):
        q = quadrature(spec, which)
        var = expectation(vac, q @ q).real - expectation(vac, q).real ** 2
        assert abs(var - 0.25) < 1e-14


def test_two_level_algebra_and_basis_order():
    sm, sp, sx, sz = two_level_ops()
    # basis is [|+>, |->]; sigma_minus sends |+> to |->
    plus = np.array([1.0, 0.0])
    minus = np.array([0.0, 1.0])
    assert np.allclose(sm @ plus, minus)
    assert np.allclose(sp @ minus, plus)
    assert np.allclose(sx, sp + sm)
    assert np.allclose(sp @ sm - sm @ sp, sz)
    assert np.allclose(sz, np.diag([1.0, -1.0]))


def test_tensor_order_vibration_first():
    # (X tensor sigma_x) acting on |0> tensor |-> must give (|1>/2) tensor |+>
    spec = FockBasisSpec(n_trunc=3)
    X = quadrature(spec, "position")
    _, _, sx, _ = two_level_ops()
    joint = tensor(X, sx)
    vec0 = np.kron(np.eye(spec.dim)[:, 0], np.array([0.0, 1.0]))
    out = joint @ vec0
    expected = np.kron(np.eye(spec.dim)[:, 1] / 2.0, np.array([1.0, 0.0]))
    assert np.allclose(out, expected)


def test_tensor_associative_and_dimension_cap(monkeypatch):
    rng = np.random.default_rng(7)
    for _ in range(5):
        d1, d2, d3 = rng.integers(2, 5, size=3)
        A = rng.normal(size=(d1, d1)) + 1j * rng.normal(size=(d1, d1))
        B = rng.normal(size=(d2, d2)) + 1j * rng.normal(size=(d2, d2))
        C = rng.normal(size=(d3, d3)) + 1j * rng.normal(size=(d3, d3))
        assert np.allclose(tensor(tensor(A, B), C), tensor(A, tensor(B, C)))
    # the cap is checked before any product is formed
    monkeypatch.setattr(np, "kron", None)
    side = math.isqrt(MAX_TENSOR_DIM) + 1
    big = np.eye(side)
    with pytest.raises(DimensionOverflow, match=str(MAX_TENSOR_DIM)):
        tensor(big, big)


def test_thermal_state_matches_geometric_oracle():
    spec = FockBasisSpec(n_trunc=120, tail_tolerance=1e-4)
    rho = thermal_state(spec, 10.0)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-13
    assert np.array_equal(rho.matrix, rho.matrix.conj().T)
    n = expectation(rho, number_op(spec)).real
    oracle = geometric_mean_occupation(10.0, 120)
    assert abs(n - oracle) < 1e-10
    # frozen oracle value: truncation at 120 still sits ~1.2e-3 below nbar
    assert abs(n - 9.998813480924177) < 1e-9
    # populations are geometric: p_{n+1}/p_n = nbar/(nbar+1)
    p = np.real(np.diag(rho.matrix))
    ratios = p[1:] / p[:-1]
    assert np.max(np.abs(ratios - 10.0 / 11.0)) < 1e-12


def test_thermal_state_mean_within_tolerance_at_deep_cutoff():
    # cutoff deep enough that the truncated mean is within 1e-6 of nbar
    spec = FockBasisSpec(n_trunc=210, tail_tolerance=1e-6)
    rho = thermal_state(spec, 10.0)
    n = expectation(rho, number_op(spec)).real
    assert abs(n - 10.0) < 1e-6
    assert abs(n - 9.999999610573152) < 1e-9  # frozen oracle value


def test_thermal_tail_guard_trips_with_reported_mass():
    spec = FockBasisSpec(n_trunc=5, tail_tolerance=1e-6)
    with pytest.raises(TailTooHeavy) as err:
        thermal_state(spec, 10.0)
    # tail above cutoff 5 is (10/11)^6
    assert abs(err.value.tail - 0.5644739300537773) < 1e-12


def test_thermal_state_zero_temperature_is_vacuum():
    spec = FockBasisSpec(n_trunc=4)
    rho = thermal_state(spec, 0.0)
    assert np.allclose(rho.matrix, fock_state(spec, 0).matrix)


def test_coherent_state_moments_and_tail_guard():
    spec = FockBasisSpec(n_trunc=40, tail_tolerance=1e-8)
    alpha = 1.3 - 0.4j
    rho = coherent_state(spec, alpha)
    assert abs(np.trace(rho.matrix).real - 1.0) < 1e-12
    a = annihilation(spec)
    assert abs(expectation(rho, a) - alpha) < 1e-9
    X = quadrature(spec, "position")
    assert abs(expectation(rho, X).real - alpha.real) < 1e-9
    with pytest.raises(TailTooHeavy):
        coherent_state(FockBasisSpec(n_trunc=4, tail_tolerance=1e-8), 2.0)


def test_state_constructors_reject_non_finite_input():
    spec = FockBasisSpec(n_trunc=8)
    for value in (math.nan, math.inf, -math.inf):
        with pytest.raises(ValueError, match="nbar must be finite"):
            thermal_state(spec, value)
    for value in (math.nan, math.inf, -math.inf, complex(math.nan, math.nan), complex(0.5, math.inf)):
        with pytest.raises(ValueError, match="alpha must be finite"):
            coherent_state(spec, value)


def test_expectation_against_direct_trace():
    rng = np.random.default_rng(21)
    spec = FockBasisSpec(n_trunc=5)
    m = rng.normal(size=(6, 6)) + 1j * rng.normal(size=(6, 6))
    rho_m = m @ m.conj().T
    rho_m /= np.trace(rho_m)
    rho = DenseOperator(rho_m)
    op = rng.normal(size=(6, 6)).astype(complex)
    assert abs(expectation(rho, op) - np.trace(rho_m @ op)) < 1e-12
    with pytest.raises(DimensionMismatch):
        expectation(rho, np.eye(3))


def test_partial_trace_undoes_tensor():
    rng = np.random.default_rng(3)
    A = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    B = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    joint = DenseOperator(tensor(A, B))
    assert np.allclose(partial_trace(joint, 2).matrix, A * np.trace(B))
    # the meter dimension must be a positive divisor of the joint dimension
    for meter_dim in (3, 0):
        with pytest.raises(DimensionMismatch):
            partial_trace(joint, meter_dim)


def test_trace_norm_of_hermitian_is_abs_eigenvalue_sum():
    rng = np.random.default_rng(11)
    m = rng.normal(size=(5, 5))
    h = m + m.T
    assert abs(trace_norm(h) - np.abs(np.linalg.eigvalsh(h)).sum()) < 1e-10


def test_operator_wrapper_rejects_nonsquare_and_mismatch():
    with pytest.raises(DimensionMismatch):
        DenseOperator(np.zeros((2, 3)))
    with pytest.raises(TypeError):
        DenseOperator(np.eye(2), dim=5)  # dim is derived, never passed
    rho = DenseOperator(np.eye(2) / 2.0)
    with pytest.raises(ValueError):
        rho.matrix[0, 0] = 1.0  # a stored state is read-only
    with pytest.raises(DimensionMismatch):
        expectation(rho, np.eye(3))


def test_operator_builders_return_plain_complex_arrays():
    # operators are arrays; DenseOperator is the state type alone
    spec = FockBasisSpec(n_trunc=4)
    ops = [identity(spec), annihilation(spec), creation(spec), number_op(spec),
           quadrature(spec, "position"), quadrature(spec, "momentum"), *two_level_ops()]
    ops.append(tensor(ops[1], ops[-1]))
    for op in ops:
        assert type(op) is np.ndarray and op.dtype == complex and op.ndim == 2
    for name in ("dag", "trace", "is_hermitian", "__matmul__", "__add__", "__mul__", "__neg__"):
        assert not hasattr(DenseOperator, name), name


def test_basis_spec_validation():
    with pytest.raises(ValueError):
        FockBasisSpec(n_trunc=0)
    with pytest.raises(ValueError):
        FockBasisSpec(n_trunc=4, tail_tolerance=0.0)
    assert FockBasisSpec(n_trunc=7).dim == 8
