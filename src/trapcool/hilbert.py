"""Truncated Fock-space operators and states for one vibrational mode.

Operators are arrays; DenseOperator is a state. The operator builders
and tensor take and return plain complex numpy arrays; the state
constructors, partial_trace and the solvers of the sme module return
DenseOperator, a read-only square density matrix.

Conventions used everywhere in the package:

* quadratures X = (a + a^dag)/2 and P = (a - a^dag)/(2i), so [X, P] = i/2
  away from the truncation corner and the vacuum has <X^2> = <P^2> = 1/4;
* two-level (meter) space ordered [|+>, |->] with sigma_z = diag(1, -1);
* tensor products put the vibrational mode first, the meter second, and
  partial_trace(rho, meter_dim) traces out the meter.

Truncation at n_trunc keeps levels 0..n_trunc (dimension n_trunc + 1).
State constructors refuse to build a state whose untruncated tail mass
exceeds the tolerance carried by the basis spec.
"""
from __future__ import annotations

import cmath
import math
from dataclasses import dataclass, field
from typing import Literal, NamedTuple

import numpy as np

from .errors import DimensionMismatch, DimensionOverflow, TailTooHeavy

# Cap on the joint dimension produced by tensor(). A superoperator on such a
# space has d^2 rows, stored sparse; only its dense view would hold d^4 entries.
MAX_TENSOR_DIM = 8192


@dataclass(frozen=True)
class FockBasisSpec:
    """Truncation contract: keep Fock levels 0..n_trunc.

    tail_tolerance bounds the population the untruncated state may carry
    above the cutoff before construction fails.
    """

    n_trunc: int
    tail_tolerance: float = 1e-6

    def __post_init__(self):
        if not isinstance(self.n_trunc, int) or self.n_trunc < 1:
            raise ValueError(f"n_trunc must be an integer >= 1, got {self.n_trunc!r}")
        if not (0.0 < self.tail_tolerance < 1.0):
            raise ValueError(
                f"tail_tolerance must lie in (0, 1), got {self.tail_tolerance!r}"
            )

    @property
    def dim(self) -> int:
        return self.n_trunc + 1


@dataclass(frozen=True, eq=False)
class DenseOperator:
    """Density matrix on a truncated Hilbert space.

    Operators are plain complex arrays; DenseOperator is a state. It is
    what the state constructors, partial_trace and the solvers return.
    The stored array is a read-only square copy; dim is derived from its
    shape.
    """

    matrix: np.ndarray
    dim: int = field(init=False)

    def __post_init__(self):
        m = np.array(self.matrix, dtype=complex, copy=True)
        if m.ndim != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch(f"a state must be a square matrix, got shape {m.shape}")
        m.flags.writeable = False
        object.__setattr__(self, "matrix", m)
        object.__setattr__(self, "dim", m.shape[0])


def identity(spec: FockBasisSpec) -> np.ndarray:
    return np.eye(spec.dim, dtype=complex)


def annihilation(spec: FockBasisSpec) -> np.ndarray:
    """Ladder lowering operator: <n-1| a |n> = sqrt(n)."""
    return np.diag(np.sqrt(np.arange(1.0, spec.dim)), k=1).astype(complex)


def creation(spec: FockBasisSpec) -> np.ndarray:
    return np.diag(np.sqrt(np.arange(1.0, spec.dim)), k=-1).astype(complex)


def number_op(spec: FockBasisSpec) -> np.ndarray:
    return np.diag(np.arange(float(spec.dim))).astype(complex)


def quadrature(spec: FockBasisSpec, which: Literal["position", "momentum"]) -> np.ndarray:
    """X = (a + a^dag)/2 or P = (a - a^dag)/(2i) on the truncated ladder."""
    a = annihilation(spec)
    if which == "position":
        return (a + a.conj().T) / 2.0
    if which == "momentum":
        return (a - a.conj().T) / 2.0j
    raise ValueError(f"which must be 'position' or 'momentum', got {which!r}")


class TwoLevelOps(NamedTuple):
    sigma_minus: np.ndarray
    sigma_plus: np.ndarray
    sigma_x: np.ndarray
    sigma_z: np.ndarray


def two_level_ops() -> TwoLevelOps:
    """Meter operators in the ordered basis [|+>, |->].

    sigma_minus = |-><+| lowers, sigma_plus = |+><-| raises,
    sigma_z = diag(1, -1).
    """
    sm = np.array([[0.0, 0.0], [1.0, 0.0]], dtype=complex)
    sp = np.array([[0.0, 1.0], [0.0, 0.0]], dtype=complex)
    sx = np.array([[0.0, 1.0], [1.0, 0.0]], dtype=complex)
    sz = np.array([[1.0, 0.0], [0.0, -1.0]], dtype=complex)
    return TwoLevelOps(sm, sp, sx, sz)


def tensor(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Kronecker product with the first factor on the left (vibration first)."""
    joint = a.shape[0] * b.shape[0]
    if joint > MAX_TENSOR_DIM:
        raise DimensionOverflow(
            f"tensor product dimension {joint} exceeds the cap {MAX_TENSOR_DIM}"
        )
    return np.kron(a, b)


def fock_state(spec: FockBasisSpec, n: int) -> DenseOperator:
    if not 0 <= n <= spec.n_trunc:
        raise ValueError(f"Fock level {n} outside 0..{spec.n_trunc}")
    rho = np.zeros((spec.dim, spec.dim), dtype=complex)
    rho[n, n] = 1.0
    return DenseOperator(rho)


def thermal_state(spec: FockBasisSpec, nbar: float) -> DenseOperator:
    """Thermal density matrix with mean occupation nbar before truncation.

    Populations follow the geometric law p_n proportional to q^n with
    q = nbar/(nbar + 1). The untruncated tail mass above the cutoff is
    q^(n_trunc + 1); if it exceeds spec.tail_tolerance the constructor
    raises TailTooHeavy instead of silently renormalizing away a large
    chunk of the distribution.
    """
    if not math.isfinite(nbar):
        raise ValueError(f"nbar must be finite, got {nbar}")
    if nbar < 0:
        raise ValueError(f"nbar must be nonnegative, got {nbar}")
    if nbar == 0:
        return fock_state(spec, 0)
    q = nbar / (nbar + 1.0)
    tail = q ** (spec.n_trunc + 1)
    if tail > spec.tail_tolerance:
        raise TailTooHeavy(
            f"thermal tail mass {tail:.6g} above n_trunc={spec.n_trunc} exceeds "
            f"tolerance {spec.tail_tolerance:.3g} for nbar={nbar}",
            tail=tail,
        )
    weights = q ** np.arange(spec.dim)
    weights /= weights.sum()
    return DenseOperator(np.diag(weights.astype(complex)))


def coherent_state(spec: FockBasisSpec, alpha: complex) -> DenseOperator:
    """Coherent state |alpha><alpha| truncated to the ladder.

    Tail mass is the Poisson tail above n_trunc at mean |alpha|^2.
    """
    if not cmath.isfinite(alpha):
        raise ValueError(f"alpha must be finite, got {alpha}")
    mean = abs(alpha) ** 2
    # kept Poisson mass sum_{n<=N} e^-mean mean^n / n!, evaluated stably in log space
    logterms = [-mean + n * math.log(mean) - math.lgamma(n + 1) if mean > 0 else (0.0 if n == 0 else -math.inf)
                for n in range(spec.dim)]
    kept = sum(math.exp(t) for t in logterms)
    tail = max(0.0, 1.0 - kept)
    if tail > spec.tail_tolerance:
        raise TailTooHeavy(
            f"coherent tail mass {tail:.6g} above n_trunc={spec.n_trunc} exceeds "
            f"tolerance {spec.tail_tolerance:.3g} for |alpha|={abs(alpha):.4g}",
            tail=tail,
        )
    amps = np.zeros(spec.dim, dtype=complex)
    for n in range(spec.dim):
        amps[n] = math.exp(logterms[n] / 2.0) if mean > 0 else (1.0 if n == 0 else 0.0)
        if mean > 0 and alpha != 0:
            amps[n] *= (alpha / abs(alpha)) ** n
    vec = amps / np.linalg.norm(amps)
    return DenseOperator(np.outer(vec, vec.conj()))


def expectation(rho: DenseOperator, op: np.ndarray) -> complex:
    """Tr(rho op). Caller decides whether to take the real part."""
    if op.shape != (rho.dim, rho.dim):
        raise DimensionMismatch(f"state dim {rho.dim} vs operator shape {op.shape}")
    return complex(np.trace(rho.matrix @ op))


def partial_trace(rho: DenseOperator, meter_dim: int) -> DenseOperator:
    """Trace out the meter, the second factor of a vibration (x) meter state.

    Raises DimensionMismatch unless meter_dim >= 1 divides the state dim.
    """
    if meter_dim < 1 or rho.dim % meter_dim:
        raise DimensionMismatch(
            f"joint dim {rho.dim} does not factor over a meter of dim {meter_dim}"
        )
    d = rho.dim // meter_dim
    return DenseOperator(np.einsum("ijkj->ik", rho.matrix.reshape(d, meter_dim, d, meter_dim)))


def trace_norm(m: np.ndarray) -> float:
    """Trace norm (sum of singular values) of a matrix."""
    return float(np.sum(np.linalg.svd(m, compute_uv=False)))
