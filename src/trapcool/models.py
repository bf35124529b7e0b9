"""Generators for the trapped-particle cooling models.

Three tiers share one convention set: X = (a + a')/2, P = (a - a')/(2i),
the vibrational factor comes first in tensor products, the meter basis is
ordered [|+>, |->], and superoperators act on column-stacked vectors,
vec(A rho B) = kron(B.T, A) vec(rho).

The bipartite builders describe the vibration watched by a fast decaying
meter (a two-level system on resonance, a damped field mode off resonance).
The meter dimension alone tells the elimination helpers which meter a
joint state has: 2 is the resonant two-level meter, 3 or more the field
mode on levels 0..meter_dim - 1. Both are eliminated by one projection
built from the meter's decay L_m = kappa D[c] alone: its resting level
(the one c annihilates), Q = 1 - |rest><rest| (x) Tr_m and the group
inverse L_m^# = (L_m + P0)^-1 - P0 with P0 = vec(rest) vec(1)^T, whose
responses carry no meter trace.
The reduced builders describe the vibration alone after the meter has been
eliminated, with position measurement at rate chi^2/kappa and optional
instantaneous current feedback.

scipy.sparse is imported where a generator is built, so the closed-form
commands, which build none, start without it.
"""
from __future__ import annotations

import cmath
import dataclasses
import math
import warnings
from typing import NamedTuple

import numpy as np

from .errors import DimensionMismatch, InvalidFeedbackPhase
from .gaussian import bath_params
from .hilbert import (
    DenseOperator,
    FockBasisSpec,
    annihilation,
    identity,
    number_op,
    partial_trace,
    quadrature,
    tensor,
    trace_norm,
    two_level_ops,
)

__all__ = [
    "SystemParams",
    "Superoperator",
    "left_mult",
    "right_mult",
    "hamiltonian_term",
    "dissipator",
    "heating_liouvillian",
    "reduced_measurement_liouvillian",
    "markovian_feedback_terms",
    "reduced_feedback_liouvillian",
    "resonant_full_liouvillian",
    "offresonant_full_liouvillian",
    "adiabatic_expansion",
    "adiabatic_expansion_residual",
]


class StepRates(NamedTuple):
    nu: float
    gamma_h: float
    measurement: float
    damping: float
    feedback_noise: float


@dataclasses.dataclass(frozen=True)
class SystemParams:
    """Physical rates and phases of one scenario.

    All rates are angular frequencies in one common unit; occupancies and
    contours depend only on rate ratios, so the unit choice cancels.
    chi is the effective position-measurement coupling, kappa the meter
    decay, gamma_h the heating rate, eta the detection efficiency, nu the
    trap frequency, g the feedback gain, phi the local-oscillator phase
    and n0 the initial thermal occupancy used by trajectory defaults.

    The feedback current is the position measurement, so g != 0 needs a
    measurement rate chi^2/kappa > 0, and a detected rate eta chi^2/kappa
    > 0 to divide the feedback noise by; only this class checks those
    rules.
    """

    chi: float
    kappa: float
    gamma_h: float
    eta: float
    nu: float
    g: float
    phi: float
    n0: float = 0.0

    def __post_init__(self):
        # written to fail closed: every comparison with NaN is False. Direct
        # reads, not a getattr loop: sweep builds one SystemParams per row
        if not 0.0 <= self.chi < math.inf:
            raise ValueError("chi must be finite and >= 0")
        if not 0.0 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and >= 0")
        if not 0.0 <= self.gamma_h < math.inf:
            raise ValueError("gamma_h must be finite and >= 0")
        if not 0.0 <= self.nu < math.inf:
            raise ValueError("nu must be finite and >= 0")
        if not 0.0 <= self.g < math.inf:
            raise ValueError("g must be finite and >= 0")
        if not 0.0 <= self.n0 < math.inf:
            raise ValueError("n0 must be finite and >= 0")
        if self.kappa == 0:
            raise ValueError("kappa must be > 0")
        m_rate = self.measurement_rate
        if not m_rate < math.inf:
            raise ValueError(f"chi = {self.chi!r} is too large: the measurement rate chi^2/kappa overflows")
        if self.g != 0 and m_rate == 0:  # chi = 0, or chi^2/kappa underflows
            raise ValueError("feedback needs a measurement rate chi^2/kappa > 0 (chi = 0 with g != 0)")
        if not 0.0 < self.eta <= 1.0:
            raise ValueError("eta must lie in (0, 1]")
        if self.g != 0 and self.eta * m_rate == 0:
            raise ValueError(
                f"eta chi^2/kappa underflows to zero at eta = {self.eta!r}, "
                f"chi^2/kappa = {m_rate!r}; the feedback noise "
                "g^2 / (4 eta chi^2/kappa) divides by it"
            )
        if not math.isfinite(self.phi):
            raise ValueError("phi must be finite")
        if self.chi / self.kappa > 0.1:
            warnings.warn(
                "chi/kappa above 0.1 strains the meter elimination", stacklevel=2
            )

    @property
    def measurement_rate(self) -> float:
        """Effective position-measurement rate chi^2/kappa of the reduced model.

        Reads inf, rather than raising OverflowError, where chi^2 overflows.
        """
        # chi**2 (libm's pow) and chi * chi differ in the last bit for about
        # one chi in a thousand, so the reported rates depend on keeping pow
        try:
            return self.chi**2 / self.kappa
        except OverflowError:
            return math.inf

    @property
    def step_rates(self) -> StepRates:
        """StepRates(nu, gamma_h, chi^2/kappa, |g sin(phi)|, D): what a reduced step must resolve.

        D = g^2 / (4 eta chi^2/kappa), 0 at g = 0, is the feedback noise
        rate: the angle of one feedback kick has variance 4 D dt.
        """
        # g * g reads inf where g**2 raises; dividing by 4 eta first keeps inf / inf (NaN) out
        noise = self.g * self.g / (4.0 * self.eta) / self.measurement_rate if self.g else 0.0
        return StepRates(self.nu, self.gamma_h, self.measurement_rate, abs(self.g * math.sin(self.phi)), noise)

    @property
    def adiabatic_regime(self) -> bool:
        """True when the meter is fast enough to eliminate (chi/kappa <= 0.25)."""
        return self.chi / self.kappa <= 0.25


@dataclasses.dataclass(frozen=True, eq=False)
class Superoperator:
    """Sparse matrix of a linear map on column-vectorized density matrices.

    Accepts a dense array or any scipy.sparse matrix and stores it as a
    canonical complex CSR array in csr. The matrix property is a
    read-only dense copy made on each access; it holds d^4 entries, so
    only tests and the benchmark worker (bench/worker.py) read it. The
    integrators in sme read csr, and write it in the real Hermitian basis
    themselves.
    """

    csr: scipy.sparse.csr_array
    dim: int = dataclasses.field(init=False)

    def __post_init__(self):
        import scipy.sparse

        try:
            m = scipy.sparse.csr_array(self.csr, dtype=complex, copy=True)
        except (TypeError, ValueError) as err:
            raise DimensionMismatch("superoperator matrix must be square") from err
        if len(m.shape) != 2 or m.shape[0] != m.shape[1]:
            raise DimensionMismatch("superoperator matrix must be square")
        side = math.isqrt(m.shape[0])
        if side * side != m.shape[0]:
            raise DimensionMismatch("superoperator side must be a perfect square")
        m.sum_duplicates()
        object.__setattr__(self, "csr", m)
        object.__setattr__(self, "dim", side)

    @property
    def matrix(self) -> np.ndarray:
        """Dense read-only copy of the stored matrix."""
        dense = self.csr.toarray()
        dense.setflags(write=False)
        return dense


def _sandwich(a: np.ndarray, b: np.ndarray) -> scipy.sparse.csr_array:
    # rho -> a rho b
    import scipy.sparse

    return scipy.sparse.csr_array(scipy.sparse.kron(b.T, a, format="csr"))


def left_mult(op: np.ndarray) -> scipy.sparse.csr_array:
    """Superoperator matrix of rho -> op rho."""
    return _sandwich(op, np.eye(op.shape[0]))


def right_mult(op: np.ndarray) -> scipy.sparse.csr_array:
    """Superoperator matrix of rho -> rho op."""
    return _sandwich(np.eye(op.shape[0]), op)


def hamiltonian_term(h: np.ndarray) -> scipy.sparse.csr_array:
    """Superoperator matrix of -i[H, rho]."""
    return -1j * (left_mult(h) - right_mult(h))


def dissipator(c: np.ndarray) -> scipy.sparse.csr_array:
    """Lindblad dissipator c rho c' - (c'c rho + rho c'c)/2."""
    cdc = c.conj().T @ c
    return _sandwich(c, c.conj().T) - 0.5 * (left_mult(cdc) + right_mult(cdc))


def heating_liouvillian(spec: FockBasisSpec, gamma_h: float) -> Superoperator:
    """Symmetric diffusion at rate gamma_h: equal up and down jump rates.

    Under this generator alone d<a'a>/dt = gamma_h for any state supported
    away from the truncation edge.
    """
    if gamma_h < 0:
        raise ValueError("gamma_h must be >= 0")
    a = annihilation(spec)
    return Superoperator(gamma_h * (dissipator(a) + dissipator(a.conj().T)))


def reduced_measurement_liouvillian(
    params: SystemParams, spec: FockBasisSpec, *, drive_x: float = 0.0
) -> Superoperator:
    """Measurement-only reduced generator: rotation, heating, X double commutator.

    This is the deterministic part of the conditioned dynamics, i.e. the
    ensemble average of the unraveling with no feedback applied. drive_x
    adds a weak displacement Hamiltonian drive_x * X, handy for moving
    <X> off zero in steady-state comparisons.
    """
    x = quadrature(spec, "position")
    n = number_op(spec)
    h = params.nu * n + drive_x * x
    mat = hamiltonian_term(h)
    mat = mat + heating_liouvillian(spec, params.gamma_h).csr
    mat = mat + params.measurement_rate * dissipator(x)
    return Superoperator(mat)


def markovian_feedback_terms(
    c: np.ndarray, feedback_h: np.ndarray, eta: float
) -> scipy.sparse.csr_array:
    """Ensemble-average contribution of instantaneous current feedback.

    c is the measured collapse operator, feedback_h the operator F fed by
    the unit-normalized current, eta the detection efficiency. Returns the
    matrix of -i[F, c rho + rho c'] + (1/eta) D[F], with the commutator
    expanded as F c rho + F rho c' - c rho F - rho c' F.
    """
    if not 0.0 < eta <= 1.0:
        raise ValueError("eta must lie in (0, 1]")
    f = feedback_h
    if c.shape != f.shape:
        raise DimensionMismatch("collapse and feedback operators must share a dimension")
    cd = c.conj().T
    comm = left_mult(f @ c) + _sandwich(f, cd) - _sandwich(c, f) - right_mult(cd @ f)
    return -1j * comm + (1.0 / eta) * dissipator(f)


def _direct_assembly(
    params: SystemParams, spec: FockBasisSpec, drive_x: float
) -> scipy.sparse.csr_array:
    mat = reduced_measurement_liouvillian(params, spec, drive_x=drive_x).csr
    if params.g != 0.0:
        m_rate = params.measurement_rate
        x = quadrature(spec, "position")
        p = quadrature(spec, "momentum")
        c = -1j * cmath.exp(-1j * params.phi) * math.sqrt(m_rate) * x
        f = -(params.g / math.sqrt(m_rate)) * p
        mat = mat + markovian_feedback_terms(c, f, params.eta)
    return mat


def _squeezed_bath_assembly(
    params: SystemParams, spec: FockBasisSpec, drive_x: float
) -> scipy.sparse.csr_array:
    bp = bath_params(params)
    a = annihilation(spec)
    ad = a.conj().T
    aa = a @ a
    adad = ad @ ad
    gam = bp.Gamma
    mat = gam * (bp.N + 1.0) * dissipator(a)
    mat = mat + gam * bp.N * dissipator(ad)
    mat = mat - 0.5 * gam * bp.M * (2.0 * _sandwich(ad, ad) - left_mult(adad) - right_mult(adad))
    mat = mat - 0.5 * gam * np.conj(bp.M) * (2.0 * _sandwich(a, a) - left_mult(aa) - right_mult(aa))
    # parametric term: real multiple of the commutator with a^2 - a'^2
    k = aa - adad
    mat = mat - 0.25 * params.g * math.sin(params.phi) * (left_mult(k) - right_mult(k))
    h = params.nu * number_op(spec) + drive_x * quadrature(spec, "position")
    mat = mat + hamiltonian_term(h)
    return mat


def reduced_feedback_liouvillian(
    params: SystemParams,
    spec: FockBasisSpec,
    *,
    route: str = "squeezed_bath",
    drive_x: float = 0.0,
) -> Superoperator:
    """Unconditioned master equation of the measured and fed-back vibration.

    route picks the assembly. "squeezed_bath" writes the generator as an
    effective thermal-squeezed reservoir (rates Gamma, N, M) plus a
    parametric term and the free rotation. "direct" composes measurement,
    heating and the Markovian feedback terms. The two coincide to rounding
    on every matrix element that does not touch the top Fock level; at
    phi = -pi/2 they coincide including the edge. g = 0 always uses the
    direct composition because the effective-reservoir rates divide by
    g sin(phi).

    Both routes raise InvalidFeedbackPhase for g != 0 at sin(phi) = 0.
    The direct route divides by nothing there, but the refusal is
    physical, not arithmetic: at that local-oscillator phase the current
    carries no position signal, so the loop feeds back pure noise: it
    heats the mode by g^2 / (4 eta chi^2/kappa) while the damping rate
    Gamma = -g sin(phi) is zero. No cooled steady state exists to compare
    across the routes.
    """
    if route not in ("squeezed_bath", "direct"):
        raise ValueError("route must be 'squeezed_bath' or 'direct'")
    if params.g != 0.0 and math.sin(params.phi) == 0.0:
        raise InvalidFeedbackPhase(
            "sin(phi) = 0 leaves no position signal in the current to feed back"
        )
    if params.g == 0.0 or route == "direct":
        return Superoperator(_direct_assembly(params, spec, drive_x))
    return Superoperator(_squeezed_bath_assembly(params, spec, drive_x))


def _meter_vibration_liouvillian(
    params: SystemParams,
    spec: FockBasisSpec,
    c: np.ndarray,
    include_feedback: bool,
    drive_x: float,
) -> Superoperator:
    # H = nu a'a + chi X (c + c')/2 (+ drive_x X), meter decay kappa D[c],
    # heating on the vibration, and current feedback on the emitted light
    id_m = np.eye(c.shape[0])
    x = quadrature(spec, "position")
    h = params.nu * tensor(number_op(spec), id_m) + params.chi * tensor(x, 0.5 * (c + c.conj().T))
    if drive_x != 0.0:
        h = h + drive_x * tensor(x, id_m)
    cm = tensor(identity(spec), c)
    av = tensor(annihilation(spec), id_m)
    mat = hamiltonian_term(h)
    mat = mat + params.kappa * dissipator(cm)
    if params.gamma_h != 0.0:
        mat = mat + params.gamma_h * (dissipator(av) + dissipator(av.conj().T))
    if include_feedback and params.g != 0.0:
        m_rate = params.measurement_rate
        p_vib = tensor(quadrature(spec, "momentum"), id_m)
        signal = cmath.exp(-1j * params.phi) * math.sqrt(params.kappa) * cm
        f = -(params.g / math.sqrt(m_rate)) * p_vib
        mat = mat + markovian_feedback_terms(signal, f, params.eta)
    return Superoperator(mat)


def resonant_full_liouvillian(
    params: SystemParams,
    spec: FockBasisSpec,
    *,
    include_feedback: bool = False,
    drive_x: float = 0.0,
) -> Superoperator:
    """Vibration coupled to a resonant two-level meter that decays at kappa.

    H = nu a'a + (chi/2) sigma_x X. The half on the coupling makes the
    meter response per unit X equal to chi/kappa and the eliminated
    measurement rate equal to chi^2/kappa, matching the reduced model.
    include_feedback adds the same current feedback the reduced model
    uses, acting on the homodyne signal of the emitted light; drive_x
    adds drive_x * X on the vibration.
    """
    return _meter_vibration_liouvillian(
        params, spec, two_level_ops().sigma_minus, include_feedback, drive_x
    )


def offresonant_full_liouvillian(
    params: SystemParams,
    spec_vib: FockBasisSpec,
    spec_field: FockBasisSpec,
    *,
    include_feedback: bool = False,
    drive_x: float = 0.0,
) -> Superoperator:
    """Vibration coupled to a far-detuned field mode that decays at kappa.

    H = nu a'a + chi Y X with Y = (b + b')/2 the field quadrature at
    reference phase zero. The field truncation must keep at least three
    levels: the weak-coupling structure of the joint state populates the
    field up to |2>.
    """
    if spec_field.n_trunc < 2:
        raise ValueError("field truncation must keep levels up to |2>")
    return _meter_vibration_liouvillian(
        params, spec_vib, annihilation(spec_field), include_feedback, drive_x
    )


def _meter(meter_dim: int, kappa: float):
    # c, its resting level and y -> -L_m^# Q y on joint tensors y[i, a, j, b, ...]
    if meter_dim < 2:
        raise ValueError(f"meter_dim must be 2 (two-level meter) or >= 3 (field mode), got {meter_dim}")
    c = two_level_ops().sigma_minus if meter_dim == 2 else annihilation(FockBasisSpec(n_trunc=meter_dim - 1))
    rest = int(np.flatnonzero(~c.any(axis=0))[0])  # the level c annihilates
    p0 = np.outer(np.eye(meter_dim**2)[rest * (meter_dim + 1)], np.eye(meter_dim).ravel())
    inverse = (np.linalg.inv(kappa * dissipator(c).toarray() + p0) - p0).reshape((meter_dim,) * 4)

    def respond(y):
        q = y.copy()
        q[:, rest, :, rest] -= np.einsum("iaja...->ij...", y)
        return -np.einsum("BAba,iajb...->iAjB...", inverse, q)

    return c, rest, respond


def adiabatic_expansion(rho: DenseOperator, params: SystemParams, meter_dim: int) -> DenseOperator:
    """Joint state predicted by the weak-coupling expansion for a vibrational state.

    y0 + y1 + y2, second order in chi/kappa: y0 = rho (x) |rest><rest| and
    y_(k+1) = -L_m^# Q V_c y_k with V_c = -i[chi X (x) (c + c')/2, .]. The
    sum's meter trace is put back on the resting level.
    """
    c, r, respond = _meter(meter_dim, params.kappa)
    d, n = rho.dim, rho.dim * meter_dim
    h = params.chi * tensor(quadrature(FockBasisSpec(n_trunc=d - 1), "position"), 0.5 * (c + c.conj().T))
    y = np.zeros((d, meter_dim, d, meter_dim), dtype=complex)
    y[:, r, :, r] = rho.matrix
    out = y.copy()
    for _ in range(2):
        y = respond((-1j * (h @ y.reshape(n, n) - y.reshape(n, n) @ h)).reshape(y.shape))
        out += y
    out[:, r, :, r] += rho.matrix - np.einsum("iaja->ij", out)
    return DenseOperator(out.reshape(n, n))


def adiabatic_expansion_residual(joint: DenseOperator, params: SystemParams, meter_dim: int) -> float:
    """Trace-norm distance between a joint state and its weak-coupling model.

    The meter (dimension meter_dim) is traced out of the joint state, and
    the expansion rebuilt from the vibrational part is compared with the
    original. On either meter's steady state it falls as (chi/kappa)^2.
    """
    if not params.adiabatic_regime:
        raise ValueError("expansion requires chi/kappa <= 0.25")
    model = adiabatic_expansion(partial_trace(joint, meter_dim), params, meter_dim)
    return trace_norm(joint.matrix - model.matrix)
