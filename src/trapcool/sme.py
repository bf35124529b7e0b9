"""Time evolution for the cooling models.

Deterministic propagation of any generator built by the models module,
sparse LU kernel solves for steady states (both in the real Hermitian
basis, which only _real_form builds), and the Ito unraveling of the
continuous position measurement: HomodyneStepper's measure and kick
steps, run_trajectory to alternate them, and ensemble_mean to average
trajectories back onto the unconditioned dynamics.

scipy.sparse is imported where a generator is built, converted or
factored, so the per-step code never reads the scipy module.
"""
from __future__ import annotations

import cmath
import dataclasses
import functools
import math
import warnings

import numpy as np

from .errors import (
    DimensionMismatch,
    NotUnique,
    StepTooLarge,
    TailTooHeavy,
    Unstable,
)
from .hilbert import (
    DenseOperator,
    FockBasisSpec,
    number_op,
    quadrature,
    thermal_state,
    trace_norm,
)
from .models import Superoperator, SystemParams, reduced_measurement_liouvillian

__all__ = [
    "IntegratorConfig",
    "TrajectoryRecord",
    "EnsembleMoments",
    "HomodyneStepper",
    "enforce_step_limit",
    "integrate_lindblad",
    "steady_state",
    "run_trajectory",
    "ensemble_mean",
]

_TRACE_TOL = 1e-7
_HARD_STEP = 0.1
_SOFT_STEP = 0.02
# largest population a steady state may keep in its tail_block edge entries
_EDGE_TOL = 1e-3


def enforce_step_limit(dt: float, rates) -> None:
    """Reject or warn about time steps that under-resolve the fastest rate.

    dt * max(rates) above 0.1 raises StepTooLarge; above 0.02 warns. Both
    name the largest field of a named tuple, as SystemParams.step_rates is.
    """
    sizes = [abs(r) for r in rates]
    fastest = max(sizes, default=0.0)
    rate = f"max rate ({rates._fields[sizes.index(fastest)]})" if hasattr(rates, "_fields") else "max rate"
    if dt * fastest > _HARD_STEP:
        raise StepTooLarge(
            f"dt * {rate} = {dt * fastest:.3g} exceeds the hard limit {_HARD_STEP}"
        )
    if dt * fastest > _SOFT_STEP:
        warnings.warn(
            f"dt * {rate} = {dt * fastest:.3g} is above {_SOFT_STEP}; expect visible discretization bias",
            stacklevel=2,
        )


@dataclasses.dataclass(frozen=True)
class IntegratorConfig:
    """Stepping controls shared by the deterministic and stochastic integrators.

    integrate_lindblad takes second-order Heun steps on real coordinates
    in the Hermitian basis, so its states are Hermitian by construction;
    each step is one product with a sparse increment matrix built once
    per call (see integrate_lindblad). run_trajectory takes first-order
    Ito-Euler steps and keeps the Hermitian part of each update. Both
    renormalize the trace after each step. tail_guard bounds the
    tolerated population of the top Fock level during propagation.
    A run takes n_steps = round(t_final / dt) steps of exactly dt, so it
    ends at n_steps * dt, which is t_final only when dt divides it:
    dt = 3e-3 with t_final = 0.01 takes 3 steps and ends at t = 0.009.
    """

    dt: float
    t_final: float
    seed: int = 0
    tail_guard: float = 1e-6

    def __post_init__(self):
        # written to fail closed: every comparison with NaN is False
        if not 0.0 < self.dt < math.inf:
            raise ValueError("dt must be finite and > 0")
        if not 0.0 <= self.t_final < math.inf:
            raise ValueError("t_final must be finite and >= 0")
        # beyond 2**53 a step count is no longer an exact integer
        if not self.t_final / self.dt <= 2.0**53:
            raise ValueError(
                f"t_final/dt = {self.t_final / self.dt:.3g} steps exceeds 2**53 "
                f"at dt = {self.dt!r}, t_final = {self.t_final!r}"
            )
        # SeedSequence takes integers only: a float seed, even 2.0**63, fails there untyped
        if not isinstance(self.seed, (int, np.integer)) or not 0 <= self.seed < 2**64:
            raise ValueError(f"seed must be an integer that fits in 64 unsigned bits, got {self.seed!r}")
        if not 0.0 < self.tail_guard < 1.0:
            raise ValueError("tail_guard must lie in (0, 1)")

    @property
    def n_steps(self) -> int:
        return int(round(self.t_final / self.dt))


def _vec(m: np.ndarray) -> np.ndarray:
    return m.reshape(-1, order="F")


def _unvec(v: np.ndarray, dim: int) -> np.ndarray:
    return v.reshape(dim, dim, order="F")


def _real_form(L: Superoperator):
    """(G, T): L as a sparse real matrix G in the orthonormal Hermitian basis T.

    The basis is E_kk, (E_jk + E_kj)/sqrt(2) and i(E_jk - E_kj)/sqrt(2)
    for j < k, as the columns of a unitary T, so G = T' L T has the
    singular values and eigenvalues of L, and T c is the column-stacked
    matrix of the coordinates c. The first d coordinates of a state are
    its populations. A map that preserves Hermiticity is real in this
    basis; any other raises ValueError rather than losing its imaginary
    part.
    """
    import scipy.sparse

    d = L.dim
    # columns: vec(E_kk), then vec((E_jk + E_kj)/sqrt 2), then
    # vec(i(E_jk - E_kj)/sqrt 2) for j < k, column-stacked like every vec
    j, k = np.triu_indices(d, 1)
    m = j.size
    upper = j + k * d
    lower = k + j * d
    h = 1.0 / math.sqrt(2.0)
    sym = d + np.arange(m)
    rows = np.concatenate([np.arange(d) * (d + 1), upper, lower, upper, lower])
    cols = np.concatenate([np.arange(d), sym, sym, sym + m, sym + m])
    vals = np.concatenate(
        [np.ones(d), np.full(m, h), np.full(m, h), np.full(m, 1j * h), np.full(m, -1j * h)]
    )
    T = scipy.sparse.csr_array((vals, (rows, cols)), shape=(d * d, d * d))
    G = scipy.sparse.csr_array(T.conj().T @ L.csr @ T)
    scale = float(np.abs(G.data).max(initial=0.0))
    defect = float(np.abs(G.data.imag).max(initial=0.0))
    if defect > 1e-12 * scale:
        raise ValueError(
            f"map does not preserve Hermiticity: imaginary part {defect:.3e} "
            f"against entries up to {scale:.3e} in the Hermitian basis"
        )
    return G.real, T


def _reachable(G: scipy.sparse.csr_array, c: np.ndarray, d: int) -> np.ndarray:
    """Sorted indices of the coordinates c can ever fill under G, the first d included.

    A step adds G @ c, so coordinate i can become nonzero once some j with
    G[i, j] != 0 is; the set grows by one pattern product per round until
    it stops. The first d (the populations) are always kept.
    """
    import scipy.sparse

    pattern = scipy.sparse.csr_array(
        (np.ones(G.nnz), G.indices, G.indptr), shape=G.shape
    )
    reach = c != 0
    reach[:d] = True
    while True:
        grown = reach | (pattern @ reach != 0)
        if np.array_equal(grown, reach):
            return np.flatnonzero(reach)
        reach = grown


def _heun_increment(G: scipy.sparse.csr_array, dt: float) -> scipy.sparse.csr_array:
    """The Heun increment dt G + (dt^2 / 2) G^2 as one sparse matrix.

    c + K @ c is the two-stage update c + (dt/2)(G c + G (c + dt G c)) in
    exact arithmetic. The identity stays out of K, as it does in the
    two-stage form, so the increment is not rounded against 1 and a trace
    that G preserves drifts by the rounding of the increment alone.
    """
    import scipy.sparse

    K = scipy.sparse.csr_array(dt * G + (0.5 * dt * dt) * (G @ G))
    # sorted column indices read the state vector in order in each row
    K.sort_indices()
    return K


def integrate_lindblad(
    L: Superoperator,
    rho0: DenseOperator,
    cfg: IntegratorConfig,
    *,
    rates=None,
    tail_block: int = 1,
    callback=None,
) -> DenseOperator:
    """Propagate a density matrix under a generator for t_final.

    The state is stepped as a real coordinate vector in the orthonormal
    Hermitian basis of _real_form, so it stays Hermitian by construction;
    the generator must preserve Hermiticity (any other raises
    _real_form's ValueError). G and T are built once per call. Only the
    coordinates the initial state can ever reach through the generator's
    sparsity pattern are stepped: the rest stay exactly zero, so a vacuum
    start under a reduced generator, which conserves the parity of i - j,
    steps about half of them. The Heun increment K = dt G + (dt^2 / 2) G^2
    is built once, as one sparse matrix over those coordinates, so each
    step, with or without a callback, is the single product c + K c: the
    two-stage update c + (dt/2)(G c + G (c + dt G c)) in exact arithmetic. Each step then verifies the trace drift,
    renormalizes, and guards the summed population of the last
    tail_block diagonal entries (use the meter dimension for bipartite
    states; 1 <= tail_block < d). A final state with a non-finite entry
    raises StepTooLarge. rates, when given, are checked against the
    step-size rule up front. callback(t, rho_matrix), when given, runs
    after every step on the state mapped back to a d x d matrix.

    Pick dt so the one-step map stays contractive on the fast coherence
    bands, not just accurate on the slow moments: band k rotates at
    nu * k, and the Heun update multiplies it by about
    1 + (nu * k * dt)^4 / 8 per step, which outruns weak damping once
    nu * n_trunc * dt approaches one even though the exact generator is
    stable. Growth there starts from roundoff and is traceless, so it
    shows up as a positivity violation rather than a trace error.
    """
    if rho0.dim != L.dim:
        raise DimensionMismatch(f"state dim {rho0.dim} does not match generator dim {L.dim}")
    if not 1 <= tail_block < L.dim:
        raise ValueError(f"tail_block must lie in [1, {L.dim}), got {tail_block}")
    if rates is not None:
        enforce_step_limit(cfg.dt, rates)
    d = L.dim
    G, T = _real_form(L)
    # coordinates of the Hermitian part of rho0: a map that preserves
    # Hermiticity evolves it apart from the anti-Hermitian part
    c = (T.conj().T @ _vec(rho0.matrix)).real
    keep = _reachable(G, c, d)
    G = G[keep][:, keep]
    T = T[:, keep]
    c = c[keep]
    dt = cfg.dt
    K = _heun_increment(G, dt)
    for k in range(cfg.n_steps):
        c += K @ c
        tr = float(c[:d].sum())
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise StepTooLarge(
                f"trace drifted to {tr:.9f} at step {k + 1}; reduce dt"
            )
        c /= tr
        tail = float(c[d - tail_block:d].sum())
        if not tail <= cfg.tail_guard:
            raise TailTooHeavy(
                f"top-level population {tail:.3e} exceeds the guard {cfg.tail_guard:.3e}",
                tail=tail,
            )
        if callback is not None:
            callback((k + 1) * dt, _unvec(T @ c, d))
    # each Heun update adds to the previous state, so a NaN anywhere, even in
    # a coherence the trace and tail guards never read, is still in c here
    if not np.all(np.isfinite(c)):
        raise StepTooLarge("propagated state has non-finite entries")
    return DenseOperator(_unvec(T @ c, d))


def _replaced_row_system(G: scipy.sparse.csr_array, row: int):
    """G in CSC form with population row `row` replaced by the trace condition, and its right side.

    The trace functional is ones on the first d coordinates, the
    populations. It and its right side are scaled by max|G|, which leaves
    the solution unchanged in exact arithmetic and keeps the replaced row
    on the scale of the rest, so the LU's pivoting does not read a
    generator with huge rates as exactly singular. The row is spliced
    into the CSR arrays of G, whose rows are contiguous, so the only other
    copy made is the CSC result.
    """
    import scipy.sparse

    n2 = G.shape[0]
    d = math.isqrt(n2)
    scale = float(np.abs(G.data).max(initial=0.0))
    start, stop = G.indptr[row], G.indptr[row + 1]
    A = scipy.sparse.csr_array(
        (
            np.concatenate([G.data[:start], np.full(d, scale), G.data[stop:]]),
            np.concatenate([G.indices[:start], np.arange(d, dtype=G.indices.dtype), G.indices[stop:]]),
            np.concatenate([G.indptr[: row + 1], G.indptr[row + 1:] + (d - (stop - start))]),
        ),
        shape=(n2, n2),
    ).tocsc()
    b = np.zeros(n2)
    b[row] = scale
    return A, b


def _norm(v: np.ndarray) -> float:
    """2-norm of v; inf, with no overflow warning, where its squares overflow."""
    with np.errstate(over="ignore"):
        return float(np.linalg.norm(v))


def _refine(A, b: np.ndarray, solve):
    """solve(b), then up to four refinement steps against A; None on LinAlgError or a non-finite result."""
    try:
        x = solve(b)
        for _ in range(4):
            resid = A @ x - b
            if _norm(resid) <= 1e-13 * max(1.0, _norm(x)):
                break
            x = x - solve(resid)
    except np.linalg.LinAlgError:
        return None
    return x if np.all(np.isfinite(x)) else None


def _solve(A, b: np.ndarray):
    """(lu, x): the sparse LU of A and the refined solution of A x = b.

    Both are None where SuperLU finds A exactly singular; x alone is None
    where _refine fails.
    """
    # imported where the generator is factored, like scipy.sparse: it also
    # loads scipy.linalg, a large import that only kernel solves need
    import scipy.sparse.linalg

    try:
        # pivots on the diagonal unless it is below 1% of its column: row
        # pivoting across the blocks of a nearly decoupled generator loses
        # up to 1e-4 of its kernel in trace norm, where the diagonal, each
        # coordinate's decay, keeps the elimination inside the blocks
        lu = scipy.sparse.linalg.splu(A, diag_pivot_thresh=0.01, options={"SymmetricMode": True})
    except RuntimeError:
        # SuperLU reports an exactly singular factor this way
        return None, None
    return lu, _refine(A, b, lu.solve)


def _low_rank_solve(lu, A1, A2, b2: np.ndarray, rows: list[int]):
    """Solve A2 x = b2 from the LU of A1, where the two differ only in the given rows.

    With W the given rows of A2 - A1 and U their unit columns, A2 = A1 + U W,
    so the Sherman-Morrison-Woodbury identity needs only Z = A1^-1 U and the
    small capacitance matrix C = I + W Z. Refinement runs against A2. None
    when C is singular or the result is not finite.
    """
    # C order, as W @ Z and W @ y round differently on a Fortran-ordered W
    W = A2[rows].toarray(order="C") - A1[rows].toarray(order="C")
    U = np.zeros((A2.shape[0], len(rows)))
    U[rows, np.arange(len(rows))] = 1.0
    Z = lu.solve(U)
    C = np.eye(len(rows)) + W @ Z

    def solve(rhs):
        y = lu.solve(rhs)
        return y - Z @ np.linalg.solve(C, W @ y)

    return _refine(A2, b2, solve)


def _state_from_vec(x: np.ndarray, T: scipy.sparse.csr_array) -> np.ndarray:
    """The d x d matrix of coordinates x in the Hermitian basis T, at unit trace where it can be.

    Real coordinates map to an exactly Hermitian matrix, so no Hermitian
    part is taken.
    """
    dim = math.isqrt(T.shape[0])
    r = _unvec(T @ x, dim)
    tr = float(x[:dim].sum())
    if tr == 0.0 or not math.isfinite(tr):
        return r
    return r / tr


def _growing_rate(L: Superoperator, G: scipy.sparse.csr_array) -> float | None:
    """Real part of the fastest-growing mode of L, or None if none grows.

    G is the real form of L from _real_form, which has its eigenvalues.
    The eigenvalue nearest zero, the kernel's, is left out, and real parts
    up to 1e-10 max(1, max|L|) count as zero. Dense: for small d only.
    """
    lam = np.linalg.eigvals(G.toarray())
    lam = np.delete(lam, np.argmin(np.abs(lam)))
    positive = float(lam.real.max()) if lam.size else 0.0
    threshold = 1e-10 * max(1.0, float(np.abs(L.csr.data).max(initial=0.0)))
    return positive if positive > threshold else None


def steady_state(L: Superoperator, *, tail_block: int = 1) -> DenseOperator:
    """Normalized density matrix in the kernel of a generator.

    The kernel is solved for in the real Hermitian basis, on the matrix
    G of _real_form that integrate_lindblad steps, so the generator must
    preserve Hermiticity (any other raises _real_form's ValueError) and
    the state is Hermitian by construction. G and its basis T are built
    once per call; T maps both kernel solutions back to matrices. Two
    replaced-row systems of _replaced_row_system are assembled, once
    each: A1, with the trace condition in place of population row 0, and
    the cross system A2, with it on population d // 2. A1 is factorized
    once with a sparse LU and solved with iterative refinement, over
    every coordinate, so a second kernel state anywhere is seen. A failed
    factorization raises NotUnique: the trace functional is the left null
    vector of a trace-preserving generator, so any population row fails
    exactly when the kernel is not one-dimensional. The result is then
    vetted: residual of the complex generator below 1e-10, eigenvalues
    above -1e-9, at most 1e-3 of the population piled against the
    truncation edge (the signature of a truncation too small for the
    state, or of a runaway gain sign: a truncated generator keeps a formal
    kernel state even when the physical dynamics diverge), and kernel
    isolation: A2 is solved from the LU of A1 by a rank-2 update on the
    two rows where they differ, and its kernel state
    must agree with the first to 1e-8 in trace norm. When the update
    fails or disagrees, the same A2 is factorized afresh and its solve
    decides. Up to d = 20 the spectrum of the same G, its kernel eigenvalue
    left out, must also stay out of the right half plane (_growing_rate).
    tail_block counts the edge entries of the diagonal, 1 <= tail_block < d.
    """
    d = L.dim
    if not 1 <= tail_block < d:
        raise ValueError(f"tail_block must lie in [1, {d}), got {tail_block}")
    G, T = _real_form(L)
    # both trace rows sit on populations: elsewhere the trace-preserving
    # structure makes the modified system singular. Both systems are
    # assembled up front. Above d = 20 G is then dropped, so no third
    # matrix of its size is held beside the LU; up to d = 20 the
    # right-half-plane rule reads it
    rows = [0, d // 2]
    (A1, b1), (A2, b2) = (_replaced_row_system(G, row) for row in rows)
    if d > 20:
        G = None
    lu, x = _solve(A1, b1)
    if x is None:
        raise NotUnique("kernel solve failed; the generator has no isolated steady state")
    r = _state_from_vec(x, T)
    residual = _norm(L.csr @ _vec(r))
    if not residual <= 1e-10:  # fails closed on NaN
        raise NotUnique(f"kernel residual {residual:.3e} exceeds 1e-10; kernel is degenerate or ill conditioned")
    w = np.linalg.eigvalsh(r)
    if float(w[0]) < -1e-9:
        raise Unstable(f"kernel state has eigenvalue {float(w[0]):.3e}; no physical steady state")
    tail = float(np.diagonal(r).real[-tail_block:].sum())
    if tail > _EDGE_TOL:
        raise Unstable(
            f"steady state piles {tail:.3e} of its population at the truncation edge; "
            "raise n_trunc, or check the contraction condition g sin(phi) < 0",
        )
    x2 = _low_rank_solve(lu, A1, A2, b2, rows)
    if x2 is None or trace_norm(r - _state_from_vec(x2, T)) > 1e-8:
        # the rank-2 update loses accuracy on nearly decoupled kernels that
        # a factorization of its own solves to rounding; that one decides
        _, x2 = _solve(A2, b2)
        if x2 is None:
            raise NotUnique("kernel solve failed on the cross-check row")
        if trace_norm(r - _state_from_vec(x2, T)) > 1e-8:
            raise NotUnique("two kernel solves disagree; the kernel is degenerate")
    if G is not None and (growing := _growing_rate(L, G)) is not None:
        raise Unstable(f"generator eigenvalue with real part {growing:.3e} > 0")
    return DenseOperator(r)


class HomodyneStepper:
    """Operator workspace for conditioned stepping at fixed (params, spec).

    The drift is the measurement generator of the models module,
    reduced_measurement_liouvillian, applied as a sparse matvec, so the
    conditioned dynamics average onto the same generator that
    integrate_lindblad and steady_state read. Its rows and columns are
    permuted once so that it acts on the C-order view r.reshape(-1) of a
    state, with no column-stacking copy. measure and kick are the step
    API; both act on d x d Hermitian arrays. Every array is read-only, so
    run_trajectory can share one instance, kept in a one-entry cache
    (_shared_stepper), across the trajectories of a (params, spec) pair.
    """

    def __init__(self, params: SystemParams, spec: FockBasisSpec):
        import scipy.sparse

        self.params = params
        self.spec = spec
        d = spec.dim
        # entry (i, j) sits at i * d + j of r.reshape(-1), at i + j * d of the column stack
        to_stack = np.arange(d * d).reshape(d, d).T.reshape(-1)
        generator = reduced_measurement_liouvillian(params, spec).csr[to_stack][:, to_stack]
        self.x = quadrature(spec, "position")
        self.p = quadrature(spec, "momentum")
        self.x2 = self.x @ self.x
        self.p2 = self.p @ self.p
        self.n_mat = number_op(spec)
        # L r and X r (kron(X, 1) on the row-major view; X is tridiagonal)
        # from one sparse product. Stacking CSR blocks keeps each row's
        # entry order; the indices stay unsorted, because the permuted
        # generator's rows hold their entries in the order that fixes
        # their rounding
        x_rows = scipy.sparse.kron(self.x, np.eye(d), format="csr")
        self.drift_and_x = scipy.sparse.csr_array(scipy.sparse.vstack([generator, x_rows], format="csr"))
        # the recorded moments <X>, <P>, <n>, <X^2>, <P^2>
        self.ops = np.stack([self.x, self.p, self.n_mat, self.x2, self.p2])
        # tr(op r) = Re sum_ij op_ij conj(r_ij) for Hermitian r: one real
        # dot product of the interleaved (re, im) entries
        self._ops_flat = self.ops.reshape(self.ops.shape[0], -1).view(float)
        self.m_rate = params.measurement_rate
        self.sqrt_eta_m = math.sqrt(params.eta * self.m_rate)
        self.sin_phi = math.sin(params.phi)
        # -i e^{-i phi} sqrt(eta M): the coefficient of X r in the innovation
        self._xr_coef = -1j * cmath.exp(-1j * params.phi) * self.sqrt_eta_m
        evals, vecs = np.linalg.eigh(self.p)
        self._kick_evals = evals
        self._kick_vecs = vecs
        self._kick_vecs_h = vecs.conj().T.copy()
        # one instance serves every trajectory of a pair, so no array may change
        for value in vars(self).values():
            if isinstance(value, scipy.sparse.csr_array):
                for arr in (value.data, value.indices, value.indptr):
                    arr.setflags(write=False)
            elif isinstance(value, np.ndarray):
                value.setflags(write=False)

    def mean(self, op: np.ndarray, r: np.ndarray) -> float:
        """tr(op r) for Hermitian op and r, as one dot product."""
        return float(np.vdot(r, op).real)

    def moments(self, r: np.ndarray) -> np.ndarray:
        """tr(op r) for every op in self.ops, as one matrix-vector product."""
        return self._ops_flat @ r.reshape(-1).view(float)

    def measure(self, r: np.ndarray, dW: float, dt: float, tail_guard: float, x_mean: float):
        """One Ito-Euler update of r, whose <X> is x_mean, for the increment dW ~ Normal(0, dt).

        The update is the Hermitian part (a + a^H)/2 of

            a = r (1 + 2 sin(phi) sqrt(eta M) x_mean dW) + dt L r
                - 2i e^{-i phi} sqrt(eta M) dW X r,

        which for Hermitian r is r + dt L r plus the innovation
        sqrt(eta M) dW (i e^{i phi} r X - i e^{-i phi} X r + 2 sin(phi) x_mean r),
        so one Hermitian part replaces a separate hermitization. Returns
        the renormalized r1, its top-level population guarded by
        tail_guard, and the current increment
        dI = 2 eta M sin(phi) x_mean dt + sqrt(eta M) dW, M = chi^2/kappa.
        """
        d = self.spec.dim
        # a / 2, built in one buffer: halving is exact, so a/2 + (a/2)^H is (a + a^H)/2
        half, xr = (self.drift_and_x @ r.reshape(-1)).reshape(2, d, d)
        half *= 0.5 * dt
        half += (0.5 + self.sin_phi * self.sqrt_eta_m * x_mean * dW) * r
        xr *= self._xr_coef * dW
        half += xr
        r1 = half + half.conj().T
        tr = float(np.trace(r1).real)
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise StepTooLarge(f"conditioned trace drifted to {tr:.9f}; reduce dt")
        r1 /= tr
        tail = float(r1[-1, -1].real)
        if not tail <= tail_guard:
            raise TailTooHeavy(
                f"conditioned top-level population {tail:.3e} exceeds the guard {tail_guard:.3e}",
                tail=tail,
            )
        dI = 2.0 * self.params.eta * self.m_rate * self.sin_phi * x_mean * dt + self.sqrt_eta_m * dW
        return r1, dI

    def kick(self, r: np.ndarray, dI: float, dt: float) -> np.ndarray:
        """Momentum kick exp(-i (g/2) P s) of r, s = -2 dI / (eta M) + 8 sin(phi) <X> dt.

        The mean correction in s is what makes the measurement + kick
        ensemble average reproduce the feedback master equation; a kick
        proportional to dI alone leaves a spurious nonlinear drift behind.
        At g = 0 the kick is the identity and r is returned as it is.
        """
        if self.params.g == 0.0:
            return r
        s = -2.0 * dI / (self.params.eta * self.m_rate) + 8.0 * self.sin_phi * self.mean(self.x, r) * dt
        theta = -0.5 * self.params.g * s
        u = (self._kick_vecs * np.exp(1j * theta * self._kick_evals)) @ self._kick_vecs_h
        return u @ r @ u.conj().T


@functools.lru_cache(maxsize=1)
def _shared_stepper(params: SystemParams, spec: FockBasisSpec) -> HomodyneStepper:
    """The HomodyneStepper of (params, spec), kept for the next trajectory of the same pair."""
    return HomodyneStepper(params, spec)


@dataclasses.dataclass(frozen=True, eq=False)
class TrajectoryRecord:
    """One conditioned trajectory: time grid, moment series and current.

    min_eig and uncertainty_min are the smallest state eigenvalue and the
    smallest Var(X) Var(P) product at any recorded time. Both are exact:
    min_eig equals the minimum of eigvalsh over every recorded state, not
    an estimate (see run_trajectory).
    """

    times: np.ndarray
    x_cond: np.ndarray
    p_cond: np.ndarray
    n_cond: np.ndarray
    current: np.ndarray
    min_eig: float
    uncertainty_min: float

    def __post_init__(self):
        length = self.times.shape[0]
        for name in ("times", "x_cond", "p_cond", "n_cond", "current"):
            arr = np.asarray(getattr(self, name), dtype=float)
            if arr.shape != (length,):
                raise ValueError("trajectory arrays must share one length")
            arr.setflags(write=False)
            object.__setattr__(self, name, arr)


def _certified_min_eig(r: np.ndarray, floor: float) -> float:
    """min(floor, lowest eigenvalue of the Hermitian array r), with eigvalsh only where needed."""
    # A Cholesky factorization of r - (floor + margin) I that completes is
    # exact for that matrix plus a perturbation of norm at most about
    # d^2 eps / 2 at unit trace (Higham, Accuracy and Stability of Numerical
    # Algorithms, Thm 10.3), so it certifies lambda_min(r) > floor. The
    # margin is four times that bound; the rest covers eigvalsh's own
    # rounding of the value it would replace.
    d = r.shape[0]
    shifted = r.copy()
    shifted.flat[:: d + 1] -= floor + 2.0 * d * d * np.finfo(float).eps
    try:
        np.linalg.cholesky(shifted)
    except np.linalg.LinAlgError:
        return min(floor, float(np.linalg.eigvalsh(r)[0]))
    return floor


def run_trajectory(
    params: SystemParams,
    spec: FockBasisSpec,
    cfg: IntegratorConfig,
    *,
    traj_index: int = 0,
) -> TrajectoryRecord:
    """Simulate one conditioned trajectory, deterministically in (seed, traj_index).

    Starts from a thermal state at params.n0 and alternates the measurement
    update and, for g != 0, the current kick inside each dt. Noise comes
    from a counter-based generator keyed by the seed and the trajectory
    index, so ensembles are reproducible under any execution order.

    The HomodyneStepper is built once per (params, spec) and kept for the
    next call with an equal pair, so an ensemble builds the measurement
    generator and the kick eigenbasis once. Each step takes one Hermitian
    part of the Ito-Euler update (see HomodyneStepper.measure).

    The recorded minimum eigenvalue is exact: eigvalsh runs on the initial
    state and wherever a later state fails the Cholesky certificate of
    _certified_min_eig. Each state's moments are read once, in one
    matrix-vector product, and Var(X) Var(P) is minimized over the whole
    run at the end.

    The explicit update multiplies the band-k coherence (the entries k
    places off the diagonal, which rotate at nu * k) by roughly
    1 + (nu * k * dt)^2 / 2 each step, so fast bands grow unless damping
    wins. Measurement noise seeds every band, so runs with chi > 0 are
    rejected outright when the accumulated gain on the top band could
    amplify roundoff into a visible positivity violation.
    """
    enforce_step_limit(cfg.dt, params.step_rates)
    # e^15 on a 1e-16 seed stays below the 1e-9 scale probed by positivity checks
    band_gain = 0.5 * (params.nu * spec.n_trunc * cfg.dt) ** 2 * cfg.n_steps
    if params.chi != 0.0 and band_gain > 15.0:
        raise StepTooLarge(
            "the top coherence band would be amplified by exp("
            f"{band_gain:.3g}) over this run (nu * n_trunc * dt = "
            f"{params.nu * spec.n_trunc * cfg.dt:.3g} rad per step); "
            "slow the trap, shrink dt, or lower n_trunc"
        )
    stepper = _shared_stepper(params, spec)
    rng = np.random.Generator(
        np.random.Philox(np.random.SeedSequence(entropy=cfg.seed, spawn_key=(traj_index,)))
    )
    steps = cfg.n_steps
    times = np.arange(steps + 1, dtype=float) * cfg.dt
    # rows <X>, <P>, <n>, <X^2>, <P^2> of every recorded state
    moments = np.empty((stepper.ops.shape[0], steps + 1))
    current = np.zeros(steps + 1)
    r = thermal_state(spec, params.n0).matrix
    moments[:, 0] = stepper.moments(r)
    min_eig = float(np.linalg.eigvalsh(r)[0])
    sqrt_dt = math.sqrt(cfg.dt)
    for k in range(1, steps + 1):
        dW = sqrt_dt * float(rng.standard_normal())
        r, dI = stepper.measure(r, dW, cfg.dt, cfg.tail_guard, moments[0, k - 1])
        r = stepper.kick(r, dI, cfg.dt)
        current[k] = dI / cfg.dt
        moments[:, k] = stepper.moments(r)
        min_eig = _certified_min_eig(r, min_eig)
    x_cond, p_cond, n_cond, x2_cond, p2_cond = moments
    uncertainty_min = float(np.min((x2_cond - x_cond**2) * (p2_cond - p_cond**2)))
    return TrajectoryRecord(
        times=times,
        x_cond=x_cond,
        p_cond=p_cond,
        n_cond=n_cond,
        current=current,
        min_eig=min_eig,
        uncertainty_min=uncertainty_min,
    )


@dataclasses.dataclass(frozen=True, eq=False)
class EnsembleMoments:
    """Trajectory-ensemble means with standard errors."""

    times: np.ndarray
    x_mean: np.ndarray
    x_se: np.ndarray
    p_mean: np.ndarray
    p_se: np.ndarray
    n_mean: np.ndarray
    n_se: np.ndarray


def ensemble_mean(records) -> EnsembleMoments:
    """Average conditioned moments across trajectories.

    Needs at least two records on identical time grids; standard errors
    use the sample standard deviation over trajectories.
    """
    if len(records) < 2:
        raise ValueError("ensemble averaging needs at least 2 records")
    t0 = records[0].times
    for rec in records[1:]:
        if rec.times.shape != t0.shape or not np.array_equal(rec.times, t0):
            raise DimensionMismatch("trajectory time grids differ")
    n = len(records)
    scale = 1.0 / math.sqrt(n)

    def stats(name):
        data = np.stack([getattr(rec, name) for rec in records])
        return data.mean(axis=0), data.std(axis=0, ddof=1) * scale

    x_mean, x_se = stats("x_cond")
    p_mean, p_se = stats("p_cond")
    n_mean, n_se = stats("n_cond")
    return EnsembleMoments(
        times=t0.copy(),
        x_mean=x_mean,
        x_se=x_se,
        p_mean=p_mean,
        p_se=p_se,
        n_mean=n_mean,
        n_se=n_se,
    )
