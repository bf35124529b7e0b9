"""Time evolution for the cooling models.

Deterministic propagation of any generator built by the models module,
kernel solves for steady states on a single-precision band LU refined in
double, with a sparse LU as the fallback (both in the real Hermitian
basis of _real_form), and the Ito unraveling of the continuous position
measurement: HomodyneStepper's measure and kick steps on real d x d
coordinates (the basis of _coords_basis), run_trajectory to alternate
them, and ensemble_mean to average trajectories back onto the
unconditioned dynamics. Both bases are orthonormal and made of Hermitian
matrices, and _project alone writes a map in either, so every state
they step is Hermitian by construction.

The band factor and its solves run scipy's OpenBLAS on one thread
(_band_solves): its blocked updates are too small to pay for waking a
second one, and the states do not depend on the count. Where scipy
links another BLAS, the thread count is left alone.

scipy.sparse is imported where a generator is built, converted or
factored, and scipy.linalg.lapack where the band factor is built, so the
per-step code never reads the scipy module.
"""
from __future__ import annotations

import cmath
import contextlib
import dataclasses
import functools
import math
import threading
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
from .models import (
    Superoperator,
    SystemParams,
    left_mult,
    reduced_measurement_liouvillian,
    right_mult,
)

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
# the machine epsilon of float64, np.finfo(float).eps
_EPS = 2.0**-52
_HARD_STEP = 0.1
_SOFT_STEP = 0.02
# largest population a steady state may keep in its tail_block edge entries
_EDGE_TOL = 1e-3
# largest trace-norm distance between the kernel states of the two replaced-row systems
_ISOLATION_TOL = 1e-8


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
    a step is one product with a sparse increment matrix K built once per
    call. Without a callback, a run of at least n m steps over n
    coordinates takes blocks of m = 2 ceil(n^2 / nnz(K)) steps through
    the dense m-step map, n^2 doubles, and still checks every step; a
    block whose check trips is retaken one step at a time (see
    integrate_lindblad). run_trajectory takes first-order Ito-Euler steps
    on the real coordinates of HomodyneStepper. Both renormalize the
    trace after each step. tail_guard bounds the tolerated population of
    the top Fock level during propagation.
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
    return _project(L.csr, T), T


def _project(S: scipy.sparse.csr_array, B: scipy.sparse.csr_array) -> scipy.sparse.csr_array:
    """B' S B as a real sparse matrix, for a unitary B whose columns are Hermitian matrices.

    A map that preserves Hermiticity is real in such a basis; any other
    raises ValueError rather than losing its imaginary part. An entry whose
    imaginary part is rounding and whose real part is exactly zero is
    dropped, not stored as a zero every product would read.
    """
    import scipy.sparse

    G = scipy.sparse.csr_array(B.conj().T @ S @ B)
    scale = float(np.abs(G.data).max(initial=0.0))
    defect = float(np.abs(G.data.imag).max(initial=0.0))
    if defect > 1e-12 * scale:
        raise ValueError(
            f"map does not preserve Hermiticity: imaginary part {defect:.3e} "
            f"against entries up to {scale:.3e} in the Hermitian basis"
        )
    G = G.real
    G.eliminate_zeros()
    return G


def _coords_basis(d: int) -> scipy.sparse.csr_array:
    """The unitary B whose column j d + k is vec of ((1 + i) E_jk + (1 - i) E_kj) / 2.

    These d^2 Hermitian matrices are orthonormal: for j = k the column is
    E_kk, and each pair (j, k), (k, j) is _real_form's symmetric and
    antisymmetric pair rotated by 45 degrees. So B maps the row-major
    entries of any real d x d array Q to the column stack of the exactly
    Hermitian r = ((Q + Q') + i (Q - Q')) / 2, and B' maps r back to
    Q = Re r + Im r (_state_of, _coords_of).
    """
    import scipy.sparse

    j, k = np.divmod(np.arange(d * d), d)
    # the two halves add up to E_kk on the diagonal
    rows = np.concatenate([j + k * d, k + j * d])
    cols = np.concatenate([j * d + k, j * d + k])
    vals = np.concatenate([np.full(d * d, 0.5 + 0.5j), np.full(d * d, 0.5 - 0.5j)])
    return scipy.sparse.csr_array((vals, (rows, cols)), shape=(d * d, d * d))


def _coords_of(r: np.ndarray) -> np.ndarray:
    """Q = Re r + Im r, the real coordinates of a Hermitian d x d array r in _coords_basis."""
    return r.real + r.imag


def _state_of(Q: np.ndarray) -> np.ndarray:
    """r = ((Q + Q') + i (Q - Q')) / 2, C-contiguous and exactly Hermitian, for any real d x d Q."""
    # (1 + i)(Q - i Q') / 2: each entry's sum and difference rounded once, as written above
    r = Q.astype(complex, order="C")
    np.negative(Q.T, out=r.imag)
    r *= 0.5 + 0.5j
    return r


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


def _block_map(K: scipy.sparse.csr_array, d: int, m: int) -> np.ndarray:
    """(n + 2(m - 1)) x n rows: P = (I + K)^m, then the trace rows, then the top-level rows.

    The trace row (the sum of the first d rows) and the top-level row
    (row d - 1) of (I + K)^j, for j = 1 .. m - 1, follow P, so one
    product with a state gives its m-step image and the trace and top
    population after every step in between. Each 64-column panel of the
    identity is stepped m times with the sparse increment, the product a
    single step takes, rather than squared densely.
    """
    n = K.shape[0]
    W = np.empty((n + 2 * (m - 1), n))
    for first in range(0, n, 64):
        cols = slice(first, min(first + 64, n))
        Y = np.zeros((n, cols.stop - first))
        Y[cols, :] = np.eye(cols.stop - first)
        for j in range(m - 1):
            Y += K @ Y
            W[n + j, cols] = Y[:d].sum(axis=0)
            W[n + m - 1 + j, cols] = Y[d - 1]
        Y += K @ Y
        W[:n, cols] = Y
    return W


def integrate_lindblad(
    L: Superoperator,
    rho0: DenseOperator,
    cfg: IntegratorConfig,
    *,
    rates=None,
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
    is built once, as one sparse matrix over those coordinates, so a
    single step is the product c + K c: the two-stage update
    c + (dt/2)(G c + G (c + dt G c)) in exact arithmetic. Each step then
    verifies the trace drift, renormalizes, and guards the population of
    the top Fock level, the last diagonal entry, by cfg.tail_guard, as
    HomodyneStepper.measure does. A final state with a non-finite entry
    raises StepTooLarge. rho0 must have trace 1 within 1e-7; a finite
    trace off that raises ValueError before any step. rates, when given,
    are checked against the step-size rule up front. callback(t,
    rho_matrix), when given, runs after every step on the state mapped
    back to a d x d matrix, and every step is then a single step.

    Without a callback, a run over n coordinates whose K holds nnz
    entries takes whole blocks of m = 2 ceil(n^2 / nnz) steps with the
    dense map P = (I + K)^m, once it is at least n m steps long; the
    remaining steps are single steps. P is built by stepping the
    identity, 64 columns at a time, with K, and with it, for every step
    j < m, the trace row and the top-level row of (I + K)^j. So one
    product per block gives the block's end state and the trace drift and
    top-level population of every step inside it, which the same guards
    judge. P and those rows hold (n + 2m - 2) n doubles, 2.0 MB at n = 481
    and m = 24; single steps hold no such map. When a reading trips or
    the block's state is not finite, the block is discarded and
    its steps are taken one at a time from its start, so an error names
    the step, and gives the reading, that single steps give. Block states
    differ from single steps by rounding alone.

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
    # a finite trace off 1 is the caller's state, not the step; a
    # non-finite one is left to the step guards
    tr0 = float(np.trace(rho0.matrix).real)
    if math.isfinite(tr0) and not abs(tr0 - 1.0) <= _TRACE_TOL:
        raise ValueError(f"initial state has trace {tr0:.9f}; it must be 1 within {_TRACE_TOL:g}")
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
    n = keep.size
    n_steps = cfg.n_steps
    # a block costs one dense n x n product for m steps of nnz each, so
    # m = 2 ceil(n^2 / nnz) halves the work per step; building its map costs
    # n m single steps, so only a run that long takes blocks, and a
    # callback, which reads every state, takes none
    m = 2 * -(-n * n // max(K.nnz, 1))
    if callback is not None or n * m > n_steps:
        m = 0
    W = _block_map(K, d, m) if m else None
    k = 0
    while k < n_steps:
        stop = n_steps
        if m and k + m <= n_steps:
            # a block that overflows is retaken below, so it does not warn
            with np.errstate(all="ignore"):
                y = W @ c
                # the traces of (I + K)^j c for j = 0 .. m, the first read as 1
                # as a step reads it, and the top-level entries for j = 1 .. m.
                # The last step's are read off the end state: a trace lost to
                # rounding in a state's large entries shows in their sum, as in
                # a single step, and not in the trace rows, which sum the map's
                traces = np.concatenate(([1.0], y[n:n + m - 1], [y[:d].sum()]))
                tops = np.append(y[n + m - 1:], y[d - 1])
                passed = (np.all(np.abs(traces[1:] / traces[:-1] - 1.0) <= _TRACE_TOL)
                          and np.all(tops / traces[1:] <= cfg.tail_guard)
                          and np.all(np.isfinite(y[:n])))
            if passed:
                c = y[:n] / traces[-1]
                k += m
                continue
            # a reading tripped or the block is not finite: retake its m steps
            # one at a time, so an error names the step and reading a step gives
            stop = k + m
        for k in range(k, stop):
            c += K @ c
            tr = float(c[:d].sum())
            if not abs(tr - 1.0) <= _TRACE_TOL:
                raise StepTooLarge(
                    f"trace drifted to {tr:.9f} at step {k + 1}; reduce dt"
                )
            c /= tr
            tail = float(c[d - 1])
            if not tail <= cfg.tail_guard:
                raise TailTooHeavy(
                    f"top-level population {tail:.3e} exceeds the guard {cfg.tail_guard:.3e}",
                    tail=tail,
                )
            if callback is not None:
                callback((k + 1) * dt, _unvec(T @ c, d))
        k = stop
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


def _ordering(G: scipy.sparse.csr_array) -> np.ndarray:
    """The reverse Cuthill-McKee order of the symmetrized sparsity pattern of G.

    Every replaced-row system of G is factored in this order. It is taken
    on G, not on a system: the dense trace row of a system joins every
    population to every other and widens the band the order finds.
    """
    # imported where the generator is factored, like scipy.sparse.linalg
    import scipy.sparse
    import scipy.sparse.csgraph

    pattern = scipy.sparse.csr_array((np.ones(G.nnz), G.indices, G.indptr), shape=G.shape)
    return scipy.sparse.csgraph.reverse_cuthill_mckee(pattern + pattern.T, symmetric_mode=True)


def _refine_while_falling(A, b: np.ndarray, solve):
    """solve(b), refined against A for as long as the correction's norm falls; None on LinAlgError or a non-finite result.

    A fixed residual target fails on kernel systems, and so does a
    residual that must keep falling: the trace row, scaled by max|G|,
    holds the residual at its rounding floor (3.6e-12 at the default
    scenario with n_trunc = 30) while the state is still 5e-13 to 6e-11
    from its limit. The correction solve(resid) sees that row's rounding
    divided by the same scale, so it keeps falling until the state has
    converged. Refinement stops there, after at most 30 steps (DSGESV's
    ITERMAX), and the caller's rules judge the result.
    """
    try:
        x = solve(b)
        size = math.inf
        for _ in range(30):
            dx = solve(A @ x - b)
            dx_size = _norm(dx)
            if not dx_size < size:
                break
            x, size = x - dx, dx_size
    except np.linalg.LinAlgError:
        return None
    return x if np.all(np.isfinite(x)) else None


@functools.cache
def _blas_thread_setter():
    """openblas_set_num_threads_local of scipy's bundled OpenBLAS, or None where scipy has none.

    Looked up once, by the first band factor, in the libscipy_openblas
    library of scipy's wheel (scipy.libs beside the package, or
    scipy/.dylibs on macOS), under its plain or its scipy_openblas_ name.
    scipy.linalg.lapack has already loaded that library, so ctypes opens
    the same copy. The function sets the thread count of the library's
    next calls and returns the previous count. None where scipy links
    another BLAS, or an older OpenBLAS that lacks the function.
    """
    import ctypes
    import glob
    import os

    import scipy

    package = os.path.dirname(scipy.__file__)
    paths = glob.glob(os.path.join(os.path.dirname(package), "scipy.libs", "libscipy_openblas*"))
    paths += glob.glob(os.path.join(package, ".dylibs", "libscipy_openblas*"))
    for path in paths:
        try:
            library = ctypes.CDLL(path)
        except OSError:
            continue
        for name in ("openblas_set_num_threads_local", "scipy_openblas_set_num_threads_local"):
            setter = getattr(library, name, None)
            if setter is not None:
                setter.argtypes = [ctypes.c_int]
                setter.restype = ctypes.c_int
                return setter
    return None


# held while scipy's OpenBLAS is set to one thread: the count is one per
# process, so a second caller must not read the first one's pin as the
# count to restore
_ONE_THREAD_PIN = threading.Lock()


@contextlib.contextmanager
def _one_blas_thread():
    """Run the body with scipy's OpenBLAS at one thread, one caller at a time, and restore the count after it."""
    set_threads = _blas_thread_setter()
    if set_threads is None:
        yield
        return
    with _ONE_THREAD_PIN:
        previous = set_threads(1)
        try:
            yield
        finally:
            set_threads(previous)


def _band_solves(G: scipy.sparse.csr_array, order: np.ndarray, systems, rows: list[int]):
    """Solutions of both replaced-row systems from one single-precision band LU, or None.

    B = G + s e0 e0', with s = max|G| the scale of _replaced_row_system,
    is factored once by LAPACK's sgbtrf in the given order, in which G is
    a band matrix. Its band array is written straight from the CSR arrays
    of G through the inverse order, so no permuted copy of G is made.
    systems are the replaced-row systems (A, b) of rows[0] = 0 and
    rows[1]; the first differs from B in row 0 alone and the second in
    both rows, so each is solved by a low-rank update of the factor
    (_low_rank_solve) and refined in double against itself while its
    correction shrinks. None where s overflows single precision, the factor
    is exactly singular (B is singular exactly when the kernel state has
    no population in coordinate 0) or a solve is not finite. steady_state
    judges both solutions by _verdict, the rules SuperLU's are judged by.

    The factor and every solve run with scipy's OpenBLAS set to one
    thread (_one_blas_thread), and the previous count is restored however
    the band path ends. sgbtrf's blocked updates are too small to pay for
    waking a second thread, and threads left spinning also slow the work
    around the factor. OpenBLAS names the setter local, but scipy's
    pthreads build keeps one count for the process: band paths in several
    Python threads take turns, and other BLAS calls of scipy run at one
    thread meanwhile. The count does not change the result: the states
    are byte-identical either way. Where _blas_thread_setter finds no
    setter (another BLAS, or an older OpenBLAS), nothing changes.
    """
    # csgraph, imported by _ordering, has already loaded scipy.linalg
    import scipy.linalg.lapack

    n = G.shape[0]
    scale = float(np.abs(G.data).max(initial=0.0))
    # B's largest entry is at most 2 s; beyond that the cast would overflow
    if not scale <= 0.5 * float(np.finfo(np.float32).max):
        return None
    where = np.empty_like(order)
    where[order] = np.arange(n, dtype=order.dtype)
    i = np.repeat(where, np.diff(G.indptr))
    j = where[G.indices]
    lower = int((i - j).max(initial=0))
    upper = int((j - i).max(initial=0))
    # column j of the Fortran-ordered band array is row j of band_t;
    # LAPACK keeps B[i, j] at band row lower + upper + i - j and the
    # first `lower` rows free for the fill of row pivoting
    band_t = np.zeros((n, 2 * lower + upper + 1), dtype=np.float32)
    band_t[j, lower + upper + i - j] = G.data
    del i, j
    band_t[where[0], lower + upper] += scale
    with _one_blas_thread():
        lu, piv, info = scipy.linalg.lapack.sgbtrf(band_t.T, lower, upper, overwrite_ab=1)
        del band_t
        if info != 0:
            return None

        def solve(rhs):
            # right sides are cast at unit size, so a residual far below one
            # is not pushed into the slow subnormal range of single precision
            size = float(np.abs(rhs).max()) or 1.0
            y, _ = scipy.linalg.lapack.sgbtrs(
                lu, lower, upper, np.asfortranarray(rhs[order].reshape(n, -1) / size, dtype=np.float32),
                piv, overwrite_b=1,
            )
            x = np.empty_like(rhs)
            x[order] = y.reshape(rhs.shape)
            return x * size

        # rows of B, C ordered like the rows of A they are taken from
        base = G[rows].toarray(order="C")
        base[0, 0] += scale
        solutions = []
        # a nearly singular factor can overflow a solve; the result is then
        # not finite and refused, so the attempt raises no warning
        with np.errstate(all="ignore"):
            for rank, (A, b) in enumerate(systems, start=1):
                W = A[rows[:rank]].toarray(order="C") - base[:rank]
                x = _refine_while_falling(A, b, _low_rank_solve(solve, W, rows[:rank]))
                if x is None:
                    return None
                solutions.append(x)
        return solutions


def _solve(A, b: np.ndarray, order: np.ndarray):
    """The solution of A x = b from a sparse LU of A, refined in double while the correction shrinks, or None.

    This is the fallback of steady_state, for kernels the band LU of
    _band_solves does not settle; its solutions are judged by the band
    path's rules (_verdict). A[order][:, order] is factored as it
    stands, with no column ordering of SuperLU's own, and right sides are
    mapped into that order and solutions back, so A itself is solved and
    refined by _refine_while_falling, the band path's rule. None where
    SuperLU finds A exactly singular or the refinement fails. The LU is
    dropped on return, so a second call holds no factor of the first.
    """
    # imported where the generator is factored, like scipy.sparse: it also
    # loads scipy.linalg, a large import that only kernel solves need
    import scipy.sparse.linalg

    try:
        # pivots on the diagonal unless it is below 1% of its column: row
        # pivoting across the blocks of a nearly decoupled generator loses
        # up to 1e-4 of its kernel in trace norm, where the diagonal, each
        # coordinate's decay, keeps the elimination inside the blocks
        lu = scipy.sparse.linalg.splu(
            A[order][:, order],
            permc_spec="NATURAL",
            diag_pivot_thresh=0.01,
            options={"SymmetricMode": True},
        )
    except RuntimeError:
        # SuperLU reports an exactly singular factor this way
        return None

    def solve(rhs):
        x = np.empty_like(rhs)
        x[order] = lu.solve(rhs[order])
        return x

    return _refine_while_falling(A, b, solve)


def _low_rank_solve(solve0, W: np.ndarray, rows: list[int]):
    """A solve of A = A0 + U W from solve0, a solve of A0, where the two differ only in the given rows.

    W is the given rows of A - A0, dense and C ordered (W @ Z and W @ y
    round differently on a Fortran-ordered W), and U their unit columns,
    so the Sherman-Morrison-Woodbury identity needs only Z = A0^-1 U and
    the small capacitance matrix C = I + W Z. _band_solves solves both
    replaced-row systems this way from the band factor of B (rank 1 and
    rank 2). The returned solve raises LinAlgError when C is singular;
    the caller refines its result against A.
    """
    U = np.zeros((W.shape[1], len(rows)))
    U[rows, np.arange(len(rows))] = 1.0
    Z = solve0(U)
    C = np.eye(len(rows)) + W @ Z

    def solve(rhs):
        y = solve0(rhs)
        return y - Z @ np.linalg.solve(C, W @ y)

    return solve


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


def _verdict(L: Superoperator, T: scipy.sparse.csr_array, G: scipy.sparse.csr_array | None, tail_block: int, solutions):
    """(state, error) of one solver's kernel solutions: A1's state and the first rule it fails, or None.

    solutions yields one solver's solutions of the replaced-row systems
    A1 and A2, None for a failed solve. The rules, in order: A1 was
    solved (the trace functional is the left null vector of a
    trace-preserving generator, so any population row fails exactly when
    the kernel is not one-dimensional); the complex generator's residual
    is at most 1e-10; no eigenvalue is below -1e-9; at most _EDGE_TOL of
    the population lies in the last tail_block diagonal entries (a
    truncation too small for the state, or a runaway gain sign: a
    truncated generator keeps a formal kernel state even when the
    dynamics diverge); A2 was solved and its state lies within
    _ISOLATION_TOL of A1's in trace norm (kernel isolation); and where G
    is given, its spectrum, kernel eigenvalue left out, is out of the
    right half plane (_growing_rate). A2's solution is drawn only once
    A1's state passes, so SuperLU holds one LU at a time.
    """
    solutions = iter(solutions)
    x = next(solutions)
    if x is None:
        return None, NotUnique("kernel solve failed; the generator has no isolated steady state")
    r = _state_from_vec(x, T)
    residual = _norm(L.csr @ _vec(r))
    if not residual <= 1e-10:  # fails closed on NaN
        return r, NotUnique(f"kernel residual {residual:.3e} exceeds 1e-10; kernel is degenerate or ill conditioned")
    w = np.linalg.eigvalsh(r)
    if float(w[0]) < -1e-9:
        return r, Unstable(f"kernel state has eigenvalue {float(w[0]):.3e}; no physical steady state")
    tail = float(np.diagonal(r).real[-tail_block:].sum())
    if tail > _EDGE_TOL:
        return r, Unstable(
            f"steady state piles {tail:.3e} of its population at the truncation edge; "
            "raise n_trunc, or check the contraction condition g sin(phi) < 0",
        )
    x = next(solutions)
    if x is None:
        return r, NotUnique("kernel solve failed on the cross-check row")
    if trace_norm(r - _state_from_vec(x, T)) > _ISOLATION_TOL:
        return r, NotUnique("two kernel solves disagree; the kernel is degenerate")
    if G is not None and (growing := _growing_rate(L, G)) is not None:
        return r, Unstable(f"generator eigenvalue with real part {growing:.3e} > 0")
    return r, None


def steady_state(L: Superoperator, *, tail_block: int = 1) -> DenseOperator:
    """Normalized density matrix in the kernel of a generator.

    The kernel is solved for in the real Hermitian basis, on the matrix
    G of _real_form that integrate_lindblad steps, so the generator must
    preserve Hermiticity (any other raises _real_form's ValueError) and
    the state is Hermitian by construction. G and its basis T are built
    once per call; T maps both kernel solutions back to matrices. Two
    replaced-row systems of _replaced_row_system are assembled, once
    each: A1, with the trace condition in place of population row 0, and
    the cross system A2, with it on population d // 2. One ordering is
    computed per call, the reverse Cuthill-McKee order of G (_ordering),
    and every factorization of the call is taken in it.

    Two solvers provide both solutions, and _verdict judges each pair
    by one rule list: a single-precision band LU of G + max|G| e0 e0',
    updated to rank 1 and 2 and refined in double (_band_solves), whose
    refusal is silent, then SuperLU on A1 and then A2 (_solve), whose
    refusal is raised. SuperLU stays because its threshold pivoting keeps
    the elimination inside the blocks of a nearly decoupled generator,
    where the band LU's partial pivoting mixes them.
    tail_block counts the edge entries of the diagonal, 1 <= tail_block < d.
    """
    d = L.dim
    if not 1 <= tail_block < d:
        raise ValueError(f"tail_block must lie in [1, {d}), got {tail_block}")
    G, T = _real_form(L)
    order = _ordering(G)
    # both trace rows sit on populations: elsewhere the trace-preserving
    # structure makes the modified system singular. Both systems are
    # assembled up front. Above d = 20 G is dropped once the band factor
    # is built, so no third matrix of its size is held beside SuperLU's
    # LU; up to d = 20 the right-half-plane rule reads it
    rows = [0, d // 2]
    systems = [_replaced_row_system(G, row) for row in rows]
    band = _band_solves(G, order, systems, rows)
    if d > 20:
        G = None
    # a declined band factor is a failed solve; SuperLU factors lazily
    for solutions in (band or (None,), (_solve(A, b, order) for A, b in systems)):
        r, error = _verdict(L, T, G, tail_block, solutions)
        if error is None:
            return DenseOperator(r)
    raise error


class HomodyneStepper:
    """Operator workspace for conditioned stepping at fixed (params, spec).

    States are real d x d arrays Q, the coordinates of the exactly
    Hermitian r = ((Q + Q') + i (Q - Q')) / 2 in the orthonormal basis of
    _coords_basis; _coords_of and _state_of convert. Every real Q is a
    Hermitian state, so no step takes a Hermitian part. The drift is the
    measurement generator of the models module,
    reduced_measurement_liouvillian, and the innovation is the map
    r -> i e^{i phi} r X - i e^{-i phi} X r of models.left_mult and
    right_mult; both are projected into the basis once (_project), so the
    conditioned dynamics average onto the same generator that
    integrate_lindblad and steady_state read. measure and kick are the
    step API, and an instance holds only what they read: the stacked
    drift-and-innovation matrix (CSR data, indices, indptr), the moment
    operators ops and their coordinates, and the kick's eigenpairs of P
    as eigh returns them (eigenvalues, eigenvectors V) with the real
    (2d, d) rows of V^H. These eight arrays are read-only, so
    run_trajectory can share one instance, kept in a one-entry cache
    (_shared_stepper), across the trajectories of a (params, spec) pair.
    """

    def __init__(self, params: SystemParams, spec: FockBasisSpec):
        import scipy.sparse

        d = spec.dim
        basis = _coords_basis(d)
        x = quadrature(spec, "position")
        p = quadrature(spec, "momentum")
        # the Hermitian part of -2i e^{-i phi} X r, the innovation's operator term
        e = cmath.exp(-1j * params.phi)
        innovation = -1j * e * left_mult(x) + 1j * e.conjugate() * right_mult(x)
        # L r and the innovation of r from one real sparse product on the
        # row-major entries Q.reshape(-1)
        self.drift_and_innovation = scipy.sparse.csr_array(
            scipy.sparse.vstack(
                [
                    _project(reduced_measurement_liouvillian(params, spec).csr, basis),
                    _project(innovation, basis),
                ],
                format="csr",
            )
        )
        # the recorded moments <X>, <P>, <n>, <X^2>, <P^2>; kick reads X as row 0
        self.ops = np.stack([x, p, number_op(spec), x @ x, p @ p])
        # tr(op r) for Hermitian op is the dot product of the coordinates of op and r
        self._ops_coords = _coords_of(self.ops).reshape(self.ops.shape[0], -1)
        self.g = params.g
        self.eta_m = params.eta * params.measurement_rate
        self.sqrt_eta_m = math.sqrt(self.eta_m)
        self.sin_phi = math.sin(params.phi)
        # The kick u = exp(i theta P) = V e^{i theta lambda} V^H, theta = -g s/2,
        # from P's eigenpairs as eigh returns them: the product does not
        # depend on any column's phase. P is imaginary, so u is the real
        # rotation exp(theta (a - a^dag)/2), and with V^H's real and
        # negated imaginary parts stacked as interleaved rows it is one real
        # product (V e^{i theta lambda}).view(float) @ rows
        self._kick_evals, self._kick_vecs = np.linalg.eigh(p)
        self._kick_rows = self._kick_vecs.view(float).T.copy()
        # one instance serves every trajectory of a pair, so no array may change
        for value in vars(self).values():
            if isinstance(value, scipy.sparse.csr_array):
                for arr in (value.data, value.indices, value.indptr):
                    arr.setflags(write=False)
            elif isinstance(value, np.ndarray):
                value.setflags(write=False)

    def moments(self, Q: np.ndarray) -> np.ndarray:
        """tr(op r) for every op in self.ops, as one real matrix-vector product."""
        return self._ops_coords @ Q.reshape(-1)

    def measure(self, Q: np.ndarray, dW: float, dt: float, tail_guard: float, x_mean: float):
        """One Ito-Euler update of the state Q, whose <X> is x_mean, for the increment dW ~ Normal(0, dt).

        The update of r is the Hermitian part of

            r (1 + 2 sin(phi) sqrt(eta M) x_mean dW) + dt L r
                - 2i e^{-i phi} sqrt(eta M) dW X r,

        that is r + dt L r plus the innovation
        sqrt(eta M) dW (i e^{i phi} r X - i e^{-i phi} X r + 2 sin(phi) x_mean r),
        taken on Q as one sparse product and two axpys. Returns the
        renormalized Q1, its top-level population guarded by tail_guard,
        and the current increment
        dI = 2 eta M sin(phi) x_mean dt + sqrt(eta M) dW, M = chi^2/kappa.
        Q may be any real d x d array.
        """
        d = Q.shape[0]
        Q1, innovation = (self.drift_and_innovation @ Q.reshape(-1)).reshape(2, d, d)
        Q1 *= dt
        Q1 += (1.0 + 2.0 * self.sin_phi * self.sqrt_eta_m * x_mean * dW) * Q
        innovation *= self.sqrt_eta_m * dW
        Q1 += innovation
        tr = float(Q1.trace())
        if not abs(tr - 1.0) <= _TRACE_TOL:
            raise StepTooLarge(f"conditioned trace drifted to {tr:.9f}; reduce dt")
        Q1 *= 1.0 / tr
        tail = float(Q1[-1, -1])
        if not tail <= tail_guard:
            raise TailTooHeavy(
                f"conditioned top-level population {tail:.3e} exceeds the guard {tail_guard:.3e}",
                tail=tail,
            )
        dI = 2.0 * self.eta_m * self.sin_phi * x_mean * dt + self.sqrt_eta_m * dW
        return Q1, dI

    def kick(self, Q: np.ndarray, dI: float, dt: float) -> np.ndarray:
        """Momentum kick exp(-i (g/2) P s) of the state Q, s = -2 dI / (eta M) + 8 sin(phi) <X> dt.

        The mean correction in s is what makes the measurement + kick
        ensemble average reproduce the feedback master equation; a kick
        proportional to dI alone leaves a spurious nonlinear drift behind.
        The kick u = Re(V e^{i theta lambda} V^H) is a real rotation, built
        in one real product. u r u' has the coordinates u Q u', two real
        products, so Q may be any real d x d array. At g = 0 the kick is
        the identity and Q is returned as it is.
        """
        if self.g == 0.0:
            return Q
        s = -2.0 * dI / self.eta_m + 8.0 * self.sin_phi * float(np.vdot(self._ops_coords[0], Q)) * dt
        theta = -0.5 * self.g * s
        u = (self._kick_vecs * np.exp(1j * theta * self._kick_evals)).view(float) @ self._kick_rows
        return u @ Q @ u.T


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


def _cholesky_certifies(r: np.ndarray, floor: float) -> bool:
    """Whether a Cholesky factorization certifies lambda_min(r) > floor for a C-contiguous Hermitian r.

    r's diagonal is overwritten.
    """
    # A Cholesky factorization of r - (floor + margin) I that completes is
    # exact for that matrix plus a perturbation of norm at most about
    # d^2 eps / 2 at unit trace (Higham, Accuracy and Stability of Numerical
    # Algorithms, Thm 10.3), so it certifies lambda_min(r) > floor. The
    # margin is four times that bound; the rest covers eigvalsh's own
    # rounding of the value it would replace.
    d = r.shape[0]
    r.reshape(-1)[:: d + 1] -= floor + 2.0 * d * d * _EPS
    try:
        np.linalg.cholesky(r)
    except np.linalg.LinAlgError:
        return False
    return True


def _certified_min_eig(r: np.ndarray, floor: float) -> float:
    """min(floor, lowest eigenvalue of the Hermitian array r), with eigvalsh only where needed."""
    if _cholesky_certifies(r.copy(), floor):
        return floor
    return min(floor, float(np.linalg.eigvalsh(r)[0]))


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
    traj_index must be a non-negative integer; anything else raises
    ValueError before any work.

    The HomodyneStepper is built once per (params, spec) and kept for the
    next call with an equal pair, so an ensemble builds the measurement
    generator and the kick eigenbasis once. The state is stepped as its
    real coordinates Q (see HomodyneStepper), so no step takes a
    Hermitian part.

    The recorded minimum eigenvalue is exact: eigvalsh runs on the initial
    state and wherever a later state r = _state_of(Q) fails the Cholesky
    certificate of _cholesky_certifies, which runs on r - cI built from Q
    in one buffer. Each state's moments are read once, in one real
    matrix-vector product, and Var(X) Var(P) is minimized over the whole
    run at the end.

    The explicit update multiplies the band-k coherence (the entries k
    places off the diagonal, which rotate at nu * k) by roughly
    1 + (nu * k * dt)^2 / 2 each step, so fast bands grow unless damping
    wins. Measurement noise seeds every band, so runs with chi > 0 are
    rejected outright when the accumulated gain on the top band could
    amplify roundoff into a visible positivity violation.
    """
    # SeedSequence's spawn_key takes non-negative integers only, and its errors do not name traj_index
    if not isinstance(traj_index, (int, np.integer)) or traj_index < 0:
        raise ValueError(f"traj_index must be a non-negative integer, got {traj_index!r}")
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
    Q = _coords_of(r)
    moments[:, 0] = stepper.moments(Q)
    min_eig = float(np.linalg.eigvalsh(r)[0])
    # the Wiener increments in one draw, which the generator fills variate by
    # variate, so they equal those of one draw per step
    increments = math.sqrt(cfg.dt) * rng.standard_normal(steps)
    for k in range(1, steps + 1):
        dW = float(increments[k - 1])
        Q, dI = stepper.measure(Q, dW, cfg.dt, cfg.tail_guard, moments[0, k - 1])
        Q = stepper.kick(Q, dI, cfg.dt)
        current[k] = dI / cfg.dt
        moments[:, k] = stepper.moments(Q)
        # r = _state_of(Q) is built twice only where the certificate fails
        if not _cholesky_certifies(_state_of(Q), min_eig):
            min_eig = min(min_eig, float(np.linalg.eigvalsh(_state_of(Q))[0]))
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

    # the records' read-only grid, then (mean, se) of each moment, in field order
    return EnsembleMoments(t0, *stats("x_cond"), *stats("p_cond"), *stats("n_cond"))
