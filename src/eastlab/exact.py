"""Exact finite-state treatment of the East dynamics on small regions.

States are bitmasks over the region's sites in lexicographic coordinate order
(bit i = spin of the i-th site).  Rates follow detailed balance with respect to
the product Bernoulli(p) measure: a constrained site flips to 1 at rate p and
to 0 at rate 1-p.

Every operator comes from one pass, `_legal_flips`, the only copy of the East
constraint, and one CSR writer, `_flip_csr`: Q, -S and the killed B_z differ
only in the values it writes.  ``tests/oracle.py`` builds Q site by site.

Importing this module loads ``scipy.sparse`` (the operators) and
``scipy.linalg`` (``dstebz``, which `east1d_gap` reads every 10 Lanczos
steps), never ``scipy.special``, ``scipy.stats`` or ``scipy.sparse.linalg``:
the kinds gap and constants load nothing more.  Uniformization takes its
Poisson weights and truncation from ``scipy.special`` (``xlogy``,
``gammaln``, ``pdtrc``), the formulas ``scipy.stats.poisson`` evaluates for
``pmf`` and ``isf``, and imports it on its first call (`poisson_truncation`).
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Mapping, Union

import numpy as np
import scipy.sparse as sp
from scipy.linalg.blas import daxpy, ddot, dscal
from scipy.linalg.lapack import dstebz

from .lattice import Region, Site, bernoulli_weights, site_sub_e

MAX_REGION_SITES = 20
MAX_SPECTRAL_SITES = 12  # spectral_gap: largest region, a 4096x4096 dense solve
MAX_GAP_SITES = 17  # east1d_gap: largest chain; set when its former ARPACK solver took 34 s at p = 0.9
MAX_LANCZOS_STEPS = 20_000  # east1d_gap: 10x the 1930 steps of p = 0.95, N = 17
# east1d_gap: relative stagnation of lambda_min(T_k), and breakdown.  It does
# not bound the result's error, which is absolute, a few eps |B| (see east1d_gap).
LANCZOS_RTOL = 1e-12


class ExactEngineError(ValueError):
    pass


@dataclass(frozen=True)
class SpectrumResult:
    gap: float
    eigenvalue_count_at_zero: int


def _checked_sites(region: Region, p: float) -> tuple[Site, ...]:
    """The region's sites in bit order, once p, their count and dimension are checked."""
    if not (0.0 < p < 1.0):
        raise ExactEngineError(f"p must lie in (0,1), got {p}")
    sites = tuple(sorted(region.sites))
    if not sites:
        raise ExactEngineError("region is empty")
    if len(sites) > MAX_REGION_SITES:
        raise ExactEngineError(f"region capped at {MAX_REGION_SITES} sites")
    if len({len(x) for x in sites}) > 1:
        raise ExactEngineError(f"region mixes sites of dimensions {sorted({len(x) for x in sites})}")
    return sites


def _legal_flips(sites: tuple[Site, ...], boundary: Mapping[Site, int], p: float,
                 z: Site | None = None) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Per bitmask state: the bits of the sites free to flip to 1, and to 0,
    and the exit rate p #up + (1-p) #down, plus c_z = 1{some z - e_j is at
    zero} for a killed site z.  A boundary spin read but missing, or other
    than 0 or 1, raises `ExactEngineError`."""
    index = {x: i for i, x in enumerate(sites)}
    states = np.arange(1 << len(sites), dtype=np.int32)

    def constraint(x: Site) -> np.ndarray:
        cons = np.zeros(states.size, dtype=bool)
        for j in range(len(x)):
            y = site_sub_e(x, j)
            if y in index:
                cons |= (states >> index[y]) & 1 == 0
            elif y not in boundary:
                raise ExactEngineError(f"missing boundary assignment for {y}")
            elif boundary[y] not in (0, 1):
                raise ExactEngineError(f"boundary spin at {y} must be 0 or 1, got {boundary[y]!r}")
            elif boundary[y] == 0:
                cons[:] = True
        return cons

    legal = np.zeros(states.size, dtype=np.int32)
    for i, x in enumerate(sites):
        np.bitwise_or(legal, 1 << i, out=legal, where=constraint(x))
    up, down = legal & ~states, legal & states
    exit_rate = p * np.bitwise_count(up) + (1.0 - p) * np.bitwise_count(down)
    if z is not None:
        exit_rate += constraint(z)
    return up, down, exit_rate


def _flip_csr(up: np.ndarray, down: np.ndarray, diag: np.ndarray, up_value: float,
              down_value: float) -> sp.csr_matrix:
    """CSR matrix with up_value / down_value at each legal flip to 1 / to 0 and
    diag on the diagonal; int32 indices, sorted within each row."""
    states = np.arange(up.size, dtype=np.int32)
    flips = 1 << np.arange(up.size.bit_length() - 1, dtype=np.int32)  # flips[i] toggles site i
    # a row's columns ascend: eta - 2^i for i = n-1..0, eta, then eta + 2^i for i = 0..n-1
    slots = np.concatenate([flips[::-1], np.zeros(1, np.int32), flips])
    present = np.concatenate(
        [down[:, None] & flips[::-1], np.ones((states.size, 1), np.int32), up[:, None] & flips], axis=1
    ) != 0
    indices = np.extract(present, states[:, None] ^ slots)
    n_down = np.bitwise_count(down)
    indptr = np.zeros(states.size + 1, dtype=np.int32)
    np.cumsum(np.bitwise_count(up | down) + 1, out=indptr[1:])
    data = np.full(indices.size, up_value)
    if down_value != up_value:  # a row's flips to 0 are its columns below the diagonal
        data[indices < np.repeat(states, np.diff(indptr))] = down_value
    data[indptr[:-1] + n_down] = diag
    return sp.csr_matrix((data, indices, indptr), shape=(states.size, states.size))


class Generator:
    """Exact rate matrix of the East dynamics on a region with frozen boundary."""

    def __init__(self, region: Region, boundary: Mapping[Site, int], p: float):
        self.sites = _checked_sites(region, p)
        self.boundary = dict(boundary)
        self.p = p
        self.n = len(self.sites)
        self.dim = 1 << self.n
        up, down, exit_rate = _legal_flips(self.sites, self.boundary, p)
        self.rates = _flip_csr(up, down, 0.0 - exit_rate, p, 1.0 - p)  # 0 - 0.0 is +0.0, not -0.0

    def mu(self) -> np.ndarray:
        """Product Bernoulli(p) weights indexed by bitmask state."""
        return bernoulli_weights(self.n, self.p)


def build_generator(region: Region, boundary: Mapping[Site, int], p: float) -> Generator:
    return Generator(region, boundary, p)


def _state_vector(name: str, value, dim: int) -> np.ndarray:
    """``value`` as a finite float vector over the dim states, else ExactEngineError naming it."""
    vec = np.asarray(value)
    if vec.dtype.kind not in "biuf":  # callables, strings, dicts and None give other kinds
        raise ExactEngineError(f"{name} must be numeric, got {type(value).__name__} of dtype {vec.dtype}")
    if vec.shape != (dim,):
        raise ExactEngineError(f"{name} has shape {vec.shape}, the region has {dim} states")
    vec = vec.astype(float, copy=False)
    if not np.isfinite(vec).all():
        state = int(np.argmin(np.isfinite(vec)))
        raise ExactEngineError(f"{name} must be finite, got {vec[state]} at state {state}")
    return vec


def evolve_expectation(
    gen: Generator,
    initial: Union[int, np.ndarray],
    f: np.ndarray,
    t: float,
    tol: float = 1e-10,
) -> float:
    """E_initial[f(state at time t)] by uniformization with truncation error < tol,
    for f given as its values on the states 0..dim-1.

    ``initial`` is a bitmask state or a distribution vector over states; a
    state outside 0..dim-1, an f or a vector that is not numeric, of the
    wrong length or not finite, a t that is negative or not finite, a tol
    that is not > 0 (NaN included), or a tol / max|f| that underflows to 0
    raises `ExactEngineError`.
    """
    if not 0 <= t < math.inf:
        raise ExactEngineError(f"t must be finite and >= 0, got {t}")
    if not tol > 0:
        raise ExactEngineError(f"tol must be > 0, got {tol}")
    fvec = _state_vector("f", f, gen.dim)
    if isinstance(initial, (int, np.integer)):
        if not 0 <= initial < gen.dim:
            raise ExactEngineError(f"initial state {initial} lies outside 0..{gen.dim - 1}")
        dist = np.zeros(gen.dim)
        dist[initial] = 1.0
    else:
        dist = _state_vector("initial distribution", initial, gen.dim)
    if t == 0:
        return float(dist @ fvec)
    lam = float(gen.n)  # uniformization rate: each of n sites rings at rate 1
    mu_poiss = lam * t
    fnorm = float(np.max(np.abs(fvec))) or 1.0
    if tol / fnorm == 0.0:
        raise ExactEngineError(f"tol / max|f| = {tol} / {fnorm} underflows to 0")
    K, weights = poisson_truncation(mu_poiss, min(1.0, tol / fnorm))
    P = sp.identity(gen.dim, format="csr") + gen.rates / lam
    acc = 0.0
    v = dist
    for k in range(K + 1):
        acc += weights[k] * float(v @ fvec)
        if k < K:
            v = v @ P
    return acc


def poisson_truncation(mu: float, q: float) -> tuple[int, np.ndarray]:
    """Truncation K and the Poisson(mu) weights of k = 0..K, where K - 1 is
    the least k with P(X > k) <= q for q < 1 (``scipy.stats.poisson.isf``),
    and K = 0 at q = 1 (isf gives -1 there).

    The search stops at the Bernstein bound P(X >= mu + x) <= exp(-x^2 / (2
    (mu + x / 3))), which is q at x = L/3 + sqrt(L^2/9 + 2 mu L), L = -log q,
    so the least such k lies in the searched range.
    """
    from scipy.special import gammaln, pdtrc, xlogy  # uniformization alone reads scipy.special

    K = 0
    if q < 1.0:
        L = -math.log(q)
        top = math.ceil(mu + L / 3 + math.sqrt(L * L / 9 + 2 * mu * L))
        K = int(np.argmax(pdtrc(np.arange(top + 1), mu) <= q)) + 1
    k = np.arange(K + 1)
    return K, np.exp(xlogy(k, mu) - gammaln(k + 1) - mu)


def spectral_gap(gen: Generator) -> SpectrumResult:
    """Gap and zero-eigenvalue multiplicity of the symmetrized generator, by a
    dense solve; the test oracle for `east1d_gap`.  Regions above
    `MAX_SPECTRAL_SITES` sites are refused before anything is densified."""
    if gen.n > MAX_SPECTRAL_SITES:
        raise ExactEngineError(f"spectral_gap is capped at {MAX_SPECTRAL_SITES} sites")
    up, down, exit_rate = _legal_flips(gen.sites, gen.boundary, gen.p)
    flip = -math.sqrt(gen.p * (1.0 - gen.p))
    rates = np.linalg.eigvalsh(_flip_csr(up, down, exit_rate, flip, flip).toarray())  # -S: >= 0 up to rounding
    zero_tol = max(float(exit_rate.max()), 1.0) * 1e-10
    nonzero = rates[rates > zero_tol]
    gap = float(nonzero.min()) if nonzero.size else 0.0
    return SpectrumResult(gap, int((rates <= zero_tol).sum()))


def killed_operator(region: Region, boundary: Mapping[Site, int], p: float, z: Site) -> sp.csr_matrix:
    """B = -S + diag(c_z) on the region, with S the symmetrized generator and
    c_z(eta) = 1{some z - e_j is at zero}, the constraint of the killed site z
    outside the region.

    Its CSR arrays (int32 indices, sorted within each row) are written from
    the one legal-flip pass: -sqrt(p(1-p)) at each legal flip, and the exit
    rate plus c_z on the diagonal.  A killed site inside the region, or not
    of the region's dimension, raises `ExactEngineError`.
    """
    sites = _checked_sites(region, p)
    if z in region:
        raise ExactEngineError(f"killed site {z} lies inside the region")
    if len(z) != len(sites[0]):
        raise ExactEngineError(f"killed site {z} is not {len(sites[0])}-dimensional, as the region is")
    flip = -math.sqrt(p * (1.0 - p))
    return _flip_csr(*_legal_flips(sites, boundary, p, z), flip, flip)


def half_space_operator(p: float, m: int) -> sp.csr_matrix:
    """B_m = -S_m + diag(1{eta_m = 0}) on the chain {1..m}, site 0 frozen at zero.

    B_m is positive definite, and its off-diagonal entries are
    -sqrt(p(1-p)) <= 0, so its ground vector is positive.
    """
    return killed_operator(Region(frozenset((i,) for i in range(1, m + 1))), {(0,): 0}, p, (m + 1,))


def _lowest_tridiagonal(alpha: list[float], beta: list[float]) -> float:
    """lambda_min of the symmetric tridiagonal matrix with diagonal alpha and
    off-diagonal beta, by LAPACK's bisection: the call, and the 1x1 shortcut,
    of ``eigvalsh_tridiagonal(alpha, beta, select="i", select_range=(0, 0))``
    without its argument checks."""
    if len(alpha) == 1:
        return alpha[0]
    _, w, _, _, info = dstebz(alpha, beta, 2, 0.0, 1.0, 1, 1, 0.0, "E")
    if info:
        raise ExactEngineError(f"LAPACK dstebz failed with info = {info}")
    return float(w[0])


def east1d_gap(p: float, N: int) -> float:
    """Gap of the 1-D East dynamics on {1..N} with site 0 frozen at zero.

    No site of the chain reads site N, so with c_N = 1{eta_{N-1} = 0} (1 for
    N = 1) the symmetrized generator factors as
    -S_N = -S_{N-1} (x) I + diag(c_N) (x) (-L_1), where the one-site -L_1 has
    eigenvalue 0 on constants and 1 on the mean-zero spin.  Hence
    spec(-S_N) = spec(-S_{N-1}) u spec(B_{N-1}) (see `half_space_operator`),
    with B_0 = [1].  Moreover lambda_min(B_m) < lambda_min(B_{m-1}): the
    trial vector v (x) e_1, with v the positive ground vector of B_{m-1} and
    e_1 the spin-1 state of site m, gives
    <B_m> = lambda_min(B_{m-1}) - p <v, diag(c_m) v> with <v, diag(c_m) v> > 0.
    So the gap is exactly lambda_min(B_{N-1}), an operator on 2^(N-1) states
    with no zero mode to deflate, built directly by `killed_operator`.

    It is solved by one three-term Lanczos recurrence on B_{N-1}, started
    from the normalized all-ones vector, which makes the result deterministic
    and overlaps the positive ground vector.  Only the coefficients alpha_k,
    beta_k of the tridiagonal T_k and three vectors are kept: no basis is
    stored, nothing is reorthogonalized and nothing restarts.  A step is one
    CSR matvec plus BLAS level-1 updates in place (``daxpy``, ``ddot``,
    ``dscal``), because each is one fused pass over the vectors, where
    numpy's ``w -= b * q_prev`` makes a temporary and two passes.  At
    N = 13, p = 0.9 a step took 73 us with numpy's updates (47 us of it the
    matvec) and 58 us with BLAS's, on the host of the cost table below;
    numpy's updates in place through a scratch vector keep every bit and
    took 73 us.  In floating point the vectors lose orthogonality, but by
    Paige's analysis (LAA 34, 1980) lambda_min(T_k) still decreases to
    lambda_min(B); lost orthogonality only adds ghost copies of Ritz values
    that have converged.
    Every 10 steps lambda_min(T_k) is read by LAPACK's bisection ``dstebz``
    (`_lowest_tridiagonal`), and the recurrence stops when it fell by at
    most `LANCZOS_RTOL` relative over those 10 steps, or at breakdown
    (beta_k <= `LANCZOS_RTOL` |B q_k|), where T_k's spectrum is exact.  A
    residual bound is not used as the stop rule: once ghosts appear it stalls
    at the precision floor (beta_k |y_k| <= 1e-12 theta_k took 12 220 steps,
    10.9 s, at p = 0.98, N = 12; this rule 0.05 s).  More than
    `MAX_LANCZOS_STEPS` steps raise `ExactEngineError`.

    The result is accurate in absolute terms, to a few eps |B| (|B| grows
    about like N): rounding in B, not the stop rule, sets the limit, so a
    small gap is known to fewer relative digits.  At p = 0.95 and
    N = 11..14 (gap 9e-6 .. 4e-6, |B| about 11 at N = 11) the result lies
    within 1.6e-14 of ARPACK at ``tol=0``, 8e-12 .. 4e-9 relative, and ARPACK
    itself lies 5e-10 (N = 11) and 2e-10 (N = 12) relative from dense
    ``eigvalsh``.  Rounding in the step alone moves the result within this
    accuracy: over p in {0.05, 0.3, 0.5, 0.7, 0.9, 0.95} x N = 1..14, the BLAS
    step and numpy's separate passes gave results at most 8.5e-15 apart
    (2.0e-9 relative, at p = 0.95, N = 14), and 19 of the 84 alike to the bit.

    Cost of one call in seconds, median of 3 fresh processes pinned to one
    core of a 2-core x86-64 host, one BLAS thread (Python 3.11, numpy 2.4,
    scipy 1.17), with peak RSS in MB in brackets and the Lanczos steps below:

        N          14          15          16          17          18 (*)
        p = 0.5    0.016 (61)  0.044 (64)  0.077 (69)  0.18 (78)   0.52 (98)
          steps    110         120         130         130         140
        p = 0.9    0.094 (61)  0.20 (64)   0.55 (69)   1.26 (78)   3.8 (98)
          steps    660         760         940         1100        1240

    p = 0.95 took 0.14 s (900 steps) at N = 14 and 2.1 s (1930 steps, the
    most measured) at N = 17.  (*) N = 18 lies past `MAX_GAP_SITES` and was
    timed with the cap raised in-process; it is informational.
    """
    if not (0.0 < p < 1.0):
        raise ExactEngineError(f"p must lie in (0,1), got {p}")
    if isinstance(N, bool) or not isinstance(N, (int, np.integer)):
        raise ExactEngineError(f"N must be an integer, got {N!r}")
    if not (1 <= N <= MAX_GAP_SITES):
        raise ExactEngineError(f"N must lie in 1..{MAX_GAP_SITES}, got {N}")
    if N == 1:
        return 1.0
    B = half_space_operator(p, N - 1)
    q = np.full(B.shape[0], B.shape[0] ** -0.5)
    q_prev = np.zeros_like(q)
    alpha, beta = [], []
    b = 0.0
    low = math.inf
    for k in range(1, MAX_LANCZOS_STEPS + 1):
        w = B @ q
        # f2py writes into w in place only while it is a contiguous float64
        # array, and into a copy otherwise: keep every returned array.
        w = daxpy(q_prev, w, a=-b)
        a = ddot(q, w)
        w = daxpy(q, w, a=-a)
        scale = math.hypot(a, b)  # |B q_k| up to the new beta
        b = math.sqrt(ddot(w, w))
        breakdown = b <= LANCZOS_RTOL * scale
        alpha.append(a)
        if breakdown or k % 10 == 0:
            theta = _lowest_tridiagonal(alpha, beta)
            if breakdown or low - theta <= LANCZOS_RTOL * theta:
                return theta
            low = theta
        beta.append(b)
        q_prev, q = q, dscal(1.0 / b, w)
    raise ExactEngineError(
        f"east1d_gap(p={p}, N={N}): Lanczos did not settle within MAX_LANCZOS_STEPS = {MAX_LANCZOS_STEPS} steps"
    )
