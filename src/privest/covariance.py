"""Private covariance estimation for I <= Sigma <= kappa*I.

The pipeline: a clamped-and-noised empirical covariance (``naive_pce``), a
one-step preconditioner that privately finds the large-eigenvalue subspace
and shrinks it (``weak_ppc``), the recursion that drives the certified
condition bound down to 1000 (``ppc``), and the full estimator that
preconditions, estimates in the well-conditioned frame, and conjugates back
(``pgce``).  No estimator transforms the samples: every round, and the
final estimate, reads one cached Gram matrix through the accumulated map
(``_Frame``): it reads the rows at the first clamp asked of it, rereads them
only when an ellipsoid around them cannot rule out a drop, holds O(d^2 +
block) more while none is out, and conjugates back through the map's exact
inverse in factored form.  ``covariance_unbounded`` shares it.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .errors import EmptyInputError, InvalidParameterError, check, check_samples
from .linalg import project_psd, psd_factor, sym_eigh, sym_eigvals
from .noise import NoiseSource
from .privacy import PrivacyBudget, gaussian_mechanism_symmetric, gaussian_sigma

# Certified condition bound at which the preconditioning recursion stops.
TARGET_KAPPA = 1000.0
# Per-round shrink of the certified bound.
ROUND_SHRINK = 0.7
# Per-round inflation absorbing estimation error in the certificate.
ROUND_SCALE = 1.1
# ppc's per-round shrink of the heavy subspace: each factor scales it by 1/sqrt(K).
ROUND_K = 2.0
# A frame's passes over its mapped rows (exact norms, the ellipsoid fit) go
# in blocks of at most this many multiply-adds.  OpenBLAS runs a product that
# small on the calling thread; splitting each whole pass over two threads made
# an operation 2-3x slower whenever another process kept the second core busy.
_BLOCK_MADDS = 2 ** 18
_BLOCK_ROWS = 2 ** 13   # a pass that only squares the rows: rows per block


@dataclass
class RoundRecord:
    """One preconditioning round: its bound, threshold, and chosen subspace."""

    kappa: float
    threshold: float
    subspace_dim: int
    rho: float
    K: float


@dataclass(eq=False)
class Preconditioner:
    """Accumulated preconditioning matrix A with per-round certificates.

    Each round's factor is scale * ((1/sqrt(K)) P_V + P_Vperp), symmetric;
    A is their product (``ppc`` and ``ppc_range`` alike), for samples as
    rows @ A.T; ``A_inv`` the product of their exact inverses, not a dense one.
    """

    A: np.ndarray
    A_inv: np.ndarray
    round_log: list = field(default_factory=list)
    budget_spent: Optional[PrivacyBudget] = None
    kappa_star: Optional[float] = None


@dataclass(eq=False)
class CovEstimate:
    """A covariance estimate with the budget it spent and its record."""

    sigma_hat: np.ndarray
    budget_spent: PrivacyBudget
    diagnostics: dict = field(default_factory=dict)


def clamp_threshold_sq(kappa: float, d: int, n: int, beta: float) -> float:
    """B^2 = kappa * d * (1 + 3*ln(2n/beta)); samples with larger squared norm
    are dropped before averaging."""
    return kappa * d * (1.0 + 3.0 * math.log(2.0 * n / beta))


def clamped_covariance(x: np.ndarray, b_sq: float) -> tuple[np.ndarray, int]:
    """(1/n) sum of X_i X_i^T over rows with ||X_i||^2 <= b_sq.

    The divisor stays n (not |S|), matching the sensitivity analysis.  Returns
    the matrix and the kept-row count: the tests' reference for ``_Frame``.
    """
    keep = np.einsum("ij,ij->i", x, x) <= b_sq
    xs = x if keep.all() else x[keep]
    cov = (xs.T @ xs) / x.shape[0]
    return (cov + cov.T) / 2.0, int(keep.sum())


class _Pairs:
    """The mean-free difference pairs (x[2i+1] - x[2i]) / sqrt(2) of the rows
    of ``x``, never built whole.  A slice lo:hi of at most ``step`` rows, a
    block of _BLOCK_MADDS multiply-adds in a d x d product, is computed into
    one reused buffer, valid until the next; a longer slice or an index array, a new one."""

    def __init__(self, x: np.ndarray):
        self.x, self.shape = x, (x.shape[0] // 2, x.shape[1])
        self.step = max(1, _BLOCK_MADDS // self.shape[1] ** 2)
        self.buf = np.empty((min(self.step, self.shape[0]), self.shape[1]))

    def __getitem__(self, rows) -> np.ndarray:
        with np.errstate(invalid="ignore"):   # inf - inf: a NaN pair, out of every clamp
            if isinstance(rows, slice):
                lo, hi, _ = rows.indices(self.shape[0])
                out = np.subtract(self.x[2 * lo + 1:2 * hi:2], self.x[2 * lo:2 * hi:2],
                                  out=self.buf[:hi - lo] if hi - lo <= self.step else None)
            else:
                out = np.subtract(self.x[2 * rows + 1], self.x[2 * rows])
        return np.divide(out, math.sqrt(2.0), out=out)


class _Frame:
    """Samples seen through an accumulated map M, never transformed.

    Reads the rows of ``x`` (an array or a ``_Pairs``) by slice or index, in
    one whole pass at the first ``moment`` (admitting the rows its clamp could
    keep) or the first ``sq_norms`` (admitting none).  It then holds the
    indices ``idx`` of those admitted (some clamp asked for so far could keep
    them; None: all), their clamped second moment S = G/n, their largest
    squared norm ``top``, and the indices ``out`` of the others with their
    norms (None: not read yet).  M and its exact inverse are built one factor
    scale * (I - c V V^T) per ``push``.  ``shape`` is the samples' shape.  A
    caller that needs the admitted rows' norms under M one by one builds
    them, kept until the next ``push``; ``moment`` otherwise rules out a drop
    by ``top`` if never pushed, else by S's ellipsoid [T, T^-1, r], |T x|^2 <=
    r for every admitted row, fitted once.
    """

    def __init__(self, x):
        self.x, self.shape, self.out, self.norms = x, x.shape, None, None
        self.rounds, self.fitted, self.ellipsoid = 0, False, None
        self.m, self.m_inv = np.eye(x.shape[1]), np.eye(x.shape[1])
        self.inv_norm_sq = 1.0   # bounds |M^{-1}|_2^2: |M x|^2 >= |x|^2 / it

    def _read(self, reach: float):
        """The one pass over the rows: S holds those with |x|^2 <= ``reach``.
        An array is read as one block; a block with an out row sums its kept
        rows in copies of at most a ``_Pairs`` block."""
        # Rows past the reach are dropped by every clamp asked for so far.  Keeping
        # them out of S stops a huge finite row from cancelling the rest when dropped.
        self.reach, (n, d), self.top = reach, self.shape, -math.inf
        step = n if isinstance(self.x, np.ndarray) else self.x.step
        sub = max(1, _BLOCK_MADDS // d ** 2)
        # No n-byte mask of kept rows until a block has an out row (NaN is one).
        keep, gram, out_norms = np.ones(0, dtype=bool), None, [np.empty(0)]
        for lo in range(0, n, step):
            rows = self.x[lo:lo + step]
            for s in range(0, len(rows), _BLOCK_ROWS):
                q = _sq_under(rows[s:s + _BLOCK_ROWS])
                k = q <= reach
                self.top = max(self.top, q.max(where=k, initial=-math.inf))
                if not k.all():
                    keep = keep if keep.size else np.ones(n, dtype=bool)
                    keep[lo + s:lo + s + q.size] = k
                    out_norms.append(q[~k])
            parts = [rows] if keep[lo:lo + step].all() else (
                rows[s:s + sub][keep[lo + s:lo + s + sub]] for s in range(0, len(rows), sub))
            for part in parts:
                gram = part.T @ part if gram is None else gram + part.T @ part
        self.idx = np.flatnonzero(keep) if keep.size else None
        self.out = np.flatnonzero(np.logical_not(keep, out=keep))   # no n-byte copy
        self.out_norms = np.concatenate(out_norms)
        self.norms = np.empty(0) if self.out.size == n else None   # none to build
        gram /= n
        self.second = (gram + gram.T) / 2.0

    def cover(self, b_sq: float):
        """Admit to S every out row that ``b_sq`` could keep: |x|^2 <= b_sq |M^{-1}|_2^2."""
        with np.errstate(over="ignore", invalid="ignore"):
            if np.isfinite(self.m_inv).all():   # LAPACK's SVD fails or prints on inf or NaN
                self.inv_norm_sq = min(self.inv_norm_sq, np.linalg.norm(self.m_inv, 2) ** 2)
            reach = b_sq * self.inv_norm_sq
        self.reach, add = max(self.reach, reach), self.out_norms <= reach
        if not add.any():   # always so while idx is None: no row is out
            return
        new, q = self.x[self.out[add]], self.out_norms[add]
        second = (new.T @ new) / self.shape[0]
        self.second = self.second + (second + second.T) / 2.0
        self.idx, self.top = np.concatenate([self.idx, self.out[add]]), max(self.top, q.max())
        if self.norms is not None:   # never pushed: the norms _read took
            self.norms = np.concatenate([self.norms, _sq_under(new, self.m) if self.rounds else q])
        if self.ellipsoid:
            t, _, r = self.ellipsoid
            self.ellipsoid[2] = max(r, _sq_under(new, t, top=True))
        self.out, self.out_norms = self.out[~add], self.out_norms[~add]

    def _fit(self):
        """Fit S = U diag(w) U^T's ellipsoid, T = diag(w)^{-1/2} U^T and r the
        largest |T x|^2, a running maximum over one pass; none if S is
        non-finite or zero.  Any invertible T bounds |M x|, so w is floored
        at 1e-12 of its largest: rows in a subspace are fitted too."""
        self.fitted = True
        if np.isfinite(self.second).all():   # LAPACK may not return on NaN
            w, u = sym_eigh(self.second)
            w = np.maximum(w, 1e-12 * w[-1])
            if w[0] > 0:
                t = u.T / np.sqrt(w)[:, None]
                self.ellipsoid = [t, u * np.sqrt(w), _sq_under(self.x, t, self.idx, top=True)]

    def _certified(self, b_sq: float) -> bool:
        """Whether S's ellipsoid, fitted at the first call, proves that no
        admitted row has |M x|^2 > b_sq, as
        |M x|^2 <= |M T^-1|_2^2 |T x|^2 <= r lambda_max(M T^-1 (M T^-1)^T)."""
        if not self.fitted:
            self._fit()
        if self.ellipsoid is None:
            return False
        _, t_inv, r = self.ellipsoid
        with np.errstate(over="ignore", invalid="ignore"):
            p = self.m @ t_inv
            g = p @ p.T   # non-finite only if it overflowed; LAPACK rejects it
            # relative rounding in r, lambda_max and the exact norms: d^1.5 eps
            # sqrt(w_max/w_min) (< 1e-5 at d <= 1000, _fit's floor) + d eps cond(M)
            return np.isfinite(g).all() and 1.01 * r * sym_eigvals(g)[-1] <= b_sq

    def _exact_norms(self) -> np.ndarray:
        """Squared norms |M x|^2 of the admitted rows, built at the first call since a push."""
        if self.norms is None and self.rounds:
            self.norms = _sq_under(self.x, self.m, self.idx)
        elif self.norms is None:   # as _read took them, from row slices: they drop what it would
            self.norms = _sq_under(self.x)[slice(None) if self.idx is None else self.idx]
        return self.norms

    def moment(self, b_sq: float) -> tuple[np.ndarray, int]:
        """clamped_covariance of the mapped rows: M (S - dropped x x^T / n) M^T,
        first reading the rows at ``b_sq`` if no moment was asked for yet, and
        ``cover``ing it if it could keep a row past the reach."""
        if self.out is None:
            self._read(b_sq)
        with np.errstate(over="ignore"):
            if self.out.size and b_sq * self.inv_norm_sq > self.reach:
                self.cover(b_sq)
        cov, kept = self.second, self.shape[0] - self.out.size
        if self.norms is not None or not (
                self._certified(b_sq) if self.rounds else self.top <= b_sq):
            norms = self._exact_norms()
            if not norms.max(initial=-math.inf) <= b_sq:   # no n-byte mask while all are in
                drop = norms > b_sq
                xd = self.x[np.flatnonzero(drop) if self.idx is None else self.idx[drop]]
                cov = cov - (xd.T @ xd) / self.shape[0]
                kept -= xd.shape[0]
        if self.rounds:
            cov = self.m @ cov @ self.m.T
        return (cov + cov.T) / 2.0, kept

    def sq_norms(self) -> np.ndarray:
        """Exact squared norms |M x|^2 of every row, the rows in S first.  A
        frame first read here admits no row to S."""
        if self.out is None:
            self._read(-math.inf)
        out = _sq_under(self.x[self.out], self.m) if self.rounds else self.out_norms
        return np.concatenate([self._exact_norms(), out])

    def push(self, v: np.ndarray, K: float, scale: float):
        """Compose the factor scale * (I - (1 - 1/sqrt(K)) V V^T), K >= 1,
        onto M, and its inverse (1/scale) * (I + (sqrt(K) - 1) V V^T) onto
        M^{-1}, whose spectral norm is sqrt(K)/scale."""
        self.m = scale * (self.m - (1.0 - 1.0 / math.sqrt(K)) * (v @ (v.T @ self.m)))
        with np.errstate(over="ignore", invalid="ignore"):
            self.m_inv = (self.m_inv + (math.sqrt(K) - 1.0) * ((self.m_inv @ v) @ v.T)) / scale
            self.inv_norm_sq *= K / scale ** 2
        self.norms, self.rounds = None, self.rounds + 1


def _sq_under(rows, t=None, idx=None, top=False):
    """Squared norms |t x|^2 (t None: |x|^2, by einsum alone) of the rows ``idx``
    (None: all) of ``rows``, an array or a ``_Pairs`` (NaN or inf for a non-finite
    row), in blocks of _BLOCK_MADDS multiply-adds, or _BLOCK_ROWS rows without
    ``t``; with ``top`` only their maximum (0 for none), over a reused buffer."""
    count = rows.shape[0] if idx is None else idx.shape[0]
    step = _BLOCK_ROWS if t is None else max(1, _BLOCK_MADDS // t.size)
    size = min(count, max(step, _BLOCK_ROWS // step * step)) if top else count
    out, r = np.empty(size), 0.0
    with np.errstate(invalid="ignore", over="ignore"):
        for lo in range(0, count, step):
            p = rows[lo:lo + step] if idx is None else rows[idx[lo:lo + step]]
            p = p if t is None else p @ t.T
            hi = lo % size + len(p)
            np.einsum("ij,ij->i", p, p, out=out[lo % size:hi])
            if top and (hi == size or lo + len(p) == count):
                r = np.maximum(r, out[:hi].max())   # NaN stays NaN
    return r if top else out


def _frame(x) -> _Frame:
    """``x`` itself when it is a frame; otherwise a frame, not yet read, over
    the samples ``x``: a 2-d array or a ``_Pairs`` with at least one row and column."""
    if isinstance(x, _Frame):
        return x
    x = check_samples(x if isinstance(x, _Pairs) else np.asarray(x, dtype=float))
    if x.shape[0] == 0:
        raise EmptyInputError("no samples")
    return _Frame(x)


def _clamped_moment(frame: _Frame, kappa: float, beta: float) -> tuple:
    """(moment, kept, B^2, l2 sensitivity 2 B^2 / n) at B^2 = clamp_threshold_sq:
    replacing a row drops at most one kept x x^T / n and adds one, each of norm <= B^2 / n."""
    b_sq = clamp_threshold_sq(kappa, frame.shape[1], frame.shape[0], beta)
    return (*frame.moment(b_sq), b_sq, 2.0 * b_sq / frame.shape[0])


def _noised_moment(x, rho: float, beta: float, kappa: float,
                   noise: NoiseSource) -> tuple[np.ndarray, dict]:
    """naive_pce before its PSD projection, and its clamp and noise record."""
    frame = _frame(x)
    check(rho=rho, beta=beta, kappa=kappa)
    cov, kept, b_sq, delta_f = _clamped_moment(frame, kappa, beta)
    noisy = gaussian_mechanism_symmetric(cov, delta_f, rho, noise)
    return noisy, {"kept": kept, "dropped": frame.shape[0] - kept, "clamp_threshold_sq": b_sq,
                   "noise_sigma": gaussian_sigma(delta_f, rho)}


def naive_pce(x, rho: float, beta: float, kappa: float, noise: NoiseSource) -> np.ndarray:
    """Clamp, average, noise, project: the basic private covariance estimator.

    Dropping rows over the clamp threshold bounds the Frobenius sensitivity
    of the average (``_clamped_moment``), which calibrates the symmetric Gaussian noise.
    The PSD projection can only improve the estimate.  ``x`` is samples (an
    array or a ``_Pairs``) or a ``_Frame`` of them, read at this clamp if this
    is the first moment asked of it.
    """
    return project_psd(_noised_moment(x, rho, beta, kappa, noise)[0])


def _split_from_noisy_cov(z: np.ndarray, kappa: float) -> np.ndarray:
    """The eigenvectors of a (noisy) covariance with eigenvalue >= kappa/2,
    as a d x k basis V (possibly k = 0).  Ties at exactly kappa/2 go into V."""
    evals, evecs = sym_eigh(z)
    return evecs[:, evals >= kappa / 2.0]


def weak_ppc(x, rho: float, beta: float, kappa: float, K: float,
             noise: NoiseSource) -> tuple[np.ndarray, np.ndarray]:
    """One preconditioning step: naive_pce, then its eigenvectors with
    eigenvalue >= kappa/2 as V, that subspace shrunk by 1/sqrt(K).  Returns
    (V, A), A = I when V is empty.  ``x`` is samples or a ``_Frame``."""
    if not kappa > 1:
        raise InvalidParameterError(f"kappa must be > 1, got {kappa}")
    check(K=K)
    v = _split_from_noisy_cov(naive_pce(x, rho, beta, kappa, noise), kappa)
    a = np.eye(len(v)) + (1.0 / math.sqrt(K) - 1.0) * (v @ v.T)
    return v, (a + a.T) / 2.0


def ppc(x, rho: float, beta: float, kappa: float,
        noise: NoiseSource) -> Preconditioner:
    """Recursive private preconditioning down to the target bound.

    Runs T = ceil(ln(kappa/1000) / ln(1/0.7)) rounds (0 when kappa <= 1000),
    splitting rho and beta evenly.  Each round shrinks the certified bound by
    0.7 while the accumulated A keeps I <= A Sigma A^T <= 1000 I w.h.p.
    ``x`` is samples (an array or a ``_Pairs``) or a ``_Frame``, onto which
    the rounds push their factors (A is its whole map).  With no rounds, no
    sample is read, so a ``_Pairs`` computes no pair, and no budget is spent.
    """
    frame = _frame(x)
    check(rho=rho, beta=beta, kappa=kappa)
    t_rounds = 0 if kappa <= TARGET_KAPPA else math.ceil(
        math.log(kappa / TARGET_KAPPA) / math.log(1.0 / ROUND_SHRINK))
    log: list[RoundRecord] = []
    kap = kappa   # each round's bound: kappa, 0.7*kappa, ...
    for _ in range(t_rounds):
        v, _ = weak_ppc(frame, rho / t_rounds, beta / t_rounds, kap, ROUND_K, noise)
        frame.push(v, ROUND_K, ROUND_SCALE)
        log.append(RoundRecord(kappa=kap, threshold=kap / 2.0, subspace_dim=int(v.shape[1]),
                               rho=rho / t_rounds, K=ROUND_K))
        kap *= ROUND_SHRINK
    return Preconditioner(A=frame.m, A_inv=frame.m_inv, round_log=log,
                          budget_spent=PrivacyBudget.zcdp(rho if t_rounds else 0.0))


def pgce(x, rho: float, beta: float, kappa: float,
         noise: NoiseSource) -> CovEstimate:
    """Precondition, estimate in the well-conditioned frame, conjugate back.

    Half the budget preconditions; the other half runs naive_pce on the
    transformed samples at the tighter of (kappa, 1000), both of which bound
    the transformed covariance after preconditioning.  Both halves read one
    ``_Frame``: ``x`` itself, holding ``ppc_range``'s map, or a new one over
    the array or ``_Pairs`` ``x``, which reads its rows at the first clamp it
    is asked for: ``ppc``'s first round's, else the final one.  The estimate
    U diag(lambda) U^T is conjugated back as B B^T, B = M^{-1} U
    diag(sqrt(max(lambda, 0))), so it is PSD by construction.
    """
    frame = _frame(x)
    check(rho=rho, beta=beta, kappa=kappa)
    kappa_eff = min(kappa, TARGET_KAPPA)
    pre = ppc(frame, rho / 2.0, beta / 2.0, kappa, noise)
    noisy, diag = _noised_moment(frame, rho / 2.0, beta / 2.0, kappa_eff, noise)
    b = frame.m_inv @ psd_factor(noisy)
    with np.errstate(over="ignore", invalid="ignore"):   # pgce_no_bound rejects inf
        sigma_hat = b @ b.T
        sigma_hat = (sigma_hat + sigma_hat.T) / 2.0
    diag.update(rounds=pre.round_log, kappa_eff=kappa_eff)
    # spent: rho/2 in ppc (0 if no rounds ran, but reserved regardless) + rho/2 here
    return CovEstimate(sigma_hat=sigma_hat, budget_spent=PrivacyBudget.zcdp(rho),
                       diagnostics=diag)
