"""Log-domain special functions and the double gamma / double inverse-gamma distributions.

The order-selection machinery scores each candidate subspace dimension by the
probability that a gamma variate (signal-plus-noise energy) dominates an
independent gamma variate (residual energy).  That probability is a regularized
incomplete beta function with integer shapes, which admits a finite
negative-binomial sum evaluated in log domain via log-sum-exp, so large degree
counts (hundreds of thousands) never overflow.

`log_reg_inc_beta` is the only O(beta) sum here.  The order score
(`log_q_sum`), the conditional density `double_pdf` and every moment
`double_moment` of a `DominancePair` are closed forms around it; both take
the same (family, which) selector of the gamma or inverse-gamma pair and
its variate X or Y.  A pair computes its normaliser log I_p once,
or takes the one `log_q_sum` computed for the same degrees and q.

`log_reg_inc_beta` reads log Gamma(j) from a grow-only module table instead
of calling `gammaln` per term, and takes the log-sum-exp with the exact
operations of scipy's `logsumexp` (Blanchard, Higham & Higham, IMA J. Numer.
Anal. 41(4), 2021).  Operands and operation order are those of the per-term
formula, so the results are bit-identical to it.  At paper degrees
(n + m ~ 4.1e5) the table holds about 3.3 MB.

`log_reg_inc_beta` computes only a window of its m terms.  Its log-terms
are concave in the index, so a coarse grid of at most 256 of them bounds
the indices within 750 of the max; every term outside lies further below,
where exp (zero below -745.13) returns exactly 0.  The window's exps are
summed in a zeroed row of all m entries, so `np.sum` adds the same array
in the same pairwise order as the full-range sum and the result keeps
every bit.  At paper degrees the window holds about a fifth of the terms.

The conditional densities take their tail factor from scipy's regularized
incomplete gamma functions, `gammaincc` for X and `gammainc` for Y.  Each
is computed directly, never as one minus the other, so the lower function
keeps its relative accuracy at small x, where 1 - Q(n, x) cancels (DiDonato
& Morris, ACM TOMS 12(4), 1986).  The trade: a density whose tail factor
underflows below ~1e-308 reads 0.

Shapes are restricted to positive integers throughout: the finite-sum
identities rely on Gamma(n) = (n-1)!.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np
from scipy.special import betaln, gammainc, gammaincc, gammaln

__all__ = [
    "DominancePair",
    "reg_inc_beta",
    "log_reg_inc_beta",
    "prob_dominance",
    "log_q_sum",
    "double_pdf",
    "double_moment",
    "dominance_frequency",
]

# gammaln(float(j)) for j = 0 .. len-1; replaced by longer tables only
_LOG_GAMMA = np.empty(0)

# _term_window's grid size and margin; exp(x) is exactly 0 below -745.13
_GRID = 256
_MARGIN = 750.0


@dataclass(frozen=True)
class DominancePair:
    """Two independent (inverse-)gamma variates X, Y conditioned on their order.

    alpha/beta are the integer signal/noise degrees, s_x/s_y the rates.
    q is stored as s_y/(s_x+s_y) and p as 1-q so that p + q == 1 exactly;
    log_ip = log I_p(alpha, beta) is the log normaliser Pr[X <= Y].  A
    caller that already has log I_p at this p and these degrees (the
    order score log_q_sum hands it back) passes it; NaN computes it.
    """

    alpha: int
    beta: int
    s_x: float
    s_y: float
    p: float = field(init=False)
    q: float = field(init=False)
    log_ip: float = math.nan

    def __post_init__(self):
        if int(self.alpha) != self.alpha or self.alpha < 1:
            raise ValueError(f"alpha must be a positive integer, got {self.alpha}")
        if int(self.beta) != self.beta or self.beta < 1:
            raise ValueError(f"beta must be a positive integer, got {self.beta}")
        for name in ("s_x", "s_y"):
            rate = getattr(self, name)
            if not 0 < rate < math.inf:  # False for NaN
                raise ValueError(f"{name} must be finite and positive, got {rate}")
        q = self.s_y / (self.s_x + self.s_y)
        object.__setattr__(self, "q", q)
        object.__setattr__(self, "p", 1.0 - q)
        if math.isnan(self.log_ip):
            object.__setattr__(self, "log_ip",
                               log_reg_inc_beta(self.p, self.alpha, self.beta))


def _log_gamma_table(top):
    """The log-gamma table covering j = 0 .. top-1 at least.

    Entry j is gammaln(float(j)) (inf at j = 0).  gammaln is elementwise,
    so a slice carries the same bits as the per-term call it replaces,
    whatever size the table was built at.  A larger top rebuilds the table
    whole, which peaks lower than appending to it.
    """
    global _LOG_GAMMA
    if len(_LOG_GAMMA) < top:
        _LOG_GAMMA = gammaln(np.arange(top, dtype=float))
    return _LOG_GAMMA


def _logsumexp(t, lo, size):
    """log sum exp over the last axis of rows of `size` terms; t is overwritten.

    t holds the terms at [lo, lo + w) of each row, w = t.shape[-1]; every
    term outside that window must lie more than 745.13 below the row's max,
    where its shifted exp rounds to exactly 0.  A window of full length is
    the whole row.

    The operations of scipy's `logsumexp` without its copies: the maximal
    terms are counted and set aside, the rest are shifted by the max and
    exponentiated, and the result is log1p(sum / count) + log(count) + max
    (Blanchard, Higham & Higham, IMA J. Numer. Anal. 41(4), 2021).  The
    exps of the window go into a zeroed row of full length, so
    `np.add.reduce` adds the very array the full-range sum would see, with
    the same pairwise tree, and the result keeps every bit.  The count is
    an exact integer, so dividing by it and taking its log give the bits
    of scipy's float count.  A row of -inf gives -inf.
    """
    with np.errstate(divide="ignore", invalid="ignore"):
        t_max = np.maximum.reduce(t, axis=-1)
        at_max = t == t_max[..., None]
        count = np.count_nonzero(at_max, axis=-1)
        np.copyto(t, -np.inf, where=at_max)
        t -= t_max[..., None]
        e = np.zeros(t.shape[:-1] + (size,))
        np.exp(t, out=e[..., lo:lo + t.shape[-1]])
        out = np.log1p(np.add.reduce(e, axis=-1) / count) + np.log(count) + t_max
    if out.ndim:
        out[t_max == -np.inf] = -np.inf
    elif t_max == -np.inf:
        out = -np.inf
    return out


def _log_terms(p, n, m, sl):
    """log C(n+i-1, i) p^n (1-p)^i for i in range(m)[sl], one row per p.

    The log binomial coefficient is gammaln(n+i) - gammaln(i+1) -
    gammaln(n) read from the module's log-gamma table.  Every index gets
    the same operands in the same order, whichever slice asks for it, so a
    term carries the same bits on a grid, in a window or over the full
    range.  p = 0 or 1 hits log(0) and 0 * -inf: p = 0 gives a row of
    -inf, which `_logsumexp` maps to -inf (I_0 = 0), and log_reg_inc_beta
    overwrites p = 1 with its exact value.
    """
    log_gamma = _log_gamma_table(n + m)
    i = range(m)[sl]
    t = log_gamma[n:n + m][sl] - log_gamma[1:m + 1][sl]
    t -= log_gamma[n]
    with np.errstate(divide="ignore", invalid="ignore"):
        t = t + n * np.log(p)[..., None]
        t += (np.arange(i.start, i.stop, i.step, dtype=float)
              * np.log1p(-p)[..., None])
    return t


def _term_window(p, n, m):
    """[lo, hi): the indices of log_reg_inc_beta's sum whose exp can be nonzero.

    Each row of terms is the log of a negative-binomial pmf in i, a concave
    sequence.  The terms on a grid of at most _GRID indices, one every
    `stride`, are the exact terms of the full range.  Let a and b be the
    first and last grid points within _MARGIN = 750 of the grid max.  By
    concavity every index up to the grid point before a, or from the grid
    point after b, has a term no larger than that grid point's, which is
    more than 750 below the grid max and so more than 750 below the row
    max.  exp underflows to 0 below -745.13, and the 4.9 left over covers
    the rounding of the terms (below 1e-6 at paper degrees).  An array p
    takes the union of its rows' windows.  m <= _GRID, or no finite term
    (p = 1), gives [0, m).
    """
    stride = -(-m // _GRID)
    if stride == 1:
        return 0, m
    grid = _log_terms(p, n, m, slice(0, m, stride))
    near = grid >= np.max(grid, axis=-1, keepdims=True) - _MARGIN
    kept = np.flatnonzero(near.reshape(-1, near.shape[-1]).any(axis=0))
    if not kept.size:
        return 0, m
    return (max(int(kept[0] - 1) * stride + 1, 0),
            min(int(kept[-1] + 1) * stride, m))


def log_reg_inc_beta(p, n, m):
    """log I_p(n,m) for positive integer shapes, via the negative-binomial sum.

    I_p(n,m) = sum_{i=0}^{m-1} C(n+i-1, i) p^n (1-p)^i, a sum of positive
    terms, so the log-sum-exp evaluation keeps full relative accuracy even
    when I_p underflows.  Accepts scalar or array p.

    Only the terms of `_term_window`, those within 750 of their row's max,
    are computed and exponentiated; at paper degrees that is about a
    fifth of the m terms.  The rest would round to exactly 0 in exp, and
    the window's exps are summed in a zero-padded row of length m, so the
    result is bit-identical to the per-term formula with scipy's
    `logsumexp` over all m terms.  The log-gamma table grows to n + m
    entries, about 3.3 MB at paper degrees.
    """
    if int(n) != n or n < 1 or int(m) != m or m < 1:
        raise ValueError(f"shapes must be positive integers, got n={n}, m={m}")
    p_arr = np.asarray(p, dtype=float)
    if not (p_arr.min() >= 0 and p_arr.max() <= 1):  # False for NaN
        raise ValueError("p must lie in [0, 1]")
    n, m = int(n), int(m)
    lo, hi = _term_window(p_arr, n, m)
    log_terms = _log_terms(p_arr, n, m, slice(lo, hi))
    out = np.minimum(_logsumexp(log_terms, lo, m), 0.0)
    # exact endpoint I_1 = 1; p = 0's row of -inf already gave log I_0 = -inf
    out = np.where(p_arr == 1.0, 0.0, out)
    if out.ndim == 0:
        return float(out)
    return out


def reg_inc_beta(p, n, m):
    """Regularized incomplete beta I_p(n,m) for positive integer shapes."""
    return np.exp(log_reg_inc_beta(p, n, m))


def prob_dominance(pair: DominancePair):
    """Pr[X <= Y] for the independent gamma pair (= Pr[X >= Y] inverse-gamma)."""
    return math.exp(pair.log_ip)


def log_q_sum(alpha, beta, q):
    """log of the finite dominance sum used by the order scores, and the
    log I_p(alpha, beta) it was computed from, as (log Q, log I_p).

    Q = sum_{i=0}^{beta-1} Gamma(beta) Gamma(alpha+i) / (i! Gamma(alpha+beta))
        * q^-(beta-i)
      = I_p(alpha,beta) / (p * q * B_p(alpha,beta)),   p = 1 - q,
    evaluated through the second (cross) form as
    log I_p - alpha log p - beta log q + log B(alpha,beta): one kernel call.
    Both degrees must be positive, as in a `DominancePair`; the empty
    subspace (alpha = 0) is scored by the order scan itself.  log I_p is
    that of a `DominancePair` with these degrees and q, so the posterior
    moments at a scored order need no second kernel call for it.

    The computed log I_p is at most 0.0, so `_log_q_from(0.0, ...)`, the
    same arithmetic without the kernel, bounds the result from above bit
    for bit: each IEEE operation rounds monotonically in its left operand.
    """
    if int(alpha) != alpha or alpha < 1 or int(beta) != beta or beta < 1:
        raise ValueError(f"bad degrees alpha={alpha}, beta={beta}")
    if not 0.0 < q < 1.0:
        raise ValueError(f"q must lie in (0, 1), got {q}")
    alpha, beta = int(alpha), int(beta)
    log_ip = log_reg_inc_beta(1.0 - q, alpha, beta)
    return _log_q_from(log_ip, alpha, beta, q), log_ip


def _log_q_from(log_ip, alpha, beta, q):
    """log_q_sum's closed form around a given log I_p, in its operation order."""
    p = 1.0 - q
    return (log_ip - alpha * math.log(p) - beta * math.log(q)
            + float(betaln(alpha, beta)))


def _log_gamma_pdf(x, n, s):
    return n * math.log(s) + (n - 1) * math.log(x) - s * x - math.lgamma(n)


def _check_selector(family, which):
    if family not in ("gamma", "invgamma"):
        raise ValueError(f"family must be 'gamma' or 'invgamma', got {family!r}")
    if which not in ("x", "y"):
        raise ValueError(f"which must be 'x' or 'y', got {which!r}")


def double_pdf(x, pair: DominancePair, family, which):
    """Density of X or Y in a pair conditioned on its order.

    family='gamma' conditions the gamma pair on X <= Y; 'invgamma' the
    inverse-gamma pair on X >= Y.  which='x' or 'y' picks the variate.
    Inverse-gamma X is 1/(gamma X) and the order flips with it, so its
    density is the gamma density of the same variate at 1/x times the
    Jacobian 1/x^2.

    The gamma density of the variate is multiplied by the other's tail
    probability at x, scipy's gammaincc (X) or gammainc (Y).  Where that
    factor underflows below ~1e-308 the density reads 0.
    """
    _check_selector(family, which)
    if not x > 0:
        raise ValueError(f"x must be positive, got {x}")
    if family == "invgamma":
        return double_pdf(1.0 / x, pair, "gamma", which) / x / x
    a, b, sx, sy = pair.alpha, pair.beta, pair.s_x, pair.s_y
    if which == "x":  # X <= Y: Y's upper tail beyond x
        tail, shape, rate = gammaincc(b, sy * x), a, sx
    else:             # X <= Y: X's lower tail below x
        tail, shape, rate = gammainc(a, sx * x), b, sy
    # at x = inf the gamma density's log reads inf - inf; the density is 0
    if tail == 0 or x == math.inf:
        return 0.0
    return math.exp(math.log(tail) + _log_gamma_pdf(x, shape, rate) - pair.log_ip)


def double_moment(pair: DominancePair, k, family, which):
    """Closed-form k-th moment of the double (inverse-)gamma marginals.

    With (shape, rate) the parameters of the chosen variate, each moment is
    the plain moment Gamma(shape+-k)/Gamma(shape) * rate^-+k times
    I_p(shifted shapes) / I_p(alpha, beta), where family 'gamma' shifts the
    shape by +k and 'invgamma' by -k.  Inverse-gamma moments require
    shape - k >= 1.
    """
    if int(k) != k or k < 1:
        raise ValueError(f"k must be a positive integer, got {k}")
    _check_selector(family, which)
    k, a, b = int(k), pair.alpha, pair.beta
    name, shape, rate = ("alpha", a, pair.s_x) if which == "x" else ("beta", b, pair.s_y)
    shifted = shape + k if family == "gamma" else shape - k
    if shifted < 1:
        raise ValueError(f"{name} - k must be >= 1, got {name}={shape}, k={k}")
    # Gamma(max)/Gamma(min) of the two shapes, an exact product of k integers
    ratio = math.prod(range(min(shape, shifted), max(shape, shifted)))
    plain = ratio / rate**k if family == "gamma" else rate**k / ratio
    a_k, b_k = (shifted, b) if which == "x" else (a, shifted)
    return plain * math.exp(log_reg_inc_beta(pair.p, a_k, b_k) - pair.log_ip)


def dominance_frequency(pair: DominancePair, n, rng):
    """Empirical Pr[X <= Y] over n independent draws (Monte Carlo oracle)."""
    x = rng.gamma(pair.alpha, 1.0 / pair.s_x, size=n)
    y = rng.gamma(pair.beta, 1.0 / pair.s_y, size=n)
    return float(np.mean(x <= y))
