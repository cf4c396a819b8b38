"""Gamma, Beta and Gauss hypergeometric 2F1 with built-in cross-validation.

Three functions; the closed-form coefficients downstream read Beta and 2F1 only:

* ``gamma`` is the standard library's ``math.gamma``, checked in the tests
  against 40-digit mpmath.
* ``beta`` is the Gamma-ratio formula on ``math.lgamma``, checked in the
  tests against 40-digit mpmath.
* ``hyp2f1`` returns the 2F1 that the coefficient closed forms of the bounds
  module read, the private ``_hyp2f1_bounded``: a value with a relative
  error bound and no quadrature.  It raises ``AccuracyError`` where that
  bound exceeds ``_REL_TOL`` (1e-12), and checks the value against the Euler
  integral ``hyp2f1_euler``: the two must agree to ``_AGREE_TOL`` (1e-10)
  relative, otherwise an ``AccuracyError`` carrying both values is raised.
  The Euler integrand t**(beta_-1) (1-t)**(gamma_-beta_-1) (1-zt)**(-alpha)
  goes to the Gauss-Jacobi product rule of the kernel oracles, with the two
  endpoint powers as its weight and panels graded toward the pole 1/z, at
  quadrature's one accuracy (Gautschi 2004).  No call re-sets these
  constants or the series' term cap ``_MAX_TERMS``.

``_hyp2f1_bounded`` has two paths:

* below z = 0.9 (``_CUT``), the Gauss series (``_gauss_sum``), with its tail,
  recurrence and summation rounding in the bound;
* at and above it, where the series needs thousands to millions of terms,
  the 1 - z connection formulas: DLMF 15.8.4 when c - a - b is not an
  integer, the logarithmic A&S 15.3.10-15.3.12 (DLMF 15.8.10) when it is,
  on a private digamma and a reciprocal Gamma that is 0 at the poles.
  They sum a few dozen terms in powers of 1 - z <= 0.1, and their bound
  covers each series, the Gamma and digamma coefficients and the
  cancellation between the terms (Pearson, Olver & Porter 2017, "Numerical
  methods for the computation of the confluent and Gauss hypergeometric
  functions").  Where that bound exceeds ``_REL_TOL / 10``, which happens
  when c - a - b is near an integer without being one, the series runs
  instead.

Both paths add the same allowance for arguments the caller has rounded.

Parameter domain of the 2F1 paths: gamma_ > beta_ > 0 and 0 <= z < 1, which
covers every coefficient produced by the bounds module (arguments of the
form 1 - 2a/(a+b), 1 - a/b, (b-a)/(2b) and scaled variants, all in [0, 1);
past b/a of about 1e16 the first two round to 1.0 and raise DomainError).
"""

from __future__ import annotations

import math

import numpy as np

from .errors import AccuracyError, DomainError
# integrate and integrate_de are not called here; the names stay bound
# because the benchmark's tracer wraps both.
from .quadrature import _graded, _product_rule, integrate, integrate_de  # noqa: F401

__all__ = ["gamma", "beta", "hyp2f1", "hyp2f1_euler"]


_U = 2.0**-53  # unit roundoff of IEEE double

# The largest relative bound hyp2f1 accepts; every Gauss series (_gauss_sum)
# and _near_one's bound take a tenth.
_REL_TOL = 1e-12
# The Gauss series' term cap.
_MAX_TERMS = 500_000
# hyp2f1's value and its Euler integral must agree to this, relative.
_AGREE_TOL = 1e-10


def gamma(x: float) -> float:
    """Gamma on the positive half line (``math.gamma``); ``inf`` where it overflows.

    Raises DomainError for x <= 0 or a non-finite x (poles and the
    reflection region are outside this library's needs).
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    try:
        return math.gamma(x)
    except OverflowError:
        return math.inf


# Past this argument beta() takes lgamma's Stirling form with log1p (DLMF 5.11;
# TOMS 708 algdiv): a difference of two large lgamma values loses the b**-a factor.
_BETA_LARGE = 10.0


def _stirling_tail(x: float) -> float:
    """lgamma(x) - ((x - 1/2) ln x - x + ln(2 pi)/2) for x >= 10, to 7 terms."""
    z = 1.0 / (x * x)
    tail = 1 / 1188 + z * (-691 / 360360 + z / 156)
    return (1 / 12 + z * (-1 / 360 + z * (1 / 1260 + z * (-1 / 1680 + z * tail)))) / x


def beta(a: float, b: float) -> float:
    """Euler Beta exp(lgamma(a) + lgamma(b) - lgamma(a + b)), exactly symmetric.

    DomainError unless a, b > 0 are finite; ``inf`` where it overflows.
    """
    if not math.isfinite(a) or a <= 0.0 or not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({a!r}, {b!r})")
    a, b = min(a, b), max(a, b)
    try:
        if b < _BETA_LARGE:
            return math.exp(math.lgamma(a) + math.lgamma(b) - math.lgamma(a + b))
        if a < _BETA_LARGE:
            head = math.lgamma(a) + a - a * math.log(a + b)
        else:  # the same in Stirling form; a + b, which may overflow, is left out
            head = 0.5 * math.log(2.0 * math.pi / a) + _stirling_tail(a) - a * math.log1p(b / a)
        tails = _stirling_tail(b) - _stirling_tail(a + b)
        return math.exp(head - (b - 0.5) * math.log1p(a / b) + tails)
    except OverflowError:
        return math.inf


def _check_2f1_domain(alpha: float, beta_: float, gamma_: float, z: float) -> None:
    for name, val in (("alpha", alpha), ("beta_", beta_), ("gamma_", gamma_), ("z", z)):
        if not math.isfinite(val):
            raise DomainError(f"hyp2f1 argument {name} must be finite, got {val!r}")
    if not (gamma_ > beta_ > 0.0):
        raise DomainError(f"hyp2f1 requires gamma_ > beta_ > 0, got beta_={beta_!r}, gamma_={gamma_!r}")
    if not (0.0 <= z < 1.0):
        raise DomainError(f"hyp2f1 requires 0 <= z < 1, got z={z!r}")


def hyp2f1_euler(alpha: float, beta_: float, gamma_: float, z: float) -> float:
    """Euler integral path (DLMF 15.6.1): int_0^1 t**(b-1) (1-t)**(g-b-1)
    (1-zt)**(-a) dt / B(b, g-b), by the Gauss-Jacobi product rule with the
    endpoint exponents b-1 and g-b-1 as its weight, on panels graded toward
    the pole 1/z of (1-zt)**(-a), at quadrature's one accuracy.
    """
    _check_2f1_domain(alpha, beta_, gamma_, z)
    e0 = beta_ - 1.0
    e1 = gamma_ - beta_ - 1.0
    parts = _graded(0.0, 1.0, [1.0 / z] if z else [])
    panels = [(u, v, e0 if u == 0.0 else 0.0, e1 if v == 1.0 else 0.0) for u, v in parts]

    def integrand(ts: np.ndarray) -> list[float]:
        t = np.asarray(ts)
        return (t**e0 * (1.0 - t) ** e1 * (1.0 - z * t) ** -alpha).tolist()

    value = _product_rule(integrand, panels).checked("hyp2f1 Euler quadrature")
    return value / beta(beta_, gamma_ - beta_)


def _gauss_sum(
    alpha: float, beta_: float, gamma_: float, z: float
) -> tuple[float, int, float, float]:
    """The Gauss series with a geometric tail bound: (value, terms_used, tail, moment).

    The caller checks the arguments (_check_2f1_domain), as
    _hyp2f1_bounded does once per call.

    It stops once the bounded tail is below _REL_TOL / 10 relative to the
    accumulated sum, and raises AccuracyError, with the partial sum, if
    _MAX_TERMS terms come first.  tail bounds the sum of the dropped terms
    (0 for a terminating series) and moment = sum_k k |term_k| over the
    terms summed.

    The tail is bounded with a ratio r_k that holds for every later term,
    not just the current one.  With A = |alpha|, the ratio of term j+1 to
    term j is at most z (1 + (c1 j + c0) / ((gamma_+j)(j+1))), where
    c1 = A + beta_ - gamma_ - 1 and c0 = A beta_ - gamma_.  Since
    j / ((gamma_+j)(j+1)) <= 1/(gamma_+j), and 1/(gamma_+j) and
    1/((gamma_+j)(j+1)) decrease in j, r_k = z (1 + max(c1,0)/(gamma_+k)
    + max(c0,0)/((gamma_+k)(k+1))) bounds every ratio from the k-th on.
    The sum is compensated (Kahan).  The tail test bounds the truncation
    only: the term recurrence rounds too, which _series_bounded adds.

    The loop's term index k is a float.  Every k below 2**53 is exact, and
    an int k is converted to that same float wherever it meets one
    (alpha + k, k * size), so each term takes the same roundings in the
    same order as with an int counter, without a conversion per use.
    """
    if z == 0.0:
        return 1.0, 1, 0.0, 0.0
    rel_tol = _REL_TOL / 10.0
    c1 = max(abs(alpha) + beta_ - gamma_ - 1.0, 0.0)
    c0 = max(abs(alpha) * beta_ - gamma_, 0.0)
    # r_k >= z, so |term| z/(1-z) <= rel_tol |acc| must hold before the
    # sound test can; checking it first keeps r_k off most iterations.
    z_tail = z / (1.0 - z)
    cap = _MAX_TERMS
    term = 1.0
    acc = 1.0
    lost = 0.0  # Kahan: rounding error of the last addition, taken off the next term
    moment = 0.0
    k = 0.0
    while k < cap:
        k1 = k + 1.0
        term *= (alpha + k) * (beta_ + k) / ((gamma_ + k) * k1) * z
        y = term - lost
        total = acc + y
        lost = (total - acc) - y
        acc = total
        k = k1
        size = abs(term)
        moment += k * size
        if size * z_tail <= rel_tol * abs(acc):
            g = gamma_ + k
            r = z * (1.0 + c1 / g + c0 / (g * (k + 1.0)))
            if r < 1.0:
                tail = size * r / (1.0 - r)
                if tail <= rel_tol * abs(acc):
                    return acc, int(k) + 1, tail, moment
        if term == 0.0:  # terminating series (alpha a non-positive integer)
            return acc, int(k) + 1, 0.0, moment
    raise AccuracyError(
        f"hyp2f1 series did not converge within {_MAX_TERMS} terms",
        partial_sum=acc,
    )


# At and above this argument the closed forms' 2F1 is taken through the 1 - z
# connection formulas, where the Gauss series would need thousands of terms.
_CUT = 0.9
# The worst relative error of math.gamma against 30-digit mpmath, over 560,000
# arguments in (-40, 60), is 9.6u (next to a pole); a Gamma or reciprocal Gamma
# factor is charged 16u.
_GAMMA_ERR = 16.0 * _U
# Bernoulli terms B_2k / (2k) of the asymptotic digamma series, k = 1..7.
_PSI_ASYMPTOTIC = (1 / 12, -1 / 120, 1 / 252, -1 / 240, 1 / 132, -691 / 32760, 1 / 12)
# A connection series that has not met its tail test after this many terms
# (w <= 0.1 needs a few dozen) hands the argument back to the Gauss series.
_CONNECTION_TERMS = 1_000


def _digamma(x: float) -> float:
    """psi(x) = Gamma'(x)/Gamma(x) for x > 0: the recurrence psi(x) = psi(x+1)
    - 1/x up to x >= 10, then the asymptotic series (DLMF 5.11.2) to x^-14.

    Within 16u (3 + |psi(x)|) absolute: near the root at 1.4616 the value is
    the difference of two terms near 2.3, so its relative error is unbounded.
    """
    shift = 0.0
    while x < 10.0:
        shift += 1.0 / x
        x += 1.0
    inv2 = 1.0 / (x * x)
    series = 0.0
    for c in reversed(_PSI_ASYMPTOTIC):
        series = series * inv2 + c
    return math.log(x) - 0.5 / x - series * inv2 - shift


def _digamma_err(psi: float) -> float:
    """The absolute error bound of a _digamma value."""
    return 16.0 * _U * (3.0 + abs(psi))


def _rgamma(x: float) -> float:
    """1/Gamma(x), 0 at the poles x = 0, -1, -2, ...

    Past the float range of Gamma it raises OverflowError (x > 171.6) or
    ZeroDivisionError (Gamma(x) rounds to 0 for x < -180 or so)."""
    if x <= 0.0 and x == math.floor(x):
        return 0.0
    return 1.0 / math.gamma(x)


def _psi_size(x: float) -> float:
    """An upper bound on |psi(x)| away from the poles: psi(x) = psi(1+|x|) -
    1/x for x > 0, psi(1-x) - pi cot(pi x) for x < 0 (DLMF 5.5.4), with
    -0.58 < psi(y) < ln y on y >= 1 and pi |cot(pi t)| <= 1/|t| for |t| <= 1/2."""
    dist = x if x > 0.0 else abs(x - round(x))
    return max(0.58, math.log1p(abs(x))) + 1.0 / dist


def _exact_error(value: float, *parts: float) -> float:
    """|sum(parts) - value| for value a rounding of sum(parts): fsum is exact."""
    return abs(math.fsum((*parts, -value))) * (1.0 + 2.0 * _U)


def _gamma_factor_err(x: float, err: float) -> float:
    """Relative error bound of a Gamma or reciprocal Gamma factor at x, where
    x is off by err from the argument meant: inf at a pole that x may miss."""
    if x <= 0.0 and x == math.floor(x):
        return math.inf if err else 0.0
    return _GAMMA_ERR + _U + _psi_size(x) * err


def _w_sum(
    p1: float, p2: float, q1: float, q2: float, w: float,
    errs: tuple[float, float, float, float], log_w: float | None = None, count: int = 0,
) -> tuple[float, float, int]:
    """(sum, absolute error bound, terms) of sum_n (p1)_n (p2)_n / ((q1)_n (q2)_n) w^n g_n.

    g_n is 1, or with log_w, log_w + psi(p1+n) + psi(p2+n) - psi(q1+n) -
    psi(q2+n) (then p1, p2, q1, q2 > 0).  count > 0 sums that many terms;
    else the sum runs until the tail bound is below u/2 of sum_n |t_n|, and
    raises AccuracyError past _CONNECTION_TERMS terms.  errs are the
    absolute errors of p1, p2, q1, q2 as the caller formed them.

    The bound adds the tail, the Kahan sum (3u sum_n |t_n|) and each term's
    own error.  A coefficient step rounds 9 times and moves by e/|x + n| for
    a parameter x off by e; the product with g_n rounds once more.  The log
    bracket starts with the _digamma bounds and e psi'(x) <= e (1 + 1/x)/x;
    each step adds the roundings of its four reciprocals and sums, and
    forming g_n two more.  The tail: once every p + n >= 0 and q + n > 0,
    (p + j)/(q + j) <= 1 + max(p - q, 0)/(q + n) for all j >= n, and
    |psi(p + j) - psi(q + j)| does not grow with j.
    """
    logged = log_w is not None
    if logged:
        psi = [_digamma(x) for x in (p1, p2, q1, q2)]
        d1, d2 = psi[0] - psi[2], psi[1] - psi[3]
        g_err = _U * abs(log_w) + sum(
            _digamma_err(y) + 3.0 * _U * abs(y) + e * (1.0 + 1.0 / x) / x
            for x, y, e in zip((p1, p2, q1, q2), psi, errs)
        )
    perturbed = any(errs)
    # The tail test holds from the first n at which every p + n >= 0 and q + n > 0.
    first = max(0, math.ceil(-min(p1, p2)), math.floor(-min(q1, q2)) + 1)
    dp1, dp2 = max(p1 - q1, 0.0), max(p2 - q2, 0.0)
    w_tail = w / (1.0 - w)  # r >= w: a cheap test that the sound one cannot pass
    coef, rel = 1.0, 0.0  # the coefficient of term n and its relative error bound
    acc = lost = absum = err = 0.0
    n = 0
    while True:
        if logged:
            g_size = abs(log_w) + abs(d1) + abs(d2)
            t = coef * (log_w + d1 + d2)
            err += abs(coef) * (g_err + 2.0 * _U * g_size)
        else:
            t = coef
        y = t - lost
        total = acc + y
        lost = (total - acc) - y
        acc = total
        size = abs(t)
        absum += size
        err += size * (rel + _U)
        x1, x2, y1, y2 = p1 + n, p2 + n, q1 + n, q2 + n
        n += 1
        if n == count:
            break
        if n > first and not count:
            lead = abs(coef) * (g_size + g_err if logged else 1.0)
            if lead * w_tail <= 0.5 * _U * absum:
                r = w * (1.0 + dp1 / y1) * (1.0 + dp2 / y2)
                if r < 1.0 and lead * r / (1.0 - r) <= 0.5 * _U * absum:
                    err += lead * r / (1.0 - r)
                    break
        if n >= (count or _CONNECTION_TERMS):
            raise AccuracyError(f"connection series did not converge in {n} terms")
        coef *= x1 * x2 / (y1 * y2) * w
        rel += 9.0 * _U
        if perturbed:
            rel += sum(e / abs(x) for e, x in zip(errs, (x1, x2, y1, y2)) if e)
        if logged:
            h1, h2, k1, k2 = 1.0 / x1, 1.0 / x2, 1.0 / y1, 1.0 / y2
            d1 += h1 - k1
            d2 += h2 - k2
            g_err += _U * (3.0 * (h1 + h2 + k1 + k2) + abs(d1) + abs(d2))
            if perturbed:
                g_err += sum(e * h * h for e, h in zip(errs, (h1, h2, k1, k2)))
    return acc, err + 3.0 * _U * absum, n


def _gauss_connection(
    a: float, b: float, c: float, s_: float, e_s: float, w: float
) -> tuple[float, float, int]:
    """F(a, b; c; 1 - w) / Gamma(c) by DLMF 15.8.4, c - a - b = s_ not an
    integer (s_ off by e_s): (value, absolute error bound, terms)."""
    ca, cb, one_minus, one_plus = c - a, c - b, 1.0 - s_, 1.0 + s_
    e_ca, e_cb = _exact_error(ca, c, -a), _exact_error(cb, c, -b)
    e_minus = e_s + _exact_error(one_minus, 1.0, -s_)
    e_plus = e_s + _exact_error(one_plus, 1.0, s_)
    coef1 = math.gamma(s_) * _rgamma(ca) * _rgamma(cb)
    rel1 = _gamma_factor_err(s_, e_s) + _gamma_factor_err(ca, e_ca) + _gamma_factor_err(cb, e_cb)
    coef2 = w**s_ * math.gamma(-s_) * _rgamma(a) * _rgamma(b)
    rel2 = (2.0 * _U + abs(math.log(w)) * e_s + _gamma_factor_err(-s_, e_s)
            + _gamma_factor_err(a, 0.0) + _gamma_factor_err(b, 0.0))
    if math.isinf(rel1):  # 1/Gamma(c - a) or 1/Gamma(c - b) at a pole c - a - b may miss
        return coef2, math.inf, 0
    sum1, err1, n1 = (0.0, 0.0, 0)  # 1/Gamma(c - a) or 1/Gamma(c - b) is 0 exactly
    if coef1:
        sum1, err1, n1 = _w_sum(a, b, one_minus, 1.0, w, (0.0, 0.0, e_minus, 0.0))
    sum2, err2, n2 = _w_sum(ca, cb, one_plus, 1.0, w, (e_ca, e_cb, e_plus, 0.0))
    term1, term2 = coef1 * sum1, coef2 * sum2
    value = term1 + term2
    err = (abs(coef1) * err1 + abs(term1) * (rel1 + 4.0 * _U)
           + abs(coef2) * err2 + abs(term2) * (rel2 + 5.0 * _U) + _U * abs(value))
    return value, err, n1 + n2


def _log_connection(
    f1: float, f2: float, p1: float, p2: float,
    errs: tuple[float, float, float, float], m: int, w: float, euler: bool,
) -> tuple[float, float, int]:
    """F(a, b; c; 1 - w) / Gamma(c) for c - a - b = -m (A&S 15.3.10, 15.3.12;
    euler False: p = (a, b), f = p - m) or +m (A&S 15.3.11; euler True:
    f = (a, b), p = f + m): (value, absolute error bound, terms).  errs are
    the absolute errors of f1, f2, p1, p2."""
    ef1, ef2, ep1, ep2 = errs
    power = w**m if euler else 1.0  # 2u each: ** on an integer exponent
    value = err = 0.0
    terms = 0
    if m:
        coef = math.gamma(m) * _rgamma(p1) * _rgamma(p2) * (1.0 if euler else w**-m)
        rel = 3.0 * _GAMMA_ERR + _psi_size(p1) * ep1 + _psi_size(p2) * ep2 + 8.0 * _U
        part, part_err, terms = _w_sum(f1, f2, 1.0, 1.0 - m, w, (ef1, ef2, 0.0, 0.0), count=m)
        value = coef * part
        err = abs(coef) * part_err + abs(value) * rel
    coef = (-1) ** (m + 1) / math.factorial(m) * _rgamma(f1) * _rgamma(f2) * power
    rel = _gamma_factor_err(f1, ef1) + _gamma_factor_err(f2, ef2) + 8.0 * _U
    if math.isinf(rel):  # 1/Gamma(f) at a pole that the rounded f may miss
        return value, math.inf, terms
    if coef:  # else 1/Gamma(f) is 0 exactly and so is the log series' part
        part, part_err, n = _w_sum(
            p1, p2, 1.0, m + 1.0, w, (ep1, ep2, 0.0, 0.0), log_w=math.log(w)
        )
        value += coef * part
        err += abs(coef) * part_err + abs(coef * part) * rel
        terms += n
    return value, err + _U * abs(value), terms


def _connection(
    alpha: float, beta_: float, gamma_: float, z: float
) -> tuple[float, float, float, int]:
    """F(alpha, beta_; gamma_; z) for 1/2 <= z < 1 through the 1 - z connection
    formulas: (value, absolute error bound, snap, terms).

    c - a - b within 8u (alpha + beta_ + gamma_) of an integer m is taken as
    m, and the logarithmic formulas give F at gamma_* = alpha + beta_ + m;
    snap bounds |gamma_ - gamma_*| (0 otherwise), which the caller's bound
    must cover.  Gamma(gamma_) is a common factor of both terms.
    """
    w = 1.0 - z  # exact: z >= 1/2
    s_ = (gamma_ - beta_) - alpha
    m = round(s_)
    snap = _exact_error(float(m), gamma_, -beta_, -alpha)
    if snap <= 8.0 * _U * (alpha + beta_ + gamma_):
        if m > 0:
            pa, pb = alpha + m, beta_ + m
            errs = (0.0, 0.0, _exact_error(pa, alpha, m), _exact_error(pb, beta_, m))
            value, err, terms = _log_connection(alpha, beta_, pa, pb, errs, m, w, True)
        else:
            fa, fb = alpha + m, beta_ + m
            errs = (_exact_error(fa, alpha, m), _exact_error(fb, beta_, m), 0.0, 0.0)
            value, err, terms = _log_connection(fa, fb, alpha, beta_, errs, -m, w, False)
    else:
        e_s = _exact_error(s_, gamma_, -beta_, -alpha)
        value, err, terms = _gauss_connection(alpha, beta_, gamma_, s_, e_s, w)
        snap = 0.0
    scale = math.gamma(gamma_)
    rel = _GAMMA_ERR + _U + _psi_size(gamma_) * snap
    return scale * value, scale * (err + abs(value) * rel), snap, terms


def _near_one(
    alpha: float, beta_: float, gamma_: float, z: float
) -> tuple[float, float, float, int] | None:
    """(value, absolute error bound, moment, terms) of F by _connection, or
    None where that bound exceeds _REL_TOL / 10 of the value.

    moment = z F'(z) = z (alpha beta_ / gamma_) F(alpha+1, beta_+1; gamma_+1; z),
    taken by the same path at its upper bound; it is sum_k k |term_k| of the
    Gauss series, whose terms are all positive here.  A snap to gamma_* adds
    |F(gamma_) - F(gamma_*)| <= snap sum_k term_k sum_{j<k} 1/(gamma_+j) <=
    snap F (1/gamma_ + ln(1 + moment / (gamma_ F))), by ln(1 + k/gamma_)
    and Jensen's inequality on the concave log.
    """
    try:
        value, err, snap, terms = _connection(alpha, beta_, gamma_, z)
        slope, slope_err, _, slope_terms = _connection(alpha + 1.0, beta_ + 1.0, gamma_ + 1.0, z)
    except (ArithmeticError, ValueError):  # a term cap, an overflow, a pole
        return None
    moment = z * alpha * beta_ / gamma_ * (slope + slope_err) * (1.0 + 8.0 * _U)
    if not (0.0 < value < math.inf and 0.0 < moment < math.inf):
        return None
    if snap:
        err += snap * value * (1.0 / gamma_ + math.log1p(moment / (gamma_ * value)))
    if not err <= _REL_TOL / 10.0 * value:
        return None
    return value, err, moment, terms + slope_terms


def _series_bounded(
    alpha: float, beta_: float, gamma_: float, z: float
) -> tuple[float, float, float, int]:
    """(value, absolute error bound, moment, terms) of F by the Gauss series
    (_gauss_sum).

    The bound adds, to first order in the unit roundoff u: the tail bound of
    the dropped terms; the term recurrence, whose term k is k steps of 8
    roundings each, so off by at most 8 k u relative, 8 u moment in all,
    where moment = sum_k k |term_k|; and the Kahan sum, at most
    3 u sum_k |term_k| <= 3 u (1 + moment).
    """
    value, terms, tail, moment = _gauss_sum(alpha, beta_, gamma_, z)
    return value, tail + _U * (11.0 * moment + 3.0), moment, terms


def _hyp2f1_bounded(
    alpha: float, beta_: float, gamma_: float, z: float, arg_err: float = 0.0
) -> tuple[float, float]:
    """F(alpha, beta_; gamma_; z) with its error bound: (value, relative error bound).

    Below _CUT it is the Gauss series with its bound (_series_bounded), with
    no quadrature.  It is the value hyp2f1 returns.  At and above
    _CUT it is a 1 - z connection formula (_connection: DLMF 15.8.4 where
    c - a - b is not an integer, the logarithmic A&S 15.3.10-15.3.12 where it
    is), summed in powers of 1 - z <= 0.1, with the bound of _near_one: each
    series' tail, recurrence and summation rounding, the Gamma and digamma
    coefficients, the cancellation between the terms and the snap of
    c - a - b to an integer.  Where that bound exceeds _REL_TOL / 10
    (c - a - b near an integer without being one), the series runs instead.

    On both paths the bound adds arguments off by up to arg_err from the ones
    the caller means (beta_ and gamma_ relatively, z absolutely): that moves
    term k of the Gauss series by at most 2 k arg_err through the Pochhammer
    factors and k arg_err / z through z^k, arg_err moment (2 + 1/z) in all.
    alpha is taken as exact.
    """
    _check_2f1_domain(alpha, beta_, gamma_, z)
    near = _near_one(alpha, beta_, gamma_, z) if z >= _CUT else None
    value, err, moment, _ = near or _series_bounded(alpha, beta_, gamma_, z)
    # moment is 0 at z = 0, and z = 0 only arises as an exact argument.
    shift = arg_err * moment * (2.0 + 1.0 / z) if z else 0.0
    # The factor absorbs the second-order terms (8 k u stays below 5e-10).
    return value, (1.01 * (err + shift) / abs(value) if value else math.inf)


def hyp2f1(alpha: float, beta_: float, gamma_: float, z: float) -> float:
    """Gauss 2F1: the value the closed forms read, checked on every call.

    Returns the value of _hyp2f1_bounded.  Raises AccuracyError carrying
    that value and its relative bound where the bound exceeds _REL_TOL, and
    AccuracyError carrying both values where the Euler integral
    (hyp2f1_euler) differs from it by more than _AGREE_TOL (1e-10) relative.
    """
    value, bound = _hyp2f1_bounded(alpha, beta_, gamma_, z)
    if not bound <= _REL_TOL:
        raise AccuracyError(
            f"hyp2f1 bound {bound:.3e} exceeds {_REL_TOL:.1e}", value=value, bound=bound
        )
    euler = hyp2f1_euler(alpha, beta_, gamma_, z)
    rel_gap = abs(euler - value) / max(abs(euler), abs(value), 1e-300)
    if rel_gap > _AGREE_TOL:
        raise AccuracyError(
            f"hyp2f1 paths disagree: rel gap {rel_gap:.3e} > {_AGREE_TOL:.1e}",
            euler=euler,
            value=value,
        )
    return value
