"""Gamma, Beta and Gauss hypergeometric 2F1 with built-in cross-validation.

Every closed-form coefficient downstream reduces to these three functions,
so each one can be computed here by two independent methods:

* ``gamma`` is the standard library's ``math.gamma``; the defining integral
  is exposed as ``gamma_integral`` so the test suite can check one against
  the other (slow path, quadrature based).
* ``beta`` is the Gamma-ratio formula on ``math.lgamma``, cross-checked in
  the tests against direct tanh-sinh integration of t**(a-1) (1-t)**(b-1).
* ``hyp2f1`` evaluates the Euler integral representation by quadrature AND
  sums the Gauss series with a geometric tail bound that holds for every
  later term.  The Euler integrand t**(beta_-1) (1-t)**(gamma_-beta_-1)
  (1-zt)**(-alpha) goes to adaptive Gauss-Kronrod when both endpoint
  exponents are >= 0, and to tanh-sinh on two folded halves when either is
  negative (a singular endpoint).
  The two paths must agree to max(budget.rel_tol, 1e-10) in relative terms,
  otherwise an ``AccuracyError`` carrying both values is raised.  The Euler
  value is returned.

The coefficient closed forms of the bounds module do not call ``hyp2f1``:
they read the private ``_hyp2f1_bounded``, the same Gauss series with a
relative error bound (tail, recurrence and summation rounding, rounded
arguments), so no quadrature runs inside a closed form and the defining-
integral oracle they are checked against stays the only quadrature.  The
Euler path serves the public ``hyp2f1`` alone.

Parameter domain of the 2F1 paths: gamma_ > beta_ > 0 and 0 <= z < 1, which
covers every coefficient produced by the bounds module (arguments of the
form 1 - 2a/(a+b), 1 - a/b, (b-a)/(2b) and scaled variants, all in [0, 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError, ParameterError
from .quadrature import QuadSettings, integrate, integrate_de

__all__ = [
    "AccuracyBudget",
    "DEFAULT_BUDGET",
    "gamma",
    "beta",
    "gamma_integral",
    "hyp2f1",
    "hyp2f1_euler",
    "hyp2f1_series",
]


@dataclass(frozen=True)
class AccuracyBudget:
    """Relative tolerance target and work cap for dual-path evaluations."""

    rel_tol: float = 1e-12
    max_work: int = 500_000

    def __post_init__(self) -> None:
        if not (self.rel_tol > 0.0) or not math.isfinite(self.rel_tol):
            raise ParameterError("rel_tol must be finite and > 0")
        n = self.max_work
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ParameterError(f"max_work must be an integer >= 1, got {n!r}")


DEFAULT_BUDGET = AccuracyBudget()

_U = 2.0**-53  # unit roundoff of IEEE double


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


def gamma_integral(x: float, settings: QuadSettings | None = None) -> float:
    """Defining integral of Gamma, as an independent (slow) oracle.

    Splits at t=1 so the tanh-sinh rule absorbs the t**(x-1) endpoint
    behavior for x < 1, and truncates the upper tail where the integrand
    is below double-precision significance relative to the result.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma_integral requires x > 0, got {x!r}")

    def integrand(t: float) -> float:
        return t ** (x - 1.0) * math.exp(-t)

    head = integrate_de(integrand, 0.0, 1.0, settings).checked("gamma_integral head on [0, 1]")
    upper = max(60.0, 12.0 * x)
    return head + integrate(integrand, 1.0, upper, settings).checked("gamma_integral tail")


def _check_2f1_domain(alpha: float, beta_: float, gamma_: float, z: float) -> None:
    for name, val in (("alpha", alpha), ("beta_", beta_), ("gamma_", gamma_), ("z", z)):
        if not math.isfinite(val):
            raise DomainError(f"hyp2f1 argument {name} must be finite, got {val!r}")
    if not (gamma_ > beta_ > 0.0):
        raise DomainError(f"hyp2f1 requires gamma_ > beta_ > 0, got beta_={beta_!r}, gamma_={gamma_!r}")
    if not (0.0 <= z < 1.0):
        raise DomainError(f"hyp2f1 requires 0 <= z < 1, got z={z!r}")


def hyp2f1_euler(
    alpha: float,
    beta_: float,
    gamma_: float,
    z: float,
    budget: AccuracyBudget | None = None,
) -> float:
    """Euler integral path: quadrature of t**(b-1)(1-t)**(g-b-1)(1-zt)**(-a)."""
    bud = budget if budget is not None else DEFAULT_BUDGET
    _check_2f1_domain(alpha, beta_, gamma_, z)
    e0 = beta_ - 1.0
    e1 = gamma_ - beta_ - 1.0

    def integrand(t: float) -> float:
        return t**e0 * (1.0 - t) ** e1 * (1.0 - z * t) ** (-alpha)

    settings = QuadSettings(
        abs_tol=1e-300,
        rel_tol=bud.rel_tol,
        max_subdivisions=max(100, bud.max_work // 15),
    )
    what = "hyp2f1 Euler quadrature"
    # Negative exponents make the endpoints singular: use the rule that
    # never touches them.  Otherwise the adaptive pair handles steepness
    # near t=1 (large alpha with z close to 1) by bisection.
    if e0 < 0.0 or e1 < 0.0:
        # Split at 1/2 and fold the upper half with u = 1 - t so each
        # piece carries its singularity at a zero lower endpoint; there
        # the tanh-sinh abscissae are exact, while forming 1 - t from an
        # abscissa next to 1 would cancel and poison (1-t)**e1.
        one_minus_z = 1.0 - z

        def folded(u: float) -> float:
            return u**e1 * (1.0 - u) ** e0 * (one_minus_z + z * u) ** (-alpha)

        lower = integrate_de(integrand, 0.0, 0.5, settings).checked(what)
        value = lower + integrate_de(folded, 0.0, 0.5, settings).checked(what)
    else:
        value = integrate(integrand, 0.0, 1.0, settings).checked(what)
    return value / beta(beta_, gamma_ - beta_)


def _gauss_sum(
    alpha: float, beta_: float, gamma_: float, z: float, rel_tol: float, max_terms: int
) -> tuple[float, int, float, float]:
    """The Gauss series loop: (value, terms_used, tail, moment).

    tail bounds the sum of the dropped terms (0 for a terminating series) and
    moment = sum_k k |term_k| over the terms summed; hyp2f1_series documents
    the stopping rule.
    """
    _check_2f1_domain(alpha, beta_, gamma_, z)
    if z == 0.0:
        return 1.0, 1, 0.0, 0.0
    c1 = max(abs(alpha) + beta_ - gamma_ - 1.0, 0.0)
    c0 = max(abs(alpha) * beta_ - gamma_, 0.0)
    # r_k >= z, so |term| z/(1-z) <= rel_tol |acc| must hold before the
    # sound test can; checking it first keeps r_k off most iterations.
    z_tail = z / (1.0 - z)
    term = 1.0
    acc = 1.0
    lost = 0.0  # Kahan: rounding error of the last addition, taken off the next term
    moment = 0.0
    k = 0
    while k < max_terms:
        ratio = (alpha + k) * (beta_ + k) / ((gamma_ + k) * (k + 1.0)) * z
        term *= ratio
        y = term - lost
        total = acc + y
        lost = (total - acc) - y
        acc = total
        k += 1
        size = abs(term)
        moment += k * size
        if size * z_tail <= rel_tol * abs(acc):
            r = z * (1.0 + c1 / (gamma_ + k) + c0 / ((gamma_ + k) * (k + 1.0)))
            if r < 1.0:
                tail = size * r / (1.0 - r)
                if tail <= rel_tol * abs(acc):
                    return acc, k + 1, tail, moment
        if term == 0.0:  # terminating series (alpha a non-positive integer)
            return acc, k + 1, 0.0, moment
    raise AccuracyError(
        f"hyp2f1 series did not converge within {max_terms} terms",
        partial_sum=acc,
    )


def hyp2f1_series(
    alpha: float,
    beta_: float,
    gamma_: float,
    z: float,
    rel_tol: float = 1e-13,
    max_terms: int = 500_000,
) -> tuple[float, int]:
    """Gauss series path with a geometric tail bound on the truncation.

    Returns (value, terms_used).  Stops once the bounded tail is below
    rel_tol relative to the accumulated sum; raises AccuracyError if the
    term cap is hit first.

    The tail is bounded with a ratio r_k that holds for every later term,
    not just the current one.  With A = |alpha|, the ratio of term j+1 to
    term j is at most z (1 + (c1 j + c0) / ((gamma_+j)(j+1))), where
    c1 = A + beta_ - gamma_ - 1 and c0 = A beta_ - gamma_.  Since
    j / ((gamma_+j)(j+1)) <= 1/(gamma_+j), and 1/(gamma_+j) and
    1/((gamma_+j)(j+1)) decrease in j, r_k = z (1 + max(c1,0)/(gamma_+k)
    + max(c0,0)/((gamma_+k)(k+1))) bounds every ratio from the k-th on.
    The sum is compensated (Kahan).  rel_tol bounds the truncation only:
    the term recurrence rounds too, and over thousands of terms near z = 1
    that can take the value a few percent past rel_tol.
    """
    value, terms, _, _ = _gauss_sum(alpha, beta_, gamma_, z, rel_tol, max_terms)
    return value, terms


def _hyp2f1_bounded(
    alpha: float, beta_: float, gamma_: float, z: float, arg_err: float = 0.0
) -> tuple[float, float]:
    """Gauss series with its error bound: (value, relative error bound).

    Sums to the tail bound and term cap that hyp2f1 gives its own series,
    so it evaluates exactly where hyp2f1 does, with no quadrature.  The
    bound adds, to first order in the unit roundoff u:

    * the tail bound of the dropped terms;
    * the term recurrence: term k is k steps of 8 roundings each, so it is
      off by at most 8 k u relative, 8 u moment in all, where
      moment = sum_k k |term_k|;
    * the Kahan sum: at most 3 u sum_k |term_k| <= 3 u (1 + moment);
    * arguments off by up to arg_err from the ones the caller means (beta_
      and gamma_ relatively, z absolutely): that moves term k by at most
      2 k arg_err through the Pochhammer factors and k arg_err / z
      through z^k.  alpha is taken as exact.
    """
    bud = DEFAULT_BUDGET
    value, _, tail, moment = _gauss_sum(
        alpha, beta_, gamma_, z, bud.rel_tol / 10.0, bud.max_work
    )
    # moment is 0 at z = 0, and z = 0 only arises as an exact argument.
    shift = arg_err * moment * (2.0 + 1.0 / z) if z else 0.0
    err = tail + _U * (11.0 * moment + 3.0) + shift
    # The factor absorbs the second-order terms (8 k u stays below 5e-10).
    return value, (1.01 * err / abs(value) if value else math.inf)


def hyp2f1(
    alpha: float,
    beta_: float,
    gamma_: float,
    z: float,
    budget: AccuracyBudget | None = None,
) -> float:
    """Gauss 2F1 with mandatory dual-path agreement.

    Both the Euler integral and the Gauss series are evaluated on every
    call; they must agree to max(budget.rel_tol, 1e-10) relative, else an
    AccuracyError carrying both values is raised.  The Euler value is
    returned because the quadrature oracle controls its own error bound.
    """
    bud = budget if budget is not None else DEFAULT_BUDGET
    euler = hyp2f1_euler(alpha, beta_, gamma_, z, bud)
    series, _ = hyp2f1_series(alpha, beta_, gamma_, z, rel_tol=bud.rel_tol / 10.0, max_terms=bud.max_work)
    scale = max(abs(euler), abs(series), 1e-300)
    rel_gap = abs(euler - series) / scale
    agree_tol = max(bud.rel_tol, 1e-10)
    if rel_gap > agree_tol:
        raise AccuracyError(
            f"hyp2f1 paths disagree: rel gap {rel_gap:.3e} > {agree_tol:.1e}",
            euler=euler,
            series=series,
        )
    return euler
