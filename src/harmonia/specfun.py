"""Gamma, Beta and Gauss hypergeometric 2F1 with built-in cross-validation.

Every closed-form coefficient downstream reduces to these three functions,
so each one is computed here by two independent methods that must agree:

* ``gamma`` uses a Lanczos minimax approximation; the defining integral is
  exposed as ``gamma_integral`` so the test suite can check one against the
  other (slow path, quadrature based).
* ``beta`` is the Gamma-ratio formula, cross-checked in the tests against
  direct tanh-sinh integration of t**(a-1) (1-t)**(b-1).
* ``hyp2f1`` evaluates the Euler integral representation with the adaptive
  quadrature oracle AND sums the Gauss series with a geometric tail bound
  that holds for every later term.
  The two paths must agree to max(budget.rel_tol, 1e-10) in relative terms,
  otherwise an ``AccuracyError`` carrying both values is raised.  The Euler
  value is returned.

Parameter domain for ``hyp2f1``: gamma_ > beta_ > 0 and 0 <= z < 1, which
covers every coefficient produced by the bounds module (arguments of the
form 1 - 2a/(a+b), 1 - a/b, (b-a)/(2b) and scaled variants, all in [0, 1)).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from .errors import AccuracyError, DomainError, ParameterError
from .quadrature import QuadResult, QuadSettings, integrate, integrate_de

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

_SQRT_TWO_PI = 2.5066282746310002
# Lanczos g=7, n=9 coefficients (double precision minimax set).
_LANCZOS_G = 7.0
_LANCZOS_COEF = (
    0.99999999999980993,
    676.5203681218851,
    -1259.1392167224028,
    771.32342877765313,
    -176.61502916214059,
    12.507343278686905,
    -0.13857109526572012,
    9.9843695780195716e-6,
    1.5056327351493116e-7,
)


def _lanczos_loggamma(x: float) -> float:
    """log Gamma(x) for x >= 0.5 via the Lanczos sum."""
    y = x - 1.0
    acc = _LANCZOS_COEF[0]
    for i in range(1, 9):
        acc += _LANCZOS_COEF[i] / (y + i)
    t = y + _LANCZOS_G + 0.5
    return 0.5 * math.log(2.0 * math.pi) + (y + 0.5) * math.log(t) - t + math.log(acc)


def _loggamma(x: float) -> float:
    if x >= 0.5:
        return _lanczos_loggamma(x)
    # Recurrence Gamma(x) = Gamma(x+1)/x keeps the argument in range.
    return _lanczos_loggamma(x + 1.0) - math.log(x)


def gamma(x: float) -> float:
    """Gamma function on the positive half line.

    Raises DomainError for x <= 0 (poles and the reflection region are
    outside this library's needs).  Arguments beyond the double-precision
    overflow threshold return ``inf``.
    """
    if not math.isfinite(x) or x <= 0.0:
        raise DomainError(f"gamma requires x > 0, got {x!r}")
    lg = _loggamma(x)
    try:
        return math.exp(lg)
    except OverflowError:
        return math.inf


def beta(a: float, b: float) -> float:
    """Euler Beta via the Gamma-ratio formula, exactly symmetric in (a, b)."""
    if not math.isfinite(a) or a <= 0.0 or not math.isfinite(b) or b <= 0.0:
        raise DomainError(f"beta requires positive arguments, got ({a!r}, {b!r})")
    lg = _loggamma(a) + _loggamma(b) - _loggamma(a + b)
    try:
        return math.exp(lg)
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

    head = integrate_de(integrand, 0.0, 1.0, settings)
    upper = max(60.0, 12.0 * x)
    tail = integrate(integrand, 1.0, upper, settings)
    if not (head.converged and tail.converged):
        raise AccuracyError(
            "gamma_integral quadrature did not converge",
            head=head.value,
            tail=tail.value,
        )
    return head.value + tail.value


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

        lower = integrate_de(integrand, 0.0, 0.5, settings)
        upper = integrate_de(folded, 0.0, 0.5, settings)
        result = QuadResult(
            value=lower.value + upper.value,
            err_estimate=lower.err_estimate + upper.err_estimate,
            evaluations=lower.evaluations + upper.evaluations,
            converged=lower.converged and upper.converged,
        )
    else:
        result = integrate(integrand, 0.0, 1.0, settings)
    if not result.converged:
        raise AccuracyError(
            "hyp2f1 Euler quadrature exhausted its budget",
            estimate=result.value,
            err_estimate=result.err_estimate,
        )
    return result.value / beta(beta_, gamma_ - beta_)


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
    The sum is compensated (Kahan), so its own rounding stays below the
    tail bound even over 10^4 terms near z = 1.
    """
    _check_2f1_domain(alpha, beta_, gamma_, z)
    if z == 0.0:
        return 1.0, 1
    c1 = max(abs(alpha) + beta_ - gamma_ - 1.0, 0.0)
    c0 = max(abs(alpha) * beta_ - gamma_, 0.0)
    # r_k >= z, so |term| z/(1-z) <= rel_tol |acc| must hold before the
    # sound test can; checking it first keeps r_k off most iterations.
    z_tail = z / (1.0 - z)
    term = 1.0
    acc = 1.0
    lost = 0.0  # Kahan: rounding error of the last addition, taken off the next term
    k = 0
    while k < max_terms:
        ratio = (alpha + k) * (beta_ + k) / ((gamma_ + k) * (k + 1.0)) * z
        term *= ratio
        y = term - lost
        total = acc + y
        lost = (total - acc) - y
        acc = total
        k += 1
        if abs(term) * z_tail <= rel_tol * abs(acc):
            r = z * (1.0 + c1 / (gamma_ + k) + c0 / ((gamma_ + k) * (k + 1.0)))
            if r < 1.0 and abs(term) * r / (1.0 - r) <= rel_tol * abs(acc):
                return acc, k + 1
        if term == 0.0:  # terminating series (alpha a non-positive integer)
            return acc, k + 1
    raise AccuracyError(
        f"hyp2f1 series did not converge within {max_terms} terms",
        partial_sum=acc,
    )


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
