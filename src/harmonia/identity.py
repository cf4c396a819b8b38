"""The rule-deviation quantity and its kernel integral representation.

For 0 < a < b and real weights lambda_, mu_, define

    I_f = (lambda_ - mu_) * f(2ab/(a+b))
          + (1 - lambda_) * f(a) + mu_ * f(b)
          - (ab/(b-a)) * integral_a^b f(u)/u**2 du.

I_f measures how far a three-node rule (endpoints plus the harmonic mean)
deviates from the harmonic-weighted integral average.  Integration by parts
(substitute u = ab/A_t with A_t = t*b + (1-t)*a) turns it into

    I_f = ab(b-a) * [ integral_0^{1/2} (mu_ - t)/A_t**2 * f'(ab/A_t) dt
                    + integral_{1/2}^1 (lambda_ - t)/A_t**2 * f'(ab/A_t) dt ],

valid for ALL real lambda_, mu_ whenever f' is integrable.  This module
evaluates both sides by quadrature, at quadrature's one accuracy, and
judges the identity in ``_judged`` alone: |lhs - rhs| <= ``IDENTITY_TOL``.
``check_identity``, the sweep's identity row and ``verify-identity --printed``
call it; their callers read the verdict and margin from its ``IdentityCheck``.

A widely circulated variant of the display writes the midpoint node as
f((a+b)/2) and doubles the integral prefactor to 2ab/(b-a).  That variant
does not satisfy the identity (the kernel representation and the three
weight presets trapezoid/midpoint/simpson all agree on the form above);
``rule_deviation_as_printed`` keeps it evaluable solely so the errata
report can lock the discrepancy.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .convexity import FunctionSpec, _require_sm
from .errors import DomainError, ParameterError
from .quadrature import _ArrayIntegrand, integrate

# Identity checks compare two 1e-10 quadratures, so 1e-8 leaves margin.
IDENTITY_TOL = 1e-8


@dataclass(frozen=True)
class Instance:
    """One fully specified problem instance.

    lambda_ and mu_ are unrestricted reals here because the kernel identity
    holds for all of them; the bound evaluators separately enforce the band
    0 <= mu_ <= 1/2 <= lambda_ <= 1 they require.
    """

    a: float
    b: float
    s: float
    m: float
    q: float
    lambda_: float
    mu_: float
    f: FunctionSpec

    def __post_init__(self) -> None:
        for name in ("a", "b", "s", "m", "q", "lambda_", "mu_"):
            val = getattr(self, name)
            # bool subclasses int, but True where a number belongs is a mistake.
            if isinstance(val, bool) or not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ParameterError(f"{name} must be a finite real, got {val!r}")
        if not isinstance(self.f, FunctionSpec):
            raise ParameterError(f"f must be a FunctionSpec, got {self.f!r}")
        if not (0.0 < self.a < self.b):
            raise ParameterError(f"need 0 < a < b, got a={self.a!r}, b={self.b!r}")
        _require_sm(self.s, self.m)
        if self.q < 1.0:
            raise ParameterError(f"q must be >= 1, got {self.q!r}")
        if not self.a > self.f.domain_lo:
            raise DomainError(
                f"[a, b/m] must sit inside the function domain: a={self.a!r} "
                f"but domain_lo={self.f.domain_lo!r}"
            )

    @property
    def harmonic_mean(self) -> float:
        return 2.0 * self.a * self.b / (self.a + self.b)


@dataclass(frozen=True)
class IdentityCheck:
    """Comparison of the node form against the kernel representation."""

    lhs: float
    rhs: float
    abs_diff: float
    tol: float
    passed: bool

    @property
    def margin(self) -> float:
        """tol - abs_diff: how far inside the rule the check passed (< 0: failed)."""
        return self.tol - self.abs_diff


def _integral_avg_term(inst: Instance) -> float:
    """(ab/(b-a)) * integral_a^b f(u)/u**2 du."""
    f = inst.f

    @_ArrayIntegrand
    def integrand(u: list[float]) -> np.ndarray:
        u = np.array(u)
        return f.value(u) / (u * u)

    integral = integrate(integrand, inst.a, inst.b).checked("rule_deviation integral")
    return inst.a * inst.b / (inst.b - inst.a) * integral


def _instance_terms(inst: Instance) -> tuple[list[float], float]:
    """f at the harmonic mean, a and b, and the integral average; none reads lambda_ or mu_."""
    nodes = inst.f.value([inst.harmonic_mean, inst.a, inst.b]).tolist()
    return nodes, _integral_avg_term(inst)


def _deviation(inst: Instance, terms: tuple[list[float], float]) -> float:
    """The corrected node form of I_f from terms, _instance_terms(inst)."""
    (f_h, f_a, f_b), avg = terms
    nodes = (inst.lambda_ - inst.mu_) * f_h + (1.0 - inst.lambda_) * f_a + inst.mu_ * f_b
    return nodes - avg


def rule_deviation(inst: Instance) -> float:
    """The corrected node form of I_f (harmonic-mean midpoint node)."""
    return _deviation(inst, _instance_terms(inst))


def rule_deviation_as_printed(inst: Instance) -> float:
    """The defective variant: arithmetic-mean node, doubled prefactor.

    Kept only for the errata lock; it does not satisfy the kernel identity.
    """
    f = inst.f
    nodes = (
        (inst.lambda_ - inst.mu_) * f.value(0.5 * (inst.a + inst.b))
        + (1.0 - inst.lambda_) * f.value(inst.a)
        + inst.mu_ * f.value(inst.b)
    )
    return nodes - 2.0 * _integral_avg_term(inst)


def kernel_representation(inst: Instance) -> float:
    """ab(b-a) times the two weighted kernel integrals of f'(ab/A_t)."""
    a, b = inst.a, inst.b
    ab = a * b
    f = inst.f

    def piece(weight_anchor: float) -> _ArrayIntegrand:
        @_ArrayIntegrand
        def integrand(t: list[float]) -> np.ndarray:
            t = np.array(t)
            A = t * b + (1.0 - t) * a
            return (weight_anchor - t) / (A * A) * f.deriv(ab / A)

        return integrand

    what = "kernel_representation integral"
    lower = integrate(piece(inst.mu_), 0.0, 0.5).checked(what)
    upper = integrate(piece(inst.lambda_), 0.5, 1.0).checked(what)
    return ab * (b - a) * (lower + upper)


def _judged(lhs: float, rhs: float) -> IdentityCheck:
    """lhs against rhs under the identity rule |lhs - rhs| <= IDENTITY_TOL."""
    abs_diff = abs(lhs - rhs)
    return IdentityCheck(
        lhs=lhs, rhs=rhs, abs_diff=abs_diff, tol=IDENTITY_TOL, passed=abs_diff <= IDENTITY_TOL
    )


def check_identity(inst: Instance) -> IdentityCheck:
    """``_judged`` on the corrected node form (lhs) and the kernel representation (rhs)."""
    return _judged(rule_deviation(inst), kernel_representation(inst))
