"""Self-contained numerical integration used as the oracle layer.

Two integrators are provided.  ``integrate`` is an adaptive bisection scheme
built on a Gauss-Kronrod 7/15 pair: each panel is scored by the difference
between the embedded 7-point Gauss value and the 15-point Kronrod value, and
the panel with the largest score is bisected until the summed estimate meets
the requested tolerance or the subdivision budget runs out.  ``integrate_de``
is a tanh-sinh (double exponential) rule with trapezoid step halving; it
never evaluates the integrand at the interval endpoints and therefore
tolerates algebraic endpoint behavior t**sigma with sigma > -1.

Neither routine ever returns a silently wrong number: results carry an error
estimate, an evaluation count and a ``converged`` flag, and a non-finite
integrand value raises ``EvaluationError`` with the offending abscissa.
"""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from dataclasses import dataclass

from .errors import EvaluationError, ParameterError

__all__ = ["QuadSettings", "QuadResult", "integrate", "integrate_de", "DEFAULT_SETTINGS"]


@dataclass(frozen=True)
class QuadSettings:
    """Accuracy targets and work cap shared by both integrators."""

    abs_tol: float = 1e-10
    rel_tol: float = 1e-10
    max_subdivisions: int = 2000

    def __post_init__(self) -> None:
        if not (self.abs_tol > 0.0) or not math.isfinite(self.abs_tol):
            raise ParameterError("abs_tol must be finite and > 0")
        if self.rel_tol < 0.0 or not math.isfinite(self.rel_tol):
            raise ParameterError("rel_tol must be finite and >= 0")
        n = self.max_subdivisions
        if isinstance(n, bool) or not isinstance(n, int) or n < 1:
            raise ParameterError(f"max_subdivisions must be an integer >= 1, got {n!r}")


@dataclass(frozen=True)
class QuadResult:
    value: float
    err_estimate: float
    evaluations: int
    converged: bool


DEFAULT_SETTINGS = QuadSettings()

# Kronrod-15 abscissae on [-1, 1] (positive half; index 7 is the center) and
# the matching Kronrod weights.  Odd indices form the embedded Gauss-7 rule.
_XGK = (
    0.991455371120812639206854697526329,
    0.949107912342758524526189684047851,
    0.864864423359769072789712788640926,
    0.741531185599394439863864773280788,
    0.586087235467691130294144838258730,
    0.405845151377397166906606412076961,
    0.207784955007898467600689403773245,
    0.000000000000000000000000000000000,
)
_WGK = (
    0.022935322010529224963732008058970,
    0.063092092629978553290700663189204,
    0.104790010322250183839876322541518,
    0.140653259715525918745189590510238,
    0.169004726639267902826583426598550,
    0.190350578064785409913256402421014,
    0.204432940075298892414161999234649,
    0.209482141084727828012999174891714,
)
_WG = (
    0.129484966168869693270611432679082,
    0.279705391489276667901467771423780,
    0.381830050505118944950369775488975,
    0.417959183673469387755102040816327,
)

_EPS = 2.220446049250313e-16


def _require_interval(lo: float, hi: float) -> None:
    if not (math.isfinite(lo) and math.isfinite(hi)):
        raise ParameterError("integration bounds must be finite")
    if not lo < hi:
        raise ParameterError(f"lower bound must be < upper bound, got [{lo}, {hi}]")


def _eval(f, x: float) -> float:
    fx = float(f(x))
    if not math.isfinite(fx):
        raise EvaluationError(f"integrand returned non-finite value at x={x!r}", abscissa=x)
    return fx


def _gk15(f, lo: float, hi: float) -> tuple[float, float, float]:
    """One Gauss-Kronrod 7/15 panel: (kronrod value, error score, resabs)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    fc = _eval(f, center)
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    for j in range(7):
        x = half * _XGK[j]
        f1 = _eval(f, center - x)
        f2 = _eval(f, center + x)
        kron += _WGK[j] * (f1 + f2)
        resabs += _WGK[j] * (abs(f1) + abs(f2))
        if j % 2 == 1:
            gauss += _WG[j // 2] * (f1 + f2)
    kron *= half
    gauss *= half
    resabs *= half
    err = abs(kron - gauss)
    # Floor at the roundoff level of the panel so the estimate stays honest.
    err = max(err, 50.0 * _EPS * resabs)
    return kron, err, resabs


def integrate(f, lo: float, hi: float, settings: QuadSettings | None = None) -> QuadResult:
    """Adaptive Gauss-Kronrod integration of ``f`` over ``[lo, hi]``.

    The integrand must be finite at every evaluated node (the rule is open:
    the endpoints themselves are never evaluated).  The result's
    ``err_estimate`` is the sum of per-panel Kronrod-minus-Gauss scores,
    which in practice bounds the true error by a wide margin on smooth and
    piecewise-smooth integrands.
    """
    s = settings if settings is not None else DEFAULT_SETTINGS
    _require_interval(lo, hi)
    evals = 15
    value, err, _ = _gk15(f, lo, hi)
    # Heap entries: (-err, tiebreak, lo, hi, value, err)
    heap = [(-err, 0, lo, hi, value, err)]
    frozen_value = 0.0  # contributions of panels too narrow to split further
    frozen_err = 0.0
    counter = 1
    nsub = 0
    total_value = value
    total_err = err

    def _refresh() -> tuple[float, float]:
        v = math.fsum(entry[4] for entry in heap) + frozen_value
        e = math.fsum(entry[5] for entry in heap) + frozen_err
        return v, e

    while True:
        tol = max(s.abs_tol, s.rel_tol * abs(total_value))
        if total_err <= tol or nsub >= s.max_subdivisions or not heap:
            break
        _, _, plo, phi, pval, perr = heapq.heappop(heap)
        mid = 0.5 * (plo + phi)
        if mid <= plo or mid >= phi:
            # Cannot be refined further at double precision.
            frozen_value += pval
            frozen_err += perr
            continue
        lval, lerr, _ = _gk15(f, plo, mid)
        rval, rerr, _ = _gk15(f, mid, phi)
        evals += 30
        nsub += 1
        heapq.heappush(heap, (-lerr, counter, plo, mid, lval, lerr))
        counter += 1
        heapq.heappush(heap, (-rerr, counter, mid, phi, rval, rerr))
        counter += 1
        total_value += lval + rval - pval
        total_err += lerr + rerr - perr
        if nsub % 512 == 0:
            total_value, total_err = _refresh()

    total_value, total_err = _refresh()
    converged = total_err <= max(s.abs_tol, s.rel_tol * abs(total_value))
    return QuadResult(total_value, total_err, evals, converged)


# tanh-sinh machinery ------------------------------------------------------

_PI_OVER_2 = math.pi / 2.0
# Beyond this value of v = (pi/2)*sinh(u) both the node weight and the node's
# distance to the endpoint underflow; such nodes contribute nothing.
_V_CUTOFF = 350.0
_U_MAX = 6.56
_MAX_LEVEL = 12


@functools.cache
def _de_nodes(level: int) -> tuple[array, array]:
    """(delta, weight) of the level's node pairs, built on first use.

    Level 0 holds the pairs at u = 1, 2, ...; level L >= 1 adds those at
    the odd multiples of 2**-L.  delta = 1 - tanh(v) with v = (pi/2)sinh(u)
    is the distance of the abscissa from the nearer endpoint in the
    reference coordinate, computed without cancellation; the weight is
    (pi/2) cosh(u) sech(v)^2.  Pairs whose delta or weight underflows
    contribute nothing and are left out.
    """
    h = 0.5**level
    step = 1 if level == 0 else 2  # only the odd multiples are new at L >= 1
    deltas, weights = array("d"), array("d")
    k = 1
    while k * h <= _U_MAX:
        u = k * h
        k += step
        v = _PI_OVER_2 * math.sinh(u)
        if v > _V_CUTOFF:
            continue
        ev = math.exp(-2.0 * v)
        delta = 2.0 * ev / (1.0 + ev)
        # sech(v) = 2 e^{-v} / (1 + e^{-2v})
        sech_v = 2.0 * math.exp(-v) / (1.0 + ev)
        w = _PI_OVER_2 * math.cosh(u) * sech_v * sech_v
        if delta != 0.0 and w != 0.0:
            deltas.append(delta)
            weights.append(w)
    return deltas, weights


def _de_level(f, level: int, lo: float, hi: float, half: float) -> list[float]:
    """Weighted integrand contributions of the level's node pairs, in order."""
    # Keep the abscissae strictly inside (lo, hi): when the offset drops
    # below one ulp of the endpoint the subtraction would land exactly on
    # it, violating the open-rule contract for endpoint-singular integrands.
    inner_lo = math.nextafter(lo, hi)
    inner_hi = math.nextafter(hi, lo)
    out = []
    for delta, w in zip(*_de_nodes(level)):
        x_hi = hi - half * delta
        x_lo = lo + half * delta
        if x_hi >= hi:
            x_hi = inner_hi
        if x_lo <= lo:
            x_lo = inner_lo
        out.append(w * (_eval(f, x_lo) + _eval(f, x_hi)))
    return out


def integrate_de(f, lo: float, hi: float, settings: QuadSettings | None = None) -> QuadResult:
    """tanh-sinh integration of ``f`` over ``[lo, hi]``.

    Designed for integrands with integrable algebraic endpoint singularities:
    abscissae approach the endpoints double-exponentially but never reach
    them, and each node's distance to its endpoint is computed directly so no
    precision is lost to cancellation.  The trapezoid step is halved per
    level until two successive levels agree within tolerance.
    """
    s = settings if settings is not None else DEFAULT_SETTINGS
    _require_interval(lo, hi)
    half = 0.5 * (hi - lo)
    mid = 0.5 * (lo + hi)
    max_evals = 15 * s.max_subdivisions

    center = _PI_OVER_2 * _eval(f, mid)
    contribs = _de_level(f, 0, lo, hi, half)
    evals = 1 + 2 * len(contribs)
    total = math.fsum([center, *contribs])
    h = 1.0
    value = half * h * total
    prev_value = value
    err = abs(value)
    converged = False

    level = 0
    while level < _MAX_LEVEL and evals < max_evals:
        level += 1
        h *= 0.5
        new = _de_level(f, level, lo, hi, half)
        evals += 2 * len(new)
        total += math.fsum(new)
        value = half * h * total
        err = abs(value - prev_value)
        if level >= 2 and err <= max(s.abs_tol, s.rel_tol * abs(value)):
            converged = True
            break
        prev_value = value

    return QuadResult(value, err, evals, converged)
