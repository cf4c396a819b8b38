"""Self-contained numerical integration used as the oracle layer.

Two integrators are provided.  ``integrate`` is an adaptive bisection scheme
built on a Gauss-Kronrod 7/15 pair: each panel is scored by the difference
between the embedded 7-point Gauss value and the 15-point Kronrod value, and
the panel with the largest score is bisected until the summed estimate meets
the requested tolerance or the subdivision budget runs out.  ``integrate_de``
is a tanh-sinh (double exponential) rule with trapezoid step halving; it
never evaluates the integrand at the interval endpoints and therefore
tolerates algebraic endpoint behavior t**sigma with sigma > -1.  The kernel
oracles and the Euler integral of 2F1 use the private ``_product_rule``, a
Gauss-Jacobi rule that integrates known endpoint powers exactly (node table
built on first use), on panels that ``_graded`` splits toward a nearby
singularity of the smooth factor.  ``_product_rules`` runs several such
integrals level by level together, with one integrand call per level, and
gives each the bits ``_product_rule`` gives it alone.

No routine ever returns a silently wrong number: results carry an error
estimate, an evaluation count and a ``converged`` flag, and a non-finite
integrand value, an overflow, a division by zero or an integrand's own
``EvaluationError`` raises ``EvaluationError`` at the offending abscissa.
``integrate`` also takes an integrand wrapped in the private
``_ArrayIntegrand``, called once per panel on the list of its 15 abscissae
to return as many values, under the same contract and with the same bits.
``QuadResult.checked`` is the one place a result becomes a number: it
returns the value of a converged result, else raises ``AccuracyError``.
"""

from __future__ import annotations

import functools
import heapq
import math
from array import array
from collections.abc import Callable, Sequence
from dataclasses import dataclass
from itertools import accumulate, pairwise

import numpy as np

from .errors import AccuracyError, EvaluationError, ParameterError

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

    def checked(self, what: str) -> float:
        """The value if converged; otherwise AccuracyError carrying
        ``estimate`` and ``err_estimate``, with ``what`` naming the integral."""
        if not self.converged:
            raise AccuracyError(
                f"{what} did not converge", estimate=self.value, err_estimate=self.err_estimate
            )
        return self.value


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
    try:
        fx = float(f(x))
    except (OverflowError, ZeroDivisionError, EvaluationError) as exc:
        raise EvaluationError(f"integrand raised {exc!r} at x={x!r}", abscissa=x) from exc
    if not math.isfinite(fx):
        raise EvaluationError(f"integrand returned non-finite value at x={x!r}", abscissa=x)
    return fx


@dataclass(frozen=True)
class _ArrayIntegrand:
    """An integrand ``f`` that maps a list of abscissae to as many values."""

    f: Callable[[list[float]], Sequence[float]]


def _panel(f, xs: Sequence[float]) -> list[float]:
    """f at the abscissae xs, in order, each one finite (see ``integrate``)."""
    if isinstance(f, _ArrayIntegrand):
        try:
            fs = list(map(float, f.f(xs)))
        except (OverflowError, ZeroDivisionError, EvaluationError):
            fs = []
        if len(fs) == len(xs) and all(map(math.isfinite, fs)):
            return fs
        # Something failed: find its node by evaluating one abscissa at a time.
        return [_eval(lambda t: f.f([t])[0], x) for x in map(float, xs)]
    return [_eval(f, x) for x in xs]


def _gk15(f, lo: float, hi: float) -> tuple[float, float, float]:
    """One Gauss-Kronrod 7/15 panel: (kronrod value, error score, resabs)."""
    center = 0.5 * (lo + hi)
    half = 0.5 * (hi - lo)
    xs = [center]
    for xk in _XGK[:7]:
        xs += (center - half * xk, center + half * xk)
    fs = _panel(f, xs)
    fc = fs[0]
    kron = _WGK[7] * fc
    gauss = _WG[3] * fc
    resabs = _WGK[7] * abs(fc)
    for j, f1, f2 in zip(range(7), fs[1::2], fs[2::2]):
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
    the endpoints themselves are never evaluated).  Each panel evaluates its
    centre, then centre - x_j and centre + x_j for j = 0..6; an
    ``_ArrayIntegrand`` gets that list in one call.  The first node in this
    order whose value is not finite, or whose evaluation raises OverflowError,
    ZeroDivisionError or EvaluationError, raises EvaluationError with its
    abscissa; an array integrand's failing panel is re-evaluated node by node.
    The result's ``err_estimate`` is the sum of per-panel Kronrod-minus-Gauss
    scores, which in practice bounds the true error by a wide margin on
    smooth and piecewise-smooth integrands.
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


# Gauss-Jacobi product rule ------------------------------------------------

# Node tables kept by each cache below, least recently used dropped first.
# Each new pair of Jacobi exponents (a new s, or a new 2F1) adds tables, so an
# unbounded cache only grows; the benchmark sweeps keep at most 35 rules and
# 24 levels, which this bound never evicts.
_TABLES = 256


@functools.lru_cache(maxsize=_TABLES)
def _jacobi_rule(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """Nodes x and weights w of the n-point Gauss rule for (1-x)^alpha (1+x)^beta.

    x: the zeros of the orthonormal Jacobi p_n, by Newton's method on its
    recurrence from cos guesses.  w: the Christoffel numbers 1 / sum_{k<n}
    p_k(x)^2 over the weight at x, so sum w_j f(x_j) is exact when f / weight
    is a polynomial of degree < 2n.  (beta, alpha) is this rule mirrored.
    """
    if alpha > beta:
        x, w = _jacobi_rule(n, beta, alpha)
        return -x[::-1], w[::-1]
    ab, k = alpha + beta, np.arange(1.0, n + 1.0)
    m = 2.0 * k + ab  # x p_k = off[k+1] p_{k+1} + diag[k] p_k + off[k] p_{k-1}
    diag = [(beta - alpha) / (ab + 2.0), *((beta**2 - alpha**2) / (m * (m + 2.0))).tolist()]
    off = [0.0, *np.sqrt(4.0 * k * (k + alpha) * (k + beta) * (k + ab)
                         / (m * m * (m + 1.0) * (m - 1.0))).tolist()]
    mass = 2.0 ** (ab + 1.0) * math.gamma(alpha + 1) * math.gamma(beta + 1) / math.gamma(ab + 2)

    def walk(x, squares=False):
        """p_{n-1}(x), p_n(x) and, if asked, sum_{k<n} p_k(x)^2."""
        prev, p, ssq = 0.0, np.full_like(x, 1.0 / math.sqrt(mass)), 0.0
        for k in range(n):
            ssq = ssq + p * p if squares else ssq
            prev, p = p, ((x - diag[k]) * p - off[k] * prev) / off[k + 1]
        return prev, p, ssq

    # Newton's step p_n / p_n', with p_n' from p_n and p_{n-1}:
    # m (1 - x^2) p_n' = n (alpha - beta - m x) p_n + m (m + 1) off[n] p_{n-1}, m = 2n + ab.
    m = 2.0 * n + ab
    x = np.array([math.cos((k + 0.5 * alpha - 0.25) * math.pi / (n + 0.5 * (ab + 1.0)))
                  for k in range(1, n + 1)])
    for _ in range(100):
        prev, p, _ = walk(x)
        step = p * m * (1 - x * x) / (n * (alpha - beta - m * x) * p + off[n] * m * (m + 1) * prev)
        x = x - step
        if np.abs(step).max() <= 1e-13:  # quadratic convergence: x is now exact to rounding
            return x, 1.0 / (walk(x, squares=True)[2] * (1.0 - x) ** alpha * (1.0 + x) ** beta)
    raise AccuracyError(f"Gauss-Jacobi nodes (n={n}, alpha={alpha}, beta={beta}) did not converge")


@functools.lru_cache(maxsize=_TABLES)
def _jacobi_level(n: int, alpha: float, beta: float) -> tuple[np.ndarray, np.ndarray]:
    """1 + x and w of the n- and 2n-point rules, the n-point rule's first."""
    (x1, w1), (x2, w2) = _jacobi_rule(n, alpha, beta), _jacobi_rule(2 * n, alpha, beta)
    return 1.0 + np.concatenate((x1, x2)), np.concatenate((w1, w2))


def _product_rule(f, panels) -> QuadResult:
    """Gauss-Jacobi integration of f over panels (lo, hi, at_lo, at_hi), summed.

    On each panel f is (t - lo)^at_lo (hi - t)^at_hi times a smooth factor.
    Level by level, n = 8, 16, ..., 1024, f is called once on the n- and
    2n-point nodes of every panel (an ``_ArrayIntegrand``, under its
    contract).  It reads DEFAULT_SETTINGS: it stops when |Q_2n - Q_n| <=
    rel_tol |Q_2n|, with no absolute floor (for a nonnegative f, positive
    weights leave only relative rounding), and a level that would take the
    evaluations past 15 * max_subdivisions is not run.
    """
    for lo, hi, _, _ in panels:
        _require_interval(lo, hi)
    g = _ArrayIntegrand(f)
    return QuadResult(*_product_rules(lambda t, runs: np.array(_panel(g, t)), [panels])[0])


def _product_rules(f, rules: Sequence[Sequence[tuple]]) -> list[tuple | None]:
    """_product_rule for several integrands at once, rules[k] the panels of integrand k.

    The panels are taken as _product_rule checks them.  Each level calls
    f(t, runs) once: t holds the nodes of every integrand still running,
    panel after panel, and runs lists (k, its number of nodes) in the same
    order; f returns the values at t as an array.  Each integrand keeps its
    own panels, stopping rule and budget, and each panel is summed alone,
    so each result, the fields of a QuadResult, has the bits _product_rule
    gives.  An integrand with a value that is not finite stops: its result
    is None.
    """
    budget = 15 * DEFAULT_SETTINGS.max_subdivisions
    rel_tol = DEFAULT_SETTINGS.rel_tol
    spans = np.array([(lo, 0.5 * (hi - lo)) for panels in rules for lo, hi, _, _ in panels])
    rows = [range(i, j) for i, j in pairwise(accumulate(map(len, rules), initial=0))]  # rule k's spans
    results: list[tuple | None] = [None] * len(rules)
    running = dict.fromkeys(range(len(rules)), (math.nan, math.inf, 0))  # k: (value, err, evals)
    n = 8
    while n <= 1024:
        size = 3 * n  # the nodes of a panel: the n-point rule's, then the 2n-point rule's
        for k in [k for k, (_, _, evals) in running.items() if evals + size * len(rules[k]) > budget]:
            results[k] = (*running.pop(k), False)
        if not running:
            break
        levels = [_jacobi_level(n, at_hi, at_lo) for k in running for _, _, at_lo, at_hi in rules[k]]
        los, halves = spans[[i for k in running for i in rows[k]]].T
        u = np.concatenate([u for u, _ in levels]).reshape(-1, size)
        fs = f((los[:, None] + halves[:, None] * u).ravel(), [(k, size * len(rules[k])) for k in running])
        finite = np.isfinite(fs)
        all_finite = finite.all()
        if not all_finite:
            fs = np.where(finite, fs, 0.0)  # keeps the fsums below finite; those integrands stop
        with np.errstate(over="ignore"):  # as a product of Python floats, an overflow is inf
            terms = np.concatenate([w for _, w in levels]).reshape(-1, size) * fs.reshape(-1, size)
        # Q_n and Q_2n of each panel: half times the fsum of its terms.
        panel_n = (halves * list(map(math.fsum, terms[:, :n].tolist()))).tolist()
        panel_2n = (halves * list(map(math.fsum, terms[:, n:].tolist()))).tolist()
        start = 0
        for k, (_, _, evals) in list(running.items()):
            end = start + len(rules[k])
            if not (all_finite or finite[start * size:end * size].all()):
                del running[k]
            else:
                coarse = value = 0.0
                for i in range(start, end):
                    coarse += panel_n[i]
                    value += panel_2n[i]
                err, evals = abs(value - coarse), evals + size * (end - start)
                running[k] = (value, err, evals)
                if err <= rel_tol * abs(value):
                    results[k] = (*running.pop(k), True)
            start = end
        n *= 2
    for k, state in running.items():
        results[k] = (*state, False)
    return results


_GRADE = 0.15  # the geometric ratio of graded panels


def _graded(u: float, v: float, singular: list[float]) -> list[tuple[float, float]]:
    """[u, v] split geometrically toward each point of singular within _GRADE of its width."""
    reach = _GRADE * (v - u)
    for z in singular:
        if u - reach < z < u or v < z < v + reach:
            m = u + reach if z < u else v - reach
            return _graded(u, m, singular) + _graded(m, v, singular)
    return [(u, v)]
