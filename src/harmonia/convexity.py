"""Convexity classes on positive domains, certified by dense grid sampling.

A function f on an interval of (0, inf) is harmonically (s,m)-convex (second
sense) when

    f(m*x*y / (m*t*y + (1-t)*x)) <= t**s * f(x) + m * (1-t)**s * f(y)

for all x, y in the domain and t in [0, 1], with parameters s, m in (0, 1].
The plain (s,m)-convex variant uses the combination t*x + m*(1-t)*y on the
left instead.  Neither class is decidable from point samples, so this module
reports grid verdicts: the worst signed defect of the defining inequality
over a rectangular (x, y, t) grid, together with the witness triple that
attains it.  A verdict "holds" means the worst defect does not exceed
``DEFECT_TOL``, the one tolerance every verdict here reads and none takes as
a parameter; callers that need a guarantee combine the verdict with an
analytic certificate for the family in question (see ``PROPERTY_CORPUS``).

``FunctionSpec`` is a small closed term language (linear, powers, scaled
power-plus-constant, scaling, sums, pointwise maxima, composition, explicit
sequence limits, and |f'|**q wrappers) with numpy-vectorized evaluators for
f and, where defined, f'.

A grid verdict computes its grid-sized intermediates in a workspace of two
arrays per grid shape that each thread keeps across calls (``_workspace``),
so a certification allocates no grid-sized array and page-faults none in.
The linear, power, s_power and abs_deriv_pow evaluators write into it in
place; the arithmetic is the same, so every report keeps its bits.

Certification runs the subgrid prefilter (every ``SUBGRID_STRIDE``-th
sample of each axis) first, for many candidates of one f at once
(``_subgrid_first``): their x axes are the rows of one array, which is also
y on a square grid, f is evaluated on it once (``_axis_values``), and every
subgrid defect comes from one stacked ``_defect`` pass in the full grid's
workspace.  A candidate the subgrid does not refute computes its full grid
from its own rows of the axes and values.  Each row holds what the
candidate computes alone, so the reports keep their bits; one candidate is
``check_harmonic_sm_subgrid_first``.  Where the evaluation on the axes
raises, each grid evaluates f on the axes it reads, so a point outside the
subgrid raises only when the full grid runs.

Each value is checked once: a grid checks f's domain on its combination
once and f's finiteness there once, on the defect (``_defect``), and only a
grid that fails runs the checked ``FunctionSpec._evaluate`` there, to raise
the error, message and abscissa of the value at fault.
"""

from __future__ import annotations

import math
import threading
from dataclasses import dataclass, replace
from functools import partial

import numpy as np

from .errors import DomainError, EvaluationError, ParameterError

DEFECT_TOL = 1e-9
# Monotonicity is decided from adjacent differences of this many samples.
MONO_SAMPLES = 401
MONO_TOL = 1e-12
# check_harmonic_sm_subgrid_first tries every 4th sample per axis first:
# 11x11x6 of the default 41x41x21 grid, about 1/26 of its points.
SUBGRID_STRIDE = 4
# Grid shapes whose workspace (_workspace) each thread keeps; a certification
# uses one, the grid's, whose arrays also hold the stacked subgrids.
_WORKSPACE_SHAPES = 4
_WORKSPACES = threading.local()

# kind -> (parameter names, (min, max) children with None for no maximum,
# the parameter that must be > 0 or None).
_KINDS: dict[str, tuple[tuple[str, ...], tuple[int, int | None], str | None]] = {
    "linear": ((), (0, 0), None),
    "power": (("c", "p"), (0, 0), None),
    "s_power": (("b", "s", "c"), (0, 0), "s"),
    "scale": (("lam",), (1, 1), "lam"),
    "sum": ((), (2, None), None),
    "max": ((), (2, None), None),
    "compose": ((), (2, 2), None),
    "seq_limit": ((), (2, None), None),
    "abs_deriv_pow": (("q",), (1, 1), "q"),
}


def _require_sm(s: float, m: float) -> None:
    for name, x in (("s", s), ("m", m)):
        if isinstance(x, bool) or not (isinstance(x, (int, float)) and 0.0 < x <= 1.0):
            raise ParameterError(f"{name} must lie in (0, 1], got {x!r}")


def _real(x: object) -> object:
    """float(x), except that a bool stays one, for FunctionSpec to reject."""
    return x if isinstance(x, bool) else float(x)


def _pow(x: np.ndarray, e: float, out: np.ndarray | None) -> np.ndarray:
    """x ** e, computed in out when out is given.

    The in-place ``**=`` takes the fast paths of ``**`` (x ** 2.0 squares,
    x ** 0.5 takes the square root), so both give the same bits; x ** 1.0 is
    x, bit for bit, so that exponent copies x.
    """
    if out is None:
        return np.copy(x) if e == 1.0 else x ** e
    if x is not out:
        np.copyto(out, x)
    if e != 1.0:
        out **= e
    return out


def _at_input(rule, x: np.ndarray, fx):
    """rule(fx), fx = inner(x), with its EvaluationError named at the compose's input x."""
    try:
        return rule(fx)
    except EvaluationError as exc:
        hit = np.atleast_1d(fx) == exc.abscissa
        if not hit.any():
            raise
        at = float(np.atleast_1d(x)[hit][0])
        raise EvaluationError(f"compose is not finite at x={at!r} ({exc})", abscissa=at) from exc


@dataclass(frozen=True)
class FunctionSpec:
    """A closed-form function term on (domain_lo, inf).

    ``claimed_s`` / ``claimed_m`` record the class the constructor believes
    the function belongs to; they are advisory metadata that grid checks can
    confirm or refute, never trusted on their own.
    """

    kind: str
    params: tuple[tuple[str, float], ...] = ()
    children: tuple["FunctionSpec", ...] = ()
    domain_lo: float = 0.0
    claimed_s: float | None = None
    claimed_m: float | None = None

    def __post_init__(self) -> None:
        if self.kind not in _KINDS:
            raise ParameterError(f"unknown FunctionSpec kind {self.kind!r}")
        param_names, arity, positive = _KINDS[self.kind]
        names = tuple(k for k, _ in self.params)
        if names != param_names:
            raise ParameterError(f"{self.kind} expects params {param_names}, got {names}")
        for name, val in self.params:
            if isinstance(val, bool) or not (isinstance(val, (int, float)) and math.isfinite(val)):
                raise ParameterError(f"{self.kind} param {name}={val!r} must be a finite real")
        n = len(self.children)
        if n < arity[0] or (arity[1] is not None and n > arity[1]):
            raise ParameterError(f"{self.kind} takes {arity} children, got {n}")
        if not (math.isfinite(self.domain_lo) and self.domain_lo >= 0.0):
            raise ParameterError(f"domain_lo must be finite and >= 0, got {self.domain_lo!r}")
        if positive is not None and self.param(positive) <= 0.0:
            raise ParameterError(
                f"{self.kind} requires {positive} > 0, got {self.param(positive)!r}"
            )
        for name, val in (("claimed_s", self.claimed_s), ("claimed_m", self.claimed_m)):
            if val is not None and not (0.0 < val <= 1.0):
                raise ParameterError(f"{name} must lie in (0, 1], got {val!r}")
        # A claimed s_power must have nonnegative coefficients, otherwise
        # the claim is structurally wrong regardless of grid evidence.
        if self.kind == "s_power" and self.claimed_s is not None:
            if self.param("b") < 0.0 or self.param("c") < 0.0:
                raise ParameterError("claimed s_power requires b >= 0 and c >= 0")

    def param(self, name: str) -> float:
        for key, val in self.params:
            if key == name:
                return val
        raise ParameterError(f"{self.kind} has no param {name!r}")

    def _evaluate(self, x: float | np.ndarray, what: str, rule) -> float | np.ndarray:
        """rule(x) on the domain, with numpy's floating-point warnings off; a
        result that is not finite raises EvaluationError at the first such x
        (a sub-term's own EvaluationError names the point it was given, and
        abs_deriv_pow's rule, which takes f' unchecked, re-runs f' checked).
        """
        arr = self._in_domain(x, what)
        with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
            out = rule(arr)
        if not np.isfinite(out).all():
            if self.kind == "abs_deriv_pow":
                f = self.children[0]
                f._evaluate(arr, "derivative", f._deriv)
            at = float(arr[~np.isfinite(out)][0])
            raise EvaluationError(f"{self.kind} {what} is not finite at x={at!r}", abscissa=at)
        return float(out) if arr.ndim == 0 else out

    def _in_domain(self, x: float | np.ndarray, what: str) -> np.ndarray:
        """x as a float array, or DomainError at its least x outside the domain
        (and abs_deriv_pow's child's, where narrower: f' runs unchecked)."""
        arr = np.asarray(x, dtype=float)
        if not (arr > self.domain_lo).all():
            raise DomainError(f"{what} of {self.kind} spec requires x > {self.domain_lo}, "
                              f"got x={float(arr[~(arr > self.domain_lo)].min())!r}")
        if self.kind == "abs_deriv_pow" and self.children[0].domain_lo > self.domain_lo:
            self.children[0]._in_domain(arr, "derivative")
        return arr

    def value(self, x: float | np.ndarray) -> float | np.ndarray:
        return self._evaluate(x, "value", self._value)

    def _value(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.kind == "linear":
            return np.add(x, 0.0, out=out)
        if self.kind == "power":
            return np.multiply(self.param("c"), _pow(x, self.param("p"), out), out=out)
        if self.kind == "s_power":
            scaled = np.multiply(self.param("b"), _pow(x, self.param("s"), out), out=out)
            return np.add(scaled, self.param("c"), out=out)
        if self.kind == "scale":
            return self.param("lam") * self.children[0].value(x)
        if self.kind == "sum":
            total = self.children[0].value(x)
            for child in self.children[1:]:
                total = total + child.value(x)
            return np.asarray(total, dtype=float)
        if self.kind == "max":
            vals = [np.asarray(child.value(x), dtype=float) for child in self.children]
            return np.maximum.reduce(vals)
        if self.kind == "compose":
            outer, inner = self.children
            return np.asarray(_at_input(outer.value, x, inner.value(x)), dtype=float)
        if self.kind == "seq_limit":
            return np.asarray(self.limit.value(x), dtype=float)
        if self.kind == "abs_deriv_pow":  # f' unchecked: see _evaluate and _in_domain
            deriv = self.children[0]._deriv(x, out=out)
            return _pow(np.abs(deriv, out=out), self.param("q"), out)
        raise ParameterError(f"unknown kind {self.kind!r}")

    def deriv(self, x: float | np.ndarray) -> float | np.ndarray:
        return self._evaluate(x, "derivative", self._deriv)

    def _deriv(self, x: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
        if self.kind == "linear":
            if out is None:
                return np.ones_like(x)
            out.fill(1.0)
            return out
        if self.kind == "power":
            c, p = self.param("c"), self.param("p")
            return np.multiply(c * p, _pow(x, p - 1.0, out), out=out)
        if self.kind == "s_power":
            b, s = self.param("b"), self.param("s")
            return np.multiply(b * s, _pow(x, s - 1.0, out), out=out)
        if self.kind == "scale":
            return self.param("lam") * self.children[0].deriv(x)
        if self.kind == "sum":
            total = self.children[0].deriv(x)
            for child in self.children[1:]:
                total = total + child.deriv(x)
            return np.asarray(total, dtype=float)
        if self.kind == "compose":
            outer, inner = self.children
            outer_deriv = _at_input(outer.deriv, x, inner.value(x))
            return np.asarray(outer_deriv * inner.deriv(x), dtype=float)
        if self.kind == "seq_limit":
            return np.asarray(self.limit.deriv(x), dtype=float)
        raise EvaluationError(f"{self.kind} spec has no derivative evaluator")

    @property
    def members(self) -> tuple["FunctionSpec", ...]:
        if self.kind != "seq_limit":
            raise ParameterError("members is defined only for seq_limit specs")
        return self.children[:-1]

    @property
    def limit(self) -> "FunctionSpec":
        if self.kind != "seq_limit":
            raise ParameterError("limit is defined only for seq_limit specs")
        return self.children[-1]


def linear() -> FunctionSpec:
    """f(x) = x, harmonically (s,m)-convex for every s, m in (0, 1]."""
    return FunctionSpec(kind="linear", claimed_s=1.0, claimed_m=1.0)


def power(c: float, p: float) -> FunctionSpec:
    """f(x) = c * x**p on (0, inf)."""
    claimed = (1.0, 1.0) if (c >= 0.0 and p >= 1.0) else (None, None)
    return FunctionSpec(
        kind="power",
        params=(("c", _real(c)), ("p", _real(p))),
        claimed_s=claimed[0],
        claimed_m=claimed[1],
    )


def s_power(b: float, s: float, c: float) -> FunctionSpec:
    """f(x) = b * x**s + c on (0, inf); claims class (s, 1) when b, c >= 0."""
    claimed_s = float(s) if (b >= 0.0 and c >= 0.0 and 0.0 < s <= 1.0) else None
    return FunctionSpec(
        kind="s_power",
        params=(("b", _real(b)), ("s", _real(s)), ("c", _real(c))),
        claimed_s=claimed_s,
        claimed_m=1.0 if claimed_s is not None else None,
    )


def abs_deriv_pow(f: FunctionSpec, q: float) -> FunctionSpec:
    """g(x) = |f'(x)|**q, the shape whose convexity class gates the bounds."""
    return FunctionSpec(
        kind="abs_deriv_pow",
        params=(("q", q),),
        children=(f,),
        domain_lo=f.domain_lo,
    )


def _common_claim(specs: tuple[FunctionSpec, ...]) -> tuple[float | None, float | None]:
    ss = [sp.claimed_s for sp in specs]
    ms = [sp.claimed_m for sp in specs]
    if any(v is None for v in ss) or any(v is None for v in ms):
        return None, None
    if len(set(ms)) != 1:
        # Classes with different m do not combine; t**s is monotone in s so
        # only the s slot admits a min rule.
        return None, None
    return min(ss), ms[0]


def combine(
    op: str,
    inputs: list[FunctionSpec] | tuple[FunctionSpec, ...],
    *,
    lam: float | None = None,
    limit: FunctionSpec | None = None,
) -> FunctionSpec:
    """Build a composite FunctionSpec whose claimed class follows the
    closure rule for ``op``.

    max and sum keep the common m and claim s = min over inputs; scale(lam)
    with lam > 0 keeps the class; compose([g, f]) claims g's s with the
    common m (hypotheses: g nondecreasing and (s,m)-convex on f's range, f
    harmonically m-convex); seq_limit claims the members' common class for
    the supplied pointwise limit.  Claims are advisory: confirm them with
    check_harmonic_sm.
    """
    specs = tuple(inputs)
    if op in ("max", "sum"):
        if len(specs) < 2:
            raise ParameterError(f"{op} needs at least two inputs")
        cs, cm = _common_claim(specs)
        lo = max(sp.domain_lo for sp in specs)
        return FunctionSpec(kind=op, children=specs, domain_lo=lo, claimed_s=cs, claimed_m=cm)
    if op == "scale":
        if len(specs) != 1:
            raise ParameterError("scale takes exactly one input")
        if not (isinstance(lam, (int, float)) and math.isfinite(lam)):
            raise ParameterError(f"scale requires a finite factor, got {lam!r}")
        f = specs[0]
        return FunctionSpec(
            kind="scale",
            params=(("lam", _real(lam)),),
            children=(f,),
            domain_lo=f.domain_lo,
            claimed_s=f.claimed_s,
            claimed_m=f.claimed_m,
        )
    if op == "compose":
        if len(specs) != 2:
            raise ParameterError("compose takes exactly [outer, inner]")
        outer, inner = specs
        cs = cm = None
        if (
            outer.claimed_s is not None
            and outer.claimed_m is not None
            and inner.claimed_m == outer.claimed_m
        ):
            cs, cm = outer.claimed_s, outer.claimed_m
        return FunctionSpec(
            kind="compose",
            children=specs,
            domain_lo=inner.domain_lo,
            claimed_s=cs,
            claimed_m=cm,
        )
    if op == "seq_limit":
        if limit is None:
            raise ParameterError("seq_limit requires the pointwise limit spec")
        if len(specs) < 1:
            raise ParameterError("seq_limit needs at least one member")
        cs, cm = _common_claim(specs)
        lo = max(max(sp.domain_lo for sp in specs), limit.domain_lo)
        return FunctionSpec(
            kind="seq_limit",
            children=specs + (limit,),
            domain_lo=lo,
            claimed_s=cs,
            claimed_m=cm,
        )
    raise ParameterError(f"unknown combine op {op!r}")


@dataclass(frozen=True)
class GridSpec:
    """Rectangular sample grid for (x, y, t) over [lo, hi] x [lo, hi] x [0, 1]."""

    nx: int = 41
    ny: int = 41
    nt: int = 21
    lo: float = 1.0
    hi: float = 2.0

    def __post_init__(self) -> None:
        for name, n in (("nx", self.nx), ("ny", self.ny), ("nt", self.nt)):
            if not (isinstance(n, int) and n >= 2):
                raise ParameterError(f"{name} must be an int >= 2, got {n!r}")
        if not (
            all(type(v) is not bool and isinstance(v, (int, float)) for v in (self.lo, self.hi))
            and math.isfinite(self.lo)
            and math.isfinite(self.hi)
            and 0.0 < self.lo < self.hi
        ):
            raise ParameterError(
                f"grid interval needs 0 < lo < hi, got [{self.lo!r}, {self.hi!r}]"
            )

    def refined(self) -> "GridSpec":
        """Twice as many samples on every axis, same interval."""
        return replace(self, nx=2 * self.nx, ny=2 * self.ny, nt=2 * self.nt)


@dataclass(frozen=True)
class ConvexityReport:
    """Grid verdict: holds iff worst_defect <= DEFECT_TOL."""

    holds: bool
    worst_defect: float
    witness: tuple[float, float, float]
    checked: int


def harmonic_sm_defect(
    f: FunctionSpec, x: float, y: float, t: float, s: float, m: float
) -> float:
    """Signed defect of the harmonic (s,m)-convexity inequality at one point.

    Returns f(m*x*y/(m*t*y+(1-t)*x)) - t**s*f(x) - m*(1-t)**s*f(y) (``_defect``
    on one-point axes); the inequality holds at (x, y, t) exactly when this is <= 0.
    """
    _require_sm(s, m)
    if not (0.0 <= t <= 1.0):
        raise ParameterError(f"t must lie in [0, 1], got {t!r}")
    if not (x > f.domain_lo and y > f.domain_lo):
        raise DomainError(f"x and y must exceed domain_lo={f.domain_lo}, got {x!r}, {y!r}")
    xs, ys, ts = (np.array([v], dtype=float) for v in (x, y, t))
    return float(_defect(f, s, m, xs, ys, ts, harmonic=True)[0, 0, 0])


def _workspace(shape: tuple[int, ...]) -> tuple[np.ndarray, np.ndarray]:
    """This thread's two scratch arrays of the given grid shape.

    They live across calls, so a certification allocates no grid-sized
    array: freed arrays of that size go back to the kernel, and each new
    one is page-faulted in again.  Each thread keeps its own, as numpy
    releases the GIL inside large ufuncs, for its _WORKSPACE_SHAPES most
    recently used shapes.
    """
    cache = getattr(_WORKSPACES, "cache", None)
    if cache is None:
        cache = _WORKSPACES.cache = {}
    work = cache.pop(shape, None)
    if work is None:
        work = (np.empty(shape), np.empty(shape))
        if len(cache) >= _WORKSPACE_SHAPES:
            del cache[next(iter(cache))]  # the least recently used shape
    cache[shape] = work
    return work


def _grid_axes(grid: GridSpec) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """The grid's x, y and t axes; x and y are one array when nx == ny."""
    xs = np.linspace(grid.lo, grid.hi, grid.nx)
    ys = xs if grid.ny == grid.nx else np.linspace(grid.lo, grid.hi, grid.ny)
    return xs, ys, np.linspace(0.0, 1.0, grid.nt)


def _axis_values(f: FunctionSpec, xs: np.ndarray, ys: np.ndarray) -> tuple | None:
    """(f(xs), f(ys)), one evaluation when xs is ys; None where f.value
    raises, so that each verdict evaluates f on the sub-axes it reads."""
    try:
        fx = f.value(xs)
        return fx, (fx if ys is xs else f.value(ys))
    except (DomainError, EvaluationError):
        return None


def _combination(m: float | np.ndarray, X, Y, T, harmonic: bool, out: np.ndarray) -> np.ndarray:
    """The point of the defining inequality at the broadcast axes, written into out.

    Its sum is a copy of the x-term plus an in-place add of the y-term, whose
    (y, t) block is contiguous, so numpy adds it in one inner loop (a sum of
    two broadcast operands runs one loop per t row); addition commutes, so
    every element keeps its bits.
    """
    if harmonic:  # m*X*Y / (m*T*Y + (1-T)*X)
        np.copyto(out, (1.0 - T) * X)
        out += m * T * Y
        return np.divide(m * X * Y, out, out=out)
    np.copyto(out, T * X)  # T*X + m*(1-T)*Y
    out += m * (1.0 - T) * Y
    return out


def _defect(
    f: FunctionSpec,
    s: float | list[float],
    m: float | list[float],
    xs: np.ndarray,
    ys: np.ndarray,
    ts: np.ndarray,
    harmonic: bool,
    work: tuple[np.ndarray, np.ndarray] | None = None,
    values: tuple | None = None,
) -> np.ndarray:
    """Signed defect over the product of the given axes, shape (x, y, t).

    Stacked, with xs and ys one row per candidate and s and m one value
    each, it is every candidate's defect over its own product, shape
    (candidate, x, y, t).  Every entry depends only on its own (x, y, t), s
    and m, so the defect over sub-axes is the matching sub-array of the
    defect over the full axes, and a stacked row is the defect that
    candidate gets alone: t**s and (1-t)**s are taken once per distinct s,
    at that scalar exponent, as the unstacked defect takes them.
    ``work``, two float arrays (A, B) of that shape, takes every grid-sized
    intermediate: the combination in A, f of it in B, the right-hand side
    in A, and the defect in B, which is returned.  Without it both are
    allocated here, so the result is a fresh array.  ``values`` are (f(xs),
    f(ys)) as _axis_values gives them; None, f is evaluated on xs and ys here.
    f of the combination is unchecked but for its domain: a value that is
    not finite makes the defect not finite, and only then does f run checked.
    """
    X = xs[..., :, None, None]
    Y = ys[..., None, :, None]
    T = ts
    if xs.ndim == 1:
        M, Ts, Us = m, T**s, (1.0 - T) ** s
    else:
        M = np.array(m)[:, None, None, None]
        powers = {e: (T**e, (1.0 - T) ** e) for e in set(s)}
        Ts, Us = np.array([powers[e] for e in s]).transpose(1, 0, 2)[:, :, None, None, :]
    if work is None:
        shape = (*xs.shape, ys.shape[-1], len(ts))
        work = (np.empty(shape), np.empty(shape))
    A, B = work
    with np.errstate(over="ignore", invalid="ignore", divide="ignore"):
        combination = _combination(M, X, Y, T, harmonic, A)
        fx, fy = (f.value(xs), f.value(ys)) if values is None else values
        fx = np.asarray(fx, dtype=float)[..., :, None, None]
        fy = np.asarray(fy, dtype=float)[..., None, :, None]
        f_comb = f._value(f._in_domain(combination, "value"), out=B)
        np.copyto(A, Ts * fx)  # t**s f(x) + m (1-t)**s f(y), summed as in _combination
        A += M * Us * fy
        defect = np.subtract(f_comb, A, out=B)
        if not np.isfinite(defect).all():
            f._evaluate(_combination(M, X, Y, T, harmonic, A), "value", f._value)
            raise EvaluationError("grid defect evaluation produced non-finite values")
    return defect


def _check_grid_args(f: FunctionSpec, s: float, m: float, grid: GridSpec) -> None:
    _require_sm(s, m)
    if not grid.lo > f.domain_lo:
        raise DomainError(
            f"grid interval [{grid.lo}, {grid.hi}] must sit above domain_lo={f.domain_lo}"
        )


def _report(
    f: FunctionSpec, s: float, m: float, axes: tuple, harmonic: bool,
    values: tuple | None = None,
) -> ConvexityReport:
    """Grid verdict over the product of the given axes.

    ``values`` are f on the x and y axes, as _defect takes them.

    The defect is computed in this thread's workspace for the grid's shape
    (_workspace); only its maximum, the maximizer's index and the witness
    leave this call, so no workspace array escapes.
    """
    defect = _defect(f, s, m, *axes, harmonic, _workspace(tuple(map(len, axes))), values)
    # C-order argmax returns the first maximizer, which is the
    # lexicographically smallest (x, y, t) witness.
    index = np.unravel_index(int(np.argmax(defect)), defect.shape)
    worst = float(defect[index])
    return ConvexityReport(
        holds=worst <= DEFECT_TOL, worst_defect=worst,
        witness=tuple(float(ax[i]) for ax, i in zip(axes, index)), checked=defect.size,
    )


def check_harmonic_sm(f: FunctionSpec, s: float, m: float, grid: GridSpec) -> ConvexityReport:
    """Grid verdict for harmonic (s,m)-convexity over grid's interval."""
    _check_grid_args(f, s, m, grid)
    return _report(f, s, m, _grid_axes(grid), harmonic=True)


def check_plain_sm(f: FunctionSpec, s: float, m: float, grid: GridSpec) -> ConvexityReport:
    """Grid verdict for plain (s,m)-convexity (combination t*x + m*(1-t)*y)."""
    _check_grid_args(f, s, m, grid)
    return _report(f, s, m, _grid_axes(grid), harmonic=False)


def check_harmonic_sm_subgrid_first(
    f: FunctionSpec, s: float, m: float, grid: GridSpec
) -> ConvexityReport:
    """check_harmonic_sm's verdict, tried first on every SUBGRID_STRIDE-th
    sample of each grid axis.

    When the subgrid already refutes, its report is returned (holds False,
    worst defect and witness over the subgrid's points only); otherwise the
    report is check_harmonic_sm(f, s, m, grid)'s.  This is _subgrid_first
    with one candidate: each subgrid defect is bit for bit the grid's
    defect at that point, and where f raises on the axes, a point outside
    the subgrid raises only when the full grid runs.
    """
    (report,) = _subgrid_first(f, [(s, m, grid)])
    return report()


def _subgrid_first(f: FunctionSpec, candidates: list) -> list:
    """check_harmonic_sm_subgrid_first of f at each (s, m, grid) candidate,
    the grids of one shape: one call per candidate, in order, that returns
    its report.

    Every x axis is a row of one np.linspace over the stacked interval
    ends, f is evaluated on all of them once (_axis_values), and every
    subgrid defect is computed in one stacked _defect pass, in this
    thread's workspace for the grid shape where the stack fits (48 default
    subgrids, 34,848 points, fit its 35,301).  Each row is the one the
    candidate gets alone, so every report keeps its bits.  A refuted
    candidate's call returns its subgrid report, from a row-wise argmax;
    any other's computes its full grid from its own rows of the axes and
    values when called.  Where f raises on the axes, each grid evaluates f
    on its own axes.  Whatever the stacked pass raises propagates; for one
    candidate it is what check_harmonic_sm_subgrid_first has to raise.
    """
    for s, m, grid in candidates:
        _check_grid_args(f, s, m, grid)
    grid = candidates[0][2]
    shape = (grid.nx, grid.ny, grid.nt)
    lo, hi = [g.lo for _, _, g in candidates], [g.hi for _, _, g in candidates]
    xs = np.linspace(lo, hi, grid.nx, axis=1)
    ys = xs if grid.ny == grid.nx else np.linspace(lo, hi, grid.ny, axis=1)
    ts = np.linspace(0.0, 1.0, grid.nt)
    values = _axis_values(f, xs, ys)
    k = SUBGRID_STRIDE
    sub = (xs[:, ::k], ys[:, ::k], ts[::k])
    stack = (len(candidates), sub[0].shape[1], sub[1].shape[1], len(sub[2]))
    size, checked = math.prod(stack), math.prod(stack[1:])
    work = None if size > math.prod(shape) else tuple(
        w.reshape(-1)[:size].reshape(stack) for w in _workspace(shape))
    defect = _defect(f, [c[0] for c in candidates], [c[1] for c in candidates], *sub, True,
                     work, None if values is None else tuple(v[:, ::k] for v in values))
    flat = defect.reshape(len(candidates), -1)
    best = flat.argmax(axis=1)  # each row's first maximizer: its smallest (x, y, t) witness
    worst = flat[np.arange(len(candidates)), best].tolist()
    at = zip(*np.unravel_index(best, stack[1:]))
    calls = []
    for i, ((s, m, _), (ix, iy, it)) in enumerate(zip(candidates, at)):
        if worst[i] <= DEFECT_TOL:
            rows = None if values is None else (values[0][i], values[1][i])
            calls.append(partial(_report, f, s, m, (xs[i], ys[i], ts), True, rows))
        else:
            witness = (float(sub[0][i, ix]), float(sub[1][i, iy]), float(sub[2][it]))
            calls.append(partial(ConvexityReport, False, worst[i], witness, checked))
    return calls


@dataclass(frozen=True)
class Classification:
    monotone: str  # "nondecreasing" | "nonincreasing" | "neither"
    sm_convex: bool
    harmonic_sm_convex: bool


def classify(f: FunctionSpec, s: float, m: float, grid: GridSpec) -> Classification:
    """Monotonicity plus plain and harmonic (s,m)-convexity grid verdicts.

    The two verdicts feed the implication pair: nondecreasing plain-convex
    functions are harmonically convex of the same class, and nonincreasing
    harmonically convex functions are plain convex of the same class.
    Constant functions report "nondecreasing".
    """
    _require_sm(s, m)
    xs = np.linspace(grid.lo, grid.hi, MONO_SAMPLES)
    vals = np.asarray(f.value(xs), dtype=float)
    diffs = np.diff(vals)
    nondecr = bool(np.all(diffs >= -MONO_TOL))
    nonincr = bool(np.all(diffs <= MONO_TOL))
    if nondecr:
        monotone = "nondecreasing"
    elif nonincr:
        monotone = "nonincreasing"
    else:
        monotone = "neither"
    plain = check_plain_sm(f, s, m, grid)
    harmonic = check_harmonic_sm(f, s, m, grid)
    return Classification(
        monotone=monotone,
        sm_convex=plain.holds,
        harmonic_sm_convex=harmonic.holds,
    )


@dataclass(frozen=True)
class ReflectionWitness:
    t: float
    lhs: float
    rhs: float
    holds: bool


def reflection_witness(
    f: FunctionSpec, a: float, b: float, s: float, m: float, x: float
) -> ReflectionWitness:
    """One-point reflection inequality for a harmonically (s,m)-convex f.

    Writes x = t*a + (1-t)*b with t = (b-x)/(b-a) and compares
    f(a*b/(a+b-x)) against t**s*(f(a)+f(b)) + m*(1-t)**s*(f(a/m)+f(b/m))
    - f(a*b/x); it holds when lhs <= rhs + DEFECT_TOL.  The caller
    certifies the convexity hypothesis.
    """
    _require_sm(s, m)
    if not (0.0 < a < b):
        raise ParameterError(f"need 0 < a < b, got a={a!r}, b={b!r}")
    if not (a <= x <= b):
        raise ParameterError(f"x must lie in [{a}, {b}], got {x!r}")
    t = (b - x) / (b - a)
    lhs = f.value(a * b / (a + b - x))
    rhs = (
        t**s * (f.value(a) + f.value(b))
        + m * (1.0 - t) ** s * (f.value(a / m) + f.value(b / m))
        - f.value(a * b / x)
    )
    return ReflectionWitness(t=t, lhs=lhs, rhs=rhs, holds=lhs <= rhs + DEFECT_TOL)


@dataclass(frozen=True)
class CorpusEntry:
    """A function family with its analytically certified class region.

    ``universal`` families are harmonically (s,m)-convex for every
    s, m in (0, 1].  Otherwise the certificate covers m = 1 with
    s <= ``m1_max_s`` only.
    """

    name: str
    spec: FunctionSpec
    lo: float
    hi: float
    universal: bool
    m1_max_s: float

    def certifies(self, s: float, m: float) -> bool:
        _require_sm(s, m)
        if self.universal:
            return True
        return m == 1.0 and s <= self.m1_max_s + 1e-12


def _corpus() -> tuple[CorpusEntry, ...]:
    # x**r with r >= 1 and nonnegative scale is in every (s, m) class: the
    # harmonic mean is below the arithmetic mean, Jensen handles r >= 1, and
    # t <= t**s lifts the weights.  For m = 1 the weaker x**r with r in
    # (0, 1) certifies s <= r via subadditivity of u -> u**r, reciprocal
    # powers x**-r map to the same rule through u = 1/x, and nonnegative
    # constants need t**s + (1-t)**s >= 1.
    sqrt_spec = s_power(1.0, 0.5, 0.0)
    square = power(1.0, 2.0)
    return (
        CorpusEntry("identity", linear(), 0.5, 3.0, True, 1.0),
        CorpusEntry("square", square, 0.5, 3.0, True, 1.0),
        CorpusEntry("cube_scaled", power(2.0, 3.0), 0.5, 3.0, True, 1.0),
        CorpusEntry("p15", power(0.5, 1.5), 0.5, 3.0, True, 1.0),
        CorpusEntry("quartic", power(1.0, 4.0), 0.5, 2.5, True, 1.0),
        CorpusEntry("sqrt", sqrt_spec, 0.5, 3.0, False, 0.5),
        CorpusEntry("sqrt_shift", s_power(2.0, 0.5, 1.0), 0.5, 3.0, False, 0.5),
        CorpusEntry("const", s_power(0.0, 1.0, 1.0), 0.5, 3.0, False, 1.0),
        CorpusEntry("recip", power(1.0, -1.0), 0.5, 3.0, False, 1.0),
        CorpusEntry("inv_sqrt", power(1.0, -0.5), 0.5, 3.0, False, 0.5),
        CorpusEntry("sum_min_s", combine("sum", [sqrt_spec, linear()]), 0.5, 3.0, False, 0.5),
        CorpusEntry("max_pair", combine("max", [linear(), square]), 0.5, 3.0, True, 1.0),
        CorpusEntry("scaled_square", combine("scale", [square], lam=2.5), 0.5, 3.0, True, 1.0),
    )


PROPERTY_CORPUS: tuple[CorpusEntry, ...] = _corpus()

# (s, m) pairs exercised by the closure and implication suites.
SM_PAIRS: tuple[tuple[float, float], ...] = (
    (1.0, 1.0),
    (0.5, 1.0),
    (0.5, 0.5),
    (1.0, 0.5),
    (0.75, 0.3),
    (0.3, 0.75),
)


def parse_function_spec(text: str) -> FunctionSpec:
    """Parse the CLI spec grammar.

    Forms: ``linear``, ``power:c=<r>,p=<r>``, ``spower:b=<r>,s=<r>,c=<r>``,
    ``scale:<r>:<spec>``, ``sum:<spec>+<spec>``, ``max:<spec>|<spec>``.
    """
    text = text.strip()
    if not text:
        raise ParameterError("empty function spec")
    if text == "linear":
        return linear()
    if text.startswith("power:"):
        kv = _parse_params(text[len("power:"):], ("c", "p"), text)
        return power(kv["c"], kv["p"])
    if text.startswith("spower:"):
        kv = _parse_params(text[len("spower:"):], ("b", "s", "c"), text)
        return s_power(kv["b"], kv["s"], kv["c"])
    if text.startswith("scale:"):
        rest = text[len("scale:"):]
        head, sep, inner = rest.partition(":")
        if not sep:
            raise ParameterError(f"scale spec needs scale:<r>:<spec>, got {text!r}")
        lam = _parse_number(head, text)
        return combine("scale", [parse_function_spec(inner)], lam=lam)
    if text.startswith("sum:"):
        return _parse_binary(text[len("sum:"):], "+", "sum", text)
    if text.startswith("max:"):
        return _parse_binary(text[len("max:"):], "|", "max", text)
    raise ParameterError(f"unrecognized function spec {text!r}")


def _parse_number(token: str, ctx: str) -> float:
    try:
        val = float(token)
    except ValueError:
        raise ParameterError(f"bad number {token!r} in spec {ctx!r}") from None
    if not math.isfinite(val):
        raise ParameterError(f"non-finite number {token!r} in spec {ctx!r}")
    return val


def _parse_params(body: str, names: tuple[str, ...], ctx: str) -> dict[str, float]:
    parts = body.split(",")
    if len(parts) != len(names):
        raise ParameterError(f"expected params {names} in spec {ctx!r}")
    out: dict[str, float] = {}
    for part, name in zip(parts, names):
        key, sep, val = part.partition("=")
        if not sep or key != name:
            raise ParameterError(f"expected {name}=<r> in spec {ctx!r}, got {part!r}")
        out[name] = _parse_number(val, ctx)
    return out


def _parse_binary(body: str, sep: str, op: str, ctx: str) -> FunctionSpec:
    # Try each separator position; a '+' may also appear inside an exponent
    # like 1e+3, so accept the first split where both halves parse.
    idx = body.find(sep)
    while idx != -1:
        left, right = body[:idx], body[idx + 1:]
        try:
            return combine(op, [parse_function_spec(left), parse_function_spec(right)])
        except ParameterError:
            idx = body.find(sep, idx + 1)
    raise ParameterError(f"cannot split {op} spec {ctx!r}")


def format_function_spec(spec: FunctionSpec) -> str:
    """Inverse of parse_function_spec for the kinds the grammar covers."""
    if spec.kind == "linear":
        return "linear"
    if spec.kind == "power":
        return f"power:c={spec.param('c')!r},p={spec.param('p')!r}"
    if spec.kind == "s_power":
        return (
            f"spower:b={spec.param('b')!r},s={spec.param('s')!r},c={spec.param('c')!r}"
        )
    if spec.kind == "scale":
        return f"scale:{spec.param('lam')!r}:{format_function_spec(spec.children[0])}"
    if spec.kind in ("sum", "max"):
        sep = "+" if spec.kind == "sum" else "|"
        parts = [format_function_spec(child) for child in spec.children]
        # The grammar is binary; n-ary nodes fold to the right.
        out = parts[-1]
        for part in reversed(parts[:-1]):
            out = f"{spec.kind}:{part}{sep}{out}"
        return out
    raise ParameterError(f"{spec.kind} specs have no text syntax")
