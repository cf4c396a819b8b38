"""Gamma, Beta, and Gauss 2F1 with dual-path verification.

hyp2f1 returns the 2F1 that the coefficient closed forms of the bounds
read: a value with an error bound and no quadrature, the Gauss series below
z = 0.9 and above it the 1 - z connection formulas, which need a few dozen
terms where the series needs hundreds of thousands.  Every call also checks
that value against the Euler integral, taken by the Gauss-Jacobi product
rule of the kernel oracles: the two must agree to 1e-10 relative, and the
value's own bound must be within 1e-12, or the call raises with the numbers
attached.  Those limits are library constants that no call re-sets.  Gamma
is the standard library's math.gamma, and Beta, built on math.lgamma, is
exactly symmetric.

Run:  python3 demos/06_specfun_tour.py
"""

import math

from harmonia import (
    AccuracyError,
    beta,
    gamma,
    hyp2f1,
    hyp2f1_euler,
    specfun,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    banner("gamma: goldens and recurrence")
    for x, exact in ((1.0, 1.0), (5.0, 24.0), (0.5, math.sqrt(math.pi))):
        print(f"  gamma({x:g}) = {gamma(x):.15f}  exact {exact:.15f}")
    worst = max(abs(gamma(k / 10 + 1) - (k / 10) * gamma(k / 10)) / gamma(k / 10 + 1)
                for k in range(1, 101))
    print(f"  recurrence x*gamma(x)=gamma(x+1), x=0.1..10: worst rel {worst:.1e}")

    banner("beta: symmetry and the gamma identity")
    for a, b in ((1.0, 1.0), (2.0, 3.0), (1.3, 0.7)):
        viag = gamma(a) * gamma(b) / gamma(a + b)
        print(f"  beta({a:g},{b:g}) = {beta(a, b):.12f}  "
              f"gammas {viag:.12f}  swap diff {abs(beta(a, b) - beta(b, a)):.1e}")

    banner("2F1: both paths on a function with a closed form")
    # 2F1(1,2;3;z) = 2(-z - log(1-z))/z^2
    for z in (0.1, 0.5, 0.9):
        exact = 2.0 * (-z - math.log1p(-z)) / (z * z)
        euler = hyp2f1_euler(1.0, 2.0, 3.0, z)
        value, bound = specfun._hyp2f1_bounded(1.0, 2.0, 3.0, z)
        print(f"  z={z:.1f}  euler {euler:.12f}  bounded {value:.12f} "
              f"(bound {bound:.1e})  exact {exact:.12f}")

    banner("the checked front door compares the paths on every call")
    val = hyp2f1(4.0, 1.5, 3.5, 0.7)
    print(f"  hyp2f1(4, 1.5; 3.5; 0.7) = {val:.12f}  (paths agreed)")
    try:
        # q = 1.0000001: c - a - b is near an integer, so the series runs at z = 0.9999.
        hyp2f1(2.0000002, 1.0, 3.0, 0.9999)
    except AccuracyError as exc:
        print(f"  hyp2f1(2.0000002, 1; 3; 0.9999) -> AccuracyError: value "
              f"{exc.values['value']:.12f} with bound {exc.values['bound']:.1e}")

    banner("near z = 1 the closed forms take a connection formula")
    # F(6, 1; 2.5; 1 - 1e-4): the first 2F1 of B11 at b/a = 1e4, q = 3, s = 0.5.
    # The connection path's terms include those of F'(z), which its bound reads.
    args = (6.0, 1.0, 2.5, 0.9999)
    for path, (value, err, _, terms) in (
        ("Gauss series", specfun._series_bounded(*args)),
        ("connection (DLMF 15.8.4)", specfun._near_one(*args)),
    ):
        print(f"  {path:<25} {value:.15e}  bound {err / value:.1e}  {terms} terms")

    banner("the dual-path check is fixed")
    args = (2.0, 1.0, 2.5, 0.4)
    euler = hyp2f1_euler(*args)
    value, _ = specfun._hyp2f1_bounded(*args)
    print(f"  euler {euler:.15f}  bounded {value:.15f}")
    print(f"  rel gap {abs(euler - value) / euler:.1e} <= {specfun._AGREE_TOL:.0e}, "
          f"so hyp2f1 returns {hyp2f1(*args):.15f}")


if __name__ == "__main__":
    main()
