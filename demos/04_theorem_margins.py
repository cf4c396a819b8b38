"""Checking the two bound theorems on certified instances.

Both theorems bound |I_f|, the deviation of a three-point quadrature rule
from the harmonic-weighted integral, in terms of |f'|^q evaluated at the
endpoints.  The hypothesis is that |f'|^q is harmonically (s,m)-convex on
[a, b/m]; grid certification gates every check, and the margin
rhs - |lhs| must come out nonnegative.

Run:  python3 demos/04_theorem_margins.py
"""

from dataclasses import replace

from harmonia import (
    Instance,
    PRESETS,
    PreconditionError,
    certify_instance,
    check_theorem,
    combine,
    power,
    s_power,
    theorem1_rhs,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def main():
    square = power(1.0, 2.0)

    banner("worked example: f(x)=x on [1,2], trapezoid weights, s=m=q=1")
    inst = Instance(a=1.0, b=2.0, s=1.0, m=1.0, q=1.0,
                    lambda_=0.5, mu_=0.5, f=power(1.0, 1.0))
    verdict = check_theorem(inst, 1)
    print(f"  lhs |I_f|  {verdict.lhs:.10f}")
    print(f"  rhs bound  {verdict.rhs:.10f}")
    print(f"  margin     {verdict.margin:.10f}  passed={verdict.passed}")

    banner("margins across the preset weight pairs (f=x^2, both theorems)")
    base = Instance(a=1.0, b=2.0, s=0.8, m=0.9, q=2.0,
                    lambda_=0.5, mu_=0.5, f=square)
    certificate = certify_instance(base)
    print(f"  hypothesis certified: {certificate.holds} "
          f"({certificate.checked} grid points)")
    for name, (lam, mu) in sorted(PRESETS.items()):
        tri = replace(base, lambda_=lam, mu_=mu)
        for theorem in (1, 2):
            v = check_theorem(tri, theorem, certificate=certificate)
            print(f"  {name:<10} theorem {theorem}  lhs {v.lhs:.6f}  "
                  f"rhs {v.rhs:.6f}  margin {v.margin:+.6f}")

    banner("the bound scales with f: |(c f)'|^q = c^q |f'|^q")
    rhs = theorem1_rhs(base)
    for c in (1.0, 2.0, 4.0):
        scaled = theorem1_rhs(replace(base, f=combine("scale", [square], lam=c)))
        print(f"  c = {c:g}  ->  rhs {scaled:.6f}  rhs(c f) / rhs(f) = {scaled / rhs:.12f}")

    banner("the hypothesis gate rejects uncertified instances")
    # |f'|^q of sqrt is 0.5/sqrt(x), outside the class at s=1
    bad = Instance(a=1.0, b=2.0, s=1.0, m=1.0, q=1.0,
                   lambda_=0.5, mu_=0.5, f=s_power(1.0, 0.5, 0.0))
    report = certify_instance(bad)
    print(f"  certification holds: {report.holds}")
    try:
        check_theorem(bad, 1)
    except PreconditionError as exc:
        print(f"  check_theorem -> PreconditionError: {exc}")
    # the same function is inside the class once s <= 1/2
    ok = replace(bad, s=0.5)
    v = check_theorem(ok, 1)
    print(f"  at s=0.5 instead: margin {v.margin:+.6f}  passed={v.passed}")


if __name__ == "__main__":
    main()
