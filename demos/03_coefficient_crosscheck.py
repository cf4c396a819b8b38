"""Closed-form coefficients vs defining-integral oracles.

Twelve weight-moment coefficients feed the two bound theorems.  The
elementary four (B1, B4, B7, B10) have simple polynomial closed forms; the
other eight are Beta/2F1 combinations whose circulated closed forms are
wrong in specific piecewise cases.  Each case was adjudicated against a
tanh-sinh oracle of the defining integral; the locked erratum set and the
hand-derived corrections both live in the library.  Every 2F1 in a closed
form is summed as its Gauss series with an error bound, so a closed form
whose terms cancel is reported as ill_conditioned, not as a misprint.

Run:  python3 demos/03_coefficient_crosscheck.py
"""

from dataclasses import replace

from harmonia import (
    Instance,
    KIND_FOR_INDEX,
    b1_b4,
    b7_b10,
    closed_B,
    corrected_B,
    crosscheck_B,
    kernel_oracle,
    linear,
)


def banner(text):
    print()
    print(text)
    print("-" * len(text))


def tag(term):
    """The status column: expected errata and the bound behind ill_conditioned."""
    if term.status == "ill_conditioned":
        return f"ill_conditioned (error bound {term.bound:.1e})"
    return term.status + (" (locked erratum)" if term.expected else "")


def main():
    inst = Instance(a=1.0, b=2.0, s=0.5, m=0.75, q=2.0,
                    lambda_=0.75, mu_=0.25, f=linear())
    p = inst.q / (inst.q - 1.0)

    banner("elementary moments: closed forms match oracles to machine precision")
    b1, b4 = b1_b4(inst.mu_, inst.lambda_)
    b7, b10 = b7_b10(inst.mu_, inst.lambda_, p)
    for index, closed in ((1, b1), (4, b4), (7, b7), (10, b10)):
        oracle = kernel_oracle(KIND_FOR_INDEX[index], inst)
        print(f"  B{index:<3} closed {closed:.12f}  oracle {oracle:.12f}  "
              f"|rel| {abs(closed - oracle) / oracle:.1e}")

    banner("full cross-check table at one instance (status vs the locked set)")
    for index in range(1, 13):
        term = crosscheck_B(index, inst)
        closed = "---" if term.closed_form is None else f"{term.closed_form:.8f}"
        print(f"  B{index:<3} {term.case:<10} oracle {term.oracle:.8f}  "
              f"closed {closed:<12} rel {term.rel_diff:.1e}  {tag(term)}")

    banner("cancellation is ill_conditioned, not an erratum")
    # At b/a ~ 50 and q = 4 the two terms of the printed B11 are ~1e9 times
    # its value: the gap to the oracle lies within the form's rounding bound.
    # A misprint of 1e-3 on the same form still stands out.
    far = Instance(a=0.1264001506117494, b=6.6668316096031415, s=0.75, m=1.0,
                   q=4.0, lambda_=0.8411103263737205, mu_=0.3367390116847893, f=linear())
    term = crosscheck_B(11, far)
    gap = abs(term.closed_form - term.oracle)
    print(f"  B11 oracle {term.oracle:.6e}  closed {term.closed_form:.6e}  "
          f"rel {term.rel_diff:.1e}  {tag(term)}")
    print(f"  |closed - oracle| {gap:.1e} <= bound {term.bound:.1e}; "
          f"a 1e-3 misprint would move it by {1e-3 * abs(term.closed_form):.1e}")

    banner("corrected forms repair every flagged case")
    for index in (2, 3, 5, 6, 8, 9, 11, 12):
        oracle = kernel_oracle(KIND_FOR_INDEX[index], inst)
        fixed = corrected_B(index, inst)
        print(f"  B{index:<3} corrected {fixed:.12f}  oracle {oracle:.12f}  "
              f"|rel| {abs(fixed - oracle) / oracle:.1e}")

    banner("the printed branches are not even mutually consistent")
    # a correct piecewise closed form is continuous where its cases meet;
    # the circulated displays jump at the meeting points
    base = Instance(a=1.0, b=2.0, s=0.5, m=0.75, q=1.5,
                    lambda_=0.75, mu_=0.25, f=linear())
    eps = 1e-9
    probes = (
        (3, "mu  ", replace(base, mu_=0.5), replace(base, mu_=0.5 - eps)),
        (5, "lam ", replace(base, lambda_=0.5), replace(base, lambda_=0.5 + eps)),
        (6, "lam ", replace(base, lambda_=1.0), replace(base, lambda_=1.0 - eps)),
    )
    for index, label, at, near in probes:
        printed_jump = abs(closed_B(index, near) - closed_B(index, at))
        fixed_jump = abs(corrected_B(index, near) - corrected_B(index, at))
        print(f"  B{index} across {label.strip()} boundary: printed jumps {printed_jump:.2e}, "
              f"corrected moves {fixed_jump:.1e}")


if __name__ == "__main__":
    main()
