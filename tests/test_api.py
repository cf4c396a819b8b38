"""The public API, pinned: the names of ``harmonia.__all__``, the
parameters of each public callable and the options of each CLI subcommand.

A change to any of them is a change to the API, so it has to edit one of the
tables below in plain sight.  Each signature is written as its parameter
names and kinds, without annotations or defaults: ``*`` opens the
keyword-only parameters, ``/`` closes the positional-only ones, and
``*args``/``**kwargs`` stand for themselves.
"""

from __future__ import annotations

import argparse
import ast
import inspect
from pathlib import Path

import harmonia
from harmonia.cli import _build_parser

ALL = [
    "AccuracyError", "BoundTerm", "CROSSCHECK_TOL", "CSV_COLUMNS", "Classification",
    "ConfigError", "ConvexityReport", "CorpusEntry", "DEFAULT_SETTINGS", "DEFECT_TOL",
    "DomainError", "EXPECTED_COEFFICIENT_ERRATA",
    "EvaluationError", "FunctionSpec", "GridSpec", "HarmoniaError", "IDENTITY_TOL",
    "IdentityCheck", "Instance", "KIND_FOR_INDEX", "KernelKind", "MARGIN_TOL", "PRESETS",
    "PROPERTY_CORPUS", "ParameterError", "PreconditionError", "QuadResult", "QuadSettings",
    "ReflectionWitness", "Row", "RunReport", "SCHEMA", "SM_PAIRS", "SweepConfig", "Verdict",
    "__version__", "abs_deriv_pow", "b1_b4", "b7_b10", "beta", "case_label",
    "certify_instance", "check_harmonic_sm", "check_identity", "check_plain_sm",
    "check_theorem", "classify", "closed_B", "combine", "corollary_rhs", "corrected_B",
    "crosscheck_B", "emit_report", "format_function_spec", "gamma",
    "generate_instances", "harmonic_sm_defect", "hyp2f1", "hyp2f1_euler",
    "integrate", "integrate_de", "kernel_oracle", "kernel_representation", "linear",
    "parse_function_spec", "power", "reflection_witness", "report_to_dict", "rule_deviation",
    "rule_deviation_as_printed", "run_sweep", "s_power", "simpson_theorem2_prefactor",
    "theorem1_rhs", "theorem2_rhs",
]

# Every public callable except the exception classes that keep the built-in
# constructor (HarmoniaError, ConfigError, DomainError, ParameterError,
# PreconditionError), whose signature the interpreter does not expose.
SIGNATURES = {
    # errors
    "AccuracyError": "message, **values",
    "EvaluationError": "message, abscissa",
    # quadrature
    "QuadResult": "value, err_estimate, evaluations, converged",
    "QuadSettings": "abs_tol, rel_tol, max_subdivisions",
    "integrate": "f, lo, hi, settings",
    "integrate_de": "f, lo, hi, settings",
    # specfun
    "beta": "a, b",
    "gamma": "x",
    "hyp2f1": "alpha, beta_, gamma_, z",
    "hyp2f1_euler": "alpha, beta_, gamma_, z",
    # convexity
    "Classification": "monotone, sm_convex, harmonic_sm_convex",
    "ConvexityReport": "holds, worst_defect, witness, checked",
    "CorpusEntry": "name, spec, lo, hi, universal, m1_max_s",
    "FunctionSpec": "kind, params, children, domain_lo, claimed_s, claimed_m",
    "GridSpec": "nx, ny, nt, lo, hi",
    "ReflectionWitness": "t, lhs, rhs, holds",
    "abs_deriv_pow": "f, q",
    "check_harmonic_sm": "f, s, m, grid",
    "check_plain_sm": "f, s, m, grid",
    "classify": "f, s, m, grid",
    "combine": "op, inputs, *, lam, limit",
    "format_function_spec": "spec",
    "harmonic_sm_defect": "f, x, y, t, s, m",
    "linear": "",
    "parse_function_spec": "text",
    "power": "c, p",
    "reflection_witness": "f, a, b, s, m, x",
    "s_power": "b, s, c",
    # identity
    "IdentityCheck": "lhs, rhs, abs_diff, tol, passed",
    "Instance": "a, b, s, m, q, lambda_, mu_, f",
    "check_identity": "inst, *, memo",
    "kernel_representation": "inst",
    "rule_deviation": "inst, *, memo",
    "rule_deviation_as_printed": "inst",
    # bounds
    "BoundTerm": "index, case, oracle, closed_form, rel_diff, status, bound",
    "KernelKind": "weight, factor, side",
    "Verdict": "theorem, lhs, rhs, margin, passed",
    "b1_b4": "mu_, lambda_",
    "b7_b10": "mu_, lambda_, p",
    "case_label": "index, inst",
    "certify_instance": "inst",
    "check_theorem": "inst, theorem, *, certificate, memo",
    "closed_B": "index, inst",
    "corollary_rhs": "inst, theorem",
    "corrected_B": "index, inst",
    "crosscheck_B": "index, inst, *, memo",
    "kernel_oracle": "kind, inst",
    "simpson_theorem2_prefactor": "p, as_printed",
    "theorem1_rhs": "inst",
    "theorem2_rhs": "inst",
    # harness
    "Row": "instance_id, family, a, b, s, m, q, lambda_, mu_, check, lhs, rhs, margin, passed",
    "RunReport": "config, instances, discarded, rows, errata, wall_time",
    "SweepConfig": "samples, rng_seed, a_range, b_minus_a_range, s_values, m_values, "
                   "q_values, lambda_mu, families",
    "emit_report": "report, format, destination",
    "generate_instances": "cfg",
    "report_to_dict": "report",
    "run_sweep": "cfg, jobs",
}


def _shape(obj) -> str:
    """obj's signature without annotations or defaults, as in SIGNATURES."""
    sig = inspect.signature(obj)
    bare = [p.replace(annotation=p.empty, default=p.empty) for p in sig.parameters.values()]
    return str(sig.replace(parameters=bare, return_annotation=sig.empty))[1:-1]


def _builtin_constructor(obj) -> bool:
    return isinstance(obj, type) and issubclass(obj, BaseException) and not inspect.isfunction(
        obj.__init__
    )


def test_all_is_pinned():
    assert sorted(harmonia.__all__) == ALL
    assert len(set(harmonia.__all__)) == len(harmonia.__all__)


def test_every_public_callable_is_pinned():
    callables = {
        name for name in harmonia.__all__
        if callable(getattr(harmonia, name)) and not _builtin_constructor(getattr(harmonia, name))
    }
    assert callables == set(SIGNATURES)


def test_signatures_are_pinned():
    got = {name: _shape(getattr(harmonia, name)) for name in SIGNATURES}
    assert got == SIGNATURES


# The only public functions that take a tolerance, a work budget or
# quadrature settings: the integrators, whose settings have two values in
# use.  Every verdict and every 2F1 reads the library's constants instead.
KNOBS = {
    "integrate": {"settings"},
    "integrate_de": {"settings"},
}


def _is_knob(name: str) -> bool:
    return name in ("tol", "budget", "settings") or name.endswith("_tol") or name.startswith("max_")


def test_only_the_primitives_take_a_tolerance_or_budget():
    got = {}
    for name in harmonia.__all__:
        obj = getattr(harmonia, name)
        if inspect.isfunction(obj):
            knobs = {p for p in inspect.signature(obj).parameters if _is_knob(p)}
            if knobs:
                got[name] = knobs
    assert got == KNOBS


# Each verdict constant and the one module whose rule reads it.  Every other
# module takes the verdict and its margin from that module's record, so
# restating a rule is one edit; ``__init__`` only re-exports the constant.
VERDICT_CONSTANTS = {
    "IDENTITY_TOL": "identity",
    "CROSSCHECK_TOL": "bounds",
    "MARGIN_TOL": "bounds",
    "DEFECT_TOL": "convexity",
}


def _names_used(tree: ast.Module, module: str) -> set[str]:
    """Every name, attribute and imported name in tree, except __init__'s re-exports."""
    used = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            used.add(node.attr)
        elif isinstance(node, ast.ImportFrom):
            used.update(
                alias.name for alias in node.names
                if not (module == "__init__" and VERDICT_CONSTANTS.get(alias.name) == node.module)
            )
    return used


def test_each_verdict_constant_is_read_in_its_home_module_only():
    readers = {name: set() for name in VERDICT_CONSTANTS}
    for path in Path(harmonia.__file__).parent.glob("*.py"):
        used = _names_used(ast.parse(path.read_text(encoding="utf-8")), path.stem)
        for name in used & set(VERDICT_CONSTANTS):
            readers[name].add(path.stem)
    assert readers == {name: {home} for name, home in VERDICT_CONSTANTS.items()}


def _calls(tree: ast.Module) -> set[str]:
    """The name of every function that tree calls by name or attribute."""
    return {
        node.func.id if isinstance(node.func, ast.Name) else node.func.attr
        for node in ast.walk(tree)
        if isinstance(node, ast.Call) and isinstance(node.func, (ast.Name, ast.Attribute))
    }


def test_one_module_sets_the_quadrature_accuracy():
    # Nothing in the library runs the tanh-sinh rule, and only quadrature
    # builds a QuadSettings (its DEFAULT_SETTINGS): every integral the
    # library takes meets that one accuracy target.
    callers = {"integrate_de": set(), "QuadSettings": set()}
    for path in Path(harmonia.__file__).parent.glob("*.py"):
        called = _calls(ast.parse(path.read_text(encoding="utf-8")))
        for name in called & set(callers):
            callers[name].add(path.stem)
    assert callers == {"integrate_de": set(), "QuadSettings": {"quadrature"}}


# convexity's grid machinery.  The sweep harness certifies each candidate
# with one bounds.certify_instance call and reaches none of it directly,
# so the subgrid prefilter and the grid it stands in front of have one home.
GRID_NAMES = {
    "GridSpec", "SUBGRID_STRIDE", "abs_deriv_pow", "check_harmonic_sm",
    "check_harmonic_sm_subgrid_first", "check_plain_sm", "classify", "harmonic_sm_defect",
    "_check_grid_args", "_defect", "_grid_axes", "_report",
}


def test_the_sweep_certifies_through_certify_instance_only():
    path = Path(harmonia.__file__).parent / "harness.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert "certify_instance" in _calls(tree)
    assert _names_used(tree, "harness") & GRID_NAMES == set()


def _raises_to_a_negated_power(node: ast.AST) -> bool:
    return any(
        isinstance(n, ast.BinOp) and isinstance(n.op, ast.Pow)
        and isinstance(n.right, ast.UnaryOp) and isinstance(n.right.op, ast.USub)
        for n in ast.walk(node)
    )


def test_the_kernel_integrand_is_written_once():
    # The kernel integrand (its A^-2q is bounds' only power with a negated
    # exponent) lives in one function, which both the one-kernel oracle and
    # the sweep's batched pass call, so the two cannot drift apart.
    path = Path(harmonia.__file__).parent / "bounds.py"
    tree = ast.parse(path.read_text(encoding="utf-8"))
    functions = {node.name: node for node in tree.body if isinstance(node, ast.FunctionDef)}
    writers = {name for name, node in functions.items() if _raises_to_a_negated_power(node)}
    assert writers == {"_kernel_values"}
    for caller in ("kernel_oracle", "_oracle_pass"):
        assert "_kernel_values" in _calls(functions[caller]), caller
        assert "_plan" in _calls(functions[caller]), caller


def test_only_the_quadrature_tests_call_the_tanh_sinh_rule():
    # Besides the library (above), no demo and no test but integrate_de's
    # own unit tests calls it, so removing the rule touches no other file.
    root = Path(__file__).resolve().parents[1]
    paths = [*(root / "demos").glob("*.py"), *(root / "tests").glob("*.py")]
    callers = {
        path.relative_to(root).as_posix() for path in paths
        if "integrate_de" in _calls(ast.parse(path.read_text(encoding="utf-8")))
    }
    assert callers == {"tests/test_quadrature.py"}

CLI_OPTIONS = {
    "check-convexity": "--f --s --m --lo --hi --grid",
    "verify-identity": "--f --a --b --lambda --mu --printed",
    "verify-bounds": "--theorem --f --a --b --s --m --q --lambda --mu --preset",
    "crosscheck": "--index --a --b --s --m --q --lambda --mu",
    "sweep": "--config --out --format --seed --jobs",
}


def test_cli_options_are_pinned():
    (subparsers,) = [
        action for action in _build_parser()._actions
        if isinstance(action, argparse._SubParsersAction)
    ]
    got = {
        command: " ".join(
            option for action in sub._actions for option in action.option_strings
            if option not in ("-h", "--help")
        )
        for command, sub in subparsers.choices.items()
    }
    assert got == CLI_OPTIONS
