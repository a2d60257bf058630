"""Command-line interface: file ingestion, dispatch, report rendering.

Exit codes: 0 when every checked property holds (or a construction
succeeded), 1 when an emitted report carries a FAIL verdict, 2 for unusable
input or usage errors.  Documents go to standard output (or --out); logs go
to standard error.
"""

from __future__ import annotations

import argparse
import sys
from typing import TYPE_CHECKING

from . import __version__, bundles
from .algebras import central_elements, check_generalized, check_lsa, check_omega_lie
from .errors import (
    AxiomViolation,
    BundleFormatError,
    DimensionMismatch,
    EmptyDecomposition,
    EmptyParameterSpace,
)
from .linalg import Vector, rat_str
from .reports import Report

# Each command imports the modules of its kind where it runs: a process
# compiles only what its command uses.
if TYPE_CHECKING:
    from .yang_baxter import TwoTensor, YbeContext

# The kind of document each command reads: construct by recipe, verify by
# theorem, yb by option.  argparse takes its choices from here, and every
# document the CLI reads passes the kind gate with these kinds (_read).
KINDS = {
    "check": ("omega_lie", "generalized", "lsa", "representation", "gen_rep_pair",
              "o_operator", "two_tensor", "dual_pair", "solve_request"),
    "construct": {
        "dual-rep": "representation",
        "adjoint-pair": "omega_lie",
        "gen-dual": "gen_rep_pair",
        "semidirect": "representation",
        "double": "dual_pair",
        "cobracket": "omega_lie",
        "dual-from-r": "two_tensor",
        "lsa-from-o": "o_operator",
        "lift-o": "o_operator",
        "omega-lie-from-lsa": "lsa",
    },
    "verify": {"thm-3.8": "dual_pair", "thm-4.4": "two_tensor", "thm-5.18": "o_operator"},
    "yb": {"--algebra": "omega_lie", "--r-tensor": "two_tensor"},
    "solve": "solve_request",
}


class ToolkitConfig:
    def __init__(self, jac_scope: str = "all", central_rule: str = "center", solver: dict = None):
        self.__dict__.update(jac_scope=jac_scope, central_rule=central_rule, solver=solver)

    def __setattr__(self, name, value):
        raise AttributeError("ToolkitConfig is immutable")

    def meta(self) -> dict:
        return {
            "tool": f"omegalie {__version__}",
            "jac_scope": self.jac_scope,
            "central_rule": self.central_rule,
        }


def load_config(path: str) -> ToolkitConfig:
    doc = bundles.load_path(path)
    if not isinstance(doc, dict):
        raise BundleFormatError("config must be a JSON object")
    jac = doc.get("jac_delta_scope", "all")
    rule = doc.get("central_rule", "center")
    if jac not in ("all", "first"):
        raise BundleFormatError(f"unknown jac_delta_scope {jac!r}")
    if rule not in ("center", "zero"):
        raise BundleFormatError(f"unknown central_rule {rule!r}")
    return ToolkitConfig(jac_scope=jac, central_rule=rule, solver=doc.get("solver") or {})


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="omegalie",
        description="Exact checks and constructions for twisted Lie-type algebras, "
        "their doubles, and the twisted Yang-Baxter equation.",
    )
    parser.add_argument("--config", help="JSON config file (cyclic-sum scope, "
                        "central-element rule, solver defaults)")
    parser.add_argument("--deterministic", action="store_true",
                        help="pin the solver seed to 1")
    parser.add_argument("--out", help="write the output document to a file instead of stdout")
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="dispatch a bundle to the checker for its kind")
    p_check.add_argument("bundle", help="path to a JSON bundle")

    p_con = sub.add_parser("construct", help="build a derived object from a bundle")
    p_con.add_argument("recipe", choices=KINDS["construct"])
    p_con.add_argument("--in", dest="infile", required=True, help="input bundle path")
    p_con.add_argument("--c", dest="scale", default=None,
                       help="nonzero scale for omega-lie-from-lsa (default: bundle c field or 1)")

    p_yb = sub.add_parser("yb", help="residual-side computations for a two-tensor")
    p_yb.add_argument("operation", choices=("residual", "admissible", "lemma42", "bialgebra"))
    p_yb.add_argument("--algebra", required=True, help="omega_lie bundle path")
    p_yb.add_argument("--r-tensor", dest="r_tensor", required=True,
                      help="two_tensor bundle path")
    p_yb.add_argument("--u-r", dest="u_r", default=None,
                      help="distinguished element as comma-separated rationals")

    p_ver = sub.add_parser("verify", help="run a cross-check between independent routes")
    p_ver.add_argument("theorem", choices=KINDS["verify"])
    p_ver.add_argument("--in", dest="infile", required=True)

    p_solve = sub.add_parser("solve", help="numerical search for exact skew solutions")
    p_solve.add_argument("--in", dest="infile", required=True, help="solve_request bundle path")
    return parser


def _emit(doc: dict, out_path) -> None:
    text = bundles.dumps(doc)
    if out_path:
        try:
            with open(out_path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise BundleFormatError(f"cannot write {out_path}: {exc}") from None
    else:
        sys.stdout.write(text)


def _finish_report(report: Report, config: ToolkitConfig, out_path) -> int:
    report.meta.update(config.meta())
    _emit(report.to_document(), out_path)
    return 0 if report.passed else 1


def _failure_report(title: str, message: str) -> Report:
    report = Report(title)
    clause = report.clause("precondition")
    clause.add((), message, "satisfied")
    return report


def _read(path: str, *kinds: str) -> tuple:
    """The document at ``path`` and its parsed object, if its kind is one
    of ``kinds``."""
    doc = bundles.load_path(path)
    return doc, bundles.parse_any(doc, kinds)[1]


def _rep_operator(ob, what: str) -> tuple:
    """(algebra, representation, T) of an o_operator bundle whose operator
    acts through a representation, the only flavor ``what`` reads."""
    from .representations import Representation

    if not isinstance(ob.rep, Representation):
        raise BundleFormatError(f"{what} needs a representation-flavor operator")
    return ob.algebra, ob.rep, ob.t


def _tensor_context(bundle, what: str) -> YbeContext:
    """The Yang-Baxter context that a two_tensor bundle carries."""
    from .yang_baxter import YbeContext

    if bundle.algebra is None:
        raise BundleFormatError(f"{what} needs an algebra block in the tensor bundle")
    return YbeContext(bundle.algebra, bundle.u_r or Vector.zero(bundle.tensor.dim))


def _eligible(ctx: YbeContext, config: ToolkitConfig) -> YbeContext:
    """``ctx``, if its distinguished element lies in the pool of the
    configured central rule: the hypothesis of the Yang-Baxter constructions."""
    if not central_elements(ctx.algebra, config.central_rule).contains(ctx.u_r):
        raise BundleFormatError(f"u_r is not eligible under central_rule {config.central_rule!r}")
    return ctx


def _admissible(ctx: YbeContext, tensor: TwoTensor, config: ToolkitConfig) -> YbeContext:
    """``ctx``, if it is eligible and the components of ``tensor`` lie in the
    admissible subspace: the hypotheses of the Yang-Baxter bialgebra."""
    from .yang_baxter import check_r_admissible

    if not check_r_admissible(_eligible(ctx, config), tensor, config.central_rule).passed:
        raise BundleFormatError(
            "the tensor is not admissible: its components leave the admissible subspace"
        )
    return ctx


def _parse_u_r(arg: str, n: int) -> Vector:
    parts = [p.strip() for p in arg.split(",")]
    if len(parts) != n:
        raise BundleFormatError(f"--u-r needs {n} comma-separated rationals")
    return Vector([bundles._parse_rat(p) for p in parts])


def cmd_check(args, config: ToolkitConfig) -> int:
    doc, obj = _read(args.bundle, *KINDS["check"])
    kind = doc["kind"]
    if kind == "omega_lie":
        report = check_omega_lie(obj)
    elif kind == "generalized":
        report = check_generalized(obj)
    elif kind == "lsa":
        report = check_lsa(obj)
    elif kind == "representation":
        from .representations import check_representation

        report = check_representation(obj)
    elif kind == "gen_rep_pair":
        from .representations import check_gen_rep

        report = check_gen_rep(obj)
    elif kind == "o_operator":
        from .operators import check_o_operator, check_o_operator_gen
        from .representations import Representation

        if isinstance(obj.rep, Representation):
            report = check_o_operator(obj.algebra, obj.rep, obj.t)
        else:
            report = check_o_operator_gen(obj.algebra, obj.rep, obj.t)
    elif kind == "two_tensor":
        from .yang_baxter import check_r_admissible

        report = Report("two-tensor properties")
        skew = report.clause("skew-symmetric")
        if not obj.tensor.is_skew():
            skew.add((), obj.tensor.entries, (-obj.tensor.entries.transpose()))
        if obj.algebra is not None:
            ctx = _tensor_context(obj, "check")
            report.extend(check_r_admissible(ctx, obj.tensor, config.central_rule), "")
    elif kind == "dual_pair":
        from .bialgebra import check_dual_pair

        report = check_dual_pair(obj)
    else:  # solve_request
        from .solver import build_problem  # numpy: only commands that search load it

        report = Report("solve request")
        report.clause("well-formed")
        problem = build_problem(obj.algebra, obj.u_r, obj.options)
        report.meta["parameter_dim"] = problem.parameter_dim
    return _finish_report(report, config, args.out)


def cmd_construct(args, config: ToolkitConfig) -> int:
    recipe = args.recipe
    doc, obj = _read(args.infile, KINDS["construct"][recipe])
    try:
        if recipe == "dual-rep":
            from .representations import dual_representation

            out = bundles.representation_doc(dual_representation(obj))
        elif recipe == "adjoint-pair":
            from .representations import adjoint_pair

            out = bundles.gen_rep_pair_doc(adjoint_pair(obj))
        elif recipe == "gen-dual":
            from .representations import generalized_dual_pair

            out = bundles.gen_rep_pair_doc(generalized_dual_pair(obj))
        elif recipe == "semidirect":
            from .representations import semidirect_rep

            out = bundles.omega_lie_doc(semidirect_rep(obj))
        elif recipe == "double":
            from .bialgebra import double_bracket

            out = bundles.omega_lie_doc(double_bracket(obj))
        elif recipe == "cobracket":
            from .bialgebra import cobracket_of_dual

            out = bundles.cobracket_doc(cobracket_of_dual(obj))
        elif recipe == "dual-from-r":
            from .yang_baxter import dual_structure_from_r

            ctx = _tensor_context(obj, recipe)
            out = bundles.omega_lie_doc(dual_structure_from_r(ctx, obj.tensor))
        elif recipe == "lsa-from-o":
            from .operators import lsa_from_o_operator

            out = bundles.lsa_doc(lsa_from_o_operator(*_rep_operator(obj, recipe)))
        elif recipe == "lift-o":
            from .operators import lift_o_operator

            ambient, tensor = lift_o_operator(*_rep_operator(obj, recipe))
            out = bundles.two_tensor_doc(tensor, ambient, Vector.zero(ambient.dim))
        else:  # omega-lie-from-lsa
            from .operators import commutator_complement, omega_lie_from_lsa

            scale = bundles._parse_rat(args.scale if args.scale is not None else doc.get("c", 1))
            out = bundles.omega_lie_doc(omega_lie_from_lsa(obj, scale))
            _, complement = commutator_complement(obj)
            out["meta"]["complement_indices"] = [j + 1 for j in complement]
            out["meta"]["c"] = rat_str(scale)
    except BundleFormatError:
        raise
    except ValueError as exc:  # AxiomViolation included: a precondition failed
        report = _failure_report(f"construct {recipe}", str(exc))
        return _finish_report(report, config, args.out)
    _emit(out, args.out)
    return 0


def cmd_yb(args, config: ToolkitConfig) -> int:
    from .yang_baxter import (
        YbeContext,
        check_derivation_identity,
        check_r_admissible,
        check_yb_bialgebra,
        yb_residual,
    )

    _, alg = _read(args.algebra, KINDS["yb"]["--algebra"])
    if not alg.is_multiplicative:
        raise BundleFormatError("--algebra must give r, not omega")
    _, bundle = _read(args.r_tensor, KINDS["yb"]["--r-tensor"])
    tensor = bundle.tensor
    if args.u_r is not None:
        u_r = _parse_u_r(args.u_r, alg.dim)
    else:
        u_r = bundle.u_r or Vector.zero(alg.dim)
    ctx = YbeContext(alg, u_r)
    if args.operation == "residual":
        _emit(bundles.three_tensor_doc(yb_residual(ctx, tensor)), args.out)
        return 0
    if args.operation == "admissible":
        report = check_r_admissible(ctx, tensor, config.central_rule)
    elif args.operation == "lemma42":
        report = check_derivation_identity(ctx, tensor, scope=config.jac_scope)
    else:
        report = check_yb_bialgebra(_admissible(ctx, tensor, config), tensor)
    return _finish_report(report, config, args.out)


def cmd_verify(args, config: ToolkitConfig) -> int:
    theorem = args.theorem
    _, obj = _read(args.infile, KINDS["verify"][theorem])
    if theorem == "thm-3.8":
        from .bialgebra import crosscheck_equivalence

        report = crosscheck_equivalence(obj)
    elif theorem == "thm-4.4":
        from .yang_baxter import dual_structure_from_r, solution_conditions

        ctx = _admissible(_tensor_context(obj, theorem), obj.tensor, config)
        conditions = solution_conditions(ctx, obj.tensor)
        dual = dual_structure_from_r(ctx, obj.tensor)
        axioms = check_omega_lie(dual)
        report = Report("dual-structure equivalence")
        report.extend(conditions, "")
        report.extend(axioms, "dual:")
        agreement = report.clause("verdict-agreement")
        if conditions.passed != axioms.passed:
            agreement.add((), (conditions.verdict, axioms.verdict), "equal")
        report.meta["conditions_verdict"] = conditions.verdict
        report.meta["dual_axioms_verdict"] = axioms.verdict
    else:  # thm-5.18
        from .operators import check_o_operator, lift_o_operator
        from .yang_baxter import YbeContext, yb_residual

        operator_args = _rep_operator(obj, theorem)
        operator = check_o_operator(*operator_args)
        ambient, tensor = lift_o_operator(*operator_args)
        residual = yb_residual(YbeContext(ambient, Vector.zero(ambient.dim)), tensor)
        report = Report("operator-lift equivalence")
        report.extend(operator, "")
        res_clause = report.clause("lift-residual-zero")
        if not residual.is_zero():
            res_clause.add((), residual, "zero")
        agreement = report.clause("verdict-agreement")
        if operator.passed != residual.is_zero():
            agreement.add((), (operator.verdict, "residual"), "equal")
        report.meta["operator_verdict"] = operator.verdict
        report.meta["lift_residual_zero"] = residual.is_zero()
    return _finish_report(report, config, args.out)


def cmd_solve(args, config: ToolkitConfig, deterministic: bool) -> int:
    from dataclasses import replace

    from .solver import build_problem, minimize, rationalize_verify
    from .yang_baxter import YbeContext

    _, req = _read(args.infile, KINDS["solve"])
    _eligible(YbeContext(req.algebra, req.u_r), config)
    options = bundles.solve_options(config.solver or {}, req.options)
    if deterministic:
        options = replace(options, seed=1)
    problem = build_problem(req.algebra, req.u_r, options)
    result = minimize(problem)
    if result.converged:
        result = rationalize_verify(problem, result)
    doc = {
        "kind": "solve_result",
        "converged": result.converged,
        "residual_norm": result.residual_norm,
        "exact_verified": result.exact_verified,
        "trace": result.trace,
        "coordinates_float": [float(c) for c in result.best_coords],
        "meta": config.meta(),
    }
    if result.rationalized is not None:
        doc["tensor"] = bundles.two_tensor_doc(result.rationalized)
    _emit(doc, args.out)
    return 0 if result.converged else 1


def run(argv) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except (BundleFormatError, DimensionMismatch, EmptyDecomposition, EmptyParameterSpace) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def _dispatch(args) -> int:
    try:
        config = load_config(args.config) if args.config else ToolkitConfig(solver={})
        if args.command == "check":
            return cmd_check(args, config)
        if args.command == "construct":
            return cmd_construct(args, config)
        if args.command == "yb":
            return cmd_yb(args, config)
        if args.command == "verify":
            return cmd_verify(args, config)
        return cmd_solve(args, config, args.deterministic)
    except AxiomViolation as exc:
        # a precondition that is itself a checked property failed; its
        # report, like every other, may fail to be written
        report = _failure_report(args.command, str(exc))
        return _finish_report(report, ToolkitConfig(solver={}), args.out)


def main() -> None:
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
