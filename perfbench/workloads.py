"""The four benchmark workloads.

Each workload turns a seed into raw inputs (``__init__``, benchmark code
only), builds the package objects those inputs describe (``setup``, which
with the import of ``IMPORTS`` in a fresh interpreter is reported as
``setup_s``), and turns them into one pass of items (``items``).  An item
is one call into the package plus a check of its output against a
reference computed beforehand, outside the timed region.
A run repeats whole passes, so every pass does identical work and counts
taken per pass repeat exactly for a given seed.

Reference values come from tests/oracles.py and perfbench/reference.py,
which share no code with the package and are evaluated on the raw inputs,
or from the equivalences the acceptance criteria assert (criteria 04, 08,
10) between such references.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path
from typing import Callable

import generators as gen
import reference as ref

from omegalie import algebras, bialgebra, cli, linalg, operators, solver, yang_baxter
from oracles import (
    classical_cybe,
    generalized_violations,
    lsa_violations,
    omega_lie_violations,
)
from conftest import corpus_algebras, corpus_lsas, raw_table
from test_algebras import _random_raw_tensor

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
Vector, Matrix = linalg.Vector, linalg.Matrix


@dataclass
class Item:
    label: str  # the package call, e.g. "check_omega_lie"
    dim: int
    call: Callable[[], object]
    check: Callable[[object, dict], bool]  # (output, per-pass tallies) -> output correct


def package_env() -> dict:
    """Environment in which a fresh interpreter imports the package from src/."""
    env = dict(os.environ)
    src = str(ROOT / "src")
    env["PYTHONPATH"] = src + os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else src
    return env


def _vectors(raw):
    return [[Vector(v) for v in row] for row in raw]


def _algebra(raw, r=None, label=""):
    n = len(raw)
    return algebras.OmegaLieAlgebra(n, _vectors(raw), r=Vector(r if r is not None else [0] * n), label=label)


def _rows(mats):
    return tuple(m.rows for m in mats)


def _pair_matches(dp, algebra, dual, expected) -> bool:
    """A dual pair against the raw operator matrices of reference.dual_actions."""
    on_dual, on_algebra, u = expected
    return (
        dp.algebra == algebra
        and dp.dual == dual
        and (_rows(dp.pair_on_dual.rho1), _rows(dp.pair_on_dual.rho2)) == on_dual
        and (_rows(dp.pair_on_algebra.rho1), _rows(dp.pair_on_algebra.rho2)) == on_algebra
        and dp.u_r.entries == u
    )


def _pair_reference(c, r, cs, u):
    return ref.as_tuples(ref.dual_actions(c, r)), ref.as_tuples(ref.dual_actions(cs, u)), tuple(u)


def _algebra_matches(alg, table, r) -> bool:
    return raw_table(alg) == table and list(alg.r) == list(r)


def _valid(c, r) -> bool:
    """The oracles' verdict on a multiplicative algebra."""
    anti, jac = omega_lie_violations(c, ref.pullback(c, r))
    return not anti and not jac


def _indices(clause):
    return {v.indices for v in clause.violations}


def _passes(report, _) -> bool:
    return report.passed


class Workload:
    name = ""
    IMPORTS = ""  # the package modules the workload uses; their import is part of setup_s

    def __init__(self, seed: int):
        self.seed = seed
        self.rng = random.Random(seed)

    def setup(self):
        raise NotImplementedError

    def items(self, inputs) -> list[Item]:
        raise NotImplementedError

    def traced_items(self, inputs) -> list[Item]:
        return self.items(inputs)


class DenseRational(Workload):
    """Valid dense algebras at n = 4..8, and at n = 2..3 pairs of a dense
    algebra with the coboundary dual of a Yang-Baxter solution (a Lie
    bialgebra): every verdict is PASS and no report carries a violation, so
    every sweep runs to the end on multi-digit rationals."""

    name = "dense_rational"
    IMPORTS = "omegalie.algebras, omegalie.bialgebra, omegalie.yang_baxter"
    # More algebras at small n, so the middle of the item-time distribution
    # is densely sampled; the mix puts the 90th percentile inside the group
    # of n = 8 sweeps and n = 3 cross-checks (about 0.3-0.5 s), not at the
    # gap below it, where it would jump between groups from run to run.
    DIMS = (4, 5, 5, 5, 6, 6, 7, 8)
    PAIRS = ((gen.B2,),) * 6 + ((gen.B2, gen.LINE),) * 3

    def __init__(self, seed):
        super().__init__(seed)
        self.raw = [gen.dense_algebra(self.rng, gen.DENSE_SUMS[n]) for n in self.DIMS]
        self.raw_pairs = [gen.dense_algebra(self.rng, parts) for parts in self.PAIRS]
        # the generator's own check, by the oracles: every algebra satisfies
        # the axioms and every tensor solves the Yang-Baxter equation
        for c, t in self.raw + self.raw_pairs:
            if not _valid(c, [0] * len(c)) or not ref.is_zero(classical_cybe(c, t)):
                raise RuntimeError("dense generator produced an invalid algebra or tensor")

    def setup(self):
        cases = []
        for c, t in self.raw:
            n = len(c)
            alg = _algebra(c, label=f"dense{n}")
            cases.append(
                (
                    alg,
                    algebras.GeneralizedOmegaLieAlgebra(n, alg.table, alg.table, r=alg.r, label=alg.label),
                    yang_baxter.YbeContext(alg, Vector.zero(n)),
                    yang_baxter.TwoTensor(n, Matrix(t)),
                )
            )
        pairs = []
        for c, t in self.raw_pairs:
            n = len(c)
            lhs = _algebra(c, label="L")
            rhs = yang_baxter.dual_structure_from_r(
                yang_baxter.YbeContext(lhs, Vector.zero(n)), yang_baxter.TwoTensor(n, Matrix(t))
            )
            pairs.append((lhs, rhs, bialgebra.dual_pair(lhs, rhs)))
        return cases, pairs

    def items(self, inputs):
        cases, pairs = inputs
        out = []
        for (alg, gen_alg, ctx, tensor), (c, t) in zip(cases, self.raw):
            n = alg.dim
            zero = [0] * n
            dual = ref.dual_from_r(c, t, zero)
            dual_valid = _valid(dual, zero)
            out += [
                Item("check_omega_lie", n, lambda a=alg: algebras.check_omega_lie(a), _passes),
                Item("check_generalized", n, lambda g=gen_alg: algebras.check_generalized(g), _passes),
                Item(
                    "yb_residual", n, lambda x=ctx, y=tensor: yang_baxter.yb_residual(x, y),
                    lambda o, _, e=ref.as_tuples([[zero] * n] * n): o.entries == e,
                ),
                # criterion 08: the conditions hold exactly when the dual structure is valid
                Item(
                    "solution_conditions", n,
                    lambda x=ctx, y=tensor: yang_baxter.solution_conditions(x, y),
                    lambda o, _, e=dual_valid: e and o.passed,
                ),
                Item(
                    "dual_structure_from_r", n,
                    lambda x=ctx, y=tensor: yang_baxter.dual_structure_from_r(x, y),
                    lambda o, _, e=dual, z=zero: _algebra_matches(o, e, z),
                ),
            ]
        for (lhs, rhs, dp), (c, t) in zip(pairs, self.raw_pairs):
            n = lhs.dim
            zero = [0] * n
            dual = ref.dual_from_r(c, t, zero)
            if not _algebra_matches(rhs, dual, zero) or not _valid(dual, zero):
                raise RuntimeError("dual structure of a dense pair differs from its reference or is invalid")
            expected = _pair_reference(c, zero, dual, zero)
            out += [
                Item(
                    "dual_pair", n, lambda a=lhs, b=rhs: bialgebra.dual_pair(a, b),
                    lambda o, _, a=lhs, b=rhs, e=expected: _pair_matches(o, a, b, e),
                ),
                Item(
                    "crosscheck_equivalence", n,
                    lambda p=dp: bialgebra.crosscheck_equivalence(p),
                    lambda o, _: o.passed and set(o.meta.values()) == {"PASS"},
                ),
            ]
        return out


class SmallInteger(Workload):
    """Random integer tables (entries -2..2) at n = 2..8, a sample of the
    dim-2 bridge grid, and the corpus left-symmetric algebras: mostly FAIL
    verdicts with many violations, and many small calls."""

    name = "small_integer"
    IMPORTS = "omegalie.algebras, omegalie.bialgebra, omegalie.yang_baxter, omegalie.operators"
    # Several tables at n = 3..5 (calls of about 2-100 ms, varying with the
    # table) and few grid pairs, so the median item falls among many costs.
    # On a host whose speed flips between a fast and a slow state, the
    # median of a group of equal-cost items (the grid's dual_pair calls)
    # jumps between the two states' values from run to run.
    DIMS = (2, 3, 3, 4, 4, 4, 4, 4, 4, 5, 5, 5, 5, 6, 7, 8)
    GRID_SAMPLE = 10
    OPERATORS_PER_LSA = 3
    SCALES = (Fraction(1), Fraction(2), Fraction(-1), Fraction(1, 2))

    def __init__(self, seed):
        super().__init__(seed)
        rng = self.rng
        # criterion 01's scheme: tables, twist vectors and forms drawn from -2..2
        self.tables = []
        for n in self.DIMS:
            self.tables.append(
                {
                    "c": _random_raw_tensor(rng, n),
                    "c2": _random_raw_tensor(rng, n),
                    "r": [Fraction(rng.randint(-2, 2)) for _ in range(n)],
                    "omega": gen.random_matrix(rng, n, n),
                    "t": gen.random_matrix(rng, n, n),
                }
            )
        self.grid = rng.sample(gen.bridge_grid(), self.GRID_SAMPLE)
        self.lsa_scales = [rng.choice(self.SCALES) for _ in corpus_lsas()]
        self.operators = [
            [gen.random_matrix(rng, lsa.dim, lsa.dim, -1, 1) for _ in range(self.OPERATORS_PER_LSA)]
            for lsa in corpus_lsas()
        ]

    def setup(self):
        tables = []
        for d in self.tables:
            n = len(d["c"])
            alg = _algebra(d["c"], d["r"])
            tables.append(
                (
                    alg,
                    algebras.GeneralizedOmegaLieAlgebra(n, _vectors(d["c"]), _vectors(d["c2"]), r=Vector(d["r"])),
                    algebras.LeftSymmetricAlgebra(n, _vectors(d["c"]), omega=Matrix(d["omega"])),
                    yang_baxter.YbeContext(alg, Vector.zero(n)),
                    yang_baxter.TwoTensor(n, Matrix(d["t"])),
                )
            )
        grid = []
        for (bracket, r), (dual_bracket, dual_r) in self.grid:
            lhs = algebras.omega_lie(2, {(0, 1): list(bracket)}, r=list(r))
            rhs = algebras.omega_lie(2, {(0, 1): list(dual_bracket)}, r=list(dual_r))
            grid.append((lhs, rhs, bialgebra.dual_pair(lhs, rhs)))
        lsas = []
        for lsa, scale in zip(corpus_lsas(), self.lsa_scales):
            alg = operators.omega_lie_from_lsa(lsa, scale)
            lsas.append((lsa, scale, alg, operators.rep_from_lsa(alg, lsa)))
        return tables, grid, lsas

    def items(self, inputs):
        tables, grid, lsas = inputs
        out = []
        for (alg, gen_alg, lsa, ctx, tensor), d in zip(tables, self.tables):
            n = alg.dim
            anti, jac = omega_lie_violations(d["c"], ref.pullback(d["c"], d["r"]))
            g_anti, g_jac = generalized_violations(d["c"], d["c2"], d["r"])
            lsa_bad = lsa_violations(d["c"], d["omega"])
            residual = classical_cybe(d["c"], d["t"])
            cond_i, cond_ii = ref.solution_condition_indices(d["c"], d["t"], residual)
            out += [
                Item(
                    "check_omega_lie", n, lambda a=alg: algebras.check_omega_lie(a),
                    lambda o, _, e=(anti, jac): (_indices(o.clauses[0]), _indices(o.clauses[1])) == e,
                ),
                Item(
                    "check_generalized", n, lambda g=gen_alg: algebras.check_generalized(g),
                    lambda o, _, e=(g_anti, g_jac): (_indices(o.clauses[0]), _indices(o.clauses[1])) == e,
                ),
                Item(
                    "check_lsa", n, lambda a=lsa: algebras.check_lsa(a),
                    lambda o, _, e=lsa_bad: set().union(*(_indices(c) for c in o.clauses)) == e,
                ),
                Item(
                    "yb_residual", n, lambda x=ctx, y=tensor: yang_baxter.yb_residual(x, y),
                    lambda o, _, e=ref.as_tuples(residual): o.entries == e,
                ),
                Item(
                    "solution_conditions", n,
                    lambda x=ctx, y=tensor: yang_baxter.solution_conditions(x, y),
                    lambda o, _, e=(cond_i, cond_ii): (_indices(o.clauses[0]), _indices(o.clauses[1])) == e,
                ),
            ]
        for (lhs, rhs, dp), ((bracket, r), (dual_bracket, u)) in zip(grid, self.grid):
            c, cs = gen.dim2_table(bracket), gen.dim2_table(dual_bracket)
            double, double_r = ref.double_table(c, r, cs, u)
            d_anti, d_jac = omega_lie_violations(double, ref.pullback(double, double_r))
            if d_anti:
                raise RuntimeError("double bracket of a grid pair is not anticommutative")
            # criterion 04: matched pair exactly when the double satisfies the axioms
            out += [
                Item(
                    "dual_pair", 2, lambda a=lhs, b=rhs: bialgebra.dual_pair(a, b),
                    lambda o, _, a=lhs, b=rhs, e=_pair_reference(c, r, cs, u): _pair_matches(o, a, b, e),
                ),
                Item(
                    "check_matched_pair", 2, lambda p=dp: bialgebra.check_matched_pair(p),
                    lambda o, _, e=not d_jac: o.passed == e,
                ),
                Item(
                    "double_bracket", 2, lambda p=dp: bialgebra.double_bracket(p),
                    lambda o, _, e=double, er=double_r: _algebra_matches(o, e, er),
                ),
                Item("crosscheck_equivalence", 2, lambda p=dp: bialgebra.crosscheck_equivalence(p), _passes),
            ]
        for (lsa, scale, alg, rep), ts in zip(lsas, self.operators):
            n = lsa.dim
            a = [[[lsa.table[i][j][k] for k in range(n)] for j in range(n)] for i in range(n)]
            commutator = [[[a[i][j][k] - a[j][i][k] for k in range(n)] for j in range(n)] for i in range(n)]

            def lsa_ok(o, _, comm=commutator):
                c = raw_table(o)
                r = list(o.r)
                return c == comm and ref.is_zero(ref.pullback(c, r)) and _valid(c, r)

            out.append(
                Item("omega_lie_from_lsa", n, lambda l=lsa, s=scale: operators.omega_lie_from_lsa(l, s), lsa_ok)
            )
            r = list(alg.r)
            # the representation rep_from_lsa builds: left multiplication plus 2 r_i
            rho = [[[a[i][j][k] + 2 * r[i] * (k == j) for j in range(n)] for k in range(n)] for i in range(n)]
            for t in ts:
                t_mat = Matrix(t)
                table, table_r, rows = ref.lift(commutator, r, rho, t)
                # criterion 10: the operator identity holds exactly when the lift solves the equation
                lift_solves = ref.is_zero(classical_cybe(table, rows))
                out += [
                    Item(
                        "check_o_operator", n,
                        lambda x=alg, y=rep, z=t_mat: operators.check_o_operator(x, y, z),
                        lambda o, _, e=lift_solves: o.passed == e,
                    ),
                    Item(
                        "lift_o_operator", n,
                        lambda x=alg, y=rep, z=t_mat: operators.lift_o_operator(x, y, z),
                        lambda o, _, e=(table, table_r, rows): (
                            _algebra_matches(o[0], e[0], e[1]) and [list(row) for row in o[1].entries.rows] == e[2]
                        ),
                    ),
                ]
        return out


class Solve(Workload):
    """Seeded solve requests: the corpus algebras with a non-empty search
    space and standard-basis direct sums at n = 4..6 (6 to 15 parameters)."""

    name = "solve"
    IMPORTS = "omegalie.solver"
    RESTARTS = 4
    SUMS = ((gen.B2, gen.B2), (gen.B2, gen.HEIS3), (gen.HEIS3, gen.HEIS3), (gen.B2, gen.B2, gen.B2))
    # Restart convergence varies with the solver seed, so every algebra is
    # requested with several solver seeds derived from the workload seed.
    # The direct sums get twice as many, so that the median request falls
    # inside the group of 15-30 ms requests (heis3, b2+b2) and the 90th
    # percentile inside the n = 6 group, not at a gap between groups.
    CORPUS_SEEDS = 8
    SUM_SEEDS = 16

    def setup(self):
        sums = [
            _algebra(gen.direct_sum(parts)[0], label="+".join(label for label, _, _ in parts)) for parts in self.SUMS
        ]
        return [
            (alg, seeds)
            for algs, seeds in ((corpus_algebras(), self.CORPUS_SEEDS), (sums, self.SUM_SEEDS))
            for alg in algs
            if solver.skew_parameter_basis(alg)
        ]

    def items(self, inputs):
        def request(alg, options):
            problem = solver.build_problem(alg, options=options)
            result = solver.minimize(problem)
            if result.converged:
                result = solver.rationalize_verify(problem, result)
            return result

        def check(result, tallies, c, options):
            tallies["requests"] += 1
            if result.converged != (result.residual_norm < options.residual_tolerance):
                return False
            if not result.exact_verified:
                return result.rationalized is None
            tallies["certified"] += 1
            rows = [list(row) for row in result.rationalized.entries.rows]
            return ref.is_skew(rows) and ref.is_zero(classical_cybe(c, rows))

        out = []
        for alg, seeds in inputs:
            for k in range(seeds):
                options = solver.SolveOptions(seed=self.seed * self.SUM_SEEDS + k, restarts=self.RESTARTS)
                out.append(
                    Item(
                        "solve", alg.dim, lambda a=alg, o=options: request(a, o),
                        lambda r, t, c=raw_table(alg), o=options: check(r, t, c, o),
                    )
                )
        return out


class Cli(Workload):
    """One fresh ``python -m omegalie`` process per item, cycling through
    the commands listed in cli_reference.json over tests/fixtures."""

    name = "cli"
    IMPORTS = "omegalie.cli"
    REFERENCE = HERE / "cli_reference.json"

    def setup(self):
        """The command list; the processes import the package themselves,
        which setup_s times in its fresh-interpreter import."""
        with open(self.REFERENCE, encoding="utf-8") as fh:
            return json.load(fh)["commands"]

    def items(self, cases):
        env = package_env()

        def spawn(argv):
            return subprocess.run(
                [sys.executable, "-m", "omegalie", *argv],
                cwd=ROOT, env=env, capture_output=True, timeout=120,
            )

        def check(proc, _, case):
            return (
                proc.returncode == case["exit"]
                and hashlib.sha256(proc.stdout).hexdigest() == case["stdout_sha256"]
                and b"Traceback" not in proc.stderr
            )

        return [
            Item("cli", 0, lambda a=case["argv"]: spawn(a), lambda o, t, c=case: check(o, t, c))
            for case in cases
        ]

    def traced_items(self, cases):
        """The same commands through ``cli.run`` in this process, so the
        package's modules can be traced."""

        def run(argv):
            buf = io.StringIO()
            with contextlib.redirect_stdout(buf):
                code = cli.run(list(argv))
            return code, buf.getvalue().encode("utf-8")

        def check(out, _, case):
            code, stdout = out
            return code == case["exit"] and hashlib.sha256(stdout).hexdigest() == case["stdout_sha256"]

        return [
            Item("cli.run", 0, lambda a=case["argv"]: run(a), lambda o, t, c=case: check(o, t, c))
            for case in cases
        ]


WORKLOADS = {w.name: w for w in (Cli, DenseRational, SmallInteger, Solve)}
