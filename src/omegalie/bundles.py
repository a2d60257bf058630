"""JSON document formats for algebras, operators, tensors, and requests.

Files use 1-based basis indices (matching the e_1..e_n naming convention)
and "p/q" strings for rationals; everything is 0-based internally, with the
conversion confined to this module.  Sparse bracket tables require i < j
and the antisymmetric completion is materialized by the loader;
contradictory duplicate entries are rejected.
"""

from __future__ import annotations

import json
from fractions import Fraction
from typing import TYPE_CHECKING, Optional

from .algebras import GeneralizedOmegaLieAlgebra, LeftSymmetricAlgebra, OmegaLieAlgebra
from .errors import BundleFormatError
from .linalg import Matrix, ThreeTensor, Vector, rat, rat_str

# Each parser and emitter imports the module of its kind on use, so that a
# command loads only the modules its documents need.
if TYPE_CHECKING:
    from .bialgebra import CobracketDelta, DualPair
    from .representations import GenRepPair, Representation
    from .solver import SolveOptions
    from .yang_baxter import TwoTensor

# Largest dim or carrier_dim a document may declare.  The sweeps take n^4
# time and n^3 memory, and the loader allocates a dense table before it reads
# any entry.  16 is twice the largest dimension the checkers are built for
# (8), so doubles and lifts of such inputs still load.
MAX_DIM = 16

# Largest number of solver restarts a request or config may ask for.  The
# solver draws every start point up front, restarts x P floats with P up to
# 120 at MAX_DIM, so 4096 restarts (128 times the default) stay under 4 MB.
MAX_RESTARTS = 4096

# Most digits a rational's numerator or denominator may have.  Fraction("1eN")
# builds 10^N, so the exponent's text is bounded before Fraction runs, and
# the value after.  Products and sums of such values in the sweeps, the
# constructions and the reported violations stay well below Python's limit
# on integer-string conversion (4300 digits).
MAX_RAT_DIGITS = 100
_RAT_BOUND = 10**MAX_RAT_DIGITS


def _fail(msg: str) -> None:
    raise BundleFormatError(msg)


def _require(doc: dict, key: str):
    if not isinstance(doc, dict):
        _fail(f"expected an object with field {key!r}, got {type(doc).__name__}")
    if key not in doc:
        _fail(f"missing required field {key!r}")
    return doc[key]


def _is_int(value) -> bool:
    """An integer in the document; JSON ``true``/``false`` are not."""
    return isinstance(value, int) and not isinstance(value, bool)


def _parse_dim(doc: dict, key: str = "dim") -> int:
    n = _require(doc, key)
    if not _is_int(n) or not 1 <= n <= MAX_DIM:
        _fail(f"{key} must be an integer from 1 to {MAX_DIM}, not {n!r}")
    return n


def _parse_rat(value) -> Fraction:
    shown = value[:40] if isinstance(value, str) else value
    if isinstance(value, bool):
        _fail(f"bad rational {shown!r}: a JSON boolean is not a number")
    if isinstance(value, str) and len(value.lower().partition("e")[2]) > 4:
        _fail(f"bad rational {shown!r}: exponent of more than four characters")
    try:
        out = rat(value)
    except (ValueError, ZeroDivisionError, TypeError) as exc:
        raise BundleFormatError(f"bad rational {shown!r}: {exc}") from None
    if abs(out.numerator) >= _RAT_BOUND or out.denominator >= _RAT_BOUND:
        _fail(f"bad rational {shown!r}: more than {MAX_RAT_DIGITS} digits")
    return out


def _parse_vector(value, n: int, what: str) -> Vector:
    if not isinstance(value, list) or len(value) != n:
        _fail(f"{what} must be a list of {n} rationals")
    return Vector([_parse_rat(e) for e in value])


def _parse_matrix(value, m: int, n: int, what: str) -> Matrix:
    if not isinstance(value, list) or len(value) != m:
        _fail(f"{what} must be a {m} x {n} array")
    for row in value:
        if not isinstance(row, list) or len(row) != n:
            _fail(f"{what} must be a {m} x {n} array")
    return Matrix([[_parse_rat(e) for e in row] for row in value])


def _vector_doc(v: Vector) -> list:
    return [rat_str(e) for e in v]


def _matrix_doc(m: Matrix) -> list:
    return [[rat_str(e) for e in row] for row in m.rows]


def _default_basis(n: int, star: bool = False) -> list:
    return [f"e{i + 1}{'*' if star else ''}" for i in range(n)]


def _parse_label(doc: dict) -> str:
    meta = doc.get("meta", {})
    if not isinstance(meta, dict):
        _fail("meta must be an object")
    return meta.get("label", "")


def _parse_basis(doc: dict, n: int) -> list:
    basis = doc.get("basis", _default_basis(n))
    if not isinstance(basis, list) or len(basis) != n or not all(isinstance(s, str) for s in basis):
        _fail("basis must be a list of dim symbol strings")
    return basis


def _parse_sparse_table(entries, n: int, antisymmetric: bool, what: str) -> list:
    """Sparse [i, j, k, value] entries (1-based) into a dense table of
    bracket vectors."""
    table = [[[Fraction(0)] * n for _ in range(n)] for _ in range(n)]
    seen = set()
    if not isinstance(entries, list):
        _fail(f"{what} must be a list of [i, j, k, value] entries")
    for entry in entries:
        if not isinstance(entry, list) or len(entry) != 4:
            _fail(f"{what} entries must be [i, j, k, value]")
        i, j, k, value = entry
        if not all(_is_int(t) for t in (i, j, k)):
            _fail(f"{what} indices must be integers")
        if not (1 <= i <= n and 1 <= j <= n and 1 <= k <= n):
            _fail(f"{what} entry [{i}, {j}, {k}] out of range for dim {n}")
        if antisymmetric and not i < j:
            _fail(f"{what} entries require i < j (got [{i}, {j}])")
        key = (i, j, k)
        if key in seen:
            _fail(f"{what} has a duplicate entry for indices {key}")
        seen.add(key)
        table[i - 1][j - 1][k - 1] = _parse_rat(value)
        if antisymmetric:
            table[j - 1][i - 1][k - 1] = -table[i - 1][j - 1][k - 1]
    return [[Vector(table[i][j]) for j in range(n)] for i in range(n)]


def _sparse_table_doc(table, n: int, antisymmetric: bool) -> list:
    entries = []
    for i in range(n):
        j_start = i + 1 if antisymmetric else 0
        for j in range(j_start, n):
            for k in range(n):
                value = table[i][j][k]
                if value != 0:
                    entries.append([i + 1, j + 1, k + 1, rat_str(value)])
    return entries


def parse_omega_lie(doc: dict) -> OmegaLieAlgebra:
    n = _parse_dim(doc)
    _parse_basis(doc, n)
    table = _parse_sparse_table(doc.get("bracket", []), n, antisymmetric=True, what="bracket")
    r = doc.get("r")
    omega = doc.get("omega")
    if r is not None and omega is not None:
        _fail("give at most one of r and omega")
    label = _parse_label(doc)
    if omega is not None:
        return OmegaLieAlgebra(n, table, omega=_parse_matrix(omega, n, n, "omega"), label=label)
    r_vec = _parse_vector(r, n, "r") if r is not None else Vector.zero(n)
    return OmegaLieAlgebra(n, table, r=r_vec, label=label)


def parse_multiplicative(doc: dict, what: str) -> OmegaLieAlgebra:
    """An omega_lie block that gives r, for the constructions that need the
    multiplicative flavor."""
    algebra = parse_omega_lie(doc)
    if not algebra.is_multiplicative:
        _fail(f"{what} must give r, not omega")
    return algebra


def omega_lie_doc(alg: OmegaLieAlgebra, basis: Optional[list] = None) -> dict:
    doc = {
        "kind": "omega_lie",
        "dim": alg.dim,
        "basis": basis or _default_basis(alg.dim),
        "bracket": _sparse_table_doc(alg.table, alg.dim, antisymmetric=True),
    }
    if alg.r is not None:
        doc["r"] = _vector_doc(alg.r)
    else:
        doc["omega"] = _matrix_doc(alg.omega)
    doc["meta"] = {"label": alg.label}
    return doc


def parse_generalized(doc: dict) -> GeneralizedOmegaLieAlgebra:
    n = _parse_dim(doc)
    _parse_basis(doc, n)
    t1 = _parse_sparse_table(_require(doc, "bracket1"), n, antisymmetric=True, what="bracket1")
    t2 = _parse_sparse_table(_require(doc, "bracket2"), n, antisymmetric=False, what="bracket2")
    r = _parse_vector(_require(doc, "r"), n, "r")
    return GeneralizedOmegaLieAlgebra(n, t1, t2, r=r, label=_parse_label(doc))


def generalized_doc(alg: GeneralizedOmegaLieAlgebra, basis: Optional[list] = None) -> dict:
    return {
        "kind": "generalized",
        "dim": alg.dim,
        "basis": basis or _default_basis(alg.dim),
        "bracket1": _sparse_table_doc(alg.table1, alg.dim, antisymmetric=True),
        "bracket2": _sparse_table_doc(alg.table2, alg.dim, antisymmetric=False),
        "r": _vector_doc(alg.r),
        "meta": {"label": alg.label},
    }


def parse_lsa(doc: dict) -> LeftSymmetricAlgebra:
    n = _parse_dim(doc)
    _parse_basis(doc, n)
    table = _parse_sparse_table(doc.get("product", []), n, antisymmetric=False, what="product")
    r = doc.get("r")
    omega = doc.get("omega")
    if r is not None and omega is not None:
        _fail("give at most one of r and omega")
    label = _parse_label(doc)
    return LeftSymmetricAlgebra(
        n,
        table,
        r=_parse_vector(r, n, "r") if r is not None else None,
        omega=_parse_matrix(omega, n, n, "omega") if omega is not None else None,
        label=label,
    )


def lsa_doc(alg: LeftSymmetricAlgebra, basis: Optional[list] = None, c=None) -> dict:
    doc = {
        "kind": "lsa",
        "dim": alg.dim,
        "basis": basis or _default_basis(alg.dim),
        "product": _sparse_table_doc(alg.table, alg.dim, antisymmetric=False),
    }
    if alg.r is not None:
        doc["r"] = _vector_doc(alg.r)
    if alg.omega is not None:
        doc["omega"] = _matrix_doc(alg.omega)
    if c is not None:
        doc["c"] = rat_str(rat(c))
    doc["meta"] = {"label": alg.label}
    return doc


def _parse_operator_family(doc_block, basis: list, m: int, what: str) -> tuple:
    if not isinstance(doc_block, dict):
        _fail(f"{what} must map basis symbols to matrices")
    mats = []
    for sym in basis:
        if sym not in doc_block:
            _fail(f"{what} is missing the matrix for basis symbol {sym!r}")
        mats.append(_parse_matrix(doc_block[sym], m, m, f"{what}[{sym}]"))
    return tuple(mats)


def _operator_family_doc(mats: tuple, basis: list) -> dict:
    return {sym: _matrix_doc(m) for sym, m in zip(basis, mats)}


def parse_representation(doc: dict, algebra: Optional[OmegaLieAlgebra] = None) -> Representation:
    from .representations import Representation

    if "algebra" in doc:
        algebra = parse_omega_lie(_require(doc, "algebra"))
    if algebra is None:
        _fail("representation bundle needs an algebra block")
    m = _parse_dim(doc, "carrier_dim")
    basis = _parse_basis(doc.get("algebra", {}), algebra.dim)
    rho = _parse_operator_family(_require(doc, "rho"), basis, m, "rho")
    return Representation(algebra, m, rho)


def representation_doc(rep: Representation, basis: Optional[list] = None) -> dict:
    basis = basis or _default_basis(rep.algebra.dim)
    return {
        "kind": "representation",
        "algebra": omega_lie_doc(rep.algebra, basis),
        "carrier_dim": rep.carrier_dim,
        "rho": _operator_family_doc(rep.rho, basis),
    }


def parse_gen_rep_pair(doc: dict, algebra: Optional[OmegaLieAlgebra] = None) -> GenRepPair:
    from .representations import GenRepKind, GenRepPair

    if "algebra" in doc:
        algebra = parse_multiplicative(_require(doc, "algebra"), "gen_rep_pair algebra")
    if algebra is None:
        _fail("pair bundle needs an algebra block")
    m = _parse_dim(doc, "carrier_dim")
    kind_name = _require(doc, "rep_kind")
    try:
        kind = GenRepKind(kind_name)
    except ValueError:
        _fail(f"unknown rep_kind {kind_name!r}")
    basis = _parse_basis(doc.get("algebra", {}), algebra.dim)
    rho1 = _parse_operator_family(_require(doc, "rho1"), basis, m, "rho1")
    rho2 = _parse_operator_family(_require(doc, "rho2"), basis, m, "rho2")
    return GenRepPair(algebra, m, rho1, rho2, kind)


def gen_rep_pair_doc(pair: GenRepPair, basis: Optional[list] = None) -> dict:
    basis = basis or _default_basis(pair.algebra.dim)
    return {
        "kind": "gen_rep_pair",
        "algebra": omega_lie_doc(pair.algebra, basis),
        "carrier_dim": pair.carrier_dim,
        "rep_kind": pair.kind.value,
        "rho1": _operator_family_doc(pair.rho1, basis),
        "rho2": _operator_family_doc(pair.rho2, basis),
    }


class TwoTensorBundle:
    def __init__(self, tensor: TwoTensor, algebra: Optional[OmegaLieAlgebra], u_r: Optional[Vector]):
        self.__dict__.update(tensor=tensor, algebra=algebra, u_r=u_r)

    def __setattr__(self, name, value):
        raise AttributeError("TwoTensorBundle is immutable")


def parse_two_tensor(doc: dict) -> TwoTensorBundle:
    from .yang_baxter import TwoTensor

    n = _parse_dim(doc)
    entries = _parse_matrix(_require(doc, "entries"), n, n, "entries")
    algebra = None
    if "algebra" in doc:
        algebra = parse_multiplicative(doc["algebra"], "two_tensor algebra")
        if algebra.dim != n:
            _fail(f"two_tensor algebra has dim {algebra.dim}, not the tensor's dim {n}")
    u_r = None
    if "u_r" in doc:
        u_r = _parse_vector(doc["u_r"], n, "u_r")
    return TwoTensorBundle(TwoTensor(n, entries), algebra, u_r)


def two_tensor_doc(
    tensor: TwoTensor,
    algebra: Optional[OmegaLieAlgebra] = None,
    u_r: Optional[Vector] = None,
) -> dict:
    doc = {"kind": "two_tensor", "dim": tensor.dim, "entries": _matrix_doc(tensor.entries)}
    if algebra is not None:
        doc["algebra"] = omega_lie_doc(algebra)
    if u_r is not None:
        doc["u_r"] = _vector_doc(u_r)
    return doc


def three_tensor_doc(tensor: ThreeTensor) -> dict:
    return {
        "kind": "three_tensor",
        "dim": tensor.dim,
        "entries": [
            [[rat_str(e) for e in row] for row in plane] for plane in tensor.entries
        ],
    }


def parse_three_tensor(doc: dict) -> ThreeTensor:
    n = _parse_dim(doc)
    entries = _require(doc, "entries")
    if not isinstance(entries, list) or len(entries) != n:
        _fail("entries must be a dim^3 array")
    return ThreeTensor([_parse_matrix(plane, n, n, "each entries plane").rows for plane in entries])


def cobracket_doc(delta: CobracketDelta, basis: Optional[list] = None) -> dict:
    return {
        "kind": "cobracket",
        "dim": delta.dim,
        "basis": basis or _default_basis(delta.dim),
        "components": [_matrix_doc(m) for m in delta.component],
    }


def parse_cobracket(doc: dict) -> CobracketDelta:
    from .bialgebra import CobracketDelta

    n = _parse_dim(doc)
    comps = _require(doc, "components")
    if not isinstance(comps, list) or len(comps) != n:
        _fail("components must hold one matrix per basis element")
    return CobracketDelta(n, tuple(_parse_matrix(m, n, n, "component") for m in comps))


class OOperatorBundle:
    def __init__(self, algebra: OmegaLieAlgebra, rep: Representation | GenRepPair, t: Matrix):
        self.__dict__.update(algebra=algebra, rep=rep, t=t)

    def __setattr__(self, name, value):
        raise AttributeError("OOperatorBundle is immutable")


def parse_o_operator(doc: dict) -> OOperatorBundle:
    algebra = parse_multiplicative(_require(doc, "algebra"), "o_operator algebra")
    rep_doc = _require(doc, "rep")
    rep_kind = _require(rep_doc, "kind")
    if rep_kind == "representation":
        rep = parse_representation(rep_doc, algebra)
        carrier = rep.carrier_dim
    elif rep_kind == "gen_rep_pair":
        rep = parse_gen_rep_pair(rep_doc, algebra)
        carrier = rep.carrier_dim
    else:
        _fail(f"rep block must be a representation or a pair, not {rep_kind!r}")
    t = _parse_matrix(_require(doc, "T"), algebra.dim, carrier, "T")
    return OOperatorBundle(algebra, rep, t)


def o_operator_doc(algebra: OmegaLieAlgebra, rep, t: Matrix) -> dict:
    from .representations import Representation

    if isinstance(rep, Representation):
        rep_doc = representation_doc(rep)
    else:
        rep_doc = gen_rep_pair_doc(rep)
    # operator bundles carry one algebra block; the rep block inherits it
    rep_doc.pop("algebra", None)
    return {
        "kind": "o_operator",
        "algebra": omega_lie_doc(algebra),
        "rep": rep_doc,
        "T": _matrix_doc(t),
    }


def parse_dual_pair(doc: dict) -> DualPair:
    from .bialgebra import dual_pair

    algebra = parse_multiplicative(_require(doc, "algebra"), "dual_pair algebra")
    dual = parse_multiplicative(_require(doc, "dual"), "dual_pair dual")
    return dual_pair(algebra, dual)


def dual_pair_doc(dp: DualPair) -> dict:
    return {
        "kind": "dual_pair",
        "algebra": omega_lie_doc(dp.algebra),
        "dual": omega_lie_doc(dp.dual, _default_basis(dp.dual.dim, star=True)),
    }


class SolveRequest:
    def __init__(self, algebra: OmegaLieAlgebra, u_r: Vector, options: SolveOptions):
        self.__dict__.update(algebra=algebra, u_r=u_r, options=options)

    def __setattr__(self, name, value):
        raise AttributeError("SolveRequest is immutable")


def parse_solve_request(doc: dict) -> SolveRequest:
    from .solver import SolveOptions  # numpy: only commands that search load it

    algebra = parse_multiplicative(_require(doc, "algebra"), "solve_request algebra")
    n = algebra.dim
    u_r = _parse_vector(doc["u_r"], n, "u_r") if "u_r" in doc else Vector.zero(n)
    return SolveRequest(algebra, u_r, solve_options(doc.get("options", {}), SolveOptions()))


def solve_options(opts, base: SolveOptions) -> SolveOptions:
    """``base`` with the fields that ``opts`` names replaced, each coerced to
    the field's type; other keys are ignored.  Serves request options and
    config-file overrides alike."""
    from dataclasses import fields, replace

    if not isinstance(opts, dict):
        _fail("options must be an object")
    changes = {}
    for field in fields(base):
        key = field.name
        if key not in opts:
            continue
        value = opts[key]
        if key in ("restarts", "max_denominator") and (not _is_int(value) or value < 1):
            _fail(f"{key} must be an integer >= 1, not {value!r}")
        if key == "restarts" and value > MAX_RESTARTS:
            _fail(f"restarts must be at most {MAX_RESTARTS}, not {value!r}")
        try:
            changes[key] = type(getattr(base, key))(value)
        except (TypeError, ValueError, OverflowError) as exc:
            raise BundleFormatError(f"bad solver options: {exc}") from None
        if key == "seed" and changes[key] < 0:
            _fail(f"seed must be a non-negative integer, not {value!r}")
    return replace(base, **changes)


def solve_request_doc(req: SolveRequest) -> dict:
    return {
        "kind": "solve_request",
        "algebra": omega_lie_doc(req.algebra),
        "u_r": _vector_doc(req.u_r),
        "options": {
            "max_iterations": req.options.max_iterations,
            "step_tolerance": req.options.step_tolerance,
            "residual_tolerance": req.options.residual_tolerance,
            "restarts": req.options.restarts,
            "seed": req.options.seed,
            "max_denominator": req.options.max_denominator,
        },
    }


def parse_any(doc: dict, kinds=None):
    """Dispatch a document by its kind field: the kind gate.  The caller
    names the kinds it reads (default: every kind); any other kind is
    unusable input, and the error names the kinds accepted."""
    kind = _require(doc, "kind")
    if not isinstance(kind, str):
        _fail(f"kind must be a string, not {kind!r}")
    parsers = {
        "omega_lie": parse_omega_lie,
        "generalized": parse_generalized,
        "lsa": parse_lsa,
        "representation": parse_representation,
        "gen_rep_pair": parse_gen_rep_pair,
        "two_tensor": parse_two_tensor,
        "o_operator": parse_o_operator,
        "dual_pair": parse_dual_pair,
        "solve_request": parse_solve_request,
        "three_tensor": parse_three_tensor,
        "cobracket": parse_cobracket,
    }
    accepted = tuple(parsers) if kinds is None else kinds
    if kind not in accepted:
        _fail(f"expected a document of kind {' or '.join(map(repr, accepted))}, not {kind!r}")
    return kind, parsers[kind](doc)


def dumps(doc: dict) -> str:
    """Stable serialization: fixed key order, two-space indent, newline."""
    return json.dumps(doc, indent=2) + "\n"


def load_path(path: str) -> dict:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except OSError as exc:
        raise BundleFormatError(f"cannot read {path}: {exc}") from None
    except ValueError as exc:  # JSONDecodeError, or an integer literal past Python's digit limit
        raise BundleFormatError(f"{path} is not valid JSON: {exc}") from None
