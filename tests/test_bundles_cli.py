import contextlib
import io
import json
import subprocess
import sys
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from omegalie import bundles
from omegalie.algebras import GeneralizedOmegaLieAlgebra, abelian, omega_lie
from omegalie.bialgebra import BilinearForm, cobracket_of_dual, dual_pair
from omegalie.errors import BundleFormatError
from omegalie.cli import KINDS, ToolkitConfig, run
from omegalie.linalg import Matrix, Vector
from omegalie.reports import Violation
from omegalie.representations import Representation, SpecialRepII, adjoint_pair, generalized_dual_pair
from omegalie.yang_baxter import SymbolicTerm, TwoTensor, YbeContext

from conftest import FIXTURES, make_ax2, make_b2, make_b2_line_r3


def load_fixture(name):
    return bundles.load_path(str(FIXTURES / f"{name}.json"))


def test_round_trip_omega_lie():
    doc = load_fixture("b2")
    alg = bundles.parse_omega_lie(doc)
    again = bundles.parse_omega_lie(bundles.omega_lie_doc(alg))
    assert again == alg
    assert bundles.dumps(bundles.omega_lie_doc(again)) == bundles.dumps(
        bundles.omega_lie_doc(alg)
    )


def test_round_trip_representation():
    rep = Representation(make_ax2(), 1, (Matrix([[1]]), Matrix([[0]])))
    doc = bundles.representation_doc(rep)
    assert bundles.parse_representation(doc) == rep


def test_round_trip_gen_rep_pair():
    pair = generalized_dual_pair(adjoint_pair(make_ax2()))
    doc = bundles.gen_rep_pair_doc(pair)
    assert bundles.parse_gen_rep_pair(doc) == pair


def test_round_trip_two_tensor_with_context():
    tensor = TwoTensor(2, Matrix([[0, 1], [-1, 0]]))
    doc = bundles.two_tensor_doc(tensor, make_b2(), Vector([0, 0]))
    parsed = bundles.parse_two_tensor(doc)
    assert parsed.tensor == tensor
    assert parsed.algebra == make_b2()
    assert parsed.u_r == Vector([0, 0])


def test_round_trip_dual_pair():
    dp = dual_pair(make_b2(), abelian(2))
    doc = bundles.dual_pair_doc(dp)
    assert bundles.parse_dual_pair(doc).algebra == dp.algebra


def test_round_trip_o_operator():
    b2 = make_b2()
    rep = Representation(b2, 1, (Matrix([[0]]), Matrix([[0]])))
    t = Matrix([[1], [-1]])
    doc = bundles.o_operator_doc(b2, rep, t)
    parsed = bundles.parse_o_operator(doc)
    assert parsed.algebra == b2
    assert parsed.rep == rep
    assert parsed.t == t


def test_two_tensor_swap_and_skew():
    tensor = TwoTensor(2, Matrix([[0, 2], [1, 0]]))
    assert tensor.swap().entries == Matrix([[0, 1], [2, 0]])
    assert not tensor.is_skew()
    assert (tensor - tensor.swap()).is_skew()


def test_round_trip_all_fixtures():
    for path in sorted(FIXTURES.glob("*.json")):
        doc = bundles.load_path(str(path))
        kind, obj = bundles.parse_any(doc)
        assert kind == doc["kind"]


def test_round_trip_generalized():
    from omegalie.algebras import GeneralizedOmegaLieAlgebra

    ax2 = make_ax2()
    g = GeneralizedOmegaLieAlgebra(2, ax2.table, ax2.table, r=ax2.r, label="g")
    doc = bundles.generalized_doc(g)
    assert bundles.parse_generalized(doc) == g


def test_round_trip_lsa():
    lsa = bundles.parse_lsa(load_fixture("lsa_nc2"))
    doc = bundles.lsa_doc(lsa, c="1")
    again = bundles.parse_lsa(doc)
    assert again == lsa
    assert doc["c"] == "1"


def test_round_trip_solve_request():
    req = bundles.parse_solve_request(load_fixture("solve_b2"))
    doc = bundles.solve_request_doc(req)
    again = bundles.parse_solve_request(doc)
    assert again.algebra == req.algebra
    assert again.u_r == req.u_r
    assert again.options == req.options


def test_round_trip_cobracket_and_three_tensor():
    from omegalie.bialgebra import cobracket_of_dual
    from omegalie.yang_baxter import YbeContext, yb_residual

    dual = bundles.parse_omega_lie(load_fixture("ax2"))
    delta = cobracket_of_dual(dual)
    assert bundles.parse_cobracket(bundles.cobracket_doc(delta)) == delta

    b2 = make_b2()
    tensor = TwoTensor(2, Matrix([[0, 1], [0, 0]]))
    residual = yb_residual(YbeContext(b2, Vector([0, 0])), tensor)
    assert bundles.parse_three_tensor(bundles.three_tensor_doc(residual)) == residual


def test_loader_rejects_duplicate_entries():
    doc = load_fixture("b2")
    doc["bracket"] = [[1, 2, 1, "1"], [1, 2, 1, "2"]]
    with pytest.raises(BundleFormatError):
        bundles.parse_omega_lie(doc)


def test_loader_rejects_lower_triangle():
    doc = load_fixture("b2")
    doc["bracket"] = [[2, 1, 1, "1"]]
    with pytest.raises(BundleFormatError):
        bundles.parse_omega_lie(doc)


def test_loader_rejects_out_of_range():
    doc = load_fixture("b2")
    doc["bracket"] = [[1, 3, 1, "1"]]
    with pytest.raises(BundleFormatError):
        bundles.parse_omega_lie(doc)


def test_loader_rejects_bad_rational():
    doc = load_fixture("b2")
    doc["r"] = ["1/0", "0"]
    with pytest.raises(BundleFormatError):
        bundles.parse_omega_lie(doc)


def test_loader_rejects_double_flavor():
    doc = load_fixture("b2")
    doc["omega"] = [["0", "0"], ["0", "0"]]
    with pytest.raises(BundleFormatError):
        bundles.parse_omega_lie(doc)


def test_loader_rejects_unknown_kind():
    with pytest.raises(BundleFormatError):
        bundles.parse_any({"kind": "sandwich"})


@pytest.mark.parametrize(
    "doc",
    [
        {"kind": "three_tensor", "entries": [[["0"]]]},
        {"kind": "cobracket", "components": [[["0"]]]},
    ],
    ids=["three_tensor", "cobracket"],
)
def test_loader_rejects_bool_dim(doc):
    # `check` has no checker for these kinds, so the CLI cases cannot reach them
    with pytest.raises(BundleFormatError):
        bundles.parse_any({**doc, "dim": True})


def test_records_are_immutable():
    b2 = make_b2()
    two_bracket = GeneralizedOmegaLieAlgebra(2, b2.table, b2.table, Vector.zero(2))
    zeros = (Matrix.zero(1, 1),) * 2
    parsed = [bundles.parse_any(load_fixture(name))[1]
              for name in ("lsa_nc2", "dual_pair_classical", "wedge", "good_t", "solve_b2")]
    records = parsed + [
        b2,
        two_bracket,
        Violation((0,), "1", "0"),
        Representation(b2, 1, zeros),
        adjoint_pair(b2),
        SpecialRepII(two_bracket, 1, zeros, zeros, zeros),
        BilinearForm(Matrix.zero(2, 2)),
        cobracket_of_dual(b2),
        parsed[2].tensor,
        YbeContext(b2, Vector.zero(2)),
        SymbolicTerm(Fraction(1), (None, None, None)),
        ToolkitConfig(),
    ]
    for record in records:
        with pytest.raises(AttributeError):
            record.label = "changed"


def fixture_path(name):
    return str(FIXTURES / f"{name}.json")


def test_cli_check_pass(capsys):
    assert run(["check", fixture_path("b2")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "PASS"


def test_cli_check_fail(tmp_path, capsys):
    bad = {
        "kind": "omega_lie",
        "dim": 3,
        "bracket": [[1, 2, 2, "1"], [2, 3, 1, "1"]],
        "r": ["0", "0", "0"],
    }
    path = tmp_path / "bad.json"
    path.write_text(json.dumps(bad))
    assert run(["check", str(path)]) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["verdict"] == "FAIL"
    # violations carry 1-based indices in documents
    some = [v for c in doc["clauses"] for v in c["violations"]]
    assert [1, 2, 3] in [v["indices"] for v in some]


def test_cli_parse_error_exit_2(tmp_path, capsys):
    path = tmp_path / "broken.json"
    # bad syntax, and an integer literal past Python's integer-string limit
    for text in ("{not json", '{"kind": "omega_lie", "dim": 1, "bracket": [], "r": [%s]}' % ("1" * 5000)):
        path.write_text(text)
        assert run(["check", str(path)]) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert "error" in captured.err


def _fixture_doc(name):
    return json.loads((FIXTURES / f"{name}.json").read_text())


def _with(doc, **changes):
    return {**doc, **changes}


def _omega_flavor(doc):
    out = {k: v for k, v in doc.items() if k != "r"}
    out["omega"] = [["0"] * doc["dim"] for _ in range(doc["dim"])]
    return out


_GENERALIZED = {
    "kind": "generalized",
    "dim": 1,
    "bracket1": [],
    "bracket2": [],
    "r": ["0"],
}
_LSA = {"kind": "lsa", "dim": 1, "product": [[1, 1, 1, "1"]]}
_LINE = {"kind": "omega_lie", "dim": 1, "bracket": [], "r": ["0"]}
_LINE_REP = {"kind": "representation", "algebra": _LINE, "carrier_dim": 1, "rho": {"e1": [["0"]]}}
_LINE_PAIR = {
    "kind": "gen_rep_pair",
    "algebra": _LINE,
    "carrier_dim": 1,
    "rep_kind": "gen_i",
    "rho1": {"e1": [["0"]]},
    "rho2": {"e1": [["0"]]},
}
_SOLVE = _fixture_doc("solve_b2")
_DUAL = _fixture_doc("dual_pair_classical")
_GOOD_T = _fixture_doc("good_t")
_WEDGE_CTX = _fixture_doc("wedge_ctx")
_LSA_NC2 = _fixture_doc("lsa_nc2")
_FROM_LSA = "construct omega-lie-from-lsa"

# (command words before the bundle path, bundle document, config document
# or None); every command but check takes the bundle as --in
HOSTILE_INPUTS = {
    "meta-not-object-omega-lie": ("check", _with(_fixture_doc("b2"), meta="x"), None),
    "meta-not-object-generalized": ("check", _with(_GENERALIZED, meta="x"), None),
    "meta-not-object-lsa": ("check", _with(_LSA, meta="x"), None),
    "restarts-zero": ("solve", _with(_SOLVE, options={"restarts": 0}), None),
    "restarts-bool": ("solve", _with(_SOLVE, options={"restarts": True}), None),
    "max-denominator-zero": ("solve", _with(_SOLVE, options={"max_denominator": 0}), None),
    "config-restarts-not-int": ("solve", _SOLVE, {"solver": {"restarts": "abc"}}),
    "seed-negative": ("solve", _with(_SOLVE, options={"seed": -1}), None),
    "restarts-above-cap": ("solve", _with(_SOLVE, options={"restarts": 10**13}), None),
    "dual-pair-omega-flavor": (
        "check",
        _with(_DUAL, algebra=_omega_flavor(_DUAL["algebra"])),
        None,
    ),
    "dim-string-generalized": ("check", _with(_GENERALIZED, dim="2"), None),
    "dim-string-lsa": ("check", _with(_LSA, dim="2"), None),
    "dim-bool-omega-lie": ("check", _with(_LINE, dim=True), None),
    "dim-bool-lsa": ("check", _with(_LSA, dim=True), None),
    "dim-bool-two-tensor": ("check", {"kind": "two_tensor", "dim": True, "entries": [["0"]]}, None),
    "carrier-dim-bool-representation": ("check", _with(_LINE_REP, carrier_dim=True), None),
    "carrier-dim-zero-representation": (
        "check",
        _with(_LINE_REP, carrier_dim=0, rho={"e1": []}),
        None,
    ),
    "carrier-dim-bool-gen-rep-pair": ("check", _with(_LINE_PAIR, carrier_dim=True), None),
    "bool-basis-index": ("check", _with(_fixture_doc("b2"), bracket=[[True, 2, 1, "1"]]), None),
    "bool-rational": ("check", _with(_fixture_doc("b2"), r=[True, False]), None),
    "config-not-object": ("check", _fixture_doc("b2"), [1]),
    "rep-not-object-o-operator": ("check", _with(_GOOD_T, rep=5), None),
    "rep-string-o-operator": ("check", _with(_GOOD_T, rep="kind"), None),
    "algebra-not-object-o-operator": ("check", _with(_GOOD_T, algebra=5), None),
    "dual-not-object-dual-pair": ("check", _with(_DUAL, dual=5), None),
    "algebra-not-object-two-tensor": ("check", _with(_fixture_doc("wedge_ctx"), algebra=5), None),
    "algebra-not-object-solve-request": ("check", _with(_SOLVE, algebra=5), None),
    "kind-list": ("check", _with(_LINE, kind=[]), None),
    "kind-object": ("check", _with(_LINE, kind={}), None),
    "dim-above-cap-omega-lie": ("check", {"kind": "omega_lie", "dim": 17, "bracket": []}, None),
    "carrier-dim-above-cap-representation": (
        "check",
        _with(_LINE_REP, carrier_dim=17, rho={"e1": [["0"] * 17] * 17}),
        None,
    ),
    "o-operator-omega-flavor": (
        "check",
        _with(_GOOD_T, algebra=_omega_flavor(_GOOD_T["algebra"])),
        None,
    ),
    "gen-rep-pair-omega-flavor": ("check", _with(_LINE_PAIR, algebra=_omega_flavor(_LINE)), None),
    "two-tensor-omega-flavor": (
        "check",
        _with(_WEDGE_CTX, algebra=_omega_flavor(_WEDGE_CTX["algebra"])),
        None,
    ),
    "solve-request-omega-flavor": (
        "check",
        _with(_SOLVE, algebra=_omega_flavor(_SOLVE["algebra"])),
        None,
    ),
    "three-tensor-plane-not-list": (
        "check",
        {"kind": "three_tensor", "dim": 1, "entries": [5]},
        None,
    ),
    "three-tensor-ragged-plane": (
        "check",
        {"kind": "three_tensor", "dim": 2, "entries": [[["0", "0"], ["0"]], [["0"] * 2] * 2]},
        None,
    ),
    "scale-flag-not-rational": (f"{_FROM_LSA} --c abc", _LSA_NC2, None),
    "scale-flag-empty": (f"{_FROM_LSA} --c=", _LSA_NC2, None),
    "scale-flag-zero-denominator": (f"{_FROM_LSA} --c 1/0", _LSA_NC2, None),
    "scale-field-string": (_FROM_LSA, _with(_LSA_NC2, c="x"), None),
    "scale-field-list": (_FROM_LSA, _with(_LSA_NC2, c=[]), None),
    "scale-field-object": (_FROM_LSA, _with(_LSA_NC2, c={}), None),
    "scale-field-null": (_FROM_LSA, _with(_LSA_NC2, c=None), None),
    "two-tensor-algebra-dim-differs": ("construct dual-from-r", _with(_WEDGE_CTX, algebra=_LINE), None),
    # Fraction("1eN") builds 10^N: for the first that takes without end,
    # for the second it gives a value past Python's integer-string limit
    "rational-exponent-huge": ("check", _with(_fixture_doc("b2"), r=["1e300000000", "0"]), None),
    "rational-past-digit-bound": ("construct adjoint-pair", _with(_fixture_doc("b2"), r=["1e5000", "0"]), None),
    "rational-digits-above-bound": ("check", _with(_fixture_doc("b2"), r=["1" * 101, "0"]), None),
}


@pytest.mark.parametrize("case", sorted(HOSTILE_INPUTS))
def test_cli_hostile_input_exit_2(case, tmp_path, capsys):
    command, doc, config = HOSTILE_INPUTS[case]
    path = tmp_path / "input.json"
    path.write_text(json.dumps(doc))
    argv = command.split() + ([str(path)] if command == "check" else ["--in", str(path)])
    if config is not None:
        cpath = tmp_path / "config.json"
        cpath.write_text(json.dumps(config))
        argv = ["--config", str(cpath)] + argv
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error: ") for line in captured.err.splitlines())
    assert "Traceback" not in captured.err


# The input of each construct recipe, every rational of which is replaced by
# the largest value the loader accepts.
_RECIPE_INPUTS = {
    "dual-rep": _LINE_REP,
    "adjoint-pair": _fixture_doc("b2"),
    "gen-dual": _LINE_PAIR,
    "semidirect": _LINE_REP,
    "double": _DUAL,
    "cobracket": _fixture_doc("b2"),
    "dual-from-r": _WEDGE_CTX,
    "lsa-from-o": _GOOD_T,
    "lift-o": _GOOD_T,
    "omega-lie-from-lsa": _LSA_NC2,
}
_LARGEST_RATIONAL = "-" + "9" * bundles.MAX_RAT_DIGITS + "/" + "9" * (bundles.MAX_RAT_DIGITS - 1) + "8"


def _largest_rationals(value):
    if isinstance(value, dict):
        return {key: _largest_rationals(child) for key, child in value.items()}
    if isinstance(value, list):
        return [_largest_rationals(child) for child in value]
    if isinstance(value, str) and value.lstrip("-").replace("/", "").isdigit():
        return _LARGEST_RATIONAL
    return value


def test_largest_rational_through_every_construct_recipe(tmp_path, capsys):
    assert sorted(_RECIPE_INPUTS) == sorted(KINDS["construct"])
    path = tmp_path / "input.json"
    for recipe, doc in _RECIPE_INPUTS.items():
        doc = _largest_rationals(doc)
        assert _LARGEST_RATIONAL in json.dumps(doc)
        path.write_text(json.dumps(doc))
        code = run(["construct", recipe, "--in", str(path)])
        captured = capsys.readouterr()
        assert code in (0, 1), (recipe, captured.err)
        out = json.loads(captured.out)
        if code == 1:
            assert out["kind"] == "report"
            assert "limit" not in captured.out  # no Python error rendered as a value
        assert captured.err == ""


# (fixture, command) pairs where the command is fed a document of a kind it
# does not read, with the kind it does read.  The fixture goes to --in, or to
# --algebra with wedge as --r-tensor for the yb commands.
WRONG_KIND = {
    ("bad_t", "solve"): "solve_request",
    ("dual_pair_classical", "solve"): "solve_request",
    ("wedge_ctx", "solve"): "solve_request",
    **{
        (fixture, f"construct {recipe}"): "omega_lie"
        for recipe in ("adjoint-pair", "cobracket")
        for fixture in ("lsa_nc2", "residual_b2", "wedge", "wedge_ctx")
    },
    **{
        (fixture, "construct omega-lie-from-lsa"): "lsa"
        for fixture in ("ax2", "b2", "residual_b2", "wedge", "wedge_ctx")
    },
    ("b2", "verify thm-3.8"): "dual_pair",
    ("good_t", "verify thm-4.4"): "two_tensor",
    ("wedge_ctx", "verify thm-5.18"): "o_operator",
    **{
        (fixture, f"yb {op} --algebra"): "omega_lie"
        for op in ("residual", "admissible", "lemma42", "bialgebra")
        for fixture in ("lsa_nc2", "residual_b2", "wedge", "wedge_ctx")
    },
}


@pytest.mark.parametrize("fixture, command", sorted(WRONG_KIND))
def test_cli_wrong_kind_exit_2(fixture, command, capsys):
    words = command.split()
    if words[0] == "yb":
        argv = words + [fixture_path(fixture), "--r-tensor", fixture_path("wedge")]
    else:
        argv = words + ["--in", fixture_path(fixture)]
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    errors = [line for line in captured.err.splitlines() if line.startswith("error: ")]
    assert errors and WRONG_KIND[fixture, command] in errors[0]


# Replacement values for the exit-code fuzzer: wrong types, empty blocks,
# bools, integers that are negative, zero, past the dimension cap or huge,
# and rationals whose exponent makes them huge.
_BAD_VALUES = [5, "x", [], {}, True, None, -1, 0, 17, 10**9, "2", "1e300000000", "1e5000"]
# The cross-check that reads each fixture kind; solve is left out, since its
# exit 1 means "did not converge" rather than a FAIL report.
_VERIFY = {
    "dual_pair_classical": "thm-3.8",
    "wedge_ctx": "thm-4.4",
    "good_t": "thm-5.18",
    "bad_t": "thm-5.18",
}


def _positions(value, path=()):
    """Path of every value below the top of a JSON document."""
    if isinstance(value, dict):
        children = value.items()
    elif isinstance(value, list):
        children = enumerate(value)
    else:
        return []
    out = []
    for key, child in children:
        out.append(path + (key,))
        out += _positions(child, path + (key,))
    return out


_FUZZ_TARGETS = [
    (path.stem, position)
    for path in sorted(FIXTURES.glob("*.json"))
    for position in _positions(json.loads(path.read_text()))
]


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@settings(derandomize=True, deadline=None, max_examples=300, database=None)
@given(target=st.sampled_from(_FUZZ_TARGETS), value=st.sampled_from(_BAD_VALUES))
def test_cli_exit_codes_under_fuzzed_fixtures(fuzz_dir, target, value):
    name, position = target
    doc = _fixture_doc(name)
    parent = doc
    for key in position[:-1]:
        parent = parent[key]
    parent[position[-1]] = value
    path = fuzz_dir / "input.json"
    path.write_text(json.dumps(doc))
    commands = [["check", str(path)]]
    if name in _VERIFY:
        commands.append(["verify", _VERIFY[name], "--in", str(path)])
    for argv in commands:
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = run(argv)
        assert code in (0, 1, 2), argv
        if code == 1:
            assert json.loads(out.getvalue())["kind"] == "report"
        if code == 2:
            assert out.getvalue() == ""
            assert any(line.startswith("error: ") for line in err.getvalue().splitlines())


def test_cli_yb_residual_zero_tensor(capsys):
    code = run(
        [
            "yb",
            "residual",
            "--algebra",
            fixture_path("b2"),
            "--r-tensor",
            fixture_path("wedge"),
        ]
    )
    assert code == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["kind"] == "three_tensor"
    flat = [e for plane in doc["entries"] for row in plane for e in row]
    assert set(flat) == {"0"}


def test_cli_yb_omega_flavor_algebra_exit_2(tmp_path, capsys):
    # the residual machinery needs r; an omega-flavor algebra is unusable input
    path = tmp_path / "b2_omega.json"
    path.write_text(json.dumps(_omega_flavor(_fixture_doc("b2"))))
    code = run(["yb", "residual", "--algebra", str(path), "--r-tensor", fixture_path("wedge")])
    assert code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert any(line.startswith("error: ") for line in captured.err.splitlines())


def test_cli_yb_admissible_and_bialgebra(capsys):
    for op in ("admissible", "lemma42", "bialgebra"):
        code = run(
            [
                "yb",
                op,
                "--algebra",
                fixture_path("b2"),
                "--r-tensor",
                fixture_path("wedge"),
            ]
        )
        assert code == 0, op
        capsys.readouterr()


def test_cli_config_switches_jac_scope(tmp_path, capsys):
    # zero tensor, nonzero central element: the derivation identity holds
    # under the full cyclic scope and fails under the first-only scope
    algebra = {"kind": "omega_lie", "dim": 2, "bracket": [], "r": ["0", "0"]}
    tensor = {"kind": "two_tensor", "dim": 2, "entries": [["0", "0"], ["0", "0"]]}
    apath, tpath = tmp_path / "a.json", tmp_path / "t.json"
    apath.write_text(json.dumps(algebra))
    tpath.write_text(json.dumps(tensor))
    args = ["yb", "lemma42", "--algebra", str(apath), "--r-tensor", str(tpath), "--u-r", "1,0"]
    assert run(args) == 0
    capsys.readouterr()
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"jac_delta_scope": "first"}))
    assert run(["--config", str(cpath)] + args) == 1
    doc = json.loads(capsys.readouterr().out)
    assert doc["meta"]["jac_scope"] == "first"


def test_cli_verify_thm_518_bad_operator(capsys):
    assert run(["verify", "thm-5.18", "--in", fixture_path("bad_t")]) == 1
    doc = json.loads(capsys.readouterr().out)
    clauses = {c["name"]: c["verdict"] for c in doc["clauses"]}
    assert clauses["operator-identity"] == "FAIL"
    assert clauses["lift-residual-zero"] == "FAIL"
    assert clauses["verdict-agreement"] == "PASS"


def test_cli_verify_thm_518_good_operator(capsys):
    assert run(["verify", "thm-5.18", "--in", fixture_path("good_t")]) == 0
    capsys.readouterr()


def test_cli_verify_thm_38_and_44(capsys):
    assert run(["verify", "thm-3.8", "--in", fixture_path("dual_pair_classical")]) == 0
    capsys.readouterr()
    assert run(["verify", "thm-4.4", "--in", fixture_path("wedge_ctx")]) == 0
    capsys.readouterr()


def test_cli_construct_double_and_check(tmp_path, capsys):
    out = tmp_path / "double.json"
    code = run(
        ["--out", str(out), "construct", "double", "--in", fixture_path("dual_pair_classical")]
    )
    assert code == 0
    doc = json.loads(out.read_text())
    assert doc["kind"] == "omega_lie" and doc["dim"] == 4
    assert run(["check", str(out)]) == 0
    capsys.readouterr()


def test_cli_construct_failure_is_fail_report(tmp_path, capsys):
    # lift of an invalid representation-operator input still parses, but a
    # construction whose precondition fails must emit a FAIL report
    doc = {
        "kind": "representation",
        "algebra": {"kind": "omega_lie", "dim": 2, "bracket": [[1, 2, 1, "1"]], "r": ["1", "0"]},
        "carrier_dim": 1,
        "rho": {"e1": [["0"]], "e2": [["0"]]},
    }
    path = tmp_path / "badrep.json"
    path.write_text(json.dumps(doc))
    assert run(["construct", "dual-rep", "--in", str(path)]) == 1
    out = json.loads(capsys.readouterr().out)
    assert out["verdict"] == "FAIL"


def test_cli_reports_are_byte_stable(tmp_path):
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    run(["--out", str(out1), "check", fixture_path("ax2")])
    run(["--out", str(out2), "check", fixture_path("ax2")])
    assert out1.read_bytes() == out2.read_bytes()


def test_cli_solve_deterministic(tmp_path):
    out1, out2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run(["--deterministic", "--out", str(out1), "solve", "--in", fixture_path("solve_b2")]) == 0
    assert run(["--deterministic", "--out", str(out2), "solve", "--in", fixture_path("solve_b2")]) == 0
    assert out1.read_bytes() == out2.read_bytes()
    doc = json.loads(out1.read_text())
    assert doc["converged"] and doc["exact_verified"]
    assert doc["tensor"]["entries"][0][1] != "0"


def test_cli_solve_empty_space_exit_2(tmp_path, capsys):
    req = {"kind": "solve_request", "algebra": json.loads((FIXTURES / "ax2.json").read_text())}
    path = tmp_path / "req.json"
    path.write_text(json.dumps(req))
    assert run(["solve", "--in", str(path)]) == 2
    assert "error" in capsys.readouterr().err


def test_cli_construct_omega_lie_from_lsa(capsys):
    assert run(["construct", "omega-lie-from-lsa", "--in", fixture_path("lsa_nc2")]) == 0
    doc = json.loads(capsys.readouterr().out)
    assert doc["r"] == ["1", "0"]
    assert doc["meta"]["complement_indices"] == [1]


def test_cli_check_operator_with_invalid_rep_is_fail(tmp_path, capsys):
    doc = {
        "kind": "o_operator",
        "algebra": {"kind": "omega_lie", "dim": 2, "bracket": [[1, 2, 1, "1"]], "r": ["1", "0"]},
        "rep": {"kind": "representation", "carrier_dim": 1, "rho": {"e1": [["0"]], "e2": [["0"]]}},
        "T": [["0"], ["0"]],
    }
    path = tmp_path / "op.json"
    path.write_text(json.dumps(doc))
    assert run(["check", str(path)]) == 1
    assert json.loads(capsys.readouterr().out)["verdict"] == "FAIL"


def test_module_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "omegalie", "check", fixture_path("b2")],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout)["verdict"] == "PASS"


# The omegalie modules that every algebra loads, and that every command loads.
_CORE = {"algebras", "linalg", "reports", "errors"}
_CLI = _CORE | {"cli", "bundles"}
_YB = ["--algebra", fixture_path("b2"), "--r-tensor", fixture_path("wedge")]
# (case, statement or command, the omegalie submodules it loads).  Start-up
# is part of every command's time: a command loads only the modules of its
# kind, and only the solver loads numpy and dataclasses.
IMPORT_GRAPH = [
    ("root", "import omegalie", set()),
    ("checkers",
     "import omegalie.algebras, omegalie.bialgebra, omegalie.yang_baxter, omegalie.operators, "
     "omegalie.cli, omegalie.bundles",
     _CLI | {"bialgebra", "operators", "representations", "yang_baxter"}),
    ("solver", "import omegalie.solver", _CORE | {"solver", "yang_baxter"}),
    ("check-b2", ["check", fixture_path("b2")], _CLI),
    ("check-two-tensor", ["check", fixture_path("wedge_ctx")], _CLI | {"yang_baxter"}),
    ("construct-adjoint-pair", ["construct", "adjoint-pair", "--in", fixture_path("b2")],
     _CLI | {"representations"}),
    ("construct-cobracket", ["construct", "cobracket", "--in", fixture_path("b2")],
     _CLI | {"representations", "bialgebra"}),
    ("verify-thm-3.8", ["verify", "thm-3.8", "--in", fixture_path("dual_pair_classical")],
     _CLI | {"representations", "bialgebra"}),
    ("verify-thm-5.18", ["verify", "thm-5.18", "--in", fixture_path("good_t")],
     _CLI | {"operators", "representations", "yang_baxter"}),
    ("yb-residual", ["yb", "residual"] + _YB, _CLI | {"yang_baxter"}),
    ("solve", ["--deterministic", "solve", "--in", fixture_path("solve_b2")],
     _CLI | {"solver", "yang_baxter"}),
]


@pytest.mark.parametrize("case, run_what, expected", IMPORT_GRAPH, ids=[c[0] for c in IMPORT_GRAPH])
def test_import_graph(tmp_path, case, run_what, expected):
    if isinstance(run_what, str):
        code = f"import json, sys\n{run_what}\n"
    else:  # python -m omegalie, with the document written to a file
        argv = ["--out", str(tmp_path / "out.json")] + run_what
        code = (
            "import json, runpy, sys\n"
            f"sys.argv = ['omegalie'] + {argv!r}\n"
            "try:\n"
            "    runpy.run_module('omegalie', run_name='__main__', alter_sys=True)\n"
            "except SystemExit as exc:\n"
            "    assert exc.code == 0, exc.code\n"
        )
    code += "print(json.dumps(sorted(sys.modules)))\n"
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    loaded = set(json.loads(proc.stdout))
    assert {m.split(".", 1)[1] for m in loaded if m.startswith("omegalie.")} == expected
    if "solver" not in expected:
        assert not loaded & {"dataclasses", "inspect", "numpy"}


def test_non_solve_commands_do_not_import_numpy(tmp_path):
    # only solve, and check of a solve_request, run the numpy solver
    out = str(tmp_path / "out.json")
    commands = [
        ["check", fixture_path("b2")],
        ["verify", "thm-5.18", "--in", fixture_path("good_t")],
    ]
    code = (
        "import sys\n"
        "from omegalie.cli import run\n"
        f"print([run(['--out', {out!r}] + argv) for argv in {commands!r}], 'numpy' in sys.modules)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[0, 0] False"


def test_cli_out_unwritable_is_usage_error(tmp_path, capsys):
    missing = str(tmp_path / "missing" / "x.json")
    for out in (missing, str(tmp_path)):  # no such directory; a directory
        assert run(["--out", out, "check", fixture_path("b2")]) == 2
        assert f"error: cannot write {out}: " in capsys.readouterr().err
    # the failure report of an unmet precondition is written the same way
    heis_r3 = omega_lie(3, {(0, 1): [0, 0, 1]}, r=[0, 0, 1])  # fails twisted Jacobi
    doc = {"kind": "dual_pair", "algebra": bundles.omega_lie_doc(heis_r3)}
    doc["dual"] = bundles.omega_lie_doc(abelian(3))
    path = tmp_path / "pair.json"
    path.write_text(json.dumps(doc))
    assert run(["check", str(path)]) == 1
    capsys.readouterr()
    assert run(["--out", missing, "check", str(path)]) == 2
    assert f"error: cannot write {missing}: " in capsys.readouterr().err


def _assert_not_admissible(capsys, argv):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "error: the tensor is not admissible" in captured.err


def test_cli_yb_bialgebra_rejects_non_admissible_tensor(capsys):
    # ax2 has r = e1*, so its admissible subspace is zero: the wedge is not
    # admissible, and u_r = 0 is eligible
    args = ["yb", "bialgebra", "--algebra", fixture_path("ax2"), "--r-tensor", fixture_path("wedge")]
    _assert_not_admissible(capsys, args)


def test_cli_verify_thm_44_rejects_non_admissible_tensor(tmp_path, capsys):
    tensor = TwoTensor.wedge(Vector.unit(2, 0), Vector.unit(2, 1))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(bundles.two_tensor_doc(tensor, make_ax2(), Vector.zero(2))))
    _assert_not_admissible(capsys, ["verify", "thm-4.4", "--in", str(path)])


def _assert_ineligible(capsys, argv, rule="center"):
    assert run(argv) == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"error: u_r is not eligible under central_rule {rule!r}" in captured.err


def test_cli_verify_thm_44_rejects_ineligible_u_r(tmp_path, capsys):
    # b2+line-r3 has center span(e3); u_r = e2 is outside it, so the
    # theorem's hypothesis fails and no verdict may be reported
    alg = make_b2_line_r3()
    tensor = TwoTensor.wedge(Vector.unit(3, 0), Vector.unit(3, 1))
    path = tmp_path / "t.json"
    path.write_text(json.dumps(bundles.two_tensor_doc(tensor, alg, Vector.unit(3, 1))))
    _assert_ineligible(capsys, ["verify", "thm-4.4", "--in", str(path)])


def test_cli_yb_bialgebra_rejects_ineligible_u_r(tmp_path, capsys):
    args = ["yb", "bialgebra", "--algebra", fixture_path("b2"), "--r-tensor", fixture_path("wedge")]
    _assert_ineligible(capsys, args + ["--u-r", "1,0"])
    # a nonzero central element is eligible under "center" but not under "zero"
    apath = tmp_path / "a.json"
    apath.write_text(json.dumps({"kind": "omega_lie", "dim": 2, "bracket": [], "r": ["0", "0"]}))
    args = ["yb", "bialgebra", "--algebra", str(apath), "--r-tensor", fixture_path("wedge"), "--u-r", "1,0"]
    assert run(args) == 0
    capsys.readouterr()
    cpath = tmp_path / "config.json"
    cpath.write_text(json.dumps({"central_rule": "zero"}))
    _assert_ineligible(capsys, ["--config", str(cpath)] + args, rule="zero")


def test_cli_solve_rejects_ineligible_u_r(tmp_path, capsys):
    doc = _fixture_doc("solve_b2")
    doc["u_r"] = ["1", "0"]
    path = tmp_path / "req.json"
    path.write_text(json.dumps(doc))
    _assert_ineligible(capsys, ["solve", "--in", str(path)])
