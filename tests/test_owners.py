"""Each rule of the majorization test is written once, in the function that owns it.

Singular values come from ``_singular_values``, the one caller of
LAPACK's SVD. A Schmidt spectrum is taken by ``_schmidt_spectra``, the
product test is ``_is_product``, the probability average of target
spectra is ``_average`` and basis completeness is
``_require_complete``. Witness reports are read off the kernel's rows,
without the checked ``SchmidtVector`` constructor or ``_conversion``, and
states are made from a stack's rows by one helper. The search
has one driver, ``search``, and one builder per mode, each the only user of
its mode's code, and one function says which sets never certify. Each
builder asks one function, ``_margin_cap``, for its margin cap, whose
spectrum is taken by ``_schmidt_spectra``. The
conjugate detectors of the full-basis witness, which also start the
free-detector search, have one builder. A state's input norm and its two
refusals are written once, in ``PureState._normalize``. The scan reads the package's syntax
trees, so docstrings, which may quote a rule, do not count.
"""

import ast
from pathlib import Path

import locc_witness

PACKAGE = Path(locc_witness.__file__).parent


def _docstrings(tree: ast.Module) -> set[int]:
    """The ids of the docstring nodes of a module and its classes and functions."""
    owners = [tree] + [n for n in ast.walk(tree) if isinstance(n, (ast.ClassDef, ast.FunctionDef, ast.AsyncFunctionDef))]
    return {
        id(node.body[0].value)
        for node in owners
        if node.body and isinstance(node.body[0], ast.Expr) and isinstance(node.body[0].value, ast.Constant)
    }


def _sites(matches) -> list[str]:
    """``module:function`` for every node of the package that ``matches``, the function being the innermost."""
    found = []
    for path in sorted(PACKAGE.glob("*.py")):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        skip = _docstrings(tree)

        def visit(node, where):
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                where = node.name
            if id(node) not in skip and matches(node):
                found.append(f"{path.stem}:{where}")
            for child in ast.iter_child_nodes(node):
                visit(child, where)

        visit(tree, "<module>")
    return found


def test_schmidt_spectra_are_taken_in_one_place():
    # the rank warning needs singular values, not their squares, so it shares
    # the singular-value helper rather than the spectra
    def singular_values(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_singular_values"

    assert _sites(singular_values) == ["states:_schmidt_spectra", "witness:_problem_warnings"]


def test_lapack_svd_is_called_in_one_place():
    # numpy's gufunc is looked up once at import and called only by the
    # helper, whose fallback is the one np.linalg.svd left in the package
    def linalg_svd(node):
        return (
            isinstance(node, ast.Attribute)
            and node.attr == "svd"
            and isinstance(node.value, ast.Attribute)
            and node.value.attr == "linalg"
        )

    def umath_linalg(node):
        # an imported module's or alias's name, an attribute or a variable
        names = (getattr(node, field, None) for field in ("module", "name", "attr", "id"))
        return any(isinstance(name, str) and "_umath_linalg" in name for name in names)

    def gufunc_read(node):
        return isinstance(node, ast.Name) and node.id == "_lapack_svd" and isinstance(node.ctx, ast.Load)

    assert _sites(linalg_svd) == ["states:_singular_values"]
    assert _sites(umath_linalg) == ["states:<module>"]
    assert set(_sites(gufunc_read)) == {"states:_singular_values"}


def test_product_test_is_written_once():
    def one_minus_tol(node):
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.left, ast.Constant)
            and node.left.value == 1.0
            and isinstance(node.right, ast.Name)
            and node.right.id == "tol"
        )

    assert _sites(one_minus_tol) == ["states:_is_product"]


def test_completeness_is_required_in_one_place():
    def incomplete(node):
        return isinstance(node, ast.Constant) and isinstance(node.value, str) and "is incomplete" in node.value

    assert _sites(incomplete) == ["states:_require_complete"]


def test_ensemble_average_has_no_loop():
    def loop(node):
        return isinstance(node, (ast.For, ast.AsyncFor, ast.While))

    assert "majorization:ensemble_average" not in _sites(loop)


MODE_CODE = {
    "bell_states": "_bell_mode",
    "_float_nelder_mead": "_bell_mode",
    "_nelder_mead": "_free_mode",
    "_free_detectors": "_free_mode",
    "_random_maximally_entangled": "_free_mode",
    "_conjugate_detectors": "_free_mode",
}


def _search_functions() -> dict[str, list[ast.AST]]:
    """The nodes of each top-level function of search.py, nested functions included, docstrings not."""
    tree = ast.parse((PACKAGE / "search.py").read_text(encoding="utf-8"))
    skip = _docstrings(tree)
    return {
        node.name: [n for n in ast.walk(node) if id(n) not in skip]
        for node in tree.body
        if isinstance(node, ast.FunctionDef)
    }


def _names(nodes) -> list[str]:
    return [n.id for n in nodes if isinstance(n, ast.Name)]


def test_search_picks_its_mode_once():
    # the driver reads cfg.mode once, to look up its builder, and names no mode
    driver = _search_functions()["search"]
    assert len([n for n in driver if isinstance(n, ast.Attribute) and n.attr == "mode"]) == 1
    assert _names(driver).count("_MODES") == 1
    assert not {"FIXED_BELL_ENUMERATION", "FREE_DETECTORS", "MODES"} & set(_names(driver))


def test_each_mode_owns_its_code():
    users = {function: set(_names(nodes)) for function, nodes in _search_functions().items()}
    for name, builder in MODE_CODE.items():
        assert [function for function, used in users.items() if name in used] == [builder], name


def test_at_most_two_states_rule_has_one_owner():
    # two orthogonal pure states are always LOCC distinguishable (Walgate et al.), so such a set never
    # certifies: the driver's wave width and Bell mode's uniform pass ask the one function that says so
    def counts_against_two(node):
        # a number of states, k or len(...), ordered against 2 or 3
        ordering = (ast.Lt, ast.LtE, ast.Gt, ast.GtE)
        if not (isinstance(node, ast.Compare) and any(isinstance(op, ordering) for op in node.ops)):
            return False
        operands = (node.left, *node.comparators)
        bound = any(isinstance(n, ast.Constant) and type(n.value) is int and n.value in (2, 3) for n in operands)
        counted = any(
            isinstance(n, ast.Name) and n.id == "k" or isinstance(n, ast.Call) and getattr(n.func, "id", None) == "len"
            for n in operands
        )
        return bound and counted

    def asks(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_always_distinguishable"

    assert _sites(counts_against_two) == ["search:_always_distinguishable"]
    assert _sites(asks) == ["search:_bell_mode", "search:search"]


def test_margin_cap_has_one_owner():
    # each mode builder asks _margin_cap for its cap and returns it; search turns whatever cap it
    # gets into the stop value and names no mode (test_search_picks_its_mode_once)
    def asks(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_margin_cap"

    def takes_reciprocal(node):
        # 1 - 1/d', the cap of any detectors
        return (
            isinstance(node, ast.BinOp)
            and isinstance(node.op, ast.Sub)
            and isinstance(node.right, ast.BinOp)
            and isinstance(node.right.op, ast.Div)
            and all(isinstance(n, ast.Constant) and n.value == 1 for n in (node.left, node.right.left))
        )

    assert _sites(asks) == ["search:_bell_mode", "search:_free_mode"]
    assert _sites(takes_reciprocal) == ["search:_margin_cap"]
    assert "cap" in _names(_search_functions()["search"])


def test_margin_cap_takes_its_spectrum_from_singular_values():
    # mu is a top squared singular value, taken by _schmidt_spectra, the one owner of squared
    # singular values, which takes them from _singular_values (test_schmidt_spectra_are_taken_in_one_place);
    # the cap calls no eigensolver of its own
    def eigensolver(node):
        return isinstance(node, ast.Attribute) and node.attr.startswith("eig")

    cap = _search_functions()["_margin_cap"]
    assert _names(cap).count("_schmidt_spectra") == 2
    attributes = [n.attr for n in cap if isinstance(n, ast.Attribute)]
    assert not {"_singular_values", "_lapack_svd", "svd"} & set(_names(cap) + attributes)
    assert _sites(eigensolver) == []


def test_wave_branch_bytes_are_read_in_one_place():
    def read(node):
        return isinstance(node, ast.Name) and node.id == "_WAVE_BRANCH_BYTES" and isinstance(node.ctx, ast.Load)

    assert _sites(read) == ["search:search"]


def test_reports_leave_the_object_layer():
    # the checked constructor and the object-layer conversion serve the public API and the tests only
    def checked(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "SchmidtVector"

    def conversion(node):
        # an imported name, an attribute or a variable
        return "_conversion" in (getattr(node, field, None) for field in ("name", "attr", "id"))

    assert [site for site in _sites(checked) + _sites(conversion) if site.startswith("witness:")] == []


def test_trusted_schmidt_vectors_are_made_by_the_report_alone():
    def trusted(node):
        return isinstance(node, ast.Attribute) and node.attr == "_trusted" and isinstance(node.ctx, ast.Load)

    assert set(_sites(trusted)) == {"witness:_witness_report"}


def test_states_are_made_from_rows_in_one_place():
    loops = (ast.For, ast.AsyncFor, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)

    def wraps_in_a_loop(node):
        return isinstance(node, loops) and any(
            isinstance(n, ast.Attribute) and n.attr == "_wrap" for n in ast.walk(node)
        )

    assert _sites(wraps_in_a_loop) == ["states:_states_from_rows"]


def test_conjugate_detectors_have_one_builder():
    # the full-basis witness and the free search's first start take the same read-only stack
    def builds(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Name) and node.func.id == "_conjugate_detectors"

    def conjugates_states(node):
        # psi.conj(), psi.conjugate(), np.conj(psi) or np.conjugate(psi) on a state stack
        if not (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)):
            return False
        if node.func.attr not in ("conj", "conjugate"):
            return False
        operand = node.args[0] if node.args else node.func.value
        return isinstance(operand, ast.Name) and operand.id == "psi"

    assert _sites(builds) == ["search:_free_mode", "witness:_full_basis"]
    assert _sites(conjugates_states) == ["witness:_conjugate_detectors"]


def test_input_norm_and_its_refusals_are_written_once():
    # the constructor and the parser's block normalizer, PureState._extend, both call _normalize
    def squares(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "dot"

    def refusal(node):
        text = node.value if isinstance(node, ast.Constant) and isinstance(node.value, str) else ""
        return "is not finite" in text or "cannot normalize" in text

    def normalizes(node):
        return isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute) and node.func.attr == "_normalize"

    assert _sites(squares) == ["states:_normalize"] * 2
    assert _sites(refusal) == ["states:_normalize"] * 2
    assert _sites(normalizes) == ["states:__init__", "states:_extend"]
