"""Every exported name resolves and has a caller in the package, and retired conveniences stay retired."""

import ast
import importlib
import pkgutil
from pathlib import Path

import pytest

import twonorm

MODULES = [twonorm] + [
    importlib.import_module(f"twonorm.{info.name}")
    for info in pkgutil.iter_modules(twonorm.__path__)
    if not info.name.startswith("_")
]
RETIRED = (
    "bracket",
    "connecting_unitary",
    "l2_operator_norm",
    "riemannian_inner_grassmann",
    "delta_v",
    # Artifacts are written by the standard library's json and float repr.
    "format_float",
    "json_dumps",
    # Models none of the MCSCF manifold.
    "mcscf_validate",
    # The conjugation section is the direct rotation, with no lifted base point.
    "_lift",
    "_psi_on",
    # A one-line wrapper: the section is section_factors(V, V1).sigma.
    "cross_section_sigma",
    # Tangent maps with no caller in the package: Y -> Y V*2, the projection
    # Y -> Y V*2 V (which equals Y Pi_S for every V), delta_P twice (a wrapper
    # of delta_p) and the polarization of the p = 2 Finsler norm.
    "K_map",
    "tangent_project",
    "tangent_project_grassmann",
    "riemannian_inner_stiefel",
    # The joint span of two frames has one home, group._TwoFrames, whose
    # direct rotation takes the overlap's SVD.
    "_joint_span",
    "_overlap_rotation",
    # The principal logarithm is defined on the whole group.
    "LogUnavailable",
    # The series is run at its automatic term count by sqrt_F alone, and
    # binomial_sqrt_truncated takes explicit counts.
    "binomial_sqrt",
    # The series runs on the singular values of its factor, with no stored powers.
    "SERIES_BLOCK",
    # A dense projection is checked where it enters, in ProjectionOperator.from_matrix.
    "require_weak_projection",
    # The one algebra draw is random_skew(rng, F, g), on span[F, G]; the full-rank
    # k = n draw and its exponential are built by the tests that check the dense group.
    "random_span_skew",
    "random_group_member",
    # Dense residuals and the strong adjoint of an n-by-n operand that only
    # validate called: the suites read the blocks and defects of span elements
    # and take adjoints of LowRank factors, and the tests reach the dense
    # statements through the oracles.
    "skew_residual",
    "adjoint_h1",
    "algebraic_membership_residual",
)
# Public names with no caller in the package, kept on purpose: the dense entry
# for Gram matrices that do not come from a grid, the writer of the frame-file
# format that ``frame_file`` reads, and the dense weak adjoint and membership
# residual, which campaign_bench/spans.py traces by name.  The oracles module
# is exempt as a whole: it holds references for the tests.
KEPT = {"gram_pair_from_matrices", "matrix_to_json", "adjoint_l2", "membership_residual"}
# Members folded into their callers: projection distances and contraction
# bounds are taken on the joint span of the range frames.  A point's image
# projection is phi(V).P, and random_skew and algebraic_membership_residual
# need no congruence by gl2^{-1/2}.  An element's inverse is the element
# U.inverse on the same span, with its own data, displacement and h1_norm.
# No library routine forms a k = n span, so dense input no longer enters the
# group and no span is recognised as the pair's own gl2^{-1/2}.
RETIRED_MEMBERS = (
    (twonorm.LowRank, "__sub__"),
    (twonorm.StiefelOperator, "projection_factors"),
    (twonorm.StiefelOperator, "projection"),
    (twonorm.GramPair, "isqrt_l2_congruence"),
    (twonorm.space.GridPair, "isqrt_l2_congruence"),
    (twonorm.GroupElement, "inv"),
    (twonorm.GroupElement, "inv_displacement"),
    (twonorm.GroupElement, "inv_h1_norm"),
    (twonorm.GroupElement, "from_matrix"),
    (twonorm.SkewOperator, "from_matrix"),
    (twonorm.GramPair, "is_isqrt_l2"),
    (twonorm.space.GridPair, "is_isqrt_l2"),
)
# Members with no caller in the package, kept on purpose: the dense entries of
# points and projections at the API boundary, as gram_pair_from_matrices is for
# pairs, and the dense views of span elements, which the tests and oracles read.
KEPT_MEMBERS = {
    "StiefelOperator.from_matrix",
    "ProjectionOperator.from_matrix",
    "GroupElement.data",
    "SkewOperator.data",
}


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_retired_names_are_gone(module):
    assert [name for name in RETIRED if hasattr(module, name)] == []


PACKAGE = Path(twonorm.__file__).parent
# A caller is a use as a name or an attribute anywhere outside __init__,
# the defining module included; the re-exports in __init__ do not count.
USED = {
    node.id if isinstance(node, ast.Name) else node.attr
    for path in PACKAGE.glob("*.py")
    if path.name != "__init__.py"
    for node in ast.walk(ast.parse(path.read_text()))
    if isinstance(node, (ast.Name, ast.Attribute))
}


def test_every_public_name_has_a_caller_in_the_package():
    exported = {
        name
        for module in MODULES[1:]
        if module.__name__ != "twonorm.oracles"
        for name in getattr(module, "__all__", ())
    }
    assert sorted(exported - USED - KEPT) == []
    # An exemption for a name that has gained a caller, or is gone, is stale.
    assert sorted(KEPT - (exported - USED)) == []


def test_every_error_but_the_base_is_raised_in_the_package():
    # A retired failure mode must not linger as a type that is caught but never raised.
    errors = {node.name for node in ast.parse((PACKAGE / "errors.py").read_text()).body if isinstance(node, ast.ClassDef)}
    raised = {
        getattr(exc, "id", getattr(exc, "attr", None))
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Raise) and node.exc is not None
        for exc in [node.exc.func if isinstance(node.exc, ast.Call) else node.exc]
    }
    assert sorted(errors - raised - {"TwoNormError"}) == []


def test_every_public_member_of_an_exported_class_has_a_caller_in_the_package():
    # A method or property counts as reached, as a name does, when its name is used outside __init__.
    members = {
        f"{cls.name}.{node.name}"
        for module in MODULES[1:]
        for cls in ast.parse(Path(module.__file__).read_text()).body
        if isinstance(cls, ast.ClassDef) and cls.name in getattr(module, "__all__", ())
        for node in cls.body
        if isinstance(node, ast.FunctionDef) and not node.name.startswith("_")
    }
    unused = {m for m in members if m.split(".")[1] not in USED}
    assert sorted(unused - KEPT_MEMBERS) == []
    # An exemption for a member that has gained a caller, or is gone, is stale.
    assert sorted(KEPT_MEMBERS - unused) == []


def _unused_imports(path):
    tree = ast.parse(path.read_text())
    imported = {
        alias.asname or alias.name.split(".")[0]
        for node in ast.walk(tree)
        if isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__"
        for alias in node.names
    }
    return imported - {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}


def test_no_module_or_test_imports_a_name_it_does_not_use():
    # __init__ imports to re-export.
    paths = [p for p in PACKAGE.glob("*.py") if p.name != "__init__.py"]
    paths += sorted(Path(__file__).parent.glob("*.py"))
    assert {p.name: sorted(names) for p in paths if (names := _unused_imports(p))} == {}


@pytest.mark.parametrize("owner, name", RETIRED_MEMBERS, ids=lambda x: getattr(x, "__name__", x))
def test_retired_members_are_gone(owner, name):
    assert not hasattr(owner, name)


# Dense operators are read only by the oracles; every routine, the validation
# campaign included, applies a point, a projection or a span element through its
# frame or span.
DENSE_ATTRIBUTES = {"P", "V", "data"}


def _dense_readers(path):
    """The top-level statements and class members of a module that read a dense operator attribute.

    Each is named by its function, method or class, or by its line when it has no name.
    """
    tree = ast.parse(path.read_text())
    units = [(None, node) for node in tree.body if not isinstance(node, ast.ClassDef)]
    units += [(cls.name, node) for cls in tree.body if isinstance(cls, ast.ClassDef) for node in cls.body]
    return [
        ".".join(filter(None, (path.stem, owner, getattr(node, "name", f"line {node.lineno}"))))
        for owner, node in units
        if any(
            isinstance(n, ast.Attribute) and isinstance(n.ctx, ast.Load) and n.attr in DENSE_ATTRIBUTES
            for n in ast.walk(node)
        )
    ]


def test_no_library_routine_reads_a_dense_operator():
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name != "oracles.py")
    assert [name for path in paths for name in _dense_readers(path)] == []


def test_only_the_pair_and_the_oracles_read_a_dense_weak_root():
    # gl2^{+-1/2} are n-by-n; every span is weakly orthonormal and applied through g.l2.
    readers = {
        path.name
        for path in PACKAGE.glob("*.py")
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and node.attr in ("isqrt_l2", "sqrt_l2")
    }
    assert sorted(readers - {"space.py", "oracles.py"}) == []
