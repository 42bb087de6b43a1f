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
)
# Public names with no caller in the package, kept on purpose: the dense entry
# for Gram matrices that do not come from a grid, the writer of the frame-file
# format that ``frame_file`` reads, and the series with its automatic term count.
# The oracles module is exempt as a whole: it holds references for the tests.
KEPT = {"gram_pair_from_matrices", "matrix_to_json", "binomial_sqrt"}
# Members folded into their callers: projection distances and contraction
# bounds are taken on the joint span of the range frames.
RETIRED_MEMBERS = ((twonorm.LowRank, "__sub__"), (twonorm.StiefelOperator, "projection_factors"))


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
    assert sorted(m for m in members if m.split(".")[1] not in USED) == []


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


# Dense operators are read only by the validation campaign and the oracles;
# every other routine applies a point or a projection through its frame.
DENSE_ATTRIBUTES = {"P", "projection", "V"}


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
    paths = sorted(p for p in PACKAGE.glob("*.py") if p.name not in ("validate.py", "oracles.py"))
    assert [name for path in paths for name in _dense_readers(path)] == []
