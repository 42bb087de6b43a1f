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


def test_every_public_name_has_a_caller_in_the_package():
    # A caller is a use as a name or an attribute anywhere outside __init__,
    # the defining module included; the re-exports in __init__ do not count.
    package = Path(twonorm.__file__).parent
    used = {
        node.id if isinstance(node, ast.Name) else node.attr
        for path in package.glob("*.py")
        if path.name != "__init__.py"
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, (ast.Name, ast.Attribute))
    }
    exported = {
        name
        for module in MODULES[1:]
        if module.__name__ != "twonorm.oracles"
        for name in getattr(module, "__all__", ())
    }
    assert sorted(exported - used - KEPT) == []
    # An exemption for a name that has gained a caller, or is gone, is stale.
    assert sorted(KEPT - (exported - used)) == []


@pytest.mark.parametrize("owner, name", RETIRED_MEMBERS, ids=lambda x: getattr(x, "__name__", x))
def test_retired_members_are_gone(owner, name):
    assert not hasattr(owner, name)
