"""Every exported name resolves, and retired conveniences stay retired."""

import importlib
import pkgutil

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
)
# Members folded into their callers: projection distances and contraction
# bounds are taken on the joint span of the range frames.
RETIRED_MEMBERS = ((twonorm.LowRank, "__sub__"), (twonorm.StiefelOperator, "projection_factors"))


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_every_exported_name_resolves(module):
    assert [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)] == []


@pytest.mark.parametrize("module", MODULES, ids=lambda m: m.__name__)
def test_retired_names_are_gone(module):
    assert [name for name in RETIRED if hasattr(module, name)] == []


@pytest.mark.parametrize("owner, name", RETIRED_MEMBERS, ids=lambda x: getattr(x, "__name__", x))
def test_retired_members_are_gone(owner, name):
    assert not hasattr(owner, name)
