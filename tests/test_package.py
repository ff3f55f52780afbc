"""The package surface: the names of ``hopfact.__all__`` are resolved on
first use, and resolve to the objects their modules define."""

import pytest

import hopfact
import hopfact.action
import hopfact.effectiveness
import hopfact.hopf
import hopfact.oracle

PUBLIC = [
    "HopfParams", "OrbitPoint", "canonicalize", "orbit_distance",
    "ActionKind", "ActionSpec", "act", "d_pow", "solve_transport",
    "EffectivenessVerdict", "is_effective", "is_effective_corollary",
    "kernel_witness_element",
    "verify_group_law", "verify_transitivity", "verify_well_definedness",
    "BACKEND_NAME",
]
MODULES = (hopfact.hopf, hopfact.action, hopfact.effectiveness, hopfact.oracle)


def test_all_is_unchanged():
    assert hopfact.__all__ == PUBLIC
    assert (hopfact.BACKEND_NAME, hopfact.__version__) == ("python", "0.1.0")


@pytest.mark.parametrize("name", PUBLIC[:-1])
def test_every_name_resolves_to_its_module_object(name):
    value = getattr(hopfact, name)
    assert any(getattr(module, name, None) is value for module in MODULES)


def test_star_import():
    namespace = {}
    exec("from hopfact import *", namespace)
    assert set(PUBLIC) <= set(namespace)
    assert namespace["act"] is hopfact.action.act


def test_dir_lists_every_public_name():
    assert set(PUBLIC) <= set(dir(hopfact))


def test_unknown_attribute_raises():
    with pytest.raises(AttributeError, match="module 'hopfact' has no attribute 'bogus'"):
        hopfact.bogus
    assert not hasattr(hopfact, "serialize_all")


def test_action_kind_has_one_definition():
    assert hopfact.action.ActionKind is hopfact.effectiveness.ActionKind
    assert hopfact.ActionKind is hopfact.effectiveness.ActionKind
