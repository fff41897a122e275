"""The package's public names: every exported name resolves, and the
helpers and types folded into ``normalize`` and ``classify`` stay gone."""

import ast
import sys
from pathlib import Path

import maxmod

REMOVED = (
    "inner_degree",
    "core_polynomial",
    "is_exceptional",
    "brute_force_mset",
    "direct_mod2",
    "circle_argmax",
    "MonomialVerdict",  # normalize raises MonomialAllPlaneError on a monomial
    "cubic_magic",  # the closed form is the oracle of tests/oracles.py
    "NotCubicFamilyError",  # only cubic_magic raised it
    "omega_angles",  # the candidate angles are HaymanForm.omega
    "predict_J",  # the survivor recursion is the oracle of tests/oracles.py
    "PredictedJ",  # predict_J's result, with the oracle in tests/oracles.py
    "TermFilter",  # one term of predict_J's history, likewise
)


def test_all_names_resolve():
    for name in maxmod.__all__:
        assert hasattr(maxmod, name), name
    namespace = {}
    exec("from maxmod import *", namespace)
    assert set(maxmod.__all__) <= set(namespace)


def test_removed_helpers_are_absent():
    for name in REMOVED:
        assert name not in maxmod.__all__
        assert not hasattr(maxmod, name), name
        assert not hasattr(maxmod.poly, name), name
        assert not hasattr(sys.modules["maxmod.classify"], name), name
        assert not hasattr(maxmod.errors, name), name


def test_mu_and_core_degree_live_on_the_normal_form():
    h = maxmod.normalize(maxmod.parse_poly("1,0,0,0,1,0,1,1,0,1"))
    assert (h.k, h.mu, h.N) == (4, 1, 7)
    # validity was a copy of exceptional on the survivor recursion's result
    assert "validity" not in maxmod.Classification.__dataclass_fields__


def test_unread_fields_are_absent():
    # fields no report printed: Classification.k and .a live on the normal
    # form, .minimal was ``not exceptional``, .predicted_j is the survivor
    # oracle's
    fields = maxmod.Classification.__dataclass_fields__
    assert not {"k", "a", "minimal", "predicted_j"} & set(fields)
    assert "omega" not in maxmod.TraceResult.__dataclass_fields__
    assert maxmod.Polynomial.__str__ is object.__str__


def test_expansion_holds_only_fourier_data():
    # the paper's terms and the scale |a_m|^2 r^{2m} belong to the test
    # oracle, not to the package's expansion of the normalized tail
    fields = set(maxmod.ModulusExpansion.__dataclass_fields__)
    assert fields == {"c", "c_pairs"}


def test_oracles_live_in_tests():
    # one evaluator in the package: no module of it defines an oracle
    oracles = {
        "osc_terms",
        "osc_sum",
        "d1d2",
        "mod2",
        "scale",
        "direct_mod2",
        "brute_force_mset",
        "circle_argmax",
        "cubic_magic",
        "predict_J",
        "PredictedJ",
        "TermFilter",
        "history_radius",
    }
    for path in Path(maxmod.__file__).parent.glob("*.py"):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        defined = {
            node.name
            for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        }
        assert not defined & oracles, path.name


def test_tracer_imports_no_classifier():
    # the tracer computes its ambiguity radius itself: the survivor records
    # it once read from the classifier are gone, and so is the import
    path = Path(maxmod.__file__).with_name("tracer.py")
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom):
            imported.add(node.module)
        elif isinstance(node, ast.Import):
            imported.update(alias.name for alias in node.names)
    assert not {"classify", "maxmod.classify"} & imported
