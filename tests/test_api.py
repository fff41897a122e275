"""The package's public names: every exported name resolves, and the
helpers folded into ``normalize`` and ``classify`` stay gone."""

import sys

import maxmod

REMOVED = ("inner_degree", "core_polynomial", "is_exceptional")


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


def test_mu_and_core_degree_live_on_the_normal_form():
    h = maxmod.normalize(maxmod.parse_poly("1,0,0,0,1,0,1,1,0,1"))
    assert (h.k, h.mu, h.N) == (4, 1, 7)
    assert "validity" not in maxmod.PredictedJ.__dataclass_fields__


def test_unread_fields_are_absent():
    # fields no report printed: Classification.k and .a live on the normal
    # form, .minimal was ``not exceptional``, .predicted_j is predict_J's
    fields = maxmod.Classification.__dataclass_fields__
    assert not {"k", "a", "minimal", "predicted_j"} & set(fields)
    assert "omega" not in maxmod.TraceResult.__dataclass_fields__
    assert "coeff" not in sys.modules["maxmod.classify"].TermFilter.__dataclass_fields__
    assert maxmod.Polynomial.__str__ is object.__str__


def test_expansion_holds_only_fourier_data():
    # the paper's term arrays are derived for the oracle, not stored
    fields = set(maxmod.ModulusExpansion.__dataclass_fields__)
    assert fields == {"m", "lead_abs2", "c", "c_pairs"}
