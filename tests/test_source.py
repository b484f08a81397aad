"""Two-pass pair source: singlets, bosonic doubling, case weights."""

import math

import pytest
from hypothesis import assume, given, strategies as st

from ghzgen import (
    CaseWeights,
    DEFAULT_WEIGHTS,
    FockKet,
    Rail,
    dual_pass_emission,
    fidelity,
    ket,
    pdc_pair,
    two_pair_product,
)
from ghzgen.source import MIN_CASE_WEIGHT
from ghzgen.states import PRUNE_TOL

INV_SQRT2 = 2 ** -0.5
INV_SQRT3 = 3 ** -0.5


def test_pdc_pair_is_singlet():
    s = pdc_pair("a", "b")
    assert s.norm() == pytest.approx(1.0)
    hv = FockKet({Rail("a", "H"): 1, Rail("b", "V"): 1})
    vh = FockKet({Rail("a", "V"): 1, Rail("b", "H"): 1})
    assert s.amplitude(hv) == pytest.approx(INV_SQRT2)
    assert s.amplitude(vh) == pytest.approx(-INV_SQRT2)


def test_pdc_pair_rejects_same_arm():
    with pytest.raises(ValueError):
        pdc_pair("a", "a")


def test_two_pair_distinct_passes_is_tensor_product():
    s = two_pair_product(1, 2)
    expected = pdc_pair("a1", "b1").product(pdc_pair("a2", "b2"))
    assert fidelity(s, expected) == pytest.approx(1.0)
    assert s.norm() == pytest.approx(1.0)
    assert s.num_terms() == 4


def test_two_pair_same_pass_bosonic_weights():
    # squaring the singlet gives the doubled kets a relative sqrt(2)
    # enhancement; after normalization the three amplitudes are 1/sqrt(3)
    s = two_pair_product(1, 1)
    assert s.norm() == pytest.approx(1.0)
    doubled_h = FockKet({Rail("a1", "H"): 2, Rail("b1", "V"): 2})
    doubled_v = FockKet({Rail("a1", "V"): 2, Rail("b1", "H"): 2})
    mixed = FockKet(
        {
            Rail("a1", "H"): 1,
            Rail("a1", "V"): 1,
            Rail("b1", "H"): 1,
            Rail("b1", "V"): 1,
        }
    )
    assert s.amplitude(doubled_h) == pytest.approx(INV_SQRT3)
    assert s.amplitude(doubled_v) == pytest.approx(INV_SQRT3)
    assert s.amplitude(mixed) == pytest.approx(-INV_SQRT3)


def test_case_weights_validation():
    assert CaseWeights().as_tuple() == DEFAULT_WEIGHTS
    with pytest.raises(ValueError):
        CaseWeights(0.5, 0.5, 0.5)
    with pytest.raises(ValueError):
        CaseWeights(-0.1, 0.6, 0.5)
    with pytest.raises(ValueError, match="must be finite"):
        CaseWeights(math.nan, 0.5, 0.5)


def test_case_weight_floor():
    # the floor keeps a case's smallest emission amplitude, sqrt(w) / 2,
    # well clear of pruning
    assert 0.5 * math.sqrt(MIN_CASE_WEIGHT) >= 50 * PRUNE_TOL * (1 - 1e-12)
    assert CaseWeights(0.5, 0.5, MIN_CASE_WEIGHT).mixed == MIN_CASE_WEIGHT
    assert CaseWeights(0.5, 0.5, 0.0).mixed == 0.0
    just_under = math.nextafter(MIN_CASE_WEIGHT, 0.0)
    for w in ((0.5, 0.5, just_under), (just_under, 0.0, 1.0), (1e-300, 1e-300, 1.0)):
        with pytest.raises(ValueError, match="nonzero case weight under"):
            CaseWeights(*w)


def test_dual_pass_emission_structure():
    s = dual_pass_emission()
    assert s.norm() == pytest.approx(1.0)
    # the mixed case contributes sqrt(1/2) of the fully distinct kets
    distinct = FockKet(
        {
            Rail("a1", "H"): 1,
            Rail("b1", "V"): 1,
            Rail("a2", "H"): 1,
            Rail("b2", "V"): 1,
        }
    )
    assert s.amplitude(distinct) == pytest.approx(math.sqrt(0.5) * 0.5)
    # the doubled upper-pass ket carries sqrt(1/4) / sqrt(3)
    doubled = FockKet({Rail("a1", "H"): 2, Rail("b1", "V"): 2})
    assert s.amplitude(doubled) == pytest.approx(0.5 * INV_SQRT3)


def test_dual_pass_emission_skips_zero_weights():
    s = dual_pass_emission(CaseWeights(0.0, 0.0, 1.0))
    assert fidelity(s, two_pair_product(1, 2)) == pytest.approx(1.0)


@given(
    st.tuples(
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
        st.floats(0, 1, allow_nan=False),
    ).filter(lambda w: sum(w) > 1e-6)
)
def test_property_emission_normalized_for_any_weights(raw):
    total = sum(raw)
    normalized = [w / total for w in raw]
    # a nonzero weight under the floor is rejected (test_case_weight_floor)
    assume(all(w == 0 or w >= MIN_CASE_WEIGHT for w in normalized))
    weights = CaseWeights(*normalized)
    assert dual_pass_emission(weights).norm() == pytest.approx(1.0, abs=1e-9)
