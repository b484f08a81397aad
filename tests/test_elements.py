"""Element factories: routing conventions, signs, isometry shapes, and
interning."""

import pickle

import numpy as np
import pytest

from ghzgen import (
    FockKet,
    Rail,
    ket,
    make_bs,
    make_hwp45,
    make_hwp90,
    make_pbs,
    make_route,
)
from ghzgen.dsl import builtin_text, elaborate, parse
from ghzgen.network import analyze

from oracles import states_close

INV_SQRT2 = 2 ** -0.5


def _single(out):
    (k, amp), = out.sorted_terms()
    return k, amp


def test_pbs_routing_table():
    pbs = make_pbs("in1", "in2", "t", "r")
    # transmit H from port 1, reflect V
    k, amp = _single(pbs.apply(ket(("in1", "H"))))
    assert (k, amp) == (FockKet({Rail("t", "H"): 1}), 1.0)
    k, amp = _single(pbs.apply(ket(("in1", "V"))))
    assert (k, amp) == (FockKet({Rail("r", "V"): 1}), 1.0)
    # the second port swaps the output roles
    k, amp = _single(pbs.apply(ket(("in2", "H"))))
    assert (k, amp) == (FockKet({Rail("r", "H"): 1}), 1.0)
    k, amp = _single(pbs.apply(ket(("in2", "V"))))
    assert (k, amp) == (FockKet({Rail("t", "V"): 1}), 1.0)


def test_pbs_is_phase_free_permutation():
    pbs = make_pbs("a", "b", "t", "r")
    m = np.array(pbs.rows)
    assert np.array_equal(np.abs(m), m.real)
    assert np.array_equal(m @ m.conj().T, np.eye(4))


def test_pbs_single_input_is_isometry():
    pbs = make_pbs("a", None, "t", "r")
    m = np.array(pbs.rows)
    assert m.shape == (4, 2)
    gram = m.conj().T @ m
    assert np.allclose(gram, np.eye(2))
    k, amp = _single(pbs.apply(ket(("a", "V"))))
    assert k == FockKet({Rail("r", "V"): 1})


def test_bs_sign_convention():
    bs = make_bs("p", "q", "u", "v")
    out1 = bs.apply(ket(("p", "H")))
    assert out1.amplitude(FockKet({Rail("u", "H"): 1})) == pytest.approx(INV_SQRT2)
    assert out1.amplitude(FockKet({Rail("v", "H"): 1})) == pytest.approx(INV_SQRT2)
    out2 = bs.apply(ket(("q", "H")))
    assert out2.amplitude(FockKet({Rail("u", "H"): 1})) == pytest.approx(-INV_SQRT2)
    assert out2.amplitude(FockKet({Rail("v", "H"): 1})) == pytest.approx(INV_SQRT2)


def test_bs_polarization_independent():
    bs = make_bs("p", "q", "u", "v")
    for pol in ("H", "V"):
        out = bs.apply(ket(("p", pol)))
        for k, _ in out.sorted_terms():
            ((rail, _),) = k.occupations
            assert rail.pol == pol


def test_bs_single_input():
    bs = make_bs("p", None, "u", "v")
    assert np.array(bs.rows).shape == (4, 2)
    out = bs.apply(ket(("p", "V")))
    assert out.norm() == pytest.approx(1.0)
    assert out.num_terms() == 2


def test_hwp45_is_hadamard():
    hwp = make_hwp45("m")
    plus = hwp.apply(ket(("m", "H")))
    assert plus.amplitude(FockKet({Rail("m", "H"): 1})) == pytest.approx(INV_SQRT2)
    assert plus.amplitude(FockKet({Rail("m", "V"): 1})) == pytest.approx(INV_SQRT2)
    s = ket(("m", "H"), amp=0.6) + ket(("m", "V"), amp=0.8)
    assert states_close(hwp.apply(hwp.apply(s)), s, tol=1e-12)


def test_hwp90_swaps_polarizations():
    hwp = make_hwp90("m")
    k, amp = _single(hwp.apply(ket(("m", "H"))))
    assert (k, amp) == (FockKet({Rail("m", "V"): 1}), 1.0)
    k, amp = _single(hwp.apply(ket(("m", "V"))))
    assert (k, amp) == (FockKet({Rail("m", "H"): 1}), 1.0)


def test_route_relabels_both_polarizations():
    route = make_route("src", "dst")
    s = ket(("src", "H"), amp=0.6) + ket(("src", "V"), amp=0.8j)
    out = route.apply(s)
    assert out.amplitude(FockKet({Rail("dst", "H"): 1})) == pytest.approx(0.6)
    assert out.amplitude(FockKet({Rail("dst", "V"): 1})) == pytest.approx(0.8j)


def test_elements_reject_mode_collisions():
    with pytest.raises(ValueError):
        make_pbs("a", "a", "t", "r")
    with pytest.raises(ValueError):
        make_pbs("a", "b", "t", "t")
    with pytest.raises(ValueError):
        make_bs("a", "b", "a", "v")
    with pytest.raises(ValueError):
        make_route("a", "a")


def test_element_equality_is_structural():
    assert make_pbs("a", "b", "t", "r") == make_pbs("a", "b", "t", "r")
    assert make_pbs("a", "b", "t", "r") != make_pbs("a", "b", "r", "t")
    assert make_hwp45("m") != make_hwp90("m")


def test_two_photon_trace_through_pbs():
    # H and V entering the same port separate cleanly
    pbs = make_pbs("a", "b", "t", "r")
    out = pbs.apply(ket(("a", "H"), ("a", "V")))
    k, amp = _single(out)
    assert k == FockKet({Rail("t", "H"): 1, Rail("r", "V"): 1})
    assert amp == pytest.approx(1.0)


def test_equal_elements_are_one_object():
    constructors = (make_bs, make_hwp45, make_hwp90, make_pbs, make_route)
    # an entry another test left could be evicted halfway through
    for make in constructors:
        make.cache_clear()
    fig1, fig3, again = (
        elaborate(parse(builtin_text(name)), name=name) for name in ("fig1", "fig3", "fig3")
    )
    objects = list({id(e): e for net in (fig1, fig3, again) for e in net.elements}.values())
    assert len(set(objects)) == len(objects)
    boundary = analyze(fig3).boundary
    assert boundary == len(fig1.elements)
    assert all(a is b for a, b in zip(fig3.elements[:boundary], fig1.elements))
    assert make_hwp90("e1") is make_hwp90("e1")
    back = pickle.loads(pickle.dumps(make_hwp90("e1")))
    assert back == make_hwp90("e1") and back is not make_hwp90("e1")
    for make in constructors:
        maxsize = make.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0
