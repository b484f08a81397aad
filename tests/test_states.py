"""Sparse Fock-state engine: containers, algebra, evolution, reductions."""

import io
import math
import os
import pickle
import re
import subprocess
import sys
import threading
import tokenize
from pathlib import Path

import numpy as np
import pytest
from hypothesis import assume, given, strategies as st

from ghzgen import (
    CoincidencePattern,
    DetectorGroup,
    FockKet,
    ModeTransform,
    NetworkError,
    PureState,
    Rail,
    branch_states,
    build_fig3,
    build_ghzps,
    dual_pass_emission,
    elaborate,
    entanglement_summary,
    feed_forward,
    fidelity,
    homodyne_discriminate,
    inner_product,
    ket,
    make_pbs,
    parse,
    phase_fixed,
    postselect_coincidence,
    project_occupancy,
    tag_phases,
)
from ghzgen.dsl import builtin_text
from ghzgen.states import (
    ISOMETRY_TOL,
    KERNEL_AFTER,
    KERNEL_MAX_STEPS,
    PRUNE_TOL,
    STAGE_CACHE_SIZE,
    compose,
    herald,
    project_each,
    sum_in_order,
    to_json_terms,
)

import oracles
from oracles import states_close


INV_SQRT2 = 2 ** -0.5


def test_fock_ket_canonical_order():
    a = FockKet({Rail("b", "V"): 1, Rail("a", "H"): 2})
    b = FockKet([(("a", "H"), 2), (("b", "V"), 1)])
    assert a == b
    assert hash(a) == hash(b)
    assert a.occupations == ((Rail("a", "H"), 2), (Rail("b", "V"), 1))


def test_fock_ket_drops_zero_occupancy():
    k = FockKet({Rail("a", "H"): 0, Rail("b", "V"): 1})
    assert k.occupations == ((Rail("b", "V"), 1),)


def test_fock_ket_rejects_negative_occupancy():
    with pytest.raises(ValueError):
        FockKet({Rail("a", "H"): -1})


def test_fock_ket_queries():
    k = FockKet({Rail("a", "H"): 2, Rail("a", "V"): 1, Rail("b", "H"): 1})
    assert dict(k.occupations) == {Rail("a", "H"): 2, Rail("a", "V"): 1, Rail("b", "H"): 1}
    assert list(k) == list(k.occupations)
    assert k.count_in_modes(["a"]) == 3
    assert k.count_in_modes(["c"]) == 0


def test_fock_ket_hash_is_the_occupation_hash():
    # kets are interned, so hashing is by identity: whichever constructor
    # builds a ket of an occupation tuple, it is the one live ket of that
    # tuple and finds every dict entry made under it
    k = FockKet({Rail("b", "V"): 1, Rail("a", "H"): 2})
    assert FockKet._canonical(k.occupations) is k
    assert FockKet(k.occupations) is k
    assert FockKet() is FockKet._canonical(())
    assert {k: "found"}[FockKet._canonical(k.occupations)] == "found"
    assert hash(FockKet._canonical(k.occupations)) == hash(k)


def test_fock_ket_pickle_round_trip():
    k = FockKet({Rail("b", "V"): 1, Rail("a", "H"): 2})
    back = pickle.loads(pickle.dumps(k))
    assert back == k and hash(back) == hash(k)
    assert {k: "found"}[back] == "found"
    state = ket(("a", "H"), amp=0.6) + ket(("a", "V"), amp=0.8j)
    assert pickle.loads(pickle.dumps(state)) == state


def test_fock_ket_unpickled_from_another_interpreter_keeps_dict_lookup():
    # string hashes differ between interpreters: a ket pickled under another
    # hash seed must load as this interpreter's interned ket of its tuple
    code = (
        "import pickle, sys; from ghzgen import FockKet, ket; "
        "k = FockKet({('b', 'V'): 1, ('a', 'H'): 2}); "
        "sys.stdout.buffer.write(pickle.dumps((k, ket(('a', 'H'), amp=0.6))))"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="12345")
    blob = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, check=True
    ).stdout
    k, state = pickle.loads(blob)
    here = FockKet({Rail("b", "V"): 1, Rail("a", "H"): 2})
    assert k is here
    assert {here: "found"}[k] == "found"
    assert next(iter(state.terms)) is FockKet({Rail("a", "H"): 1})
    assert state.amplitude(FockKet({Rail("a", "H"): 1})) == 0.6


def test_concurrent_construction_mints_one_ket_per_occupation_tuple():
    # four threads, more than the cores, race to build the same 200 new
    # occupation tuples, half through each constructor; each tuple must
    # come out as one object
    workers = 4
    occupations = [
        ((Rail(f"race{i}", "H"), 1), (Rail(f"race{i}", "V"), 1 + i % 3)) for i in range(200)
    ]
    start = threading.Barrier(workers)
    built = [None] * workers

    def build(slot):
        start.wait(timeout=10)
        built[slot] = [
            FockKet(occ) if (i + slot) % 2 else FockKet._canonical(occ)
            for i, occ in enumerate(occupations)
        ]

    threads = [threading.Thread(target=build, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=30)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    for occ, kets in zip(occupations, zip(*built)):
        assert all(k is kets[0] for k in kets)
        assert kets[0].occupations == occ


def test_intern_table_holds_only_kets_something_else_holds():
    # in a fresh interpreter: runs fill the intern table, and once their
    # states are dropped and every package cache is cleared (the wirings
    # of network._analyze, the interned elements and with them their
    # stages, the literal memos, the masks), it is back to its
    # import-time size
    code = (
        "import gc, importlib, pkgutil\n"
        "import ghzgen\n"
        "from ghzgen import states\n"
        "before = len(states._KETS)\n"
        "ghzgen.run_full('X@1')\n"
        "ghzgen.run_full(sample=True, seed=5)\n"
        "ghzgen.sweep_noise(0.3)\n"
        "ghzgen.verify_correction_table(ghzgen.all_families())\n"
        "ghzgen.entanglement_report()\n"
        "during = len(states._KETS)\n"
        "for info in pkgutil.iter_modules(ghzgen.__path__, 'ghzgen.'):\n"
        "    if info.name != 'ghzgen.__main__':\n"
        "        for value in vars(importlib.import_module(info.name)).values():\n"
        "            if hasattr(value, 'cache_clear'):\n"
        "                value.cache_clear()\n"
        "gc.collect()\n"
        "print(before, during, len(states._KETS))\n"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"))
    out = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True
    ).stdout
    before, during, after = map(int, out.split())
    assert during > before + 100
    assert after == before


def test_sum_in_order_rounds_after_each_addition():
    # the builtin sum compensates its rounding from Python 3.12 on and gives
    # 2.0 and 1.0000000000000002 here; printed numbers must not depend on it
    assert sum_in_order([1.0, 1e100, 1.0, -1e100]) == 0.0
    assert sum_in_order(iter([1.0] + [1e-16] * 2)) == 1.0
    assert sum_in_order([]) == 0.0


def test_vacuum():
    assert FockKet().occupations == ()
    assert repr(FockKet()) == "|vac>"
    assert ket().amplitude(FockKet()) == 1.0


def test_pure_state_algebra_and_pruning():
    s = ket(("a", "H")) + ket(("a", "V"), amp=2.0)
    assert s.amplitude(FockKet({Rail("a", "V"): 1})) == 2.0
    cancelled = s - s
    assert cancelled.is_zero()
    assert (s * 0.5).norm() == pytest.approx(s.norm() / 2)
    assert (-s).amplitude(FockKet({Rail("a", "H"): 1})) == -1.0


def test_pure_state_prunes_tiny_amplitudes():
    s = ket(("a", "H")) + ket(("a", "V"), amp=1e-13)
    assert s.num_terms() == 1


@pytest.mark.parametrize(
    "amp",
    [float("nan"), float("inf"), complex(0.5, float("-inf")), complex(float("nan"), 0.0)],
    ids=["nan", "inf", "imag-inf", "real-nan"],
)
def test_pure_state_rejects_non_finite_amplitude(amp):
    a = FockKet({Rail("a", "H"): 1})
    with pytest.raises(ValueError, match="non-finite amplitude"):
        PureState({a: amp})
    with pytest.raises(ValueError, match="non-finite amplitude"):
        ket(("a", "V")) + ket(("a", "H"), amp=amp)
    with pytest.raises(ValueError, match="non-finite amplitude"):
        ket(("a", "H")) * amp


def test_pure_state_rejects_overflowing_sum():
    big = ket(("a", "H"), amp=1e308)
    with pytest.raises(ValueError, match="non-finite amplitude"):
        big + big


def test_ket_with_counts():
    s = ket(("a", "H", 2), ("b", "V"))
    (k, amp), = s.sorted_terms()
    assert amp == 1.0
    assert k.occupations == ((Rail("a", "H"), 2), (Rail("b", "V"), 1))


def test_product_is_tensor_on_disjoint_modes():
    left = ket(("a", "H")) + ket(("a", "V"))
    right = ket(("b", "H"))
    prod = left.product(right)
    assert prod.num_terms() == 2
    assert prod.amplitude(FockKet({Rail("a", "H"): 1, Rail("b", "H"): 1})) == 1.0


def test_product_bosonic_enhancement_on_shared_rail():
    # two photons placed on the same rail acquire the sqrt(2!) factor
    prod = ket(("a", "H")).product(ket(("a", "H")))
    (k, amp), = prod.sorted_terms()
    assert k.occupations == ((Rail("a", "H"), 2),)
    assert amp == pytest.approx(math.sqrt(2.0))


def test_inner_product_and_fidelity():
    a = ket(("m", "H")) + ket(("m", "V"), amp=1j)
    b = ket(("m", "H"))
    assert inner_product(b, a) == pytest.approx(1.0)
    assert inner_product(a, b) == pytest.approx(np.conj(inner_product(b, a)))
    # fidelity normalizes both sides
    assert fidelity(a, b) == pytest.approx(0.5)
    assert fidelity(a * 3.0, b * -2j) == pytest.approx(0.5)


def test_phase_fixed_removes_global_phase():
    s = ket(("a", "H")) + ket(("a", "V"), amp=1j)
    rotated = s * np.exp(1j * 0.7)
    assert states_close(phase_fixed(s), phase_fixed(rotated), tol=1e-12)


def test_states_close_tolerance():
    a = ket(("a", "H"))
    b = ket(("a", "H"), amp=1.0 + 5e-11)
    assert states_close(a, b, tol=1e-9)
    assert not states_close(a, ket(("a", "V")))


def _hadamard(mode):
    rails = (Rail(mode, "H"), Rail(mode, "V"))
    m = np.array([[1, 1], [1, -1]], dtype=complex) * INV_SQRT2
    return ModeTransform("had", rails, rails, m)


def test_transform_rejects_non_isometry():
    rails = (Rail("a", "H"), Rail("a", "V"))
    with pytest.raises(ValueError):
        ModeTransform("bad", rails, rails, np.array([[1, 1], [0, 1]], dtype=complex))


def test_transform_rejects_shape_mismatch():
    with pytest.raises(ValueError):
        ModeTransform(
            "bad", (Rail("a", "H"),), (Rail("b", "H"),), np.eye(2, dtype=complex)
        )


def test_transform_rejects_duplicate_rails():
    r = Rail("a", "H")
    with pytest.raises(ValueError):
        ModeTransform("bad", (r, r), (Rail("b", "H"), Rail("c", "H")), np.eye(2))


def test_transform_isometry_rule():
    # the np.allclose rule: ISOMETRY_TOL on every Gram entry, plus a
    # relative 1e-5 on the diagonal only
    one = (Rail("a", "H"),)
    ModeTransform("ok", one, one, [[math.sqrt(1 + 5e-6)]])
    with pytest.raises(ValueError, match="not orthonormal"):
        ModeTransform("bad", one, one, [[math.sqrt(1 + 2e-5)]])
    two = (Rail("a", "H"), Rail("a", "V"))
    eps = 1e-8
    with pytest.raises(ValueError, match="not orthonormal"):
        ModeTransform("bad", two, two, [[1.0, eps], [0.0, math.sqrt(1 - eps**2)]])


def test_transform_is_immutable_hashable_and_pickles():
    h = _hadamard("a")
    assert h.rows == ((INV_SQRT2 + 0j, INV_SQRT2 + 0j), (INV_SQRT2 + 0j, -INV_SQRT2 + 0j))
    with pytest.raises(AttributeError):
        h.name = "other"
    same = ModeTransform("had", h.in_rails, h.out_rails, [list(row) for row in h.rows])
    assert same == h and hash(same) == hash(h)
    assert ModeTransform("had", h.in_rails, h.out_rails, np.eye(2)) != h
    back = pickle.loads(pickle.dumps(h))
    assert back == h and back.rows == h.rows
    state = ket(("a", "H"), amp=0.8) + ket(("a", "V"), amp=0.6)
    assert back.apply(state) == h.apply(state)


def test_transform_unpickled_hashes_equal_to_the_original():
    # the hash is computed once, at construction; an element pickled under
    # another hash seed is rebuilt and hashes by this interpreter's rules
    code = (
        "import pickle, sys; from ghzgen import make_pbs; "
        "sys.stdout.buffer.write(pickle.dumps(make_pbs('a', 'b', 'c', 'd')))"
    )
    root = Path(__file__).resolve().parents[1]
    env = dict(os.environ, PYTHONPATH=str(root / "src"), PYTHONHASHSEED="12345")
    blob = subprocess.run(
        [sys.executable, "-c", code], capture_output=True, env=env, check=True
    ).stdout
    here = make_pbs("a", "b", "c", "d")
    for back in (pickle.loads(blob), pickle.loads(pickle.dumps(here))):
        assert back == here and hash(back) == hash(here)
        assert {here: "found"}[back] == "found"
    assert hash(here) == hash((here.name, here.in_rails, here.out_rails, here.rows))


def test_apply_hadamard_twice_is_identity():
    h = _hadamard("a")
    s = ket(("a", "H"), amp=0.8) + ket(("a", "V"), amp=0.6)
    assert states_close(h.apply(h.apply(s)), s, tol=1e-12)


def test_apply_multiphoton_interference():
    # |1,1> into a balanced splitter bunches: (|2,0> - |0,2|>)/sqrt(2),
    # destructive on the split outcome
    rails_in = (Rail("p", "H"), Rail("q", "H"))
    rails_out = (Rail("u", "H"), Rail("v", "H"))
    m = np.array([[1, -1], [1, 1]], dtype=complex) * INV_SQRT2
    bs = ModeTransform("bs", rails_in, rails_out, m)
    out = bs.apply(ket(("p", "H"), ("q", "H")))
    both = FockKet({Rail("u", "H"): 1, Rail("v", "H"): 1})
    assert abs(out.amplitude(both)) < 1e-12
    two_u = FockKet({Rail("u", "H"): 2})
    two_v = FockKet({Rail("v", "H"): 2})
    assert abs(out.amplitude(two_u)) == pytest.approx(INV_SQRT2)
    assert abs(out.amplitude(two_v)) == pytest.approx(INV_SQRT2)
    assert out.norm() == pytest.approx(1.0)


def test_apply_passthrough_rails_untouched():
    h = _hadamard("a")
    s = ket(("a", "H"), ("spect", "V"))
    out = h.apply(s)
    for k, _ in out.sorted_terms():
        assert (Rail("spect", "V"), 1) in k.occupations


def test_apply_rejects_passthrough_collision():
    # a passthrough rail that collides with an output rail is a wiring bug
    rails_in = (Rail("a", "H"),)
    rails_out = (Rail("b", "H"),)
    t = ModeTransform("relabel", rails_in, rails_out, np.eye(1, dtype=complex))
    with pytest.raises(ValueError):
        t.apply(ket(("a", "H"), ("b", "H")))


def test_compose_matches_single_matrix():
    h = _hadamard("a")
    s = ket(("a", "H"), amp=1j) + ket(("a", "V"), amp=2.0)
    assert states_close(compose([h, h], s), s, tol=1e-12)


def test_project_occupancy_probabilities():
    s = ket(("a", "H")) + ket(("b", "H")) + ket(("b", "V"))
    cond, p = project_occupancy(s, [(["b"], 1)])
    assert p == pytest.approx(2.0 / 3.0)
    assert cond.norm() == pytest.approx(1.0)
    _, p_zero = project_occupancy(s, [(["a"], 2)])
    assert p_zero == 0.0


def test_project_occupancy_empty_input():
    cond, p = project_occupancy(PureState(), [(["a"], 1)])
    assert p == 0.0
    assert cond.is_zero()


# the trigger herald: the detector T clicks on either of its two paths


_TRIGGER = DetectorGroup("T", ("t1", "t2"))


def test_merge_rejects_ket_identification():
    # both kets leave |H@x> once the trigger photon is dropped, so the two
    # trigger paths would interfere; that is rejected, not summed
    s = ket(("t1", "H"), ("x", "H")) + ket(("t2", "H"), ("x", "H"))
    with pytest.raises(NetworkError, match="interfere"):
        herald(s, _TRIGGER.modes, _TRIGGER.name)


def test_herald_keeps_channel_mode_named_like_trigger():
    # fig1 with its channel mode D3 renamed to T: nothing is relabelled,
    # so the name cannot collide with the trigger detector's
    text = re.sub(r"\bD3\b", "T", builtin_text("fig1"))
    renamed = {bs.branch: bs for bs in branch_states(elaborate(parse(text)))}
    assert renamed["A"].joint_probability == 0.041666666666666685
    assert renamed["B"].joint_probability == 0.0625
    for bs in branch_states(build_ghzps()):
        expected = PureState(
            {
                FockKet((Rail("T" if r.mode == "D3" else r.mode, r.pol), n) for r, n in k): amp
                for k, amp in bs.conditional.terms.items()
            }
        )
        assert renamed[bs.branch].conditional == expected


def test_merge_valid_disjoint_support():
    # kets that fired different trigger paths stay apart by their channel part
    s = ket(("t1", "H"), ("x", "V"), amp=0.6) + ket(("t2", "H"), ("y", "V"), amp=-0.8j)
    out = herald(s, _TRIGGER.modes, _TRIGGER.name)
    assert list(out.terms.items()) == [
        (FockKet({Rail("x", "V"): 1}), 0.6),
        (FockKet({Rail("y", "V"): 1}), -0.8j),
    ]


def test_herald_drops_trigger_from_product():
    s = ket(("t1", "H")).product(ket(("a", "H")) + ket(("a", "V"), amp=-(2**-0.5)))
    rest = herald(s, _TRIGGER.modes, _TRIGGER.name)
    # amplitudes are copied as they are, in the same order
    assert list(rest.terms) == [FockKet({Rail("a", p): 1}) for p in "HV"]
    assert list(rest.terms.values()) == list(s.terms.values())


def test_herald_rejects_entangled_trigger():
    for other in ("t1", "t2"):
        s = ket(("t1", "H"), ("a", "H")) + ket((other, "V"), ("a", "V"))
        with pytest.raises(NetworkError, match="entangled"):
            herald(s, _TRIGGER.modes, _TRIGGER.name)


# two positions, one photon each, on an upper (u) or a lower (l) path
_POSITIONS = [("u1", "l1"), ("u2", "l2")]


def _pol_path_bell():
    # the polarization word is locked to the path word: HH up, VV down
    return (ket(("u1", "H"), ("u2", "H")) + ket(("l1", "V"), ("l2", "V"))).normalized()


def test_schmidt_bell_state():
    summary = entanglement_summary(_pol_path_bell(), _POSITIONS)
    assert summary["schmidt_rank"] == 2
    assert summary["schmidt_coefficients"] == pytest.approx((INV_SQRT2, INV_SQRT2))


def test_schmidt_product_state():
    summary = entanglement_summary(ket(("u1", "H"), ("u2", "V")), _POSITIONS)
    assert summary["schmidt_rank"] == 1
    assert summary["schmidt_coefficients"] == pytest.approx((1.0,))


def test_schmidt_coefficients_sorted_descending():
    s = ket(("u1", "H"), ("u2", "H")) * 2.0 + ket(("l1", "V"), ("l2", "V"))
    coeffs = entanglement_summary(s, _POSITIONS)["schmidt_coefficients"]
    assert coeffs[0] >= coeffs[1]
    assert sum(c * c for c in coeffs) == pytest.approx(1.0)


def _pol_path_product():
    # one photon delocalized over (u, l) per position, with the same pol
    # word on both paths
    return ket(("u1", "H"), ("u2", "V")) + ket(("l1", "H"), ("l2", "V"))


def test_pol_vs_spatial_split():
    summary = entanglement_summary(_pol_path_product(), _POSITIONS)
    assert summary["schmidt_rank"] == 1
    assert summary["polarization_purity"] == pytest.approx(1.0)


def test_pol_vs_spatial_rejects_stray_photon():
    one = [("u1", "l1")]
    with pytest.raises(ValueError, match="exactly one photon"):
        entanglement_summary(ket(("other", "H")), one)
    with pytest.raises(ValueError, match="outside the positions"):
        entanglement_summary(ket(("u1", "H"), ("other", "H")), one)
    # two photons in one position, on two paths or on one rail
    with pytest.raises(ValueError, match="exactly one photon"):
        entanglement_summary(ket(("u1", "H"), ("l1", "V")), one)
    with pytest.raises(ValueError, match="exactly one photon"):
        entanglement_summary(ket(("u1", "H", 2), ("u2", "V")), _POSITIONS)


def test_reduced_density_of_bell_is_mixed():
    summary = entanglement_summary(_pol_path_bell(), _POSITIONS)
    assert summary["polarization_purity"] == pytest.approx(0.5)
    # |rho - rho_pol (x) rho_path| peaks at the HH,uu / VV,ll coherence
    assert summary["product_state_deviation"] == pytest.approx(0.5)


def test_partial_trace_matches_reduced_density():
    state = _pol_path_bell() * 0.6 + ket(("u1", "V"), ("l2", "H"), amp=0.8j)
    _assert_summary_matches_oracle(state, _POSITIONS)
    # HH and VV on both path words with a relative phase: a cycle in the
    # support, so the phases cannot be gauged away into the local bases
    cycle = (
        _pol_path_bell()
        + ket(("l1", "H"), ("l2", "H"))
        + ket(("u1", "V"), ("u2", "V"), amp=-1j)
    )
    _assert_summary_matches_oracle(cycle, _POSITIONS)


def test_joint_density_product_state_factorizes():
    summary = entanglement_summary(_pol_path_product(), _POSITIONS)
    assert summary["product_state_deviation"] < 1e-12


def _assert_summary_matches_oracle(state, positions):
    dense = oracles.dense_entanglement_summary(state, positions)
    summary = entanglement_summary(state, positions)
    assert summary["schmidt_rank"] == dense["schmidt_rank"]
    assert summary["schmidt_coefficients"] == pytest.approx(
        dense["schmidt_coefficients"], abs=1e-12
    )
    for key in ("polarization_purity", "product_state_deviation"):
        assert summary[key] == pytest.approx(dense[key], abs=1e-12)


def test_to_json_terms_shape():
    s = ket(("a", "H", 2), ("b", "V")) * (0.5 + 0.25j)
    (term,) = to_json_terms(s)
    assert term["ket"] == [["a", "H", 2], ["b", "V", 1]]
    assert term["re"] == 0.5
    assert term["im"] == 0.25


# --- property tests ---------------------------------------------------------

_MODES = ("m0", "m1", "m2")
_POLS = ("H", "V")


def _rail_st():
    return st.tuples(st.sampled_from(_MODES), st.sampled_from(_POLS))


def _state_st(max_terms=4, max_photons=3):
    def build(entries):
        s = PureState()
        for rails, re, im in entries:
            occ = {}
            for r in rails:
                occ[Rail(*r)] = occ.get(Rail(*r), 0) + 1
            s = s + PureState({FockKet(occ): complex(re, im)})
        return s

    entry = st.tuples(
        st.lists(_rail_st(), min_size=1, max_size=max_photons),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    )
    return st.builds(build, st.lists(entry, min_size=1, max_size=max_terms)).filter(
        lambda s: s.norm() > 1e-6
    )


@given(_state_st())
def test_property_canonical_terms_unique(state):
    kets = [k for k, _ in state.sorted_terms()]
    assert len(kets) == len(set(kets))
    assert kets == sorted(kets)


@given(_state_st(), st.integers(0, 2**32 - 1))
def test_property_random_unitary_preserves_norm(state, seed):
    rails = tuple(sorted({r for k, _ in state for r, _ in k}))
    rng = np.random.default_rng(seed)
    dim = len(rails)
    q, _ = np.linalg.qr(
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )
    t = ModeTransform("rand", rails, rails, q)
    assert t.apply(state).norm() == pytest.approx(state.norm(), abs=1e-9)


@given(_state_st(max_terms=3, max_photons=3), st.integers(0, 2**32 - 1))
def test_property_engine_matches_polynomial_oracle(state, seed):
    rails = tuple(sorted({r for k, _ in state for r, _ in k}))
    rng = np.random.default_rng(seed)
    dim = len(rails)
    q, _ = np.linalg.qr(
        rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    )
    t = ModeTransform("rand", rails, rails, q)
    engine = t.apply(state)

    dense_in = {}
    for k, amp in state:
        occ = [0] * dim
        for r, n in k:
            occ[rails.index(r)] = n
        dense_in[tuple(occ)] = dense_in.get(tuple(occ), 0.0) + amp
    expected = oracles.polynomial_evolve(dense_in, q)

    for occ, amp in expected.items():
        k = FockKet({rails[i]: n for i, n in enumerate(occ) if n})
        assert engine.amplitude(k) == pytest.approx(amp, abs=1e-9)
    # and nothing extra survives in the engine state
    total = math.sqrt(sum(abs(a) ** 2 for a in expected.values()))
    assert engine.norm() == pytest.approx(total, abs=1e-9)


@given(_state_st())
def test_property_projection_is_complete(state):
    # probabilities over an exhaustive occupancy split of one mode sum to 1
    max_photons = max(k.count_in_modes(["m0"]) for k, _ in state)
    probs = [
        project_occupancy(state, [(["m0"], n)])[1] for n in range(max_photons + 1)
    ]
    assert sum(probs) == pytest.approx(1.0, abs=1e-9)


@given(_state_st(), _state_st())
def test_property_inner_product_conjugate_symmetric(a, b):
    ab = inner_product(a, b)
    ba = inner_product(b, a)
    assert ab == pytest.approx(np.conj(ba), abs=1e-9)
    assert abs(ab) <= a.norm() * b.norm() + 1e-9



@st.composite
def _positioned_state_st(draw):
    """State with one photon in each of 2 or 3 positions, every position an
    upper (u) and a lower (l) path; returns (state, positions)."""
    n = draw(st.integers(2, 3))
    photon = st.tuples(st.sampled_from("ul"), st.sampled_from(_POLS))
    amp = st.floats(-1, 1, allow_nan=False)
    entries = draw(
        st.lists(st.tuples(st.lists(photon, min_size=n, max_size=n), amp, amp), max_size=8)
    )
    acc = {}
    for photons, re, im in entries:
        k = FockKet({Rail(f"{path}{i}", pol): 1 for i, (path, pol) in enumerate(photons, 1)})
        acc[k] = acc.get(k, 0j) + complex(re, im)
    state = PureState(acc)
    assume(state.norm() > 1e-6)
    return state, [(f"u{i}", f"l{i}") for i in range(1, n + 1)]


@given(_positioned_state_st())
def test_property_summary_matches_dense_oracle(case):
    state, positions = case
    singular_values = oracles.dense_entanglement_summary(state, positions)["singular_values"]
    # a singular value at the rank threshold may land on either side of it
    assume(not any(1e-11 < s < 1e-9 for s in singular_values))
    _assert_summary_matches_oracle(state, positions)


# --- the apply kernel against the reference implementation ------------------

_UNIVERSE = tuple(Rail(m, pol) for m in _MODES for pol in _POLS)
_FRESH = tuple(Rail(m, pol) for m in ("o0", "o1") for pol in _POLS)


def _isometry(rng, n_out, n_in, sparse):
    """Random n_out x n_in matrix with orthonormal columns.  The sparse kind
    mixes two inputs on a 2x2 unitary and routes the rest with a phase, so
    the kernel also meets exact zeros and entries like 1/sqrt(2)."""
    q, _ = np.linalg.qr(
        rng.normal(size=(n_out, n_in)) + 1j * rng.normal(size=(n_out, n_in))
    )
    if not sparse:
        return q
    m = np.zeros((n_out, n_in), dtype=complex)
    rows = rng.permutation(n_out)[:n_in]
    for j, i in enumerate(rows):
        m[i, j] = np.exp(1j * rng.uniform(0, 2 * np.pi))
    if n_in >= 2:
        u, _ = np.linalg.qr(rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2)))
        m[np.ix_(rows[:2], [0, 1])] = u if rng.random() < 0.5 else INV_SQRT2 * np.array(
            [[1, 1], [1, -1]]
        )
    return m


@given(
    st.integers(1, 4),
    st.integers(0, 2),
    st.integers(0, 2**32 - 1),
    st.booleans(),
    st.one_of(st.none(), st.floats(-7, -1)),
)
def test_property_isometry_check_agrees_with_allclose(n_in, extra, seed, sparse, log_eps):
    # random isometries, and the same perturbed by 1e-7 .. 1e-1 in one entry
    n_out = n_in + extra
    rng = np.random.default_rng(seed)
    m = _isometry(rng, n_out, n_in, sparse)
    if log_eps is not None:
        m[rng.integers(n_out), rng.integers(n_in)] += 10**log_eps * np.exp(
            1j * rng.uniform(0, 2 * np.pi)
        )
    gram, eye = m.conj().T @ m, np.eye(n_in)
    # keep clear of the tolerance boundary, where summation order decides
    margin = np.max(np.abs(gram - eye) - (ISOMETRY_TOL + 1e-5 * eye))
    assume(abs(margin) > 1e-12)
    in_rails = _UNIVERSE[:n_in]
    out_rails = tuple(Rail(f"o{i}", "H") for i in range(n_out))
    try:
        ModeTransform("t", in_rails, out_rails, m)
        accepted = True
    except ValueError:
        accepted = False
    assert accepted == np.allclose(gram, eye, atol=ISOMETRY_TOL)


@st.composite
def _transform_st(draw, collide=False):
    """A transform on a random subset of the state rails.  Its outputs reuse
    some inputs and add fresh rails; the other state rails pass through.
    With ``collide`` one output is also a passthrough rail."""
    in_rails = draw(st.lists(st.sampled_from(_UNIVERSE), min_size=1, max_size=4, unique=True))
    passthrough = [r for r in _UNIVERSE if r not in in_rails]
    pool = list(in_rails) + list(_FRESH)
    n_out = draw(st.integers(len(in_rails), min(len(pool), len(in_rails) + 2)))
    out_rails = draw(st.permutations(pool))[:n_out]
    if collide:
        out_rails[-1] = draw(st.sampled_from(passthrough))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    m = _isometry(rng, n_out, len(in_rails), draw(st.booleans()))
    return ModeTransform("rand", tuple(in_rails), tuple(out_rails), m)


def _doubled_state_st():
    """States whose kets often hold two or three photons on one rail."""
    entry = st.tuples(
        st.lists(st.tuples(st.sampled_from(_UNIVERSE), st.integers(1, 3)), min_size=1, max_size=3),
        st.floats(-1, 1, allow_nan=False),
        st.floats(-1, 1, allow_nan=False),
    )

    def build(entries):
        return PureState([(FockKet(occ), complex(re, im)) for occ, re, im in entries])

    return st.builds(build, st.lists(entry, min_size=1, max_size=5))


def _bits(state):
    """Ket order plus the exact bits of every amplitude (-0.0 != 0.0)."""
    return [(k, a.real.hex(), a.imag.hex()) for k, a in state.terms.items()]


def _outcome(apply, transform, state):
    try:
        return "state", _bits(apply(transform, state))
    except ValueError as exc:
        return "error", str(exc)


# amplitude parts for a replay: signed zeros as well as ordinary values
_PART = st.one_of(st.sampled_from([0.0, -0.0]), st.floats(-1, 1, allow_nan=False))


def _replay_state(data, transform, state):
    """A state on the kets of ``state`` with new amplitudes, signed zeros
    among their parts.  Where two kets reach a shared output ket, the
    second is scaled so that its image there cancels the first's to
    rounding, far below ``PRUNE_TOL``."""
    kets = list(state.terms)
    amps = [
        complex(*data.draw(st.tuples(_PART, _PART).filter(lambda p: abs(complex(*p)) > 1e-3)))
        for _ in kets
    ]
    images = [
        oracles.reference_apply(transform, PureState({k: 1.0})).terms for k in kets
    ]
    pairs = [
        (a, b, out)
        for a in range(len(kets))
        for b in range(a + 1, len(kets))
        for out in images[a]
        if out in images[b]
    ]
    if pairs:
        a, b, out = data.draw(st.sampled_from(pairs))
        amps[b] = -amps[a] * images[a][out] / images[b][out]
    # built as the engine builds its own results: the signed zeros stay
    return PureState._pruned(zip(kets, amps))


def _replayed(transform, state):
    """Apply ``state`` and check the result bit for bit against the
    reference."""
    assert _bits(transform.apply(state)) == _bits(oracles.reference_apply(transform, state))


def _same_objects(now: dict, before: dict) -> bool:
    return now.keys() == before.keys() and all(now[k] is v for k, v in before.items())


def _count_pattern(transform, k):
    """The sorted (input index, count) pattern of ket ``k``."""
    column = {r: j for j, r in enumerate(transform.in_rails)}
    return tuple(sorted((column[r], n) for r, n in k if r in column))


@given(st.one_of(_state_st(max_photons=4), _doubled_state_st()), _transform_st(), st.data())
def test_property_apply_is_bit_exact_to_reference(state, transform, data):
    # the first call builds the order's stage and the plan of every count
    # pattern that holds a photon on an input rail
    out = transform.apply(state)
    expected = oracles.reference_apply(transform, state)
    assert out.terms == expected.terms
    assert _bits(out) == _bits(expected)
    patterns, stages = dict(transform._patterns), dict(transform._stages)
    assert set(patterns) == {_count_pattern(transform, k) for k in state.terms} - {()}
    assert list(stages) == [tuple(state.terms)]

    # a repeat on the same order, with new amplitudes, builds nothing
    _replayed(transform, _replay_state(data, transform, state))
    assert _same_objects(transform._patterns, patterns)
    assert _same_objects(transform._stages, stages)

    # a permuted order gets a stage of its own from the same pattern plans
    kets = data.draw(st.permutations(list(state.terms)))
    permuted = PureState._pruned((k, state.terms[k]) for k in kets)
    _replayed(transform, _replay_state(data, transform, permuted))
    assert _same_objects(transform._patterns, patterns)
    assert len(transform._stages) == len(stages) + (tuple(kets) != tuple(state.terms))
    assert tuple(kets) in transform._stages


@given(_state_st(max_photons=4), _transform_st(collide=True))
def test_property_apply_collision_matches_reference(state, transform):
    # make sure some ket sits on the colliding passthrough rail: set, not
    # added, since an amplitude of -0.5 already there would cancel it
    clash = FockKet({transform.out_rails[-1]: 1})
    state = PureState({**state.terms, clash: 0.5})
    got = _outcome(ModeTransform.apply, transform, state)
    assert got == _outcome(oracles.reference_apply, transform, state)
    assert got[0] == "error" and "already occupied" in got[1]


def test_apply_carries_untouched_kets_over():
    h = _hadamard("a")
    spectator = FockKet({Rail("b", "V"): 2})
    state = PureState({spectator: 0.6}) + ket(("a", "H"), amp=0.8)
    out = h.apply(state)
    assert any(k is spectator for k in out.terms)
    assert _bits(out) == _bits(oracles.reference_apply(h, state))


def test_apply_prunes_cancelled_amplitudes():
    # Hong-Ou-Mandel: the split outcome cancels and must not stay as a zero
    rails_in = (Rail("p", "H"), Rail("q", "H"))
    rails_out = (Rail("u", "H"), Rail("v", "H"))
    bs = ModeTransform("bs", rails_in, rails_out, np.array([[1, -1], [1, 1]]) * INV_SQRT2)
    state = ket(("p", "H"), ("q", "H"))
    out = bs.apply(state)
    assert FockKet({Rail("u", "H"): 1, Rail("v", "H"): 1}) not in out.terms
    assert _bits(out) == _bits(oracles.reference_apply(bs, state))


def test_apply_chain_is_bit_exact_to_reference():
    # the real fan-out and fan-in chain, on every homodyne branch, twice:
    # the first pass of a branch builds its stages, the second replays them.
    # The elements are unpickled copies, so no earlier test's stages count.
    network = build_fig3()
    elements = pickle.loads(pickle.dumps(network.elements))
    assert not any(e._patterns or e._stages for e in elements)
    settings = network.settings
    emission = dual_pass_emission()
    tags = tag_phases(emission, network.couplings)
    for outcome in homodyne_discriminate(
        emission, tags, theta=settings.theta, alpha=settings.alpha
    ):
        for _ in range(2):
            built = [(dict(e._patterns), dict(e._stages)) for e in elements]
            state = feed_forward(outcome)
            for element in elements:
                expected = oracles.reference_apply(element, state)
                assert _bits(element.apply(state)) == _bits(expected)
                state = expected
        # the second pass met no new ket order and no new count pattern
        assert all(
            _same_objects(e._patterns, patterns) and _same_objects(e._stages, stages)
            for e, (patterns, stages) in zip(elements, built)
        )


def test_apply_replays_a_cancellation_below_prune_tol():
    # |H> and |V> into a Hadamard: V's images cancel.  The first call
    # builds the order's stage on other amplitudes; the replay prunes the
    # residue
    h = _hadamard("a")
    kh, kv = FockKet({Rail("a", "H"): 1}), FockKet({Rail("a", "V"): 1})
    h.apply(PureState({kh: 0.8, kv: 0.6}))
    patterns, stages = dict(h._patterns), dict(h._stages)
    state = PureState({kh: 0.6, kv: 0.6 * (1 + 1e-13)})
    out = h.apply(state)
    assert _same_objects(h._patterns, patterns) and _same_objects(h._stages, stages)
    assert out.terms.keys() == {kh}
    assert _bits(out) == _bits(oracles.reference_apply(h, state))


def test_apply_collision_stores_no_plan_and_repeats():
    # route a -> b with a photon already on b: the same error on every
    # call, no stage, and no plan for the colliding ket's count pattern
    rails_a = (Rail("a", "H"), Rail("a", "V"))
    rails_b = (Rail("b", "H"), Rail("b", "V"))
    route = ModeTransform("route", rails_a, rails_b, np.eye(2))
    fine = FockKet({Rail("a", "H"): 1})
    clash = FockKet({Rail("a", "V"): 1, Rail("b", "H"): 1})
    state = PureState({fine: 0.6, clash: 0.8})
    messages = []
    for _ in range(2):
        with pytest.raises(ValueError, match="already occupied") as info:
            route.apply(state)
        messages.append(str(info.value))
        assert _count_pattern(route, clash) not in route._patterns and not route._stages
    assert messages[0] == messages[1]
    assert messages == [_outcome(oracles.reference_apply, route, state)[1]] * 2


def test_transform_plans_stay_out_of_equality_hash_and_pickle():
    h = _hadamard("a")
    state = ket(("a", "H"), ("b", "V"), amp=0.8) + ket(("a", "V"), ("a", "H"), amp=0.6)
    first = h.apply(state)
    assert h._patterns and h._stages
    fresh = _hadamard("a")
    assert fresh == h and hash(fresh) == hash(h)
    back = pickle.loads(pickle.dumps(h))
    assert back == h and hash(back) == hash(h)
    assert not back._patterns and not back._stages
    assert _bits(back.apply(state)) == _bits(first) == _bits(h.apply(state))


def test_apply_keeps_at_most_stage_cache_size_orders():
    # 200 distinct orders through one element: the oldest stages go, the
    # newest stays, and every replay is still bit-exact
    h = _hadamard("a")
    lead = FockKet({Rail("a", "H"): 1})
    for i in range(200):
        spectator = FockKet({Rail(f"s{i}", "V"): 1})
        state = PureState._pruned([(spectator, 0.6), (lead, 0.8)])
        _replayed(h, state)
        assert len(h._stages) <= STAGE_CACHE_SIZE
        assert tuple(state.terms) in h._stages
    assert len(h._stages) == STAGE_CACHE_SIZE


def test_apply_refuses_a_stage_past_the_ket_budget(monkeypatch):
    # |aH> reaches two output kets and |aV bH> two more: four in all
    h = _hadamard("a")
    state = PureState(
        {FockKet({Rail("a", "H"): 1}): 0.6, FockKet({Rail("a", "V"): 1, Rail("b", "H"): 1}): 0.8}
    )
    monkeypatch.setattr("ghzgen.states.MAX_KETS", 3)
    with pytest.raises(NetworkError, match=r"^had: the state would hold more than 3 kets"):
        h.apply(state)
    assert not h._stages
    monkeypatch.setattr("ghzgen.states.MAX_KETS", 4)
    _replayed(h, state)


def _compiled(transform, state) -> bool:
    """Whether the stage of ``state``'s ket order holds a kernel."""
    return transform._stages[tuple(state.terms)][1].__class__ is not tuple


def _past_the_cap(transform, state) -> bool:
    """Whether the uncompiled stage of ``state``'s ket order has more op
    steps and output sums than a kernel may have."""
    _, _, _, ops, sums, _ = transform._stages[tuple(state.terms)][1]
    return len(ops) + len(sums) > KERNEL_MAX_STEPS


@given(st.one_of(_state_st(max_photons=4), _doubled_state_st()), _transform_st(), st.data())
def test_property_kernels_are_bit_exact_to_reference(state, transform, data):
    # with KERNEL_AFTER at 0 every apply, first sight included, runs a
    # kernel: on the state, on new amplitudes with signed zeros and a
    # cancellation far below PRUNE_TOL, on a permuted order and on the
    # empty state.  A stage past KERNEL_MAX_STEPS keeps the loop replay
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr("ghzgen.states.KERNEL_AFTER", 0)
        _replayed(transform, state)
        assert _compiled(transform, state) or _past_the_cap(transform, state)
        _replayed(transform, _replay_state(data, transform, state))
        kets = data.draw(st.permutations(list(state.terms)))
        permuted = PureState._pruned((k, state.terms[k]) for k in kets)
        _replayed(transform, _replay_state(data, transform, permuted))
        assert _compiled(transform, permuted) or _past_the_cap(transform, permuted)
        _replayed(transform, PureState())
        assert _compiled(transform, PureState())


def test_kernel_prunes_a_cancellation_below_prune_tol(monkeypatch):
    # as test_apply_replays_a_cancellation_below_prune_tol, through a
    # kernel compiled on the order's first sight
    monkeypatch.setattr("ghzgen.states.KERNEL_AFTER", 0)
    h = _hadamard("a")
    kh, kv = FockKet({Rail("a", "H"): 1}), FockKet({Rail("a", "V"): 1})
    spectator = FockKet({Rail("b", "V"): 2})
    h.apply(PureState({kh: 0.8, kv: 0.6, spectator: 0.1}))
    state = PureState({kh: 0.6, kv: 0.6 * (1 + 1e-13), spectator: -0.1j})
    assert _compiled(h, state)
    out = h.apply(state)
    assert list(out.terms) == [kh, spectator]
    assert _bits(out) == _bits(oracles.reference_apply(h, state))


def test_apply_compiles_a_stage_after_kernel_after_replays():
    # the loop replays an order KERNEL_AFTER times, then the next apply
    # compiles it in place, in the same stages entry
    h = _hadamard("a")
    state = ket(("a", "H"), amp=0.8) + ket(("a", "V"), ("b", "H"), amp=0.6)
    for _ in range(KERNEL_AFTER):
        _replayed(h, state)
    (record,) = h._stages.values()
    assert record[0] == KERNEL_AFTER and not _compiled(h, state)
    _replayed(h, state)
    assert h._stages[tuple(state.terms)] is record and _compiled(h, state)
    _replayed(h, state * -0.5j)


def test_a_stage_past_the_kernel_cap_is_never_compiled(monkeypatch):
    # a Hadamard on one ket (two op steps, two output sums) beside n
    # spectators (one sum each): at the cap it compiles, one past it never
    monkeypatch.setattr("ghzgen.states.KERNEL_AFTER", 0)
    lead = FockKet({Rail("a", "H"): 1})
    for n, compiled in ((KERNEL_MAX_STEPS - 4, True), (KERNEL_MAX_STEPS - 3, False)):
        h = _hadamard("a")
        spectators = [FockKet({Rail(f"cap{i}", "V"): 1}) for i in range(n)]
        state = PureState._pruned([(lead, 0.6)] + [(k, 0.01) for k in spectators])
        for _ in range(2):
            _replayed(h, state)
            assert _compiled(h, state) == compiled


def test_kernel_source_holds_only_identifiers_and_integers(monkeypatch):
    # every constant, rail names included, reaches the kernel through its
    # closure; the source a kernel is compiled from prints none of them
    sources = []

    def spy(source, *args):
        sources.append(source)
        return compile(source, *args)

    monkeypatch.setattr("ghzgen.states.KERNEL_AFTER", 0)
    monkeypatch.setattr("ghzgen.states.compile", spy, raising=False)
    rails = (Rail("secret", "H"), Rail("secret", "V"))
    bs = ModeTransform("leak", rails, rails, np.array([[0.6, 0.8j], [0.8j, 0.6]]))
    state = ket(("secret", "H"), ("secret", "H"), amp=0.6) + ket(("spy", "V"), amp=0.8)
    _replayed(bs, state)
    (source,) = sources
    tokens = list(tokenize.generate_tokens(io.StringIO(source).readline))
    kinds = {tokenize.tok_name[t.type] for t in tokens}
    assert kinds <= {"NAME", "OP", "NUMBER", "NEWLINE", "INDENT", "DEDENT", "ENDMARKER"}
    assert all(t.string.isdigit() for t in tokens if t.type == tokenize.NUMBER)
    assert "secret" not in source and "spy" not in source


def _in_threads(work, workers=4):
    """Run ``work(slot)`` on ``workers`` threads at once, switching
    between them every microsecond; returns what they raised."""
    start = threading.Barrier(workers)
    raised = []

    def run(slot):
        start.wait(timeout=10)
        try:
            work(slot)
        except Exception as exc:
            # the test asserts that none was raised
            raised.append(exc)

    threads = [threading.Thread(target=run, args=(slot,)) for slot in range(workers)]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-6)
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=60)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    return raised


def test_threads_sharing_an_element_keep_its_stage_bound():
    # four threads push 3,000 fresh ket orders each through one interned
    # splitter: stages are stored and evicted under one lock, so no
    # eviction fails and the bound holds
    pbs = make_pbs("race_in", None, "race_t", "race_r")
    lead = FockKet({Rail("race_in", "H"): 1})

    def work(slot):
        for i in range(3000):
            spectator = FockKet({Rail(f"race{slot}_{i}", "V"): 1})
            pbs.apply(PureState._pruned([(spectator, 0.6), (lead, 0.8)]))

    assert _in_threads(work) == []
    assert len(pbs._stages) <= STAGE_CACHE_SIZE


def test_threads_replaying_one_order_past_kernel_after_agree_bit_for_bit():
    # four threads replay one order twice KERNEL_AFTER times each, racing
    # to compile its kernel: every result is the reference's, bit for bit
    h = _hadamard("a")
    state = ket(("a", "H"), amp=0.8) + ket(("a", "V"), ("a", "H"), amp=-0.6j)
    expected = _bits(oracles.reference_apply(h, state))
    results = [[] for _ in range(4)]

    def work(slot):
        for _ in range(2 * KERNEL_AFTER):
            results[slot].append(_bits(h.apply(state)))

    assert _in_threads(work) == []
    assert all(got == [expected] * (2 * KERNEL_AFTER) for got in results)
    assert _compiled(h, state)


@given(_state_st(max_terms=6), st.data())
def test_property_project_occupancy_matches_the_scan(state, data):
    # the memoized selection against the per-call scan, on a first call,
    # on a repeat of the order with new amplitudes and on a permuted order
    kets = data.draw(st.permutations(list(state.terms)))
    permuted = PureState._pruned((k, state.terms[k]) for k in kets)
    groups = data.draw(
        st.lists(
            st.tuples(st.lists(st.sampled_from(_MODES), min_size=1, unique=True), st.integers(0, 2)),
            min_size=1,
            max_size=3,
        )
    )
    for current in (state, state * complex(0.3, -0.7), permuted):
        got, prob = project_occupancy(current, groups)
        ref, ref_prob = oracles.reference_project_occupancy(current, groups)
        assert _bits(got) == _bits(ref)
        assert prob.hex() == ref_prob.hex()
    # several sets at once, one of which keeps nothing (no ket holds four
    # photons), on the state and on the zero state: each set as if alone
    group_sets = [groups, groups[:1], [(_MODES, 4)], [(_MODES[::-1], 1)]]
    for current in (state, PureState()):
        got = project_each(current, group_sets)
        ref = [oracles.reference_project_occupancy(current, g) for g in group_sets]
        assert [(_bits(c), p.hex()) for c, p in got] == [(_bits(c), p.hex()) for c, p in ref]


@given(_state_st(max_terms=6), st.data())
def test_property_postselect_coincidence_matches_the_per_pattern_scan(state, data):
    # the one-pass split against one project_occupancy per pattern, on a
    # first call, on a repeat of the order with new amplitudes and on a
    # permuted order; the last pattern keeps only the first's first group,
    # so every ket the first pattern keeps lands in two patterns
    kets = data.draw(st.permutations(list(state.terms)))
    permuted = PureState._pruned((k, state.terms[k]) for k in kets)
    group = st.tuples(
        st.lists(st.sampled_from(_MODES), min_size=1, unique=True).map(tuple),
        st.integers(0, 2),
    )
    patterns = [
        CoincidencePattern(("x", "y", "z"), f"p{i}", tuple(groups))
        for i, groups in enumerate(
            data.draw(st.lists(st.lists(group, min_size=1, max_size=3), min_size=1, max_size=4))
        )
    ]
    patterns.append(patterns[0]._replace(shape="wide", groups=patterns[0].groups[:1]))
    for current in (state, state * complex(0.3, -0.7), permuted):
        got = postselect_coincidence(current, patterns)
        ref = oracles.reference_postselect_coincidence(current, patterns)
        assert [(p, _bits(c), prob.hex()) for p, c, prob in got] == [
            (p, _bits(c), prob.hex()) for p, c, prob in ref
        ]
    # no ket holds four photons: a state outside every pattern gives none
    outside = CoincidencePattern(("x", "y", "z"), "none", ((_MODES, 4),))
    assert postselect_coincidence(state, [outside]) == []


# --- the trusted engine path: bit-exact with the public constructor ---------


def _public_scaled(state, scalar):
    """``state`` scaled through the public constructor, which sums each
    product onto 0j, checks it and prunes it."""
    return PureState({k: a * complex(scalar) for k, a in state.terms.items()})


def _public_herald(state, modes, name):
    """The engine's earlier ``herald``, scanning every ket on every call
    and building its result through the public constructor."""
    modes = set(modes)
    fired = None
    rest = {}
    for k, amp in state.terms.items():
        pols = [r.pol for r, _ in k if r.mode in modes]
        if fired is None:
            fired = pols
        elif pols != fired:
            raise NetworkError(f"the {name} photon is entangled with the rest")
        kept = FockKet([(r, n) for r, n in k if r.mode not in modes])
        if kept in rest:
            raise NetworkError(f"two {name} paths interfere at {kept}")
        rest[kept] = amp
    return PureState(rest)


@st.composite
def _spread_state_st(draw):
    """A random state through the public constructor, signed zeros among
    its amplitude parts; sometimes one amplitude sits just above
    ``PRUNE_TOL`` next to a large one, so that normalizing drops it."""
    state = draw(_state_st(max_terms=6))
    kets, amps = list(state.terms), list(state.terms.values())
    if len(kets) > 1 and draw(st.booleans()):
        i = draw(st.integers(0, len(kets) - 1))
        amps[i] = amps[i] / abs(amps[i]) * draw(st.floats(1.01e-12, 5e-12))
        amps[i - 1] = amps[i - 1] * draw(st.floats(10.0, 100.0))
    zero = draw(st.sampled_from([0.0, -0.0]))
    amps[0] = complex(amps[0].real, zero) if draw(st.booleans()) else complex(zero, amps[0].imag)
    assume(abs(amps[0]) > PRUNE_TOL)
    return PureState(zip(kets, amps))


@given(_spread_state_st())
def test_property_normalized_and_phase_fixed_are_bit_exact_to_the_constructor(state):
    n = state.norm()
    assert _bits(state.normalized()) == _bits(_public_scaled(state, 1.0 / n))
    _, lead = state.sorted_terms()[0]
    assert _bits(phase_fixed(state)) == _bits(_public_scaled(state, abs(lead) / lead))


@given(
    _spread_state_st(),
    st.one_of(
        st.floats(-1e3, 1e3).map(complex),
        st.complex_numbers(max_magnitude=1e3, allow_nan=False, allow_infinity=False),
    ),
)
def test_property_scaled_is_bit_exact_to_the_constructor(state, scalar):
    # real scales make -0.0 parts that only the sum onto 0j clears; tiny
    # scales included, under which every amplitude may fall below PRUNE_TOL
    assert _bits(state._scaled(scalar)) == _bits(_public_scaled(state, scalar))
    assert _bits(state._scaled(scalar * 1e-11)) == _bits(_public_scaled(state, scalar * 1e-11))


@given(_spread_state_st(), st.data())
def test_property_project_each_is_bit_exact_to_the_constructor(state, data):
    # the selection memo is keyed on the group sets as passed: each form
    # twice, a memo hit for the forms hashed by value, a second first
    # sight for the iterators, and a selection without the memo for lists
    group = st.tuples(
        st.lists(st.sampled_from(_MODES), min_size=1, unique=True).map(tuple),
        st.integers(0, 2),
    )
    group_sets = data.draw(st.lists(st.lists(group, min_size=1, max_size=3), min_size=1, max_size=4))
    ref = [oracles.reference_project_occupancy(state, g) for g in group_sets]
    expected = [(_bits(c), p.hex()) for c, p in ref]
    forms = (
        lambda: tuple(tuple(g) for g in group_sets),
        lambda: group_sets,
        lambda: tuple(tuple((m[::-1], n) for m, n in g) for g in group_sets),
        lambda: tuple(tuple((frozenset(m), n) for m, n in g) for g in group_sets),
        lambda: tuple(tuple((iter(m), n) for m, n in g) for g in group_sets),
        lambda: (tuple(g) for g in group_sets),
    )
    for form in forms:
        for _ in range(2):
            got = project_each(state, form())
            assert [(_bits(c), p.hex()) for c, p in got] == expected


@st.composite
def _herald_case_st(draw):
    """A state with one trigger photon per ket on t1 or t2: usually one
    polarization throughout, sometimes a ket with the other one, or a ket
    repeated on the other trigger path, so that both refusals show."""
    state = draw(_spread_state_st())
    pol = draw(st.sampled_from(_POLS))
    items = []
    for k, amp in state.terms.items():
        path = draw(st.sampled_from(("t1", "t2")))
        items.append((FockKet([*k, (Rail(path, pol), 1)]), amp))
    fault = draw(st.sampled_from(["none", "none", "entangled", "interfere"]))
    k, amp = items[-1]
    rest = [(r, n) for r, n in k if r.mode not in ("t1", "t2")]
    if fault == "entangled":
        items.append((FockKet([*rest, (Rail("t1", "V" if pol == "H" else "H"), 1)]), amp))
    elif fault == "interfere":
        other = "t2" if (Rail("t1", pol), 1) in k.occupations else "t1"
        items.append((FockKet([*rest, (Rail(other, pol), 1)]), amp))
    return PureState(items)


def _herald_outcome(fn, state, name):
    try:
        return "state", _bits(fn(state, ("t1", "t2"), name))
    except NetworkError as exc:
        return "error", str(exc)


@given(_herald_case_st())
def test_property_herald_is_bit_exact_to_the_constructor(state):
    # first sight and memo hit, under two detector names
    for name in ("T", "U", "T"):
        assert _herald_outcome(herald, state, name) == _herald_outcome(_public_herald, state, name)


def test_herald_memo_names_the_detector_it_is_given():
    # one ket order under two names: the memoized refusal names each
    entangled = ket(("t1", "H"), ("a", "H")) + ket(("t2", "V"), ("a", "V"))
    interfering = ket(("t1", "H"), ("x", "H")) + ket(("t2", "H"), ("x", "H"))
    for name in ("T", "Trigger2", "T"):
        with pytest.raises(NetworkError, match=f"^the {name} photon is entangled with the rest$"):
            herald(entangled, ("t1", "t2"), name)
        with pytest.raises(NetworkError, match=f"^two {name} paths interfere at "):
            herald(interfering, ("t1", "t2"), name)
    good = ket(("t1", "H"), ("a", "H")) + ket(("t2", "H"), ("b", "V"), amp=-0.5j)
    assert _bits(herald(good, ("t2", "t1"), "T")) == _bits(herald(good, ["t1", "t2"], "U"))


@pytest.mark.parametrize("scalar", [math.nan, math.inf, -math.inf, complex(0.0, math.nan), complex(math.inf, 1.0)])
def test_a_non_finite_scale_factor_raises(scalar):
    state = ket(("a", "H"), amp=0.6) + ket(("a", "V"), amp=-0.8j)
    with pytest.raises(ValueError, match="non-finite scale factor"):
        state._scaled(scalar)
    with pytest.raises(ValueError, match="non-finite amplitude"):
        state * scalar


@pytest.mark.parametrize("group", [(("a",), None), (5, 1)])
def test_a_malformed_group_raises_type_error_in_every_form(group):
    # only a key that cannot be hashed is selected again without the memo:
    # the selection's own TypeError is never retried on what is left of a
    # one-shot iterator, which would turn it into a shorter result
    state = ket(("a", "H")) + ket(("b", "H"), amp=2.0)
    good = ((("a",), 1),)
    for group_sets in ([good, [group]], (good, (group,)), iter([good, (group,), good])):
        with pytest.raises(TypeError):
            project_each(state, group_sets)


@pytest.mark.parametrize(
    "call",
    [
        lambda s: project_occupancy(s, [("d1", 1)]),
        lambda s: project_occupancy(s, (("d1", 1),)),
        lambda s: herald(s, "d1", "D"),
        lambda s: next(iter(s))[0].count_in_modes("d1"),
    ],
    ids=["project_occupancy", "project_occupancy-hashable", "herald", "count_in_modes"],
)
def test_a_bare_string_of_modes_raises(call):
    # frozenset("d1") is {"d", "1"}: read as single letters, the string
    # would select, herald or count nothing, without a word
    state = ket(("d1", "H"), ("T1", "V"))
    with pytest.raises(ValueError, match="got the string 'd1'"):
        call(state)
