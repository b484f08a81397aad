"""Independent reference implementations for test expectations.

Everything here is deliberately naive and self-contained: permanents by
permutation sum, creation-operator polynomials as plain dicts, dense
vectors over explicitly enumerated Fock bases, and a hand-written
single-photon matrix for the fan-out network.  None of the engine's
evolution code is used; states cross the boundary only as dicts keyed
by occupation tuples.

The exceptions work on engine objects: ``reference_apply`` is the
engine's earlier, plainly written ``ModeTransform.apply``, kept here
unchanged so the optimized kernel can be held to bit-for-bit equality
with it, and ``reference_project_occupancy`` and
``reference_postselect_coincidence`` do the same for the memoized
projections, through the public ``PureState`` constructor alone;
``reference_dual_pass_emission``, ``reference_tag_phases``,
``reference_homodyne_discriminate``, ``reference_feed_forward``,
``reference_apply_errors``, ``reference_classify_family`` and
``reference_entanglement_summary`` are the source, QND and noise layers'
earlier bodies, held likewise against their trusted engine paths;
``states_close`` compares two states amplitude by amplitude;
``dense_entanglement_summary`` recomputes the polarization-versus-path
summary from the dense density matrix, as a cross-check of
``entanglement_summary``.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

PRUNE = 1e-14


def naive_permanent(m: np.ndarray) -> complex:
    n = m.shape[0]
    if n == 0:
        return 1.0 + 0j
    total = 0.0 + 0j
    for perm in itertools.permutations(range(n)):
        p = 1.0 + 0j
        for i, j in enumerate(perm):
            p *= m[i, j]
            if p == 0:
                break
        else:
            total += p
    return total


def fock_basis(num_rails: int, photons: int) -> list[tuple[int, ...]]:
    """All occupation tuples of ``num_rails`` rails holding ``photons``."""
    if num_rails == 1:
        return [(photons,)]
    out = []
    for first in range(photons + 1):
        for rest in fock_basis(num_rails - 1, photons - first):
            out.append((first,) + rest)
    return out


def _fact_prod(occ) -> float:
    p = 1.0
    for n in occ:
        p *= math.factorial(n)
    return p


def lifted_entry(u: np.ndarray, s_occ, t_occ) -> complex:
    """<S| lift(u) |T> = per(u[S, T]) / sqrt(prod S! prod T!).

    ``u[S, T]`` repeats row j of ``u`` s_j times and column i t_i times.
    """
    rows = [j for j, n in enumerate(s_occ) for _ in range(n)]
    cols = [i for i, n in enumerate(t_occ) for _ in range(n)]
    if len(rows) != len(cols):
        return 0.0 + 0j
    sub = u[np.ix_(rows, cols)]
    # a fully zero row or column kills the permanent; cheap pre-check
    if sub.size and (
        (~sub.any(axis=1)).any() or (~sub.any(axis=0)).any()
    ):
        return 0.0 + 0j
    return naive_permanent(sub) / math.sqrt(_fact_prod(s_occ) * _fact_prod(t_occ))


def polynomial_evolve(
    state: dict[tuple[int, ...], complex], u: np.ndarray
) -> dict[tuple[int, ...], complex]:
    """Evolve by substituting every creation operator through ``u`` and
    expanding the resulting polynomial term by term.

    ``state`` maps occupation tuples over the input rails to amplitudes;
    the result is keyed by occupation tuples over the output rails.
    """
    num_out = u.shape[0]
    out: dict[tuple[int, ...], complex] = {}
    zero = (0,) * num_out
    for t_occ, amp in state.items():
        monomials = {zero: 1.0 + 0j}
        for i, n in enumerate(t_occ):
            for _ in range(n):
                grown: dict[tuple[int, ...], complex] = {}
                for mono, coeff in monomials.items():
                    for j in range(num_out):
                        if u[j, i] == 0:
                            continue
                        key = mono[:j] + (mono[j] + 1,) + mono[j + 1 :]
                        grown[key] = grown.get(key, 0.0) + coeff * u[j, i]
                monomials = grown
        scale = amp / math.sqrt(_fact_prod(t_occ))
        for s_occ, coeff in monomials.items():
            value = out.get(s_occ, 0.0) + scale * coeff * math.sqrt(
                _fact_prod(s_occ)
            )
            out[s_occ] = value
    return {k: v for k, v in out.items() if abs(v) > PRUNE}


def dict_norm(state: dict) -> float:
    return math.sqrt(sum(abs(a) ** 2 for a in state.values()))


def dict_normalized(state: dict) -> dict:
    n = dict_norm(state)
    return {k: v / n for k, v in state.items()}


def dict_scale(state: dict, c) -> dict:
    return {k: v * c for k, v in state.items()}


def dict_add(a: dict, b: dict) -> dict:
    out = dict(a)
    for k, v in b.items():
        out[k] = out.get(k, 0.0) + v
    return {k: v for k, v in out.items() if abs(v) > PRUNE}


def states_close(a, b, tol: float = 1e-10) -> bool:
    """Amplitude-wise comparison of two ``PureState``s, phase sensitive."""
    keys = set(a.terms) | set(b.terms)
    return all(abs(a.amplitude(k) - b.amplitude(k)) <= tol for k in keys)


def dense_entanglement_summary(state, positions) -> dict:
    """The four fields of ``entanglement_summary``, from the dense state
    over every polarization word and every path word of ``positions``
    (one photon per position), with the reduced and product densities
    taken by ``einsum``; plus ``singular_values``, all of them, so a test
    can stay clear of the rank threshold.  Raises ``ValueError`` on a ket
    that does not fit that basis."""
    positions = [tuple(p) for p in positions]
    pol_words = list(itertools.product("HV", repeat=len(positions)))
    path_words = list(itertools.product(*positions))
    psi = np.zeros((len(pol_words), len(path_words)), dtype=complex)
    for k, amp in state.terms.items():
        photons = [(r.mode, r.pol) for r, n in k for _ in range(n)]
        by_mode = dict(photons)
        path = tuple(next((m for m in group if m in by_mode), None) for group in positions)
        if None in path or not len(photons) == len(by_mode) == len(positions):
            raise ValueError(f"{k} does not hold one photon per position")
        pol = tuple(by_mode[m] for m in path)
        psi[pol_words.index(pol), path_words.index(path)] += amp
    psi /= np.linalg.norm(psi)
    rho = np.einsum("ij,kl->ijkl", psi, psi.conj())
    rho_pol = np.einsum("ajbj->ab", rho)
    rho_path = np.einsum("iaib->ab", rho)
    product = np.einsum("ac,bd->abcd", rho_pol, rho_path)
    svals = np.linalg.svd(psi, compute_uv=False)
    coeffs = tuple(float(s) for s in svals if s > 1e-10)
    return {
        "schmidt_rank": len(coeffs),
        "schmidt_coefficients": coeffs,
        "polarization_purity": float(np.einsum("ab,ba->", rho_pol, rho_pol).real),
        "product_state_deviation": float(np.max(np.abs(rho - product))),
        "singular_values": tuple(float(s) for s in svals),
    }


# --- the fan-out network, by hand ------------------------------------------

# input rails, one per source arm and polarization
FAN_IN_RAILS = (
    ("a1", "H"),
    ("a1", "V"),
    ("b1", "H"),
    ("b1", "V"),
    ("a2", "H"),
    ("a2", "V"),
    ("b2", "H"),
    ("b2", "V"),
)

# every rail the fan-out can populate
FAN_OUT_RAILS = (
    ("T1", "H"),
    ("T2", "H"),
    ("D1", "H"),
    ("D1", "V"),
    ("D2", "H"),
    ("D2", "V"),
    ("D3", "H"),
    ("D3", "V"),
    ("d1", "H"),
    ("d1", "V"),
    ("d2", "H"),
    ("d2", "V"),
    ("d3", "H"),
    ("d3", "V"),
)

# single-photon responses of the fan-out network:
#   a H  -> trigger
#   a V  -> (V on arm 1 + H on arm 2) / sqrt(2)
#   b H  -> (H on arm 1 + H on arm 3) / sqrt(2)
#   b V  -> (V on arm 2 + V on arm 3) / sqrt(2)
_SINGLE_PHOTON_MAP = {
    ("a1", "H"): ((("T1", "H"), 1.0),),
    ("a1", "V"): ((("D1", "V"), 2 ** -0.5), (("D2", "H"), 2 ** -0.5)),
    ("b1", "H"): ((("D1", "H"), 2 ** -0.5), (("D3", "H"), 2 ** -0.5)),
    ("b1", "V"): ((("D2", "V"), 2 ** -0.5), (("D3", "V"), 2 ** -0.5)),
    ("a2", "H"): ((("T2", "H"), 1.0),),
    ("a2", "V"): ((("d1", "V"), 2 ** -0.5), (("d2", "H"), 2 ** -0.5)),
    ("b2", "H"): ((("d1", "H"), 2 ** -0.5), (("d3", "H"), 2 ** -0.5)),
    ("b2", "V"): ((("d2", "V"), 2 ** -0.5), (("d3", "V"), 2 ** -0.5)),
}


def fan_out_matrix() -> np.ndarray:
    w = np.zeros((len(FAN_OUT_RAILS), len(FAN_IN_RAILS)), dtype=complex)
    col = {rail: i for i, rail in enumerate(FAN_IN_RAILS)}
    row = {rail: j for j, rail in enumerate(FAN_OUT_RAILS)}
    for in_rail, images in _SINGLE_PHOTON_MAP.items():
        for out_rail, amp in images:
            w[row[out_rail], col[in_rail]] = amp
    return w


# --- the two-pair emission, by hand -----------------------------------------


def _rail_index(rail) -> int:
    return FAN_IN_RAILS.index(rail)


def _singlet_monomials(arm_a: str, arm_b: str) -> dict[tuple[int, ...], complex]:
    """(H_a V_b - V_a H_b)/sqrt(2) as creation monomials over the input
    rails, keyed by occupation-increment tuples."""
    zero = [0] * len(FAN_IN_RAILS)
    out = {}
    for sign, pol_a, pol_b in ((1.0, "H", "V"), (-1.0, "V", "H")):
        occ = list(zero)
        occ[_rail_index((arm_a, pol_a))] += 1
        occ[_rail_index((arm_b, pol_b))] += 1
        out[tuple(occ)] = sign / math.sqrt(2.0)
    return out


def _monomial_product(p: dict, q: dict) -> dict:
    out: dict[tuple[int, ...], complex] = {}
    for occ_p, cp in p.items():
        for occ_q, cq in q.items():
            key = tuple(a + b for a, b in zip(occ_p, occ_q))
            out[key] = out.get(key, 0.0) + cp * cq
    return out


_PASS_ARMS = {1: ("a1", "b1"), 2: ("a2", "b2")}


def emission_case(i: int, j: int) -> dict[tuple[int, ...], complex]:
    """Normalized state for one pair in pass ``i`` and one in pass ``j``."""
    poly = _monomial_product(
        _singlet_monomials(*_PASS_ARMS[i]), _singlet_monomials(*_PASS_ARMS[j])
    )
    state = {
        occ: coeff * math.sqrt(_fact_prod(occ)) for occ, coeff in poly.items()
    }
    return dict_normalized(state)


def emission_state(weights=(0.25, 0.25, 0.5)) -> dict[tuple[int, ...], complex]:
    w11, w22, w12 = weights
    out: dict[tuple[int, ...], complex] = {}
    for w, case in (
        (w11, emission_case(1, 1)),
        (w22, emission_case(2, 2)),
        (w12, emission_case(1, 2)),
    ):
        if w > 0:
            out = dict_add(out, dict_scale(case, math.sqrt(w)))
    return out


def fan_out_dense(weights=(0.25, 0.25, 0.5)) -> dict[tuple[int, ...], complex]:
    """The emission pushed through the fan-out matrix."""
    return polynomial_evolve(emission_state(weights), fan_out_matrix())


def coincidence_probability(
    state: dict[tuple[int, ...], complex], groups
) -> float:
    """Total weight on occupations with exactly one photon per rail group.

    ``groups`` are collections of rail tuples from FAN_OUT_RAILS.
    """
    index_groups = [
        [FAN_OUT_RAILS.index(rail) for rail in group] for group in groups
    ]
    total = 0.0
    for occ, amp in state.items():
        if all(sum(occ[i] for i in idx) == 1 for idx in index_groups):
            total += abs(amp) ** 2
    return total


COINCIDENCE_GROUPS = (
    (("T1", "H"), ("T2", "H")),
    (("D1", "H"), ("D1", "V"), ("d1", "H"), ("d1", "V")),
    (("D2", "H"), ("D2", "V"), ("d2", "H"), ("d2", "V")),
    (("D3", "H"), ("D3", "V"), ("d3", "H"), ("d3", "V")),
)


# --- bit-exact reference for ModeTransform.apply --------------------------


def reference_apply(transform, state):
    """The engine's earlier ``ModeTransform.apply``, verbatim but for the
    ``self`` -> ``transform`` rename: it rebuilds every ket through the
    validating public constructors.  The engine's kernel must return
    exactly these amplitudes, in exactly this ket order."""
    from ghzgen.states import FockKet, PureState

    in_index = {r: j for j, r in enumerate(transform.in_rails)}
    out_set = set(transform.out_rails)
    n_out = len(transform.out_rails)
    acc = {}
    for k, amp in state.terms.items():
        counts = [0] * len(transform.in_rails)
        passthrough = []
        for rail, n in k:
            j = in_index.get(rail)
            if j is None:
                if rail in out_set:
                    raise ValueError(
                        f"{transform.name}: rail {rail} is already occupied "
                        "on an output of this element"
                    )
                passthrough.append((rail, n))
            else:
                counts[j] = n
        norm_div = 1.0
        for n in counts:
            norm_div *= math.factorial(n)
        partial = {(0,) * n_out: amp / math.sqrt(norm_div)}
        for j, n in enumerate(counts):
            column = [row[j] for row in transform.rows]
            for _ in range(n):
                nxt = {}
                for occ, c in partial.items():
                    for i in range(n_out):
                        u = column[i]
                        if u == 0:
                            continue
                        grown = list(occ)
                        grown[i] += 1
                        key = tuple(grown)
                        nxt[key] = nxt.get(key, 0j) + c * u * math.sqrt(occ[i] + 1)
                partial = nxt
        for occ, c in partial.items():
            entries = list(passthrough)
            entries.extend(
                (transform.out_rails[i], m) for i, m in enumerate(occ) if m
            )
            out_ket = FockKet(entries)
            acc[out_ket] = acc.get(out_ket, 0j) + c
    return PureState(acc)


# --- reference for project_occupancy's memoized selection -----------------


def reference_project_occupancy(state, groups):
    """The engine's earlier ``project_occupancy``: it scans every ket's
    counts on every call and builds and scales the conditional through
    the public ``PureState`` constructor.  The memoized selection must
    return exactly this state, in this ket order, and this probability."""
    from ghzgen.states import PureState

    resolved = [(frozenset(modes), int(count)) for modes, count in groups]
    kept = {}
    for k, amp in state.terms.items():
        if all(k.count_in_modes(modes) == count for modes, count in resolved):
            kept[k] = amp
    total = state.norm() ** 2
    if total == 0.0:
        return PureState(), 0.0
    projected = PureState(kept)
    n = projected.norm()
    prob = n**2 / total
    if projected.is_zero():
        return projected, 0.0
    return PureState({k: a * (1.0 / n) for k, a in projected.terms.items()}), prob


# --- reference for postselect_coincidence's one-pass split ---------------


def reference_postselect_coincidence(state, patterns):
    """The engine's earlier ``postselect_coincidence``: one
    ``reference_project_occupancy`` per pattern, each taking the input
    norm again.  The one-pass split must return exactly these patterns,
    states, in this ket order, and probabilities."""
    results = []
    for pattern in patterns:
        conditional, prob = reference_project_occupancy(state, pattern.groups)
        if prob > 0.0:
            results.append((pattern, conditional, prob))
    return results


# --- references for the source, QND and noise layers ----------------------
#
# The engine's earlier bodies of ``dual_pass_emission``, ``tag_phases``,
# ``homodyne_discriminate``, ``feed_forward``, ``apply_errors``,
# ``classify_family`` and ``entanglement_summary``, verbatim but for their
# imports: every state is built through the validating public constructors
# and every per-ket decision is taken on every call.  The trusted engine
# paths must return exactly these kets, in this order, with these bits.


def reference_dual_pass_emission(weights=None):
    from ghzgen.source import CaseWeights, two_pair_product
    from ghzgen.states import PureState

    weights = weights or CaseWeights()
    w1, w2, w3 = weights.as_tuple()
    out = PureState()
    if w1:
        out = out + math.sqrt(w1) * two_pair_product(1, 1)
    if w2:
        out = out + math.sqrt(w2) * two_pair_product(2, 2)
    if w3:
        out = out + math.sqrt(w3) * two_pair_product(1, 2)
    return out


def reference_tag_phases(state, couplings):
    from ghzgen.states import Rail, sum_in_order

    per_rail = {}
    for c in couplings:
        rail = Rail(c.mode, c.pol)
        per_rail[rail] = per_rail.get(rail, 0.0) + c.units
    return {k: sum_in_order(per_rail.get(r, 0.0) * n for r, n in k) for k in state.terms}


def reference_homodyne_discriminate(state, tags, theta, alpha, rng=None):
    import cmath

    from ghzgen.qnd import _TAG_TOL, QndOutcome
    from ghzgen.states import NetworkError, PureState

    sides = {"A": {}, "B": {}}
    signs = {}
    for k, amp in state.terms.items():
        t = tags[k]
        if not -1.5 < t < 1.5 or abs(t - round(t)) > _TAG_TOL:
            raise NetworkError(
                f"tag {t} theta on {k} is outside the protocol classes "
                "(miswired couplings?)"
            )
        signs[k] = round(t)
        sides["A" if signs[k] else "B"][k] = amp
    total = state.norm() ** 2
    if total == 0.0:
        raise ValueError("cannot discriminate the zero state")
    outcomes = []
    for branch in ("A", "B"):
        part = PureState(sides[branch])
        prob = part.norm() ** 2 / total
        if prob == 0.0:
            continue
        mean = 2.0 * alpha * (math.cos(theta) if branch == "A" else 1.0)
        x = float(rng.normal(mean, 1.0)) if rng is not None else mean
        phi = alpha * math.sin(theta) * (x - mean) if branch == "A" else 0.0
        if phi:
            part = PureState(
                {k: amp * cmath.exp(1j * signs[k] * phi) for k, amp in part.terms.items()}
            )
        outcomes.append(
            QndOutcome(
                branch=branch,
                probability=prob,
                conditional=part.normalized(),
                x=x,
                phi=phi,
                tag_signs={k: signs[k] for k in part.terms},
            )
        )
    return outcomes


def reference_feed_forward(outcome):
    import cmath

    from ghzgen.states import PureState

    if outcome.branch != "A" or outcome.phi == 0.0:
        return outcome.conditional
    phi = outcome.phi
    return PureState(
        {
            k: amp * cmath.exp(-1j * outcome.tag_signs[k] * phi)
            for k, amp in outcome.conditional.terms.items()
        }
    )


def reference_apply_errors(state, errors, positions):
    from ghzgen.states import H, V, FockKet, PureState, Rail

    kinds = {}
    for err in errors:
        for mode in positions[err.photon - 1]:
            kinds.setdefault(mode, []).append(err.kind)
    acc = {}
    for k, amp in state.terms.items():
        entries = []
        phase = 1.0
        for r, n in k:
            pol = r.pol
            for kind in kinds.get(r.mode, ()):
                if kind != "Z":
                    pol = V if pol == H else H
                if kind != "X" and pol == V:
                    phase *= (-1.0) ** n
            entries.append((Rail(r.mode, pol), n))
        new_k = FockKet(entries)
        acc[new_k] = acc.get(new_k, 0j) + amp * phase
    return PureState(acc)


def reference_classify_family(state, positions):
    """The full scan: every one of the 16 families, in order, scored by
    fidelity against its literal state."""
    from ghzgen.noise import (
        CLASSIFY_TOL,
        FAMILY_TAGS,
        NetworkError,
        NoiseFamily,
        family_state,
    )
    from ghzgen.states import fidelity

    families = [
        NoiseFamily(tag=tag, sign=sign, mirrored=mirrored)
        for tag in FAMILY_TAGS
        for mirrored in (False, True)
        for sign in (1, -1)
    ]
    for fam in families:
        if fidelity(state, family_state(fam, positions)) > 1.0 - CLASSIFY_TOL:
            return fam
    raise NetworkError("state does not match any depolarization family")


def reference_entanglement_summary(state, positions):
    from ghzgen.states import SCHMIDT_TOL

    groups = [tuple(p) for p in positions]
    all_modes = {m for g in groups for m in g}
    pol_index = {}
    path_index = {}
    entries = []
    for k, amp in state.normalized().sorted_terms():
        pols, modes = [], []
        for group in groups:
            found = [(r, n) for r, n in k if r.mode in group]
            if len(found) != 1 or found[0][1] != 1:
                raise ValueError(f"{k} does not hold exactly one photon in {group}")
            rail = found[0][0]
            pols.append(rail.pol)
            modes.append(rail.mode)
        if any(r.mode not in all_modes for r, _ in k):
            raise ValueError(f"{k} has photons outside the positions")
        i = pol_index.setdefault(tuple(pols), len(pol_index))
        j = path_index.setdefault(tuple(modes), len(path_index))
        entries.append((i, j, amp))
    m = np.zeros((len(pol_index), len(path_index)), dtype=complex)
    for i, j, amp in entries:
        m[i, j] += amp
    coeffs = tuple(float(s) for s in np.linalg.svd(m, compute_uv=False) if s > SCHMIDT_TOL)
    rho_pol = m @ m.conj().T
    rho_path = m.T @ m.conj()
    v = m.reshape(-1)
    joint = (rho_pol[:, None, :, None] * rho_path[None, :, None, :]).reshape(v.size, v.size)
    deviation = np.abs(np.outer(v, v.conj()) - joint)
    return {
        "schmidt_rank": len(coeffs),
        "schmidt_coefficients": coeffs,
        "polarization_purity": float((rho_pol @ rho_pol).trace().real),
        "product_state_deviation": float(np.max(deviation)),
    }
