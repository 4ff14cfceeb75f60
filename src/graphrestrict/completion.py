"""Finite completions of the star amalgam.

The star's product group A acts on itself by right multiplication; ``t``
disjoint copies of that action give a carrier on which A sits as the group
``rho(A)``, faithfully and freely.  Each ``rho(x)`` is the row of ``x`` in
A's right regular action repeated over the copies, so ``rho`` is an injective
homomorphism by construction, ``rho(x)`` fixes no point for ``x != 0``, and
the lifted generators of L and S generate ``rho(A)``; none of this is
checked at run time.  The carrier builds a row when it is first asked for
and keeps it.  A completion adds one involution
``beta_i`` per edge, built orbit-by-orbit so that conjugation by ``beta_i``
realises the edge twist on ``rho(C_i)``.  The group ``G`` generated by
``rho(A)`` and the involutions is accepted when four conditions hold:

* V1 (edge-wise):  rho(A) meets its beta_i-conjugate exactly in rho(C_i),
* V2 (edge-wise):  beta_i squares to the identity and lies outside rho(A),
* V3:              the core of rho(A) in G is trivial,
* V4:              the base vertex's neighbour cosets are pairwise distinct.

These are precisely the finite conditions the coset-graph construction
consumes.  V3 is not computed: it follows from the conjugation contract and
V1 on every edge.  A normal subgroup of G inside rho(A) lies in every D_i =
C_i, so in the core in A of the intersection of the C_i, which is the
head-trivial subgroup 1 x S^n; conjugation by beta_1 and beta_2 acts on it
as the two reversals, which move every coordinate onto the head, so only
the identity survives.  V3 is reported True when V1 holds on every edge and
None otherwise, when V1 has already rejected the candidate.

The conjugation contract, ``beta_i rho(c) beta_i = rho(phi_i(c))`` for
every c in C_i, holds by construction.  ``build_involution`` sends the
point ``(rep_o * c, j_o)`` of orbit o to ``(rep_p * phi_i(c), j_p)`` of its
partner p.  The pairing is an involution and each representative lies in
its orbit's coset, and phi_i is an involutive automorphism of C_i
(``amalgam``).  So for g in C_i, the point ``(rep_o * c, j_o)``
goes under ``beta_i rho(g) beta_i`` to ``(rep_p * phi_i(c), j_p)``, then to
``(rep_p * phi_i(c) g, j_p)``, then, as ``phi_i(c) g = phi_i(c phi_i(g))``,
to ``(rep_o * c phi_i(g), j_o)``: that is ``rho(phi_i(g))`` on every point.
The search relies on it: ``verify_completion`` checks it once per edge of
the accepted candidate, on the generators of C_i = L_{r_i} x S^n (the
stabiliser's in the head, A's in the tail), which is exact since both of
its sides are homomorphisms on C_i.

The elements x whose conjugate ``beta_i^-1 rho(x) beta_i`` lies in rho(A)
form a subgroup D_i.  The contract puts C_i in D_i, since phi_i maps C_i
into itself, so D_i is a union of right cosets C_i a, and V1 (D_i = C_i)
holds exactly when no right transversal element but the identity 0 lies
in D_i.  Slots (i, a) and (i, a') share a coset exactly when a a'^-1 lies
in D_i, so a lies in D_i exactly when slot (i, a) shares the coset of
slot (i, 0), rho(A) * beta_i: V1 holds exactly when edge i's slot keys
are pairwise distinct.  V2 holds exactly when the key of slot (i, 0) is
not the key of rho(A), the padded identity.  So V1, V2 and V4 are all
read off the canonical coset keys of the slot elements, on the contract's
authority; the search forms no conjugate.  The coset graph needs no slot
key: it reads the base vertex's neighbours off its transition table.  The
order of G is not computed here: the coset graph gets it from the coset
count (see ``cosetgraph.build_graph``).

V1, V2 and the slot keys of an edge depend on its involution only, so the
search keys each built involution once, and a combination of them is
decided by V4 alone, on the union of those keys.

There is no guarantee that a completion exists at small ``t`` for every
input, so ``find_completion`` runs a deterministic escalation ladder
(default pairing, a cross-copy pairing, enumerated pairings, seeded random
transversals, then more copies) and raises a structured failure listing
every attempt when the caps are exhausted.
"""

from __future__ import annotations

import functools
import itertools
import random
from operator import itemgetter
from typing import NamedTuple

from .amalgam import DEFAULT_CARRIER_CAP, IDENTITY_TWIST, AmalgamStar
from .errors import (CapacityError, CompletionSearchError, InputError,
                     ValidationError)
from .perm import Permutation, _identity_images

_PER_EDGE_CANDIDATES = 24     # plans offered per edge and search pass
_RANDOM_ROUNDS = 16           # seeded-transversal rounds per edge


class Carrier:
    """t copies of A with the right regular action.

    Point ``(a, j)`` (element index ``ia``, copy ``j`` in 1..t) is the
    1-based carrier point ``(j-1)*|A| + ia + 1``; the basepoint is the
    identity element in copy 1, i.e. point 1.
    """

    def __init__(self, star: AmalgamStar, t: int,
                 carrier_cap: int = DEFAULT_CARRIER_CAP):
        if t < 1:
            raise InputError(f"copy count must be >= 1, got {t}")
        if t * star.order > carrier_cap:
            raise CapacityError("carrier cap", carrier_cap, t * star.order)
        self.star = star
        self.t = t
        self.size = star.order
        self.degree = t * star.order
        # carrier points as the shared int objects of the degree, one tuple
        # per copy, so that a stored row holds references to them
        points = _identity_images(self.degree)
        self._copies = tuple(points[offset:offset + self.size]
                             for offset in range(1, self.degree + 1, self.size))
        self._rho: dict[int, Permutation] = {}
        self.generator_indices = star.generator_indices

    @functools.cached_property
    def rho_generators(self) -> tuple[Permutation, ...]:
        """rho of A's generators, built on the accepted candidate's first use."""
        return tuple(map(self.rho_index, self.generator_indices))

    def point(self, element_index: int, copy: int) -> int:
        return (copy - 1) * self.size + element_index + 1

    def rho_index(self, element_index: int) -> Permutation:
        """rho(x): copy j of the row ``a -> a * x``, as 1-based carrier
        points after the padding 0; each row is built on its first request
        and kept."""
        rho = self._rho.get(element_index)
        if rho is None:
            take = itemgetter(*self.star.right_row(element_index))
            rho = Permutation._raw(sum(map(take, self._copies), (0,)))
            self._rho[element_index] = rho
        return rho

    def membership_index(self, perm: Permutation) -> int | None:
        """Element index x with perm == rho(x), or None."""
        # rho(x) sends the basepoint (identity, copy 1) to the point x + 1
        x = perm.padded[1] - 1
        if x < self.size and self.rho_index(x).padded == perm.padded:
            return x
        return None

    def coset_key(self, padded: tuple[int, ...]) -> tuple[int, ...]:
        """Key of the right coset rho(A) * h, given h's padded images: the
        padded images of its canonical representative.

        rho(A) is regular on every copy, so exactly one coset element sends
        an identity point (e, j) to point 1: h sends the point q = (a', j)
        to 1, and rho(x) * h sends (e, j) there exactly when x = a'.  One
        scan of h's images for 1 finds q; the product of the padded tuples
        of rho(a') and h is the key.
        """
        rho = self.rho_index((padded.index(1) - 1) % self.size)
        return itemgetter(*rho.padded)(padded)


class EdgePlan(NamedTuple):
    """Per-edge completion data: an involution on the rho(C_i)-orbits of the
    carrier plus a representative element for each orbit.

    Orbit ``(j, c)`` (copy j, left coset c of C_i) has index
    ``(j-1)*m_i + c``; ``partner[o]`` is the paired orbit (``o`` itself when
    fixed) and ``reps[o]`` the element index of the chosen representative,
    which must lie in coset ``c``.
    """

    scheme: str
    partner: tuple[int, ...]
    reps: tuple[int, ...]

    def pairs(self) -> tuple[tuple[int, int], ...]:
        return tuple((o, p) for o, p in enumerate(self.partner) if o < p)


class CompletionStrategy(NamedTuple):
    t: int
    plans: tuple[EdgePlan, ...]
    seed: int
    scheme: str

    def descriptor(self) -> dict:
        return {
            "t": self.t,
            "seed": self.seed,
            "scheme": self.scheme,
            "edges": [
                {"scheme": p.scheme,
                 "paired_orbits": [list(pr) for pr in p.pairs()],
                 "orbit_representatives": list(p.reps)}
                for p in self.plans
            ],
        }


class CompletionCandidate(NamedTuple):
    carrier: Carrier
    betas: tuple[Permutation, ...]
    strategy: CompletionStrategy

    def group_generators(self) -> tuple[Permutation, ...]:
        return self.carrier.rho_generators + self.betas


class CompletionReport(NamedTuple):
    """V1-V4 of a candidate.  ``v3`` is derived from V1: True when V1 holds
    on every edge, None when it fails somewhere.  ``order_g`` is None until
    the coset graph of an accepted candidate is built."""

    v1: tuple[bool, ...]
    v2: tuple[bool, ...]
    v3: bool | None
    v4: bool
    order_g: int | None
    order_a: int
    accepted: bool

    def as_dict(self) -> dict:
        return {"V1": list(self.v1), "V2": list(self.v2), "V3": self.v3,
                "V4": self.v4, "order_G": self.order_g,
                "order_A": self.order_a, "accepted": self.accepted}


class AttemptRecord(NamedTuple):
    t: int
    stage: str              # "edge" or "combo"
    scheme: str
    outcome: str
    edge: int | None = None

    def describe(self) -> str:
        where = f"edge {self.edge}" if self.edge is not None else "combined"
        return f"t={self.t} {where} [{self.scheme}]: {self.outcome}"


class SearchConfig(NamedTuple):
    seed: int = 0
    carrier_cap: int = DEFAULT_CARRIER_CAP
    max_copies: int = 4
    combo_attempts: int = 256


def build_involution(carrier: Carrier, i: int, plan: EdgePlan) -> Permutation:
    """The edge involution determined by an orbit pairing and representatives.

    On an orbit with representative a (fixed by the pairing) the involution
    sends (a*c, j) to (a*phi_i(c), j); on a paired orbit pair it crosses to
    the partner's representative.  It is an involution because the pairing
    is one, each representative lies in its orbit's coset, and phi_i^2 is
    the identity on C_i (``validate_star``).  The same facts, with phi_i an
    automorphism of C_i, give the conjugation contract (see the module
    docstring); ``verify_completion`` checks it on the accepted candidate.
    """
    star = carrier.star
    edge = star.edge(i)
    m = edge.coset_index
    expected_orbits = m * carrier.t
    if len(plan.partner) != expected_orbits or len(plan.reps) != expected_orbits:
        raise InputError(f"plan shape mismatch for edge {i}")
    for o, p in enumerate(plan.partner):
        if plan.partner[p] != o:
            raise InputError("orbit pairing is not an involution")

    images = [0] * carrier.degree
    members = edge.subgroup_indices
    twisted = [edge.twist_images[c] for c in members]
    rep_times = {r: star.left_row(r) for r in set(plan.reps)}   # c -> rep * c
    for o, p in enumerate(plan.partner):
        rep = plan.reps[o]
        if star.left_coset_point(i, rep) != edge.left_coset_points[o % m]:
            raise InputError(f"representative of orbit {o} lies in the wrong coset")
        src_row = rep_times[rep]
        dst_row = rep_times[plan.reps[p]]
        src_base = carrier.point(0, o // m + 1) - 1
        dst_base = carrier.point(0, p // m + 1)
        for c, tc in zip(members, twisted):
            images[src_base + src_row[c]] = dst_base + dst_row[tc]
    return Permutation(images)


def _conjugate_index(carrier: Carrier, beta: Permutation, x: int) -> int | None:
    """The index of beta * rho(x) * beta, or None outside rho(A); for an
    involution beta this is the conjugate beta^-1 * rho(x) * beta."""
    return carrier.membership_index(beta * carrier.rho_index(x) * beta)


def _edge_keys(carrier: Carrier, i: int, beta: Permutation) -> list:
    """The coset keys of edge i's slot elements ``beta_i * rho(a)``, in
    transversal order: they depend on beta_i alone.  The first transversal
    element is the identity, so the first slot element is beta_i."""
    key, rho = carrier.coset_key, carrier.rho_index
    return [key(beta.padded)] + [key((beta * rho(a)).padded) for a in
                                 carrier.star.edge(i).right_transversal[1:]]


def _edge_verdict(keys: list, degree: int) -> tuple[bool, bool]:
    """(V1, V2) of an edge, read off its slot keys (see the module
    docstring): V1 when they are pairwise distinct, V2 when the first,
    beta_i's, is not the key of rho(A)."""
    return len(set(keys)) == len(keys), keys[0] != _identity_images(degree)


def verify_completion(candidate: CompletionCandidate) -> CompletionReport:
    """Compute V1-V4 of a candidate; ``order_g`` stays None.

    Each beta is first checked to be an involution, then to satisfy the
    conjugation contract on the generators of C_i, which is exact (see the
    module docstring); an error names the first edge that fails.  The
    search relies on the contract and checks it nowhere else.  V1, V2 and
    V4 are then read off the slot keys.  V3 is derived, not computed: it
    holds when V1 holds on every edge, and is None when V1 has failed.
    """
    carrier = candidate.carrier
    for i, beta in enumerate(candidate.betas, start=1):
        if not (beta * beta).is_identity():
            raise ValidationError("beta involution", f"edge {i}")
        edge = carrier.star.edge(i)
        if any(_conjugate_index(carrier, beta, c) != edge.twist_images[c]
               for c in edge.subgroup_generators):
            raise ValidationError("conjugation contract", f"edge {i}")
    keys = [_edge_keys(carrier, i, beta)
            for i, beta in enumerate(candidate.betas, start=1)]
    v1, v2 = zip(*(_edge_verdict(k, carrier.degree) for k in keys))
    v3 = True if all(v1) else None
    v4 = len(set().union(*keys)) == len(carrier.star.slots)
    accepted = all(v1) and all(v2) and v4
    return CompletionReport(v1, v2, v3, v4, None, carrier.star.order, accepted)


# ---------------------------------------------------------------------------
# the search
# ---------------------------------------------------------------------------


def _involutions(count: int):
    """All involutions of {0..count-1}, as partner tuples, in a fixed order:
    by number of moved points, then lexicographically."""
    seen = [partner for partner in itertools.permutations(range(count))
            if all(partner[p] == o for o, p in enumerate(partner))]
    seen.sort(key=lambda partner: (sum(1 for o, p in enumerate(partner) if o != p),
                                   partner))
    return seen


def _default_partner(orbits: int, twist_identity: bool) -> tuple[int, ...] | None:
    """Identity pairing for a nontrivial twist, otherwise a fixed-point-free
    pairing of consecutive orbits (None when the orbit count is odd)."""
    if not twist_identity:
        return tuple(range(orbits))
    if orbits % 2:
        return None
    partner = list(range(orbits))
    for o in range(0, orbits, 2):
        partner[o], partner[o + 1] = o + 1, o
    return tuple(partner)


def _cross_copy_partner(orbits: int, m: int) -> tuple[int, ...] | None:
    """Pair the identity coset of copy 1 with the identity coset of copy 2,
    fixing every other orbit."""
    if orbits < 2 * m:
        return None
    partner = list(range(orbits))
    partner[0], partner[m] = m, 0
    return tuple(partner)


def _edge_plans(star: AmalgamStar, i: int, t: int, cfg: SearchConfig,
                randomized: bool):
    """Deterministic per-edge plan sequence.

    The deterministic phase offers the default pairing, the cross-copy
    pairing (which provably satisfies V1 and V2 whenever t >= 2) and, for
    small orbit counts, every involution with minimal representatives.  The
    randomized phase reuses those pairings with seeded random transversals
    and adds seeded random pairings for large orbit counts.
    """
    edge = star.edge(i)
    m = edge.coset_index
    orbits = m * t
    minimal = tuple(edge.left_transversal[o % m] for o in range(orbits))

    partners: list[tuple[str, tuple[int, ...]]] = []

    def push(scheme, partner):
        if partner is not None and all(partner != p for _, p in partners):
            partners.append((scheme, partner))

    push("default", _default_partner(orbits, edge.twist == IDENTITY_TWIST))
    if t >= 2:
        push("cross-copy", _cross_copy_partner(orbits, m))
    if orbits <= 6:
        for partner in _involutions(orbits):
            push("enumerated", partner)

    if not randomized:
        plans = [EdgePlan(scheme, partner, minimal) for scheme, partner in partners]
        return plans[:_PER_EDGE_CANDIDATES]

    plans = []
    rng = random.Random(cfg.seed * 1_000_003 + t * 1009 + i)
    coset_members: list[list[int]] = [[] for _ in range(m)]
    point_to_coset = {p: c for c, p in enumerate(edge.left_coset_points)}
    for idx in range(star.order):
        coset_members[point_to_coset[star.left_coset_point(i, idx)]].append(idx)
    for round_no in range(1, _RANDOM_ROUNDS + 1):
        if not partners:
            break
        reps = tuple(rng.choice(coset_members[o % m]) for o in range(orbits))
        base = partners[round_no % len(partners)]
        plans.append(EdgePlan(f"{base[0]}/seeded-reps-{round_no}", base[1], reps))
        if orbits > 6:
            moved = list(range(orbits))
            rng.shuffle(moved)
            partner = list(range(orbits))
            for a, b in zip(moved[0::2], moved[1::2]):
                partner[a], partner[b] = b, a
            plans.append(EdgePlan(f"random-pairing-{round_no}", tuple(partner),
                                  minimal))
    return plans[:_PER_EDGE_CANDIDATES]


def find_completion(star: AmalgamStar,
                    config: SearchConfig = SearchConfig()
                    ) -> tuple[CompletionCandidate, CompletionReport]:
    """Search for an accepted completion.

    Copies start at 1 unless some identity-twist edge cannot be paired there
    (a whole-group edge, or an odd orbit count).  At each copy count each
    built involution is keyed once, and V2 and V1 are read off its keys
    (the conjugation contract they rest on holds by construction and is
    not checked here) to build per-edge shortlists; a combination of them
    is then decided by V4 alone.  A first pass over all copy counts uses
    only deterministic plans (these produce small, structured completions
    when they succeed); seeded random transversals and pairings are a
    second pass.  The first combination that passes V4 in this fixed order
    is returned with its ``verify_completion`` report, the one check of the
    contract; exhausting the caps
    raises CompletionSearchError carrying the complete attempt log.
    """
    attempts: list[AttemptRecord] = []
    t_start = 1
    for edge in star.edges:
        if edge.twist == IDENTITY_TWIST and (edge.coset_index % 2
                                             or edge.coset_index == 1):
            t_start = 2
            break

    carriers: dict[int, Carrier] = {}
    for randomized in (False, True):
        t = t_start
        while t <= config.max_copies and t * star.order <= config.carrier_cap:
            if t not in carriers:
                carriers[t] = Carrier(star, t, config.carrier_cap)
            carrier = carriers[t]
            phase = "randomized" if randomized else "deterministic"
            shortlists: list[list[tuple[EdgePlan, Permutation, list]]] = []
            viable = True
            for i in range(1, star.k + 1):
                shortlist = []
                for plan in _edge_plans(star, i, t, config, randomized):
                    try:
                        beta = build_involution(carrier, i, plan)
                    except InputError as exc:
                        attempts.append(AttemptRecord(t, "edge", plan.scheme,
                                                      f"build failed: {exc}", i))
                        continue
                    keys = _edge_keys(carrier, i, beta)
                    v1, v2 = _edge_verdict(keys, carrier.degree)
                    if not v2:
                        attempts.append(AttemptRecord(t, "edge", plan.scheme,
                                                      "V2 failed", i))
                        continue
                    if not v1:
                        attempts.append(AttemptRecord(t, "edge", plan.scheme,
                                                      "V1 failed", i))
                        continue
                    shortlist.append((plan, beta, keys))
                if not shortlist:
                    attempts.append(AttemptRecord(t, "edge", phase,
                                                  "no plan passed V1+V2", i))
                    viable = False
                    break
                shortlists.append(shortlist)

            if viable:
                combos = 0
                for chosen in itertools.product(*shortlists):
                    combos += 1
                    if combos > config.combo_attempts:
                        attempts.append(AttemptRecord(t, "combo", phase,
                                                      "combo attempt cap reached"))
                        break
                    plans, betas, keys = zip(*chosen)
                    scheme = "+".join(p.scheme for p in plans)
                    strategy = CompletionStrategy(t, plans, config.seed, scheme)
                    candidate = CompletionCandidate(carrier, betas, strategy)
                    if len(set().union(*keys)) == len(star.slots):    # V4
                        return candidate, verify_completion(candidate)
                    attempts.append(AttemptRecord(t, "combo", scheme,
                                                  "V4 failed"))
            t += 1

    if (config.max_copies + 1) * star.order > config.carrier_cap:
        attempts.append(AttemptRecord(config.max_copies, "combo", "carrier",
                                      f"carrier cap {config.carrier_cap} reached"))
    raise CompletionSearchError(attempts)
