import hashlib
import itertools
import random

import pytest

from graphrestrict import completion
from graphrestrict.amalgam import IDENTITY_TWIST, build_star
from graphrestrict.classify import analyze_local_group
from graphrestrict.completion import (Carrier, CompletionCandidate, EdgePlan,
                                      SearchConfig, build_involution,
                                      find_completion, verify_completion)
from graphrestrict.cosetgraph import build_graph, local_action
from graphrestrict.errors import (CapacityError, CompletionSearchError,
                                  InputError, ValidationError)
from graphrestrict.perm import Permutation, StabiliserChain

from conftest import (ORACLE_STARS, DecodedStar, as_tuple,
                      canonical_coset_rep, carrier_core_of_rho,
                      conjugation_map, full_map_contract, full_map_v1, group,
                      rho_check_by_loop, rho_closure, tuple_mul, v4_by_pairs)


@pytest.fixture
def star0(l0):
    return build_star(analyze_local_group(l0), 2)


@pytest.fixture
def star1(l1):
    return build_star(analyze_local_group(l1), 2)


def identity_plan(star, i, t):
    edge = star.edge(i)
    orbits = edge.coset_index * t
    return EdgePlan("identity", tuple(range(orbits)),
                    tuple(edge.left_transversal[o % edge.coset_index]
                          for o in range(orbits)))


def oracle_stars():
    for spec, n in ORACLE_STARS.values():
        yield build_star(analyze_local_group(group(*spec)), n)


def accepted_candidate(g, n=2):
    return find_completion(build_star(analyze_local_group(g), n))[0]


def identity_third_beta(g):
    # an accepted three-edge candidate whose third involution is replaced by
    # the identity
    cand = accepted_candidate(g)
    ident = Permutation.identity(cand.carrier.degree)
    return CompletionCandidate(cand.carrier, cand.betas[:2] + (ident,),
                               cand.strategy)


def normalizing_betas():
    # identity pairings at one copy: the tail swap normalizes rho(A)
    star = build_star(analyze_local_group(group(3, "(1 2)")), 2)
    carrier = Carrier(star, 1)
    plans = (identity_plan(star, 1, 1), identity_plan(star, 2, 1))
    betas = tuple(build_involution(carrier, i, plan)
                  for i, plan in enumerate(plans, start=1))
    return CompletionCandidate(
        carrier, betas, completion.CompletionStrategy(1, plans, 0, "manual"))


CANDIDATES = {
    "l0-accepted": lambda: accepted_candidate(group(3, "(1 2)")),
    "l1-accepted": lambda: accepted_candidate(group(5, "(1 2 3)(4 5)")),
    "identity-beta": lambda: identity_third_beta(group(4, "(1 2)")),
    "normalizing-beta": normalizing_betas,
    "leaking-third-edge": lambda: identity_third_beta(
        group(5, "(1 2)", "(3 4)")),
    "nonabelian-accepted": lambda: accepted_candidate(
        group(4, "(1 2)", "(1 2 3)")),
}


@pytest.fixture(scope="module", params=sorted(CANDIDATES))
def candidate(request):
    return CANDIDATES[request.param]()


class TestCarrier:
    def test_l0_t1(self, star0):
        carrier = Carrier(star0, 1)
        assert carrier.degree == 8
        head_gen = star0.generator_indices[0]
        rho = carrier.rho_index(head_gen)
        cycles = rho.cycles()
        assert len(cycles) == 4 and all(len(c) == 2 for c in cycles)

    def test_l0_t2_two_orbits(self, star0):
        carrier = Carrier(star0, 2)
        assert carrier.degree == 16
        from graphrestrict.perm import PermutationGroup
        g = PermutationGroup(16, carrier.rho_generators)
        assert g.orbit(1) == tuple(range(1, 9))
        assert g.orbit(9) == tuple(range(9, 17))

    def test_l1_size(self, star1):
        assert Carrier(star1, 1).degree == 54

    def test_fixed_point_free(self):
        # the carrier does not check it: rho(x) is right multiplication by
        # x on each copy, which fixes no point when x is not the identity
        for star in oracle_stars():
            for t in (1, 2):
                carrier = Carrier(star, t)
                for ia in range(1, carrier.size):
                    images = carrier.rho_index(ia).images
                    assert all(q != p for p, q in enumerate(images, start=1))

    def test_membership(self, star0):
        carrier = Carrier(star0, 2)
        for ia in range(carrier.size):
            assert carrier.membership_index(carrier.rho_index(ia)) == ia
        swap = Permutation(tuple(range(9, 17)) + tuple(range(1, 9)))
        assert not carrier.in_rho(swap)

    def test_cap(self, star0):
        with pytest.raises(CapacityError):
            Carrier(star0, 2, carrier_cap=10)

    @pytest.mark.parametrize("t", [1, 2])
    def test_closure_matches_chain(self, star0, star1, t):
        # the table-level closure check against Schreier-Sims, on the whole
        # generating set and on every prefix and single generator
        for star in (star0, star1):
            carrier = Carrier(star, t)
            gens = carrier.generator_indices
            subsets = [gens[:j] for j in range(len(gens) + 1)]
            subsets += [(g,) for g in gens]
            for subset in subsets:
                chain = StabiliserChain(carrier.degree,
                                        [carrier.rho_index(g) for g in subset])
                assert rho_closure(carrier, subset) == chain.order()
        # the carrier does not check it: the lifted generators of L and S
        # generate L x S^n
        for star in oracle_stars():
            carrier = Carrier(star, t)
            assert rho_closure(carrier, carrier.generator_indices) == star.order

    def test_closure_detects_broken_homomorphism(self, star0):
        # swap two images of rho(3) away from the basepoint: the images stay
        # a permutation with distinct basepoint images, so only the
        # homomorphism oracle can notice; the carrier trusts its rows,
        # which are rows of A's regular action by construction
        carrier = Carrier(star0, 1)
        assert rho_check_by_loop(carrier) is None
        images = list(carrier.rho_index(3).images)
        images[1], images[2] = images[2], images[1]
        carrier._rho[3] = Permutation(images)
        assert rho_check_by_loop(carrier) == "rho homomorphism"
        assert rho_closure(carrier, carrier.generator_indices) == star0.order

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ORACLE_STARS))
    def test_rho_facts_hold_on_every_row(self, name, t):
        spec, n = ORACLE_STARS[name]
        carrier = Carrier(build_star(analyze_local_group(group(*spec)), n), t)
        assert rho_check_by_loop(carrier) is None

    @pytest.mark.parametrize("t", [1, 2, 3])
    @pytest.mark.parametrize("name", sorted(ORACLE_STARS))
    def test_rho_rows_built_on_request(self, name, t):
        # the memo holds the generators and what was asked for
        spec, n = ORACLE_STARS[name]
        star = build_star(analyze_local_group(group(*spec)), n)
        carrier = Carrier(star, t)
        built = set(star.generator_indices)
        assert set(carrier._rho) == built
        dec = DecodedStar(star)
        requested = random.Random(t).sample(range(star.order), 3)
        for x in requested:
            images = carrier.rho_index(x).images
            assert carrier.rho_index(x) is carrier._rho[x]
            assert images == tuple(
                carrier.point(dec.index[dec.mul(a, dec.elements[x])], j)
                for j in range(1, t + 1) for a in dec.elements)
        assert set(carrier._rho) == built | set(requested)


class TestBuildInvolution:
    def test_fixed_orbit_is_twist(self, star0):
        carrier = Carrier(star0, 1)
        beta = build_involution(carrier, 1, identity_plan(star0, 1, 1))
        dec = DecodedStar(star0)
        for ia, a in enumerate(dec.elements):
            img = beta.apply(carrier.point(ia, 1))
            assert img == carrier.point(dec.index[dec.twist(1, a)], 1)

    def test_conjugation_contract(self, star0):
        carrier = Carrier(star0, 1)
        dec = DecodedStar(star0)
        for i in (1, 2):
            beta = build_involution(carrier, i, identity_plan(star0, i, 1))
            for ci in star0.edge(i).subgroup_indices:
                lhs = beta * carrier.rho_index(ci) * beta
                twisted = dec.twist(i, dec.elements[ci])
                assert lhs == carrier.rho_index(dec.index[twisted])

    def test_paired_orbits(self, star0):
        carrier = Carrier(star0, 1)
        edge = star0.edge(2)
        plan = EdgePlan("swap", (1, 0), tuple(edge.left_transversal))
        beta = build_involution(carrier, 2, plan)
        assert (beta * beta).is_identity()
        dec = DecodedStar(star0)
        rep0, rep1 = (dec.elements[x] for x in edge.left_transversal)
        for ci in edge.subgroup_indices:
            c = dec.elements[ci]
            src = carrier.point(dec.index[dec.mul(rep0, c)], 1)
            dst = carrier.point(dec.index[dec.mul(rep1, dec.twist(2, c))], 1)
            assert beta.apply(src) == dst

    def test_copy_swap_for_whole_group_edge(self):
        # a second fixed point gives an identity-twist edge with C_i = A
        g = group(4, "(1 2)")
        star = build_star(analyze_local_group(g), 2)
        edge = star.edge(3)
        assert edge.twist == IDENTITY_TWIST and edge.coset_index == 1
        carrier = Carrier(star, 2)
        plan = EdgePlan("copy-swap", (1, 0),
                        (edge.left_transversal[0], edge.left_transversal[0]))
        beta = build_involution(carrier, 3, plan)
        half = carrier.size
        for p in range(1, half + 1):
            assert beta.apply(p) == p + half
            assert beta.apply(p + half) == p
        # centralizes rho(A), and lies outside it
        for ia in range(carrier.size):
            rho = carrier.rho_index(ia)
            assert beta * rho == rho * beta
        assert not carrier.in_rho(beta)

    def test_wrong_coset_rep_rejected(self, star0):
        carrier = Carrier(star0, 1)
        edge = star0.edge(2)
        bad = EdgePlan("bad", (0, 1),
                       (edge.left_transversal[1], edge.left_transversal[0]))
        with pytest.raises(InputError):
            build_involution(carrier, 2, bad)

    @pytest.mark.parametrize("t", [1, 2])
    @pytest.mark.parametrize("name", sorted(ORACLE_STARS))
    def test_every_plan_builds_an_involution(self, name, t):
        # build_involution does not check it: the pairing is an involution,
        # each representative lies in its orbit's coset and phi_i squares
        # to the identity, so beta squares to the identity; here on raw
        # image tuples, for every plan of both search phases
        spec, n = ORACLE_STARS[name]
        carrier = Carrier(build_star(analyze_local_group(group(*spec)), n), t)
        identity = tuple(range(carrier.degree))
        betas = [beta for _, beta in built_plans(carrier)]
        assert betas
        for beta in betas:
            assert tuple_mul(as_tuple(beta), as_tuple(beta)) == identity

    def test_non_involution_pairing_rejected(self, star1):
        carrier = Carrier(star1, 1)
        with pytest.raises(InputError):
            build_involution(carrier, 2, EdgePlan(
                "cycle", (1, 2, 0),
                tuple(star1.edge(2).left_transversal)))


class TestVerifyCompletion:
    def test_identity_beta_fails_v2(self):
        g = group(4, "(1 2)")
        star = build_star(analyze_local_group(g), 2)
        candidate, report = find_completion(star)
        assert report.accepted
        ident = Permutation.identity(candidate.carrier.degree)
        betas = candidate.betas[:2] + (ident,)
        broken = CompletionCandidate(candidate.carrier, betas,
                                     candidate.strategy)
        broken_report = verify_completion(broken)
        assert broken_report.v2[2] is False
        assert not broken_report.accepted

    def test_normalizing_beta_fails_v1(self, star0):
        # at one copy, the aligned tail swap normalizes rho(A) on the
        # two-coset edge, so the intersection is too large
        carrier = Carrier(star0, 1)
        beta1 = build_involution(carrier, 1, identity_plan(star0, 1, 1))
        beta2 = build_involution(carrier, 2, identity_plan(star0, 2, 1))
        cand = CompletionCandidate(
            carrier, (beta1, beta2),
            completion.CompletionStrategy(1, (identity_plan(star0, 1, 1),
                                              identity_plan(star0, 2, 1)),
                                          0, "manual"))
        report = verify_completion(cand)
        assert report.v1[1] is False
        assert not report.accepted

    def test_leaking_third_edge_reports_nontrivial_core(self):
        # with three orbits, V1 on the two reversal edges alone does not
        # confine the core: an identity involution on the third edge leaves
        # a diagonal subgroup normal in the completed group.  V1 already
        # rejects the candidate, so V3 is not derived
        g = group(5, "(1 2)", "(3 4)")
        star = build_star(analyze_local_group(g), 2)
        assert star.k == 3
        cand, rep = find_completion(star)
        assert rep.accepted
        ident = Permutation.identity(cand.carrier.degree)
        broken = CompletionCandidate(cand.carrier, cand.betas[:2] + (ident,),
                                     cand.strategy)
        r = verify_completion(broken)
        assert r.v1[0] and r.v1[1] and not r.v1[2]
        assert r.v3 is None
        assert not r.accepted
        assert len(carrier_core_of_rho(broken)) > 1

    def test_accepted_l0(self, star0):
        candidate, report = find_completion(star0)
        witness = local_action(candidate, star0.local_group)
        report = build_graph(candidate, report, witness).report
        assert report.accepted
        assert all(report.v1) and all(report.v2) and report.v3 and report.v4
        assert report.order_a == 8
        assert report.order_g % 8 == 0

    def test_neighbour_coset_counts(self, star0):
        candidate, report = find_completion(star0)
        carrier = candidate.carrier
        for i, beta in enumerate(candidate.betas, start=1):
            edge = star0.edge(i)
            keys = {canonical_coset_rep(carrier,
                                        beta * carrier.rho_index(a)).images
                    for a in edge.right_transversal}
            assert len(keys) == edge.coset_index


class TestV4:
    """V4 on the slot elements' canonical keys; the pairwise membership
    loop in conftest is the oracle."""

    V4_HOLDS = {"l0-accepted": True, "l1-accepted": True,
                "identity-beta": True, "nonabelian-accepted": True,
                "normalizing-beta": False, "leaking-third-edge": False}

    @pytest.mark.parametrize("name", sorted(CANDIDATES))
    def test_matches_pairwise_loop(self, name):
        cand = CANDIDATES[name]()
        assert completion._v4(cand) is v4_by_pairs(cand) is self.V4_HOLDS[name]
        assert verify_completion(cand).v4 is self.V4_HOLDS[name]


class TestConjugationMaps:
    def test_map_is_literal_conjugation(self, candidate):
        # the one-element conjugate that the contract and V1 read agrees
        # with the literal conjugation map on every element of A
        carrier = candidate.carrier
        for beta in candidate.betas:
            single = [completion._conjugate_index(carrier, beta, x)
                      for x in range(carrier.size)]
            assert ([-1 if y is None else y for y in single]
                    == conjugation_map(carrier, beta))

    def test_core_matches_carrier_oracle(self, candidate):
        # V3 is derived: True exactly when V1 holds on every edge, and then
        # the core recomputed on the carrier is trivial
        report = verify_completion(candidate)
        if all(report.v1):
            assert report.v3 is True
            assert carrier_core_of_rho(candidate) == {0}
        else:
            assert report.v3 is None

    def test_leaking_third_edge_core_is_nontrivial(self):
        # the core is confined to C_i on each edge where V1 holds, here the
        # two reversal edges, and V1 failing on the third edge lets a
        # nontrivial part of C_1 & C_2 survive
        cand = CANDIDATES["leaking-third-edge"]()
        star = cand.carrier.star
        core = carrier_core_of_rho(cand)
        assert len(core) > 1
        assert core <= (set(star.edge(1).subgroup_indices)
                        & set(star.edge(2).subgroup_indices))

    def test_swapped_betas_break_the_contract(self, star0):
        cand, _ = find_completion(star0)
        swapped = CompletionCandidate(cand.carrier, cand.betas[::-1],
                                      cand.strategy)
        with pytest.raises(ValidationError) as err:
            verify_completion(swapped)
        assert err.value.check == "conjugation contract"

    def test_non_involution_is_rejected_before_the_contract(self, star0):
        cand, _ = find_completion(star0)
        degree = cand.carrier.degree
        three_cycle = Permutation((2, 3, 1) + tuple(range(4, degree + 1)))
        broken = CompletionCandidate(cand.carrier,
                                     (three_cycle,) + cand.betas[1:],
                                     cand.strategy)
        with pytest.raises(ValidationError) as err:
            verify_completion(broken)
        assert err.value.check == "beta involution"


def counted_verify_completion(monkeypatch):
    """Record each candidate that verify_completion is called on."""
    verified = []

    def counted(candidate):
        verified.append(candidate)
        return verify_completion(candidate)

    monkeypatch.setattr(completion, "verify_completion", counted)
    return verified


class TestFindCompletion:
    @pytest.mark.parametrize("n", [2, 3, 4])
    def test_l0_accepts_small_copies(self, l0, n):
        star = build_star(analyze_local_group(l0), n)
        candidate, report = find_completion(star)
        assert report.accepted
        assert candidate.strategy.t <= 2

    def test_l1_accepts(self, star1):
        candidate, report = find_completion(star1)
        assert report.accepted
        assert report.order_a == 54

    def test_structured_failure_with_zero_attempts(self, star0):
        cfg = SearchConfig(max_copies=0)
        with pytest.raises(CompletionSearchError) as err:
            find_completion(star0, cfg)
        assert err.value.attempts is not None

    def test_exhaustion_report_lists_attempts(self, star0):
        cfg = SearchConfig(max_copies=1)
        # one copy cannot work for this star, so the log must show the
        # failing edge conditions
        with pytest.raises(CompletionSearchError) as err:
            find_completion(star0, cfg)
        text = str(err.value)
        assert "V1 failed" in text

    @pytest.mark.parametrize("spec, n", [((3, "(1 2)"), 2), ((3, "(1 2)"), 3),
                                         ((3, "(1 2)"), 4),
                                         ((5, "(1 2 3)(4 5)"), 2)])
    def test_verify_completion_runs_once_on_the_accepted_candidate(
            self, spec, n, monkeypatch):
        # the shortlists decide each edge, so a combination is decided by
        # V4 and only the accepted one is verified in full
        verified = counted_verify_completion(monkeypatch)
        star = build_star(analyze_local_group(group(*spec)), n)
        candidate, report = find_completion(star)
        assert report.accepted
        assert len(verified) == 1 and verified[0] is candidate

    # sha256 of the exhaustion text of <(1 2)> on d points at n = 2; these
    # searches end in "V4 failed" combinations and the combo attempt cap
    EXHAUSTION_SHA256 = {
        12: "4ccfcefa7e91051e67386d8fe31f3dade4ab1b1bda4eb35cfb96704c15cedc5b",
        16: "acf165433e38429cd9889e5eacc420de63fd6dbc294beb28d17eb9e2ce067d76",
    }

    @pytest.mark.parametrize("d", sorted(EXHAUSTION_SHA256))
    def test_exhaustion_log_unchanged(self, d, monkeypatch):
        verified = counted_verify_completion(monkeypatch)
        star = build_star(analyze_local_group(group(d, "(1 2)")), 2)
        with pytest.raises(CompletionSearchError) as err:
            find_completion(star)
        text = str(err.value)
        assert "V4 failed" in text and "combo attempt cap reached" in text
        assert (hashlib.sha256(text.encode()).hexdigest()
                == self.EXHAUSTION_SHA256[d])
        assert verified == []

    def test_determinism(self, star0):
        c1, r1 = find_completion(star0, SearchConfig(seed=5))
        c2, r2 = find_completion(star0, SearchConfig(seed=5))
        assert c1.strategy == c2.strategy
        assert [b.images for b in c1.betas] == [b.images for b in c2.betas]
        assert r1 == r2

    def test_core_pruning_matches_enumeration(self, star0):
        # independent check of the V3 computation on a small accepted group
        candidate, report = find_completion(star0)
        witness = local_action(candidate, star0.local_group)
        report = build_graph(candidate, report, witness).report
        carrier = candidate.carrier
        gens = candidate.group_generators()
        elements = {Permutation.identity(carrier.degree)}
        frontier = list(elements)
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = x * g
                    if y not in elements:
                        elements.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(elements) == report.order_g
        rho_set = {carrier.rho_index(ia) for ia in range(carrier.size)}
        literal_core = {x for x in rho_set
                        if all(g.inverse() * x * g in rho_set
                               for g in elements)}
        assert literal_core == {Permutation.identity(carrier.degree)}
        assert report.v3 is True


# stars whose edge plans exercise V1 both ways: L0 at n = 2..4, L1 at n = 2,
# and two three-orbit stars, one with a whole-group edge
GENERATOR_CHECK_STARS = {
    "l0-n2": ((3, "(1 2)"), 2),
    "l0-n3": ((3, "(1 2)"), 3),
    "l0-n4": ((3, "(1 2)"), 4),
    "l1-n2": ((5, "(1 2 3)(4 5)"), 2),
    "k3-n2": ((4, "(1 2)"), 2),
    "k3-three-orbits-n2": ((5, "(1 2)", "(3 4)"), 2),
}


def generator_check_star(name):
    spec, n = GENERATOR_CHECK_STARS[name]
    return build_star(analyze_local_group(group(*spec)), n)


def built_plans(carrier):
    """(edge, beta) for every plan of both search phases that builds."""
    star = carrier.star
    for randomized in (False, True):
        for i in range(1, star.k + 1):
            for plan in completion._edge_plans(star, i, carrier.t,
                                               SearchConfig(), randomized):
                try:
                    yield i, build_involution(carrier, i, plan)
                except InputError:
                    continue


class TestGeneratorChecks:
    """V1 and the conjugation contract read a few elements of A; their
    full-map forms in conftest are the oracles."""

    @pytest.mark.parametrize("name", sorted(GENERATOR_CHECK_STARS))
    def test_v1_matches_full_map(self, name):
        star = generator_check_star(name)
        outcomes = set()
        for t in (1, 2, 3):
            carrier = Carrier(star, t)
            for i, beta in built_plans(carrier):
                v1, v2 = completion._edge_check(carrier, i, beta)
                assert v1 == full_map_v1(
                    star, i, conjugation_map(carrier, beta))
                assert v2 == (not carrier.in_rho(beta))
                outcomes.add(v1)
        assert outcomes == {True, False}

    @pytest.mark.parametrize("name", sorted(GENERATOR_CHECK_STARS))
    def test_contract_raised_exactly_when_full_map_fails(self, name):
        # put every involution built for any edge, and seeded random
        # fixed-point-free involutions, in each edge slot of an accepted
        # candidate: the contract error names that edge exactly when the
        # full-map contract fails there
        star = generator_check_star(name)
        cand, _ = find_completion(star)
        carrier = cand.carrier
        betas = [beta for _, beta in built_plans(carrier)]
        rng = random.Random(0)
        for _ in range(4):
            points = list(range(1, carrier.degree + 1))
            rng.shuffle(points)
            images = [0] * carrier.degree
            for p, q in zip(points[0::2], points[1::2]):
                images[p - 1], images[q - 1] = q, p
            betas.append(Permutation(images))
        outcomes = set()
        for i in range(1, star.k + 1):
            for beta in betas:
                full = full_map_contract(
                    star, i, conjugation_map(carrier, beta))
                trial = list(cand.betas)
                trial[i - 1] = beta
                try:
                    verify_completion(CompletionCandidate(
                        carrier, tuple(trial), cand.strategy))
                    raised = False
                except ValidationError as err:
                    assert err.check == "conjugation contract"
                    assert str(err).endswith(f"edge {i}")
                    raised = True
                assert raised == (not full)
                outcomes.add(raised)
        assert outcomes == {True, False}


class TestV3Theorem:
    """V3 is derived from V1: every combination of built involutions that
    satisfies the contract and V1 on every edge has a trivial core, by the
    carrier-level oracle."""

    @pytest.mark.parametrize("name", sorted(GENERATOR_CHECK_STARS))
    def test_v1_everywhere_forces_trivial_core(self, name):
        star = generator_check_star(name)
        checked = 0
        for t in (1, 2, 3):
            carrier = Carrier(star, t)
            per_edge = [[] for _ in range(star.k)]
            for i, beta in built_plans(carrier):
                conj = conjugation_map(carrier, beta)
                if full_map_contract(star, i, conj) and full_map_v1(star, i,
                                                                    conj):
                    per_edge[i - 1].append(beta)
            strategy = completion.CompletionStrategy(t, (), 0, "v3-theorem")
            for betas in itertools.islice(itertools.product(*per_edge), 64):
                cand = CompletionCandidate(carrier, betas, strategy)
                assert carrier_core_of_rho(cand) == {0}
                assert verify_completion(cand).v3 is True
                checked += 1
        assert checked
