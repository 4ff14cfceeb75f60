import copy
import itertools
import random

import pytest

from graphrestrict.amalgam import (FULL_REVERSAL, IDENTITY_TWIST,
                                   TAIL_REVERSAL, build_star, local_model,
                                   validate_star)
from graphrestrict.classify import analyze_local_group
from graphrestrict.errors import CapacityError, InputError, ValidationError
from graphrestrict.perm import Permutation, PermutationGroup, parse_permutation

from graphrestrict.cosetgraph import construct_pair

from conftest import (ORACLE_STARS, DecodedStar, encode, group, index_inverses,
                      index_mul, slot_kernel_by_loop, star_core_by_loop,
                      twist_images_by_element, twist_multiplicative_by_loop)


@pytest.fixture
def star0(l0):
    return build_star(analyze_local_group(l0), 2)


@pytest.fixture
def star1(l1):
    return build_star(analyze_local_group(l1), 2)


def s(star):
    """The transposition (1 2) at the star's local degree."""
    return parse_permutation("(1 2)", star.local_group.degree)


def ident(star):
    return star.local_group.identity()


def edge_mul(star, i, u, v):
    """The product in B_i of (element index, flip bit) pairs, read from the
    star's twist map: (c, e)(c', e') = (c * phi_i^e(c'), e xor e')."""
    (c, e), (d, f) = u, v
    return index_mul(star, c, star.edge(i).twist_images[d] if e else d), e ^ f


def with_twist_images(star, i, images):
    """A shallow copy of the star whose edge i has the given twist map."""
    edge = star.edge(i)
    broken = copy.copy(star)
    broken.edges = (star.edges[:i - 1]
                    + (edge._replace(twist_images=tuple(images)),)
                    + star.edges[i:])
    return broken


def slot_action(dec, star, labels, x):
    """Slot j -> the slot of its right coset times element index x, keyed
    by the coset's head image of r_i, read through the decoded algebra."""
    slot_of = {(i, label): j
               for j, ((i, _), label) in enumerate(zip(star.slots, labels))}
    return [slot_of[(i, dec.elements[index_mul(star, rep, x)][0].apply(
                star.edge(i).orbit_rep))]
            for i, rep in star.slots]


class TestBuildStar:
    def test_l0_sizes(self, star0):
        assert star0.order == 8
        assert [len(e.subgroup_indices) for e in star0.edges] == [8, 4]
        assert [e.coset_index for e in star0.edges] == [1, 2]

    def test_l1_sizes(self, star1):
        assert star1.order == 54
        assert [len(e.subgroup_indices) for e in star1.edges] == [27, 18]

    def test_order_identity(self, star0, star1):
        for star in (star0, star1):
            base = star.local_group.order()
            ratio = star.analysis.stabiliser_orders[0]
            assert star.order == base * ratio ** star.n

    def test_restrictive_rejected(self, l2):
        with pytest.raises(InputError):
            build_star(analyze_local_group(l2), 2)

    def test_small_n_rejected(self, l0):
        with pytest.raises(InputError):
            build_star(analyze_local_group(l0), 1)

    def test_cap(self, l0):
        with pytest.raises(CapacityError):
            build_star(analyze_local_group(l0), 2, carrier_cap=4)

    def test_enumeration_starts_at_identity(self, star0):
        head, tail = DecodedStar(star0).elements[0]
        assert head.is_identity() and all(t.is_identity() for t in tail)
        assert star0.digits(0) == (0, [0, 0])

    def test_generators_generate(self, star0):
        dec = DecodedStar(star0)
        gens = [dec.elements[x] for x in star0.generator_indices]
        seen = {dec.elements[0]}
        frontier = [dec.elements[0]]
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = dec.mul(x, g)
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(seen) == star0.order


class TestPhi:
    """The twist phi_i as the index map ``EdgeData.twist_images``."""

    def test_full_reversal(self, star0):
        dec = DecodedStar(star0)
        e, t = ident(star0), s(star0)
        edge = star0.edge(1)
        assert edge.twist == FULL_REVERSAL
        assert edge.twist_images[dec.index[(t, (e, e))]] == \
            dec.index[(e, (e, t))]

    def test_tail_reversal(self, star0):
        dec = DecodedStar(star0)
        e, t = ident(star0), s(star0)
        edge = star0.edge(2)
        assert edge.twist == TAIL_REVERSAL
        assert edge.twist_images[dec.index[(e, (t, e))]] == \
            dec.index[(e, (e, t))]

    def test_identity_fixed(self, star0):
        assert all(edge.twist_images[0] == 0 for edge in star0.edges)

    def test_membership_enforced(self, star1):
        dec = DecodedStar(star1)
        outside = (parse_permutation("(1 2 3)(4 5)", 5), (ident(star1),) * 2)
        # the head moves the anchor point 4, so phi_1 is undefined there
        assert star1.edge(1).twist_images[dec.index[outside]] == -1

    def test_identity_twist_on_extra_edges(self):
        g = group(4, "(1 2)")
        star = build_star(analyze_local_group(g), 2)
        assert star.k == 3
        edge3 = star.edge(3)
        assert edge3.twist == IDENTITY_TWIST
        for idx in edge3.subgroup_indices:
            assert edge3.twist_images[idx] == idx


class TestStarMultiply:
    """Products in A and in the edge groups B_i, on element indices."""

    def test_a_side_identity(self, star0):
        assert star0.right_row(0)[5] == 5 == star0.left_row(0)[5]

    def test_b1_example(self, star0):
        dec = DecodedStar(star0)
        e, t = ident(star0), s(star0)
        u = (dec.index[(t, (e, t))], 1)
        v = (dec.index[(t, (e, e))], 0)
        assert edge_mul(star0, 1, u, v) == (dec.index[(t, (e, e))], 1)

    def test_flip_squares_to_identity(self, star0):
        for i in (1, 2):
            assert edge_mul(star0, i, (0, 1), (0, 1)) == (0, 0)

    def test_identity_twist_direct_product(self):
        g = group(4, "(1 2)")
        star = build_star(analyze_local_group(g), 2)
        dec = DecodedStar(star)
        c, d = star.edge(3).subgroup_indices[1:3]
        cd = index_mul(star, c, d)
        assert edge_mul(star, 3, (c, 1), (d, 1)) == (cd, 0)
        assert dec.elements[cd] == dec.mul(dec.elements[c], dec.elements[d])

    def test_conjugation_realises_twist(self, star0):
        dec = DecodedStar(star0)
        for i in (1, 2):
            flip = (0, 1)
            for c in star0.edge(i).subgroup_indices:
                out = edge_mul(star0, i, edge_mul(star0, i, flip, (c, 0)), flip)
                assert out == (dec.index[dec.twist(i, dec.elements[c])], 0)

    def test_membership_errors(self, star0):
        # (1 2) in the head moves r_2 = 1: no twist image, so no element of
        # B_2 has this base
        dec = DecodedStar(star0)
        base = dec.index[(s(star0), (ident(star0), ident(star0)))]
        assert star0.edge(2).twist_images[base] == -1


class TestValidateStar:
    def test_l0_core_size(self, star0):
        assert validate_star(star0) is None
        assert len(star_core_by_loop(star0)) == 2 ** 2 == 4

    def test_l1_core_size(self, star1):
        assert validate_star(star1) is None
        assert len(star_core_by_loop(star1)) == 3 ** 2 == 9

    def test_twist_involution_checked_everywhere(self, star0):
        dec = DecodedStar(star0)
        tw = star0.edge(1).twist_images
        for idx in star0.edge(1).subgroup_indices:
            c = dec.elements[idx]
            assert dec.twist(1, dec.twist(1, c)) == c
            assert tw[tw[idx]] == idx

    @pytest.mark.parametrize("n", range(2, 41))
    def test_reversals_generate_transitive_position_group(self, n):
        # what forces the core of a completion with V1 on every edge to be
        # trivial: the two reversals act transitively on the n+1 positions
        m = n + 1
        full = Permutation(tuple(range(m, 0, -1)))
        tail = Permutation((1,) + tuple(range(m, 1, -1)))
        pos = PermutationGroup(m, (full, tail))
        assert len(pos.orbit(1)) == m

    def test_core_matches_loop(self, oracle_star):
        core = star_core_by_loop(oracle_star)
        assert core == list(range(oracle_star.tail_size))
        s = oracle_star.analysis.stabiliser_orders[0]
        assert len(core) == s ** oracle_star.n


class TestLocalModel:
    def test_l0_model(self, star0):
        labels = local_model(star0)
        assert len(labels) == len(star0.slots) == 3
        by_edge = {}
        for (edge, _), label in zip(star0.slots, labels):
            by_edge.setdefault(edge, set()).add(label)
        assert by_edge == {1: {3}, 2: {1, 2}}

    def test_l0_kernel(self, l0):
        assert construct_pair(l0, 2).witness.kernel_order == 4

    def test_l1_model(self, star1, l1):
        labels = local_model(star1)
        assert len(labels) == len(star1.slots) == 5
        assert construct_pair(l1, 2).witness.kernel_order == 9
        by_edge = {}
        for (edge, _), label in zip(star1.slots, labels):
            by_edge.setdefault(edge, set()).add(label)
        assert by_edge == {1: {4, 5}, 2: {1, 2, 3}}

    def test_head_acts_as_local_group(self, star0):
        labels = local_model(star0)
        dec = DecodedStar(star0)
        x = dec.index[(s(star0), (ident(star0), ident(star0)))]
        act = slot_action(dec, star0, labels, x)
        # transported through the labels, the action must be the head itself
        for j, label in enumerate(labels):
            assert labels[act[j]] == s(star0).apply(label)

    def test_whole_group_factors_through_head(self, star1):
        labels = local_model(star1)
        dec = DecodedStar(star1)
        for x, (head, _) in enumerate(dec.elements):
            act = slot_action(dec, star1, labels, x)
            for j, label in enumerate(labels):
                assert labels[act[j]] == head.apply(label)


@pytest.fixture(scope="module", params=sorted(ORACLE_STARS))
def oracle_star(request):
    spec, n = ORACLE_STARS[request.param]
    return build_star(analyze_local_group(group(*spec)), n)


class TestLocalModelLabels:
    def test_labels_permute_the_domain(self, oracle_star):
        # local_model does not check it: the labels of edge i are the
        # orbit of r_i, and the r_i represent the orbits once each
        labels = local_model(oracle_star)
        degree = oracle_star.local_group.degree
        assert sorted(labels) == list(range(1, degree + 1))
        assert len(labels) == len(oracle_star.slots)


class TestSlotKernel:
    def test_kernel_is_head_trivial_subgroup(self, oracle_star):
        star = oracle_star
        kernel = slot_kernel_by_loop(star, local_model(star))
        assert kernel == list(range(star.tail_size))
        witness = construct_pair(star.local_group, star.n).witness
        assert witness.kernel_order == len(kernel)


class TestIndexEncoding:
    """The index encoding against the decoded algebra of tests/conftest.py."""

    def test_enumeration_order(self, oracle_star):
        star = oracle_star
        heads = star.local_group.elements()
        tails = star.analysis.anchor_stabiliser.elements()
        expected = tuple((h, t) for h in heads
                         for t in itertools.product(tails, repeat=star.n))
        assert DecodedStar(star).elements == expected
        assert star.order == len(expected)
        for x, (h, t) in enumerate(expected):
            digits = (heads.index(h), [tails.index(u) for u in t])
            assert star.digits(x) == digits
            assert encode(star, *digits) == x

    def test_products_every_pair(self, oracle_star):
        star = oracle_star
        dec = DecodedStar(star)
        elems = dec.elements
        for y in range(star.order):
            right = star.right_row(y)
            left = star.left_row(y)
            for x in range(star.order):
                assert elems[right[x]] == dec.mul(elems[x], elems[y])
                assert elems[left[x]] == dec.mul(elems[y], elems[x])

    def test_inverses(self, oracle_star):
        # the decoded inverses the oracles use, against the index products
        star = oracle_star
        inverse = index_inverses(star)
        for x in range(star.order):
            assert star.right_row(inverse[x])[x] == 0
            assert star.left_row(inverse[x])[x] == 0

    def test_index_zero_is_the_identity(self, oracle_star):
        # build_star does not check it: elements() lists L and S by image
        # tuple, and the identity's is the least; so every edge's first
        # right coset representative is the identity, which slot (i, 0)
        # reads as beta_i itself
        star = oracle_star
        head, tail = DecodedStar(star).elements[0]
        assert head.is_identity() and all(t.is_identity() for t in tail)
        assert star.right_row(0) == star.left_row(0) == list(range(star.order))
        assert all(edge.right_transversal[0] == 0 for edge in star.edges)

    def test_coset_index_is_orbit_length(self, oracle_star):
        # |A : C_i| against the cosets of C_i formed by brute force, the
        # orbit of r_i under the decoded heads, and |A| / |C_i|
        star = oracle_star
        dec = DecodedStar(star)
        for edge in star.edges:
            members = edge.subgroup_indices
            right = {frozenset(map(star.right_row(x).__getitem__, members))
                     for x in range(star.order)}
            left = {frozenset(map(star.left_row(x).__getitem__, members))
                    for x in range(star.order)}
            orbit = {h.apply(edge.orbit_rep) for h, _ in dec.elements}
            assert edge.coset_index == len(right) == len(left) == len(orbit)
            assert star.order == edge.coset_index * len(members)
            assert len(edge.right_transversal) == len(edge.left_transversal) \
                == edge.coset_index

    def test_twist_maps(self, oracle_star):
        star = oracle_star
        dec = DecodedStar(star)
        for edge in star.edges:
            r = edge.orbit_rep
            members = [x for x, (h, _) in enumerate(dec.elements)
                       if h.apply(r) == r]
            assert list(edge.subgroup_indices) == members
            for x, e in enumerate(dec.elements):
                if x in members:
                    assert edge.twist_images[x] == \
                        dec.index[dec.twist(edge.index, e)]
                else:
                    assert edge.twist_images[x] == -1

    def test_twist_rows_match_per_element(self, oracle_star):
        # the row-wise twist maps against decoding and re-encoding each
        # member's digits
        star = oracle_star
        for edge in star.edges:
            assert list(edge.twist_images) == \
                twist_images_by_element(star, edge)

    def test_edge_products(self, oracle_star):
        # every product in every B_i, read from the twist map, against the
        # decoded product (c, e)(c', e') = (c * phi_i^e(c'), e xor e')
        star = oracle_star
        dec = DecodedStar(star)
        for edge in star.edges:
            pairs = [(c, e) for c in edge.subgroup_indices for e in (0, 1)]
            for u in pairs:
                for v in pairs:
                    x, f = edge_mul(star, edge.index, u, v)
                    assert (dec.elements[x], f) == dec.edge_mul(
                        edge.index, (dec.elements[u[0]], u[1]),
                        (dec.elements[v[0]], v[1]))

    def test_generators(self, oracle_star):
        # the local group's generators in the head, then each stabiliser
        # generator in each tail slot
        star = oracle_star
        e = star.local_group.identity()
        n = star.n
        expected = [(g, (e,) * n) for g in star.local_group.generators]
        for slot in range(n):
            for u in star.analysis.anchor_stabiliser.generators:
                expected.append((e, (e,) * slot + (u,) + (e,) * (n - 1 - slot)))
        dec = DecodedStar(star)
        assert [dec.elements[x] for x in star.generator_indices] == expected

    def test_subgroup_generators_generate_the_edge_subgroup(self, oracle_star):
        star = oracle_star
        dec = DecodedStar(star)
        for edge in star.edges:
            gens = [dec.elements[x] for x in edge.subgroup_generators]
            seen = {dec.elements[0]}
            frontier = list(seen)
            while frontier:
                frontier = [y for y in {dec.mul(x, g) for x in frontier
                                        for g in gens} if y not in seen]
                seen.update(frontier)
            assert sorted(dec.index[e] for e in seen) == \
                list(edge.subgroup_indices)

    # The twist tables are coordinate reversals and S's table is L's
    # restricted to S, so the twists are multiplicative by construction
    # and validate_star checks only that each is an involution of C_i; a
    # corrupted twist table is caught by the all-pairs oracle, which these
    # tests hold to its verdicts.

    def test_corrupted_twist_fails_involution(self, oracle_star):
        # one member's image replaced by another member's, or by -1, off
        # C_i: the map is no involution of C_i, and validate_star names
        # the edge
        star = oracle_star
        for edge in star.edges:
            x, y = edge.subgroup_indices[1:3]
            for image in (edge.twist_images[y], -1):
                images = list(edge.twist_images)
                images[x] = image
                with pytest.raises(ValidationError,
                                   match=f"edge {edge.index}$") as err:
                    validate_star(with_twist_images(star, edge.index, images))
                assert err.value.check == "twist involution"

    def test_corrupted_twist_fails_multiplicativity(self):
        star = build_star(analyze_local_group(group(4, "(1 2)")), 2)
        edge = star.edge(3)
        assert edge.twist == IDENTITY_TWIST
        assert twist_multiplicative_by_loop(star) is None
        validate_star(star)
        # swapping two non-identity images keeps the map an involution on
        # C_3 but breaks multiplicativity
        x, y = edge.subgroup_indices[1], edge.subgroup_indices[2]
        images = list(edge.twist_images)
        images[x], images[y] = y, x
        broken = with_twist_images(star, 3, images)
        assert twist_multiplicative_by_loop(broken) == "twist multiplicative"

    @pytest.mark.parametrize("x, y", itertools.combinations((3, 5, 6, 7), 2))
    def test_swapped_non_generator_images_fail_multiplicativity(self, x, y):
        # C_3 is generated by 4, 2 and 1, so this swap leaves every
        # generator's image alone; the all-pairs oracle still sees it
        star = build_star(analyze_local_group(group(4, "(1 2)")), 2)
        assert twist_multiplicative_by_loop(star) is None
        validate_star(star)
        edge = star.edge(3)
        assert {x, y}.isdisjoint(edge.subgroup_generators)
        images = list(edge.twist_images)
        images[x], images[y] = y, x
        broken = with_twist_images(star, 3, images)
        assert twist_multiplicative_by_loop(broken) == "twist multiplicative"

    def test_twist_check_matches_loop(self, oracle_star):
        # relabel two non-identity members of C_i on both sides of the twist
        # (sigma phi sigma stays an involution of C_i) on seeded pairs: the
        # all-pairs loop flags exactly the relabelings that the decoded
        # algebra finds not multiplicative
        star = oracle_star
        assert twist_multiplicative_by_loop(star) is None
        validate_star(star)
        dec = DecodedStar(star)
        rng = random.Random(0)
        outcomes = set()
        for edge in star.edges:
            for _ in range(8):
                x, y = rng.sample(edge.subgroup_indices[1:], 2)
                swap = {x: y, y: x}
                tw = edge.twist_images
                images = list(tw)
                for c in edge.subgroup_indices:
                    d = tw[swap.get(c, c)]
                    images[c] = swap.get(d, d)
                loop = twist_multiplicative_by_loop(
                    with_twist_images(star, edge.index, images))
                decoded = all(
                    images[dec.index[dec.mul(dec.elements[c], dec.elements[d])]]
                    == dec.index[dec.mul(dec.elements[images[c]],
                                         dec.elements[images[d]])]
                    for c in edge.subgroup_indices
                    for d in edge.subgroup_indices)
                assert loop == (None if decoded else "twist multiplicative")
                outcomes.add(loop)
        assert outcomes == {None, "twist multiplicative"}

    @pytest.mark.parametrize("degree,gens", [
        (3, ("(1 2)",)),                    # S = L
        (5, ("(1 2 3)(4 5)",)),             # S of order 3 in L of order 6
        (4, ("(1 2)", "(1 2 3)")),          # S = L, nonabelian
        (6, ("(1 2)(5 6)", "(1 2 3 4)(5 6)")),  # S = A4 in S4
    ])
    def test_tail_table_is_the_products_of_s(self, degree, gens):
        # S's table is L's restricted to S; the products of the anchor
        # stabiliser's elements, formed as permutations, are its oracle
        star = build_star(analyze_local_group(group(degree, *gens)), 2)
        tails = star.analysis.anchor_stabiliser.elements()
        index = {g: t for t, g in enumerate(tails)}
        assert star.tail_base == len(tails)
        assert star._tail_mul == tuple(tuple(index[a * b] for b in tails)
                                       for a in tails)
