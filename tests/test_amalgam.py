import dataclasses
import itertools

import pytest

from graphrestrict import amalgam
from graphrestrict.amalgam import (EdgeElement, StarElement, build_star,
                                   local_model, phi, slot_action,
                                   star_multiply, validate_star)
from graphrestrict.classify import analyze_local_group
from graphrestrict.errors import (CapacityError, InputError,
                                  TheoryViolationError, ValidationError)
from graphrestrict.perm import Permutation, PermutationGroup, parse_permutation

from conftest import group


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


class TestBuildStar:
    def test_l0_sizes(self, star0):
        assert star0.order == 8
        assert [e.subgroup_order for e in star0.edges] == [8, 4]
        assert [e.coset_index for e in star0.edges] == [1, 2]

    def test_l1_sizes(self, star1):
        assert star1.order == 54
        assert [e.subgroup_order for e in star1.edges] == [27, 18]

    def test_order_identity(self, star0, star1):
        for star in (star0, star1):
            base = star.local_group.order()
            ratio = star.anchor_stabiliser_order
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
        assert star0.elements[0].is_identity()

    def test_enumeration_off_identity_is_a_theory_violation(self, l0,
                                                            monkeypatch):
        # index 0 must be the identity, also under python -O: list every
        # group's elements in reverse so the identity comes last
        analysis = analyze_local_group(l0)
        real_elements = PermutationGroup.elements
        monkeypatch.setattr(PermutationGroup, "elements",
                            lambda self, *args: real_elements(self, *args)[::-1])
        with pytest.raises(TheoryViolationError, match="identity"):
            build_star(analysis, 2)

    def test_generators_generate(self, star0):
        seen = {star0.identity}
        frontier = [star0.identity]
        gens = star0.generators()
        while frontier:
            nxt = []
            for x in frontier:
                for g in gens:
                    y = x * g
                    if y not in seen:
                        seen.add(y)
                        nxt.append(y)
            frontier = nxt
        assert len(seen) == star0.order


class TestPhi:
    def test_full_reversal(self, star0):
        elem = StarElement(s(star0), (ident(star0), ident(star0)))
        out = phi(star0, 1, elem)
        assert out == StarElement(ident(star0), (ident(star0), s(star0)))

    def test_tail_reversal(self, star0):
        elem = StarElement(ident(star0), (s(star0), ident(star0)))
        out = phi(star0, 2, elem)
        assert out == StarElement(ident(star0), (ident(star0), s(star0)))

    def test_identity_fixed(self, star0):
        assert phi(star0, 1, star0.identity) == star0.identity

    def test_membership_enforced(self, star1):
        outside = StarElement(parse_permutation("(1 2 3)(4 5)", 5),
                              (ident(star1),) * 2)
        with pytest.raises(InputError):
            phi(star1, 1, outside)  # head moves the anchor point 4

    def test_identity_twist_on_extra_edges(self):
        g = group(4, "(1 2)")
        star = build_star(analyze_local_group(g), 2)
        assert star.k == 3
        edge3 = star.edge(3)
        assert edge3.twist.is_identity
        for idx in edge3.subgroup_indices:
            assert phi(star, 3, star.elements[idx]) == star.elements[idx]


class TestStarMultiply:
    def test_a_side_identity(self, star0):
        u = star0.elements[5]
        assert star_multiply(star0, "A", u, star0.identity) == u

    def test_b1_example(self, star0):
        e, t = ident(star0), s(star0)
        u = EdgeElement(1, StarElement(t, (e, t)), 1)
        v = EdgeElement(1, StarElement(t, (e, e)), 0)
        out = star_multiply(star0, "B1", u, v)
        assert out.base == StarElement(t, (e, e))
        assert out.flip == 1

    def test_flip_squares_to_identity(self, star0):
        for i in (1, 2):
            b = EdgeElement(i, star0.identity, 1)
            sq = star_multiply(star0, f"B{i}", b, b)
            assert sq.base.is_identity() and sq.flip == 0

    def test_identity_twist_direct_product(self):
        g = group(4, "(1 2)")
        star = build_star(analyze_local_group(g), 2)
        c = star.elements[star.edge(3).subgroup_indices[1]]
        d = star.elements[star.edge(3).subgroup_indices[2]]
        out = star_multiply(star, "B3",
                            EdgeElement(3, c, 1), EdgeElement(3, d, 1))
        assert out.base == c * d and out.flip == 0

    def test_conjugation_realises_twist(self, star0):
        for i in (1, 2):
            flip = EdgeElement(i, star0.identity, 1)
            for idx in star0.edge(i).subgroup_indices:
                c = EdgeElement(i, star0.elements[idx], 0)
                out = star_multiply(star0, f"B{i}",
                                    star_multiply(star0, f"B{i}", flip, c), flip)
                assert out.flip == 0
                assert out.base == phi(star0, i, star0.elements[idx])

    def test_membership_errors(self, star0):
        with pytest.raises(InputError):
            star_multiply(star0, "B2",
                          EdgeElement(2, StarElement(s(star0),
                                      (ident(star0), ident(star0))), 0),
                          EdgeElement(2, star0.identity, 0))


class TestValidateStar:
    def test_l0_core_size(self, star0):
        assert validate_star(star0).core_size == 4

    def test_l1_core_size(self, star1):
        assert validate_star(star1).core_size == 9

    def test_twist_involution_checked_everywhere(self, star0):
        tw = star0.edge(1).twist
        for idx in star0.edge(1).subgroup_indices:
            c = star0.elements[idx]
            assert tw.apply(tw.apply(c)) == c

    def test_reversals_generate_transitive_position_group(self, star0):
        m = star0.n + 1
        full = Permutation(tuple(range(m, 0, -1)))
        tail = Permutation((1,) + tuple(range(m, 1, -1)))
        from graphrestrict.perm import PermutationGroup
        pos = PermutationGroup(m, (full, tail))
        assert len(pos.orbit(1)) == m


class TestLocalModel:
    def test_l0_model(self, star0):
        model = local_model(star0)
        assert model.size == 3
        by_edge = {}
        for (edge, _), label in zip(model.slots, model.labels):
            by_edge.setdefault(edge, set()).add(label)
        assert by_edge == {1: {3}, 2: {1, 2}}

    def test_l0_kernel(self, star0):
        assert local_model(star0).kernel_size == 4

    def test_l1_model(self, star1):
        model = local_model(star1)
        assert model.size == 5
        assert model.kernel_size == 9
        by_edge = {}
        for (edge, _), label in zip(model.slots, model.labels):
            by_edge.setdefault(edge, set()).add(label)
        assert by_edge == {1: {4, 5}, 2: {1, 2, 3}}

    def test_head_acts_as_local_group(self, star0):
        model = local_model(star0)
        elem = StarElement(s(star0), (ident(star0), ident(star0)))
        act = slot_action(star0, model, elem)
        # transported through the labels, the action must be the head itself
        for j, label in enumerate(model.labels, start=1):
            assert model.labels[act.apply(j) - 1] == s(star0).apply(label)

    def test_whole_group_factors_through_head(self, star1):
        model = local_model(star1)
        for elem in star1.elements:
            act = slot_action(star1, model, elem)
            for j, label in enumerate(model.labels, start=1):
                assert model.labels[act.apply(j) - 1] == elem.head.apply(label)


# L0 at n=2..4, L1 at n=2, and a k=3 star with an identity twist on edge 3
ORACLE_STARS = {"L0-n2": ((3, "(1 2)"), 2), "L0-n3": ((3, "(1 2)"), 3),
                "L0-n4": ((3, "(1 2)"), 4), "L1-n2": ((5, "(1 2 3)(4 5)"), 2),
                "k3-n2": ((4, "(1 2)"), 2)}


@pytest.fixture(scope="module", params=sorted(ORACLE_STARS))
def oracle_star(request):
    spec, n = ORACLE_STARS[request.param]
    return build_star(analyze_local_group(group(*spec)), n)


class TestIndexEncoding:
    """The index encoding against the decoded StarElement algebra."""

    def test_enumeration_order(self, oracle_star):
        star = oracle_star
        heads = star.local_group.elements()
        tails = star.analysis.anchor_stabiliser.elements()
        expected = tuple(StarElement(h, t) for h in heads
                         for t in itertools.product(tails, repeat=star.n))
        assert star.elements == expected
        assert all(star.index_of(e) == x for x, e in enumerate(expected))

    def test_products_every_pair(self, oracle_star):
        star = oracle_star
        elems = star.elements
        for y in range(star.order):
            right = star.right_row(y)
            left = star.left_row(y)
            for x in range(star.order):
                assert elems[right[x]] == elems[x] * elems[y]
                assert elems[left[x]] == elems[y] * elems[x]
                assert star.mul(x, y) == right[x]

    def test_inverses(self, oracle_star):
        star = oracle_star
        for x, e in enumerate(star.elements):
            assert star.elements[star.inverse[x]] == e.inverse()

    def test_twist_maps(self, oracle_star):
        star = oracle_star
        for edge in star.edges:
            members = set(edge.subgroup_indices)
            for x, e in enumerate(star.elements):
                if x in members:
                    assert edge.twist_images[x] == \
                        star.index_of(edge.twist.apply(e))
                else:
                    assert edge.twist_images[x] == -1

    def test_generators(self, oracle_star):
        star = oracle_star
        assert all(star.elements[x] == g for x, g in
                   zip(star.generator_indices, star.generators()))

    def test_non_member_has_no_index(self, star0):
        outside = StarElement(parse_permutation("(1 2 3)", 3),
                              (ident(star0), ident(star0)))
        assert star0.index_of(outside) is None
        short = StarElement(ident(star0), (ident(star0),))
        assert star0.index_of(short) is None

    def test_corrupted_twist_fails_multiplicativity(self):
        star = build_star(analyze_local_group(group(4, "(1 2)")), 2)
        edge = star.edge(3)
        assert edge.twist.is_identity
        # swapping two non-identity images keeps the map an involution on
        # C_3 but breaks multiplicativity
        x, y = edge.subgroup_indices[1], edge.subgroup_indices[2]
        images = list(edge.twist_images)
        images[x], images[y] = y, x
        star.edges = star.edges[:2] + (
            dataclasses.replace(edge, twist_images=tuple(images)),)
        with pytest.raises(ValidationError) as err:
            validate_star(star)
        assert err.value.check == "twist multiplicative"
