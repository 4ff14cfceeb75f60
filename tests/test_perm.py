import functools
import gc
import itertools
import math
import random
import time
import weakref

import pytest

from graphrestrict import perm
from graphrestrict.completion import Carrier
from graphrestrict.cosetgraph import construct_pair
from graphrestrict.errors import CapacityError, InputError, ParseError
from graphrestrict.perm import (Permutation, PermutationGroup,
                                StabiliserChain, parse_permutation)

from conftest import (ReferenceChain, as_tuple, brute_elements,
                      chain_snapshot, from_cycles_by_products, group,
                      product_sift, reference_inverse, reference_is_identity,
                      reference_isomorphic, reference_mul,
                      relations_by_products, semiprimitive_by_elements,
                      skipped_by_walks, tuple_inv, tuple_mul)


def random_permutation(rng, degree):
    images = list(range(1, degree + 1))
    rng.shuffle(images)
    return Permutation(images)


class TestPermutationBasics:
    def test_left_to_right_composition(self):
        f = parse_permutation("(1 2)", 3)
        g = parse_permutation("(2 3)", 3)
        assert (f * g).apply(1) == g.apply(f.apply(1)) == 3

    def test_inverse_and_power(self):
        g = parse_permutation("(1 2 3)(4 5)", 5)
        assert (g * g.inverse()).is_identity()
        assert (g ** 6).is_identity()
        assert g ** -1 == g.inverse()

    def test_parse_image_list(self):
        assert parse_permutation("2 1 3", 3) == parse_permutation("(1 2)", 3)

    def test_parse_identity_cycles(self):
        assert parse_permutation("()", 4).is_identity()

    def test_cycle_string_round_trip(self):
        g = parse_permutation("(1 3 5)(2 4)", 6)
        assert parse_permutation(g.cycle_string(), 6) == g

    def test_rejects_non_permutation(self):
        with pytest.raises(InputError):
            Permutation((1, 1, 3))
        with pytest.raises(ParseError):
            parse_permutation("1 1 3", 3)
        with pytest.raises(ParseError):
            parse_permutation("(1 8)", 3)

    def test_degree_zero_rejected(self):
        with pytest.raises(InputError):
            Permutation(())

    @pytest.mark.parametrize("images,fault", [
        ((1, 1, 3), "point 1 repeated"),
        ((2, 3, 3), "point 3 repeated"),
        ((0, 1, 2), "point 0 out of range"),
        ((1, 2, 4), "point 4 out of range"),
    ])
    def test_bad_image_list_names_first_fault(self, images, fault):
        with pytest.raises(InputError,
                           match=f"^not a permutation of 1..3: {fault}$"):
            Permutation(images)


class TestFromCycles:
    @pytest.mark.parametrize("seed", range(20))
    def test_matches_product_of_cycles(self, seed):
        # cycles may share points: they are applied left to right
        rng = random.Random(seed)
        degree = rng.randint(1, 12)
        cycles = [rng.sample(range(1, degree + 1), rng.randint(0, degree))
                  for _ in range(rng.randint(0, 6))]
        assert Permutation.from_cycles(degree, cycles).images == \
            from_cycles_by_products(degree, cycles)

    def test_overlapping_cycles(self):
        # (1 2) then (2 3): 1 -> 2 -> 3, 2 -> 1, 3 -> 2
        assert Permutation.from_cycles(3, [(1, 2), (2, 3)]).images == (3, 1, 2)
        assert parse_permutation("(1 2)(2 3)", 3).images == (3, 1, 2)

    def test_errors(self):
        with pytest.raises(InputError, match="point 4 out of range 1..3"):
            Permutation.from_cycles(3, [(1, 2), (3, 4)])
        with pytest.raises(InputError, match=r"point 2 repeated in cycle \(1, 2, 3, 2\)"):
            Permutation.from_cycles(3, [(1, 2, 3, 2)])

    def test_large_generator_parses_quickly(self):
        # one generator of 100000 disjoint transpositions at degree 200000
        degree = 200_000
        text = "".join(f"({p} {p + 1})" for p in range(1, degree, 2))
        start = time.perf_counter()
        g = parse_permutation(text, degree)
        assert time.perf_counter() - start < 5.0
        assert g.images[:4] == (2, 1, 4, 3) and g.images[-1] == degree - 1
        assert (g * g).is_identity()


class TestKernelEdgeCases:
    def test_products_match_reference(self):
        rng = random.Random(4)
        for degree in (1, 2, 3, 7, 64, 300):
            for _ in range(10):
                a = random_permutation(rng, degree)
                b = random_permutation(rng, degree)
                assert (a * b).images == reference_mul(a, b).images
                assert (a * b).is_identity() == reference_is_identity(a * b)
                assert a.inverse().images == reference_inverse(a).images

    def test_padded_layout(self):
        # one stored layout: padded[p] is the image of p, padded[0] is 0
        assert perm._identity_images(3) == (0, 1, 2, 3)
        assert Permutation.identity(3).padded == (0, 1, 2, 3)
        assert Permutation.from_cycles(3, [(1, 2)]).padded == (0, 2, 1, 3)
        for x in ((1,), (2, 1), (3, 1, 2), (2, 4, 1, 3)):
            g = Permutation(x)
            assert g.padded == (0, *x)
            assert g.images == tuple(x)
            assert (g * g).padded == (0, *reference_mul(g, g).images)
            assert g.inverse().padded == (0, *reference_inverse(g).images)
        e = Permutation((1,))
        assert (e * e).padded == (0, 1)
        assert e.inverse().padded == (0, 1)

    def test_degree_one(self):
        e = Permutation((1,))
        assert (e * e).images == (1,)
        assert (e * e).is_identity()
        assert e.is_identity()
        assert (e ** 5).images == (1,)
        assert (e ** -3).images == (1,)
        assert e.conjugate(e).images == (1,)
        assert e.inverse().images == (1,)
        assert Permutation.identity(1) == e
        with pytest.raises(InputError):
            e * Permutation.identity(2)

    def test_identity_cache_across_degrees(self):
        for degree in (5, 1, 3, 12, 3, 1, 5):
            ident = Permutation.identity(degree)
            assert ident.images == tuple(range(1, degree + 1))
            assert ident.is_identity()
            if degree > 1:
                swap = Permutation.from_cycles(degree, [(1, degree)])
                assert not swap.is_identity()
                assert (swap * swap).is_identity()
        assert not Permutation((2, 1)).is_identity()
        assert Permutation((1, 2)).is_identity()

    def test_inverse_of_product_reverses_factors(self):
        rng = random.Random(11)
        for degree in (1, 2, 5, 40):
            for _ in range(10):
                a = random_permutation(rng, degree)
                b = random_permutation(rng, degree)
                c = random_permutation(rng, degree)
                assert (a * b).inverse() == b.inverse() * a.inverse()
                assert (a * b * c).inverse() == (c.inverse() * b.inverse()
                                                 * a.inverse())


class TestSharedPointObjects:
    """Every padded image tuple of a degree holds the int objects of
    ``_identity_images(degree)``, so that equal tuples compare by
    identity."""

    def test_images_share_point_objects(self):
        degree = 300    # above the ints CPython caches
        points = perm._identity_images(degree)
        rng = random.Random(16)
        images = list(range(1, degree + 1))
        rng.shuffle(images)
        listed = parse_permutation(" ".join(map(str, images)), degree)
        built = {
            "image list": listed,
            "cycle notation": parse_permutation(listed.cycle_string(), degree),
            "constructor": Permutation(images),
            "from_cycles": Permutation.from_cycles(
                degree, [list(range(degree, 0, -2)), [1, 2, 299]]),
        }
        built["inverse"] = listed.inverse()
        built["product"] = listed * built["from_cycles"]
        built["power"] = built["cycle notation"] ** 7
        for name, g in built.items():
            assert all(q is points[q] for q in g.padded), name
        assert listed == built["constructor"]

    def test_pair_generators_share_point_objects(self):
        # a vertex action generator of the L1 n=2 pair (1536 vertices) and a
        # rho row on 270 carrier points, both above the ints CPython caches
        pair = _pair(L1, 2)
        action = pair.action_generators[0]
        points = perm._identity_images(action.degree)
        assert all(q is points[q] for q in action.padded)
        carrier = Carrier(pair.star, 5)
        points = perm._identity_images(carrier.degree)
        for x in (1, pair.star.order - 1):
            assert all(q is points[q] for q in carrier.rho_index(x).padded)


L0 = (3, "(1 2)")
L1 = (5, "(1 2 3)(4 5)")


@functools.cache
def _pair(local, n):
    return construct_pair(group(*local), n)


TWICE_WALKED = tuple(parse_permutation(c, 3)
                     for c in ("(1 3)", "(1 3 2)", "(1 2)", "(2 3)"))


# name -> (generators, base prefixes).  Vertex action groups are prefixed at
# vertex 0 (point 1), as verify_locally_L does; the others at their last
# point or at the points given.  The degree-1536 group runs only with
# verify's prefix: its reference chain alone takes seconds.
CHAIN_GROUPS = {
    "l0-n2-vertices": (lambda: _pair(L0, 2).action_generators, "none first"),
    "l0-n3-vertices": (lambda: _pair(L0, 3).action_generators, "none first"),
    "l0-n4-vertices": (lambda: _pair(L0, 4).action_generators, "none first"),
    "l0-n2-carrier": (lambda: _pair(L0, 2).candidate.group_generators(), "none last"),
    "l0-n3-carrier": (lambda: _pair(L0, 3).candidate.group_generators(), "none last"),
    "l0-n4-carrier": (lambda: _pair(L0, 4).candidate.group_generators(), "none last"),
    "l1-n2-carrier": (lambda: _pair(L1, 2).candidate.group_generators(), "none last"),
    "l1-n2-vertices": (lambda: _pair(L1, 2).action_generators, "first"),
    "hexagon-rotation": (lambda: (parse_permutation("(1 2 3 4 5 6)", 6),),
                         "none first"),
    # the 2-cycle (3 4) of the involution has no tree edge: 3 and 4 are
    # reached along the 4-cycle
    "cycle-without-tree-edge": (lambda: (parse_permutation("(1 2 3 4)", 4),
                                         parse_permutation("(3 4)", 4)),
                                "none first"),
    # a generator of order 6 with a 2-, a 3- and a 6-cycle: only the
    # 6-cycle's Schreier generators multiply to 1
    "order-6-mixed-cycles": (lambda: (
        parse_permutation("(1 2)(3 4 5)(6 7 8 9 10 11)", 11),
        parse_permutation("(2 3)(5 6)", 11)), "none first"),
    # found by a seeded random search: some u s equals t_q^-1 but not t_q,
    # and skipping that Schreier generator changes the chain
    "random-degree-8": (lambda: (parse_permutation("(1 7 5 8 3 6)(2 4)", 8),
                                 parse_permutation("(2 7)(3 6)(4 8)", 8)),
                        "none 7,2"),
    "random-degree-10": (lambda: (parse_permutation("(1 2 5)", 10),
                                  parse_permutation("(1 5)(2 8 6)", 10)),
                         "none 10,1"),
    # g_0 g_1 = g_1 g_3 and g_0 fixes 2: the relation's walk from 2 runs
    # over the non-tree edge (2, 1) twice
    "twice-walked-edge": (lambda: TWICE_WALKED, "none"),
}
CHAIN_CASES = [(name, where) for name, (_, prefixes) in CHAIN_GROUPS.items()
               for where in prefixes.split()]


def base_prefix(where, degree):
    named = {"none": (), "first": (1,), "last": (degree,)}
    if where in named:
        return named[where]
    return tuple(int(p) for p in where.split(","))


class TestChainMatchesReferenceKernel:
    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_bit_identical(self, name, where):
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        prefix = base_prefix(where, degree)
        chain = StabiliserChain(degree, gens, base_prefix=prefix)
        reference = ReferenceChain(degree, gens, base_prefix=prefix)
        assert chain_snapshot(chain) == chain_snapshot(reference)
        assert chain.base[:len(prefix)] == prefix


class TestSchreierTree:
    """Every preimage the chain takes by walking a Schreier tree, and every
    inverse it forms, against the point-by-point inverse."""

    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_preimages_and_inverses(self, name, where, monkeypatch):
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        original = Permutation.inverse
        formed = []

        def checked(g):
            got = original(g)
            assert got.images == reference_inverse(g).images
            formed.append(got)
            return got

        monkeypatch.setattr(Permutation, "inverse", checked)
        chain = StabiliserChain(degree, gens,
                                base_prefix=base_prefix(where, degree))
        assert formed     # the inverse generators, at least
        points = list(range(1, degree + 1))
        for lev in chain.levels:
            for q in lev.orbit():
                t = lev.element(q)
                if q != lev.point:
                    p, j = lev.edge[q]
                    assert t.images == (lev.element(p) * lev.gens[j]).images
                assert (lev.preimages(q, points)
                        == list(reference_inverse(t).images))


# levels that must take each branch of the sift, by case: the orbit lengths
# are [1536, 2, 9, 3] and [108, 6, 4, 2, 2, 2, 2, 2]
SIFT_BRANCHES = {
    ("l1-n2-vertices", "first"): {"memo": {0}, "no memo": {1}, "miss": {1}},
    ("l1-n2-carrier", "none"): {"no memo": {1}, "miss": {0}},
}


def transversal_inverses():
    """``inverse(lev, q)``, the inverse of ``lev.element(q)`` formed
    point by point, once per image tuple."""
    inverses = {}

    def inverse(lev, q):
        t = lev.element(q)
        if t.images not in inverses:
            inverses[t.images] = reference_inverse(t)
        return inverses[t.images]

    return inverse


# cases whose every non-tree edge is closed by generator order, so that no
# Schreier generator is sifted: the one non-tree edge of the 6-cycle
UNSIFTED = {"hexagon-rotation"}


def counted_chain(monkeypatch, name, where):
    """The chain of the ``CHAIN_GROUPS`` group ``name`` with the base
    prefix ``where`` names, and the products, on Permutations and on padded
    images, that its construction forms."""
    gens = tuple(CHAIN_GROUPS[name][0]())
    degree = gens[0].degree
    products = 0

    def counting(original):
        def count(a, b):
            nonlocal products
            products += 1
            return original(a, b)
        return count

    with monkeypatch.context() as m:
        m.setattr(Permutation, "__mul__", counting(Permutation.__mul__))
        m.setattr(perm, "_times", counting(perm._times))
        chain = StabiliserChain(degree, gens,
                                base_prefix=base_prefix(where, degree))
    return chain, products


class TestSiftSchreier:
    """The base-image sift of ``_sift_schreier`` against the product sift,
    which multiplies at every level by an inverse formed point by point:
    same residue and level, or both trivial."""

    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_matches_product_sift(self, name, where, monkeypatch):
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        prefix = base_prefix(where, degree)
        original = StabiliserChain._sift_schreier
        seen = {"memo": set(), "no memo": set(), "miss": set()}
        inverse = transversal_inverses()

        def checked(chain, i, u, j, q, memo):
            got = original(chain, i, u, j, q, memo)
            x = u * chain.levels[i].gens[j] * inverse(chain.levels[i], q)
            residue, level = product_sift(chain.levels, x, i + 1, inverse)
            if residue.is_identity():
                assert got is None
            else:
                assert got is not None
                assert (got[0].images, got[1]) == (residue.images, level)
            if memo is not None:
                assert len(memo) <= chain.levels[i].orbit_length()
            seen["no memo" if memo is None else "memo"].add(i)
            if level < len(chain.levels):
                seen["miss"].add(i)
            return got

        monkeypatch.setattr(StabiliserChain, "_sift_schreier", checked)
        StabiliserChain(degree, gens, base_prefix=prefix)
        if name in UNSIFTED:
            assert not seen["memo"] | seen["no memo"]
        else:
            assert seen["memo"] | seen["no memo"]
        for branch, levels in SIFT_BRANCHES.get((name, where), {}).items():
            assert levels <= seen[branch], branch

    def test_product_count(self, monkeypatch):
        # the l1-n2-vertices chain with prefix (1,), as verify builds it,
        # took 36,908 products when every Schreier generator was sifted by
        # products, 18,355 when every rebuild multiplied out its whole
        # transversal, and 14,291 when a rebuild multiplied only the points
        # whose tree edge or parent changed, 10,990 when the Schreier
        # generators closed by generator order were skipped, and 3,538 when
        # those closed by any relator walk were.  Counting also the
        # products on padded images (perm._times), which include those
        # that find the relations, that chain took 3,588, 3,005 once a
        # level was first built when it is first scanned, 2,718 once an
        # element was formed only when a sift reads it, and takes 2,720 now
        # that a level is rebuilt from its root (+2)
        _, products = counted_chain(monkeypatch, "l1-n2-vertices", "first")
        assert products <= 2_750

    def test_product_count_without_prefix(self, monkeypatch):
        # group.order()'s chain in verify, with no prefix: its first two
        # level-0 scans break after 1 and 3 sifts and read 2 elements each.
        # It took 3,546 products when every rebuild formed the elements of
        # every point whose tree path changed, 2,743 once an element was
        # formed only when a sift reads it, and takes 2,748 now that a
        # level is rebuilt from its root (+5)
        _, products = counted_chain(monkeypatch, "l1-n2-vertices", "none")
        assert products <= 2_800

    def test_flag_pass_only_past_the_first_point(self, monkeypatch):
        # group.order()'s chain in verify, with no prefix: a scan that
        # breaks on a new strong generator at its first orbit point runs
        # no flag pass, and one that gets past that point runs one
        gens = tuple(CHAIN_GROUPS["l1-n2-vertices"][0]())
        scans = []
        original_scan = StabiliserChain._scan
        original_sift = StabiliserChain._sift_schreier
        original_skipped = perm._ChainLevel.skipped

        def scan(chain, i):
            scans.append({"flag passes": 0, "broke at": None})
            new_level = original_scan(chain, i)
            scans[-1]["orbit"] = sorted(chain.levels[i].orbit())
            return new_level

        def sift(chain, i, u, j, q, memo):
            got = original_sift(chain, i, u, j, q, memo)
            if got is not None:
                lev = chain.levels[i]
                scans[-1]["broke at"] = u.apply(lev.point)
            return got

        def skipped(lev):
            scans[-1]["flag passes"] += 1
            return original_skipped(lev)

        monkeypatch.setattr(StabiliserChain, "_scan", scan)
        monkeypatch.setattr(StabiliserChain, "_sift_schreier", sift)
        monkeypatch.setattr(perm._ChainLevel, "skipped", skipped)
        StabiliserChain(gens[0].degree, gens)
        kinds = set()
        for record in scans:
            first, *rest = record["orbit"]
            past = bool(rest) and record["broke at"] != first
            assert record["flag passes"] == past, record
            kinds.add((past, record["broke at"] is None))
        # here every break comes at a first point; other scans run to the end
        assert kinds == {(False, False), (True, True)}


class TestLevelZeroEviction:
    """Level 0 drops each transversal element after the last read its scan
    makes of it; the deeper levels keep every element they form."""

    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_same_chain_and_products_as_without(self, name, where,
                                                monkeypatch):
        chain, products = counted_chain(monkeypatch, name, where)
        # when the chain is complete, level 0 holds only its root
        root = chain.levels[0]
        assert list(root.elements) == [root.point]
        with monkeypatch.context() as m:
            m.setattr(perm._ChainLevel, "drops",
                      lambda lev, schedule: [()] * len(schedule))
            kept, kept_products = counted_chain(monkeypatch, name, where)
        assert products == kept_products
        assert chain_snapshot(chain) == chain_snapshot(kept)

    def test_verify_chain_holds_few_level_zero_elements(self, monkeypatch):
        # the l1-n2-vertices chain with prefix (1,), as verify builds it,
        # held 1,249 of its 1,536 level-0 elements before they were dropped
        # after their last read, and holds at most 146 at once now
        gens = tuple(CHAIN_GROUPS["l1-n2-vertices"][0]())
        original = perm._ChainLevel.element
        held = []

        def element(lev, q):
            t = original(lev, q)
            if lev.depth == 0:
                held.append(len(lev.elements))
            return t

        monkeypatch.setattr(perm._ChainLevel, "element", element)
        chain = StabiliserChain(gens[0].degree, gens, base_prefix=(1,))
        assert chain.levels[0].orbit_length() == 1536
        assert 0 < max(held) <= 200
        assert list(chain.levels[0].elements) == [1]

    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_deeper_levels_keep_their_elements(self, name, where,
                                               monkeypatch):
        # an element of a level below 0 stays from its first read until its
        # level is rebuilt
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        original_element = perm._ChainLevel.element
        original_rebuild = StabiliserChain._rebuild_orbit
        formed = {}

        def element(lev, q):
            if lev.depth:
                assert formed.get(lev, set()) <= lev.elements.keys()
                formed.setdefault(lev, set()).add(q)
            return original_element(lev, q)

        def rebuild(chain, i):
            original_rebuild(chain, i)
            lev = chain.levels[i]
            formed[lev] = set(lev.elements)

        monkeypatch.setattr(perm._ChainLevel, "element", element)
        monkeypatch.setattr(StabiliserChain, "_rebuild_orbit", rebuild)
        chain = StabiliserChain(degree, gens,
                                base_prefix=base_prefix(where, degree))
        for lev in chain.levels[1:]:
            assert formed.get(lev, set()) <= lev.elements.keys()


class TestRebuildOrbit:
    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_every_rebuild_changes_the_generators(self, name, where,
                                                  monkeypatch):
        # a level is scanned again only after a new strong generator as
        # deep as it, so a rebuild never finds the generators it was last
        # built from, and keeps only the root's element
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        original = StabiliserChain._rebuild_orbit
        rebuilt = []

        def rebuild(chain, i):
            lev = chain.levels[i]
            before = lev.ids
            original(chain, i)
            assert lev.ids != before
            assert list(lev.elements) == [lev.point]
            rebuilt.append(lev)

        monkeypatch.setattr(StabiliserChain, "_rebuild_orbit", rebuild)
        chain = StabiliserChain(degree, gens,
                                base_prefix=base_prefix(where, degree))
        assert set(rebuilt) == set(chain.levels)


def cycle_lengths_lcm(s):
    """The lcm of the cycle lengths of ``s``, walking each cycle point by
    point."""
    seen, lengths = set(), []
    for p in range(1, s.degree + 1):
        length, q = 0, p
        while q not in seen:
            seen.add(q)
            length += 1
            q = s.apply(q)
        lengths.append(length or 1)
    return math.lcm(*lengths)


class TestGeneratorDataPerChain:
    """What the levels read of each strong generator is formed once per
    chain: inverse images, order and the relations; its padded images are
    the generator's own."""

    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_inverses_and_orders(self, name, where):
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        chain = StabiliserChain(degree, gens,
                                base_prefix=base_prefix(where, degree))
        for g, s in enumerate(chain.strong_gens):
            assert chain._finder.padded[g] is s.padded
            assert chain._inverses[g] == reference_inverse(s).padded
            assert chain._orders[g] == cycle_lengths_lcm(s)
        for lev in chain.levels:
            assert lev.gens == [chain.strong_gens[g] for g in lev.ids]
            for j, g in enumerate(lev.ids):
                assert lev.padded[j] is chain.strong_gens[g].padded
                assert lev.inverses[j] is chain._inverses[g]
                assert lev.orders[j] is chain._orders[g]

    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_level_relations_are_the_products(self, name, where):
        # the chain finds the relations once, as its generators arrive;
        # each level reads those among its own generators
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        chain = StabiliserChain(degree, gens,
                                base_prefix=base_prefix(where, degree))
        for lev in chain.levels:
            equal, inverse = lev.relations()
            expected_equal, expected_inverse = (
                relations_by_products(lev.gens) if lev.gens else (set(), set()))
            assert sorted(equal) == sorted(expected_equal), lev.point
            assert sorted(inverse) == sorted(expected_inverse), lev.point


def flagged(flags):
    return {p for p, flag in enumerate(flags) if flag}


class TestOrderClosure:
    """The Schreier generators that ``_complete`` skips: tree edges and, on
    each relator walk, the last non-tree edge when the walk takes it once."""

    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_skipped_sift_to_identity(self, name, where):
        # on the finished chain every skipped u_p s_j t_q^-1 lies in the
        # deeper levels' group, by the product sift
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        chain = StabiliserChain(degree, gens,
                                base_prefix=base_prefix(where, degree))
        inverse = transversal_inverses()
        closed = 0
        for i, lev in enumerate(chain.levels):
            tree = set(lev.edge.values())
            for j, flags in enumerate(lev.skipped()):
                s = lev.gens[j]
                for p in flagged(flags):
                    x = reference_mul(reference_mul(lev.element(p), s),
                                      inverse(lev, s.apply(p)))
                    residue, _ = product_sift(chain.levels, x, i + 1, inverse)
                    assert reference_is_identity(residue), (i, p, j)
                    closed += (p, j) not in tree
        assert closed   # every case closes some non-tree edge

    @pytest.mark.parametrize("name,where", CHAIN_CASES,
                             ids=[f"{n}-{w}" for n, w in CHAIN_CASES])
    def test_one_closed_edge_per_full_cycle(self, name, where):
        # brute force from every relator walk, the full-length cycles of
        # each generator among them: the flags are the tree edges and each
        # walk's last non-tree edge when the walk takes it once
        gens = tuple(CHAIN_GROUPS[name][0]())
        degree = gens[0].degree
        chain = StabiliserChain(degree, gens,
                                base_prefix=base_prefix(where, degree))
        for lev in chain.levels:
            expected = skipped_by_walks(lev)
            for j, flags in enumerate(lev.skipped()):
                assert flagged(flags) == expected[j], (lev.point, j)
                assert (lev.orders[j]
                        == len(brute_elements(degree, [lev.gens[j]])))

    def test_twice_walked_edge_stays_unflagged(self):
        # from p = 2, g_0 g_1 = g_1 g_3 walks (2, 0), (2, 1), then back
        # along (1, 3) and (2, 1): its last non-tree edge (2, 1) occurs
        # twice, so the walk proves nothing about it
        chain = StabiliserChain(3, TWICE_WALKED)
        lev = chain.levels[0]
        assert lev.gens == list(TWICE_WALKED)
        assert set(lev.edge.values()) == {(1, 0), (1, 2)}
        assert (0, 1, 1, 3) in relations_by_products(lev.gens)[0]
        assert not lev.skipped()[1][2]


class TestOrbits:
    def test_l0(self, l0):
        assert perm.orbits(l0) == ((1, 2), (3,))

    def test_l1(self, l1):
        assert perm.orbits(l1) == ((1, 2, 3), (4, 5))

    def test_trivial_degree_2(self):
        assert perm.orbits(PermutationGroup(2)) == ((1,), (2,))

    def test_orbit_parts_are_blocks(self, l1):
        parts = perm.orbits(l1)
        for s in l1.generators:
            for part in parts:
                assert tuple(sorted(s.apply(p) for p in part)) == part


class TestChainAndOrder:
    def test_order_l1(self, l1):
        assert l1.order() == 6

    def test_order_s3(self, s3):
        assert s3.order() == 6

    def test_order_trivial(self):
        assert PermutationGroup(2).order() == 1

    def test_chain_invariants(self, s3):
        chain = s3.chain()
        n = 1
        for lev in chain.levels:
            n *= lev.orbit_length()
            for point in lev.orbit():
                assert lev.element(point).apply(lev.point) == point
        assert n == chain.order()
        for g in s3.generators:
            assert chain.contains(g)

    def test_membership(self, l1):
        assert l1.contains(parse_permutation("(1 3 2)", 5))
        assert not l1.contains(parse_permutation("(1 2)", 5))

    def test_order_and_membership_oracle(self):
        rng = random.Random(20260808)
        for _ in range(20):
            d = rng.randint(2, 7)
            gens = []
            for _ in range(rng.randint(1, 3)):
                images = list(range(1, d + 1))
                rng.shuffle(images)
                gens.append(Permutation(images))
            g = PermutationGroup(d, tuple(gens))
            oracle = brute_elements(d, gens)
            assert g.order() == len(oracle)
            for _ in range(20):
                images = list(range(1, d + 1))
                rng.shuffle(images)
                x = Permutation(images)
                assert g.contains(x) == (as_tuple(x) in oracle)

    def test_elements_cap(self):
        g = group(7, "(1 2)", "(1 2 3 4 5 6 7)")
        with pytest.raises(CapacityError):
            g.elements(cap=100)


class TestPointStabiliser:
    def test_l1_point_4(self, l1):
        st = perm.point_stabiliser(l1, 4)
        assert st.order() == 3
        assert st.contains(parse_permutation("(1 2 3)", 5))

    def test_l0_fixed_point(self, l0):
        assert perm.point_stabiliser(l0, 3).order() == 2

    def test_l0_moved_point(self, l0):
        assert perm.point_stabiliser(l0, 1).order() == 1

    def test_out_of_range(self, l0):
        with pytest.raises(InputError):
            perm.point_stabiliser(l0, 4)

    def test_exactness_against_enumeration(self, s3):
        for p in (1, 2, 3):
            st = perm.point_stabiliser(s3, p)
            fixing = [x for x in s3.elements() if x.apply(p) == p]
            assert st.order() == len(fixing)
            assert all(st.contains(x) for x in fixing)


def group_predicates(g):
    return perm.predicates(perm.orbits(g), g.order())


class TestPredicates:
    def test_l2(self, l2):
        pr = group_predicates(l2)
        assert (pr.is_transitive, pr.is_semiregular) == (False, True)

    def test_l0(self, l0):
        pr = group_predicates(l0)
        assert (pr.is_transitive, pr.is_semiregular) == (False, False)

    def test_l3(self, l3):
        pr = group_predicates(l3)
        assert (pr.is_transitive, pr.is_semiregular) == (True, True)

    def test_semiregular_matches_stabiliser_orders(self, l0, l1, l2, l3):
        rng = random.Random(20261018)
        randoms = []
        for _ in range(40):
            d = rng.randint(1, 8)
            randoms.append(PermutationGroup(d, tuple(
                Permutation.from_cycles(d, [rng.sample(range(1, d + 1),
                                                       rng.randint(0, d))])
                for _ in range(rng.randint(0, 2)))))
        for g in (l0, l1, l2, l3, *randoms):
            expected = all(
                perm.point_stabiliser(g, p).order() == 1
                for p in range(1, g.degree + 1))
            assert group_predicates(g).is_semiregular == expected

    @pytest.mark.parametrize("degree,cycle,semiregular",
                             [(600, 600, True), (401, 400, False)])
    def test_long_cycle_is_fast(self, degree, cycle, semiregular):
        g = PermutationGroup(degree, (Permutation.from_cycles(
            degree, [list(range(1, cycle + 1))]),))
        start = time.perf_counter()
        pr = group_predicates(g)
        assert time.perf_counter() - start < 1.0
        assert (pr.is_transitive, pr.is_semiregular) == (degree == cycle,
                                                          semiregular)


def normal_closure(g, x):
    """The subgroup generated by the conjugacy class of ``x``, which
    ``is_semiprimitive`` computes."""
    return PermutationGroup(g.degree, perm._conjugacy_class(g, x))


class TestNormalClosure:
    def test_three_cycle_in_s3(self, s3):
        assert normal_closure(s3, parse_permutation("(1 2 3)", 3)).order() == 3

    def test_transposition_in_s3(self, s3):
        assert normal_closure(s3, parse_permutation("(1 2)", 3)).order() == 6

    def test_identity(self, s3):
        assert normal_closure(s3, Permutation.identity(3)).order() == 1

    def test_is_normal_and_contains_element(self, s3):
        x = parse_permutation("(1 2 3)", 3)
        n = normal_closure(s3, x)
        assert n.contains(x)
        for g in s3.elements():
            for h in n.elements():
                assert n.contains(h.conjugate(g))


class TestSemiprimitivity:
    def test_l2_semiregular_hence_semiprimitive(self, l2):
        assert perm.is_semiprimitive(l2) is True

    def test_l0_not(self, l0):
        assert perm.is_semiprimitive(l0) is False

    def test_s3_natural(self, s3):
        assert perm.is_semiprimitive(s3) is True

    def test_cap_error(self, s3):
        with pytest.raises(CapacityError):
            perm.is_semiprimitive(s3, cap=2)

    def test_matches_element_by_element_oracle(self):
        # one class per test against one closure per element, on seeded
        # transitive groups and on S3-S6, A4 and D4 (not semiprimitive: its
        # Klein four-subgroup containing (1 3) is normal and has two orbits)
        named = [group(d, "(1 2)", "(" + " ".join(map(str, range(1, d + 1))) + ")")
                 for d in range(3, 7)]
        named += [group(4, "(1 2 3)", "(2 3 4)"), group(4, "(1 2 3 4)", "(1 3)")]
        rng = random.Random(2012)
        seeded = []
        while len(seeded) < 40:
            degree = rng.randint(2, 6)
            gens = tuple(random_permutation(rng, degree)
                         for _ in range(rng.randint(1, 2)))
            g = PermutationGroup(degree, gens)
            if len(perm.orbits(g)) == 1:
                seeded.append(g)
        seen = set()
        for g in named + seeded:
            expected = semiprimitive_by_elements(g.degree, g.generators)
            assert perm.is_semiprimitive(g) is expected, g
            seen.add(expected)
        assert perm.is_semiprimitive(named[-1]) is False
        assert seen == {True, False}


def oracle_pairs():
    """Seeded random pairs of degree 2 to 5, each group on two random
    generators: the cases checked against every bijection."""
    rng = random.Random(777)
    pairs = []
    for _ in range(15):
        d = rng.randint(2, 5)
        def random_group():
            images = list(range(1, d + 1))
            rng.shuffle(images)
            images2 = list(range(1, d + 1))
            rng.shuffle(images2)
            return PermutationGroup(d, (Permutation(images),
                                        Permutation(images2)))
        pairs.append((random_group(), random_group()))
    return pairs


LARGER_ORACLE_CASES = [
    (7, "(1 2 3)(4 5)", "(3 7 1)(2 6)", True),
    (7, "(1 2 3)(4 5)", "(1 2)(3 4)", False),
    (8, "(1 2)(3 4 5 6)", "(7 8)(1 2 3 4)", True),
    (8, "(1 2)(3 4 5 6)", "(1 2 3 4 5 6 7 8)", False),
]


def seeded_search_pairs():
    """Seeded random pairs of degree 4 to 9 on one or two generators, each
    a product of disjoint cycles of one length, 2 or 3, so that the groups
    have several orbits of one length to match.  In every other pair the
    second group is the first conjugated by a random bijection; in the
    rest it is drawn like the first."""
    rng = random.Random(2)
    pairs = []
    for k in range(40):
        degree = rng.randint(4, 9)

        def generator():
            points = rng.sample(range(1, degree + 1), degree)
            length = rng.randint(2, 3)
            moved = rng.randint(1, degree // length) * length
            return Permutation.from_cycles(degree, [
                points[i:i + length] for i in range(0, moved, length)])

        g1 = PermutationGroup(degree, tuple(
            generator() for _ in range(rng.randint(1, 2))))
        if k % 2:
            g2 = PermutationGroup(degree, tuple(
                generator() for _ in g1.generators))
        else:
            sigma = random_permutation(rng, degree)
            g2 = PermutationGroup(degree, tuple(
                sigma.inverse() * g * sigma for g in g1.generators))
        pairs.append((g1, g2))
    return pairs


class TestPermutationIsomorphic:
    def test_identity_witness(self, l0):
        w = perm.permutation_isomorphic(l0, l0)
        assert w is not None
        s_inv = w.inverse()
        assert all(l0.contains(s_inv * g * w) for g in l0.generators)

    def test_swap_witness(self):
        g1 = group(3, "(1 2)")
        g2 = group(3, "(1 3)")
        w = perm.permutation_isomorphic(g1, g2)
        assert w == parse_permutation("(2 3)", 3)

    def test_no_witness(self, l0, l3):
        assert perm.permutation_isomorphic(l0, l3) is None

    def test_degree_mismatch(self, l0, l2):
        assert perm.permutation_isomorphic(l0, l2) is None

    def test_witness_symmetry(self, l1):
        g2 = group(5, "(1 4 3)(2 5)")
        w = perm.permutation_isomorphic(l1, g2)
        assert w is not None
        # the inverse of a witness is a witness in the other direction
        back = w.inverse()
        assert all(l1.contains(back.inverse() * g * back)
                   for g in g2.generators)
        assert perm.permutation_isomorphic(g2, l1) is not None

    def test_exhaustive_oracle(self):
        def conjugates(elements, sigma):
            sig_inv = tuple_inv(sigma)
            return {tuple_mul(tuple_mul(sig_inv, x), sigma) for x in elements}

        for g1, g2 in oracle_pairs():
            d = g1.degree
            e1 = brute_elements(d, g1.generators)
            e2 = brute_elements(d, g2.generators)
            oracle = any(conjugates(e1, sigma) == e2
                         for sigma in itertools.permutations(range(d)))
            witness = perm.permutation_isomorphic(g1, g2)
            assert (witness is not None) == oracle
            if witness is not None:
                assert conjugates(e1, as_tuple(witness)) == e2

    @staticmethod
    def two_point_orbits(k):
        """``<t_1...t_k, t_1>`` and ``<t_1...t_k, t_1 t_2>`` for the
        transpositions ``t_i = (2i-1 2i)``: groups of order 4 with k orbits
        of size 2, so every point has the same orbit size and stabiliser
        order.  They are not permutation isomorphic: the first holds an
        element of support 2, the second none."""
        degree = 2 * k
        t = [Permutation.from_cycles(degree, [(2 * i + 1, 2 * i + 2)])
             for i in range(k)]
        product = Permutation.from_cycles(
            degree, [(2 * i + 1, 2 * i + 2) for i in range(k)])
        return (PermutationGroup(degree, (product, t[0])),
                PermutationGroup(degree, (product, t[0] * t[1])))

    @pytest.mark.parametrize("case", ["witness", "none", "budget"])
    def test_groups_die_with_the_caller(self, case):
        # the search leaves no reference cycle: with the collector off,
        # both groups and their chains die as soon as the caller drops
        # them, whether the search finds a witness, finds none or runs out
        # of budget
        g1, g2 = {"witness": lambda: (group(3, "(1 2)"), group(3, "(1 3)")),
                  "none": lambda: self.two_point_orbits(4),
                  "budget": lambda: self.two_point_orbits(7)}[case]()
        refs = [weakref.ref(g1), weakref.ref(g2)]
        enabled = gc.isenabled()
        gc.disable()
        try:
            try:
                found = perm.permutation_isomorphic(g1, g2)
                assert (found is not None) == (case == "witness")
            except CapacityError:
                assert case == "budget"
            del g1, g2
            assert [ref() for ref in refs] == [None, None]
        finally:
            if enabled:
                gc.enable()

    def test_two_point_orbits_within_the_budget(self):
        assert perm.permutation_isomorphic(*self.two_point_orbits(4)) is None

    def test_node_budget_on_hostile_input(self):
        # every bijection respects the invariants, so the search would
        # place points for each of the 7! 2^7 orbit matchings (19.6 s)
        g1, g2 = self.two_point_orbits(7)
        start = time.perf_counter()
        with pytest.raises(CapacityError, match="isomorphism search nodes"):
            perm.permutation_isomorphic(g1, g2)
        assert time.perf_counter() - start < 1.0

    @pytest.mark.parametrize("degree,gen1,gen2,expected", LARGER_ORACLE_CASES)
    def test_exhaustive_oracle_larger_degrees(self, degree, gen1, gen2,
                                              expected):
        g1 = group(degree, gen1)
        g2 = group(degree, gen2)
        e1 = brute_elements(degree, g1.generators)
        e2 = brute_elements(degree, g2.generators)
        oracle = False
        for sigma in itertools.permutations(range(degree)):
            sig_inv = tuple_inv(sigma)
            if {tuple_mul(tuple_mul(sig_inv, x), sigma) for x in e1} == e2:
                oracle = True
                break
        assert oracle == expected
        assert (perm.permutation_isomorphic(g1, g2) is not None) == oracle

    def test_trivial_groups_of_large_degree(self):
        # one placed point per level: a recursive search ran out of stack
        # near degree 1,000
        g = PermutationGroup(1500)
        assert perm.permutation_isomorphic(g, g) == Permutation.identity(1500)


def search_cases():
    cases = {f"oracle-{k}": pair for k, pair in enumerate(oracle_pairs())}
    cases.update({f"larger-{k}": (group(d, a), group(d, b))
                  for k, (d, a, b, _) in enumerate(LARGER_ORACLE_CASES)})
    cases.update({f"two-point-orbits-{k}":
                  TestPermutationIsomorphic.two_point_orbits(k)
                  for k in range(2, 8)})
    cases.update({f"seeded-{k}": pair
                  for k, pair in enumerate(seeded_search_pairs())})
    return cases


SEARCH_CASES = search_cases()


class TestSearchMatchesRecursiveReference:
    """The one-loop search against the recursive search it replaced
    (``reference_isomorphic``): the same witness, and the same number of
    placed points, read off the budget at which the loop stops raising."""

    @pytest.mark.parametrize("name", list(SEARCH_CASES))
    def test_same_witness_and_nodes(self, name, monkeypatch):
        g1, g2 = SEARCH_CASES[name]
        try:
            expected, nodes = reference_isomorphic(g1, g2)
        except CapacityError:
            with pytest.raises(CapacityError,
                               match="isomorphism search nodes"):
                perm.permutation_isomorphic(g1, g2)
            return
        assert perm.permutation_isomorphic(g1, g2) == expected
        monkeypatch.setattr(perm, "ISOMORPHISM_NODE_BUDGET", nodes)
        assert perm.permutation_isomorphic(g1, g2) == expected
        if nodes:
            monkeypatch.setattr(perm, "ISOMORPHISM_NODE_BUDGET", nodes - 1)
            with pytest.raises(CapacityError):
                perm.permutation_isomorphic(g1, g2)

    def test_cases_cover_every_outcome(self):
        outcomes = set()
        for g1, g2 in SEARCH_CASES.values():
            try:
                witness, nodes = reference_isomorphic(g1, g2)
            except CapacityError:
                outcomes.add("budget")
                continue
            outcomes.add("witness" if witness is not None
                         else "searched" if nodes else "refused early")
            if witness is not None and not witness.is_identity():
                outcomes.add("moved witness")
        assert outcomes == {"witness", "moved witness", "searched",
                            "refused early", "budget"}
