import random

import pytest

from graphrestrict import perm
from graphrestrict.amalgam import build_star
from graphrestrict.classify import (NOT_RESTRICTIVE, OUT_OF_SCOPE_TRANSITIVE,
                                    RESTRICTIVE_SEMIREGULAR,
                                    analyze_local_group, restrictive_verdict)
from graphrestrict.errors import TheoryViolationError
from graphrestrict.perm import Permutation, PermutationGroup

from conftest import group, star_core_by_loop


class TestAnalyze:
    def test_l0(self, l0):
        a = analyze_local_group(l0)
        assert a.k == 2
        assert a.anchor == 3
        assert a.stabiliser_orders[0] == 2
        assert a.verdict == NOT_RESTRICTIVE

    def test_l2(self, l2):
        assert analyze_local_group(l2).verdict == RESTRICTIVE_SEMIREGULAR

    def test_l3(self, l3):
        assert analyze_local_group(l3).verdict == OUT_OF_SCOPE_TRANSITIVE

    def test_one_rep_per_orbit(self, l1):
        a = analyze_local_group(l1)
        assert len(a.orbit_reps) == a.k == len(a.orbit_parts)
        for rep, seen in zip(a.orbit_reps, [False] * a.k):
            assert sum(rep in part for part in a.orbit_parts) == 1

    def test_anchor_maximality(self, l1):
        a = analyze_local_group(l1)
        n = l1.order()
        for p in range(1, l1.degree + 1):
            assert a.stabiliser_orders[0] >= perm.point_stabiliser(l1, p).order()
        assert a.anchor == 4 and a.stabiliser_orders[0] == 3

    def test_anchor_tie_break_smallest_point(self):
        # two fixed points, both with the whole group as stabiliser
        g = group(4, "(1 2)")
        a = analyze_local_group(g)
        assert a.anchor == 3
        assert a.orbit_reps == (3, 1, 4)

    def test_remaining_reps_ordered(self, l1):
        a = analyze_local_group(l1)
        rest = a.orbit_reps[1:]
        assert list(rest) == sorted(rest)

    def test_not_restrictive_preconditions_recorded(self, l0):
        a = analyze_local_group(l0)
        assert a.k >= 2
        assert a.stabiliser_orders[0] > 1

    def test_verdict_matches_semiregular_flag(self, l0, l1, l2):
        for g in (l0, l1, l2):
            a = analyze_local_group(g)
            if not a.flags.transitive:
                expected = (RESTRICTIVE_SEMIREGULAR if a.flags.semiregular
                            else NOT_RESTRICTIVE)
                assert a.verdict == expected

    def test_semiprimitive_iff_semiregular_when_intransitive(self, l0, l1, l2):
        for g in (l0, l1, l2):
            a = analyze_local_group(g)
            assert not a.flags.transitive
            assert a.flags.semiprimitive == a.flags.semiregular

    def test_semiprimitive_flag_none_beyond_cap(self):
        # S9 on 10 points, order 362,880 > perm.DEFAULT_ELEMENT_CAP
        g = group(10, "(1 2 3 4 5 6 7 8 9)", "(1 2)")
        assert g.order() > perm.DEFAULT_ELEMENT_CAP
        a = analyze_local_group(g)
        assert a.flags.semiprimitive is None
        assert a.verdict == NOT_RESTRICTIVE
        assert a.orbit_reps == (10, 1)
        assert a.stabiliser_orders == (362_880, 40_320)

    def test_stabiliser_orders_match_point_stabilisers(self):
        # the orders are read off the orbit lengths; the chains of the
        # point stabilisers must agree, and the anchor's is built once
        rng = random.Random(12)
        for _ in range(40):
            degree = rng.randint(1, 7)
            gens = []
            for _ in range(rng.randint(0, 2)):
                support = rng.sample(range(1, degree + 1), rng.randint(1, degree))
                images = list(range(1, degree + 1))
                for p, q in zip(support, rng.sample(support, len(support))):
                    images[p - 1] = q
                gens.append(Permutation(images))
            g = PermutationGroup(degree, tuple(gens))
            a = analyze_local_group(g)
            assert a.stabiliser_orders == tuple(
                perm.point_stabiliser(g, rep).order() for rep in a.orbit_reps)
            assert "anchor_stabiliser" not in vars(a)    # built on first use
            assert a.anchor_stabiliser is a.anchor_stabiliser
            assert a.anchor_stabiliser.order() == a.stabiliser_orders[0]
            # the cached stabiliser is not a field of the record
            rebuilt = type(a)(*a)
            assert rebuilt == a and hash(rebuilt) == hash(a)

    def test_semiprimitive_iff_semiregular_on_random_intransitive_groups(self):
        # the analysis reads the semiprimitive flag of intransitive input off
        # semiregularity; the enumeration in perm must agree.  Each
        # non-semiregular group with a small star at n=2 also checks that
        # the core in A of the intersection of the edge subgroups is 1 x S^2
        rng = random.Random(0)
        seen = set()
        checked = 0
        cores = 0
        while checked < 40:
            degree = rng.randint(2, 7)
            gens = []
            for _ in range(rng.randint(1, 2)):
                support = rng.sample(range(1, degree + 1), rng.randint(2, degree))
                moved = rng.sample(support, len(support))
                images = list(range(1, degree + 1))
                for p, q in zip(support, moved):
                    images[p - 1] = q
                gens.append(Permutation(images))
            g = PermutationGroup(degree, tuple(gens))
            if len(perm.orbits(g)) == 1:
                continue
            checked += 1
            semiregular = perm.predicates(perm.orbits(g),
                                          g.order()).is_semiregular
            assert perm.is_semiprimitive(g) == semiregular, g.generators
            seen.add(semiregular)
            analysis = analyze_local_group(g)
            s = analysis.stabiliser_orders[0]
            if not semiregular and g.order() * s ** 2 <= 2000:
                star = build_star(analysis, 2)
                assert len(star_core_by_loop(star)) == s ** 2, g.generators
                cores += 1
        assert seen == {True, False}
        assert cores

    def test_not_restrictive_without_anchor_is_a_theory_violation(
            self, l2, monkeypatch):
        # the NOT_RESTRICTIVE preconditions must survive python -O: make the
        # semiregular l2 look non-semiregular, so its anchor stabiliser is 1
        monkeypatch.setattr(
            perm, "predicates",
            lambda parts, order: perm.GroupPredicates(False, False))
        with pytest.raises(TheoryViolationError, match="anchor stabiliser"):
            analyze_local_group(l2)


class TestVerdictReport:
    def test_l2_bound(self, l2):
        r = restrictive_verdict(analyze_local_group(l2))
        assert r.bound == 4
        assert "c(L) = 4" in r.message

    def test_l0_growth(self, l0):
        r = restrictive_verdict(analyze_local_group(l0))
        assert (r.growth_base, r.growth_ratio) == (2, 2)
        assert "2*2^n" in r.message

    def test_l1_growth(self, l1):
        r = restrictive_verdict(analyze_local_group(l1))
        assert (r.growth_base, r.growth_ratio) == (6, 3)
        assert "6*3^n" in r.message

    def test_transitive_message(self, l3):
        r = restrictive_verdict(analyze_local_group(l3))
        assert "scope" in r.message

    def test_trivial_degree_3(self):
        a = analyze_local_group(PermutationGroup(3))
        assert a.verdict == RESTRICTIVE_SEMIREGULAR
        assert restrictive_verdict(a).bound == 3
