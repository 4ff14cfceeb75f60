import functools
import itertools
import random
import tracemalloc

import pytest

from graphrestrict import completion, cosetgraph, perm
from graphrestrict.amalgam import build_star
from graphrestrict.classify import analyze_local_group
from graphrestrict.completion import SearchConfig, find_completion
from graphrestrict.cosetgraph import (FiniteGraph, LocallyLPair,
                                      build_graph, construct_pair,
                                      enumerate_cosets, export_graph,
                                      export_sizes, growth_report,
                                      local_action, parse_graph,
                                      verify_locally_L)
from graphrestrict.errors import (CapacityError, InputError,
                                  NotEnumeratedError, ParseError)
from graphrestrict.perm import Permutation, PermutationGroup, parse_permutation

from conftest import (ORACLE_STARS, canonical_coset_rep,
                      carrier_neighbourhoods,
                      coset_elements_sending_an_identity_point_to_1,
                      coset_key_failure,
                      enumerate_cosets_by_products, graph6_pair_loop, group,
                      kernel_order_by_loop, relations_by_products,
                      slot_action_by_carrier, slot_elements,
                      witness_conjugates_onto)


@pytest.fixture(scope="module")
def result0():
    l0 = group(3, "(1 2)")
    return construct_pair(l0, 2)


@pytest.fixture(scope="module")
def result1():
    l1 = group(5, "(1 2 3)(4 5)")
    return construct_pair(l1, 2)


def hexagon():
    return FiniteGraph.from_edges(6, [(i, (i + 1) % 6) for i in range(6)])


ORDER_CASES = {
    "l0-n2": ((3, "(1 2)"), 2), "l0-n3": ((3, "(1 2)"), 3),
    "l0-n4": ((3, "(1 2)"), 4), "l0-n5": ((3, "(1 2)"), 5),
    "l1-n2": ((5, "(1 2 3)(4 5)"), 2), "l1-n3": ((5, "(1 2 3)(4 5)"), 3),
    "two-fixed-points-n3": ((4, "(1 2)"), 3),
    "three-orbits-n2": ((5, "(1 2)", "(3 4)"), 2),
}


@functools.cache
def constructed(name):
    spec, n = ORDER_CASES[name]
    return construct_pair(group(*spec), n)


def product_index(candidate):
    """The key index of ``enumerate_cosets_by_products``, after checking
    that ``enumerate_cosets`` numbers the cosets as it does: the same
    transitions, and the oracle's ids of the slot elements' cosets as the
    base vertex's neighbours.  The enumeration keeps no key, so the tests
    of keys take the oracle's."""
    carrier = candidate.carrier
    pairs, transitions = enumerate_cosets_by_products(candidate)
    index = dict(pairs)
    table = enumerate_cosets(candidate)
    assert table.transitions == transitions
    assert table.base_neighbours == tuple(
        index[canonical_coset_rep(carrier, e).padded]
        for e in slot_elements(candidate))
    return index


@functools.cache
def constructed_index(name):
    return product_index(constructed(name).candidate)


class TestEnumerateCosets:
    def test_lagrange(self, result0):
        table = enumerate_cosets(result0.candidate)
        assert table.size * result0.report.order_a == result0.report.order_g

    def test_cap_one_gives_implicit(self, result0):
        assert enumerate_cosets(result0.candidate, cap=1) is None

    def test_base_coset_is_zero(self, result0):
        # the identity's coset is rho(A) itself, which rho(A) fixes
        candidate = result0.candidate
        carrier = candidate.carrier
        index = product_index(candidate)
        ident = Permutation.identity(carrier.degree)
        assert index[canonical_coset_rep(carrier, ident).padded] == 0
        rho_rows = enumerate_cosets(candidate).transitions[
            :len(carrier.rho_generators)]
        assert rho_rows and all(row[0] == 0 for row in rho_rows)

    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_keys_match_membership(self, name):
        result = constructed(name)
        keys = constructed_index(name)
        assert coset_key_failure(result.candidate, keys) is None

    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_matches_product_oracle(self, name):
        # product_index asserts the oracle's transitions and base neighbours
        product_index(constructed(name).candidate)

    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_base_neighbours_are_the_slot_keys(self, name):
        candidate = constructed(name).candidate
        index = constructed_index(name)
        assert enumerate_cosets(candidate).base_neighbours == tuple(
            index[key] for key in candidate.slot_keys())

    def test_traced_peak_stays_small(self):
        # L1 n=3: 4,096 keys of degree 324 took 11.4 MB while the whole
        # index was kept; a key now leaves once its row is processed and
        # its last in-entry filled, and the table holds no key
        candidate = constructed("l1-n3").candidate
        tracemalloc.start()
        try:
            table = enumerate_cosets(candidate)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert table.size == 4_096
        assert peak < 7_000_000

    def test_order_closure_skips_canonicalisations(self, monkeypatch):
        # L1 n=3: 4096 cosets and 6 generators give 24,576 entries; those
        # a two-letter relation among the generators fills (18,596 of them,
        # the order closure g^2 = 1 included) canonicalise nothing.  Each of
        # the other 4,095 cosets needs one key, so at least 4,095 are formed
        # (5,990 are: one per other entry, and two per slot key)
        candidate = constructed("l1-n3").candidate
        carrier = candidate.carrier
        calls = []
        rho_index = carrier.rho_index
        monkeypatch.setattr(carrier, "rho_index",
                            lambda x: calls.append(x) or rho_index(x))
        table = enumerate_cosets(candidate)
        assert table.size * len(table.transitions) == 24_576
        assert 4_095 <= len(calls) <= 6_500

    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_relations_hold_on_the_carrier(self, name):
        # every relation the enumeration reads is a product identity on
        # the carrier, each found once, and none is missed
        generators = constructed(name).candidate.group_generators()
        equal, inverse = perm._relations([g.padded for g in generators])
        identity = Permutation.identity(generators[0].degree)
        for a, b, c, d in equal:
            assert generators[a] * generators[b] == generators[c] * generators[d]
        for a, b in inverse:
            assert generators[a] * generators[b] == identity
        expected_equal, expected_inverse = relations_by_products(generators)
        assert (sorted(min(r[:2] + r[2:], r[2:] + r[:2]) for r in equal)
                == sorted(expected_equal))
        assert sorted(inverse) == sorted(expected_inverse)

    def test_relations_confirm_sampled_buckets(self):
        # on 128 points the buckets read every second image only, so
        # (1 3), (5 7) and their product share the identity's bucket; only
        # the whole images tell them apart
        generators = [Permutation.identity(128),
                      parse_permutation("(1 3)", 128),
                      parse_permutation("(5 7)", 128)]
        equal, inverse = perm._relations([g.padded for g in generators])
        expected_equal, expected_inverse = relations_by_products(generators)
        assert set(equal) == expected_equal
        assert sorted(inverse) == sorted(expected_inverse)

    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_cap_refuses_exactly_above_the_coset_count(self, name):
        # the breadth-first search stops on finding coset cap + 1, as it
        # always has: deduced entries name numbered cosets only
        candidate = constructed(name).candidate
        size = len(enumerate_cosets_by_products(candidate)[0])
        for cap in sorted({0, 1, 2, size // 2, size - 1, size, size + 1}):
            table = enumerate_cosets(candidate, cap=cap)
            assert (table is None) == (cap < size)
            if table is not None:
                assert table.size == size

    def test_key_sends_an_identity_point_to_1_on_the_table(self):
        # L1 n=3: 64 seeded cosets of the 4,096, each entered at a random
        # element; every element of the coset is formed
        candidate = constructed("l1-n3").candidate
        carrier = candidate.carrier
        keys = list(constructed_index("l1-n3"))
        rng = random.Random(0)
        for key in rng.sample(keys, 64):
            h = carrier.rho_index(rng.randrange(carrier.size)) * \
                Permutation(key[1:])
            [rep] = coset_elements_sending_an_identity_point_to_1(carrier, h)
            assert carrier.coset_key(h.padded) == rep.padded == key

    @pytest.mark.parametrize("name", ["l0-n2", "l0-n3", "l1-n2",
                                      "two-fixed-points-n3",
                                      "three-orbits-n2"])
    def test_key_sends_an_identity_point_to_1_on_group_elements(self, name):
        # seeded words of length 1..24 in G's generators
        candidate = constructed(name).candidate
        carrier = candidate.carrier
        generators = candidate.group_generators()
        rng = random.Random(1)
        for _ in range(16):
            h = Permutation.identity(carrier.degree)
            for _ in range(rng.randint(1, 24)):
                h = h * rng.choice(generators)
            [rep] = coset_elements_sending_an_identity_point_to_1(carrier, h)
            assert carrier.coset_key(h.padded) == rep.padded

    def test_key_oracle_sees_uncanonical_keys(self, result0, monkeypatch):
        carrier = result0.candidate.carrier
        keys = product_index(result0.candidate)
        monkeypatch.setattr(carrier, "coset_key", lambda padded: padded)
        assert coset_key_failure(result0.candidate, keys) == \
            "same coset produced different keys"

    def test_transitions_act_transitively(self, result0):
        table = enumerate_cosets(result0.candidate)
        n = table.size
        gens = [Permutation(tuple(row[v] + 1 for v in range(n)))
                for row in table.transitions]
        g = PermutationGroup(n, tuple(gens))
        assert len(g.orbit(1)) == n


class TestFiniteGraph:
    """The constructor checks its input on every construction, ``_make``
    and ``_replace`` included."""

    @pytest.mark.parametrize("count, adjacency, message", [
        (3, ((1,), (0,)), "adjacency length does not match vertex count"),
        (3, ((2, 1), (0,), (0,)), "adjacency of 0 not sorted and duplicate-free"),
        (2, ((1, 1), (0,)), "adjacency of 0 not sorted and duplicate-free"),
        (2, ([1], (0,)), "adjacency of 0 not sorted and duplicate-free"),
        (2, ((1,), (0, 2)), "neighbour 2 out of range"),
        (2, ((-1,), ()), "neighbour -1 out of range"),
        (2, ((0,), ()), "loop at vertex 0"),
        (3, ((1,), (0, 2), ()), "edge 1-2 not symmetric"),
        # 0 is in vertex 1's tuple, which is not sorted: the symmetry check
        # of edge 0-1 finds it, and vertex 1's own check refuses the tuple
        (3, ((1,), (2, 0), (1,)),
         "adjacency of 1 not sorted and duplicate-free"),
    ], ids=["length", "unsorted", "duplicate", "list-row", "above-range",
            "below-range", "loop", "asymmetric", "later-unsorted"])
    def test_invalid_input_refused(self, count, adjacency, message):
        with pytest.raises(InputError, match=f"^{message}$"):
            FiniteGraph(count, adjacency)
        with pytest.raises(InputError, match=f"^{message}$"):
            FiniteGraph(vertex_count=count, adjacency=adjacency)
        with pytest.raises(InputError, match=f"^{message}$"):
            FiniteGraph._make((count, adjacency))

    def test_replace_is_checked(self):
        graph = hexagon()
        with pytest.raises(InputError, match="adjacency length"):
            graph._replace(vertex_count=5)
        with pytest.raises(InputError, match="not symmetric"):
            graph._replace(adjacency=((1,),) + graph.adjacency[1:])
        assert graph._replace(adjacency=graph.adjacency) == graph

    def test_valid_input_accepted(self):
        graph = FiniteGraph(3, ((1, 2), (0,), (0,)))
        assert graph == FiniteGraph.from_edges(3, [(0, 1), (2, 0)])
        assert list(graph.edges()) == [(0, 1), (0, 2)]
        assert graph.is_connected()
        assert FiniteGraph(0, ()).is_connected()


class TestBuildGraph:
    def test_l0_pair(self, result0):
        pair = result0
        assert isinstance(pair, LocallyLPair)
        assert pair.valency == 3
        assert pair.stabiliser_order == 8
        assert {len(a) for a in pair.graph.adjacency} == {3}
        assert pair.graph.is_connected()

    def test_l0_n3(self):
        res = construct_pair(group(3, "(1 2)"), 3)
        assert res.stabiliser_order == 16
        assert res.valency == 3

    def test_l1_pair(self, result1):
        assert result1.valency == 5
        assert result1.stabiliser_order == 54

    def test_analysis_of_another_group_refused(self):
        # the local action is read off the analysis's group, so it must be
        # the given group object, not another group or an equal copy
        l0 = group(3, "(1 2)")
        for other in (group(5, "(1 2 3)(4 5)"), group(3, "(1 2)")):
            with pytest.raises(InputError, match="analysis is not of"):
                construct_pair(l0, 2, analysis=analyze_local_group(other))

    @pytest.mark.parametrize("name", ["result0", "result1"])
    def test_adjacency_matches_carrier_oracle(self, name, request):
        result = request.getfixturevalue(name)
        index = product_index(result.candidate)
        oracle = carrier_neighbourhoods(result.candidate, index)
        assert result.graph.adjacency == tuple(
            tuple(sorted(set(nbrs))) for nbrs in oracle)
        assert len(set(oracle[0])) == result.valency

    def test_orbit_stabiliser_identity(self, result0):
        pair = result0
        assert pair.stabiliser_order * pair.vertex_count == result0.report.order_g

    def test_action_generators_are_automorphisms(self, result0):
        pair = result0
        for g in pair.action_generators:
            for u, v in pair.graph.edges():
                gu, gv = g.apply(u + 1) - 1, g.apply(v + 1) - 1
                assert gu in pair.graph.adjacency[gv]

    def test_implicit_mode(self, result0):
        implicit = build_graph(result0.candidate, result0.report,
                               result0.witness, cap=1)
        assert implicit.graph is None and implicit.action_generators is None
        assert implicit.vertex_count is None
        assert implicit.valency == 3
        assert implicit.stabiliser_order == 8
        assert implicit.report == result0.report
        # the base vertex's local action is read off the star
        witness = local_action(implicit.star)
        assert witness == implicit.witness and witness.kernel_order == 4

    def test_rejected_completion_refused(self, result0):
        bad_report = result0.report._replace(v4=False, accepted=False)
        with pytest.raises(InputError):
            build_graph(result0.candidate, bad_report, result0.witness)


# accepted constructions whose |G| is cross-checked against a stabiliser
# chain of G: L0 at n = 2..5, L1 at n = 2 and 3, <(1 2)> on 4 points at n = 3,
# <(1 2), (3 4)> on 5 points at n = 2
class TestOrderOfG:
    """build_graph reads |G| off the coset count in explicit mode; a
    stabiliser chain of G is the independent check."""

    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_order_matches_chain(self, name):
        result = constructed(name)
        candidate = result.candidate
        chain = perm.StabiliserChain(candidate.carrier.degree,
                                     candidate.group_generators())
        assert chain.order() == result.report.order_g

    @pytest.mark.parametrize("name", ["l0-n2", "l1-n2"])
    def test_implicit_mode_order_matches_explicit(self, name):
        result = constructed(name)
        implicit = build_graph(result.candidate,
                               result.report._replace(order_g=None),
                               result.witness, cap=1)
        assert implicit.graph is None
        assert implicit.report.order_g == result.report.order_g

    def test_search_reports_no_order(self, result0):
        _, report = find_completion(result0.star)
        assert report.order_g is None
        assert report._replace(order_g=result0.report.order_g) == result0.report

    @pytest.mark.parametrize("cap, chains", [(None, 0), (1, 1)])
    def test_chain_of_g_only_in_implicit_mode(self, monkeypatch, cap, chains):
        # the search and the explicit graph build no chain at the carrier's
        # degree; the implicit graph builds one, for the accepted candidate
        star = constructed("l0-n3").star
        degree = constructed("l0-n3").candidate.carrier.degree
        real_init = perm.StabiliserChain.__init__
        degrees = []

        def counting_init(self, d, *args, **kwargs):
            degrees.append(d)
            real_init(self, d, *args, **kwargs)

        monkeypatch.setattr(perm.StabiliserChain, "__init__", counting_init)
        candidate, report = find_completion(star)
        witness = local_action(star)
        build_graph(candidate, report, witness,
                    **({} if cap is None else {"cap": cap}))
        assert degrees.count(degree) == chains


class TestLocalAction:
    def test_l0_witness(self, result0):
        w = result0.witness
        assert witness_conjugates_onto(w, group(3, "(1 2)"))
        assert w.kernel_order == 4
        by_edge = {}
        for (edge, _), label in zip(result0.star.slots, w.labels):
            by_edge.setdefault(edge, set()).add(label)
        assert by_edge == {1: {3}, 2: {1, 2}}

    def test_l1_witness(self, result1):
        w = result1.witness
        assert witness_conjugates_onto(w, group(5, "(1 2 3)(4 5)"))
        assert w.kernel_order == 9
        by_edge = {}
        for (edge, _), label in zip(result1.star.slots, w.labels):
            by_edge.setdefault(edge, set()).add(label)
        assert {len(v) for v in by_edge.values()} == {2, 3}

    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_kernel_order_matches_loop(self, name):
        result = constructed(name)
        assert result.witness.kernel_order == \
            kernel_order_by_loop(result.candidate)

    def test_implicit_kernel_order_matches_loop(self, result1):
        implicit = build_graph(result1.candidate, result1.report,
                               result1.witness, cap=1)
        assert local_action(implicit.star).kernel_order \
            == kernel_order_by_loop(implicit.candidate) == 9

    def test_induced_group_order(self, result0):
        w = result0.witness
        induced = PermutationGroup(3, w.induced_generators)
        assert induced.order() == 2  # |A| / kernel = 8/4

    @pytest.mark.parametrize("cap", [cosetgraph.DEFAULT_VERTEX_CAP, 1],
                             ids=["explicit", "implicit"])
    @pytest.mark.parametrize("name", sorted(ORACLE_STARS))
    def test_slot_action_matches_carrier_oracle(self, name, cap):
        spec, n = ORACLE_STARS[name]
        pair = construct_pair(group(*spec), n, vertex_cap=cap)
        assert (pair.graph is None) is (cap == 1)
        assert pair.witness.induced_generators == \
            slot_action_by_carrier(pair.candidate)

    def test_reads_the_star_alone(self, monkeypatch):
        # no product at the carrier's degree and no rho row: every product
        # local_action forms acts on the d neighbour slots
        result = constructed("l1-n3")
        degrees, rows = [], []
        real_mul = Permutation.__mul__

        def counting_mul(self, other):
            degrees.append(self.degree)
            return real_mul(self, other)

        monkeypatch.setattr(Permutation, "__mul__", counting_mul)
        monkeypatch.setattr(completion.Carrier, "rho_index",
                            lambda self, x: rows.append(x))
        assert local_action(result.star) == result.witness
        assert rows == []
        assert degrees and set(degrees) == {result.valency}


class TestWitnessIsNotTheLabels:
    """The stored witness is the lexicographically first conjugating
    bijection, which need not be the label permutation, so the search
    stays in the construction."""

    LOCAL = (9, "(1 4 3 9 8 2)(5 6 7)")

    def test_first_bijection_differs_from_labels(self):
        local = group(*self.LOCAL)
        witness = local_action(build_star(analyze_local_group(local), 2))
        assert witness.labels == (5, 7, 6, 1, 2, 3, 4, 8, 9)
        assert witness.conjugation.images == (5, 6, 7, 1, 4, 8, 2, 3, 9)
        assert witness.conjugation.images != witness.labels
        induced = [g.images for g in witness.induced_generators
                   if not g.is_identity()]
        assert PermutationGroup(9, witness.induced_generators).order() \
            == local.order()
        members = {g.images for g in local.elements()}

        def conjugates_into(s):
            # s^-1 * g * s sends s(p) to s(g(p)), 1-based
            for g in induced:
                image = [0] * 9
                for p, q in zip(s, g):
                    image[p - 1] = s[q - 1]
                if tuple(image) not in members:
                    return False
            return True

        first = next(s for s in itertools.permutations(range(1, 10))
                     if conjugates_into(s))
        assert first == witness.conjugation.images


class TestLoopClosure:
    """build_graph trusts V1-V4 for loops, valency, symmetry and
    connectivity; the independent verifier closes the loop on every
    constructed pair."""

    @pytest.mark.parametrize("name", sorted(ORDER_CASES))
    def test_constructed_pair_verifies(self, name):
        pair = constructed(name)
        cert = verify_locally_L(pair.graph, pair.action_generators,
                                group(*ORDER_CASES[name][0]))
        assert cert.vertex_transitive
        assert cert.locally_l
        assert cert.stabiliser_order == pair.stabiliser_order


class TestVerifyLocallyL:
    def test_hexagon_rotation_trivial_local_group(self):
        rot = parse_permutation("(1 2 3 4 5 6)", 6)
        cert = verify_locally_L(hexagon(), (rot,), PermutationGroup(2))
        assert cert.locally_l and cert.stabiliser_order == 1
        assert cert.semiregular_bound_ok is True

    def test_hexagon_dihedral(self):
        rot = parse_permutation("(1 2 3 4 5 6)", 6)
        refl = parse_permutation("(2 6)(3 5)", 6)
        cert = verify_locally_L(hexagon(), (rot, refl), group(2, "(1 2)"))
        assert cert.locally_l and cert.stabiliser_order == 2
        assert cert.semiregular_bound_ok is True

    def test_hexagon_rotation_wrong_local_group(self):
        rot = parse_permutation("(1 2 3 4 5 6)", 6)
        cert = verify_locally_L(hexagon(), (rot,), group(2, "(1 2)"))
        assert not cert.locally_l

    def test_non_automorphism_rejected(self):
        bad = parse_permutation("(1 2)", 6)
        with pytest.raises(InputError):
            verify_locally_L(hexagon(), (bad,), PermutationGroup(2))

    def test_loop_closure_on_constructed_pair(self, result0):
        pair = result0
        cert = verify_locally_L(pair.graph, pair.action_generators,
                                group(3, "(1 2)"))
        assert cert.locally_l
        assert cert.stabiliser_order == pair.stabiliser_order == 8

    def test_disconnected_graph_rejected(self):
        two_triangles = FiniteGraph.from_edges(
            6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5)])
        assert not two_triangles.is_connected()
        with pytest.raises(InputError):
            verify_locally_L(two_triangles, (), PermutationGroup(2))

    def test_empty_graph_refused(self):
        with pytest.raises(InputError,
                           match="^degree must be a positive integer$"):
            verify_locally_L(FiniteGraph(0, ()), (), PermutationGroup(1))

    def test_intransitive_action_reported_not_raised(self):
        # connected graph, but the claimed group moves no vertex far enough
        path = FiniteGraph.from_edges(3, [(0, 1), (1, 2)])
        swap_ends = parse_permutation("(1 3)", 3)
        cert = verify_locally_L(path, (swap_ends,), PermutationGroup(1))
        assert cert.vertex_transitive is False
        assert cert.locally_l is False
        assert "transitive" in cert.detail


class TestGrowthReport:
    def test_l0_column(self, l0):
        table = growth_report(l0, 2, 4)
        assert [r.stabiliser_order for r in table.rows] == [8, 16, 32]
        assert all(r.accepted for r in table.rows)
        assert table.growth_ratio == 2
        for a, b in zip(table.rows, table.rows[1:]):
            assert b.stabiliser_order == a.stabiliser_order * 2

    def test_empty_range(self, l0):
        assert growth_report(l0, 2, 1).rows == ()
        assert growth_report(l0, 0, -1).rows == ()

    @pytest.mark.parametrize("n_values", [(-1, 2), (1, 1), (0, 10 ** 9)])
    def test_n_below_two_refused(self, l0, n_values, monkeypatch):
        # refused before any row is built
        built = []
        monkeypatch.setattr("graphrestrict.cosetgraph.construct_pair",
                            lambda *args, **kwargs: built.append(args))
        with pytest.raises(InputError, match="n must be at least 2"):
            growth_report(l0, *n_values)
        assert built == []

    def test_wrong_verdict(self, l2):
        with pytest.raises(InputError):
            growth_report(l2, 2, 2)

    def test_failed_row_recorded(self, l0):
        table = growth_report(l0, 2, 3, SearchConfig(max_copies=0))
        assert all(not r.accepted for r in table.rows)
        assert all(r.failure and r.report is None for r in table.rows)

    def test_capacity_row_ends_the_table(self, l0):
        # |A| = 2 * 2^n exceeds a carrier cap of 64 at n = 6, and so does
        # every larger n
        search = SearchConfig(carrier_cap=64)
        table = growth_report(l0, 2, 9, search)
        assert [r.n for r in table.rows] == [2, 3, 4, 5, 6]
        for row in table.rows[:-1]:
            assert growth_report(l0, row.n, row.n, search).rows == (row,)
        last = table.rows[-1]
        assert not last.accepted and last.stabiliser_order == 128
        assert last.failure == ("cap 'carrier cap' = 64 exceeded "
                                "(needed at least 128)")

    def test_range_starting_beyond_a_cap_is_refused(self, l0):
        with pytest.raises(CapacityError, match="'carrier cap' = 64"):
            growth_report(l0, 6, 7, SearchConfig(carrier_cap=64))


class TestOtherFamilies:
    def test_two_fixed_points_identity_twist_edge(self):
        # k = 3, with a whole-group edge carrying the identity twist; the
        # completion needs the second copy from the start
        local = group(4, "(1 2)")
        res = construct_pair(local, 2)
        assert res.star.analysis.orbit_reps == (3, 1, 4)
        assert res.candidate.strategy.t == 2
        assert res.stabiliser_order == 8
        assert res.valency == 4
        cert = verify_locally_L(res.graph, res.action_generators,
                                local)
        assert cert.locally_l and cert.stabiliser_order == 8

    def test_nonabelian_anchor_stabiliser(self):
        # the symmetric group on {1,2,3} plus a fixed point: the anchor
        # stabiliser is the whole nonabelian group of order 6
        local = group(4, "(1 2)", "(1 2 3)")
        res = construct_pair(local, 2)
        assert res.star.analysis.orbit_reps == (4, 1)
        assert res.star.analysis.stabiliser_orders == (6, 2)
        assert res.stabiliser_order == 6 * 6 ** 2
        assert res.valency == 4
        assert res.witness.kernel_order == 36
        assert witness_conjugates_onto(res.witness, local)

    def test_induced_generators_act_on_the_slots(self, result0):
        induced = PermutationGroup(result0.valency,
                                   result0.witness.induced_generators)
        assert induced.degree == 3
        assert induced.order() == 2

    @pytest.mark.parametrize("degree,gens", [
        (5, ("(1 2)", "(3 4)")),       # three orbits, anchor a fixed point
        (4, ("(1 2 3)",)),             # order-3 rotation plus a fixed point
        (5, ("(1 2)(3 4)",)),          # free on four points plus a fixed point
    ])
    def test_pipeline_battery(self, degree, gens):
        local = group(degree, *gens)
        res = construct_pair(local, 2)
        s = res.star.analysis.stabiliser_orders[0]
        assert res.report.accepted
        assert res.stabiliser_order == local.order() * s ** 2
        assert res.valency == degree
        assert res.witness.kernel_order == s ** 2
        assert witness_conjugates_onto(res.witness, local)
        cert = verify_locally_L(res.graph, res.action_generators,
                                local)
        assert cert.locally_l
        assert cert.stabiliser_order == res.stabiliser_order


class TestExports:
    def test_edge_list_triangle(self):
        tri = FiniteGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert export_graph(tri, "edge-list") == "0 1\n0 2\n1 2\n"

    def test_graph6_triangle(self):
        tri = FiniteGraph.from_edges(3, [(0, 1), (0, 2), (1, 2)])
        assert export_graph(tri, "graph6") == b"Bw"

    def test_adjacency_single_edge(self):
        e = FiniteGraph.from_edges(2, [(0, 1)])
        assert export_graph(e, "adjacency-list") == "0: 1\n1: 0\n"

    def test_graph6_round_trip(self, result0):
        g = result0.graph
        assert parse_graph(export_graph(g, "graph6")) == g

    def test_edge_list_round_trip(self, result0):
        g = result0.graph
        assert parse_graph(export_graph(g, "edge-list")) == g

    def test_adjacency_round_trip(self, result0):
        g = result0.graph
        assert parse_graph(export_graph(g, "adjacency-list")) == g

    def test_graph6_large_order_prefix(self):
        path = FiniteGraph.from_edges(63, [(i, i + 1) for i in range(62)])
        data = export_graph(path, "graph6")
        assert data[0] == 126
        assert parse_graph(data) == path

    def test_graph6_export_is_one_buffer(self, result1):
        # the export of the 1536-vertex L1 n=2 graph is built in place: a
        # bytes object copied into a bytearray would peak at twice its size
        tracemalloc.start()
        try:
            data = export_graph(result1.graph, "graph6")
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(data) > 100_000
        assert peak < 1.25 * len(data)

    @pytest.mark.parametrize("name", ["result0", "result1"])
    def test_export_sizes_bound_the_exports(self, name, request):
        pair = request.getfixturevalue(name)
        sizes = export_sizes(pair.vertex_count, pair.valency)
        assert sizes["graph6"] == len(export_graph(pair.graph, "graph6"))
        for fmt in ("edge-list", "adjacency-list"):
            assert sizes[fmt] >= len(export_graph(pair.graph, fmt))

    def test_export_sizes_graph6_formula(self):
        # L1 n=4 (40,960 vertices) at about 140 MB, and the 294,912 vertices
        # of <(1 2)> on 10 points at n=2 at about 7.2 GB
        assert export_sizes(40_960, 5)["graph6"] == 4 + 139_806_720
        assert export_sizes(294_912, 10)["graph6"] == 8 + 7_247_732_736

    def test_implicit_export_refused(self, result0):
        implicit = build_graph(result0.candidate, result0.report,
                               result0.witness, cap=1)
        with pytest.raises(NotEnumeratedError):
            export_graph(implicit, "edge-list")

    def test_unknown_format(self, result0):
        with pytest.raises(InputError):
            export_graph(result0.graph, "dot")

    def test_parse_errors(self):
        with pytest.raises(ParseError):
            parse_graph("")

    # a form feed and a bare carriage return each end a line for
    # str.splitlines, so in both the byte is on the third line
    @pytest.mark.parametrize("data,line,column", [
        (b"0: 1\x0c\n\xff: 0\n", 3, 1),
        (b"0 1\r1 2\r2 \xff\n", 3, 3),
    ])
    def test_non_ascii_byte_on_the_line_splitlines_gives(self, data, line,
                                                          column):
        with pytest.raises(ParseError, match="non-ASCII byte 0xff") as error:
            parse_graph(data)
        assert (error.value.line, error.value.column) == (line, column)
        lines = data.replace(b"\xff", b"x").decode().splitlines()
        assert lines[line - 1][column - 1] == "x"

    @pytest.mark.parametrize("text,byte", [
        ("0 \u00b2\n", "0xc2"),        # a superscript two, a digit to str
        ("\u0661 0\n", "0xd9"),        # an Arabic-Indic one, int() reads 1
        ("0 \ud800\n", "0xed"),        # a lone surrogate
    ])
    def test_text_takes_the_ascii_path(self, text, byte):
        # every format is ASCII, text too: the first non-ASCII character
        # is named by its first UTF-8 byte
        with pytest.raises(ParseError,
                           match=f"non-ASCII byte {byte}") as error:
            parse_graph(text)
        assert (error.value.line, error.value.column) == (1, text.index(
            next(c for c in text if not c.isascii())) + 1)

    def test_adjacency_message_names_the_same_line(self):
        with pytest.raises(ParseError, match="bad adjacency line") as error:
            parse_graph("0: 1\x0c\nx: 0\n")
        assert error.value.line == 3

    def test_bare_carriage_return_edge_list(self):
        assert parse_graph(b"0 1\r1 2\r") == FiniteGraph.from_edges(
            3, [(0, 1), (1, 2)])

    # an edge-list line is two ASCII digit strings; any other line makes a
    # one-line file a graph6 candidate and a longer edge list unrecognised
    # ("0:1" alone is an adjacency list).  Each line is read alone and
    # after the valid line "0 1"
    UNRECOGNIZED = ("ParseError", "unrecognized graph format")

    @pytest.mark.parametrize("line, alone, after_valid", [
        ("0 1", (2, [(0, 1)]), (2, [(0, 1)])),
        ("1\t2", (3, [(1, 2)]), (3, [(0, 1), (1, 2)])),
        ("  2   0  ", (3, [(0, 2)]), (3, [(0, 1), (0, 2)])),
        ("007 3", (8, [(3, 7)]), (8, [(0, 1), (3, 7)])),
        ("0:1", (2, [(0, 1)]), UNRECOGNIZED),
        ("0 1 2", ("ParseError", "invalid graph6 byte 48"), UNRECOGNIZED),
        ("0 x", ("ParseError", "invalid graph6 byte 48"), UNRECOGNIZED),
        ("-1 2", ("ParseError", "invalid graph6 byte 45"), UNRECOGNIZED),
        ("+1 2", ("ParseError", "invalid graph6 byte 43"), UNRECOGNIZED),
        ("1_0 2", ("ParseError", "invalid graph6 byte 49"), UNRECOGNIZED),
        ("0 1.5", ("ParseError", "invalid graph6 byte 48"), UNRECOGNIZED),
        ("1", ("ParseError", "invalid graph6 byte 49"), UNRECOGNIZED),
        ("0 0", ("InputError", "loop at vertex 0"),
         ("InputError", "loop at vertex 0")),
    ])
    def test_edge_list_lines(self, line, alone, after_valid):
        def outcome(text):
            try:
                g = parse_graph(text)
            except (ParseError, InputError) as exc:
                return type(exc).__name__, str(exc)
            return g.vertex_count, sorted(g.edges())

        assert outcome(f"{line}\n") == alone
        assert outcome(f"0 1\n{line}\n") == after_valid

    def test_graph6_truncated_rejected(self):
        # "Dhc" is the 5-cycle; dropping its last data byte must not parse
        # as a path
        assert sorted(parse_graph(b"Dhc").edges()) == [
            (0, 1), (0, 4), (1, 2), (2, 3), (3, 4)]
        with pytest.raises(ParseError):
            parse_graph(b"Dh")

    def test_graph6_trailing_bytes_rejected(self):
        with pytest.raises(ParseError):
            parse_graph(b"Dhc~~")

    def test_graph6_padding_bits_rejected(self):
        # "Dhd" sets a padding bit after the 10 edge bits of "Dhc"
        with pytest.raises(ParseError):
            parse_graph(b"Dhd")

    def test_graph6_truncated_size_rejected(self):
        with pytest.raises(ParseError):
            parse_graph(b"~?")

    def test_graph6_matches_networkx(self, result0):
        nx = pytest.importorskip("networkx")
        graphs = [result0.graph, hexagon(),
                  FiniteGraph.from_edges(63, [(i, i + 1) for i in range(62)]),
                  FiniteGraph.from_edges(1, []),
                  FiniteGraph.from_edges(7, [(0, 6), (2, 5), (3, 4)])]
        for g in graphs:
            data = export_graph(g, "graph6")
            theirs = nx.from_graph6_bytes(data)
            assert theirs.number_of_nodes() == g.vertex_count
            assert sorted(tuple(sorted(e)) for e in theirs.edges()) == \
                sorted(g.edges())
            assert parse_graph(nx.to_graph6_bytes(theirs, header=False)) == g


def random_graph(rng, n, p):
    return FiniteGraph.from_edges(
        n, [(u, v) for v in range(n) for u in range(v) if rng.random() < p])


def graph6_cases():
    """Graphs around the size-byte boundary (62/63 vertices) and every
    padding length, plus a sparse one of 300 vertices."""
    rng = random.Random(6)
    graphs = [FiniteGraph.from_edges(n, []) for n in (0, 1, 2)]
    graphs += [FiniteGraph.from_edges(n, [(u, v) for v in range(n)
                                          for u in range(v)])
               for n in (2, 3, 4, 5, 6, 7)]
    graphs += [random_graph(rng, n, 0.3) for n in range(3, 12)]
    graphs += [random_graph(rng, n, 0.1) for n in (61, 62, 63, 64, 130)]
    graphs.append(random_graph(rng, 300, 0.02))
    graphs.append(hexagon())
    return graphs


class TestGraph6:
    def test_export_matches_pair_loop(self, result0, result1):
        for g in graph6_cases() + [result0.graph, result1.graph]:
            assert export_graph(g, "graph6") == graph6_pair_loop(g)

    def test_export_matches_networkx(self, result0):
        nx = pytest.importorskip("networkx")
        for g in graph6_cases() + [result0.graph]:
            theirs = nx.Graph()
            theirs.add_nodes_from(range(g.vertex_count))
            theirs.add_edges_from(g.edges())
            assert export_graph(g, "graph6") + b"\n" == nx.to_graph6_bytes(
                theirs, header=False)

    def test_parse_round_trip(self, result1):
        for g in graph6_cases() + [result1.graph]:
            assert parse_graph(export_graph(g, "graph6")) == g
            assert parse_graph(b">>graph6<<" + graph6_pair_loop(g)) == g

    def test_every_padding_bit_checked(self):
        # 5 vertices: 10 data bits, 2 padding bits; 6: 15 bits, 3 padding
        for n in (5, 6):
            data = bytearray(export_graph(FiniteGraph.from_edges(n, []),
                                          "graph6"))
            for bit in range(6 * (len(data) - 1) - n * (n - 1) // 2):
                bad = bytearray(data)
                bad[-1] = ((bad[-1] - 63) | 1 << bit) + 63
                with pytest.raises(ParseError, match="padding"):
                    parse_graph(bytes(bad))

    def test_invalid_byte_named(self):
        with pytest.raises(ParseError, match="invalid graph6 byte 62"):
            parse_graph(b"D>c")


class TestVertexCap:
    """parse_graph refuses a vertex count above the cap before it builds
    anything per vertex."""

    @pytest.mark.parametrize("data", [
        "0 2000000000\n",                  # edge list
        "0: 2000000000\n",                 # adjacency list
        b"~~?B?????\n",                    # graph6, 3 * 2^24 vertices
    ])
    def test_oversized_graph_refused(self, data):
        with pytest.raises(CapacityError) as err:
            parse_graph(data, vertex_cap=1000)
        assert err.value.cap_name == "vertices"

    def test_cap_is_inclusive(self):
        assert parse_graph("0 5\n", vertex_cap=6).vertex_count == 6
        with pytest.raises(CapacityError):
            parse_graph("0 5\n", vertex_cap=5)

    def test_adjacency_counts_unlisted_neighbours(self):
        # vertex 2 has no line of its own; it is still a vertex
        g = parse_graph("0: 1\n1: 0 2\n")
        assert g.vertex_count == 3
        assert sorted(g.edges()) == [(0, 1), (1, 2)]


class TestVerifierChecks:
    def test_verifier_builds_one_chain_of_degree_n(self, result0,
                                                   monkeypatch):
        # transitivity, G_0 and |G_0| all come from the one chain of
        # degree n, based at vertex 0; the induced action's chains have
        # degree valency < n
        n = result0.vertex_count
        real_chain = perm.StabiliserChain
        built = []

        def tracked_chain(degree, *args, **kwargs):
            if degree == n:
                built.append(kwargs.get("base_prefix"))
            return real_chain(degree, *args, **kwargs)

        monkeypatch.setattr(perm, "StabiliserChain", tracked_chain)
        cert = verify_locally_L(result0.graph,
                                result0.action_generators,
                                group(3, "(1 2)"))
        assert cert.locally_l
        assert built == [(1,)] and n > cert.valency

    @pytest.mark.parametrize("name", ["result0", "result1", "hexagon"])
    def test_vertex_chain_gives_the_order_of_g(self, name, request):
        # |G| is |G_0| times the orbit of vertex 0, as the verifier reads
        # it off its one chain; the unprefixed chain is the oracle
        if name == "hexagon":
            graph, local, order_g = hexagon(), group(2, "(1 2)"), 12
            gens = (parse_permutation("(1 2 3 4 5 6)", 6),
                    parse_permutation("(2 6)(3 5)", 6))
        else:
            pair = request.getfixturevalue(name)
            graph, gens = pair.graph, pair.action_generators
            local, order_g = pair.star.local_group, pair.report.order_g
        n = graph.vertex_count
        vertex_chain = perm.StabiliserChain(n, gens, base_prefix=(1,))
        assert vertex_chain.order() == perm.StabiliserChain(n, gens).order()
        assert vertex_chain.order() == order_g
        cert = verify_locally_L(graph, gens, local)
        assert cert.vertex_transitive and cert.locally_l
        assert cert.stabiliser_order * n == order_g
