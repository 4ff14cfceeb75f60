"""Relator walks on random small groups whose generators satisfy short
relations: involutions, powers and conjugates of one another, and elements
of disjoint support.  The chain that skips the walks' last edges must be
bit for bit the chain that sifts every Schreier generator, each skipped
generator must sift to the identity, and the relations the chain finds once
must be, per level, those among the level's generators.  Skipped without
hypothesis.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphrestrict.perm import Permutation, StabiliserChain  # noqa: E402

from conftest import (ReferenceChain, chain_snapshot, product_sift,  # noqa: E402
                      reference_inverse, reference_is_identity,
                      reference_mul, relations_by_products,
                      skipped_by_walks)

MAX_DEGREE = 9


def inverse(level, q):
    return reference_inverse(level.element(q))


@st.composite
def related_generators(draw):
    """A degree 2..9 and 1..5 generators, each a random permutation, an
    involution, or a power, a conjugate or a disjoint-support partner of
    an earlier one."""
    degree = draw(st.integers(min_value=2, max_value=MAX_DEGREE))
    shuffled = st.permutations(list(range(1, degree + 1)))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=5))):
        kind = draw(st.sampled_from(
            ["random", "involution", "power", "conjugate", "disjoint"]
            if gens else ["random", "involution"]))
        if kind == "random":
            g = Permutation(draw(shuffled))
        elif kind == "involution":
            points = draw(shuffled)
            pairs = draw(st.integers(min_value=1, max_value=degree // 2))
            g = Permutation.from_cycles(
                degree, [points[2 * i:2 * i + 2] for i in range(pairs)])
        elif kind == "power":
            g = draw(st.sampled_from(gens)) ** draw(st.integers(2, 5))
        elif kind == "conjugate":
            g = draw(st.sampled_from(gens)).conjugate(
                draw(st.sampled_from(gens)))
        else:   # a cycle on points the earlier generator fixes
            fixed = list(draw(st.sampled_from(gens)).fixed_points())
            if len(fixed) < 2:
                continue
            g = Permutation.from_cycles(degree, [draw(st.permutations(fixed))])
        gens.append(g)
    return degree, gens


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(related_generators())
def test_walk_skips_keep_the_chain(case):
    degree, gens = case
    chain = StabiliserChain(degree, gens)
    assert chain_snapshot(chain) == chain_snapshot(
        ReferenceChain(degree, gens))
    for i, lev in enumerate(chain.levels):
        expected = skipped_by_walks(lev)
        for j, flags in enumerate(lev.skipped()):
            s = lev.gens[j]
            points = {p for p, flag in enumerate(flags) if flag}
            assert points == expected[j], (i, j)
            for p in points:
                x = reference_mul(reference_mul(lev.element(p), s),
                                  inverse(lev, s.apply(p)))
                residue, _ = product_sift(chain.levels, x, i + 1, inverse)
                assert reference_is_identity(residue), (i, p, j)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(related_generators())
def test_level_relations_are_the_products(case):
    # found once per chain as the generators arrive, read per level
    degree, gens = case
    chain = StabiliserChain(degree, gens)
    for lev in chain.levels:
        equal, inverse = lev.relations()
        expected_equal, expected_inverse = relations_by_products(lev.gens)
        assert sorted(equal) == sorted(expected_equal), lev.point
        assert sorted(inverse) == sorted(expected_inverse), lev.point
