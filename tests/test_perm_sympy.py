"""StabiliserChain order and membership against sympy.combinatorics.

sympy shares no code with the chain, so it checks the permutation kernel
independently.  Both libraries generate the same set of permutations from a
generating set whatever their composition conventions, so order and
membership must agree exactly.  Skipped without hypothesis or sympy.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")
combinatorics = pytest.importorskip("sympy.combinatorics")

from hypothesis import given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphrestrict.perm import Permutation, StabiliserChain  # noqa: E402

MAX_DEGREE = 12


@st.composite
def generator_sets(draw):
    """A degree 1..12, 1..3 generators of that degree, and 5 test elements,
    all as 0-based image lists."""
    degree = draw(st.integers(min_value=1, max_value=MAX_DEGREE))
    perms = st.permutations(list(range(degree)))
    gens = draw(st.lists(perms, min_size=1, max_size=3))
    probes = draw(st.lists(perms, min_size=5, max_size=5))
    return degree, gens, probes


def ours(images):
    return Permutation(i + 1 for i in images)


@settings(max_examples=150, deadline=None, derandomize=True, database=None)
@given(generator_sets(), st.data())
def test_order_and_membership_match_sympy(case, data):
    """Also on a chain whose base starts at a drawn point, as ``verify``'s
    starts at vertex 0: the order must not depend on the base."""
    degree, gens, probes = case
    prefix = data.draw(st.sampled_from(
        [()] + [(p,) for p in range(1, degree + 1)]))
    chain = StabiliserChain(degree, [ours(g) for g in gens],
                            base_prefix=prefix)
    theirs = combinatorics.PermutationGroup(
        [combinatorics.Permutation(g) for g in gens])
    assert chain.order() == theirs.order()
    for g in gens:
        assert chain.contains(ours(g))
    for x in probes:
        assert chain.contains(ours(x)) == theirs.contains(
            combinatorics.Permutation(x))


@settings(max_examples=60, deadline=None, derandomize=True, database=None)
@given(generator_sets(), st.data())
def test_products_of_generators_are_members(case, data):
    """Words in the generators are members; the probes' verdicts above would
    mostly be "no" for small groups, so this checks the "yes" side."""
    degree, gens, _ = case
    word = data.draw(st.lists(st.sampled_from(gens), min_size=1, max_size=6))
    element = Permutation.identity(degree)
    product = combinatorics.Permutation(list(range(degree)))
    for g in word:
        element = element * ours(g)
        product = product * combinatorics.Permutation(g)
    chain = StabiliserChain(degree, [ours(g) for g in gens])
    assert element.images == tuple(i + 1 for i in product.array_form)
    assert chain.contains(element)
