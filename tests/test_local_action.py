"""On random small intransitive, non-semiregular local groups at n = 2:
the base vertex's local action read off the star, against the slot action
computed on the carrier (``slot_action_by_carrier``), and the canonical
coset key, against every element of its coset.  A draw whose star exceeds
the carrier cap, or whose completion search exhausts, is skipped.
Skipped without hypothesis.
"""

import pytest

hypothesis = pytest.importorskip("hypothesis")

from hypothesis import HealthCheck, assume, given, settings  # noqa: E402
from hypothesis import strategies as st  # noqa: E402

from graphrestrict.amalgam import build_star, validate_star  # noqa: E402
from graphrestrict.classify import (NOT_RESTRICTIVE,  # noqa: E402
                                    analyze_local_group)
from graphrestrict.completion import (Carrier, SearchConfig,  # noqa: E402
                                      find_completion)
from graphrestrict.cosetgraph import local_action  # noqa: E402
from graphrestrict.errors import (CapacityError,  # noqa: E402
                                  CompletionSearchError)
from graphrestrict.perm import Permutation, PermutationGroup  # noqa: E402

from conftest import (  # noqa: E402
    coset_elements_sending_an_identity_point_to_1, slot_action_by_carrier,
    witness_conjugates_onto)

MAX_DEGREE = 6
SEARCH = SearchConfig(carrier_cap=2000)
KEY_CARRIER_CAP = 300     # carrier points of a drawn key case


@st.composite
def intransitive_groups(draw):
    """A degree 3..6 split into two blocks of points, and 1..3 generators
    that each permute both blocks at random: the orbits lie inside the
    blocks, so the group is intransitive."""
    degree = draw(st.integers(min_value=3, max_value=MAX_DEGREE))
    points = draw(st.permutations(range(1, degree + 1)))
    cut = draw(st.integers(min_value=1, max_value=degree - 1))
    gens = []
    for _ in range(draw(st.integers(min_value=1, max_value=3))):
        images = [0] * degree
        for block in (points[:cut], points[cut:]):
            for p, q in zip(block, draw(st.permutations(block))):
                images[p - 1] = q
        gens.append(Permutation(images))
    return PermutationGroup(degree, tuple(gens))


@settings(max_examples=300, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(intransitive_groups())
def test_star_form_matches_carrier(local):
    analysis = analyze_local_group(local)
    assume(analysis.verdict == NOT_RESTRICTIVE)
    try:
        star = build_star(analysis, 2, SEARCH.carrier_cap)
        validate_star(star)
        candidate, _ = find_completion(star, SEARCH)
    except (CapacityError, CompletionSearchError):
        assume(False)
    witness = local_action(star)
    assert witness.induced_generators == slot_action_by_carrier(candidate)
    assert witness.kernel_order == star.tail_size
    assert witness_conjugates_onto(witness, local)


@settings(max_examples=100, deadline=None, derandomize=True, database=None,
          suppress_health_check=[HealthCheck.filter_too_much])
@given(intransitive_groups(), st.integers(min_value=1, max_value=3),
       st.data())
def test_coset_key_sends_an_identity_point_to_1(local, t, data):
    # h is any permutation of the carrier, not only an element of a G: the
    # key picks the one element of rho(A) * h that sends some (e, j) to 1
    analysis = analyze_local_group(local)
    assume(analysis.verdict == NOT_RESTRICTIVE)
    try:
        carrier = Carrier(build_star(analysis, 2, KEY_CARRIER_CAP), t,
                          KEY_CARRIER_CAP)
    except CapacityError:
        assume(False)
    h = Permutation(data.draw(st.permutations(range(1, carrier.degree + 1))))
    [rep] = coset_elements_sending_an_identity_point_to_1(carrier, h)
    assert carrier.coset_key(h.padded) == rep.padded
