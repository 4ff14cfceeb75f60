import sys
from pathlib import Path

import pytest

_SRC = str(Path(__file__).resolve().parent.parent / "src")
if _SRC not in sys.path:
    sys.path.insert(0, _SRC)

from graphrestrict.perm import Permutation, PermutationGroup, parse_permutation


def group(degree, *gen_strings):
    return PermutationGroup(
        degree, tuple(parse_permutation(s, degree) for s in gen_strings))


@pytest.fixture
def l0():
    """Generated by (1 2) on {1,2,3}: intransitive, non-semiregular."""
    return group(3, "(1 2)")


@pytest.fixture
def l1():
    """Generated by (1 2 3)(4 5) on {1..5}."""
    return group(5, "(1 2 3)(4 5)")


@pytest.fixture
def l2():
    """Generated by (1 2)(3 4) on {1..4}: intransitive, semiregular."""
    return group(4, "(1 2)(3 4)")


@pytest.fixture
def l3():
    """Generated by (1 2 3) on {1,2,3}: transitive."""
    return group(3, "(1 2 3)")


@pytest.fixture
def s3():
    return group(3, "(1 2)", "(1 2 3)")


# --- independent oracles, written against raw image tuples on purpose -----


def tuple_mul(a, b):
    """Left-to-right product of 0-based image tuples."""
    return tuple(b[i] for i in a)


def tuple_inv(a):
    out = [0] * len(a)
    for i, j in enumerate(a):
        out[j] = i
    return tuple(out)


def as_tuple(p: Permutation):
    return tuple(i - 1 for i in p.images)


def brute_elements(degree, gens):
    """Breadth-first closure over raw tuples: the order/membership oracle."""
    ident = tuple(range(degree))
    known = {ident}
    frontier = [ident]
    raw = [as_tuple(g) for g in gens]
    while frontier:
        nxt = []
        for x in frontier:
            for g in raw:
                y = tuple_mul(x, g)
                if y not in known:
                    known.add(y)
                    nxt.append(y)
        frontier = nxt
    return known


def brute_core(group_elements, sub_elements):
    """Literal intersection of all conjugates of the subgroup."""
    core = set(sub_elements)
    for g in group_elements:
        g_inv = tuple_inv(g)
        core &= {tuple_mul(tuple_mul(g_inv, h), g) for h in sub_elements}
    return core


def carrier_core_of_rho(candidate):
    """Element indices x with every G-conjugate of rho(x) inside rho(A),
    pruned on the carrier: each survivor is conjugated by every generator of
    G and its inverse as full permutations, then looked up in rho(A)."""
    carrier = candidate.carrier
    conjugators = []
    for g in candidate.group_generators():
        conjugators.append(g)
        inv = g.inverse()
        if inv != g:
            conjugators.append(inv)
    survivors = set(range(carrier.size))
    changed = True
    while changed:
        changed = False
        for ia in tuple(survivors):
            x = carrier.rho_index(ia)
            for u in conjugators:
                target = carrier.membership_index(u.inverse() * x * u)
                if target is None or target not in survivors:
                    survivors.discard(ia)
                    changed = True
                    break
    return survivors


def carrier_neighbourhoods(candidate, table):
    """Neighbour ids of every coset, recomputed on the carrier: the coset of
    vertex v is keyed by its canonical representative's images, and its
    neighbours are the canonical keys of e * rep over the slot elements e."""
    carrier = candidate.carrier
    star = carrier.star
    slot_elems = [candidate.betas[i - 1] * carrier.rho_index(a)
                  for i in range(1, star.k + 1)
                  for a in star.edge(i).right_transversal]
    reps = {v: Permutation(key) for key, v in table.index.items()}
    return [[table.index[carrier.canonical_coset_rep(e * reps[v]).images]
             for e in slot_elems]
            for v in range(table.size)]
