import importlib.util
import random
import sys
from pathlib import Path

import pytest

# this tree's src, unless graphrestrict is importable already (from the
# PYTHONPATH or an installed copy): then that package is the one tested
_SRC = str(Path(__file__).resolve().parent.parent / "src")
if importlib.util.find_spec("graphrestrict") is None:
    sys.path.insert(0, _SRC)

import graphrestrict
from graphrestrict import perm
from graphrestrict.errors import CapacityError
from graphrestrict.perm import Permutation, PermutationGroup, parse_permutation

# the directory the tested graphrestrict package was imported from, for the
# PYTHONPATH of the tests that run it in a child process
PACKAGE_ROOT = str(Path(graphrestrict.__file__).resolve().parent.parent)


def pytest_report_header(config):
    return f"graphrestrict: {Path(graphrestrict.__file__).resolve().parent}"


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


def semiprimitive_by_elements(degree, gens):
    """Semiprimitivity tested element by element: every non-identity element
    with a fixed point must have a transitive normal closure, here the
    closure of the element under conjugation by the generators."""
    raw = [as_tuple(g) for g in gens]
    for x in brute_elements(degree, gens):
        if x == tuple(range(degree)) or all(x[p] != p for p in range(degree)):
            continue
        closure = [x]
        seen = {x}
        for y in closure:
            for g in raw:
                z = tuple_mul(tuple_mul(tuple_inv(g), y), g)
                if z not in seen:
                    seen.add(z)
                    closure.append(z)
        reached = [0]
        for p in reached:
            for z in closure:
                if z[p] not in reached:
                    reached.append(z[p])
        if len(reached) != degree:
            return False
    return True


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


def conjugation_map(carrier, beta):
    """The conjugation map of beta, literally: for each element index x in
    order, the index of beta^-1 * rho(x) * beta, or -1 when that conjugate
    lies outside rho(A)."""
    out = []
    for x in range(carrier.size):
        y = carrier.membership_index(
            beta.inverse() * carrier.rho_index(x) * beta)
        out.append(-1 if y is None else y)
    return out


def index_mul(star, x, y):
    """x * y on element indices, read from the star's row of y (the star
    multiplies whole rows, not single pairs)."""
    return star.right_row(y)[x]


def index_inverses(star):
    """``inv[x]``, the element index of x^-1, for every x: each element of A
    inverted coordinate-wise by the decoded algebra."""
    dec = DecodedStar(star)
    return tuple(dec.index[dec.inverse(e)] for e in dec.elements)


def rho_closure(carrier, generators) -> int:
    """Order of the subgroup of rho(A) generated by rho of the given element
    indices: the number of elements reached from the identity under right
    multiplication by the generators, read off A's index rows.  Every rho
    row is a row of A's right regular action, so rho(x) * rho(g) =
    rho(x * g), and distinct indices give distinct rows."""
    rows = [carrier.star.right_row(g) for g in generators]
    reached = [0]
    seen = {0}
    for x in reached:
        for row in rows:
            y = row[x]
            if y not in seen:
                seen.add(y)
                reached.append(y)
    return len(reached)


def full_map_v1(star, i, conjugates):
    """V1 over the whole conjugation map of beta_i: it is defined (>= 0)
    exactly on the element indices of C_i."""
    members = set(star.edge(i).subgroup_indices)
    return all((y >= 0) == (x in members) for x, y in enumerate(conjugates))


def full_map_contract(star, i, conjugates):
    """The conjugation contract on every element of C_i: the map of beta_i
    agrees with the twist phi_i there."""
    edge = star.edge(i)
    conjugates = tuple(conjugates)
    return all(conjugates[c] == edge.twist_images[c]
               for c in edge.subgroup_indices)


def canonical_coset_rep(carrier, perm):
    """Canonical representative of the right coset rho(A) * perm, by one
    full product: rho(A) is regular on every copy, so exactly one coset
    element sends an identity point (e, j) to point 1.  The product oracle
    for ``Carrier.coset_key``."""
    return carrier.rho_index(perm.images.index(1) % carrier.size) * perm


def coset_elements_sending_an_identity_point_to_1(carrier, perm):
    """Every element rho(x) * perm of the right coset rho(A) * perm, over
    all x in A, that sends an identity point (e, j) to point 1, by full
    products: the brute-force form of ``canonical_coset_rep``."""
    identity_points = [carrier.point(0, j) for j in range(1, carrier.t + 1)]
    elements = (carrier.rho_index(x) * perm for x in range(carrier.size))
    return [e for e in elements
            if any(e.padded[p] == 1 for p in identity_points)]


def slot_elements(candidate):
    """``beta_i * rho(a)`` for each base-vertex slot (i, a), in slot order:
    the coset rho(A) * beta_i * rho(a) is that slot's neighbour."""
    carrier = candidate.carrier
    return [candidate.betas[i - 1] * carrier.rho_index(a)
            for i, a in carrier.star.slots]


def kernel_order_by_loop(candidate):
    """Order of the kernel of the base vertex's slot action, by moving every
    neighbour coset by every element of rho(A) on the carrier and counting
    the elements that fix them all."""
    carrier = candidate.carrier
    slot_elems = slot_elements(candidate)
    keys = [canonical_coset_rep(carrier, e).images for e in slot_elems]
    kernel = 0
    for x in range(carrier.size):
        g = carrier.rho_index(x)
        kernel += all(canonical_coset_rep(carrier, e * g).images == key
                      for e, key in zip(slot_elems, keys))
    return kernel


def slot_action_by_carrier(candidate):
    """The permutations of the base vertex's neighbour slots induced by A's
    generators, on the carrier: each slot's coset rho(A) * beta_i * rho(a)
    is moved by rho(g) and found again by its canonical representative.
    The oracle for ``cosetgraph.local_action``, which reads the same action
    off the star."""
    carrier = candidate.carrier
    slot_elems = slot_elements(candidate)
    slot_of = {canonical_coset_rep(carrier, e).images: j
               for j, e in enumerate(slot_elems, start=1)}
    assert len(slot_of) == len(slot_elems)      # V4
    induced = []
    for x in carrier.generator_indices:
        g = carrier.rho_index(x)
        induced.append(Permutation(
            [slot_of[canonical_coset_rep(carrier, e * g).images]
             for e in slot_elems]))
    return tuple(induced)


def witness_conjugates_onto(witness, local_group):
    """The local-action witness's bijection conjugates every induced
    generator into the local group, and the induced group has the local
    group's order, so the conjugate is the local group itself."""
    conj = witness.conjugation
    induced = PermutationGroup(local_group.degree, witness.induced_generators)
    return (induced.order() == local_group.order()
            and all(local_group.contains(conj.inverse() * g * conj)
                    for g in witness.induced_generators))


def from_cycles_by_products(degree, cycles):
    """A product of cycles, one full permutation per cycle, applied left to
    right: the O(cycles x degree) oracle for Permutation.from_cycles."""
    out = tuple(range(degree))
    for cyc in cycles:
        images = list(range(degree))
        for a, b in zip(cyc, list(cyc[1:]) + list(cyc[:1])):
            images[a - 1] = b - 1
        out = tuple_mul(out, tuple(images))
    return tuple(q + 1 for q in out)


def rho_check_by_loop(carrier):
    """The carrier's rho facts over all of A, on the carrier's stored rows:
    rho(0) is the identity, the rho(x) send the basepoint to pairwise
    distinct points, and rho(x) * rho(g) = rho(x * g) for every x and every
    generator g.  Returns the name of the first fact that fails, or None."""
    star = carrier.star
    rows = [carrier.rho_index(x).images for x in range(carrier.size)]
    if rows[0] != tuple(range(1, carrier.degree + 1)):
        return "rho(identity) is the identity"
    if len({row[0] for row in rows}) != carrier.size:
        return "rho injective on basepoint images"
    for g in carrier.generator_indices:
        x_times_g = star.right_row(g)
        for x, row in enumerate(rows):
            if tuple(rows[g][q - 1] for q in row) != rows[x_times_g[x]]:
                return "rho homomorphism"
    return None


def slot_kernel_by_loop(star, labels):
    """The element indices of A that fix every neighbour slot of the base
    vertex: x fixes slot (i, rep) when rep * x lies in the right coset of
    C_i labelled by the slot's point, the image of r_i under the head."""
    heads = star.local_group.elements()
    kernel = list(range(star.order))
    for (i, rep), label in zip(star.slots, labels):
        rep_times = star.left_row(rep)       # a -> rep * a
        r = star.edge(i).orbit_rep
        kernel = [a for a in kernel
                  if heads[rep_times[a] // star.tail_size].apply(r) == label]
    return kernel


def twist_multiplicative_by_loop(star):
    """Twist multiplicativity over every pair of every edge subgroup:
    phi_i(c * d) = phi_i(c) * phi_i(d) for all c, d in C_i, two rows of A
    per d.  Assumes each twist maps C_i into itself.  Returns "twist
    multiplicative" at the first failure, or None."""
    for edge in star.edges:
        members = edge.subgroup_indices
        tw = edge.twist_images
        for d in members:
            times_d = star.right_row(d)              # c -> c * d
            times_phi_d = star.right_row(tw[d])      # c -> c * phi(d)
            if any(tw[times_d[c]] != times_phi_d[tw[c]] for c in members):
                return "twist multiplicative"
    return None


def v4_by_pairs(candidate):
    """V4 pair by pair: for slots (i, a) before (j, a'), the element
    beta_i * rho(a a'^-1) * beta_j must lie outside rho(A)."""
    carrier = candidate.carrier
    star = carrier.star
    betas = candidate.betas
    inverse = index_inverses(star)
    for s, (i, a) in enumerate(star.slots):
        for j, b in star.slots[s + 1:]:
            a_b_inv = index_mul(star, a, inverse[b])
            w = betas[i - 1] * carrier.rho_index(a_b_inv) * betas[j - 1]
            if carrier.membership_index(w) is not None:
                return False
    return True


def star_core_by_loop(star):
    """The core in A of the intersection of the edge subgroups, by
    conjugating the intersection with every element of A."""
    reps = [edge.orbit_rep for edge in star.edges]
    heads = star.local_group.elements()
    tail_size = star.order // len(heads)
    in_inter = [all(heads[x // tail_size].apply(r) == r for r in reps)
                for x in range(star.order)]
    core = [x for x in range(star.order) if in_inter[x]]
    inverse = index_inverses(star)
    for a in range(star.order):
        times_a = star.left_row(a)                           # d -> a * d
        times_a_inv = star.right_row(inverse[a])             # y -> y * a^-1
        core = [d for d in core if in_inter[times_a_inv[times_a[d]]]]
    return core


def coset_key_failure(candidate, keys, pairs=1000, seed=0):
    """``Carrier.coset_key`` against the given coset keys (those of
    ``enumerate_cosets_by_products``), on seeded random pairs of cosets: a
    coset's key is unchanged by left multiplication with rho(A), and two
    keys are equal exactly when the quotient of their representatives lies
    in rho(A).  Returns the first failure, or None."""
    carrier = candidate.carrier
    reps = [Permutation(key[1:]) for key in keys]
    rng = random.Random(seed)
    n = len(reps)
    for _ in range(min(pairs, 4 * n)):
        x = reps[rng.randrange(n)]
        y = reps[rng.randrange(n)]
        shifted = carrier.rho_index(rng.randrange(carrier.size)) * x
        if carrier.coset_key(shifted.padded) != x.padded:
            return "same coset produced different keys"
        if (x.padded == y.padded) != (
                carrier.membership_index(x * y.inverse()) is not None):
            return "key equality disagrees with membership"
    return None


def carrier_neighbourhoods(candidate, index):
    """Neighbour ids of every coset, recomputed on the carrier: ``index``
    numbers each coset by its canonical representative's padded images (as
    ``enumerate_cosets_by_products`` does), and the neighbours of vertex v
    are the canonical keys of e * rep over the slot elements e."""
    carrier = candidate.carrier
    slot_elems = slot_elements(candidate)
    reps = {v: Permutation(key[1:]) for key, v in index.items()}
    return [[index[canonical_coset_rep(carrier, e * reps[v]).padded]
             for e in slot_elems]
            for v in range(len(index))]


def enumerate_cosets_by_products(candidate):
    """The coset table by two full products per (vertex, generator) pair:
    the canonical representative of ``rep * g`` for every pair, in
    breadth-first order.  Returns ``(list(index.items()), transitions)``."""
    carrier = candidate.carrier
    generators = candidate.group_generators()
    start = canonical_coset_rep(carrier, Permutation.identity(carrier.degree))
    reps = [start]
    index = {start.padded: 0}
    transitions = [[] for _ in generators]
    for rep in reps:        # breadth first: the list grows while it is read
        for gi, g in enumerate(generators):
            target = canonical_coset_rep(carrier, rep * g)
            ti = index.get(target.padded)
            if ti is None:
                ti = len(reps)
                reps.append(target)
                index[target.padded] = ti
            transitions[gi].append(ti)
    return list(index.items()), tuple(tuple(row) for row in transitions)


def encode(star, head, tail):
    """The index of the element with head index ``head`` and tail indices
    ``tail``: the inverse of ``AmalgamStar.digits``."""
    x = head
    for t in tail:
        x = x * star.tail_base + t
    return x


def twist_images_by_element(star, edge):
    """``EdgeData.twist_images`` one member of C_i at a time: decode the
    member's mixed-radix digits, permute them and encode the result."""
    heads = star.local_group.elements()
    tails = star.analysis.anchor_stabiliser.elements()
    images = [-1] * star.order
    for x in edge.subgroup_indices:
        h, tail = star.digits(x)
        if edge.twist == "full-reversal":
            # (h, t_1..t_n) -> (t_n, t_{n-1}..t_1, h); h lies in S on C_1
            images[x] = encode(star, heads.index(tails[tail[-1]]),
                               tail[-2::-1] + [tails.index(heads[h])])
        elif edge.twist == "tail-reversal":
            images[x] = encode(star, h, tail[::-1])
        else:
            images[x] = x
    return images


def relations_by_products(generators):
    """Every ``(a, b, c, d)`` with (a, b) < (c, d), b != d and g_a g_b =
    g_c g_d != 1, and every ``(a, b)`` with g_a g_b = 1, by comparing all
    products pairwise."""
    if not generators:
        return set(), set()
    pairs = [(a, b) for a in range(len(generators))
             for b in range(len(generators))]
    product = {(a, b): as_tuple(generators[a] * generators[b])
               for a, b in pairs}
    identity = tuple(range(generators[0].degree))
    inverse = {pair for pair in pairs if product[pair] == identity}
    equal = {(a, b, c, d) for a, b in pairs for c, d in pairs
             if (a, b) < (c, d) and b != d and (a, b) not in inverse
             and product[a, b] == product[c, d]}
    return equal, inverse


def level_gens(chain, level):
    """The strong generators a level's orbit was last built from."""
    return [chain.strong_gens[g] for g in level.ids]


def skipped_by_walks(chain, level):
    """The flags ``level.skipped()`` should give, per generator ``j`` the
    set of points ``p``, by walking every relator anew: the tree
    edges, and on each walk around a cycle as long as its generator's order
    (by closure) or along a relation of ``relations_by_products``, the last
    non-tree edge in ``(p, j)`` order when it occurs on the walk once."""
    gens = level_gens(chain, level)
    if not gens:    # a prefix level that no generator moves
        return []
    degree = gens[0].degree
    tree = set(level.edge.values())
    orbit = set(level.orbit())
    walks = []
    for j, s in enumerate(gens):
        order = len(brute_elements(degree, [s]))
        walks += [[(p, j) for p in cycle] for cycle in s.cycles()
                  if cycle[0] in orbit and len(cycle) == order]
    equal, inverse = relations_by_products(gens)
    for p in orbit:
        walks += [[(p, a), (gens[a].apply(p), b)] for a, b in inverse]
        walks += [[(p, a), (gens[a].apply(p), b),
                   (p, c), (gens[c].apply(p), d)]
                  for a, b, c, d in equal]
    flags = [{p for p, k in tree if k == j} for j in range(len(gens))]
    for walk in walks:
        free = [edge for edge in walk if edge not in tree]
        if free and free.count(max(free)) == 1:
            p, j = max(free)
            flags[j].add(p)
    return flags


# L0 at n=2..4, L1 at n=2, and a k=3 star with an identity twist on edge 3:
# the stars every all-of-A oracle runs on
def involutions_by_matchings(count):
    """All involutions of {0..count-1} as partner tuples, built recursively
    by matching the least point with itself or a later one, then sorted by
    number of moved points and lexicographically: the oracle for
    ``completion._involutions``."""
    def matchings(avail):
        if not avail:
            yield {}
            return
        first, rest = avail[0], avail[1:]
        for sub in matchings(rest):
            yield {first: first, **sub}
        for pick in rest:
            for sub in matchings(tuple(x for x in rest if x != pick)):
                yield {first: pick, pick: first, **sub}

    partners = [tuple(m[o] for o in range(count))
                for m in matchings(tuple(range(count)))]
    return sorted(partners, key=lambda partner: (
        sum(1 for o, p in enumerate(partner) if o != p), partner))


ORACLE_STARS = {"L0-n2": ((3, "(1 2)"), 2), "L0-n3": ((3, "(1 2)"), 3),
                "L0-n4": ((3, "(1 2)"), 4), "L1-n2": ((5, "(1 2 3)(4 5)"), 2),
                "k3-n2": ((4, "(1 2)"), 2)}


# --- decoded star algebra ---------------------------------------------------
# The star's product group A = L x S^n on Permutations, the oracle for the
# index encoding in amalgam.  It decodes indices itself from the formula
# index = h * s^n + (t_1 ... t_n in base s), with L and S listed in
# sorted-element order, and shares no code with amalgam.


class DecodedStar:
    """Elements of A as (head, tail) pairs: a head in L and a tuple of n tail
    entries in S, multiplied coordinate-wise."""

    def __init__(self, star):
        heads = star.local_group.elements()
        tails = star.analysis.anchor_stabiliser.elements()
        n, s = star.n, len(tails)
        self.elements = tuple(
            (heads[x // s ** n],
             tuple(tails[x // s ** (n - 1 - j) % s] for j in range(n)))
            for x in range(len(heads) * s ** n))
        self.index = {e: x for x, e in enumerate(self.elements)}

    @staticmethod
    def mul(a, b):
        return a[0] * b[0], tuple(p * q for p, q in zip(a[1], b[1]))

    @staticmethod
    def inverse(a):
        return a[0].inverse(), tuple(t.inverse() for t in a[1])

    @staticmethod
    def twist(i, a):
        """phi_i as a reversal of coordinates: edge 1 reverses all n+1
        coordinates (head, t_1..t_n), edge 2 the tail alone, and every later
        edge fixes the element."""
        if i == 1:
            coords = ((a[0],) + a[1])[::-1]
            return coords[0], coords[1:]
        if i == 2:
            return a[0], a[1][::-1]
        return a

    def edge_mul(self, i, u, v):
        """The product in B_i of (c, e) and (c', e'), base c in C_i and flip
        bit e: (c * phi_i^e(c'), e xor e')."""
        (c, e), (d, f) = u, v
        return self.mul(c, self.twist(i, d) if e else d), e ^ f


# --- reference Schreier-Sims kernel ----------------------------------------
# The permutation primitives the stabiliser chain used to run on: products
# point by point, identity tests by enumeration, and every inverse
# transversal element inverted point by point and sifted by products.  The
# chain built on them must be bit-identical to perm.StabiliserChain, which
# keeps a Schreier tree in place of the inverse transversal.


def reference_mul(a: Permutation, b: Permutation) -> Permutation:
    """``a`` then ``b``, one point at a time."""
    bi = b.images
    return Permutation._raw((0, *(bi[i - 1] for i in a.images)))


def reference_is_identity(a: Permutation) -> bool:
    return all(q == p for p, q in enumerate(a.images, start=1))


def reference_inverse(a: Permutation) -> Permutation:
    inv = [0] * len(a.images)
    for p, q in enumerate(a.images, start=1):
        inv[q - 1] = p
    return Permutation._raw((0, *inv))


class ReferenceLevel:
    def __init__(self, point, degree):
        self.point = point
        ident = Permutation.identity(degree)
        self.transversal = {point: ident}
        self.inverse_transversal = {point: ident}
        self.edge = {}

    def orbit(self):
        return list(self.transversal)

    def element(self, q):
        return self.transversal[q]


class ReferenceChain:
    """Deterministic Schreier-Sims as perm.StabiliserChain runs it (same base
    rule, same Schreier generator order, same restarts), on the reference
    primitives, rebuilding a level's orbit every time the algorithm asks."""

    def __init__(self, degree, generators, base_prefix=()):
        self.degree = degree
        self.strong_gens = []
        self.levels = [ReferenceLevel(p, degree) for p in base_prefix]
        for g in generators:
            if not reference_is_identity(g) and g not in self.strong_gens:
                self.strong_gens.append(g)
                if all(g.apply(lev.point) == lev.point
                       for lev in self.levels):
                    self._append_first_moved_point(g)
        self._complete()

    @property
    def base(self):
        return tuple(lev.point for lev in self.levels)

    def _append_first_moved_point(self, g):
        for p in range(1, self.degree + 1):
            if g.apply(p) != p:
                self.levels.append(ReferenceLevel(p, self.degree))
                return

    def _level_gens(self, i):
        pts = [lev.point for lev in self.levels[:i]]
        return [s for s in self.strong_gens
                if all(s.apply(p) == p for p in pts)]

    def _rebuild_orbit(self, i):
        lev = self.levels[i]
        gens = self._level_gens(i)
        ident = Permutation.identity(self.degree)
        lev.transversal = {lev.point: ident}
        lev.inverse_transversal = {lev.point: ident}
        lev.edge = {}
        queue = [lev.point]
        while queue:
            p = queue.pop(0)
            u = lev.transversal[p]
            for j, s in enumerate(gens):
                q = s.apply(p)
                if q not in lev.transversal:
                    rep = reference_mul(u, s)
                    lev.transversal[q] = rep
                    lev.inverse_transversal[q] = reference_inverse(rep)
                    lev.edge[q] = (p, j)
                    queue.append(q)

    def _sift(self, g, from_level):
        return product_sift(self.levels, g, from_level,
                            lambda lev, q: lev.inverse_transversal[q])

    def _complete(self):
        for i in range(len(self.levels)):
            self._rebuild_orbit(i)
        i = len(self.levels) - 1
        while i >= 0:
            self._rebuild_orbit(i)
            lev = self.levels[i]
            gens = self._level_gens(i)
            new_level = None
            for p in sorted(lev.transversal):
                u = lev.transversal[p]
                for s in gens:
                    q = s.apply(p)
                    schreier = reference_mul(reference_mul(u, s),
                                             lev.inverse_transversal[q])
                    if reference_is_identity(schreier):
                        continue
                    residue, j = self._sift(schreier, i + 1)
                    if reference_is_identity(residue):
                        continue
                    self.strong_gens.append(residue)
                    if j == len(self.levels):
                        self._append_first_moved_point(residue)
                    new_level = j
                    break
                if new_level is not None:
                    break
            if new_level is not None:
                for l in range(i, new_level + 1):
                    self._rebuild_orbit(l)
                i = new_level
            else:
                i -= 1


def product_sift(levels, g, from_level, inverse):
    """Sift ``g`` by products from ``levels[from_level]``: at each level
    multiply by ``inverse(level, q)``, the inverse of the transversal
    element at the image ``q`` of its base point.  Return (residue, level)
    where the sift stopped."""
    h = g
    for i in range(from_level, len(levels)):
        lev = levels[i]
        img = h.apply(lev.point)
        if img != lev.point and img not in lev.edge:
            return h, i
        h = reference_mul(h, inverse(lev, img))
    return h, len(levels)


def chain_snapshot(chain):
    """Base, strong generators, and each level's transversal and Schreier
    tree in insertion order, the permutations as raw image tuples.  Each
    orbit point's element is read through ``element``, which forms it on
    demand where the chain has not."""
    return (chain.base,
            [g.images for g in chain.strong_gens],
            [([(q, lev.element(q).images) for q in lev.orbit()],
              list(lev.edge.items()))
             for lev in chain.levels])


# --- reference isomorphism search ------------------------------------------
# The recursive backtracking that perm.permutation_isomorphic ran before it
# became one loop, with its point invariants: the loop must return the same
# witness and place the same number of points.


def reference_point_invariants(group):
    """(orbit size, stabiliser order, orbit id by minimal element) per
    point."""
    inv = {}
    n = group.order()
    for orb in perm.orbits(group):
        for p in orb:
            inv[p] = (len(orb), n // len(orb), orb[0])
    return inv


def reference_isomorphic(g1, g2, budget=perm.ISOMORPHISM_NODE_BUDGET):
    """``(witness, nodes)``: the first bijection conjugating g1 onto g2, or
    None, and the points the recursive search placed; CapacityError once it
    would place more than ``budget``."""
    if g1.degree != g2.degree or g1.order() != g2.order():
        return None, 0
    m = g1.degree
    inv1 = reference_point_invariants(g1)
    inv2 = reference_point_invariants(g2)
    if (sorted(v[:2] for v in inv1.values())
            != sorted(v[:2] for v in inv2.values())):
        return None, 0
    orbit_map = {}
    sigma = [0] * m
    used = [False] * (m + 1)
    nodes = 0

    def accept():
        s = Permutation(sigma)
        s_inv = s.inverse()
        return all(g2.contains(s_inv * g * s) for g in g1.generators)

    def extend(p):
        nonlocal nodes
        if p > m:
            return accept()
        size1, stab1, oid1 = inv1[p]
        for q in range(1, m + 1):
            if used[q]:
                continue
            size2, stab2, oid2 = inv2[q]
            if (size1, stab1) != (size2, stab2):
                continue
            if oid1 in orbit_map:
                if orbit_map[oid1] != oid2:
                    continue
                added = False
            else:
                if oid2 in orbit_map.values():
                    continue
                orbit_map[oid1] = oid2
                added = True
            nodes += 1
            if nodes > budget:
                raise CapacityError("isomorphism search nodes", budget,
                                    f"> {budget}")
            sigma[p - 1] = q
            used[q] = True
            if extend(p + 1):
                return True
            used[q] = False
            sigma[p - 1] = 0
            if added:
                del orbit_map[oid1]
        return False

    found = extend(1)
    return (Permutation(sigma) if found else None), nodes


def graph6_pair_loop(graph) -> bytes:
    """graph6 by walking every vertex pair of the upper triangle, column by
    column, with a membership test per pair: the O(n^2) export oracle."""
    n = graph.vertex_count
    bits = []
    for col in range(1, n):
        col_adj = graph.adjacency[col]
        for row in range(col):
            bits.append(1 if row in col_adj else 0)
    while len(bits) % 6:
        bits.append(0)
    if n <= 62:
        data = bytearray([n + 63])
    else:
        data = bytearray([126, (n >> 12) + 63, ((n >> 6) & 63) + 63,
                          (n & 63) + 63])
    for i in range(0, len(bits), 6):
        chunk = 0
        for b in bits[i:i + 6]:
            chunk = (chunk << 1) | b
        data.append(chunk + 63)
    return bytes(data)
