"""Structured element algebra for the star amalgam.

Given an intransitive, non-semiregular local group L with orbit
representatives r_1..r_k (r_1 the anchor, whose stabiliser S is nontrivial)
and an integer n >= 2, the star consists of

* the product group  A = L x S^n,  whose elements are integer indices,
* for each edge i the subgroup  C_i = { a in A : head(a) fixes r_i },
* an order-2 twist automorphism phi_i of C_i:
    - edge 1: full reversal of the n+1 coordinates (head, tail_1..tail_n),
      legal because members of C_1 have their head inside S,
    - edge 2: reversal of the tail, head fixed,
    - edges 3..k: the identity,
* the extension of C_i by a flip of order 2 acting as phi_i.

The element with head L[h] and tail S[t_1], ..., S[t_n] (L and S listed in
sorted-element order, s = |S|) has the mixed-radix index
``h * s^n + (t_1 ... t_n in base s)``.  This is the lexicographic
enumeration by head then tail, so index 0 is the identity (the least image
tuple) and every transversal and certificate is deterministic.  Products and
twists are computed from the Cayley tables of L and S (|L|^2 and |S|^2
entries, S's read off L's): multiplying every element by one fixed element
is a row of |A| indices, built on demand by mixed-radix expansion, and no
table with |A|^2 entries is stored.

Right cosets of C_i in A are classified by the image of r_i under the head,
left cosets by the image under the inverse head; both facts are used for
transversals throughout.  So |A : C_i| is the orbit length of r_i
(orbit-stabiliser), and the right-coset labels of all edges are the orbits
of the r_i, one each: a bijection onto the domain.

Each C_i is the direct product L_{r_i} x S^n, so it is generated by the
generators of L_{r_i} in the head and A's generators in the tail slots.
These point stabilisers are built here, where their generators are read:
S once per analysis (``LocalGroupAnalysis.anchor_stabiliser``, which is
L_{r_1}) and L_{r_i} by each other edge; the analysis itself carries only
their orders.  ``completion`` checks the conjugation contract on these
generators.  S's multiplication table is L's restricted to S, so the
twists, coordinate reversals that carry S between the head and the tail,
are automorphisms of C_i by construction; ``validate_star`` checks that
each is an involution of C_i, one lookup per member, and the tests keep
the whole-C_i check of multiplicativity as an oracle.  The core in
A of the intersection of the C_i is 1 x S^n for every star, so it is not
checked at run time: its head part is the core in L of the joint
stabiliser of the r_i, the intersection of all its conjugates, and those
are the stabilisers of points covering every orbit, so it fixes every
point.  The radius-1 model ``local_model`` fixes the slot labels; the
slot action of A is its head's action on the labels, with kernel 1 x S^n,
by the conjugation contract and V4 (the proof is in ``cosetgraph``), and
``cosetgraph.local_action`` reads it off the star.  What the encoding
fixes (index 0, the coset counts, the label bijection) is not checked at
run time, only in the tests.
"""

from __future__ import annotations

from typing import NamedTuple

from . import classify, perm
from .errors import CapacityError, InputError, ValidationError
from .perm import PermutationGroup

DEFAULT_CARRIER_CAP = 10_000

FULL_REVERSAL = "full-reversal"
TAIL_REVERSAL = "tail-reversal"
IDENTITY_TWIST = "identity"


class EdgeData(NamedTuple):
    index: int                       # 1-based edge number
    orbit_rep: int                   # the point r_i
    twist: str                       # FULL_REVERSAL, TAIL_REVERSAL or IDENTITY_TWIST
    subgroup_indices: tuple[int, ...]          # element indices of C_i
    subgroup_generators: tuple[int, ...]       # L_{r_i}'s in the head, then A's tail ones
    coset_index: int                           # |A : C_i| = orbit length of r_i
    right_transversal: tuple[int, ...]         # element index per right coset
    right_coset_points: tuple[int, ...]        # image of r_i labelling each right coset
    left_transversal: tuple[int, ...]          # element index per left coset
    left_coset_points: tuple[int, ...]
    twist_images: tuple[int, ...]              # phi_i(x) for x in C_i, -1 off C_i


class AmalgamStar:
    """The star on index-encoded elements: A, the C_i with their twists,
    transversals, and the factor tables that multiply indices."""

    def __init__(self, analysis: classify.LocalGroupAnalysis, n: int):
        self.analysis = analysis
        self.n = n
        heads = analysis.source.elements()
        self._heads = heads
        self._head_index = {g: h for h, g in enumerate(heads)}
        self._head_mul = tuple(tuple(self._head_index[a * b] for b in heads)
                               for a in heads)
        # S = L_{r_1}: its elements in sorted order are the heads that fix
        # the anchor, in head order, so S's table is L's restricted to them.
        # _lift maps a tail index to its head index, _drop back
        anchor = analysis.anchor
        self._lift = [h for h, g in enumerate(heads)
                      if g.padded[anchor] == anchor]
        self._drop = {h: t for t, h in enumerate(self._lift)}
        self._tail_mul = tuple(
            tuple(self._drop[self._head_mul[a][b]] for b in self._lift)
            for a in self._lift)
        self.tail_base = len(self._lift)
        self.tail_size = self.tail_base ** n
        self.order = len(heads) * self.tail_size
        self._head_inv = tuple(self._head_index[a.inverse()] for a in heads)
        self.generator_indices = self._generator_indices()
        self.edges = tuple(self._edge_data(i, rep) for i, rep
                           in enumerate(analysis.orbit_reps, start=1))
        # the base vertex's neighbour slots: one per right coset of each
        # C_i, ordered by (edge, transversal order)
        self.slots = tuple((edge.index, rep) for edge in self.edges
                           for rep in edge.right_transversal)

    # -- the index encoding ------------------------------------------------

    def digits(self, x: int) -> tuple[int, list[int]]:
        """(head index, [tail indices t_1..t_n]) of element index x."""
        tail = []
        for _ in range(self.n):
            x, t = divmod(x, self.tail_base)
            tail.append(t)
        tail.reverse()
        return x, tail

    def _expand(self, head_map, tail_maps) -> list[int]:
        """The index of (head_map[h], tail_maps[0][t_1], ...) for every
        element (h, t_1, ...) of A, in index order: one mixed-radix digit at
        a time, so it costs O(|A|)."""
        weight = self.tail_size
        row = [h * weight for h in head_map]
        for tm in tail_maps:
            weight //= self.tail_base
            weighted = [t * weight for t in tm]
            row = [v + u for v in row for u in weighted]
        return row

    def right_row(self, y: int) -> list[int]:
        """``row[x] = x * y`` for every element index x."""
        hy, ty = self.digits(y)
        return self._expand([r[hy] for r in self._head_mul],
                            [[r[b] for r in self._tail_mul] for b in ty])

    def left_row(self, x: int) -> list[int]:
        """``row[y] = x * y`` for every element index y."""
        hx, tx = self.digits(x)
        return self._expand(self._head_mul[hx],
                            [self._tail_mul[a] for a in tx])

    # -- the star ------------------------------------------------------------

    @property
    def local_group(self) -> PermutationGroup:
        return self.analysis.source

    @property
    def k(self) -> int:
        return self.analysis.k

    def edge(self, i: int) -> EdgeData:
        if not 1 <= i <= len(self.edges):
            raise InputError(f"edge index {i} out of range 1..{len(self.edges)}")
        return self.edges[i - 1]

    def left_coset_point(self, i: int, x: int) -> int:
        """Key of the left coset x * C_i: the image of r_i under the inverse head."""
        head_inv = self._heads[self._head_inv[x // self.tail_size]]
        return head_inv.apply(self.edge(i).orbit_rep)

    def _generator_indices(self) -> tuple[int, ...]:
        """Generators of A: the local group's generators lifted to the head,
        plus each stabiliser generator in each tail slot."""
        gens = [self._head_index[g] * self.tail_size
                for g in self.local_group.generators]
        for slot in range(self.n):
            weight = self.tail_base ** (self.n - 1 - slot)
            for s in self.analysis.anchor_stabiliser.generators:
                gens.append(self._drop[self._head_index[s]] * weight)
        return tuple(gens)

    def _edge_data(self, i: int, rep: int) -> EdgeData:
        ts = self.tail_size
        heads = self._heads
        members = tuple(x for h, g in enumerate(heads) if g.apply(rep) == rep
                        for x in range(h * ts, (h + 1) * ts))
        # cosets are keyed by the head alone and ordered by their minimal
        # element index, which is the first head's index times s^n
        right_seen: dict[int, int] = {}
        left_seen: dict[int, int] = {}
        for h, g in enumerate(heads):
            right_seen.setdefault(g.apply(rep), h * ts)
            left_seen.setdefault(heads[self._head_inv[h]].apply(rep), h * ts)
        # C_i = L_{r_i} x S^n: the generators of L_{r_i} lifted to the
        # head, then the tail generators of A; L_{r_1} is S
        stabiliser = (self.analysis.anchor_stabiliser if i == 1
                      else perm.point_stabiliser(self.local_group, rep))
        generators = tuple(
            self._head_index[g] * ts for g in stabiliser.generators
        ) + self.generator_indices[len(self.local_group.generators):]
        twist = {1: FULL_REVERSAL, 2: TAIL_REVERSAL}.get(i, IDENTITY_TWIST)
        # phi_i(h, t_1..t_n) row-wise, one weighted sum per tail digit: the
        # tail reversal weighs t_j by s^(j-1), the full reversal t_j by s^j
        # for j < n, sends t_n to the head and h (in S on C_1) to the tail
        s, n = self.tail_base, self.n
        weights = {FULL_REVERSAL: range(1, n), TAIL_REVERSAL: range(n)}.get(
            twist, range(n - 1, -1, -1))
        terms = [range(0, s ** (j + 1), s ** j) for j in weights]
        if twist == FULL_REVERSAL:
            terms.append([h * ts for h in self._lift])
        tails = [0]
        for weighted in terms:
            tails = [v + u for v in tails for u in weighted]
        twist_images = [-1] * self.order
        for x in members[::ts]:    # the first member of each head's block
            head = self._drop[x // ts] if twist == FULL_REVERSAL else x
            twist_images[x:x + ts] = [head + u for u in tails]
        return EdgeData(
            index=i,
            orbit_rep=rep,
            twist=twist,
            subgroup_indices=members,
            subgroup_generators=generators,
            coset_index=len(right_seen),
            right_transversal=tuple(right_seen.values()),
            right_coset_points=tuple(right_seen),
            left_transversal=tuple(left_seen.values()),
            left_coset_points=tuple(left_seen),
            twist_images=tuple(twist_images),
        )

    def __repr__(self):
        return (f"AmalgamStar(|A|={self.order}, n={self.n}, k={self.k}, "
                f"degree={self.local_group.degree})")


def build_star(analysis: classify.LocalGroupAnalysis, n: int,
               carrier_cap: int = DEFAULT_CARRIER_CAP) -> AmalgamStar:
    """Encode A = L x S^n and the edge data for each orbit representative."""
    if analysis.verdict != classify.NOT_RESTRICTIVE:
        raise InputError("construction requires intransitive non-semiregular L "
                         f"(verdict is {analysis.verdict})")
    if n < 2:
        raise InputError(f"n must be at least 2, got {n}")
    # |L| * s^n one factor at a time: s > 1, so the first product above the
    # cap is reached after at most log2(cap) steps, whatever n is
    s = analysis.stabiliser_orders[0]
    total = analysis.source.order()
    for _ in range(n):
        total *= s
        if total > carrier_cap:
            raise CapacityError("carrier cap", carrier_cap, f"at least {total}")
    return AmalgamStar(analysis, n)


def validate_star(star: AmalgamStar) -> None:
    """Verify that each twist maps C_i into itself and squares to the
    identity there, one lookup per member of C_i, raising ValidationError
    naming the first edge that fails.

    That each twist is multiplicative holds by construction.  Each twist
    table is a coordinate permutation of the direct product, read off the
    digits (``_edge_data``), and each coordinate multiplies by one table.
    The full reversal also swaps the head of a member of C_1, which lies in
    S, with the last tail coordinate, and S's table is L's restricted to S
    (``AmalgamStar``).
    """
    for edge in star.edges:
        tw = edge.twist_images
        for c in edge.subgroup_indices:
            image = tw[c]
            if image < 0 or tw[image] != c:
                raise ValidationError("twist involution", f"edge {edge.index}")


def local_model(star: AmalgamStar) -> tuple[int, ...]:
    """The radius-1 model of the base vertex: ``labels[j]``, the point of
    the local group's domain attached to slot ``j`` of ``star.slots``.

    The slots are the right cosets of the C_i, ordered by (edge,
    transversal order), and the labels of edge i are the orbit of r_i.
    The r_i represent the orbits once each, so the labels are a bijection
    onto the domain.  The slot action of an element of A is right
    multiplication on cosets, and its kernel is exactly the head-trivial
    subgroup 1 x S^n (``cosetgraph.local_action`` reports its order).
    """
    return tuple(p for edge in star.edges for p in edge.right_coset_points)
