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
enumeration by head then tail, so index 0 is the identity and every
transversal and certificate is deterministic.  Products, inverses and twists
are computed from the Cayley tables of L and S (|L|^2 and |S|^2 entries):
multiplying every element by one fixed element is a row of |A| indices,
built on demand by mixed-radix expansion, and no table with |A|^2 entries is
stored.

Right cosets of C_i in A are classified by the image of r_i under the head,
left cosets by the image under the inverse head; both facts are used for
transversals throughout.

``validate_star`` checks each twist on element indices, and the core of the
intersection of the C_i on heads alone, since A is a direct product.  The
radius-1 model ``local_model`` fixes the slot labels; the kernel of the slot
action is checked once, by ``cosetgraph.local_action``.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import classify, perm
from .errors import CapacityError, InputError, TheoryViolationError, ValidationError
from .perm import PermutationGroup

DEFAULT_CARRIER_CAP = 10_000

FULL_REVERSAL = "full-reversal"
TAIL_REVERSAL = "tail-reversal"
IDENTITY_TWIST = "identity"


@dataclass(frozen=True)
class EdgeData:
    index: int                       # 1-based edge number
    orbit_rep: int                   # the point r_i
    twist: str                       # FULL_REVERSAL, TAIL_REVERSAL or IDENTITY_TWIST
    subgroup_indices: tuple[int, ...]          # element indices of C_i
    subgroup_generators: tuple[int, ...]       # Schreier generators of C_i
    subgroup_order: int
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
        tails = analysis.anchor_stabiliser.elements()
        if not (heads[0].is_identity() and tails[0].is_identity()):
            raise TheoryViolationError(
                "element enumeration does not start at the identity")
        self._heads = heads
        self._tails = tails
        self._head_index = {g: h for h, g in enumerate(heads)}
        self._tail_index = {g: t for t, g in enumerate(tails)}
        self.tail_base = len(tails)
        self.tail_size = len(tails) ** n
        self.order = len(heads) * self.tail_size
        self._head_mul = tuple(tuple(self._head_index[a * b] for b in heads)
                               for a in heads)
        self._tail_mul = tuple(tuple(self._tail_index[a * b] for b in tails)
                               for a in tails)
        self._head_inv = tuple(self._head_index[a.inverse()] for a in heads)
        self._tail_inv = tuple(self._tail_index[a.inverse()] for a in tails)
        self.inverse = tuple(self._expand(self._head_inv, (self._tail_inv,) * n))
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

    def encode(self, head: int, tail) -> int:
        x = head
        for t in tail:
            x = x * self.tail_base + t
        return x

    def mul(self, x: int, y: int) -> int:
        hx, tx = self.digits(x)
        hy, ty = self.digits(y)
        return self.encode(self._head_mul[hx][hy],
                           [self._tail_mul[a][b] for a, b in zip(tx, ty)])

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
    def anchor_stabiliser_order(self) -> int:
        return self.analysis.stabiliser_orders[0]

    @property
    def k(self) -> int:
        return self.analysis.k

    def edge(self, i: int) -> EdgeData:
        if not 1 <= i <= len(self.edges):
            raise InputError(f"edge index {i} out of range 1..{len(self.edges)}")
        return self.edges[i - 1]

    def right_coset_point(self, i: int, x: int) -> int:
        """Key of the right coset C_i * x: the image of r_i under the head."""
        return self._heads[x // self.tail_size].apply(self.edge(i).orbit_rep)

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
                gens.append(self._tail_index[s] * weight)
        return tuple(gens)

    def _twist_index(self, kind: str, x: int) -> int:
        h, tail = self.digits(x)
        if kind == FULL_REVERSAL:
            # (h, t_1..t_n) -> (t_n, t_{n-1}..t_1, h); h lies in S on C_1
            return self.encode(self._head_index[self._tails[tail[-1]]],
                               tail[-2::-1] + [self._tail_index[self._heads[h]]])
        if kind == TAIL_REVERSAL:
            return self.encode(h, tail[::-1])
        return x

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
        orbit_len = len(self.local_group.orbit(rep))
        if len(right_seen) != orbit_len or len(left_seen) != orbit_len:
            raise ValidationError("coset count", f"edge {i}")
        if self.order // len(members) != orbit_len:
            raise ValidationError("index identity |A:C_i| = |L:L_i|", f"edge {i}")
        # Schreier's lemma on the right cosets: C_i is generated by the
        # u * g * (rep of C_i u g)^-1 over coset representatives u and
        # generators g of A
        generators = {}
        for u in right_seen.values():
            for g in self.generator_indices:
                ug = self.mul(u, g)
                rep_ug = right_seen[heads[ug // ts].apply(rep)]
                c = self.mul(ug, self.inverse[rep_ug])
                if c:
                    generators.setdefault(c)
        twist = {1: FULL_REVERSAL, 2: TAIL_REVERSAL}.get(i, IDENTITY_TWIST)
        twist_images = [-1] * self.order
        for c in members:
            twist_images[c] = self._twist_index(twist, c)
        return EdgeData(
            index=i,
            orbit_rep=rep,
            twist=twist,
            subgroup_indices=members,
            subgroup_generators=tuple(generators),
            subgroup_order=len(members),
            coset_index=orbit_len,
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
    total = analysis.source.order() * analysis.anchor_stabiliser.order() ** n
    if total > carrier_cap:
        raise CapacityError("carrier cap", carrier_cap, total)
    return AmalgamStar(analysis, n)


@dataclass(frozen=True)
class StarValidation:
    core_size: int


def validate_star(star: AmalgamStar) -> StarValidation:
    """Verify the structural facts the downstream construction relies on.

    Checks, raising ValidationError naming the first failure:
      (a) each twist maps C_i into itself and squares to the identity there,
      (b) each twist is multiplicative on C_i (every pair),
      (c) the index identities |B_i:C_i| = 2 and |A:C_i| = |L:L_i|,
      (d) the intersection of all C_i has core {head = identity} in A,
          of size |S|^n.
    (a) to (c) run on element indices.  (d) runs on heads: the intersection
    is (L_{r_1} & ... & L_{r_k}) x S^n and A = L x S^n, so its core is the
    core in L of the head part times S^n.
    """
    for edge in star.edges:
        members = edge.subgroup_indices
        tw = edge.twist_images
        for c in members:
            image = tw[c]
            if image < 0 or tw[image] != c:
                raise ValidationError("twist involution", f"edge {edge.index}")
        twisted = [tw[c] for c in members]
        for d in members:
            times_d = star.right_row(d)              # c -> c * d
            times_phi_d = star.right_row(tw[d])      # c -> c * phi(d)
            if (list(map(tw.__getitem__, map(times_d.__getitem__, members)))
                    != list(map(times_phi_d.__getitem__, twisted))):
                raise ValidationError("twist multiplicative",
                                      f"edge {edge.index}")
        expected_index = len(star.local_group.orbit(edge.orbit_rep))
        if star.order // edge.subgroup_order != expected_index:
            raise ValidationError("index identity", f"edge {edge.index}")
        if edge.coset_index != expected_index:
            raise ValidationError("coset index", f"edge {edge.index}")

    local = star.local_group
    reps = [edge.orbit_rep for edge in star.edges]
    heads = tuple(g for g in star._heads if all(g.apply(r) == r for r in reps))
    head_core = perm.core(local, PermutationGroup(local.degree, heads))
    core_size = head_core.order() * star.tail_size
    expected_size = star.anchor_stabiliser_order ** star.n
    if core_size != expected_size:
        raise ValidationError("core of edge-subgroup intersection",
                              f"got {core_size} elements, "
                              f"expected {expected_size}")
    return StarValidation(core_size)


@dataclass(frozen=True)
class LocalModel:
    """The neighbourhood of the base vertex, seen from inside A.

    Slots are the right cosets of the C_i, ordered by (edge, transversal
    order); ``labels[j]`` is the point of the local group's domain attached
    to slot ``j``.  The slot action of an element of A is right
    multiplication on cosets, and its kernel is exactly the head-trivial
    subgroup 1 x S^n (``cosetgraph.local_action`` checks its order).
    """

    slots: tuple[tuple[int, int], ...]   # (edge index, rep element index)
    labels: tuple[int, ...]

    @property
    def size(self) -> int:
        return len(self.slots)


def local_model(star: AmalgamStar) -> LocalModel:
    """Build the radius-1 model of the base vertex and check that its labels
    are a bijection onto the local group's domain."""
    labels = [p for edge in star.edges for p in edge.right_coset_points]
    degree = star.local_group.degree
    if sorted(labels) != list(range(1, degree + 1)):
        raise TheoryViolationError(
            "the coset labelling is not a bijection onto the domain; "
            "this indicates a bug, not an input condition")
    return LocalModel(star.slots, tuple(labels))
