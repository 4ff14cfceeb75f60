"""Coset graphs of accepted completions, certification, and growth reports.

The graph of a completion has the right cosets of rho(A) in G as vertices;
the neighbours of a coset are the cosets reached through the edge
involutions, ``rho(A) * beta_i * rho(a) * x`` over the edge transversals.
The conditions V1-V4 of the completion make the graph simple, connected,
vertex-transitive and regular of valency equal to the local group's degree,
with vertex stabiliser isomorphic to A.  The graph is fixed by its
transition table: ``enumerate_cosets`` numbers the cosets breadth first,
finding each new one by its key (``Carrier.coset_key``) and dropping a key
once no unfilled entry can lead to it; G's two-letter relations fill most
entries.  The base vertex's neighbours are read off the table too: they are
the rho(A)-orbits of the cosets ``rho(A) * beta_i``.

``construct_pair`` returns one ``LocallyLPair``, an immutable named tuple
like every record of the package: the candidate, its report with the order
of G (``_replace`` on the search's report), the certified local action of
the base vertex, and the graph with G's generators as vertex permutations.
When the vertex count exceeds the enumeration cap the graph is kept
implicit (None): the base vertex's neighbourhood and local action are
still certified, by the contract and V4, with the carrier form as the test
oracle (the action is vertex-transitive by construction, so base-vertex
certification transports everywhere), but exports are disabled.

The local action is read off the star.  The base vertex's stabiliser is
rho(A), and its neighbour slot (i, a) is the coset rho(A) beta_i rho(a),
for a in the right transversal of C_i.  For g in A, rho(g) sends it to
rho(A) beta_i rho(a g).  Write a g = c a', with c in C_i and a' the
transversal element of C_i a g.  The conjugation contract gives beta_i
rho(c) = rho(phi_i(c)) beta_i, so the image is rho(A) beta_i rho(a'), the
slot (i, a').  Each right coset of C_i is labelled by the image of r_i
under its head, so label(a') = label(a)^head(g), and V4 makes the d slots
distinct vertices.  So, with label_perm sending each slot to its label, g
induces ``label_perm * head(g) * label_perm^-1`` on the slots: the labels'
conjugate of L's generator for a head lift, the identity for a tail
generator.  L is faithful on its points, so the kernel is the head-trivial
subgroup 1 x S^n, of order s^n.  ``verify_completion`` checks the contract
and V4 once on the accepted candidate; ``slot_action_by_carrier`` in the
tests computes the slot action on the carrier, by coset keys, as the
oracle.

``verify_locally_L`` is the independent verifier: it takes any graph with a
claimed automorphism group and the local group and checks the locally-L
property from scratch, sharing only the permutation core with the
constructor.
"""

from __future__ import annotations

import math
import re
from operator import itemgetter, lt
from typing import NamedTuple

from . import amalgam, classify, perm
from .completion import (CompletionCandidate, CompletionReport, SearchConfig,
                         find_completion)
from .errors import (CapacityError, CompletionSearchError, InputError,
                     ParseError, TheoryViolationError, ValidationError)
from .perm import Permutation, PermutationGroup

DEFAULT_VERTEX_CAP = 1_000_000
DEFAULT_EXPORT_CAP = 1 << 28        # bytes in one exported graph file


class _GraphFields(NamedTuple):
    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]


class FiniteGraph(_GraphFields):
    """A finite simple undirected graph on 0-based vertex ids, checked on
    every construction, ``_replace`` included."""

    __slots__ = ()

    def __new__(cls, vertex_count: int, adjacency: tuple[tuple[int, ...], ...]):
        if len(adjacency) != vertex_count:
            raise InputError("adjacency length does not match vertex count")
        for v, nbrs in enumerate(adjacency):
            if not (isinstance(nbrs, tuple) and all(map(lt, nbrs, nbrs[1:]))):
                raise InputError(f"adjacency of {v} not sorted and duplicate-free")
            for w in nbrs:
                if not 0 <= w < vertex_count:
                    raise InputError(f"neighbour {w} out of range")
                if w == v:
                    raise InputError(f"loop at vertex {v}")
                if v not in adjacency[w]:
                    raise InputError(f"edge {v}-{w} not symmetric")
        return super().__new__(cls, vertex_count, adjacency)

    @classmethod
    def _make(cls, iterable) -> "FiniteGraph":
        return cls(*iterable)

    @classmethod
    def from_edges(cls, vertex_count: int, edges) -> "FiniteGraph":
        adj = [set() for _ in range(vertex_count)]
        for u, v in edges:
            if u == v:
                raise InputError(f"loop at vertex {u}")
            for w in (u, v):
                if not 0 <= w < vertex_count:
                    raise InputError(f"vertex {w} out of range 0..{vertex_count - 1}")
            adj[u].add(v)
            adj[v].add(u)
        return cls(vertex_count, tuple(tuple(sorted(s)) for s in adj))

    def edges(self):
        for u, nbrs in enumerate(self.adjacency):
            for v in nbrs:
                if u < v:
                    yield (u, v)

    def is_connected(self) -> bool:
        if self.vertex_count == 0:
            return True
        seen = {0}
        queue = [0]
        for u in queue:     # breadth first: the list grows while it is read
            for v in self.adjacency[u]:
                if v not in seen:
                    seen.add(v)
                    queue.append(v)
        return len(seen) == self.vertex_count


class CosetTable(NamedTuple):
    """The right cosets of rho(A) in the completed group: one transition
    map per generator of G, which fixes the coset graph.  It holds no coset
    key: ``enumerate_cosets`` keeps each only until its row is processed
    and its last in-entry is filled."""

    transitions: tuple[tuple[int, ...], ...]    # per generator of G

    @property
    def size(self) -> int:
        return len(self.transitions[0])


def enumerate_cosets(candidate: CompletionCandidate,
                     cap: int = DEFAULT_VERTEX_CAP) -> CosetTable | None:
    """Enumerate the cosets of rho(A) in G, or None when they exceed ``cap``.

    Each coset is keyed by the padded images of its canonical representative
    (the unique coset element sending an identity point (e, j) to point 1).
    The key is sound because rho(A) is regular on every copy: the point
    that a coset element sends to 1 lies in one copy j, the elements of the
    coset send (e, j) to pairwise distinct points, so exactly one of them
    sends it to 1, and an element lies in one coset only.  The breadth-first
    orbit stops as soon as it finds coset ``cap + 1``.  The numbering is
    the table's only output: ``build_graph`` reads the base vertex's
    neighbours off it.

    An entry that a relation among G's generators fixes needs no key.  The
    entries are filled in (vertex, generator) order.  Once v's are, each
    relation g_a g_b = g_c g_d makes x * g_b = y * g_d for x = v * g_a and
    y = v * g_c: an entry is copied from the other at once, or by a link
    from the earlier to the later when neither is filled yet.  A relation
    g_a g_b = 1 makes x * g_b = v.  A copied entry names a coset already
    numbered, the one its key would find, so the numbering and the table
    are those of the keys.

    A key lives until its row is processed and its last in-entry is
    filled.  The key is also the representative multiplied (one
    ``itemgetter(*key)`` per row).  Otherwise it only finds its coset again,
    for an unfilled entry (u, g) with u * g in that coset.  Each generator
    permutes the cosets, so every coset is the value of exactly k entries,
    and once all k are filled no lookup can reach its key: the key leaves
    the index then, and the breadth-first list as well once its row is
    done.
    """
    carrier = candidate.carrier
    coset_key = carrier.coset_key
    padded = [g.padded for g in candidate.group_generators()]
    k = len(padded)
    equal, inverse = perm._relations(padded)
    # the identity sends the identity point (e, 1) to 1, so it is the base
    # coset's key
    start = Permutation.identity(carrier.degree).padded
    keys = [start]                      # coset v's key; None once unneeded
    index = {start: 0}
    unfilled = [k]                      # coset v's in-entries not yet filled
    blank = [-1] * k
    entries = blank[:]                  # entry (v, g) is entries[v * k + g]
    links: dict[int, list[int]] = {}    # unfilled entry -> later equal ones

    def fill(x: int, w: int) -> None:
        entries[x] = w
        unfilled[w] -= 1
        if not unfilled[w]:             # no lookup can reach w any more
            del index[keys[w]]
            if w <= v:                  # and its row is done
                keys[w] = None

    for v, key in enumerate(keys):      # breadth first: the list grows
        times = itemgetter(*key)
        if not unfilled[v]:
            keys[v] = None
        first = v * k
        for p, g in enumerate(padded, first):
            w = entries[p]
            if w < 0:
                key = coset_key(times(g))
                n = len(keys)
                w = index.setdefault(key, n)
                if w == n:
                    if n >= cap:
                        return None
                    keys.append(key)
                    unfilled.append(k)
                    entries += blank
                fill(p, w)
            for q in links.pop(p, ()):
                if entries[q] < 0:
                    fill(q, w)
        row = entries[first:first + k]  # v's row, now filled
        for a, b in inverse:
            x = row[a] * k + b
            if entries[x] < 0:
                fill(x, v)
        for a, b, c, d in equal:
            x, y = row[a] * k + b, row[c] * k + d
            if x > y:
                x, y = y, x
            wx, wy = entries[x], entries[y]
            if wx < 0:
                if wy < 0:
                    links.setdefault(x, []).append(y)
                else:
                    fill(x, wy)
            elif wy < 0:
                fill(y, wx)
    return CosetTable(tuple(tuple(entries[g::k]) for g in range(k)))


class LocalActionWitness(NamedTuple):
    """Certificate that the base neighbourhood action is the local group.

    ``labels[j]`` is the domain point attached to neighbour slot ``j``;
    ``induced_generators`` are the slot permutations of A's generators,
    which the labels transport onto L's generators and the identity (see
    the module docstring), and ``conjugation`` is the lexicographically
    first point bijection conjugating the induced group onto L, found by
    search: it need not be the label permutation.
    """

    labels: tuple[int, ...]
    conjugation: Permutation
    induced_generators: tuple[Permutation, ...]
    kernel_order: int


class LocallyLPair(NamedTuple):
    """A certified locally-L pair: the coset graph of the completed group G
    on the right cosets of rho(A), certified at the base coset, vertex 0.

    ``report`` carries the order of G and ``witness`` the certified local
    action of the base vertex.  ``graph`` and ``action_generators`` (G's
    generators as 1-based vertex permutations) are None in implicit mode,
    when the cosets exceed the vertex cap.  The base vertex's stabiliser
    is rho(A) and its neighbours are the star's slots, so the rest is read
    off the star.
    """

    candidate: CompletionCandidate
    report: CompletionReport
    witness: LocalActionWitness
    graph: FiniteGraph | None = None
    action_generators: tuple[Permutation, ...] | None = None

    @property
    def star(self) -> amalgam.AmalgamStar:
        return self.candidate.carrier.star

    @property
    def stabiliser_order(self) -> int:
        return self.star.order

    @property
    def valency(self) -> int:
        return self.star.local_group.degree

    @property
    def vertex_count(self) -> int | None:
        return None if self.graph is None else self.graph.vertex_count


def build_graph(candidate: CompletionCandidate, report: CompletionReport,
                witness: LocalActionWitness,
                cap: int = DEFAULT_VERTEX_CAP) -> LocallyLPair:
    """The pair of an accepted completion and its certified local action,
    with the coset graph when it has at most ``cap`` vertices.

    The returned ``report`` carries the order of G.  The stabiliser of the
    base coset in G is rho(A), so in explicit mode ``|G| = |A| * V`` for
    the V cosets enumerated; only in implicit mode, where the coset count
    stays unknown, does a stabiliser chain of G compute it.  The graph is
    read off the table alone: no coset key outlives its row and its last
    in-entry in ``enumerate_cosets``.  The base vertex's neighbours are the
    cosets ``rho(A) * beta_i * rho(a)``: each beta row sends vertex 0 to
    ``rho(A) * beta_i``, and the rho rows close these under rho(A).  By the
    conjugation contract that orbit is exactly edge i's slots, and V4 makes
    the union d vertices.  Every adjacency tuple is sorted, so the order in
    which they are found does not matter.
    """
    if not report.accepted:
        raise InputError("completion was not accepted; cannot build the graph")
    carrier = candidate.carrier
    table = enumerate_cosets(candidate, cap)

    if table is None:
        chain = perm.StabiliserChain(carrier.degree,
                                     candidate.group_generators())
        return LocallyLPair(
            candidate, report._replace(order_g=chain.order()),
            witness)

    # G acts on the right and the slot elements multiply on the left, so
    # N(v * g) = N(v) * g: every vertex inherits its neighbourhood from the
    # vertex that discovered it, and enumerate_cosets discovers in index
    # order.  V2 and V4 give each vertex d distinct neighbours other than
    # itself, the involutive betas make adjacency symmetric, and G =
    # <rho(A), betas> makes the graph connected.
    n, transitions = table.size, table.transitions
    rho_rows = transitions[:len(carrier.rho_generators)]
    base = {row[0] for row in transitions[len(rho_rows):]}
    found = list(base)
    for u in found:     # breadth first: the list grows while it is read
        for row in rho_rows:
            w = row[u]
            if w not in base:
                base.add(w)
                found.append(w)
    neighbours: list[list[int] | None] = [found] + [None] * (n - 1)
    for v in range(n):
        nbrs = neighbours[v]
        for row in transitions:
            w = row[v]
            if neighbours[w] is None:
                neighbours[w] = [row[u] for u in nbrs]
    graph = FiniteGraph(n, tuple(tuple(sorted(nbrs)) for nbrs in neighbours))

    # each row is G's action on the cosets, so a bijection by construction;
    # its images are the shared int objects of the degree
    points = perm._identity_images(n)[1:]
    action = tuple(Permutation._raw((0, *itemgetter(*row)(points)))
                   for row in transitions)
    return LocallyLPair(
        candidate, report._replace(order_g=carrier.size * n),
        witness, graph, action)


def local_action(star: amalgam.AmalgamStar) -> LocalActionWitness:
    """The base vertex's neighbourhood action, read off the star.

    The slot labels come from the radius-1 model; A's generators act on
    the slots as their heads act on the labels, and the kernel is 1 x S^n
    (see the module docstring).  The conjugating witness is searched for,
    as ``verify`` searches for it.
    """
    local_group = star.local_group
    labels = amalgam.local_model(star)
    label_perm = Permutation(labels)  # slot j+1 -> domain point labels[j]
    back = label_perm.inverse()
    head = [label_perm * g * back for g in local_group.generators]
    tail = len(star.generator_indices) - len(head)
    gens = tuple(head + [Permutation.identity(len(labels))] * tail)
    conj = perm.permutation_isomorphic(
        PermutationGroup(len(labels), gens), local_group)
    if conj is None:
        raise TheoryViolationError(
            "no conjugating witness for the base neighbourhood action")
    return LocalActionWitness(labels=labels, conjugation=conj,
                              induced_generators=gens,
                              kernel_order=star.tail_size)


# ---------------------------------------------------------------------------
# the independent verifier
# ---------------------------------------------------------------------------


class PairCertificate(NamedTuple):
    vertex_transitive: bool
    stabiliser_order: int
    valency: int
    locally_l: bool
    witness: Permutation | None
    semiregular_bound_ok: bool | None   # stab order <= valency, when L semiregular
    detail: str


def verify_locally_L(graph: FiniteGraph, generators,
                     local_group: PermutationGroup) -> PairCertificate:
    """Check a claimed pair from scratch.

    Verifies the generators are automorphisms, then builds one stabiliser
    chain, based at vertex 0: its first orbit decides transitivity, its
    strong generators fixing vertex 0 generate G_0, and its remaining orbit
    lengths give |G_0| (so |G| is the first orbit's length times |G_0|).
    On a transitive action of the right valency it induces G_0's action on
    the neighbourhood of vertex 0 and searches for a permutation
    isomorphism onto the local group.  Shares only the permutation core
    with the construction pipeline.
    """
    n = graph.vertex_count
    gens = tuple(generators)
    for idx, g in enumerate(gens):
        if g.degree != n:
            raise InputError(f"generator {idx + 1} acts on {g.degree} points, "
                             f"graph has {n} vertices")
        images = g.images
        for u, v in graph.edges():
            gu, gv = images[u] - 1, images[v] - 1
            if gu not in graph.adjacency[gv]:
                raise InputError(
                    f"generator {idx + 1} ({g.cycle_string()}) is not an "
                    f"automorphism: edge {u}-{v} maps to non-edge {gu}-{gv}")
    if not graph.is_connected():
        raise InputError("graph is not connected")
    if n < 1:  # the empty graph: no vertex 0 to base the chain at
        raise InputError("degree must be a positive integer")

    chain = perm.StabiliserChain(n, gens, base_prefix=(1,))
    transitive = chain.levels[0].orbit_length() == n
    stab_gens = tuple(chain.stabiliser_generators())
    stab_order = math.prod(lev.orbit_length() for lev in chain.levels[1:])
    # free the transversal elements of degree n: alive, they would add to
    # the peak of the isomorphism search
    del chain

    neighbours = graph.adjacency[0]
    valency = len(neighbours)
    witness = None
    locally_l = False
    detail = ""
    if not transitive:
        detail = "vertex action is not transitive"
    elif valency != local_group.degree:
        detail = (f"valency {valency} differs from local group degree "
                  f"{local_group.degree}")
    else:
        # G_0's generators fix vertex 0, so they permute its neighbours
        slot_of = {v: j + 1 for j, v in enumerate(neighbours)}
        induced = tuple(
            Permutation([slot_of[g.images[v] - 1] for v in neighbours])
            for g in stab_gens)
        witness = perm.permutation_isomorphic(
            PermutationGroup(valency, induced), local_group)
        locally_l = witness is not None
        if not locally_l:
            detail = ("induced neighbourhood action is not permutation "
                      "isomorphic to the local group")

    bound_ok = None
    if perm.predicates(perm.orbits(local_group),
                       local_group.order()).is_semiregular:
        bound_ok = stab_order <= valency
        if not bound_ok:
            detail = (detail + "; " if detail else "") + (
                f"stabiliser order {stab_order} exceeds valency {valency} "
                "although the local group is semiregular")

    return PairCertificate(transitive, stab_order, valency, locally_l,
                           witness, bound_ok, detail)


# ---------------------------------------------------------------------------
# end-to-end pipeline and growth reports
# ---------------------------------------------------------------------------


def construct_pair(local_group: PermutationGroup, n: int,
                   search: SearchConfig = SearchConfig(),
                   vertex_cap: int = DEFAULT_VERTEX_CAP,
                   analysis: classify.LocalGroupAnalysis | None = None
                   ) -> LocallyLPair:
    """Full pipeline: analyse, build and validate the star, find a
    completion, certify the local action, build the graph.  A given
    ``analysis`` must be that of ``local_group`` itself."""
    if analysis is None:
        analysis = classify.analyze_local_group(local_group)
    elif analysis.source is not local_group:
        raise InputError("the analysis is not of the given local group")
    star = amalgam.build_star(analysis, n, search.carrier_cap)
    amalgam.validate_star(star)
    candidate, report = find_completion(star, search)
    witness = local_action(star)
    return build_graph(candidate, report, witness, vertex_cap)


class GrowthRow(NamedTuple):
    n: int
    stabiliser_order: int
    vertex_count: int | None        # None = not enumerated
    report: CompletionReport | None  # None = the construction failed
    failure: str | None

    @property
    def accepted(self) -> bool:
        return self.report is not None and self.report.accepted


class GrowthTable(NamedTuple):
    local_group_order: int
    growth_ratio: int
    rows: tuple[GrowthRow, ...]


def growth_report(local_group: PermutationGroup, n_from: int, n_to: int,
                  search: SearchConfig = SearchConfig(),
                  vertex_cap: int = DEFAULT_VERTEX_CAP) -> GrowthTable:
    """One certified construction per n in ``n_from..n_to``; failed rows
    are recorded and the remaining rows still attempted.  The stabiliser
    column is exactly |L| * s^n, hence strictly increasing.

    A cap that one n exceeds is exceeded by every larger n, whose star is
    larger, so a row failing on a cap is the table's last.  A range whose
    first n exceeds a cap is refused with that CapacityError, as
    ``construct_pair`` refuses the n alone, and a non-empty range starting
    below 2 is refused with an InputError before any row is built.  The
    range is walked lazily, so its length costs nothing beyond the rows
    built."""
    if n_from < 2 and n_from <= n_to:
        raise InputError(f"n must be at least 2, got {n_from}")
    analysis = classify.analyze_local_group(local_group)
    if analysis.verdict != classify.NOT_RESTRICTIVE:
        raise InputError("growth report requires verdict NOT_RESTRICTIVE; "
                         f"this group is {analysis.verdict}")
    ratio = analysis.stabiliser_orders[0]
    base = local_group.order()
    rows = []
    for n in range(n_from, n_to + 1):
        try:
            pair = construct_pair(local_group, n, search, vertex_cap,
                                  analysis=analysis)
        except (CapacityError, CompletionSearchError, InputError,
                ValidationError) as exc:
            if isinstance(exc, CapacityError) and not rows:
                raise
            rows.append(GrowthRow(n, base * ratio ** n, None, None,
                                  failure=str(exc).splitlines()[0]))
            if isinstance(exc, CapacityError):
                break
            continue
        rows.append(GrowthRow(n, pair.stabiliser_order, pair.vertex_count,
                              pair.report, failure=None))
    return GrowthTable(base, ratio, tuple(rows))


# ---------------------------------------------------------------------------
# graph text formats
# ---------------------------------------------------------------------------


# graph6 stores the upper triangle column by column, six bits to a byte
# offset by 63: the pair (row, col), row < col, is bit col(col-1)/2 + row,
# the most significant of the six bits first.
_G6_CHARS = bytes(range(63, 127))
_G6_SET_BITS = tuple(tuple(j for j in range(6) if v >> (5 - j) & 1)
                     for v in range(64))
_G6_NONZERO = re.compile(rb"[^?]")     # "?" is the byte with no bit set


def _graph6_bytes(n: int) -> bytes:
    if n <= 62:
        return bytes([n + 63])
    if n <= 258047:
        return bytes([126, (n >> 12) + 63, ((n >> 6) & 63) + 63, (n & 63) + 63])
    if n <= 68719476735:
        return bytes([126, 126] + [((n >> s) & 63) + 63
                                   for s in (30, 24, 18, 12, 6, 0)])
    raise InputError("graph too large for the graph6 format")


def export_sizes(vertex_count: int, valency: int) -> dict[str, int]:
    """Byte sizes of the exports of a ``valency``-regular graph, known
    before any is built: exact for ``graph6``, whose data is one bit per
    vertex pair, and upper bounds for the text formats, whose ids have at
    most the digits of the largest."""
    n = vertex_count
    width = len(str(max(n - 1, 0)))
    return {"edge-list": n * valency // 2 * (2 * width + 2),
            "adjacency-list": n * (width + 2 + valency * (width + 1)),
            "graph6": len(_graph6_bytes(n)) + -(-(n * (n - 1)) // 12)}


def export_graph(graph: FiniteGraph, fmt: str):
    """Byte-exact exports: ``edge-list`` (sorted "u v" lines),
    ``adjacency-list`` ("v: n1 n2 ..."), or ``graph6``.

    The graph6 export is built in one buffer, header included, and returned
    as that bytearray.
    """
    # each id's string is built once; edges() yields the pairs in order,
    # since every adjacency tuple is sorted
    if fmt == "edge-list":
        names = list(map(str, range(graph.vertex_count)))
        return "".join([f"{names[u]} {names[v]}\n" for u, v in graph.edges()])
    if fmt == "adjacency-list":
        names = list(map(str, range(graph.vertex_count)))
        return "".join([" ".join([names[v] + ":", *map(names.__getitem__, nbrs)])
                        + "\n" for v, nbrs in enumerate(graph.adjacency)])
    if fmt == "graph6":
        n = graph.vertex_count
        header = _graph6_bytes(n)
        data = bytearray(b"?") * (len(header) + -(-(n * (n - 1) // 2) // 6))
        data[:len(header)] = header
        start = 6 * len(header)            # the first data bit
        for row, col in graph.edges():     # each pair once: add sets the bit
            k = start + col * (col - 1) // 2 + row
            data[k // 6] += 32 >> (k % 6)
        return data
    raise InputError(f"unknown graph format {fmt!r}")


def _check_vertex_count(n: int, vertex_cap: int | None) -> None:
    """Refuse a graph of more than ``vertex_cap`` vertices before any
    per-vertex storage is allocated."""
    if vertex_cap is not None and n > vertex_cap:
        raise CapacityError("vertices", vertex_cap, n)


def _parse_graph6(data: bytes, vertex_cap: int | None = None) -> FiniteGraph:
    """Strict graph6: the vertex count, then exactly ceil(n(n-1)/2 / 6) data
    bytes whose padding bits are zero."""
    if data.startswith(b">>graph6<<"):
        data = data[10:]
    data = data.strip()
    if not data:
        raise ParseError("empty graph6 data")
    invalid = data.translate(None, _G6_CHARS)
    if invalid:
        raise ParseError(f"invalid graph6 byte {invalid[0]}")
    if data[0] != 126:
        start, width = 0, 1
    elif data[1:2] == b"~":
        start, width = 2, 6
    else:
        start, width = 1, 3
    size_bytes = data[start:start + width]
    if len(size_bytes) != width:
        raise ParseError("truncated graph6 vertex count")
    n = 0
    for b in size_bytes:
        n = (n << 6) | (b - 63)
    _check_vertex_count(n, vertex_cap)
    bit_count = n * (n - 1) // 2
    body = data[start + width:]
    expected = -(-bit_count // 6)
    if len(body) != expected:
        raise ParseError(f"graph6 data for {n} vertices needs {expected} data "
                         f"bytes, got {len(body)}")
    padding = 6 * expected - bit_count
    if padding and (body[-1] - 63) & ((1 << padding) - 1):
        raise ParseError("graph6 padding bits are not zero")
    edges = []
    for m in _G6_NONZERO.finditer(body):
        i = m.start()
        for j in _G6_SET_BITS[body[i] - 63]:
            k = 6 * i + j
            col = (1 + math.isqrt(8 * k + 1)) // 2
            edges.append((k - col * (col - 1) // 2, col))
    return FiniteGraph.from_edges(n, edges)


def parse_graph(text_or_bytes, vertex_cap: int | None = None) -> FiniteGraph:
    """Parse edge-list, adjacency-list, or graph6 input, by content.

    The vertex count is the largest vertex id plus one (graph6 states it);
    a count above ``vertex_cap`` raises CapacityError before the graph is
    built.  An adjacency list names each vertex on one line at most.  Every
    format is ASCII, so a byte outside it is named with its line and
    column, and text is read as its UTF-8 bytes.  Every message counts
    lines as ``str.splitlines`` breaks them, blank ones too."""
    if isinstance(text_or_bytes, str):
        text_or_bytes = text_or_bytes.encode("utf-8", "surrogatepass")
    try:
        text = text_or_bytes.decode("ascii")
    except UnicodeDecodeError as exc:
        at = exc.start
        # the input is ASCII up to the byte, which "?" stands for
        before = (text_or_bytes[:at].decode("ascii") + "?").splitlines()
        raise ParseError(f"non-ASCII byte 0x{text_or_bytes[at]:02x}",
                         line=len(before),
                         column=len(before[-1])) from None
    numbered = {no: ln for no, ln in enumerate(
        map(str.strip, text.splitlines()), start=1) if ln}
    lines = list(numbered.values())
    if not lines:
        raise ParseError("empty graph file")
    if all(":" in ln for ln in lines):
        adj: dict[int, list[int]] = {}
        for no, ln in numbered.items():
            head, _, rest = ln.partition(":")
            try:
                v = int(head)
                nbrs = [int(tok) for tok in rest.split()]
            except ValueError:
                raise ParseError(f"bad adjacency line {ln!r}", line=no) from None
            if v in adj:
                raise ParseError(f"vertex {v} listed twice", line=no)
            adj[v] = nbrs
        edges = {(min(v, w), max(v, w)) for v, nbrs in adj.items() for w in nbrs}
        n = max(max(adj), max((w for _, w in edges), default=0)) + 1
        _check_vertex_count(n, vertex_cap)
        return FiniteGraph.from_edges(n, edges)
    edges = []
    # each line is split once; the first bad one ends the edge list
    for no, ln in numbered.items():
        tokens = ln.split()
        if len(tokens) != 2 or not all(map(str.isdigit, tokens)):
            break
        try:
            edges.append((int(tokens[0]), int(tokens[1])))
        except ValueError:      # more digits than int() converts
            raise ParseError("vertex id too long", line=no) from None
    else:
        n = max(map(max, edges)) + 1
        _check_vertex_count(n, vertex_cap)
        return FiniteGraph.from_edges(n, edges)
    if len(lines) == 1:
        return _parse_graph6(lines[0].encode("ascii"), vertex_cap)
    raise ParseError("unrecognized graph format")
