"""Coset graphs of accepted completions, certification, and growth reports.

The graph of a completion has the right cosets of rho(A) in G as vertices;
the neighbours of a coset are the cosets reached through the edge
involutions, ``rho(A) * beta_i * rho(a) * x`` over the edge transversals.
The conditions V1-V4 of the completion make the graph simple, connected,
vertex-transitive and regular of valency equal to the local group's degree,
with vertex stabiliser isomorphic to A.  The graph is fixed by its
transition table: ``enumerate_cosets`` numbers the cosets by their keys
(``Carrier.coset_key``) and records G's action on them.

``construct_pair`` returns one ``LocallyLPair``: the candidate, its report
with the order of G, the certified local action of the base vertex, and
the graph with G's generators as vertex permutations.  When the vertex
count exceeds the enumeration cap the graph is kept implicit (None): the
base vertex's neighbourhood and local action are still fully certified
(the action is vertex-transitive by construction, so base-vertex
certification transports everywhere), but exports are disabled.

``verify_locally_L`` is the independent verifier: it takes any graph with a
claimed automorphism group and the local group and checks the locally-L
property from scratch, sharing only the permutation core with the
constructor.
"""

from __future__ import annotations

import collections
import dataclasses
import math
import re
from dataclasses import dataclass
from operator import itemgetter

from . import amalgam, classify, perm
from .completion import (CompletionCandidate, CompletionReport, SearchConfig,
                         find_completion)
from .errors import (CapacityError, CompletionSearchError, InputError,
                     NotEnumeratedError, ParseError, TheoryViolationError,
                     ValidationError)
from .perm import Permutation, PermutationGroup

DEFAULT_VERTEX_CAP = 1_000_000
DEFAULT_EXPORT_CAP = 1 << 28        # bytes in one exported graph file


@dataclass(frozen=True)
class FiniteGraph:
    """A finite simple undirected graph on 0-based vertex ids."""

    vertex_count: int
    adjacency: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(self.adjacency) != self.vertex_count:
            raise InputError("adjacency length does not match vertex count")
        for v, nbrs in enumerate(self.adjacency):
            if tuple(sorted(set(nbrs))) != nbrs:
                raise InputError(f"adjacency of {v} not sorted and duplicate-free")
            for w in nbrs:
                if not 0 <= w < self.vertex_count:
                    raise InputError(f"neighbour {w} out of range")
                if w == v:
                    raise InputError(f"loop at vertex {v}")
                if v not in self.adjacency[w]:
                    raise InputError(f"edge {v}-{w} not symmetric")

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


@dataclass(frozen=True)
class CosetTable:
    """The right cosets of rho(A) in the completed group: the vertex id of
    each canonical key, and one transition map per generator of G."""

    index: dict[tuple[int, ...], int]
    transitions: tuple[tuple[int, ...], ...]    # per generator of G

    @property
    def size(self) -> int:
        return len(self.index)


def enumerate_cosets(candidate: CompletionCandidate,
                     cap: int = DEFAULT_VERTEX_CAP) -> CosetTable | None:
    """Enumerate the cosets of rho(A) in G, or None when they exceed ``cap``.

    Each coset is keyed by the image tuple of its canonical representative
    (the unique coset element sending the basepoint to the least possible
    point).  The key is sound because rho(A) is regular on copy 1: the
    elements of a coset send the basepoint to pairwise distinct points, so
    exactly one of them sends it to the least, and an element lies in one
    coset only.  The breadth-first orbit stops as soon as it finds coset
    ``cap + 1``.

    The key tuple is also the representative the search multiplies, and it
    is dropped once its vertex is processed.  For vertex v one
    ``itemgetter(0, *key)`` applied to a generator's images, padded with a
    leading 0, gives ``h = rep * g`` with that padding in place, and
    ``Carrier.coset_key`` reads the key of its coset off ``h``.  Each key
    is hashed once, by ``dict.setdefault``.

    Entries closed by generator order need no product at all.  A generator
    g of order m on the carrier (the order of its element of A, read off the
    basepoint's cycle since rho(A) is regular on copy 1, or 2 for a beta,
    which verify_completion checks is an involution) satisfies g^m = 1, so
    a coset w = u * g^(m-1) has w * g = u * g^m = u.  The search records,
    for each coset w it reaches by g before w is processed, the root u and
    the step count with w = u * g^steps (w's one g-preimage extends its own
    record, or is the root with no steps), and fills w's entry with u
    when steps = m - 1.  That holds whether the cycle of u under g has
    length m or a proper divisor of m, since only g^m = 1 is used; the root
    is already numbered, so the numbering and every entry are those of the
    product for each pair.
    """
    carrier = candidate.carrier
    coset_key = carrier.coset_key
    padded = [(0,) + g.images for g in candidate.group_generators()]
    orders = []
    for g in carrier.rho_generators:
        images, m, p = g.images, 1, g.images[0]
        while p != 1:
            p, m = images[p - 1], m + 1
        orders.append(m)
    orders += [2] * len(candidate.betas)
    # the identity sends the basepoint to 1, so it is the base coset's key
    start = Permutation.identity(carrier.degree).images
    index = {start: 0}
    queue = collections.deque([start])
    transitions: list[list[int]] = [[] for _ in padded]
    # per generator g: w -> (u, steps) with w = u * g^steps, w unprocessed
    pending: list[dict[int, tuple[int, int]]] = [{} for _ in padded]
    # breadth-first in index order: vertex v fills entry v of every row
    v = 0
    while queue:
        times = itemgetter(0, *queue.popleft())
        for g, row, m, chains in zip(padded, transitions, orders, pending):
            root, steps = chains.pop(v, (v, 0))
            if steps == m - 1:
                row.append(root)
                continue
            key = coset_key(times(g))
            n = len(index)
            w = index.setdefault(key, n)
            if w == n:
                if n >= cap:
                    return None
                queue.append(key)
            if w > v:
                chains[w] = (root, steps + 1)
            row.append(w)
        v += 1
    return CosetTable(index, tuple(tuple(row) for row in transitions))


@dataclass(frozen=True)
class LocalActionWitness:
    """Certificate that the base neighbourhood action is the local group.

    ``labels[j]`` is the domain point attached to neighbour slot ``j``;
    transporting the induced slot action through the labels yields exactly
    the local group, and ``conjugation`` is an independently found point
    bijection conjugating the induced group onto it.
    """

    labels: tuple[int, ...]
    conjugation: Permutation
    induced_generators: tuple[Permutation, ...]
    kernel_order: int


@dataclass(frozen=True)
class LocallyLPair:
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
    stays unknown, does a stabiliser chain of G compute it.
    """
    if not report.accepted:
        raise InputError("completion was not accepted; cannot build the graph")
    carrier = candidate.carrier
    table = enumerate_cosets(candidate, cap)

    if table is None:
        chain = perm.StabiliserChain(carrier.degree,
                                     candidate.group_generators())
        return LocallyLPair(
            candidate, dataclasses.replace(report, order_g=chain.order()),
            witness)

    # G acts on the right and the slot elements multiply on the left, so
    # N(v * g) = N(v) * g: every vertex inherits its neighbourhood from the
    # vertex that discovered it, and enumerate_cosets discovers in index
    # order.  V2 and V4 give each vertex d distinct neighbours other than
    # itself, the involutive betas make adjacency symmetric, and G =
    # <rho(A), betas> makes the graph connected.
    n = table.size
    base_neighbours = [table.index[key] for key in candidate.slot_keys()]
    neighbours: list[list[int] | None] = [base_neighbours] + [None] * (n - 1)
    for v in range(n):
        nbrs = neighbours[v]
        for row in table.transitions:
            w = row[v]
            if neighbours[w] is None:
                neighbours[w] = [row[u] for u in nbrs]
    graph = FiniteGraph(n, tuple(tuple(sorted(nbrs)) for nbrs in neighbours))

    # each row is G's action on the cosets, so a bijection by construction;
    # its images are the shared int objects of the degree
    points = perm._identity_images(n)
    action = tuple(Permutation._raw(itemgetter(*row)(points))
                   for row in table.transitions)
    return LocallyLPair(
        candidate, dataclasses.replace(report, order_g=carrier.size * n),
        witness, graph, action)


def local_action(candidate: CompletionCandidate,
                 local_group: PermutationGroup) -> LocalActionWitness:
    """Certify the base vertex's neighbourhood action against the local group.

    The induced permutation of the neighbour slots under each generator of
    the vertex stabiliser is computed from coset keys on the carrier
    (independent of the labelling theory); the slot labels come from the
    radius-1 model.  The transported action must equal the local group
    exactly as a permutation set, and a conjugating witness bijection is
    found independently.
    """
    carrier = candidate.carrier
    star = carrier.star
    if star.local_group.degree != local_group.degree:
        raise InputError("local group degree mismatch")
    slot_elems = candidate.slot_elements()
    # distinct by V4, which accepted the candidate on these same keys
    key_to_slot = {key: j for j, key in enumerate(candidate.slot_keys())}

    def induced(element_index: int) -> Permutation:
        g = carrier.rho_index(element_index)
        images = []
        for e in slot_elems:
            j = key_to_slot.get(carrier.coset_key((0,) + (e * g).images))
            if j is None:
                raise TheoryViolationError(
                    "stabiliser element moved a base neighbour outside the "
                    "neighbourhood")
            images.append(j + 1)
        return Permutation(images)

    gens = [induced(g) for g in carrier.generator_indices]

    labels = amalgam.local_model(star)
    label_perm = Permutation(labels)  # slot j+1 -> domain point labels[j]
    transported = [label_perm.inverse() * g * label_perm for g in gens]
    ok = all(local_group.contains(t) for t in transported)
    induced_group = PermutationGroup(len(star.slots), tuple(gens))
    ok = ok and induced_group.order() == local_group.order()

    # the slot action is a homomorphism of A onto the induced group
    kernel = star.order // induced_group.order()
    expected_kernel = star.anchor_stabiliser_order ** star.n
    if kernel != expected_kernel:
        raise TheoryViolationError(
            f"base local-action kernel has order {kernel}, expected "
            f"{expected_kernel}")
    if not ok:
        raise TheoryViolationError(
            "transported neighbourhood action differs from the local group")

    conj = perm.permutation_isomorphic(induced_group, local_group)
    if conj is None:
        raise TheoryViolationError(
            "no conjugating witness although the transported action matches")
    return LocalActionWitness(labels=labels, conjugation=conj,
                              induced_generators=tuple(gens),
                              kernel_order=kernel)


# ---------------------------------------------------------------------------
# the independent verifier
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class PairCertificate:
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

    Verifies the generators are automorphisms, the vertex action is
    transitive, computes the stabiliser of vertex 0 by a stabiliser chain
    based there, induces its action on the neighbourhood, and searches for a
    permutation isomorphism onto the local group.  Shares only the
    permutation core with the construction pipeline.
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

    group = PermutationGroup(n, gens)
    chain = perm.StabiliserChain(n, gens, base_prefix=(1,))
    orbit_size = len(chain.levels[0].transversal) if chain.levels else 1
    transitive = orbit_size == n
    stab_gens = tuple(chain.stabiliser_generators())
    stab_order = math.prod(len(lev.transversal) for lev in chain.levels[1:])
    # release the transversals before group.order() builds its own chain
    del chain

    neighbours = graph.adjacency[0]
    valency = len(neighbours)
    slot_of = {v: j + 1 for j, v in enumerate(neighbours)}
    induced = []
    for g in stab_gens:
        images = [slot_of[g.images[v] - 1] for v in neighbours]
        induced.append(Permutation(images) if valency else None)
    induced_group = PermutationGroup(valency, tuple(induced)) if valency else None

    witness = None
    locally_l = False
    detail = ""
    if not transitive:
        detail = "vertex action is not transitive"
    elif valency != local_group.degree:
        detail = (f"valency {valency} differs from local group degree "
                  f"{local_group.degree}")
    else:
        witness = perm.permutation_isomorphic(induced_group, local_group)
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

    order = group.order()
    if order != stab_order * orbit_size:
        raise TheoryViolationError(
            f"orbit-stabiliser identity failed for the claimed group: "
            f"|G| = {order}, but the chain based at vertex 0 gives "
            f"{stab_order} * {orbit_size}")
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
    completion, certify the local action, build the graph."""
    if analysis is None:
        analysis = classify.analyze_local_group(local_group)
    star = amalgam.build_star(analysis, n, search.carrier_cap)
    amalgam.validate_star(star)
    candidate, report = find_completion(star, search)
    witness = local_action(candidate, local_group)
    return build_graph(candidate, report, witness, vertex_cap)


@dataclass(frozen=True)
class GrowthRow:
    n: int
    stabiliser_order: int
    vertex_count: int | None        # None = not enumerated
    report: CompletionReport | None  # None = the construction failed
    failure: str | None

    @property
    def accepted(self) -> bool:
        return self.report is not None and self.report.accepted


@dataclass(frozen=True)
class GrowthTable:
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


def export_graph(graph, fmt: str):
    """Byte-exact exports: ``edge-list`` (sorted "u v" lines),
    ``adjacency-list`` ("v: n1 n2 ..."), or ``graph6``.

    Accepts a FiniteGraph or a pair; an implicit pair has no enumerated
    graph and raises NotEnumeratedError.  The graph6 export is built in one
    buffer, header included, and returned as that bytearray.
    """
    if isinstance(graph, LocallyLPair):
        if graph.graph is None:
            raise NotEnumeratedError("graph")
        graph = graph.graph
    if fmt == "edge-list":
        return "".join(f"{u} {v}\n" for u, v in sorted(graph.edges()))
    if fmt == "adjacency-list":
        return "".join(f"{v}: {' '.join(str(w) for w in nbrs)}".rstrip() + "\n"
                       for v, nbrs in enumerate(graph.adjacency))
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
    built."""
    if isinstance(text_or_bytes, (bytes, bytearray)):
        try:
            text = text_or_bytes.decode("ascii")
        except UnicodeDecodeError:
            return _parse_graph6(text_or_bytes, vertex_cap)
    else:
        text = text_or_bytes
    lines = [ln for ln in (l.strip() for l in text.splitlines()) if ln]
    if not lines:
        raise ParseError("empty graph file")
    if all(":" in ln for ln in lines):
        adj: dict[int, list[int]] = {}
        for no, ln in enumerate(lines, start=1):
            head, _, rest = ln.partition(":")
            try:
                v = int(head)
                nbrs = [int(tok) for tok in rest.split()]
            except ValueError:
                raise ParseError(f"bad adjacency line {ln!r}", line=no) from None
            adj[v] = nbrs
        edges = {(min(v, w), max(v, w)) for v, nbrs in adj.items() for w in nbrs}
        n = max(max(adj), max((w for _, w in edges), default=0)) + 1
        _check_vertex_count(n, vertex_cap)
        return FiniteGraph.from_edges(n, edges)
    if all(len(ln.split()) == 2 and all(t.isdigit() for t in ln.split())
           for ln in lines):
        edges = [tuple(int(t) for t in ln.split()) for ln in lines]
        n = max(max(e) for e in edges) + 1
        _check_vertex_count(n, vertex_cap)
        return FiniteGraph.from_edges(n, edges)
    if len(lines) == 1:
        return _parse_graph6(lines[0].encode("ascii"), vertex_cap)
    raise ParseError("unrecognized graph format")
