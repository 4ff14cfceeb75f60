"""Exact permutation-group algebra.

Conventions (binding everywhere in this package):

* points are the integers 1..m,
* permutations act on the right, so ``p ** (f * g) == (p ** f) ** g``,
* composition is left-to-right: ``(f * g)(p) == g(f(p))``,
* everything is exact integer arithmetic.

Groups are represented by generators plus a lazily built stabiliser chain
(base and strong generating set) which gives exact order and membership.
The chain construction is the deterministic Schreier-Sims procedure: base
points are first moved points, appended greedily, so identical input always
produces an identical chain.

The primitives run at C speed.  A permutation is stored in one layout, its
images padded with a leading 0 (the array form of Seress, *Permutation
Group Algorithms*, ch. 4): ``padded[p]`` is the image of ``p``, and
``images`` is the 1-based view ``padded[1:]`` for output.  A product looks
the first factor's padded images up in the second's, through one
``operator.itemgetter`` call, and is padded itself, as 0 goes to 0; the
chain, the relation finder and the coset keys read and multiply the same
tuples, so no primitive pads a tuple or shifts a point.  An identity test
compares with a cached ``(0, 1, ..., m)``.  The constructor,
``from_cycles`` and ``inverse`` take their ints from that cached tuple, and
a product gathers its items from its factors, so every padded tuple of a
degree holds one int object per point: equal tuples then compare item by
item on identity alone.

The chain keeps, once per strong generator, what its levels read of it
beyond its padded images: the padded inverse images, the order, and its
depth, the index of the first base point it moves, so that it lies in the
levels up to that one.  Each level keeps a Schreier tree, one edge
``t_q = t_p * gens[j]`` per orbit point but the root, and the orbit is the
root and the tree's points, so orbit lengths and membership are read off
the tree.  A transversal element ``t_q`` is formed the first time it is
read, from its nearest formed ancestor down the tree, and kept in a dict
that refers to no level, so a chain holds no reference cycle and is freed
as soon as it is dropped.  A preimage under ``t_q`` walks ``q``'s tree path
to the root through the inverse images, so no transversal element's
inverse is stored.  The levels are scanned from the deepest up, and a
level is built when it is scanned: never for generators that change again
before any scan reads it.  A level is scanned again only after a new strong
generator as deep as it, so every rebuild follows a change of its
generators, and keeps no element but the root's.

Level 0, whose elements would otherwise hold most of a chain's memory,
drops each element after the last read its scan makes of it.  A scan's
flags fix every read it makes, so the scan lists them first; replaying
``element``'s rule over that list finds, per element, its last read and
the last element formed from it, and the scan drops the element after the
later of the two.  So it forms the products of a scan that keeps every
element, unless it breaks on a new strong generator: then the next scan
forms again the dropped elements it reads.  Only level 0 drops elements:
the scan of a shallower level reads a deeper level's elements through the
path products, at times no list of the deeper scan fixes, and no level is
shallower than level 0.  A membership test forms again the level-0
elements it reads, and keeps them.

The chain sifts each Schreier generator ``u s t_q^-1`` on base images: the
deeper base points' images are mapped back along one tree path per level.
Besides ``u s``, a product is formed only to compare ``u s`` with ``T t_q``,
where ``T`` is the product of the transversal elements on the sift's path,
or for a new strong generator, the only residue the sift inverts.  One level
scan keeps ``T`` in a memo keyed by the path, used only when the deeper
levels' group is no larger than the scanned orbit, so it never holds more
permutations than the level has orbit points.

A scan skips the Schreier generators that relators among the level's
generators already prove, so the chain is the one that sifts them all.
Those of the tree edges are the identity by construction.  A relator
``w = s_1 ... s_k = 1`` walks a closed path from each orbit point ``p``
through the Schreier graph, and the Schreier generators along it multiply
to ``u_p w u_p^-1 = 1``: so once all but one of them lie in the deeper
levels' group ``H``, the last one does too, provided it occurs on the walk
once.  The relators are the full-length cycles of a generator ``s`` of
order ``m`` (``s^m = 1``) and the relations ``g_a g_b = 1`` and
``g_a g_b = g_c g_d`` among the level's generators.  Strong generators are
only appended, so the chain finds the relations of each new one with the
earlier ones once (``_RelationFinder``, which the coset enumeration shares
through ``_relations``), and files each by the least depth of its letters;
a level reads those as deep as itself.  A scan runs in ``(p, j)`` order and
flags, on each walk, the non-tree edge it reaches last.  By induction on
that order, every edge the scan reaches without breaking was sifted into
``H`` or flagged by a walk whose other edges came earlier and are in ``H``;
a scan that breaks on a new strong generator is followed by one with flags
computed afresh.  The flag pass codes the edge ``(p, j)`` as the integer
``p*k + j`` for ``k`` generators, which keeps the order, and walks each
relation over the orbit in one loop.
"""

from __future__ import annotations

import functools
import math
import re
from operator import attrgetter, itemgetter
from typing import NamedTuple

from .errors import CapacityError, InputError, ParseError

DEFAULT_ELEMENT_CAP = 100_000
ISOMORPHISM_NODE_BUDGET = 20_000


@functools.cache
def _identity_images(degree: int) -> tuple[int, ...]:
    """``(0, 1, ..., degree)``, the padded identity: the one int object per
    point that every padded image tuple of this degree holds."""
    return tuple(range(degree + 1))


def _image_list_fault(images: tuple) -> str:
    """The first point that keeps ``images`` from being a permutation of
    1..m, named alone so that the message stays short."""
    degree = len(images)
    seen = set()
    for q in images:
        if not isinstance(q, int) or not 1 <= q <= degree:
            return f"not a permutation of 1..{degree}: point {q!r} out of range"
        if q in seen:
            return f"not a permutation of 1..{degree}: point {q} repeated"
        seen.add(q)


@functools.total_ordering
class Permutation:
    """An immutable permutation of {1..m}.

    ``padded[p]`` is the image of the point ``p``, and ``padded[0]`` is 0;
    ``images`` is the 1-based view ``padded[1:]``.
    """

    __slots__ = ("padded",)

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise InputError("degree 0 permutations are not allowed")
        points = _identity_images(len(images))
        if sorted(images) != list(points[1:]):
            raise InputError(_image_list_fault(images))
        object.__setattr__(self, "padded", itemgetter(0, *images)(points))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _raw(cls, padded: tuple) -> "Permutation":
        """Unchecked constructor from padded images, for results that are
        permutations by construction (products, inverses, powers)."""
        p = object.__new__(cls)
        object.__setattr__(p, "padded", padded)
        return p

    @property
    def images(self) -> tuple[int, ...]:
        """``images[p-1]`` is the image of the point ``p``."""
        return self.padded[1:]

    @property
    def degree(self) -> int:
        return len(self.padded) - 1

    @classmethod
    def identity(cls, degree: int) -> "Permutation":
        return cls._raw(_identity_images(degree))

    @classmethod
    def from_cycles(cls, degree: int, cycles) -> "Permutation":
        """Build from a list of cycles of 1-based points, applied left to
        right.  Each cycle is composed into the running images through the
        inverse images, so the cost is the total cycle length plus the
        degree."""
        points = _identity_images(degree)
        images = list(points)
        preimages = list(points)
        for cyc in cycles:
            seen = set()
            for p in cyc:
                if not 1 <= p <= degree:
                    raise InputError(f"point {p} out of range 1..{degree}")
                if p in seen:
                    raise InputError(f"point {p} repeated in cycle {tuple(cyc)}")
                seen.add(p)
            # the points now sent to cyc[j] go on to cyc[j + 1]
            sources = [preimages[p] for p in cyc]
            for src, q in zip(sources, cyc[1:] + cyc[:1]):
                images[src] = points[q]
                preimages[q] = src
        return cls._raw(tuple(images))

    def apply(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise InputError(f"point {point} out of range 1..{self.degree}")
        return self.padded[point]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other."""
        left, right = self.padded, other.padded
        if len(left) != len(right):
            raise InputError("degree mismatch in product")
        return Permutation._raw(itemgetter(*left)(right))

    def inverse(self) -> "Permutation":
        padded = self.padded
        inv = [0] * len(padded)
        for p, q in zip(_identity_images(len(padded) - 1), padded):
            inv[q] = p
        return Permutation._raw(tuple(inv))

    def __pow__(self, n: int) -> "Permutation":
        if n < 0:
            return self.inverse() ** (-n)
        out = Permutation.identity(self.degree)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self, by: "Permutation") -> "Permutation":
        """Return ``by^-1 * self * by``."""
        return by.inverse() * self * by

    def is_identity(self) -> bool:
        return self.padded == _identity_images(len(self.padded) - 1)

    def fixed_points(self):
        return tuple(p for p, q in enumerate(self.padded) if p == q)[1:]

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum, sorted."""
        padded = self.padded
        seen = bytearray(len(padded))
        out = []
        for p in range(1, len(padded)):
            if seen[p] or padded[p] == p:
                continue
            cyc = [p]
            q = padded[p]
            while q != p:
                cyc.append(q)
                seen[q] = 1
                q = padded[q]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.padded == other.padded

    def __lt__(self, other):
        return self.padded < other.padded

    def __hash__(self):
        return hash(self.padded)

    def __repr__(self):
        return f"Permutation({self.cycle_string()}, degree={self.degree})"


_CYCLE_RE = re.compile(r"\(\s*((?:\d+[\s,]*)*)\)")


def parse_permutation(text: str, degree: int) -> Permutation:
    """Parse cycle notation ``(1 2)(4 5)`` or an image list ``2 1 3``.

    The empty cycle ``()`` is the identity.  Image lists must have exactly
    ``degree`` entries.
    """
    s = text.strip()
    if not s:
        raise ParseError("empty permutation")
    if s.startswith("("):
        cycles = []
        pos = 0
        while pos < len(s):
            if s[pos].isspace():
                pos += 1
                continue
            m = _CYCLE_RE.match(s, pos)
            if m is None:
                raise ParseError(f"bad cycle notation {text!r}", column=pos + 1)
            body = m.group(1).replace(",", " ").split()
            if body:
                cycles.append([int(p) for p in body])
            pos = m.end()
        try:
            return Permutation.from_cycles(degree, cycles)
        except InputError as exc:
            raise ParseError(str(exc)) from None
    try:
        images = [int(tok) for tok in s.replace(",", " ").split()]
    except ValueError as exc:
        raise ParseError(f"bad image list {text!r}: {exc}") from None
    if len(images) != degree:
        raise ParseError(f"image list has {len(images)} entries, expected {degree}")
    try:
        return Permutation(images)
    except InputError as exc:
        raise ParseError(str(exc)) from None


def _times(left: tuple, right: tuple) -> tuple:
    """The padded images of the product of the permutations with the
    padded images ``left`` and ``right``: one ``itemgetter`` call, as in
    ``Permutation.__mul__``, on the tuples the chain keeps, with no
    ``Permutation`` formed around them."""
    return itemgetter(*left)(right)


class _RelationFinder:
    """The two-letter relations among a growing list of generators, given
    by their padded images: ``(a, b, c, d)`` for each
    g_a g_b = g_c g_d != 1 with b != d, once per unordered pair of pairs
    and with (a, b) < (c, d), and ``(a, b)`` for each g_a g_b = 1.

    Pairs are bucketed by the hash of their products on every step-th
    point, and a bucket keeps its pairs in classes of equal products.
    Only a bucket that may hold a relation forms whole products, one per
    new pair and one per class it holds, and a relation is kept once they
    compare equal."""

    def __init__(self, degree: int):
        self.padded = []
        self.samples = []
        self.identity = _identity_images(degree)
        self.step = max(1, (degree + 1) // 64)
        self.one = hash(self.identity[::self.step])
        self.buckets = {}   # sample hash -> classes of pairs, equal products

    def add(self, padded) -> tuple[list, list]:
        """Append generators; return the relations with a new letter."""
        old = len(self.padded)
        self.padded += padded
        self.samples += [itemgetter(*images[::self.step]) for images in padded]
        padded, samples, k = self.padded, self.samples, len(self.padded)
        touched = {}
        for a in range(k):
            for b in range(0 if a >= old else old, k):
                touched.setdefault(hash(samples[a](padded[b])), []).append((a, b))
        equal, inverse = [], []
        for key, pairs in touched.items():
            classes = self.buckets.setdefault(key, [])
            if not classes and len(pairs) == 1 and key != self.one:
                classes.append(pairs)
                continue
            products = [_times(padded[a], padded[b]) for (a, b), *_ in classes]
            for a, b in pairs:
                product = _times(padded[a], padded[b])
                if product == self.identity:
                    inverse.append((a, b))
                    continue
                for members, other in zip(classes, products):
                    if other == product:
                        equal += [min(p, (a, b)) + max(p, (a, b))
                                  for p in members if p[1] != b]
                        members.append((a, b))
                        break
                else:
                    classes.append([(a, b)])
                    products.append(product)
        return equal, inverse


def _relations(padded) -> tuple[list, list]:
    """The relations among the generators with the ``padded`` images, as
    ``_RelationFinder`` finds them.  The coset enumeration deduces
    transition entries from them."""
    if not padded:
        return [], []
    return _RelationFinder(len(padded[0]) - 1).add(padded)


class _ChainLevel:
    __slots__ = ("point", "depth", "reach", "edge", "elements", "ids",
                 "padded", "inverses", "orders")

    def __init__(self, point: int, degree: int, depth: int, reach: list):
        self.point = point
        self.depth = depth      # the level's index in its chain
        self.reach = reach      # the chain's relations by least depth
        # the Schreier tree in the breadth-first order of the orbit search:
        # q -> (p, j) where t_q = t_p * gens[j], for every orbit point but
        # the root, so the orbit is the root and the tree's points
        self.edge = {}
        # the transversal elements formed and not dropped, orbit point
        # q -> t_q with point^t_q == q; level 0's scans drop each after its
        # last read, but never the root.  A dict, which refers to no level
        self.elements = {point: Permutation.identity(degree)}
        self.ids = None     # the chain's indices of the generators the
                            # orbit was last built from: gens[j] is
                            # strong_gens[ids[j]]
        self.padded = []    # their padded images, and the chain's inverse
        self.inverses = []  # images and orders of them
        self.orders = []

    def orbit(self) -> list:
        """The orbit in breadth-first order: the root, then the tree's
        points."""
        return [self.point, *self.edge]

    def orbit_length(self) -> int:
        return len(self.edge) + 1

    def element(self, q: int) -> Permutation:
        """The transversal element ``t_q``, formed the first time it is
        read: down q's tree path from its nearest formed ancestor, one
        product per edge, each kept."""
        elements = self.elements
        t = elements.get(q)
        if t is not None:
            return t
        edge, padded = self.edge, self.padded
        path = []
        while q not in elements:
            path.append(q)
            q = edge[q][0]
        images = elements[q].padded
        for q in reversed(path):
            images = _times(images, padded[edge[q][1]])
            elements[q] = t = Permutation._raw(images)
        return t

    def drops(self, schedule: list) -> list:
        """Per entry ``(p, reads)`` of a scan's schedule, the formed
        elements that entry uses last, to be dropped once its sifts are
        done.  The entry reads ``t_p`` and then ``t_q``, ``q = gens[j][p]``,
        for each ``j`` in ``reads``, and ``element`` forms an element down
        its tree path from the nearest formed ancestor: so an element is
        used last at the later of its own last read and the last formation
        it is the base of.  Replaying that rule over the schedule finds
        both.  The scan starts from the root's element alone, which is
        never dropped."""
        edge, padded = self.edge, self.padded
        last = {self.point: 0}
        for at, (p, reads) in enumerate(schedule):
            for j in reads:
                for q in (p, padded[j][p]):
                    while q not in last:    # formed now, from an ancestor
                        last[q] = at
                        q = edge[q][0]
                    last[q] = at
        del last[self.point]
        drops = [[] for _ in schedule]
        for q, at in last.items():
            drops[at].append(q)
        return drops

    def preimages(self, q: int, points: list) -> list:
        """The preimages of ``points`` under ``t_q``, by walking
        q's tree path to the root: ``t_q^-1 = gens[j]^-1 * t_p^-1``."""
        edge, inverses, root = self.edge, self.inverses, self.point
        while points and q != root:
            q, j = edge[q]
            inv = inverses[j]
            points = [inv[x] for x in points]
        return points

    def relations(self) -> tuple[list, list]:
        """The relations among the level's generators, in its own indices
        and as ``_relations`` gives them: the chain's relations whose
        letters are all as deep as the level."""
        local = {g: j for j, g in enumerate(self.ids)}.__getitem__
        equal, inverse = [], []
        for at_equal, at_inverse in self.reach[self.depth:]:
            equal += [tuple(map(local, r)) for r in at_equal]
            inverse += [tuple(map(local, r)) for r in at_inverse]
        return equal, inverse

    def skipped(self) -> list:
        """Per generator ``j``, a bytearray that flags the points ``p``
        whose Schreier generator ``t_p * gens[j] * t_q^-1`` a scan in
        ``(p, j)`` order need not sift: those of the tree edges, which are
        1, and on each relator walk from an orbit point, the non-tree edge
        that comes last in that order, when it occurs on the walk once.
        The walks go around each cycle of ``gens[j]`` as long as its
        order, along ``p -a-> x -b-> p`` for ``g_a g_b = 1``, and along
        ``(p, a), (x, b)`` and ``(p, c), (y, d)`` for ``g_a g_b = g_c g_d``.
        The Schreier generators along a walk multiply to 1, so the last
        lies in the deeper levels' group once the walk's earlier ones
        have sifted to the identity."""
        k = len(self.padded)
        if not k:
            return []
        # edge (p, j) is coded p*k + j, which keeps the order; free[j][p]
        # is that code for an orbit point p, or 0, which is no edge, on a
        # tree edge
        orbit = self.orbit()
        codes = [p * k for p in orbit]
        free = [dict(zip(orbit, map(j.__add__, codes))) for j in range(k)]
        flags = bytearray(len(self.padded[0]) * k)
        for p, j in self.edge.values():
            free[j][p] = 0
            flags[p * k + j] = 1
        for j, (images, order) in enumerate(zip(self.padded, self.orders)):
            seen, code = bytearray(len(images)), free[j]
            for p in orbit:
                last = length = 0
                while not seen[p]:
                    seen[p] = 1
                    length += 1
                    if code[p] > last:
                        last = code[p]
                    p = images[p]
                if last and length == order:
                    flags[last] = 1

        def walk(j, points):
            return map(free[j].__getitem__, points)

        # along g_a g_b = 1 the two edges differ, as a != b.  Along
        # g_a g_b = g_c g_d, the edges (p, a) and (p, c) differ, as a != c
        # for distinct generators, and so do (x, b) and (y, d), as b != d:
        # so the last free edge occurs on the walk twice iff it is the last
        # of both pairs.  (b, a) walks the same edges as (a, b), and (a, a)
        # the cycles of an involution.
        moved = [list(map(images.__getitem__, orbit)) for images in self.padded]
        equal, inverse = self.relations()
        for a, b in inverse:
            if a < b:
                for x, y in zip(walk(a, orbit), walk(b, moved[a])):
                    if x > y:
                        flags[x] = 1
                    elif y > x:
                        flags[y] = 1
        for a, b, c, d in equal:
            for x, u, y, v in zip(walk(a, orbit), walk(c, orbit),
                                  walk(b, moved[a]), walk(d, moved[c])):
                if u > x:
                    x = u
                if v > y:
                    y = v
                if x > y:
                    flags[x] = 1
                elif y > x:
                    flags[y] = 1
        return [flags[j::k] for j in range(k)]


class StabiliserChain:
    """Base and strong generating set for a permutation group.

    ``base`` is the sequence of base points; level ``i`` records the orbit of
    ``base[i]`` under the strong generators fixing ``base[:i]`` pointwise,
    together with a transversal.  The group order is the product of the orbit
    lengths and membership is decided by sifting.
    """

    def __init__(self, degree: int, generators, base_prefix=()):
        self.degree = degree
        self.strong_gens: list[Permutation] = []
        # per strong generator, kept once: its padded inverse images, its
        # order, and its depth, the index of the first base point it moves:
        # it lies in the levels up to that one
        self._finder = _RelationFinder(degree)
        self._inverses, self._orders, self._depths = [], [], []
        # per depth d, the relations among the strong generators whose
        # letters' least depth is d, as (equal, inverse)
        self._reach: list[tuple[list, list]] = []
        self.levels: list[_ChainLevel] = []
        for p in base_prefix:
            if not 1 <= p <= degree:
                raise InputError(f"base point {p} out of range 1..{degree}")
            self._append_level(p)
        for g in generators:
            if g.degree != degree:
                raise InputError("generator degree mismatch")
            if not g.is_identity() and g not in self.strong_gens:
                self.strong_gens.append(g)
                self._ensure_base_covers(g)
        self._register(self.strong_gens)
        self._complete()

    # -- construction ---------------------------------------------------

    def _append_level(self, point: int) -> None:
        self.levels.append(
            _ChainLevel(point, self.degree, len(self.levels), self._reach))

    def _ensure_base_covers(self, g: Permutation) -> None:
        """Append base points until g moves some base point (first moved point rule)."""
        residue = g
        for lev in self.levels:
            if residue.apply(lev.point) != lev.point:
                return
        for p in range(1, self.degree + 1):
            if residue.apply(p) != p:
                self._append_level(p)
                return

    def _register(self, gens: list) -> None:
        """Keep the padded inverse images, order and depth of ``gens``,
        the newest strong generators, each of which moves a base point;
        find their relations with the earlier ones and file each by the
        least depth of its letters."""
        points = [lev.point for lev in self.levels]
        depths = self._depths
        for s in gens:
            self._inverses.append(s.inverse().padded)
            self._orders.append(math.lcm(*map(len, s.cycles())))
            depths.append(next(d for d, p in enumerate(points)
                               if s.padded[p] != p))
        found = self._finder.add([s.padded for s in gens])
        self._reach += [([], []) for _ in range(len(points) - len(self._reach))]
        for at, relations in enumerate(found):
            for r in relations:
                self._reach[min(map(depths.__getitem__, r))][at].append(r)

    def _rebuild_orbit(self, i: int) -> None:
        """Rebuild level i's orbit and Schreier tree breadth first, on the
        strong generators as deep as the level.  Only the root's element is
        kept: every other one is formed when it is first read
        (``element``)."""
        lev = self.levels[i]
        ids = lev.ids = [g for g, d in enumerate(self._depths) if d >= i]
        padded = lev.padded = [self.strong_gens[g].padded for g in ids]
        lev.inverses = [self._inverses[g] for g in ids]
        lev.orders = [self._orders[g] for g in ids]
        root = lev.point
        edge = lev.edge = {}
        queue = [root]
        for p in queue:     # breadth first: the list grows while it is read
            for j, images in enumerate(padded):
                q = images[p]
                if q not in edge and q != root:
                    edge[q] = (p, j)
                    queue.append(q)
        lev.elements = {root: lev.elements[root]}

    def _sift_base_images(self, i: int, images: list) -> list:
        """Sift some ``x`` from level ``i`` on base images alone:
        ``images[k]`` is the image of ``base[i + k]`` under ``x``.  Return
        the path, the orbit point at which each level was passed; the sift
        stopped at level ``i + len(path)``, whose orbit misses its image
        unless every level was passed.  Each level maps the images still to
        be placed back along one tree path."""
        path = []
        for lev in self.levels[i:]:
            img = images[0]
            if img not in lev.edge and img != lev.point:
                break
            path.append(img)
            images = lev.preimages(img, images[1:])
        return path

    def _path_product(self, i: int, path: list) -> Permutation:
        """The transversal elements on a sift path from level ``i``
        multiplied deepest first: the element whose sift follows ``path``
        to the identity."""
        factors = [lev.element(img) for lev, img in zip(self.levels[i:], path)]
        out = Permutation.identity(self.degree)
        for t in reversed(factors):
            out = out * t
        return out

    def _sift_schreier(self, i: int, u: Permutation, j: int, q: int,
                       memo: dict | None):
        """Sift the Schreier generator ``x = u s t_q^-1`` of level ``i``,
        ``s`` the level's generator ``j``, through the deeper levels.
        Return None when it sifts to the identity, else ``(residue,
        level)``: ``x`` times the inverses of the transversal elements the
        sift passed, and the level where it stopped (``len(self.levels)``
        when it passed them all).

        ``x`` is the identity when ``u s`` is ``t_q``.  Otherwise the
        deeper base points' images under ``x`` are those under ``u s``
        mapped back along q's tree path, and ``_sift_base_images`` sifts
        them.  A level that misses has a residue moving its base point off
        its orbit, which is not the identity.  When every level passes, the
        residue is the identity iff ``u s`` is ``T t_q``, where ``T`` is the
        path product; ``memo``, when given, keeps ``T`` by path.  The
        residue is formed, with the one inverse it needs, only when it is a
        new strong generator.
        """
        lev = self.levels[i]
        t_q = lev.element(q)
        us = _times(u.padded, lev.padded[j])
        if us == t_q.padded:
            return None     # x is the identity
        deeper = self.levels[i + 1:]
        images = [us[d.point] for d in deeper]
        path = self._sift_base_images(i + 1, lev.preimages(q, images))
        if len(path) < len(deeper):
            passed = self._path_product(i + 1, path) * t_q
        else:
            key = tuple(path)
            target = None if memo is None else memo.get(key)
            if target is None:
                target = self._path_product(i + 1, path)
                if memo is not None:
                    memo[key] = target
            passed = target * t_q
            if us == passed.padded:
                return None
        return Permutation._raw(us) * passed.inverse(), i + 1 + len(path)

    def _complete(self) -> None:
        """Deterministic Schreier-Sims: make every level's Schreier generators
        sift to the identity through the deeper levels.

        The levels are scanned from the deepest up (``_scan``); a scan that
        finds a new strong generator goes on at the level where its sift
        stopped.  A level is first built when it is first scanned, and
        rebuilt only by a scan, so never for generators that change again
        before a scan reads it.  A scan computes its flags once, before
        its first sift.  Each strong generator's inverse images, order and
        relations with the earlier ones are found once, when it is
        appended (``_register``), and every level reads them.
        The chain is the one the product sift builds."""
        i = len(self.levels) - 1
        while i >= 0:
            new_level = self._scan(i)
            i = i - 1 if new_level is None else new_level

    def _scan(self, i: int) -> int | None:
        """Sift level ``i``'s Schreier generators in ``(p, j)`` order with
        ``_sift_schreier``; on the first that is not in the deeper levels'
        group, append its residue as a strong generator and return the
        level where its sift stopped, else return None.

        ``_ChainLevel.skipped`` flags the tree edges and the last non-tree
        edge of each relator walk, which the walk's earlier ones imply.
        The flags fix the scan's reads, which it lists once and then
        sifts; at level 0, ``_ChainLevel.drops`` names on that list the
        elements each point reads last, and the scan drops them once that
        point's sifts are done.  Its memo of path products lives for one
        scan, and only when the product of the deeper orbit lengths is at
        most this level's orbit length, which bounds the memo by the
        transversal; otherwise each path product is formed and dropped."""
        self._rebuild_orbit(i)
        lev = self.levels[i]
        # one memo entry per path, that is per element of the deeper
        # levels' group
        deeper = math.prod(d.orbit_length() for d in self.levels[i + 1:])
        memo = {} if deeper <= lev.orbit_length() else None
        skip = lev.skipped()
        schedule = [(p, [j for j, flags in enumerate(skip) if not flags[p]])
                    for p in sorted(lev.orbit())]
        drops = lev.drops(schedule) if i == 0 else [()] * len(schedule)
        for (p, reads), drop in zip(schedule, drops):
            for j in reads:
                sifted = self._sift_schreier(i, lev.element(p), j,
                                             lev.padded[j][p], memo)
                if sifted is None:
                    continue
                residue, new_level = sifted
                self.strong_gens.append(residue)
                if new_level == len(self.levels):
                    self._ensure_base_covers(residue)
                self._register([residue])
                return new_level
            for q in drop:
                del lev.elements[q]
        return None

    # -- queries --------------------------------------------------------

    @property
    def base(self):
        return tuple(lev.point for lev in self.levels)

    def order(self) -> int:
        n = 1
        for lev in self.levels:
            n *= lev.orbit_length()
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        path = self._sift_base_images(
            0, [g.padded[lev.point] for lev in self.levels])
        return (len(path) == len(self.levels)
                and g.padded == self._path_product(0, path).padded)

    def stabiliser_generators(self) -> list[Permutation]:
        """Strong generators fixing the first base point; they generate the
        point stabiliser of ``base[0]`` exactly."""
        if not self.levels:
            return []
        p = self.levels[0].point
        return [s for s in self.strong_gens if s.apply(p) == p]


class PermutationGroup:
    """A finite permutation group given by generators.

    The stabiliser chain is computed on first use and cached.  Its order and
    base are fixed afterwards; a membership test may still form and keep a
    transversal element, or form again one that the chain dropped after
    its last read while it was built, and two threads doing so at once
    form equal ones, so instances are safe to share between threads.
    """

    def __init__(self, degree: int, generators=()):
        if degree < 1:
            raise InputError("degree must be a positive integer")
        gens = tuple(generators)
        for g in gens:
            if g.degree != degree:
                raise InputError("generator degree mismatch")
        self.degree = degree
        self.generators = gens
        self._chain: StabiliserChain | None = None
        self._elements: tuple[Permutation, ...] | None = None

    def chain(self) -> StabiliserChain:
        if self._chain is None:
            self._chain = StabiliserChain(self.degree, self.generators)
        return self._chain

    def order(self) -> int:
        return self.chain().order()

    def contains(self, g: Permutation) -> bool:
        return self.chain().contains(g)

    def identity(self) -> Permutation:
        return Permutation.identity(self.degree)

    def elements(self, cap: int = DEFAULT_ELEMENT_CAP) -> tuple[Permutation, ...]:
        """All elements, sorted by image tuple (deterministic enumeration
        order).  Computed by breadth-first closure of the generators."""
        if self._elements is None:
            known = {self.identity()}
            frontier = [self.identity()]
            while frontier:
                nxt = []
                for x in frontier:
                    for s in self.generators:
                        y = x * s
                        if y not in known:
                            known.add(y)
                            if len(known) > cap:
                                raise CapacityError("element enumeration cap", cap,
                                                    f"> {cap}")
                            nxt.append(y)
                frontier = nxt
            self._elements = tuple(sorted(known, key=attrgetter("padded")))
        return self._elements

    def orbit(self, point: int) -> tuple[int, ...]:
        if not 1 <= point <= self.degree:
            raise InputError(f"point {point} out of range 1..{self.degree}")
        gens = [s.padded for s in self.generators]
        seen = {point}
        queue = [point]
        for p in queue:     # breadth first: the list grows while it is read
            for images in gens:
                q = images[p]
                if q not in seen:
                    seen.add(q)
                    queue.append(q)
        return tuple(sorted(seen))

    def __repr__(self):
        gens = ", ".join(g.cycle_string() for g in self.generators) or "()"
        return f"PermutationGroup(degree={self.degree}, <{gens}>)"


# ---------------------------------------------------------------------------
# module-level operations
# ---------------------------------------------------------------------------


def orbits(group: PermutationGroup) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of {1..degree}: each part sorted ascending, parts
    ordered by minimal element."""
    seen = set()
    parts = []
    for p in range(1, group.degree + 1):
        if p not in seen:   # the least point of an orbit not yet listed
            orb = group.orbit(p)
            parts.append(orb)
            seen.update(orb)
    return tuple(parts)


def point_stabiliser(group: PermutationGroup, point: int) -> PermutationGroup:
    """The subgroup of elements fixing ``point``, at the same degree.

    Built from a stabiliser chain whose first base point is forced to be
    ``point``; the strong generators fixing it generate the stabiliser.
    """
    if not 1 <= point <= group.degree:
        raise InputError(f"point {point} out of range 1..{group.degree}")
    chain = StabiliserChain(group.degree, group.generators, base_prefix=(point,))
    return PermutationGroup(group.degree, tuple(chain.stabiliser_generators()))


class GroupPredicates(NamedTuple):
    is_transitive: bool
    is_semiregular: bool


def predicates(parts, order: int) -> GroupPredicates:
    """Transitivity and semiregularity of a group ``L`` from its orbit
    ``parts`` and its ``order``: one orbit, and every orbit of length
    ``|L|``, which by orbit-stabiliser (``|L_p| = |L| / |p^L|``) is every
    point stabiliser trivial."""
    return GroupPredicates(len(parts) == 1,
                           all(len(part) == order for part in parts))


def _conjugacy_class(group: PermutationGroup,
                     element: Permutation) -> tuple[Permutation, ...]:
    """The conjugates of a member ``element`` of ``group``: its closure
    under conjugation by the generators.  They generate its normal
    closure."""
    by = [(s.inverse(), s) for s in group.generators]
    conjugates = [element]
    seen = {element}
    for x in conjugates:    # breadth first: the list grows while it is read
        for s_inv, s in by:
            y = s_inv * x * s
            if y not in seen:
                seen.add(y)
                conjugates.append(y)
    return tuple(conjugates)


def is_semiprimitive(group: PermutationGroup, cap: int = DEFAULT_ELEMENT_CAP) -> bool:
    """True iff every normal subgroup is transitive or semiregular.

    Criterion: every non-identity element with a fixed point must have a
    transitive normal closure.  A normal subgroup violating semiprimitivity
    contains such an element whose closure stays inside it, hence is
    intransitive; conversely an intransitive closure of such an element is
    itself a normal, intransitive, non-semiregular subgroup.  Conjugates
    share their normal closure, so one element per conjugacy class is
    tested.
    """
    if group.order() > cap:
        raise CapacityError("semiprimitivity enumeration cap", cap, group.order())
    seen = set()
    for x in group.elements(cap):
        if x in seen or x.is_identity() or not x.fixed_points():
            continue
        conjugates = _conjugacy_class(group, x)
        seen.update(conjugates)
        if len(orbits(PermutationGroup(group.degree, conjugates))) != 1:
            return False
    return True


def _orbit_labels(group: PermutationGroup) -> dict[int, tuple[int, int]]:
    """Per point, its orbit's length and least point."""
    return {p: (len(orb), orb[0]) for orb in orbits(group) for p in orb}


def permutation_isomorphic(g1: PermutationGroup,
                           g2: PermutationGroup) -> Permutation | None:
    """The lexicographically first bijection sigma of the points with
    ``sigma^-1 * g1 * sigma == g2`` as a set of permutations, or None.

    A backtracking search in one loop: it places images for the points
    1..m in increasing order, each the least unused point of the same
    orbit length whose orbit agrees with the orbit matching, and takes the
    last placement back when no image is left.  ``sigma`` holds the images
    placed, ``used`` the images taken, and ``onto`` the g2-orbit each
    g1-orbit is matched to.  An orbit's least point is its first placed
    point, so its match is made when that point is placed and undone when
    that point is taken back.  The orders are equal, so equal orbit lengths
    are equal point stabiliser orders.  A complete placement is accepted
    once every generator of g1 conjugates into g2, which with equal orders
    makes the conjugate group g2.  The search places at most
    ``ISOMORPHISM_NODE_BUDGET`` points, counting every image it tries, and
    raises CapacityError beyond that.
    """
    if g1.degree != g2.degree:
        return None
    if g1.order() != g2.order():
        return None
    m = g1.degree
    labels1 = _orbit_labels(g1)
    labels2 = _orbit_labels(g2)
    if (sorted(size for size, _ in labels1.values())
            != sorted(size for size, _ in labels2.values())):
        return None
    budget = ISOMORPHISM_NODE_BUDGET
    nodes = 0
    sigma = [0] * (m + 1)           # sigma[p], the image placed for p
    used = [False] * (m + 1)
    onto: dict[int, int] = {}       # g1 orbit's least point -> g2 orbit's
    p, q = 1, 1         # the point to place, and the least image to try
    while p:
        if p <= m:
            size, orbit = labels1[p]
            matched = onto.get(orbit)
            while q <= m and (used[q] or labels2[q][0] != size or (
                    labels2[q][1] in onto.values() if matched is None
                    else labels2[q][1] != matched)):
                q += 1
            if q <= m:
                nodes += 1
                if nodes > budget:
                    raise CapacityError("isomorphism search nodes", budget,
                                        f"> {budget}")
                sigma[p] = q
                used[q] = True
                onto.setdefault(orbit, labels2[q][1])
                p, q = p + 1, 1
                continue
        else:
            s = Permutation(sigma[1:])
            s_inv = s.inverse()
            if all(g2.contains(s_inv * g * s) for g in g1.generators):
                return s
        p -= 1          # back to the last placed point, to try its next image
        if p:
            q = sigma[p]
            used[q] = False
            if labels1[p][1] == p:
                del onto[p]
            q += 1
    return None
