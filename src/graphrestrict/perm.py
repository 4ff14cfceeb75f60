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

The primitives run at C speed.  ``images`` stays 1-based; a product looks
the points of the first factor up in the second factor's images padded with
a leading 0, through one ``operator.itemgetter`` call.  An identity test
compares ``images`` with a cached ``(1, ..., m)``.  The constructor,
``from_cycles`` and ``inverse`` take their ints from that cached tuple, and
a product gathers its items from its factors, so every image tuple of a
degree holds one int object per point: equal tuples then compare item by
item on identity alone.

Each chain level keeps its forward transversal and a Schreier tree, one
edge ``t_q = t_p * gens[j]`` per orbit point, with the image tuples of its
generators' inverses; a preimage under ``t_q`` walks ``q``'s tree path to
the root, so no transversal element's inverse is stored.  A level's orbit
is rebuilt only when its generators have changed, and a rebuild multiplies
out only the points whose tree edge or parent element changed.

The chain sifts each Schreier generator ``u s t_q^-1`` on base images: the
deeper base points' images are mapped back along one tree path per level.
Besides ``u s``, a product is formed only to compare ``u s`` with ``T t_q``,
where ``T`` is the product of the transversal elements on the sift's path,
or for a new strong generator, the only residue the sift inverts.  One level
scan keeps ``T`` in a memo keyed by the path, used only when the deeper
levels' group is no larger than the scanned orbit, so it never holds more
permutations than the level's transversal.

A scan skips the Schreier generators that relators among the level's
generators already prove, so the chain is the one that sifts them all.
Those of the tree edges are the identity by construction.  A relator
``w = s_1 ... s_k = 1`` walks a closed path from each orbit point ``p``
through the Schreier graph, and the Schreier generators along it multiply
to ``u_p w u_p^-1 = 1``: so once all but one of them lie in the deeper
levels' group ``H``, the last one does too, provided it occurs on the walk
once.  The relators are the full-length cycles of a generator ``s`` of
order ``m`` (``s^m = 1``) and the relations ``g_a g_b = 1`` and
``g_a g_b = g_c g_d`` that ``_relations`` finds among the level's
generators when a scan starts.  A scan runs in ``(p, j)`` order and flags,
on each walk, the non-tree edge it reaches last.  By
induction on that order, every edge the scan reaches without breaking was
sifted into ``H`` or flagged by a walk whose other edges came earlier and
are in ``H``; a scan that breaks on a new strong generator is followed by
one with flags computed afresh.
"""

from __future__ import annotations

import collections
import functools
import itertools
import math
import re
from dataclasses import dataclass
from operator import attrgetter, itemgetter

from .errors import CapacityError, InputError, ParseError

DEFAULT_ELEMENT_CAP = 100_000


@functools.cache
def _identity_images(degree: int) -> tuple[int, ...]:
    """``(1, ..., degree)``: the one int object per point that every image
    tuple of this degree holds."""
    return tuple(range(1, degree + 1))


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

    ``images[p-1]`` is the image of the point ``p``.
    """

    __slots__ = ("images",)

    def __init__(self, images):
        images = tuple(images)
        if not images:
            raise InputError("degree 0 permutations are not allowed")
        points = _identity_images(len(images))
        if sorted(images) != list(points):
            raise InputError(_image_list_fault(images))
        images = itemgetter(*images)((0,) + points)
        object.__setattr__(self, "images",
                           images if len(points) > 1 else (images,))

    def __setattr__(self, name, value):  # immutability guard
        raise AttributeError("Permutation is immutable")

    @classmethod
    def _raw(cls, images: tuple) -> "Permutation":
        """Unchecked constructor for results that are permutations by
        construction (products, inverses, powers)."""
        p = object.__new__(cls)
        object.__setattr__(p, "images", images)
        return p

    @property
    def degree(self) -> int:
        return len(self.images)

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
        images = [0, *points]                   # images[p], 0 is padding
        preimages = list(range(degree + 1))
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
                images[src] = points[q - 1]
                preimages[q] = src
        return cls._raw(tuple(images[1:]))

    def apply(self, point: int) -> int:
        if not 1 <= point <= self.degree:
            raise InputError(f"point {point} out of range 1..{self.degree}")
        return self.images[point - 1]

    def __mul__(self, other: "Permutation") -> "Permutation":
        """self then other."""
        si, oi = self.images, other.images
        if len(oi) != len(si):
            raise InputError("degree mismatch in product")
        images = itemgetter(*si)((0,) + oi)
        # itemgetter with a single index returns the item, not a 1-tuple
        return Permutation._raw(images if len(si) > 1 else (images,))

    def inverse(self) -> "Permutation":
        inv = [0] * len(self.images)
        for p, q in zip(_identity_images(len(self.images)), self.images):
            inv[q - 1] = p
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
        return self.images == _identity_images(len(self.images))

    def fixed_points(self):
        return tuple(p for p, q in enumerate(self.images, start=1) if p == q)

    def cycles(self):
        """Nontrivial cycles, each rotated to start at its minimum, sorted."""
        seen = set()
        out = []
        for p in range(1, self.degree + 1):
            if p in seen or self.images[p - 1] == p:
                continue
            cyc = [p]
            q = self.images[p - 1]
            while q != p:
                cyc.append(q)
                seen.add(q)
                q = self.images[q - 1]
            out.append(tuple(cyc))
        return tuple(out)

    def cycle_string(self) -> str:
        cycs = self.cycles()
        if not cycs:
            return "()"
        return "".join("(" + " ".join(str(p) for p in c) + ")" for c in cycs)

    def __eq__(self, other):
        return isinstance(other, Permutation) and self.images == other.images

    def __lt__(self, other):
        return self.images < other.images

    def __hash__(self):
        return hash(self.images)

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


def _relations(padded) -> tuple[list, list]:
    """``(a, b, c, d)`` for each g_a g_b = g_c g_d != 1 with b != d, once
    per unordered pair of pairs and with (a, b) < (c, d), and ``(a, b)``
    for each g_a g_b = 1, from the generators' images padded with a
    leading 0.  The coset enumeration deduces transition entries from them,
    and a chain level closes relator walks.  Pairs are bucketed by the
    hash of their products on every step-th point; only a bucket that may
    hold a relation forms whole products, one at a time, and keeps a
    relation once they compare equal."""
    if not padded:
        return [], []
    identity = tuple(range(len(padded[0])))
    step = max(1, len(identity) // 64)
    samples = [itemgetter(*images[::step]) for images in padded]
    buckets = collections.defaultdict(list)
    for a, b in itertools.product(range(len(padded)), repeat=2):
        buckets[hash(samples[a](padded[b]))].append((a, b))
    one = hash(identity[::step])
    equal, inverse = [], []
    for key, bucket in buckets.items():
        if len(bucket) > 1 or key == one:
            seen = []           # the bucket's products other than 1
            for a, b in bucket:
                product = itemgetter(*padded[a])(padded[b])
                if product == identity:
                    inverse.append((a, b))
                else:
                    equal += [p + (a, b) for p, other in seen
                              if p[1] != b and other == product]
                    seen.append(((a, b), product))
    return equal, inverse


class _ChainLevel:
    __slots__ = ("point", "transversal", "edge", "gens", "inverses", "orders")

    def __init__(self, point: int, degree: int):
        self.point = point
        # orbit point q -> representative t_q with point^t_q == q, in the
        # breadth-first order of the orbit search
        self.transversal = {point: Permutation.identity(degree)}
        # the Schreier tree: q -> (p, j) where t_q = t_p * gens[j]; every
        # orbit point but the root has an edge
        self.edge = {}
        self.gens = None    # the generators the orbit was last built from
        self.inverses = []  # the image tuples of the inverses of gens
        self.orders = []    # the orders of gens, reused like inverses

    def preimages(self, q: int, points: list) -> list:
        """The preimages of ``points`` under ``transversal[q]``, by walking
        q's tree path to the root: ``t_q^-1 = gens[j]^-1 * t_p^-1``."""
        edge, inverses, root = self.edge, self.inverses, self.point
        while points and q != root:
            q, j = edge[q]
            inv = inverses[j]
            points = [inv[x - 1] for x in points]
        return points

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
        gens = [s.images for s in self.gens]
        tree = set(self.edge.values())
        skip = [bytearray(len(images) + 1) for images in gens]
        for p, j in tree:
            skip[j][p] = 1

        def close(walk):
            free = [e for e in walk if e not in tree]
            if free:
                last = max(free)
                if free.count(last) == 1:
                    skip[last[1]][last[0]] = 1

        for j, images in enumerate(gens):
            seen = bytearray(len(images) + 1)
            for p in self.transversal:
                if seen[p]:
                    continue
                cycle = [p]
                q = images[p - 1]
                while q != p:
                    cycle.append(q)
                    q = images[q - 1]
                for q in cycle:
                    seen[q] = 1
                if len(cycle) == self.orders[j]:
                    close([(q, j) for q in cycle])
        equal, inverse = _relations([(0,) + images for images in gens])
        # (b, a) walks the same edges as (a, b), and (a, a) the cycles of
        # an involution
        inverse = [(a, b) for a, b in inverse if a < b]
        for p in self.transversal:
            for a, b in inverse:
                close([(p, a), (gens[a][p - 1], b)])
            for a, b, c, d in equal:
                close([(p, a), (gens[a][p - 1], b),
                       (p, c), (gens[c][p - 1], d)])
        return skip


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
        self.levels: list[_ChainLevel] = []
        for p in base_prefix:
            if not 1 <= p <= degree:
                raise InputError(f"base point {p} out of range 1..{degree}")
            self.levels.append(_ChainLevel(p, degree))
        for g in generators:
            if g.degree != degree:
                raise InputError("generator degree mismatch")
            if not g.is_identity() and g not in self.strong_gens:
                self.strong_gens.append(g)
                self._ensure_base_covers(g)
        self._complete()

    # -- construction ---------------------------------------------------

    def _ensure_base_covers(self, g: Permutation) -> None:
        """Append base points until g moves some base point (first moved point rule)."""
        residue = g
        for lev in self.levels:
            if residue.apply(lev.point) != lev.point:
                return
        for p in range(1, self.degree + 1):
            if residue.apply(p) != p:
                self.levels.append(_ChainLevel(p, self.degree))
                return

    def _level_gens(self, i: int) -> list[Permutation]:
        pts = [lev.point for lev in self.levels[:i]]
        return [s for s in self.strong_gens
                if all(s.images[p - 1] == p for p in pts)]

    def _rebuild_orbit(self, i: int) -> None:
        """Rebuild level i's orbit, tree and transversal breadth first.

        A point keeps its old element when its tree edge, the generator on
        it and its parent's element are all unchanged; only the other
        points are multiplied.  Each old element leaves the old transversal
        when its point is settled, so the two are never held in full at
        once."""
        lev = self.levels[i]
        gens = self._level_gens(i)
        if gens == lev.gens:    # same generators, same orbit and transversals
            return
        old_gens, old_edge, old = lev.gens or [], lev.edge, lev.transversal
        same = [j < len(old_gens) and old_gens[j] is s
                for j, s in enumerate(gens)]
        lev.inverses = [lev.inverses[j] if same[j] else s.inverse().images
                        for j, s in enumerate(gens)]
        lev.orders = [lev.orders[j] if same[j]
                      else math.lcm(*map(len, s.cycles()))
                      for j, s in enumerate(gens)]
        lev.gens = gens
        transversal = lev.transversal = {lev.point: old.pop(lev.point)}
        edge = lev.edge = {}
        kept = {lev.point}      # the points whose old element is kept
        queue = [lev.point]
        for p in queue:     # breadth first: the list grows while it is read
            u = transversal[p]
            for j, s in enumerate(gens):
                q = s.images[p - 1]
                if q in transversal:
                    continue
                old_u = old.pop(q, None)
                old_p, old_j = old_edge.get(q, (None, None))
                if p in kept and old_p == p and old_gens[old_j] is s:
                    transversal[q] = old_u
                    kept.add(q)
                else:
                    transversal[q] = u * s
                edge[q] = (p, j)
                queue.append(q)

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
            if img not in lev.transversal:
                break
            path.append(img)
            images = lev.preimages(img, images[1:])
        return path

    def _path_product(self, i: int, path: list) -> Permutation:
        """The transversal elements on a sift path from level ``i``
        multiplied deepest first: the element whose sift follows ``path``
        to the identity."""
        factors = [lev.transversal[img] for lev, img in zip(self.levels[i:], path)]
        out = Permutation.identity(self.degree)
        for t in reversed(factors):
            out = out * t
        return out

    def _sift_schreier(self, i: int, u: Permutation, s: Permutation, q: int,
                       memo: dict | None):
        """Sift the Schreier generator ``x = u s t_q^-1`` of level ``i``
        through the deeper levels.  Return None when it sifts to the
        identity, else ``(residue, level)``: ``x`` times the inverses of the
        transversal elements the sift passed, and the level where it
        stopped (``len(self.levels)`` when it passed them all).

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
        t_q = self.levels[i].transversal[q]
        us = u * s
        if us.images == t_q.images:
            return None     # x is the identity
        deeper = self.levels[i + 1:]
        images = [us.images[lev.point - 1] for lev in deeper]
        path = self._sift_base_images(i + 1, self.levels[i].preimages(q, images))
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
            if us.images == passed.images:
                return None
        return us * passed.inverse(), i + 1 + len(path)

    def _complete(self) -> None:
        """Deterministic Schreier-Sims: make every level's Schreier generators
        sift to the identity through the deeper levels.

        A level's scan goes through the (point, generator) pairs in order
        and sifts each Schreier generator with ``_sift_schreier``, except
        those ``_ChainLevel.skipped`` flags: the tree edges', which are the
        identity, and the last non-tree edge's of each relator walk, which
        the walk's earlier ones imply.  Its memo of path products lives for
        one scan, and only when the product of the deeper orbit lengths is
        at most this level's orbit length, which bounds the memo by the
        transversal; otherwise each path product is formed and dropped.
        The chain is the one the product sift builds."""
        for i in range(len(self.levels)):
            self._rebuild_orbit(i)
        i = len(self.levels) - 1
        while i >= 0:
            self._rebuild_orbit(i)
            lev = self.levels[i]
            gens = lev.gens
            skip = lev.skipped()
            # one memo entry per path, that is per element of the deeper
            # levels' group
            deeper = math.prod(len(d.transversal) for d in self.levels[i + 1:])
            memo = {} if deeper <= len(lev.transversal) else None
            new_level = None
            for p in sorted(lev.transversal):
                u = lev.transversal[p]
                for j, s in enumerate(gens):
                    if skip[j][p]:
                        continue
                    sifted = self._sift_schreier(i, u, s, s.images[p - 1], memo)
                    if sifted is None:
                        continue
                    residue, new_level = sifted
                    self.strong_gens.append(residue)
                    if new_level == len(self.levels):
                        for r in range(1, self.degree + 1):
                            if residue.images[r - 1] != r:
                                self.levels.append(_ChainLevel(r, self.degree))
                                break
                    break
                if new_level is not None:
                    break
            if new_level is not None:
                for l in range(i, new_level + 1):
                    self._rebuild_orbit(l)
                i = new_level
            else:
                i -= 1

    # -- queries --------------------------------------------------------

    @property
    def base(self):
        return tuple(lev.point for lev in self.levels)

    def order(self) -> int:
        n = 1
        for lev in self.levels:
            n *= len(lev.transversal)
        return n

    def contains(self, g: Permutation) -> bool:
        if g.degree != self.degree:
            return False
        path = self._sift_base_images(
            0, [g.images[lev.point - 1] for lev in self.levels])
        return (len(path) == len(self.levels)
                and g.images == self._path_product(0, path).images)

    def stabiliser_generators(self) -> list[Permutation]:
        """Strong generators fixing the first base point; they generate the
        point stabiliser of ``base[0]`` exactly."""
        if not self.levels:
            return []
        p = self.levels[0].point
        return [s for s in self.strong_gens if s.apply(p) == p]


class PermutationGroup:
    """A finite permutation group given by generators.

    The stabiliser chain is computed on first use and cached; all values are
    immutable afterwards, so instances are safe to share between threads.
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
            self._elements = tuple(sorted(known, key=attrgetter("images")))
        return self._elements

    def orbit(self, point: int) -> tuple[int, ...]:
        if not 1 <= point <= self.degree:
            raise InputError(f"point {point} out of range 1..{self.degree}")
        gens = [s.images for s in self.generators]
        seen = {point}
        queue = [point]
        for p in queue:     # breadth first: the list grows while it is read
            for images in gens:
                q = images[p - 1]
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


@dataclass(frozen=True)
class GroupPredicates:
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


def _point_invariants(group: PermutationGroup):
    """(orbit size, stabiliser order, orbit id by minimal element) per point."""
    inv = {}
    n = group.order()
    for orb in orbits(group):
        size = len(orb)
        stab = n // size
        for p in orb:
            inv[p] = (size, stab, orb[0])
    return inv


def permutation_isomorphic(g1: PermutationGroup,
                           g2: PermutationGroup) -> Permutation | None:
    """A bijection sigma of the points with ``sigma^-1 * g1 * sigma == g2`` as
    a set of permutations, or None.

    Backtracking over point images, pruning on orbit size and point
    stabiliser order, with orbit-block consistency; a completed assignment is
    accepted once every generator of g1 conjugates into g2 (orders being
    equal, the conjugated group then coincides with g2).
    """
    if g1.degree != g2.degree:
        return None
    if g1.order() != g2.order():
        return None
    m = g1.degree
    inv1 = _point_invariants(g1)
    inv2 = _point_invariants(g2)
    if sorted(v[:2] for v in inv1.values()) != sorted(v[:2] for v in inv2.values()):
        return None

    orbit_map: dict[int, int] = {}  # g1 orbit id -> g2 orbit id
    sigma = [0] * m
    used = [False] * (m + 1)

    def accept() -> bool:
        s = Permutation(sigma)
        s_inv = s.inverse()
        return all(g2.contains(s_inv * g * s) for g in g1.generators)

    def extend(p: int) -> bool:
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
            sigma[p - 1] = q
            used[q] = True
            if extend(p + 1):
                return True
            used[q] = False
            sigma[p - 1] = 0
            if added:
                del orbit_map[oid1]
        return False

    if extend(1):
        return Permutation(sigma)
    return None
