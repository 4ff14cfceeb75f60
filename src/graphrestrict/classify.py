"""Classify a local group: orbit representatives, stabiliser orders, verdict.

An intransitive permutation group is graph-restrictive exactly when it is
semiregular; transitive input is accepted but flagged as outside this tool's
scope.  Everything the verdict needs is read off the orbits: by
orbit-stabiliser a point stabiliser has order ``|L| / |orbit|``, so ``L`` is
semiregular exactly when every orbit has length ``|L|``.  For the
non-semiregular intransitive case the analysis records the data the
downstream construction consumes: one representative per orbit, with the
first representative chosen so that its point stabiliser has maximal order
(ties broken by smallest point) - this maximises the growth rate of the
constructed vertex stabilisers, and the choice is recorded so certificates
are reproducible.  The only stabiliser built here is the anchor's, on first
use by the star.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from . import perm
from .errors import TheoryViolationError
from .perm import PermutationGroup

RESTRICTIVE_SEMIREGULAR = "RESTRICTIVE_SEMIREGULAR"
NOT_RESTRICTIVE = "NOT_RESTRICTIVE"
OUT_OF_SCOPE_TRANSITIVE = "OUT_OF_SCOPE_TRANSITIVE"


class AnalysisFlags(NamedTuple):
    transitive: bool
    semiregular: bool
    semiprimitive: bool | None  # None when the enumeration cap was exceeded


class _AnalysisFields(NamedTuple):
    source: PermutationGroup
    orbit_parts: tuple[tuple[int, ...], ...]
    orbit_reps: tuple[int, ...]
    stabiliser_orders: tuple[int, ...]
    k: int
    flags: AnalysisFlags
    verdict: str


class LocalGroupAnalysis(_AnalysisFields):
    # no __slots__: the instance __dict__ holds the cached anchor stabiliser

    @property
    def anchor(self) -> int:
        """The first orbit representative."""
        return self.orbit_reps[0]

    @functools.cached_property
    def anchor_stabiliser(self) -> PermutationGroup:
        """The anchor's point stabiliser, built once per analysis."""
        return perm.point_stabiliser(self.source, self.anchor)


def analyze_local_group(group: PermutationGroup) -> LocalGroupAnalysis:
    """Full analysis of a local group; every input classifies."""
    parts = perm.orbits(group)
    k = len(parts)
    n = group.order()

    # Stabiliser order is constant on an orbit, |group| / |orbit|, so the
    # anchor is the least point of the first orbit of least length; the
    # other orbits follow in order of their least points.
    orders = [n // len(part) for part in parts]
    best = orders.index(max(orders))
    ranked = [best] + [i for i in range(k) if i != best]

    preds = perm.predicates(parts, n)
    if n > perm.DEFAULT_ELEMENT_CAP:
        semiprimitive = None
    elif preds.is_transitive:
        semiprimitive = perm.is_semiprimitive(group)
    else:
        # the group is a normal intransitive subgroup of itself, so it is
        # semiprimitive exactly when it is semiregular
        semiprimitive = preds.is_semiregular
    flags = AnalysisFlags(preds.is_transitive, preds.is_semiregular, semiprimitive)

    if preds.is_transitive:
        verdict = OUT_OF_SCOPE_TRANSITIVE
    elif preds.is_semiregular:
        verdict = RESTRICTIVE_SEMIREGULAR
    else:
        verdict = NOT_RESTRICTIVE

    analysis = LocalGroupAnalysis(
        source=group,
        orbit_parts=parts,
        orbit_reps=tuple(parts[i][0] for i in ranked),
        stabiliser_orders=tuple(orders[i] for i in ranked),
        k=k,
        flags=flags,
        verdict=verdict,
    )
    if verdict == NOT_RESTRICTIVE and (k < 2 or analysis.stabiliser_orders[0] == 1):
        raise TheoryViolationError("NOT_RESTRICTIVE without two orbits and a "
                                   "nontrivial anchor stabiliser")
    return analysis


class VerdictReport(NamedTuple):
    verdict: str
    message: str
    bound: int | None            # c for the restrictive case
    growth_base: int | None      # |group| for the unbounded witness
    growth_ratio: int | None     # anchor stabiliser order


def restrictive_verdict(analysis: LocalGroupAnalysis) -> VerdictReport:
    """The verdict with a human-readable justification.

    Semiregular local groups of degree d force trivial arc stabilisers in any
    connected vertex-transitive pair, so vertex stabilisers have order at most
    d; that constant is reported.  Non-semiregular intransitive groups admit
    pairs with vertex-stabiliser order |group| * s^n for every n >= 2, where s
    is the anchor stabiliser order, which is unbounded.
    """
    degree = analysis.source.degree
    if analysis.verdict == RESTRICTIVE_SEMIREGULAR:
        return VerdictReport(
            analysis.verdict,
            f"graph-restrictive (semiregular, c(L) = {degree})",
            bound=degree, growth_base=None, growth_ratio=None)
    if analysis.verdict == NOT_RESTRICTIVE:
        base = analysis.source.order()
        ratio = analysis.stabiliser_orders[0]
        return VerdictReport(
            analysis.verdict,
            f"not graph-restrictive; |G_v| = {base}*{ratio}^n realizable "
            "for every n >= 2",
            bound=None, growth_base=base, growth_ratio=ratio)
    return VerdictReport(
        analysis.verdict,
        "transitive: outside this tool's scope",
        bound=None, growth_base=None, growth_ratio=None)
