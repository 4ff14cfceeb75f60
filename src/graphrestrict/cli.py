"""Command-line front end.

Subcommands:

* ``classify``  - verdict report for a group file,
* ``construct`` - run the construction pipeline and write a certificate
                  plus graph exports,
* ``verify``    - independently check a (graph, group, local group) triple,
* ``report``    - growth table over a range of n.

Group files use the grammar::

    # comment
    degree 5
    (1 2 3)(4 5)
    2 1 3 4 5

one generator per line after the degree line, in cycle notation or as an
image list; ``#`` starts a comment.  Exit codes: 0 success, 1 verification
negative, 2 input error, 3 search exhaustion.

Caps may be overridden through the single environment variable
``GRAPHRESTRICT_CAPS`` (comma-separated ``name=value`` entries with names
``vertices``, ``carrier``, ``copies``, ``attempts``, each at least 1);
command-line flags take precedence.  Every command refuses a group file
of degree above ``vertices``, and ``verify`` a graph of more vertices,
before it builds anything from them.  ``construct`` refuses a graph with
an export file of more than ``cosetgraph.DEFAULT_EXPORT_CAP`` bytes
before it writes any file.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

from . import __version__
from . import amalgam, classify, cosetgraph, perm
from .completion import SearchConfig
from .cosetgraph import DEFAULT_VERTEX_CAP
from .errors import (CapacityError, CompletionSearchError,
                     GraphRestrictError, InputError, ParseError)
from .perm import PermutationGroup

CERTIFICATE_SCHEMA = "graphrestrict.certificate/1"
CAPS_ENV_VAR = "GRAPHRESTRICT_CAPS"
CAP_NAMES = ("vertices", "carrier", "copies", "attempts")

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_INPUT = 2
EXIT_EXHAUSTED = 3


def parse_group_spec(text: str, max_degree: int | None = None) -> PermutationGroup:
    """Parse the group file grammar; errors carry the offending line.  A
    degree above ``max_degree`` raises CapacityError before any generator
    is parsed."""
    degree = None
    generators = []
    for no, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if degree is None:
            parts = line.split()
            if len(parts) != 2 or parts[0] != "degree":
                raise ParseError("expected 'degree <m>' as the first entry",
                                 line=no)
            try:
                degree = int(parts[1])
            except ValueError:
                raise ParseError(f"bad degree {parts[1]!r}", line=no) from None
            if degree < 1:
                raise ParseError("degree must be positive", line=no)
            if max_degree is not None and degree > max_degree:
                raise CapacityError("vertices", max_degree, degree)
            continue
        try:
            generators.append(perm.parse_permutation(line, degree))
        except ParseError as exc:
            raise ParseError(str(exc), line=no) from None
    if degree is None:
        raise ParseError("missing 'degree <m>' line")
    return PermutationGroup(degree, tuple(generators))


def load_group(path: str, max_degree: int | None = None) -> PermutationGroup:
    try:
        text = Path(path).read_text()
    except OSError as exc:
        raise InputError(f"cannot read group file {path}: {exc}") from None
    return parse_group_spec(text, max_degree)


def _caps_from_env() -> dict:
    """The caps named in GRAPHRESTRICT_CAPS; an unknown name or a value
    below 1 is an input error."""
    caps = {}
    raw = os.environ.get(CAPS_ENV_VAR, "")
    for item in raw.split(","):
        item = item.strip()
        if not item:
            continue
        name, _, value = item.partition("=")
        name = name.strip()
        if name not in CAP_NAMES:
            raise InputError(f"unknown {CAPS_ENV_VAR} cap {name!r}; expected "
                             f"one of {', '.join(CAP_NAMES)}")
        try:
            caps[name] = int(value)
        except ValueError:
            raise InputError(f"bad {CAPS_ENV_VAR} entry {item!r}") from None
        if caps[name] < 1:
            raise InputError(f"{CAPS_ENV_VAR} cap {name} must be at least 1, "
                             f"got {caps[name]}")
    return caps


def _vertex_cap() -> int:
    """The ``vertices`` cap, which also bounds the degree of group files."""
    return _caps_from_env().get("vertices", DEFAULT_VERTEX_CAP)


def _search_config(args) -> tuple[SearchConfig, int]:
    caps = _caps_from_env()
    vertex_cap = caps.get("vertices", DEFAULT_VERTEX_CAP)
    carrier_cap = caps.get("carrier", amalgam.DEFAULT_CARRIER_CAP)
    copies = caps.get("copies", 4)
    attempts = caps.get("attempts", 256)
    if getattr(args, "max_vertices", None) is not None:
        vertex_cap = args.max_vertices
        if vertex_cap < 1:
            raise InputError(f"--max-vertices must be at least 1, "
                             f"got {vertex_cap}")
    seed = getattr(args, "seed", 0) or 0
    return (SearchConfig(seed=seed, carrier_cap=carrier_cap, max_copies=copies,
                         combo_attempts=attempts), vertex_cap)


def _analysis_dict(analysis: classify.LocalGroupAnalysis) -> dict:
    return {
        "orbits": [list(part) for part in analysis.orbit_parts],
        "orbit_representatives": list(analysis.orbit_reps),
        "stabiliser_orders": list(analysis.stabiliser_orders),
        "k": analysis.k,
        "flags": {
            "transitive": analysis.flags.transitive,
            "semiregular": analysis.flags.semiregular,
            "semiprimitive": analysis.flags.semiprimitive,
        },
        "verdict": analysis.verdict,
    }


def _group_dict(group: PermutationGroup) -> dict:
    return {"degree": group.degree,
            "generators": [g.cycle_string() for g in group.generators]}


def cmd_classify(args) -> int:
    group = load_group(args.group, _vertex_cap())
    analysis = classify.analyze_local_group(group)
    verdict = classify.restrictive_verdict(analysis)
    if args.json:
        doc = {"schema": "graphrestrict.classify/1",
               "tool_version": __version__,
               "input": _group_dict(group),
               "analysis": _analysis_dict(analysis),
               "message": verdict.message,
               "bound": verdict.bound,
               "growth_base": verdict.growth_base,
               "growth_ratio": verdict.growth_ratio}
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(verdict.message)
        print(f"orbits: {' '.join('{' + ' '.join(map(str, p)) + '}' for p in analysis.orbit_parts)}")
        print(f"orbit representatives: {list(analysis.orbit_reps)}")
        print(f"stabiliser orders: {list(analysis.stabiliser_orders)}")
        if analysis.flags.semiprimitive is not None:
            print(f"semiprimitive: {analysis.flags.semiprimitive}")
    return EXIT_OK


def _certificate(group, pair, graph_files) -> dict:
    witness = pair.witness
    candidate = pair.candidate
    cert = {
        "schema": CERTIFICATE_SCHEMA,
        "tool_version": __version__,
        "input": _group_dict(group),
        "analysis": _analysis_dict(pair.star.analysis),
        "n": pair.star.n,
        "strategy": candidate.strategy.descriptor(),
        "carrier": {"points": candidate.carrier.degree,
                    "copies": candidate.carrier.t},
        "beta": [list(b.images) for b in candidate.betas],
        "verification": pair.report.as_dict(),
        "graph": {
            "vertices": pair.vertex_count if pair.vertex_count is not None
                        else "implicit",
            "valency": pair.valency,
            "stabiliser_order": pair.stabiliser_order,
            "files": graph_files,
        },
        "local_action": {
            "labels": list(witness.labels),
            "conjugation": list(witness.conjugation.images),
            "kernel_order": witness.kernel_order,
        },
    }
    return cert


def _dump_json(doc) -> str:
    return json.dumps(doc, indent=2, sort_keys=True) + "\n"


def cmd_construct(args) -> int:
    group = load_group(args.group, _vertex_cap())
    analysis = classify.analyze_local_group(group)
    if analysis.verdict != classify.NOT_RESTRICTIVE:
        verdict = classify.restrictive_verdict(analysis)
        raise InputError(f"construction requires verdict NOT_RESTRICTIVE; "
                         f"this group is {analysis.verdict}: {verdict.message}")
    if args.n < 2:
        raise InputError(f"--n must be at least 2, got {args.n}")
    search, vertex_cap = _search_config(args)

    out_dir = Path(args.out)
    try:
        out_dir.mkdir(parents=True, exist_ok=True)
        probe = out_dir / ".write-probe"
        probe.write_text("")
        probe.unlink()
    except OSError as exc:
        raise InputError(f"output directory not writable: {exc}") from None

    pair = cosetgraph.construct_pair(group, args.n, search, vertex_cap,
                                     analysis=analysis)

    graph_files = None
    if pair.graph is not None:
        export_cap = cosetgraph.DEFAULT_EXPORT_CAP
        sizes = cosetgraph.export_sizes(pair.vertex_count, pair.valency)
        sizes["graph6"] += 1            # the file ends in a newline
        for fmt, size in sizes.items():
            if size > export_cap:
                raise CapacityError("export", export_cap,
                                    f"{size} bytes of {fmt}")
        graph_files = {"edge_list": "graph.edgelist",
                       "adjacency_list": "graph.adjlist",
                       "graph6": "graph.g6",
                       "group": "group.gens"}
        (out_dir / "graph.edgelist").write_text(
            cosetgraph.export_graph(pair.graph, "edge-list"))
        (out_dir / "graph.adjlist").write_text(
            cosetgraph.export_graph(pair.graph, "adjacency-list"))
        # the export is one buffer of up to the export bound: the newline
        # goes in a write of its own rather than a copy of the buffer
        with open(out_dir / "graph.g6", "wb") as f:
            f.write(cosetgraph.export_graph(pair.graph, "graph6"))
            f.write(b"\n")
        lines = [f"degree {pair.graph.vertex_count}"]
        lines += [" ".join(str(q) for q in g.images)
                  for g in pair.action_generators]
        (out_dir / "group.gens").write_text("\n".join(lines) + "\n")

    cert = _certificate(group, pair, graph_files)
    (out_dir / "certificate.json").write_text(_dump_json(cert))

    vertices = pair.vertex_count if pair.vertex_count is not None else "implicit"
    print(f"accepted completion: |G| = {pair.report.order_g}, "
          f"stabiliser order {pair.stabiliser_order}, valency {pair.valency}, "
          f"vertices {vertices}")
    print(f"certificate: {out_dir / 'certificate.json'}")
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        data = Path(args.graph).read_bytes()
    except OSError as exc:
        raise InputError(f"cannot read graph file {args.graph}: {exc}") from None
    # the vertex cap bounds the graph and the degree of both group files, so
    # that an oversized input is refused before anything is allocated for it
    vertex_cap = _vertex_cap()
    graph = cosetgraph.parse_graph(data, vertex_cap)
    group = load_group(args.group, vertex_cap)
    local = load_group(args.local_group, vertex_cap)
    cert = cosetgraph.verify_locally_L(graph, group.generators, local)
    doc = {
        "schema": "graphrestrict.verify/1",
        "tool_version": __version__,
        "vertex_transitive": cert.vertex_transitive,
        "stabiliser_order": cert.stabiliser_order,
        "valency": cert.valency,
        "locally_L": cert.locally_l,
        "witness": list(cert.witness.images) if cert.witness else None,
        "semiregular_bound_ok": cert.semiregular_bound_ok,
        "detail": cert.detail,
    }
    if args.json:
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        print(f"vertex-transitive: {cert.vertex_transitive}")
        print(f"stabiliser order: {cert.stabiliser_order}")
        print(f"valency: {cert.valency}")
        print(f"locally-L: {cert.locally_l}")
        if cert.witness is not None:
            print(f"witness: {cert.witness.cycle_string()}")
        if cert.semiregular_bound_ok is not None:
            print(f"semiregular bound |G_v| <= valency: {cert.semiregular_bound_ok}")
        if cert.detail:
            print(f"detail: {cert.detail}")
    return EXIT_OK if cert.locally_l else EXIT_NEGATIVE


def cmd_report(args) -> int:
    group = load_group(args.group, _vertex_cap())
    search, vertex_cap = _search_config(args)
    table = cosetgraph.growth_report(group, args.n_from, args.n_to,
                                     search, vertex_cap)
    if args.json:
        rows = []
        for r in table.rows:
            checks = r.report.as_dict() if r.report else {}
            rows.append({
                "n": r.n, "stabiliser_order": r.stabiliser_order,
                "vertices": (r.vertex_count if r.vertex_count is not None
                             else ("not enumerated" if r.accepted else None)),
                **{key: checks.get(key)
                   for key in ("order_G", "V1", "V2", "V3", "V4")},
                "locally_L": r.accepted, "accepted": r.accepted,
                "failure": r.failure})
        doc = {
            "schema": "graphrestrict.report/1",
            "tool_version": __version__,
            "input": _group_dict(group),
            "growth_base": table.local_group_order,
            "growth_ratio": table.growth_ratio,
            "rows": rows,
        }
        print(json.dumps(doc, indent=2, sort_keys=True))
    else:
        header = f"{'n':>3} {'|G_v|':>10} {'|G|':>14} {'vertices':>12} {'V1-V4':>6} {'locally-L':>10}"
        print(header)
        for r in table.rows:
            if not r.accepted:
                print(f"{r.n:>3} {r.stabiliser_order:>10} {'-':>14} {'-':>12} "
                      f"{'-':>6} {'FAILED':>10}  {r.failure}")
                continue
            rep = r.report
            vs = r.vertex_count if r.vertex_count is not None else "implicit"
            vflags = "".join("+" if ok else "-"
                             for ok in (all(rep.v1), all(rep.v2), rep.v3, rep.v4))
            print(f"{r.n:>3} {r.stabiliser_order:>10} {rep.order_g:>14} "
                  f"{vs!s:>12} {vflags:>6} {str(r.accepted):>10}")
    if table.rows and not all(r.accepted for r in table.rows):
        return EXIT_EXHAUSTED
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="graphrestrict",
        description="Decide graph-restrictiveness for intransitive permutation "
                    "groups and construct certified finite locally-L pairs.",
        epilog=f"Cap overrides: set {CAPS_ENV_VAR}=vertices=...,carrier=...,"
               "copies=...,attempts=... (flags take precedence).")
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("classify", help="verdict report for a group file")
    p.add_argument("group", help="group file (degree line plus generators)")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_classify)

    p = sub.add_parser("construct",
                       help="construct and certify a locally-L pair")
    p.add_argument("group")
    p.add_argument("--n", type=int, required=True,
                   help="growth parameter (at least 2)")
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--out", default=".", help="output directory")
    p.set_defaults(func=cmd_construct)

    p = sub.add_parser("verify",
                       help="verify a (graph, group, local group) triple")
    p.add_argument("graph", help="graph file (edge list, adjacency list, or graph6)")
    p.add_argument("group", help="group file of vertex permutations")
    p.add_argument("local_group", help="local group file")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("report", help="growth table over a range of n")
    p.add_argument("group")
    p.add_argument("--n-from", type=int, required=True)
    p.add_argument("--n-to", type=int, required=True)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--max-vertices", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_report)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except (ParseError, InputError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    except CompletionSearchError as exc:
        print(str(exc), file=sys.stderr)
        return EXIT_EXHAUSTED
    except GraphRestrictError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


def main_entry():  # console-script entry point
    raise SystemExit(main())


if __name__ == "__main__":
    main_entry()
