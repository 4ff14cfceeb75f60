"""The benchmark's workloads: seeded inputs, CLI arguments and output checks.

Every workload takes a seed.  The seed relabels the input with a seeded
permutation (seed 0 leaves it as it is) and is passed to the CLI as
``--seed`` where the command has one.  Every number the checks compare is
invariant under relabelling, so the expected answers do not depend on the
seed.
"""

from __future__ import annotations

import collections
import hashlib
import json
import random
import subprocess
import sys
from pathlib import Path

# L0 = <(1 2)> on 3 points (|L| = 2, s = 2); L1 = <(1 2 3)(4 5)> on 5 points
# (|L| = 6, s = 3).  A group is (degree, cycles of its one generator).
L0 = (3, ((1, 2),))
L1 = (5, ((1, 2, 3), (4, 5)))

# wide-star: n -> (|G|, vertices) of the accepted pair for L0.
WIDE_STAR_ROWS = {2: (192, 24), 3: (512, 32), 4: (1280, 40), 5: (3072, 48),
                  6: (7168, 56), 7: (16384, 64)}
TALL_GRAPH = {"n": 3, "order_G": 663552, "vertices": 4096,
              "stabiliser_order": 162, "valency": L1[0]}
# sha256 of tall-graph's certificate.json at seed 0; certificates must stay
# byte-identical for a given input and seed.
TALL_GRAPH_SEED0_SHA256 = (
    "37507a90686091c5ab78d4e8aec078d726e1b5f29e61fb9a3c517d631326e41f")
VERIFY_PAIR = {"n": 2, "vertices": 1536, "stabiliser_order": 54, "valency": L1[0]}
EXPORTS = ("graph.edgelist", "graph.adjlist", "graph.g6", "group.gens")
KEPT_LAYERS = 2     # verify-pair keeps vertex 0 and its neighbours in order


def relabelling(seed: int, size: int) -> list[int]:
    """A seeded permutation of 0..size-1; the identity for seed 0."""
    images = list(range(size))
    if seed:
        random.Random(seed).shuffle(images)
    return images


def layered_relabelling(seed: int, vertices: int, edges) -> list[int]:
    """A seeded relabelling of a connected graph's vertices; the identity for
    seed 0.

    Vertices are renumbered by distance from vertex 0.  Within the first
    ``KEPT_LAYERS`` distances they keep their relative order, further out
    they are shuffled by the seed.  ``verify`` builds its stabiliser chains
    with the smallest moved point as the next base point, so the ids near
    vertex 0 decide the shape of the chain and hence the work; keeping them
    makes the work the same for every seed.
    """
    if not seed:
        return list(range(vertices))
    adjacency = [[] for _ in range(vertices)]
    for u, v in edges:
        adjacency[u].append(v)
        adjacency[v].append(u)
    distance = [0] + [-1] * (vertices - 1)
    queue = collections.deque([0])
    while queue:
        u = queue.popleft()
        for v in adjacency[u]:
            if distance[v] < 0:
                distance[v] = distance[u] + 1
                queue.append(v)
    rng = random.Random(seed)
    keys = [v if distance[v] < KEPT_LAYERS else rng.random() + vertices
            for v in range(vertices)]
    order = sorted(range(vertices), key=lambda v: (distance[v], keys[v]))
    pi = [0] * vertices
    for new, v in enumerate(order):
        pi[v] = new
    return pi


def group_file(group, seed: int) -> str:
    """The group file of ``group`` with its points relabelled by the seed."""
    degree, cycles = group
    sigma = relabelling(seed, degree)
    text = " ".join("(" + " ".join(str(sigma[p - 1] + 1) for p in c) + ")"
                    for c in cycles)
    return f"degree {degree}\n{text}\n"


def _json(text: str, failures: list[str]):
    try:
        return json.loads(text)
    except ValueError:
        failures.append("output is not JSON")
        return None


class Workload:
    name = ""

    def prepare(self, tmp: Path, seed: int, env: dict) -> dict:
        """Write the inputs of one run; returns what ``argv`` needs."""
        raise NotImplementedError

    def argv(self, inputs: dict, out: Path, seed: int) -> list[str]:
        raise NotImplementedError

    def check(self, result: dict, out: Path, seed: int) -> list[str]:
        """Failed checks of one operation's outputs; empty when correct."""
        raise NotImplementedError


class WideStar(Workload):
    name = "wide-star"

    def prepare(self, tmp, seed, env):
        path = tmp / "L0.grp"
        path.write_text(group_file(L0, seed))
        return {"group": str(path)}

    def argv(self, inputs, out, seed):
        lo, hi = min(WIDE_STAR_ROWS), max(WIDE_STAR_ROWS)
        return ["report", inputs["group"], "--n-from", str(lo), "--n-to", str(hi),
                "--seed", str(seed), "--json"]

    def check(self, result, out, seed):
        failures = []
        if result["exit_code"] != 0:
            return [f"exit code {result['exit_code']}"]
        doc = _json(result["stdout"], failures)
        if doc is None:
            return failures
        rows = {r.get("n"): r for r in doc.get("rows", [])}
        if sorted(rows) != sorted(WIDE_STAR_ROWS):
            return [f"rows for n={sorted(rows)}"]
        for n, (order_g, vertices) in WIDE_STAR_ROWS.items():
            r = rows[n]
            flags = [*(r.get("V1") or [False]), *(r.get("V2") or [False]),
                     r.get("V3"), r.get("V4")]
            if not all(flag is True for flag in flags):
                failures.append(f"n={n}: V1-V4 {flags}")
            expected = {"stabiliser_order": 2 * 2 ** n, "order_G": order_g,
                        "vertices": vertices, "locally_L": True,
                        "accepted": True}
            for key, value in expected.items():
                if r.get(key) != value:
                    failures.append(f"n={n}: {key} {r.get(key)!r} != {value!r}")
        return failures


class TallGraph(Workload):
    name = "tall-graph"

    def __init__(self):
        self.digest = None    # certificate sha256 of this run's first operation

    def prepare(self, tmp, seed, env):
        path = tmp / "L1.grp"
        path.write_text(group_file(L1, seed))
        return {"group": str(path)}

    def argv(self, inputs, out, seed):
        return ["construct", inputs["group"], "--n", str(TALL_GRAPH["n"]),
                "--seed", str(seed), "--out", str(out)]

    def check(self, result, out, seed):
        if result["exit_code"] != 0:
            return [f"exit code {result['exit_code']}"]
        failures = []
        try:
            raw = (out / "certificate.json").read_bytes()
        except OSError as exc:
            return [f"certificate: {exc}"]
        cert = _json(raw.decode(), failures)
        if cert is None:
            return failures
        digest = hashlib.sha256(raw).hexdigest()
        if seed == 0 and digest != TALL_GRAPH_SEED0_SHA256:
            failures.append("certificate.json differs from the seed-0 bytes")
        if self.digest is None:
            self.digest = digest
        elif digest != self.digest:
            failures.append("certificate.json differs between runs of one input")
        ver, graph = cert.get("verification", {}), cert.get("graph", {})
        flags = [*ver.get("V1", [False]), *ver.get("V2", [False]),
                 ver.get("V3"), ver.get("V4"), ver.get("accepted")]
        if not all(flag is True for flag in flags):
            failures.append(f"V1-V4 {flags}")
        found = {"order_G": ver.get("order_G"), "vertices": graph.get("vertices"),
                 "stabiliser_order": graph.get("stabiliser_order"),
                 "valency": graph.get("valency")}
        for key, value in found.items():
            if value != TALL_GRAPH[key]:
                failures.append(f"{key} {value!r} != {TALL_GRAPH[key]!r}")
        failures += _check_exports(out, TALL_GRAPH["vertices"], TALL_GRAPH["valency"])
        return failures


def _check_exports(out: Path, vertices: int, valency: int) -> list[str]:
    """The exports exist, and the edge list is a valency-regular graph."""
    missing = [name for name in EXPORTS if not (out / name).is_file()]
    if missing:
        return [f"missing exports {missing}"]
    degree = [0] * vertices
    try:
        for line in (out / "graph.edgelist").read_text().split("\n")[:-1]:
            u, v = map(int, line.split())
            degree[u] += 1
            degree[v] += 1
    except (ValueError, IndexError):
        return ["graph.edgelist is malformed"]
    if set(degree) != {valency}:
        return ["graph.edgelist is not regular of the expected valency"]
    if (out / "group.gens").read_text().split("\n", 1)[0] != f"degree {vertices}":
        return ["group.gens has the wrong degree"]
    return []


class VerifyPair(Workload):
    name = "verify-pair"

    def prepare(self, tmp, seed, env):
        """Construct the pair in its own process and relabel its vertices."""
        src = tmp / "pair"
        (tmp / "L1.grp").write_text(group_file(L1, 0))
        subprocess.run([sys.executable, "-m", "graphrestrict", "construct",
                        str(tmp / "L1.grp"), "--n", str(VERIFY_PAIR["n"]),
                        "--out", str(src)],
                       env=env, check=True, stdout=subprocess.DEVNULL, timeout=120)
        vertices = VERIFY_PAIR["vertices"]
        edges = [tuple(map(int, line.split()))
                 for line in (src / "graph.edgelist").read_text().splitlines()]
        pi = layered_relabelling(seed, vertices, edges)
        edges = sorted(tuple(sorted((pi[u], pi[v]))) for u, v in edges)
        (tmp / "graph.edgelist").write_text("".join(f"{u} {v}\n" for u, v in edges))
        lines = (src / "group.gens").read_text().splitlines()
        if lines[0] != f"degree {vertices}":
            raise RuntimeError(f"unexpected exported pair: {lines[0]!r}")
        gens = [f"degree {vertices}"]
        for line in lines[1:]:
            images = [0] * vertices
            for v, w in enumerate(line.split()):
                images[pi[v]] = pi[int(w) - 1] + 1
            gens.append(" ".join(map(str, images)))
        (tmp / "group.gens").write_text("\n".join(gens) + "\n")
        return {"graph": str(tmp / "graph.edgelist"),
                "gens": str(tmp / "group.gens"), "local": str(tmp / "L1.grp")}

    def argv(self, inputs, out, seed):
        return ["verify", inputs["graph"], inputs["gens"], inputs["local"], "--json"]

    def check(self, result, out, seed):
        if result["exit_code"] != 0:
            return [f"exit code {result['exit_code']}"]
        failures = []
        doc = _json(result["stdout"], failures)
        if doc is None:
            return failures
        expected = {"locally_L": True, "vertex_transitive": True,
                    "stabiliser_order": VERIFY_PAIR["stabiliser_order"],
                    "valency": VERIFY_PAIR["valency"]}
        for key, value in expected.items():
            if doc.get(key) != value:
                failures.append(f"{key} {doc.get(key)!r} != {value!r}")
        return failures


WORKLOADS = {w.name: w for w in (WideStar(), TallGraph(), VerifyPair())}
