"""The benchmark's workloads: seeded inputs, timed operations, checks.

A workload is a fixed list of operation variants.  Every round runs each
variant once, in an order drawn from the seed, on a document relabelled
with a fresh per-operation prefix, so no ``lru_cache`` inside ``zdyn``
can serve one operation with another's results.  ``prepare`` builds an
operation's inputs, ``run`` is the only part that is timed, and
``check`` compares the outputs with the oracles; neither of the two
untimed parts runs inside a traced span.

The variant lists have 15 or 35 entries.  With whole rounds, the median
then falls in the middle of one variant's samples and the 90th
percentile in the middle of another's, never on the edge between two.
"""

from __future__ import annotations

import contextlib
import io
import json
import math
import os
import random

import oracles

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
DATA = os.path.join(ROOT, "tests", "data")


class WrongOutput(Exception):
    """An output that disagrees with its oracle or with the paper."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise WrongOutput(message)


# ---------------------------------------------------------------------------
# documents


def fixture(name: str) -> dict:
    with open(os.path.join(DATA, name), encoding="utf-8") as handle:
        return json.load(handle)


def eloop(edges: int, successor=None, multiplicity=None) -> dict:
    """A one-vertex stationary covering with ``edges`` loops.

    Loop i expands to ``e0 e_i e_t(i)``, where t is ``successor``
    (default i+1 mod E).  Every expansion starts with e0, which makes the
    self-cover +directional at its one vertex.  (The family
    ``e_i -> e_i e_(i+1) e_i`` is not: its expansions start with
    different loops, and ``load_document`` rejects it.)
    """
    successor = successor or (lambda i: (i + 1) % edges)
    multiplicity = multiplicity or (lambda i: i % 3 + 1)
    name = [f"e{i:03d}" for i in range(edges)]
    graph = {
        "kind": "flexible_graph",
        "vertices": ["v"],
        "edges": {e: ["v", "v"] for e in name},
    }
    return {
        "version": "zdyn/1",
        "kind": "covering",
        "form": "stationary",
        "cover": {
            "kind": "cover",
            "domain": graph,
            "codomain": graph,
            "vmap": {"v": "v"},
            "emap": {name[i]: [name[0], name[i], name[successor(i)]] for i in range(edges)},
        },
        "multiplicities": {name[i]: multiplicity(i) for i in range(edges)},
    }


def eloop_bratteli(edges: int) -> dict:
    """The stationary diagram of :func:`eloop`, written out directly."""
    cov = eloop(edges)
    table = {}
    for w, walk in cov["cover"]["emap"].items():
        for i, q in enumerate(walk, start=1):
            table[f"{q}>{w}:{i}"] = [q, w, i]
    return {
        "version": "zdyn/1",
        "kind": "bratteli",
        "form": "stationary",
        "mono": {"kind": "mono_graph", "vertices": sorted(cov["multiplicities"]), "edges": table},
        "multiplicities": cov["multiplicities"],
    }


def relabel(doc: dict, name) -> dict:
    """A copy of a document with every vertex and edge renamed by ``name``.

    The root ``v0`` of a finite-prefix diagram keeps its name, since
    ``zdyn`` fixes it.
    """
    kind = doc["kind"]
    out = {"kind": kind}
    if "version" in doc:
        out["version"] = doc["version"]
    if kind in ("flexible_graph", "weighted_graph"):
        out["vertices"] = [name(v) for v in doc["vertices"]]
        out["edges"] = {name(e): [name(s), name(r), *rest] for e, (s, r, *rest) in doc["edges"].items()}
    elif kind == "mono_graph":
        out["vertices"] = [name(v) for v in doc["vertices"]]
        out["edges"] = {name(e): [name(s), name(r), k] for e, (s, r, k) in doc["edges"].items()}
    elif kind == "cover":
        out["domain"] = relabel(doc["domain"], name)
        out["codomain"] = relabel(doc["codomain"], name)
        out["vmap"] = {name(v): name(w) for v, w in doc["vmap"].items()}
        out["emap"] = {name(e): [name(q) for q in w] for e, w in doc["emap"].items()}
    elif kind == "covering" and doc["form"] == "stationary":
        out["form"] = "stationary"
        out["cover"] = relabel(doc["cover"], name)
        out["multiplicities"] = {name(e): m for e, m in doc["multiplicities"].items()}
    elif kind == "bratteli" and doc["form"] == "stationary":
        out["form"] = "stationary"
        out["mono"] = relabel(doc["mono"], name)
        out["multiplicities"] = {name(v): m for v, m in doc["multiplicities"].items()}
    elif kind == "bratteli":
        keep = lambda v: v if v == oracles.ROOT else name(v)  # noqa: E731
        out["form"] = "finite_prefix"
        out["levels"] = [[keep(v) for v in vs] for vs in doc["levels"]]
        out["edge_levels"] = [
            {name(e): [keep(s), name(r), k] for e, (s, r, k) in table.items()}
            for table in doc["edge_levels"]
        ]
    elif kind == "substitution":
        out["rules"] = {name(a): [name(b) for b in w] for a, w in doc["rules"].items()}
    elif kind == "seed_row":
        out["level"] = doc["level"]
        for side in ("left", "core", "right"):
            out[side] = [name(e) for e in doc.get(side, [])]
    else:
        raise ValueError(f"cannot relabel a {kind} document")
    return out


def prefixed(doc: dict, prefix: str) -> dict:
    return relabel(doc, lambda x: prefix + x)


def diagram_towers(zdyn, p, doc: dict, n: int) -> oracles.Towers:
    """Oracle coordinates for the diagram ``zdyn`` builds from ``p``.

    The edge tables come from the diagram; the heights come from the
    document alone.
    """
    d = zdyn.bratteli.weighted_to_bv(p)
    return oracles.Towers(d.level_edges(1), d.level_edges(2), oracles.height_table(doc, n))


def pick_tower(rng, towers: oracles.Towers, n: int, taller_than: int) -> str:
    """A seeded level-``n`` vertex whose tower costs the same on every seed.

    The choice is among the largest class of isomorphic towers taller
    than ``taller_than``, so a walk from a fixed index does the same work
    whichever member the seed picks.
    """
    shapes = towers.shapes(n)
    classes: dict = {}
    for v, h in sorted(towers.heights[n].items()):
        if h > taller_than:
            classes.setdefault(shapes[v], []).append(v)
    return rng.choice(max(classes.values(), key=len))


# ---------------------------------------------------------------------------
# the operation runner shared by the workloads


class Op:
    """One prepared operation: ``run`` is timed, ``check`` is not."""

    def run(self):
        raise NotImplementedError

    def failed(self, out) -> bool:
        """Whether a returned result still counts as a failed operation."""
        return False

    def check(self, out) -> dict:
        """Raise WrongOutput on a wrong answer; return counters to sum."""
        raise NotImplementedError


class Workload:
    variants: list = []

    def __init__(self, zdyn, seed: int, workdir: str):
        self.zdyn = zdyn
        self.rng = random.Random(seed)
        self.tag = f"s{self.rng.randrange(16**4):04x}"
        self.workdir = workdir
        self.count = 0

    def round(self) -> list[Op]:
        order = list(self.variants)
        self.rng.shuffle(order)
        return [self.prepare(v) for v in order]

    def next_prefix(self) -> str:
        self.count += 1
        return f"{self.tag}o{self.count:05d}_"

    def load(self, doc: dict):
        """Load and validate a document once, as set-up does."""
        return self.zdyn.cli.parse_document(json.dumps(doc))

    def prepare(self, variant) -> Op:
        raise NotImplementedError


# ---------------------------------------------------------------------------
# adic-walk


class Walk(Op):
    def __init__(self, zdyn, variant, p, start, steps, towers):
        self.zdyn, self.variant, self.p = zdyn, variant, p
        self.start, self.steps, self.towers = start, steps, towers

    def run(self):
        b = self.zdyn.bratteli
        d = b.weighted_to_bv(self.p)
        index = b.path_index(d, self.start)
        forward = [self.start]
        while len(forward) <= self.steps and forward[-1] != b.MAXIMAL:
            forward.append(b.vershik_successor(d, forward[-1]))
        backward = [self.start]
        while len(backward) <= self.steps and backward[-1] != b.MINIMAL:
            backward.append(b.vershik_predecessor(d, backward[-1]))
        return index, forward, backward

    def check(self, out) -> dict:
        index, forward, backward = out
        t = self.towers
        n, v = len(self.start), t.end(self.start)
        height = t.height(v, n)
        expect(index == t.index(self.start), f"{self.variant}: path_index {index}")
        for sign, walk, edge in ((1, forward, "MAXIMAL"), (-1, backward, "MINIMAL")):
            for j, q in enumerate(walk[1:], start=1):
                want = index + sign * j
                if want in (-1, height):
                    expect(q == edge and j == len(walk) - 1, f"{self.variant}: no {edge} at {want}")
                else:
                    expect(q != edge, f"{self.variant}: early {edge} at {want}")
                    expect(len(q) == n and t.end(q) == v, f"{self.variant}: left the tower")
                    expect(t.index(q) == want, f"{self.variant}: step {j} lands at {t.index(q)}")
        return {}


class AdicWalk(Workload):
    """Vershik stepping, from diagram construction to both directions.

    A variant is (document, level, start, steps).  The tower is a seeded
    choice among the largest class of isomorphic towers taller than four
    walks, and the start path sits at a fixed share of its height: a
    third for ``mid``, and a quarter of a walk from an end for ``top``
    and ``bottom``, so that MAXIMAL or MINIMAL is reached at the same
    step on every seed.  Every seed then does the same work: the same
    digits for ``path_index`` and the same carries for each step.
    """

    variants = [
        ("fib", 60, "mid", 300),
        ("fib", 110, "top", 300),
        ("fib", 160, "mid", 150),
        ("ex2", 14, "bottom", 300),
        ("ex2", 30, "mid", 300),
        ("e16", 7, "mid", 200),
        ("e16", 9, "top", 200),
        ("e16", 11, "mid", 200),
        ("e128", 6, "mid", 50),
        ("e128", 8, "bottom", 50),
        ("e128", 10, "mid", 50),
        ("e512", 5, "mid", 12),
        ("e512", 6, "top", 12),
        ("e512", 7, "mid", 12),
        ("e512", 9, "mid", 12),
    ]

    sources = {
        "fib": lambda: fixture("fib_covering.json"),
        "ex2": lambda: fixture("example2_covering.json"),
        "e16": lambda: eloop(16),
        "e128": lambda: eloop(128),
        "e512": lambda: eloop(512),
    }

    def __init__(self, zdyn, seed, workdir):
        super().__init__(zdyn, seed, workdir)
        self.base = {k: make() for k, make in self.sources.items()}

    def prepare(self, variant) -> Op:
        name, n, where, steps = variant
        doc = prefixed(self.base[name], self.next_prefix())
        p = self.load(doc)
        towers = diagram_towers(self.zdyn, p, doc, n)
        v = pick_tower(self.rng, towers, n, 4 * steps)
        height = towers.height(v, n)
        if where == "top":
            i = height - 1 - steps // 4
        elif where == "bottom":
            i = steps // 4
        else:
            i = height // 3
        return Walk(self.zdyn, f"{name}@{n}:{where}", p, towers.path_at(v, n, i), steps, towers)


# ---------------------------------------------------------------------------
# krieger-sweep


class Sweep(Op):
    def __init__(self, zdyn, variant, p, doc, n, horizon):
        self.zdyn, self.variant, self.p, self.doc = zdyn, variant, p, doc
        self.n, self.horizon = n, horizon

    def run(self):
        cov = self.zdyn.coverings.krieger_coverage
        return [cov(self.p, self.n, L, self.horizon) for L in (1, 2)]

    def check(self, out) -> dict:
        c = self.zdyn.coverings
        cylinders = len(c.all_paths(self.p, self.horizon))
        heights = oracles.covering_heights(self.doc, self.horizon)
        expect(cylinders == sum(heights.values()), f"{self.variant}: {cylinders} cylinders")
        towers = diagram_towers(self.zdyn, self.p, self.doc, self.n)
        unresolved = 0
        for L, report in zip((1, 2), out):
            expect(report.verdict == "HOLDS", f"{self.variant} L={L}: {report.verdict}")
            unresolved += report.details["unresolved_probes"]
            markers = c.krieger_markers(self.p, self.n, L, self.horizon)
            floors = {towers.index(q[: self.n]) for q in markers.F}
            expect(all(f % (L + 1) == 0 for f in floors), f"{self.variant} L={L}: floors {sorted(floors)}")
        return {"unresolved_probes": unresolved}


class KriegerSweep(Workload):
    """Marker coverage for L = 1 then L = 2 on one fresh presentation.

    A variant is (document, level, horizon).
    """

    variants = [
        ("fib", 2, 6), ("fib", 3, 6), ("fib", 2, 7), ("fib", 3, 7), ("fib", 2, 8),
        ("ex2", 2, 6), ("ex2", 3, 6), ("ex2", 2, 7), ("ex2", 3, 7), ("ex2", 2, 6),
        ("ex2w", 2, 6), ("ex2w", 3, 6), ("ex2w", 2, 7), ("ex2w", 3, 6), ("fib", 3, 8),
    ]

    sources = {
        "fib": "fib_covering.json",
        "ex2": "example2_covering.json",
        "ex2w": "example2_weighted_covering.json",
    }

    def __init__(self, zdyn, seed, workdir):
        super().__init__(zdyn, seed, workdir)
        self.base = {k: fixture(f) for k, f in self.sources.items()}

    def prepare(self, variant) -> Op:
        name, n, horizon = variant
        doc = prefixed(self.base[name], self.next_prefix())
        return Sweep(self.zdyn, f"{name}@{n}/h{horizon}", self.load(doc), doc, n, horizon)


# ---------------------------------------------------------------------------
# check-batch


class Command(Op):
    """One ``zdyn`` command line run in-process, output captured."""

    def __init__(self, zdyn, variant, argv, verify, bad_input=False):
        self.zdyn, self.variant, self.argv = zdyn, variant, argv
        self.verify, self.bad_input = verify, bad_input

    def run(self):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = self.zdyn.cli.main(self.argv)
        return code, out.getvalue(), err.getvalue()

    def failed(self, out) -> bool:
        """Bad input must exit 2 with a message; anything else is a failure."""
        code, stdout, stderr = out
        return self.bad_input and not (code == 2 and not stdout and stderr.startswith("error:"))

    def check(self, out) -> dict:
        return self.verify(*out) or {}


class Isomorphism(Op):
    def __init__(self, zdyn, variant, p, q, docs, isomorphic):
        self.zdyn, self.variant, self.p, self.q = zdyn, variant, p, q
        self.docs, self.isomorphic = docs, isomorphic

    def run(self):
        return self.zdyn.coverings.find_cover_isomorphism(self.p, self.q)

    def check(self, out) -> dict:
        if out is None:
            expect(not self.isomorphic, f"{self.variant}: missed an isomorphism")
        else:
            expect(oracles.is_structure_bijection(*self.docs, *out), f"{self.variant}: not a bijection")
        return {}


FAILING = {"FAILS", "AMBIGUOUS"}


def exit_rule(verdict: str) -> int:
    return 1 if verdict in FAILING else 0


class CheckBatch(Workload):
    """One question per operation, asked through ``zdyn.cli.main``.

    35 variants succeed today.  The four ``bad:`` variants give the CLI
    bad input and must exit 2; they count as failed until they do.
    """

    variants = [
        "validate:e512", "validate:e256", "validate:ex2w",
        "closing:ex2", "closing:skew", "closing:e256",
        "nesting:nonnest", "nesting:fibbv", "continuity:fibbv",
        "regulated:ex2w", "overlap:ex2",
        "recoding:1", "recoding:2", "recoding:3", "recoding:4",
        "convert:e128", "convert:fibbv",
        "telescope:ex2", "telescope:e128", "straighten:fib",
        "vershik:ex2", "vershik:e128", "paths:fib", "paths:e16",
        "towers:ex2", "towers:e128", "krieger:ex2", "array:ex2",
        "subst:fib", "subst:e16", "dot:e128bv",
        "iso:8", "iso:7", "noniso:8", "noniso:7",
        "bad:vershik", "bad:recoding", "bad:krieger", "bad:paths",
    ]

    def __init__(self, zdyn, seed, workdir):
        super().__init__(zdyn, seed, workdir)
        self.base = {
            "ex2": fixture("example2_covering.json"),
            "ex2w": fixture("example2_weighted_covering.json"),
            "skew": fixture("skew_covering.json"),
            "fib": fixture("fib_covering.json"),
            "fibbv": fixture("fib_bratteli.json"),
            "nonnest": fixture("non_nesting_bratteli.json"),
            "fibsub": fixture("fib_substitution.json"),
            "seed": fixture("ex2_seed.json"),
            "e16": eloop(16),
            "e128": eloop(128),
            "e256": eloop(256),
            "e512": eloop(512),
            "e128bv": eloop_bratteli(128),
        }
        self.verdicts: dict = {}

    # -- helpers -----------------------------------------------------------

    def write(self, key: str, prefix: str):
        """Relabel a base document, validate it, and write it to a file."""
        doc = prefixed(self.base[key], prefix)
        obj = self.load(doc)
        path = os.path.join(self.workdir, f"{prefix}{key}.json")
        with open(path, "w", encoding="utf-8") as handle:
            json.dump(doc, handle)
        return path, doc, obj

    def same_verdict(self, variant: str, verdict: str, want: str | None = None) -> None:
        first = self.verdicts.setdefault(variant, verdict)
        expect(verdict == first, f"{variant}: {verdict} on one copy, {first} on another")
        if want is not None:
            expect(verdict == want, f"{variant}: {verdict}, the paper says {want}")

    def report(self, variant: str, want: str | None = None):
        def verify(code, out, err):
            verdict = json.loads(out)["verdict"]
            expect(code == exit_rule(verdict), f"{variant}: exit {code} for {verdict}")
            self.same_verdict(variant, verdict, want)
            return {}

        return verify

    def indexed_lines(self, variant, towers, n, vertex, stop_at=None):
        """The printed paths must be the fiber of ``vertex`` in order."""

        def verify(code, out, err):
            expect(code == 0, f"{variant}: exit {code}")
            lines = out.splitlines()
            height = towers.height(vertex, n)
            if stop_at is None:
                want = height
            elif stop_at < height:
                want = stop_at + 1
            else:
                want = height + 1  # the orbit ends with MAXIMAL
            expect(len(lines) == want, f"{variant}: {len(lines)} lines")
            for i, line in enumerate(lines):
                if i == height:
                    expect(line == "MAXIMAL", f"{variant}: line {i} is {line}")
                    continue
                q = tuple(line.split(" "))
                expect(towers.end(q) == vertex and towers.index(q) == i, f"{variant}: line {i}")
            return {}

        return verify

    # -- variants ----------------------------------------------------------

    def prepare(self, variant) -> Op:
        kind, arg = variant.split(":")
        prefix = self.next_prefix()
        if kind in self.PROPERTIES:
            return self._property(variant, kind, arg, prefix)
        return getattr(self, "_" + kind)(variant, arg, prefix)

    def _validate(self, variant, key, prefix):
        path, _, _ = self.write(key, prefix)

        def verify(code, out, err):
            expect((code, out) == (0, "ok\n"), f"{variant}: {code} {out!r}")

        return Command(self.zdyn, variant, ["validate", path], verify)

    # check property -> (extra arguments, verdict per document; None where
    # the paper fixes none and only consistency across copies is checked)
    PROPERTIES = {
        "closing": ([], {"ex2": "HOLDS", "skew": "FAILS", "e256": "HOLDS"}),
        "nesting": ([], {"nonnest": "FAILS", "fibbv": "HOLDS"}),
        "continuity": ([], {"fibbv": "HOLDS"}),
        "regulated": (["--l-seq", "1,2,3"], {"ex2w": None}),
        "overlap": ([], {"ex2": None}),
    }

    def _property(self, variant, prop, key, prefix):
        path, _, _ = self.write(key, prefix)
        extra, want = self.PROPERTIES[prop]
        argv = ["check", prop, path, *extra, "--format", "json"]
        return Command(self.zdyn, variant, argv, self.report(variant, want[key]))

    def _recoding(self, variant, radius, prefix):
        path, _, _ = self.write("ex2", prefix)
        want = "AMBIGUOUS" if radius == "1" else "DETERMINED"
        argv = ["check", "recoding", path, "--radius", radius, "--format", "json"]
        return Command(self.zdyn, variant, argv, self.report(variant, want))

    def _convert(self, variant, key, prefix):
        path, doc, _ = self.write(key, prefix)
        if key == "fibbv":

            def verify(code, out, err):
                expect(code == 0, f"{variant}: exit {code}")
                back = json.loads(out)
                expect(back["kind"] == "covering", f"{variant}: {back['kind']}")
                edges = back["cover"]["domain"]["edges"]
                expect(sorted(edges) == sorted(doc["mono"]["vertices"]), f"{variant}: edges")
                self.zdyn.cli.parse_document(out)

            return Command(self.zdyn, variant, ["convert", "to-covering", path], verify)

        def verify(code, out, err):
            expect(code == 0, f"{variant}: exit {code}")
            d = json.loads(out)
            expect(d["multiplicities"] == doc["multiplicities"], f"{variant}: multiplicities")
            sources = {}
            for s, r, rank in d["mono"]["edges"].values():
                sources.setdefault(r, {})[rank] = s
            for w, walk in doc["cover"]["emap"].items():
                got = [sources[w][k] for k in sorted(sources[w])]
                expect(got == walk, f"{variant}: in-edges of {w}")

        return Command(self.zdyn, variant, ["convert", "to-bv", path], verify)

    def _telescope(self, variant, key, prefix):
        path, doc, _ = self.write(key, prefix)
        # 2,5 gives a finite prefix; 3 alone keeps the covering stationary
        cuts = [2, 5] if key == "ex2" else [3]

        def verify(code, out, err):
            expect(code == 0, f"{variant}: exit {code}")
            t = json.loads(out)
            if t["form"] == "stationary":
                got = [t["multiplicities"]]
            else:
                got = [{e: x[2] for e, x in g["edges"].items()} for g in t["graphs"]]
            want = [oracles.covering_heights(doc, c) for c in cuts]
            expect(got == want, f"{variant}: lengths")

        argv = ["telescope", path, ",".join(map(str, cuts))]
        return Command(self.zdyn, variant, argv, verify)

    def _straighten(self, variant, key, prefix):
        path, doc, _ = self.write(key, prefix)
        rules = doc["cover"]["emap"]

        def verify(code, out, err):
            expect(code == 0, f"{variant}: exit {code}")
            s = json.loads(out)
            k = s["exponent"]
            self.same_verdict(variant, str(k))
            for e, walk in s["cover"]["emap"].items():
                expect(tuple(walk) == oracles.iterate_rules(rules, (e,), k), f"{variant}: {e}")

        return Command(self.zdyn, variant, ["straighten", path], verify)

    def _vershik(self, variant, key, prefix):
        path, doc, p = self.write(key, prefix)
        n, steps = (12, 400) if key == "ex2" else (5, 100)
        towers = diagram_towers(self.zdyn, p, doc, n)
        vertex = pick_tower(self.rng, towers, n, steps)
        argv = ["vershik", path, vertex, "--level", str(n), "--steps", str(steps)]
        verify = self.indexed_lines(variant, towers, n, vertex, stop_at=steps)
        return Command(self.zdyn, variant, argv, verify)

    def _paths(self, variant, key, prefix):
        path, doc, p = self.write(key, prefix)
        n = 9 if key == "fib" else 4
        towers = diagram_towers(self.zdyn, p, doc, n)
        vertex = pick_tower(self.rng, towers, n, 1)
        argv = ["paths", path, vertex, "--level", str(n)]
        return Command(self.zdyn, variant, argv, self.indexed_lines(variant, towers, n, vertex))

    def _towers(self, variant, key, prefix):
        path, doc, _ = self.write(key, prefix)
        n = 2 if key == "ex2" else 3

        def verify(code, out, err):
            expect(code == 0, f"{variant}: exit {code}")
            got = {t["edge"]: t["height"] for t in json.loads(out)}
            expect(got == oracles.covering_heights(doc, n), f"{variant}: heights")

        argv = ["towers", path, "--level", str(n), "--format", "json"]
        return Command(self.zdyn, variant, argv, verify)

    def _krieger(self, variant, key, prefix):
        path, _, _ = self.write(key, prefix)
        argv = ["krieger", path, "--level", "3", "--steps", "1", "--horizon", "5", "--format", "json"]
        report = self.report(variant, "HOLDS")

        def verify(code, out, err):
            report(code, out, err)
            return {"unresolved_probes": json.loads(out)["details"]["unresolved_probes"]}

        return Command(self.zdyn, variant, argv, verify)

    def _array(self, variant, key, prefix):
        path, doc, _ = self.write(key, prefix)
        seed_path, seed, _ = self.write("seed", prefix)
        hi = 12
        heights = oracles.covering_heights(doc, seed["level"])
        cells = []
        for e in seed["core"] + seed["right"] * (hi + 1):
            cells.extend([e] * heights[e])

        def verify(code, out, err):
            expect(code == 0, f"{variant}: exit {code}")
            top = out.splitlines()[0]
            expect(top.startswith(f"{seed['level']}: "), f"{variant}: top row {top[:20]}")
            got = top.split(": ", 1)[1].replace("|", " ").split()
            expect(got == cells[: hi + 1], f"{variant}: top row")

        argv = ["array", path, "--seed-file", seed_path, f"0:{hi}"]
        return Command(self.zdyn, variant, argv, verify)

    def _subst(self, variant, key, prefix):
        doc_key = {"fib": "fibsub", "e16": "e16"}[key]
        path, doc, _ = self.write(doc_key, prefix)
        depth = 8 if key == "fib" else 3
        rules = doc["rules"] if key == "fib" else doc["cover"]["emap"]
        want = oracles.language(rules, depth)

        def verify(code, out, err):
            expect(code == 0, f"{variant}: exit {code}")
            got = {tuple(line.split(" ")) for line in out.splitlines()}
            expect(got == want, f"{variant}: {len(got)} words, oracle {len(want)}")

        argv = ["subst", path, "--depth", str(depth)]
        return Command(self.zdyn, variant, argv, verify)

    def _dot(self, variant, key, prefix):
        path, doc, _ = self.write(key, prefix)
        edges = sum(doc["multiplicities"].values()) + 2 * len(doc["mono"]["edges"])

        def verify(code, out, err):
            expect(code == 0, f"{variant}: exit {code}")
            lines = out.splitlines()
            expect(sum("->" in x for x in lines) == edges, f"{variant}: edge lines")
            expect(sum("subgraph" in x for x in lines) == 4, f"{variant}: levels")

        return Command(self.zdyn, variant, ["dot", path], verify)

    def _iso(self, variant, size, prefix):
        """A pair isomorphic under a seeded shuffle of the edge labels.

        The shuffle is drawn from a 0.1% band of lexicographic ranks, so
        the permutation scan does the same amount of work on every seed.
        """
        edges = int(size)
        doc = eloop(edges, multiplicity=lambda i: 1)
        total = math.factorial(edges)
        lo = {8: 0.12, 7: 0.60}[edges]
        rank = int(total * lo) + self.rng.randrange(total // 1000)
        order = oracles.unrank_permutation(edges, rank)
        names = sorted(doc["cover"]["emap"])
        shuffle = {names[i]: names[order[i]] for i in range(edges)}
        other = self.tag + "x" + prefix[len(self.tag):]
        p_doc = prefixed(doc, prefix)
        q_doc = relabel(doc, lambda x: other + shuffle.get(x, x))
        pair = (self.load(p_doc), self.load(q_doc))
        return Isomorphism(self.zdyn, variant, *pair, (p_doc, q_doc), True)

    def _noniso(self, variant, size, prefix):
        """A pair told apart by the cycle type of the last-letter map.

        Both are one-vertex loops ``e_i -> e0 e_i e_t(i)``; an
        isomorphism would conjugate the two maps t, but one is a single
        cycle and the other splits in two, so none exists.
        """
        edges = int(size)
        cut = edges // 2
        split = lambda i: 0 if i == cut - 1 else cut if i == edges - 1 else i + 1  # noqa: E731
        mult = (lambda i: i % 3 + 1) if edges == 8 else (lambda i: 1)
        other = self.tag + "x" + prefix[len(self.tag):]
        p_doc = prefixed(eloop(edges, multiplicity=mult), prefix)
        q_doc = prefixed(eloop(edges, successor=split, multiplicity=mult), other)
        pair = (self.load(p_doc), self.load(q_doc))
        return Isomorphism(self.zdyn, variant, *pair, (p_doc, q_doc), False)

    def _bad(self, variant, command, prefix):
        """Bad input for a valid document; the CLI must exit 2."""
        if command == "recoding":
            path, _, _ = self.write("fibbv", prefix)
            argv = ["check", "recoding", path, "--radius", "1"]
        else:
            path, _, _ = self.write("ex2", prefix)
            argv = {
                "vershik": ["vershik", path, "nope"],
                "krieger": ["krieger", path, "--steps", "0"],
                "paths": ["paths", path, "nope"],
            }[command]
        return Command(self.zdyn, variant, argv, lambda *out: {}, bad_input=True)


WORKLOADS = {
    "adic-walk": AdicWalk,
    "krieger-sweep": KriegerSweep,
    "check-batch": CheckBatch,
}
