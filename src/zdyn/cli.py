"""JSON document formats and the ``zdyn`` command line tool.

Documents are JSON objects with a ``version`` tag (``zdyn/1``) and a
``kind`` selecting one of the toolkit's value types.  The CLI parses a
document, dispatches to the library, and prints either a human-readable
report or the JSON form of the result.  Exit codes: 0 for success (and
for honest UNKNOWN verdicts), 1 for a failing property, 2 for input
errors, 3 for an internal error, so that a crash never reads as a
failing verdict.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
import traceback

from . import bratteli, coverings, graphs, stationary, substitution
from .errors import (
    DocumentSemanticError,
    DocumentSyntaxError,
    UnsupportedKind,
    ZdynError,
)
from .graphs import BasicGraph, Cover, Graph
from .reports import FAILS, Report, _plain

VERSION = "zdyn/1"

# the ``tail`` of a finite-prefix covering or diagram document: it stops at
# its top level, or its last cover or edge level repeats forever
TRUNCATED = "truncated"
REPEAT = "repeat_last_as_stationary"

FAILING_VERDICTS = {FAILS, "AMBIGUOUS"}


# ---------------------------------------------------------------------------
# document loading


def _need(data: dict, key: str, context: str):
    if key not in data:
        raise DocumentSemanticError(f"{context}: missing field {key!r}")
    return data[key]


# ---------------------------------------------------------------------------
# names and shapes: every name a string, every map an object, every walk a
# list of names, checked before any value is hashed, ordered or unpacked; the
# place of a value, ``what``, is a string or a tuple of its parts, joined only
# for an error message


def _place(what) -> str:
    return what if isinstance(what, str) else " ".join(map(str, what))


def _name(value, what) -> str:
    if not isinstance(value, str):
        raise DocumentSemanticError(f"{_place(what)}: {value!r} is not a name")
    return value


def _names(value, what) -> tuple:
    """A JSON array of names."""
    if not isinstance(value, (list, tuple)):
        raise DocumentSemanticError(
            f"{_place(what)}: {value!r} is not a list of names"
        )
    for x in value:
        _name(x, what)
    return tuple(value)


def _integer(value, what) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise DocumentSemanticError(f"{_place(what)}: {value!r} is not an integer")
    return value


def _named(data, key: str, context: str, item) -> dict:
    """The JSON object ``data[key]`` keyed by names, ``item`` applied to each value."""
    table = _need(data, key, context)
    if not isinstance(table, dict):
        raise DocumentSemanticError(f"{context} {key}: not a JSON object")
    where = f"{context} {key}"
    return {_name(k, where): item(v, (context, key, k)) for k, v in table.items()}


def _object(data, context: str) -> dict:
    if not isinstance(data, dict):
        raise DocumentSemanticError(f"{context}: not a JSON object")
    return data


def _list(data, key: str, context: str) -> list:
    value = _need(data, key, context)
    if not isinstance(value, list):
        raise DocumentSemanticError(f"{context} {key}: not a list")
    return value


# the entries of one edge by document kind; a third entry is an integer
_EDGE_ENTRIES = {
    "basic_graph": ("src", "rng"),
    "weighted_graph": ("src", "rng", "length"),
    "flexible_graph": ("src", "rng"),
    "mono_graph": ("src", "rng", "rank"),
}


def _entry(kind: str, edge, entry) -> tuple:
    """One edge entry of a ``kind`` document, its arity, names and integer checked."""
    names = _EDGE_ENTRIES[kind]
    if not isinstance(entry, (list, tuple)) or len(entry) != len(names):
        raise DocumentSemanticError(
            f"{kind} edge {edge}: expected [{', '.join(names)}], got {entry!r}"
        )
    where = (kind, "edge", edge)
    t = (_name(entry[0], where), _name(entry[1], where), *entry[2:])
    if len(t) == 3 and (isinstance(t[2], bool) or not isinstance(t[2], int)):
        raise DocumentSemanticError(
            f"{kind} edge {edge}: {names[2]} {t[2]!r} is not an integer"
        )
    return t


def _edge_table(table, kind: str) -> dict:
    """A JSON object of ``kind`` edge entries keyed by edge name."""
    if not isinstance(table, dict):
        raise DocumentSemanticError(f"{kind} edges: not a JSON object")
    where = f"{kind} edges"
    return {_name(e, where): _entry(kind, e, t) for e, t in table.items()}


def _load_basic_graph(data) -> BasicGraph:
    return BasicGraph(
        vertices=frozenset(
            _names(_need(data, "vertices", "basic_graph"), "basic_graph vertices")
        ),
        edges=frozenset(
            _entry("basic_graph", t, t) for t in _list(data, "edges", "basic_graph")
        ),
    )


# the graph kinds whose edges have names, which a cover's edge map reads
_NAMED_EDGES = ("weighted_graph", "flexible_graph")


def _load_graph(data, kinds=("basic_graph", *_NAMED_EDGES)) -> BasicGraph | Graph:
    kind = _need(_object(data, "graph"), "kind", "graph")
    if kind not in kinds:
        raise DocumentSemanticError(f"need a {' or '.join(kinds)}, not {kind!r}")
    if kind == "basic_graph":
        return _load_basic_graph(data)
    build = graphs.weighted if kind == "weighted_graph" else graphs.flexible
    table = _edge_table(_need(data, "edges", kind), kind)
    return build(_names(_need(data, "vertices", kind), f"{kind} vertices"), table)


def _load_cover(data) -> Cover:
    data = _object(data, "cover")
    return Cover(
        domain=_load_graph(_need(data, "domain", "cover"), _NAMED_EDGES),
        codomain=_load_graph(_need(data, "codomain", "cover"), _NAMED_EDGES),
        vmap=_named(data, "vmap", "cover", _name),
        emap=_named(data, "emap", "cover", _names),
    )


def _repeats(data, context: str) -> bool:
    """Whether a finite-prefix document repeats its last level, read off its ``tail``."""
    tail = data.get("tail", TRUNCATED)
    if tail not in (TRUNCATED, REPEAT):
        raise DocumentSemanticError(f"unknown {context} tail: {tail!r}")
    return tail == REPEAT


def _load_covering(data):
    form = _need(data, "form", "covering")
    if form == "stationary":
        return coverings.stationary_presentation(
            _load_cover(_need(data, "cover", "covering")),
            _named(data, "multiplicities", "covering", _integer),
        )
    if form == "finite_prefix":
        repeat = _repeats(data, "covering")
        # a level has lengths
        level_graphs = [
            _load_graph(g, ("weighted_graph",)) for g in _list(data, "graphs", "covering")
        ]
        level_covers = [_load_cover(c) for c in _list(data, "covers", "covering")]
        if repeat and not level_covers and len(level_graphs) < 2:
            # more levels without covers fail validation on their count
            raise DocumentSemanticError("repeating tail needs at least one cover")
        return coverings.finite_prefix_presentation(
            level_graphs, level_covers, repeat and bool(level_covers)
        )
    raise DocumentSemanticError(f"unknown covering form: {form}")


def _load_mono(data) -> Graph:
    data = _object(data, "mono_graph")
    return graphs.mono_graph(
        _names(_need(data, "vertices", "mono_graph"), "mono_graph vertices"),
        _edge_table(_need(data, "edges", "mono_graph"), "mono_graph"),
    )


def _load_bratteli(data) -> bratteli.BratteliDiagram:
    form = _need(data, "form", "bratteli")
    if form == "stationary":
        mono = _load_mono(_need(data, "mono", "bratteli"))
        multiplicities = _named(data, "multiplicities", "bratteli", _integer)
        missing = sorted(mono.vertices - multiplicities.keys())
        if missing:
            raise DocumentSemanticError(f"vertex {missing[0]} lacks a multiplicity")
        return bratteli.stationary_diagram(mono, multiplicities)
    if form == "finite_prefix":
        repeat = _repeats(data, "bratteli")
        levels = [_names(vs, "bratteli levels") for vs in _list(data, "levels", "bratteli")]
        tables = [
            _edge_table(table, "mono_graph")
            for table in _list(data, "edge_levels", "bratteli")
        ]
        if repeat and len(tables) < 2:
            raise DocumentSemanticError("repeating tail needs at least two edge levels")
        if repeat and len(levels) > 2 and set(levels[-1]) != set(levels[-2]):
            raise DocumentSemanticError(
                "repeating tail needs the same vertices on its top two levels"
            )
        return bratteli.BratteliDiagram(
            levels=tuple(levels),
            edge_levels=tuple(tables),
            repeat=tables[-1] if repeat else None,
        )
    raise DocumentSemanticError(f"unknown bratteli form: {form}")


def _load_substitution(data) -> substitution.Substitution:
    try:
        return substitution.substitution(_named(data, "rules", "substitution", _names))
    except ValueError as exc:
        raise DocumentSemanticError(str(exc)) from exc


def _load_seed_row(data) -> substitution.SeedRow:
    return substitution.SeedRow(
        level=_integer(_need(data, "level", "seed_row"), "seed_row level"),
        left=_names(data.get("left", ()), "seed_row left"),
        core=_names(data.get("core", ()), "seed_row core"),
        right=_names(data.get("right", ()), "seed_row right"),
    )


_LOADERS = {
    "basic_graph": _load_graph,
    "weighted_graph": _load_graph,
    "flexible_graph": _load_graph,
    "cover": _load_cover,
    "covering": _load_covering,
    "mono_graph": _load_mono,
    "bratteli": _load_bratteli,
    "substitution": _load_substitution,
    "seed_row": _load_seed_row,
}


def _structure_problems(obj) -> list[str]:
    """Invariant problems for a loaded document, by type."""
    if isinstance(obj, (BasicGraph, Graph)):
        return graphs.validate_graph(obj)
    if isinstance(obj, Cover):
        return graphs.cover_violations(obj)
    if isinstance(obj, coverings.CoveringPresentation):
        return coverings.validate_presentation(obj)
    if isinstance(obj, bratteli.BratteliDiagram):
        return bratteli.validate_diagram(obj)
    return []


def load_document(data: dict, check: bool = True):
    """Turn a parsed JSON document into a library value."""
    if not isinstance(data, dict):
        raise DocumentSemanticError("a document must be a JSON object")
    version = _need(data, "version", "document")
    if version != VERSION:
        raise DocumentSemanticError(f"unsupported version: {version}")
    kind = _need(data, "kind", "document")
    loader = _LOADERS.get(kind) if isinstance(kind, str) else None
    if loader is None:
        raise DocumentSemanticError(f"unknown document kind: {kind}")
    try:
        obj = loader(data)
    except (KeyError, TypeError, AttributeError) as exc:
        raise DocumentSemanticError(f"malformed {kind} document: {exc}") from exc
    if check:
        problems = _structure_problems(obj)
        if problems:
            raise DocumentSemanticError(problems[0])
    return obj


def parse_document(text: str, check: bool = True):
    try:
        data = json.loads(text)
    except json.JSONDecodeError as exc:
        raise DocumentSyntaxError(
            f"line {exc.lineno}, column {exc.colno}: {exc.msg}"
        ) from exc
    return load_document(data, check=check)


def read_document(path: str, check: bool = True):
    with open(path, encoding="utf-8") as handle:
        return parse_document(handle.read(), check=check)


# ---------------------------------------------------------------------------
# document serialization


def to_document(obj) -> dict:
    """The canonical JSON document of a library value."""
    doc = _payload(obj)
    doc["version"] = VERSION
    return doc


def _edge_kind(obj) -> str | None:
    """The document kind of a graph with an edge table: a mono-graph has ranks."""
    if not isinstance(obj, Graph):
        return None
    if obj.rank is not None:
        return "mono_graph"
    return "flexible_graph" if obj.length is None else "weighted_graph"


def _edge_entries(obj, kind: str) -> dict:
    """The ``edges`` table of a ``kind`` document, in id order."""
    maps = [getattr(obj, name) for name in _EDGE_ENTRIES[kind]]
    return {e: [m[e] for m in maps] for e in sorted(obj.edges)}


def _payload(obj) -> dict:
    if isinstance(obj, BasicGraph):
        return {
            "kind": "basic_graph",
            "vertices": sorted(obj.vertices),
            "edges": [list(e) for e in sorted(obj.edges)],
        }
    kind = _edge_kind(obj)
    if kind:
        return {
            "kind": kind,
            "vertices": sorted(obj.vertices),
            "edges": _edge_entries(obj, kind),
        }
    if isinstance(obj, Cover):
        return {
            "kind": "cover",
            "domain": _payload(obj.domain),
            "codomain": _payload(obj.codomain),
            "vmap": {v: obj.vmap[v] for v in sorted(obj.vmap)},
            "emap": {e: list(obj.emap[e]) for e in sorted(obj.emap)},
        }
    if isinstance(obj, coverings.CoveringPresentation):
        if obj.stationary:
            lengths = obj.graphs[0].length
            return {
                "kind": "covering",
                "form": "stationary",
                "cover": _payload(obj.self_cover),
                "multiplicities": {e: lengths[e] for e in sorted(lengths)},
            }
        return {
            "kind": "covering",
            "form": "finite_prefix",
            "graphs": [_payload(g) for g in obj.graphs],
            "covers": [_payload(c) for c in obj.covers],
            "tail": TRUNCATED if obj.self_cover is None else REPEAT,
        }
    if isinstance(obj, bratteli.BratteliDiagram):
        if obj.stationary:
            return {
                "kind": "bratteli",
                "form": "stationary",
                "mono": _payload(obj.mono),
                "multiplicities": {
                    v: len(obj.in_edges(1, v)) for v in obj.level_vertices(1)
                },
            }
        doc = {
            "kind": "bratteli",
            "form": "finite_prefix",
            "levels": [sorted(vs) for vs in obj.levels],
            "edge_levels": [
                {e: list(t) for e, t in sorted(table.items())}
                for table in obj.edge_levels
            ],
        }
        if obj.repeat is not None:
            doc["tail"] = REPEAT
        return doc
    if isinstance(obj, substitution.Substitution):
        return {
            "kind": "substitution",
            "rules": {a: list(obj.rules[a]) for a in obj.alphabet},
        }
    if isinstance(obj, substitution.SeedRow):
        return {
            "kind": "seed_row",
            "level": obj.level,
            "left": list(obj.left),
            "core": list(obj.core),
            "right": list(obj.right),
        }
    raise UnsupportedKind(f"cannot serialize {type(obj).__name__}")


def dump_document(obj) -> str:
    return json.dumps(to_document(obj), indent=2, sort_keys=True)


# ---------------------------------------------------------------------------
# DOT export


def export_dot(obj) -> str:
    """Deterministic Graphviz text for graphs and diagrams."""
    lines = ["digraph G {"]
    if isinstance(obj, BasicGraph):
        for u, w in sorted(obj.edges):
            lines.append(f'  "{u}" -> "{w}";')
    elif _edge_kind(obj):
        for e, (s, r, *rest) in _edge_entries(obj, _edge_kind(obj)).items():
            label = ":".join(str(x) for x in (e, *rest))
            lines.append(f'  "{s}" -> "{r}" [label="{label}"];')
    elif isinstance(obj, bratteli.BratteliDiagram):
        # an unbounded diagram is drawn one level past its prefix, to level 3 at least
        limit = obj.depth()
        top = limit if limit is not None else max(3, len(obj.levels))
        for n in range(top + 1):
            names = [f"L{n}_{v}" for v in obj.level_vertices(n)]
            ranked = "; ".join(f'"{name}"' for name in names)
            lines.append(f"  subgraph level_{n} {{ rank=same; {ranked}; }}")
        for n in range(1, top + 1):
            for e, (s, r, rank) in sorted(obj.level_edges(n).items()):
                lines.append(
                    f'  "L{n - 1}_{s}" -> "L{n}_{r}" [label="{e}:{rank}"];'
                )
    else:
        raise UnsupportedKind(f"no DOT form for {type(obj).__name__}")
    lines.append("}")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# report output and verdict-driven exit codes


def _emit_report(report: Report, fmt: str) -> int:
    if fmt == "json":
        print(json.dumps(report.to_json(), indent=2, sort_keys=True))
    else:
        print(f"{report.tag}: {report.verdict}")
        for w in report.witnesses:
            print(f"  witness: {w}")
        for key, value in report.details.items():
            print(f"  {key}: {value}")
    return 1 if report.verdict in FAILING_VERDICTS else 0


def _mono_of(obj) -> Graph:
    if _edge_kind(obj) == "mono_graph":
        return obj
    if isinstance(obj, bratteli.BratteliDiagram) and obj.stationary:
        return obj.mono
    if isinstance(obj, coverings.CoveringPresentation) and obj.stationary:
        return bratteli.weighted_to_bv(obj).mono
    raise UnsupportedKind("continuity needs a mono-graph or a stationary input")


def _self_cover_of(obj, needs: str) -> Cover:
    if isinstance(obj, Cover):
        return obj
    if isinstance(obj, coverings.CoveringPresentation) and obj.stationary:
        return obj.self_cover
    raise UnsupportedKind(needs)


def _presentation_of(obj, what: str) -> coverings.CoveringPresentation:
    if isinstance(obj, coverings.CoveringPresentation):
        return obj
    raise UnsupportedKind(f"{what} needs a covering presentation")


def _diagram_of(obj) -> bratteli.BratteliDiagram:
    if isinstance(obj, bratteli.BratteliDiagram):
        return obj
    if isinstance(obj, coverings.CoveringPresentation):
        return bratteli.weighted_to_bv(obj)
    raise UnsupportedKind("need a diagram or covering presentation")


def _parse_l_seq(text: str) -> list[int]:
    try:
        return [int(x) for x in text.split(",") if x != ""]
    except ValueError as exc:
        raise DocumentSemanticError(f"bad --l-seq value: {text}") from exc


def _parse_cols(text: str) -> tuple[int, int]:
    try:
        lo, hi = text.split(":")
        return int(lo), int(hi)
    except ValueError as exc:
        raise DocumentSemanticError(f"bad column range: {text}") from exc


# ---------------------------------------------------------------------------
# subcommands


def _cmd_validate(args) -> int:
    obj = read_document(args.file, check=False)
    problems = _structure_problems(obj)
    for msg in problems:
        print(f"error: {msg}", file=sys.stderr)
    if problems:
        return 2
    print("ok")
    return 0


def _cmd_check(args) -> int:
    obj = read_document(args.file)
    prop = args.property
    if prop == "closing":
        if isinstance(obj, bratteli.BratteliDiagram):
            report = bratteli.check_closing_bv(obj)
        else:
            report = coverings.check_closing(_presentation_of(obj, "closing"))
    elif prop == "regulated":
        if args.l_seq is None:
            raise DocumentSemanticError("regulated needs --l-seq")
        seq = _parse_l_seq(args.l_seq)
        n_max = args.level if args.level is not None else len(seq)
        if isinstance(obj, bratteli.BratteliDiagram):
            report = bratteli.check_regulated_bv(obj, seq, n_max)
        else:
            p = _presentation_of(obj, "regulated")
            report = coverings.check_regulated(p, seq, n_max)
    elif prop == "nesting":
        level = args.level if args.level is not None else 1
        report = bratteli.check_nesting(_diagram_of(obj), level)
    elif prop == "continuity":
        report = stationary.check_continuity(_mono_of(obj))
    elif prop == "overlap":
        cover = _self_cover_of(
            obj, "overlap needs a self-cover or a stationary covering"
        )
        report = stationary.check_overlap(
            stationary.analyze_self_cover(cover),
            k_max=args.k_max,
            depth_max=args.depth_max,
        )
    elif prop == "recoding":
        if args.radius is None:
            raise DocumentSemanticError("recoding needs --radius")
        level = args.level if args.level is not None else 1
        p = _presentation_of(obj, "recoding")
        report = substitution.check_recoding(p, level, args.radius)
    else:  # pragma: no cover - argparse restricts the choices
        raise DocumentSemanticError(f"unknown property {prop}")
    return _emit_report(report, args.format)


def _cmd_convert(args) -> int:
    obj = read_document(args.file)
    if args.direction == "to-bv":
        print(dump_document(_diagram_of(obj)))
    else:
        if not isinstance(obj, bratteli.BratteliDiagram):
            raise UnsupportedKind("to-covering needs a bratteli document")
        print(dump_document(bratteli.bv_to_weighted(obj)))
    return 0


def _cmd_telescope(args) -> int:
    obj = read_document(args.file)
    cuts = _parse_l_seq(args.cuts)
    if isinstance(obj, bratteli.BratteliDiagram):
        print(dump_document(bratteli.telescope_bv(obj, cuts)))
    elif isinstance(obj, coverings.CoveringPresentation):
        print(dump_document(coverings.telescope(obj, cuts)))
    else:
        raise UnsupportedKind("telescoping needs a covering or a diagram")
    return 0


def _cmd_straighten(args) -> int:
    obj = read_document(args.file)
    if _edge_kind(obj) == "mono_graph":
        K, powered = stationary.straighten_mono(obj)
        result = {"exponent": K, "mono": to_document(powered)}
    else:
        cover = _self_cover_of(
            obj, "straighten needs a mono-graph, a self-cover or a stationary covering"
        )
        analysis = stationary.analyze_self_cover(cover)
        result = {
            "exponent": analysis.exponent,
            "cover": to_document(analysis.cover),
        }
    print(json.dumps(result, indent=2, sort_keys=True))
    return 0


def _cmd_vershik(args) -> int:
    d = _diagram_of(read_document(args.file))
    start = bratteli.minimal_path(d, args.vertex, args.level)
    orbit = bratteli.vershik_orbit(d, start, args.steps)
    for q in orbit:
        print(q if isinstance(q, str) else " ".join(q))
    return 0


def _cmd_paths(args) -> int:
    d = _diagram_of(read_document(args.file))
    for q in bratteli.enumerate_paths(d, args.vertex, args.level):
        print(" ".join(q))
    return 0


def _cmd_towers(args) -> int:
    p = _presentation_of(read_document(args.file), "towers")
    decomposition = coverings.tower_decomposition(p, args.level)
    if args.format == "json":
        print(
            json.dumps(
                [
                    {
                        "edge": t.edge,
                        "height": t.height,
                        "base": _plain(t.base),
                    }
                    for t in decomposition.towers
                ],
                indent=2,
                sort_keys=True,
            )
        )
    else:
        for t in decomposition.towers:
            print(f"{t.edge} height={t.height} base={_plain(t.base)}")
    return 0


def _cmd_krieger(args) -> int:
    p = _presentation_of(read_document(args.file), "krieger")
    report = coverings.krieger_coverage(
        p, args.level, args.steps, horizon=args.horizon
    )
    return _emit_report(report, args.format)


def _cmd_array(args) -> int:
    p = _presentation_of(read_document(args.file), "array")
    seed = read_document(args.seed_file)
    if not isinstance(seed, substitution.SeedRow):
        raise UnsupportedKind("--seed-file must hold a seed_row document")
    rows = args.level if args.level is not None else seed.level
    window = substitution.array_window(p, seed, rows, _parse_cols(args.cols))
    width = max(
        len(window.cells[(k, c)])
        for k in range(rows + 1)
        for c in range(window.lo, window.hi + 1)
    )
    for k in range(rows, -1, -1):
        row = " ".join(
            ("|" if c in window.cuts[k] else " ")
            + window.cells[(k, c)].ljust(width)
            for c in range(window.lo, window.hi + 1)
        )
        print(f"{k}: {row}")
    return 0


def _cmd_subst(args) -> int:
    obj = read_document(args.file)
    if isinstance(obj, substitution.Substitution):
        s = obj
    elif _edge_kind(obj) == "mono_graph":
        s = substitution.read_substitution(obj)
    else:
        cover = _self_cover_of(
            obj,
            "subst needs a substitution, a mono-graph, a self-cover"
            " or a stationary covering",
        )
        s = substitution.read_substitution(cover)
    if args.depth is not None:
        for word in sorted(substitution.language(s, args.depth)):
            print(" ".join(word))
        return 0
    print(dump_document(s))
    return 0


def _cmd_dot(args) -> int:
    print(export_dot(read_document(args.file)), end="")
    return 0


# ---------------------------------------------------------------------------
# argument parsing


@functools.cache
def _build_parser() -> argparse.ArgumentParser:
    """The argument parser, built on first use and shared by every call."""
    parser = argparse.ArgumentParser(
        prog="zdyn",
        description="combinatorics of coverings, diagrams, and substitutions",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, *, fmt=True):
        p.add_argument("file", help="input document")
        if fmt:
            p.add_argument(
                "--format", choices=("human", "json"), default="human"
            )

    p = sub.add_parser("validate", help="check document invariants")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_validate)

    p = sub.add_parser("check", help="decide a normality property")
    p.add_argument(
        "property",
        choices=(
            "closing", "regulated", "nesting",
            "continuity", "overlap", "recoding",
        ),
    )
    common(p)
    p.add_argument("--level", type=int, default=None)
    p.add_argument("--l-seq", default=None, help="comma-separated thresholds")
    p.add_argument("--k-max", type=int, default=4)
    p.add_argument("--depth-max", type=int, default=6)
    p.add_argument("--radius", type=int, default=None)
    p.set_defaults(run=_cmd_check)

    p = sub.add_parser("convert", help="switch presentation styles")
    p.add_argument("direction", choices=("to-bv", "to-covering"))
    common(p, fmt=False)
    p.set_defaults(run=_cmd_convert)

    p = sub.add_parser("telescope", help="telescope along cut points")
    common(p, fmt=False)
    p.add_argument("cuts", help="comma-separated cut points")
    p.set_defaults(run=_cmd_telescope)

    p = sub.add_parser("straighten", help="find the straightening power")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_straighten)

    p = sub.add_parser("vershik", help="iterate the successor map")
    common(p, fmt=False)
    p.add_argument("vertex")
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--steps", type=int, default=10)
    p.set_defaults(run=_cmd_vershik)

    p = sub.add_parser("paths", help="enumerate a path fiber in order")
    common(p, fmt=False)
    p.add_argument("vertex")
    p.add_argument("--level", type=int, default=1)
    p.set_defaults(run=_cmd_paths)

    p = sub.add_parser("towers", help="tower decomposition at a level")
    common(p)
    p.add_argument("--level", type=int, default=1)
    p.set_defaults(run=_cmd_towers)

    p = sub.add_parser("krieger", help="marker coverage at the horizon")
    common(p)
    p.add_argument("--level", type=int, default=1)
    p.add_argument("--steps", type=int, default=1, help="the window L")
    p.add_argument("--horizon", type=int, default=4)
    p.set_defaults(run=_cmd_krieger)

    p = sub.add_parser("array", help="materialize an array window")
    common(p, fmt=False)
    p.add_argument("cols", help="column range lo:hi")
    p.add_argument("--seed-file", required=True)
    p.add_argument("--level", type=int, default=None, help="top row")
    p.set_defaults(run=_cmd_array)

    p = sub.add_parser("subst", help="read or iterate a substitution")
    common(p, fmt=False)
    p.add_argument("--depth", type=int, default=None, help="language length")
    p.set_defaults(run=_cmd_subst)

    p = sub.add_parser("dot", help="Graphviz export")
    common(p, fmt=False)
    p.set_defaults(run=_cmd_dot)

    return parser


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.run(args)
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except ZdynError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        traceback.print_exc()
        return 3


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
