"""Command-line front end.

Diagram grammar (line oriented, `#` starts a comment):

    rank: <n>
    edge: <i> <j> <m>     # 0-based i < j, m an integer >= 3 or "inf"
    type: <NAME>          # standard diagram shortcut, exclusive with the above

Unlisted pairs default to label 2, and a rank, given or implied by a type
name, is at most MAX_RANK (1000).  Parse errors carry a 1-based line and
column.  Exit codes: 0 success (and all claims passing), 1 claim failure,
2 input error, 3 internal error, 141 output pipe closed by its reader.
"""

from __future__ import annotations

import argparse
import json
import os
import re
import sys
from typing import Optional

from .catalog import name_rank, standard_system
from .classify import (
    classify,
    has_affine_parabolic,
    is_spherical,
    kazhdan_threshold,
    max_spherical_rank,
    minimal_infinite_subsets,
)
from .core import INFINITY, CoxeterSystem, Label, label_text
from .report import system_payload


class DiagramParseError(ValueError):
    """Raised on malformed diagram text; line and column are 1-based."""

    def __init__(self, message: str, line: int, column: int):
        super().__init__(f"line {line}, column {column}: {message}")
        self.message = message
        self.line = line
        self.column = column


_TOKEN = re.compile(r"\S+")

# largest rank a `rank:` line or a type name may give; the label matrix has
# rank^2 entries
MAX_RANK = 1000


def _fail(msg: str, lineno: int, col: int) -> None:
    raise DiagramParseError(msg, lineno, col)


def parse_diagram(text: str) -> CoxeterSystem:
    rank: Optional[int] = None
    edges: dict[tuple[int, int], Label] = {}
    type_system: Optional[CoxeterSystem] = None

    for lineno, raw in enumerate(text.splitlines(), 1):
        content = raw.split("#", 1)[0]
        tokens = _TOKEN.finditer(content)
        toks = [(t.group(), t.start() + 1) for t in tokens]
        if not toks:
            continue
        head, head_col = toks[0]
        args = toks[1:]

        if head == "rank:":
            if type_system is not None:
                _fail("rank line cannot follow a type line", lineno, head_col)
            if rank is not None:
                _fail("duplicate rank line", lineno, head_col)
            if len(args) != 1 or not args[0][0].isdecimal():
                col = args[0][1] if args else head_col
                _fail("expected a non-negative integer rank", lineno, col)
            rank = int(args[0][0])
            if rank > MAX_RANK:
                _fail(f"rank {rank} is above the limit {MAX_RANK}", lineno, args[0][1])
        elif head == "edge:":
            if type_system is not None:
                _fail("edge line cannot follow a type line", lineno, head_col)
            if rank is None:
                _fail("edge line before rank line", lineno, head_col)
            if len(args) != 3:
                _fail("expected: edge: <i> <j> <m>", lineno, head_col)
            (si, ci), (sj, cj), (sm, cm) = args
            if not si.isdecimal():
                _fail("expected a vertex index", lineno, ci)
            if not sj.isdecimal():
                _fail("expected a vertex index", lineno, cj)
            i, j = int(si), int(sj)
            if i >= j:
                _fail("edge endpoints must satisfy i < j", lineno, cj)
            if j >= rank:
                _fail(f"vertex index {j} is out of range for rank {rank}", lineno, cj)
            if sm == "inf":
                m: Label = INFINITY
            elif sm.isdecimal():
                m = int(sm)
                if m < 3:
                    _fail(
                        "edge labels start at 3 (label 2 is the default)", lineno, cm
                    )
            else:
                _fail('expected an integer label or "inf"', lineno, cm)
            if (i, j) in edges:
                _fail(f"duplicate edge {i} {j}", lineno, ci)
            edges[(i, j)] = m
        elif head == "type:":
            if rank is not None or edges:
                _fail("type line cannot follow rank or edge lines", lineno, head_col)
            if type_system is not None:
                _fail("duplicate type line", lineno, head_col)
            if len(args) != 1:
                _fail("expected: type: <NAME>", lineno, head_col)
            name, col = args[0]
            try:
                size = name_rank(name)
                if size <= MAX_RANK:  # else no builder makes the rank^2 matrix
                    type_system = standard_system(name)
            except ValueError:
                _fail(f"unknown diagram name {name!r}", lineno, col)
            if size > MAX_RANK:
                _fail(f"type {name} has rank {size}, above the limit {MAX_RANK}", lineno, col)
        else:
            _fail("expected 'rank:', 'edge:' or 'type:'", lineno, head_col)

    if type_system is not None:
        return type_system
    if rank is None:
        _fail("no rank or type line", 1, 1)
    return CoxeterSystem.from_edges(rank, edges)


def render_diagram(system: CoxeterSystem) -> str:
    lines = [f"rank: {system.rank}"]
    lines.extend(f"edge: {i} {j} {label_text(m)}" for i, j, m in system.edges())
    return "\n".join(lines) + "\n"


# -- command plumbing --------------------------------------------------------


def _read_diagram(ns: argparse.Namespace) -> CoxeterSystem:
    if ns.stdin:
        text = sys.stdin.read()
    else:
        with open(ns.input, "r", encoding="utf-8") as fh:
            text = fh.read()
    return parse_diagram(text)


def _emit(payload: dict, ns: argparse.Namespace, text_lines: list[str]) -> None:
    if ns.format == "json":
        print(json.dumps(payload, indent=2, sort_keys=True))
    else:
        for line in text_lines:
            print(line)


def _parse_labels(csv: str) -> frozenset:
    out = set()
    for item in csv.split(","):
        item = item.strip()
        if item == "inf":
            out.add(INFINITY)
        elif item.isdecimal():
            out.add(int(item))
        else:
            raise ValueError(f"bad label {item!r} in --labels")
    return frozenset(out)


def _subset_text(subset) -> str:
    return "{" + ", ".join(str(v) for v in subset) + "}"


def _cmd_classify(ns: argparse.Namespace) -> int:
    system = _read_diagram(ns)
    parts = classify(system)
    payload = {
        "diagram": system_payload(system),
        "components": [
            {
                "vertices": list(subset),
                "type": tc.kind,
                "name": tc.name,
                "aliases": list(tc.aliases),
            }
            for subset, tc in parts
        ],
        "spherical": is_spherical(system),
    }
    lines = [f"rank {system.rank}, {len(parts)} component(s)"]
    for subset, tc in parts:
        alias = f" (aliases: {', '.join(tc.aliases)})" if tc.aliases else ""
        lines.append(f"  {_subset_text(subset)}: {tc.kind} {tc}{alias}")
    lines.append(f"spherical: {'yes' if payload['spherical'] else 'no'}")
    _emit(payload, ns, lines)
    return 0


def _cmd_hyperbolic(ns: argparse.Namespace) -> int:
    from .hyperbolic import AffineSubset, is_hyperbolic

    system = _read_diagram(ns)
    verdict = is_hyperbolic(system)
    w = verdict.witness
    if verdict.hyperbolic:
        witness, lines = None, ["hyperbolic"]
    elif isinstance(w, AffineSubset):
        witness = dict(kind="affine_subset", subset=list(w.subset))
        lines = [f"not hyperbolic: affine parabolic on {_subset_text(w.subset)}"]
    else:
        witness = dict(kind="commuting_infinite_pair", left=list(w.left), right=list(w.right))
        pair = f"{_subset_text(w.left)} x {_subset_text(w.right)}"
        lines = [f"not hyperbolic: commuting infinite pair {pair}"]
    payload = {
        "diagram": system_payload(system),
        "verdict": "hyperbolic" if verdict.hyperbolic else "not_hyperbolic",
        "witness": witness,
    }
    _emit(payload, ns, lines)
    return 0


def _cmd_parabolics(ns: argparse.Namespace) -> int:
    system = _read_diagram(ns)
    minimal = minimal_infinite_subsets(system)
    aff = has_affine_parabolic(system)
    payload = {
        "diagram": system_payload(system),
        "max_spherical_rank": max_spherical_rank(system),
        "minimal_infinite": [list(s) for s in minimal],
        "affine_parabolic": list(aff) if aff is not None else None,
    }
    lines = [f"max spherical rank: {payload['max_spherical_rank']}"]
    if minimal:
        lines.append("minimal infinite subsets:")
        lines.extend(f"  {_subset_text(s)}" for s in minimal)
    else:
        lines.append("minimal infinite subsets: none (every subset is spherical)")
    lines.append(f"affine parabolic: {'none' if aff is None else _subset_text(aff)}")
    _emit(payload, ns, lines)
    return 0


def _cmd_threshold(ns: argparse.Namespace) -> int:
    system = _read_diagram(ns)
    res = kazhdan_threshold(system)
    payload = {
        "diagram": system_payload(system),
        "d": res.d,
        "bound": {
            "numerator": res.bound.numerator,
            "denominator": res.bound.denominator,
        },
        "q": res.q,
    }
    lines = [
        f"max spherical rank d = {res.d}",
        f"bound 1764^d / 25 = {res.bound}",
        f"q = {res.q}",
    ]
    _emit(payload, ns, lines)
    return 0


def _edge_text(system: CoxeterSystem) -> str:
    parts = [f"{i}-{j}:{label_text(m)}" for i, j, m in system.edges()]
    return " ".join(parts) if parts else "(no edges)"


def _filter_from_flags(ns: argparse.Namespace):
    from .enumeration import EnumFilter

    return EnumFilter(
        label_set=_parse_labels(ns.labels),
        connected_only=not ns.allow_disconnected,
        simply_laced=ns.simply_laced,
        crystallographic=ns.crystallographic,
        k_spherical=ns.k_spherical,
        all_proper_parabolics_spherical_or_affine=ns.all_proper,
    )


def _cmd_enumerate(ns: argparse.Namespace) -> int:
    from .enumeration import iter_levels, worker_map

    filt = _filter_from_flags(ns)
    with worker_map(ns.jobs) as imap:
        levels = list(iter_levels(filt, ns.max_rank, imap))
    payload = {
        "filter": filt.payload(),
        "per_rank": {str(k): len(v) for k, v in levels},
        "classes": {str(k): [system_payload(s) for s in v] for k, v in levels},
    }
    lines = []
    for k, v in levels:
        lines.append(f"rank {k}: {len(v)} class(es)")
        lines.extend(f"  {_edge_text(s)}" for s in v)
    _emit(payload, ns, lines)
    return 0


# campaign -> (default max rank, runner(experiments, ns, labels, max_rank)).
# Only _cmd_verify imports the experiments module; the runners look the
# campaign functions up on it when called, so tests can replace them
_CAMPAIGNS = {
    "affine-criterion": (
        None,
        lambda x, ns, labels, r: x.verify_affine_criterion(ns.mode, r, jobs=ns.jobs),
    ),
    "engine-agreement": (
        6,
        lambda x, ns, labels, r: x.verify_engine_agreement(r, labels, jobs=ns.jobs),
    ),
    "size-bounds": (
        11,
        lambda x, ns, labels, r: x.verify_size_bounds(r, labels, jobs=ns.jobs),
    ),
    "minimal-infinite": (
        8,
        lambda x, ns, labels, r: x.enumerate_minimal_infinite(
            x.EnumFilter(label_set=labels), r, jobs=ns.jobs
        ),
    ),
    "quasi-minimal": (
        11,
        lambda x, ns, labels, r: x.enumerate_quasi_minimal(
            x.EnumFilter(
                label_set=labels, all_proper_parabolics_spherical_or_affine=True
            ),
            r,
            jobs=ns.jobs,
        ),
    ),
}


def _cmd_verify(ns: argparse.Namespace) -> int:
    from . import experiments

    default_rank, run = _CAMPAIGNS[ns.campaign]
    max_rank = default_rank if ns.max_rank is None else ns.max_rank
    report = run(experiments, ns, _parse_labels(ns.labels), max_rank)

    payload = report.to_dict()
    claims = report.results.get("claims", [])
    lines = [f"campaign: {report.campaign}"]
    for c in claims:
        lines.append(f"  [{'pass' if c['passed'] else 'FAIL'}] {c['claim']}")
    if not claims:
        lines.append("  (no claims; enumeration only)")
    lines.append(f"content hash: {report.content_hash()}")
    _emit(payload, ns, lines)
    return 0 if report.passed() else 1


def _add_diagram_flags(p: argparse.ArgumentParser) -> None:
    src = p.add_mutually_exclusive_group(required=True)
    src.add_argument("--input", metavar="FILE", help="diagram file to read")
    src.add_argument(
        "--stdin", action="store_true", help="read the diagram from standard input"
    )
    p.add_argument("--format", choices=("text", "json"), default="text")


def _add_scope_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-rank", type=int, default=None)
    p.add_argument("--labels", default="2,3", help='CSV of labels, e.g. "2,3,4,inf"')
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="coxtools",
        description="Classify, test hyperbolicity of, and enumerate Coxeter diagrams.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    for name, fn, blurb in (
        ("classify", _cmd_classify, "classify the components of a diagram"),
        ("hyperbolic", _cmd_hyperbolic, "decide hyperbolicity, with a witness"),
        ("parabolics", _cmd_parabolics, "list minimal infinite parabolic subsets"),
        ("threshold", _cmd_threshold, "property (T) spectral-gap threshold"),
    ):
        p = sub.add_parser(name, help=blurb)
        _add_diagram_flags(p)
        p.set_defaults(fn=fn)

    p = sub.add_parser("enumerate", help="enumerate diagram classes up to a rank")
    p.add_argument("--max-rank", type=int, required=True)
    p.add_argument("--labels", default="2,3", help='CSV of labels, e.g. "2,3,4,inf"')
    p.add_argument("--simply-laced", action="store_true")
    p.add_argument("--crystallographic", action="store_true")
    p.add_argument("--k-spherical", type=int, default=None)
    p.add_argument(
        "--all-proper",
        action="store_true",
        help="keep only diagrams whose proper parabolics are spherical or affine",
    )
    p.add_argument("--allow-disconnected", action="store_true")
    p.add_argument("--jobs", type=int, default=1)
    p.add_argument("--format", choices=("text", "json"), default="text")
    p.set_defaults(fn=_cmd_enumerate)

    p = sub.add_parser("verify", help="run a verification campaign")
    p.add_argument("--campaign", choices=tuple(_CAMPAIGNS), required=True)
    p.add_argument(
        "--mode",
        choices=("simply-laced", "3-spherical-crystallographic"),
        default="simply-laced",
        help="hypothesis set for the affine-criterion campaign",
    )
    _add_scope_flags(p)
    p.set_defaults(fn=_cmd_verify)

    return parser


def main(argv: Optional[list[str]] = None) -> int:
    parser = build_parser()
    try:
        ns = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        code = ns.fn(ns)
        sys.stdout.flush()  # so a closed pipe shows here, not at exit
        return code
    except BrokenPipeError:
        # the reader closed stdout: point it at devnull so the interpreter's
        # final flush stays quiet, and exit as if killed by SIGPIPE
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        return 141
    except (OSError, ValueError) as exc:  # DiagramParseError is a ValueError
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:
        # a bug, which must not read as a failed claim; traceback is
        # imported here to keep it off the start-up path
        import traceback

        traceback.print_exc()
        print(f"internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
