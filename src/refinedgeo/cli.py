"""Command line front end.

Subcommands:

* ``check``    run a scenario file (or a bundled scenario by name) and report
  each assertion; exit status 0 only when everything passes.
* ``op``       evaluate a polytope expression given on the command line and
  optionally render it.
* ``wbg``      cut two equal-area polygons into congruent pieces, verify the
  result exactly, and optionally emit an SVG and a decomposition listing.
* ``selftest`` seeded randomized spot checks of the core guarantees.

Relative output paths resolve under ``REFINEDGEO_OUTDIR`` when that variable
is set.
"""

from __future__ import annotations

import argparse
import os
import random
import sys
from fractions import Fraction
from typing import Optional, Sequence

from .algebra import is_empty, partition_check
from .equidecomp import (
    Decomposition,
    area,
    ccw_order,
    equidecompose,
    polygon_lift,
)
from .errors import GeometryError
from .linalg import AffineFunctional, Carrier, Vec
from .resolution import eval_refinement, lex_positive, sample_refined_point
from .scalars import scalar_str
from .scenario import (
    ParseError,
    _Cursor,
    _Parser,
    _resolve_path,
    _scan_line,
    bundled_scenarios,
    parse_scenario,
    run_scenario,
)

__all__ = ["main"]

_OUTDIR_VAR = "REFINEDGEO_OUTDIR"


def _outdir(explicit: Optional[str]) -> Optional[str]:
    return explicit if explicit is not None else os.environ.get(_OUTDIR_VAR)


def _parse_poly_expr(text: str):
    parser = _Parser()
    cur = _Cursor(_scan_line(text, 1), 1)
    expr = parser.poly_expr(cur)
    cur.done()
    return expr


def _parse_vertex_list(text: str) -> list[Vec]:
    parser = _Parser()
    cur = _Cursor(_scan_line(text, 1), 1)
    points = []
    while cur.peek() is not None:
        points.append(Vec(*parser.point_lit(cur)))
    if len(points) < 3:
        raise ParseError("a polygon needs at least 3 vertices", 1, 1)
    return points


def _cell_cycle_text(cell) -> str:
    points = ccw_order(cell.closure().vertex_positions())
    return " ".join(f"{scalar_str(p[0])} {scalar_str(p[1])}" for p in points)


def write_decomposition(d: Decomposition, path: str) -> None:
    """Plain-text listing of the pieces and motions, all coordinates exact."""
    lines = ["refinedgeo-decomposition 1", f"pieces {len(d)}"]
    for i in range(len(d)):
        lines.append(f"piece {i}")
        for cell in d.pieces_p[i].cells:
            lines.append("source-cell " + _cell_cycle_text(cell))
        for cell in d.pieces_q[i].cells:
            lines.append("target-cell " + _cell_cycle_text(cell))
        (a, b), (c, e) = d.motions[i].rotation
        t = d.motions[i].translation
        lines.append(
            "motion "
            + " ".join(scalar_str(v) for v in (a, b, c, e, t[0], t[1]))
        )
    with open(path, "w") as fh:
        fh.write("\n".join(lines) + "\n")


# -- subcommands --------------------------------------------------------------


def _cmd_check(args) -> int:
    target = args.scenario
    if not os.path.exists(target):
        target = bundled_scenarios().get(args.scenario, target)
    try:
        with open(target) as fh:
            text = fh.read()
    except OSError as exc:
        print(f"cannot read scenario: {exc}", file=sys.stderr)
        return 2
    try:
        scenario = parse_scenario(text)
    except ParseError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return 2
    try:
        report = run_scenario(scenario, outdir=_outdir(args.outdir))
    except GeometryError as exc:
        print(f"{args.scenario}: {exc}", file=sys.stderr)
        return 2
    print(report)
    return 0 if report.all_passed else 1


def _cmd_op(args) -> int:
    try:
        expr = _parse_poly_expr(args.expr)
    except ParseError as exc:
        print(f"expression: {exc}", file=sys.stderr)
        return 2
    from .scenario import _Runtime

    try:
        result = _Runtime(None).poly(expr)
    except GeometryError as exc:
        print(f"expression: {exc}", file=sys.stderr)
        return 2
    print(f"cells: {len(result.cells)}")
    print(f"empty: {'yes' if is_empty(result) else 'no'}")
    try:
        print(f"area: {scalar_str(area(result))}")
    except GeometryError:
        print("area: unbounded")
    if args.emit:
        from .svg import render_svg

        path = _resolve_path(args.emit, _outdir(args.outdir))
        render_svg([result], path)
        print(f"wrote {path}")
    return 0


def _cmd_wbg(args) -> int:
    try:
        poly_a = _parse_vertex_list(args.source)
        poly_b = _parse_vertex_list(args.target)
    except ParseError as exc:
        print(f"polygon: {exc}", file=sys.stderr)
        return 2
    try:
        d = equidecompose(poly_a, poly_b, check=False)
    except GeometryError as exc:
        print(f"FAIL {exc}")
        return 1
    print(f"pieces: {len(d)}")
    print(d.report)
    outdir = _outdir(args.outdir)
    if args.emit:
        from .svg import render_svg

        path = _resolve_path(args.emit, outdir)
        render_svg([d], path)
        print(f"wrote {path}")
    if args.emit_decomp:
        path = _resolve_path(args.emit_decomp, outdir)
        write_decomposition(d, path)
        print(f"wrote {path}")
    return 0 if d.report is not None and d.report.all_passed else 1


def _plane_functional(rng: random.Random) -> AffineFunctional:
    while True:
        a = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        b = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        c = Fraction(rng.randint(-9, 9), rng.randint(1, 5))
        if a != 0 or b != 0 or c != 0:
            return AffineFunctional((a, b), c)


def _cmd_selftest(args) -> int:
    rng = random.Random(args.seed)
    plane = Carrier(Vec(0, 0), [Vec(1, 0), Vec(0, 1)])
    failures = 0

    for i in range(args.iters):
        xi = _plane_functional(rng)
        p = sample_refined_point(plane, rng.randrange(1 << 30))
        seq = eval_refinement(xi, p)
        neg = tuple(-s for s in seq)
        if lex_positive(seq) == lex_positive(neg):
            failures += 1
    print(f"{'FAIL' if failures else 'PASS'} sign dichotomy: {args.iters} functional/point pairs")

    bad_partitions = 0
    for i in range(args.iters):
        while True:
            pts = [
                Vec(Fraction(rng.randint(-8, 8)), Fraction(rng.randint(-8, 8)))
                for _ in range(3)
            ]
            try:
                whole = polygon_lift(pts)
                break
            except GeometryError:
                continue
        centroid = (pts[0] + pts[1] + pts[2]).scale(Fraction(1, 3))
        pieces = [
            polygon_lift([pts[0], pts[1], centroid]),
            polygon_lift([pts[1], pts[2], centroid]),
            polygon_lift([pts[2], pts[0], centroid]),
        ]
        if not partition_check(pieces, whole):
            bad_partitions += 1
    print(f"{'FAIL' if bad_partitions else 'PASS'} seamless cevian partitions: {args.iters} triangles")
    failures += bad_partitions

    square = [Vec(0, 0), Vec(1, 0), Vec(1, 1), Vec(0, 1)]
    rect = [Vec(0, 0), Vec(2, 0), Vec(2, Fraction(1, 2)), Vec(0, Fraction(1, 2))]
    d = equidecompose(square, rect, check=False)
    ok = d.report is not None and d.report.all_passed
    print(f"{'PASS' if ok else 'FAIL'} square to rectangle decomposition: {len(d)} piece(s)")
    failures += 0 if ok else 1

    return 0 if failures == 0 else 1


def main(argv: Optional[Sequence[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="refinedgeo",
        description="Exact refined-geometry checks: seamless partitions, "
        "angle bookkeeping, and equidecomposition.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_check = sub.add_parser("check", help="run a scenario file")
    p_check.add_argument("scenario", help="path to a .scn file, or a bundled name")
    p_check.add_argument("--outdir", help="directory for rendered output")
    p_check.set_defaults(func=_cmd_check)

    p_op = sub.add_parser("op", help="evaluate a polytope expression")
    p_op.add_argument("expr", help="expression, e.g. 'difference (poly (0,0) (4,0) (0,3)) (poly (0,0) (2,0) (0,2))'")
    p_op.add_argument("--emit", help="write an SVG rendering")
    p_op.add_argument("--outdir", help="directory for rendered output")
    p_op.set_defaults(func=_cmd_op)

    p_wbg = sub.add_parser("wbg", help="equidecompose two equal-area polygons")
    p_wbg.add_argument("source", help="vertex list, e.g. '(0,0) (1,0) (1,1) (0,1)'")
    p_wbg.add_argument("target", help="vertex list of the same area")
    p_wbg.add_argument("--emit", help="write an SVG of both dissections")
    p_wbg.add_argument("--emit-decomp", help="write a plain-text piece listing")
    p_wbg.add_argument("--outdir", help="directory for emitted files")
    p_wbg.set_defaults(func=_cmd_wbg)

    p_self = sub.add_parser("selftest", help="seeded randomized spot checks")
    p_self.add_argument("--seed", type=int, default=0)
    p_self.add_argument("--iters", type=int, default=25)
    p_self.set_defaults(func=_cmd_selftest)

    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    raise SystemExit(main())
