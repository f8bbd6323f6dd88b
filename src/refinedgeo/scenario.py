"""Line-oriented scenario language for declaring figures and checking claims.

A scenario declares scalars, points, polygons (lifted to refined polytopes),
and angles, then asserts exact relations between them: set equality,
partitions, disjointness, area equality, angle equality and partitions.
Directives render figures to SVG or run the equidecomposition pipeline on
two declared polygons.

The grammar is deliberately plain so replay files read like the claims they
check.  Every diagnostic carries a line and column.  Example::

    point A = (0, 0)
    point B = (4, 0)
    polytope T = poly A B (0, 3)
    polytope S = intersect T (poly (0,0) (9,0) (9,1) (0,1))
    assert nonempty S
    assert partition [S, difference T S] T
"""

from __future__ import annotations

import os
from fractions import Fraction
from typing import Iterator, Optional, Sequence

from .algebra import (
    RefinedPolytope,
    difference,
    intersect,
    is_empty,
    partition_failure,
    union,
)
from .angles import (
    RefinedAngle,
    angle_equals,
    full_resolution,
    opposite,
    wedge_ccw,
)
from .equidecomp import area, equidecompose, polygon_lift
from .errors import GeometryError, ParseError
from .linalg import Vec

__all__ = [
    "ParseError",
    "Scenario",
    "ScenarioReport",
    "bundled_scenarios",
    "parse_scenario",
    "print_scenario",
    "run_scenario",
]


def bundled_scenarios() -> dict[str, str]:
    """Names and paths of the scenario files shipped with the package."""
    folder = os.path.join(os.path.dirname(__file__), "scenarios")
    out = {}
    for entry in sorted(os.listdir(folder)):
        if entry.endswith(".scn"):
            out[entry[: -len(".scn")]] = os.path.join(folder, entry)
    return out

_PUNCT = "()[],="


class _Token:
    __slots__ = ("text", "line", "col")

    def __init__(self, text: str, line: int, col: int):
        self.text = text
        self.line = line
        self.col = col


def _scan_line(text: str, line_no: int) -> list[_Token]:
    tokens: list[_Token] = []
    i = 0
    while i < len(text):
        ch = text[i]
        if ch == "#":
            break
        if ch.isspace():
            i += 1
            continue
        if ch in _PUNCT:
            tokens.append(_Token(ch, line_no, i + 1))
            i += 1
            continue
        start = i
        while i < len(text) and not text[i].isspace() and text[i] not in _PUNCT + "#":
            i += 1
        tokens.append(_Token(text[start:i], line_no, start + 1))
    return tokens


class _Cursor:
    def __init__(self, tokens: list[_Token], line_no: int):
        self.tokens = tokens
        self.pos = 0
        self.line = line_no

    def peek(self) -> Optional[_Token]:
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def next(self, what: str) -> _Token:
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1] if self.tokens else None
            col = (last.col + len(last.text)) if last else 1
            raise ParseError(f"expected {what}", self.line, col)
        self.pos += 1
        return tok

    def expect(self, text: str) -> _Token:
        tok = self.next(f"{text!r}")
        if tok.text != text:
            raise ParseError(f"expected {text!r}, found {tok.text!r}", tok.line, tok.col)
        return tok

    def done(self) -> None:
        tok = self.peek()
        if tok is not None:
            raise ParseError(f"unexpected {tok.text!r}", tok.line, tok.col)


def _parse_rational(tok: _Token) -> Fraction:
    try:
        return Fraction(tok.text)
    except (ValueError, ZeroDivisionError):
        raise ParseError(f"not a rational number: {tok.text!r}", tok.line, tok.col)


def _is_name(text: str) -> bool:
    return (text[0].isalpha() or text[0] == "_") and all(
        c.isalnum() or c == "_" for c in text
    )


class Scenario:
    """Parsed statement list; structural equality supports print round-trips."""

    def __init__(self, statements: Sequence[tuple]):
        self.statements = list(statements)

    def __eq__(self, other):
        if not isinstance(other, Scenario):
            return NotImplemented
        return self._normalized() == other._normalized()

    def _normalized(self) -> list[tuple]:
        # Source line numbers ride along for reporting only; reprinting a
        # scenario moves statements onto new lines without changing meaning.
        out = []
        for st in self.statements:
            if st[0] in ("assert", "render", "wbg"):
                out.append((st[0], 0) + st[2:])
            else:
                out.append(st)
        return out

    __hash__ = None  # type: ignore[assignment]

    def __repr__(self) -> str:
        return f"Scenario(statements={len(self.statements)})"


class _Parser:
    def __init__(self):
        self.scalars: set = set()
        self.points: set = set()
        self.polys: set = set()
        self.angles: set = set()
        self.statements: list[tuple] = []

    # -- shared pieces -------------------------------------------------------

    def declare(self, kind: str, tok: _Token) -> str:
        if not _is_name(tok.text):
            raise ParseError(f"invalid name {tok.text!r}", tok.line, tok.col)
        for pool in (self.scalars, self.points, self.polys, self.angles):
            if tok.text in pool:
                raise ParseError(f"name {tok.text!r} already declared", tok.line, tok.col)
        getattr(self, kind).add(tok.text)
        return tok.text

    def coord(self, cur: _Cursor):
        tok = cur.next("a coordinate")
        if _is_name(tok.text):
            if tok.text not in self.scalars:
                raise ParseError(f"unknown scalar {tok.text!r}", tok.line, tok.col)
            return ("ref", tok.text)
        return _parse_rational(tok)

    def point_lit(self, cur: _Cursor) -> tuple:
        cur.expect("(")
        x = self.coord(cur)
        cur.expect(",")
        y = self.coord(cur)
        cur.expect(")")
        return (x, y)

    def point_ref(self, cur: _Cursor) -> tuple:
        tok = cur.peek()
        if tok is not None and tok.text == "(":
            return ("lit", self.point_lit(cur))
        tok = cur.next("a point")
        if tok.text not in self.points:
            raise ParseError(f"unknown point {tok.text!r}", tok.line, tok.col)
        return ("name", tok.text)

    def poly_expr(self, cur: _Cursor) -> tuple:
        tok = cur.next("a polytope expression")
        if tok.text == "(":
            inner = self.poly_expr(cur)
            cur.expect(")")
            return inner
        if tok.text == "poly":
            pts = []
            while True:
                nxt = cur.peek()
                if nxt is None or nxt.text in (")", "]", ","):
                    break
                pts.append(self.point_ref(cur))
            if len(pts) < 3:
                raise ParseError("poly needs at least 3 vertices", tok.line, tok.col)
            return ("poly", tuple(pts))
        if tok.text in ("union", "intersect", "difference"):
            a = self.poly_expr(cur)
            b = self.poly_expr(cur)
            return (tok.text, a, b)
        if tok.text == "translate":
            a = self.poly_expr(cur)
            shift = self.point_lit(cur)
            return ("translate", a, shift)
        if tok.text in self.polys:
            return ("name", tok.text)
        raise ParseError(f"unknown polytope {tok.text!r}", tok.line, tok.col)

    def angle_expr(self, cur: _Cursor) -> tuple:
        tok = cur.next("an angle expression")
        if tok.text == "(":
            inner = self.angle_expr(cur)
            cur.expect(")")
            return inner
        if tok.text == "wedge":
            a = self.point_ref(cur)
            b = self.point_ref(cur)
            c = self.point_ref(cur)
            return ("wedge", a, b, c)
        if tok.text == "opposite":
            return ("opposite", self.angle_expr(cur))
        if tok.text == "full":
            return ("full",)
        if tok.text in self.angles:
            return ("name", tok.text)
        raise ParseError(f"unknown angle {tok.text!r}", tok.line, tok.col)

    def expr_list(self, cur: _Cursor, item) -> tuple:
        cur.expect("[")
        items = [item(cur)]
        while True:
            tok = cur.next("',' or ']'")
            if tok.text == "]":
                break
            if tok.text != ",":
                raise ParseError(f"expected ',' or ']', found {tok.text!r}", tok.line, tok.col)
            items.append(item(cur))
        return tuple(items)

    # -- statements ------------------------------------------------------------

    def statement(self, cur: _Cursor) -> None:
        head = cur.next("a statement")
        if head.text == "scalar":
            name = self.declare("scalars", cur.next("a name"))
            cur.expect("=")
            value = _parse_rational(cur.next("a rational"))
            self.statements.append(("scalar", name, value))
        elif head.text == "point":
            name = self.declare("points", cur.next("a name"))
            cur.expect("=")
            self.statements.append(("point", name, self.point_lit(cur)))
        elif head.text == "polytope":
            tok = cur.next("a name")
            cur.expect("=")
            expr = self.poly_expr(cur)
            self.declare("polys", tok)
            self.statements.append(("polytope", tok.text, expr))
        elif head.text == "angle":
            tok = cur.next("a name")
            cur.expect("=")
            expr = self.angle_expr(cur)
            self.declare("angles", tok)
            self.statements.append(("angle", tok.text, expr))
        elif head.text == "assert":
            self.assertion(cur)
        elif head.text == "render":
            target = cur.next("an output file").text
            names = []
            while cur.peek() is not None:
                names.append(self.poly_expr(cur))
            if not names:
                raise ParseError("render needs at least one figure", head.line, head.col)
            self.statements.append(("render", head.line, target, tuple(names)))
        elif head.text == "wbg":
            a = cur.next("a polygon name")
            b = cur.next("a polygon name")
            for tok in (a, b):
                if tok.text not in self.polys:
                    raise ParseError(f"unknown polytope {tok.text!r}", tok.line, tok.col)
            target = None
            if cur.peek() is not None:
                target = cur.next("an output file").text
            self.statements.append(("wbg", head.line, a.text, b.text, target))
        else:
            raise ParseError(f"unknown statement {head.text!r}", head.line, head.col)
        cur.done()

    def assertion(self, cur: _Cursor) -> None:
        kind = cur.next("an assertion kind")
        line = kind.line
        if kind.text in ("equals", "disjoint", "equal_area"):
            a = self.poly_expr(cur)
            b = self.poly_expr(cur)
            self.statements.append(("assert", line, kind.text, a, b))
        elif kind.text in ("empty", "nonempty"):
            self.statements.append(("assert", line, kind.text, self.poly_expr(cur)))
        elif kind.text == "partition":
            parts = self.expr_list(cur, self.poly_expr)
            whole = self.poly_expr(cur)
            self.statements.append(("assert", line, "partition", parts, whole))
        elif kind.text == "angle_equals":
            a = self.angle_expr(cur)
            b = self.angle_expr(cur)
            self.statements.append(("assert", line, "angle_equals", a, b))
        elif kind.text == "angle_partition":
            parts = self.expr_list(cur, self.angle_expr)
            whole = self.angle_expr(cur)
            self.statements.append(("assert", line, "angle_partition", parts, whole))
        else:
            raise ParseError(f"unknown assertion {kind.text!r}", kind.line, kind.col)


def parse_scenario(text: str) -> Scenario:
    """Parse and validate scenario text; all names must resolve."""
    parser = _Parser()
    for line_no, raw in enumerate(text.splitlines(), start=1):
        tokens = _scan_line(raw, line_no)
        if not tokens:
            continue
        parser.statement(_Cursor(tokens, line_no))
    return Scenario(parser.statements)


# -- printing ---------------------------------------------------------------------


def _print_coord(c) -> str:
    return c[1] if isinstance(c, tuple) else str(c)


def _print_point(pt: tuple) -> str:
    if pt[0] == "name":
        return pt[1]
    x, y = pt[1]
    return f"({_print_coord(x)}, {_print_coord(y)})"


def _print_poly(expr: tuple) -> str:
    head = expr[0]
    if head == "name":
        return expr[1]
    if head == "poly":
        return "poly " + " ".join(_print_point(p) for p in expr[1])
    if head == "translate":
        x, y = expr[2]
        return f"translate ({_print_poly(expr[1])}) ({_print_coord(x)}, {_print_coord(y)})"
    return f"{head} ({_print_poly(expr[1])}) ({_print_poly(expr[2])})"


def _print_angle(expr: tuple) -> str:
    head = expr[0]
    if head == "name":
        return expr[1]
    if head == "wedge":
        return "wedge " + " ".join(_print_point(p) for p in expr[1:])
    if head == "opposite":
        return f"opposite ({_print_angle(expr[1])})"
    return "full"


def print_scenario(s: Scenario) -> str:
    """Canonical text whose parse equals the scenario."""
    lines = []
    for st in s.statements:
        kind = st[0]
        if kind == "scalar":
            lines.append(f"scalar {st[1]} = {st[2]}")
        elif kind == "point":
            lines.append(f"point {st[1]} = {_print_point(('lit', st[2]))}")
        elif kind == "polytope":
            lines.append(f"polytope {st[1]} = {_print_poly(st[2])}")
        elif kind == "angle":
            lines.append(f"angle {st[1]} = {_print_angle(st[2])}")
        elif kind == "assert":
            lines.append("assert " + _print_assert(st))
        elif kind == "render":
            lines.append(
                f"render {st[2]} " + " ".join(_print_poly(e) for e in st[3])
            )
        elif kind == "wbg":
            tail = f" {st[4]}" if st[4] else ""
            lines.append(f"wbg {st[2]} {st[3]}{tail}")
    return "\n".join(lines) + ("\n" if lines else "")


def _print_assert(st: tuple) -> str:
    kind = st[2]
    if kind in ("equals", "disjoint", "equal_area"):
        return f"{kind} ({_print_poly(st[3])}) ({_print_poly(st[4])})"
    if kind in ("empty", "nonempty"):
        return f"{kind} ({_print_poly(st[3])})"
    if kind == "partition":
        inner = ", ".join(_print_poly(e) for e in st[3])
        return f"partition [{inner}] ({_print_poly(st[4])})"
    if kind == "angle_equals":
        return f"angle_equals ({_print_angle(st[3])}) ({_print_angle(st[4])})"
    inner = ", ".join(_print_angle(e) for e in st[3])
    return f"angle_partition [{inner}] ({_print_angle(st[4])})"


# -- running ---------------------------------------------------------------------


class ScenarioReport:
    """Pass/fail entries per assertion, with witnesses for failures."""

    def __init__(self):
        self.entries: list[tuple[int, str, bool, str]] = []

    def add(self, line: int, label: str, ok: bool, detail: str = "") -> None:
        self.entries.append((line, label, ok, detail))

    @property
    def all_passed(self) -> bool:
        return all(ok for _, _, ok, _ in self.entries)

    def __str__(self) -> str:
        out = []
        for line, label, ok, detail in self.entries:
            mark = "PASS" if ok else "FAIL"
            out.append(f"{mark} line {line}: {label}" + (f" ({detail})" if detail else ""))
        return "\n".join(out)


class _Runtime:
    def __init__(self, outdir: Optional[str]):
        self.scalars: dict = {}
        self.points: dict = {}
        self.polys: dict = {}
        self.cycles: dict = {}
        self.angles: dict = {}
        self.outdir = outdir

    def coord(self, c) -> Fraction:
        return self.scalars[c[1]] if isinstance(c, tuple) else c

    def vec2(self, pair: tuple) -> Vec:
        return Vec(self.coord(pair[0]), self.coord(pair[1]))

    def point(self, pt: tuple) -> Vec:
        if pt[0] == "lit":
            return self.vec2(pt[1])
        return self.points[pt[1]]

    def poly(self, expr: tuple) -> RefinedPolytope:
        head = expr[0]
        if head == "name":
            return self.polys[expr[1]]
        if head == "poly":
            return polygon_lift([self.point(p) for p in expr[1]])
        if head == "translate":
            return self.poly(expr[1]).translated(self.vec2(expr[2]))
        a, b = self.poly(expr[1]), self.poly(expr[2])
        ops = {"union": union, "intersect": intersect, "difference": difference}
        return ops[head](a, b)

    def angle(self, expr: tuple) -> RefinedAngle:
        head = expr[0]
        if head == "name":
            return self.angles[expr[1]]
        if head == "wedge":
            a, b, c = (self.point(p) for p in expr[1:])
            return wedge_ccw(a - b, c - b)
        if head == "opposite":
            return opposite(self.angle(expr[1]))
        return full_resolution(2)


def _resolve_path(target: str, outdir: Optional[str]) -> str:
    """A relative output path under outdir, made on demand; an absolute
    path, or any path without an outdir, as given."""
    if os.path.isabs(target) or outdir is None:
        return target
    os.makedirs(outdir, exist_ok=True)
    return os.path.join(outdir, target)


def _witness_str(witness) -> str:
    return "no witness" if witness is None else repr(witness)


def run_scenario(s: Scenario, outdir: Optional[str] = None) -> ScenarioReport:
    """Execute declarations, assertions, and directives in order.

    Assertion failures become report entries with exact witnesses; genuine
    errors (bad geometry in a declaration) raise GeometryError.  Relative
    render/decomposition paths resolve under outdir when given.
    """
    rt = _Runtime(outdir)
    report = ScenarioReport()
    for st in s.statements:
        kind = st[0]
        if kind == "scalar":
            rt.scalars[st[1]] = st[2]
        elif kind == "point":
            rt.points[st[1]] = rt.vec2(st[2])
        elif kind == "polytope":
            rt.polys[st[1]] = rt.poly(st[2])
            if st[2][0] == "poly":
                rt.cycles[st[1]] = [rt.point(p) for p in st[2][1]]
        elif kind == "angle":
            rt.angles[st[1]] = rt.angle(st[2])
        elif kind == "assert":
            _run_assert(st, rt, report)
        elif kind == "render":
            from .svg import render_svg

            figures = [rt.poly(e) for e in st[3]]
            render_svg(figures, _resolve_path(st[2], rt.outdir))
            report.add(st[1], f"render {st[2]}", True, f"{len(figures)} figure(s)")
        elif kind == "wbg":
            _run_wbg(st, rt, report)
    return report


def _run_assert(st: tuple, rt: _Runtime, report: ScenarioReport) -> None:
    line, kind = st[1], st[2]
    label = _print_assert(st)
    if kind == "equals":
        a, b = rt.poly(st[3]), rt.poly(st[4])
        extra = difference(a, b)
        if not extra.cells:
            extra = difference(b, a)
        ok = not extra.cells
        report.add(line, label, ok, "" if ok else _witness_str(extra.cells[0].witness()))
    elif kind == "disjoint":
        overlap = intersect(rt.poly(st[3]), rt.poly(st[4]))
        ok = not overlap.cells
        report.add(line, label, ok, "" if ok else _witness_str(overlap.cells[0].witness()))
    elif kind == "equal_area":
        x, y = area(rt.poly(st[3])), area(rt.poly(st[4]))
        ok = x == y
        report.add(line, label, ok, "" if ok else f"areas {x} vs {y}")
    elif kind == "empty":
        p = rt.poly(st[3])
        ok = is_empty(p)
        report.add(line, label, ok, "" if ok else _witness_str(p.cells[0].witness()))
    elif kind == "nonempty":
        p = rt.poly(st[3])
        report.add(line, label, not is_empty(p))
    elif kind == "partition":
        parts = [rt.poly(e) for e in st[3]]
        failure = partition_failure(parts, rt.poly(st[4]))
        ok = failure is None
        report.add(
            line, label, ok, "" if ok else f"{failure[0]}; {_witness_str(failure[1])}"
        )
    elif kind == "angle_equals":
        ok = angle_equals(rt.angle(st[3]), rt.angle(st[4]))
        report.add(line, label, ok)
    elif kind == "angle_partition":
        parts = [rt.angle(e).poly for e in st[3]]
        failure = partition_failure(parts, rt.angle(st[4]).poly)
        ok = failure is None
        report.add(
            line, label, ok, "" if ok else f"{failure[0]}; {_witness_str(failure[1])}"
        )


def _run_wbg(st: tuple, rt: _Runtime, report: ScenarioReport) -> None:
    line, name_a, name_b, target = st[1], st[2], st[3], st[4]
    for name in (name_a, name_b):
        if name not in rt.cycles:
            raise GeometryError(
                f"wbg needs polygons declared with poly vertex lists: {name}"
            )
    try:
        d = equidecompose(rt.cycles[name_a], rt.cycles[name_b])
    except GeometryError as exc:
        report.add(line, f"wbg {name_a} {name_b}", False, str(exc))
        return
    ok = d.report is not None and d.report.all_passed
    detail = f"{len(d)} piece(s)"
    if target is not None:
        from .svg import render_svg

        render_svg([d], _resolve_path(target, rt.outdir))
        detail += f", wrote {target}"
    report.add(line, f"wbg {name_a} {name_b}", ok, detail)
