"""Benchmark workloads: seeded inputs, one op per unit of user work, and
the correctness gate and negative control of each workload.

Every input is generated from the seed in ``build``; ops look library
functions up on the ``refinedgeo`` modules at call time, so the traced run
sees the wrapped versions.  An op returns ``(verified, info)``; ``info`` is
a number the workload reports beside the metrics (matched pieces on
``wbg``) or None.
"""

from __future__ import annotations

import contextlib
import io
import math
import os
import random
from fractions import Fraction as F

import refinedgeo as rg
import refinedgeo.cli as rg_cli
from refinedgeo.equidecomp import ccw_order, shoelace_area
from refinedgeo.errors import GeometryError

# -- shared generators ------------------------------------------------------------


def _frac(rng: random.Random, lo: int, hi: int, den: int) -> F:
    return F(rng.randint(lo * den, hi * den), den)


def _cross(o, a, b):
    return (a[0] - o[0]) * (b[1] - o[1]) - (a[1] - o[1]) * (b[0] - o[0])


def _hull(points: list[tuple]) -> list[rg.Vec]:
    """Convex hull (monotone chain), counterclockwise, no collinear points."""
    pts = sorted(set(points))
    if len(pts) < 3:
        return []

    def half(seq):
        out = []
        for p in seq:
            while len(out) > 1 and _cross(out[-2], out[-1], p) <= 0:
                out.pop()
            out.append(p)
        return out

    lower = half(pts)
    upper = half(list(reversed(pts)))
    return [rg.Vec(x, y) for x, y in lower[:-1] + upper[:-1]]


# Primitive integer directions with angles in [0, pi), in angle order.
_DIRECTIONS = [
    (1, 0), (3, 1), (2, 1), (3, 2), (1, 1), (2, 3), (1, 2), (1, 3),
    (0, 1), (-1, 3), (-1, 2), (-2, 3), (-1, 1), (-3, 2), (-2, 1), (-3, 1),
]


def symmetric_polygon(rng: random.Random, n: int) -> list[rg.Vec]:
    """A strictly convex, centrally symmetric n-gon (n even) with integer
    vertices, counterclockwise: n/2 distinct seeded edge directions in angle
    order with lengths 1-2, then their negatives.  Coordinates stay small
    and of one size on every seed, so seeds vary the shape, not the cost of
    its arithmetic."""
    chosen = sorted(rng.sample(range(len(_DIRECTIONS)), n // 2))
    edges = [rg.Vec(*_DIRECTIONS[i]).scale(rng.randint(1, 2)) for i in chosen]
    edges += [-e for e in edges]
    half = edges[0]
    for e in edges[1 : n // 2]:
        half = half + e
    start = rg.Vec(rng.randint(-3, 3), rng.randint(-3, 3)) - half.scale(F(1, 2))
    start = rg.Vec(math.floor(start[0]), math.floor(start[1]))
    pts = [start]
    for e in edges[:-1]:
        pts.append(pts[-1] + e)
    return pts


def fan_centre(rng: random.Random, pts: list[rg.Vec]) -> rg.Vec:
    """A rational point strictly inside the convex polygon: the vertex mean
    nudged by a small seeded offset, kept only when every fan triangle
    turns counterclockwise."""
    n = len(pts)
    mean = rg.Vec(sum((p[0] for p in pts), F(0)) / n, sum((p[1] for p in pts), F(0)) / n)
    while True:
        c = mean + rg.Vec(_frac(rng, -1, 1, 4), _frac(rng, -1, 1, 4))
        if all(
            rg.sign(_cross(c, pts[i], pts[(i + 1) % n])) > 0 for i in range(n)
        ):
            return c


class Workload:
    """One set of inputs: ``build`` makes the ops, ``negative_control``
    feeds the same gate an input it must reject."""

    name = ""
    deadline_s = 60.0

    def build(self, seed: int, workdir: str) -> list:
        raise NotImplementedError

    def negative_control(self, workdir: str) -> tuple[bool, str]:
        raise NotImplementedError


# -- wbg --------------------------------------------------------------------------


def _wbg_polygon(rng: random.Random, kind: str, nv: int) -> list[rg.Vec]:
    """The acceptance generator's two shapes, with a fixed vertex count:
    convex hulls of integer points and star-shaped half-integer cycles."""
    while True:
        if kind == "hull":
            cycle = _hull(
                [(F(rng.randint(-4, 4)), F(rng.randint(-4, 4))) for _ in range(nv + 1)]
            )
            if len(cycle) != nv:
                continue
        else:
            raw = [rg.Vec(_frac(rng, -4, 4, 2), _frac(rng, -4, 4, 2)) for _ in range(nv)]
            try:
                cycle = ccw_order(raw)
            except GeometryError:
                continue
        try:
            rg.polygon_lift(cycle)
        except GeometryError:
            continue
        if rg.sign(abs(shoelace_area(cycle)) - 1) < 0:
            continue
        return cycle


def wbg_pairs(rng: random.Random, count: int) -> list[tuple[list, list]]:
    """Equal-area pairs: P as generated, Q stretched along x to P's area.

    Shapes alternate hull/star on each side and vertex counts alternate
    3/4, so every run sees the same mix and only coordinates vary."""
    pairs = []
    while len(pairs) < count:
        i = len(pairs)
        kinds = (("hull", "star"), ("star", "hull"))[i % 2]
        counts = ((3, 4), (4, 3))[(i // 2) % 2]
        a = _wbg_polygon(rng, kinds[0], counts[0])
        b = _wbg_polygon(rng, kinds[1], counts[1])
        ratio = abs(shoelace_area(a)) / abs(shoelace_area(b))
        if ratio < F(1, 2) or ratio > 2:
            continue
        b = [rg.Vec(v[0] * ratio, v[1]) for v in b]
        pairs.append((a, b))
    return pairs


def wbg_verified(d) -> bool:
    """The gate: the library's exact report passed and both sides hold the
    same nonzero number of pieces."""
    return (
        d.report is not None
        and d.report.all_passed
        and len(d.pieces_p) == len(d.pieces_q) == len(d.motions) > 0
    )


class Wbg(Workload):
    name = "wbg"
    deadline_s = 60.0

    def build(self, seed, workdir):
        rng = random.Random(seed)

        def op(a, b):
            d = rg.equidecompose(a, b, check=False)
            return wbg_verified(d), len(d)

        return [lambda a=a, b=b: op(a, b) for a, b in wbg_pairs(rng, 24)]

    def negative_control(self, workdir):
        tri = [rg.Vec(0, 0), rg.Vec(4, 0), rg.Vec(0, 2)]
        square = [rg.Vec(0, 0), rg.Vec(2, 0), rg.Vec(2, 2), rg.Vec(0, 2)]
        d = rg.equidecompose(tri, square, check=False)
        if not wbg_verified(d):
            return False, "the control pair itself failed to verify"
        wrong = rg.polygon_lift([v + rg.Vec(F(1, 2), 0) for v in square])
        d.report = rg.verify_decomposition(d, rg.polygon_lift(tri), wrong)
        if wbg_verified(d):
            return False, "a decomposition verified against a shifted target passed"
        fails = [label for label, ok, _ in d.report.entries if not ok]
        return True, f"verification against a shifted target reported FAIL: {fails[0]}"


# -- check ------------------------------------------------------------------------

FAN_SIDES = 10
GRID_K = 3
GENERATED_FILES = 8


def _pt(v) -> str:
    return f"({v[0]}, {v[1]})"


def generated_scenario(rng: random.Random, n: int, k: int) -> str:
    """Fan partition, grid partition, set and area assertions, an angle
    partition of the full angle at the fan centre, and one render."""
    pts = symmetric_polygon(rng, n)
    c = fan_centre(rng, pts)
    lines = [f"point C = {_pt(c)}"]
    lines += [f"point V{i} = {_pt(p)}" for i, p in enumerate(pts)]
    lines.append("polytope gon = poly " + " ".join(f"V{i}" for i in range(n)))
    for i in range(n):
        lines.append(f"polytope f{i} = poly C V{i} V{(i + 1) % n}")
    lines.append("assert partition [" + ", ".join(f"f{i}" for i in range(n)) + "] gon")
    lines.append("assert equals (union f0 f1) (poly C V0 V1 V2)")
    lines.append("assert disjoint f0 f1")
    for i in range(n):
        lines.append(f"angle a{i} = wedge V{i} C V{(i + 1) % n}")
    lines.append("assert angle_partition [" + ", ".join(f"a{i}" for i in range(n)) + "] full")

    ox, oy = _frac(rng, 20, 30, 3), _frac(rng, -5, 5, 3)
    w, h = _frac(rng, 3, 9, 2), _frac(rng, 3, 9, 2)
    cells = []
    for i in range(k):
        for j in range(k):
            x0, x1 = ox + w * i / k, ox + w * (i + 1) / k
            y0, y1 = oy + h * j / k, oy + h * (j + 1) / k
            name = f"g{i}_{j}"
            cells.append(name)
            lines.append(
                f"polytope {name} = poly ({x0}, {y0}) ({x1}, {y0}) ({x1}, {y1}) ({x0}, {y1})"
            )
    lines.append(
        f"polytope rect = poly ({ox}, {oy}) ({ox + w}, {oy}) ({ox + w}, {oy + h}) ({ox}, {oy + h})"
    )
    lines.append("assert partition [" + ", ".join(cells) + "] rect")
    lines.append(f"assert equal_area g0_0 g{k - 1}_{k - 1}")
    lines.append("render fan.svg gon rect")
    return "\n".join(lines) + "\n"


def expected_entries(text: str) -> int:
    """Report lines a passing run prints: one per assert/render/wbg line."""
    count = 0
    for raw in text.splitlines():
        words = raw.split("#", 1)[0].split()
        if words and words[0] in ("assert", "render", "wbg"):
            count += 1
    return count


def run_check(path: str, outdir: str) -> tuple[int, str]:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        status = rg_cli.main(["check", path, "--outdir", outdir])
    return status, out.getvalue()


def check_passed(status: int, output: str, expected: int) -> bool:
    marks = [line.split(" ", 1)[0] for line in output.splitlines() if line]
    return status == 0 and marks.count("PASS") == expected and "FAIL" not in marks


class Check(Workload):
    name = "check"
    deadline_s = 30.0

    def build(self, seed, workdir):
        rng = random.Random(seed)
        outdir = os.path.join(workdir, "render")
        files = []
        for j in range(GENERATED_FILES):
            text = generated_scenario(rng, FAN_SIDES, GRID_K)
            path = os.path.join(workdir, f"gen{j}.scn")
            with open(path, "w") as fh:
                fh.write(text)
            files.append((path, expected_entries(text)))
        for path in rg.bundled_scenarios().values():
            with open(path) as fh:
                files.append((path, expected_entries(fh.read())))

        def op(path, expected):
            status, output = run_check(path, outdir)
            return check_passed(status, output, expected), None

        return [lambda p=p, e=e: op(p, e) for p, e in files]

    def negative_control(self, workdir):
        rng = random.Random(0)
        text = generated_scenario(rng, 4, 2) + "assert partition [f0, f1] gon\n"
        path = os.path.join(workdir, "false_partition.scn")
        with open(path, "w") as fh:
            fh.write(text)
        status, output = run_check(path, os.path.join(workdir, "render"))
        if check_passed(status, output, expected_entries(text)):
            return False, "a false partition passed the gate"
        fails = [line for line in output.splitlines() if line.startswith("FAIL")]
        if status != 1 or len(fails) != 1 or "RefinedPoint(" not in fails[0]:
            return False, f"expected exit 1 and one FAIL with a witness, got exit {status}: {fails}"
        return True, "false partition exited 1 with a witness: " + fails[0][:80]


# -- locate -----------------------------------------------------------------------

LOCATE_SIDES = 10
LOCATE_POINTS = 1024


def _random_flag(rng: random.Random) -> rg.Flag:
    while True:
        u = rg.Vec(_frac(rng, -6, 6, 3), _frac(rng, -6, 6, 3))
        v = rg.Vec(_frac(rng, -6, 6, 3), _frac(rng, -6, 6, 3))
        if rg.sign(u[0] * v[1] - u[1] * v[0]) != 0:
            return rg.Flag([u, v])


def biased_points(rng: random.Random, pts: list, c, count: int) -> list:
    """Refined points concentrated on the fan's vertices and edges (outer
    edges and spokes), a few just outside, half with edge-aligned flags."""
    n = len(pts)
    positions = [c]
    edges = []
    for i, v in enumerate(pts):
        nxt = pts[(i + 1) % n]
        positions.append(v)
        positions.append((v + nxt).scale(F(1, 2)))
        positions.append(v + (nxt - v).scale(F(rng.randint(1, 7), 8)))
        positions.append(c + (v - c).scale(F(rng.randint(1, 7), 8)))
        positions.append(v + (v - c).scale(F(1, 3)))  # just outside
        edges += [nxt - v, v - c]
    out = []
    while len(out) < count:
        pos = positions[rng.randrange(len(positions))]
        if rng.random() < 0.25:
            other = positions[rng.randrange(len(positions))]
            pos = pos + (other - pos).scale(F(rng.randint(0, 8), 8))
        if rng.random() < 0.5:
            e = edges[rng.randrange(len(edges))].scale(F(rng.choice((-1, 1))))
            perp = rg.Vec(-e[1], e[0]).scale(F(rng.choice((-1, 1))))
            flag = rg.Flag([e, perp])
        else:
            flag = _random_flag(rng)
        out.append(rg.RefinedPoint(pos, flag))
    return out


def locate_verified(pieces: list, whole, rp) -> bool:
    """The gate: exactly one owner when the whole holds the point, none
    otherwise, and the owner's membership factors through its tangent angle."""
    owners = [piece for piece in pieces if rg.contains_point(piece, rp)]
    if not rg.contains_point(whole, rp):
        return not owners
    if len(owners) != 1:
        return False
    angle = rg.tangent_angle(owners[0], rp.position)
    return not angle.outside_domain and rg.angle_contains(angle, rp.flag)


def fan(pts: list, c) -> list:
    n = len(pts)
    return [rg.polygon_lift([c, pts[i], pts[(i + 1) % n]]) for i in range(n)]


class Locate(Workload):
    name = "locate"
    deadline_s = 5.0

    def build(self, seed, workdir):
        rng = random.Random(seed)
        pts = symmetric_polygon(rng, LOCATE_SIDES)
        c = fan_centre(rng, pts)
        pieces = fan(pts, c)
        whole = rg.polygon_lift(pts)
        if rg.area(whole) != sum((rg.area(p) for p in pieces), F(0)):
            raise GeometryError("fan areas do not add up to the whole")
        samples = biased_points(rng, pts, c, LOCATE_POINTS)

        def op(rp):
            return locate_verified(pieces, whole, rp), None

        return [lambda rp=rp: op(rp) for rp in samples]

    def negative_control(self, workdir):
        rng = random.Random(0)
        pts = symmetric_polygon(rng, 6)
        c = fan_centre(rng, pts)
        pieces = fan(pts, c)
        overlapping = pieces + [rg.polygon_lift([c, pts[0], pts[2]])]
        inside = (c + pts[0] + pts[1]).scale(F(1, 3))
        rp = rg.RefinedPoint(inside, rg.Flag([rg.Vec(1, 0), rg.Vec(0, 1)]))
        owners = sum(1 for piece in overlapping if rg.contains_point(piece, rp))
        if not locate_verified(pieces, rg.polygon_lift(pts), rp):
            return False, "the control point failed on the true partition"
        if owners != 2 or locate_verified(overlapping, rg.polygon_lift(pts), rp):
            return False, f"overlapping pieces gave {owners} owner(s) and passed the gate"
        return True, "overlapping pieces produced a double owner and failed the gate"


# -- tower ------------------------------------------------------------------------


def tower_constants():
    """cos(pi/8) = sqrt(2+sqrt2)/2 in Q(sqrt2)(sqrt(2+sqrt2)), and sin(pi/8)
    written as sqrt(2-sqrt2)/2, a radical the library cannot denest."""
    cos8 = rg.adjoin_sqrt(2 + rg.adjoin_sqrt(2)) / 2
    sin8 = rg.adjoin_sqrt(2 - rg.adjoin_sqrt(2)) / 2
    return cos8, sin8


def tower_polygon(rng: random.Random, nv: int, cos8) -> list:
    while True:
        raw = [
            rg.Vec(
                _frac(rng, -2, 2, 2) + rng.randint(-1, 1) * cos8,
                _frac(rng, -2, 2, 2) + rng.randint(-1, 1) * cos8,
            )
            for _ in range(nv)
        ]
        try:
            cycle = ccw_order(raw)
            rg.polygon_lift(cycle)
        except GeometryError:
            continue
        return cycle


def rotated_square(cos8, sin8) -> list:
    """The unit square about the origin rotated by pi/8."""
    return [
        rg.Vec(cos8 * x - sin8 * y, sin8 * x + cos8 * y)
        for x, y in ((1, 1), (-1, 1), (-1, -1), (1, -1))
    ]


def tower_verified(a_cycle, b_cycle) -> bool:
    """The gate: A∩B and A∖B partition A, and their union equals A."""
    a = rg.polygon_lift(a_cycle)
    b = rg.polygon_lift(b_cycle)
    inter = rg.intersect(a, b)
    diff = rg.difference(a, b)
    return rg.partition_failure([inter, diff], a) is None and rg.equals(
        rg.union(inter, diff), a
    )


class Tower(Workload):
    name = "tower"
    deadline_s = 5.0

    def build(self, seed, workdir):
        rng = random.Random(seed)
        cos8, sin8 = tower_constants()
        pairs = [(rotated_square(cos8, sin8), rotated_square(cos8, sin8))]
        for i in range(24):
            a = tower_polygon(rng, 3 + i % 3, cos8)
            shift = rg.Vec(_frac(rng, -2, 2, 4), _frac(rng, -2, 2, 4))
            b = [v + shift for v in tower_polygon(rng, 3 + (i + 1) % 3, cos8)]
            pairs.append((a, b))

        def op(a, b):
            return tower_verified(a, b), None

        return [lambda a=a, b=b: op(a, b) for a, b in pairs]

    def negative_control(self, workdir):
        cos8, _ = tower_constants()
        a = rg.polygon_lift([rg.Vec(0, 0), rg.Vec(2 * cos8, 0), rg.Vec(0, 2)])
        b = rg.polygon_lift([rg.Vec(0, 0), rg.Vec(cos8, 0), rg.Vec(0, 2)])
        failure = rg.partition_failure([b], a)
        if failure is None:
            return False, "a part missing half the whole passed as a partition"
        return True, f"partial cover rejected: {failure[0]}"


WORKLOADS = {w.name: w for w in (Wbg(), Check(), Locate(), Tower())}
