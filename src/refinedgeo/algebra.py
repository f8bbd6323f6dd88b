"""Refined polytopes: finite unions of same-rank cells, with set operations.

A refined polytope of rank k is a finite union of refined cells whose
carriers all have dimension k; cells are grouped by canonical carrier.
Distinct k-dimensional carriers have disjoint refined spaces, so the set
operations only ever combine constraint lists of same-carrier cells:

  * union         concatenates the cell lists;
  * intersection  concatenates constraints of same-carrier cell pairs;
  * difference    expands the complement of a cell into prefix pieces
                  (the complements of its half-spaces partition seamlessly).

Equality and subset are semantic, via difference-emptiness, and the
closing/lift pair moves between refined polytopes and conventional weak
ones.  Everything is exact.  Emptiness is decided by ``cells``: plane
cells clip their parent's edge cycle, others ask ``fm`` about the strict
system.

Partitions of bounded plane figures are certified by boundary
cancellation, which clips no part: when the parts' counterclockwise boundary
edges minus the whole's cancel, the parts cover the whole once almost
everywhere, and a defect would be a refined cell of positive area
(``partition_failure`` gives the argument, after Guibas and Stolfi's
planar subdivisions and the paper's equivalence of the refined and the
conventional plane "in a sense").  Cycles with the same directed edges,
compared by exact vertex keys, cancel whole first; the other edges' ends
are keyed by exact encodings.  A value with two encodings only splits a
group that must then cancel part by part, so a missed match falls back to
the clipping checks, never to a wrong "holds".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cells import Cell, ClosedPiece, complement_halfspace, convex_area
from .errors import GeometryError
from .fm import LinIneq, affine_dim
from .linalg import Carrier, Vec, carrier_intersection, restrict_functional
from .resolution import RefinedPoint
from .scalars import Scalar, sign

__all__ = [
    "ConventionalPolytope",
    "RefinedPolytope",
    "area",
    "boundary_cancels",
    "closing",
    "contains_point",
    "difference",
    "disjoint",
    "equals",
    "intersect",
    "is_empty",
    "is_subset",
    "lift",
    "partition_certified",
    "partition_check",
    "partition_failure",
    "plane_cycles",
    "rank_drop_check",
    "union",
]


def _group_cells(cells: Sequence[Cell]) -> list[tuple[Carrier, list[Cell]]]:
    groups: list[tuple[Carrier, list[Cell]]] = []
    for cell in cells:
        for carrier, bucket in groups:
            if carrier == cell.carrier:
                bucket.append(cell)
                break
        else:
            groups.append((cell.carrier, [cell]))
    return groups


class RefinedPolytope:
    """Finite union of refined cells, all carriers of dimension ``rank``.

    Construction filters out empty cells, so an empty polytope is exactly
    one with no cells.  Cells may overlap; the representation is a plain
    union, not a partition.
    """

    __slots__ = ("rank", "cells", "ambient_dim")

    def __init__(self, rank: int, cells: Iterable[Cell] = ()):
        kept = []
        ambient: Optional[int] = None
        for cell in cells:
            if cell.carrier.dim != rank:
                raise GeometryError(
                    f"cell carrier has dimension {cell.carrier.dim}, expected rank {rank}"
                )
            if ambient is None:
                ambient = cell.carrier.ambient_dim
            elif cell.carrier.ambient_dim != ambient:
                raise GeometryError("cells live in different ambient spaces")
            if not cell.is_empty():
                kept.append(cell)
        grouped = _group_cells(kept)
        self.rank = rank
        self.cells = tuple(c for _, bucket in grouped for c in bucket)
        self.ambient_dim = ambient

    def groups(self) -> list[tuple[Carrier, list[Cell]]]:
        return _group_cells(self.cells)

    def contains(self, p: RefinedPoint) -> bool:
        if p.flag.dim != self.rank:
            raise GeometryError(
                f"flag dimension {p.flag.dim} does not match rank {self.rank}"
            )
        return any(cell.contains(p) for cell in self.cells)

    def translated(self, v: Vec) -> "RefinedPolytope":
        return RefinedPolytope(self.rank, [c.translated(v) for c in self.cells])

    def __repr__(self) -> str:
        return f"RefinedPolytope(rank={self.rank}, cells={len(self.cells)})"


class ConventionalPolytope:
    """Finite union of closed convex pieces with rank-k carriers."""

    __slots__ = ("rank", "pieces")

    def __init__(self, rank: int, pieces: Iterable[ClosedPiece] = ()):
        ps = tuple(pieces)
        for piece in ps:
            if piece.carrier.dim != rank:
                raise GeometryError(
                    f"piece carrier has dimension {piece.carrier.dim}, expected rank {rank}"
                )
        self.rank = rank
        self.pieces = ps

    def contains_position(self, x: Vec) -> bool:
        return any(piece.contains_position(x) for piece in self.pieces)

    def __repr__(self) -> str:
        return f"ConventionalPolytope(rank={self.rank}, pieces={len(self.pieces)})"


def _check_ranks(p: RefinedPolytope, q: RefinedPolytope) -> None:
    if p.rank != q.rank:
        raise GeometryError(f"rank mismatch: {p.rank} vs {q.rank}")


# -- boolean algebra -------------------------------------------------------------


def union(p: RefinedPolytope, q: RefinedPolytope) -> RefinedPolytope:
    _check_ranks(p, q)
    return RefinedPolytope(p.rank, list(p.cells) + list(q.cells))


def intersect(p: RefinedPolytope, q: RefinedPolytope) -> RefinedPolytope:
    """Cells on distinct carriers are disjoint; only same-carrier pairs meet."""
    _check_ranks(p, q)
    q_groups = q.groups()
    out: list[Cell] = []
    for carrier, p_cells in p.groups():
        for other, q_cells in q_groups:
            if carrier == other:
                for a in p_cells:
                    for b in q_cells:
                        out.append(a.with_extra(b.constraints))
                break
    return RefinedPolytope(p.rank, out)


def _subtract_cell(pieces: list[Cell], q: Cell) -> list[Cell]:
    """Intersect each piece with the complement of q (same carrier assumed).

    The complement of an intersection of refined half-spaces is expanded
    into prefix pieces: keep the first j-1 half-spaces, flip the j-th.
    The pieces are pairwise disjoint by construction; empties are pruned.
    The prefixes are built one constraint at a time, so that a plane piece
    clips each one from the last.
    """
    result: list[Cell] = []
    for r in pieces:
        prefixes = [r]
        for eta in q.constraints:
            prefixes.append(prefixes[-1].with_extra([eta]))
        # Pieces that miss q entirely survive whole; one emptiness test
        # here avoids fanning r out into len(q.constraints) fragments.
        if prefixes[-1].is_empty():
            result.append(r)
            continue
        for prefix, eta in zip(prefixes, q.constraints):
            cand = prefix.with_extra([complement_halfspace(eta)])
            if not cand.is_empty():
                result.append(cand)
    return result


def difference(p: RefinedPolytope, q: RefinedPolytope) -> RefinedPolytope:
    _check_ranks(p, q)
    q_groups = q.groups()
    out: list[Cell] = []
    for carrier, p_cells in p.groups():
        q_cells: list[Cell] = []
        for other, bucket in q_groups:
            if carrier == other:
                q_cells = bucket
                break
        pieces = list(p_cells)
        for qc in q_cells:
            pieces = _subtract_cell(pieces, qc)
            if not pieces:
                break
        out.extend(pieces)
    return RefinedPolytope(p.rank, out)


def contains_point(p: RefinedPolytope, point: RefinedPoint) -> bool:
    return p.contains(point)


def is_empty(p: RefinedPolytope) -> bool:
    return not p.cells


def is_subset(p: RefinedPolytope, q: RefinedPolytope) -> bool:
    return is_empty(difference(p, q))


def equals(p: RefinedPolytope, q: RefinedPolytope) -> bool:
    return is_subset(p, q) and is_subset(q, p)


def disjoint(p: RefinedPolytope, q: RefinedPolytope) -> bool:
    _check_ranks(p, q)
    return is_empty(intersect(p, q))


# -- closing and lift -------------------------------------------------------------


def closing(p: RefinedPolytope) -> ConventionalPolytope:
    """Union of cell closures.  Total: empty polytope closes to empty."""
    return ConventionalPolytope(p.rank, [cell.closure() for cell in p.cells])


def lift(conv: ConventionalPolytope) -> RefinedPolytope:
    """Replace each weak inequality by its refined half-space.

    Requires pure input: every piece must have full rank inside its
    carrier (equivalently, nonempty relative interior); otherwise the
    closing of the lift would lose the degenerate piece.  Full rank is
    exactly a nonempty lifted cell; the rank itself is only computed for
    the message when it is wrong.
    """
    cells = []
    npieces = len(conv.pieces)
    for idx, piece in enumerate(conv.pieces):
        kept = [xi for xi in piece.functionals if xi.is_regular]
        cell = Cell(piece.carrier, kept)
        if any(
            not xi.is_regular and sign(xi.constant) < 0 for xi in piece.functionals
        ):
            dim = -1
        elif not cell.is_empty():
            dim = piece.carrier.dim
        else:
            system = [LinIneq.from_functional(xi, strict=False) for xi in kept]
            dim = affine_dim(system, piece.carrier.dim)
        if dim != conv.rank:
            raise GeometryError(
                f"cannot lift: piece {idx + 1} of {npieces} has rank {dim}, "
                f"expected {conv.rank}"
            )
        cells.append(cell)
    return RefinedPolytope(conv.rank, cells)


# -- disjointness via closures ----------------------------------------------------


def _closed_intersection_rank(a: ClosedPiece, b: ClosedPiece) -> int:
    """Affine dimension of the intersection of two closed pieces (-1: empty)."""
    meet = carrier_intersection(a.carrier, b.carrier)
    if meet is None:
        return -1
    system: list[LinIneq] = []
    for piece in (a, b):
        for amb in piece.ambient_constraints():
            rho = restrict_functional(amb, meet)
            if rho.is_regular:
                system.append(LinIneq.from_functional(rho, strict=False))
            elif sign(rho.constant) < 0:
                return -1
    return affine_dim(system, meet.dim)


def rank_drop_check(p: RefinedPolytope, q: RefinedPolytope) -> bool:
    """True iff the closings intersect in rank < k (hence P, Q refined-disjoint)."""
    _check_ranks(p, q)
    best = -1
    for piece_p in closing(p).pieces:
        for piece_q in closing(q).pieces:
            best = max(best, _closed_intersection_rank(piece_p, piece_q))
            if best >= p.rank:
                return False
    return best < p.rank


# -- area ---------------------------------------------------------------------------


def area(p: RefinedPolytope) -> Scalar:
    """Exact area of the closing; additive over refined partitions."""
    if p.rank != 2:
        raise GeometryError("area is defined for rank-2 polytopes")
    if p.cells and p.ambient_dim != 2:
        raise GeometryError("area needs plane polytopes")
    total: Scalar = Fraction(0)
    seen = RefinedPolytope(2, [])
    for cell in p.cells:
        solo = RefinedPolytope(2, [cell])
        for fresh in difference(solo, seen).cells:
            piece = fresh.closure()
            if not piece.is_bounded():
                raise GeometryError("area of an unbounded polytope")
            total = total + convex_area(piece.vertex_positions())
        seen = union(seen, solo)
    return total


# -- partitions --------------------------------------------------------------------


def _exact_key(x: Scalar):
    """A dict key for an exact value: a Fraction itself, a QuadExt its
    encoding ``(den, sorted terms)``.  Equal keys are equal values; one
    value may have several encodings (sqrt2*sqrt3 and sqrt6), and then
    several keys."""
    return x if isinstance(x, Fraction) else (x.den, tuple(sorted(x.terms.items())))


def plane_cycles(p: RefinedPolytope) -> Optional[list[list[Vec]]]:
    """Each cell closure's vertices, counterclockwise; None unless p is a
    rank-2 plane polytope whose cells are all bounded."""
    if p.rank != 2 or (p.cells and p.ambient_dim != 2):
        return None
    out = []
    for cell in p.cells:
        piece = cell.closure()
        if not piece.is_bounded():
            return None
        out.append(piece.vertex_positions())
    return out


def boundary_cancels(signed_cycles: Iterable[tuple[int, Sequence[Vec]]]) -> bool:
    """True when the weighted counterclockwise boundaries of the cycles sum
    to the zero 1-chain; False may also mean that equal values got unequal
    keys.

    Whole cycles cancel first.  A cycle is keyed by the set of its directed
    edges, each a pair of exact vertex keys (x key, y key).  Equal keys are
    equal values, so two cycles with equal keys are sums of the same
    segments, have the same 1-chain, and their weights simply add; the
    chain is linear in the weights, so the verdict is the one the edge sum
    gives without grouping.  A set loses multiplicity, so a cycle that
    repeats a directed edge (a triangle traversed twice) is never grouped:
    its key would equal that of one copy.  Only such cycles and groups of
    nonzero total weight reach the edge sum (``_edges_cancel``)."""
    groups: dict = {}
    rest = []
    for weight, cycle in signed_cycles:
        keys = [(_exact_key(x), _exact_key(y)) for x, y in cycle]
        edges = frozenset(zip(keys, keys[1:] + keys[:1]))
        if len(edges) < len(keys):
            rest.append((weight, cycle, keys))
        elif edges in groups:
            groups[edges][0] += weight
        else:
            groups[edges] = [weight, cycle, keys]
    rest += [group for group in groups.values() if group[0]]
    return not rest or _edges_cancel(rest)


def _edges_cancel(weighted: Sequence) -> bool:
    """The edge sum of ``boundary_cancels`` over (weight, cycle, vertex
    keys) triples.

    An edge adds its weight at its start and subtracts it at its end, keyed
    by (supporting line, point on the line): a line by slope and intercept,
    or by x when vertical, and a point by x, or by y when vertical.  On one
    line these sums are the jumps of the oriented multiplicity along it,
    so they all vanish exactly when the chain does there.  Keys are exact
    encodings (``_exact_key``): a value with two encodings splits a group
    in two, and each part must then cancel on its own, which the true sum
    only makes harder.  So a missed match answers False, never a wrong
    True.  A point key is its vertex's x or y key, computed once."""
    chain: dict = {}
    for weight, cycle, keys in weighted:
        n = len(cycle)
        for i in range(n):
            j = (i + 1) % n
            a, b = cycle[i], cycle[j]
            dx = b[0] - a[0]
            if sign(dx) == 0:
                line, axis = (None, keys[i][0]), 1
            else:
                slope = (b[1] - a[1]) / dx
                line, axis = (_exact_key(slope), _exact_key(a[1] - slope * a[0])), 0
            sums = chain.get(line)
            if sums is None:
                sums = chain[line] = {}
            s, t = keys[i][axis], keys[j][axis]
            sums[s] = sums.get(s, 0) + weight
            sums[t] = sums.get(t, 0) - weight
    return not any(any(sums.values()) for sums in chain.values())


def partition_certified(parts: Sequence[RefinedPolytope], whole: RefinedPolytope) -> bool:
    """True when boundary cancellation proves that the parts partition the
    whole (the argument is in ``partition_failure``); False means only that
    it does not apply or does not decide.  Chains are compared first, since
    they need no clipping; the whole's cells are then checked for pairwise
    disjointness."""
    cycles = [plane_cycles(x) for x in parts]
    whole_cycles = plane_cycles(whole)
    if whole_cycles is None or any(c is None for c in cycles):
        return False
    signed = [(1, c) for cs in cycles for c in cs] + [(-1, c) for c in whole_cycles]
    if not boundary_cancels(signed):
        return False
    cells = whole.cells
    return all(
        cells[i].with_extra(cells[j].constraints).is_empty()
        for i in range(len(cells))
        for j in range(i + 1, len(cells))
    )


def partition_failure(
    parts: Sequence[RefinedPolytope], whole: RefinedPolytope
) -> Optional[tuple[str, Optional[RefinedPoint]]]:
    """None when the parts partition the whole; otherwise a reason and a
    refined-point witness of the failure.

    Boundary cancellation (``partition_certified``) is tried first.  It
    applies when every cell of the parts and of the whole is a bounded
    rank-2 cell in the plane; such a nonempty cell has a nonempty open
    interior.
      1. If the parts' counterclockwise boundary edges minus the whole's
         sum to the zero 1-chain, the sum of the part cells' interior
         indicators equals that of the whole's cells almost everywhere:
         their difference is a winding number, linear in the chain and 0
         far away.
      2. If also the whole's cells are pairwise disjoint, that sum is the
         indicator of the whole W, so the part cells are pairwise
         interior-disjoint and cover W up to measure 0.
      3. Lifts of interior-disjoint convex cells are refined-disjoint, and
         a nonempty rank-2 cell of an overlap, a spill or a gap would have
         positive area.  So the parts partition W in the refined sense.
      4. The chain needs no clipping (``boundary_cancels``): cycles with
         the same directed edges, by exact vertex keys, add their weights
         and drop out when these sum to 0; each edge of the rest adds its
         weight at its start and subtracts it at its end, keyed by exact
         supporting line and position, and every sum must be 0.
      5. The same argument without step 2 shows that two unions of such
         cells with equal chains are equal (``verify_decomposition``).
    The certificate only ever answers "holds".  Otherwise
    ``_partition_witness`` runs the checks.
    """
    return None if partition_certified(parts, whole) else _partition_witness(parts, whole)


def _partition_witness(
    parts: Sequence[RefinedPolytope], whole: RefinedPolytope
) -> Optional[tuple[str, Optional[RefinedPoint]]]:
    """``partition_failure`` without the certificate: the checks in order,
    each with a witness: pairwise overlap, spill outside the whole, cover."""
    for part in parts:
        _check_ranks(part, whole)
    for i in range(len(parts)):
        for j in range(i + 1, len(parts)):
            overlap = intersect(parts[i], parts[j])
            if overlap.cells:
                return (
                    f"parts {i + 1} and {j + 1} overlap",
                    overlap.cells[0].witness(),
                )
    total = RefinedPolytope(whole.rank, [])
    for part in parts:
        total = union(total, part)
    excess = difference(total, whole)
    if excess.cells:
        return ("parts spill outside the whole", excess.cells[0].witness())
    missing = difference(whole, total)
    if missing.cells:
        return ("parts do not cover the whole", missing.cells[0].witness())
    return None


def partition_check(
    parts: Sequence[RefinedPolytope], whole: RefinedPolytope
) -> bool:
    return partition_failure(parts, whole) is None
