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
ones.  Everything is exact.  Emptiness is decided by ``cells``: a plane
cell knows it from its edge cycle, clipped when the cell is made, others
ask ``fm`` about the strict system.

Partitions of plane figures, bounded or not, are certified by boundary
cancellation, which clips no part: when the parts' boundary chains minus
the whole's cancel on the oriented projective plane, the parts cover the
whole once almost everywhere, and a defect would be a refined cell of
positive area (``partition_failure`` gives the argument, after Stolfi,
Guibas and Stolfi, and the paper's equivalence of the refined and the
conventional plane "in a sense").  Each cell keys its boundary from its
integer edge cycle (``Cell.keyed_boundary``).  A value with two encodings
only splits a sum that must then vanish part by part, so a missed match
falls back to the clipping checks, never to a wrong "holds".
"""

from __future__ import annotations

from fractions import Fraction
from typing import Iterable, Optional, Sequence

from .cells import Cell, ClosedPiece, _shoelace, complement_halfspace
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
            total = total + _shoelace(piece.vertex_positions())
        seen = union(seen, solo)
    return total


# -- partitions --------------------------------------------------------------------


def _plane(p: RefinedPolytope) -> bool:
    return p.rank == 2 and (not p.cells or p.ambient_dim == 2)


def boundary_cancels(weighted: Iterable[tuple[int, Cell]]) -> bool:
    """True when the weighted boundary chains of nonempty plane cells sum to
    0 on the oriented projective plane; False may also mean that equal
    values got unequal keys.

    Cells are grouped by their vertices' keys (``Cell.keyed_boundary``).  A
    cell's cycle repeats no vertex, since clipping (Sutherland-Hodgman)
    keeps a vertex on the line once and crosses only at strict sign
    changes, and its closure is their conic hull: cells with equal sets
    have equal chains, and their weights add.  The chain is linear in the
    weights, so only groups of nonzero total weight reach the edge sum
    (``_edges_cancel``)."""
    groups: dict = {}
    for weight, cell in weighted:
        group = groups.setdefault(frozenset(cell.keyed_boundary()[0]), [0, cell])
        group[0] += weight
    rest = [group for group in groups.values() if group[0]]
    return not rest or _edges_cancel(rest)


def _edges_cancel(weighted: Sequence[tuple[int, Cell]]) -> bool:
    """The edge sum over (weight, cell) pairs: each jump of a cell's chain
    (``Cell.boundary_jumps``) adds its sign times the weight at its (line,
    point) key, and every sum must be 0 (``partition_failure``, steps 4 and
    5).  A value with two encodings splits a sum in two, each part of which
    must then vanish: a missed match answers False, never a wrong True."""
    chain: dict = {}
    for weight, cell in weighted:
        for line, point, s in cell.boundary_jumps():
            chain[line, point] = chain.get((line, point), 0) + s * weight
    return not any(chain.values())


def partition_certified(parts: Sequence[RefinedPolytope], whole: RefinedPolytope) -> bool:
    """True when boundary cancellation proves that the parts partition the
    whole (the argument is in ``partition_failure``); False means only that
    it does not apply or does not decide.  Chains are compared first, since
    they need no clipping; the whole's cells are then checked for pairwise
    disjointness."""
    weighted = [(1, c) for x in parts for c in x.cells] + [(-1, c) for c in whole.cells]
    if not (all(map(_plane, (whole, *parts))) and boundary_cancels(weighted)):
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
    applies to rank-2 plane polytopes, bounded or not.  Close every cell on
    the oriented projective plane (Stolfi, 1991), the sphere whose open
    front hemisphere is the affine plane and whose great circle W = 0 is
    the line at infinity.
      1. Every closure is a convex spherical polygon in the closed front
         hemisphere, bounded by its counterclockwise edge cycle, and a
         nonempty cell has a nonempty open interior.
      2. If the parts' boundary chains minus the whole's sum to 0, the
         weighted sum of the cells' interior indicators is a 2-cycle on the
         sphere (Guibas and Stolfi, ACM TOG 1985), so it is constant almost
         everywhere.  It is 0 on the back hemisphere, so it is 0.
      3. If also the whole's cells are pairwise disjoint, the part cells
         are pairwise interior-disjoint and cover the whole W up to measure
         0.  Lifts of interior-disjoint convex cells are refined-disjoint,
         and a nonempty rank-2 cell of an overlap, a spill or a gap would
         have positive area.  So the parts partition W.
      4. The chain needs no clipping (``boundary_cancels``).  Each edge
         adds its weight at its start and subtracts it at its end, keyed
         by exact unoriented line and point: the jumps of the multiplicity
         along the line.  A finite line's edges lie in the front half of
         its great circle, so vanishing jumps mean a zero chain there.
      5. The line at infinity is a whole circle.  Vanishing jumps leave a
         constant multiplicity there, and the weights of the arcs over the
         direction just counterclockwise of (1, 0) pin it to 0.
    Without step 3's disjointness, two unions of such cells with equal
    chains are equal (``verify_decomposition``).
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
