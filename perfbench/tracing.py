"""Span tracer for the traced benchmark run.

The tracer wraps named public functions and methods of ``refinedgeo`` in
place: every module namespace that binds the original function object gets
the wrapper (so ``cells.feasible`` is caught as well as ``fm.feasible``),
and methods are replaced on their class.  Each wrapped call adds to its
group's call count, inclusive time and self time (span time minus the time
of wrapped calls made inside it).

Spans (group, start, end, parent span, op id) are kept in flat arrays in
memory and written out when the run ends.  Groups marked as leaves (the
scalar ``sign``, the most frequent call) and pure counters (object
creation) still take part in the time accounting but store no span, which
keeps memory to 28 bytes per stored span.
"""

from __future__ import annotations

import json
import sys
from array import array
from time import perf_counter_ns

SPAN = "span"  # timed, one stored span per call
LEAF = "leaf"  # timed, no stored span
COUNT = "count"  # counted only (object creation)

# (group, module, attribute path, kind).  Several targets may share a group.
TARGETS = [
    ("scalars.sign", "scalars", "sign", LEAF),
    ("scalars.adjoin_sqrt", "scalars", "adjoin_sqrt", SPAN),
    ("scalars.quadext", "scalars", "QuadExt.__init__", COUNT),
    ("linalg.carrier", "linalg", "Carrier.contains_point", SPAN),
    ("linalg.carrier", "linalg", "Carrier.contains_direction", SPAN),
    ("linalg.carrier", "linalg", "Carrier.coords_of_point", SPAN),
    ("linalg.carrier", "linalg", "Carrier.coords_of_direction", SPAN),
    ("linalg.restrict_functional", "linalg", "restrict_functional", SPAN),
    ("fm.feasible", "fm", "feasible", SPAN),
    ("fm.vertices", "fm", "vertices", SPAN),
    ("fm.sample_point", "fm", "sample_point", SPAN),
    ("resolution.eval_refinement", "resolution", "eval_refinement", SPAN),
    ("resolution.flag", "resolution", "Flag.__init__", COUNT),
    ("cells.is_empty", "cells", "Cell.is_empty", SPAN),
    ("cells.pruned", "cells", "Cell.pruned", SPAN),
    ("cells.contains", "cells", "Cell.contains", SPAN),
    ("algebra.intersect", "algebra", "intersect", SPAN),
    ("algebra.difference", "algebra", "difference", SPAN),
    ("algebra.partition_failure", "algebra", "partition_failure", SPAN),
    ("algebra.polytope", "algebra", "RefinedPolytope.__init__", COUNT),
    ("angles.tangent_angle", "angles", "tangent_angle", SPAN),
    ("angles.contains", "angles", "RefinedAngle.contains", SPAN),
    ("angles.algebra", "angles", "angle_union", SPAN),
    ("angles.algebra", "angles", "angle_intersect", SPAN),
    ("angles.algebra", "angles", "angle_difference", SPAN),
    ("angles.algebra", "angles", "angle_equals", SPAN),
    ("angles.algebra", "angles", "angle_is_subset", SPAN),
    ("angles.algebra", "angles", "wedge_ccw", SPAN),
    ("equidecomp.equidecompose", "equidecomp", "equidecompose", SPAN),
    ("equidecomp.verify_decomposition", "equidecomp", "verify_decomposition", SPAN),
    ("equidecomp.motion_apply", "equidecomp", "Motion.apply_polytope", SPAN),
    ("equidecomp.motion_apply", "equidecomp", "Motion.apply_cell", SPAN),
    ("equidecomp.polygon_lift", "equidecomp", "polygon_lift", SPAN),
    ("equidecomp.area", "equidecomp", "area", SPAN),
    ("scenario.parse", "scenario", "parse_scenario", SPAN),
    ("scenario.run", "scenario", "run_scenario", SPAN),
    ("cli.main", "cli", "main", SPAN),
    ("svg.render_svg", "svg", "render_svg", SPAN),
]

OP_GROUP = "op"


class Tracer:
    def __init__(self):
        self.groups: list[str] = [OP_GROUP]
        self.calls = [0]
        self.self_ns = [0]
        self.total_ns = [0]  # outermost calls only, so recursion is not double counted
        self._depth = [0]
        self.ratios = {
            "is_empty_memo": 0,
            "is_empty_computed": 0,
            "is_empty_true": 0,
            "pruned_in": 0,
            "pruned_dropped": 0,
            "polytope_cells": 0,
        }
        self.span_group = array("i")
        self.span_parent = array("i")
        self.span_op = array("i")
        self.span_start = array("q")
        self.span_end = array("q")
        # Frames: [nearest stored span id (or -1), child time in ns].
        self._stack: list[list[int]] = []
        self.op = -1

    # -- bookkeeping ---------------------------------------------------------

    def _group_id(self, name: str) -> int:
        if name in self.groups:
            return self.groups.index(name)
        self.groups.append(name)
        self.calls.append(0)
        self.self_ns.append(0)
        self.total_ns.append(0)
        self._depth.append(0)
        return len(self.groups) - 1

    def _timed(self, fn, gid: int, store: bool, post=None):
        calls, self_ns, total_ns, depth = self.calls, self.self_ns, self.total_ns, self._depth
        stack = self._stack
        sg, sp, so = self.span_group, self.span_parent, self.span_op
        ss, se = self.span_start, self.span_end
        tracer = self

        def wrapper(*args, **kwargs):
            parent = stack[-1][0] if stack else -1
            if store:
                sid = len(sg)
                sg.append(gid)
                sp.append(parent)
                so.append(tracer.op)
                ss.append(0)
                se.append(0)
                frame = [sid, 0]
            else:
                frame = [parent, 0]
            stack.append(frame)
            depth[gid] += 1
            t0 = perf_counter_ns()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = perf_counter_ns()
                stack.pop()
                depth[gid] -= 1
                dur = t1 - t0
                calls[gid] += 1
                self_ns[gid] += dur - frame[1]
                if not depth[gid]:
                    total_ns[gid] += dur
                if stack:
                    stack[-1][1] += dur
                if store:
                    ss[sid] = t0
                    se[sid] = t1
            if post is not None:
                post(args, result)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _counted(self, fn, gid: int, post=None):
        calls = self.calls

        def wrapper(*args, **kwargs):
            calls[gid] += 1
            fn(*args, **kwargs)
            if post is not None:
                post(args)

        wrapper.__wrapped__ = fn
        return wrapper

    # -- installation ----------------------------------------------------------

    def _hooks(self):
        """Per-target extras: (wrapper of the original, post-call observer)."""
        r = self.ratios

        def count_empty(fn):
            def hooked(cell):
                if cell._empty is not None:
                    r["is_empty_memo"] += 1
                    return fn(cell)
                result = fn(cell)
                r["is_empty_computed"] += 1
                if result:
                    r["is_empty_true"] += 1
                return result

            return hooked

        def pruned_post(args, result):
            n_in = len(args[0].constraints)
            r["pruned_in"] += n_in
            r["pruned_dropped"] += n_in - len(result.constraints)

        def polytope_post(args):
            r["polytope_cells"] += len(args[0].cells)

        return {
            "Cell.is_empty": (count_empty, None),
            "Cell.pruned": (None, pruned_post),
            "RefinedPolytope.__init__": (None, polytope_post),
        }

    def install(self) -> None:
        """Wrap every target in every ``refinedgeo`` module that binds it."""
        hooks = self._hooks()
        modules = [
            m
            for name, m in sorted(sys.modules.items())
            if m is not None and (name == "refinedgeo" or name.startswith("refinedgeo."))
        ]
        for group, module_name, path, kind in TARGETS:
            gid = self._group_id(group)
            module = sys.modules["refinedgeo." + module_name]
            inner_wrap, post = hooks.get(path, (None, None))
            if "." in path:
                cls_name, meth = path.split(".")
                owner = getattr(module, cls_name)
                fn = owner.__dict__[meth]
            else:
                owner = None
                fn = getattr(module, path)
            inner = fn if inner_wrap is None else inner_wrap(fn)
            if kind == COUNT:
                wrapped = self._counted(inner, gid, post)
            else:
                wrapped = self._timed(inner, gid, kind == SPAN, post)
            if owner is not None:
                setattr(owner, meth, wrapped)
                continue
            for m in modules:
                for key, value in list(vars(m).items()):
                    if value is fn:
                        setattr(m, key, wrapped)

    # -- ops -------------------------------------------------------------------

    def traced_op(self, op_id: int, fn):
        """Run ``fn`` as op ``op_id`` inside an op span."""
        self.op = op_id
        try:
            return self._timed(fn, 0, True)()
        finally:
            self.op = -1
            # A deadline alarm landing inside a wrapper's own bookkeeping
            # can leave frames behind; the next op starts from a clean stack.
            self._stack.clear()
            self._depth[:] = [0] * len(self._depth)

    # -- results ----------------------------------------------------------------

    def stat(self, group: str):
        """(calls, self seconds, inclusive seconds) of one group."""
        i = self.groups.index(group)
        return self.calls[i], self.self_ns[i] / 1e9, self.total_ns[i] / 1e9

    def check_spans(self, op_walls_ns: dict[int, int]) -> list[str]:
        """Structural checks on the stored span tree; returns the violations.

        * every span ends after it starts and lies inside its parent;
        * every self time (duration minus stored children) is >= 0;
        * the self times of one op's library spans sum to no more than that
          op's wall time as the runner measured it.
        """
        n = len(self.span_group)
        child_ns = [0] * n
        problems: list[str] = []
        ss, se, sp = self.span_start, self.span_end, self.span_parent
        for i in range(n):
            if se[i] < ss[i]:
                problems.append(f"span {i} ends before it starts")
            p = sp[i]
            if p >= 0:
                if ss[i] < ss[p] or se[i] > se[p]:
                    problems.append(f"span {i} lies outside its parent {p}")
                child_ns[p] += se[i] - ss[i]
        per_op: dict[int, int] = {}
        for i in range(n):
            own = se[i] - ss[i] - child_ns[i]
            if own < 0:
                problems.append(f"span {i} has negative self time {own} ns")
            if self.span_group[i] != 0:
                op = self.span_op[i]
                per_op[op] = per_op.get(op, 0) + own
        for op, total in per_op.items():
            wall = op_walls_ns.get(op)
            if wall is None:
                problems.append(f"spans carry unknown op id {op}")
            elif total > wall:
                problems.append(f"op {op}: span self times {total} ns exceed wall {wall} ns")
        return problems[:20]

    def write(self, path: str) -> None:
        """Spans as a JSON header line followed by the raw arrays in native
        byte order."""
        header = {
            "groups": self.groups,
            "spans": len(self.span_group),
            "arrays": ["group:i", "parent:i", "op:i", "start_ns:q", "end_ns:q"],
        }
        with open(path, "wb") as fh:
            fh.write((json.dumps(header) + "\n").encode())
            for arr in (self.span_group, self.span_parent, self.span_op, self.span_start, self.span_end):
                arr.tofile(fh)
