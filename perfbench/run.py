"""refinedgeo benchmark: one workload, one seed, one process, one thread.

    python3 perfbench/run.py --workload wbg --seed 1 --seconds 40 --trace 0

A closed loop with one client runs the workload's ops back to back for
``--seconds`` seconds (at least one op), each under the workload's per-op
deadline, and checks every result.  Human-readable lines come first; the
last line of standard output is one JSON object with ``correct``,
``attempted``, ``failed`` and ``metrics``: the end-to-end metrics with
``--trace 0``, the per-layer metrics with ``--trace 1``.  The traced run
first times the ops untraced, then runs the same ops under the tracer, and
reports the difference as the tracing overhead.  See README.md.

Exit status: 0 when every op verified and the negative control was
rejected; 1 when an output check, the negative control or the span-tree
check misbehaved; 2 when the library cannot be found.
"""

import time

_T0 = time.perf_counter()

import argparse  # noqa: E402
import gc  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import signal  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
import tempfile  # noqa: E402
import traceback  # noqa: E402
from fractions import Fraction as F  # noqa: E402

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(HERE, "out")

# Seeds 1-10 were used while this benchmark was tuned.  This one is kept
# back for confirming a claimed gain: never use it while writing a change.
HELD_OUT_SEED = 7919

SETUP_REPEATS = 5
TAIL_LADDER = (99.9, 99.0, 95.0, 90.0, 75.0)

# Host speed probe: the reference work is timed between ops at most every
# REF_EVERY_S.  REF_NOMINAL_S is a fixed scale, about the probe's median on
# the 2-vCPU host the bounds were set on (CPython 3.11).
REF_EVERY_S = 0.25
REF_NOMINAL_S = 0.0012

# Per-layer metrics printed in the JSON line of the traced run; the same
# list as "per_layer" in BENCHMARK.json.  The traced run prints every
# layer metric in its table; layer times that are zero on some workload
# stay in the table only (see README.md).
PER_LAYER_JSON = [
    "scalars.sign.calls",
    "scalars.sign.self_s",
    "scalars.quadext.created",
    "scalars.adjoin_sqrt.calls",
    "linalg.carrier.calls",
    "linalg.restrict_functional.calls",
    "fm.feasible.calls",
    "fm.feasible.self_s",
    "fm.vertices.calls",
    "resolution.eval_refinement.calls",
    "resolution.flag.created",
    "cells.is_empty.calls",
    "cells.is_empty.self_s",
    "cells.is_empty.memo_hit_ratio",
    "cells.is_empty.empty_ratio",
    "cells.pruned.calls",
    "cells.pruned.drop_ratio",
    "cells.contains.calls",
    "algebra.intersect.calls",
    "algebra.difference.calls",
    "algebra.partition_failure.calls",
    "algebra.polytope.created",
    "algebra.polytope.cells_mean",
    "angles.tangent_angle.calls",
    "angles.contains.calls",
    "equidecomp.verify_share",
    "equidecomp.motion_apply.calls",
]


class DeadlineExceeded(BaseException):
    """Raised by the alarm inside an op that ran past its deadline.  A
    BaseException, so no ``except Exception`` in the library swallows it."""


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(fn, deadline_s: float):
    """Run one op; returns (status, info) with status one of
    ok, wrong, error, deadline."""
    try:
        signal.setitimer(signal.ITIMER_REAL, deadline_s)
        try:
            verified, info = fn()
        finally:
            signal.setitimer(signal.ITIMER_REAL, 0)
    except DeadlineExceeded:
        return "deadline", None
    except Exception:  # an op that raises counts as failed, not fatal
        return "error", traceback.format_exc()
    return ("ok" if verified else "wrong"), info


def reference_work() -> int:
    """Fixed pure-Python work (stdlib Fractions, small dicts) timed between
    ops as a speed probe.  It uses no refinedgeo code, so no library change
    moves it; only the host's speed does."""
    total = 0
    for i in range(1, 150):
        x = F(i, i + 7) * F(3, 2 * i + 1) + F(1, i)
        d = {"x": x, "i": i}
        total += x.numerator % 1009 + len(d)
    return total


def reference_s() -> float:
    """Median of three timings of the reference work, with the cyclic
    garbage collector paused so the library's heap cannot slow the probe."""
    was_enabled = gc.isenabled()
    gc.disable()
    try:
        times = []
        for _ in range(3):
            t0 = time.perf_counter()
            reference_work()
            times.append(time.perf_counter() - t0)
    finally:
        if was_enabled:
            gc.enable()
    return statistics.median(times)


def closed_loop(ops, seconds: float, deadline_s: float, limit=None, wrap=None):
    """Run ops in order, cycling, until ``seconds`` have passed (at least
    one op) or ``limit`` ops ran.

    Between ops, at most every REF_EVERY_S, the reference work is timed.
    An op's normalized latency is its wall latency times REF_NOMINAL_S over
    the mean of the probes just before and just after it.  Returns a Loop."""
    loop = Loop()
    probe_before = []
    probes = [reference_s()]
    last_probe = time.perf_counter()
    start = last_probe
    i = 0
    while True:
        if limit is not None:
            if i >= limit:
                break
        elif i and time.perf_counter() - start >= seconds:
            break
        if time.perf_counter() - last_probe >= REF_EVERY_S:
            probes.append(reference_s())
            last_probe = time.perf_counter()
        fn = ops[i % len(ops)]
        if wrap is not None:
            fn = wrap(i, fn)
        probe_before.append(len(probes) - 1)
        t0 = time.perf_counter()
        status, info = run_op(fn, deadline_s)
        loop.lat.append(time.perf_counter() - t0)
        loop.statuses.append(status)
        loop.infos.append(info)
        i += 1
    loop.wall = time.perf_counter() - start
    probes.append(reference_s())
    # The probe taken right after op i is the next one in the list.
    loop.norm = [
        x * REF_NOMINAL_S * 2 / (probes[j] + probes[j + 1])
        for x, j in zip(loop.lat, probe_before)
    ]
    loop.probes = probes
    return loop


class Loop:
    """What one closed loop measured; latencies in seconds."""

    def __init__(self):
        self.lat: list[float] = []
        self.norm: list[float] = []
        self.statuses: list[str] = []
        self.infos: list = []
        self.probes: list[float] = []
        self.wall = 0.0

    @property
    def ok(self) -> int:
        return self.statuses.count("ok")


def tail(latencies_ms):
    """(value, percentile, samples beyond) at the highest ladder percentile
    with at least ten samples beyond it, or None."""
    n = len(latencies_ms)
    ordered = sorted(latencies_ms)
    for p in TAIL_LADDER:
        rank = int(n * p / 100.0)
        beyond = n - rank - 1
        if beyond >= 10:
            return ordered[rank], p, beyond
    return None


def setup(workload, seed: int, workdir: str):
    """Build the workload SETUP_REPEATS times; returns the last ops and the
    median build time."""
    times = []
    ops = None
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        ops = workload.build(seed, workdir)
        times.append(time.perf_counter() - t0)
    return ops, statistics.median(times)


def per_layer_metrics(tracer):
    from tracing import COUNT, TARGETS

    counted = {group for group, _, _, kind in TARGETS if kind == COUNT}
    out = {}
    for group in tracer.groups[1:]:
        calls, self_s, _ = tracer.stat(group)
        if group in counted:
            out[group + ".created"] = calls
        else:
            out[group + ".calls"] = calls
            out[group + ".self_s"] = self_s
    r = tracer.ratios
    n_empty = r["is_empty_memo"] + r["is_empty_computed"]
    out["cells.is_empty.memo_hit_ratio"] = r["is_empty_memo"] / n_empty if n_empty else 0.0
    out["cells.is_empty.empty_ratio"] = (
        r["is_empty_true"] / r["is_empty_computed"] if r["is_empty_computed"] else 0.0
    )
    out["cells.pruned.drop_ratio"] = (
        r["pruned_dropped"] / r["pruned_in"] if r["pruned_in"] else 0.0
    )
    created = out["algebra.polytope.created"]
    out["algebra.polytope.cells_mean"] = r["polytope_cells"] / created if created else 0.0
    whole = tracer.stat("equidecomp.equidecompose")[2]
    verify = tracer.stat("equidecomp.verify_decomposition")[2]
    out["equidecomp.verify_share"] = verify / whole if whole else 0.0
    return out


def _unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith(("_ratio", "_share")):
        return "ratio"
    return "count"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="refinedgeo benchmark")
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")

    if not os.path.isfile(os.path.join(SRC, "refinedgeo", "__init__.py")):
        print(f"refinedgeo sources not found under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, SRC)
    import refinedgeo

    if os.path.dirname(os.path.abspath(refinedgeo.__file__)) != os.path.join(SRC, "refinedgeo"):
        print(f"imported refinedgeo from {refinedgeo.__file__}, not {SRC}", file=sys.stderr)
        return 2
    from workloads import WORKLOADS

    import_s = time.perf_counter() - _T0
    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    signal.signal(signal.SIGALRM, _on_alarm)

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload.name}-", dir=OUT)
    try:
        return _run(args, workload, workdir, import_s)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


def _run(args, workload, workdir: str, import_s: float) -> int:
    ops, build_s = setup(workload, args.seed, workdir)
    setup_s = import_s + build_s
    print(
        f"perfbench workload={workload.name} seed={args.seed} seconds={args.seconds:g} "
        f"trace={args.trace} ops_in_cycle={len(ops)} deadline_s={workload.deadline_s:g} "
        f"held_out_seed={HELD_OUT_SEED}"
    )
    if args.trace:
        # Untraced pass over a third of the budget, then the same ops traced.
        untraced = closed_loop(ops, args.seconds / 3, workload.deadline_s)
    else:
        loop = closed_loop(ops, args.seconds, workload.deadline_s)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    control_ok, control_detail = workload.negative_control(workdir)
    print(f"negative_control {'ok' if control_ok else 'MISBEHAVED'}: {control_detail}")

    problems: list[str] = []
    if args.trace:
        loop, problems, metrics = traced_pass(ops, workload, untraced)
    else:
        metrics = end_to_end_metrics(loop, setup_s, peak_rss_mb)
        print(f"setup_detail     import {import_s:.4f} s + median of {SETUP_REPEATS} builds {build_s:.4f} s")

    attempted = len(loop.statuses)
    counts = {s: loop.statuses.count(s) for s in ("wrong", "error", "deadline")}
    failed = attempted - loop.ok
    for i, (s, info) in enumerate(zip(loop.statuses, loop.infos)):
        if s != "ok":
            print(f"op {i} (input {i % len(ops)}) {s}" + (f": {info}" if s == "error" else ""))
    print(
        f"failed_ratio     {failed / attempted:.6g} ({failed}/{attempted}: wrong={counts['wrong']} "
        f"error={counts['error']} deadline={counts['deadline']})"
    )
    correct = not counts["wrong"] and not counts["error"] and control_ok and not problems
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    sys.stdout.flush()
    return 0 if correct else 1


def end_to_end_metrics(loop: Loop, setup_s: float, peak_rss_mb: float) -> dict:
    norm_ms = [x * 1000.0 for x in loop.norm]
    wall_ms = [x * 1000.0 for x in loop.lat]
    metrics = {
        "ops_per_s": {"value": loop.ok / sum(loop.norm), "unit": "1/s"},
        "op_p50_ms": {"value": statistics.median(norm_ms), "unit": "ms"},
        "setup_s": {"value": setup_s, "unit": "s"},
        "peak_rss_mb": {"value": peak_rss_mb, "unit": "MB"},
    }
    wall = {
        "ops_per_s": f"wall {loop.ok / loop.wall:.6g} 1/s",
        "op_p50_ms": f"wall {statistics.median(wall_ms):.6g} ms",
    }
    for name, m in metrics.items():
        extra = f"  ({wall[name]})" if name in wall else ""
        print(f"{name:16s} {m['value']:.6g} {m['unit']}{extra}")
    t = tail(norm_ms)
    if t is None:
        print(f"op_tail_ms       omitted ({len(norm_ms)} ops: no percentile of {TAIL_LADDER} has 10 samples beyond it)")
    else:
        print(
            f"op_tail_ms       {t[0]:.6g} ms (p{t[1]:g}, {t[2]} samples beyond, n={len(norm_ms)}; "
            f"wall {tail(wall_ms)[0]:.6g} ms)"
        )
    pieces = [info for s, info in zip(loop.statuses, loop.infos) if s == "ok" and info is not None]
    if pieces:
        print(f"pieces_per_pair  {statistics.mean(pieces):.6g} count (over {len(pieces)} pairs)")
    probes_ms = sorted(x * 1000.0 for x in loop.probes)
    print(
        f"host_speed       reference work median {statistics.median(probes_ms):.4g} ms "
        f"(min {probes_ms[0]:.4g}, max {probes_ms[-1]:.4g}, {len(probes_ms)} probes; "
        f"nominal {REF_NOMINAL_S * 1000:.4g} ms)"
    )
    return metrics


def traced_pass(ops, workload, untraced: Loop):
    """Run the untraced pass's ops again under the tracer; print the
    overhead, the span-tree check and the layer table."""
    from tracing import Tracer

    tracer = Tracer()
    tracer.install()
    walls: dict[int, int] = {}

    def wrap(i, fn):
        def traced():
            t0 = time.perf_counter_ns()
            try:
                return tracer.traced_op(i, fn)
            finally:
                walls[i] = time.perf_counter_ns() - t0

        return traced

    k = len(untraced.statuses)
    loop = closed_loop(ops, 0, workload.deadline_s, limit=k, wrap=wrap)
    problems = tracer.check_spans(walls)
    spans_path = os.path.join(OUT, f"spans-{workload.name}.bin")
    tracer.write(spans_path)
    traced_s, untraced_s = sum(loop.lat), sum(untraced.lat)
    print(
        f"tracing_overhead_s {traced_s - untraced_s:.4f} s (traced {traced_s:.3f} s - untraced "
        f"{untraced_s:.3f} s over the same {k} ops, x{traced_s / untraced_s:.2f})"
    )
    print(
        f"span_tree {'ok' if not problems else 'BROKEN'}: {len(tracer.span_group)} spans "
        f"over {k} ops written to {os.path.relpath(spans_path, ROOT)}"
    )
    for line in problems:
        print(f"  {line}")
    if untraced.ok != k:
        print(f"untraced pass: {k - untraced.ok} failed op(s)")
    layer = per_layer_metrics(tracer)
    for name in sorted(layer):
        print(f"{name:40s} {layer[name]:.6g} {_unit(name)}")
    return loop, problems, {name: {"value": layer[name], "unit": _unit(name)} for name in PER_LAYER_JSON}


if __name__ == "__main__":
    sys.exit(main())
