#!/usr/bin/env python3
"""layersep benchmark: wall time to a certified artifact.

Run from the root of a checkout:

    python3 perfbench/run.py --workload certify --seed 3 --seconds 30 --trace 0

It imports ``layersep`` from the checkout's ``src`` directory, builds the
workload's inputs from the seed, and repeats passes over them until
``--seconds`` have elapsed.  A pass certifies every input: each artifact is
built, formatted, parsed back and verified (see ``harness.py``).  The last
line of standard output is one JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With ``--trace 0`` the metrics are the end-to-end ones of BENCHMARK.json,
with ``--trace 1`` the per-layer ones, taken from spans recorded around
every library call; the traced run alternates untraced and traced passes to
report the tracing overhead.  Details (digests, failures, spans, self
times, the compute_recursion scaling table) go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import math
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5

# End-to-end time metrics: (artifact the graph must produce, or None for
# any graph; segments of its chain that the metric adds up).
SEGMENT_METRICS = {
    "decompose_s": ("decomposition", ("in", "dec_build", "dec_check")),
    "tracks_s": ("tracks", ("in", "rec", "tl", "tracks_build", "tracks_check")),
    "queues_s": ("queues", ("in", "rec", "tl", "q_build", "q_check")),
    "nonrep_s": ("nonrep", ("in", "rec", "nr_build", "nr_check")),
    "draw3d_s": ("draw3d", ("in", "rec", "tl", "dr_build", "dr_check")),
    "shadow_s": ("shadow", ("sh_in", "sh_build", "sh_check")),
    "verify_s": (None, ("dec_check", "tracks_check", "q_check", "nr_check", "dr_check",
                        "sh_check")),
    "reject_s": (None, ("reject",)),
}

# Per-layer time metrics: the spans they add up.
SPAN_METRICS = {
    "embedding.embed_planar_s": ("embedding.embed_planar",),
    "decomposition.genus_layered_decomposition_s": ("decomposition.genus_layered_decomposition",),
    "decomposition.validate_tree_decomposition_s": ("decomposition.validate_tree_decomposition",),
    "decomposition.layered_separation_s": ("decomposition.layered_separation",),
    "layouts.compute_recursion_s": ("layouts.compute_recursion",),
    "layouts.track_layout_from_compute_s": ("layouts.track_layout_from_compute",),
    "layouts.verify_track_layout_s": ("layouts.verify_track_layout",),
    "layouts.queue_from_tracks_s": ("layouts.queue_from_tracks",),
    "layouts.verify_queue_layout_s": ("layouts.verify_queue_layout",),
    "nonrep.layer_pattern_colouring_s": ("nonrep.layer_pattern_colouring",),
    "nonrep.verify_nonrepetitive_s": ("nonrep.verify_nonrepetitive",),
    "nonrep.verify_proper_s": ("nonrep.verify_proper",),
    "nonrep.nonrep_from_compute_s": ("nonrep.nonrep_from_compute",),
    "shadow.rich_shadow_layering_s": ("shadow.rich_shadow_layering",),
    "shadow.recursive_track_driver_s": ("shadow.recursive_track_driver",),
    "shadow.recursive_nonrep_driver_s": ("shadow.recursive_nonrep_driver",),
    "shadow.verify_shadow_complete_s": ("shadow.verify_shadow_complete",),
    "drawing3d.draw_from_tracks_s": ("drawing3d.draw_from_tracks",),
    "drawing3d.verify_drawing_s": ("drawing3d.verify_drawing",),
    "graphs.validate_s": ("graphs.validate_layering", "graphs.validate_separation"),
    "cli.main_s": ("cli.main",),
}

# Per-layer counts read from the results: (count key, how graphs combine).
# segment_pairs is m(m-1)/2, computed rather than counted by the library.
COUNT_METRICS = {
    "decomposition.bag_entries": ("bag_entries", sum),
    "decomposition.apex_q": ("apex_q", sum),
    "decomposition.layers": ("layers", max),
    "decomposition.layered_width": ("layered_width", max),
    "layouts.recursion_nodes": ("recursion_nodes", sum),
    "layouts.recursion_depth": ("recursion_depth", max),
    "layouts.tracks": ("tracks", sum),
    "layouts.queues": ("queues", sum),
    "nonrep.symbols": ("symbols", max),
    "nonrep.palette": ("palette", sum),
    "nonrep.max_path": ("max_path", max),
    "shadow.tracks": ("shadow_tracks", sum),
    "shadow.palette": ("shadow_palette", sum),
    "drawing3d.volume": ("volume", sum),
    "drawing3d.segment_pairs": ("segment_pairs", sum),
}


def _load_harness():
    """Import the library from this checkout's ``src``, never from elsewhere."""
    sys.path[:0] = [str(SRC), str(HERE)]
    try:
        import layersep
    except ImportError as exc:
        sys.exit(f"perfbench: cannot import layersep from {SRC}: {exc}")
    if SRC.resolve() not in Path(layersep.__file__).resolve().parents:
        sys.exit(f"perfbench: layersep imported from {layersep.__file__}, not from {SRC}")
    import harness

    return harness


def measure_setup(args, h, cal: list[float]) -> float:
    """Median wall time of fresh processes that start the interpreter, import
    layersep, build and format the inputs and warm networkx up."""
    cmd = [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
           "--workload", args.workload, "--seed", str(args.seed)] + ["--tiny"] * args.tiny
    times = []
    for _ in range(SETUP_REPEATS):
        cal.append(h.calibrate())
        t0 = time.perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.DEVNULL,
                              stderr=subprocess.PIPE, text=True, timeout=120)
        times.append(time.perf_counter() - t0)
        if proc.returncode != 0:
            sys.exit(f"perfbench: setup probe failed: {proc.stderr.strip()}")
    return statistics.median(times)


def _per_graph(samples, value) -> float:
    """Sum over graphs of the median over the graph's samples."""
    return sum(statistics.median(value(r) for r in rs) for rs in samples.values() if rs)


def _span_totals(spans) -> dict[str, float]:
    out: dict[str, float] = {}
    for name, t0, t1, _, _ in spans:
        out[name] = out.get(name, 0.0) + (t1 - t0)
    return out


def _self_times(spans) -> dict[str, float]:
    """Per span name: duration minus the time of its child spans."""
    child = [0.0] * len(spans)
    for name, t0, t1, parent, _ in spans:
        if parent is not None:
            child[parent] += t1 - t0
    out: dict[str, float] = {}
    for i, (name, t0, t1, _, _) in enumerate(spans):
        out[name] = out.get(name, 0.0) + (t1 - t0) - child[i]
    return out


def _slope(points: list[tuple[int, float]]) -> float:
    """Least-squares slope of log(time) against log(n)."""
    xs = [math.log(n) for n, _ in points]
    ys = [math.log(t) for _, t in points]
    mx, my = statistics.fmean(xs), statistics.fmean(ys)
    den = sum((x - mx) ** 2 for x in xs)
    return sum((x - mx) * (y - my) for x, y in zip(xs, ys)) / den if den else 0.0


def _count(first: dict, key: str, combine) -> float:
    vals = [r.counts[key] for r in first.values() if key in r.counts]
    return combine(vals) if vals else 0


def run(args, h) -> dict:
    cal: list[float] = []
    setup_s = measure_setup(args, h, cal)
    inputs = h.make_inputs(args.workload, args.seed, tiny=args.tiny)
    h.warm_up()
    workdir = OUT / f"cli-{args.workload}-{args.seed}"
    mains = [inp for inp in inputs if not inp.probe]
    probes = [inp for inp in inputs if inp.probe]
    every = math.ceil(len(mains) / h.PROBES_PER_PASS)
    schedule = [x for i, inp in enumerate(mains)
                for x in ([inp, *probes] if i % every == every - 1 else [inp])]

    plain = {inp.gid: [] for inp in inputs}   # untraced samples per graph
    traced = {inp.gid: [] for inp in inputs}  # traced samples per graph
    walls: dict[bool, list[float]] = {False: [], True: []}
    start = last_cal = time.perf_counter()
    passes = 0
    while passes < (4 if args.trace else 2) or time.perf_counter() - start < args.seconds:
        with_spans = bool(args.trace) and passes % 2 == 1
        t0 = time.perf_counter()
        for inp in schedule:
            if time.perf_counter() - last_cal >= h.CALIBRATE_EVERY_S:
                cal.append(h.calibrate())
                last_cal = time.perf_counter()
            tr = h.Tracer() if with_spans else h.NoTracer()
            (traced if with_spans else plain)[inp.gid].append(h.certify(inp, tr, workdir))
        walls[with_spans].append(time.perf_counter() - t0)
        passes += 1

    # determinism: every sample of a graph must give byte-identical artifacts
    for inp in inputs:
        rs = plain[inp.gid] + traced[inp.gid]
        for r in rs[1:]:
            for kind, digest in r.digests.items():
                if rs[0].digests.get(kind) != digest:
                    r.fail(f"{kind}.determinism", "artifact text differs from the first sample")
    everything = [(gid, r) for d in (plain, traced) for gid, rs in d.items() for r in rs]
    attempted = sum(r.attempted for _, r in everything)
    failures = [(gid, *f) for gid, r in everything for f in r.failures]
    correct = not any(not known for *_, known in failures)
    first = {inp.gid: plain[inp.gid][0] for inp in inputs}
    artifacts = {inp.gid: inp.artifacts for inp in inputs}

    if args.trace:
        totals = {gid: [_span_totals(r.spans) for r in rs] for gid, rs in traced.items()}
        metrics = {}
        for name, span_names in SPAN_METRICS.items():
            metrics[name] = (_per_graph(totals, lambda t: sum(t.get(s, 0.0) for s in span_names)),
                             "s")
        metrics["graphs.parse_s"] = (_per_graph(totals, lambda t: sum(
            v for k, v in t.items() if k.split(".")[-1].startswith("parse_"))), "s")
        for name, (key, combine) in COUNT_METRICS.items():
            unit = "computed" if key == "segment_pairs" else "count"
            metrics[name] = (_count(first, key, combine), unit)
        # scaling of the recursion over the graphs of the workload's first
        # family, the probe's one included
        rec_table = [(inp.gid, inp.n, statistics.median(
            t.get("layouts.compute_recursion", 0.0) for t in totals[inp.gid]))
            for inp in inputs if inp.kind == mains[0].kind]
        rec_table = [row for row in rec_table if row[2] > 0]
        slope = _slope([(n, t) for _, n, t in rec_table])
        metrics["layouts.compute_recursion_exponent"] = (slope, "slope")
        overhead = statistics.median(walls[True]) - statistics.median(walls[False])
        metrics["trace.overhead_s"] = (overhead, "s")
        self_times: dict[str, float] = {}
        for gid, rs in traced.items():
            per = [_self_times(r.spans) for r in rs]
            for k in set().union(*per):
                self_times[k] = self_times.get(k, 0.0) + statistics.median(d.get(k, 0.0) for d in per)
        detail = {
            "tracing_overhead_s": overhead,
            "untraced_pass_s": walls[False],
            "traced_pass_s": walls[True],
            "self_time_s": dict(sorted(self_times.items(), key=lambda kv: -kv[1])),
            "compute_recursion": {"table": [{"graph": g, "n": n, "seconds": t}
                                            for g, n, t in rec_table], "log_log_slope": slope},
            "spans": [{"graph": gid, "sample": k, "spans": [
                {"name": s[0], "start": s[1], "end": s[2], "parent": s[3], "graph": s[4]}
                for s in r.spans]} for gid, rs in traced.items() for k, r in enumerate(rs)],
        }
    else:
        metrics = {"setup_s": (setup_s, "s")}
        for name, (artifact, segs) in SEGMENT_METRICS.items():
            chains = {gid: rs for gid, rs in plain.items()
                      if artifact is None or artifact in artifacts[gid]}
            metrics[name] = (_per_graph(chains, lambda r: sum(r.seg.get(s, 0.0) for s in segs)),
                             "s")
        metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB")
        metrics["failed_frac"] = (len(failures) / attempted, "ratio")
        for name in ("tracks", "palette", "volume"):
            metrics[name] = (_count(first, name, sum), "count")
        detail = {"pass_s": walls[False]}

    scale = h.CAL_REF_S / statistics.median(cal)
    detail["calibration"] = {"kernel_median_s": statistics.median(cal), "samples": len(cal),
                             "scale": scale,
                             "unscaled": {k: v for k, (v, u) in metrics.items() if u == "s"}}
    metrics = {k: (v * scale if u == "s" else v, u) for k, (v, u) in metrics.items()}

    failed_names = sorted({f"{name} ({'known' if known else 'NEW'})"
                           for _, name, _, known in failures})
    detail.update({
        "workload": args.workload, "seed": args.seed, "passes": passes,
        "digests": {gid: r.digests for gid, r in first.items()},
        "failures": sorted({(g, name, why, known) for g, name, why, known in failures}),
    })
    OUT.mkdir(exist_ok=True)
    out_file = OUT / f"{'trace' if args.trace else 'result'}-{args.workload}-{args.seed}.json"
    out_file.write_text(json.dumps(detail, indent=1, default=list) + "\n", encoding="utf-8")
    print(f"perfbench: {args.workload} seed {args.seed}: {passes} passes, "
          f"{len(failures)}/{attempted} failed: {', '.join(failed_names) or 'none'}; "
          f"details in {out_file.relative_to(ROOT)}", file=sys.stderr)
    return {"correct": correct, "attempted": attempted, "failed": len(failures),
            "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="tiny inputs, for the self-test")
    ap.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = ap.parse_args(argv)
    h = _load_harness()
    if args.workload not in h.WORKLOADS:
        ap.error(f"unknown workload {args.workload!r}; known: {', '.join(h.WORKLOADS)}")
    if args.setup_probe:
        h.make_inputs(args.workload, args.seed, tiny=args.tiny)
        h.warm_up()
        return 0
    print(json.dumps(run(args, h)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
