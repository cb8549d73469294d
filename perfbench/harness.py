"""Certified-artifact pipeline that the benchmark times.

Every artifact takes the path a user who trusts nothing but the verifiers
would take: build it, format it to text, parse the text back, run the
independent verifier on the parsed object and check the closed-form bound.
An artifact counts only if all of that passes.  The library is driven only
through its public functions and is timed only from outside.

``run.py`` puts the checkout's ``src`` directory first on ``sys.path``
before it imports this module.
"""

from __future__ import annotations

import contextlib
import gc
import hashlib
import io
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from layersep import cli
from layersep.decomposition import (
    LayeredDecomposition,
    TreeDecomposition,
    format_layered_decomposition,
    genus_layered_decomposition,
    layered_separation,
    parse_layered_decomposition,
    validate_tree_decomposition,
)
from layersep.drawing3d import (
    GridDrawing3D,
    draw_from_tracks,
    format_drawing,
    parse_drawing,
    verify_drawing,
)
from layersep.embedding import embed_planar, format_rotation_system, parse_rotation_system
from layersep.generators import (
    Lcg,
    random_chordal_with_decomposition,
    random_planar_triangulation,
    toroidal_grid,
)
from layersep.graphs import (
    Graph,
    GraphInputError,
    Layering,
    format_graph,
    format_layering,
    parse_graph,
    parse_layering,
    validate_layering,
    validate_separation,
)
from layersep.layouts import (
    QueueLayout,
    TrackLayout,
    compute_recursion,
    format_queue_layout,
    format_track_layout,
    parse_queue_layout,
    parse_track_layout,
    queue_from_tracks,
    track_bound,
    track_layout_from_compute,
    verify_queue_layout,
    verify_track_layout,
)
from layersep.nonrep import (
    Colouring,
    format_colouring,
    layer_pattern_colouring,
    nonrep_bound,
    nonrep_from_compute,
    parse_colouring,
    verify_nonrepetitive,
    verify_proper,
)
from layersep.shadow import (
    RichDecomposition,
    format_rich,
    parse_rich,
    recursive_nonrep_driver,
    recursive_track_driver,
    rich_shadow_layering,
    verify_shadow_complete,
)

EMBEDDED_ARTIFACTS = ("decomposition", "tracks", "queues", "nonrep", "draw3d")

# Mutants the seed's verifiers accept although they are not valid
# artifacts for G (ROADMAP item 5).  A wrong verdict on one of these is a
# failed operation; a wrong verdict on any other mutant also makes the run
# incorrect.
KNOWN_UNSOUND = frozenset({
    "decomposition.vertex_outside",
    "tracks.vertex_outside",
    "nonrep.vertex_outside",
    "drawing.vertex_outside",
    "shadow.uncovered",
    "shadow.vertex_outside",
})


# ---------------------------------------------------------------------------
# Inputs.
# ---------------------------------------------------------------------------


@dataclass(frozen=True)
class Input:
    """One graph as the user hands it over: text plus the run parameters."""

    gid: str
    kind: str  # "planar" (graph text), "torus" (rotation system), "chordal"
    n: int
    text: str
    artifacts: tuple[str, ...]
    max_path: int
    mutants: bool
    probe: bool = False
    cli: bool = False
    rich_text: str = ""  # chordal only: its rich tree decomposition


# Workload tables: (family, size, graph count, artifacts, max_path).
# planar_ladder keeps the recursion dominant, certify the verifiers and
# the drawing loop, genus_shadow the apex-heavy decomposition and the
# shadow drivers; see BENCHMARK.json for why each exists.
WORKLOADS: dict[str, dict] = {
    "planar_ladder": {
        "graphs": [("planar", n, 2, ("decomposition", "tracks", "queues", "nonrep"), 6)
                   for n in (300, 600, 1200)],
        "mutants": False,
    },
    "certify": {
        "graphs": [("planar", n, 2, EMBEDDED_ARTIFACTS, 10) for n in (50, 60, 70, 80)]
        + [("torus", 12, 1, EMBEDDED_ARTIFACTS, 10)],
        "mutants": True,
    },
    "genus_shadow": {
        "graphs": [("torus", 60, 1, ("decomposition", "tracks", "queues", "nonrep"), 8),
                   ("chordal", 300, 2, ("shadow",), 8)],
        "mutants": False,
    },
}

# Every workload also certifies this fixed probe through every artifact
# kind, its mutants and the CLI, so that every metric is measured on every
# workload.  It is seed-independent, and it runs up to PROBES_PER_PASS
# times spread over each pass, so that its small share is a median of
# samples taken across the whole run.
PROBE = [("planar", 40, 1, EMBEDDED_ARTIFACTS, 6), ("torus", 8, 1, EMBEDDED_ARTIFACTS, 6),
         ("chordal", 100, 1, ("shadow",), 6)]
PROBE_SEED = 1
PROBES_PER_PASS = 4

# Scaled-down tables for the self-test.
TINY: dict[str, list] = {
    "planar_ladder": [("planar", n, 1, ("decomposition", "tracks", "queues", "nonrep"), 6)
                      for n in (30, 60)],
    "certify": [("planar", 30, 1, EMBEDDED_ARTIFACTS, 6), ("torus", 4, 1, EMBEDDED_ARTIFACTS, 6)],
    "genus_shadow": [("torus", 5, 1, ("decomposition", "tracks", "queues", "nonrep"), 6),
                     ("chordal", 30, 1, ("shadow",), 6)],
}


def _make(family: str, size: int, seed: int, tag: str, artifacts, max_path,
          mutants: bool, probe: bool = False, cli_calls: bool = False) -> Input:
    gid = f"{family}{size}-{tag}"
    flags = (artifacts, max_path, mutants, probe, cli_calls)
    if family == "planar":
        g = random_planar_triangulation(size, seed).to_graph()
        return Input(gid, "planar", g.n, format_graph(g), *flags)
    if family == "torus":
        eg = toroidal_grid(size, size)
        return Input(gid, "torus", eg.n, format_rotation_system(eg), *flags)
    g, td = random_chordal_with_decomposition(size, seed, max_clique=4)
    return Input(gid, "chordal", g.n, format_graph(g), *flags,
                 rich_text=format_rich(RichDecomposition(td)))


def make_inputs(workload: str, seed: int, tiny: bool = False) -> list[Input]:
    """The workload's inputs as text; the same seed gives the same text."""
    rng = Lcg(seed)
    spec = WORKLOADS[workload]
    table = TINY[workload] if tiny else spec["graphs"]
    out = []
    for family, size, count, artifacts, max_path in table:
        for i in range(count):
            gseed = rng.next() >> 32
            out.append(_make(family, size, gseed, f"{i}", artifacts, max_path, spec["mutants"]))
    for j, (family, size, count, artifacts, max_path) in enumerate(PROBE):
        out.append(_make(family, size, PROBE_SEED, "probe", artifacts, max_path, True,
                         probe=True, cli_calls=(j == 0)))
    return out


def warm_up() -> None:
    """Pay networkx's lazy import, as the first CLI call in a fresh process does."""
    embed_planar(Graph.from_edges(4, [(0, 1), (1, 2), (2, 3), (3, 0), (0, 2)]))


# On a shared 2-vCPU virtual machine the speed of pure-Python code drifts by
# 10-25% between runs, and the guest sees no steal time.  So run.py times this fixed kernel about every CALIBRATE_EVERY_S
# seconds and multiplies every time by CAL_REF_S over the run's median
# kernel time: times read as if the host ran at the speed where the kernel
# takes CAL_REF_S.  This cut the spread of the times between runs by about
# a third.  The unscaled times are kept in the run's detail file.
CAL_REF_S = 0.016
CALIBRATE_EVERY_S = 0.5


def _kernel() -> int:
    """Fixed pure-Python work of the library's kind: int-keyed dict
    inserts and lookups, frozenset construction, unions and intersections.
    About 3 MB, below what any workload adds, so it never sets the
    process's peak RSS; it never calls layersep, so no change to the
    library moves it."""
    table: dict[int, int] = {}
    for i in range(10000):
        table[(i * 2654435761) % 50021] = i
    acc = sum(v for v in map(table.get, range(0, 50021, 3)) if v is not None)
    sets = [frozenset(range(i, i + 8)) for i in range(2000)]
    union: set[int] = set()
    for a in sets[::3]:
        union |= a
    return acc + len(union) + sum(len(a & b) for a, b in zip(sets, sets[1:]))


def calibrate() -> float:
    """Seconds three runs of the fixed kernel take now.  The collector is
    off meanwhile, so the heap the library left behind does not move it."""
    gc.disable()
    try:
        t0 = time.perf_counter()
        for _ in range(3):
            _kernel()
        return time.perf_counter() - t0
    finally:
        gc.enable()


def clear_caches() -> None:
    """Empty layersep's in-process caches (``functools`` caches of any of its
    modules), so each graph starts cold like a fresh CLI process."""
    for name, mod in list(sys.modules.items()):
        if name == "layersep" or name.startswith("layersep."):
            for obj in list(vars(mod).values()):
                clear = getattr(obj, "cache_clear", None)
                if callable(clear):
                    clear()


# ---------------------------------------------------------------------------
# Tracing: spans around every call into the library, kept in memory.
# ---------------------------------------------------------------------------


class Tracer:
    """Records (name, start, end, parent span, graph id) per call."""

    def __init__(self) -> None:
        self.spans: list[Optional[tuple]] = []
        self._stack: list[int] = []
        self.graph = ""

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    @contextlib.contextmanager
    def span(self, name: str):
        sid = len(self.spans)
        parent = self._stack[-1] if self._stack else None
        self.spans.append(None)
        self._stack.append(sid)
        t0 = time.perf_counter()
        try:
            yield
        finally:
            t1 = time.perf_counter()
            self._stack.pop()
            self.spans[sid] = (name, t0, t1, parent, self.graph)


class NoTracer:
    """Untraced runs: calls go straight through."""

    graph = ""

    @staticmethod
    def call(name: str, fn, *args, **kwargs):
        return fn(*args, **kwargs)

    @staticmethod
    @contextlib.contextmanager
    def span(name: str):
        yield


# ---------------------------------------------------------------------------
# Per-graph results.
# ---------------------------------------------------------------------------


@dataclass
class GraphResult:
    """Segment times, counts, artifact digests and failures of one graph in
    one pass."""

    seg: dict[str, float] = field(default_factory=dict)
    counts: dict[str, float] = field(default_factory=dict)
    digests: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failures: list[tuple[str, str, bool]] = field(default_factory=list)  # name, detail, known
    mutants: list[str] = field(default_factory=list)
    spans: Optional[list] = None

    def fail(self, name: str, detail: str, known: bool = False) -> None:
        self.failures.append((name, detail, known))

    @contextlib.contextmanager
    def clock(self, name: str):
        """Add the wall time of the block to segment ``name``."""
        t0 = time.perf_counter()
        try:
            yield
        finally:
            self.seg[name] = self.seg.get(name, 0.0) + time.perf_counter() - t0


def _sha(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def _check(res: GraphResult, name: str, ok: bool, detail: str) -> None:
    res.attempted += 1
    if not ok:
        res.fail(name, detail)


def _first(report) -> str:
    return report.violations[0] if report.violations else ""


def certify(inp: Input, tr, workdir: Optional[Path] = None) -> GraphResult:
    """Run every artifact chain of one input once; a ``Tracer`` also records
    its spans."""
    res = GraphResult(spans=getattr(tr, "spans", None))
    clear_caches()
    tr.graph = inp.gid
    with tr.span("graph"):
        try:
            if inp.kind == "chordal":
                _shadow_chain(inp, tr, res)
            else:
                _embedded_chain(inp, tr, res)
        except Exception:  # a construction that raises fails its operation
            res.attempted += 1
            res.fail(f"{inp.kind}.raised", traceback.format_exc(limit=-3))
        if inp.cli and workdir is not None:
            _cli_chain(inp, tr, res, workdir)
    return res


def _embedded_chain(inp: Input, tr, res: GraphResult) -> None:
    c = tr.call
    arts = inp.artifacts
    texts: dict[str, str] = {}
    parsed: dict[str, object] = {}
    with res.clock("in"):
        if inp.kind == "planar":
            g = c("graphs.parse_graph", parse_graph, inp.text)
            eg = c("embedding.embed_planar", embed_planar, g)
        else:
            eg = c("embedding.parse_rotation_system", parse_rotation_system, inp.text)
            g = eg.to_graph()
        gres = c("decomposition.genus_layered_decomposition", genus_layered_decomposition, eg, (0,))
    ld = gres.ld
    res.counts.update({
        "bag_entries": sum(len(b) for b in ld.decomposition.bags),
        "apex_q": len(gres.apex_paths),
        "layers": len(ld.layering),
        "layered_width": ld.layered_width,
    })

    if "decomposition" in arts:
        with res.clock("dec_build"):
            texts["decomposition"] = c("decomposition.format_layered_decomposition",
                                       format_layered_decomposition, ld)
            sample = frozenset(g.vertices())
            sep = c("decomposition.layered_separation", layered_separation, g, ld, sample)
        with res.clock("dec_check"):
            ld2 = c("decomposition.parse_layered_decomposition",
                    parse_layered_decomposition, texts["decomposition"])
            rep_t = c("decomposition.validate_tree_decomposition",
                      validate_tree_decomposition, g, ld2.decomposition)
            rep_l = c("graphs.validate_layering", validate_layering, g, ld2.layering)
            rep_s = c("graphs.validate_separation", validate_separation, g, sep, sample,
                      layering=ld2.layering)
            width_ok = ld2.layered_width <= 2 * gres.genus + 3
        parsed["decomposition"] = ld2
        _check(res, "decomposition", rep_t.ok and rep_l.ok and rep_s.ok and width_ok,
               _first(rep_t) or _first(rep_l) or _first(rep_s)
               or f"layered width {ld2.layered_width} > 2g+3")

    if not any(a in arts for a in ("tracks", "queues", "nonrep", "draw3d")):
        _digest_and_mutate(inp, g, texts, parsed, res, tr)
        return
    with res.clock("rec"):
        labels = c("layouts.compute_recursion", compute_recursion, g, ld.layering, ld,
                   q=tuple(gres.apex_paths), mode="separation")
    res.counts["recursion_nodes"] = len(labels.nodes)
    res.counts["recursion_depth"] = labels.max_depth

    if any(a in arts for a in ("tracks", "queues", "draw3d")):
        with res.clock("tl"):
            tl = c("layouts.track_layout_from_compute", track_layout_from_compute,
                   g, ld.layering, labels)
        t = len(tl.tracks)
        res.counts["tracks"] = t
    if "tracks" in arts:
        with res.clock("tracks_build"):
            texts["tracks"] = c("layouts.format_track_layout", format_track_layout, tl)
        with res.clock("tracks_check"):
            tl2 = c("layouts.parse_track_layout", parse_track_layout, texts["tracks"])
            rep = c("layouts.verify_track_layout", verify_track_layout, g, tl2)
            bound = track_bound(g.n, labels.ell1, labels.ell2, labels.mode)
        parsed["tracks"] = tl2
        _check(res, "tracks", rep.ok and len(tl2.tracks) <= bound,
               _first(rep) or f"{len(tl2.tracks)} tracks > bound {bound:.1f}")
    if "queues" in arts:
        with res.clock("q_build"):
            ql = c("layouts.queue_from_tracks", queue_from_tracks, g, tl)
            texts["queues"] = c("layouts.format_queue_layout", format_queue_layout, ql)
        with res.clock("q_check"):
            ql2 = c("layouts.parse_queue_layout", parse_queue_layout, texts["queues"])
            rep = c("layouts.verify_queue_layout", verify_queue_layout, g, ql2)
        parsed["queues"] = ql2
        res.counts["queues"] = ql2.queue_count
        _check(res, "queues", rep.ok and ql2.queue_count <= max(t - 1, 0),
               _first(rep) or f"{ql2.queue_count} queues > t-1 = {t - 1}")
    if "nonrep" in arts:
        with res.clock("nr_build"):
            lp = c("nonrep.layer_pattern_colouring", layer_pattern_colouring, len(ld.layering))
            col = c("nonrep.nonrep_from_compute", nonrep_from_compute, g, ld.layering, labels, lp)
            texts["nonrep"] = c("nonrep.format_colouring", format_colouring, col)
        with res.clock("nr_check"):
            ok, detail, col2 = _verify_colouring(tr, g, texts["nonrep"], inp.max_path)
            bound = nonrep_bound(g.n, labels.ell1, labels.ell2, lp.symbol_count)
        parsed["nonrep"] = col2
        res.counts["palette"] = col2.palette_size
        res.counts["symbols"] = lp.symbol_count
        res.counts["max_path"] = inp.max_path
        _check(res, "nonrep", ok and col2.palette_size <= bound,
               detail or f"palette {col2.palette_size} > bound {bound:.1f}")
    if "draw3d" in arts:
        with res.clock("dr_build"):
            d = c("drawing3d.draw_from_tracks", draw_from_tracks, g, tl, seed=0)
            texts["drawing"] = c("drawing3d.format_drawing", format_drawing, d)
        with res.clock("dr_check"):
            d2 = c("drawing3d.parse_drawing", parse_drawing, texts["drawing"])
            rep = c("drawing3d.verify_drawing", verify_drawing, g, d2)
        parsed["drawing"] = d2
        res.counts["volume"] = d2.volume
        res.counts["segment_pairs"] = g.m * (g.m - 1) // 2
        _check(res, "draw3d", rep.ok and d2.volume <= 4 * t * t * g.n,
               _first(rep) or f"volume {d2.volume} > 4t^2n = {4 * t * t * g.n}")
    _digest_and_mutate(inp, g, texts, parsed, res, tr)


def _verify_colouring(tr, g: Graph, text: str, max_path: int):
    """``layersep verify nonrep``: proper first, then square-free paths."""
    col = tr.call("nonrep.parse_colouring", parse_colouring, text)
    rep = tr.call("nonrep.verify_proper", verify_proper, g, col)
    if not rep.ok:
        return False, _first(rep), col
    hit = tr.call("nonrep.verify_nonrepetitive", verify_nonrepetitive, g, col, max_path)
    return hit is None, f"repetitive path {hit}" if hit else "", col


def clique_tracks(g: Graph) -> TrackLayout:
    """0-rich pieces are disjoint cliques: the i-th vertex of each clique
    goes on track i."""
    comps = sorted(g.components(), key=min)
    tracks: list[list[int]] = [[] for _ in range(max((len(x) for x in comps), default=1))]
    for comp in comps:
        for i, v in enumerate(sorted(comp)):
            tracks[i].append(v)
    return TrackLayout(tuple(tuple(t) for t in tracks))


def clique_colours(g: Graph) -> Colouring:
    return Colouring({v: i for comp in g.components() for i, v in enumerate(sorted(comp))})


def _shadow_chain(inp: Input, tr, res: GraphResult) -> None:
    c = tr.call
    texts: dict[str, str] = {}
    with res.clock("sh_in"):
        g = c("graphs.parse_graph", parse_graph, inp.text)
        rd = c("shadow.parse_rich", parse_rich, inp.rich_text)
    k = rd.richness
    with res.clock("sh_build"):
        sl = c("shadow.rich_shadow_layering", rich_shadow_layering, g, rd)
        texts["shadow"] = c("graphs.format_layering", format_layering, sl.layering)
        tl = c("shadow.recursive_track_driver", recursive_track_driver, g, rd, clique_tracks)
        texts["shadow_tracks"] = c("layouts.format_track_layout", format_track_layout, tl)
        col = c("shadow.recursive_nonrep_driver", recursive_nonrep_driver, g, rd, clique_colours)
        texts["shadow_nonrep"] = c("nonrep.format_colouring", format_colouring, col)
    with res.clock("sh_check"):
        lay = c("graphs.parse_layering", parse_layering, texts["shadow"])
        rep = c("shadow.verify_shadow_complete", verify_shadow_complete, g, lay, k)
        tl2 = c("layouts.parse_track_layout", parse_track_layout, texts["shadow_tracks"])
        rep_t = c("layouts.verify_track_layout", verify_track_layout, g, tl2)
        ok_c, detail_c, col2 = _verify_colouring(tr, g, texts["shadow_nonrep"], inp.max_path)
    _check(res, "shadow", rep.ok, _first(rep))
    _check(res, "shadow_tracks", rep_t.ok, _first(rep_t))
    _check(res, "shadow_nonrep", ok_c, detail_c)
    res.counts.update({"shadow_tracks": len(tl2.tracks), "shadow_palette": col2.palette_size})
    _digest_and_mutate(inp, g, texts, {"shadow": lay}, res, tr, k)


# ---------------------------------------------------------------------------
# Mutants: parsed artifacts with one planted violation each.
# ---------------------------------------------------------------------------


def _induced_p4(g: Graph) -> Optional[tuple[int, int, int, int]]:
    """First path a-b-c-d with a~c and b~d non-adjacent, in id order."""
    adj = g.adjacency
    for b in g.vertices():
        for a in adj[b]:
            for cc in adj[b]:
                if cc == a or g.has_edge(a, cc):
                    continue
                for d in adj[cc]:
                    if d not in (a, b) and not g.has_edge(b, d):
                        return a, b, cc, d
    return None


def mutants(g: Graph, parsed: dict) -> list[tuple[str, str, str]]:
    """(name, artifact kind, text) for each mutant of the parsed artifacts."""
    out = []
    n = g.n
    last = n - 1
    u0, v0 = min(g.edges)
    if "decomposition" in parsed:
        ld = parsed["decomposition"]
        td = ld.decomposition
        bags = list(td.bags)
        bags[0] = bags[0] | {n}
        out.append(("decomposition.vertex_outside", "decomposition", format_layered_decomposition(
            LayeredDecomposition(TreeDecomposition(tuple(bags), td.tree_edges), ld.layering))))
        out.append(("decomposition.uncovered", "decomposition", format_layered_decomposition(
            LayeredDecomposition(
                TreeDecomposition(tuple(b - {last} for b in td.bags), td.tree_edges),
                Layering(tuple(layer - {last} for layer in ld.layering.layers))))))
    if "tracks" in parsed:
        tracks = [list(t) for t in parsed["tracks"].tracks]
        tof = parsed["tracks"].track_of
        moved = [list(t) for t in tracks]
        moved[tof[v0]].remove(v0)
        moved[tof[u0]].append(v0)
        out.append(("tracks.intra_track_edge", "tracks", _fmt_tracks(moved)))
        out.append(("tracks.vertex_outside", "tracks",
                    _fmt_tracks([tracks[0] + [n]] + tracks[1:])))
        out.append(("tracks.uncovered", "tracks",
                    _fmt_tracks([[v for v in t if v != last] for t in tracks])))
    if "queues" in parsed:
        ql = parsed["queues"]
        out.append(("queues.vertex_outside", "queues",
                    format_queue_layout(QueueLayout(ql.order + (n,), ql.queue_of))))
        out.append(("queues.uncovered", "queues", format_queue_layout(
            QueueLayout(tuple(v for v in ql.order if v != last), ql.queue_of))))
    if "nonrep" in parsed:
        colour = dict(parsed["nonrep"].colour)
        out.append(("nonrep.monochromatic_edge", "nonrep",
                    format_colouring(Colouring({**colour, v0: colour[u0]}))))
        p4 = _induced_p4(g)
        if p4 is not None:
            a, b, cc, d = p4
            x, y = max(colour.values()) + 1, max(colour.values()) + 2
            out.append(("nonrep.planted_square", "nonrep", format_colouring(
                Colouring({**colour, a: x, cc: x, b: y, d: y}))))
        out.append(("nonrep.vertex_outside", "nonrep",
                    format_colouring(Colouring({**colour, n: max(colour.values()) + 1}))))
        out.append(("nonrep.uncovered", "nonrep", format_colouring(
            Colouring({v: col for v, col in colour.items() if v != last}))))
    if "drawing" in parsed:
        pos = dict(parsed["drawing"].position)
        far = max(p[2] for p in pos.values()) + 1
        out.append(("drawing.shared_point", "drawing",
                    format_drawing(GridDrawing3D({**pos, 1: pos[0]}))))
        out.append(("drawing.vertex_outside", "drawing",
                    format_drawing(GridDrawing3D({**pos, n: (0, 0, far)}))))
        out.append(("drawing.uncovered", "drawing", format_drawing(
            GridDrawing3D({v: p for v, p in pos.items() if v != last}))))
    if "shadow" in parsed:
        layers = parsed["shadow"].layers
        out.append(("shadow.uncovered", "shadow",
                    format_layering(Layering(tuple(layer - {last} for layer in layers)))))
        out.append(("shadow.vertex_outside", "shadow",
                    format_layering(Layering((layers[0] | {n},) + layers[1:]))))
    return out


def _fmt_tracks(tracks: list[list[int]]) -> str:
    return format_track_layout(TrackLayout(tuple(tuple(t) for t in tracks)))


def rejects(tr, g: Graph, kind: str, text: str, max_path: int, k: int) -> bool:
    """Verdict of ``layersep verify <kind>`` on an artifact text: True if it
    is rejected, by a failed check or as malformed input."""
    c = tr.call
    try:
        if kind == "decomposition":
            ld = c("decomposition.parse_layered_decomposition", parse_layered_decomposition, text)
            return not (c("decomposition.validate_tree_decomposition",
                          validate_tree_decomposition, g, ld.decomposition).ok
                        and c("graphs.validate_layering", validate_layering, g, ld.layering).ok)
        if kind == "tracks":
            tl = c("layouts.parse_track_layout", parse_track_layout, text)
            return not c("layouts.verify_track_layout", verify_track_layout, g, tl).ok
        if kind == "queues":
            ql = c("layouts.parse_queue_layout", parse_queue_layout, text)
            return not c("layouts.verify_queue_layout", verify_queue_layout, g, ql).ok
        if kind == "nonrep":
            return not _verify_colouring(tr, g, text, max_path)[0]
        if kind == "drawing":
            d = c("drawing3d.parse_drawing", parse_drawing, text)
            return not c("drawing3d.verify_drawing", verify_drawing, g, d).ok
        lay = c("graphs.parse_layering", parse_layering, text)
        return not c("shadow.verify_shadow_complete", verify_shadow_complete, g, lay, k).ok
    except GraphInputError:
        return True


def _digest_and_mutate(inp: Input, g: Graph, texts: dict[str, str], parsed: dict,
                       res: GraphResult, tr, k: int = 1) -> None:
    """Record the artifact digests, then verify the mutants of the parsed
    artifacts; ``k`` is the shadow size bound for shadow layerings."""
    res.digests.update({kind: _sha(text) for kind, text in texts.items()})
    if not inp.mutants:
        return
    for name, kind, text in mutants(g, parsed):
        res.attempted += 1
        res.mutants.append(name)
        try:
            with res.clock("reject"), tr.span("mutant"):
                rejected = rejects(tr, g, kind, text, inp.max_path, k)
        except Exception as exc:  # a verifier that crashes gives no verdict
            res.fail(name, f"{type(exc).__name__}: {exc}", name in KNOWN_UNSOUND)
            continue
        if not rejected:
            res.fail(name, "accepted", name in KNOWN_UNSOUND)


# ---------------------------------------------------------------------------
# The CLI, in process.
# ---------------------------------------------------------------------------


def _cli_chain(inp: Input, tr, res: GraphResult, workdir: Path) -> None:
    """``layersep tracks``, ``nonrep``, ``draw3d`` and ``verify`` on a
    planar input; each must exit 0."""
    workdir.mkdir(parents=True, exist_ok=True)
    graph_file = str(workdir / "graph.txt")
    Path(graph_file).write_text(inp.text, encoding="utf-8")
    runs = [
        ["tracks", graph_file, "--out", str(workdir / "tracks.txt")],
        ["nonrep", graph_file, "--out", str(workdir / "nonrep.txt"),
         "--verify-max-path", str(inp.max_path)],
        ["draw3d", graph_file, "--out", str(workdir / "drawing.txt")],
        ["verify", "tracks", str(workdir / "tracks.txt"), graph_file],
    ]
    for argv in runs:
        argv = argv + ["--manifest", str(workdir / f"{argv[0]}.json")]
        res.attempted += 1
        sink = io.StringIO()
        with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
            with res.clock("cli"):
                code = tr.call("cli.main", cli.main, argv)
        if code != 0:
            res.fail(f"cli.{argv[0]}", f"exit code {code}: {sink.getvalue().strip()[:200]}")
