"""Command-line front end.

Every subcommand reads the plain-text formats defined by the library,
writes its artifact plus a JSON run manifest, and exits 0 only after the
matching verifier passed.  Exit codes: 0 verified success, 1
verification failure (counterexample printed), 2 invalid input
(including a non-planar, disconnected or empty graph given to the
planar embedder), 3 a construction failure, which is one of

- ``DrawingError``: the drawing's seeded retry budget ran out before a
  crossing-free placement was found;
- ``EmbedderSelfCheckError``: the planar embedder's rotation system
  failed its genus-0 self-check, or triangulating an embedding changed
  its genus;
- ``DecompositionSelfCheckError``: the genus decomposition broke its
  layered width bound 2g+3;
- ``LayoutError``: the labelling recursion broke one of its invariants,
  or a track layout built here was turned into queues or a drawing and
  was not one.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import sys
import time
from dataclasses import asdict, dataclass, field
from pathlib import Path
from typing import Optional

from .decomposition import (
    DecompositionSelfCheckError,
    format_layered_decomposition,
    genus_layered_decomposition,
    layered_separation,
    parse_layered_decomposition,
    validate_tree_decomposition,
)
from .drawing3d import (
    DrawingError,
    draw_from_tracks,
    export_obj,
    export_svg,
    format_drawing,
    parse_drawing,
    verify_drawing,
    volume_report,
)
from .embedding import (
    EmbedderSelfCheckError,
    embed_planar,
    format_rotation_system,
    parse_rotation_system,
)
from .generators import gen as gen_fixture
from .graphs import (
    GraphInputError,
    Report,
    format_graph,
    parse_graph,
    parse_layering,
    separator_layer_widths,
    validate_layering,
    validate_separation,
)
from .layouts import (
    LayoutError,
    format_queue_layout,
    format_track_layout,
    parse_queue_layout,
    parse_track_layout,
    pipeline,
    queue_from_tracks,
    track_bound,
    track_layout_from_compute,
    verify_queue_layout,
    verify_track_layout,
)
from .nonrep import (
    default_max_path,
    format_colouring,
    nonrep_bound,
    nonrep_from_compute,
    parse_colouring,
    verify_nonrepetitive,
    verify_proper,
)
from .shadow import verify_shadow_complete

EXIT_OK = 0
EXIT_VERIFY = 1
EXIT_INPUT = 2
EXIT_CONSTRUCTION = 3


@dataclass
class RunManifest:
    command: str
    inputs: dict[str, str] = field(default_factory=dict)  # path -> sha256
    parameters: dict = field(default_factory=dict)
    bounds: dict = field(default_factory=dict)
    verdicts: dict[str, str] = field(default_factory=dict)

    def add_input(self, path: str) -> None:
        digest = hashlib.sha256(Path(path).read_bytes()).hexdigest()
        self.inputs[path] = digest

    def write(self, out_path: Optional[str]) -> None:
        _write(out_path, json.dumps(asdict(self), indent=2, default=str) + "\n")


def _write(path: Optional[str], text: str) -> None:
    if path:
        Path(path).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _root_clique(args) -> tuple[int, ...]:
    return tuple(int(x) for x in str(args.root).split(",")) if args.root else (0,)


def _load(args, manifest: RunManifest):
    """The embedded input of a build subcommand, its digest recorded."""
    if args.embedded:
        manifest.add_input(args.embedded)
        return parse_rotation_system(Path(args.embedded).read_text(encoding="utf-8"))
    manifest.add_input(args.graph)
    return embed_planar(parse_graph(Path(args.graph).read_text(encoding="utf-8")))


def _decomposed(args, manifest: RunManifest):
    """(G, decomposition result) from the root clique, bounds recorded."""
    eg = _load(args, manifest)
    res = genus_layered_decomposition(eg, _root_clique(args))
    manifest.bounds.update(layered_width=res.ld.layered_width, genus=res.genus)
    return eg.to_graph(), res


def _labelled(args, manifest: RunManifest):
    """(G, decomposition result, labels) from ``layouts.pipeline``; the
    recursion's node count and depth are recorded with the bounds."""
    g, res, labels, _ = pipeline(_load(args, manifest), _root_clique(args))
    manifest.bounds.update(
        layered_width=res.ld.layered_width,
        genus=res.genus,
        recursion_nodes=len(labels.nodes),
        recursion_depth=labels.max_depth,
    )
    return g, res, labels


# One check per artifact kind, shared by verify and the build subcommands:
# (args, manifest, G, artifact) -> [(verdict name, Report)].


def _check_tracks(args, manifest: RunManifest, g, tl):
    return [("tracks", verify_track_layout(g, tl))]


def _check_queues(args, manifest: RunManifest, g, ql):
    return [("queues", verify_queue_layout(g, ql))]


def _check_layering(args, manifest: RunManifest, g, layering):
    return [("layering", validate_layering(g, layering))]


def _check_decomposition(args, manifest: RunManifest, g, ld):
    return [
        ("decomposition", validate_tree_decomposition(g, ld.decomposition)),
        ("layering", validate_layering(g, ld.layering)),
    ]


def _check_nonrep(args, manifest: RunManifest, g, colouring):
    """The square search runs only on a proper colouring, so it never sees
    an uncoloured vertex.  A path of fewer than 2 vertices holds no
    square, so a max_path below 2 would check nothing: it is refused."""
    max_path = args.verify_max_path
    if max_path is None:
        max_path = default_max_path(g.n)
    elif max_path < 2:
        raise GraphInputError(f"--verify-max-path must be at least 2, got {max_path}")
    proper = verify_proper(g, colouring)
    if not proper.ok:
        return [("proper", proper)]
    manifest.parameters["max_path"] = max_path
    hit = verify_nonrepetitive(g, colouring, max_path)
    square = Report.of(() if hit is None else (f"repetitive path: {hit}",))
    return [("proper", proper), ("nonrepetitive", square)]


def _check_drawing(args, manifest: RunManifest, g, d):
    return [("drawing", verify_drawing(g, d))]


def _check_shadow(args, manifest: RunManifest, g, layering):
    return [("shadow", verify_shadow_complete(g, layering, args.k))]


# kind -> (parser, check), for verify.
_CHECKS = {
    "tracks": (parse_track_layout, _check_tracks),
    "queues": (parse_queue_layout, _check_queues),
    "layering": (parse_layering, _check_layering),
    "decomposition": (parse_layered_decomposition, _check_decomposition),
    "nonrep": (parse_colouring, _check_nonrep),
    "drawing": (parse_drawing, _check_drawing),
    "shadow": (parse_layering, _check_shadow),
}


def _finish(args, manifest: RunManifest, text: Optional[str], reports,
            verdict_on_stdout: bool = False) -> int:
    """Record the verdicts, write the artifact (if any) and the manifest;
    print the first violation and return 1 if any report failed, else
    print "pass" if asked to and return 0."""
    for name, rep in reports:
        manifest.verdicts[name] = "pass" if rep.ok else "fail"
    if text is not None:
        _write(args.out, text)
    manifest.write(args.manifest)
    violations = [v for _, rep in reports for v in rep.violations]
    if violations:
        print(violations[0], file=sys.stderr)
        return EXIT_VERIFY
    if verdict_on_stdout:
        print("pass")
    return EXIT_OK


def cmd_decompose(args) -> int:
    manifest = RunManifest("decompose", parameters={"root": args.root})
    g, res = _decomposed(args, manifest)
    bounds = manifest.bounds
    bounds["width"] = res.ld.decomposition.width
    bounds["genus"] = bounds.pop("genus")  # the manifest lists width before genus
    return _finish(args, manifest, format_layered_decomposition(res.ld),
                   _check_decomposition(args, manifest, g, res.ld))


def cmd_separate(args) -> int:
    manifest = RunManifest("separate", parameters={"root": args.root})
    g, res = _decomposed(args, manifest)
    sample = frozenset(g.vertices())
    sep = layered_separation(g, res.ld, sample)
    manifest.bounds["separator_size"] = len(sep.intersection)
    widths = separator_layer_widths(sep, res.ld.layering)
    manifest.bounds["separator_layer_width"] = max(widths.values(), default=0)
    parts = (sep.part1 - sep.part2, sep.intersection, sep.part2 - sep.part1)
    text = "".join(" ".join(map(str, sorted(part))) + "\n" for part in parts)
    report = validate_separation(g, sep, sample, layering=res.ld.layering)
    return _finish(args, manifest, text, [("separation", report)])


def cmd_tracks(args) -> int:
    manifest = RunManifest("tracks", parameters={"root": args.root})
    g, res, labels = _labelled(args, manifest)
    tl = track_layout_from_compute(g, res.ld.layering, labels)
    manifest.bounds["tracks"] = len(tl.tracks)
    return _finish(args, manifest, format_track_layout(tl), _check_tracks(args, manifest, g, tl))


def cmd_queues(args) -> int:
    manifest = RunManifest("queues", parameters={"root": args.root})
    g, res, labels = _labelled(args, manifest)
    tl = track_layout_from_compute(g, res.ld.layering, labels)
    ql = queue_from_tracks(g, tl)
    manifest.bounds["tracks"] = len(tl.tracks)
    manifest.bounds["queues"] = ql.queue_count
    return _finish(args, manifest, format_queue_layout(ql), _check_queues(args, manifest, g, ql))


def cmd_nonrep(args) -> int:
    manifest = RunManifest("nonrep", parameters={"root": args.root})
    g, res, labels = _labelled(args, manifest)
    colouring = nonrep_from_compute(g, res.ld.layering, labels)
    manifest.bounds["palette"] = colouring.palette_size
    return _finish(args, manifest, format_colouring(colouring),
                   _check_nonrep(args, manifest, g, colouring), verdict_on_stdout=True)


def cmd_draw3d(args) -> int:
    manifest = RunManifest("draw3d", parameters={"root": args.root, "seed": args.seed})
    g, res, labels = _labelled(args, manifest)
    tl = track_layout_from_compute(g, res.ld.layering, labels)
    d = draw_from_tracks(g, tl, seed=args.seed)
    manifest.parameters["trials"] = d.trials
    vr = volume_report(d, g, track_count=len(tl.tracks))
    manifest.bounds["tracks"] = len(tl.tracks)
    manifest.bounds["volume"] = vr.volume
    manifest.bounds["volume_bound"] = vr.upper_bound
    reports = _check_drawing(args, manifest, g, d)
    # the drawing goes out before its SVG and OBJ exports
    _write(args.out, format_drawing(d))
    if args.svg:
        Path(args.svg).write_text(export_svg(g, d), encoding="utf-8")
    if args.obj:
        Path(args.obj).write_text(export_obj(g, d), encoding="utf-8")
    return _finish(args, manifest, None, reports)


def cmd_verify(args) -> int:
    """Re-check a saved artifact; one verdict under its kind, which passes
    only if every report of the kind's check passes."""
    manifest = RunManifest("verify", parameters={"kind": args.kind})
    manifest.add_input(args.artifact)
    manifest.add_input(args.graph)
    g = parse_graph(Path(args.graph).read_text(encoding="utf-8"))
    parse, check = _CHECKS[args.kind]
    reports = check(args, manifest, g, parse(Path(args.artifact).read_text(encoding="utf-8")))
    merged = Report.of(v for _, rep in reports for v in rep.violations)
    return _finish(args, manifest, None, [(args.kind, merged)], verdict_on_stdout=True)


def cmd_gen(args) -> int:
    fixture = gen_fixture(args.family, args.size, args.seed)
    manifest = RunManifest(
        "gen",
        parameters={"family": args.family, "size": args.size, "seed": args.seed},
        bounds=dict(fixture.expected),
    )
    if args.rotation:
        if fixture.embedded is None:
            raise GraphInputError(f"family {args.family!r} has no embedding")
        _write(args.out, format_rotation_system(fixture.embedded))
    else:
        _write(args.out, format_graph(fixture.graph))
    manifest.write(args.manifest)
    return EXIT_OK


_BENCH_FAMILIES = (
    ("planar_triangulation", 60),
    ("planar_triangulation", 150),
    ("toroidal_grid", 5),
    ("grid", 8),
)


def cmd_bench(args) -> int:
    rows = []
    for family, size in _BENCH_FAMILIES:
        fixture = gen_fixture(family, size, args.seed)
        eg = fixture.embedded or embed_planar(fixture.graph)
        g, res, labels, (decomp_s, recursion_s) = pipeline(eg)
        t0 = time.perf_counter()
        tl = track_layout_from_compute(g, res.ld.layering, labels)
        t1 = time.perf_counter()
        d = draw_from_tracks(g, tl, seed=args.seed)
        t2 = time.perf_counter()
        rows.append((f"{family}/{size}", g.n, decomp_s, recursion_s + t1 - t0,
                     t2 - t1, len(tl.tracks), d.volume))
    print(f"{'fixture':<26}{'n':>5}{'decomp':>9}{'tracks':>9}{'draw':>9}{'t':>4}{'vol':>9}")
    for name, n, a, b, c, t, vol in rows:
        print(f"{name:<26}{n:>5}{a:>9.3f}{b:>9.3f}{c:>9.3f}{t:>4}{vol:>9}")
    return EXIT_OK


_REPORT_FAMILIES = (
    ("planar_triangulation", 40, 3),
    ("planar_triangulation", 120, 3),
    ("toroidal_grid", 5, 7),
    ("toroidal_grid", 7, 7),
)


def cmd_report(args) -> int:
    print("| fixture | n | layered width | bound | tracks | track bound | palette | palette bound |")
    print("|---|---|---|---|---|---|---|---|")
    for family, size, lw_bound in _REPORT_FAMILIES:
        g, res, labels, _ = pipeline(gen_fixture(family, size, args.seed).embedded)
        tl = track_layout_from_compute(g, res.ld.layering, labels)
        colouring = nonrep_from_compute(g, res.ld.layering, labels)
        cap = 2 * res.genus + 3
        tracks_cap = math.ceil(track_bound(g.n, cap, cap))
        palette_cap = math.ceil(nonrep_bound(g.n, cap, cap))
        print(
            f"| {family}/{size} | {g.n} | {res.ld.layered_width} | {lw_bound} "
            f"| {len(tl.tracks)} | {tracks_cap} | {colouring.palette_size} | {palette_cap} |"
        )
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="layersep")
    # only the subcommands that draw or generate take a seed
    seeded = argparse.ArgumentParser(add_help=False)
    seeded.add_argument("--seed", type=int, default=0, help="random seed")
    sub = parser.add_subparsers(dest="command", required=True)

    builds = {"decompose": cmd_decompose, "separate": cmd_separate, "tracks": cmd_tracks,
              "queues": cmd_queues, "nonrep": cmd_nonrep, "draw3d": cmd_draw3d}
    for name, fn in builds.items():
        p = sub.add_parser(name, parents=[seeded] if name == "draw3d" else [])
        src = p.add_mutually_exclusive_group(required=True)
        src.add_argument("graph", nargs="?", help="graph file (planar input)")
        src.add_argument("--embedded", help="rotation-system file")
        p.add_argument("--root", default="0", help="root clique, comma-separated ids")
        p.add_argument("--out", help="output artifact path (default stdout)")
        p.add_argument("--manifest", help="manifest JSON path (default stdout)")
        p.set_defaults(fn=fn)
        if name == "nonrep":
            p.add_argument("--verify-max-path", type=int, default=None)
        if name == "draw3d":
            p.add_argument("--svg", help="also export an SVG projection")
            p.add_argument("--obj", help="also export an OBJ line set")

    p = sub.add_parser("verify")
    p.add_argument("kind", choices=list(_CHECKS))
    p.add_argument("artifact")
    p.add_argument("graph")
    p.add_argument("--k", type=int, default=1, help="shadow size bound for kind=shadow")
    p.add_argument("--verify-max-path", type=int, default=None)
    p.add_argument("--manifest")
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("gen", parents=[seeded])
    p.add_argument("family")
    p.add_argument("size", type=int)
    p.add_argument("--rotation", action="store_true", help="emit the rotation-system format")
    p.add_argument("--out")
    p.add_argument("--manifest")
    p.set_defaults(fn=cmd_gen)

    p = sub.add_parser("bench", parents=[seeded])
    p.set_defaults(fn=cmd_bench)

    p = sub.add_parser("report", parents=[seeded])
    p.set_defaults(fn=cmd_report)
    return parser


# Built on the first main call and kept: a parser is a web of reference
# cycles, so one per call would leave it all for the cyclic collector.
_parser: Optional[argparse.ArgumentParser] = None


def main(argv: Optional[list[str]] = None) -> int:
    global _parser
    if _parser is None:
        _parser = build_parser()
    args = _parser.parse_args(argv)
    try:
        return args.fn(args)
    except (DrawingError, EmbedderSelfCheckError, DecompositionSelfCheckError, LayoutError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_CONSTRUCTION
    except (GraphInputError, ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT


if __name__ == "__main__":
    sys.exit(main())
