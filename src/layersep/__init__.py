"""Layered separators, decompositions, layouts, colourings, drawings.

The pipeline: embed or accept a graph, build a layered tree
decomposition (planar / bounded-genus / clique-sum inputs), extract
balanced layered separators, and convert them into track layouts, queue
layouts, nonrepetitive colourings, and 3D grid drawings.  Every artifact
has an independent verifier that shares no code with its construction
(the brute-force searches they replaced serve as test oracles);
verifiers, not constructions, are the source of truth.
"""

from .graphs import (
    Graph,
    GraphInputError,
    Layering,
    Report,
    Separation,
    bfs_layering,
    format_graph,
    format_layering,
    parse_graph,
    parse_layering,
    validate_layering,
    validate_separation,
)
from .embedding import (
    EmbeddedGraph,
    EmbedderSelfCheckError,
    EmbeddingError,
    embed_planar,
    format_rotation_system,
    parse_rotation_system,
    triangulate,
)
from .decomposition import (
    BoundReport,
    DecompositionError,
    DecompositionSelfCheckError,
    GenusDecompositionResult,
    LayeredDecomposition,
    TreeDecomposition,
    bound_report,
    clique_sum_compose,
    decomposition_separation_oracle,
    exact_treewidth,
    format_decomposition,
    format_layered_decomposition,
    genus_layered_decomposition,
    layered_separation,
    norin_treewidth,
    parse_decomposition,
    parse_layered_decomposition,
    planar_good_provider,
    separator_from_decomposition,
    small_good_provider,
    treedec_from_separations,
    validate_tree_decomposition,
)
from .layouts import (
    ComputeLabels,
    LayoutError,
    QueueLayout,
    TrackLayout,
    compute_recursion,
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
    Colouring,
    LayerPatternColouring,
    format_colouring,
    layer_pattern_colouring,
    nonrep_bound,
    nonrep_from_compute,
    parse_colouring,
    shadow_nonrep_compose,
    verify_layer_pattern,
    verify_nonrepetitive,
    verify_proper,
)
from .shadow import (
    RichDecomposition,
    ShadowError,
    ShadowLayering,
    format_rich,
    parse_rich,
    recursive_nonrep_driver,
    recursive_track_driver,
    rich_shadow_layering,
    shadow_track_compose,
    validate_rich,
    verify_shadow_complete,
)
from .drawing3d import (
    DrawingError,
    GridDrawing3D,
    VolumeReport,
    draw_from_tracks,
    export_obj,
    export_svg,
    format_drawing,
    parse_drawing,
    verify_drawing,
    volume_report,
)
from .generators import Fixture, Lcg, gen

__all__ = [name for name in dir() if not name.startswith("_")]
