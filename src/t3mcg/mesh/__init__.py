from .surface import (
    ResolutionError,
    SampleOnSurfaceError,
    TriMesh,
    build_surface,
    edge_map,
    export_off,
    half_translation_vertex_map,
    load_off_counts,
    validate_surface,
)

__all__ = [
    "ResolutionError",
    "SampleOnSurfaceError",
    "TriMesh",
    "build_surface",
    "edge_map",
    "export_off",
    "half_translation_vertex_map",
    "load_off_counts",
    "validate_surface",
]
