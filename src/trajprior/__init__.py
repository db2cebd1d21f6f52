"""Trajectory map-prior toolkit.

Converts crowdsourced vehicle trajectories into map-prior representations
(density/direction heatmaps, representative trajectory tokens), provides
gradient-verified alignment/fusion kernels, and scores priors against
ground-truth lane centerlines.
"""

from .core import (ContractError, FeatureMap, GridSpec, Heatmap, Trajectory,
                   TrajectorySet, fold_axial)
from .ingest import (IngestConfig, ParseError, filter_by_length,
                     parse_centerlines, parse_trajectories, retention_check,
                     serialize_centerlines, serialize_trajectories, smooth,
                     smooth_set, synth_scene)
from .metrics import ae_dist, ae_type, iou, prior_iou
from .raster import (heatmap_to_feature, rasterize_polylines,
                     rasterize_trajectories)
from .selection import (ClusterResult, SampleResult, fps, frechet_dist, kmeans,
                        resample)

__version__ = "0.1.0"

__all__ = [
    "ContractError", "Trajectory", "TrajectorySet",
    "GridSpec", "Heatmap", "FeatureMap",
    "fold_axial", "IngestConfig", "ParseError",
    "parse_trajectories", "parse_centerlines", "serialize_trajectories",
    "serialize_centerlines", "filter_by_length", "smooth", "smooth_set",
    "retention_check", "synth_scene", "rasterize_trajectories",
    "rasterize_polylines", "heatmap_to_feature",
    "ClusterResult", "SampleResult", "resample",
    "frechet_dist", "kmeans", "fps",
    "iou", "prior_iou", "ae_type", "ae_dist",
]
