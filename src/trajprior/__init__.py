"""Trajectory map priors. Import each name from its module; the package binds
only ``__version__``. ``core``: types, limits, arc-length sampler, Pcg64.
``ingest``: trajectory and centerline files, filters, smoothing, synth scenes.
``raster``: heatmaps and masks. ``selection``: resampling, Frechet distance,
K-means, FPS. ``fusion``: alignment and fusion stages with their adjoints.
``metrics``: IoU, AE_type, AE_dist. ``tensorio``: ``.tp`` files. ``cli``: CLI.
"""

__version__ = "0.1.0"
