"""Crowd-flow interval series construction, augmentation and anomaly detection."""

from .augment import (
    GroupedStats,
    GroupKey,
    extend_backward,
    grouped_stats,
    partition_for_stats,
)
from .detect import (
    CollectiveAnomaly,
    EsdConfig,
    PointAnomaly,
    ThresholdSpec,
    collective_anomalies,
    compute_threshold,
    esd_test,
    seasonal_esd,
)
from .ingest import (
    DetectionRecord,
    FrameGeometry,
    MaskGeometry,
    Segment,
    filter_by_class,
    parse_segment_csv,
    rasterize_mask,
)
from .loess import loess_smooth
from .pipeline import PipelineConfig, run_pipeline
from .series import (
    IntervalSeries,
    count_series,
    heatmap_series,
    saturation_value,
)
from .stl import StlConfig, StlDecomposition, seasonal_strength, stl_decompose
from .synth import SyntheticScenario, generate_fixture

__version__ = "0.1.0"
