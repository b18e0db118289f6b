"""Grid-structured forecasting of discussion-forum cascades.

Event streams of thread posts and replies are bucketed into a count
grid (one column per cascade, one row per time interval) with sentinel
and relative-time channels. Two dilated causal temporal-convolution
models trained on that grid predict the gap to the next thread and the
next interval's reply counts; on top of them sit closed-loop cascade
simulation, breakout identification, and an evaluation harness.
"""

from .checkpoint import (
    CheckpointCorruptError,
    CheckpointError,
    CheckpointFormatError,
    CheckpointVersionError,
    load_checkpoint,
    save_checkpoint,
)
from .forecast import (
    BreakoutCurvePoint,
    BreakoutVerdict,
    ForecastState,
    adaptive_forecast,
    average_cascade_size,
    breakout_classify,
    breakout_curve,
    default_breakout_horizon,
)
from .evaluate import (
    EvalReport,
    EvalTask,
    evaluate_adaptive,
    evaluate_reply_counts,
    evaluate_thread_arrival,
)
from .experiments import SweepResult, sweep_interval_length
from .grid import (
    CHANNEL_ORDER,
    CHANNEL_SETS,
    Channel,
    EventStream,
    FeatureTensor,
    Grid,
    GridError,
    GridSpec,
    Segments,
    TargetKind,
    ThreadCascade,
    assemble_features,
    build_grid,
    gap_columns,
    rows_covering,
    frontier_segments,
    slice_segments,
    time_split,
)
from .models import (
    ModelConfig,
    ReplyCountModel,
    ThreadArrivalModel,
    TrainConfig,
    arrival_time,
    build_model,
    grid_search,
    train,
    training_segments,
)
from .synth import SynthParams, synth_generate
from .tcn import TCNStack, TemporalBlock, causality_probe, receptive_field

__version__ = "0.1.0"
