"""Online convex optimization with delayed context and correlation-guided updates."""

from .environment import (
    Batch,
    ConfigError,
    ExplicitStream,
    GaussianStream,
    LinearScoring,
    PolygonStream,
    StreamExhausted,
    draw,
    fixed_loss,
    run_game,
    uniform_quadratic,
)
from .evaluation import (
    AggregateCurves,
    OfflineSolution,
    RegretReport,
    ScalingFit,
    Trajectory,
    aggregate,
    fit_scaling,
    offline_optimum,
    regret,
    write_csv,
)
from .feedback import (
    DelaySchedule,
    ExplicitDelay,
    FeedbackBuffer,
    FixedDelay,
    RandomDelay,
    delays_from_file,
)
from .geometry import (
    Ball,
    Box,
    ConvexBody,
    EuclideanMap,
    MirrorMap,
    NegativeEntropyMap,
    Polygon,
    Simplex,
    as_vector,
    regular_polygon,
)
from .learners import (
    ConstantStep,
    GradientLearner,
    InverseSqrtStep,
    InverseTimeStep,
    NaiveLearner,
    NonFiniteGradient,
    StepSchedule,
    eta_for_arbitrary_delay,
    sigma_for_mirror,
)
from .losses import ExpLoss, Loss, NormLoss, PowerLoss, QuadraticLoss

__version__ = "0.1.0"
