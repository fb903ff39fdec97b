"""Physics-based ground reaction dynamics from root trajectories.

Submodules:
    motion_data   clip/plate data model, CSV + manifest I/O
    synthetic     deterministic synthetic motion generators
    dynamics      PD force estimation and semi-implicit Euler simulation
    calibration   gain grid search scored by root position error
    metrics       vertical force MSE, root position error, tables, splits
    grf_model     temporal-convolution force predictor and training loop
    svgplot       static SVG chart emission
    cli           command-line front end
"""

from .motion_data import (
    Dataset,
    DatasetEntry,
    ForcePlateRecord,
    GravitySpec,
    MotionClip,
    finite_diff_velocity,
    load_clip_csv,
    load_force_plate,
    load_manifest,
    write_clip_csv,
    write_force_plate,
    write_manifest,
)
from .synthetic import gen_synthetic, make_dataset
from .dynamics import (
    PDGains,
    SimResult,
    euler_step,
    pd_force,
    physics_force_series,
    rollout_forces,
    simulate,
)
from .calibration import DEFAULT_GAIN_CELLS, CalibrationReport, GainGrid, calibrate
from .metrics import MetricTable, aggregate, loso_splits, vgrf_mse, vrpe
from .grf_model import (
    Prediction,
    TemporalConvNet,
    TrainConfig,
    composite_loss,
    elu,
    train,
)

__version__ = "0.1.0"
