"""Deterministic simulator of a software-configurable processor's
extension-instruction fabric, with fixed-point color conversion and
histogram-equalization workloads and a calibrated cycle-cost model."""

from .cycle_model import (
    CALIBRATION_MEASUREMENTS,
    CalibrationProfile,
    CycleReport,
    InvocationMismatch,
    ReportOverflow,
    Underdetermined,
    UnknownKernelConfig,
    builtin_profile,
    estimate,
    fit_profile,
    format_profile,
    load_profile,
    mode_lanes,
    parse_profile,
    resolve_profile,
)
from .colorspace import (
    CONVERT_MODES,
    ConversionMatrix,
    RGB2CMY,
    RGB2YIQ,
    ROUNDTRIP_MAX_ERROR,
    SweepResult,
    YIQ2RGB,
    apply_matrix_np,
    convert_image,
    convert_px,
    matrix_ei,
    rgb_to_yiq_px,
    roundtrip_sweep,
    yiq_to_rgb_px,
)
from .fabric import (
    ALLOWED_OPS,
    ArityViolation,
    BankConflict,
    CounterOverflow,
    ExtensionInstruction,
    FabricError,
    ForbiddenOperation,
    InvocationLog,
    IramState,
    PackOverflow,
    RangeError,
    ResourceExceeded,
    ResourceLedger,
    WideRegister,
    ei_execute,
    ei_execute_batch,
    ei_validate,
    wr_pack,
    wr_unpack,
)
from .fixed_point import clamp_u8, div256_trunc, mul_acc3
from .histeq import (
    EmptyImage,
    HISTEQ_MODES,
    build_lut,
    ei_subhist16,
    ei_transform16,
    histeq_image,
    lut_replicate,
    merge_cumulative,
)
from .image_io import (
    ChannelMismatch,
    ImageBuffer,
    MalformedHeader,
    PnmError,
    TruncatedData,
    UnsupportedMaxval,
    read_pnm,
    to_gray,
    write_pnm,
)

__version__ = "0.1.0"
