"""Cache-aided delivery over relay networks with overlapping coverage.

Exact-combinatorics implementations of three placement/delivery schemes for
a network where H edge nodes, fed by a cloud over finite fronthaul links,
serve C(H, r) receivers (one per r-subset of edge nodes):

- erasure-coded placement with aligned-interference delivery (``mdsia``),
- cloud-assisted zero-forcing with subset placement (``soft_transfer``),
- cloud-free zero-forcing for large combined caches (``zf``),

plus exact-rational delivery-time algebra (``ndt``), the scheme registry
and all-scheme comparisons (``schemes``), channel/beamforming numerics
(``channel``), fixture rendering (``fixtures``), and a CLI (``cachenet``).
"""

from .channel import beamformers_for, draw_channel, make_beamformer, null_space
from .errors import (
    AlignmentBreakdown,
    CachenetError,
    DegenerateChannel,
    DemandLengthMismatch,
    DuplicateChunk,
    EmptyNullSpace,
    FieldOverflow,
    IndivisibleFileSize,
    InterferenceLeak,
    InvalidConnectivity,
    LengthError,
    NonCanonicalInterference,
    NonDistinctDemand,
    NonIntegralCacheParameter,
    OutOfRange,
    PeelFailure,
    ReconstructionMismatch,
    RegionViolation,
    SingularSystem,
    UnsupportedRegime,
)
from .mdscode import mds_decode, mds_encode, random_library
from .mdsia import (
    AlignmentPlan,
    PieceLabel,
    build_interference_matrices,
    certify_alignment,
    mdsia_decode_check,
    mdsia_fronthaul,
    mdsia_local_multicast,
    mdsia_ndt,
    mdsia_place,
    mdsia_structural_ndt,
    minimal_file_bits,
    plan_alignment,
)
from .ndt import NdtValue, as_fraction
from .schemes import (
    compare_schemes,
    convexity_check,
    rho_threshold,
    shared_mdsia_ndt,
    shared_scheme_ndt,
    shared_soft_ndt,
    shared_zf_ndt,
)
from .soft_transfer import (
    SoftPlacement,
    SoftSubfileLabel,
    chunked_step_count,
    minimal_soft_file_bits,
    soft_fronthaul_bits_per_en,
    soft_missing,
    soft_ndt,
    soft_place,
    soft_schedule,
    soft_simulate,
    soft_structural_ndt,
)
from .topology import build_topology, index
from .zf import minimal_zf_file_bits, zf_deliver, zf_ndt, zf_place, zf_structural_ndt

__all__ = [name for name in dir() if not name.startswith("_")]

__version__ = "1.0.0"
