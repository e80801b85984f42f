"""The package's exported names: what ``from cachenet import *`` gives a user."""

from inspect import ismodule

import cachenet as cn

#: the public API; the perfbench workloads and demos use only these names
EXPORTED = {
    # errors
    "AlignmentBreakdown", "CachenetError", "DegenerateChannel", "DemandLengthMismatch", "DuplicateChunk",
    "EmptyNullSpace", "FieldOverflow", "IndivisibleFileSize", "InterferenceLeak", "InvalidConnectivity",
    "LengthError", "NonCanonicalInterference", "NonDistinctDemand", "NonIntegralCacheParameter", "OutOfRange",
    "PeelFailure", "ReconstructionMismatch", "RegionViolation", "SingularSystem", "UnsupportedRegime",
    # topology, channel, erasure code
    "build_topology", "index", "beamformers_for", "draw_channel", "make_beamformer", "null_space",
    "mds_decode", "mds_encode", "random_library",
    # mdsia
    "AlignmentPlan", "PieceLabel", "build_interference_matrices", "certify_alignment", "mdsia_decode_check",
    "mdsia_fronthaul", "mdsia_local_multicast", "mdsia_ndt", "mdsia_place", "mdsia_structural_ndt",
    "minimal_file_bits", "plan_alignment",
    # soft transfer and zf
    "SoftPlacement", "SoftSubfileLabel", "chunked_step_count", "minimal_soft_file_bits",
    "soft_fronthaul_bits_per_en", "soft_missing", "soft_ndt", "soft_place", "soft_schedule", "soft_simulate",
    "soft_structural_ndt", "minimal_zf_file_bits", "zf_deliver", "zf_ndt", "zf_place", "zf_structural_ndt",
    # delivery-time algebra and comparisons
    "NdtValue", "as_fraction", "compare_schemes", "convexity_check", "rho_threshold", "shared_mdsia_ndt",
    "shared_scheme_ndt", "shared_soft_ndt", "shared_zf_ndt",
}


def test_exported_names_are_pinned():
    assert {name for name in cn.__all__ if not ismodule(getattr(cn, name))} == EXPORTED
