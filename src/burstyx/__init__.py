"""Bursty two-pair MIMO cross channel: constructions, bounds, simulation.

Two transmitter-receiver pairs share a band; each of the four links is on
independently with probability p in every slot, and both ends learn the
slot's topology. This package builds the linear coding schemes that exploit
topology knowledge, verifies them numerically on random channels, evaluates
the closed-form degrees-of-freedom results they achieve, and reproduces
those values by scheduling codes over sampled slot sequences.
"""

from .channel import (
    ChannelSet,
    Dimensions,
    TOPOLOGIES,
    TOPOLOGY_BY_INDEX,
    Topology,
    sample_channels,
    sample_topology_counts,
    sample_topology_indices,
    topology_probability,
)
from .linalg import (
    alignment_block,
    null_space_basis,
    paired_alignment,
    pseudo_inverse,
    solve_exact,
)
from .schemes import (
    Carrier,
    CodeScheme,
    EffectiveChannel,
    Variable,
    effective_channel,
)
from .decode import (
    DecodeError,
    VerifyResult,
    sic_decode,
    verify_decodability,
)
from .builders import (
    build_block_ia_precoder,
    build_f_fallback,
    build_refined_ia_precoder,
    build_single_topology_code,
    build_z_pair_code,
    build_zf_code,
)
from .formulas import (
    DofProfile,
    GapResult,
    baseline_normalized,
    composite_achievable,
    dof_profile,
    lower_bound,
    max_gap_search,
    normalized_dof,
    per_topology_baseline,
    single_slot_symbols,
    upper_bound_a,
    upper_bound_b,
)
from .sim import Allocation, SimResult, run_simulation, schedule_codes

__version__ = "0.1.0"

__all__ = [
    "ChannelSet",
    "Dimensions",
    "TOPOLOGIES",
    "TOPOLOGY_BY_INDEX",
    "Topology",
    "sample_channels",
    "sample_topology_counts",
    "sample_topology_indices",
    "topology_probability",
    "alignment_block",
    "null_space_basis",
    "paired_alignment",
    "pseudo_inverse",
    "solve_exact",
    "Carrier",
    "CodeScheme",
    "EffectiveChannel",
    "Variable",
    "effective_channel",
    "DecodeError",
    "VerifyResult",
    "sic_decode",
    "verify_decodability",
    "build_block_ia_precoder",
    "build_f_fallback",
    "build_refined_ia_precoder",
    "build_single_topology_code",
    "build_z_pair_code",
    "build_zf_code",
    "DofProfile",
    "GapResult",
    "baseline_normalized",
    "composite_achievable",
    "dof_profile",
    "lower_bound",
    "max_gap_search",
    "normalized_dof",
    "per_topology_baseline",
    "single_slot_symbols",
    "upper_bound_a",
    "upper_bound_b",
    "Allocation",
    "SimResult",
    "run_simulation",
    "schedule_codes",
    "__version__",
]
