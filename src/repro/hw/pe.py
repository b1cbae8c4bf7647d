"""Processing-element models: linear (multiplier) vs log (LUT + shift).

Each PE integrates one output neuron's membrane: per input spike it
multiplies the decoded kernel value by the synaptic weight and
accumulates (Eq. 4).  The baseline *linear* PE does this with a real
multiplier on the decoded value; the proposed *log* PE exploits that both
operands are powers of two (Sec. 3.2) and reduces the multiply to an
integer add in the log domain followed by LUT + shift (Eq. 17).

This module holds their area/energy cost breakdowns (used by the Fig. 6
and Table 4 models); the log PE's functional datapath is
:class:`repro.quant.lut.LogDomainPE`.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict

from .config import HwConfig
from . import energy as en


# ----------------------------------------------------------------------
# Cost models
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class PECost:
    """Area (um^2) and per-op energy (pJ) of one PE, itemised."""

    style: str
    area_breakdown: Dict[str, float]
    energy_breakdown: Dict[str, float]

    @property
    def area_um2(self) -> float:
        return sum(self.area_breakdown.values())

    @property
    def energy_pj_per_op(self) -> float:
        return sum(self.energy_breakdown.values())


def linear_pe_cost(cfg: HwConfig, weight_bits: int | None = None) -> PECost:
    """Cost of the baseline multiplier PE.

    The baseline processes 8-bit linear weights (T2FSNN has no log
    quantisation) against the decoded kernel magnitude.
    """
    wb = weight_bits if weight_bits is not None else 8
    mult = en.multiplier(wb, cfg.kernel_value_bits)
    add = en.adder(cfg.vmem_bits)
    vreg = en.register(cfg.vmem_bits)
    area = {
        "multiplier": mult.area_um2,
        "accumulator": add.area_um2,
        "vmem_reg": vreg.area_um2,
        "control": en.PE_CONTROL_UM2,
    }
    eng = {
        "multiplier": mult.energy_pj,
        "accumulator": add.energy_pj,
        "vmem_reg": vreg.energy_pj,
        "control": en.PE_CONTROL_PJ_PER_OP,
    }
    return PECost(style="linear", area_breakdown=area, energy_breakdown=eng)


def log_pe_cost(cfg: HwConfig) -> PECost:
    """Cost of the proposed log PE: log-add + frac LUT + barrel shift."""
    frac_bits = 2  # tau=4, z_w=1 -> max 2 fractional bits (Eq. 16/18)
    log_add = en.adder(cfg.timestep_bits + frac_bits)
    lut = en.small_lut(1 << frac_bits, cfg.kernel_value_bits)
    shift = en.shifter(cfg.vmem_bits)
    add = en.adder(cfg.vmem_bits)
    vreg = en.register(cfg.vmem_bits)
    area = {
        "log_adder": log_add.area_um2,
        "frac_lut": lut.area_um2,
        "shifter": shift.area_um2,
        "accumulator": add.area_um2,
        "vmem_reg": vreg.area_um2,
        "control": en.PE_CONTROL_UM2,
    }
    eng = {
        "log_adder": log_add.energy_pj,
        "frac_lut": lut.energy_pj,
        "shifter": shift.energy_pj,
        "accumulator": add.energy_pj,
        "vmem_reg": vreg.energy_pj,
        "control": en.PE_CONTROL_PJ_PER_OP,
    }
    return PECost(style="log", area_breakdown=area, energy_breakdown=eng)


def pe_cost(cfg: HwConfig) -> PECost:
    return log_pe_cost(cfg) if cfg.pe_style == "log" else linear_pe_cost(cfg)


# ----------------------------------------------------------------------
# Spike decoder (the Fig. 6 'Decoder' bar)
# ----------------------------------------------------------------------

@dataclass(frozen=True)
class DecoderCost:
    """Kernel-decode storage per PE group.

    * ``sram``: T2FSNN needs a reconfigurable table per layer (different
      t_d/tau per layer), so each group holds num_layers * (T+1) decoded
      magnitudes in an SRAM macro, read every processed spike.
    * ``lut``: CAT unifies the kernel, so one combinational (T+1)-entry
      LUT per group suffices.
    """

    style: str
    area_um2_per_group: float
    energy_pj_per_access: float


def decoder_cost(cfg: HwConfig) -> DecoderCost:
    entries = cfg.window + 1
    if cfg.decoder_style == "sram":
        bits = cfg.num_layer_kernels * entries * cfg.kernel_value_bits
        macro = en.sram_macro(bits / 8 / 1024)
        per_access = en.SRAM_ACCESS_PJ + en.SRAM_RD_PJ_PER_BIT * cfg.kernel_value_bits
        return DecoderCost("sram", macro.area_um2, per_access)
    lut = en.small_lut(entries, cfg.kernel_value_bits)
    return DecoderCost("lut", lut.area_um2, lut.energy_pj)
