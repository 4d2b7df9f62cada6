//! Deterministic simulator of the paper's CPU+GPU heterogeneous platform.
//!
//! The paper evaluates on an Intel i7-980 (6 Westmere cores, 12 MB L3) plus
//! an NVIDIA Tesla K20c (Kepler: 13 SMX × 192 cores, 32-wide warps, 1.25 MB
//! L2) joined by PCIe 2.0 (§II-B). No GPU is available to this
//! reproduction, so the platform is *modelled*: every kernel's numeric work
//! runs natively on the host, while its **simulated duration** is charged
//! by the device models here. The models capture the two first-order
//! effects the paper's architecture-awareness claim rests on:
//!
//! * [`CpuDevice`] walks the kernel's memory accesses through a real
//!   set-associative cache hierarchy (`spmm-cache`), so multiplying a few
//!   long rows repeatedly (the `A_H × B_H` product) *hits* in L2/L3 and is
//!   cheap, while scattering over many short rows misses and is expensive —
//!   "the CPU … can use techniques such as cache-blocking" (§V-C).
//! * [`GpuDevice`] models warp-per-row execution in SIMD lockstep: rows are
//!   processed 32 lanes at a time, so many small independent rows saturate
//!   the machine while long irregular rows pay divergence, uncoalesced
//!   `PartialOutput` traffic, and `TR_b` column-tiling passes (§II-A-b) —
//!   "the GPU is more appropriate for multiplying rows with small density".
//! * [`PciLink`] charges transfers with the effective bandwidth the paper
//!   reports ("around 25–30 milliseconds to transfer a matrix with around 5
//!   Million nonzero entries", §IV-A).
//!
//! All model parameters live in [`platform::Platform`]; the defaults are
//! calibrated to the paper's hardware description, not to its absolute
//! timings.

pub mod cpu;
pub mod gpu;
pub mod link;
pub mod platform;
pub mod profile;

pub use cpu::CpuDevice;
pub use gpu::{
    ladder_output_widths, masked_output_widths, masked_output_widths_for_pooled,
    masked_output_widths_pooled, GpuDevice, Phase2Price,
};
pub use link::PciLink;
pub use platform::{CpuSpec, GpuSpec, LinkSpec, Platform};
pub use profile::{DeviceKind, PhaseBreakdown, PhaseTimes};

/// Simulated nanoseconds. A plain `f64`: phases compose by `+` and
/// overlapped execution by `max`, and sub-nanosecond kernel-step costs
/// accumulate without rounding.
pub type SimNs = f64;
