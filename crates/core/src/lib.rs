//! Algorithm **HH-CPU** — the paper's primary contribution — plus every
//! baseline its evaluation compares against.
//!
//! The paper ("A Novel Heterogeneous Algorithm for Multiplying Scale-Free
//! Sparse Matrices", 2015) multiplies two scale-free sparse matrices on a
//! CPU+GPU platform by splitting each input into high-density (`A_H`,
//! `B_H`) and low-density (`A_L`, `B_L`) row sets and routing the four
//! partial products to the device each suits (§III):
//!
//! * **Phase I** ([`threshold`]) — pick the density thresholds `t_A`, `t_B`
//!   and classify rows (Boolean array, computed on the GPU).
//! * **Phase II** ([`hhcpu`]) — `A_H × B_H` on the CPU (cache blocking)
//!   overlapped with `A_L × B_L` on the GPU (warp-per-row).
//! * **Phase III** — `A_L × B_H` and `A_H × B_L` balanced through the
//!   double-ended work queue (`spmm-workqueue`).
//! * **Phase IV** ([`schedule`]) — sum each output row's partial products
//!   into the output CSR. The simulated devices charge the paper's recipe
//!   over `⟨r, c, v⟩` tuples (sort → mark → scan → segmented add); the host
//!   engine sums each row in place, pinned bit for bit against the serial
//!   oracle `spmm_sparse::reference::spmm_claims`.
//!
//! Baselines: [`hipc2012`](mod@hipc2012) (the static-partition heterogeneous algorithm of
//! the paper's reference \[13\]), [`wq_baselines`] (Algorithm
//! Unsorted-Workqueue and Algorithm Sorted-Workqueue of §V-C), and
//! [`vendor`] (MKL-like CPU-only and cuSPARSE-like GPU-only stand-ins for
//! the Figure 6 footnote). [`csrmm`] implements the sparse × dense
//! extension the paper sketches in its conclusion (§VI).
//!
//! All algorithms produce numerically real results (tested against the
//! serial Gustavson reference) and a simulated [`PhaseBreakdown`] from the
//! `spmm-hetsim` device models.

pub mod context;
pub mod csrmm;
pub mod hhcpu;
pub mod hipc2012;
pub mod kernels;
pub mod result;
pub mod schedule;
pub mod shard;
pub mod threshold;
pub mod units;
pub mod vendor;
pub mod wq_baselines;

pub use context::HeteroContext;
pub use hhcpu::{hh_cpu, hh_cpu_with_artifacts, HhCpuConfig, SpmmArtifacts};
pub use hipc2012::{hipc2012, hipc2012_with};
pub use result::SpmmOutput;
pub use schedule::{ClaimSchedule, ExecCounts, ExecPolicy, ScheduledClaim};
pub use shard::{
    concat_row_bands, hh_cpu_sharded, hh_cpu_sharded_with_artifacts,
    try_hh_cpu_sharded_with_artifacts, PipelineStats, ShardConfig, ShardPlan, ShardedOutput,
};
pub use threshold::{identify_plan, Phase1Plan, SymbolicStructure, ThresholdPolicy, Thresholds};
pub use units::WorkUnitConfig;
pub use vendor::{cusparse_like, mkl_like};
pub use wq_baselines::{
    sorted_workqueue, sorted_workqueue_with, unsorted_workqueue, unsorted_workqueue_with,
};

pub use spmm_hetsim::{PhaseBreakdown, PhaseTimes, Platform, SimNs};
pub use spmm_sparse::WorkspacePool;
