//! # hetero-spmm
//!
//! A from-scratch Rust reproduction of **"A Novel Heterogeneous Algorithm
//! for Multiplying Scale-Free Sparse Matrices"** (Ramamoorthy, Banerjee,
//! Srinathan, Kothapalli; 2015): Algorithm **HH-CPU**, which multiplies two
//! scale-free sparse matrices on a CPU+GPU platform by routing high-density
//! rows to the CPU (cache blocking) and low-density rows to the GPU
//! (warp-per-row), balancing the mixed products through a double-ended
//! work queue.
//!
//! No GPU is required: the heterogeneous platform is a deterministic
//! simulator ([`hetsim`]) calibrated to the paper's i7-980 + Tesla K20c
//! testbed. Every kernel computes real numerics; only *durations* are
//! simulated. See `DESIGN.md` for the substitution rationale and
//! `EXPERIMENTS.md` for the paper-vs-measured record.
//!
//! ## Quickstart
//!
//! ```
//! use hetero_spmm::prelude::*;
//!
//! // a scale-free matrix (power-law row sizes, like webbase-1M)
//! let a = scale_free_matrix::<f64>(&GeneratorConfig::square_power_law(
//!     2_000, 10_000, 2.1, 42,
//! ));
//!
//! // multiply A × A with the paper's Algorithm HH-CPU on the simulated
//! // CPU+GPU platform
//! let mut ctx = HeteroContext::paper();
//! let out = hh_cpu(&mut ctx, &a, &a, &HhCpuConfig::default());
//!
//! println!("C has {} nonzeros", out.c.nnz());
//! println!("simulated time: {:.3} ms", out.total_ns() / 1e6);
//! println!("phase II+III share: {:.1}%", out.profile.compute_fraction() * 100.0);
//! # assert!(out.c.nnz() > 0);
//! ```
//!
//! ## Crate map
//!
//! | module | crate | contents |
//! |---|---|---|
//! | [`sparse`] | `spmm-sparse` | CSR/CSC/COO, Matrix Market I/O, reference kernels |
//! | [`scalefree`] | `spmm-scalefree` | power-law generators & fitting, Table I catalog |
//! | [`cache`] | `spmm-cache` | set-associative cache hierarchy simulator |
//! | [`parallel`] | `spmm-parallel` | thread pool, parallel sort/scan |
//! | [`workqueue`] | `spmm-workqueue` | the paper's double-ended work queue |
//! | [`hetsim`] | `spmm-hetsim` | CPU/GPU/PCIe device models, phase profiles |
//! | [`core`] | `spmm-core` | Algorithm HH-CPU + every baseline of the evaluation |

pub mod figures;
pub mod serve;

pub use spmm_cache as cache;
pub use spmm_core as core;
pub use spmm_hetsim as hetsim;
pub use spmm_parallel as parallel;
pub use spmm_scalefree as scalefree;
pub use spmm_sparse as sparse;
pub use spmm_workqueue as workqueue;

/// One-stop imports for applications.
pub mod prelude {
    pub use spmm_core::{
        csrmm::{cpu_csrmm, csrmm_compute, gpu_csrmm, hh_csrmm},
        cusparse_like, hh_cpu, hh_cpu_sharded, hipc2012, hipc2012_with, mkl_like, sorted_workqueue,
        sorted_workqueue_with, unsorted_workqueue, unsorted_workqueue_with, ExecPolicy,
        HeteroContext, HhCpuConfig, PhaseBreakdown, Platform, ShardConfig, ShardPlan,
        ShardedOutput, SpmmOutput, ThresholdPolicy, WorkUnitConfig,
    };
    pub use spmm_scalefree::{
        fit_power_law, rmat, scale_free_matrix, Dataset, GeneratorConfig, PowerLawSampler,
        RowSizeDistribution, CATALOG,
    };
    pub use spmm_sparse::{
        reference, CooMatrix, CscMatrix, CsrMatrix, DenseMatrix, RowHistogram, Scalar,
    };
}
