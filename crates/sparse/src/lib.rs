//! Sparse matrix substrate for the HH-CPU heterogeneous spmm reproduction.
//!
//! Provides the storage formats the paper's algorithms operate on:
//!
//! * [`CsrMatrix`] — compressed sparse row, the working format for every
//!   row-row kernel (the paper's §II-A formulation walks rows of `A` and
//!   rows of `B`).
//! * [`CooMatrix`] — coordinate triplets `⟨r, c, v⟩`, the intermediate the
//!   paper's Phase IV merges (§III-D).
//! * [`CscMatrix`] — compressed sparse column, used for transposes.
//! * [`DenseMatrix`] — dense reference used by tests and by the `csrmm`
//!   (sparse × dense) extension sketched in the paper's conclusion.
//!
//! plus Matrix Market I/O ([`io`]), row-size histograms ([`histogram`] — the
//! raw material of the paper's Figures 1 and 5), serial reference kernels
//! ([`reference`](mod@reference): the Gustavson product every parallel/heterogeneous
//! algorithm is tested against, and the claims oracle the host engine's
//! executor is pinned against bit for bit), and the Gustavson sparse
//! accumulator ([`accumulator`]) behind the host-side numeric engine.

pub mod accumulator;
pub mod coo;
pub mod csc;
pub mod csr;
pub mod dense;
pub mod error;
pub mod histogram;
pub mod io;
pub mod reference;
pub mod scalar;
pub mod workspace;

pub use accumulator::{Lane, RowSizer, SparseAccumulator};
pub use coo::CooMatrix;
pub use csc::CscMatrix;
pub use csr::CsrMatrix;
pub use dense::DenseMatrix;
pub use error::SparseError;
pub use histogram::RowHistogram;
pub use scalar::Scalar;
pub use workspace::{Pooled, PooledSizer, PooledWorkspace, WorkspacePool};

/// Index type used for column indices. `u32` halves the memory traffic of the
/// kernels relative to `usize`; all matrices in the paper's dataset fit
/// comfortably (largest is cit-Patents at 3.77M rows).
pub type ColIndex = u32;
