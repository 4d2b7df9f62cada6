//! Row binning for the adaptive accumulator engine.
//!
//! Scale-free inputs (§II, Fig. 1) spread intermediate row sizes over
//! orders of magnitude, so one accumulator shape cannot fit every output
//! row. The batched executor routes each row by its structural upper
//! bound — or, for the heavy rows that keep a symbolic pass, by its exact
//! nnz — to the cheapest accumulator that holds it (Liu & Vinter's
//! size-binned dispatch, specialised to our bit-identical contract):
//!
//! * [`RowBin::Copy`] — rows fed by exactly one masked B row. The output
//!   is `a_ij × B[j, :]` verbatim: each column is touched exactly once and
//!   B's columns are already ascending, so no accumulator runs at all.
//! * [`RowBin::List`] — tiny rows (`nnz ≤ list_max`); sorted-insertion
//!   list, no O(ncols) state, no sort at drain.
//! * [`RowBin::Hash`] — mid-size rows (`nnz ≤ hash_max`); open-addressing
//!   table whose working set is a few tens of KB.
//! * [`RowBin::Dense`] — hub rows; the classic dense SPA.
//!
//! Guided chunk sizes are bin-aware: hub bins get small chunks (each row
//! is a lot of work, so fine-grained stealing balances better) and tail
//! bins get large chunks (each row is trivial, so scheduling overhead
//! dominates).

/// Base chunk size for guided self-scheduling over undifferentiated rows —
/// the shared definition hoisted out of `core::kernels` / `core::schedule`.
pub const GUIDED_CHUNK: usize = 16;

/// Per-thread staging budget for the fused single-pass tier, in potential
/// output entries (the [`crate::upper_bound`] bound, not exact nnz). Rows
/// at or under the budget skip the symbolic pass: they scatter once into a
/// bound-sized accumulator and drain into an exact-size staging carve-out
/// (≤ `FUSED_UB_MAX × (4 + 8)` bytes per row for f64 — comfortably inside
/// L2 next to the accumulator itself). Rows above it keep the exact
/// two-pass treatment: for hub rows the bound is loose (many colliding
/// sources), and staging a multi-MB over-allocation per row would evict
/// the very caches the accumulators are tuned for.
pub const FUSED_UB_MAX: u64 = 4096;

/// Size thresholds separating the accumulator bins, in exact output nnz.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct BinThresholds {
    /// Rows with `nnz ≤ list_max` use the sorted-insertion list.
    pub list_max: usize,
    /// Rows with `list_max < nnz ≤ hash_max` use the hash table; larger
    /// rows use the dense SPA.
    pub hash_max: usize,
}

impl Default for BinThresholds {
    fn default() -> Self {
        // list_max: insertion cost stays within ~2 cache lines of pair
        // data; hash_max: a ≤50%-load table of 2048 slots ≈ 32 KB for f64,
        // inside L1+L2 on every host we model.
        Self {
            list_max: 8,
            hash_max: 1024,
        }
    }
}

/// The accumulator bin an output row is routed to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum RowBin {
    /// Single masked source row: scaled verbatim copy, no accumulator.
    Copy,
    /// Tiny row: sorted-insertion [`crate::ListAccumulator`].
    List,
    /// Mid-size row: open-addressing [`crate::HashAccumulator`].
    Hash,
    /// Hub row: dense [`crate::SparseAccumulator`].
    Dense,
}

impl BinThresholds {
    /// Thresholds tuned to the output width. The hash table's only edge
    /// over the dense SPA is footprint — it stays inside L1/L2 while the
    /// SPA streams O(ncols) of stamps and values. When `ncols` is small
    /// enough that the SPA arrays themselves fit in cache (≲ 384 KB, i.e.
    /// `ncols < 2^15`), probing is pure overhead, so the hash bin is
    /// disabled and mid-size rows fall through to the SPA.
    pub fn for_ncols(ncols: usize) -> Self {
        let base = Self::default();
        if ncols < (1 << 15) {
            Self {
                hash_max: base.list_max,
                ..base
            }
        } else {
            base
        }
    }

    /// Route a row with exact output `nnz`, fed by `nsrc` masked B rows
    /// (callers may saturate `nsrc` at 2 — only "exactly one" matters).
    #[inline]
    pub fn classify(&self, nnz: usize, nsrc: usize) -> RowBin {
        if nsrc <= 1 {
            RowBin::Copy
        } else if nnz <= self.list_max {
            RowBin::List
        } else if nnz <= self.hash_max {
            RowBin::Hash
        } else {
            RowBin::Dense
        }
    }
}

/// Guided chunk size for a bin: large chunks for the cheap tail bins,
/// small chunks for the expensive hub bins.
#[inline]
pub fn chunk_for(bin: RowBin) -> usize {
    match bin {
        RowBin::Copy => 16 * GUIDED_CHUNK,
        RowBin::List => 8 * GUIDED_CHUNK,
        RowBin::Hash => 2 * GUIDED_CHUNK,
        RowBin::Dense => GUIDED_CHUNK / 4,
    }
}

/// Guided chunk size for a *fused* bin, where rows were routed by their
/// upper bound rather than exact nnz. [`chunk_for`]'s hub tuning does not
/// apply: every fused row is bounded by [`FUSED_UB_MAX`], so even the
/// dense-SPA fused bin holds moderate rows, and the hub-sized chunk of
/// `GUIDED_CHUNK / 4` rows per claim would drown them in claim traffic
/// (the webbase-1M fused regression in BENCH was exactly this).
#[inline]
pub fn fused_chunk_for(bin: RowBin) -> usize {
    match bin {
        RowBin::Dense => 2 * GUIDED_CHUNK,
        other => chunk_for(other),
    }
}

/// Row indices partitioned by bin, preserving ascending order within each
/// bin (order only affects scheduling; output slots are pre-offset or
/// staged).
#[derive(Debug, Clone, Default)]
pub struct RowBins {
    pub copy: Vec<u32>,
    pub list: Vec<u32>,
    pub hash: Vec<u32>,
    pub dense: Vec<u32>,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classify_respects_thresholds() {
        let t = BinThresholds::default();
        assert_eq!(t.classify(0, 0), RowBin::Copy);
        assert_eq!(t.classify(100, 1), RowBin::Copy);
        assert_eq!(t.classify(0, 2), RowBin::List);
        assert_eq!(t.classify(8, 2), RowBin::List);
        assert_eq!(t.classify(9, 2), RowBin::Hash);
        assert_eq!(t.classify(1024, 5), RowBin::Hash);
        assert_eq!(t.classify(1025, 5), RowBin::Dense);
    }

    #[test]
    fn narrow_outputs_disable_the_hash_bin() {
        let narrow = BinThresholds::for_ncols(4_000);
        assert_eq!(narrow.classify(100, 2), RowBin::Dense);
        assert_eq!(narrow.classify(8, 2), RowBin::List);
        assert_eq!(narrow.classify(100, 1), RowBin::Copy);
        let wide = BinThresholds::for_ncols(1 << 20);
        assert_eq!(wide, BinThresholds::default());
        assert_eq!(wide.classify(100, 2), RowBin::Hash);
    }

    #[test]
    fn chunks_shrink_with_row_cost() {
        assert!(chunk_for(RowBin::Copy) >= chunk_for(RowBin::List));
        assert!(chunk_for(RowBin::List) > chunk_for(RowBin::Hash));
        assert!(chunk_for(RowBin::Hash) > chunk_for(RowBin::Dense));
        assert!(chunk_for(RowBin::Dense) >= 1);
    }
}
