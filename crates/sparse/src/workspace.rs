//! Pooled per-thread engine workspaces.
//!
//! Every numeric pass needs O(ncols) dense state: the SPAs' stamp/value
//! arrays, or the sizer's stamp array for a symbolic pass (the GPU model's
//! output-width tables). Without pooling, every executed schedule and
//! every width table of a Phase-I ladder candidate would allocate and zero
//! that state from scratch on every worker thread. The pool makes the
//! allocation once per thread slot and generation-reuses it forever.
//!
//! Lifetime rules:
//!
//! * A workspace is checked out for the duration of one worker's run over
//!   one guided loop (the `init` closure of `for_each_guided_with`
//!   acquires; the guard's `Drop` returns it when the worker exits).
//! * Checked-in workspaces are width-agnostic: `acquire` grows the dense
//!   arrays to the requested `ncols` on the way out (`ensure_ncols` keeps
//!   stale generation stamps sound), so one pool serves matrices of any
//!   shape, and the pool never shrinks.
//! * The pool is `Sync`; checkout is a short mutex pop, never held across
//!   row work. Distinct scalar types coexist keyed by `TypeId`.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use crate::{ColIndex, RowSizer, Scalar, SparseAccumulator};

/// Staging arena for the batched executor: every output row drains here,
/// into an exact-size carve-out appended to two progressively-growing SoA
/// vectors. The compaction pass later memcpys each carved run into its
/// final CSR slot once the exclusive scan has fixed the offsets.
///
/// Lifetime: a worker checks a buffer out of the [`WorkspacePool`] for one
/// pass and stages rows into it; buffers holding staged data are handed
/// to the compaction stage (not returned to the pool — the data must
/// outlive the worker), then cleared and released with
/// [`WorkspacePool::release_staging`].
#[derive(Debug, Default)]
pub struct StagingBuffer<T> {
    /// `(row key, start offset into cols/vals)` per staged row, in staging
    /// order. A row's run (its exact drained nnz) ends where the next
    /// staged row starts, or at the end of `cols`, so it is not stored.
    pub rows: Vec<(u32, usize)>,
    /// Carved column runs.
    pub cols: Vec<ColIndex>,
    /// Carved value runs.
    pub vals: Vec<T>,
}

impl<T: Scalar> StagingBuffer<T> {
    /// Empty arena; the vectors grow to the high-water mark and stay.
    pub fn new() -> Self {
        Self {
            rows: Vec::new(),
            cols: Vec::new(),
            vals: Vec::new(),
        }
    }

    /// Drain `acc` (sorted ascending) into a fresh exact-size carve-out
    /// and record it under `key`. Returns the row's exact nnz.
    pub fn stage(&mut self, key: u32, acc: &mut SparseAccumulator<T>) -> usize {
        let n = acc.nnz();
        let start = self.cols.len();
        self.cols.resize(start + n, 0);
        self.vals.resize(start + n, T::ZERO);
        acc.drain_sorted_into(&mut self.cols[start..], &mut self.vals[start..]);
        self.rows.push((key, start));
        n
    }

    /// Rows currently staged.
    pub fn staged_rows(&self) -> usize {
        self.rows.len()
    }

    /// True when nothing has been staged since the last clear.
    pub fn is_empty(&self) -> bool {
        self.rows.is_empty()
    }

    /// Forget all staged rows, keeping the allocations.
    pub fn clear(&mut self) {
        self.rows.clear();
        self.cols.clear();
        self.vals.clear();
    }
}

/// Everything one worker thread needs for the numeric pass: the dense SPA
/// and a second one the batched executor folds multi-claim rows into.
#[derive(Debug)]
pub struct EngineWorkspace<T> {
    /// Dense SPA, the numeric accumulator (O(ncols) values + stamps).
    pub spa: SparseAccumulator<T>,
    /// Second dense SPA: the fold target of a row's per-claim runs.
    pub outer: SparseAccumulator<T>,
}

impl<T: Scalar> EngineWorkspace<T> {
    /// Workspace covering outputs with `ncols` columns.
    pub fn new(ncols: usize) -> Self {
        Self {
            spa: SparseAccumulator::new(ncols),
            outer: SparseAccumulator::new(ncols),
        }
    }

    /// Grow the dense members to cover at least `ncols` columns.
    pub fn ensure_ncols(&mut self, ncols: usize) {
        self.spa.ensure_ncols(ncols);
        self.outer.ensure_ncols(ncols);
    }
}

/// Thread-safe pool of [`EngineWorkspace`]s and bare [`RowSizer`]s.
/// Checkout pops from a free list (or builds fresh on a dry pool); the
/// guard's `Drop` pushes back. Lives on `HeteroContext` so state survives
/// across products, ladder candidates, and repeated multiplies.
#[derive(Default)]
pub struct WorkspacePool {
    sizers: Mutex<Vec<RowSizer>>,
    stores: Mutex<HashMap<TypeId, Vec<Box<dyn Any + Send>>>>,
}

impl std::fmt::Debug for WorkspacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let sizers = self.sizers.lock().map(|s| s.len()).unwrap_or(0);
        let stores = self.stores.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("WorkspacePool")
            .field("idle_sizers", &sizers)
            .field("scalar_types", &stores)
            .finish()
    }
}

impl WorkspacePool {
    /// Empty pool; workspaces materialise on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out a workspace whose dense arrays cover `ncols` columns.
    pub fn acquire<T: Scalar>(&self, ncols: usize) -> PooledWorkspace<'_, T> {
        let popped = self
            .stores
            .lock()
            .unwrap()
            .get_mut(&TypeId::of::<EngineWorkspace<T>>())
            .and_then(Vec::pop);
        let mut ws = match popped {
            Some(boxed) => *boxed
                .downcast::<EngineWorkspace<T>>()
                .expect("pool entry keyed by its own TypeId"),
            None => EngineWorkspace::new(ncols),
        };
        ws.ensure_ncols(ncols);
        PooledWorkspace {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Check out a bare symbolic sizer covering `ncols` columns (the width
    /// tables need no numeric state).
    pub fn acquire_sizer(&self, ncols: usize) -> PooledSizer<'_> {
        let mut sizer = self
            .sizers
            .lock()
            .unwrap()
            .pop()
            .unwrap_or_else(|| RowSizer::new(ncols));
        sizer.ensure_ncols(ncols);
        PooledSizer {
            pool: self,
            sizer: Some(sizer),
        }
    }

    /// Check out a staging arena for one pass. Unlike `acquire`, this
    /// hands over ownership with no guard: a buffer holding staged rows
    /// must outlive the worker that filled it (the compaction stage reads
    /// it), so the batched executor routes filled buffers through a
    /// capture sink and call [`Self::release_staging`] after compaction;
    /// buffers that stay empty go straight back.
    pub fn take_staging<T: Scalar>(&self) -> StagingBuffer<T> {
        let popped = self
            .stores
            .lock()
            .unwrap()
            .get_mut(&TypeId::of::<StagingBuffer<T>>())
            .and_then(Vec::pop);
        match popped {
            Some(boxed) => *boxed
                .downcast::<StagingBuffer<T>>()
                .expect("pool entry keyed by its own TypeId"),
            None => StagingBuffer::new(),
        }
    }

    /// Return a staging arena, clearing any staged rows but keeping its
    /// allocations for the next checkout.
    pub fn release_staging<T: Scalar>(&self, mut buf: StagingBuffer<T>) {
        buf.clear();
        self.stores
            .lock()
            .unwrap()
            .entry(TypeId::of::<StagingBuffer<T>>())
            .or_default()
            .push(Box::new(buf));
    }

    /// Idle staging arenas held for scalar type `T` (test/introspection
    /// hook).
    pub fn idle_staging<T: Scalar>(&self) -> usize {
        self.stores
            .lock()
            .unwrap()
            .get(&TypeId::of::<StagingBuffer<T>>())
            .map_or(0, Vec::len)
    }

    /// Idle workspaces held for scalar type `T` (test/introspection hook).
    pub fn idle_workspaces<T: Scalar>(&self) -> usize {
        self.stores
            .lock()
            .unwrap()
            .get(&TypeId::of::<EngineWorkspace<T>>())
            .map_or(0, Vec::len)
    }

    /// Idle bare sizers held (test/introspection hook).
    pub fn idle_sizers(&self) -> usize {
        self.sizers.lock().unwrap().len()
    }
}

/// Checkout guard for an [`EngineWorkspace`]; returns it on drop.
pub struct PooledWorkspace<'p, T: Scalar> {
    pool: &'p WorkspacePool,
    ws: Option<EngineWorkspace<T>>,
}

impl<T: Scalar> Deref for PooledWorkspace<'_, T> {
    type Target = EngineWorkspace<T>;
    fn deref(&self) -> &Self::Target {
        self.ws.as_ref().expect("present until drop")
    }
}

impl<T: Scalar> DerefMut for PooledWorkspace<'_, T> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.ws.as_mut().expect("present until drop")
    }
}

impl<T: Scalar> Drop for PooledWorkspace<'_, T> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            self.pool
                .stores
                .lock()
                .unwrap()
                .entry(TypeId::of::<EngineWorkspace<T>>())
                .or_default()
                .push(Box::new(ws));
        }
    }
}

/// Checkout guard for a bare [`RowSizer`]; returns it on drop.
pub struct PooledSizer<'p> {
    pool: &'p WorkspacePool,
    sizer: Option<RowSizer>,
}

impl Deref for PooledSizer<'_> {
    type Target = RowSizer;
    fn deref(&self) -> &Self::Target {
        self.sizer.as_ref().expect("present until drop")
    }
}

impl DerefMut for PooledSizer<'_> {
    fn deref_mut(&mut self) -> &mut Self::Target {
        self.sizer.as_mut().expect("present until drop")
    }
}

impl Drop for PooledSizer<'_> {
    fn drop(&mut self) {
        if let Some(sizer) = self.sizer.take() {
            self.pool.sizers.lock().unwrap().push(sizer);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn workspace_round_trips_through_the_pool() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle_workspaces::<f64>(), 0);
        {
            let mut ws = pool.acquire::<f64>(16);
            ws.spa.scatter(3, 1.0);
            ws.spa.drain_sorted(|_, _| {});
        }
        assert_eq!(pool.idle_workspaces::<f64>(), 1);
        // second checkout reuses the same allocation, already wide enough
        let ws = pool.acquire::<f64>(8);
        assert_eq!(pool.idle_workspaces::<f64>(), 0);
        assert!(ws.spa.ncols() >= 16);
    }

    #[test]
    fn reused_workspace_state_is_clean_across_widths() {
        let pool = WorkspacePool::new();
        {
            let mut ws = pool.acquire::<f64>(4);
            ws.spa.scatter(2, 9.0);
            ws.spa.drain_sorted(|_, _| {});
            ws.outer.scatter(1, 9.0);
            ws.outer.drain_sorted(|_, _| {});
        }
        // wider checkout: grown slots and stale stamps must read untouched
        let mut ws = pool.acquire::<f64>(32);
        assert!(ws.spa.scatter(2, 1.0), "stale SPA stamp aliased");
        assert!(ws.spa.scatter(30, 1.0), "grown SPA slot not clean");
        let mut cols = Vec::new();
        ws.spa.drain_sorted(|c, _| cols.push(c));
        assert_eq!(cols, vec![2, 30]);
        assert!(ws.outer.scatter(1, 1.0), "stale fold-SPA stamp aliased");
        assert!(ws.outer.scatter(31, 1.0), "grown fold-SPA slot not clean");
    }

    #[test]
    fn soa_drains_stay_clean_through_the_pool() {
        // The vectorized bulk drain must leave a pooled workspace exactly
        // as reusable as the closure drain: generation stamps advanced, no
        // stale columns on the next checkout.
        let pool = WorkspacePool::new();
        {
            let mut ws = pool.acquire::<f64>(64);
            ws.spa.scatter(5, 1.0);
            ws.spa.scatter(2, 2.0);
            let (mut c, mut v) = (vec![0; 2], vec![0.0; 2]);
            ws.spa.drain_sorted_into(&mut c, &mut v);
            assert_eq!(c, vec![2, 5]);
        }
        let mut ws = pool.acquire::<f64>(64);
        assert!(ws.spa.scatter(5, 1.0), "stale SPA stamp after SoA drain");
        assert_eq!(ws.spa.nnz(), 1, "SPA not reset by SoA drain");
    }

    #[test]
    fn scalar_types_pool_independently() {
        let pool = WorkspacePool::new();
        drop(pool.acquire::<f64>(4));
        drop(pool.acquire::<f32>(4));
        assert_eq!(pool.idle_workspaces::<f64>(), 1);
        assert_eq!(pool.idle_workspaces::<f32>(), 1);
    }

    #[test]
    fn sizers_pool_separately_from_workspaces() {
        let pool = WorkspacePool::new();
        {
            let mut s = pool.acquire_sizer(10);
            s.mark(3);
            s.finish_row();
        }
        assert_eq!(pool.idle_sizers(), 1);
        let mut s = pool.acquire_sizer(20);
        assert!(s.ncols() >= 20);
        assert!(s.mark(3), "stale stamp aliased after pooling");
    }

    #[test]
    fn staging_carves_exact_runs_and_round_trips() {
        let pool = WorkspacePool::new();
        let mut buf = pool.take_staging::<f64>();
        let mut spa = SparseAccumulator::new(64);
        spa.scatter(7, 1.0);
        spa.scatter(3, 2.0);
        spa.scatter(7, 0.5);
        assert_eq!(buf.stage(11, &mut spa), 2);
        spa.scatter(9, 4.0);
        assert_eq!(buf.stage(12, &mut spa), 1);
        assert_eq!(buf.rows, vec![(11, 0), (12, 2)]);
        assert_eq!(buf.cols, vec![3, 7, 9]);
        assert_eq!(buf.vals, vec![2.0, 1.5, 4.0]);
        assert_eq!(buf.staged_rows(), 2);
        pool.release_staging(buf);
        assert_eq!(pool.idle_staging::<f64>(), 1);
        // the released buffer comes back cleared, allocations intact
        let buf = pool.take_staging::<f64>();
        assert!(buf.is_empty());
        assert!(buf.cols.capacity() >= 3);
        assert_eq!(pool.idle_staging::<f64>(), 0);
    }

    #[test]
    fn staging_pools_independently_of_workspaces() {
        let pool = WorkspacePool::new();
        pool.release_staging(pool.take_staging::<f64>());
        drop(pool.acquire::<f64>(4));
        assert_eq!(pool.idle_staging::<f64>(), 1);
        assert_eq!(pool.idle_workspaces::<f64>(), 1);
        assert_eq!(pool.idle_staging::<f32>(), 0);
    }

    #[test]
    fn pool_is_shareable_across_threads() {
        let pool = WorkspacePool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let mut ws = pool.acquire::<f64>(64);
                        ws.spa.scatter(1, 1.0);
                        ws.spa.drain_sorted(|_, _| {});
                    }
                });
            }
        });
        // every checkout returned; at most one workspace per concurrent user
        assert!(pool.idle_workspaces::<f64>() <= 4);
        assert!(pool.idle_workspaces::<f64>() >= 1);
    }
}
