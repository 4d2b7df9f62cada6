//! Pooled per-thread engine workspaces.
//!
//! Every numeric pass needs O(ncols) dense state: the SPAs' value arrays
//! and occupancy bitmaps, or the sizer's stamp array for a symbolic pass
//! (the GPU model's output-width tables). Without pooling, every executed
//! schedule and every width table of a Phase-I ladder candidate would
//! allocate and zero that state from scratch on every worker. The pool
//! makes the allocation once per concurrent user and reuses it forever.
//!
//! Lifetime rules:
//!
//! * A workspace is checked out for one worker's run — one row segment of
//!   the executor, one guided loop of a width pass — and the guard's
//!   `Drop` returns it.
//! * Checked-in workspaces are width-agnostic: `acquire` fits the dense
//!   arrays to the requested `ncols` on the way out (`ensure_ncols` grows
//!   clear bits and bounds the SPA's word scan to the product's width), so
//!   one pool serves matrices of any shape, and the pool never shrinks.
//! * The pool is `Sync`; checkout is a short mutex pop, never held across
//!   row work. Distinct scalar types coexist keyed by `TypeId`.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use crate::{RowSizer, Scalar, SparseAccumulator};

/// Everything one worker thread needs for the numeric pass: the dense SPA
/// and a second one the batched executor folds multi-claim rows into.
#[derive(Debug)]
pub struct EngineWorkspace<T> {
    /// Dense SPA, the numeric accumulator (O(ncols) values + bitmap).
    pub spa: SparseAccumulator<T>,
    /// Second dense SPA: a multi-claim row's first claim scatters here
    /// and every later claim's run folds into it.
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

    /// Fit both SPAs to a product `ncols` wide.
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

    /// Drain a workspace SPA's current row, returning its columns.
    fn drain(spa: &mut SparseAccumulator<f64>) -> Vec<u32> {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        spa.drain_into(&mut cols, &mut vals);
        cols
    }

    #[test]
    fn workspace_round_trips_through_the_pool() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle_workspaces::<f64>(), 0);
        {
            let mut ws = pool.acquire::<f64>(16);
            ws.spa.scatter(3, 1.0);
            drain(&mut ws.spa);
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
            drain(&mut ws.spa);
            ws.outer.scatter(1, 9.0);
            drain(&mut ws.outer);
        }
        // wider checkout: grown slots and drained bits must read untouched
        let mut ws = pool.acquire::<f64>(320);
        assert!(ws.spa.scatter(2, 1.0), "stale SPA bit aliased");
        assert!(ws.spa.scatter(300, 1.0), "grown SPA slot not clean");
        assert_eq!(drain(&mut ws.spa), vec![2, 300]);
        assert!(ws.outer.scatter(1, 1.0), "stale fold-SPA bit aliased");
        assert!(ws.outer.scatter(319, 1.0), "grown fold-SPA slot not clean");
    }

    #[test]
    fn soa_drains_stay_clean_through_the_pool() {
        // Both drains (a word scan at 64 columns, a sort at 64k) must leave
        // a pooled workspace clean: no stale bits on the next checkout,
        // whatever width it is fitted to.
        let pool = WorkspacePool::new();
        for ncols in [64, 65_536] {
            {
                let mut ws = pool.acquire::<f64>(ncols);
                ws.spa.scatter(5, 1.0);
                ws.spa.scatter(2, 2.0);
                assert_eq!(drain(&mut ws.spa), vec![2, 5]);
            }
            let mut ws = pool.acquire::<f64>(64);
            assert!(ws.spa.scatter(5, 1.0), "stale SPA bit after drain");
            assert_eq!(ws.spa.nnz(), 1, "SPA not reset by drain");
            assert_eq!(drain(&mut ws.spa), vec![5]);
        }
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
    fn pool_is_shareable_across_threads() {
        let pool = WorkspacePool::new();
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    for _ in 0..8 {
                        let mut ws = pool.acquire::<f64>(64);
                        ws.spa.scatter(1, 1.0);
                        drain(&mut ws.spa);
                    }
                });
            }
        });
        // every checkout returned; at most one workspace per concurrent user
        assert!(pool.idle_workspaces::<f64>() <= 4);
        assert!(pool.idle_workspaces::<f64>() >= 1);
    }
}
