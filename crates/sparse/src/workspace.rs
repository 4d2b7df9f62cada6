//! Pooled per-thread engine workspaces.
//!
//! Every numeric pass needs O(ncols) dense state: the accumulator's two
//! −0.0-seeded value arrays and its bitmaps, or the [`RowSizer`]'s stamp
//! array for a symbolic pass (every GPU output-width table: the sizer is
//! the cost model's only distinct-column counter). Without pooling, every
//! executed schedule and every width table of a Phase-I ladder candidate
//! would allocate and seed that state from scratch on every worker. The
//! pool makes the allocation once per concurrent user and reuses it forever.
//!
//! Lifetime rules:
//!
//! * A workspace is checked out for one worker's run — one row segment of
//!   the executor, one guided loop of a width pass — and the guard's
//!   `Drop` returns it.
//! * Checked-in workspaces are width-agnostic: `acquire` fits the dense
//!   arrays to the requested `ncols` on the way out (`ensure_ncols` grows
//!   −0.0 slots and clear bits and bounds the accumulator to the product's
//!   width), so one pool serves matrices of any shape, and the pool never
//!   shrinks. Every drain leaves its slots −0.0 and its bits clear, so a
//!   returned workspace is as clean as a fresh one.
//! * The pool is `Sync`; checkout is a short mutex pop, never held across
//!   row work. Distinct scalar types coexist keyed by `TypeId`.

use std::any::{Any, TypeId};
use std::collections::HashMap;
use std::ops::{Deref, DerefMut};
use std::sync::Mutex;

use crate::{RowSizer, Scalar, SparseAccumulator};

/// Thread-safe pool of [`SparseAccumulator`]s, one per worker of the
/// numeric pass, and bare [`RowSizer`]s, one free list per type.
/// Checkout pops from a free list (or builds fresh on a dry pool); the
/// guard's `Drop` pushes back. Lives on `HeteroContext` so state survives
/// across products, ladder candidates, and repeated multiplies.
#[derive(Default)]
pub struct WorkspacePool {
    stores: Mutex<HashMap<TypeId, Vec<Box<dyn Any + Send>>>>,
}

impl std::fmt::Debug for WorkspacePool {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        let stores = self.stores.lock().map(|s| s.len()).unwrap_or(0);
        f.debug_struct("WorkspacePool")
            .field("idle_sizers", &self.idle_sizers())
            .field("types", &stores)
            .finish()
    }
}

impl WorkspacePool {
    /// Empty pool; workspaces materialise on first checkout.
    pub fn new() -> Self {
        Self::default()
    }

    /// Check out an accumulator fitted to a product `ncols` wide.
    pub fn acquire<T: Scalar>(&self, ncols: usize) -> PooledWorkspace<'_, T> {
        let mut ws = self.checkout(|| SparseAccumulator::new(ncols));
        ws.ensure_ncols(ncols);
        ws
    }

    /// Check out a bare symbolic sizer covering `ncols` columns (the width
    /// tables need no numeric state).
    pub fn acquire_sizer(&self, ncols: usize) -> PooledSizer<'_> {
        let mut sizer = self.checkout(|| RowSizer::new(ncols));
        sizer.ensure_ncols(ncols);
        sizer
    }

    /// Pop an idle `W`, or build one on a dry pool.
    fn checkout<W: Any + Send>(&self, fresh: impl FnOnce() -> W) -> Pooled<'_, W> {
        let popped = self
            .stores
            .lock()
            .unwrap()
            .get_mut(&TypeId::of::<W>())
            .and_then(Vec::pop);
        let ws = popped.map_or_else(fresh, |boxed| {
            *boxed
                .downcast()
                .expect("pool entry keyed by its own TypeId")
        });
        Pooled {
            pool: self,
            ws: Some(ws),
        }
    }

    /// Idle `W`s held (test/introspection hook).
    fn idle<W: Any>(&self) -> usize {
        let stores = self.stores.lock().unwrap();
        stores.get(&TypeId::of::<W>()).map_or(0, Vec::len)
    }

    /// Idle workspaces held for scalar type `T` (test/introspection hook).
    pub fn idle_workspaces<T: Scalar>(&self) -> usize {
        self.idle::<SparseAccumulator<T>>()
    }

    /// Idle bare sizers held (test/introspection hook).
    pub fn idle_sizers(&self) -> usize {
        self.idle::<RowSizer>()
    }
}

/// Checkout guard for a pooled workspace; returns it to its free list on
/// drop.
pub struct Pooled<'p, W: Any + Send> {
    pool: &'p WorkspacePool,
    ws: Option<W>,
}

/// Checkout guard for a pooled [`SparseAccumulator`].
pub type PooledWorkspace<'p, T> = Pooled<'p, SparseAccumulator<T>>;

/// Checkout guard for a bare [`RowSizer`].
pub type PooledSizer<'p> = Pooled<'p, RowSizer>;

impl<W: Any + Send> Deref for Pooled<'_, W> {
    type Target = W;
    fn deref(&self) -> &W {
        self.ws.as_ref().expect("present until drop")
    }
}

impl<W: Any + Send> DerefMut for Pooled<'_, W> {
    fn deref_mut(&mut self) -> &mut W {
        self.ws.as_mut().expect("present until drop")
    }
}

impl<W: Any + Send> Drop for Pooled<'_, W> {
    fn drop(&mut self) {
        if let Some(ws) = self.ws.take() {
            let mut stores = self.pool.stores.lock().unwrap();
            stores
                .entry(TypeId::of::<W>())
                .or_default()
                .push(Box::new(ws));
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::accumulator::tests::is_clean;

    /// Run `runs` as the claims of one row on a checked-out accumulator,
    /// returning the row's (column, value) entries.
    fn row(acc: &mut SparseAccumulator<f64>, runs: &[&[(u32, f64)]]) -> Vec<(u32, f64)> {
        let (mut cols, mut vals) = (Vec::new(), Vec::new());
        acc.accumulate_row(
            runs.len(),
            |k, mut lane| runs[k].iter().for_each(|&(c, v)| lane.scatter(c, v)),
            |_, _| {},
            &mut cols,
            &mut vals,
        );
        cols.into_iter().zip(vals).collect()
    }

    #[test]
    fn workspace_round_trips_through_the_pool() {
        let pool = WorkspacePool::new();
        assert_eq!(pool.idle_workspaces::<f64>(), 0);
        {
            let mut ws = pool.acquire::<f64>(16);
            row(&mut ws, &[&[(3, 1.0)]]);
        }
        assert_eq!(pool.idle_workspaces::<f64>(), 1);
        // second checkout reuses the same allocation, already wide enough
        let ws = pool.acquire::<f64>(8);
        assert_eq!(pool.idle_workspaces::<f64>(), 0);
        assert!(ws.ncols() >= 16);
    }

    #[test]
    fn reused_workspace_state_is_clean_across_widths() {
        let pool = WorkspacePool::new();
        {
            let mut ws = pool.acquire::<f64>(4);
            row(&mut ws, &[&[(2, 9.0)]]);
            row(&mut ws, &[&[(2, 9.0)], &[(1, 9.0)]]);
        }
        // wider checkout: grown slots and drained slots must read untouched
        let mut ws = pool.acquire::<f64>(320);
        let got = row(&mut ws, &[&[(300, 1.0), (2, 1.0)]]);
        assert_eq!(got, vec![(2, 1.0), (300, 1.0)], "stale or unseeded lane 0");
        let got = row(&mut ws, &[&[], &[(319, 1.0), (1, 1.0)]]);
        assert_eq!(got, vec![(1, 1.0), (319, 1.0)], "stale or unseeded lane 1");
    }

    #[test]
    fn soa_drains_stay_clean_through_the_pool() {
        // Both drains (one claim verbatim, two claims folded), at one
        // summary word and at sixteen, must leave a pooled workspace
        // clean: no stale slot or bit on the next checkout, whatever width
        // it is fitted to.
        let pool = WorkspacePool::new();
        for ncols in [64, 65_536] {
            {
                let mut ws = pool.acquire::<f64>(ncols);
                assert_eq!(row(&mut ws, &[&[(5, 1.0), (2, 2.0)]]), [(2, 2.0), (5, 1.0)]);
                assert_eq!(
                    row(&mut ws, &[&[(5, 1.0)], &[(2, 2.0)]]),
                    [(2, 2.0), (5, 1.0)]
                );
            }
            let mut ws = pool.acquire::<f64>(64);
            assert!(is_clean(&ws), "stale slot or bit after the drains");
            assert_eq!(row(&mut ws, &[&[(5, 1.0)]]), [(5, 1.0)]);
        }
    }

    /// A pooled accumulator checked out narrow, then wide, then narrow
    /// again is clean after every drain: every value slot −0.0 by its bits
    /// (a slot grown as +0.0 would turn a −0.0 product into +0.0) and every
    /// bitmap and summary word zero.
    #[test]
    fn pooled_accumulator_stays_seeded_narrow_wide_narrow() {
        let pool = WorkspacePool::new();
        for ncols in [100usize, 9_000, 100] {
            let mut ws = pool.acquire::<f64>(ncols);
            assert!(is_clean(&ws), "{ncols} columns: checked out unclean");
            let far = ncols as u32 - 1;
            let runs: [&[(u32, f64)]; 3] = [
                &[(far, -0.0), (0, 1.0), (far, -0.0)],
                &[(0, 2.0), (far / 2, -0.0)],
                &[(far / 2, 3.0), (far, -0.0)],
            ];
            for claims in 1..=3 {
                let got = row(&mut ws, &runs[..claims]);
                assert!(is_clean(&ws), "{ncols} columns, {claims} claims");
                let (col, v) = *got.last().expect("the row has entries");
                let want = if claims == 1 { -0.0f64 } else { 0.0 };
                assert_eq!((col, v.to_bits()), (far, want.to_bits()));
            }
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
                        row(&mut ws, &[&[(1, 1.0)]]);
                    }
                });
            }
        });
        // every checkout returned; at most one workspace per concurrent user
        assert!(pool.idle_workspaces::<f64>() <= 4);
        assert!(pool.idle_workspaces::<f64>() >= 1);
    }
}
