//! The paper's custom double-ended work queue (§III-C).
//!
//! "In our custom workqueue, the CPU and GPU dequeue work-units from
//! opposite ends of the queue … so that the time taken to synchronize the
//! dequeue operations is also minimal."
//!
//! [`RangeQueue`] implements that discipline over a row range `0..n`, with
//! a per-claim grain, matching §IV-B where the CPU takes 1 000 rows per
//! dequeue and the GPU 10 000. The two cursors live in one atomic word, so
//! a claim is a single CAS and the "ends meet" race (both devices reaching
//! for the last unit) resolves without locks.

pub mod range;

pub use range::RangeQueue;

/// Which end of the queue a consumer drains. In the paper the CPU owns the
/// front (filled with `A_L × B_H` units) and the GPU owns the back (filled
/// with `A_H × B_L` units).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum End {
    Front,
    Back,
}

impl End {
    /// The opposite end.
    pub fn opposite(self) -> End {
        match self {
            End::Front => End::Back,
            End::Back => End::Front,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn ends_are_opposites() {
        assert_eq!(End::Front.opposite(), End::Back);
        assert_eq!(End::Back.opposite(), End::Front);
        assert_eq!(End::Front.opposite().opposite(), End::Front);
    }
}
