//! Revision stamps: change detection for incremental invariant checking.
//!
//! Every [`Switch`](crate::Switch) and [`FlowTable`](crate::FlowTable)
//! carries a [`Revision`] that is replaced with a fresh one whenever
//! forwarding-relevant state changes (entries, port liveness, power, link
//! status). Stamps come from one process-wide counter, so two values are
//! equal only if they are the same stamp: a scratch clone that diverges
//! from its original can never reach a stamp the original also reaches.
//! Clones keep their stamps, so the untouched parts of a copy still read
//! as unchanged. Stamps are bookkeeping, not state: they are never encoded
//! and never take part in equality.

use std::sync::atomic::{AtomicU64, Ordering};

static NEXT: AtomicU64 = AtomicU64::new(1);

/// A process-unique change stamp. `Default` draws a fresh one.
#[derive(Clone, Copy, Debug, PartialEq, Eq, Hash)]
pub struct Revision(u64);

impl Revision {
    /// A stamp no other object has held.
    #[must_use]
    pub fn fresh() -> Self {
        // Relaxed: the read-modify-write alone makes every value unique,
        // and a stamp publishes no other data.
        Revision(NEXT.fetch_add(1, Ordering::Relaxed))
    }
}

impl Default for Revision {
    fn default() -> Self {
        Revision::fresh()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_stamps_are_unique_and_copies_agree() {
        let a = Revision::default();
        let b = Revision::default();
        assert_ne!(a, b);
        let c = a;
        assert_eq!(a, c);
    }
}
