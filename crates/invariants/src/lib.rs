//! Network invariant checking — the VeriFlow-style policy checker the paper
//! assumes for byzantine-failure detection (§3.3) and "No-Compromise"
//! enforcement (§5).
//!
//! - [`mod@probe`]: non-mutating dataplane walks classifying each host pair as
//!   delivered / punted / black-holed / looping.
//! - [`checker`]: invariant sets, full-network checks, the NetLog pre-commit
//!   [`Checker::gate`], and the §5 [`checker::shutdown_network`] escape
//!   hatch.
//! - [`cache`]: the [`ProbeCache`] that lets [`Checker::check_with`] and
//!   [`Checker::gate_with`] re-probe only the pairs a change can affect.

pub mod cache;
pub mod checker;
pub mod probe;

pub use cache::{PairCounts, ProbeCache};
pub use checker::{shutdown_network, CheckReport, Checker, Invariant, Violation};
pub use probe::{probe, ProbeOutcome, PROBE_HOP_LIMIT};
