//! Shared workload builders and reporting helpers for the experiment
//! benches (DESIGN.md §4). Each `benches/eN_*.rs` target regenerates one
//! paper exhibit/claim; this crate keeps their scenarios identical.

pub mod args;
pub mod harness;
pub mod workloads;

use legosdn::appvisor::{AppHandle, AppVisorProxy, DeliverOutcome, ProxyError};
use legosdn::controller::event::Event;
use legosdn::controller::services::{DeviceView, TopologyView};
use legosdn::netsim::SimTime;

/// Deliver one event to every app in `handles` through the queued proxy
/// API: queue it on every stub first, then collect the acks in order, so
/// the stubs process it concurrently. One outcome per handle, in order;
/// a failed send reads as [`DeliverOutcome::CommFailure`].
pub fn fan_out(
    proxy: &mut AppVisorProxy,
    handles: &[AppHandle],
    event: &Event,
    topology: &TopologyView,
    devices: &DeviceView,
) -> Vec<Result<DeliverOutcome, ProxyError>> {
    let tags: Vec<_> = handles
        .iter()
        .map(|&h| proxy.queue_deliver(h, event, topology, devices, SimTime::ZERO))
        .collect();
    handles
        .iter()
        .zip(tags)
        .map(|(&h, tag)| match tag? {
            Some(seq) => proxy.collect_deliver(h, seq),
            None => Ok(DeliverOutcome::CommFailure),
        })
        .collect()
}

/// Print a paper-style results table to stderr (the bench harness owns stdout).
pub fn print_table(title: &str, headers: &[&str], rows: &[Vec<String>]) {
    eprintln!("\n=== {title} ===");
    let widths: Vec<usize> = headers
        .iter()
        .enumerate()
        .map(|(i, h)| {
            rows.iter()
                .map(|r| r.get(i).map_or(0, String::len))
                .chain(std::iter::once(h.len()))
                .max()
                .unwrap_or(0)
        })
        .collect();
    let fmt_row = |cells: &[String]| {
        cells
            .iter()
            .zip(&widths)
            .map(|(c, w)| format!("{c:>w$}", w = w))
            .collect::<Vec<_>>()
            .join("  ")
    };
    let header_cells: Vec<String> = headers.iter().map(|h| (*h).to_string()).collect();
    eprintln!("{}", fmt_row(&header_cells));
    eprintln!(
        "{}",
        widths
            .iter()
            .map(|w| "-".repeat(*w))
            .collect::<Vec<_>>()
            .join("  ")
    );
    for r in rows {
        eprintln!("{}", fmt_row(r));
    }
    eprintln!();
}

#[cfg(test)]
mod tests {
    #[test]
    fn table_printer_does_not_panic() {
        super::print_table(
            "smoke",
            &["col a", "b"],
            &[vec!["1".into(), "2".into()], vec!["333".into(), "4".into()]],
        );
    }
}
