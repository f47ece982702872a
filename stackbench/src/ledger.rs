//! The traced run's per-layer ledger, measured only from outside the
//! crates: spans around the benchmark's own calls into the stack, a
//! transparent timing wrapper around each app, and a counting allocator.

use crate::workload::{Layer, Probe};
use legosdn::controller::app::RestoreError;
use legosdn::controller::event::EventKind;
use legosdn::netsim::DataplaneTrace;
use legosdn::prelude::*;
use std::alloc::{GlobalAlloc, Layout, System};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Nanoseconds from `epoch` to `t`.
fn since(epoch: Instant, t: Instant) -> u64 {
    u64::try_from(t.duration_since(epoch).as_nanos()).unwrap_or(u64::MAX)
}

/// An app entry point the wrapper times.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum AppCall {
    OnEvent,
    Snapshot,
    Restore,
}

/// What the wrapped apps recorded. Stubs run apps on their own threads,
/// so the book sits behind a mutex shared by every wrapper.
#[derive(Debug, Default)]
pub struct AppBook {
    /// `(call, start_ns, end_ns)` from the ledger's epoch.
    pub spans: Vec<(AppCall, u64, u64)>,
    pub snapshot_bytes: u64,
    /// `on_event` batches holding a state-altering command: the batches
    /// the runtime's invariant gate runs on when a checker is configured.
    pub altering_batches: u64,
    /// The first state-altering batch seen, replayed through
    /// `Checker::gate` at the end of the run.
    pub gate_batch: Option<Vec<(DatapathId, Message)>>,
}

/// Shared sink of every wrapped app.
#[derive(Debug)]
pub struct Ledger {
    epoch: Instant,
    book: Mutex<AppBook>,
}

impl Ledger {
    pub fn new(epoch: Instant) -> Arc<Ledger> {
        Arc::new(Ledger {
            epoch,
            book: Mutex::new(AppBook::default()),
        })
    }

    /// Take everything recorded so far, leaving an empty book.
    pub fn take(&self) -> AppBook {
        std::mem::take(
            &mut *self
                .book
                .lock()
                .expect("no app panics while holding the book"),
        )
    }
}

/// Records one app call when dropped, also while a crashing app unwinds.
struct CallSpan<'a> {
    ledger: &'a Ledger,
    call: AppCall,
    start: Instant,
    bytes: u64,
}

impl Drop for CallSpan<'_> {
    fn drop(&mut self) {
        let end = Instant::now();
        // Never panic in drop: a poisoned book only loses this span.
        if let Ok(mut book) = self.ledger.book.lock() {
            let epoch = self.ledger.epoch;
            book.spans
                .push((self.call, since(epoch, self.start), since(epoch, end)));
            book.snapshot_bytes += self.bytes;
        }
    }
}

/// A transparent timing wrapper: forwards every call to the wrapped app
/// unchanged and records how long each took.
pub struct Timed {
    inner: Box<dyn SdnApp>,
    ledger: Arc<Ledger>,
}

impl Timed {
    pub fn wrap(inner: Box<dyn SdnApp>, ledger: &Arc<Ledger>) -> Box<dyn SdnApp> {
        Box::new(Timed {
            inner,
            ledger: Arc::clone(ledger),
        })
    }
}

impl<'a> CallSpan<'a> {
    fn start(ledger: &'a Ledger, call: AppCall) -> CallSpan<'a> {
        CallSpan {
            ledger,
            call,
            start: Instant::now(),
            bytes: 0,
        }
    }
}

impl SdnApp for Timed {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        self.inner.subscriptions()
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        let before = ctx.commands().len();
        {
            let _span = CallSpan::start(&self.ledger, AppCall::OnEvent);
            self.inner.on_event(event, ctx);
        }
        let batch = &ctx.commands()[before..];
        if batch.iter().any(|c| c.msg.alters_network_state()) {
            let mut book = self.ledger.book.lock().expect("book lock");
            book.altering_batches += 1;
            if book.gate_batch.is_none() {
                book.gate_batch = Some(batch.iter().map(|c| (c.dpid, c.msg.clone())).collect());
            }
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        let mut span = CallSpan::start(&self.ledger, AppCall::Snapshot);
        let bytes = self.inner.snapshot();
        span.bytes = bytes.len() as u64;
        bytes
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let _span = CallSpan::start(&self.ledger, AppCall::Restore);
        self.inner.restore(bytes)
    }
}

/// Spans the benchmark records around its own calls (inject, link state,
/// tick, run_cycle), plus the dataplane outcome of each injection.
#[derive(Debug)]
pub struct BenchSpans {
    epoch: Instant,
    /// Summed nanoseconds and count per [`Layer`], indexed by `as usize`.
    pub sum_ns: [u64; 4],
    pub count: [u64; 4],
    /// `(start_ns, end_ns)` of every `run_cycle`, in order.
    pub cycles: Vec<(u64, u64)>,
    pub injected: u64,
    pub punted: u64,
}

impl BenchSpans {
    pub fn new(epoch: Instant) -> BenchSpans {
        BenchSpans {
            epoch,
            sum_ns: [0; 4],
            count: [0; 4],
            cycles: Vec::new(),
            injected: 0,
            punted: 0,
        }
    }

    pub fn total_ns(&self) -> u64 {
        self.sum_ns.iter().sum()
    }

    pub fn mean_us(&self, layer: Layer) -> f64 {
        let i = layer as usize;
        crate::stats::ratio(self.sum_ns[i] as f64, self.count[i] as f64) / 1e3
    }
}

impl Probe for BenchSpans {
    const ON: bool = true;

    fn span(&mut self, layer: Layer, start: Instant, end: Instant) {
        let (s, e) = (since(self.epoch, start), since(self.epoch, end));
        self.sum_ns[layer as usize] += e - s;
        self.count[layer as usize] += 1;
        if layer == Layer::RunCycle {
            self.cycles.push((s, e));
        }
    }

    fn injected(&mut self, trace: &DataplaneTrace) {
        self.injected += 1;
        if trace.packet_ins > 0 {
            self.punted += 1;
        }
    }
}

/// Nanoseconds of the `outer` intervals (sorted, disjoint) covered by the
/// union of the `inner` intervals: the part of each `run_cycle` spent in
/// app code, however many stubs ran at once.
pub fn covered_ns(outer: &[(u64, u64)], inner: &[(u64, u64)]) -> u64 {
    let mut sorted = inner.to_vec();
    sorted.sort_unstable();
    let mut union: Vec<(u64, u64)> = Vec::with_capacity(sorted.len());
    for (s, e) in sorted {
        match union.last_mut() {
            Some(last) if s <= last.1 => last.1 = last.1.max(e),
            _ => union.push((s, e)),
        }
    }
    let mut first = 0;
    let mut covered = 0;
    for &(os, oe) in outer {
        while first < union.len() && union[first].1 <= os {
            first += 1;
        }
        for &(s, e) in union[first..].iter().take_while(|(s, _)| *s < oe) {
            covered += e.min(oe).saturating_sub(s.max(os));
        }
    }
    covered
}

static COUNTING: AtomicBool = AtomicBool::new(false);
static ALLOCS: AtomicU64 = AtomicU64::new(0);
static ALLOC_BYTES: AtomicU64 = AtomicU64::new(0);

/// The system allocator, counting allocations (and reallocations) and
/// their bytes while [`count_allocations`] is on. Counters publish no
/// other data, so every access is `Relaxed`.
pub struct CountingAlloc;

fn note(bytes: usize) {
    if COUNTING.load(Ordering::Relaxed) {
        ALLOCS.fetch_add(1, Ordering::Relaxed);
        ALLOC_BYTES.fetch_add(bytes as u64, Ordering::Relaxed);
    }
}

// SAFETY: every method forwards its arguments unchanged to `System`,
// which upholds the `GlobalAlloc` contract; the counting touches only
// atomics and never allocates.
unsafe impl GlobalAlloc for CountingAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller's guarantees on `layout` pass through.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: as for `alloc`.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from `System` with this `layout`, since every
        // allocation of this allocator is made by `System`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: as for `dealloc`; `new_size` is the caller's to check.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

/// Stop counting for a moment (calibration); returns whether counting
/// was on, for [`resume_counting`].
pub fn pause_counting() -> bool {
    COUNTING.swap(false, Ordering::Relaxed)
}

pub fn resume_counting(was_on: bool) {
    COUNTING.store(was_on, Ordering::Relaxed);
}

/// Turn allocation counting on or off; returns `(allocations, bytes)`
/// counted so far and resets both counters.
pub fn count_allocations(on: bool) -> (u64, u64) {
    COUNTING.store(on, Ordering::Relaxed);
    (
        ALLOCS.swap(0, Ordering::Relaxed),
        ALLOC_BYTES.swap(0, Ordering::Relaxed),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coverage_is_a_union_clipped_to_each_outer_interval() {
        let outer = [(0, 10), (20, 30)];
        // Overlapping inner spans count once; spans straddling an outer
        // edge count only their inside part.
        let inner = [(2, 6), (4, 8), (9, 22), (25, 26)];
        assert_eq!(covered_ns(&outer, &inner), 6 + 1 + 2 + 1);
        assert_eq!(covered_ns(&outer, &[]), 0);
    }
}
