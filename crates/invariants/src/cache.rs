//! Incremental probing: keep each host pair's outcome between checks and
//! re-probe only the pairs a change could have affected (DESIGN.md §16).
//!
//! A probe's outcome depends on the static wiring and on the state of the
//! switches it dequeues (its *footprint*). Every switch and flow table
//! carries a [`Revision`] that changes with that state, so a pair whose
//! footprint shows the same stamps as when it was probed would walk the
//! same way again. The cache keeps, per pair, the outcome and footprint,
//! and per switch, the stamps last seen. A refresh compares stamps, marks
//! the changed switches, and re-probes only the pairs whose footprint
//! holds one of them (plus pairs new to the cache). A network with other
//! wiring — other hosts, links or switches — empties the cache first.

use crate::probe::{probe_with_footprint, ProbeOutcome};
use legosdn_netsim::{Network, Revision};
use legosdn_openflow::prelude::{DatapathId, MacAddr, Packet};

/// How one check split its pairs between fresh probes and cached outcomes.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct PairCounts {
    /// Pairs walked again.
    pub probed: usize,
    /// Pairs answered from the cache.
    pub reused: usize,
}

#[derive(Debug)]
struct CachedPair {
    src: MacAddr,
    dst: MacAddr,
    /// `None` until the pair is first probed.
    outcome: Option<ProbeOutcome>,
    /// Positions (into `ProbeCache::switches`) of the switches the last
    /// walk dequeued; sorted, no repeats.
    footprint: Vec<usize>,
}

impl CachedPair {
    /// Probe the pair again and record its new footprint.
    fn reprobe(
        &mut self,
        net: &Network,
        switches: &[(DatapathId, Revision, Revision)],
        scratch: &mut Vec<DatapathId>,
    ) {
        scratch.clear();
        let packet = Packet::ethernet(self.src, self.dst);
        self.outcome = Some(probe_with_footprint(
            net, self.src, self.dst, &packet, scratch,
        ));
        self.footprint.clear();
        // A dequeued dpid with no switch behind it is part of the static
        // wiring; only real switches can change.
        self.footprint.extend(
            scratch
                .iter()
                .filter_map(|d| switches.binary_search_by_key(d, |s| s.0).ok()),
        );
        self.footprint.sort_unstable();
        self.footprint.dedup();
    }
}

/// Per-pair probe outcomes kept across checks. Pass the same cache to
/// successive [`crate::Checker::check_with`] calls; any network works —
/// a cache filled against another network's wiring simply starts over.
#[derive(Debug, Default)]
pub struct ProbeCache {
    /// The wiring the cached pairs were probed against.
    wiring: Option<Revision>,
    /// Every switch in dpid order, with the `(switch, table)` stamps the
    /// cache last saw.
    switches: Vec<(DatapathId, Revision, Revision)>,
    /// Cached pairs in check order.
    pairs: Vec<CachedPair>,
    /// Per switch position: restamped since the previous refresh? Scratch.
    changed: Vec<bool>,
    /// The footprint of the probe in progress. Scratch.
    footprint: Vec<DatapathId>,
    last: PairCounts,
}

impl ProbeCache {
    /// An empty cache: the first check probes every pair.
    #[must_use]
    pub fn new() -> Self {
        ProbeCache::default()
    }

    /// How the most recent check split its pairs.
    #[must_use]
    pub fn last_check(&self) -> PairCounts {
        self.last
    }

    /// Bring the cache up to date with `net` for the first `max_pairs`
    /// ordered host pairs, and return their outcomes in check order.
    pub(crate) fn refresh(
        &mut self,
        net: &Network,
        max_pairs: usize,
    ) -> impl Iterator<Item = (MacAddr, MacAddr, &ProbeOutcome)> {
        if self.wiring != Some(net.wiring_revision()) {
            *self = ProbeCache {
                wiring: Some(net.wiring_revision()),
                switches: net
                    .switches()
                    .map(|s| (s.dpid(), s.revision(), s.table().revision()))
                    .collect(),
                ..ProbeCache::default()
            };
        }
        self.changed.clear();
        for (seen, sw) in self.switches.iter_mut().zip(net.switches()) {
            let now = (sw.revision(), sw.table().revision());
            self.changed.push((seen.1, seen.2) != now);
            (seen.1, seen.2) = now;
        }
        self.sync_pairs(net, max_pairs);
        let mut probed = 0;
        for pair in &mut self.pairs {
            if pair.outcome.is_none() || pair.footprint.iter().any(|&p| self.changed[p]) {
                pair.reprobe(net, &self.switches, &mut self.footprint);
                probed += 1;
            }
        }
        self.last = PairCounts {
            probed,
            reused: self.pairs.len() - probed,
        };
        self.pairs.iter().map(|p| {
            let outcome = p.outcome.as_ref().expect("every pair probed above");
            (p.src, p.dst, outcome)
        })
    }

    /// Line the cached pairs up with the network's first `max_pairs`
    /// ordered host pairs. The wiring pins the host list, so the pairs
    /// are a fixed sequence and only its length can change: new pairs
    /// are appended unprobed, surplus ones dropped.
    fn sync_pairs(&mut self, net: &Network, max_pairs: usize) {
        let hosts = net.hosts();
        let ordered = hosts
            .iter()
            .flat_map(|s| hosts.iter().map(move |d| (s.mac, d.mac)))
            .filter(|(s, d)| s != d)
            .take(max_pairs);
        let mut n = 0;
        for (src, dst) in ordered {
            if n == self.pairs.len() {
                self.pairs.push(CachedPair {
                    src,
                    dst,
                    outcome: None,
                    footprint: Vec::new(),
                });
            }
            assert_eq!(
                (self.pairs[n].src, self.pairs[n].dst),
                (src, dst),
                "one wiring, one pair order"
            );
            n += 1;
        }
        self.pairs.truncate(n);
    }
}
