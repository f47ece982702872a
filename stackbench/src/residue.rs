//! The output check: what a run leaves behind, compared with a
//! sequential-dispatch replay of the same seed.

use crate::workload::{Rig, Stream, Workload};
use legosdn::controller::snapshot;
use legosdn::netlog::TxRecord;
use legosdn::netsim::FlowEntry;
use legosdn::prelude::*;

/// Everything a run leaves that an operator could observe: every
/// switch's flow table in codec bytes, the NetLog txlog, the runtime
/// counters and the dataplane delivery counters.
#[derive(Clone, Debug, PartialEq)]
pub struct Residue {
    pub reactions: u64,
    pub flow_tables: Vec<(DatapathId, Vec<u8>)>,
    pub txlog: Vec<TxRecord>,
    pub stats: RuntimeStats,
    pub delivery: (u64, u64),
}

impl Residue {
    pub fn capture(rig: &Rig) -> Residue {
        Residue {
            reactions: rig.reactions,
            flow_tables: rig
                .net
                .switches()
                .map(|s| {
                    let entries: Vec<FlowEntry> = s.table().iter().cloned().collect();
                    let bytes = snapshot::to_bytes(&entries).expect("flow entries encode");
                    (s.dpid(), bytes)
                })
                .collect(),
            txlog: rig.rt.netlog().log().iter().cloned().collect(),
            stats: rig.rt.stats(),
            delivery: rig.net.delivery_counters(),
        }
    }

    /// The first difference from `reference`, if any.
    pub fn diff(&self, reference: &Residue) -> Option<String> {
        if self.reactions != reference.reactions {
            return Some(format!(
                "reactions {} vs {}",
                self.reactions, reference.reactions
            ));
        }
        if self.stats != reference.stats {
            return Some(format!(
                "runtime stats {:?} vs {:?}",
                self.stats, reference.stats
            ));
        }
        if self.delivery != reference.delivery {
            return Some(format!(
                "delivery counters {:?} vs {:?}",
                self.delivery, reference.delivery
            ));
        }
        if self.txlog != reference.txlog {
            let at = self
                .txlog
                .iter()
                .zip(&reference.txlog)
                .position(|(a, b)| a != b)
                .unwrap_or(self.txlog.len().min(reference.txlog.len()));
            return Some(format!(
                "txlog differs at record {at} ({} vs {} records)",
                self.txlog.len(),
                reference.txlog.len()
            ));
        }
        let tables = self.flow_tables.iter().zip(&reference.flow_tables);
        if let Some((ours, theirs)) = tables.clone().find(|(a, b)| a != b) {
            let decode = |bytes: &[u8]| -> Vec<FlowEntry> {
                snapshot::from_bytes(bytes).expect("captured tables decode")
            };
            let (ours_e, theirs_e) = (decode(&ours.1), decode(&theirs.1));
            let at = ours_e
                .iter()
                .zip(&theirs_e)
                .position(|(a, b)| a != b)
                .unwrap_or(ours_e.len().min(theirs_e.len()));
            return Some(format!(
                "flow table of {} differs at entry {at} ({} vs {} entries): {:?} vs {:?}",
                ours.0,
                ours_e.len(),
                theirs_e.len(),
                ours_e.get(at),
                theirs_e.get(at)
            ));
        }
        if self.flow_tables.len() != reference.flow_tables.len() {
            return Some("switch count differs".into());
        }
        None
    }
}

/// Replay `workload` under the reference engine, sequential dispatch to
/// Local sandboxes, and capture the residue after each of `reactions`
/// (ascending) reactions. Hosting and observability do not change the
/// residue, so the reference runs without stubs and without obs.
pub fn sequential_reference(workload: Workload, seed: u64, reactions: &[u64]) -> Vec<Residue> {
    let config = LegoSdnConfig {
        isolation: IsolationMode::Local,
        ..workload.config(Some(DispatchConfig::sequential()), ObsConfig::disabled())
    };
    let mut rig = Rig::setup(workload, config, workload.roster(seed));
    let mut stream = Stream::new(workload, seed);
    let mut out = Vec::with_capacity(reactions.len());
    for &n in reactions {
        rig.replay_to(&mut stream, n);
        out.push(Residue::capture(&rig));
    }
    rig.shutdown();
    out
}
