//! Non-mutating dataplane probing.
//!
//! Walks a hypothetical packet through the network's flow tables using
//! read-only lookups (`FlowTable::peek`), classifying the outcome without
//! touching counters, buffers, or the event queue. This is what lets the
//! checker evaluate the *current* rule set — and, against a scratch clone of
//! the network, a *candidate* rule set — without observable side effects.

use legosdn_codec::Codec;
use legosdn_netsim::{Endpoint, Network};
use legosdn_openflow::prelude::{apply_actions, DatapathId, MacAddr, Packet, PortNo};
use std::collections::HashSet;
use std::collections::VecDeque;
use std::hash::{Hash, Hasher};

/// Hop budget for a probe (matches the dataplane's limit).
pub const PROBE_HOP_LIMIT: usize = 64;

/// How a probed packet fared.
#[derive(Clone, Debug, PartialEq, Eq, Codec)]
pub enum ProbeOutcome {
    /// Reached the destination host.
    Delivered,
    /// Matched a rule whose outputs lead nowhere (or a drop rule) at this
    /// switch — a black-hole.
    BlackHole { at: Endpoint },
    /// Revisited a (switch, port, packet) state or exhausted the hop
    /// budget — a forwarding loop.
    Loop { path: Vec<Endpoint> },
    /// No rule matched somewhere: the packet would punt to the controller.
    /// Not a violation — reactive apps are expected to handle it.
    Punt { at: Endpoint },
    /// Delivered, but to hosts other than the intended destination (e.g. a
    /// flood); carries whether the intended host was among them.
    Flooded { reached_destination: bool },
    /// The source host is unknown to the network.
    NoSuchSource,
}

impl ProbeOutcome {
    /// Does the outcome mean the destination is reachable right now without
    /// controller intervention?
    #[must_use]
    pub fn is_delivered(&self) -> bool {
        matches!(
            self,
            ProbeOutcome::Delivered
                | ProbeOutcome::Flooded {
                    reached_destination: true
                }
        )
    }

    /// Is this outcome an invariant violation (black-hole or loop)?
    #[must_use]
    pub fn is_violation(&self) -> bool {
        matches!(
            self,
            ProbeOutcome::BlackHole { .. } | ProbeOutcome::Loop { .. }
        )
    }
}

fn hash_packet(pkt: &Packet) -> u64 {
    let mut h = std::collections::hash_map::DefaultHasher::new();
    pkt.hash(&mut h);
    h.finish()
}

/// Probe `packet` from `src` toward `dst` through the current flow tables.
#[must_use]
pub fn probe(net: &Network, src: MacAddr, dst: MacAddr, packet: &Packet) -> ProbeOutcome {
    probe_with_footprint(net, src, dst, packet, &mut Vec::new())
}

/// [`probe`], also appending to `footprint` every switch the walk
/// dequeues, in visit order and with repeats. The outcome is a function of
/// the static wiring and of exactly those switches' state — their flow
/// tables, ports, power, and the status of links at their ports — which is
/// what lets [`crate::ProbeCache`] reuse it while their stamps hold.
pub(crate) fn probe_with_footprint(
    net: &Network,
    src: MacAddr,
    dst: MacAddr,
    packet: &Packet,
    footprint: &mut Vec<DatapathId>,
) -> ProbeOutcome {
    let Some(host) = net.host_by_mac(src) else {
        return ProbeOutcome::NoSuchSource;
    };
    let mut queue: VecDeque<(Endpoint, Packet)> = VecDeque::new();
    let mut visited: HashSet<(Endpoint, u64)> = HashSet::new();
    let mut path: Vec<Endpoint> = Vec::new();
    queue.push_back((host.attach, packet.clone()));

    let mut delivered_to_dst = false;
    let mut delivered_other = false;
    let mut punt: Option<Endpoint> = None;
    let mut black_hole: Option<Endpoint> = None;
    let mut hops = 0usize;

    while let Some((at, pkt)) = queue.pop_front() {
        footprint.push(at.dpid);
        hops += 1;
        if hops > PROBE_HOP_LIMIT || !visited.insert((at, hash_packet(&pkt))) {
            return ProbeOutcome::Loop { path };
        }
        path.push(at);
        let Some(sw) = net.switch(at.dpid) else {
            black_hole.get_or_insert(at);
            continue;
        };
        if !sw.is_up() {
            black_hole.get_or_insert(at);
            continue;
        }
        let in_port_live = sw.port(at.port).map(|p| p.desc.is_live()).unwrap_or(false);
        if !in_port_live {
            black_hole.get_or_insert(at);
            continue;
        }
        let Some(entry) = sw.table().peek(&pkt, PortNo::Phys(at.port)) else {
            punt.get_or_insert(at);
            continue;
        };
        if entry.actions.is_empty() {
            black_hole.get_or_insert(at);
            continue;
        }
        let (rewritten, outputs) = apply_actions(&entry.actions, &pkt);
        let mut emitted_any = false;
        for out in outputs {
            let ports: Vec<u16> = match out {
                PortNo::Phys(p) => vec![p],
                PortNo::InPort => vec![at.port],
                PortNo::Flood | PortNo::All => sw.live_ports().filter(|&p| p != at.port).collect(),
                // Controller output punts; other pseudo-ports drop.
                PortNo::Controller => {
                    punt.get_or_insert(at);
                    continue;
                }
                _ => continue,
            };
            for p in ports {
                let from = Endpoint::new(at.dpid, p);
                let port_live = sw.port(p).map(|ps| ps.desc.is_live()).unwrap_or(false);
                if !port_live {
                    continue;
                }
                if let Some(h) = net.host_at(from) {
                    emitted_any = true;
                    if h.mac == dst {
                        delivered_to_dst = true;
                    } else {
                        delivered_other = true;
                    }
                } else if let Some(peer) = net.link_peer(from) {
                    emitted_any = true;
                    queue.push_back((peer, rewritten.clone()));
                }
                // Dangling live port: emitted into the void — not counted.
            }
        }
        if !emitted_any && punt.is_none() {
            // Every output died (dead ports, dangling links): black-hole.
            black_hole.get_or_insert(at);
        }
    }

    if delivered_to_dst && !delivered_other {
        ProbeOutcome::Delivered
    } else if delivered_to_dst || delivered_other {
        ProbeOutcome::Flooded {
            reached_destination: delivered_to_dst,
        }
    } else if let Some(at) = punt {
        ProbeOutcome::Punt { at }
    } else if let Some(at) = black_hole {
        ProbeOutcome::BlackHole { at }
    } else {
        // Nothing happened at all (e.g. source attach port dead).
        ProbeOutcome::BlackHole { at: host.attach }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use legosdn_netsim::Topology;
    use legosdn_openflow::prelude::*;

    fn net2() -> (Network, Topology) {
        let topo = Topology::linear(2, 1);
        (Network::new(&topo), topo)
    }

    fn install(net: &mut Network, dpid: DatapathId, fm: FlowMod) {
        net.apply(dpid, &Message::FlowMod(fm)).unwrap();
    }

    fn trunk_port(net: &Network, d: DatapathId) -> u16 {
        net.links()
            .find_map(|(l, _)| {
                if l.a.dpid == d {
                    Some(l.a.port)
                } else if l.b.dpid == d {
                    Some(l.b.port)
                } else {
                    None
                }
            })
            .unwrap()
    }

    #[test]
    fn empty_tables_punt() {
        let (net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(matches!(out, ProbeOutcome::Punt { .. }));
        assert!(!out.is_violation());
        // Probing must not mutate counters.
        assert_eq!(
            net.switch(DatapathId(1))
                .unwrap()
                .table()
                .stats()
                .lookup_count,
            0
        );
    }

    #[test]
    fn full_path_delivers() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let b_attach = topo.hosts[1].attach;
        let d1 = topo.hosts[0].attach.dpid;
        let trunk = trunk_port(&net, d1);
        install(
            &mut net,
            d1,
            FlowMod::add(Match::eth_dst(b)).action(Action::Output(PortNo::Phys(trunk))),
        );
        install(
            &mut net,
            b_attach.dpid,
            FlowMod::add(Match::eth_dst(b)).action(Action::Output(PortNo::Phys(b_attach.port))),
        );
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert_eq!(out, ProbeOutcome::Delivered);
        assert!(out.is_delivered());
    }

    #[test]
    fn drop_rule_is_black_hole() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let d1 = topo.hosts[0].attach.dpid;
        install(&mut net, d1, FlowMod::add(Match::any()).priority(u16::MAX));
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(matches!(out, ProbeOutcome::BlackHole { at } if at.dpid == d1));
        assert!(out.is_violation());
    }

    #[test]
    fn dead_egress_is_black_hole() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let d1 = topo.hosts[0].attach.dpid;
        let trunk = trunk_port(&net, d1);
        install(
            &mut net,
            d1,
            FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(trunk))),
        );
        net.set_link_up(0, false).unwrap();
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(matches!(out, ProbeOutcome::BlackHole { .. }), "got {out:?}");
    }

    #[test]
    fn two_switch_loop_detected() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for sw in topo.switches.keys() {
            let out_port = trunk_port(&net, *sw);
            install(
                &mut net,
                *sw,
                FlowMod::add(Match::any()).action(Action::Output(PortNo::Phys(out_port))),
            );
        }
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(
            matches!(out, ProbeOutcome::Loop { ref path } if path.len() >= 2),
            "got {out:?}"
        );
    }

    #[test]
    fn flood_reaches_destination_as_flooded() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for sw in topo.switches.keys() {
            install(
                &mut net,
                *sw,
                FlowMod::add(Match::any()).action(Action::Output(PortNo::Flood)),
            );
        }
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        // Linear(2, 1): the flood exits to host b only (other ports are the
        // trunk); b is on the far switch, so it arrives. Intermediate
        // deliveries to other hosts don't exist here, so Delivered.
        assert!(out.is_delivered(), "got {out:?}");
    }

    #[test]
    fn controller_output_is_punt() {
        let (mut net, topo) = net2();
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        let d1 = topo.hosts[0].attach.dpid;
        install(
            &mut net,
            d1,
            FlowMod::add(Match::any()).action(Action::Output(PortNo::Controller)),
        );
        let out = probe(&net, a, b, &Packet::ethernet(a, b));
        assert!(matches!(out, ProbeOutcome::Punt { .. }), "got {out:?}");
    }

    #[test]
    fn unknown_source() {
        let (net, topo) = net2();
        let ghost = MacAddr::from_index(999);
        let out = probe(
            &net,
            ghost,
            topo.hosts[0].mac,
            &Packet::ethernet(ghost, ghost),
        );
        assert_eq!(out, ProbeOutcome::NoSuchSource);
    }
}
