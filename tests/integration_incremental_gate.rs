//! The incremental byzantine gate (DESIGN.md §16) must be exact: after
//! every step of seeded op sequences, `Checker::check_with` through one
//! long-lived `ProbeCache` reports exactly what a fresh all-pairs
//! `Checker::check` reports, pair order included. One case per stamping
//! site shows each change invalidates the pairs it touches (and counter
//! updates invalidate none), and planted byzantine output is blocked and
//! rolled back by the runtime's cached gate.

use legosdn::invariants::{Invariant, ProbeCache};
use legosdn::netlog::NetLog;
use legosdn::netsim::HostSpec;
use legosdn::prelude::*;
use legosdn_testkit::Rng;
use std::collections::{BTreeMap, VecDeque};

/// Every invariant on, so every outcome class shapes the report.
fn strict() -> Checker {
    Checker::new(vec![
        Invariant::NoBlackHoles,
        Invariant::NoLoops,
        Invariant::AllPairsServiced,
    ])
}

/// Shortest-path L2 forwarding toward every host over the links that are
/// up, at priority 10.
fn route(net: &mut Network) {
    let mut adj: BTreeMap<DatapathId, Vec<(u16, DatapathId)>> = BTreeMap::new();
    for (l, up) in net.links() {
        if up {
            adj.entry(l.a.dpid).or_default().push((l.a.port, l.b.dpid));
            adj.entry(l.b.dpid).or_default().push((l.b.port, l.a.dpid));
        }
    }
    let hosts: Vec<HostSpec> = net.hosts().to_vec();
    for h in hosts {
        let mut dist = BTreeMap::from([(h.attach.dpid, 0usize)]);
        let mut queue = VecDeque::from([h.attach.dpid]);
        while let Some(d) = queue.pop_front() {
            for &(_, n) in adj.get(&d).into_iter().flatten() {
                if !dist.contains_key(&n) {
                    dist.insert(n, dist[&d] + 1);
                    queue.push_back(n);
                }
            }
        }
        for (&d, &hops) in &dist {
            let port = if hops == 0 {
                h.attach.port
            } else {
                adj[&d]
                    .iter()
                    .find(|(_, n)| dist.get(n) == Some(&(hops - 1)))
                    .expect("a BFS parent")
                    .0
            };
            let fm = FlowMod::add(Match::eth_dst(h.mac))
                .priority(10)
                .action(Action::Output(PortNo::Phys(port)));
            let _ = net.apply(d, &Message::FlowMod(fm));
        }
    }
}

/// A network checked through one cache, with a fresh check beside every
/// cached one.
struct Diff {
    net: Network,
    cache: ProbeCache,
    checker: Checker,
    reused: usize,
}

impl Diff {
    fn new(topo: &Topology) -> Self {
        let mut net = Network::new(topo);
        route(&mut net);
        let mut d = Diff {
            net,
            cache: ProbeCache::new(),
            checker: strict(),
            reused: 0,
        };
        assert_eq!(
            d.agree("setup"),
            d.net.hosts().len() * (d.net.hosts().len() - 1)
        );
        d
    }

    /// Assert the cached report equals a fresh one; return how many pairs
    /// the cached check probed again.
    fn agree(&mut self, step: &str) -> usize {
        let cached = self.checker.check_with(&self.net, &mut self.cache);
        assert_eq!(cached, self.checker.check(&self.net), "after {step}");
        let counts = self.cache.last_check();
        assert_eq!(counts.probed + counts.reused, cached.pairs_checked);
        self.reused += counts.reused;
        counts.probed
    }

    fn dpids(&self) -> Vec<DatapathId> {
        self.net.switches().map(|s| s.dpid()).collect()
    }

    fn ports(&self, d: DatapathId) -> u16 {
        self.net.switch(d).map_or(1, |s| s.ports().count() as u16)
    }
}

fn random_match(rng: &mut Rng, hosts: &[HostSpec]) -> Match {
    match rng.gen_range(0..4u32) {
        0 => Match::any(),
        1 => Match::exact_eth(rng.pick(hosts).mac, rng.pick(hosts).mac),
        _ => Match::eth_dst(rng.pick(hosts).mac),
    }
}

fn random_action(rng: &mut Rng, ports: u16) -> Option<Action> {
    Some(Action::Output(match rng.gen_range(0..8u32) {
        0 => return None, // a drop rule
        1 => PortNo::Flood,
        2 => PortNo::Controller,
        3 => PortNo::InPort,
        _ => PortNo::Phys(rng.gen_range_inclusive(1..=ports.max(1))),
    }))
}

fn random_add(rng: &mut Rng, d: &Diff, dpid: DatapathId) -> FlowMod {
    let mut fm =
        FlowMod::add(random_match(rng, d.net.hosts())).priority(*rng.pick(&[5u16, 10, 20, 0x8000]));
    if let Some(a) = random_action(rng, d.ports(dpid)) {
        fm = fm.action(a);
    }
    if rng.gen_bool(0.3) {
        fm = fm.hard_timeout(rng.gen_range_inclusive(1..=4u16));
    } else if rng.gen_bool(0.2) {
        fm = fm.idle_timeout(rng.gen_range_inclusive(1..=3u16));
    }
    fm
}

/// An installed entry of `dpid`, addressed strictly.
fn random_entry(rng: &mut Rng, d: &Diff, dpid: DatapathId) -> Option<(Match, u16)> {
    let entries: Vec<_> = d
        .net
        .switch(dpid)?
        .table()
        .iter()
        .map(|e| (e.mat.clone(), e.priority))
        .collect();
    (!entries.is_empty()).then(|| rng.pick(&entries).clone())
}

/// One random step against `d.net`, checked against a fresh check.
fn step(rng: &mut Rng, d: &mut Diff, n: usize) {
    let dpids = d.dpids();
    let dpid = *rng.pick(&dpids);
    let op = rng.gen_range(0..13u32);
    let label = format!("step {n} op {op} on {dpid:?}");
    match op {
        0 | 1 => {
            let fm = random_add(rng, d, dpid);
            let _ = d.net.apply(dpid, &Message::FlowMod(fm));
        }
        2 | 3 => {
            let base = random_add(rng, d, dpid);
            let fm = match (op, random_entry(rng, d, dpid)) {
                (3, Some((mat, priority))) => FlowMod {
                    command: FlowModCommand::ModifyStrict,
                    mat,
                    priority,
                    ..base
                },
                _ => FlowMod {
                    command: FlowModCommand::Modify,
                    ..base
                },
            };
            let _ = d.net.apply(dpid, &Message::FlowMod(fm));
        }
        4 | 5 => {
            let fm = match (op, random_entry(rng, d, dpid)) {
                (5, Some((mat, priority))) => FlowMod::delete_strict(mat, priority),
                _ => FlowMod::delete(random_match(rng, d.net.hosts())),
            };
            let _ = d.net.apply(dpid, &Message::FlowMod(fm));
        }
        6 => d
            .net
            .tick(SimDuration::from_secs(rng.gen_range_inclusive(1..=3u64))),
        7 => {
            let links = d.net.links().count();
            let _ = d
                .net
                .set_link_up(rng.gen_range(0..links), rng.gen_bool(0.5));
        }
        8 => {
            let _ = d.net.set_switch_up(dpid, rng.gen_bool(0.6));
        }
        9 => {
            let pm = PortMod {
                port_no: PortNo::Phys(rng.gen_range_inclusive(1..=d.ports(dpid))),
                hw_addr: MacAddr::from_index(0),
                down: rng.gen_bool(0.5),
            };
            let _ = d.net.apply(dpid, &Message::PortMod(pm));
        }
        10 => {
            // Immediate NetLog: ops land, the cached check sees them
            // mid-transaction, then the abort's inverses undo them.
            let mut netlog = NetLog::new(TxMode::Immediate);
            let mut tx = netlog.begin();
            for _ in 0..rng.gen_range_inclusive(1..=3u32) {
                let target = *rng.pick(&dpids);
                let fm = random_add(rng, d, target);
                let _ = netlog.execute(&mut tx, &mut d.net, target, &Message::FlowMod(fm));
            }
            d.agree(&format!("{label} (open transaction)"));
            if rng.gen_bool(0.7) {
                netlog.abort(tx, &mut d.net).unwrap();
            } else {
                netlog.commit(tx, &mut d.net).unwrap();
            }
        }
        11 => {
            // Buffered gate on a clone, then a different change to the
            // real network: the cache now holds the clone's stamps.
            let commands: Vec<(DatapathId, Message)> = (0..rng.gen_range_inclusive(1..=3u32))
                .map(|_| {
                    let target = *rng.pick(&dpids);
                    (target, Message::FlowMod(random_add(rng, d, target)))
                })
                .collect();
            let gated = d.checker.gate_with(&d.net, &commands, &mut d.cache);
            assert_eq!(gated, d.checker.gate(&d.net, &commands), "{label} (gate)");
            let fm = random_add(rng, d, dpid);
            let _ = d.net.apply(dpid, &Message::FlowMod(fm));
        }
        _ => {
            // Heal: everything back up and re-routed, so later steps
            // start from a network that mostly delivers again.
            for dp in &dpids {
                let _ = d.net.set_switch_up(*dp, true);
            }
            for i in 0..d.net.links().count() {
                let _ = d.net.set_link_up(i, true);
            }
            route(&mut d.net);
        }
    }
    d.agree(&label);
}

fn run_differential(topo: &Topology, seeds: std::ops::Range<u64>, steps: usize) {
    for seed in seeds {
        let mut rng = Rng::seed_from_u64(seed);
        let mut d = Diff::new(topo);
        for n in 0..steps {
            step(&mut rng, &mut d, n);
        }
        assert!(d.reused > 0, "seed {seed}: the cache never answered a pair");
    }
}

#[test]
fn cached_reports_match_fresh_checks_on_fat_tree_4() {
    run_differential(&Topology::fat_tree(4), 1..4, 80);
}

#[test]
fn cached_reports_match_fresh_checks_on_ring_4() {
    run_differential(&Topology::ring(4, 1), 1..9, 150);
}

/// The first link's index and one of its switches.
fn first_link(net: &Network) -> (usize, DatapathId) {
    let (l, _) = net.links().next().expect("a link");
    (0, l.a.dpid)
}

#[test]
fn every_stamping_site_invalidates_the_pairs_it_touches() {
    type Site = fn(&mut Diff);
    let sites: Vec<(&str, Site)> = vec![
        ("entry insert", |d| {
            let at = d.net.hosts()[0].attach.dpid;
            let fm = FlowMod::add(Match::any()).priority(100);
            d.net.apply(at, &Message::FlowMod(fm)).unwrap();
        }),
        ("entry remove", |d| {
            let h = d.net.hosts()[0].clone();
            let fm = FlowMod::delete_strict(Match::eth_dst(h.mac), 10);
            d.net.apply(h.attach.dpid, &Message::FlowMod(fm)).unwrap();
        }),
        ("entry modify", |d| {
            let h = d.net.hosts()[0].clone();
            let fm = FlowMod {
                command: FlowModCommand::ModifyStrict,
                ..FlowMod::add(Match::eth_dst(h.mac)).priority(10)
            };
            d.net.apply(h.attach.dpid, &Message::FlowMod(fm)).unwrap();
        }),
        ("entry expire", |d| {
            let at = d.net.hosts()[0].attach.dpid;
            let fm = FlowMod::add(Match::any())
                .priority(100)
                .hard_timeout(1)
                .action(Action::Output(PortNo::Flood));
            d.net.apply(at, &Message::FlowMod(fm)).unwrap();
            d.agree("install the expiring rule");
            d.net.tick(SimDuration::from_secs(1));
            let table = d.net.switch(at).unwrap().table();
            assert!(table.iter().all(|e| e.priority != 100), "expired");
        }),
        ("port link_down", |d| {
            let (i, _) = first_link(&d.net);
            d.net.set_link_up(i, false).unwrap();
        }),
        ("port config_down", |d| {
            let h = d.net.hosts()[0].clone();
            let pm = PortMod {
                port_no: PortNo::Phys(h.attach.port),
                hw_addr: MacAddr::from_index(0),
                down: true,
            };
            d.net.apply(h.attach.dpid, &Message::PortMod(pm)).unwrap();
        }),
        ("switch power", |d| {
            let (_, a) = first_link(&d.net);
            d.net.set_switch_up(a, false).unwrap();
        }),
        ("link cut before a power cycle", |d| {
            // The cut downs both ports, so the power cycle's link-status
            // writes leave the peer's port alone: only the write's own
            // restamp tells the cache the peer's link came back up.
            let (i, a) = first_link(&d.net);
            d.net.set_link_up(i, false).unwrap();
            d.agree("cut");
            d.net.set_switch_up(a, false).unwrap();
            d.agree("power off");
            route(&mut d.net);
            d.agree("re-route around the dead switch");
            d.net.set_switch_up(a, true).unwrap();
        }),
    ];
    for (name, change) in sites {
        let mut d = Diff::new(&Topology::fat_tree(4));
        assert_eq!(
            d.agree("warm"),
            0,
            "{name}: an unchanged network re-probes nothing"
        );
        change(&mut d);
        assert!(d.agree(name) > 0, "{name}: no pair was probed again");
    }

    // Counter and last_matched updates restamp nothing.
    let mut d = Diff::new(&Topology::fat_tree(4));
    let (a, b) = (d.net.hosts()[0].mac, d.net.hosts()[5].mac);
    let trace = d.net.inject(a, Packet::ethernet(a, b)).unwrap();
    assert!(trace.delivered_to(b));
    assert_eq!(d.agree("traffic"), 0, "counter updates re-probed pairs");
}

/// Run a gated runtime over a fat-tree whose learning switch turns
/// byzantine on every event at host 0's edge switch — a switch every pair
/// from its hosts walks first, so the probes see the planted rules. The
/// network must stay clean after every cycle.
fn planted(mode: TxMode, effect: BugEffect) {
    let topo = Topology::fat_tree(4);
    let edge = topo.hosts[0].attach.dpid;
    let mut net = Network::new(&topo);
    let obs = Obs::new();
    let mut rt = LegoSdnRuntime::new(
        LegoSdnConfig {
            netlog_mode: mode,
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        }
        .build()
        .unwrap(),
    );
    rt.attach(Box::new(SpanningTree::new())).unwrap();
    rt.attach(Box::new(FaultyApp::new(
        Box::new(LearningSwitch::new()),
        BugTrigger::OnSwitch(edge),
        effect,
    )))
    .unwrap();
    let fresh = Checker::default();
    let mut rng = Rng::seed_from_u64(7);
    for cycle in 0..60 {
        if cycle >= 4 {
            let a = rng.pick(&topo.hosts).mac;
            let b = rng.pick(&topo.hosts).mac;
            if a != b {
                net.inject(a, Packet::ethernet(a, b)).unwrap();
            }
        }
        rt.run_cycle(&mut net);
        let report = fresh.check(&net);
        assert!(
            report.is_clean(),
            "{mode:?} {effect:?} cycle {cycle}: {report:?}"
        );
    }
    assert!(rt.stats().byzantine_blocked >= 1, "{mode:?} {effect:?}");
    for sw in net.switches() {
        assert!(
            sw.table().iter().all(|e| e.priority != u16::MAX),
            "{mode:?} {effect:?}: planted rule survived on {:?}",
            sw.dpid()
        );
    }
    assert!(
        obs.counter("invariants", "pairs_reused", "").get() > 0,
        "the runtime's gate never reused a pair"
    );
}

#[test]
fn planted_black_hole_is_blocked_and_rolled_back_by_the_cached_gate() {
    planted(TxMode::Immediate, BugEffect::Blackhole);
    planted(TxMode::Buffered, BugEffect::Blackhole);
}

#[test]
fn planted_loop_is_blocked_and_rolled_back_by_the_cached_gate() {
    planted(TxMode::Immediate, BugEffect::ForwardingLoop);
    planted(TxMode::Buffered, BugEffect::ForwardingLoop);
}
