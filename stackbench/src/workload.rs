//! The three workloads (configuration, app roster, seeded stream) and the
//! closed-loop load generator that replays a stream through
//! `LegoSdnRuntime`.
//!
//! One reaction: inject one arrival (or one burst) into the network, tick
//! the sim clock when due, then call `run_cycle` until the network has no
//! controller-bound event left. The next reaction starts only after that,
//! so the load is a closed loop with a single client.

use legosdn::netsim::DataplaneTrace;
use legosdn::prelude::*;
use legosdn_bench::workloads::{elephant_mice, flash_crowd, link_flap_storm, TraceEvent};
use std::time::Instant;

/// Arrivals between one-second ticks of the sim clock. With
/// LearningSwitch's 5 s idle timeout, a rule not hit for 500 arrivals
/// expires, so flow tables reach a steady state and per-event cost does
/// not grow with run length.
pub const TICK_EVERY: u64 = 100;

/// Arrivals replayed after set-up and before timing starts: long enough
/// for idle expiry to bring flow tables to their steady state.
pub const WARMUP_ARRIVALS: u64 = 1_000;

/// `run_cycle` calls after which a reaction is abandoned and counted as
/// failed. Loop-free reactions in these workloads need at most a few
/// dozen.
pub const CYCLE_CAP: u32 = 1_000;

/// Events generated per stream chunk (a multiple of the link-flap
/// period of 16 events, so the flap pattern is the same in every chunk).
const CHUNK: usize = 2_048;

/// A benchmark workload.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Workload {
    /// The default deployment: Local sandboxes, pipelined depth 1, the
    /// invariant gate on, elephant/mice traffic one arrival at a time.
    ReactiveLocal,
    /// AppVisor stubs over channels, a window of 8, no gate, flash-crowd
    /// bursts of 4 arrivals.
    IsolatedBurst,
    /// Local sandboxes, no gate, a crash-prone LearningSwitch, link flaps
    /// among the packets.
    FlapCrash,
}

impl Workload {
    pub const ALL: [Workload; 3] = [
        Workload::ReactiveLocal,
        Workload::IsolatedBurst,
        Workload::FlapCrash,
    ];

    pub fn name(self) -> &'static str {
        match self {
            Workload::ReactiveLocal => "reactive_local",
            Workload::IsolatedBurst => "isolated_burst",
            Workload::FlapCrash => "flap_crash",
        }
    }

    pub fn parse(name: &str) -> Option<Workload> {
        Workload::ALL.into_iter().find(|w| w.name() == name)
    }

    /// Fat-tree arity.
    pub fn k(self) -> usize {
        match self {
            Workload::IsolatedBurst => 6,
            Workload::ReactiveLocal | Workload::FlapCrash => 4,
        }
    }

    /// Arrivals injected per reaction.
    pub fn burst(self) -> usize {
        match self {
            Workload::IsolatedBurst => 4,
            Workload::ReactiveLocal | Workload::FlapCrash => 1,
        }
    }

    /// Whether the invariant gate runs on state-altering commits.
    pub fn gated(self) -> bool {
        self == Workload::ReactiveLocal
    }

    /// The runtime configuration. `dispatch: None` keeps the workload's
    /// own engine; the output check passes the sequential reference.
    pub fn config(self, dispatch: Option<DispatchConfig>, obs: ObsConfig) -> LegoSdnConfig {
        let base = LegoSdnConfig {
            obs,
            ..LegoSdnConfig::default()
        };
        let config = match self {
            Workload::ReactiveLocal => base,
            Workload::IsolatedBurst => LegoSdnConfig {
                isolation: IsolationMode::Channel,
                dispatch: DispatchConfig::pipelined().window(8),
                checker: None,
                ..base
            },
            Workload::FlapCrash => LegoSdnConfig {
                checker: None,
                ..base
            },
        };
        let dispatch = dispatch.unwrap_or(config.dispatch);
        LegoSdnConfig { dispatch, ..config }
            .build()
            .expect("workload configurations are valid")
    }

    /// The app roster, in attach order. The crash trigger's RNG is seeded
    /// from the workload seed, so a seed fixes which dispatches crash.
    pub fn roster(self, seed: u64) -> Vec<Box<dyn SdnApp>> {
        let learning: Box<dyn SdnApp> = match self {
            Workload::FlapCrash => Box::new(FaultyApp::new(
                Box::new(LearningSwitch::new()),
                BugTrigger::WithProbability {
                    per_mille: 20,
                    seed: mix(seed, u64::MAX),
                },
                BugEffect::Crash,
            )),
            Workload::ReactiveLocal | Workload::IsolatedBurst => Box::new(LearningSwitch::new()),
        };
        vec![
            Box::new(SpanningTree::new()),
            learning,
            Box::new(Firewall::new(vec![AclRule::deny_port(23)])),
        ]
    }

    fn chunk(self, topo: &Topology, seed: u64) -> Vec<TraceEvent> {
        let w = match self {
            Workload::ReactiveLocal => elephant_mice(topo, seed, CHUNK),
            Workload::IsolatedBurst => flash_crowd(topo, seed, CHUNK),
            Workload::FlapCrash => link_flap_storm(topo, seed, CHUNK),
        };
        w.events
    }
}

/// splitmix64 of `seed` and `salt`: independent sub-seeds per chunk/app.
pub fn mix(seed: u64, salt: u64) -> u64 {
    let mut z = seed ^ salt.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = z.wrapping_add(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// An endless seeded arrival stream, generated in chunks of the
/// workload's trace generator with per-chunk sub-seeds.
pub struct Stream {
    workload: Workload,
    topo: Topology,
    seed: u64,
    next_chunk: u64,
    events: Vec<TraceEvent>,
    pos: usize,
}

impl Stream {
    pub fn new(workload: Workload, seed: u64) -> Stream {
        Stream {
            workload,
            topo: Topology::fat_tree(workload.k()),
            seed,
            next_chunk: 0,
            events: Vec::new(),
            pos: 0,
        }
    }

    /// Make sure the next `n` arrivals are generated, so generation never
    /// falls inside a timed reaction.
    pub fn reserve(&mut self, n: usize) {
        while self.events.len() - self.pos < n {
            let chunk = self
                .workload
                .chunk(&self.topo, mix(self.seed, self.next_chunk));
            self.next_chunk += 1;
            self.events.drain(..self.pos);
            self.pos = 0;
            self.events.extend(chunk);
        }
    }

    /// The next arrival; call [`Stream::reserve`] first.
    fn next(&mut self) -> TraceEvent {
        let ev = self.events[self.pos].clone();
        self.pos += 1;
        ev
    }

    /// The first `n` arrivals (tests).
    #[cfg(test)]
    pub fn take(&mut self, n: usize) -> Vec<TraceEvent> {
        self.reserve(n);
        (0..n).map(|_| self.next()).collect()
    }
}

/// Where a benchmark-side span sits.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Layer {
    Inject,
    LinkState,
    Tick,
    RunCycle,
}

/// Hooks the traced run uses to record spans around the benchmark's calls
/// into the stack. The untraced runs use `()`, which compiles to nothing.
pub trait Probe {
    const ON: bool;
    fn span(&mut self, _layer: Layer, _start: Instant, _end: Instant) {}
    fn injected(&mut self, _trace: &DataplaneTrace) {}
}

impl Probe for () {
    const ON: bool = false;
}

/// What one reaction did.
#[derive(Clone, Copy, Debug, Default)]
pub struct Reaction {
    pub ns: u64,
    pub cycles: u32,
    pub arrivals: u32,
    pub events: u64,
    /// Packets injected in this reaction that no host received
    /// (delivery-counter delta short of the packets injected).
    pub undelivered: u32,
    /// Hit [`CYCLE_CAP`] or an arrival was rejected by the network.
    pub failed: bool,
    pub recoveries: u64,
}

/// A booted network and runtime.
pub struct Rig {
    pub workload: Workload,
    pub topo: Topology,
    pub net: Network,
    pub rt: LegoSdnRuntime,
    /// Arrivals replayed since set-up.
    pub arrivals: u64,
    /// Reactions since set-up.
    pub reactions: u64,
}

impl Rig {
    /// Set-up: build the topology, network and runtime, attach the apps,
    /// run the boot cycles, send one broadcast announce per host, drain.
    pub fn setup(workload: Workload, config: LegoSdnConfig, apps: Vec<Box<dyn SdnApp>>) -> Rig {
        let topo = Topology::fat_tree(workload.k());
        let net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(config);
        for app in apps {
            rt.attach(app).expect("roster attaches");
        }
        let mut rig = Rig {
            workload,
            topo,
            net,
            rt,
            arrivals: 0,
            reactions: 0,
        };
        assert!(rig.drain(), "boot drains");
        for i in 0..rig.topo.hosts.len() {
            let mac = rig.topo.hosts[i].mac;
            rig.net
                .inject(mac, Packet::ethernet(mac, MacAddr::BROADCAST))
                .expect("hosts exist");
            assert!(rig.drain(), "announce drains");
        }
        rig
    }

    /// `run_cycle` until no controller-bound event is left; `false` if
    /// the cycle cap was hit first.
    fn drain(&mut self) -> bool {
        self.drain_probed(&mut ()).1
    }

    fn drain_probed<P: Probe>(&mut self, probe: &mut P) -> (u32, bool) {
        let mut cycles = 0;
        while self.net.peek_event().is_some() {
            if cycles == CYCLE_CAP {
                return (cycles, false);
            }
            let start = P::ON.then(Instant::now);
            self.rt.run_cycle(&mut self.net);
            if let Some(start) = start {
                probe.span(Layer::RunCycle, start, Instant::now());
            }
            cycles += 1;
        }
        (cycles, true)
    }

    /// One closed-loop reaction.
    pub fn react<P: Probe>(&mut self, stream: &mut Stream, probe: &mut P) -> Reaction {
        let burst = self.workload.burst();
        stream.reserve(burst);
        let before = self.rt.stats();
        let (delivered_before, _) = self.net.delivery_counters();
        let mut packets = 0u32;
        let mut rejected = false;
        let t0 = Instant::now();
        for _ in 0..burst {
            let start = P::ON.then(Instant::now);
            let layer = match stream.next() {
                TraceEvent::Inject { src, packet } => {
                    packets += 1;
                    match self.net.inject(src, packet) {
                        Ok(trace) => probe.injected(&trace),
                        Err(_) => rejected = true,
                    }
                    Layer::Inject
                }
                TraceEvent::LinkState { link, up } => {
                    rejected |= self.net.set_link_up(link, up).is_err();
                    Layer::LinkState
                }
            };
            if let Some(start) = start {
                probe.span(layer, start, Instant::now());
            }
            self.arrivals += 1;
            if self.arrivals.is_multiple_of(TICK_EVERY) {
                let start = P::ON.then(Instant::now);
                self.net.tick(SimDuration::from_secs(1));
                if let Some(start) = start {
                    probe.span(Layer::Tick, start, Instant::now());
                }
            }
        }
        let (cycles, drained) = self.drain_probed(probe);
        let ns = u64::try_from(t0.elapsed().as_nanos()).unwrap_or(u64::MAX);
        self.reactions += 1;
        let after = self.rt.stats();
        let (delivered_after, _) = self.net.delivery_counters();
        let delivered = delivered_after - delivered_before;
        Reaction {
            ns,
            cycles,
            arrivals: burst as u32,
            events: after.events_translated - before.events_translated,
            undelivered: u32::try_from(u64::from(packets).saturating_sub(delivered))
                .unwrap_or(u32::MAX),
            failed: rejected || !drained,
            recoveries: after.failstop_recoveries - before.failstop_recoveries,
        }
    }

    /// Replay untimed reactions until `reactions` reactions have run
    /// since set-up.
    pub fn replay_to(&mut self, stream: &mut Stream, reactions: u64) {
        while self.reactions < reactions {
            self.react(stream, &mut ());
        }
    }

    /// Stop the runtime's stub threads and wait for them.
    pub fn shutdown(self) {
        self.rt.shutdown();
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn streams_repeat_for_a_seed_and_differ_across_seeds() {
        for w in Workload::ALL {
            // Past the first chunk, so chunk sub-seeding is covered too.
            let n = CHUNK + 100;
            let a = Stream::new(w, 7).take(n);
            assert_eq!(a, Stream::new(w, 7).take(n), "{}", w.name());
            assert_ne!(
                a,
                Stream::new(w, 8).take(n),
                "{} ignores its seed",
                w.name()
            );
            assert_ne!(
                a[..100],
                a[CHUNK..CHUNK + 100],
                "{} repeats its first chunk",
                w.name()
            );
        }
    }

    #[test]
    fn workload_names_round_trip() {
        for w in Workload::ALL {
            assert_eq!(Workload::parse(w.name()), Some(w));
        }
        assert_eq!(Workload::parse("nope"), None);
    }
}
