//! E17 — the sharded-dispatch ceiling.
//!
//! The E15 exhibit was assignment-bound: pure-hash placement dealt the
//! 16-app roster [5,3,4,4], so 4 workers could never beat 16/5 = 3.2x.
//! This exhibit re-runs the E15 workload (same roster, waits, and burst):
//! count-balanced placement deals [4,4,4,4] and stub commits declare at
//! collect time, so the 4-worker speedup should clear the old 3.2x bound
//! (target >= 3.6x).
//!
//! The E12 guard from E15 is re-run verbatim and, when `BENCH_8.json` is
//! present, its depth-1/depth-8 numbers must not land more than 3% above
//! the recorded baseline — the sharded fast path must not tax the
//! single-worker window. Results land in `BENCH_10.json`. Costs are fixed
//! service waits rather than CPU burn, for the same reason as E11-E15:
//! waits overlap regardless of host core count, so the bench measures the
//! dispatch design, not the machine. They show overlap, not speed.

use legosdn::controller::app::RestoreError;
use legosdn::crashpad::{CheckpointPolicy, CrashPadConfig, PolicyTable, TransformDirection};
use legosdn::prelude::*;
use legosdn_bench::harness::{criterion_group, Criterion};
use legosdn_bench::print_table;
use std::time::{Duration, Instant};

/// A PacketIn-subscribed local app with fixed event/snapshot service
/// waits that installs one uniquely-tagged flow on ITS OWN switch per
/// event — the E15 `ShardWorker`.
struct ShardWorker {
    name: String,
    dpid: DatapathId,
    tag: u64,
    count: u64,
    event_wait: Duration,
    snapshot_wait: Duration,
}

impl ShardWorker {
    fn new(id: usize, switches: usize, event_wait: Duration, snapshot_wait: Duration) -> Self {
        ShardWorker {
            name: format!("shard-worker-{id}"),
            dpid: DatapathId((id % switches) as u64 + 1),
            tag: id as u64,
            count: 0,
            event_wait,
            snapshot_wait,
        }
    }
}

impl SdnApp for ShardWorker {
    fn name(&self) -> &str {
        &self.name
    }

    fn subscriptions(&self) -> Vec<EventKind> {
        vec![EventKind::PacketIn]
    }

    fn on_event(&mut self, event: &Event, ctx: &mut Ctx<'_>) {
        std::thread::sleep(self.event_wait);
        if let Event::PacketIn(_, pi) = event {
            let mut mat = Match::from_packet(&pi.packet, pi.in_port);
            // Unique per (app, delivery): no install ever shadows another.
            mat.eth_src = Some(MacAddr::from_index(
                50_000 + self.tag * 100_000 + self.count,
            ));
            self.count += 1;
            ctx.send(self.dpid, Message::FlowMod(FlowMod::add(mat)));
        }
    }

    fn snapshot(&self) -> Vec<u8> {
        std::thread::sleep(self.snapshot_wait);
        self.count.to_le_bytes().to_vec()
    }

    fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
        let arr: [u8; 8] = bytes
            .try_into()
            .map_err(|_| RestoreError("bad snapshot".into()))?;
        self.count = u64::from_le_bytes(arr);
        Ok(())
    }
}

const N_APPS: usize = 16;
const SWITCHES: usize = 16; // one contention-free switch per app

// The E15 exhibit's constants, reproduced for the re-run.
const E15_BURST: usize = 12;
const E15_EVENT_WAIT: Duration = Duration::from_micros(400);
const E15_SNAPSHOT_WAIT: Duration = Duration::from_micros(300);

fn make_runtime(workers: usize) -> (LegoSdnRuntime, Network, Topology) {
    let topo = Topology::linear(SWITCHES, 1);
    let net = Network::new(&topo);
    let mut rt = LegoSdnRuntime::new(
        LegoSdnConfig {
            isolation: IsolationMode::Local,
            dispatch: DispatchConfig::pipelined()
                .window(E15_BURST)
                .workers(workers),
            obs: ObsConfig::instance(Obs::new()).trace_sample(0),
            crashpad: CrashPadConfig {
                checkpoints: CheckpointPolicy {
                    interval: 1, // pre-event snapshot on every delivery
                    history: 2,
                    ..CheckpointPolicy::default()
                },
                policies: PolicyTable::with_default(CompromisePolicy::Absolute),
                transform_direction: TransformDirection::Decompose,
            },
            // No invariant checker: commit-time effects equal the declared
            // write set, so the disjoint fastpath stays available.
            checker: None,
            ..LegoSdnConfig::default()
        }
        .build()
        .expect("valid bench config"),
    );
    for i in 0..N_APPS {
        rt.attach(Box::new(ShardWorker::new(
            i,
            SWITCHES,
            E15_EVENT_WAIT,
            E15_SNAPSHOT_WAIT,
        )))
        .unwrap();
    }
    (rt, net, topo)
}

fn inject_burst(net: &mut Network, topo: &Topology, burst: usize) {
    let a = topo.hosts[0].mac;
    for i in 0..burst as u64 {
        let dst = MacAddr::from_index(900 + i);
        net.inject(a, Packet::ethernet(a, dst)).unwrap();
    }
}

/// Mean microseconds per burst cycle over `n` cycles, after `warm`
/// warmup cycles.
fn time_bursts(
    rt: &mut LegoSdnRuntime,
    net: &mut Network,
    topo: &Topology,
    burst: usize,
    warm: u32,
    n: u32,
) -> f64 {
    for _ in 0..warm {
        inject_burst(net, topo, burst);
        rt.run_cycle(net);
    }
    let start = Instant::now();
    for _ in 0..n {
        inject_burst(net, topo, burst);
        rt.run_cycle(net);
    }
    start.elapsed().as_secs_f64() * 1e6 / f64::from(n)
}

/// The E15 workload at 1/2/4 workers. Returns (us/cycle per worker
/// count, 4-worker speedup).
fn e15_rerun() -> (Vec<(usize, f64)>, f64) {
    let n = 20u32;
    let mut us = Vec::new();
    for &workers in &[1usize, 2, 4] {
        let (mut rt, mut net, topo) = make_runtime(workers);
        let cycle_us = time_bursts(&mut rt, &mut net, &topo, E15_BURST, 3, n);
        rt.shutdown();
        us.push((workers, cycle_us));
    }
    let speedup = us[0].1 / us[2].1;
    (us, speedup)
}

/// The E12 workload (4 isolated stub apps, 8-event bursts, interval-1
/// checkpoints, 300/450 us waits) at one worker: the guard from E15,
/// re-run verbatim so the numbers are comparable to `BENCH_8.json`.
mod e12_guard {
    use super::*;

    struct PacketWorker {
        name: String,
        acc: u64,
    }

    impl SdnApp for PacketWorker {
        fn name(&self) -> &str {
            &self.name
        }

        fn subscriptions(&self) -> Vec<EventKind> {
            vec![EventKind::PacketIn]
        }

        fn on_event(&mut self, _event: &Event, _ctx: &mut Ctx<'_>) {
            std::thread::sleep(Duration::from_micros(300));
            let mut h: u64 = 0xcbf2_9ce4_8422_2325 ^ self.acc.wrapping_add(1);
            for i in 0..256u32 {
                h ^= u64::from(i);
                h = h.wrapping_mul(0x0000_0100_0000_01b3);
            }
            self.acc = h;
        }

        fn snapshot(&self) -> Vec<u8> {
            std::thread::sleep(Duration::from_micros(450));
            self.acc.to_le_bytes().to_vec()
        }

        fn restore(&mut self, bytes: &[u8]) -> Result<(), RestoreError> {
            let arr: [u8; 8] = bytes
                .try_into()
                .map_err(|_| RestoreError("bad snapshot".into()))?;
            self.acc = u64::from_le_bytes(arr);
            Ok(())
        }
    }

    fn runtime(depth: usize) -> (LegoSdnRuntime, Network, Topology) {
        let topo = Topology::linear(2, 1);
        let net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation: IsolationMode::Channel,
            dispatch: DispatchConfig::pipelined().window(depth).workers(1),
            obs: ObsConfig::instance(Obs::new()),
            crashpad: CrashPadConfig {
                checkpoints: CheckpointPolicy {
                    interval: 1,
                    history: 2,
                    ..CheckpointPolicy::default()
                },
                policies: PolicyTable::with_default(CompromisePolicy::Absolute),
                transform_direction: TransformDirection::Decompose,
            },
            ..LegoSdnConfig::default()
        });
        for i in 0..4 {
            rt.attach(Box::new(PacketWorker {
                name: format!("packet-worker-{i}"),
                acc: 0,
            }))
            .unwrap();
        }
        (rt, net, topo)
    }

    fn inject(net: &mut Network, topo: &Topology) {
        let a = topo.hosts[0].mac;
        for i in 0..8u64 {
            net.inject(a, Packet::ethernet(a, MacAddr::from_index(40 + i)))
                .unwrap();
        }
    }

    fn time(depth: usize, n: u32) -> f64 {
        let (mut rt, mut net, topo) = runtime(depth);
        for _ in 0..3 {
            inject(&mut net, &topo);
            rt.run_cycle(&mut net);
        }
        let start = Instant::now();
        for _ in 0..n {
            inject(&mut net, &topo);
            rt.run_cycle(&mut net);
        }
        let us = start.elapsed().as_secs_f64() * 1e6 / f64::from(n);
        rt.shutdown();
        us
    }

    /// Best-of-three depth-1 and depth-8 runs. The workload is
    /// sleep-bound, so timer slack only ever ADDS time — the minimum is
    /// the stable estimate of the design cost, which is what the
    /// recorded baseline (taken on an idle machine) captured.
    pub fn depth_ratio() -> (f64, f64, f64) {
        let n = 40u32;
        let d1 = (0..3).map(|_| time(1, n)).fold(f64::INFINITY, f64::min);
        let d8 = (0..3).map(|_| time(8, n)).fold(f64::INFINITY, f64::min);
        (d1, d8, d1 / d8)
    }
}

/// Pull `"key": 123.4` out of a recorded exhibit file without a JSON
/// dependency — the bench files are written by us, flat, and trusted.
fn json_f64(text: &str, key: &str) -> Option<f64> {
    let pat = format!("\"{key}\":");
    let at = text.find(&pat)? + pat.len();
    let rest = text[at..].trim_start();
    let end = rest
        .find(|c: char| !(c.is_ascii_digit() || c == '.' || c == '-'))
        .unwrap_or(rest.len());
    rest[..end].parse().ok()
}

/// The recorded `BENCH_8.json`, from the working directory or the repo
/// root (benches run from either).
fn baseline() -> Option<String> {
    ["BENCH_8.json", "../../BENCH_8.json"]
        .iter()
        .find_map(|p| std::fs::read_to_string(p).ok())
}

/// Assert one re-run number lands within 3% of its recorded baseline.
/// The check is one-sided: the workload is sleep-bound, so a re-run
/// below the recording just means less timer slack than the baseline
/// session — only time ADDED over the recording can be a regression.
/// Returns false (after reporting) on a breach.
fn within_guard(name: &str, rerun: f64, recorded: f64) -> bool {
    let drift = (rerun - recorded) / recorded * 100.0;
    let ok = drift <= 3.0;
    eprintln!(
        "guard {name}: recorded {recorded:.1}, re-run {rerun:.1} ({drift:+.1}%) {}",
        if ok { "ok" } else { "BREACH" }
    );
    ok
}

fn summary() {
    // 1. The E15 workload, count-balanced and declare-ahead.
    let (e15_us, speedup4) = e15_rerun();
    let rows: Vec<Vec<String>> = e15_us
        .iter()
        .map(|&(workers, us)| {
            vec![
                workers.to_string(),
                format!("{us:.1}"),
                format!("{:.2}", e15_us[0].1 / us),
            ]
        })
        .collect();
    print_table(
        &format!(
            "E17: the E15 workload ({N_APPS} local apps x {E15_BURST}-event bursts) \
             under count-balanced placement + declare-ahead"
        ),
        &["workers", "mean us/cycle", "speedup"],
        &rows,
    );

    // 2. The E12 guard, compared against the recorded exhibit.
    let (e12_d1, e12_d8, e12_ratio) = e12_guard::depth_ratio();
    print_table(
        "E17 regression guard: E12 workload at one worker",
        &["window depth", "mean us/cycle", "speedup"],
        &[
            vec!["1".into(), format!("{e12_d1:.1}"), "1.00".into()],
            vec![
                "8".into(),
                format!("{e12_d8:.1}"),
                format!("{e12_ratio:.2}"),
            ],
        ],
    );
    let guard_ok = match baseline() {
        Some(text) => {
            let mut ok = true;
            for (key, rerun) in [
                ("e12_depth1_us_per_cycle", e12_d1),
                ("e12_depth8_us_per_cycle", e12_d8),
            ] {
                match json_f64(&text, key) {
                    Some(recorded) => ok &= within_guard(key, rerun, recorded),
                    None => eprintln!("guard: BENCH_8.json has no {key}; skipping"),
                }
            }
            ok
        }
        None => {
            eprintln!("guard: BENCH_8.json not found; skipping the +/-3% comparison");
            true
        }
    };

    if speedup4 < 3.6 {
        eprintln!("WARNING: 4-worker speedup {speedup4:.2}x is below the 3.6x target");
    }

    let json = format!(
        "{{\n  \"exhibit\": \"dispatch_ceiling\",\n  \"apps\": {N_APPS},\n  \
         \"burst\": {E15_BURST},\n  \"switches\": {SWITCHES},\n  \
         \"isolation\": \"local\",\n  \"checkpoint_interval\": 1,\n  \
         \"workers1_us_per_cycle\": {:.1},\n  \
         \"workers2_us_per_cycle\": {:.1},\n  \
         \"workers4_us_per_cycle\": {:.1},\n  \
         \"speedup_4_workers\": {speedup4:.2},\n  \
         \"e12_depth1_us_per_cycle\": {e12_d1:.1},\n  \
         \"e12_depth8_us_per_cycle\": {e12_d8:.1},\n  \
         \"e12_speedup_workers1\": {e12_ratio:.2}\n}}\n",
        e15_us[0].1, e15_us[1].1, e15_us[2].1,
    );
    match std::fs::write("BENCH_10.json", &json) {
        Ok(()) => eprintln!("wrote BENCH_10.json (4-worker speedup {speedup4:.2}x)"),
        Err(e) => eprintln!("could not write BENCH_10.json: {e}"),
    }
    assert!(
        guard_ok,
        "E12 guard re-run drifted more than 3% from BENCH_8.json"
    );
}

fn bench(c: &mut Criterion) {
    let mut g = c.benchmark_group("e17_dispatch_ceiling");
    g.sample_size(5);
    g.bench_function("e15_burst_workers4", |b| {
        b.iter(|| {
            let (mut rt, mut net, topo) = make_runtime(4);
            let us = time_bursts(&mut rt, &mut net, &topo, E15_BURST, 0, 1);
            rt.shutdown();
            us
        })
    });
    g.finish();
}

criterion_group!(benches, bench);

fn main() {
    summary();
    benches();
    legosdn_bench::harness::Criterion::default()
        .configure_from_args()
        .final_summary();
}
