//! The LegoSDN runtime: the re-designed controller of paper §3.
//!
//! Composition (Figure 1, right side):
//!
//! ```text
//!   Network ⇄ EventTranslator (controller core)
//!                 │ events                    ▲ commands
//!                 ▼                           │
//!            Crash-Pad dispatch ──► NetLog transactions ──► invariant gate
//!                 │                                               │
//!            AppVisor proxy ⇄ stubs (isolated apps)        byzantine recovery
//! ```
//!
//! Per app-event dispatch: checkpoint if due → deliver through the app's
//! fault domain → on fail-stop, Crash-Pad recovers (restore + ignore/
//! transform per policy) → the app's commands run inside a NetLog
//! transaction → byzantine output is caught by the invariant checker and
//! the transaction rolled back, after which Crash-Pad recovers the app's
//! internal state too.
//!
//! Crashes never propagate: the controller core and every other app keep
//! running — the paper's two fate-sharing relationships are gone.
//!
//! Apps are partitioned across `dispatch.workers` shards (DESIGN.md §13):
//! each [`crate::workers::WorkerShard`] owns its own AppVisor proxy and
//! Crash-Pad, and under pipelined dispatch each worker runs the window
//! machinery on its own thread, committing through the shared
//! [`legosdn_netlog::CommitBarrier`] so the output stays bit-identical to
//! the single-threaded reference.

use crate::config::{DispatchMode, IsolationMode, LegoSdnConfig, ResourceLimits};
use crate::host::{Host, ProxyAdapter};
use crate::workers::{
    commit_outcome, select_app, AppRecord, CommitLane, GateCache, ShardApp, ShardCtx, ShardRouter,
    WindowSlot, WorkerRun, WorkerShard, TXS_PER_POS,
};
use legosdn_appvisor::{AppVisorProxy, TransportKind};
use legosdn_controller::app::SdnApp;
use legosdn_controller::event::Event;
use legosdn_controller::translate::EventTranslator;
use legosdn_crashpad::{CrashPad, LocalSandbox};
use legosdn_invariants::Checker;
use legosdn_netlog::{CommitBarrier, NetLog};
use legosdn_obs::{Obs, TraceId};
use legosdn_openflow::prelude::Message;
use std::collections::VecDeque;
use std::fmt;
use std::sync::Mutex;
use std::time::Instant;

/// Identifier of an attached app.
#[derive(Clone, Copy, PartialEq, Eq, Hash, Debug)]
pub struct AppId(pub usize);

/// Runtime-level counters.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct RuntimeStats {
    /// App-facing events produced by translation.
    pub events_translated: u64,
    /// (app, event) deliveries attempted.
    pub dispatches: u64,
    /// Commands executed against the network.
    pub commands_executed: u64,
    /// Commands suppressed by resource limits.
    pub commands_suppressed: u64,
    /// Fail-stop failures recovered.
    pub failstop_recoveries: u64,
    /// Byzantine outputs blocked (transaction aborted / buffer dropped).
    pub byzantine_blocked: u64,
    /// Apps currently dead (No-Compromise).
    pub apps_dead: u64,
    /// Events skipped because an app was dead or suspended.
    pub events_skipped: u64,
    /// Apps suspended by resource limits.
    pub apps_suspended: u64,
    /// Controller upgrades performed.
    pub upgrades: u64,
    /// `run_cycle`/`tick_apps` invocations.
    pub cycles: u64,
}

/// Report of one run cycle.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct LegoCycleReport {
    pub events: usize,
    pub commands: usize,
    pub recoveries: usize,
    pub byzantine_blocked: usize,
    /// Wall-clock duration of the cycle in nanoseconds.
    pub elapsed_ns: u64,
}

/// Per-app resource usage.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct ResourceUsage {
    pub events_consumed: u64,
    pub commands_emitted: u64,
    pub last_snapshot_bytes: u64,
}

/// Why an app is not being scheduled.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum AppStatus {
    Running,
    /// Dead under a No-Compromise policy.
    Dead,
    /// Suspended by a resource limit.
    Suspended(&'static str),
}

/// Attach failure.
#[derive(Clone, Debug, PartialEq)]
pub struct AttachError(pub String);

impl fmt::Display for AttachError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "attach failed: {}", self.0)
    }
}

impl std::error::Error for AttachError {}

/// A [`ShardCtx`] over one of `self`'s shards, splitting the borrow so
/// sibling fields (`report`, `netlog`, `translator`) stay usable in the
/// same expression.
macro_rules! shard_cx {
    ($self:ident, $w:expr) => {
        ShardCtx {
            shard: &mut $self.shards[$w],
            stats: &mut $self.stats,
            obs: &$self.obs,
            checker: $self.checker.as_ref(),
            shutdown_on_no_compromise: $self.config.shutdown_network_on_no_compromise,
        }
    };
}

/// A [`BurstTranslator`] over `self`'s translation fields, splitting the
/// borrow so the shards and the NetLog stay usable alongside it.
macro_rules! translator_cx {
    ($self:ident) => {
        BurstTranslator {
            cycle: $self.stats.cycles,
            translator: &mut $self.translator,
            stats: &mut $self.stats,
            obs: &$self.obs,
            trace_seen: &mut $self.trace_seen,
            trace_sample: $self.config.obs.trace_sample,
        }
    };
}

/// The LegoSDN runtime.
pub struct LegoSdnRuntime {
    config: LegoSdnConfig,
    translator: EventTranslator,
    netlog: NetLog,
    checker: Option<Checker>,
    /// The byzantine gate's probe cache, lent to every commit lane.
    gate: GateCache,
    /// Worker shards in id order; apps are hashed onto them at attach.
    shards: Vec<WorkerShard>,
    /// Global attach index → (shard, local index).
    router: ShardRouter,
    stats: RuntimeStats,
    obs: Obs,
    /// Translated events seen by the trace sampler (monotonic; doubles as
    /// the `seq` half of [`TraceId`], so ids stay unique across cycles).
    trace_seen: u64,
    /// First transaction id of the next cycle. Every dispatch mode
    /// advances it identically (`events × apps × TXS_PER_POS` per cycle),
    /// so transaction ids are a pure function of the event/app position —
    /// the invariant that lets sharded fastpath commits land out of order
    /// with a txlog that still reads in sequential order.
    txid_cursor: u64,
    /// Some committed batch carried a `send_flow_removed` FlowMod; table
    /// entries persist, so the commit fastpath stays off for all later
    /// cycles (an Add displacing a notify-flagged entry would enqueue a
    /// `FlowRemoved` out of order).
    notify_flows_seen: bool,
}

impl LegoSdnRuntime {
    /// A runtime with the given configuration. Observability is wired
    /// here, once, for every layer, from the `obs` section:
    /// [`crate::config::ObsConfig::instance`] if set, [`Obs::global`] if
    /// merely enabled, a throwaway private instance when disabled.
    ///
    /// Call [`LegoSdnConfig::build`] first to validate; this constructor
    /// tolerates unvalidated configs by clamping (workers/depth floor 1)
    /// rather than panicking.
    #[must_use]
    pub fn new(config: LegoSdnConfig) -> Self {
        let obs = match (&config.obs.instance, config.obs.enabled) {
            (Some(obs), _) => obs.clone(),
            (None, true) => Obs::global(),
            (None, false) => Obs::new(),
        };
        let mut netlog = NetLog::new(config.netlog_mode);
        netlog.set_obs(obs.clone());
        let workers = config.dispatch.workers.max(1);
        let shards = (0..workers)
            .map(|id| {
                let mut crashpad = CrashPad::new(config.crashpad.clone());
                crashpad.set_obs(obs.clone());
                let mut proxy_config = config.io.proxy.clone();
                proxy_config.io = config.io.mode;
                proxy_config.worker = id;
                let mut proxy = AppVisorProxy::new(proxy_config);
                proxy.set_obs(obs.clone());
                WorkerShard {
                    id,
                    proxy,
                    crashpad,
                    apps: Vec::new(),
                }
            })
            .collect();
        obs.gauge("core", "workers", "")
            .set(i64::try_from(workers).unwrap_or(i64::MAX));
        LegoSdnRuntime {
            translator: EventTranslator::new(),
            netlog,
            checker: config.checker.clone(),
            gate: GateCache::new(&obs),
            shards,
            router: ShardRouter::default(),
            stats: RuntimeStats::default(),
            obs,
            trace_seen: 0,
            txid_cursor: 1,
            notify_flows_seen: false,
            config,
        }
    }

    /// Build a push frame of this runtime's observability state for
    /// `campaign`: the cumulative metric snapshot plus the journal delta
    /// after `since` (see [`legosdn_obs::Obs::frame`]). This is the
    /// runtime-level entry point a custom export loop would use; the
    /// stock [`legosdn_obs::PushExporter`] calls the same machinery.
    #[must_use]
    pub fn obs_frame(
        &self,
        campaign: &str,
        since: Option<u64>,
        max_records: usize,
    ) -> legosdn_obs::PushFrame {
        self.obs.frame(campaign, since, max_records)
    }

    /// Journal records with sequence numbers after `since` (all retained
    /// records when `None`) — the raw snapshot-delta without the metric
    /// snapshot around it.
    #[must_use]
    pub fn obs_delta(&self, since: Option<u64>) -> Vec<legosdn_obs::Record> {
        self.obs.journal().snapshot_since(since)
    }

    /// Attach an app in the configured isolation mode.
    pub fn attach(&mut self, app: Box<dyn SdnApp>) -> Result<AppId, AttachError> {
        self.attach_with_limits(app, self.config.resource_limits)
    }

    /// Attach an app with specific resource limits (paper §3.4). The app
    /// lands on the shard with the fewest apps, lowest worker id on ties
    /// — a count-balanced round-robin, so the same roster shards the
    /// same way on every run. Apps never move after attach.
    pub fn attach_with_limits(
        &mut self,
        app: Box<dyn SdnApp>,
        limits: ResourceLimits,
    ) -> Result<AppId, AttachError> {
        let name = app.name().to_string();
        let subscriptions = app.subscriptions();
        let global = self.router.len();
        let worker = (0..self.shards.len())
            .min_by_key(|&w| (self.shards[w].apps.len(), w))
            .unwrap_or(0);
        let shard = &mut self.shards[worker];
        let host = match self.config.isolation {
            IsolationMode::Local => Host::Local(LocalSandbox::new(app)),
            IsolationMode::Channel => Host::Isolated(
                shard
                    .proxy
                    .launch_app(app, TransportKind::Channel)
                    .map_err(|e| AttachError(e.to_string()))?,
            ),
            IsolationMode::Udp => Host::Isolated(
                shard
                    .proxy
                    .launch_app(app, TransportKind::Udp)
                    .map_err(|e| AttachError(e.to_string()))?,
            ),
            IsolationMode::Tcp => Host::Isolated(
                shard
                    .proxy
                    .launch_app(app, TransportKind::Tcp)
                    .map_err(|e| AttachError(e.to_string()))?,
            ),
        };
        shard.apps.push(ShardApp {
            global,
            rec: AppRecord {
                name,
                subscriptions,
                host,
                status: AppStatus::Running,
                limits,
                usage: ResourceUsage::default(),
            },
        });
        let local = shard.apps.len() - 1;
        self.obs
            .gauge("core", "worker_apps", &format!("w{worker}"))
            .set(i64::try_from(shard.apps.len()).unwrap_or(i64::MAX));
        self.router.push(worker, local);
        Ok(AppId(global))
    }

    fn rec(&self, global: usize) -> Option<&AppRecord> {
        let (w, l) = self.router.get(global)?;
        Some(&self.shards[w].apps[l].rec)
    }

    /// Names of attached apps, in attach order.
    #[must_use]
    pub fn app_names(&self) -> Vec<String> {
        (0..self.router.len())
            .map(|g| self.rec(g).expect("router indexes every app").name.clone())
            .collect()
    }

    /// An app's scheduling status.
    pub fn app_status(&self, id: AppId) -> Option<&AppStatus> {
        self.rec(id.0).map(|a| &a.status)
    }

    /// An app's resource usage.
    pub fn app_usage(&self, id: AppId) -> Option<ResourceUsage> {
        self.rec(id.0).map(|a| a.usage)
    }

    /// The worker shard an app was hashed onto.
    pub fn worker_of(&self, id: AppId) -> Option<usize> {
        self.router.get(id.0).map(|(w, _)| w)
    }

    /// The worker-shard count.
    #[must_use]
    pub fn workers(&self) -> usize {
        self.shards.len()
    }

    /// Runtime counters.
    #[must_use]
    pub fn stats(&self) -> RuntimeStats {
        self.stats
    }

    /// The observability handle this runtime (and its Crash-Pad, NetLog,
    /// and AppVisor layers) reports into. Cloning is an `Arc` bump, so a
    /// long-running driver can hand it to an ops endpoint
    /// (`legosdn_obs::ObsServer`) without touching the hot path.
    #[must_use]
    pub fn obs(&self) -> Obs {
        self.obs.clone()
    }

    /// Shard 0's Crash-Pad engine (tickets, checkpoints, policies).
    /// Single-worker runtimes — the default — have exactly one shard, so
    /// this is *the* Crash-Pad; sharded runtimes keep one per worker, and
    /// per-app engines are reached through the app's shard.
    #[must_use]
    pub fn crashpad(&self) -> &CrashPad {
        &self.shards[0].crashpad
    }

    /// Mutable Crash-Pad access (operator policy updates at runtime).
    /// Shard 0's engine; see [`LegoSdnRuntime::crashpad`].
    pub fn crashpad_mut(&mut self) -> &mut CrashPad {
        &mut self.shards[0].crashpad
    }

    /// The Crash-Pad engine owning a specific app.
    pub fn crashpad_for(&self, id: AppId) -> Option<&CrashPad> {
        let (w, _) = self.router.get(id.0)?;
        Some(&self.shards[w].crashpad)
    }

    /// The NetLog engine (transaction log, counter cache).
    #[must_use]
    pub fn netlog(&self) -> &NetLog {
        &self.netlog
    }

    /// The controller core's views.
    #[must_use]
    pub fn translator(&self) -> &EventTranslator {
        &self.translator
    }

    /// The controller is never crashed by app failures; this exists for
    /// symmetry with the monolithic baseline in experiments.
    #[must_use]
    pub fn is_crashed(&self) -> bool {
        false
    }

    /// Whether dispatch runs on the windowed engine: pipelined mode with
    /// a stub to overlap or more than one shard to run. A Local-only,
    /// single-worker roster has nothing to overlap, so it takes the
    /// sequential oracle loop whatever the window depth (DESIGN.md §9).
    fn windowed(&self) -> bool {
        self.config.dispatch.mode == DispatchMode::Pipelined
            && (self.shards.len() > 1
                || self
                    .shards
                    .iter()
                    .flat_map(|s| &s.apps)
                    .any(|a| matches!(a.rec.host, Host::Isolated(_))))
    }

    /// Drain network events, translate, and dispatch under full protection.
    ///
    /// The raws queued when the cycle starts are the burst; events the
    /// cycle's own commits enqueue wait for the next cycle. Under
    /// [`DispatchMode::Pipelined`] the windowed engine dispatches the
    /// burst when the roster has a stub or the runtime has more than one
    /// shard; otherwise — and always under [`DispatchMode::Sequential`]
    /// — each raw's events dispatch before the next raw is translated
    /// (the sequential oracle).
    pub fn run_cycle(&mut self, net: &mut Network) -> LegoCycleReport {
        let _span = self.obs.span("core.run_cycle");
        let started = Instant::now();
        self.stats.cycles += 1;
        let mut report = LegoCycleReport::default();
        let burst = net.poll_events();
        if self.windowed() {
            self.dispatch_windowed(net, burst.into(), Vec::new(), &mut report);
        } else {
            let tx_cycle_base = self.txid_cursor;
            // Every earlier event has committed by the time the oracle
            // translates the next raw, so impure raws translate in place.
            for raw in burst {
                for (ev, trace) in translator_cx!(self).translate(net, raw) {
                    self.dispatch_sequential(net, &ev, trace, &mut report, tx_cycle_base);
                }
            }
        }
        self.txid_cursor += report.events as u64 * self.router.len() as u64 * TXS_PER_POS;
        report.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report
    }

    /// Deliver a Tick to subscribed apps, on the same engine
    /// [`LegoSdnRuntime::run_cycle`] would pick: a one-slot window, or
    /// the oracle loop.
    pub fn tick_apps(&mut self, net: &mut Network) -> LegoCycleReport {
        let _span = self.obs.span("core.tick_apps");
        let started = Instant::now();
        self.stats.cycles += 1;
        let mut report = LegoCycleReport::default();
        let ev = Event::Tick(net.now());
        let trace = translator_cx!(self).trace_for_event(&ev);
        if self.windowed() {
            let slot = WindowSlot {
                event: ev,
                topology: self.translator.topology.clone(),
                devices: self.translator.devices.clone(),
                now: net.now(),
                trace,
            };
            self.dispatch_windowed(net, VecDeque::new(), vec![slot], &mut report);
        } else {
            let tx_cycle_base = self.txid_cursor;
            self.dispatch_sequential(net, &ev, trace, &mut report, tx_cycle_base);
        }
        self.txid_cursor += self.router.len() as u64 * TXS_PER_POS;
        report.elapsed_ns = u64::try_from(started.elapsed().as_nanos()).unwrap_or(u64::MAX);
        report
    }

    /// The sequential oracle for one event: one blocking Crash-Pad
    /// round-trip per selected app, in attach order, each committed
    /// before the next app runs. The event takes the next cycle ordinal.
    fn dispatch_sequential(
        &mut self,
        net: &mut Network,
        event: &Event,
        trace: Option<TraceId>,
        report: &mut LegoCycleReport,
        tx_cycle_base: u64,
    ) {
        let n_apps = self.router.len() as u64;
        let tx_event_base = tx_cycle_base + report.events as u64 * n_apps * TXS_PER_POS;
        report.events += 1;
        self.obs.trace_scope(trace);
        let kind = event.kind();
        for global in 0..self.router.len() {
            let (w, l) = self.router.loc(global);
            if select_app(&mut shard_cx!(self, w), l, kind) {
                self.dispatch_to_app(net, global, event, report, tx_event_base);
            }
        }
        self.obs.trace_scope(None);
    }

    /// Cross-event window scheduler (DESIGN.md §10, sharded per §13):
    /// up to `dispatch.window` slots are in flight per worker at once.
    /// Each worker runs the two-cursor fill/commit machinery over its
    /// own shard's apps; commits synchronize through the
    /// [`CommitBarrier`] in global (event, attach) position order — or
    /// overtake it on the provably-disjoint fastpath — so network state,
    /// the txlog, and runtime counters stay bit-identical to the
    /// sequential reference.
    ///
    /// One drain/fill loop serves every worker count. Each round, every
    /// shard's [`WorkerRun`] drains the slots appended so far — inline at
    /// one worker, on one scoped thread per shard otherwise — and then
    /// [`fill_window`] appends what `burst` now allows. A pure raw
    /// translates as soon as it is reached; an impure one (see [`pure`])
    /// only once every earlier slot has committed, because its
    /// translation reads the network those commits write. The loop stops
    /// when a fill appends nothing.
    fn dispatch_windowed(
        &mut self,
        net: &mut Network,
        mut burst: VecDeque<NetEvent>,
        mut slots: Vec<WindowSlot>,
        report: &mut LegoCycleReport,
    ) {
        let depth = self.config.dispatch.window.max(1);
        let n_apps = self.router.len();
        let sharded = self.shards.len() > 1;
        // The fastpath needs commit-time effects to be exactly the
        // declared touch: a checker observes (and byz-recovery rewrites)
        // live state at commit, and a surviving notify-flagged table
        // entry could emit a FlowRemoved on displacement — either one
        // forces full ordering.
        let fastpath = sharded && self.checker.is_none() && !self.notify_flows_seen;
        let barrier = CommitBarrier::new(fastpath);
        report.events += slots.len();
        let mut bt = translator_cx!(self);
        let lane = Mutex::new(CommitLane {
            net,
            netlog: &mut self.netlog,
            gate: &mut self.gate,
            notify_seen: false,
        });
        // Nothing has committed yet: an impure raw may translate only if
        // no slot was seeded ahead of it.
        fill_window(&mut bt, &mut burst, &lane, &mut slots, 0, report);
        if slots.is_empty() {
            return;
        }
        self.obs
            .gauge("core", "window_depth", "")
            .set(i64::try_from(depth).unwrap_or(i64::MAX));
        let mut runs: Vec<WorkerRun> = self
            .shards
            .iter_mut()
            .map(|shard| WorkerRun {
                wl: if sharded {
                    format!("w{}", shard.id)
                } else {
                    String::new()
                },
                shard,
                barrier: &barrier,
                lane: &lane,
                obs: self.obs.clone(),
                checker: self.checker.as_ref(),
                shutdown_on_no_compromise: self.config.shutdown_network_on_no_compromise,
                depth,
                n_apps,
                tx_cycle_base: self.txid_cursor,
                sharded,
                stats: RuntimeStats::default(),
                report: LegoCycleReport::default(),
                pending: Vec::new(),
                inflight: Vec::new(),
                next_send: 0,
                commit_pos: 0,
            })
            .collect();
        loop {
            if sharded {
                let slots = &slots;
                std::thread::scope(|scope| {
                    for run in &mut runs {
                        std::thread::Builder::new()
                            .name(format!("lego-worker-{}", run.shard.id))
                            .spawn_scoped(scope, move || run.run(slots))
                            .expect("spawn worker thread");
                    }
                });
            } else {
                runs[0].run(&slots);
            }
            // Every slot so far has committed, so the fill may translate
            // an impure raw first.
            let committed = slots.len();
            if fill_window(&mut bt, &mut burst, &lane, &mut slots, committed, report) == 0 {
                break;
            }
        }
        for run in runs {
            self.stats.absorb(&run.stats);
            report.commands += run.report.commands;
            report.recoveries += run.report.recoveries;
            report.byzantine_blocked += run.report.byzantine_blocked;
        }
        let lane = lane.into_inner().expect("commit lane poisoned");
        self.notify_flows_seen |= lane.notify_seen;
        let bs = barrier.stats();
        self.obs
            .counter("netlog", "barrier_fastpath_commits", "")
            .add(bs.fastpath_commits);
        self.obs
            .counter("netlog", "barrier_ordered_commits", "")
            .add(bs.ordered_commits);
        self.obs
            .counter("netlog", "barrier_elided_positions", "")
            .add(bs.elided_positions);
        self.obs
            .counter("netlog", "barrier_shared_switch_conflicts", "")
            .add(bs.shared_switch_conflicts);
    }

    /// One oracle dispatch: Crash-Pad protected delivery, then the
    /// commit against the live translator views.
    fn dispatch_to_app(
        &mut self,
        net: &mut Network,
        global: usize,
        event: &Event,
        report: &mut LegoCycleReport,
        tx_event_base: u64,
    ) {
        let now = net.now();
        let (w, l) = self.router.loc(global);
        let result = {
            let WorkerShard {
                proxy,
                crashpad,
                apps,
                ..
            } = &mut self.shards[w];
            let rec = &mut apps[l].rec;
            let (topo, dev) = (&self.translator.topology, &self.translator.devices);
            match &mut rec.host {
                Host::Local(sandbox) => {
                    crashpad.dispatch(sandbox, &rec.name, event, topo, dev, now)
                }
                Host::Isolated(handle) => {
                    let mut adapter = ProxyAdapter {
                        proxy,
                        handle: *handle,
                    };
                    crashpad.dispatch(&mut adapter, &rec.name, event, topo, dev, now)
                }
            }
        };
        let mut lane = CommitLane {
            net,
            netlog: &mut self.netlog,
            gate: &mut self.gate,
            notify_seen: false,
        };
        commit_outcome(
            &mut shard_cx!(self, w),
            &mut lane,
            l,
            event,
            result,
            report,
            (&self.translator.topology, &self.translator.devices),
            tx_event_base + global as u64 * TXS_PER_POS,
        );
        self.notify_flows_seen |= lane.notify_seen;
    }

    /// §5 STS-guided diagnosis: find the checkpoint and minimal causal
    /// event sequence that reproduce a crash of the given app on
    /// `offending`. The app's current state is preserved around the
    /// search. Typical input for `offending` is the `offending_event` of
    /// the app's latest problem ticket.
    pub fn diagnose(
        &mut self,
        id: AppId,
        offending: &Event,
        now: legosdn_netsim::SimTime,
    ) -> Result<legosdn_crashpad::Diagnosis, legosdn_crashpad::DiagnoseError> {
        let Some((w, l)) = self.router.get(id.0) else {
            return Err(legosdn_crashpad::DiagnoseError::NoHistory);
        };
        let WorkerShard {
            proxy,
            crashpad,
            apps,
            ..
        } = &mut self.shards[w];
        let rec = &mut apps[l].rec;
        let (topo, dev) = (&self.translator.topology, &self.translator.devices);
        match &mut rec.host {
            Host::Local(sandbox) => {
                crashpad.diagnose(sandbox, &rec.name, offending, topo, dev, now)
            }
            Host::Isolated(handle) => {
                let mut adapter = ProxyAdapter {
                    proxy,
                    handle: *handle,
                };
                crashpad.diagnose(&mut adapter, &rec.name, offending, topo, dev, now)
            }
        }
    }

    /// §3.4 controller upgrade: restart the controller core without
    /// touching the apps. The topology/device views are rebuilt by
    /// re-handshaking every switch; apps keep their state and their fault
    /// domains — the outage the monolithic reboot causes does not happen.
    pub fn upgrade_controller(&mut self, net: &mut Network) {
        self.translator = EventTranslator::new();
        self.stats.upgrades += 1;
        let dpids: Vec<_> = net.switches().map(|s| s.dpid()).collect();
        for dpid in dpids {
            if net.switch(dpid).map(|s| s.is_up()).unwrap_or(false) {
                let _ = self
                    .translator
                    .process(net, legosdn_netsim::NetEvent::SwitchConnected(dpid));
            }
        }
    }

    /// Resume a suspended app (operator action after a resource review).
    pub fn resume(&mut self, id: AppId, extra_budget: ResourceLimits) -> bool {
        let Some((w, l)) = self.router.get(id.0) else {
            return false;
        };
        let rec = &mut self.shards[w].apps[l].rec;
        if matches!(rec.status, AppStatus::Suspended(_)) {
            rec.status = AppStatus::Running;
            rec.limits = extra_budget;
            return true;
        }
        false
    }

    /// Shut down all isolated stubs on every shard.
    pub fn shutdown(self) {
        for shard in self.shards {
            let _ = shard.proxy.shutdown();
        }
    }
}

use legosdn_netsim::{NetEvent, Network};

/// Whether a raw event's translation is *pure* — reads nothing but the
/// translator's own views, so translating it while earlier events are
/// still in flight is identical to translating it after they commit.
/// `PortStatus` probes ports and drains the net queue; `SwitchConnected`
/// handshakes (feature replies, port probes). Both read and write the
/// network the in-flight commits write, so the windowed engine
/// translates either one only once every earlier slot has committed.
fn pure(raw: &NetEvent) -> bool {
    match raw {
        NetEvent::FromSwitch(_, msg) => !matches!(msg, Message::PortStatus(_)),
        NetEvent::SwitchDisconnected(_) => true,
        NetEvent::SwitchConnected(_) => false,
    }
}

/// The translation half of the runtime, split off so the main thread can
/// translate (fields: translator, stats, trace cursor) while the worker
/// shards are mutably borrowed by the dispatch threads.
struct BurstTranslator<'a> {
    translator: &'a mut EventTranslator,
    stats: &'a mut RuntimeStats,
    obs: &'a Obs,
    trace_seen: &'a mut u64,
    trace_sample: u64,
    cycle: u64,
}

impl BurstTranslator<'_> {
    /// Sampling gate for the flight recorder: begin a trace for this
    /// event if it is the `trace_sample`th since the last traced one.
    /// Returns the id for scope switching (`None`: not sampled).
    /// Recorder scopes are per-thread, so sampling works at any worker
    /// count — each worker tags its own slice of the window with the
    /// event's trace id.
    fn trace_for_event(&mut self, event: &Event) -> Option<TraceId> {
        if self.trace_sample == 0 {
            return None;
        }
        *self.trace_seen += 1;
        if !(*self.trace_seen - 1).is_multiple_of(self.trace_sample) {
            return None;
        }
        let id = TraceId {
            cycle: self.cycle,
            seq: *self.trace_seen,
        };
        self.obs.trace_begin(id, &format!("{:?}", event.kind()));
        Some(id)
    }

    /// Translate one raw event, counting its events and sampling a trace
    /// for each.
    fn translate(&mut self, net: &mut Network, raw: NetEvent) -> Vec<(Event, Option<TraceId>)> {
        let events = self.translator.process(net, raw);
        self.stats.events_translated += events.len() as u64;
        self.obs
            .counter("core", "events_translated", "")
            .add(events.len() as u64);
        events
            .into_iter()
            .map(|ev| {
                let trace = self.trace_for_event(&ev);
                (ev, trace)
            })
            .collect()
    }
}

/// Grow the window: pop raws off the burst (under a brief lane lock —
/// commits and translation serialize on the same network), translate
/// them with the translator's views snapshotted per event, and append
/// the slots. `committed` is how many leading slots have committed; an
/// impure raw waits while any slot after them is uncommitted. Returns
/// how many slots were appended; 0 means nothing may be translated now.
fn fill_window(
    bt: &mut BurstTranslator<'_>,
    burst: &mut VecDeque<NetEvent>,
    lane: &Mutex<CommitLane<'_>>,
    slots: &mut Vec<WindowSlot>,
    committed: usize,
    report: &mut LegoCycleReport,
) -> usize {
    let mut lane = lane.lock().expect("commit lane poisoned");
    let net: &mut Network = lane.net;
    let before = slots.len();
    while let Some(raw) = burst.front() {
        if slots.len() > committed && !pure(raw) {
            break;
        }
        let raw = burst.pop_front().expect("peeked");
        for (event, trace) in bt.translate(net, raw) {
            slots.push(WindowSlot {
                event,
                topology: bt.translator.topology.clone(),
                devices: bt.translator.devices.clone(),
                now: net.now(),
                trace,
            });
        }
    }
    report.events += slots.len() - before;
    slots.len() - before
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::config::{DispatchConfig, ObsConfig};
    use legosdn_apps::{BugEffect, BugTrigger, FaultyApp, Hub, LearningSwitch};
    use legosdn_controller::event::EventKind;
    use legosdn_crashpad::{
        CheckpointPolicy, CompromisePolicy, CrashPadConfig, PolicyTable, TransformDirection,
    };
    use legosdn_netlog::TxMode;
    use legosdn_netsim::Topology;
    use legosdn_openflow::prelude::*;

    fn runtime(isolation: IsolationMode) -> LegoSdnRuntime {
        LegoSdnRuntime::new(LegoSdnConfig {
            isolation,
            ..LegoSdnConfig::default()
        })
    }

    fn net2() -> (Network, Topology) {
        let topo = Topology::linear(2, 1);
        (Network::new(&topo), topo)
    }

    #[test]
    fn construction_time_obs_wiring_reaches_every_layer() {
        let obs = Obs::new();
        let (mut net, topo) = net2();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        // The runtime's own counters and the Crash-Pad journal records
        // both landed in the private instance, with no set_obs call.
        assert!(obs.counter("core", "dispatches", "").get() > 0);
        assert!(obs
            .journal()
            .snapshot()
            .iter()
            .any(|r| r.kind.is_detection()));
        // The construction-time worker gauge landed too.
        assert_eq!(obs.gauge("core", "workers", "").get(), 1);
    }

    #[test]
    fn journal_capacity_section_bounds_the_private_journal() {
        let rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::journal_capacity(4),
            ..LegoSdnConfig::default()
        });
        assert_eq!(rt.obs().journal().capacity(), 4);
    }

    #[test]
    fn obs_frame_and_delta_expose_the_snapshot() {
        let obs = Obs::new();
        let rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        obs.record(legosdn_obs::RecordKind::HeartbeatMiss { app: "a".into() });
        obs.record(legosdn_obs::RecordKind::HeartbeatMiss { app: "b".into() });
        let frame = rt.obs_frame("alpha", None, 4096);
        assert_eq!(frame.campaign, "alpha");
        assert_eq!(frame.records.len(), 2);
        assert_eq!(rt.obs_delta(Some(0)).len(), 1);
    }

    #[test]
    fn pipelined_dispatch_contains_crashes_and_counts_phases() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation: IsolationMode::Channel,
            dispatch: DispatchConfig::pipelined(),
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        let poison = topo.hosts[1].mac;
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, poison)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.recoveries >= 1, "{report:?}");
        assert!(!rt.is_crashed());
        // Healthy neighbor still produced network output.
        assert!(report.commands > 0, "{report:?}");
        // Per-phase instrumentation landed: the default pipelined
        // dispatch is a depth-1 window, so each event is one fill and
        // one commit.
        assert_eq!(obs.gauge("core", "window_depth", "").get(), 1);
        assert!(obs.histogram("core", "window_queue_ns", "").count() > 0);
        for phase in ["window_fill", "window_commit"] {
            assert!(
                obs.histogram("core", phase, "").count() > 0,
                "missing span histogram for {phase}"
            );
        }
        rt.shutdown();
    }

    #[test]
    fn windowed_dispatch_contains_crashes_and_records_window_metrics() {
        for depth in [1usize, 4] {
            let (mut net, topo) = net2();
            let obs = Obs::new();
            let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
                isolation: IsolationMode::Channel,
                dispatch: DispatchConfig::pipelined().window(depth),
                obs: ObsConfig::instance(obs.clone()),
                ..LegoSdnConfig::default()
            });
            let poison = topo.hosts[1].mac;
            rt.attach(Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnPacketToMac(poison),
                BugEffect::Crash,
            )))
            .unwrap();
            rt.attach(Box::new(LearningSwitch::new())).unwrap();
            rt.run_cycle(&mut net);
            // A burst of four packet-ins in one cycle, with the poison in
            // the middle: slots after the crash must be cancelled, the
            // app restored, and the tail re-sent from the recovered
            // state.
            let a = topo.hosts[0].mac;
            net.inject(a, Packet::ethernet(a, MacAddr::from_index(7)))
                .unwrap();
            net.inject(a, Packet::ethernet(a, poison)).unwrap();
            net.inject(a, Packet::ethernet(a, MacAddr::from_index(8)))
                .unwrap();
            net.inject(a, Packet::ethernet(a, MacAddr::from_index(9)))
                .unwrap();
            let report = rt.run_cycle(&mut net);
            assert!(report.events >= 4, "depth {depth}: {report:?}");
            assert!(report.recoveries >= 1, "depth {depth}: {report:?}");
            assert!(!rt.is_crashed());
            // Healthy neighbor still produced network output for the
            // burst.
            assert!(report.commands > 0, "depth {depth}: {report:?}");
            // Both apps saw every event exactly once (crashed deliveries
            // are replay-recovered, cancelled ones re-sent): the dispatch
            // count must equal what sequential dispatch would record.
            assert_eq!(rt.stats().dispatches, 2 * report.events as u64);
            // Window instrumentation landed.
            assert_eq!(
                obs.gauge("core", "window_depth", "").get(),
                i64::try_from(depth).unwrap()
            );
            assert!(obs.histogram("core", "window_queue_ns", "").count() >= 4);
            for phase in ["window_fill", "window_commit"] {
                assert!(
                    obs.histogram("core", phase, "").count() > 0,
                    "depth {depth}: missing span histogram for {phase}"
                );
            }
            // The system keeps processing later events after the window
            // drains.
            net.inject(a, Packet::ethernet(a, MacAddr::from_index(10)))
                .unwrap();
            let report = rt.run_cycle(&mut net);
            assert!(report.events > 0);
            rt.shutdown();
        }
    }

    #[test]
    fn local_single_worker_roster_takes_the_oracle_loop() {
        // No stub to overlap and no shard to run: a pipelined runtime
        // dispatches on the sequential oracle whatever the depth.
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            isolation: IsolationMode::Local,
            dispatch: DispatchConfig::pipelined().window(8),
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        net.inject(b, Packet::ethernet(b, a)).unwrap();
        let report = rt.run_cycle(&mut net);
        rt.tick_apps(&mut net);
        assert!(report.events >= 2, "{report:?}");
        assert!(rt.stats().dispatches > 0);
        assert_eq!(obs.histogram("core", "window_fill", "").count(), 0);
    }

    #[test]
    fn sharded_dispatch_spreads_apps_and_matches_per_worker_metrics() {
        let (mut net, topo) = net2();
        let obs = Obs::new();
        let mut rt = LegoSdnRuntime::new(
            LegoSdnConfig {
                isolation: IsolationMode::Channel,
                dispatch: DispatchConfig::pipelined().window(2).workers(4),
                obs: ObsConfig::instance(obs.clone()),
                ..LegoSdnConfig::default()
            }
            .build()
            .unwrap(),
        );
        assert_eq!(rt.workers(), 4);
        let mut ids = Vec::new();
        for _ in 0..6 {
            ids.push(rt.attach(Box::new(Hub::new())).unwrap());
        }
        // Six identically-named apps spread over more than one shard
        // (fewest apps first), and the router reports their homes.
        let spread: std::collections::BTreeSet<usize> =
            ids.iter().map(|&id| rt.worker_of(id).unwrap()).collect();
        assert!(spread.len() > 1, "apps never spread across workers");
        assert_eq!(obs.gauge("core", "workers", "").get(), 4);

        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.events >= 2, "{report:?}");
        // Every (packet-in, app) pair dispatched exactly once across
        // shards (the handshake cycle's events have no subscribers here).
        assert_eq!(rt.stats().dispatches, 6 * report.events as u64);
        // Per-worker span labels landed for at least one busy worker.
        let fills: u64 = (0..4)
            .map(|w| {
                obs.histogram("core", "window_fill", &format!("w{w}"))
                    .count()
            })
            .sum();
        assert!(fills > 0, "no per-worker window_fill spans recorded");
        rt.shutdown();
    }

    #[test]
    fn healthy_learning_switch_delivers_traffic() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net); // handshake + discovery
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        // First packet floods (unknown dst), reply teaches, then direct.
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        net.inject(b, Packet::ethernet(b, a)).unwrap();
        rt.run_cycle(&mut net);
        let trace = net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        assert!(trace.delivered_to(b) || trace.packet_ins > 0);
        assert!(rt.stats().commands_executed > 0);
        assert!(!rt.is_crashed());
    }

    #[test]
    fn app_crash_does_not_kill_controller_or_other_apps() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        let poison = topo.hosts[1].mac;
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, poison)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.recoveries >= 1, "{report:?}");
        assert!(!rt.is_crashed());
        // The learning switch still ran and emitted output for the event.
        assert!(rt.stats().dispatches >= 2);
        // And the system keeps processing later events.
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(9)))
            .unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.events > 0);
    }

    #[test]
    fn isolated_channel_app_crash_is_contained() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Channel);
        let poison = topo.hosts[1].mac;
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnPacketToMac(poison),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let a = topo.hosts[0].mac;
        net.inject(a, Packet::ethernet(a, poison)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.recoveries >= 1);
        // Recovered: a later clean packet still floods.
        net.inject(a, Packet::ethernet(a, MacAddr::from_index(9)))
            .unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.commands > 0, "{report:?}");
        rt.shutdown();
    }

    #[test]
    fn byzantine_blackhole_is_blocked_and_rolled_back() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::Blackhole,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.byzantine_blocked >= 1, "{report:?}");
        // The drop-all rule must NOT be on any switch.
        for sw in net.switches() {
            assert!(
                sw.table().iter().all(|e| e.priority != u16::MAX),
                "black-hole rule survived on {:?}",
                sw.dpid()
            );
        }
    }

    #[test]
    fn gate_reuses_cached_probes_from_the_second_state_altering_commit() {
        let obs = Obs::new();
        let topo = Topology::linear(3, 1);
        let mut net = Network::new(&topo);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            obs: ObsConfig::instance(obs.clone()),
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        let pairs = 6; // 3 hosts, ordered pairs
        let counts = || {
            (
                obs.counter("invariants", "pairs_probed", "").get(),
                obs.counter("invariants", "pairs_reused", "").get(),
            )
        };
        rt.run_cycle(&mut net);
        let macs: Vec<MacAddr> = topo.hosts.iter().map(|h| h.mac).collect();
        for (a, b) in [(0, 2), (2, 0), (1, 2), (2, 1), (0, 1)] {
            let (probed, reused) = counts();
            if probed + reused >= 2 * pairs {
                break;
            }
            net.inject(macs[a], Packet::ethernet(macs[a], macs[b]))
                .unwrap();
            rt.run_cycle(&mut net);
        }
        let (probed, reused) = counts();
        // Every gated commit covers all pairs, split between the two.
        assert_eq!((probed + reused) % pairs, 0);
        assert!(probed + reused >= 2 * pairs, "fewer than two gated commits");
        assert!(probed >= pairs, "the first check probes every pair");
        assert!(reused > 0, "probed {probed}, reused {reused}");
    }

    #[test]
    fn byzantine_loop_blocked_in_buffered_mode() {
        let (mut net, topo) = net2();
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            netlog_mode: TxMode::Buffered,
            ..LegoSdnConfig::default()
        });
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::ForwardingLoop,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.byzantine_blocked >= 1);
        for sw in net.switches() {
            assert!(sw.table().iter().all(|e| e.priority != u16::MAX));
        }
    }

    #[test]
    fn no_compromise_app_dies_and_stays_dead() {
        let (mut net, topo) = net2();
        let mut policies = PolicyTable::with_default(CompromisePolicy::Absolute);
        policies.set_app("hub#buggy", CompromisePolicy::NoCompromise);
        let mut rt = LegoSdnRuntime::new(LegoSdnConfig {
            crashpad: CrashPadConfig {
                checkpoints: CheckpointPolicy::default(),
                policies,
                transform_direction: TransformDirection::Decompose,
            },
            ..LegoSdnConfig::default()
        });
        let id = rt
            .attach(Box::new(FaultyApp::new(
                Box::new(Hub::new()),
                BugTrigger::OnEventKind(EventKind::PacketIn),
                BugEffect::Crash,
            )))
            .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        assert_eq!(rt.app_status(id), Some(&AppStatus::Dead));
        assert_eq!(rt.stats().apps_dead, 1);
        // Dead app skips future events; controller unaffected.
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        assert!(rt.stats().events_skipped > 0);
        assert!(!rt.is_crashed());
    }

    #[test]
    fn resource_limit_suspends_runaway_app() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        let id = rt
            .attach_with_limits(
                Box::new(Hub::new()),
                ResourceLimits {
                    max_events: Some(2),
                    ..ResourceLimits::default()
                },
            )
            .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for _ in 0..4 {
            net.inject(a, Packet::ethernet(a, b)).unwrap();
            rt.run_cycle(&mut net);
        }
        assert!(matches!(rt.app_status(id), Some(AppStatus::Suspended(_))));
        assert!(rt.stats().apps_suspended >= 1);
        // Operator resumes with a bigger budget.
        assert!(rt.resume(
            id,
            ResourceLimits {
                max_events: Some(100),
                ..ResourceLimits::default()
            }
        ));
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        let report = rt.run_cycle(&mut net);
        assert!(report.commands > 0);
    }

    #[test]
    fn controller_upgrade_keeps_app_state() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(LearningSwitch::new())).unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        net.inject(a, Packet::ethernet(a, b)).unwrap();
        rt.run_cycle(&mut net);
        let checkpoint_events = rt
            .crashpad()
            .checkpoints
            .events_delivered("learning-switch");
        assert!(checkpoint_events > 0);
        let links_before = rt.translator().topology.n_links();
        rt.upgrade_controller(&mut net);
        assert_eq!(rt.stats().upgrades, 1);
        // Topology rediscovered without a network outage...
        assert_eq!(rt.translator().topology.n_links(), links_before);
        // ...and the app was NOT restarted: its event history continues.
        assert_eq!(
            rt.crashpad()
                .checkpoints
                .events_delivered("learning-switch"),
            checkpoint_events
        );
    }

    #[test]
    fn tickets_accumulate_for_triage() {
        let (mut net, topo) = net2();
        let mut rt = runtime(IsolationMode::Local);
        rt.attach(Box::new(FaultyApp::new(
            Box::new(Hub::new()),
            BugTrigger::OnEventKind(EventKind::PacketIn),
            BugEffect::Crash,
        )))
        .unwrap();
        rt.run_cycle(&mut net);
        let (a, b) = (topo.hosts[0].mac, topo.hosts[1].mac);
        for _ in 0..3 {
            net.inject(a, Packet::ethernet(a, b)).unwrap();
            rt.run_cycle(&mut net);
        }
        assert_eq!(rt.crashpad().tickets.len(), 3);
        let rendered = rt.crashpad().tickets.iter().next().unwrap().render();
        assert!(rendered.contains("hub#buggy"));
    }
}
