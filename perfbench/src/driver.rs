//! An experiment driver built from the simulator's public API, which can
//! attribute host time to layers.
//!
//! [`drive`] does what `bfc_experiments::run_experiment` does for a run
//! without link dynamics: it builds the same switches, hosts and flow table,
//! seeds the same events, runs them under the real `bfc_sim::run_until`,
//! dispatches each `NetEvent` to the public `Switch` and `Host` handlers,
//! and does the same sampling and safety tracking with `bfc-metrics`. With
//! spans on, it charges host time to the layer each call enters (see
//! [`crate::spans`]): it wraps the `EventQueue` in a sink that times pushes
//! and flight-recorder writes, and wraps BFC's boxed `SwitchPolicy` in one
//! that times every policy call. Its per-flow results must equal
//! `run_experiment`'s bit for bit; the benchmark checks that on every run.

use std::time::Instant;

use bfc_experiments::{ExperimentConfig, Scheme};
use bfc_metrics::{FctRecord, FctSummary, Hist, OccupancySeries, SafetyTracker};
use bfc_net::event::{NetEvent, NetSink};
use bfc_net::packet::{vfid_for_flow, Packet, PacketKind};
use bfc_net::policy::{
    DequeueCtx, EnqueueCtx, EnqueueDecision, PauseTick, PolicyStats, ProbeStats, SwitchPolicy,
};
use bfc_net::routing::RoutingTables;
use bfc_net::switch::Switch;
use bfc_net::topology::Topology;
use bfc_net::trace::{FlightRecorder, TraceEvent};
use bfc_net::types::FlowId;
use bfc_sim::snapshot::{SnapError, SnapReader, SnapWriter};
use bfc_sim::{run_until, EventQueue, SimDuration, SimTime, Simulation};
use bfc_transport::{FlowSpec, Host};
use bfc_workloads::TraceFlow;

use crate::spans::{self, Layer, Profile};
use crate::workload::Outcome;

/// Events handled, by kind.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct EventCounts {
    pub flow_arrival: u64,
    pub packet_arrive: u64,
    pub tx_complete: u64,
    pub pause_timer: u64,
    pub host_timer: u64,
    pub flow_completed: u64,
    pub sample: u64,
}

/// Switch-side counts summed over the fabric.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SwitchTotals {
    pub rx_packets: u64,
    pub ecn_marked: u64,
    pub pfc_pauses_sent: u64,
    pub drops: u64,
    pub flow_table_lookups: u64,
    pub flow_table_probe_steps: u64,
}

/// Everything one driven run produced.
pub struct DriverRun {
    pub records: Vec<FctRecord>,
    pub fct: FctSummary,
    pub end_time: SimTime,
    pub completed: usize,
    pub policy_stats: PolicyStats,
    pub switches: SwitchTotals,
    pub events: EventCounts,
    pub pushes: u64,
    pub pops: u64,
    pub overflow_pushes: u64,
    pub trace_records: u64,
    /// Host seconds from the first build step to the assembled result.
    pub wall_s: f64,
    /// Layer self times when spans were on.
    pub profile: Option<Profile>,
}

impl DriverRun {
    pub fn outcome(&self) -> Outcome<'_> {
        Outcome {
            records: &self.records,
            fct_summary: format!("{:?}", self.fct),
            end_time: self.end_time,
            completed_flows: self.completed,
            drops: self.switches.drops,
            policy_stats: self.policy_stats,
        }
    }
}

/// Runs `trace` on `topo` as `run_experiment` would, with layer spans when
/// `with_spans` is set and the flight recorder on when `trace_capacity` is
/// `Some`. The config must carry no link dynamics.
pub fn drive(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    trace_capacity: Option<usize>,
    with_spans: bool,
) -> DriverRun {
    assert!(
        config.dynamics.is_empty(),
        "the driver models runs without link dynamics"
    );
    if with_spans {
        drive_impl::<true>(topo, trace, config, trace_capacity)
    } else {
        drive_impl::<false>(topo, trace, config, trace_capacity)
    }
}

struct FlowMeta {
    spec: FlowSpec,
    start: SimTime,
    ideal_fct: SimDuration,
    is_incast: bool,
}

struct Fabric {
    routes: RoutingTables,
    switches: Vec<Option<Switch>>,
    hosts: Vec<Option<Host>>,
    flows: Vec<FlowMeta>,
    completed_at: Vec<Option<SimTime>>,
    completed: usize,
    // The sampling and safety state `run_experiment` keeps. Nothing here
    // reads it back; it is kept so the driver does, and the spans time, the
    // same bfc-metrics work.
    fct_hist: Hist,
    occupancy: OccupancySeries,
    peak_queue_samples: Vec<f64>,
    occupied_queue_samples: Vec<f64>,
    sample_until: SimTime,
    safety: SafetyTracker,
    recorder: Option<FlightRecorder>,
    fifo: bool,
    events: EventCounts,
}

/// The `EventQueue` as a `NetSink`, timing each push as `bfc-sim` work and
/// each trace record as flight-recorder work.
struct Sink<'a, const SPANS: bool> {
    queue: &'a mut EventQueue<NetEvent>,
    recorder: Option<&'a mut FlightRecorder>,
    fifo: bool,
}

impl<const SPANS: bool> NetSink for Sink<'_, SPANS> {
    #[inline]
    fn send(&mut self, time: SimTime, event: NetEvent) {
        in_span::<SPANS, _>(Layer::Queue, || {
            if self.fifo {
                self.queue.push(time, event);
            } else {
                self.queue.send(time, event);
            }
        })
    }

    #[inline]
    fn trace(&mut self, at: SimTime, event: TraceEvent) {
        if let Some(recorder) = self.recorder.as_deref_mut() {
            in_span::<SPANS, _>(Layer::Trace, || recorder.record(at, event))
        }
    }
}

/// Runs `f` inside a span of `layer` when spans are on.
#[inline]
fn in_span<const SPANS: bool, T>(layer: Layer, f: impl FnOnce() -> T) -> T {
    if SPANS {
        spans::span(layer, f)
    } else {
        f()
    }
}

/// A switch's boxed policy with every call timed as `bfc-core` work.
struct SpannedPolicy(Box<dyn SwitchPolicy>);

impl SwitchPolicy for SpannedPolicy {
    fn on_enqueue(&mut self, ctx: &EnqueueCtx<'_>, pkt: &Packet) -> EnqueueDecision {
        spans::span(Layer::Policy, || self.0.on_enqueue(ctx, pkt))
    }

    fn on_dequeue(&mut self, ctx: &DequeueCtx<'_>, pkt: &Packet) {
        spans::span(Layer::Policy, || self.0.on_dequeue(ctx, pkt))
    }

    fn pause_frame_tick(&mut self, now: SimTime, ingress: u32) -> PauseTick {
        spans::span(Layer::Policy, || self.0.pause_frame_tick(now, ingress))
    }

    fn stats(&self) -> PolicyStats {
        self.0.stats()
    }

    fn probe_stats(&self) -> ProbeStats {
        self.0.probe_stats()
    }

    fn name(&self) -> &'static str {
        self.0.name()
    }

    fn save_state(&self, w: &mut SnapWriter) {
        self.0.save_state(w)
    }

    fn restore_state(&mut self, r: &mut SnapReader<'_>) -> Result<(), SnapError> {
        self.0.restore_state(r)
    }
}

fn drive_impl<const SPANS: bool>(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    trace_capacity: Option<usize>,
) -> DriverRun {
    let wall = Instant::now();
    if SPANS {
        spans::start(Layer::Driver);
    }
    let mut fabric = build(topo, trace, config, trace_capacity, SPANS);

    let mut queue = EventQueue::with_capacity(trace.len() * 4 + 16);
    {
        let mut sink = Sink::<SPANS> {
            queue: &mut queue,
            recorder: None,
            fifo: fabric.fifo,
        };
        // Seeding order is part of the determinism contract: flow arrivals,
        // then every sample tick.
        for (i, t) in trace.iter().enumerate() {
            sink.send(t.start, NetEvent::FlowArrival { index: i });
        }
        let until = SimTime::ZERO + config.horizon;
        let mut t = SimTime::ZERO + config.sample_interval;
        sink.send(t, NetEvent::Sample);
        while t + config.sample_interval <= until {
            t += config.sample_interval;
            sink.send(t, NetEvent::Sample);
        }
    }

    let deadline = SimTime::ZERO + config.horizon + config.drain;
    // Between two `handle` calls `run_until` is peeking and popping: that
    // time belongs to the queue.
    if SPANS {
        spans::enter(Layer::Queue);
    }
    let end_time = run_until(&mut Dispatch::<SPANS>(&mut fabric), &mut queue, deadline);
    if SPANS {
        spans::exit();
    }

    let run = assemble(fabric, config, end_time, &queue);
    let profile = SPANS.then(spans::finish);
    DriverRun {
        wall_s: wall.elapsed().as_secs_f64(),
        profile,
        ..run
    }
}

fn build(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    trace_capacity: Option<usize>,
    spanned_policy: bool,
) -> Fabric {
    let routes = RoutingTables::compute(topo);
    let hosts_list = topo.hosts();
    let far_a = hosts_list[0];
    let far_b = *hosts_list.last().expect("the fabric has hosts");
    let base_rtt = routes.base_rtt(topo, far_a, far_b, config.mtu);
    let host_gbps = topo.host_uplink(far_a).link.rate_gbps;
    let bdp_bytes = (host_gbps * 1e9 / 8.0 * base_rtt.as_secs_f64()) as u64;
    let scheme = &config.scheme;
    let switch_config =
        scheme.switch_config(config.queues_per_port, config.buffer_bytes, config.mtu);
    let host_config = scheme.host_config(config.mtu, base_rtt, bdp_bytes);
    // Only BFC's policy is bfc-core code; the FIFO and SFQ policies of the
    // other schemes live in bfc-net and count as switch time.
    let wrap = spanned_policy && matches!(scheme, Scheme::Bfc(_));

    let mut switches: Vec<Option<Switch>> = (0..topo.num_nodes()).map(|_| None).collect();
    for id in topo.switches() {
        let mut policy = scheme.make_policy(config.seed ^ u64::from(id.0));
        if wrap {
            policy = Box::new(SpannedPolicy(policy));
        }
        switches[id.index()] = Some(Switch::new(
            id,
            switch_config.clone(),
            topo.ports(id),
            policy,
            config.seed,
        ));
    }
    let mut hosts: Vec<Option<Host>> = (0..topo.num_nodes()).map(|_| None).collect();
    for &h in &hosts_list {
        let uplink = topo.host_uplink(h);
        hosts[h.index()] = Some(Host::new(
            h,
            uplink.link,
            (uplink.peer, uplink.peer_port),
            host_config,
        ));
    }
    let flows: Vec<FlowMeta> = trace
        .iter()
        .enumerate()
        .map(|(i, t)| {
            let flow = FlowId(i as u32);
            FlowMeta {
                spec: FlowSpec {
                    flow,
                    src: t.src,
                    dst: t.dst,
                    size_bytes: t.size_bytes,
                    vfid: vfid_for_flow(flow, config.seed, scheme.num_vfids()),
                },
                start: t.start,
                ideal_fct: routes.ideal_fct(topo, t.src, t.dst, t.size_bytes, config.mtu, i as u64),
                is_incast: t.is_incast,
            }
        })
        .collect();

    Fabric {
        routes,
        switches,
        hosts,
        completed_at: vec![None; flows.len()],
        flows,
        completed: 0,
        fct_hist: Hist::new(),
        occupancy: OccupancySeries::new(),
        peak_queue_samples: Vec::new(),
        occupied_queue_samples: Vec::new(),
        sample_until: SimTime::ZERO + config.horizon,
        safety: SafetyTracker::new(),
        recorder: trace_capacity.map(FlightRecorder::new),
        fifo: config.rank_mode.is_fifo(),
        events: EventCounts::default(),
    }
}

struct Dispatch<'a, const SPANS: bool>(&'a mut Fabric);

impl<const SPANS: bool> Simulation for Dispatch<'_, SPANS> {
    type Event = NetEvent;

    fn handle(&mut self, now: SimTime, event: NetEvent, queue: &mut EventQueue<NetEvent>) {
        if SPANS {
            spans::enter(Layer::Driver);
        }
        let f = &mut *self.0;
        let mut sink = Sink::<SPANS> {
            queue,
            recorder: f.recorder.as_mut(),
            fifo: f.fifo,
        };
        match event {
            NetEvent::FlowArrival { index } => {
                f.events.flow_arrival += 1;
                let spec = f.flows[index].spec;
                if let Some(dst) = f.hosts[spec.dst.index()].as_mut() {
                    in_span::<SPANS, _>(Layer::Host, || dst.expect_flow(spec));
                }
                if let Some(src) = f.hosts[spec.src.index()].as_mut() {
                    in_span::<SPANS, _>(Layer::Host, || src.start_flow(now, spec, &mut sink));
                }
            }
            NetEvent::PacketArrive { node, port, packet } => {
                f.events.packet_arrive += 1;
                if let PacketKind::PfcPause { pause } = packet.kind {
                    let safety = &mut f.safety;
                    in_span::<SPANS, _>(Layer::Metrics, || {
                        safety.record_pause(now, node, packet.src, pause)
                    });
                    sink.trace(
                        now,
                        TraceEvent::PfcDelivered {
                            node,
                            src: packet.src,
                            pause,
                        },
                    );
                }
                let routes = &f.routes;
                if let Some(sw) = f.switches[node.index()].as_mut() {
                    in_span::<SPANS, _>(Layer::Switch, || {
                        sw.handle_packet(now, port, packet, routes, &mut sink)
                    });
                } else if let Some(host) = f.hosts[node.index()].as_mut() {
                    in_span::<SPANS, _>(Layer::Host, || host.handle_packet(now, packet, &mut sink));
                }
            }
            NetEvent::TxComplete { node, port } => {
                f.events.tx_complete += 1;
                if let Some(sw) = f.switches[node.index()].as_mut() {
                    in_span::<SPANS, _>(Layer::Switch, || {
                        sw.handle_tx_complete(now, port, &mut sink)
                    });
                } else if let Some(host) = f.hosts[node.index()].as_mut() {
                    in_span::<SPANS, _>(Layer::Host, || host.handle_tx_complete(now, &mut sink));
                }
            }
            NetEvent::PauseFrameTimer { node, port } => {
                f.events.pause_timer += 1;
                if let Some(sw) = f.switches[node.index()].as_mut() {
                    in_span::<SPANS, _>(Layer::Switch, || {
                        sw.handle_pause_timer(now, port, &mut sink)
                    });
                }
            }
            NetEvent::HostTimer { node, timer } => {
                f.events.host_timer += 1;
                if let Some(host) = f.hosts[node.index()].as_mut() {
                    in_span::<SPANS, _>(Layer::Host, || host.handle_timer(now, timer, &mut sink));
                }
            }
            NetEvent::FlowCompleted { flow } => {
                f.events.flow_completed += 1;
                let done = &mut f.completed_at[flow.index()];
                if done.is_none() {
                    *done = Some(now);
                    f.completed += 1;
                    let meta = &f.flows[flow.index()];
                    if !meta.is_incast {
                        // `run_experiment`'s integer milli-slowdown histogram.
                        let fct = now.saturating_since(meta.start).as_picos() as u128;
                        let ideal = meta.ideal_fct.as_picos().max(1) as u128;
                        let milli = (fct * 1000 / ideal).max(1000);
                        let hist = &mut f.fct_hist;
                        in_span::<SPANS, _>(Layer::Metrics, || {
                            hist.observe(milli.min(u64::MAX as u128) as u64)
                        });
                    }
                }
            }
            NetEvent::Sample => {
                f.events.sample += 1;
                in_span::<SPANS, _>(Layer::Metrics, || take_samples(f, now));
            }
            NetEvent::NetworkDynamics { .. } => {
                unreachable!("benchmark workloads schedule no link dynamics")
            }
        }
        if SPANS {
            spans::exit();
        }
    }
}

/// The sampling tick of `run_experiment`: buffer occupancy, the largest
/// queue and the most occupied queues per port, and delivered goodput.
fn take_samples(f: &mut Fabric, now: SimTime) {
    if now <= f.sample_until {
        let mut max_queue = 0u64;
        let mut max_occupied = 0usize;
        for sw in f.switches.iter().flatten() {
            f.occupancy.record(sw.buffer().occupancy());
            for p in 0..sw.num_ports() {
                let port = sw.port(p as u32);
                max_occupied = max_occupied.max(port.occupied_queue_count());
                for q in 0..port.num_queues() {
                    max_queue = max_queue.max(port.queue_bytes(q));
                }
            }
        }
        f.peak_queue_samples.push(max_queue as f64);
        f.occupied_queue_samples.push(max_occupied as f64);
    }
    let delivered: u64 = f
        .hosts
        .iter()
        .flatten()
        .map(|h| h.counters().rx_data_bytes)
        .sum();
    f.safety.record_goodput(now, delivered);
}

fn assemble(
    mut f: Fabric,
    config: &ExperimentConfig,
    end_time: SimTime,
    queue: &EventQueue<NetEvent>,
) -> DriverRun {
    let (records, fct) = spans::span(Layer::Metrics, || {
        let records: Vec<FctRecord> = f
            .flows
            .iter()
            .zip(&f.completed_at)
            .filter_map(|(meta, done)| {
                Some(FctRecord {
                    flow: meta.spec.flow,
                    size_bytes: meta.spec.size_bytes,
                    fct: (*done)?.saturating_since(meta.start),
                    ideal_fct: meta.ideal_fct,
                    is_incast: meta.is_incast,
                })
            })
            .collect();
        let fct = FctSummary::from_records(&records);
        let pending = f.flows.len() - f.completed;
        let report = f.safety.finish(&config.safety, end_time, pending);
        std::hint::black_box((report, f.safety.pause_durations(end_time)));
        (records, fct)
    });

    let mut policy_stats = PolicyStats::default();
    let mut switches = SwitchTotals::default();
    for sw in f.switches.iter().flatten() {
        policy_stats.merge(&sw.policy_stats());
        let c = sw.counters();
        switches.rx_packets += c.rx_packets;
        switches.ecn_marked += c.ecn_marked;
        switches.pfc_pauses_sent += c.pfc_pauses_sent;
        switches.drops += c.drops;
        let probe = sw.probe_stats();
        switches.flow_table_lookups += probe.lookups;
        switches.flow_table_probe_steps += probe.probe_steps;
    }
    let trace_records = f.recorder.take().map_or(0, |r| {
        let t = r.finish();
        t.records.len() as u64 + t.dropped
    });
    DriverRun {
        records,
        fct,
        end_time,
        completed: f.completed,
        policy_stats,
        switches,
        events: f.events,
        pushes: queue.total_scheduled(),
        pops: queue.total_delivered(),
        overflow_pushes: queue.overflow_pushes(),
        trace_records,
        wall_s: 0.0,
        profile: None,
    }
}
