//! Service mode: deterministic checkpoint/restore and streaming ingest.
//!
//! # Snapshots
//!
//! [`snapshot_experiment`] runs an experiment up to an instant `at` and
//! serializes the complete simulation state — calendar queues, switches
//! (PhysQueues, shared buffers, pause state, policy state and RNG streams),
//! hosts (sender/receiver flow tables and congestion-control state), link
//! state, metrics collectors and the recovery and safety trackers — into a
//! versioned,
//! length-prefixed, checksummed, std-only binary blob
//! ([`bfc_sim::snapshot`]). [`resume_experiment`] rebuilds the run from the
//! same inputs, overlays the saved state and runs to completion.
//!
//! The contract is **bit-identity**: resuming a snapshot taken at any point
//! produces an [`ExperimentResult`] identical field-for-field (floats
//! compared by bits) to the uninterrupted run at the snapshot's shard count
//! (which is itself bit-identical to every other shard count).
//!
//! Every shard count cuts at exactly `at`: the conservative driver runs with
//! `at` as its deadline, so each shard processes every event with
//! `t <= at`, and the driver delivers every boundary event before it
//! returns. Nothing a shard could still receive lands at or before `at` —
//! it would be emitted after `at`, one lookahead later — so the per-shard
//! queues and sims are the complete run state, and resuming re-elects
//! epoch windows from queue state alone. The per-shard pop order does not
//! depend on where windows fall, so the resumed run replays the
//! uninterrupted one's events exactly.
//!
//! A snapshot stores a fingerprint of everything it does *not* serialize
//! (topology shape, trace, configuration, shard count); resuming against
//! different inputs is rejected as corruption rather than silently
//! diverging.
//!
//! # Streaming ingest
//!
//! [`serve_experiment`] drives a live simulation from an
//! [`IngestSource`] (a tailed CSV file or a TCP socket — see
//! [`bfc_workloads::ingest`]) instead of a pre-materialized trace. Flows are
//! admitted under an inflight cap: while `admitted - completed` is at the
//! cap, the driver advances the simulation instead of pulling from the
//! source, which is exactly the backpressure signal (an unread file costs
//! nothing; an unread socket closes the feeder's TCP window).

use std::sync::Arc;

use bfc_net::event::{NetEvent, NetSink};
use bfc_net::routing::RoutingTables;
use bfc_net::topology::Topology;
use bfc_sim::snapshot::{self, fnv1a64, SnapError, SnapReader, SnapWriter};
use bfc_sim::{EventQueue, SimTime};
use bfc_workloads::ingest::{IngestError, IngestSource};
use bfc_workloads::TraceFlow;

use crate::runner::{build_flow_meta, ExperimentConfig, ExperimentResult, FabricSim, Frame};
use crate::sharded::{build_workers, drive, finish, plan_for, run_deadline, ShardWorker};

/// Magic bytes identifying a BFC snapshot container.
pub const SNAPSHOT_MAGIC: &[u8; 8] = b"BFCSNAP\0";

/// Current snapshot payload format version. Bump on any layout change; old
/// versions are rejected with [`SnapError::BadVersion`] rather than
/// misinterpreted. Version 4 appended the observability counters to the
/// flow-table and calendar-queue states. Version 5 appended the native
/// histograms: queue-depth-at-enqueue inside each switch's state and the
/// per-sim FCT slowdown histogram after the safety tracker.
pub const SNAPSHOT_VERSION: u32 = 5;

/// Hashes every run input the snapshot does *not* serialize — topology
/// shape, trace, configuration and shard count — so a resume against
/// different inputs fails loudly instead of silently diverging.
fn fingerprint(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    num_shards: usize,
) -> u64 {
    let mut w = SnapWriter::new();
    // Scheme and fault schedule are hashed via their Debug forms: both are
    // plain data enums whose Debug output covers every field.
    w.put_str(&format!("{:?}", config.scheme));
    w.put_u64(config.seed);
    w.put_u32(config.mtu);
    w.put_usize(config.queues_per_port);
    w.put_u64(config.buffer_bytes);
    w.put_u64(config.horizon.as_picos());
    w.put_u64(config.drain.as_picos());
    w.put_u64(config.sample_interval.as_picos());
    w.put_str(&format!("{:?}", config.dynamics));
    w.put_usize(topo.num_nodes());
    w.put_usize(topo.hosts().len());
    w.put_usize(num_shards);
    w.put_usize(trace.len());
    for t in trace {
        w.put_u32(t.src.0);
        w.put_u32(t.dst.0);
        w.put_u64(t.size_bytes);
        w.put_u64(t.start.as_picos());
        w.put_bool(t.is_incast);
    }
    fnv1a64(&w.into_bytes())
}

/// Serializes one sim's mutable state (everything not rebuilt from the run
/// inputs). The immutable frame — topology, flow metadata, configs — is
/// reconstructed on resume and checked via the fingerprint.
fn save_sim(sim: &FabricSim<'_>, w: &mut SnapWriter) {
    sim.link_state.save_state(w);
    w.put_usize(sim.switches.len());
    for slot in &sim.switches {
        w.put_bool(slot.is_some());
        if let Some(sw) = slot {
            sw.save_state(w);
        }
    }
    w.put_usize(sim.hosts.len());
    for slot in &sim.hosts {
        w.put_bool(slot.is_some());
        if let Some(h) = slot {
            h.save_state(w);
        }
    }
    w.put_usize(sim.flow_completed.len());
    for done in &sim.flow_completed {
        w.put_bool(done.is_some());
        if let Some(t) = done {
            w.put_u64(t.as_picos());
        }
    }
    sim.occupancy.save_state(w);
    w.put_usize(sim.peak_queue_samples.len());
    for &v in &sim.peak_queue_samples {
        w.put_f64(v);
    }
    w.put_usize(sim.occupied_queue_samples.len());
    for &v in &sim.occupied_queue_samples {
        w.put_f64(v);
    }
    w.put_usize(sim.completed);
    sim.recovery.save_state(w);
    sim.safety.save_state(w);
    sim.fct_hist.save_state(w);
}

/// Overlays saved mutable state onto a freshly built sim. The sim must have
/// been built from the same inputs with the same ownership predicate — the
/// fingerprint guarantees the former, slot-presence checks the latter.
fn restore_sim(
    sim: &mut FabricSim<'_>,
    frame: &Frame,
    r: &mut SnapReader<'_>,
) -> Result<(), SnapError> {
    sim.link_state.restore_state(r)?;
    if r.get_usize()? != sim.switches.len() {
        return Err(SnapError::Corrupt("switch count mismatch"));
    }
    for slot in sim.switches.iter_mut() {
        match (r.get_bool()?, slot.as_mut()) {
            (true, Some(sw)) => sw.restore_state(r)?,
            (false, None) => {}
            _ => return Err(SnapError::Corrupt("switch ownership mismatch")),
        }
    }
    if r.get_usize()? != sim.hosts.len() {
        return Err(SnapError::Corrupt("host count mismatch"));
    }
    for slot in sim.hosts.iter_mut() {
        match (r.get_bool()?, slot.as_mut()) {
            (true, Some(h)) => h.restore_state(r)?,
            (false, None) => {}
            _ => return Err(SnapError::Corrupt("host ownership mismatch")),
        }
    }
    if r.get_usize()? != sim.flow_completed.len() {
        return Err(SnapError::Corrupt("flow count mismatch"));
    }
    for done in sim.flow_completed.iter_mut() {
        *done = if r.get_bool()? {
            Some(SimTime::from_picos(r.get_u64()?))
        } else {
            None
        };
    }
    sim.occupancy = bfc_metrics::OccupancySeries::restore_state(r)?;
    let n = r.get_count(8)?;
    sim.peak_queue_samples = Vec::with_capacity(n);
    for _ in 0..n {
        sim.peak_queue_samples.push(r.get_f64()?);
    }
    let n = r.get_count(8)?;
    sim.occupied_queue_samples = Vec::with_capacity(n);
    for _ in 0..n {
        sim.occupied_queue_samples.push(r.get_f64()?);
    }
    sim.completed = r.get_usize()?;
    if sim.completed > sim.flow_completed.len() {
        return Err(SnapError::Corrupt("completed count exceeds flow count"));
    }
    sim.recovery = bfc_metrics::RecoveryTracker::restore_state(r)?;
    sim.safety = bfc_metrics::SafetyTracker::restore_state(r)?;
    sim.fct_hist = bfc_metrics::Hist::restore_state(r)?;
    // Routing tables are derived state: recompute them from the restored
    // link-state instead of serializing O(nodes^2) next-hop tables.
    sim.routes = if sim.link_state.all_up() {
        frame.routes.clone()
    } else {
        let ls = &sim.link_state;
        RoutingTables::compute_filtered(sim.topo, |n, p| ls.is_up(n, p))
    };
    Ok(())
}

fn save_worker(wk: &ShardWorker<'_>, w: &mut SnapWriter) {
    w.put_u64(wk.last.as_picos());
    wk.queue.save_state(w, |w, e: &NetEvent| e.save_state(w));
    save_sim(&wk.sim, w);
}

/// Runs the experiment up to `at` (clamped to the run deadline) on
/// `num_shards` shards and returns the serialized snapshot: the state after
/// every event with `t <= at`, at any shard count.
///
/// Panics on invalid inputs (bad fault schedule, unpartitionable topology),
/// exactly like the run entry points.
pub fn snapshot_experiment(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    at: SimTime,
    num_shards: usize,
) -> Vec<u8> {
    let plan = plan_for(topo, trace, config, num_shards);
    let stop_after = at.min(run_deadline(config));
    let mut payload = SnapWriter::new();
    payload.put_u64(fingerprint(topo, trace, config, plan.num_shards()));
    payload.put_u64(stop_after.as_picos());
    payload.put_usize(plan.num_shards());
    let frame = Frame::new(topo, config);
    let mut workers = build_workers(topo, trace, config, &frame, &plan);
    drive(&mut workers, config, stop_after);
    for wk in &workers {
        save_worker(wk, &mut payload);
    }
    snapshot::finalize(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &payload.into_bytes())
}

/// Restores a snapshot taken by [`snapshot_experiment`] against the same
/// inputs and runs the experiment to completion. The result is bit-identical
/// to the uninterrupted run at the snapshot's shard count (which is itself
/// bit-identical at every shard count).
pub fn resume_experiment(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    bytes: &[u8],
) -> Result<ExperimentResult, SnapError> {
    let payload = snapshot::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, bytes)?;
    let mut r = SnapReader::new(payload);
    let stored_fp = r.get_u64()?;
    let _at = SimTime::from_picos(r.get_u64()?);
    let num_shards = r.get_usize()?;
    if !(1..=4096).contains(&num_shards) {
        return Err(SnapError::Corrupt("implausible shard count"));
    }
    if stored_fp != fingerprint(topo, trace, config, num_shards) {
        return Err(SnapError::Corrupt(
            "snapshot was taken for different inputs (topology, trace, config or shard count)",
        ));
    }
    let plan = plan_for(topo, trace, config, num_shards);
    if plan.num_shards() != num_shards {
        return Err(SnapError::Corrupt("shard plan does not match snapshot"));
    }
    let frame = Frame::new(topo, config);
    let mut workers = build_workers(topo, trace, config, &frame, &plan);
    for wk in workers.iter_mut() {
        wk.last = SimTime::from_picos(r.get_u64()?);
        wk.queue = EventQueue::restore_state(&mut r, NetEvent::restore_state)?;
        restore_sim(&mut wk.sim, &frame, &mut r)?;
    }
    r.expect_end()?;
    // The driver folds in each shard's restored `last`, so a snapshot taken
    // after the final event still reports the right end. The queue counters
    // were restored too, so the resumed run reports the same lifetime
    // overflow total as the uninterrupted one.
    let run = drive(&mut workers, config, run_deadline(config));
    Ok(finish(topo, trace, config, &frame, workers, run))
}

/// A shared slot holding the latest rendered metrics exposition, so a
/// scrape thread can serve the text while [`serve_experiment_with`] keeps
/// driving the simulation. Cloning shares the slot.
#[derive(Debug, Clone, Default)]
pub struct MetricsHub {
    text: Arc<std::sync::Mutex<String>>,
}

impl MetricsHub {
    /// Creates an empty hub.
    pub fn new() -> Self {
        Self::default()
    }

    /// Replaces the published exposition with a fresh render of `registry`.
    pub fn publish(&self, registry: &bfc_metrics::MetricsRegistry) {
        *self.text.lock().expect("metrics hub poisoned") = registry.expose();
    }

    /// The most recently published exposition text (empty before the first
    /// publish).
    pub fn render(&self) -> String {
        self.text.lock().expect("metrics hub poisoned").clone()
    }
}

/// Builds the live (mid-run) registry for service mode: the per-switch
/// forwarding counters plus the ingest admission state. Cheap enough to
/// rebuild on every admission.
fn live_registry(sim: &FabricSim<'_>, admitted: usize) -> bfc_metrics::MetricsRegistry {
    let mut registry = bfc_metrics::MetricsRegistry::new();
    for sw in sim.switches.iter().flatten() {
        crate::runner::record_switch_counters(&mut registry, sw);
    }
    registry.add_counter("bfc_flows_admitted", admitted as u64);
    registry.add_counter("bfc_flows_completed", sim.completed as u64);
    registry
}

/// What [`serve_experiment`] produced.
#[derive(Debug)]
pub struct ServeReport {
    /// The experiment result over every admitted flow.
    pub result: ExperimentResult,
    /// Number of flows admitted from the source (equals
    /// `result.total_flows`).
    pub admitted: usize,
}

/// Drives a live simulation from a streaming [`IngestSource`] under an
/// inflight cap, on one shard stepped an event at a time.
///
/// Flows are admitted in arrival order; a flow whose start time has already
/// passed (the simulation outran the feeder) is admitted "now" — at the last
/// processed instant — since the calendar queue cannot schedule into the
/// past. While `admitted - completed >= inflight_cap` the driver advances
/// the simulation instead of pulling, so a slow consumer never reads ahead:
/// that is the backpressure the source contract relies on.
///
/// The run ends when the source is exhausted and the queue has drained (or
/// the configured horizon + drain deadline passes).
pub fn serve_experiment(
    topo: &Topology,
    config: &ExperimentConfig,
    source: &mut dyn IngestSource,
    inflight_cap: usize,
) -> Result<ServeReport, IngestError> {
    serve_experiment_with(topo, config, source, inflight_cap, None)
}

/// [`serve_experiment`] with live metrics: when `metrics` is given, the
/// driver publishes a fresh exposition to the hub on every admission and
/// once more at the end of the run, so a concurrent scrape thread always
/// reads a consistent (if slightly stale) snapshot. Publishing never feeds
/// back into the simulation, so results are unchanged by observation.
pub fn serve_experiment_with(
    topo: &Topology,
    config: &ExperimentConfig,
    source: &mut dyn IngestSource,
    inflight_cap: usize,
    metrics: Option<&MetricsHub>,
) -> Result<ServeReport, IngestError> {
    assert!(inflight_cap >= 1, "inflight cap must be at least 1");
    // The flows are not known yet: the plan checks the topology and fault
    // schedule, and the one worker starts with only samples and faults
    // seeded. Admission grows its flow table in place.
    let plan = plan_for(topo, &[], config, 1);
    let frame = Frame::new(topo, config);
    let mut workers = build_workers(topo, &[], config, &frame, &plan);
    let deadline = run_deadline(config);
    let mut admitted: Vec<TraceFlow> = Vec::new();
    let worker = &mut workers[0];
    if let Some(hub) = metrics {
        // Publish the zeroed registry up front so a scrape racing the first
        // admission still reads well-formed exposition text.
        hub.publish(&live_registry(&worker.sim, 0));
    }

    loop {
        // Backpressure: while the inflight window is full, make progress
        // instead of pulling. If the sim cannot progress (nothing left to
        // run before the deadline), admission resumes — the stuck flows can
        // never complete, and starving the feeder would not change that.
        while admitted.len() - worker.sim.completed >= inflight_cap
            && worker.step(SimTime::MAX, deadline)
        {}
        let Some(mut flow) = source.next_flow()? else {
            break;
        };
        // The feeder's timestamps are admission *requests*; a start already
        // in the simulated past becomes "now".
        flow.start = flow.start.max(worker.last);
        let index = admitted.len();
        let meta = build_flow_meta(topo, index, &flow, config, &frame);
        Arc::get_mut(&mut worker.sim.flows)
            .expect("serve sim uniquely owns its flow table")
            .push(meta);
        worker.sim.flow_completed.push(None);
        worker.queue.send(flow.start, NetEvent::FlowArrival { index });
        admitted.push(flow);
        if let Some(hub) = metrics {
            hub.publish(&live_registry(&worker.sim, admitted.len()));
        }
    }

    let run = drive(&mut workers, config, deadline);
    let result = finish(topo, &admitted, config, &frame, workers, run);
    if let Some(hub) = metrics {
        hub.publish(&result.registry);
    }
    let count = admitted.len();
    Ok(ServeReport {
        result,
        admitted: count,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_net::topology::{fat_tree, FatTreeParams};
    use bfc_sim::SimDuration;
    use bfc_workloads::{synthesize, TraceParams, Workload};

    use crate::runner::run_experiment;
    use crate::scheme::Scheme;

    /// One shard has no cross-shard cable, so its epoch window spans the
    /// whole run; the snapshot must still cut at `at`, not at the window's
    /// end, or a 1-shard checkpoint would hold a finished run.
    #[test]
    fn one_shard_snapshot_cuts_at_the_requested_instant() {
        let topo = fat_tree(FatTreeParams::tiny());
        let horizon = SimDuration::from_micros(150);
        let trace = synthesize(
            &topo.hosts(),
            &TraceParams::background_only(Workload::Google, 0.4, horizon, 11),
        );
        let config = ExperimentConfig::new(Scheme::bfc(), horizon);
        let at = SimTime::ZERO + horizon / 2;

        let bytes = snapshot_experiment(&topo, &trace, &config, at, 1);
        let payload = snapshot::open(SNAPSHOT_MAGIC, SNAPSHOT_VERSION, &bytes).expect("valid");
        let mut r = SnapReader::new(payload);
        r.get_u64().expect("fingerprint");
        assert_eq!(r.get_u64().expect("cut instant"), at.as_picos());
        assert_eq!(r.get_usize().expect("shard count"), 1);
        let last = SimTime::from_picos(r.get_u64().expect("last processed"));
        let queue =
            EventQueue::restore_state(&mut r, NetEvent::restore_state).expect("saved queue");
        assert!(last <= at, "worker ran past the cut: {last:?} > {at:?}");
        assert!(!queue.is_empty(), "a mid-run cut leaves pending events");

        let full = run_experiment(&topo, &trace, &config);
        let resumed = resume_experiment(&topo, &trace, &config, &bytes).expect("resumes");
        assert_eq!(full.records, resumed.records);
        assert_eq!(full.fct, resumed.fct);
        assert_eq!(full.end_time, resumed.end_time);
        assert_eq!(full.drops, resumed.drops);
        assert_eq!(full.utilization.to_bits(), resumed.utilization.to_bits());
        assert_eq!(full.peak_queue_samples, resumed.peak_queue_samples);
        assert_eq!(full.registry.expose(), resumed.registry.expose());
    }
}
