//! The fabric engine: conservative lockstep over N shards, with results
//! bit-identical at every shard count.
//!
//! Every run goes through here — [`crate::run_experiment`] is this engine at
//! one shard. [`run_experiment_sharded`] partitions one topology's switches
//! and hosts into N shards ([`ShardPlan::partition`]), gives each shard its own
//! calendar event queue and its own slice of the fabric (switches, hosts,
//! link-state and routing replicas), and advances all shards in conservative
//! lockstep epochs ([`bfc_sim::shard::run_conservative`]) bounded by the
//! minimum cross-shard link propagation delay. Cross-shard traffic — data
//! packets, ACKs/CNPs, PFC and BFC pause frames — travels through per-epoch
//! mailboxes that are exchanged at each barrier in deterministic
//! `(timestamp, canonical rank, source shard)` order.
//!
//! # Why results are bit-identical at any shard count
//!
//! Every shard orders events by `(time, canonical rank, emission order)`
//! (see [`bfc_net::event::NetEvent::canon_rank`]). The rank discriminates
//! every pair of simultaneous events except pairs emitted by one sequential
//! stream — and those reach any queue in emission order at any shard count.
//! A shard therefore pops exactly the subsequence of the 1-shard run's pop
//! sequence that targets its nodes; since per-event handlers only touch the
//! target node's state (plus per-shard replicas recomputed from identical
//! inputs), every switch, host and flow evolves identically. Metrics merge
//! by disjoint union / exact integer arithmetic in
//! [`crate::runner::assemble_result`].
//!
//! The epoch lookahead is safe because every cross-node interaction in this
//! simulator is a scheduled packet delivery at least one link propagation
//! delay in the future; the partitioner keeps hosts in their ToR's shard, so
//! only switch-switch (and gateway) cables ever cross shards.

use std::fmt;

use bfc_net::event::{NetEvent, NetSink};
use bfc_net::topology::Topology;
use bfc_net::types::NodeId;
use bfc_sim::shard::{run_conservative, Boundary, EpochStats, ShardHandler};
use bfc_sim::{EventQueue, SimDuration, SimTime};
use bfc_workloads::TraceFlow;

use std::sync::Arc;

use crate::runner::{
    assemble_result, build_flow_metas, build_sim, seed_samples, ExperimentConfig,
    ExperimentResult, FabricSim, Frame,
};

/// Why a topology could not be partitioned.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ShardError {
    /// A cable between two shards has zero propagation delay, so no positive
    /// conservative lookahead exists.
    ZeroLookahead {
        /// One endpoint of the offending cable.
        a: NodeId,
        /// The other endpoint.
        b: NodeId,
    },
}

impl fmt::Display for ShardError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ShardError::ZeroLookahead { a, b } => write!(
                f,
                "cable {a:?} <-> {b:?} crosses shards with zero propagation delay; \
                 no conservative lookahead exists"
            ),
        }
    }
}

impl std::error::Error for ShardError {}

/// A deterministic assignment of every node to one shard, plus the epoch
/// lookahead the assignment admits.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ShardPlan {
    shard_of: Vec<u32>,
    num_shards: usize,
    lookahead: Option<SimDuration>,
}

impl ShardPlan {
    /// Partitions `topo` into (up to) `requested` shards.
    ///
    /// The assignment is a pure function of `(topology, requested)`:
    /// switches are round-robined over the shards in node-id order — for the
    /// built-in fat trees that spreads both the ToR layer and the spine
    /// layer evenly — and every host lands in the shard of its uplink
    /// switch, so the latency-free host<->ToR hop never crosses a shard
    /// boundary. The shard count is clamped to the number of switches.
    pub fn partition(topo: &Topology, requested: usize) -> Result<ShardPlan, ShardError> {
        let switches = topo.switches();
        let num_shards = requested.clamp(1, switches.len().max(1));
        let mut shard_of = vec![0u32; topo.num_nodes()];
        for (k, sw) in switches.iter().enumerate() {
            shard_of[sw.index()] = (k % num_shards) as u32;
        }
        for h in topo.hosts() {
            shard_of[h.index()] = shard_of[topo.host_uplink(h).peer.index()];
        }

        // The conservative lookahead: the fastest any shard can influence
        // another is one cross-shard cable's propagation delay.
        let mut lookahead: Option<SimDuration> = None;
        for idx in 0..topo.num_nodes() {
            let node = NodeId(idx as u32);
            for spec in topo.ports(node) {
                if shard_of[idx] == shard_of[spec.peer.index()] {
                    continue;
                }
                if spec.link.propagation.is_zero() {
                    return Err(ShardError::ZeroLookahead { a: node, b: spec.peer });
                }
                lookahead = Some(match lookahead {
                    Some(l) => l.min(spec.link.propagation),
                    None => spec.link.propagation,
                });
            }
        }
        Ok(ShardPlan {
            shard_of,
            num_shards,
            lookahead,
        })
    }

    /// The shard owning `node`.
    pub fn shard_of(&self, node: NodeId) -> u32 {
        self.shard_of[node.index()]
    }

    /// Number of shards in the plan.
    pub fn num_shards(&self) -> usize {
        self.num_shards
    }

    /// The epoch lookahead: the minimum propagation delay over cross-shard
    /// cables. `None` when no cable crosses shards (single-shard plans), in
    /// which case any window size is safe.
    pub fn lookahead(&self) -> Option<SimDuration> {
        self.lookahead
    }
}

/// Routes scheduled events: events targeting a node of this shard go into
/// the local calendar queue, events for another shard's nodes into that
/// shard's epoch outbox. Driver-level events without a target node
/// (samples, flow bookkeeping, dynamics) are always shard-local — each shard
/// schedules its own copies up front.
struct ShardSink<'b> {
    local: &'b mut EventQueue<NetEvent>,
    outbox: &'b mut [Vec<Boundary<NetEvent>>],
    plan: &'b ShardPlan,
    me: u32,
}

impl NetSink for ShardSink<'_> {
    #[inline]
    fn send(&mut self, time: SimTime, event: NetEvent) {
        let rank = event.canon_rank();
        match event.target_node() {
            Some(node) if self.plan.shard_of(node) != self.me => {
                self.outbox[self.plan.shard_of(node) as usize].push((time, rank, event));
            }
            _ => self.local.push_ranked(time, rank, event),
        }
    }
}

/// One shard: its slice of the fabric, its event queue, and its outboxes.
/// Crate-visible so the snapshot/service layer ([`crate::service`]) can
/// save and overlay per-shard state at cut points and step a live run.
pub(crate) struct ShardWorker<'a> {
    pub(crate) sim: FabricSim<'a>,
    pub(crate) queue: EventQueue<NetEvent>,
    pub(crate) outbox: Vec<Vec<Boundary<NetEvent>>>,
    pub(crate) plan: &'a ShardPlan,
    pub(crate) me: u32,
    pub(crate) last: SimTime,
}

impl ShardWorker<'_> {
    /// Pops and dispatches the next local event if it lies before
    /// `window_end` and at or before `deadline`; returns whether it did.
    #[inline]
    pub(crate) fn step(&mut self, window_end: SimTime, deadline: SimTime) -> bool {
        match self.queue.peek_time() {
            Some(t) if t < window_end && t <= deadline => {
                let (now, event) = self.queue.pop().expect("peeked event exists");
                debug_assert!(now >= self.last, "shard queue delivered out of order");
                self.last = now;
                let mut sink = ShardSink {
                    local: &mut self.queue,
                    outbox: &mut self.outbox,
                    plan: self.plan,
                    me: self.me,
                };
                self.sim.dispatch(now, event, &mut sink);
                true
            }
            _ => false,
        }
    }
}

impl ShardHandler for ShardWorker<'_> {
    type Event = NetEvent;

    fn next_time(&self) -> Option<SimTime> {
        self.queue.peek_time()
    }

    fn run_window(&mut self, window_end: SimTime, deadline: SimTime) {
        while self.step(window_end, deadline) {}
    }

    fn take_outboxes(&mut self) -> Vec<Vec<Boundary<NetEvent>>> {
        let n = self.outbox.len();
        std::mem::replace(&mut self.outbox, vec![Vec::new(); n])
    }

    fn deliver(&mut self, batch: Vec<Boundary<NetEvent>>) {
        for (time, rank, event) in batch {
            debug_assert!(time >= self.last, "boundary event violates lookahead");
            self.queue.push_ranked(time, rank, event);
        }
    }

    fn last_processed(&self) -> SimTime {
        self.last
    }
}

/// Validates inputs and produces the shard plan for a run: checks the fault
/// schedule, asserts the packed event-rank layout fits, and partitions the
/// topology. Every run entry point (batch, snapshot, resume, serve) starts
/// here, so each input check lives only here; panics on invalid inputs.
pub(crate) fn plan_for(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    num_shards: usize,
) -> ShardPlan {
    if let Err(e) = config.dynamics.validate(topo) {
        panic!("invalid fault schedule for this topology: {e}");
    }
    let max_ports = (0..topo.num_nodes())
        .map(|idx| topo.ports(NodeId(idx as u32)).len())
        .max()
        .unwrap_or(0);
    assert!(
        NetEvent::rank_layout_fits(topo.num_nodes(), max_ports, trace.len()),
        "topology/trace exceed the packed event-rank layout; \
         widen NetEvent::canon_rank"
    );
    match ShardPlan::partition(topo, num_shards) {
        Ok(plan) => plan,
        Err(e) => panic!("cannot shard this topology: {e}"),
    }
}

/// The instant every run stops at: the end of the trace plus the drain.
pub(crate) fn run_deadline(config: &ExperimentConfig) -> SimTime {
    SimTime::ZERO + config.horizon + config.drain
}

/// Advances `workers` in conservative lockstep epochs until no event at or
/// before `until` remains, returning the last processed instant and the
/// epoch counters. On return every boundary event has been delivered, so
/// the workers' queues and sims are the complete state of the run cut at
/// `until` — which is what lets a snapshot cut at any instant.
///
/// The epoch window is the plan's lookahead. With no cross-shard cable (one
/// shard) any window is safe, so one window spans the whole run.
pub(crate) fn drive(
    workers: &mut [ShardWorker<'_>],
    config: &ExperimentConfig,
    until: SimTime,
) -> (SimTime, EpochStats) {
    let lookahead = workers[0]
        .plan
        .lookahead()
        .unwrap_or(config.horizon + config.drain + SimDuration::from_micros(1));
    run_conservative(workers, lookahead, until, true, config.batch_policy())
}

/// Merges finished workers into the run's [`ExperimentResult`], engine
/// counters included.
pub(crate) fn finish(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    frame: &Frame,
    workers: Vec<ShardWorker<'_>>,
    (end_time, epochs): (SimTime, EpochStats),
) -> ExperimentResult {
    // The queues outlive assembly on purpose: freed first, their space
    // takes the result's allocations and fragments the heap, which kept
    // ~20 MB resident between back-to-back t1 runs.
    let (sims, queues): (Vec<FabricSim<'_>>, Vec<EventQueue<NetEvent>>) =
        workers.into_iter().map(|w| (w.sim, w.queue)).unzip();
    let mut result = assemble_result(topo, trace, config, frame, sims, end_time);
    result.epochs = epochs;
    result.record_engine_counters(queues.iter().map(EventQueue::overflow_pushes).sum());
    result
}

/// Builds the per-shard workers for a run, each with its slice of the fabric
/// and its fully seeded event queue (flow arrivals, sampling, dynamics).
pub(crate) fn build_workers<'a>(
    topo: &'a Topology,
    trace: &[TraceFlow],
    config: &'a ExperimentConfig,
    frame: &Frame,
    plan: &'a ShardPlan,
) -> Vec<ShardWorker<'a>> {
    // Immutable flow metadata is computed once and shared: shards only need
    // private completion state.
    let flows = Arc::new(build_flow_metas(topo, trace, config, frame));
    (0..plan.num_shards())
        .map(|s| {
            let me = s as u32;
            let sim = build_sim(
                topo,
                Arc::clone(&flows),
                config,
                frame,
                |node| plan.shard_of(node) == me,
                // Exactly one shard records the schedule-derived recovery
                // metrics; see `FabricSim::record_dynamics_metrics`.
                s == 0,
            );
            let mut queue = EventQueue::with_capacity(trace.len() / plan.num_shards() * 4 + 16);
            for (index, t) in trace.iter().enumerate() {
                // The arrival event fans out to the sender's shard (which
                // starts the flow) and the receiver's shard (which registers
                // the expected flow); `FabricSim::dispatch` does whichever
                // half is local.
                if plan.shard_of(t.src) == me || plan.shard_of(t.dst) == me {
                    queue.send(t.start, NetEvent::FlowArrival { index });
                }
            }
            seed_samples(&mut queue, config);
            for (index, event) in config.dynamics.events().iter().enumerate() {
                // Every shard replays the whole fault schedule against its
                // own link-state / routing replica.
                queue.send(event.at, NetEvent::NetworkDynamics { index });
            }
            ShardWorker {
                sim,
                queue,
                outbox: vec![Vec::new(); plan.num_shards()],
                plan,
                me,
                last: SimTime::ZERO,
            }
        })
        .collect()
}

/// Runs one experiment across `num_shards` shards (clamped to the number of
/// switches), with one thread per shard beyond the first. The result is
/// **bit-identical** to [`crate::run_experiment`] (this engine at one shard)
/// on the same inputs, at any shard count.
pub fn run_experiment_sharded(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
    num_shards: usize,
) -> ExperimentResult {
    let plan = plan_for(topo, trace, config, num_shards);
    let frame = Frame::new(topo, config);
    let mut workers = build_workers(topo, trace, config, &frame, &plan);
    let run = drive(&mut workers, config, run_deadline(config));
    finish(topo, trace, config, &frame, workers, run)
}

/// Shard count from the `BFC_SHARDS` environment variable (default 1; the
/// figure binaries' `--shards N` flag sets the variable for the process).
pub fn shards_from_env() -> usize {
    std::env::var("BFC_SHARDS")
        .ok()
        .and_then(|v| v.trim().parse::<usize>().ok())
        .unwrap_or(1)
        .max(1)
}

/// Parses a `--shards` flag value and installs it as `BFC_SHARDS` for this
/// process, so every run dispatched later (figures, replay, scenario) runs
/// at that shard count. The flag and the variable are deliberately
/// the same mechanism — mirroring `BFC_THREADS` — so scripts can use either.
/// Rejects zero and non-numeric values. Binaries call this during argument
/// parsing, before any worker thread exists.
pub fn set_shards_env(value: &str) -> Result<(), String> {
    match value.trim().parse::<usize>() {
        Ok(n) if n >= 1 => {
            std::env::set_var("BFC_SHARDS", n.to_string());
            Ok(())
        }
        Ok(_) => Err("--shards requires a positive shard count, got 0".to_string()),
        Err(_) => Err(format!("--shards: not a valid number: {value}")),
    }
}

/// Runs at the shard count `BFC_SHARDS` asks for (default 1) —
/// bit-identical at any count. This is the entry point
/// [`crate::ParallelRunner`] uses, so every figure, replay and scenario path
/// honours `BFC_SHARDS` / `--shards`.
pub fn run_experiment_auto(
    topo: &Topology,
    trace: &[TraceFlow],
    config: &ExperimentConfig,
) -> ExperimentResult {
    run_experiment_sharded(topo, trace, config, shards_from_env())
}

#[cfg(test)]
mod tests {
    use super::*;
    use bfc_net::topology::{fat_tree, FatTreeParams};
    use bfc_workloads::{synthesize, TraceParams, Workload};

    use crate::runner::run_experiment;
    use crate::scheme::Scheme;

    #[test]
    fn partition_covers_every_node_exactly_once() {
        let topo = fat_tree(FatTreeParams::tiny());
        for shards in 1..=6 {
            let plan = ShardPlan::partition(&topo, shards).expect("partitionable");
            assert_eq!(plan.num_shards(), shards.min(topo.switches().len()));
            for idx in 0..topo.num_nodes() {
                assert!((plan.shard_of(NodeId(idx as u32)) as usize) < plan.num_shards());
            }
        }
    }

    #[test]
    fn hosts_are_colocated_with_their_tor() {
        let topo = fat_tree(FatTreeParams::t2());
        let plan = ShardPlan::partition(&topo, 4).expect("partitionable");
        for h in topo.hosts() {
            assert_eq!(plan.shard_of(h), plan.shard_of(topo.host_uplink(h).peer));
        }
    }

    #[test]
    fn lookahead_is_the_minimum_cross_shard_propagation() {
        let topo = fat_tree(FatTreeParams::tiny());
        let plan = ShardPlan::partition(&topo, 2).expect("partitionable");
        // All fabric links have 1 us propagation in the tiny topology.
        assert_eq!(plan.lookahead(), Some(SimDuration::from_micros(1)));
        let single = ShardPlan::partition(&topo, 1).expect("partitionable");
        assert_eq!(single.lookahead(), None);
    }

    #[test]
    fn sharded_engine_matches_serial_quick() {
        let topo = fat_tree(FatTreeParams::tiny());
        let trace = synthesize(
            &topo.hosts(),
            &TraceParams::background_only(
                Workload::Google,
                0.3,
                SimDuration::from_micros(100),
                17,
            ),
        );
        let config = ExperimentConfig::new(Scheme::bfc(), SimDuration::from_micros(100));
        let serial = run_experiment(&topo, &trace, &config);
        for shards in [1, 2, 4] {
            let sharded = run_experiment_sharded(&topo, &trace, &config, shards);
            assert_eq!(serial.records, sharded.records, "{shards} shards");
            assert_eq!(serial.fct, sharded.fct, "{shards} shards");
            assert_eq!(serial.end_time, sharded.end_time, "{shards} shards");
            assert_eq!(serial.drops, sharded.drops);
            assert_eq!(
                serial.utilization.to_bits(),
                sharded.utilization.to_bits(),
                "{shards} shards"
            );
        }
    }
}
