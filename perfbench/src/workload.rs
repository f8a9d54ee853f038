//! The benchmark's workloads: their inputs, how they are generated from a
//! seed, which engine runs them, and the digest that checks their results.

use std::time::Instant;

use bfc_experiments::{run_experiment, ExperimentConfig, ExperimentResult, Scheme};
use bfc_metrics::FctRecord;
use bfc_net::policy::PolicyStats;
use bfc_net::routing::RoutingTables;
use bfc_net::topology::{fat_tree, FatTreeParams, Topology};
use bfc_net::types::NodeId;
use bfc_sim::{SimDuration, SimTime};
use bfc_workloads::{synthesize, TraceFlow, TraceParams, Workload as FlowSizes};

/// Fabric size. `T1` is the paper's 128-host fabric and the only scale the
/// benchmark reports; `Tiny` runs the same code in seconds for tests.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Scale {
    T1,
    Tiny,
}

impl Scale {
    pub fn parse(s: &str) -> Option<Scale> {
        match s {
            "t1" => Some(Scale::T1),
            "tiny" => Some(Scale::Tiny),
            _ => None,
        }
    }

    pub fn name(self) -> &'static str {
        match self {
            Scale::T1 => "t1",
            Scale::Tiny => "tiny",
        }
    }

    fn fabric(self) -> FatTreeParams {
        match self {
            Scale::T1 => FatTreeParams::t1(),
            Scale::Tiny => FatTreeParams::tiny(),
        }
    }
}

/// A traffic mix and scheme; several workloads share one input.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Input {
    /// Fig. 5a: Google sizes at 60% load plus a 5% 100-to-1 incast, BFC.
    GoogleIncastBfc,
    /// WebSearch sizes at 60% load, no incast, DCQCN+Win.
    WebsearchDcqcnWin,
}

impl Input {
    pub fn name(self) -> &'static str {
        match self {
            Input::GoogleIncastBfc => "google_incast_bfc",
            Input::WebsearchDcqcnWin => "websearch_dcqcn_win",
        }
    }

    pub fn scheme(self) -> Scheme {
        match self {
            Input::GoogleIncastBfc => Scheme::bfc(),
            Input::WebsearchDcqcnWin => Scheme::Dcqcn {
                window: true,
                sfq: false,
            },
        }
    }

    /// Trace window. WebSearch flows are ~100× larger than Google's, so its
    /// window is longer for a comparable number of packets.
    pub fn horizon(self, scale: Scale) -> SimDuration {
        match (self, scale) {
            (Input::GoogleIncastBfc, Scale::T1) => SimDuration::from_micros(300),
            (Input::WebsearchDcqcnWin, Scale::T1) => SimDuration::from_micros(600),
            (_, Scale::Tiny) => SimDuration::from_micros(60),
        }
    }

    /// Traces per run: each run cycles over this many independently seeded
    /// traces, so one seed's burstiness does not decide its run time.
    pub fn traces_per_run(self, scale: Scale) -> usize {
        match scale {
            Scale::T1 => 4,
            Scale::Tiny => 2,
        }
    }

    fn params(self, horizon: SimDuration, seed: u64) -> TraceParams {
        match self {
            Input::GoogleIncastBfc => TraceParams::google_with_incast(horizon, seed),
            Input::WebsearchDcqcnWin => {
                TraceParams::background_only(FlowSizes::WebSearch, 0.6, horizon, seed)
            }
        }
    }
}

/// Which engine times the experiments of a workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Engine {
    /// `run_experiment`.
    Serial,
    /// `run_experiment` with the flight recorder holding this many events.
    Recorded(usize),
}

/// Shards of the sharded engine, which every layer run times beside the
/// serial one (one thread per shard).
pub const LAYER_SHARDS: usize = 2;

/// One named benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub input: Input,
    pub engine: Engine,
    /// Why the workload is in the benchmark: one line, also in
    /// `BENCHMARK.json`.
    pub why: &'static str,
}

/// Every workload. All are closed loops with one client: one experiment at
/// a time, the next starting when the previous one returns.
pub const WORKLOADS: [Workload; 3] = [
    Workload {
        name: "t1_google_incast_bfc",
        input: Input::GoogleIncastBfc,
        engine: Engine::Serial,
        why: "Paper headline Fig. 5a on T1: ~15k small flows load the BFC flow table and event queue. \
              Closed loop, 1 client, 1 thread.",
    },
    Workload {
        name: "t1_websearch_dcqcn_win",
        input: Input::WebsearchDcqcnWin,
        engine: Engine::Serial,
        why: "Per-packet bound WebSearch under DCQCN+Win: ECN, PFC and host rate control, and no \
              BFC policy work. Closed loop, 1 client, 1 thread.",
    },
    Workload {
        name: "t1_google_incast_bfc_traced",
        input: Input::GoogleIncastBfc,
        engine: Engine::Recorded(1 << 20),
        why: "Fig. 5a with the flight recorder on (1M events), the only workload that pays for \
              bfc-net tracing. Closed loop, 1 client, 1 thread.",
    },
];

pub fn workload(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed of trace `k` of a run with seed `seed`.
pub fn trace_seed(seed: u64, k: usize) -> u64 {
    seed.wrapping_mul(0x9e37_79b9_7f4a_7c15)
        .wrapping_add(k as u64)
        .rotate_left(17)
}

/// One generated experiment: the flows and the config they run under.
pub struct Trace {
    pub flows: Vec<TraceFlow>,
    pub config: ExperimentConfig,
}

/// Everything a run builds before its first experiment.
pub struct Setup {
    pub topo: Topology,
    pub traces: Vec<Trace>,
}

/// Host seconds of each set-up step.
#[derive(Debug, Clone, Copy, Default)]
pub struct SetupTimes {
    pub topology_s: f64,
    pub synthesize_s: f64,
    pub routing_s: f64,
}

impl SetupTimes {
    pub fn total_s(&self) -> f64 {
        self.topology_s + self.synthesize_s + self.routing_s
    }
}

/// Builds the fabric and the run's traces, and checks every flow has a
/// route. Times each step.
pub fn setup(input: Input, scale: Scale, seed: u64) -> (Setup, SetupTimes) {
    let t = Instant::now();
    let topo = fat_tree(scale.fabric());
    let topology_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let horizon = input.horizon(scale);
    let hosts = topo.hosts();
    let traces: Vec<Trace> = (0..input.traces_per_run(scale))
        .map(|k| {
            let seed = trace_seed(seed, k);
            Trace {
                flows: fixed_load_trace(&hosts, &input.params(horizon, seed)),
                config: ExperimentConfig::new(input.scheme(), horizon).with_seed(seed),
            }
        })
        .collect();
    let synthesize_s = t.elapsed().as_secs_f64();

    let t = Instant::now();
    let routes = RoutingTables::compute(&topo);
    for trace in &traces {
        for f in &trace.flows {
            assert!(
                routes.hops(f.src, f.dst) > 0,
                "no route {:?} -> {:?}",
                f.src,
                f.dst
            );
        }
    }
    let routing_s = t.elapsed().as_secs_f64();

    (
        Setup { topo, traces },
        SetupTimes {
            topology_s,
            synthesize_s,
            routing_s,
        },
    )
}

/// The paper's trace for `params`, with its background traffic cut to a
/// fixed byte budget: `load` of every host's link over the window.
///
/// Background arrivals are log-normal with σ = 2, so a plain window's
/// offered bytes, and with them the run time, vary widely from seed to
/// seed. The trace is synthesized over three windows and background flows
/// are kept in arrival order until the budget is met; incast events keep
/// their window, so their count is fixed too.
pub fn fixed_load_trace(hosts: &[NodeId], params: &TraceParams) -> Vec<TraceFlow> {
    let budget = (params.load * hosts.len() as f64 * params.host_gbps * 1e9 / 8.0
        * params.duration.as_secs_f64()) as u64;
    let window_end = SimTime::ZERO + params.duration;
    let mut longer = *params;
    longer.duration = params.duration * 3;
    let mut offered = 0u64;
    synthesize(hosts, &longer)
        .into_iter()
        .filter(|f| {
            if f.is_incast {
                f.start <= window_end
            } else if offered < budget {
                offered += f.size_bytes;
                true
            } else {
                false
            }
        })
        .collect()
}

/// Runs one experiment on `engine`.
pub fn run_on(engine: Engine, topo: &Topology, trace: &Trace) -> ExperimentResult {
    match engine {
        Engine::Serial => run_experiment(topo, &trace.flows, &trace.config),
        Engine::Recorded(capacity) => run_experiment(
            topo,
            &trace.flows,
            &trace.config.clone().with_trace_capacity(capacity),
        ),
    }
}

/// The simulated outputs the correctness check covers.
pub struct Outcome<'a> {
    pub records: &'a [FctRecord],
    pub fct_summary: String,
    pub end_time: SimTime,
    pub completed_flows: usize,
    pub drops: u64,
    pub policy_stats: PolicyStats,
}

impl<'a> Outcome<'a> {
    pub fn of(r: &'a ExperimentResult) -> Self {
        Outcome {
            records: &r.records,
            fct_summary: format!("{:?}", r.fct),
            end_time: r.end_time,
            completed_flows: r.completed_flows,
            drops: r.drops,
            policy_stats: r.policy_stats,
        }
    }

    /// 64-bit FNV-1a over every covered field. Floats enter through their
    /// shortest round-trip text, so equal digests mean bit-equal results.
    pub fn digest(&self) -> String {
        let mut h = Fnv::new();
        h.u64(self.records.len() as u64);
        for r in self.records {
            h.u64(u64::from(r.flow.0));
            h.u64(r.fct.as_picos());
        }
        h.bytes(self.fct_summary.as_bytes());
        h.u64(self.end_time.as_picos());
        h.u64(self.completed_flows as u64);
        h.u64(self.drops);
        let p = &self.policy_stats;
        for v in [
            p.flow_assignments,
            p.collisions,
            p.table_overflows,
            p.pauses,
            p.resumes,
        ] {
            h.u64(v);
        }
        format!("{:016x}", h.0)
    }
}

struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xcbf2_9ce4_8422_2325)
    }

    fn bytes(&mut self, data: &[u8]) {
        for &b in data {
            self.0 ^= u64::from(b);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn u64(&mut self, v: u64) {
        self.bytes(&v.to_le_bytes());
    }
}

/// Checks that hold for every correct result whatever the seed; returns the
/// first violated one.
pub fn invariant_violation(trace: &Trace, r: &ExperimentResult) -> Option<String> {
    if r.total_flows != trace.flows.len() {
        return Some(format!(
            "total_flows {} != trace length {}",
            r.total_flows,
            trace.flows.len()
        ));
    }
    if r.records.len() != r.completed_flows || r.completed_flows > r.total_flows {
        return Some(format!(
            "{} records, {} completed of {}",
            r.records.len(),
            r.completed_flows,
            r.total_flows
        ));
    }
    let deadline = SimTime::ZERO + trace.config.horizon + trace.config.drain;
    if r.end_time > deadline {
        return Some("run ended after its deadline".to_string());
    }
    if let Some(bad) = r
        .records
        .iter()
        .find(|x| x.fct.as_picos() == 0 || x.ideal_fct.as_picos() == 0)
    {
        return Some(format!("flow {} has a zero FCT", bad.flow.0));
    }
    None
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn traces_are_a_function_of_the_seed() {
        let (a, _) = setup(Input::GoogleIncastBfc, Scale::Tiny, 5);
        let (b, _) = setup(Input::GoogleIncastBfc, Scale::Tiny, 5);
        let (c, _) = setup(Input::GoogleIncastBfc, Scale::Tiny, 6);
        assert_eq!(a.traces[1].flows, b.traces[1].flows);
        assert_ne!(a.traces[0].flows, c.traces[0].flows);
        assert_ne!(a.traces[0].flows, a.traces[1].flows);
    }

    #[test]
    fn background_bytes_meet_the_budget() {
        let topo = fat_tree(FatTreeParams::t1());
        let hosts = topo.hosts();
        let params = TraceParams::google_with_incast(SimDuration::from_micros(300), 3);
        let flows = fixed_load_trace(&hosts, &params);
        let background: u64 = flows
            .iter()
            .filter(|f| !f.is_incast)
            .map(|f| f.size_bytes)
            .sum();
        let budget = (0.6 * 128.0 * 100e9 / 8.0 * 300e-6) as u64;
        let last = flows.iter().rfind(|f| !f.is_incast).unwrap().size_bytes;
        assert!(background >= budget && background < budget + last + 1);
        assert_eq!(
            flows.iter().filter(|f| f.is_incast).count(),
            100,
            "one 100-to-1 incast"
        );
        assert!(flows.windows(2).all(|w| w[0].start <= w[1].start));
    }

    #[test]
    fn every_workload_name_is_unique_and_why_is_one_line() {
        for (i, w) in WORKLOADS.iter().enumerate() {
            assert!(workload(w.name).is_some());
            assert!(WORKLOADS[..i].iter().all(|o| o.name != w.name));
            assert!(w.why.len() <= 200 && !w.why.contains('\n'), "{}", w.name);
        }
    }
}
