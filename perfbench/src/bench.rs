//! One benchmark run: set-up, timed experiments, correctness checks and the
//! metrics they yield.
//!
//! An end-to-end run ([`run_end_to_end`]) times the workload's own engine
//! with no instrumentation. A layer run ([`run_layers`]) times the same
//! first trace through `run_experiment`, through the benchmark's driver with
//! and without spans, and through the workload's engine, and reports where
//! the host time went.

use std::collections::BTreeMap;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::{Duration, Instant};

use bfc_experiments::{run_experiment, run_experiment_sharded, ExperimentResult};

use crate::driver::{drive, DriverRun};
use crate::host;
use crate::json::{self, Json};
use crate::spans::Layer;
use crate::stats::{median, percentile, supported_percentile};
use crate::workload::{
    self, invariant_violation, Engine, Outcome, Scale, Setup, SetupTimes, Trace, Workload,
    LAYER_SHARDS,
};

/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 11;
/// Each trace of an end-to-end run is timed at least this often, so every
/// run also checks that a repeat reproduces the first result.
const MIN_CYCLES: usize = 2;
/// The traced driver's layer self times must add up to its wall time within
/// this share.
const ATTRIBUTION_TOLERANCE: f64 = 0.10;

/// One named metric value.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    pub better: &'static str,
}

/// The outcome of one run.
#[derive(Debug, Clone, Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub metrics: Vec<Metric>,
    /// Metrics printed and recorded but left out of the result line: the
    /// simulated slowdowns, which the digest already pins per seed, and the
    /// failed-run ratio, which the line carries as `attempted` and `failed`.
    pub reported: Vec<Metric>,
    /// Human-readable detail printed beside the metrics.
    pub notes: Vec<String>,
}

impl Report {
    pub fn correct(&self) -> bool {
        self.failed == 0 && self.attempted > 0
    }

    /// The single-line result: `correct`, `attempted`, `failed` and every
    /// metric with its unit.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                format!(
                    "{}: {{\"value\": {}, \"unit\": {}}}",
                    json::quote(m.name),
                    json::number(m.value),
                    json::quote(m.unit)
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Every metric by name, value, unit and direction, then the notes.
    pub fn table(&self) -> String {
        let mut out = String::new();
        for m in self.metrics.iter().chain(&self.reported) {
            out.push_str(&format!(
                "  {:<32} {:>16.6} {:<6} ({} is better)\n",
                m.name, m.value, m.unit, m.better
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("  # {n}\n"));
        }
        out
    }

    fn push(&mut self, name: &'static str, value: f64, unit: &'static str, better: &'static str) {
        self.metrics.push(Metric {
            name,
            value,
            unit,
            better,
        });
    }

    fn push_reported(
        &mut self,
        name: &'static str,
        value: f64,
        unit: &'static str,
        better: &'static str,
    ) {
        self.reported.push(Metric {
            name,
            value,
            unit,
            better,
        });
    }

    /// Runs `f` as one attempted experiment. A panic or an `Err` counts it
    /// as failed, with the reason in the notes.
    fn attempt<T>(&mut self, label: &str, f: impl FnOnce() -> Result<T, String>) -> Option<T> {
        self.attempted += 1;
        match catch_unwind(AssertUnwindSafe(f)) {
            Ok(Ok(v)) => Some(v),
            Ok(Err(why)) => {
                self.failed += 1;
                self.notes.push(format!("FAILED {label}: {why}"));
                None
            }
            Err(panic) => {
                self.failed += 1;
                let why = panic
                    .downcast_ref::<String>()
                    .cloned()
                    .or_else(|| panic.downcast_ref::<&str>().map(|s| s.to_string()))
                    .unwrap_or_default();
                self.notes.push(format!("FAILED {label}: panicked: {why}"));
                None
            }
        }
    }
}

/// Reference digests: per input, scale and seed, one digest per trace.
#[derive(Debug, Clone, Default)]
pub struct References {
    digests: BTreeMap<String, Vec<String>>,
}

impl References {
    fn key(input: workload::Input, scale: Scale, seed: u64) -> String {
        format!("{}/{}/{}", scale.name(), input.name(), seed)
    }

    /// Reads the `digests` member of a reference file.
    pub fn parse(text: &str) -> Result<References, String> {
        let doc = Json::parse(text)?;
        let mut digests = BTreeMap::new();
        if let Some(members) = doc.get("digests").and_then(Json::as_object) {
            for (key, list) in members {
                let list = list
                    .as_array()
                    .ok_or_else(|| format!("digests.{key} is not a list"))?
                    .iter()
                    .map(|d| {
                        d.as_str()
                            .map(str::to_string)
                            .ok_or("a digest is not a string")
                    })
                    .collect::<Result<Vec<_>, _>>()?;
                digests.insert(key.clone(), list);
            }
        }
        Ok(References { digests })
    }

    pub fn insert(
        &mut self,
        input: workload::Input,
        scale: Scale,
        seed: u64,
        digests: Vec<String>,
    ) {
        self.digests.insert(Self::key(input, scale, seed), digests);
    }

    pub fn get(&self, input: workload::Input, scale: Scale, seed: u64) -> Option<&[String]> {
        self.digests
            .get(&Self::key(input, scale, seed))
            .map(Vec::as_slice)
    }

    pub fn entries(&self) -> impl Iterator<Item = (&str, &[String])> {
        self.digests.iter().map(|(k, v)| (k.as_str(), v.as_slice()))
    }
}

/// What to run.
pub struct Options<'a> {
    pub workload: &'static Workload,
    pub seed: u64,
    pub seconds: f64,
    pub scale: Scale,
    pub references: &'a References,
}

/// The expected digest of each trace: the reference when one is recorded,
/// otherwise the first result seen.
struct Expected {
    digests: Vec<Option<String>>,
}

impl Expected {
    fn new(opts: &Options, traces: usize) -> Expected {
        let digests = match opts
            .references
            .get(opts.workload.input, opts.scale, opts.seed)
        {
            Some(refs) => refs.iter().cloned().map(Some).collect(),
            None => vec![None; traces],
        };
        Expected { digests }
    }

    fn check(&mut self, k: usize, outcome: &Outcome) -> Result<(), String> {
        let got = outcome.digest();
        let slot = self
            .digests
            .get_mut(k)
            .ok_or_else(|| format!("no reference for trace {k}"))?;
        match slot {
            Some(want) if *want != got => Err(format!("trace {k}: digest {got}, expected {want}")),
            Some(_) => Ok(()),
            None => {
                *slot = Some(got);
                Ok(())
            }
        }
    }
}

fn check_result(
    expected: &mut Expected,
    k: usize,
    trace: &Trace,
    r: &ExperimentResult,
) -> Result<(), String> {
    if let Some(why) = invariant_violation(trace, r) {
        return Err(why);
    }
    expected.check(k, &Outcome::of(r))
}

/// Sets up `SETUP_REPEATS` times; returns the last set-up and every timing.
fn timed_setups(opts: &Options) -> (Setup, Vec<SetupTimes>) {
    let mut times = Vec::with_capacity(SETUP_REPEATS);
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        let (setup, t) = workload::setup(opts.workload.input, opts.scale, opts.seed);
        times.push(t);
        last = Some(setup);
    }
    (last.expect("at least one set-up"), times)
}

fn median_of(times: &[SetupTimes], f: impl Fn(&SetupTimes) -> f64) -> f64 {
    median(&mut times.iter().map(f).collect::<Vec<_>>())
}

/// Collects the slowdowns behind the paper's two headline numbers from one
/// result: non-incast flows under 10 KB into `short`, non-incast flows of at
/// least 1 MB into `long`.
fn collect_slowdowns(r: &ExperimentResult, short: &mut Vec<f64>, long: &mut Vec<f64>) {
    for rec in r.records.iter().filter(|x| !x.is_incast) {
        if rec.size_bytes < 10_000 {
            short.push(rec.slowdown());
        } else if rec.size_bytes >= 1_000_000 {
            long.push(rec.slowdown());
        }
    }
}

/// Times the workload's engine with no instrumentation.
pub fn run_end_to_end(opts: &Options) -> Report {
    let w = opts.workload;
    let mut report = Report::default();
    let (setup, setup_times) = timed_setups(opts);
    let traces = &setup.traces;
    let mut expected = Expected::new(opts, traces.len());

    // The recorded engine must reproduce the serial engine's results, so
    // each trace first runs serially (untimed).
    if w.engine != Engine::Serial {
        for (k, trace) in traces.iter().enumerate() {
            report.attempt(&format!("serial trace {k}"), || {
                let r = run_experiment(&setup.topo, &trace.flows, &trace.config);
                check_result(&mut expected, k, trace, &r)
            });
        }
    }

    let mut walls = Vec::new();
    let mut hop_rates = Vec::new();
    let mut sim_rates = Vec::new();
    let mut peaks = Vec::new();
    let (mut short, mut long) = (Vec::new(), Vec::new());
    // Traces run in turn, every one at least `MIN_CYCLES` times, and then
    // as long as another experiment of the average length fits in the run.
    let started = Instant::now();
    let budget = Duration::from_secs_f64(opts.seconds);
    let mut done = 0;
    while done < MIN_CYCLES * traces.len()
        || started.elapsed() + started.elapsed() / done as u32 <= budget
    {
        let k = done % traces.len();
        let trace = &traces[k];
        let label = format!("{} trace {k} run {}", w.name, done / traces.len());
        done += 1;
        host::reset_peak_rss();
        let timed = report.attempt(&label, || {
            let t = Instant::now();
            let r = workload::run_on(w.engine, &setup.topo, trace);
            let wall = t.elapsed().as_secs_f64();
            check_result(&mut expected, k, trace, &r)?;
            if matches!(w.engine, Engine::Recorded(_)) && r.flight.is_none() {
                return Err("the flight recorder returned no trace".to_string());
            }
            Ok((wall, r))
        });
        if let Some((wall, r)) = timed {
            walls.push(wall);
            hop_rates.push(r.registry.family_total("bfc_switch_rx_packets") as f64 / wall);
            sim_rates.push(r.end_time.as_micros_f64() / wall);
            if done <= traces.len() {
                collect_slowdowns(&r, &mut short, &mut long);
            }
            drop(r);
            peaks.push(host::peak_rss_mb());
        }
    }

    let samples = walls.len();
    let in_order: Vec<String> = walls.iter().map(|w| format!("{w:.4}")).collect();
    let peaks_in_order: Vec<String> = peaks.iter().map(|p| format!("{p:.1}")).collect();
    let max_run = walls.iter().copied().fold(f64::NAN, f64::max);
    report.push(
        "setup_s",
        median_of(&setup_times, SetupTimes::total_s),
        "s",
        "lower",
    );
    report.push("run_s", median(&mut walls), "s", "lower");
    report.push("pkt_hops_per_s", median(&mut hop_rates), "1/s", "higher");
    report.push(
        "sim_us_per_wall_s",
        median(&mut sim_rates),
        "us/s",
        "higher",
    );
    report.push("peak_rss_mb", median(&mut peaks), "MiB", "lower");

    let long_mean = long.iter().sum::<f64>() / long.len() as f64;
    report.push_reported(
        "short_p99_slowdown",
        percentile(&mut short, 99.0),
        "x",
        "lower",
    );
    report.push_reported("long_mean_slowdown", long_mean, "x", "lower");
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.push_reported("failed_run_ratio", failed_ratio, "ratio", "lower");

    let tail = match supported_percentile(samples) {
        Some(p) => format!("p{p} {:.6} s", percentile(&mut walls, p)),
        None => "too few for a tail percentile".to_string(),
    };
    report.notes.push(format!(
        "run_s: median of {samples} experiments over {} traces, max {max_run:.6} s, \
         {tail}; in run order: {}",
        traces.len(),
        in_order.join(" ")
    ));
    report.notes.push(format!(
        "slowdowns are simulated, over the {} traces' {} short and {} long flows; \
         peak_rss_mb is the median over experiments of the peak during each: {}",
        traces.len(),
        short.len(),
        long.len(),
        peaks_in_order.join(" ")
    ));
    report
}

/// Per-cycle figures of a layer run.
#[derive(Default)]
struct LayerSamples {
    serial_s: Vec<f64>,
    sharded_s: Vec<f64>,
    engine_s: Vec<f64>,
    bare_s: Vec<f64>,
    traced_s: Vec<f64>,
    attributed_s: Vec<f64>,
    self_s: BTreeMap<&'static str, Vec<f64>>,
}

/// Attributes host time to layers on the first trace of the run.
pub fn run_layers(opts: &Options) -> Report {
    let w = opts.workload;
    let mut report = Report::default();
    let (setup, setup_times) = timed_setups(opts);
    let trace = &setup.traces[0];
    let topo = &setup.topo;
    let mut expected = Expected::new(opts, setup.traces.len());
    let capacity = match w.engine {
        Engine::Recorded(c) => Some(c),
        _ => None,
    };

    let mut s = LayerSamples::default();
    let mut last_traced: Option<DriverRun> = None;
    let mut epochs = bfc_experiments::EpochStats::default();
    let mut trace_records = 0u64;
    let started = Instant::now();
    let mut cycles = 0;
    loop {
        let cycle_started = Instant::now();
        let serial = report.attempt("run_experiment", || {
            let t = Instant::now();
            let r = run_experiment(topo, &trace.flows, &trace.config);
            let wall = t.elapsed().as_secs_f64();
            check_result(&mut expected, 0, trace, &r)?;
            Ok((wall, r))
        });
        let Some((serial_s, serial)) = serial else {
            break;
        };
        s.serial_s.push(serial_s);

        let sharded = report.attempt("run_experiment_sharded", || {
            let t = Instant::now();
            let r = run_experiment_sharded(topo, &trace.flows, &trace.config, LAYER_SHARDS);
            let wall = t.elapsed().as_secs_f64();
            check_result(&mut expected, 0, trace, &r)?;
            Ok((wall, r.epochs))
        });
        if let Some((wall, e)) = sharded {
            s.sharded_s.push(wall);
            epochs = e;
        }
        if w.engine != Engine::Serial {
            let engine = report.attempt(w.name, || {
                let t = Instant::now();
                let r = workload::run_on(w.engine, topo, trace);
                let wall = t.elapsed().as_secs_f64();
                check_result(&mut expected, 0, trace, &r)?;
                Ok((wall, r))
            });
            if let Some((wall, r)) = engine {
                s.engine_s.push(wall);
                trace_records = r.flight.map_or(0, |f| f.records.len() as u64 + f.dropped);
            }
        }

        let bare = report.attempt("driver without spans", || {
            let run = drive(topo, &trace.flows, &trace.config, capacity, false);
            expected.check(0, &run.outcome())?;
            Ok(run)
        });
        let traced = report.attempt("driver with spans", || {
            let run = drive(topo, &trace.flows, &trace.config, capacity, true);
            expected.check(0, &run.outcome())?;
            faithful(&run, &serial, bare.as_ref(), last_traced.as_ref())?;
            Ok(run)
        });
        if let (Some(bare), Some(traced)) = (bare, traced) {
            let profile = traced.profile.as_ref().expect("spans were on");
            s.bare_s.push(bare.wall_s);
            s.traced_s.push(traced.wall_s);
            s.attributed_s.push(profile.total_s());
            for (name, layer) in LAYER_NAMES {
                s.self_s
                    .entry(name)
                    .or_default()
                    .push(profile.self_s(layer));
            }
            last_traced = Some(traced);
        }
        cycles += 1;
        if started.elapsed() + cycle_started.elapsed() > Duration::from_secs_f64(opts.seconds) {
            break;
        }
    }

    let Some(run) = last_traced else {
        report.notes.push("no traced run completed".to_string());
        return report;
    };
    let profile = run.profile.as_ref().expect("spans were on");
    let med = |v: &Vec<f64>| median(&mut v.clone());
    let self_s = |name: &str| s.self_s.get(name).map_or(f64::NAN, med);
    let ratio = |a: u64, b: u64| if b == 0 { 0.0 } else { a as f64 / b as f64 };
    let serial_s = med(&s.serial_s);
    // `run_experiment` doing the same work as the driver: with the flight
    // recorder on when the workload records.
    let baseline_s = match w.engine {
        Engine::Recorded(_) => med(&s.engine_s),
        _ => serial_s,
    };
    let traced_s = med(&s.traced_s);
    let attributed = med(&s.attributed_s);
    if (attributed - traced_s).abs() > ATTRIBUTION_TOLERANCE * traced_s {
        report.failed += 1;
        report.notes.push(format!(
            "FAILED attribution: layers sum to {attributed:.6} s of {traced_s:.6} s traced wall"
        ));
    }
    if capacity.is_some() && run.trace_records != trace_records {
        report.failed += 1;
        report.notes.push(format!(
            "FAILED flight recorder: driver recorded {} events, run_experiment {trace_records}",
            run.trace_records
        ));
    }
    let e = &run.events;
    let sw = &run.switches;
    let ps = &run.policy_stats;

    report.push("sim.queue.pushes", run.pushes as f64, "count", "lower");
    report.push("sim.queue.pops", run.pops as f64, "count", "lower");
    report.push("sim.queue.self_s", self_s("sim.queue"), "s", "lower");
    report.push(
        "sim.queue.overflow_ratio",
        ratio(run.overflow_pushes, run.pushes),
        "ratio",
        "lower",
    );
    report.push(
        "sim.events.flow_arrival",
        e.flow_arrival as f64,
        "count",
        "lower",
    );
    report.push(
        "sim.events.packet_arrive",
        e.packet_arrive as f64,
        "count",
        "lower",
    );
    report.push(
        "sim.events.tx_complete",
        e.tx_complete as f64,
        "count",
        "lower",
    );
    report.push(
        "sim.events.pause_timer",
        e.pause_timer as f64,
        "count",
        "lower",
    );
    report.push(
        "sim.events.host_timer",
        e.host_timer as f64,
        "count",
        "lower",
    );
    report.push(
        "sim.events.flow_completed",
        e.flow_completed as f64,
        "count",
        "lower",
    );
    report.push(
        "sim.shard.barriers",
        epochs.barriers as f64,
        "count",
        "lower",
    );
    report.push("sim.shard.windows", epochs.windows as f64, "count", "lower");
    report.push(
        "sim.shard.boundary_events",
        epochs.boundary_events as f64,
        "count",
        "lower",
    );
    report.push(
        "sim.shard.speedup",
        serial_s / med(&s.sharded_s),
        "x",
        "higher",
    );
    report.push(
        "net.switch.calls",
        profile.calls(Layer::Switch) as f64,
        "count",
        "lower",
    );
    report.push("net.switch.self_s", self_s("net.switch"), "s", "lower");
    report.push(
        "net.switch.rx_packets",
        sw.rx_packets as f64,
        "count",
        "lower",
    );
    report.push(
        "net.switch.ecn_marked",
        sw.ecn_marked as f64,
        "count",
        "lower",
    );
    report.push(
        "net.switch.pfc_pauses_sent",
        sw.pfc_pauses_sent as f64,
        "count",
        "lower",
    );
    report.push("net.switch.drops", sw.drops as f64, "count", "lower");
    let trace_overhead = match w.engine {
        Engine::Recorded(_) => med(&s.engine_s) / serial_s,
        _ => 1.0,
    };
    report.push("net.trace.overhead_ratio", trace_overhead, "ratio", "lower");
    report.push("net.trace.records", trace_records as f64, "count", "lower");
    report.push("net.trace.self_s", self_s("net.trace"), "s", "lower");
    report.push(
        "core.policy.calls",
        profile.calls(Layer::Policy) as f64,
        "count",
        "lower",
    );
    report.push("core.policy.self_s", self_s("core.policy"), "s", "lower");
    report.push(
        "core.flow_table.lookups",
        sw.flow_table_lookups as f64,
        "count",
        "lower",
    );
    report.push(
        "core.flow_table.probe_steps",
        sw.flow_table_probe_steps as f64,
        "count",
        "lower",
    );
    report.push(
        "core.flow_table.probe_ratio",
        ratio(sw.flow_table_probe_steps, sw.flow_table_lookups),
        "ratio",
        "lower",
    );
    report.push("core.policy.pauses", ps.pauses as f64, "count", "lower");
    report.push("core.policy.resumes", ps.resumes as f64, "count", "lower");
    report.push(
        "transport.host.calls",
        profile.calls(Layer::Host) as f64,
        "count",
        "lower",
    );
    report.push(
        "transport.host.self_s",
        self_s("transport.host"),
        "s",
        "lower",
    );
    report.push(
        "metrics.calls",
        profile.calls(Layer::Metrics) as f64,
        "count",
        "lower",
    );
    report.push("metrics.self_s", self_s("metrics"), "s", "lower");
    report.push(
        "workloads.synthesize_s",
        median_of(&setup_times, |t| t.synthesize_s),
        "s",
        "lower",
    );
    report.push(
        "net.topology_s",
        median_of(&setup_times, |t| t.topology_s),
        "s",
        "lower",
    );
    report.push(
        "net.routing_s",
        median_of(&setup_times, |t| t.routing_s),
        "s",
        "lower",
    );
    report.push(
        "experiments.driver_self_s",
        self_s("experiments.driver"),
        "s",
        "lower",
    );
    report.push(
        "experiments.unattributed_s",
        baseline_s - med(&s.bare_s),
        "s",
        "lower",
    );
    report.push("bench.traced_wall_s", traced_s, "s", "lower");
    report.push(
        "bench.attributed_ratio",
        attributed / traced_s,
        "ratio",
        "higher",
    );
    report.push(
        "bench.span_overhead_ratio",
        traced_s / baseline_s,
        "ratio",
        "lower",
    );

    report.notes.push(format!(
        "{cycles} cycles on trace 0: run_experiment {serial_s:.6} s, {LAYER_SHARDS}-shard {:.6} s, \
         driver without spans {:.6} s, with spans {traced_s:.6} s",
        med(&s.sharded_s),
        med(&s.bare_s)
    ));
    let failed_ratio = report.failed as f64 / report.attempted.max(1) as f64;
    report.push_reported("failed_run_ratio", failed_ratio, "ratio", "lower");
    report
}

/// Span names of the driver's layers, as the per-layer metrics print them.
const LAYER_NAMES: [(&str, Layer); 7] = [
    ("sim.queue", Layer::Queue),
    ("experiments.driver", Layer::Driver),
    ("net.switch", Layer::Switch),
    ("core.policy", Layer::Policy),
    ("transport.host", Layer::Host),
    ("net.trace", Layer::Trace),
    ("metrics", Layer::Metrics),
];

/// The traced driver is faithful when its per-flow results equal
/// `run_experiment`'s bit for bit and it handles exactly the events the
/// untraced driver and its own earlier runs handled.
fn faithful(
    run: &DriverRun,
    serial: &ExperimentResult,
    bare: Option<&DriverRun>,
    earlier: Option<&DriverRun>,
) -> Result<(), String> {
    if run.records != serial.records {
        let first = run
            .records
            .iter()
            .zip(&serial.records)
            .position(|(a, b)| a != b)
            .unwrap_or(run.records.len().min(serial.records.len()));
        return Err(format!(
            "per-flow results differ from run_experiment ({} vs {} records, first difference at {first})",
            run.records.len(),
            serial.records.len()
        ));
    }
    for other in [bare, earlier].into_iter().flatten() {
        if other.events != run.events {
            return Err(format!(
                "event counts moved: {:?} vs {:?}",
                run.events, other.events
            ));
        }
    }
    Ok(())
}
