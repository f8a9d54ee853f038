//! `trace-tool` — synthesize, summarize and replay workload traces in the
//! CSV format of `bfc_workloads::io`.
//!
//! ```sh
//! cargo run --release -p bfc-experiments --bin trace-tool -- synth --out trace.csv
//! cargo run --release -p bfc-experiments --bin trace-tool -- stats trace.csv
//! cargo run --release -p bfc-experiments --bin trace-tool -- replay trace.csv --scheme lineup
//! ```
//!
//! `synth` generates a trace over the hosts of a built-in fat-tree topology
//! and writes it as CSV; `stats` prints a summary (flow count, offered load,
//! size percentiles); `replay` validates the trace against the same topology
//! and runs it through the experiment driver (all schemes fan out across the
//! `ParallelRunner`; results are bit-identical at any `BFC_THREADS`).
//!
//! Service mode: `snapshot` checkpoints a run's complete simulation state at
//! a chosen instant, `resume` continues it to completion (bit-identical to
//! the uninterrupted replay), and `serve` feeds a live simulation from a
//! tailed CSV file or a TCP socket under an inflight cap.
//!
//! Adversarial mode: `scenario` runs a fault-injection file and reports
//! recovery and safety metrics; `fuzz` searches for the (workload, fault
//! schedule) a scheme handles worst and shrinks it to a minimal reproducer
//! (see `bfc_experiments::fuzz`).

use std::path::PathBuf;
use std::process::ExitCode;

use bfc_experiments::figures::failure_sweep;
use bfc_experiments::sharded::{set_shards_env, shards_from_env};
use bfc_experiments::{
    resume_experiment, serve_experiment_with, snapshot_experiment, ExperimentConfig,
    ExperimentResult, MetricsHub, ParallelRunner, ReplayTrace, Reproducer, ScenarioSpec, Scheme,
};
use bfc_net::topology::Topology;
use bfc_net::trace::{kind_index_of, read_trace, write_trace, FlightTrace, TraceFilter};
use bfc_net::types::NodeId;
use bfc_sim::{SimDuration, SimTime};
use bfc_workloads::ingest::{CsvTail, IngestSource, SocketIngest};
use bfc_workloads::io::{read_csv_file, write_csv_file, TraceStats};
use bfc_workloads::{synthesize, ArrivalShape, IncastSchedule, TraceParams, Workload};

const USAGE: &str = "\
usage: trace-tool <command> [options]

common run options (each command below says which of them it takes):
  --topo tiny|t1|t2         topology to run over; a trace's host ids must
                            fit it [tiny]
  --scheme bfc|bfc-vfid|ideal-fq|dcqcn|dcqcn-win|dcqcn-win-sfq|hpcc|lineup
                            scheme(s) to run [bfc]; only replay and scenario
                            take a lineup, the other commands one scheme
  --seed <n>                experiment seed [1]
  --drain-x <n>             drain window as a multiple of the horizon [4]
  --shards <n>              split each run across n engine shards
                            (bit-identical results; same as BFC_SHARDS=n,
                            and a bad BFC_SHARDS is rejected like the flag)

commands:
  synth --out <path>      synthesize a trace and write it as CSV
    --topo, --seed          (common) hosts to draw from; trace RNG seed
    --workload google|fb-hadoop|websearch   flow-size CDF [google]
    --load <frac>           background offered load [0.6]
    --incast-load <frac>    extra incast load, 0 disables [0.05]
    --fan-in <n>            senders per incast event [6]
    --incast-bytes <n>      aggregate bytes per incast event [500000]
    --duration-us <n>       trace duration in microseconds [300]
    --arrivals lognormal|poisson|bursty     background gap shape [lognormal]
    --incast-schedule periodic|lognormal    incast event spacing [periodic]

  stats <path>            print a summary of a trace CSV
    --gbps <rate>           host link rate for the load arithmetic [100]

  replay <path>           replay a trace CSV through the experiment driver
    all common run options

  snapshot <path>         run a trace partway and write a checkpoint of the
                          complete simulation state (versioned, checksummed;
                          resuming is bit-identical to the uninterrupted run)
    --at-us <n>             simulated instant to snapshot at (required)
    --out <snap>            snapshot file to write (required)
    all common run options (one scheme)

  resume <path>           resume a snapshot against the same trace/options
                          and run to completion
    --snapshot <snap>       snapshot file to resume from (required)
    --topo / --scheme / --seed / --drain-x   (common) must match the
                            snapshot run; the shard count is the snapshot's

  serve                   run a live simulation fed by a streaming source,
                          admitting flows under an inflight cap (the cap is
                          the backpressure signal to the feeder)
    --tail <csv>            stream flows from this file; with --follow, keep
                            polling at EOF until a line reading `#end`
    --listen <addr>         accept one TCP feeder (e.g. 127.0.0.1:9000;
                            port 0 picks a free port) speaking the CSV format
    --cap <n>               max flows admitted but not yet completed [64]
    --horizon-us <n>        measurement horizon in microseconds [300]
    --metrics <addr>        also serve a Prometheus-style text exposition of
                            the live metrics registry on this TCP address
                            (port 0 picks a free port; the bound address
                            prints to stderr). Connections are persistent:
                            each scrape ends with a `# EOF` line, and sending
                            a newline on the same connection requests a fresh
                            scrape
    --topo / --scheme / --seed / --drain-x   (common, one scheme)

  scenario <path>         run a link-dynamics scenario (fault-injection)
                          file through the experiment driver and report the
                          recovery metrics. The scenario format is one
                          directive per line:
                            at <time> down|up <a> <b>
                            at <time> rate <a> <b> <gbps>
                            flap <a> <b> from <t> every <period> until <t>
                          with times like 100us/2ms and endpoints named by
                          topology label (tor0, spine1, host3) or node id.
                          A fuzz reproducer (`objective ...` header, as
                          written by `fuzz --out` and committed under
                          tests/scenarios/) also works: it pins its own
                          topology, scheme and workload, so the
                          scenario-building flags below don't apply.
    all common run options; --scheme defaults to lineup here
    --trace <csv>           replay this trace instead of synthesizing one
    --load <frac>           background load of the synthetic trace [0.6]
    --duration-us <n>       synthetic trace duration in microseconds [300]
    --json                  report safety/recovery per scheme as JSON on
                            stdout instead of the tables
    --trace-cap <n>         flight-recorder ring capacity for this run
                            [65536]
    --flight <path>         write the (single) scheme's flight trace here
                            unconditionally; without this flag, any run whose
                            safety report is a VIOLATION auto-dumps its last
                            trace events to <scenario-stem>-<scheme>.flight
    --diff-schemes <a,b>    run the scenario under both schemes, diff the two
                            flight traces in memory (see `trace diff`) and
                            exit nonzero if they diverge

  trace <sub>             flight-recorder traces (binary .flight containers)
    record <trace.csv> --out <flight>   replay with the recorder on and write
                                        the canonical trace
      --last <n>            ring capacity: keep the last n events [65536]
      --kind <a,b>          record only these event kinds (record-time
                            filter; filtered events never enter the ring)
      --node <a,b>          record only events at these node ids
      all common run options (one scheme); the merged trace of a sharded
                            recording is identical to a 1-shard one
    inspect <flight>        print the label, per-kind counts and records
      --limit <n>           print at most the last n records [40]
      --stats               print only the per-kind counts and the ring-drop
                            count, no record listing
    filter <flight>         print records matching every given predicate
      --kind <k>            event kind (enqueue, dequeue, drop, pfc-sent,
                            pfc-delivered, flow-pause, queue-active, ...)
      --node <id>           only events at this switch/host id
      --limit <n>           print at most the last n matches [1000]
    top <flight>            top queues by PFC pause-time
      --n <count>           rows to print [10]
      --tree                print the pause-propagation tree instead
    diff <a> <b>            compare two canonical traces record by record:
                            prints nothing and exits 0 when identical;
                            otherwise prints the first diverging record with
                            context plus per-kind and per-(switch, port)
                            summaries of the divergent tails, and exits 1
      --context <n>         common-prefix records printed before the first
                            divergence [5]

  fuzz --out <path>       search for the (workload, fault schedule) a scheme
                          handles worst, shrink the offender to a minimal
                          reproducer and write it as a scenario-style text
                          file that `fuzz --replay` (or the committed
                          regression tests) re-runs bit-identically.
                          Deterministic: same options, same bytes out.
    --topo / --scheme / --seed / --shards   (common, one scheme); --topo
                            may be a comma list like tiny,t1 to search
                            (smallest first), --seed is the search seed
    --budget <n>            random cases to evaluate [24]
    --shrink-evals <n>      extra evaluations the shrinker may spend [24]
    --objective p99|p999|dip|recovery|safety   what to maximize [p99]
    --replay                after writing, re-read the file and replay it";

/// A failed command. Usage errors (an unknown command or option, a missing
/// or extra argument) print the usage text; every other error is one line.
enum CliError {
    Usage(String),
    Run(String),
}

impl From<String> for CliError {
    fn from(msg: String) -> CliError {
        CliError::Run(msg)
    }
}

impl From<&str> for CliError {
    fn from(msg: &str) -> CliError {
        CliError::Run(msg.to_string())
    }
}

type CliResult<T = ()> = Result<T, CliError>;

fn usage(msg: impl Into<String>) -> CliError {
    CliError::Usage(msg.into())
}

fn fail(err: CliError) -> ExitCode {
    match err {
        CliError::Usage(msg) => eprintln!("trace-tool: {msg}\n\n{USAGE}"),
        CliError::Run(msg) => eprintln!("trace-tool: {msg}\n(see `trace-tool help`)"),
    }
    ExitCode::FAILURE
}

fn parse_workload(name: &str) -> Option<Workload> {
    match name {
        "google" => Some(Workload::Google),
        "fb-hadoop" | "fb_hadoop" | "hadoop" => Some(Workload::FbHadoop),
        "websearch" | "web-search" => Some(Workload::WebSearch),
        _ => None,
    }
}

/// The option walker every command uses: returns the positional arguments,
/// handing each `--flag value` pair to `set`, and each flag named in
/// `switches` (which take no value) to `set` with an empty value. `set`
/// returns false for a flag `cmd` does not take.
fn walk_options(
    cmd: &str,
    args: &[String],
    switches: &[&str],
    mut set: impl FnMut(&str, &str) -> Result<bool, String>,
) -> CliResult<Vec<String>> {
    let mut positional = Vec::new();
    let mut it = args.iter();
    while let Some(arg) = it.next() {
        let Some(flag) = arg.strip_prefix("--") else {
            positional.push(arg.clone());
            continue;
        };
        let value = if switches.contains(&flag) {
            ""
        } else {
            it.next()
                .ok_or_else(|| usage(format!("{cmd}: --{flag} requires a value")))?
        };
        if !set(flag, value)? {
            return Err(usage(format!("{cmd}: unknown option --{flag}")));
        }
    }
    Ok(positional)
}

/// Checks that `cmd` got exactly `N` positional arguments, described by
/// `what` in the error.
fn positionals<const N: usize>(
    cmd: &str,
    what: &str,
    positional: Vec<String>,
) -> CliResult<[String; N]> {
    positional.try_into().map_err(|args: Vec<String>| {
        usage(match args.first() {
            Some(arg) if N == 0 => format!("{cmd}: unexpected argument {arg}"),
            _ => format!("{cmd}: needs exactly {what}"),
        })
    })
}

/// The value of a required `--flag`, or a usage error naming it.
fn required<T>(cmd: &str, flag: &str, value: Option<T>) -> CliResult<T> {
    value.ok_or_else(|| usage(format!("{cmd}: {flag} is required")))
}

fn parse_num<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String> {
    value
        .parse()
        .map_err(|_| format!("--{flag}: not a valid number: {value}"))
}

/// Parses a count that must be at least 1.
fn parse_count<T: std::str::FromStr + Default + PartialEq>(
    flag: &str,
    value: &str,
) -> Result<T, String> {
    let n = parse_num(flag, value)?;
    if n == T::default() {
        return Err(format!("--{flag} must be at least 1, got {value}"));
    }
    Ok(n)
}

/// A `--topo` name and the topology it builds.
fn topology(name: &str) -> Result<(String, Topology), String> {
    let topo = bfc_experiments::fuzz::topology_by_name(name)
        .ok_or_else(|| format!("--topo: unknown topology {name}"))?;
    Ok((name.to_string(), topo))
}

/// The common run options of every command that drives the simulator.
const RUN_OPTIONS: &[&str] = &["topo", "scheme", "seed", "drain-x", "shards"];
/// `resume` runs at the snapshot's shard count and `serve` on one shard.
const UNSHARDED_RUN_OPTIONS: &[&str] = &["topo", "scheme", "seed", "drain-x"];

/// The one parser of the common run options (see `USAGE`): each command
/// names the subset it takes, and every `ExperimentConfig` the tool runs is
/// built here. The shard count lives in `BFC_SHARDS`, where the engine reads
/// it (`bfc_experiments::sharded::shards_from_env`).
struct RunOptions {
    cmd: &'static str,
    takes: &'static [&'static str],
    /// `fuzz` searches a comma list of topologies; the rest run one.
    topo_list: bool,
    topos: Vec<(String, Topology)>,
    schemes: Vec<Scheme>,
    seed: u64,
    drain_x: u64,
}

impl RunOptions {
    /// Defaults: the tiny fat-tree, BFC, seed 1, a drain window of 4x the
    /// horizon. A command that takes `--shards` also checks `BFC_SHARDS`,
    /// so a bad value fails instead of silently running one shard.
    fn new(cmd: &'static str, takes: &'static [&'static str]) -> CliResult<RunOptions> {
        if takes.contains(&"shards") {
            if let Ok(value) = std::env::var("BFC_SHARDS") {
                set_shards_env(&value).map_err(|e| format!("BFC_SHARDS: {e}"))?;
            }
        }
        Ok(RunOptions {
            cmd,
            takes,
            topo_list: false,
            topos: vec![topology("tiny")?],
            schemes: vec![Scheme::bfc()],
            seed: 1,
            drain_x: 4,
        })
    }

    /// Sets one common run option; returns false if `flag` is not one this
    /// command takes.
    fn set(&mut self, flag: &str, value: &str) -> Result<bool, String> {
        if !self.takes.contains(&flag) {
            return Ok(false);
        }
        match flag {
            "topo" => {
                let names = if self.topo_list {
                    value.split(',').collect()
                } else {
                    vec![value]
                };
                self.topos = names.into_iter().map(topology).collect::<Result<_, _>>()?;
            }
            "scheme" => {
                self.schemes = match value {
                    "lineup" | "all" => Scheme::paper_lineup(),
                    key => vec![Scheme::from_cli_key(key)
                        .ok_or_else(|| format!("--scheme: unknown scheme {key}"))?],
                }
            }
            "seed" => self.seed = parse_num(flag, value)?,
            "drain-x" => self.drain_x = parse_num(flag, value)?,
            "shards" => set_shards_env(value)?,
            _ => return Ok(false),
        }
        Ok(true)
    }

    /// `walk_options` over the common run options plus the command's own.
    fn walk(
        &mut self,
        args: &[String],
        switches: &[&str],
        mut set: impl FnMut(&str, &str) -> Result<bool, String>,
    ) -> CliResult<Vec<String>> {
        walk_options(self.cmd, args, switches, |flag, value| {
            Ok(self.set(flag, value)? || set(flag, value)?)
        })
    }

    fn topo(&self) -> &Topology {
        &self.topos[0].1
    }

    fn topo_name(&self) -> &str {
        &self.topos[0].0
    }

    /// The scheme of a command that runs one.
    fn single(&self) -> Result<Scheme, String> {
        match self.schemes.as_slice() {
            [scheme] => Ok(scheme.clone()),
            _ => Err(format!(
                "{}: --scheme requires a single scheme, not a lineup",
                self.cmd
            )),
        }
    }

    /// One config per selected scheme.
    fn configs(&self, horizon: SimDuration) -> Vec<ExperimentConfig> {
        self.schemes
            .iter()
            .map(|scheme| {
                let mut config =
                    ExperimentConfig::new(scheme.clone(), horizon).with_seed(self.seed);
                config.drain = horizon * self.drain_x;
                config
            })
            .collect()
    }

    /// The config of a command that runs one scheme.
    fn config(&self, horizon: SimDuration) -> Result<ExperimentConfig, String> {
        self.single()?;
        Ok(self.configs(horizon).swap_remove(0))
    }
}

/// Loads a trace CSV and validates it against the command's topology.
fn load_trace(opts: &RunOptions, path: &str) -> Result<ReplayTrace, String> {
    let replay = ReplayTrace::from_csv_path(path).map_err(|e| format!("{path}: {e}"))?;
    replay
        .validate(opts.topo())
        .map_err(|e| format!("{}: {path}: {e}", opts.cmd))?;
    Ok(replay)
}

fn cmd_synth(args: &[String]) -> CliResult {
    let mut opts = RunOptions::new("synth", &["topo", "seed"])?;
    let mut out: Option<PathBuf> = None;
    let mut workload = Workload::Google;
    let mut load = 0.6f64;
    let mut incast_load = 0.05f64;
    let mut fan_in = 6usize;
    let mut incast_bytes = 500_000u64;
    let mut duration_us = 300u64;
    let mut arrivals = ArrivalShape::paper_default();
    let mut incast_schedule = IncastSchedule::paper_default();

    let positional = opts.walk(args, &[], |flag, value| {
        match flag {
            "out" => out = Some(PathBuf::from(value)),
            "workload" => {
                workload = parse_workload(value)
                    .ok_or_else(|| format!("--workload: unknown workload {value}"))?;
            }
            "load" => load = parse_num(flag, value)?,
            "incast-load" => incast_load = parse_num(flag, value)?,
            "fan-in" => fan_in = parse_num(flag, value)?,
            "incast-bytes" => incast_bytes = parse_num(flag, value)?,
            "duration-us" => duration_us = parse_num(flag, value)?,
            "arrivals" => {
                arrivals = match value {
                    "lognormal" => ArrivalShape::paper_default(),
                    "poisson" => ArrivalShape::Poisson,
                    "bursty" => ArrivalShape::bursty_default(),
                    _ => return Err(format!("--arrivals: unknown shape {value}")),
                }
            }
            "incast-schedule" => {
                incast_schedule = match value {
                    "periodic" => IncastSchedule::Periodic,
                    "lognormal" => IncastSchedule::LogNormalGaps { sigma: 1.0 },
                    _ => return Err(format!("--incast-schedule: unknown schedule {value}")),
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    positionals::<0>("synth", "", positional)?;
    let out = required("synth", "--out <path>", out)?;
    // Keep the load arithmetic (and the incast event period) in sane,
    // non-panicking ranges before handing the parameters to `synthesize`.
    if !(load > 0.0 && load <= 1.5) {
        return Err(format!("synth: --load must be in (0, 1.5], got {load}").into());
    }
    if !(0.0..=1.5).contains(&incast_load) {
        return Err(format!("synth: --incast-load must be in [0, 1.5], got {incast_load}").into());
    }
    if incast_load > 0.0 && incast_bytes < 1_000 {
        return Err(format!(
            "synth: --incast-bytes must be at least 1000 when incast is enabled, got {incast_bytes}"
        )
        .into());
    }
    if incast_load > 0.0 && fan_in == 0 {
        return Err("synth: --fan-in must be at least 1 unless --incast-load is 0".into());
    }
    if duration_us == 0 {
        return Err("synth: --duration-us must be positive".into());
    }

    let topo = opts.topo();
    let hosts = topo.hosts();
    let params = TraceParams {
        workload,
        load,
        incast_load,
        incast_fan_in: fan_in,
        incast_total_bytes: incast_bytes,
        duration: SimDuration::from_micros(duration_us),
        host_gbps: topo.host_uplink(hosts[0]).link.rate_gbps,
        seed: opts.seed,
        arrivals,
        incast_schedule,
    };
    let flows = synthesize(&hosts, &params);
    write_csv_file(&out, &flows).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "wrote {} flows over {} ({} hosts of `{}`) to {}",
        flows.len(),
        params.duration,
        hosts.len(),
        opts.topo_name(),
        out.display()
    );
    Ok(())
}

fn cmd_stats(args: &[String]) -> CliResult {
    let mut gbps = 100.0f64;
    let positional = walk_options("stats", args, &[], |flag, value| {
        match flag {
            "gbps" => {
                gbps = parse_num(flag, value)?;
                if !(gbps.is_finite() && gbps > 0.0) {
                    return Err(format!("--gbps must be a positive rate, got {value}"));
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path] = positionals("stats", "one trace path", positional)?;
    let flows = read_csv_file(&path).map_err(|e| format!("{path}: {e}"))?;
    match TraceStats::from_flows(&flows, gbps) {
        Some(stats) => println!("{stats}"),
        None => println!("{path}: empty trace"),
    }
    Ok(())
}

fn cmd_replay(args: &[String]) -> CliResult {
    let mut opts = RunOptions::new("replay", RUN_OPTIONS)?;
    let positional = opts.walk(args, &[], |_, _| Ok(false))?;
    let [path] = positionals("replay", "one trace path", positional)?;

    let replay = load_trace(&opts, &path)?;
    let horizon = replay.horizon();
    let runner = ParallelRunner::from_env();
    let results = runner.run_experiments(opts.topo(), replay.flows(), &opts.configs(horizon));

    println!(
        "replayed {} flows (horizon {horizon}) over `{}` with {} worker thread{}\n",
        replay.flows().len(),
        opts.topo_name(),
        runner.threads(),
        if runner.threads() == 1 { "" } else { "s" },
    );
    print_results_table(&results);
    print_engine_counters(&results);
    Ok(())
}

/// Per-run engine-internal counters, read uniformly from the unified
/// registry, at any shard count (one shard runs one whole-run window). Written to
/// stderr so stdout stays byte-identical across engines (scripts diff it).
fn print_engine_counters(results: &[ExperimentResult]) {
    for r in results {
        let c = |key: &str| r.registry.counter(key).unwrap_or(0);
        eprintln!(
            "engine[{}]: queue-overflow {} epoch-batches {} windows {} barriers {} widened {} \
             cross-shard msgs {}",
            r.scheme,
            c("bfc_engine_queue_overflow_pushes"),
            c("bfc_engine_epoch_batches"),
            c("bfc_engine_epoch_windows"),
            c("bfc_engine_epoch_barriers"),
            c("bfc_engine_epoch_widened"),
            c("bfc_engine_epoch_boundary_events"),
        );
    }
}

/// The replay results table, shared by `replay`, `resume` and `serve` so a
/// resumed run's table is byte-identical to the uninterrupted replay's.
fn print_results_table(results: &[ExperimentResult]) {
    println!(
        "{:<16} {:>11} {:>9} {:>9} {:>8} {:>7}",
        "scheme", "completed", "p50", "p99", "util %", "drops"
    );
    for r in results {
        let (p50, p99) = r
            .fct
            .overall
            .as_ref()
            .map(|o| (o.p50, o.p99))
            .unwrap_or((f64::NAN, f64::NAN));
        println!(
            "{:<16} {:>5}/{:<5} {:>9.2} {:>9.2} {:>8.1} {:>7}",
            r.scheme,
            r.completed_flows,
            r.total_flows,
            p50,
            p99,
            r.utilization * 100.0,
            r.drops
        );
    }
    println!("\n(FCT slowdown percentiles over non-incast flows)");
}

fn cmd_snapshot(args: &[String]) -> CliResult {
    let mut opts = RunOptions::new("snapshot", RUN_OPTIONS)?;
    let mut at_us: Option<u64> = None;
    let mut out: Option<PathBuf> = None;
    let positional = opts.walk(args, &[], |flag, value| {
        match flag {
            "at-us" => at_us = Some(parse_num(flag, value)?),
            "out" => out = Some(PathBuf::from(value)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path] = positionals("snapshot", "one trace path", positional)?;
    let at_us = required("snapshot", "--at-us <n>", at_us)?;
    let out = required("snapshot", "--out <snap>", out)?;

    let replay = load_trace(&opts, &path)?;
    let config = opts.config(replay.horizon())?;
    let at = SimTime::ZERO + SimDuration::from_micros(at_us);
    let shards = shards_from_env();
    let blob = snapshot_experiment(opts.topo(), replay.flows(), &config, at, shards);
    std::fs::write(&out, &blob).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "snapshotted `{}` ({} flows, scheme {}) at {at} into {} ({} bytes, {} shard{})",
        path,
        replay.flows().len(),
        config.scheme.name(),
        out.display(),
        blob.len(),
        shards,
        if shards == 1 { "" } else { "s" },
    );
    Ok(())
}

fn cmd_resume(args: &[String]) -> CliResult {
    let mut opts = RunOptions::new("resume", UNSHARDED_RUN_OPTIONS)?;
    let mut snap_path: Option<PathBuf> = None;
    let positional = opts.walk(args, &[], |flag, value| {
        match flag {
            "snapshot" => snap_path = Some(PathBuf::from(value)),
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path] = positionals("resume", "one trace path", positional)?;
    let snap_path = required("resume", "--snapshot <snap>", snap_path)?;

    let replay = load_trace(&opts, &path)?;
    let horizon = replay.horizon();
    let config = opts.config(horizon)?;
    let blob = std::fs::read(&snap_path)
        .map_err(|e| format!("reading {}: {e}", snap_path.display()))?;
    let result = resume_experiment(opts.topo(), replay.flows(), &config, &blob)
        .map_err(|e| format!("{}: {e}", snap_path.display()))?;
    println!(
        "resumed {} flows (horizon {horizon}) over `{}` from `{}`\n",
        replay.flows().len(),
        opts.topo_name(),
        snap_path.display(),
    );
    print_results_table(std::slice::from_ref(&result));
    Ok(())
}

fn cmd_serve(args: &[String]) -> CliResult {
    let mut opts = RunOptions::new("serve", UNSHARDED_RUN_OPTIONS)?;
    let mut follow = false;
    let mut tail_path: Option<PathBuf> = None;
    let mut listen_addr: Option<String> = None;
    let mut metrics_addr: Option<String> = None;
    let mut cap = 64usize;
    let mut horizon_us = 300u64;
    let positional = opts.walk(args, &["follow"], |flag, value| {
        match flag {
            "follow" => follow = true,
            "tail" => tail_path = Some(PathBuf::from(value)),
            "listen" => listen_addr = Some(value.to_string()),
            "metrics" => metrics_addr = Some(value.to_string()),
            "cap" => cap = parse_count(flag, value)?,
            "horizon-us" => horizon_us = parse_count(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    positionals::<0>("serve", "", positional)?;
    if follow && tail_path.is_none() {
        return Err(usage("serve: --follow only applies to --tail"));
    }
    let config = opts.config(SimDuration::from_micros(horizon_us))?;

    // Live metrics exposition: an accept loop handing each connection to a
    // thread that serves one scrape immediately and a fresh one per request
    // line, so a monitoring client can watch the run over one persistent
    // connection. Observation never feeds back into the simulation.
    let hub = MetricsHub::new();
    let metrics = if let Some(addr) = &metrics_addr {
        let listener = std::net::TcpListener::bind(addr.as_str())
            .map_err(|e| format!("binding metrics address {addr}: {e}"))?;
        let local = listener.local_addr().map_err(|e| format!("metrics: {e}"))?;
        eprintln!("metrics listening on {local}");
        let scrape_hub = hub.clone();
        std::thread::spawn(move || {
            for conn in listener.incoming() {
                let Ok(conn) = conn else { continue };
                let hub = scrape_hub.clone();
                std::thread::spawn(move || serve_scrapes(conn, &hub));
            }
        });
        Some(hub)
    } else {
        None
    };

    let mut source: Box<dyn IngestSource> = match (&tail_path, &listen_addr) {
        (Some(path), None) => Box::new(
            CsvTail::open(path, follow).map_err(|e| format!("opening {}: {e}", path.display()))?,
        ),
        (None, Some(addr)) => {
            let (source, local) =
                SocketIngest::bind(addr).map_err(|e| format!("binding {addr}: {e}"))?;
            println!("listening on {local} (feed trace CSV, close to finish)");
            Box::new(source)
        }
        _ => {
            return Err(usage(
                "serve: exactly one of --tail <csv> or --listen <addr> is required",
            ))
        }
    };

    let report =
        serve_experiment_with(opts.topo(), &config, source.as_mut(), cap, metrics.as_ref())
            .map_err(|e| format!("serve: {e}"))?;
    println!(
        "served {} flows (horizon {}) over `{}` under inflight cap {cap}\n",
        report.admitted,
        config.horizon,
        opts.topo_name(),
    );
    print_results_table(std::slice::from_ref(&report.result));
    Ok(())
}

/// Serves metrics scrapes over one persistent connection: the current
/// exposition (terminated by a `# EOF` line) is written immediately, then
/// once more — re-rendered fresh — for every newline-terminated request line
/// the client sends. Returns when the peer closes or any write fails.
fn serve_scrapes(conn: std::net::TcpStream, hub: &MetricsHub) {
    use std::io::{BufRead as _, BufReader, Write as _};
    let Ok(read_half) = conn.try_clone() else { return };
    let mut reader = BufReader::new(read_half);
    let mut conn = conn;
    loop {
        let mut text = hub.render();
        text.push_str("# EOF\n");
        if conn.write_all(text.as_bytes()).is_err() || conn.flush().is_err() {
            return;
        }
        let mut line = String::new();
        match reader.read_line(&mut line) {
            Ok(0) | Err(_) => return,
            Ok(_) => {}
        }
    }
}

fn cmd_scenario(args: &[String]) -> CliResult<ExitCode> {
    let mut opts = RunOptions::new("scenario", RUN_OPTIONS)?;
    opts.schemes = Scheme::paper_lineup();
    let mut json = false;
    let mut trace_path: Option<String> = None;
    let mut flight_path: Option<PathBuf> = None;
    let mut diff_pair: Option<(Scheme, Scheme)> = None;
    let mut trace_cap = 65_536usize;
    let mut load = 0.6f64;
    let mut duration_us = 300u64;
    let positional = opts.walk(args, &["json"], |flag, value| {
        match flag {
            "json" => json = true,
            "trace" => trace_path = Some(value.to_string()),
            "diff-schemes" => {
                let Some((a, b)) = value.split_once(',') else {
                    return Err("--diff-schemes takes two comma-separated schemes".into());
                };
                let scheme = |key: &str| {
                    Scheme::from_cli_key(key)
                        .ok_or_else(|| format!("--diff-schemes: unknown scheme {key}"))
                };
                diff_pair = Some((scheme(a)?, scheme(b)?));
            }
            "flight" => flight_path = Some(PathBuf::from(value)),
            "trace-cap" => trace_cap = parse_count(flag, value)?,
            "load" => load = parse_num(flag, value)?,
            "duration-us" => duration_us = parse_num(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path] = positionals("scenario", "one scenario path", positional)?;
    if !(load > 0.0 && load <= 1.5) {
        return Err(format!("scenario: --load must be in (0, 1.5], got {load}").into());
    }
    if duration_us == 0 {
        return Err("scenario: --duration-us must be positive".into());
    }

    let text = std::fs::read_to_string(&path).map_err(|e| format!("reading {path}: {e}"))?;
    // A file whose first directive is an `objective` header is a committed
    // fuzz reproducer: it pins its own topology, scheme, workload and fault
    // schedule, so the scenario-building flags don't apply to it.
    let is_reproducer = text
        .lines()
        .map(str::trim)
        .find(|l| !l.is_empty() && !l.starts_with('#'))
        .is_some_and(|l| l.starts_with("objective "));

    let (flows, configs) = if is_reproducer {
        let repro = Reproducer::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let (topo, flows, config) = repro.materialize().map_err(|e| format!("{path}: {e}"))?;
        // The reproducer's topology and seed label the run and its dumps.
        opts.topos = vec![(repro.topo.clone(), topo)];
        opts.seed = config.seed;
        // Always record: the ring is bounded and results are bit-identical
        // either way, and a VIOLATION verdict must be able to dump the
        // events leading up to it.
        (flows, vec![config.with_trace_capacity(trace_cap)])
    } else {
        let spec = ScenarioSpec::parse(&text).map_err(|e| format!("{path}: {e}"))?;
        let schedule = spec
            .resolve(opts.topo())
            .map_err(|e| format!("{path}: {e}"))?;
        let (flows, horizon) = match &trace_path {
            Some(csv) => {
                let replay = load_trace(&opts, csv)?;
                let horizon = replay.horizon();
                (replay.flows().to_vec(), horizon)
            }
            None => {
                let hosts = opts.topo().hosts();
                let duration = SimDuration::from_micros(duration_us);
                let params =
                    TraceParams::background_only(Workload::Google, load, duration, opts.seed);
                let params = TraceParams {
                    host_gbps: opts.topo().host_uplink(hosts[0]).link.rate_gbps,
                    ..params
                };
                (synthesize(&hosts, &params), duration)
            }
        };
        let configs = opts
            .configs(horizon)
            .into_iter()
            // See above: tracing is always on in scenario runs.
            .map(|config| {
                config
                    .with_dynamics(schedule.clone())
                    .with_trace_capacity(trace_cap)
            })
            .collect();
        (flows, configs)
    };
    let (topo, topo_name, run_seed) = (opts.topo(), opts.topo_name(), opts.seed);
    // `--diff-schemes a,b`: same scenario, same inputs, two schemes — run
    // both traced (overriding even a reproducer's pinned scheme) and diff
    // the flight traces in memory at the end.
    let configs: Vec<ExperimentConfig> = match &diff_pair {
        None => configs,
        Some((a, b)) => {
            let base = configs.into_iter().next().expect("at least one config");
            [a, b]
                .into_iter()
                .map(|scheme| {
                    let mut config = base.clone();
                    config.scheme = scheme.clone();
                    config
                })
                .collect()
        }
    };
    let fault_events = configs[0].dynamics.events().len();
    if flight_path.is_some() && configs.len() != 1 {
        return Err("scenario: --flight requires a single --scheme, not a lineup".into());
    }
    let runner = ParallelRunner::from_env();
    let mut results = runner.run_experiments(topo, &flows, &configs);

    // The scenario file's stem labels the rows; the table itself is the
    // failure-sweep figure's formatter, so the CLI and figure cannot drift.
    let label = std::path::Path::new(&path)
        .file_stem()
        .map(|s| s.to_string_lossy().into_owned())
        .unwrap_or_else(|| "scenario".to_string());

    // Flight dumps: explicit `--flight` always writes; otherwise a safety
    // VIOLATION auto-dumps the last trace events so the pause wait-for
    // chain leading into the deadlock/livelock stays inspectable.
    for r in results.iter_mut() {
        let Some(flight) = r.flight.take() else { continue };
        let dump: Option<PathBuf> = match &flight_path {
            Some(p) => Some(p.clone()),
            None if r.safety.violations() > 0 => {
                Some(PathBuf::from(format!("{label}-{}.flight", scheme_file_key(&r.scheme))))
            }
            None => None,
        };
        if let Some(out) = dump {
            let trace_label = format!("scenario {label} scheme {} seed {run_seed}", r.scheme);
            let blob = write_trace(&trace_label, &flight);
            std::fs::write(&out, &blob).map_err(|e| format!("writing {}: {e}", out.display()))?;
            eprintln!(
                "flight[{}]: {} events ({} shed) -> {}{}",
                r.scheme,
                flight.records.len(),
                flight.dropped,
                out.display(),
                if r.safety.violations() > 0 { " (safety violation)" } else { "" },
            );
        }
        r.flight = Some(flight);
    }

    if json {
        println!(
            "{}",
            scenario_json(&label, topo_name, flows.len(), fault_events, &results)
        );
        print_engine_counters(&results);
    } else {
        println!(
            "scenario `{path}`: {} fault event{} over `{topo_name}`, {} flows, {} worker thread{}\n",
            fault_events,
            if fault_events == 1 { "" } else { "s" },
            flows.len(),
            runner.threads(),
            if runner.threads() == 1 { "" } else { "s" },
        );
        print!("{}", failure_sweep::HEADER);
        for r in &results {
            print!("{}", failure_sweep::result_row(&label, r));
        }
        println!();
        for r in &results {
            println!("{}", safety_line(r));
        }
        println!("\n(FCT slowdown p99 over non-incast flows; ttr = goodput recovery after the last fault)");
        print_engine_counters(&results);
    }

    if diff_pair.is_some() {
        let flight_b = results[1].flight.take().expect("tracing is always on in scenario runs");
        let flight_a = results[0].flight.take().expect("tracing is always on in scenario runs");
        let desc = format!("scenario {label} seed {run_seed}");
        println!();
        return Ok(print_trace_diff(
            (&results[0].scheme, &desc, &flight_a),
            (&results[1].scheme, &desc, &flight_b),
            5,
        ));
    }
    Ok(ExitCode::SUCCESS)
}

/// Filesystem-safe key for a scheme name (`DCQCN+Win` -> `dcqcn-win`).
fn scheme_file_key(name: &str) -> String {
    let mut key = String::with_capacity(name.len());
    for ch in name.chars() {
        if ch.is_ascii_alphanumeric() {
            key.push(ch.to_ascii_lowercase());
        } else if !key.ends_with('-') {
            key.push('-');
        }
    }
    key.trim_matches('-').to_string()
}

/// Renders a float as a JSON value (`null` for NaN/infinite, which JSON
/// cannot represent).
fn json_f64(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "null".to_string()
    }
}

/// JSON string escaping for the small, controlled strings we emit (scheme
/// names, labels): quotes, backslashes and control characters.
fn json_str(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for ch in s.chars() {
        match ch {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// The `scenario --json` document: run header plus per-scheme completion,
/// tail latency, recovery and safety reporting.
fn scenario_json(
    label: &str,
    topo_name: &str,
    flows: usize,
    fault_events: usize,
    results: &[ExperimentResult],
) -> String {
    let mut out = String::new();
    out.push_str("{\n");
    out.push_str(&format!("  \"scenario\": {},\n", json_str(label)));
    out.push_str(&format!("  \"topology\": {},\n", json_str(topo_name)));
    out.push_str(&format!("  \"flows\": {flows},\n"));
    out.push_str(&format!("  \"fault_events\": {fault_events},\n"));
    out.push_str("  \"results\": [\n");
    for (i, r) in results.iter().enumerate() {
        let p99 = r.fct.overall.as_ref().map(|o| o.p99).unwrap_or(f64::NAN);
        let s = &r.safety;
        let rec = &r.recovery;
        out.push_str("    {\n");
        out.push_str(&format!("      \"scheme\": {},\n", json_str(&r.scheme)));
        out.push_str(&format!("      \"completed\": {},\n", r.completed_flows));
        out.push_str(&format!("      \"total\": {},\n", r.total_flows));
        out.push_str(&format!("      \"p99_slowdown\": {},\n", json_f64(p99)));
        out.push_str(&format!("      \"utilization\": {},\n", json_f64(r.utilization)));
        out.push_str(&format!("      \"drops\": {},\n", r.drops));
        out.push_str("      \"recovery\": {\n");
        out.push_str(&format!(
            "        \"blackholed_packets\": {},\n",
            rec.blackholed_packets
        ));
        out.push_str(&format!("        \"reroutes\": {},\n", rec.reroutes));
        out.push_str(&format!("        \"faults\": {},\n", rec.faults));
        out.push_str(&format!(
            "        \"time_to_recover_us\": {},\n",
            rec.time_to_recover
                .map(|d| json_f64(d.as_secs_f64() * 1e6))
                .unwrap_or_else(|| "null".to_string())
        ));
        out.push_str(&format!(
            "        \"goodput_dip_depth\": {}\n",
            json_f64(rec.goodput_dip_depth)
        ));
        out.push_str("      },\n");
        out.push_str("      \"safety\": {\n");
        out.push_str(&format!("        \"pause_frames\": {},\n", s.pause_frames));
        out.push_str(&format!("        \"max_pause_depth\": {},\n", s.max_pause_depth));
        out.push_str(&format!(
            "        \"max_link_window_frames\": {},\n",
            s.max_link_window_frames
        ));
        out.push_str(&format!("        \"cycles_formed\": {},\n", s.cycles_formed));
        out.push_str(&format!("        \"deadlocks\": {},\n", s.deadlocks));
        out.push_str(&format!("        \"livelock\": {},\n", s.livelock));
        out.push_str(&format!("        \"violations\": {}\n", s.violations()));
        out.push_str("      }\n");
        out.push_str(if i + 1 == results.len() { "    }\n" } else { "    },\n" });
    }
    out.push_str("  ]\n}");
    out
}

/// One per-scheme line from the safety detectors: pause-storm counters,
/// wait-for-graph cycles, confirmed PFC deadlocks and livelock. Violations
/// are marked loudly so scripts can grep for them.
fn safety_line(r: &ExperimentResult) -> String {
    let s = &r.safety;
    let mut line = format!(
        "safety[{}]: pause-frames {} max-depth {} max-window {} cycles {} deadlocks {} livelock {}",
        r.scheme,
        s.pause_frames,
        s.max_pause_depth,
        s.max_link_window_frames,
        s.cycles_formed,
        s.deadlocks,
        if s.livelock { "yes" } else { "no" },
    );
    if let Some(at) = s.first_deadlock_at {
        line.push_str(&format!(" first-deadlock {at}"));
    }
    if s.violations() > 0 {
        line.push_str(" VIOLATION");
    }
    line
}

fn cmd_trace(args: &[String]) -> CliResult<ExitCode> {
    let Some((sub, rest)) = args.split_first() else {
        return Err(usage(
            "trace: missing subcommand (record, inspect, filter, top, diff)",
        ));
    };
    match sub.as_str() {
        "record" => cmd_trace_record(rest).map(|()| ExitCode::SUCCESS),
        "inspect" => cmd_trace_inspect(rest).map(|()| ExitCode::SUCCESS),
        "filter" => cmd_trace_filter(rest).map(|()| ExitCode::SUCCESS),
        "top" => cmd_trace_top(rest).map(|()| ExitCode::SUCCESS),
        "diff" => cmd_trace_diff(rest),
        other => Err(usage(format!("trace: unknown subcommand `{other}`"))),
    }
}

fn cmd_trace_diff(args: &[String]) -> CliResult<ExitCode> {
    let mut context = 5usize;
    let positional = walk_options("trace diff", args, &[], |flag, value| {
        match flag {
            "context" => context = parse_num(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path_a, path_b] = positionals("trace diff", "two flight paths", positional)?;
    let (label_a, flight_a) = open_flight(&path_a)?;
    let (label_b, flight_b) = open_flight(&path_b)?;
    Ok(print_trace_diff(
        (&path_a, &label_a, &flight_a),
        (&path_b, &label_b, &flight_b),
        context,
    ))
}

/// Renders the divergence report between two canonical traces, each given as
/// `(name, run label, trace)`. Identical traces print nothing and return
/// success; otherwise the first diverging record (with up to `context`
/// records of common prefix before it) and the per-kind / per-(switch, port)
/// summaries of the divergent tails are printed, and the exit code is
/// failure — "the traces differ" is the command's result, not an error.
fn print_trace_diff(
    a: (&str, &str, &FlightTrace),
    b: (&str, &str, &FlightTrace),
    context: usize,
) -> ExitCode {
    let (name_a, label_a, flight_a) = a;
    let (name_b, label_b, flight_b) = b;
    let Some(diff) = flight_a.diff(flight_b) else {
        return ExitCode::SUCCESS;
    };
    println!("a: {name_a} — {} records [{label_a}]", flight_a.records.len());
    println!("b: {name_b} — {} records [{label_b}]", flight_b.records.len());
    println!("\nfirst divergence at canonical record {}:", diff.index);
    let start = diff.index.saturating_sub(context);
    if start < diff.index {
        println!("  (common prefix, last {} records)", diff.index - start);
        for (r, i) in flight_a.records[start..diff.index].iter().zip(start..) {
            println!("  = {}", record_line(i, r));
        }
    }
    match &diff.first_a {
        Some(r) => println!("  a {}", record_line(diff.index, r)),
        None => println!("  a (trace ends here)"),
    }
    match &diff.first_b {
        Some(r) => println!("  b {}", record_line(diff.index, r)),
        None => println!("  b (trace ends here)"),
    }
    println!(
        "\ndivergent tails: {} records in a, {} in b",
        diff.tail_a, diff.tail_b
    );
    let time_or_dash = |t: Option<SimTime>| t.map(|t| t.to_string()).unwrap_or_else(|| "-".into());
    if !diff.kinds.is_empty() {
        println!(
            "\n{:<14} {:>9} {:>9}  {:<14} {}",
            "kind", "a", "b", "first-a", "first-b"
        );
        for k in &diff.kinds {
            println!(
                "{:<14} {:>9} {:>9}  {:<14} {}",
                k.kind,
                k.count_a,
                k.count_b,
                time_or_dash(k.first_a),
                time_or_dash(k.first_b),
            );
        }
    }
    if !diff.ports.is_empty() {
        println!(
            "\n{:<8} {:<6} {:>9} {:>9}  {:<14} {}",
            "switch", "port", "a", "b", "pause-a", "pause-b"
        );
        for p in &diff.ports {
            println!(
                "{:<8} {:<6} {:>9} {:>9}  {:<14} {}",
                format!("sw{}", p.node.0),
                p.port,
                p.count_a,
                p.count_b,
                format!("{}", p.pause_a),
                p.pause_b,
            );
        }
    }
    ExitCode::FAILURE
}

fn cmd_trace_record(args: &[String]) -> CliResult {
    let mut opts = RunOptions::new("trace record", RUN_OPTIONS)?;
    let mut out: Option<PathBuf> = None;
    let mut last = 65_536usize;
    let mut kinds: Vec<String> = Vec::new();
    let mut nodes: Vec<u32> = Vec::new();
    let positional = opts.walk(args, &[], |flag, value| {
        match flag {
            "out" => out = Some(PathBuf::from(value)),
            "last" => last = parse_count(flag, value)?,
            "kind" => kinds.extend(value.split(',').map(str::to_string)),
            "node" => {
                for part in value.split(',') {
                    nodes.push(parse_num(flag, part)?);
                }
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path] = positionals("trace record", "one trace CSV path", positional)?;
    let out = required("trace record", "--out <flight>", out)?;

    let replay = load_trace(&opts, &path)?;
    let mut config = opts.config(replay.horizon())?.with_trace_capacity(last);
    if !kinds.is_empty() || !nodes.is_empty() {
        let mut filter = TraceFilter::all();
        if !kinds.is_empty() {
            let mut indices = Vec::with_capacity(kinds.len());
            for k in &kinds {
                indices.push(
                    kind_index_of(k).ok_or_else(|| format!("--kind: unknown event kind {k}"))?,
                );
            }
            filter = filter.with_kinds(indices);
        }
        if !nodes.is_empty() {
            filter = filter.with_nodes(nodes.iter().map(|&n| NodeId(n)));
        }
        config = config.with_trace_filter(filter);
    }
    let result = bfc_experiments::run_experiment_auto(opts.topo(), replay.flows(), &config);
    let flight = result.flight.expect("tracing was enabled for this run");
    let label = format!(
        "replay {path} scheme {} seed {}",
        config.scheme.name(),
        opts.seed
    );
    let blob = write_trace(&label, &flight);
    std::fs::write(&out, &blob).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "recorded {} trace events ({} shed by the ring of {last}) from {} flows over `{}` -> {} ({} bytes)",
        flight.records.len(),
        flight.dropped,
        replay.flows().len(),
        opts.topo_name(),
        out.display(),
        blob.len(),
    );
    Ok(())
}

/// Opens a flight-trace container, mapping errors to CLI diagnostics.
fn open_flight(path: &str) -> Result<(String, FlightTrace), String> {
    let bytes = std::fs::read(path).map_err(|e| format!("reading {path}: {e}"))?;
    read_trace(&bytes).map_err(|e| format!("{path}: {e}"))
}

/// One rendered record line: canonical index (the record's position in its
/// trace), simulated time, one-line event text.
fn record_line(index: usize, r: &bfc_net::trace::TraceRecord) -> String {
    format!("{index:>8}  {:<14} {}", format!("{}", r.at), r.event.render())
}

fn cmd_trace_inspect(args: &[String]) -> CliResult {
    let mut stats = false;
    let mut limit = 40usize;
    let positional = walk_options("trace inspect", args, &["stats"], |flag, value| {
        match flag {
            "stats" => stats = true,
            "limit" => limit = parse_num(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path] = positionals("trace inspect", "one flight path", positional)?;
    let (label, flight) = open_flight(&path)?;

    println!("label:   {label}");
    println!(
        "records: {} held, {} shed by the ring before them",
        flight.records.len(),
        flight.dropped
    );
    let mut by_kind: std::collections::BTreeMap<&str, usize> = std::collections::BTreeMap::new();
    for r in &flight.records {
        *by_kind.entry(r.event.kind()).or_insert(0) += 1;
    }
    for (kind, count) in &by_kind {
        println!("  {kind:<14} {count}");
    }
    if stats || flight.records.is_empty() {
        return Ok(());
    }
    let skip = flight.records.len().saturating_sub(limit);
    if skip > 0 {
        println!("\nlast {limit} records ({skip} earlier records not shown; --limit raises):");
    } else {
        println!("\nrecords:");
    }
    for (i, r) in flight.records.iter().enumerate().skip(skip) {
        println!("{}", record_line(i, r));
    }
    Ok(())
}

fn cmd_trace_filter(args: &[String]) -> CliResult {
    let mut kind: Option<String> = None;
    let mut node: Option<u32> = None;
    let mut limit = 1_000usize;
    let positional = walk_options("trace filter", args, &[], |flag, value| {
        match flag {
            "kind" => kind = Some(value.to_string()),
            "node" => node = Some(parse_num(flag, value)?),
            "limit" => limit = parse_num(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path] = positionals("trace filter", "one flight path", positional)?;
    if kind.is_none() && node.is_none() {
        return Err(usage(
            "trace filter: at least one of --kind or --node is required",
        ));
    }
    let (_, flight) = open_flight(&path)?;

    let matches: Vec<_> = flight
        .records
        .iter()
        .enumerate()
        .filter(|(_, r)| kind.as_deref().is_none_or(|k| r.event.kind() == k))
        .filter(|(_, r)| node.is_none_or(|n| r.event.node() == Some(NodeId(n))))
        .collect();
    let skip = matches.len().saturating_sub(limit);
    println!(
        "{} of {} records match{}",
        matches.len(),
        flight.records.len(),
        if skip > 0 {
            format!(" (showing the last {limit}; --limit raises)")
        } else {
            String::new()
        }
    );
    for &(i, r) in &matches[skip..] {
        println!("{}", record_line(i, r));
    }
    Ok(())
}

fn cmd_trace_top(args: &[String]) -> CliResult {
    let mut tree = false;
    let mut n = 10usize;
    let positional = walk_options("trace top", args, &["tree"], |flag, value| {
        match flag {
            "tree" => tree = true,
            "n" => n = parse_num(flag, value)?,
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    let [path] = positionals("trace top", "one flight path", positional)?;
    let (_, flight) = open_flight(&path)?;

    if tree {
        print_pause_tree(&flight);
        return Ok(());
    }

    let end = flight
        .records
        .last()
        .map(|r| r.at)
        .unwrap_or(SimTime::ZERO);
    let top = flight.pause_time_by_port(end);
    if top.is_empty() {
        println!("no PFC pause intervals in this trace");
        return Ok(());
    }
    println!("top {} queues by PFC pause-time (open intervals closed at {end}):", n.min(top.len()));
    println!("{:<8} {:<6} {}", "switch", "port", "paused");
    for ((node, port), paused) in top.iter().take(n) {
        println!("{:<8} {:<6} {}", format!("sw{}", node.0), port, paused);
    }
    Ok(())
}

/// Renders the pause-propagation forest from the trace's PFC wait-for
/// edges: an edge `src -> node` means a frame from `src` paused `node`'s
/// egress toward it, i.e. backpressure propagated from `src` upstream to
/// `node`. Roots are pause origins (never themselves paused); a back edge
/// to an ancestor is marked as a cycle — the signature of PFC deadlock.
fn print_pause_tree(flight: &FlightTrace) {
    use std::collections::{BTreeMap, BTreeSet};
    let mut children: BTreeMap<u32, BTreeSet<u32>> = BTreeMap::new();
    let mut paused: BTreeSet<u32> = BTreeSet::new();
    for (_, node, src, pause) in flight.pause_edges() {
        if pause {
            children.entry(src.0).or_default().insert(node.0);
            paused.insert(node.0);
        }
    }
    if children.is_empty() {
        println!("no PFC pause (XOFF) deliveries in this trace");
        return;
    }
    fn walk(
        node: u32,
        children: &BTreeMap<u32, BTreeSet<u32>>,
        path: &mut Vec<u32>,
        depth: usize,
        seen: &mut BTreeSet<u32>,
    ) {
        println!("{}sw{}", "  ".repeat(depth), node);
        seen.insert(node);
        path.push(node);
        if let Some(kids) = children.get(&node) {
            for &kid in kids {
                if path.contains(&kid) {
                    println!(
                        "{}sw{} ^ cycle back into the chain",
                        "  ".repeat(depth + 1),
                        kid
                    );
                    seen.insert(kid);
                } else {
                    walk(kid, children, path, depth + 1, seen);
                }
            }
        }
        path.pop();
    }
    let roots: Vec<u32> = children
        .keys()
        .filter(|k| !paused.contains(k))
        .copied()
        .collect();
    println!("pause propagation (roots are pause origins):");
    let mut seen = BTreeSet::new();
    for root in roots {
        walk(root, &children, &mut Vec::new(), 0, &mut seen);
    }
    // Components with no pure origin are wait-for cycles — the deadlock
    // signature — and are unreachable from any root, so walk them too,
    // entering each at its smallest unvisited pauser.
    loop {
        let Some(&entry) = children.keys().find(|k| !seen.contains(k)) else {
            break;
        };
        println!("(cyclic component, no pure origin:)");
        walk(entry, &children, &mut Vec::new(), 0, &mut seen);
    }
}

fn cmd_fuzz(args: &[String]) -> CliResult {
    let mut opts = RunOptions::new("fuzz", &["topo", "scheme", "seed", "shards"])?;
    opts.topo_list = true;
    let mut cfg = bfc_experiments::FuzzConfig::new();
    let mut out: Option<PathBuf> = None;
    let mut replay = false;
    let positional = opts.walk(args, &["replay"], |flag, value| {
        match flag {
            "replay" => replay = true,
            "out" => out = Some(PathBuf::from(value)),
            "budget" => cfg.budget = parse_count(flag, value)?,
            "shrink-evals" => cfg.shrink_evals = parse_num(flag, value)?,
            "objective" => {
                cfg.objective = bfc_experiments::fuzz::Objective::from_cli_key(value)
                    .ok_or_else(|| format!("--objective: unknown objective {value}"))?;
            }
            _ => return Ok(false),
        }
        Ok(true)
    })?;
    positionals::<0>("fuzz", "", positional)?;
    let out = required("fuzz", "--out <path>", out)?;
    cfg.seed = opts.seed;
    cfg.scheme = opts.single()?;
    cfg.topos = opts.topos.into_iter().map(|(name, _)| name).collect();

    let outcome = bfc_experiments::fuzz::fuzz(&cfg)?;
    let text = format!(
        "# worst case found by `trace-tool fuzz` (seed {}, budget {}, objective {}, \
         score {:.4}, pre-shrink {:.4})\n{}",
        cfg.seed,
        cfg.budget,
        cfg.objective.cli_key(),
        outcome.score,
        outcome.original_score,
        outcome.reproducer,
    );
    std::fs::write(&out, &text).map_err(|e| format!("writing {}: {e}", out.display()))?;
    println!(
        "fuzzed scheme {} for objective `{}`: {} evaluations, {} shrink step{}, \
         score {:.4} (pre-shrink {:.4})\nwrote reproducer to {}",
        cfg.scheme.name(),
        cfg.objective.cli_key(),
        outcome.evals,
        outcome.shrink_steps,
        if outcome.shrink_steps == 1 { "" } else { "s" },
        outcome.score,
        outcome.original_score,
        out.display(),
    );

    if replay {
        // Prove the artifact (not the in-memory case) is what replays: read
        // the file back, parse it, and run it.
        let text = std::fs::read_to_string(&out)
            .map_err(|e| format!("reading {}: {e}", out.display()))?;
        let repro = bfc_experiments::Reproducer::parse(&text)
            .map_err(|e| format!("{}: {e}", out.display()))?;
        let result = repro.replay_auto()?;
        println!("\nreplayed from {}:\n", out.display());
        print_results_table(std::slice::from_ref(&result));
        println!("{}", safety_line(&result));
    }
    Ok(())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let Some((command, rest)) = args.split_first() else {
        return fail(usage("missing command"));
    };
    // `scenario` and `trace` can exit nonzero *without* a usage error (a
    // divergence found by `trace diff` / `--diff-schemes` is a result, not a
    // misuse), so commands return an exit code on success.
    let result = match command.as_str() {
        "synth" => cmd_synth(rest).map(|()| ExitCode::SUCCESS),
        "stats" => cmd_stats(rest).map(|()| ExitCode::SUCCESS),
        "replay" => cmd_replay(rest).map(|()| ExitCode::SUCCESS),
        "snapshot" => cmd_snapshot(rest).map(|()| ExitCode::SUCCESS),
        "resume" => cmd_resume(rest).map(|()| ExitCode::SUCCESS),
        "serve" => cmd_serve(rest).map(|()| ExitCode::SUCCESS),
        "scenario" => cmd_scenario(rest),
        "trace" => cmd_trace(rest),
        "fuzz" => cmd_fuzz(rest).map(|()| ExitCode::SUCCESS),
        "--help" | "-h" | "help" => {
            println!("{USAGE}");
            Ok(ExitCode::SUCCESS)
        }
        other => return fail(usage(format!("unknown command `{other}`"))),
    };
    result.unwrap_or_else(fail)
}
