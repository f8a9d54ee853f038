//! `--record`: one command that runs every workload and writes the
//! benchmark's reference file.

use std::fmt::Write as _;

use crate::bench::{run_end_to_end, run_layers, Metric, Options, References, Report};
use crate::host::{self, HostStamp};
use crate::json::{number, quote};
use crate::workload::{self, Input, Scale, LAYER_SHARDS, WORKLOADS};
use crate::REFERENCE_FILE;

/// The seed the metrics in the reference file come from.
pub const DEVELOPMENT_SEED: u64 = 1;
/// A second seed whose digests are recorded but which no tuning used.
pub const HELD_OUT_SEED: u64 = 2;

/// Serial digests of every trace of `input` at `seed`.
pub fn serial_digests(input: Input, scale: Scale, seed: u64) -> Vec<String> {
    let (setup, _) = workload::setup(input, scale, seed);
    setup
        .traces
        .iter()
        .map(|t| {
            let r = bfc_experiments::run_experiment(&setup.topo, &t.flows, &t.config);
            workload::Outcome::of(&r).digest()
        })
        .collect()
}

/// Runs every workload end to end and by layer on the development seed,
/// printing each metric, and writes [`REFERENCE_FILE`].
pub fn record(seconds: f64) -> Result<(), String> {
    let scale = Scale::T1;
    let stamp = HostStamp::measure();
    eprintln!(
        "host: {} cpus, {}, kernel {}, calibration {:.6} s",
        stamp.parallelism, stamp.cpu_model, stamp.kernel, stamp.calibration_s
    );

    let mut references = References::default();
    for input in [Input::GoogleIncastBfc, Input::WebsearchDcqcnWin] {
        for seed in [DEVELOPMENT_SEED, HELD_OUT_SEED] {
            let digests = serial_digests(input, scale, seed);
            eprintln!(
                "digests {} seed {seed}: {}",
                input.name(),
                digests.join(" ")
            );
            references.insert(input, scale, seed, digests);
        }
    }

    let mut runs = Vec::new();
    let mut all_correct = true;
    for w in &WORKLOADS {
        let opts = Options {
            workload: w,
            seed: DEVELOPMENT_SEED,
            seconds,
            scale,
            references: &references,
        };
        host::reset_peak_rss();
        let e2e = run_end_to_end(&opts);
        eprintln!(
            "{} seed {DEVELOPMENT_SEED}, end to end:\n{}",
            w.name,
            e2e.table()
        );
        host::reset_peak_rss();
        let layers = run_layers(&opts);
        eprintln!(
            "{} seed {DEVELOPMENT_SEED}, layers:\n{}",
            w.name,
            layers.table()
        );
        all_correct &= e2e.correct() && layers.correct();
        runs.push((w, e2e, layers));
    }
    if !all_correct {
        return Err(
            "a workload failed its correctness check; reference file not written".to_string(),
        );
    }

    let text = render(&stamp, seconds, scale, &references, &runs);
    std::fs::write(REFERENCE_FILE, text).map_err(|e| format!("writing {REFERENCE_FILE}: {e}"))?;
    println!("wrote {REFERENCE_FILE}");
    Ok(())
}

fn metrics_object(metrics: &[Metric], indent: &str) -> String {
    let items: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{indent}{}: {{\"value\": {}, \"unit\": {}, \"better\": {}}}",
                quote(m.name),
                number(m.value),
                quote(m.unit),
                quote(m.better)
            )
        })
        .collect();
    format!(
        "{{\n{}\n{}}}",
        items.join(",\n"),
        &indent[..indent.len() - 2]
    )
}

fn render(
    stamp: &HostStamp,
    seconds: f64,
    scale: Scale,
    references: &References,
    runs: &[(&workload::Workload, Report, Report)],
) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{{");
    let _ = writeln!(
        out,
        "  \"about\": {},",
        quote(
            "Written by `cargo run --release --manifest-path perfbench/Cargo.toml -- --record`: \
             the host the numbers below came from, each workload's metadata and its metrics on the \
             development seed, and the reference digests every run checks its results against."
        )
    );
    let _ = writeln!(out, "  \"host\": {{");
    let _ = writeln!(out, "    \"available_parallelism\": {},", stamp.parallelism);
    let _ = writeln!(out, "    \"cpu_model\": {},", quote(&stamp.cpu_model));
    let _ = writeln!(out, "    \"kernel\": {},", quote(&stamp.kernel));
    let _ = writeln!(
        out,
        "    \"calibration_s\": {}",
        number(stamp.calibration_s)
    );
    let _ = writeln!(out, "  }},");
    let _ = writeln!(
        out,
        "  \"seeds\": {{\"development\": {DEVELOPMENT_SEED}, \"held_out\": {HELD_OUT_SEED}}},"
    );
    let _ = writeln!(out, "  \"run_seconds\": {},", number(seconds));
    let _ = writeln!(out, "  \"workloads\": [");
    for (i, (w, e2e, layers)) in runs.iter().enumerate() {
        let _ = writeln!(out, "    {{");
        let _ = writeln!(out, "      \"name\": {},", quote(w.name));
        let _ = writeln!(out, "      \"why\": {},", quote(w.why));
        let _ = writeln!(out, "      \"loop\": \"closed\",");
        let _ = writeln!(out, "      \"clients\": 1,");
        let _ = writeln!(out, "      \"threads\": 1,");
        let _ = writeln!(out, "      \"layer_run_threads\": {LAYER_SHARDS},");
        let _ = writeln!(out, "      \"input\": {},", quote(w.input.name()));
        let _ = writeln!(out, "      \"scale\": {},", quote(scale.name()));
        let _ = writeln!(
            out,
            "      \"traces_per_run\": {},",
            w.input.traces_per_run(scale)
        );
        let _ = writeln!(
            out,
            "      \"horizon_us\": {},",
            number(w.input.horizon(scale).as_micros_f64())
        );
        let _ = writeln!(
            out,
            "      \"end_to_end\": {},",
            metrics_object(&e2e.metrics, "        ")
        );
        let _ = writeln!(
            out,
            "      \"reported\": {},",
            metrics_object(&e2e.reported, "        ")
        );
        let _ = writeln!(
            out,
            "      \"per_layer\": {}",
            metrics_object(&layers.metrics, "        ")
        );
        let _ = writeln!(out, "    }}{}", if i + 1 < runs.len() { "," } else { "" });
    }
    let _ = writeln!(out, "  ],");
    let _ = writeln!(out, "  \"digests\": {{");
    let entries: Vec<String> = references
        .entries()
        .map(|(key, digests)| {
            let list: Vec<String> = digests.iter().map(|d| quote(d)).collect();
            format!("    {}: [{}]", quote(key), list.join(", "))
        })
        .collect();
    let _ = writeln!(out, "{}", entries.join(",\n"));
    let _ = writeln!(out, "  }}");
    let _ = writeln!(out, "}}");
    out
}
