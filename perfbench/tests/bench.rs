//! The benchmark's own tests: every workload runs on the tiny fabric, prints
//! exactly the metrics `BENCHMARK.json` declares with their units, the
//! traced driver reproduces `run_experiment`, and a wrong reference digest
//! fails the run.

use std::process::Command;

use bfc_experiments::{run_experiment, ExperimentConfig, Scheme};
use bfc_net::topology::{fat_tree, FatTreeParams};
use bfc_sim::SimDuration;
use bfc_workloads::{synthesize, TraceParams, Workload as FlowSizes};
use perfbench::bench::{run_end_to_end, run_layers, Options, References};
use perfbench::driver::drive;
use perfbench::json::Json;
use perfbench::record::serial_digests;
use perfbench::workload::{Input, Scale, WORKLOADS};

fn benchmark_json() -> Json {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    Json::parse(&std::fs::read_to_string(path).expect("BENCHMARK.json")).expect("valid JSON")
}

fn declared(section: &str) -> Vec<String> {
    benchmark_json()
        .get(section)
        .and_then(Json::as_array)
        .expect(section)
        .iter()
        .map(|m| {
            m.get("name")
                .and_then(Json::as_str)
                .expect("name")
                .to_string()
        })
        .collect()
}

/// Runs the benchmark binary on the tiny fabric; returns its exit code and
/// the parsed last line of its standard output.
fn run_binary(workload: &str, trace: u8, extra: &[&str]) -> (i32, Json) {
    let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
        .args([
            "--workload",
            workload,
            "--seed",
            "4",
            "--seconds",
            "0.2",
            "--trace",
        ])
        .arg(trace.to_string())
        .args(["--scale", "tiny"])
        .args(extra)
        .output()
        .expect("the benchmark binary runs");
    let stdout = String::from_utf8(out.stdout).expect("utf-8");
    let last = stdout
        .lines()
        .last()
        .unwrap_or_else(|| panic!("{workload}: no output"));
    (
        out.status.code().unwrap_or(-1),
        Json::parse(last).expect("last line is JSON"),
    )
}

#[test]
fn every_workload_prints_exactly_the_declared_metrics_with_units() {
    let declared_workloads: Vec<(String, String)> = benchmark_json()
        .get("workloads")
        .and_then(Json::as_array)
        .expect("workloads")
        .iter()
        .map(|w| {
            let field = |k| w.get(k).and_then(Json::as_str).expect(k).to_string();
            (field("name"), field("why"))
        })
        .collect();
    let ours: Vec<(String, String)> = WORKLOADS
        .iter()
        .map(|w| (w.name.to_string(), w.why.to_string()))
        .collect();
    assert_eq!(
        declared_workloads, ours,
        "BENCHMARK.json and WORKLOADS disagree"
    );

    for (trace, section) in [(0, "end_to_end"), (1, "per_layer")] {
        let names = declared(section);
        for w in &WORKLOADS {
            let (code, line) = run_binary(w.name, trace, &[]);
            assert_eq!(code, 0, "{} --trace {trace}", w.name);
            assert_eq!(line.get("correct").and_then(Json::as_bool), Some(true));
            assert_eq!(line.get("failed").and_then(Json::as_f64), Some(0.0));
            assert!(line.get("attempted").and_then(Json::as_f64).unwrap() >= 1.0);
            let metrics = line
                .get("metrics")
                .and_then(Json::as_object)
                .expect("metrics");
            let printed: Vec<&str> = metrics.iter().map(|(k, _)| k.as_str()).collect();
            assert_eq!(printed, names, "{} --trace {trace}", w.name);
            for (name, m) in metrics {
                let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
                assert!(!unit.is_empty(), "{name} has no unit");
                assert!(
                    m.get("value").and_then(Json::as_f64).is_some(),
                    "{name} has no value"
                );
            }
        }
    }
}

#[test]
fn traced_driver_reproduces_run_experiment_for_bfc_and_dcqcn_win() {
    let topo = fat_tree(FatTreeParams::tiny());
    let horizon = SimDuration::from_micros(80);
    let cases = [
        (Scheme::bfc(), TraceParams::google_with_incast(horizon, 9)),
        (
            Scheme::Dcqcn {
                window: true,
                sfq: false,
            },
            TraceParams::background_only(FlowSizes::WebSearch, 0.6, horizon, 9),
        ),
    ];
    for (scheme, params) in cases {
        let trace = synthesize(&topo.hosts(), &params);
        let config = ExperimentConfig::new(scheme.clone(), horizon).with_seed(9);
        let reference = run_experiment(&topo, &trace, &config);
        assert!(!reference.records.is_empty());
        for spans in [false, true] {
            for capacity in [None, Some(1 << 12)] {
                let run = drive(&topo, &trace, &config, capacity, spans);
                assert_eq!(
                    run.records,
                    reference.records,
                    "{} spans={spans}",
                    scheme.name()
                );
                assert_eq!(run.end_time, reference.end_time);
                assert_eq!(run.completed, reference.completed_flows);
                assert_eq!(run.policy_stats, reference.policy_stats);
                assert_eq!(
                    run.switches.rx_packets,
                    reference.registry.family_total("bfc_switch_rx_packets")
                );
                assert_eq!(run.profile.is_some(), spans);
            }
        }
    }
}

#[test]
fn a_wrong_reference_digest_fails_the_run() {
    let w = &WORKLOADS[0];
    let mut right = References::default();
    right.insert(
        w.input,
        Scale::Tiny,
        4,
        serial_digests(w.input, Scale::Tiny, 4),
    );
    let mut wrong = References::default();
    wrong.insert(
        w.input,
        Scale::Tiny,
        4,
        vec!["0000000000000000".to_string(); 2],
    );

    let opts = |references| Options {
        workload: w,
        seed: 4,
        seconds: 0.0,
        scale: Scale::Tiny,
        references,
    };
    assert!(run_end_to_end(&opts(&right)).correct());
    let report = run_end_to_end(&opts(&wrong));
    assert!(!report.correct());
    assert_eq!(report.failed, report.attempted, "every run mismatches");
    assert!(report
        .notes
        .iter()
        .any(|n| n.contains("expected 0000000000000000")));
    assert!(!run_layers(&opts(&wrong)).correct());

    let file = std::path::Path::new(env!("CARGO_TARGET_TMPDIR")).join("wrong-reference.json");
    std::fs::write(
        &file,
        format!(
            "{{\"digests\": {{\"tiny/{}/4\": [\"0000000000000000\", \"0000000000000000\"]}}}}",
            Input::GoogleIncastBfc.name()
        ),
    )
    .unwrap();
    for workload in ["t1_google_incast_bfc", "t1_google_incast_bfc_traced"] {
        let (code, line) = run_binary(workload, 0, &["--reference", file.to_str().unwrap()]);
        assert_eq!(code, 1, "{workload}");
        assert_eq!(line.get("correct").and_then(Json::as_bool), Some(false));
    }
}

#[test]
fn bad_arguments_exit_without_a_result() {
    for args in [
        vec![
            "--workload",
            "no_such_workload",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "t1_google_incast_bfc",
            "--seed",
            "x",
            "--seconds",
            "1",
            "--trace",
            "0",
        ],
        vec![
            "--workload",
            "t1_google_incast_bfc",
            "--seed",
            "1",
            "--seconds",
            "1",
            "--trace",
            "2",
        ],
        vec!["--workload", "t1_google_incast_bfc", "--seed", "1"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_perfbench"))
            .args(&args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(out.stdout.is_empty(), "{args:?}");
    }
}
