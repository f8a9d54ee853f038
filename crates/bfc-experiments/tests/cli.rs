//! End-to-end checks of the `trace-tool` option layer: each test drives the
//! real binary on a tiny synthesized trace in its own temporary directory.

use std::path::PathBuf;
use std::process::{Command, Output};

/// A scratch directory holding a 60 us trace over the tiny fat-tree.
struct Fixture {
    dir: PathBuf,
}

impl Fixture {
    fn new(name: &str) -> Fixture {
        let dir =
            std::env::temp_dir().join(format!("trace-tool-cli-{}-{name}", std::process::id()));
        std::fs::create_dir_all(&dir).expect("create fixture dir");
        let fixture = Fixture { dir };
        fixture.ok(&[
            "synth",
            "--out",
            "trace.csv",
            "--duration-us",
            "60",
            "--seed",
            "7",
        ]);
        std::fs::write(fixture.path("down.scn"), "at 20us down tor0 spine0\n")
            .expect("write scenario");
        fixture
    }

    fn path(&self, file: &str) -> PathBuf {
        self.dir.join(file)
    }

    /// Runs `trace-tool args` in the fixture dir with `envs` set and
    /// `BFC_SHARDS` otherwise cleared.
    fn run_env(&self, envs: &[(&str, &str)], args: &[&str]) -> Output {
        let mut cmd = Command::new(env!("CARGO_BIN_EXE_trace-tool"));
        cmd.current_dir(&self.dir)
            .env_remove("BFC_SHARDS")
            .args(args);
        for (key, value) in envs {
            cmd.env(key, value);
        }
        cmd.output().expect("spawn trace-tool")
    }

    fn run(&self, args: &[&str]) -> Output {
        self.run_env(&[], args)
    }

    /// Runs a command that must succeed; returns its stdout.
    fn ok(&self, args: &[&str]) -> String {
        let out = self.run(args);
        assert!(out.status.success(), "{args:?} failed:\n{}", stderr(&out));
        String::from_utf8(out.stdout).expect("utf-8 stdout")
    }

    /// Runs a command that must fail; returns its stderr.
    fn err_env(&self, envs: &[(&str, &str)], args: &[&str]) -> String {
        let out = self.run_env(envs, args);
        assert!(
            !out.status.success(),
            "{envs:?} {args:?} unexpectedly succeeded"
        );
        stderr(&out)
    }

    fn err(&self, args: &[&str]) -> String {
        self.err_env(&[], args)
    }
}

impl Drop for Fixture {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.dir);
    }
}

fn stderr(out: &Output) -> String {
    String::from_utf8_lossy(&out.stderr).into_owned()
}

fn first_line(text: &str) -> &str {
    text.lines().next().unwrap_or("")
}

#[test]
fn switches_work_before_and_after_the_positional() {
    let f = Fixture::new("switches");
    let run = |args: &[&str]| {
        let mut full = args.to_vec();
        full.extend(["--trace", "trace.csv", "--scheme", "bfc"]);
        f.ok(&full)
    };
    let before = run(&["scenario", "--json", "down.scn"]);
    let after = run(&["scenario", "down.scn", "--json"]);
    assert!(
        before.starts_with("{\n  \"scenario\": \"down\""),
        "{before}"
    );
    assert_eq!(before, after);
    f.ok(&["trace", "record", "trace.csv", "--out", "run.flight"]);
    let stats = f.ok(&["trace", "inspect", "--stats", "run.flight"]);
    assert_eq!(stats, f.ok(&["trace", "inspect", "run.flight", "--stats"]));
    let listing = f.ok(&["trace", "inspect", "run.flight"]);
    assert!(
        listing.starts_with(&stats) && listing.len() > stats.len(),
        "{stats}"
    );
}

#[test]
fn usage_errors_name_the_command_and_print_usage() {
    let f = Fixture::new("usage");
    for (args, msg) in [
        (
            &["replay", "trace.csv", "--bogus", "1"][..],
            "replay: unknown option --bogus",
        ),
        (
            &["trace", "top", "run.flight", "--bogus", "1"],
            "trace top: unknown option --bogus",
        ),
        (
            &["snapshot", "trace.csv", "--at-us", "10"],
            "snapshot: --out <snap> is required",
        ),
        (&["stats"], "stats: needs exactly one trace path"),
        (
            &["serve", "extra", "--tail", "trace.csv"],
            "serve: unexpected argument extra",
        ),
        (&["bogus"], "unknown command `bogus`"),
    ] {
        let err = f.err(args);
        assert!(first_line(&err).ends_with(msg), "{args:?}: {err}");
        assert!(
            err.contains("usage: trace-tool"),
            "{args:?} must print usage:\n{err}"
        );
    }
}

#[test]
fn data_errors_print_one_line_without_usage() {
    let f = Fixture::new("data");
    std::fs::write(
        f.path("bad.csv"),
        "src,dst,size_bytes,start_ns,is_incast\n0,1,100,2,0\n1,2,300,5.,0\n",
    )
    .expect("write bad csv");
    for args in [
        &["replay", "bad.csv"][..],
        &["resume", "trace.csv", "--snapshot", "missing.snap"],
        &["replay", "trace.csv", "--topo", "nope"],
    ] {
        let err = f.err(args);
        assert!(
            !err.contains("usage: trace-tool"),
            "{args:?} printed usage:\n{err}"
        );
        assert!(err.contains("trace-tool help"), "{args:?}: {err}");
    }
    assert!(f.err(&["stats", "bad.csv"]).contains("line 3"));
}

#[test]
fn single_scheme_commands_reject_a_lineup() {
    let f = Fixture::new("lineup");
    for args in [
        &["snapshot", "trace.csv", "--at-us", "10", "--out", "x.snap"][..],
        &["serve", "--tail", "trace.csv"],
        &["trace", "record", "trace.csv", "--out", "x.flight"],
        &["fuzz", "--out", "x.scn", "--budget", "1"],
    ] {
        let mut full = args.to_vec();
        full.extend(["--scheme", "lineup"]);
        let err = f.err(&full);
        assert!(
            err.contains("--scheme requires a single scheme, not a lineup"),
            "{full:?}: {err}"
        );
    }
}

/// Every command that takes `--shards`, with its other arguments.
const SHARDED_COMMANDS: &[&[&str]] = &[
    &["replay", "trace.csv"],
    &["snapshot", "trace.csv", "--at-us", "10", "--out", "x.snap"],
    &[
        "scenario",
        "down.scn",
        "--trace",
        "trace.csv",
        "--scheme",
        "bfc",
    ],
    &["trace", "record", "trace.csv", "--out", "x.flight"],
    &["fuzz", "--out", "x.scn", "--budget", "1"],
];

#[test]
fn zero_or_garbage_shards_are_rejected_by_flag_and_environment() {
    let f = Fixture::new("shards");
    for args in SHARDED_COMMANDS {
        for (value, msg) in [
            ("0", "--shards requires a positive shard count, got 0"),
            ("abc", "--shards: not a valid number: abc"),
        ] {
            let mut full = args.to_vec();
            full.extend(["--shards", value]);
            let flag_err = first_line(&f.err(&full)).to_string();
            assert!(flag_err.ends_with(msg), "{full:?}: {flag_err}");
            let env_err = f.err_env(&[("BFC_SHARDS", value)], args);
            assert!(
                first_line(&env_err).ends_with(&format!("BFC_SHARDS: {msg}")),
                "{env_err}"
            );
        }
    }
}

#[test]
fn snapshot_honours_bfc_shards() {
    let f = Fixture::new("snapshot-env");
    let args = [
        "snapshot",
        "trace.csv",
        "--at-us",
        "20",
        "--out",
        "run.snap",
    ];
    let one = f.ok(&args);
    assert!(one.trim_end().ends_with("1 shard)"), "{one}");
    let out = f.run_env(&[("BFC_SHARDS", "2")], &args);
    assert!(out.status.success(), "{}", stderr(&out));
    let two = String::from_utf8(out.stdout).expect("utf-8 stdout");
    assert!(two.trim_end().ends_with("2 shards)"), "{two}");
    // The snapshot really was cut on two shards: resuming it reproduces the
    // uninterrupted replay's table.
    let replay = f.ok(&["replay", "trace.csv"]);
    let resumed = f.ok(&["resume", "trace.csv", "--snapshot", "run.snap"]);
    assert_eq!(
        replay.lines().skip(1).collect::<Vec<_>>(),
        resumed.lines().skip(1).collect::<Vec<_>>()
    );
}

#[test]
fn replay_output_is_identical_at_any_shard_count() {
    let f = Fixture::new("replay-shards");
    let one = f.ok(&["replay", "trace.csv"]);
    assert_eq!(one, f.ok(&["replay", "trace.csv", "--shards", "2"]));
    let out = f.run_env(&[("BFC_SHARDS", "2")], &["replay", "trace.csv"]);
    assert!(out.status.success(), "{}", stderr(&out));
    assert_eq!(one.as_bytes(), out.stdout.as_slice());
}

#[test]
fn nonsense_rates_and_fan_ins_are_rejected() {
    let f = Fixture::new("values");
    for gbps in ["0", "-5", "nan", "inf"] {
        let err = f.err(&["stats", "trace.csv", "--gbps", gbps]);
        assert!(first_line(&err).contains("--gbps"), "--gbps {gbps}: {err}");
    }
    assert!(f
        .ok(&["stats", "trace.csv", "--gbps", "25"])
        .contains("25 Gbps"));

    let err = f.err(&["synth", "--out", "x.csv", "--fan-in", "0"]);
    assert!(first_line(&err).contains("--fan-in"), "{err}");
    assert!(!f.path("x.csv").exists());
    f.ok(&[
        "synth",
        "--out",
        "x.csv",
        "--fan-in",
        "0",
        "--incast-load",
        "0",
    ]);
}

/// The first column of a rendered record line: its canonical index.
fn index_of(line: &str) -> usize {
    let field = line.split_whitespace().next().unwrap_or_default();
    field
        .parse()
        .unwrap_or_else(|_| panic!("no record index in {line:?}"))
}

#[test]
fn record_lines_print_the_canonical_index() {
    let f = Fixture::new("index");
    for (scheme, out) in [("bfc", "bfc.flight"), ("dcqcn", "dcqcn.flight")] {
        f.ok(&[
            "trace",
            "record",
            "trace.csv",
            "--out",
            out,
            "--scheme",
            scheme,
        ]);
    }

    // `inspect --limit 5` shows the last five records, numbered n-5..n-1.
    let tail = f.ok(&["trace", "inspect", "bfc.flight", "--limit", "5"]);
    let held: usize = tail
        .lines()
        .find_map(|l| l.strip_prefix("records: "))
        .and_then(|l| l.split_whitespace().next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no record count in {tail}"));
    let shown: Vec<usize> = tail.lines().rev().take(5).map(index_of).collect();
    assert_eq!(shown, (held - 5..held).rev().collect::<Vec<_>>(), "{tail}");

    // A filtered line is the record's own line, index included.
    let limit = held.to_string();
    let all = f.ok(&["trace", "inspect", "bfc.flight", "--limit", &limit]);
    let all: std::collections::HashSet<&str> = all.lines().collect();
    let dequeues = f.ok(&[
        "trace",
        "filter",
        "bfc.flight",
        "--kind",
        "dequeue",
        "--limit",
        &limit,
    ]);
    let lines: Vec<&str> = dequeues.lines().skip(1).collect();
    assert!(!lines.is_empty(), "{dequeues}");
    for line in lines {
        assert!(
            all.contains(line),
            "filtered line not in the full listing: {line:?}"
        );
    }

    // `diff` names the first diverging record, and its a/b lines carry that
    // index.
    let out = f.run(&["trace", "diff", "bfc.flight", "dcqcn.flight"]);
    assert!(!out.status.success(), "bfc and dcqcn traces must differ");
    let report = String::from_utf8(out.stdout).expect("utf-8 stdout");
    let first: usize = report
        .lines()
        .find_map(|l| l.strip_prefix("first divergence at canonical record "))
        .and_then(|n| n.trim_end_matches(':').parse().ok())
        .unwrap_or_else(|| panic!("no divergence index in {report}"));
    for side in ["  a ", "  b "] {
        let line = report
            .lines()
            .find_map(|l| l.strip_prefix(side))
            .unwrap_or_else(|| panic!("no {side:?} line in {report}"));
        assert_eq!(index_of(line), first, "{report}");
    }
}
