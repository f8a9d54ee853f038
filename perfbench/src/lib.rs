//! End-to-end and per-layer benchmark of the BFC simulator at T1 scale.
//!
//! `cargo run --release --manifest-path perfbench/Cargo.toml -- --workload
//! <name> --seed <n> --seconds <s> --trace <0|1>` runs one workload and
//! prints its metrics, one per line with unit and direction, on standard
//! error, and as its last line of standard output one JSON object with
//! `correct`, `attempted`, `failed` and `metrics`. `--trace 0` reports the
//! end-to-end metrics of an uninstrumented run; `--trace 1` attributes host
//! time to the simulator's layers. `--record` runs every workload on the
//! development seed and writes `perfbench/reference.json`: the host stamp,
//! each workload's metadata and metrics, and the reference digests that
//! later runs check against.
//!
//! Everything is measured from outside the simulator, through its public
//! API only.

pub mod bench;
pub mod driver;
pub mod host;
pub mod json;
pub mod record;
pub mod spans;
pub mod stats;
pub mod workload;

/// The reference file shipped with the benchmark.
pub const REFERENCE_FILE: &str = concat!(env!("CARGO_MANIFEST_DIR"), "/reference.json");
