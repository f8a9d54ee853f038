use std::process::ExitCode;

use perfbench::bench::{run_end_to_end, run_layers, Options, References};
use perfbench::workload::{workload, Scale, WORKLOADS};
use perfbench::{record, REFERENCE_FILE};

const USAGE: &str = "usage: perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> \
[--scale t1|tiny] [--reference <file>]
       perfbench --record [--seconds <s>]";

enum Command {
    Run {
        workload: String,
        seed: u64,
        seconds: f64,
        trace: bool,
        scale: Scale,
        reference: String,
    },
    Record {
        seconds: f64,
    },
}

fn parse(mut args: impl Iterator<Item = String>) -> Result<Command, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut scale = Scale::T1;
    let mut reference = REFERENCE_FILE.to_string();
    let mut record = false;
    while let Some(flag) = args.next() {
        let mut value = || args.next().ok_or_else(|| format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => workload = Some(value()?),
            "--seed" => {
                seed = Some(
                    value()?
                        .parse::<u64>()
                        .map_err(|e| format!("--seed: {e}"))?,
                )
            }
            "--seconds" => {
                let s = value()?
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s >= 0.0) {
                    return Err("--seconds must be a non-negative number".to_string());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace must be 0 or 1, not {other}")),
                })
            }
            "--scale" => {
                let v = value()?;
                scale = Scale::parse(&v).ok_or_else(|| format!("unknown scale {v}"))?;
            }
            "--reference" => reference = value()?,
            "--record" => record = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if record {
        return Ok(Command::Record {
            seconds: seconds.unwrap_or(20.0),
        });
    }
    Ok(Command::Run {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        scale,
        reference,
    })
}

fn main() -> ExitCode {
    let command = match parse(std::env::args().skip(1)) {
        Ok(c) => c,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match command {
        Command::Record { seconds } => match record::record(seconds) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::FAILURE
            }
        },
        Command::Run {
            workload: name,
            seed,
            seconds,
            trace,
            scale,
            reference,
        } => {
            let Some(w) = workload(&name) else {
                let names: Vec<&str> = WORKLOADS.iter().map(|w| w.name).collect();
                eprintln!(
                    "perfbench: unknown workload {name}; one of {}",
                    names.join(", ")
                );
                return ExitCode::from(2);
            };
            let references = match std::fs::read_to_string(&reference)
                .map_err(|e| e.to_string())
                .and_then(|text| References::parse(&text))
            {
                Ok(r) => r,
                Err(e) => {
                    eprintln!("perfbench: cannot read reference file {reference}: {e}");
                    return ExitCode::from(2);
                }
            };
            let opts = Options {
                workload: w,
                seed,
                seconds,
                scale,
                references: &references,
            };
            let (kind, report) = if trace {
                ("layers", run_layers(&opts))
            } else {
                ("end to end", run_end_to_end(&opts))
            };
            eprintln!("{} seed {seed} at {} scale, {kind}:", w.name, scale.name());
            eprint!("{}", report.table());
            println!("{}", report.json_line());
            if report.correct() {
                ExitCode::SUCCESS
            } else {
                ExitCode::FAILURE
            }
        }
    }
}
