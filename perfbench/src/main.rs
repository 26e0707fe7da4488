//! `perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1>`
//!
//! Runs one workload and prints, last on standard output, one JSON
//! object: `correct`, `attempted`, `failed`, and the end-to-end metrics
//! (`--trace 0`) or per-layer metrics (`--trace 1`), each with its unit.
//! Exits non-zero if any result differs from the scalar reference.

use plf_perfbench::{result_json, run, Params, Size, Workload};
use std::path::PathBuf;
use std::process::ExitCode;

/// Traced runs write their spans here, relative to the working
/// directory.
const TRACE_DIR: &str = ".perfbench";

fn parse(args: &[String]) -> Result<Params, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace) = (None, None, None);
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload =
                    Some(Workload::parse(value).ok_or(format!("unknown workload {value:?}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(format!("--seconds {s} outside (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace takes 0 or 1, not {value:?}")),
                })
            }
            _ => return Err(format!("unknown flag {flag:?}")),
        }
    }
    Ok(Params {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.unwrap_or(false),
        size: Size::Full,
        trace_dir: Some(PathBuf::from(TRACE_DIR)),
    })
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let params = match parse(&args) {
        Ok(p) => p,
        Err(e) => {
            let names: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                names.join("|")
            );
            return ExitCode::from(2);
        }
    };
    match run(&params) {
        Ok(outcome) => {
            for note in &outcome.notes {
                println!("# {note}");
            }
            println!("{}", result_json(&outcome));
            if outcome.failed == 0 {
                ExitCode::SUCCESS
            } else {
                eprintln!(
                    "perfbench: {} of {} results failed",
                    outcome.failed, outcome.attempted
                );
                ExitCode::FAILURE
            }
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
