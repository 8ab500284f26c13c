//! Layered search benchmark for swsimd.
//!
//! ```text
//! cargo run --release --offline --quiet --manifest-path perfbench/Cargo.toml -- \
//!     --workload serve-light --seed 1 --seconds 15 --trace 0
//! ```
//!
//! Runs one seeded workload, checks every answer against an exact
//! oracle, and prints one JSON result object as the last line of
//! standard output: the end-to-end metrics with `--trace 0`, or the
//! per-layer ladder (see `ladder.rs`) with `--trace 1`. See
//! `perfbench/README.md` for the workloads, metrics and predictions.

mod cluster;
mod inputs;
mod ladder;
mod scan;
mod serve;
mod util;

use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Duration;

use swsimd_core::EngineKind;

use inputs::Workload;
use util::{Host, Metrics, Report};

/// Where runs keep their journals and span files, relative to the
/// directory the benchmark is run from.
const OUT_DIR: &str = ".perfbench_out";

const USAGE: &str = "usage: perfbench --workload <scan|serve-light|serve-heavy|stream-durable> \
--seed <n> --seconds <n> --trace <0|1> [--engine <scalar|sse41|avx2|avx512>] \
[--shard-delay-ms <ms>]";

pub struct Opts {
    pub workload: Workload,
    pub seed: u64,
    pub seconds: u64,
    pub trace: bool,
    pub engine: EngineKind,
    /// Sensitivity check: delay every shard reply by this much.
    pub shard_delay: Option<Duration>,
    pub out_dir: PathBuf,
    pub host: Host,
}

fn parse_args() -> Result<Opts, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut engine = EngineKind::best();
    let mut shard_delay = None;
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        let bad = |e: &dyn std::fmt::Display| format!("bad {flag} {value}: {e}");
        match flag.as_str() {
            "--workload" => {
                workload = Some(Workload::parse(value).ok_or(format!("unknown workload {value}"))?)
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--seconds" => seconds = Some(value.parse::<u64>().map_err(|e| bad(&e))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad(&"expected 0 or 1")),
                })
            }
            "--engine" => {
                engine = match value.as_str() {
                    "scalar" => EngineKind::Scalar,
                    "sse41" => EngineKind::Sse41,
                    "avx2" => EngineKind::Avx2,
                    "avx512" => EngineKind::Avx512,
                    _ => return Err(bad(&"unknown engine")),
                };
                if !engine.is_available() {
                    return Err(format!("engine {value} is not available on this CPU"));
                }
            }
            "--shard-delay-ms" => {
                let ms = value.parse::<f64>().map_err(|e| bad(&e))?;
                shard_delay = Some(Duration::from_secs_f64(ms / 1e3));
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(Opts {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?.max(1),
        trace: trace.ok_or("--trace is required")?,
        engine,
        shard_delay,
        out_dir: PathBuf::from(OUT_DIR),
        host: Host::detect(),
    })
}

fn run(opts: &Opts, report: &mut Report) -> Result<Metrics, String> {
    std::fs::create_dir_all(&opts.out_dir).map_err(|e| format!("create {OUT_DIR}: {e}"))?;
    if opts.trace {
        return ladder::run(opts, report);
    }
    match opts.workload {
        Workload::Scan => Ok(scan::run(opts, report)),
        w => serve::run(w, opts, report),
    }
}

fn json_str(s: &str) -> String {
    let mut out = String::from("\"");
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        opts.workload.name(),
        opts.seed,
        opts.seconds,
        u8::from(opts.trace)
    );
    println!(
        "host nproc={} cpu={} l3_kib={} engine={}{}",
        opts.host.nproc,
        json_str(&opts.host.cpu),
        opts.host.l3_kib,
        opts.engine.name(),
        opts.shard_delay
            .map(|d| format!(" shard_delay_ms={}", d.as_secs_f64() * 1e3))
            .unwrap_or_default()
    );
    let mut report = Report::default();
    let metrics = match run(&opts, &mut report) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    for (name, t) in &report.phases {
        println!(
            "phase {name}: sent {} succeeded {} failed {}",
            t.sent,
            t.sent - t.failed,
            t.failed
        );
    }
    for n in &report.notes {
        println!("note {n}");
    }
    let total = report.total();
    println!(
        "error_rate {} ({} failed of {} attempted)",
        util::ratio(total.failed as f64, total.sent as f64),
        total.failed,
        total.sent
    );
    let mut fields = Vec::new();
    for (name, (value, unit)) in metrics.iter() {
        println!("metric {name} = {value} {unit}");
        if !value.is_finite() {
            eprintln!("perfbench: metric {name} is not a number");
            return ExitCode::FAILURE;
        }
        fields.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_str(name),
            json_str(unit)
        ));
    }
    println!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        total.failed == 0 && total.sent > 0,
        total.sent.max(1),
        total.failed,
        fields.join(", ")
    );
    ExitCode::SUCCESS
}
