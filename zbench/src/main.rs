//! zbench — the repository's benchmark.
//!
//! ```text
//! zbench --workload <counter_tcp|icd_stream|vet_images|icd_sim>
//!        --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Each invocation runs one workload in its own process: it builds the
//! workload's inputs from the seed, sets up (timed, several times), warms
//! up, measures for `--seconds`, checks every output against a known
//! answer, prints a human report on stderr and, as the last line of
//! stdout, one JSON object with `correct`, `attempted`, `failed` and
//! `metrics`. `--trace 0` reports the end-to-end metrics, `--trace 1` the
//! per-layer metrics from spans recorded around calls into each layer's
//! public functions. Any wrong answer makes the exit code nonzero.
//!
//! The measured work runs in a child process whose stderr is filtered:
//! the replication pump logs one line per acknowledged commit, which would
//! otherwise flood the report.

mod answers;
mod counter_tcp;
mod fleet_common;
mod gen;
mod icd_sim;
mod icd_stream;
mod metrics;
mod stats;
mod trace;
mod vet_images;

use std::io::{BufRead, BufReader, Write};
use std::process::{Command, ExitCode, Stdio};

use answers::Answers;

/// Settings shared by every workload.
#[derive(Debug, Clone)]
pub struct Config {
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub answers: Answers,
}

const WORKLOADS: [&str; 4] = ["counter_tcp", "icd_stream", "vet_images", "icd_sim"];

fn usage() -> String {
    format!(
        "usage: zbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
        WORKLOADS.join("|")
    )
}

fn flag<'a>(args: &'a [String], name: &str) -> Option<&'a str> {
    args.iter()
        .position(|a| a == name)
        .and_then(|i| args.get(i + 1))
        .map(String::as_str)
}

fn parse(args: &[String]) -> Result<(String, Config), String> {
    let workload = flag(args, "--workload").ok_or_else(usage)?.to_string();
    if !WORKLOADS.contains(&workload.as_str()) {
        return Err(format!("unknown workload `{workload}`\n{}", usage()));
    }
    let seed = flag(args, "--seed")
        .unwrap_or("1")
        .parse::<u64>()
        .map_err(|e| format!("--seed: {e}"))?;
    let seconds = flag(args, "--seconds")
        .unwrap_or("10")
        .parse::<f64>()
        .map_err(|e| format!("--seconds: {e}"))?;
    if !(seconds > 0.0 && seconds <= 600.0) {
        return Err("--seconds must be in (0, 600]".into());
    }
    let trace = match flag(args, "--trace").unwrap_or("0") {
        "0" => false,
        "1" => true,
        other => return Err(format!("--trace must be 0 or 1, not `{other}`")),
    };
    Ok((
        workload,
        Config {
            seed,
            seconds,
            trace,
            answers: Answers::default(),
        },
    ))
}

/// Run the workload in a child process, forwarding its stdout and its
/// stderr minus the replication pump's per-commit log lines.
fn supervise(args: &[String]) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(p) => p,
        Err(e) => {
            eprintln!("zbench: cannot locate own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let mut child = match Command::new(exe)
        .arg("--child")
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::inherit())
        .stderr(Stdio::piped())
        .spawn()
    {
        Ok(c) => c,
        Err(e) => {
            eprintln!("zbench: cannot start the workload process: {e}");
            return ExitCode::FAILURE;
        }
    };
    if let Some(err) = child.stderr.take() {
        let mut sink = std::io::stderr().lock();
        for line in BufReader::new(err).lines().map_while(Result::ok) {
            if !line.starts_with("zarf-repl: ") {
                let _ = writeln!(sink, "{line}");
            }
        }
    }
    match child.wait() {
        Ok(status) if status.success() => ExitCode::SUCCESS,
        Ok(status) => {
            eprintln!("zbench: workload process ended with {status}");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("zbench: waiting for the workload process: {e}");
            ExitCode::FAILURE
        }
    }
}

fn main() -> ExitCode {
    let all: Vec<String> = std::env::args().skip(1).collect();
    let child = all.iter().any(|a| a == "--child");
    let args: Vec<String> = all.into_iter().filter(|a| a != "--child").collect();
    let (workload, cfg) = match parse(&args) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("zbench: {e}");
            return ExitCode::from(2);
        }
    };
    if !child {
        return supervise(&args);
    }

    eprintln!(
        "zbench: workload {workload}, seed {}, {} s, trace {}, {} CPUs available",
        cfg.seed,
        cfg.seconds,
        u8::from(cfg.trace),
        std::thread::available_parallelism().map_or(1, |n| n.get())
    );
    let mut out = match workload.as_str() {
        "counter_tcp" => counter_tcp::run(&cfg),
        "icd_stream" => icd_stream::run(&cfg),
        "vet_images" => vet_images::run(&cfg),
        _ => icd_sim::run(&cfg),
    };
    // The fleet workloads read the peak when their measured fleet stops,
    // before their extra timed set-ups; the others at the end.
    let rss = *out
        .metrics
        .entry("peak_rss_mb")
        .or_insert_with(metrics::peak_rss_mb);
    let failed_ratio = out.failed as f64 / out.attempted.max(1) as f64;
    out.set("trace.failed_ratio", failed_ratio);
    for line in &out.notes {
        eprintln!("{line}");
    }
    eprintln!(
        "failed_ratio {failed_ratio} (failed {} of {} attempted); peak_rss_mb {rss:.2} MB",
        out.failed, out.attempted,
    );
    for e in out.errors.iter().take(20) {
        eprintln!("WRONG: {e}");
    }
    println!("{}", out.json(cfg.trace));
    if out.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
