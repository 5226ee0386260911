//! E2 — §6 dynamic CPI statistics.
//!
//! Runs the full two-layer system over a multi-minute ECG trace (several
//! million λ-layer cycles, like the paper's "dynamic trace of several
//! million cycles") and prints the per-instruction-class averages next to
//! the published ones.
//!
//! `--json` prints one JSON object instead of the table. The run's counts
//! are pinned exactly by the `e2_cpi_trace_is_pinned_exactly` test.

use zarf_bench::{header, row, vt_workload};
use zarf_kernel::system::System;

fn main() {
    let json = std::env::args().skip(1).any(|a| a == "--json");

    // ~4 minutes of ECG = 48k iterations ≈ tens of millions of λ cycles.
    let seconds = 240.0;
    let samples = vt_workload(seconds);
    let n = samples.len() as u64;
    let mut sys = System::new(samples).expect("system boots");
    let report = sys.run().expect("system runs");
    let s = &report.lambda_stats;

    if json {
        println!(
            "{{\"bench\":\"table2_cpi\",\"seconds\":{seconds},\"iterations\":{n},\
             \"total_cycles\":{},\"instructions\":{},\
             \"cpi\":{:.4},\"cpi_with_gc\":{:.4},\
             \"let_cpi\":{:.4},\"case_cpi\":{:.4},\"result_cpi\":{:.4},\
             \"branch_head_cpi\":{:.4},\"gc_cycles\":{},\"gc_runs\":{}}}",
            s.total_cycles(),
            s.instructions(),
            s.cpi(),
            s.cpi_with_gc(),
            s.lets.cpi(),
            s.cases.cpi(),
            s.results.cpi(),
            s.branch_heads.cpi(),
            s.gc_cycles,
            s.gc_runs,
        );
        return;
    }

    header("§6 dynamic CPI (ICD application trace)");
    row(
        "trace length",
        format!("{} cycles", s.total_cycles()),
        "\"several million\"",
        "",
    );
    row("let CPI", format!("{:.2}", s.lets.cpi()), "10.36", "cycles");
    row(
        "let avg arguments",
        format!("{:.2}", s.avg_let_args()),
        "5.16",
        "args",
    );
    row(
        "case CPI",
        format!("{:.2}", s.cases.cpi()),
        "10.59",
        "cycles",
    );
    row(
        "result CPI",
        format!("{:.2}", s.results.cpi()),
        "11.01",
        "cycles",
    );
    row(
        "branch-head CPI",
        format!("{:.2}", s.branch_heads.cpi()),
        "1.00",
        "cycles",
    );
    row(
        "branch-head fraction",
        format!("{:.1}%", 100.0 * s.branch_head_fraction()),
        "~33%",
        "of instrs",
    );
    row("total CPI", format!("{:.2}", s.cpi()), "7.46", "cycles");
    row(
        "total CPI incl. GC",
        format!("{:.2}", s.cpi_with_gc()),
        "11.86",
        "cycles",
    );
    println!();
    row("iterations", n, "-", "");
    row("cycles / iteration (mean)", s.total_cycles() / n, "-", "");
    row(
        "GC share",
        format!(
            "{:.1}%",
            100.0 * s.gc_cycles as f64 / s.total_cycles() as f64
        ),
        "-",
        "",
    );
}
