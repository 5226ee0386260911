//! `vet_images`: the whole `zarf vet` pipeline over all five shipped
//! images, in-process — integrity round trip, shape, alloc, WCET, lints
//! and `--symex` on `@icd`, `@kernel` and `@session` under both entry
//! models, E4's kernel timing, and `--risc` on `@monitor` and `@chanmon`.
//!
//! Why: it is the only workload for `zarf-verify` and `zarf-symex`, and
//! service-model symex on the kernel images dominates it. RISC
//! certification is short, so it is repeated enough times to time it.
//!
//! The images are fixed binaries with published verdicts, so the seed
//! does not change this workload's input.

use std::time::Instant;

use zarf_core::machine::MProgram;
use zarf_hw::CostModel;
use zarf_imperative::Instr;
use zarf_verify::risc::RiscSpec;
use zarf_verify::{EntryModel, Wcet};

use crate::answers::{Answers, Decided};
use crate::metrics::Outcome;
use crate::stats::{median, setup_time, Summary};
use crate::trace::{breakdown, Tracer};
use crate::Config;

/// RISC certifications per image per pass, for a timeable median.
const RISC_REPS: usize = 10;
/// Image builds (about 1 ms each) timed before the first pass and after
/// each pass, so set-up is sampled across the whole run; the 10th
/// percentile is reported.
const SETUPS_PER_BURST: usize = 25;

/// The five shipped images, built once per set-up.
pub struct Images {
    lambda: [(&'static str, MProgram); 3],
    risc: [(&'static str, Vec<Instr>, RiscSpec); 2],
}

fn build_images() -> Images {
    use zarf_imperative::{CHANNEL_PORT, CHANNEL_STATUS_PORT};
    use zarf_kernel::baseline::{baseline_program, BASELINE_MEM_WORDS};
    use zarf_kernel::devices::{PORT_CMD, PORT_CMD_STATUS, PORT_RESP};
    use zarf_kernel::program::{PORT_BOOT, PORT_ECG, PORT_PACE, PORT_TIMER};
    // The same specs `zarf vet --risc` uses for the shipped images.
    let monitor =
        RiscSpec::new(BASELINE_MEM_WORDS).with_ports([PORT_BOOT, PORT_TIMER, PORT_PACE, PORT_ECG]);
    let chanmon = RiscSpec::new(64).with_ports([
        CHANNEL_STATUS_PORT,
        CHANNEL_PORT,
        PORT_CMD_STATUS,
        PORT_CMD,
        PORT_RESP,
    ]);
    Images {
        lambda: [
            ("icd", zarf_icd::icd_machine()),
            ("kernel", zarf_kernel::kernel_machine()),
            ("session", zarf_kernel::session_machine()),
        ],
        risc: [
            ("monitor", baseline_program(), monitor),
            ("chanmon", zarf_kernel::monitor::monitor_program(), chanmon),
        ],
    }
}

fn symex_span(image: &str) -> &'static str {
    match image {
        "icd" => "symex.icd",
        "kernel" => "symex.kernel",
        _ => "symex.session",
    }
}

/// Counters summed over one pass.
#[derive(Debug, Default)]
struct PassCounts {
    absint_iterations: u64,
    paths: u64,
    steps: u64,
    terms: u64,
    hits: u64,
    misses: u64,
    pool: u64,
}

/// One `zarf vet` pass over the λ-images (both models) and E4, then one
/// RISC verdict per imperative image. Every verdict is checked.
fn pass(
    images: &Images,
    answers: &Answers,
    tracer: &mut Tracer,
    key: u64,
    out: &mut Outcome,
    counts: &mut PassCounts,
) -> f64 {
    let started = Instant::now();
    let root = tracer.begin("vet.pass", (key, 0), None);
    let cost = CostModel::default();
    for (name, machine) in &images.lambda {
        let expect = answers
            .symex
            .iter()
            .find(|(n, _, _)| n == name)
            .map(|&(_, s, v)| (s, v))
            .expect("every λ-image has an answer");
        for (model, want) in [
            (EntryModel::Standalone, expect.0),
            (EntryModel::Service, expect.1),
        ] {
            out.attempted += 1;
            let k = (key, 0);
            let integrity = tracer.span("vet.integrity", k, root, || {
                zarf_asm::encode(machine)
                    .map_err(|e| e.to_string())
                    .and_then(|w| zarf_asm::decode(&w).map_err(|e| e.to_string()))
            });
            out.check(integrity.is_ok(), || {
                format!("@{name}: integrity round trip failed")
            });
            let shapes = tracer.span("vet.shape", k, root, || {
                zarf_verify::analyze_shapes(machine, model)
            });
            let Ok(shapes) = shapes else {
                out.check(false, || {
                    format!("@{name} {model:?}: shape analysis failed")
                });
                continue;
            };
            counts.absint_iterations += shapes.iterations;
            let violations = shapes
                .faults()
                .filter(|(_, f)| f.is_case_fault() || f.is_arity_fault())
                .count();
            out.check(violations == 0, || {
                format!("@{name} {model:?}: {violations} violations")
            });
            let rep = tracer.span(symex_span(name), k, root, || {
                let queries = zarf_verify::queries::warning_queries(machine, &shapes);
                zarf_symex::decide(
                    machine,
                    &shapes,
                    &queries,
                    zarf_symex::SymexBudget::default(),
                )
            });
            let got = Decided {
                witnesses: rep.witnesses(),
                discharged: rep.discharged(),
                undecided: rep.undecided(),
            };
            out.check(got == want, || {
                format!("@{name} {model:?}: symex {got:?}, expected {want:?}")
            });
            counts.paths += rep.stats.paths;
            counts.steps += rep.stats.steps;
            counts.terms += rep.stats.terms as u64;
            counts.hits += rep.stats.summary_hits;
            counts.misses += rep.stats.summary_misses;
            counts.pool += rep.stats.pool as u64;
            let alloc = tracer.span("vet.alloc", k, root, || zarf_verify::analyze_alloc(machine));
            match alloc {
                Ok(a) => counts.absint_iterations += a.iterations,
                Err(e) => out.check(false, || format!("@{name}: alloc analysis failed: {e}")),
            }
            // WCET of `main` is finite only for recursion-free programs;
            // either outcome is a verdict, so only a panic would be wrong.
            tracer.span("vet.wcet", k, root, || {
                drop(Wcet::new(machine, &cost).analyze(0x100))
            });
            let lints = tracer.span("vet.lint", k, root, || {
                zarf_asm::lift(machine).map(|p| zarf_verify::lint(&p).len())
            });
            out.check(lints.is_ok(), || format!("@{name}: lift failed"));
        }
    }
    out.attempted += 1;
    let timing = tracer.span("vet.wcet", (key, 0), root, || {
        zarf_verify::kernel_timing(&cost)
    });
    match timing {
        Ok(t) => out.check(
            t.loop_wcet == answers.e4_loop_wcet && t.gc_bound == answers.e4_gc_bound,
            || {
                format!(
                    "E4 {} + {} cycles, expected {} + {}",
                    t.loop_wcet, t.gc_bound, answers.e4_loop_wcet, answers.e4_gc_bound
                )
            },
        ),
        Err(e) => out.check(false, || format!("E4 timing failed: {e}")),
    }
    let lambda_ms = started.elapsed().as_secs_f64() * 1e3;
    for (name, prog, spec) in &images.risc {
        risc_verdict(name, prog, spec, answers, tracer, root, key, out);
    }
    tracer.end(root);
    lambda_ms
}

#[allow(clippy::too_many_arguments)]
fn risc_verdict(
    name: &str,
    prog: &[Instr],
    spec: &RiscSpec,
    answers: &Answers,
    tracer: &mut Tracer,
    parent: Option<usize>,
    key: u64,
    out: &mut Outcome,
) {
    let span = if name == "monitor" {
        "vet.risc.monitor"
    } else {
        "vet.risc.chanmon"
    };
    let want = if name == "monitor" {
        answers.monitor_steady
    } else {
        answers.chanmon_steady
    };
    out.attempted += 1;
    let rep = tracer.span(span, (key, 1), parent, || {
        zarf_verify::risc::certify(prog, spec)
    });
    match rep {
        Ok(r) => {
            let steady = r.wcet.steady.unwrap_or(0);
            out.check(r.certified() && steady == want, || {
                format!(
                    "@{name}: certified {} steady {steady}, expected certified steady {want}",
                    r.certified()
                )
            });
        }
        Err(e) => out.check(false, || format!("@{name}: certification refused: {e}")),
    }
}

/// Build the images `SETUPS_PER_BURST` times, timing each build.
fn timed_builds(setups: &mut Vec<f64>) -> Images {
    let mut images = None;
    for _ in 0..SETUPS_PER_BURST {
        let t = Instant::now();
        images = Some(build_images());
        setups.push(t.elapsed().as_secs_f64());
    }
    images.expect("built at least once")
}

pub fn run(cfg: &Config) -> Outcome {
    let mut out = Outcome::default();
    let mut setups = Vec::new();
    let images = timed_builds(&mut setups);

    // Traced runs make one untraced pass, then one traced pass: the
    // difference is the tracing overhead.
    let mut tracer = Tracer::new(true);
    let mut quiet = Tracer::new(false);
    let mut counts = PassCounts::default();
    let mut lambda_ms = Vec::new();
    let mut risc_ms: [Vec<f64>; 2] = [Vec::new(), Vec::new()];
    let mut pass_ms = Vec::new();
    let started = Instant::now();
    let mut key = 0;
    loop {
        let t = Instant::now();
        let lambda = if cfg.trace && key == 1 {
            pass(
                &images,
                &cfg.answers,
                &mut tracer,
                key,
                &mut out,
                &mut counts,
            )
        } else {
            let mut scratch = PassCounts::default();
            pass(
                &images,
                &cfg.answers,
                &mut quiet,
                key,
                &mut out,
                &mut scratch,
            )
        };
        pass_ms.push(t.elapsed().as_secs_f64() * 1e3);
        lambda_ms.push(lambda);
        for (i, (name, prog, spec)) in images.risc.iter().enumerate() {
            for _ in 0..RISC_REPS {
                let t = Instant::now();
                risc_verdict(
                    name,
                    prog,
                    spec,
                    &cfg.answers,
                    &mut quiet,
                    None,
                    key,
                    &mut out,
                );
                risc_ms[i].push(t.elapsed().as_secs_f64() * 1e3);
            }
        }
        drop(timed_builds(&mut setups));
        key += 1;
        let done = if cfg.trace {
            key == 2
        } else {
            pass_ms.len() >= 2 && started.elapsed().as_secs_f64() >= cfg.seconds
        };
        if done {
            break;
        }
    }

    out.set("setup_s", setup_time(&setups));
    let lat = Summary::of(&pass_ms);
    // Every pass does the same work (its verdicts are checked exactly), so
    // the fastest pass is the one the host disturbed least.
    out.set("latency_ms", lat.min);
    out.note(format!("vet_images: whole vet pass {}", lat.describe("ms")));
    out.note(format!(
        "vet_lambda_s {:.4} s (n = {}); vet_risc_ms {:.4} ms @monitor, {:.4} ms @chanmon (n = {} each); setup_s {:.6} s (n = {})",
        median(&lambda_ms) / 1e3,
        lambda_ms.len(),
        median(&risc_ms[0]),
        median(&risc_ms[1]),
        risc_ms[0].len(),
        setup_time(&setups),
        setups.len()
    ));

    if cfg.trace {
        let (selfs, root_ns) = tracer.self_times();
        let ms = |name: &str| selfs.get(name).copied().unwrap_or(0.0) / 1e6;
        out.set("vet.integrity_ms", ms("vet.integrity"));
        out.set("vet.shape_ms", ms("vet.shape"));
        out.set("vet.alloc_ms", ms("vet.alloc"));
        out.set("vet.wcet_ms", ms("vet.wcet"));
        out.set("vet.lint_ms", ms("vet.lint"));
        out.set("vet.absint_iterations", counts.absint_iterations as f64);
        out.set("vet.risc_ms.monitor", median(&risc_ms[0]));
        out.set("vet.risc_ms.chanmon", median(&risc_ms[1]));
        out.set("symex.ms.icd", ms("symex.icd"));
        out.set("symex.ms.kernel", ms("symex.kernel"));
        out.set("symex.ms.session", ms("symex.session"));
        out.set("symex.paths", counts.paths as f64);
        out.set("symex.steps", counts.steps as f64);
        out.set("symex.terms", counts.terms as f64);
        out.set(
            "symex.summary_hit_ratio",
            counts.hits as f64 / (counts.hits + counts.misses).max(1) as f64,
        );
        out.set("symex.pool", counts.pool as f64);
        out.set("trace.unit_us", root_ns / 1e3);
        out.set("trace.self_sum_us", selfs.values().sum::<f64>() / 1e3);
        out.set(
            "trace.glue_us",
            selfs.get("vet.pass").copied().unwrap_or(0.0) / 1e3,
        );
        out.set("trace.samples", 1.0);
        out.set(
            "trace.overhead_pct",
            100.0 * (pass_ms[1] - pass_ms[0]) / pass_ms[0],
        );
        out.set("trace.e2e_p50_ms", lat.p50);
        out.set("trace.e2e_p99_ms", lat.p99);
        out.notes.extend(breakdown(&tracer, 1, "vet pass"));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn risc_failures(answers: &Answers) -> u64 {
        let images = build_images();
        let mut out = Outcome::default();
        for (name, prog, spec) in &images.risc {
            risc_verdict(
                name,
                prog,
                spec,
                answers,
                &mut Tracer::new(false),
                None,
                0,
                &mut out,
            );
        }
        assert_eq!(out.attempted, 2);
        out.failed
    }

    #[test]
    fn risc_verdicts_match_and_a_corrupted_bound_fails() {
        let base = Answers::default();
        assert_eq!(risc_failures(&base), 0);
        let monitor = Answers {
            monitor_steady: base.monitor_steady + 1,
            ..base.clone()
        };
        assert_eq!(risc_failures(&monitor), 1);
        let chanmon = Answers {
            chanmon_steady: base.chanmon_steady - 1,
            ..base
        };
        assert_eq!(risc_failures(&chanmon), 1);
    }
}
