//! The `zarf` command-line driver: assemble, run, disassemble, and analyze
//! Zarf programs from the shell.
//!
//! ```text
//! zarf asm <file.zf>              assemble to <file.zbin> (binary words)
//! zarf run <file.zf|file.zbin> [--in p:v,v,… ] [--engine big|small|hw]
//! zarf dis <file.zf|file.zbin>    machine-assembly listing
//! zarf hex <file.zf|file.zbin>    annotated binary words
//! zarf wcet <file.zf|file.zbin> [--fn name] [--exclude name] [--lazy]
//! zarf lint <file.zf|file.zbin>   static hygiene findings
//! zarf check <file.zfa>           typecheck annotated assembly (§5.3)
//! zarf stats <file.zf> [--profile]  run on hardware, print CPI statistics
//! zarf trace <file.zf|file.zbin> [--engine big|small|hw] [--out FILE]
//!                                 run with an NDJSON event trace
//! zarf profile <file.zf|file.zbin> [--folded]
//!                                 run on hardware, print metrics report
//!                                 (or folded stacks for flamegraph tools)
//! zarf vet <file.zf|file.zbin> [--json] [--model standalone|service]
//!          [--symex]
//!                                 static certification: shape/arity
//!                                 machine-fault-freedom, allocation
//!                                 bounds, WCET, binary integrity, and
//!                                 lints in one report; the last line is
//!                                 a one-line JSON verdict and the exit
//!                                 code is nonzero on any violation;
//!                                 --symex decides each warning into a
//!                                 replay-validated concrete witness, a
//!                                 spuriousness proof, or a typed
//!                                 undecided marker (DESIGN.md §15);
//!                                 --risc certifies an imperative-core
//!                                 RISC binary instead (DESIGN.md §16)
//! zarf chaos [--seeds N] [--base-seed S] [--seconds F] [--faults N]
//!            [--policy halt|restart|degrade|rollback]
//!                                 seeded fault-injection soak of the full
//!                                 ICD system (each seed runs twice and the
//!                                 replays must agree exactly); the last
//!                                 line is a one-line JSON verdict and the
//!                                 exit code is nonzero on any disagreement
//! zarf snapshot save <file.zf|file.zbin> [--out FILE] [--in …]
//!                                 run to completion, capture an audited
//!                                 machine snapshot (default <file>.zsnp)
//! zarf snapshot restore <file.zsnp> [--in …]
//!                                 restore a snapshot and print its root
//! zarf snapshot audit <file.zsnp> print a one-line JSON audit verdict
//!                                 (exit code 1 when the snapshot is bad)
//! zarf serve [--listen ADDR] [--workers N] [--data-dir DIR] [--no-fsync]
//!                                 run a fleet and serve the ZFLT wire
//!                                 protocol over TCP until a client sends
//!                                 Shutdown; with --data-dir every slice
//!                                 commit is persisted in a durable chunk
//!                                 store and a restart recovers every
//!                                 committed session
//! zarf store <fsck|gc> <DIR> [--json]
//!                                 verify (fsck, read-only) or compact
//!                                 (gc) a fleet data directory; fsck
//!                                 exits nonzero on any damage
//! zarf loadgen --connect ADDR [--conns N] [--drivers D]
//!              [--out FILE] [--shutdown]
//!                                 drive a serving fleet over real TCP:
//!                                 N pipelined connections from D driver
//!                                 threads (4 checked ops each), measured
//!                                 at N/8, N/4, N/2, N sessions; emits a
//!                                 BENCH_fleet.json trajectory (p50/p99
//!                                 latency, ops/sec)
//! ```
//!
//! Source files use the assembly syntax of `zarf_asm::parse`; binary files
//! are little-endian 32-bit words as produced by `zarf asm`.

use std::process::ExitCode;

use zarf::asm::{decode, disassemble, encode, hexdump, lift, lower, parse};
use zarf::core::machine::MProgram;
use zarf::core::step::Machine;
use zarf::core::{Evaluator, VecPorts};
use zarf::hw::{CostModel, Hw};
use zarf::trace::{FoldedStacks, InstrClass, MetricsSink, NdjsonSink, SharedSink};
use zarf::verify::annotated::check_annotated;
use zarf::verify::lints::lint;
use zarf::verify::wcet::{find_id, Wcet};

fn usage_text() -> &'static str {
    "usage: zarf <asm|run|dis|hex|wcet|lint|check|stats|trace|profile|vet> <file> [options]\n\
     \x20      zarf chaos [--seeds N] [--base-seed S] [--seconds F] [--faults N] [--policy P]\n\
     \x20      zarf snapshot <save|restore|audit> <file> [--out FILE] [--in …]\n\
     \x20      zarf serve [--listen ADDR] [--workers N] [--data-dir DIR] [--no-fsync]\n\
     \x20                 [--replicate-to ADDR] [--repl-lag-cap N]\n\
     \x20      zarf standby [--listen ADDR] --data-dir DIR [--no-fsync]\n\
     \x20      zarf migrate --from ADDR --to ADDR --session N\n\
     \x20      zarf store <fsck|gc> <DIR> [--json]\n\
     \x20      zarf loadgen --connect ADDR [--conns N] [--drivers D]\n\
     \x20                   [--out FILE] [--shutdown]\n\
     run options: --engine big|small|hw   --in PORT:v,v,…  (repeatable)\n\
     stats options: --profile (per-function cycle attribution)\n\
     trace options: --engine big|small|hw  --out FILE (default stdout)  --in …\n\
     profile options: --in PORT:v,v,…  --folded (flamegraph folded stacks)\n\
     wcet options: --fn NAME  --exclude NAME\n\
     vet options: --json  --model standalone|service  --symex  --risc (see `zarf vet --help`)\n\
     chaos options: --policy halt|restart|degrade|rollback (default restart)"
}

fn usage() -> ExitCode {
    eprintln!("{}", usage_text());
    ExitCode::from(2)
}

fn vet_help() {
    println!(
        "zarf vet <file.zf|file.zbin> [--json] [--model standalone|service] [--symex]\n\
         zarf vet --risc <file.zr|@monitor|@chanmon> [--json] [--mem N]\n\
         \n\
         Statically certify a program or binary. The report combines:\n\
         \x20 * shape/arity analysis — case-fault-freedom and arity-fault-\n\
         \x20   freedom certificates (possible machine faults are violations,\n\
         \x20   value faults like divide-by-zero are warnings)\n\
         \x20 * allocation bounds — worst-case heap words per call of each\n\
         \x20   function, composed into a whole-program bound (⊤ = unbounded)\n\
         \x20 * WCET — worst-case cycles of `main` when the program is\n\
         \x20   recursion-free\n\
         \x20 * binary integrity — the image must re-encode byte-identically\n\
         \x20 * lints — dead lets, duplicate patterns, unused parameters, …\n\
         \n\
         --model standalone   analyze from `main` only (default)\n\
         --model service      analyze every function as a fleet op target,\n\
         \x20                  arguments unknown (what verified-load checks)\n\
         --symex              decide each warning by symbolic execution:\n\
         \x20                  annotate it with a concrete replayable\n\
         \x20                  counterexample [witness=…], a [proved-spurious]\n\
         \x20                  proof, or a typed [undecided(…)]; unreachable-arm\n\
         \x20                  warnings refuted by a witness are dropped\n\
         --json               full machine-readable report on stdout\n\
         \n\
         --risc               certify an imperative-core RISC binary instead:\n\
         \x20                  CFG recovery (computed/irreducible control flow\n\
         \x20                  is a typed rejection), divide-by-zero freedom,\n\
         \x20                  memory-bounds freedom, port discipline, and a\n\
         \x20                  loop-bound-aware worst-case cycle bound.\n\
         \x20                  `@monitor` is the shipped ICD baseline image,\n\
         \x20                  `@chanmon` the channel monitor; a file is parsed\n\
         \x20                  as `zarf dis`-style RISC assembly (--mem N sets\n\
         \x20                  its data-memory words, default 128)\n\
         \n\
         The last line is always a one-line JSON verdict; the exit code is\n\
         nonzero when any violation was found."
    );
}

/// `zarf vet --risc`: the same certification contract pointed at the
/// imperative core — recover control flow from a raw RISC program,
/// run the interval×congruence fixpoint, and certify divide-by-zero
/// freedom, memory bounds, port discipline, and cycle bounds.
fn run_vet_risc(rest: &[String]) -> ExitCode {
    use zarf::verify::risc::certify;

    let path = match rest.iter().find(|a| !a.starts_with('-')) {
        Some(p) => p.as_str(),
        None => {
            eprintln!("zarf: vet --risc needs a <file.zr|@monitor|@chanmon> argument");
            return ExitCode::from(2);
        }
    };
    let json = rest.iter().any(|a| a == "--json");

    let (prog, spec) = match load_risc(path, rest) {
        Ok(x) => x,
        Err(e) => {
            eprintln!("zarf: {e}");
            return ExitCode::FAILURE;
        }
    };

    let report = match certify(&prog, &spec) {
        Ok(r) => r,
        Err(e) => {
            // A typed refusal (computed jump, irreducible flow, engine
            // divergence): certification cannot even start.
            if json {
                let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
                println!(
                    "{{\"file\":\"{}\",\"risc\":true,\"error\":\"{}\"}}",
                    esc(path),
                    esc(&e.to_string())
                );
            } else {
                println!("violation: {e}");
            }
            println!("{{\"verdict\":\"fail\",\"violations\":1,\"warnings\":0}}");
            return ExitCode::FAILURE;
        }
    };

    if json {
        println!("{}", report.to_json(path));
    } else {
        print!("{}", report.human());
    }
    let verdict = if report.certified() { "pass" } else { "fail" };
    println!(
        "{{\"verdict\":\"{verdict}\",\"violations\":{},\"warnings\":{}}}",
        report.violations.len(),
        report.dead_blocks.len()
    );
    if report.certified() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Resolve a `vet --risc` target: a shipped image by pseudo-path, or a
/// RISC assembly file in the `zarf_imperative::disasm` grammar.
fn load_risc(
    path: &str,
    opts: &[String],
) -> Result<(Vec<zarf::imperative::Instr>, zarf::verify::risc::RiscSpec), String> {
    use zarf::verify::risc::RiscSpec;

    match path {
        "@monitor" => {
            use zarf::kernel::baseline::{baseline_program, BASELINE_MEM_WORDS};
            use zarf::kernel::program::{PORT_BOOT, PORT_ECG, PORT_PACE, PORT_TIMER};
            let spec = RiscSpec::new(BASELINE_MEM_WORDS)
                .with_ports([PORT_BOOT, PORT_TIMER, PORT_PACE, PORT_ECG]);
            Ok((baseline_program(), spec))
        }
        "@chanmon" => {
            use zarf::imperative::{CHANNEL_PORT, CHANNEL_STATUS_PORT};
            use zarf::kernel::devices::{PORT_CMD, PORT_CMD_STATUS, PORT_RESP};
            use zarf::kernel::monitor::monitor_program;
            // 64 scratch words, matching `monitor_cpu`.
            let spec = RiscSpec::new(64).with_ports([
                CHANNEL_STATUS_PORT,
                CHANNEL_PORT,
                PORT_CMD_STATUS,
                PORT_CMD,
                PORT_RESP,
            ]);
            Ok((monitor_program(), spec))
        }
        _ => {
            let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
            let prog = zarf::imperative::parse_program(&src).map_err(|e| format!("{path}: {e}"))?;
            let mem = match flag_value(opts, "--mem") {
                Some(s) => s
                    .parse::<usize>()
                    .map_err(|_| format!("bad --mem value `{s}`"))?,
                None => 128,
            };
            Ok((prog, RiscSpec::new(mem)))
        }
    }
}

/// `zarf vet`: one static-certification report over a program or binary —
/// the abstract-interpretation certificates (shape/arity fault freedom,
/// allocation bounds), WCET, binary integrity, and lints. Violations are
/// findings that void a machine-fault-freedom certificate; everything
/// else is a warning. Exit code is nonzero on any violation.
fn run_vet(rest: &[String]) -> ExitCode {
    use zarf::verify::{analyze_alloc, analyze_shapes, Bound, EntryModel};

    if rest.iter().any(|a| a == "--help" || a == "-h") {
        vet_help();
        return ExitCode::SUCCESS;
    }
    if rest.iter().any(|a| a == "--risc") {
        return run_vet_risc(rest);
    }
    let path = match rest.first() {
        Some(p) if !p.starts_with('-') => p.as_str(),
        _ => {
            eprintln!("zarf: vet needs a <file.zf|file.zbin> argument (try `zarf vet --help`)");
            return ExitCode::from(2);
        }
    };
    let opts = &rest[1..];
    let json = opts.iter().any(|a| a == "--json");
    let symex_on = opts.iter().any(|a| a == "--symex");
    let model = match flag_value(opts, "--model").as_deref() {
        None | Some("standalone") => EntryModel::Standalone,
        Some("service") => EntryModel::Service,
        Some(other) => {
            eprintln!("zarf: unknown model `{other}` (standalone|service)");
            return ExitCode::from(2);
        }
    };

    let mut violations: Vec<String> = Vec::new();
    let mut warnings: Vec<String> = Vec::new();

    let machine = match load_machine(path) {
        Ok(m) => m,
        Err(e) => {
            eprintln!("zarf: {e}");
            return ExitCode::FAILURE;
        }
    };
    let label = |id: u32| -> String {
        machine
            .lookup(id)
            .and_then(|it| it.name.clone())
            .unwrap_or_else(|| format!("g_{id:x}"))
    };

    // Binary integrity: the image must survive an encode/decode round trip
    // byte-identically (for `.zbin` input, against the file's own words).
    let words = match encode(&machine) {
        Ok(w) => w,
        Err(e) => {
            eprintln!("zarf: {path}: {e}");
            return ExitCode::FAILURE;
        }
    };
    match decode(&words) {
        Ok(_) => {}
        Err(e) => violations.push(format!("integrity: re-decode failed: {e}")),
    }

    // Shape/arity certificates under the chosen entry model.
    let shapes = match analyze_shapes(&machine, model) {
        Ok(r) => r,
        Err(e) => {
            // The engine's iteration bound is part of the soundness story:
            // not converging voids every certificate.
            violations.push(format!("shape analysis did not converge: {e}"));
            println!("violation: shape analysis did not converge");
            println!("{{\"verdict\":\"fail\",\"violations\":1,\"warnings\":0}}");
            return ExitCode::FAILURE;
        }
    };
    // Decide the warnings symbolically before rendering them, so each
    // line carries its verdict: a replayable counterexample, a
    // spuriousness proof, or a typed "undecided".
    let symex_report = if symex_on {
        use zarf::verify::queries::warning_queries;
        let queries = warning_queries(&machine, &shapes);
        Some(zarf::symex::decide(
            &machine,
            &shapes,
            &queries,
            zarf::symex::SymexBudget::default(),
        ))
    } else {
        None
    };
    let verdict_of = |function: u32, kind: zarf::verify::queries::QueryKind| {
        symex_report.as_ref().and_then(|r| {
            r.verdicts
                .iter()
                .find(|v| v.query.function == function && v.query.kind == kind)
        })
    };

    for (id, f) in shapes.faults() {
        let line = format!("{}: may fault: {f}", label(id));
        if f.is_case_fault() || f.is_arity_fault() {
            violations.push(line);
        } else {
            match verdict_of(id, zarf::verify::queries::QueryKind::ValueFault(f)) {
                Some(v) => warnings.push(format!("{line} [{}]", v.status)),
                None => warnings.push(line),
            }
        }
    }
    for arm in &shapes.unreachable_arms {
        let pat = match arm.pattern {
            zarf::core::machine::MPattern::Lit(n) => n.to_string(),
            zarf::core::machine::MPattern::Con(id) => format!("con {id:#x}"),
        };
        let line = format!(
            "{}: case {} arm {} (`{pat}`) is unreachable",
            label(arm.function),
            arm.case_index,
            arm.arm_index,
        );
        let kind = zarf::verify::queries::QueryKind::UnreachableArm {
            case_index: arm.case_index,
            arm_index: arm.arm_index,
        };
        match verdict_of(arm.function, kind) {
            // A witness reaching the arm refutes the dead-code claim:
            // the warning was spurious, so it is dropped outright.
            Some(v) if v.discharges() => {}
            Some(v) => warnings.push(format!("{line} [{}]", v.status)),
            None => warnings.push(line),
        }
    }

    // Allocation bounds. ⊤ is not a violation — unbounded recursion is
    // legal standalone — but it is what bars an item from verified ops.
    let alloc = match analyze_alloc(&machine) {
        Ok(r) => r,
        Err(e) => {
            violations.push(format!("allocation analysis did not converge: {e}"));
            println!("violation: allocation analysis did not converge");
            println!("{{\"verdict\":\"fail\",\"violations\":1,\"warnings\":0}}");
            return ExitCode::FAILURE;
        }
    };
    let program_bound = alloc.program_bound();

    // WCET of `main` (finite only for recursion-free programs).
    let cost = CostModel::default();
    let wcet_cycles = Wcet::new(&machine, &cost)
        .analyze(0x100)
        .map(|r| r.cycles)
        .ok();

    // Lints over the lifted AST.
    let lint_findings = match lift(&machine) {
        Ok(program) => lint(&program),
        Err(e) => {
            violations.push(format!("integrity: lift failed: {e}"));
            Vec::new()
        }
    };
    for l in &lint_findings {
        warnings.push(format!("lint: {l}"));
    }

    let fun_lines: Vec<(u32, String, String, String)> = shapes
        .functions
        .iter()
        .map(|(&id, shape)| {
            let nargs = machine.lookup(id).map(|it| it.arity).unwrap_or(0);
            let faults = if shape.faults.is_empty() {
                "fault-free".to_string()
            } else {
                shape
                    .faults
                    .iter()
                    .map(|f| f.to_string())
                    .collect::<Vec<_>>()
                    .join(", ")
            };
            (
                id,
                label(id),
                faults,
                alloc.per_call_bound(id, nargs).to_string(),
            )
        })
        .collect();

    if json {
        let esc = |s: &str| s.replace('\\', "\\\\").replace('"', "\\\"");
        let list = |xs: &[String]| {
            xs.iter()
                .map(|x| format!("\"{}\"", esc(x)))
                .collect::<Vec<_>>()
                .join(",")
        };
        let funs = fun_lines
            .iter()
            .map(|(id, name, faults, bound)| {
                format!(
                    "{{\"id\":{id},\"name\":\"{}\",\"faults\":\"{}\",\"alloc_bound\":\"{}\"}}",
                    esc(name),
                    esc(faults),
                    esc(bound)
                )
            })
            .collect::<Vec<_>>()
            .join(",");
        let symex_json = symex_report.as_ref().map_or(String::new(), |r| {
            format!(
                ",\"symex\":{{\"witnesses\":{},\"discharged\":{},\"undecided\":{},\
                 \"pool\":{},\"paths\":{},\"steps\":{},\"terms\":{},\
                 \"summary_hits\":{},\"summary_misses\":{},\
                 \"prune_checks\":{},\"pruned\":{}}}",
                r.witnesses(),
                r.discharged(),
                r.undecided(),
                r.stats.pool,
                r.stats.paths,
                r.stats.steps,
                r.stats.terms,
                r.stats.summary_hits,
                r.stats.summary_misses,
                r.stats.prune_checks,
                r.stats.pruned,
            )
        });
        println!(
            "{{\"file\":\"{}\",\"model\":\"{:?}\",\"functions\":[{funs}],\
             \"violations\":[{}],\"warnings\":[{}],\
             \"case_fault_free\":{},\"arity_fault_free\":{},\
             \"program_alloc_bound\":{},\"wcet_cycles\":{},\
             \"iterations\":{},\"iteration_bound\":{}{symex_json}}}",
            esc(path),
            model,
            list(&violations),
            list(&warnings),
            shapes.case_fault_free(),
            shapes.arity_fault_free(),
            match program_bound {
                Bound::Finite(n) => n.to_string(),
                Bound::Top => "null".to_string(),
            },
            wcet_cycles.map_or("null".to_string(), |c| c.to_string()),
            shapes.iterations,
            shapes.iteration_bound,
        );
    } else {
        println!("vet report for {path} ({:?} model)", model);
        for (id, name, faults, bound) in &fun_lines {
            println!("  fn {id:#x} {name:<20} {faults:<28} alloc/call <= {bound}");
        }
        println!(
            "certificates: case-fault-free={} arity-fault-free={}",
            shapes.case_fault_free(),
            shapes.arity_fault_free()
        );
        println!("program allocation bound: {program_bound} words");
        match wcet_cycles {
            Some(c) => println!("wcet(main): {c} cycles"),
            None => println!("wcet(main): unbounded (recursion)"),
        }
        for v in &violations {
            println!("violation: {v}");
        }
        for w in &warnings {
            println!("warning: {w}");
        }
    }
    // Machine-readable verdict, always the last line of output.
    let symex_verdict = symex_report.as_ref().map_or(String::new(), |r| {
        format!(
            ",\"witnesses\":{},\"discharged\":{},\"undecided\":{}",
            r.witnesses(),
            r.discharged(),
            r.undecided()
        )
    });
    println!(
        "{{\"verdict\":\"{}\",\"violations\":{},\"warnings\":{}{symex_verdict}}}",
        if violations.is_empty() {
            "pass"
        } else {
            "fail"
        },
        violations.len(),
        warnings.len()
    );
    if violations.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Seeded fault-injection soak over the full two-layer ICD system. Every
/// seed is run twice; the replay must reproduce the same outcome, the same
/// injected-fault log, and the same pacing stream, or the soak fails.
fn run_chaos(rest: &[String]) -> ExitCode {
    use zarf::chaos::{FaultPlan, InjectedFault, PlanShape};
    use zarf::core::Int;
    use zarf::icd::consts::SAMPLE_HZ;
    use zarf::icd::signal::{EcgConfig, EcgGen, Rhythm};
    use zarf::kernel::{RecoveryPolicy, SupervisedOutcome, System, WatchdogConfig};

    let parsed = (|| -> Result<(u32, u64, f64, usize, RecoveryPolicy), String> {
        let seeds: u32 = match flag_value(rest, "--seeds") {
            Some(v) => v.parse().map_err(|_| format!("bad --seeds `{v}`"))?,
            None => 25,
        };
        let base_seed: u64 = match flag_value(rest, "--base-seed") {
            Some(v) => v.parse().map_err(|_| format!("bad --base-seed `{v}`"))?,
            None => 1,
        };
        let seconds: f64 = match flag_value(rest, "--seconds") {
            Some(v) => v.parse().map_err(|_| format!("bad --seconds `{v}`"))?,
            None => 2.0,
        };
        let faults: usize = match flag_value(rest, "--faults") {
            Some(v) => v.parse().map_err(|_| format!("bad --faults `{v}`"))?,
            None => 8,
        };
        let policy = match flag_value(rest, "--policy").as_deref() {
            None | Some("restart") => RecoveryPolicy::RestartCoroutine,
            Some("halt") => RecoveryPolicy::Halt,
            Some("degrade") => RecoveryPolicy::DegradeToMonitorOnly,
            Some("rollback") => RecoveryPolicy::RollbackToCheckpoint {
                interval: 8,
                max_rollbacks: 4,
            },
            Some(other) => return Err(format!("unknown policy `{other}`")),
        };
        Ok((seeds, base_seed, seconds, faults, policy))
    })();
    let (seeds, base_seed, seconds, faults, policy) = match parsed {
        Ok(p) => p,
        Err(e) => {
            eprintln!("zarf: {e}");
            return ExitCode::from(2);
        }
    };

    let samples = {
        let cfg = EcgConfig {
            noise: 0,
            ..EcgConfig::default()
        };
        let mut g = EcgGen::new(
            cfg,
            vec![Rhythm::Steady {
                bpm: 190.0,
                seconds,
            }],
        );
        g.take((seconds * SAMPLE_HZ as f64) as usize)
    };

    // (outcome name, injected faults, pace stream, detections, restarts,
    // rollbacks)
    type ChaosRun = (String, Vec<InjectedFault>, Vec<Int>, usize, u32, u32);
    let one_run = |seed: u64| -> Result<ChaosRun, String> {
        let mut sys = System::new(samples.clone()).map_err(|e| e.to_string())?;
        let shape = PlanShape::for_iterations(samples.len() as u64);
        let chaos = sys.enable_chaos(FaultPlan::seeded(seed, &shape, faults));
        let outcome = sys.run_supervised(WatchdogConfig {
            policy,
            ..WatchdogConfig::default()
        });
        let pace = match &outcome {
            SupervisedOutcome::Completed(r) => r.system.pace_log.clone(),
            SupervisedOutcome::Degraded(r) | SupervisedOutcome::Halted(r) => r.pace_log.clone(),
        };
        let (detections, restarts, rollbacks) = match &outcome {
            SupervisedOutcome::Completed(r) => (r.detections.len(), r.restarts, r.rollbacks),
            SupervisedOutcome::Degraded(r) | SupervisedOutcome::Halted(r) => {
                (r.detections.len(), r.restarts, r.rollbacks)
            }
        };
        Ok((
            outcome.name().to_string(),
            chaos.injected(),
            pace,
            detections,
            restarts,
            rollbacks,
        ))
    };

    let mut nondeterministic = 0u32;
    let mut completed = 0u32;
    for k in 0..seeds {
        let seed = base_seed.wrapping_add(k as u64);
        let (a, b) = match (one_run(seed), one_run(seed)) {
            (Ok(a), Ok(b)) => (a, b),
            (Err(e), _) | (_, Err(e)) => {
                eprintln!("zarf: seed {seed}: {e}");
                return ExitCode::FAILURE;
            }
        };
        let deterministic = a == b;
        if !deterministic {
            nondeterministic += 1;
        }
        if a.0 == "completed" {
            completed += 1;
        }
        println!(
            "seed {seed:>6}: {:<9} {:>3} fault(s) injected, {:>3} detection(s), {:>2} restart(s), {:>2} rollback(s){}",
            a.0,
            a.1.len(),
            a.3,
            a.4,
            a.5,
            if deterministic {
                ""
            } else {
                "  REPLAY MISMATCH"
            }
        );
    }
    // Machine-readable verdict, always the last line of output.
    println!(
        "{{\"verdict\":\"{}\",\"seeds\":{seeds},\"completed\":{completed},\"mismatches\":{nondeterministic}}}",
        if nondeterministic > 0 { "fail" } else { "pass" }
    );
    if nondeterministic > 0 {
        ExitCode::FAILURE
    } else {
        ExitCode::SUCCESS
    }
}

/// `zarf snapshot save|restore|audit`: capture, revive, and verify
/// machine snapshots on disk.
fn run_snapshot(rest: &[String]) -> ExitCode {
    use zarf::hw::{HwConfig, MachineSnapshot};

    let result = (|| -> Result<(), String> {
        let (sub, path) = match (rest.first(), rest.get(1)) {
            (Some(s), Some(p)) => (s.as_str(), p.as_str()),
            _ => return Err("snapshot needs <save|restore|audit> <file>".into()),
        };
        let opts = &rest[2..];
        match sub {
            "save" => {
                let machine = load_machine(path)?;
                let mut ports = parse_inputs(opts)?;
                let mut hw = Hw::from_machine(&machine).map_err(|e| e.to_string())?;
                let v = hw.run(&mut ports).map_err(|e| e.to_string())?;
                // Keep the result alive as root 0 so `restore` can print
                // it — and so the snapshot has something worth keeping.
                hw.push_root(v);
                let snap = MachineSnapshot::capture(&hw).map_err(|e| e.to_string())?;
                let bytes = snap.to_bytes().map_err(|e| e.to_string())?;
                let out = flag_value(opts, "--out").unwrap_or_else(|| {
                    path.strip_suffix(".zf")
                        .or_else(|| path.strip_suffix(".zbin"))
                        .map(|s| format!("{s}.zsnp"))
                        .unwrap_or_else(|| format!("{path}.zsnp"))
                });
                std::fs::write(&out, &bytes).map_err(|e| format!("{out}: {e}"))?;
                println!(
                    "{out}: {} byte(s), {} object(s), {} root(s)",
                    bytes.len(),
                    snap.objects.len(),
                    snap.roots.len()
                );
                Ok(())
            }
            "restore" => {
                let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
                let snap = MachineSnapshot::from_bytes(&bytes).map_err(|e| e.to_string())?;
                let mut hw = snap.to_hw(HwConfig::default()).map_err(|e| e.to_string())?;
                let mut ports = parse_inputs(opts)?;
                if snap.roots.is_empty() {
                    println!("restored: {} object(s), no roots", snap.objects.len());
                } else {
                    let root = hw.root(0);
                    let dv = hw.deep_value(root, &mut ports).map_err(|e| e.to_string())?;
                    println!("restored root: {dv}");
                }
                Ok(())
            }
            "audit" => {
                let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
                let verdict = MachineSnapshot::from_bytes(&bytes)
                    .and_then(|snap| snap.audit_self_contained());
                match verdict {
                    Ok(report) => {
                        println!(
                            "{{\"verdict\":\"ok\",\"objects\":{},\"words\":{},\"reachable\":{}}}",
                            report.objects, report.words, report.reachable
                        );
                        Ok(())
                    }
                    Err(e) => Err(format!(
                        "{{\"verdict\":\"corrupt\",\"kind\":\"{}\",\"error\":\"{e}\"}}",
                        e.kind()
                    )),
                }
            }
            other => Err(format!("unknown snapshot subcommand `{other}`")),
        }
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zarf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `zarf serve`: run a fleet and answer `ZFLT` requests over TCP until a
/// client sends `Shutdown`. With `--data-dir DIR` every slice commit is
/// written through a durable content-addressed chunk store, and a
/// restarted server recovers every committed session from disk. With
/// `--replicate-to ADDR` every commit is additionally streamed to a
/// standby (`zarf standby`) over `ZREP`; if the standby falls more than
/// `--repl-lag-cap` commits behind, new injects are shed typed rather
/// than silently widening the failover loss window.
fn run_serve(rest: &[String]) -> ExitCode {
    use zarf::fleet::{serve, Fleet, FleetConfig, ReplSink, ReplicatorConfig, RetryPolicy};
    use zarf::store::{Store, StoreConfig};

    let result = (|| -> Result<(), String> {
        let addr = flag_value(rest, "--listen").unwrap_or_else(|| "127.0.0.1:7070".into());
        let workers: usize = match flag_value(rest, "--workers") {
            Some(v) => v.parse().map_err(|_| format!("bad --workers `{v}`"))?,
            None => 4,
        };
        let store = match flag_value(rest, "--data-dir") {
            Some(dir) => {
                let cfg = StoreConfig {
                    fsync: !rest.iter().any(|a| a == "--no-fsync"),
                    ..StoreConfig::default()
                };
                let store = Store::open(std::path::Path::new(&dir), cfg)
                    .map_err(|e| format!("open store {dir}: {e}"))?;
                let recovered = store.sessions().len();
                if recovered > 0 {
                    eprintln!("zarf-fleet: recovered {recovered} committed session(s) from {dir}");
                }
                Some(std::sync::Arc::new(store))
            }
            None => None,
        };
        let repl_target = flag_value(rest, "--replicate-to");
        let lag_cap: u64 = match flag_value(rest, "--repl-lag-cap") {
            Some(v) => v.parse().map_err(|_| format!("bad --repl-lag-cap `{v}`"))?,
            None => 64,
        };
        if repl_target.is_some() && store.is_none() {
            return Err(
                "--replicate-to requires --data-dir (replication ships the durable store)".into(),
            );
        }
        let sink = repl_target.as_ref().map(|_| ReplSink::new(lag_cap));
        let listener =
            std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        let fleet = Fleet::start(FleetConfig {
            workers,
            store: store.clone(),
            repl: sink.clone(),
            ..FleetConfig::default()
        })
        .map_err(|e| e.to_string())?;
        let pump = match (&repl_target, &sink, &store) {
            (Some(target), Some(sink), Some(store)) => {
                eprintln!("zarf-fleet: replicating to {target} (lag cap {lag_cap})");
                Some(
                    zarf::fleet::spawn_replicator(
                        store.clone(),
                        sink.clone(),
                        ReplicatorConfig {
                            target: target.clone(),
                            policy: RetryPolicy::default(),
                            chaos: None,
                        },
                    )
                    .map_err(|e| e.to_string())?,
                )
            }
            _ => None,
        };
        eprintln!("zarf-fleet: serving ZFLT on {local} with {workers} worker(s)");
        serve(listener, fleet.handle()).map_err(|e| e.to_string())?;
        let stats = fleet.shutdown();
        if let Some(sink) = &sink {
            sink.shutdown();
        }
        if let Some(pump) = pump {
            let _ = pump.join();
        }
        let pairs: Vec<String> = stats
            .pairs()
            .iter()
            .map(|(k, v)| format!("\"{k}\":{v}"))
            .collect();
        println!("{{{}}}", pairs.join(","));
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zarf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `zarf standby`: receive a primary's `ZREP` replication stream into a
/// local data dir. Every chunk is re-hashed on arrival and every commit
/// is reassembled, hash-verified, and structurally audited before it is
/// acknowledged, so the directory is at all times a valid fleet store:
/// promotion after the primary dies is just `zarf serve --data-dir DIR`
/// over it, and every acknowledged session resumes byte-identically.
fn run_standby(rest: &[String]) -> ExitCode {
    use zarf::fleet::serve_repl;
    use zarf::store::{Store, StoreConfig};

    let result = (|| -> Result<(), String> {
        let addr = flag_value(rest, "--listen").unwrap_or_else(|| "127.0.0.1:7080".into());
        let dir = flag_value(rest, "--data-dir")
            .ok_or_else(|| "zarf standby requires --data-dir DIR".to_string())?;
        let cfg = StoreConfig {
            fsync: !rest.iter().any(|a| a == "--no-fsync"),
            ..StoreConfig::default()
        };
        let store = Store::open(std::path::Path::new(&dir), cfg)
            .map_err(|e| format!("open store {dir}: {e}"))?;
        let held = store.sessions().len();
        if held > 0 {
            eprintln!("zarf-standby: holding {held} committed session(s) from {dir}");
        }
        let listener =
            std::net::TcpListener::bind(&addr).map_err(|e| format!("bind {addr}: {e}"))?;
        let local = listener
            .local_addr()
            .map_err(|e| e.to_string())?
            .to_string();
        eprintln!("zarf-standby: serving ZREP on {local} into {dir}");
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let stats =
            serve_repl(listener, std::sync::Arc::new(store), stop).map_err(|e| e.to_string())?;
        println!(
            "{{\"commits\":{},\"chunks\":{},\"bytes\":{},\"closes\":{},\"rejects\":{}}}",
            stats.commits, stats.chunks, stats.bytes, stats.closes, stats.rejects
        );
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zarf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `zarf migrate`: move one live session between serving fleets with
/// exactly-once cutover. `--from` is the source fleet's `ZFLT` address;
/// `--to` is the destination's `ZREP` (standby) listener. The source
/// quiesces the session at a slice boundary, the destination receives
/// only the chunks it is missing and verifies the snapshot end-to-end,
/// and only after its acknowledgement does the source retire its copy —
/// any earlier failure resumes the session on the source.
fn run_migrate(rest: &[String]) -> ExitCode {
    use zarf::fleet::{migrate_session, RetryPolicy};

    let result = (|| -> Result<(), String> {
        let from = flag_value(rest, "--from")
            .ok_or_else(|| "zarf migrate requires --from ADDR".to_string())?;
        let to = flag_value(rest, "--to")
            .ok_or_else(|| "zarf migrate requires --to ADDR".to_string())?;
        let session: u64 = match flag_value(rest, "--session") {
            Some(v) => v.parse().map_err(|_| format!("bad --session `{v}`"))?,
            None => return Err("zarf migrate requires --session N".into()),
        };
        let report = migrate_session(&from, &to, session, &RetryPolicy::default())
            .map_err(|e| e.to_string())?;
        eprintln!(
            "zarf-migrate: session {} moved at seq {} ({} chunk(s), {} byte(s) of {} on the wire)",
            report.session,
            report.commit_seq,
            report.chunks_shipped,
            report.bytes_shipped,
            report.snap_len
        );
        println!(
            "{{\"session\":{},\"commit_seq\":{},\"already\":{},\"chunks_shipped\":{},\"bytes_shipped\":{},\"snap_len\":{}}}",
            report.session,
            report.commit_seq,
            report.already,
            report.chunks_shipped,
            report.bytes_shipped,
            report.snap_len
        );
        Ok(())
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zarf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// `zarf store fsck|gc <DIR>`: offline maintenance of a fleet data dir.
/// `fsck` is a read-only sweep that verifies every chunk record, the
/// manifest, and the journal, and cross-checks each committed session's
/// chunk references; `gc` rewrites live chunks into a fresh segment and
/// drops everything unreferenced.
fn run_store(rest: &[String]) -> ExitCode {
    use zarf::store::{fsck, gc};

    let json = rest.iter().any(|a| a == "--json");
    let (verb, dir) = match (rest.first(), rest.get(1)) {
        (Some(v), Some(d)) if v == "fsck" || v == "gc" => (v.as_str(), std::path::Path::new(d)),
        _ => {
            eprintln!("usage: zarf store <fsck|gc> <DIR> [--json]");
            return ExitCode::from(2);
        }
    };
    match verb {
        "fsck" => match fsck(dir) {
            Ok(report) => {
                if json {
                    println!("{}", report.to_json());
                } else {
                    println!(
                        "zarf-store: {} session(s), {} record(s) in {} segment(s); \
                         {} torn tail(s), {} damaged segment(s), {} bad session(s), \
                         {} unreferenced chunk(s) ({} bytes)",
                        report.sessions,
                        report.records,
                        report.segments,
                        report.torn_segments,
                        report.damaged_segments.len(),
                        report.bad_sessions.len(),
                        report.unreferenced_chunks,
                        report.unreferenced_bytes
                    );
                    for (seg, offset, reason) in &report.damaged_segments {
                        println!("  damaged segment {seg} at offset {offset}: {reason}");
                    }
                    for (id, reason) in &report.bad_sessions {
                        println!("  bad session {id}: {reason}");
                    }
                }
                if report.clean() {
                    ExitCode::SUCCESS
                } else {
                    ExitCode::FAILURE
                }
            }
            Err(e) => {
                eprintln!("zarf: fsck: {e}");
                ExitCode::FAILURE
            }
        },
        _ => match gc(dir) {
            Ok(report) => {
                if json {
                    println!("{}", report.to_json());
                } else {
                    println!(
                        "zarf-store: kept {} live chunk(s) ({} bytes), dropped {} \
                         ({} bytes reclaimed), {} segment(s) -> {}",
                        report.live_chunks,
                        report.live_bytes,
                        report.dropped_chunks,
                        report.reclaimed_bytes,
                        report.segments_before,
                        report.segments_after
                    );
                }
                ExitCode::SUCCESS
            }
            Err(e) => {
                eprintln!("zarf: gc: {e}");
                ExitCode::FAILURE
            }
        },
    }
}

/// `zarf loadgen --connect ADDR`: drive a *serving* fleet over real TCP
/// with pipelined nonblocking connections and emit a `BENCH_fleet.json`
/// scaling trajectory. A wrong sum from the checked workload fails the run.
fn run_loadgen(rest: &[String]) -> ExitCode {
    use zarf::fleet::LoadgenConfig;

    let Some(addr) = flag_value(rest, "--connect") else {
        eprintln!("zarf: loadgen needs --connect ADDR (a `zarf serve` address)");
        return usage();
    };
    let result = (|| -> Result<(), String> {
        let mut cfg = LoadgenConfig {
            addr,
            ..LoadgenConfig::default()
        };
        if let Some(v) = flag_value(rest, "--conns") {
            cfg.conns = v.parse().map_err(|_| format!("bad --conns `{v}`"))?;
        }
        if let Some(v) = flag_value(rest, "--drivers") {
            cfg.drivers = v.parse().map_err(|_| format!("bad --drivers `{v}`"))?;
        }
        cfg.shutdown = rest.iter().any(|a| a == "--shutdown");

        let report = zarf::fleet::run_loadgen(&cfg).map_err(|e| e.to_string())?;
        let json = report.to_json();
        if let Some(path) = flag_value(rest, "--out") {
            std::fs::write(&path, format!("{json}\n")).map_err(|e| format!("{path}: {e}"))?;
            eprintln!("zarf-loadgen: wrote {path}");
        }
        println!("{json}");
        for s in &report.steps {
            eprintln!(
                "zarf-loadgen: {} sessions  {:.0} ops/s  p50 {} µs  p99 {} µs  failures {}",
                s.sessions, s.ops_per_sec, s.p50_us, s.p99_us, s.failures
            );
        }
        if report.ok() {
            Ok(())
        } else {
            Err(
                "loadgen verification failed: at least one connection failed or returned a \
                 wrong sum"
                    .into(),
            )
        }
    })();
    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("zarf: {e}");
            ExitCode::FAILURE
        }
    }
}

/// Load a `.zf` source or `.zbin` binary into machine form. The shipped
/// images are addressable as pseudo-paths, so CI can vet exactly what the
/// build embeds: `@kernel` (the scheduler), `@session` (the kernel as a
/// fleet session shell), `@icd` (the detection pipeline).
fn load_machine(path: &str) -> Result<MProgram, String> {
    match path {
        "@kernel" => return Ok(zarf::kernel::program::kernel_machine()),
        "@session" => return Ok(zarf::kernel::session::session_machine()),
        "@icd" => return Ok(zarf::icd::extract::icd_machine()),
        _ => {}
    }
    if path.ends_with(".zbin") {
        let bytes = std::fs::read(path).map_err(|e| format!("{path}: {e}"))?;
        if bytes.len() % 4 != 0 {
            return Err(format!("{path}: not a whole number of 32-bit words"));
        }
        let words: Vec<u32> = bytes
            .chunks_exact(4)
            .map(|c| u32::from_le_bytes([c[0], c[1], c[2], c[3]]))
            .collect();
        decode(&words).map_err(|e| format!("{path}: {e}"))
    } else {
        let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
        let program = parse(&src).map_err(|e| format!("{path}: {e}"))?;
        lower(&program).map_err(|e| format!("{path}: {e}"))
    }
}

fn parse_inputs(args: &[String]) -> Result<VecPorts, String> {
    let mut ports = VecPorts::new();
    let mut i = 0;
    while i < args.len() {
        if args[i] == "--in" {
            let spec = args.get(i + 1).ok_or("--in needs PORT:v,v,…")?;
            let (port, vals) = spec.split_once(':').ok_or("--in needs PORT:v,v,…")?;
            let port: i32 = port.parse().map_err(|_| format!("bad port `{port}`"))?;
            let vals = vals
                .split(',')
                .filter(|v| !v.is_empty())
                .map(|v| v.parse::<i32>().map_err(|_| format!("bad value `{v}`")))
                .collect::<Result<Vec<_>, _>>()?;
            ports.push_input(port, vals);
            i += 2;
        } else {
            i += 1;
        }
    }
    Ok(ports)
}

fn flag_value(args: &[String], flag: &str) -> Option<String> {
    args.iter()
        .position(|a| a == flag)
        .and_then(|i| args.get(i + 1).cloned())
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    // Flag-only invocations are answered directly, never treated as a
    // command + file pair.
    match args.first().map(String::as_str) {
        None => return usage(),
        Some("--help") | Some("-h") | Some("help") => {
            println!("{}", usage_text());
            return ExitCode::SUCCESS;
        }
        Some("--version") | Some("-V") => {
            println!("zarf {}", env!("CARGO_PKG_VERSION"));
            return ExitCode::SUCCESS;
        }
        Some(flag) if flag.starts_with('-') => {
            eprintln!("zarf: unknown flag `{flag}`");
            return usage();
        }
        _ => {}
    }
    // `vet` has its own option parsing and per-subcommand help.
    if args.first().map(String::as_str) == Some("vet") {
        return run_vet(&args[1..]);
    }
    // `chaos` operates on the built-in ICD system, not on a program file.
    if args.first().map(String::as_str) == Some("chaos") {
        return run_chaos(&args[1..]);
    }
    // `snapshot` has a subcommand before the file argument.
    if args.first().map(String::as_str) == Some("snapshot") {
        return run_snapshot(&args[1..]);
    }
    // `serve` and `loadgen` operate on a fleet, not on a program file.
    if args.first().map(String::as_str) == Some("serve") {
        return run_serve(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("standby") {
        return run_standby(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("migrate") {
        return run_migrate(&args[1..]);
    }
    if args.first().map(String::as_str) == Some("loadgen") {
        return run_loadgen(&args[1..]);
    }
    // `store` operates on a fleet data directory.
    if args.first().map(String::as_str) == Some("store") {
        return run_store(&args[1..]);
    }
    let (cmd, path) = match (args.first(), args.get(1)) {
        (Some(c), Some(p)) => (c.as_str(), p.as_str()),
        _ => return usage(),
    };
    let rest = &args[2..];

    let result = (|| -> Result<(), String> {
        match cmd {
            "asm" => {
                let machine = load_machine(path)?;
                let words = encode(&machine).map_err(|e| e.to_string())?;
                let out = path
                    .strip_suffix(".zf")
                    .map(|s| format!("{s}.zbin"))
                    .unwrap_or_else(|| format!("{path}.zbin"));
                let bytes: Vec<u8> = words.iter().flat_map(|w| w.to_le_bytes()).collect();
                std::fs::write(&out, bytes).map_err(|e| format!("{out}: {e}"))?;
                println!("{out}: {} words", words.len());
                Ok(())
            }
            "dis" => {
                let machine = load_machine(path)?;
                print!("{}", disassemble(&machine));
                Ok(())
            }
            "hex" => {
                let machine = load_machine(path)?;
                let words = encode(&machine).map_err(|e| e.to_string())?;
                print!("{}", hexdump(&words));
                Ok(())
            }
            "run" => {
                let machine = load_machine(path)?;
                let mut ports = parse_inputs(rest)?;
                let engine = flag_value(rest, "--engine").unwrap_or_else(|| "hw".into());
                let value = match engine.as_str() {
                    "big" => {
                        let program = lift(&machine).map_err(|e| e.to_string())?;
                        let v = Evaluator::new(&program)
                            .run(&mut ports)
                            .map_err(|e| e.to_string())?;
                        format!("{v}")
                    }
                    "small" => {
                        let program = lift(&machine).map_err(|e| e.to_string())?;
                        let v = Machine::new(&program)
                            .run(&mut ports, u64::MAX)
                            .map_err(|e| e.to_string())?;
                        format!("{v}")
                    }
                    "hw" => {
                        let mut hw = Hw::from_machine(&machine).map_err(|e| e.to_string())?;
                        let v = hw.run(&mut ports).map_err(|e| e.to_string())?;
                        let dv = hw.deep_value(v, &mut ports).map_err(|e| e.to_string())?;
                        format!("{dv}")
                    }
                    other => return Err(format!("unknown engine `{other}`")),
                };
                println!("result: {value}");
                for port in ports.output_ports().collect::<Vec<_>>() {
                    println!("port {port} wrote: {:?}", ports.output(port));
                }
                Ok(())
            }
            "stats" => {
                let machine = load_machine(path)?;
                let profiling = rest.iter().any(|a| a == "--profile");
                let mut hw = Hw::from_machine_with(
                    &machine,
                    zarf::hw::HwConfig {
                        profile: profiling,
                        ..Default::default()
                    },
                )
                .map_err(|e| e.to_string())?;
                let mut ports = parse_inputs(rest)?;
                hw.run(&mut ports).map_err(|e| e.to_string())?;
                print!("{}", hw.stats());
                if profiling {
                    println!("\nper-function cycles (hottest first):");
                    for (id, name, cycles) in hw.profile() {
                        let label = name.unwrap_or_else(|| format!("g_{id:x}"));
                        println!("  {label:<24} {cycles:>12}");
                    }
                }
                Ok(())
            }
            "trace" => {
                let machine = load_machine(path)?;
                let mut ports = parse_inputs(rest)?;
                let out: Box<dyn std::io::Write> = match flag_value(rest, "--out") {
                    Some(p) => Box::new(std::io::BufWriter::new(
                        std::fs::File::create(&p).map_err(|e| format!("{p}: {e}"))?,
                    )),
                    None => Box::new(std::io::stdout().lock()),
                };
                let shared = SharedSink::new(NdjsonSink::new(out));
                let engine = flag_value(rest, "--engine").unwrap_or_else(|| "hw".into());
                match engine.as_str() {
                    "big" => {
                        let program = lift(&machine).map_err(|e| e.to_string())?;
                        let mut eval = Evaluator::new(&program);
                        eval.set_sink(Box::new(shared.clone()));
                        eval.run(&mut ports).map_err(|e| e.to_string())?;
                    }
                    "small" => {
                        let program = lift(&machine).map_err(|e| e.to_string())?;
                        let mut m = Machine::new(&program);
                        m.set_sink(Box::new(shared.clone()));
                        m.run(&mut ports, u64::MAX).map_err(|e| e.to_string())?;
                    }
                    "hw" => {
                        let mut hw = Hw::from_machine(&machine).map_err(|e| e.to_string())?;
                        hw.set_sink(Box::new(shared.clone()));
                        hw.run(&mut ports).map_err(|e| e.to_string())?;
                        hw.take_sink();
                    }
                    other => return Err(format!("unknown engine `{other}`")),
                }
                let sink = shared
                    .try_into_inner()
                    .map_err(|_| "internal: trace sink still shared")?;
                let lines = sink.lines();
                sink.finish().map_err(|e| e.to_string())?;
                eprintln!("{lines} event(s)");
                Ok(())
            }
            "profile" if rest.iter().any(|a| a == "--folded") => {
                let machine = load_machine(path)?;
                let mut ports = parse_inputs(rest)?;
                let mut hw = Hw::from_machine(&machine).map_err(|e| e.to_string())?;
                let shared = SharedSink::new(FoldedStacks::new());
                hw.set_sink(Box::new(shared.clone()));
                hw.run(&mut ports).map_err(|e| e.to_string())?;
                hw.take_sink();
                let folded = shared
                    .try_into_inner()
                    .map_err(|_| "internal: folded sink still shared")?;
                // One `frame;frame cycles` line per distinct stack — feed
                // this straight to inferno-flamegraph or speedscope.
                print!("{}", folded.render(&|id| hw.symbol(id)));
                eprintln!(
                    "{} stack(s), {} cycle(s)",
                    folded.stack_count(),
                    folded.total_cycles()
                );
                Ok(())
            }
            "profile" => {
                let machine = load_machine(path)?;
                let mut ports = parse_inputs(rest)?;
                let mut hw = Hw::from_machine(&machine).map_err(|e| e.to_string())?;
                let shared = SharedSink::new(MetricsSink::new());
                hw.set_sink(Box::new(shared.clone()));
                hw.run(&mut ports).map_err(|e| e.to_string())?;
                hw.take_sink();
                let m = shared
                    .try_into_inner()
                    .map_err(|_| "internal: metrics sink still shared")?;
                println!("instructions: {}", m.instructions());
                println!("mutator cycles: {}", m.mutator_cycles());
                for class in [
                    InstrClass::Let,
                    InstrClass::Case,
                    InstrClass::Result,
                    InstrClass::BranchHead,
                ] {
                    let (count, cycles) = m.class(class);
                    println!(
                        "  {:<12} {count:>10} instrs {cycles:>12} cycles",
                        class.name()
                    );
                }
                println!(
                    "heap: {} allocation(s), {} word(s)",
                    m.allocations, m.words_allocated
                );
                if m.heap_occupancy.count() > 0 {
                    println!("heap occupancy after allocation (words):");
                    print!("{}", m.heap_occupancy);
                }
                println!("gc: {} run(s), {} cycle(s)", m.gc_runs(), m.gc_cycles());
                if m.gc_runs() > 0 {
                    println!("gc pause distribution (cycles):");
                    print!("{}", m.gc_pauses);
                }
                let mut hot: Vec<(Option<u32>, u64)> =
                    m.item_cycles.iter().map(|(&id, &c)| (id, c)).collect();
                hot.sort_by_key(|&(_, cycles)| std::cmp::Reverse(cycles));
                println!("per-function cycles (hottest first):");
                for (id, cycles) in hot {
                    let label = match id {
                        Some(id) => hw.symbol(id).unwrap_or_else(|| format!("g_{id:x}")),
                        None => "(top level)".into(),
                    };
                    println!("  {label:<24} {cycles:>12}");
                }
                Ok(())
            }
            "check" => {
                let src = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
                match check_annotated(&src) {
                    Ok((program, _)) => {
                        println!(
                            "WELL-TYPED: {} function(s), {} constructor(s)",
                            program.functions().count(),
                            program.constructors().count()
                        );
                        Ok(())
                    }
                    Err(e) => Err(format!("REJECTED: {e}")),
                }
            }
            "lint" => {
                let machine = load_machine(path)?;
                let program = lift(&machine).map_err(|e| e.to_string())?;
                let findings = lint(&program);
                if findings.is_empty() {
                    println!("no findings");
                } else {
                    for l in &findings {
                        println!("warning: {l}");
                    }
                    println!("{} finding(s)", findings.len());
                }
                Ok(())
            }
            "wcet" => {
                let machine = load_machine(path)?;
                let cost = CostModel::default();
                let root = match flag_value(rest, "--fn") {
                    Some(name) => find_id(&machine, &name).ok_or(format!(
                        "no function named `{name}` (binaries keep no symbols)"
                    ))?,
                    None => 0x100,
                };
                let mut analysis =
                    Wcet::new(&machine, &cost).assume_lazy(rest.iter().any(|a| a == "--lazy"));
                if let Some(ex) = flag_value(rest, "--exclude") {
                    let id = find_id(&machine, &ex).ok_or(format!("no function named `{ex}`"))?;
                    analysis = analysis.exclude([id]);
                }
                let report = analysis.analyze(root).map_err(|e| e.to_string())?;
                println!("WCET of {root:#x}: {} cycles", report.cycles);
                println!(
                    "worst-case allocation: {} objects / {} words / {} refs",
                    report.alloc.objects, report.alloc.words, report.alloc.refs
                );
                let mut per: Vec<_> = report.per_function.into_iter().collect();
                per.sort();
                for (id, cycles) in per {
                    println!("  fn {id:#x}: <= {cycles} cycles");
                }
                Ok(())
            }
            _ => {
                usage();
                Err(String::new())
            }
        }
    })();

    match result {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            if !e.is_empty() {
                eprintln!("zarf: {e}");
            }
            ExitCode::FAILURE
        }
    }
}
