//! End-to-end witness validation: every witness `zarf-symex` emits must
//! replay on the reference interpreter to the *exact* warned fault code —
//! on hand-built programs covering each fault class (codes 2/3/4/5 are
//! the certificate breakers, 1/7 the value-fault warnings) and on the
//! three shipped images (`@kernel`, `@session`, `@icd`).

use zarf::asm::{lift, lower, parse};
use zarf::core::machine::MProgram;
use zarf::symex::{decide, replay_witness, Status, SymexBudget, SymexReport, SymexStats};
use zarf::verify::queries::{warning_queries, QueryKind, VetQuery};
use zarf::verify::shape::Fault;
use zarf::verify::{analyze_shapes, EntryModel};

fn machine(src: &str) -> MProgram {
    lower(&parse(src).unwrap()).unwrap()
}

fn by_name(m: &MProgram, n: &str) -> u32 {
    m.items()
        .iter()
        .position(|i| i.name.as_deref() == Some(n))
        .map(|i| m.id_of(i))
        .unwrap()
}

/// Decide the single fault query for `fun_name`/`fault` under the service
/// model and return the witness, asserting it replays to the exact code.
fn witnessed_code(src: &str, fun_name: &str, fault: Fault) -> Vec<i32> {
    let m = machine(src);
    let named = lift(&m).unwrap();
    let r = analyze_shapes(&m, EntryModel::Service).unwrap();
    let q = VetQuery {
        function: by_name(&m, fun_name),
        label: fun_name.to_string(),
        kind: QueryKind::ValueFault(fault),
    };
    let rep = decide(&m, &r, std::slice::from_ref(&q), SymexBudget::default());
    let v = rep.verdict_for(&q).expect("query decided");
    let spec = match &v.status {
        Status::Witnessed(spec) => spec,
        s => panic!("expected a witness for {fun_name}/{fault:?}, got {s:?}"),
    };
    let out = replay_witness(&named, spec).expect("witness replays");
    out.faults
}

/// Code 2: applying an integer. Input-gated — only a nonzero selector
/// routes the integer into application position.
#[test]
fn witness_fires_apply_to_int_code_2() {
    let src = "fun pick s =\n\
               \x20 case s of\n\
               \x20 | 0 => result 0\n\
               \x20 else let h = add 1 2 in\n\
               \x20 let x = h 9 in\n\
               \x20 result x\n\
               fun main =\n result 0\n";
    let fired = witnessed_code(src, "pick", Fault::ApplyToInt);
    assert!(fired.contains(&2), "expected code 2, got {fired:?}");
}

/// Code 3: applying a saturated constructor result.
#[test]
fn witness_fires_apply_to_con_code_3() {
    let src = "con Box v\n\
               fun poke s =\n\
               \x20 case s of\n\
               \x20 | 0 => result 0\n\
               \x20 else let b = Box 1 in\n\
               \x20 let x = b 2 in\n\
               \x20 result x\n\
               fun main =\n result 0\n";
    let fired = witnessed_code(src, "poke", Fault::ApplyToCon);
    assert!(fired.contains(&3), "expected code 3, got {fired:?}");
}

/// Code 4: casing on a closure, gated behind an input check.
#[test]
fn witness_fires_case_on_closure_code_4() {
    let src = "fun idf x =\n result x\n\
               fun route s =\n\
               \x20 case s of\n\
               \x20 | 0 => result 0\n\
               \x20 else let g = idf in\n\
               \x20 case g of\n\
               \x20 | 1 => result 1\n\
               \x20 else result 2\n\
               fun main =\n result 0\n";
    let fired = witnessed_code(src, "route", Fault::CaseOnClosure);
    assert!(fired.contains(&4), "expected code 4, got {fired:?}");
}

/// Code 5: over-applying a constructor.
#[test]
fn witness_fires_con_over_applied_code_5() {
    let src = "con Box v\n\
               fun stuff s =\n\
               \x20 case s of\n\
               \x20 | 0 => result 0\n\
               \x20 else let x = Box 1 2 in\n\
               \x20 result x\n\
               fun main =\n result 0\n";
    let fired = witnessed_code(src, "stuff", Fault::ConOverApplied);
    assert!(fired.contains(&5), "expected code 5, got {fired:?}");
}

/// A guarded division is proved spurious: the guard makes the fault
/// unreachable for *every* admissible input, and the envelope covers them
/// all, so the warning is discharged rather than witnessed.
#[test]
fn guarded_division_is_discharged() {
    let src = "fun safe p =\n\
               \x20 case p of\n\
               \x20 | 0 => result 0\n\
               \x20 else let x = div 100 p in\n\
               \x20 result x\n\
               fun main =\n result 0\n";
    let m = machine(src);
    let r = analyze_shapes(&m, EntryModel::Service).unwrap();
    let queries = warning_queries(&m, &r);
    let rep = decide(&m, &r, &queries, SymexBudget::default());
    let safe = rep
        .verdicts
        .iter()
        .find(|v| v.query.label == "safe" && matches!(v.query.kind, QueryKind::ValueFault(_)))
        .expect("safe has a value-fault warning to discharge");
    assert_eq!(safe.status, Status::Spurious, "{:?}", safe.status);
    assert!(rep.discharged() >= 1);
}

/// Decide all warnings of one shipped image under the service model and
/// validate every emitted witness by replay. Runs on a dedicated thread
/// with a large stack: the executor recurses once per `let` when inlining
/// the deep kernel step functions, which overflows the test harness's
/// default stack in unoptimized builds.
fn decide_image(m: &MProgram) -> SymexReport {
    let m = m.clone();
    std::thread::Builder::new()
        .stack_size(256 << 20)
        .spawn(move || decide_image_inner(&m))
        .expect("spawn analysis thread")
        .join()
        .expect("analysis thread completes")
}

fn decide_image_inner(m: &MProgram) -> SymexReport {
    let named = lift(m).expect("shipped images lift");
    let r = analyze_shapes(m, EntryModel::Service).unwrap();
    let queries = warning_queries(m, &r);
    let rep = decide(m, &r, &queries, SymexBudget::default());
    for v in &rep.verdicts {
        if let (QueryKind::ValueFault(f), Status::Witnessed(spec)) = (&v.query.kind, &v.status) {
            let out = replay_witness(&named, spec)
                .unwrap_or_else(|e| panic!("witness for {} must replay: {e}", v.query));
            assert!(
                out.fired(f.code()),
                "witness for {} must fire code {}: {:?}",
                v.query,
                f.code(),
                out
            );
        }
    }
    rep
}

/// The ICD image: its single value-fault warning gets a concrete witness,
/// nothing is left undecided, and the compositional summary cache is
/// demonstrably reused across call sites.
#[test]
fn icd_image_fully_decided_with_summary_reuse() {
    let rep = decide_image(&zarf::icd::extract::icd_machine());
    assert_eq!(rep.undecided(), 0, "{:?}", rep.verdicts);
    assert!(rep.witnesses() >= 1, "{:?}", rep.verdicts);
    assert!(
        rep.stats.summary_hits > 0,
        "summaries must be reused on the ICD image: {:?}",
        rep.stats
    );
}

/// The `kernel_run` value-fault warning of a kernel image: the envelope
/// proof must discharge it.
fn assert_kernel_run_spurious(rep: &SymexReport) {
    let v = rep
        .verdicts
        .iter()
        .find(|v| v.query.label == "kernel_run" && matches!(v.query.kind, QueryKind::ValueFault(_)))
        .expect("kernel_run has a value-fault warning");
    assert_eq!(v.status, Status::Spurious, "{:?}", v.status);
}

/// The kernel image: every emitted witness replays to its exact code, the
/// four step-function warnings are witnessed, `kernel_run` is proved
/// spurious, and the exploration is pinned count for count — any change to
/// how the executor forks or summarizes moves these numbers.
#[test]
fn kernel_image_witnesses_replay() {
    let rep = decide_image(&zarf::kernel::program::kernel_machine());
    assert_eq!(
        (rep.witnesses(), rep.discharged(), rep.undecided()),
        (4, 1, 0),
        "{:?}",
        rep.verdicts
    );
    assert_kernel_run_spurious(&rep);
    assert_eq!(
        rep.stats,
        SymexStats {
            queries: 5,
            paths: 26_487,
            steps: 988_397,
            terms: 308_865,
            summary_hits: 3_395,
            summary_misses: 45,
            pool: 4,
        }
    );
}

/// The session image likewise.
#[test]
fn session_image_witnesses_replay() {
    let rep = decide_image(&zarf::kernel::session::session_machine());
    assert_eq!(
        (rep.witnesses(), rep.discharged(), rep.undecided()),
        (4, 1, 0),
        "{:?}",
        rep.verdicts
    );
    assert_kernel_run_spurious(&rep);
    assert_eq!(
        rep.stats,
        SymexStats {
            queries: 5,
            paths: 32_016,
            steps: 1_161_771,
            terms: 365_317,
            summary_hits: 3_834,
            summary_misses: 59,
            pool: 5,
        }
    );
}
