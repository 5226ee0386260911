//! End-to-end tests of the `zarf` command-line driver.

use std::process::Command;

fn zarf(args: &[&str]) -> (bool, String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_zarf"))
        .args(args)
        .output()
        .expect("zarf binary runs");
    (
        out.status.success(),
        String::from_utf8_lossy(&out.stdout).into_owned(),
        String::from_utf8_lossy(&out.stderr).into_owned(),
    )
}

fn write_temp(name: &str, contents: &str) -> String {
    let path = std::env::temp_dir().join(format!("zarf_cli_test_{name}"));
    std::fs::write(&path, contents).unwrap();
    path.to_string_lossy().into_owned()
}

const PROG: &str = "fun main =\n  let a = getint 0 in\n  let b = mul a 6 in\n  let c = putint 1 b in\n  result c\n";

#[test]
fn asm_then_run_binary() {
    let src = write_temp("a.zf", PROG);
    let (ok, out, err) = zarf(&["asm", &src]);
    assert!(ok, "{err}");
    assert!(out.contains("words"));
    let bin = src.replace(".zf", ".zbin");
    let (ok, out, err) = zarf(&["run", &bin, "--in", "0:7"]);
    assert!(ok, "{err}");
    assert!(out.contains("result: 42"), "{out}");
    assert!(out.contains("port 1 wrote: [42]"), "{out}");
}

#[test]
fn run_engines_agree() {
    let src = write_temp("b.zf", PROG);
    for engine in ["big", "small", "hw"] {
        let (ok, out, err) = zarf(&["run", &src, "--engine", engine, "--in", "0:7"]);
        assert!(ok, "{engine}: {err}");
        assert!(out.contains("result: 42"), "{engine}: {out}");
    }
}

#[test]
fn dis_and_hex_render() {
    let src = write_temp("c.zf", PROG);
    let (ok, out, _) = zarf(&["dis", &src]);
    assert!(ok);
    assert!(out.contains("fun 0x100"));
    let (ok, out, _) = zarf(&["hex", &src]);
    assert!(ok);
    assert!(out.contains("magic"));
}

#[test]
fn wcet_reports_cycles() {
    let src = write_temp("d.zf", PROG);
    let (ok, out, _) = zarf(&["wcet", &src]);
    assert!(ok);
    assert!(out.contains("WCET of 0x100"), "{out}");
    let (ok2, out2, _) = zarf(&["wcet", &src, "--lazy"]);
    assert!(ok2);
    assert!(out2.contains("WCET of 0x100"));
}

#[test]
fn lint_flags_dead_code() {
    let src = write_temp("e.zf", "fun main =\n  let dead = add 1 2 in\n  result 0\n");
    let (ok, out, _) = zarf(&["lint", &src]);
    assert!(ok);
    assert!(out.contains("never used"), "{out}");
}

#[test]
fn check_accepts_and_rejects_annotated_sources() {
    let good = write_temp(
        "f.zfa",
        "port in 0 T\nport out 1 T\nfun main : num^T =\n  let t = getint 0 in\n  let w = putint 1 t in\n  result w\n",
    );
    let (ok, out, _) = zarf(&["check", &good]);
    assert!(ok);
    assert!(out.contains("WELL-TYPED"));

    let bad = write_temp(
        "g.zfa",
        "port in 9 U\nport out 1 T\nfun main : num^U =\n  let u = getint 9 in\n  let w = putint 1 u in\n  result w\n",
    );
    let (ok, _, err) = zarf(&["check", &bad]);
    assert!(!ok);
    assert!(err.contains("REJECTED"), "{err}");
}

#[test]
fn trace_emits_ndjson_on_every_engine() {
    let src = write_temp("h.zf", PROG);
    for engine in ["big", "small", "hw"] {
        let (ok, out, err) = zarf(&["trace", &src, "--engine", engine, "--in", "0:7"]);
        assert!(ok, "{engine}: {err}");
        assert!(err.contains("event(s)"), "{engine}: {err}");
        for line in out.lines() {
            assert!(
                line.starts_with("{\"ev\":\"") && line.ends_with('}'),
                "{engine}: not an NDJSON event line: {line}"
            );
        }
        assert!(out.lines().count() >= 4, "{engine}: too few events:\n{out}");
    }
    // The reference engines also record the bound values themselves.
    let (_, out, _) = zarf(&["trace", &src, "--engine", "big", "--in", "0:7"]);
    assert!(out.contains(r#""ev":"bind""#), "{out}");
    assert!(out.contains(r#""value":"42""#), "{out}");
}

#[test]
fn trace_writes_to_file_with_out_flag() {
    let src = write_temp("i.zf", PROG);
    let out_path = std::env::temp_dir().join("zarf_cli_test_i.ndjson");
    let (ok, stdout, err) = zarf(&[
        "trace",
        &src,
        "--in",
        "0:7",
        "--out",
        &out_path.to_string_lossy(),
    ]);
    assert!(ok, "{err}");
    assert!(stdout.is_empty());
    let contents = std::fs::read_to_string(&out_path).unwrap();
    assert!(
        contents.lines().all(|l| l.starts_with("{\"ev\":\"")),
        "{contents}"
    );
    assert!(contents.contains(r#""ev":"io_write""#), "{contents}");
}

#[test]
fn profile_prints_metrics_report() {
    let src = write_temp("j.zf", PROG);
    let (ok, out, err) = zarf(&["profile", &src, "--in", "0:7"]);
    assert!(ok, "{err}");
    assert!(out.contains("instructions: 4"), "{out}");
    assert!(out.contains("mutator cycles:"), "{out}");
    assert!(out.contains("per-function cycles"), "{out}");
    assert!(out.contains("main"), "{out}");
}

#[test]
fn bad_usage_exits_nonzero() {
    let (ok, _, err) = zarf(&[]);
    assert!(!ok);
    assert!(err.contains("usage"));
    let (ok, _, _) = zarf(&["frobnicate", "/nonexistent"]);
    assert!(!ok);
}

const FAULTY_PROG: &str = "fun f x =\n  result x\nfun main =\n  let g = f in\n  case g of\n  | 0 => result 1\n  else result 0\n";

#[test]
fn vet_passes_a_clean_program() {
    let src = write_temp("k.zf", PROG);
    let (ok, out, err) = zarf(&["vet", &src]);
    assert!(ok, "{err}");
    assert!(out.contains("case-fault-free=true"), "{out}");
    assert!(out.contains("arity-fault-free=true"), "{out}");
    // The verdict line is always last and machine-readable.
    let last = out.lines().last().unwrap();
    assert!(last.starts_with("{\"verdict\":\"pass\""), "{last}");
}

#[test]
fn vet_rejects_a_faulty_binary_with_nonzero_exit() {
    // Vet the *binary*, not the source: assemble first, then vet the
    // .zbin image, which must fail with an explicit violation.
    let src = write_temp("l.zf", FAULTY_PROG);
    let (ok, _, err) = zarf(&["asm", &src]);
    assert!(ok, "{err}");
    let bin = src.replace(".zf", ".zbin");
    let (ok, out, _) = zarf(&["vet", &bin]);
    assert!(!ok, "vet accepted a program that cases on a closure");
    assert!(out.contains("violation:"), "{out}");
    assert!(out.contains("case-on-closure"), "{out}");
    let last = out.lines().last().unwrap();
    assert!(last.starts_with("{\"verdict\":\"fail\""), "{last}");
}

#[test]
fn vet_json_reports_bounds_and_certificates() {
    let src = write_temp("m.zf", PROG);
    let (ok, out, err) = zarf(&["vet", &src, "--json", "--model", "service"]);
    assert!(ok, "{err}");
    let report = out.lines().next().unwrap();
    assert!(report.contains("\"case_fault_free\":true"), "{report}");
    assert!(report.contains("\"program_alloc_bound\":"), "{report}");
    assert!(report.contains("\"functions\":["), "{report}");
}

#[test]
fn vet_certifies_the_shipped_images() {
    for image in ["@kernel", "@session", "@icd"] {
        for model in ["standalone", "service"] {
            let (ok, out, err) = zarf(&["vet", image, "--model", model]);
            assert!(ok, "{image} ({model}): {err}");
            let last = out.lines().last().unwrap();
            assert!(last.starts_with("{\"verdict\":\"pass\""), "{image}: {last}");
        }
    }
}

#[test]
fn flag_only_invocations_are_handled() {
    let (ok, out, _) = zarf(&["--help"]);
    assert!(ok);
    assert!(out.contains("usage"), "{out}");
    let (ok, out, _) = zarf(&["--version"]);
    assert!(ok);
    assert!(out.starts_with("zarf "), "{out}");
    let (ok, _, err) = zarf(&["--frobnicate"]);
    assert!(!ok);
    assert!(err.contains("unknown flag"), "{err}");
    // Per-subcommand help for vet.
    let (ok, out, _) = zarf(&["vet", "--help"]);
    assert!(ok);
    assert!(out.contains("--model"), "{out}");
    // vet with a flag where the file should be: usage error, not a read
    // of a file literally named `--json`.
    let (ok, _, err) = zarf(&["vet", "--json"]);
    assert!(!ok);
    assert!(err.contains("vet needs"), "{err}");
}

#[test]
fn loadgen_requires_connect() {
    // Without a serving fleet to drive, any loadgen invocation is a usage error.
    for args in [
        &["loadgen"][..],
        &["loadgen", "--sessions", "64", "--ops", "4"],
    ] {
        let out = Command::new(env!("CARGO_BIN_EXE_zarf"))
            .args(args)
            .output()
            .unwrap();
        assert_eq!(out.status.code(), Some(2), "{args:?}");
        assert!(String::from_utf8_lossy(&out.stderr).contains("--connect"));
    }
}
