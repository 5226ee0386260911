//! Panic-site ratchet for the hot paths.
//!
//! PR 2 swept the λ-machine hot loop, the heap, the kernel supervisor,
//! and the channel free of `panic!` / `.unwrap()` / `.expect()` /
//! `unreachable!` outside `#[cfg(test)]`. This test counts the remaining
//! sites so a regression fails loudly instead of reintroducing silent
//! abort paths into flight-critical code. Lower the ceilings if you
//! remove more; never raise them.

use std::path::Path;

/// (file, allowed panic sites in non-test code)
const RATCHET: &[(&str, usize)] = &[
    ("crates/hw/src/heap.rs", 0),
    ("crates/hw/src/machine.rs", 0),
    ("crates/kernel/src/system.rs", 0),
    ("crates/imperative/src/channel.rs", 0),
    // The checkpoint/rollback path is flight-critical by construction:
    // it runs exactly when something already went wrong.
    ("crates/hw/src/snapshot.rs", 0),
    // The byte codec under every frame, record and section: it decodes
    // whatever arrives from the network or the disk.
    ("crates/core/src/codec.rs", 0),
    ("crates/hw/src/audit.rs", 0),
    ("crates/kernel/src/snapshot.rs", 0),
    // The fleet is a server: a panic takes down every session on the
    // worker, so the whole crate holds the line at zero.
    ("crates/fleet/src/lib.rs", 0),
    ("crates/fleet/src/op.rs", 0),
    ("crates/fleet/src/fleet.rs", 0),
    ("crates/fleet/src/wire.rs", 0),
    ("crates/fleet/src/server.rs", 0),
    // The nonblocking frontier event loop and its load generator: a
    // panic in the readiness loop takes down every connection at once.
    ("crates/fleet/src/poll.rs", 0),
    ("crates/fleet/src/bench.rs", 0),
    // The replication link and migration cutover: a panic here strands
    // a quiesced session or a half-shipped snapshot on the wire.
    ("crates/fleet/src/repl.rs", 0),
    // The static-certification stack gates what the fleet will load, so
    // an analysis panic is a denial of service on the admission path.
    ("crates/verify/src/absint.rs", 0),
    ("crates/verify/src/shape.rs", 0),
    ("crates/verify/src/allocbound.rs", 0),
    // The symbolic executor runs on the fleet admission path (witnesses
    // for certification refusals) and inside `zarf vet`; an analysis
    // panic is a denial of service on admission, so the whole crate —
    // and the replay/query seams it leans on — holds the line at zero.
    ("crates/symex/src/budget.rs", 0),
    ("crates/symex/src/exec.rs", 0),
    ("crates/symex/src/lib.rs", 0),
    ("crates/symex/src/report.rs", 0),
    ("crates/symex/src/seed.rs", 0),
    ("crates/symex/src/solve.rs", 0),
    ("crates/symex/src/summary.rs", 0),
    ("crates/symex/src/term.rs", 0),
    ("crates/symex/src/value.rs", 0),
    ("crates/symex/src/witness.rs", 0),
    ("crates/testkit/src/replay.rs", 0),
    ("crates/verify/src/queries.rs", 0),
    // The interval lattice both the RISC domain and the symex solver
    // run on: its transfer functions see every adversarial endpoint.
    ("crates/verify/src/interval.rs", 0),
    // The RISC certification pass vets untrusted imperative-core
    // binaries — adversarial input by definition — so recovery,
    // domain, WCET, clients, and the disassembler hold at zero.
    ("crates/verify/src/risc/cfg.rs", 0),
    ("crates/verify/src/risc/clients.rs", 0),
    ("crates/verify/src/risc/domain.rs", 0),
    ("crates/verify/src/risc/mod.rs", 0),
    ("crates/verify/src/risc/wcet.rs", 0),
    ("crates/imperative/src/disasm.rs", 0),
    // The durable store holds every committed session; a panic here is
    // data loss for the whole fleet, so every module holds at zero.
    ("crates/store/src/lib.rs", 0),
    ("crates/store/src/chunk.rs", 0),
    ("crates/store/src/hash.rs", 0),
    ("crates/store/src/manifest.rs", 0),
    ("crates/store/src/segment.rs", 0),
    ("crates/store/src/store.rs", 0),
    ("crates/store/src/tier.rs", 0),
];

const PATTERNS: &[&str] = &["panic!", ".unwrap()", ".expect(", "unreachable!"];

fn count_sites(source: &str) -> usize {
    // Only the non-test portion counts; the unit-test module at the
    // bottom of each file is free to unwrap.
    let non_test = source.split("#[cfg(test)]").next().unwrap_or("");
    PATTERNS.iter().map(|p| non_test.matches(p).count()).sum()
}

#[test]
fn hot_path_panic_sites_never_regress() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    for &(rel, ceiling) in RATCHET {
        let path = root.join(rel);
        let source = std::fs::read_to_string(&path)
            .unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
        let found = count_sites(&source);
        assert!(
            found <= ceiling,
            "{rel}: {found} panic site(s) in non-test code (ratchet allows {ceiling}); \
             convert them to typed errors instead"
        );
    }
}

#[test]
fn ratchet_counter_actually_counts() {
    // Guard the guard: the counter must see through each pattern and
    // must ignore the test module.
    let sample =
        "fn f() { x.unwrap(); panic!(); }\n#[cfg(test)]\nmod t { fn g() { y.expect(\"\"); } }";
    assert_eq!(count_sites(sample), 2);
}
