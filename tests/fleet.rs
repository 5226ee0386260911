//! End-to-end tests of the fleet execution server: the isolation proof
//! (fleet output ≡ standalone output, byte for byte, under any worker
//! count and forced eviction), the `ZFLT` TCP round trip, chaos-driven
//! session-kill recovery, the kernel session as a fleet workload, and
//! snapshot-based migration between fleets.

use std::time::Duration;

use zarf::chaos::{FaultKind, FaultPlan};
use zarf::fleet::{
    run_standalone, Client, Fleet, FleetConfig, Op, PortFeed, Request, Response, SessionConfig,
};
use zarf::kernel::program::{PORT_CHANNEL_STATUS, PORT_ECG, PORT_TIMER};
use zarf::kernel::session_image;

const WAIT: Duration = Duration::from_secs(120);

/// A session config with a tiny fuel slice, so every op lands in its own
/// scheduling slice and sessions bounce between workers constantly.
fn thrashing_config() -> SessionConfig {
    SessionConfig {
        fuel_slice: 1,
        ..SessionConfig::default()
    }
}

/// Three behaviourally distinct programs: a running sum that logs to a
/// port, an accumulator that echoes scripted input, and a recursive
/// counter. `main` is item 0x100, so the worker item is 0x101.
fn program_sources() -> Vec<&'static str> {
    vec![
        "fun tally s n =\n\
         \x20 let w = putint 1 s in\n\
         \x20 case w of else\n\
         \x20 let t = add s n in\n\
         \x20 result t\n\
         fun main = result 0",
        "fun soak s p =\n\
         \x20 let x = getint p in\n\
         \x20 case x of else\n\
         \x20 let w = putint p s in\n\
         \x20 case w of else\n\
         \x20 let t = add s x in\n\
         \x20 result t\n\
         fun main = result 0",
        "fun burn s n =\n\
         \x20 case n of\n\
         \x20 | 0 =>\n\
         \x20   let t = add s 1 in\n\
         \x20   result t\n\
         \x20 else\n\
         \x20   let m = sub n 1 in\n\
         \x20   let r = burn s m in\n\
         \x20   result r\n\
         fun main = result 0",
    ]
}

const WORK_ITEM: u32 = 0x101;

/// `main` cases on a partial application: a guaranteed CaseOnClosure, so
/// verified load must refuse the image.
const CASE_ON_CLOSURE: &str = "fun f x =\n\
     \x20 result x\n\
     fun main =\n\
     \x20 let g = f in\n\
     \x20 case g of\n\
     \x20 | 0 => result 1\n\
     \x20 else result 0";

/// The op script for program `k`, session-salted so no two sessions do
/// identical work.
fn ops_for(k: usize, salt: i32, n: i32) -> Vec<Op> {
    (0..n)
        .map(|i| match k {
            0 => Op::step(WORK_ITEM, vec![salt + i], vec![]),
            1 => Op::step(
                WORK_ITEM,
                vec![7],
                vec![PortFeed {
                    port: 7,
                    words: vec![salt * 100 + i],
                }],
            ),
            _ => Op::step(WORK_ITEM, vec![8 + (salt + i) % 5], vec![]),
        })
        .collect()
}

/// The isolation proof: K programs through the fleet — any worker count,
/// evictions forced on every slice — produce per-session output words AND
/// final machine state byte-identical to bare standalone runs.
#[test]
fn fleet_is_byte_identical_to_standalone_under_forced_eviction() {
    let cfg = thrashing_config();
    let images: Vec<Vec<u32>> = program_sources()
        .iter()
        .map(|src| zarf::asm::assemble(src).unwrap())
        .collect();

    // Oracle: each (program, salt) combination on a bare machine.
    let mut want = Vec::new();
    for (k, words) in images.iter().enumerate() {
        for salt in 0..3 {
            let ops = ops_for(k, salt, 6);
            want.push((k, salt, run_standalone(words, &cfg, &ops).unwrap()));
        }
    }

    for workers in [1, 3] {
        let fleet = Fleet::start(FleetConfig {
            workers,
            session: cfg.clone(),
            chaos: None,
            store: None,
            repl: None,
        })
        .unwrap();
        let handle = fleet.handle();
        let mut sessions = Vec::new();
        for (k, salt, _) in &want {
            let id = handle.open_program(&images[*k], None).unwrap();
            for op in ops_for(*k, *salt, 6) {
                handle.inject(id, op).unwrap();
            }
            sessions.push(id);
        }
        handle.wait_all_idle(WAIT).unwrap();
        for (id, (k, salt, (want_words, want_snap))) in sessions.iter().zip(&want) {
            let poll = handle.poll(*id).unwrap();
            assert_eq!(
                &poll.words, want_words,
                "program {k} salt {salt} diverged on {workers} worker(s)"
            );
            let snap = handle.snapshot(*id).unwrap();
            assert_eq!(
                &snap, want_snap,
                "program {k} salt {salt}: final state not byte-identical on {workers} worker(s)"
            );
            let stats = handle.session_stats(*id).unwrap();
            assert_eq!(
                stats.rehydrations, stats.slices,
                "a slice ran without rehydrating"
            );
            assert!(stats.rehydrations > 0, "session never rehydrated");
        }
        fleet.shutdown();
    }
}

/// Localhost TCP smoke: the full request vocabulary over a real socket.
#[test]
fn zflt_tcp_round_trip() {
    let words = zarf::asm::assemble(program_sources()[0]).unwrap();
    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        ..FleetConfig::default()
    })
    .unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let handle = fleet.handle();
        std::thread::spawn(move || zarf::fleet::serve(listener, handle))
    };

    let mut client = Client::connect(addr).unwrap();
    let session = match client
        .call(&Request::LoadProgram {
            config: SessionConfig::default(),
            program: words.clone(),
        })
        .unwrap()
    {
        Response::Opened { session } => session,
        other => panic!("unexpected response {other:?}"),
    };
    for n in 1..=4 {
        let resp = client
            .call(&Request::Inject {
                session,
                op: Op::step(WORK_ITEM, vec![n], vec![]),
            })
            .unwrap();
        assert!(matches!(resp, Response::Accepted { .. }));
    }
    // Poll until all four ops commit (the server answers immediately with
    // whatever has been committed so far).
    let mut got = Vec::new();
    loop {
        match client.call(&Request::Poll { session }).unwrap() {
            Response::Output {
                ops_done,
                pending,
                words,
                ..
            } => {
                got.extend(words);
                if ops_done == 4 && pending == 0 {
                    break;
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let (want, want_snap) = run_standalone(
        &words,
        &SessionConfig::default(),
        &(1..=4)
            .map(|n| Op::step(WORK_ITEM, vec![n], vec![]))
            .collect::<Vec<_>>(),
    )
    .unwrap();
    assert_eq!(got, want);
    match client.call(&Request::Snapshot { session }).unwrap() {
        Response::SnapshotData { bytes, .. } => assert_eq!(bytes, want_snap),
        other => panic!("unexpected response {other:?}"),
    }
    match client.call(&Request::Stats { session: 0 }).unwrap() {
        Response::StatsData { pairs } => {
            let ops_done = pairs.iter().find(|(k, _)| k == "ops_done").unwrap().1;
            assert_eq!(ops_done, 4);
        }
        other => panic!("unexpected response {other:?}"),
    }
    assert!(matches!(
        client.call(&Request::Close { session }).unwrap(),
        Response::Closed { .. }
    ));
    // Closed sessions answer with a protocol error, not a hangup.
    assert!(client.call(&Request::Poll { session }).is_err());
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    server.join().unwrap().unwrap();
    fleet.shutdown();
}

/// Chaos soak: sessions killed mid-run by a fault plan replay their
/// uncommitted slice from the last snapshot and still end byte-identical
/// to an unmolested standalone run.
#[test]
fn chaos_killed_sessions_recover_byte_identically() {
    let cfg = thrashing_config();
    let words = zarf::asm::assemble(program_sources()[0]).unwrap();
    let ops: Vec<Op> = (0..8)
        .map(|i| Op::step(WORK_ITEM, vec![i], vec![]))
        .collect();
    let (want_words, want_snap) = run_standalone(&words, &cfg, &ops).unwrap();

    // An explicit plan first (kills at known slices), then seeded plans.
    let mut plans = vec![FaultPlan::new()
        .schedule(0, FaultKind::SessionKill)
        .schedule(2, FaultKind::SessionKill)];
    plans.extend((1..=3u64).map(|seed| FaultPlan::seeded_fleet(seed, 10, 4)));

    for (i, plan) in plans.into_iter().enumerate() {
        let fleet = Fleet::start(FleetConfig {
            workers: 2,
            session: cfg.clone(),
            chaos: Some(plan),
            store: None,
            repl: None,
        })
        .unwrap();
        let handle = fleet.handle();
        let id = handle.open_program(&words, None).unwrap();
        for op in ops.clone() {
            handle.inject(id, op.clone()).unwrap();
        }
        handle.wait_idle(id, WAIT).unwrap();
        let poll = handle.poll(id).unwrap();
        assert_eq!(
            poll.words, want_words,
            "plan {i}: output diverged after kills"
        );
        assert_eq!(
            handle.snapshot(id).unwrap(),
            want_snap,
            "plan {i}: final state diverged after kills"
        );
        let stats = handle.session_stats(id).unwrap();
        if i == 0 {
            assert!(
                stats.kills >= 2,
                "explicit plan injected {} kill(s)",
                stats.kills
            );
            assert!(!handle.session_faults(id).unwrap().is_empty());
        }
        fleet.shutdown();
    }
}

/// The kernel's coroutine scheduler, packaged as a session shell, is an
/// ordinary fleet workload: boot + N scheduler iterations with scripted
/// device input, identical to the standalone oracle.
#[test]
fn kernel_session_runs_through_the_fleet() {
    let img = session_image();
    let n = 12;
    let ecg: Vec<i32> = (0..n).map(|i| ((i * 37) % 200) - 100).collect();
    let mut ops = vec![Op::step(img.boot, vec![], vec![])];
    for (i, &sample) in ecg.iter().enumerate() {
        ops.push(Op::step(
            img.step,
            vec![],
            vec![
                PortFeed {
                    port: PORT_TIMER,
                    words: vec![i as i32],
                },
                PortFeed {
                    port: PORT_ECG,
                    words: vec![sample],
                },
                PortFeed {
                    port: PORT_CHANNEL_STATUS,
                    words: vec![0],
                },
            ],
        ));
    }
    let cfg = SessionConfig::default();
    let (want_words, want_snap) = run_standalone(&img.words, &cfg, &ops).unwrap();

    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        session: SessionConfig {
            fuel_slice: 1,
            ..cfg
        },
        chaos: None,
        store: None,
        repl: None,
    })
    .unwrap();
    let handle = fleet.handle();
    let id = handle.open_program(&img.words, None).unwrap();
    for op in ops {
        handle.inject(id, op).unwrap();
    }
    handle.wait_idle(id, WAIT).unwrap();
    assert_eq!(handle.poll(id).unwrap().words, want_words);
    assert_eq!(handle.snapshot(id).unwrap(), want_snap);
    // The kernel session really paced: some op emitted port output.
    assert!(
        want_words.len() > (n as usize + 1),
        "no port traffic captured"
    );
    fleet.shutdown();
}

/// Verified load: the kernel session shell passes both machine-fault
/// certificates under the service entry model, loads with `verified:
/// true`, and behaves byte-identically to an unverified load.
#[test]
fn kernel_session_verified_loads_and_runs_identically() {
    let img = session_image();
    let ops: Vec<Op> = std::iter::once(Op::step(img.boot, vec![], vec![]))
        .chain((0..6).map(|i| {
            Op::step(
                img.step,
                vec![],
                vec![
                    PortFeed {
                        port: PORT_TIMER,
                        words: vec![i],
                    },
                    PortFeed {
                        port: PORT_ECG,
                        words: vec![i * 13 - 30],
                    },
                    PortFeed {
                        port: PORT_CHANNEL_STATUS,
                        words: vec![0],
                    },
                ],
            )
        }))
        .collect();
    let plain = SessionConfig::default();
    let (want_words, _) = run_standalone(&img.words, &plain, &ops).unwrap();

    let fleet = Fleet::start(FleetConfig {
        workers: 1,
        ..FleetConfig::default()
    })
    .unwrap();
    let handle = fleet.handle();
    let verified = SessionConfig {
        verified: true,
        ..plain
    };
    let id = handle.open_program(&img.words, Some(verified)).unwrap();
    for op in ops {
        handle.inject(id, op).unwrap();
    }
    handle.wait_idle(id, WAIT).unwrap();
    assert_eq!(handle.poll(id).unwrap().words, want_words);
    fleet.shutdown();
}

/// Verified load rejects a program whose shape analysis finds a possible
/// machine fault, with a typed `Certification` error — and the same
/// rejection surfaces as `ERR_CERTIFICATION` over the wire.
#[test]
fn verified_load_rejects_faulty_binary_with_typed_error() {
    let faulty = zarf::asm::assemble(CASE_ON_CLOSURE).unwrap();
    let fleet = Fleet::start(FleetConfig {
        workers: 1,
        ..FleetConfig::default()
    })
    .unwrap();
    let handle = fleet.handle();
    let verified = SessionConfig {
        verified: true,
        ..SessionConfig::default()
    };

    // Unverified load accepts it; verified load refuses with the typed error.
    let ok = handle.open_program(&faulty, None).unwrap();
    handle.close(ok).unwrap();
    match handle.open_program(&faulty, Some(verified.clone())) {
        Err(zarf::fleet::FleetError::Certification(msg)) => {
            assert!(msg.contains("fault"), "unexpected message: {msg}");
            // The rejection carries evidence: a concrete op the symbolic
            // executor found and replayed to the fault on the interpreter.
            assert!(
                msg.contains("witness: main()"),
                "certification error should attach a witness: {msg}"
            );
        }
        other => panic!("expected Certification error, got {other:?}"),
    }

    // Same over ZFLT: the server answers with ERR_CERTIFICATION.
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let handle = fleet.handle();
        std::thread::spawn(move || zarf::fleet::serve(listener, handle))
    };
    let mut client = Client::connect(addr).unwrap();
    match client.call(&Request::LoadProgram {
        config: verified,
        program: faulty,
    }) {
        Err(zarf::fleet::FleetError::Remote { code, .. }) => {
            assert_eq!(code, zarf::fleet::wire::ERR_CERTIFICATION)
        }
        other => panic!("expected remote certification error, got {other:?}"),
    }
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    server.join().unwrap().unwrap();
    fleet.shutdown();
}

/// `SessionConfig::heap_words` arrives from ZFLT clients as a `u64`. A
/// semispace of 2^34 words could hold more objects than a 32-bit heap
/// reference can name, so opening it is a typed load error, in process and
/// over the wire, verified or not, and the server keeps serving. The size
/// is refused before certification: an image that would also fail to
/// certify still gets the load error.
#[test]
#[cfg(target_pointer_width = "64")]
fn oversized_heap_is_a_typed_refusal() {
    let words = zarf::asm::assemble(program_sources()[0]).unwrap();
    let fleet = Fleet::start(FleetConfig {
        workers: 1,
        ..FleetConfig::default()
    })
    .unwrap();
    let handle = fleet.handle();
    let oversized = |verified| SessionConfig {
        heap_words: 1 << 34,
        verified,
        ..SessionConfig::default()
    };
    let faulty = zarf::asm::assemble(CASE_ON_CLOSURE).unwrap();
    for (image, verified) in [(&words, false), (&words, true), (&faulty, true)] {
        match handle.open_program(image, Some(oversized(verified))) {
            Err(zarf::fleet::FleetError::Load(msg)) => {
                assert!(msg.contains("semispace"), "unexpected message: {msg}")
            }
            other => panic!("expected a load error, got {other:?}"),
        }
    }

    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let server = {
        let handle = fleet.handle();
        std::thread::spawn(move || zarf::fleet::serve(listener, handle))
    };
    let mut client = Client::connect(addr).unwrap();
    match client.call(&Request::LoadProgram {
        config: oversized(false),
        program: words.clone(),
    }) {
        Err(zarf::fleet::FleetError::Remote { code, .. }) => {
            assert_eq!(code, zarf::fleet::wire::ERR_LOAD)
        }
        other => panic!("expected a remote load error, got {other:?}"),
    }
    assert!(matches!(
        client
            .call(&Request::LoadProgram {
                config: SessionConfig::default(),
                program: words,
            })
            .unwrap(),
        Response::Opened { .. }
    ));
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    server.join().unwrap().unwrap();
    fleet.shutdown();
}

/// A verified session's certificate gates every op: unknown items, wrong
/// arity, and items without a finite allocation bound are all rejected at
/// inject with `UncertifiedOp`, while a conforming op sails through.
#[test]
fn verified_session_rejects_uncertified_ops() {
    use zarf::fleet::FleetError;
    // `burn` is recursive, so it certifies fault-free but has no finite
    // allocation bound; `tally` (program 0) is finite.
    let tally = zarf::asm::assemble(program_sources()[0]).unwrap();
    let burn = zarf::asm::assemble(program_sources()[2]).unwrap();
    let fleet = Fleet::start(FleetConfig {
        workers: 1,
        ..FleetConfig::default()
    })
    .unwrap();
    let handle = fleet.handle();
    let verified = SessionConfig {
        verified: true,
        ..SessionConfig::default()
    };

    let id = handle.open_program(&tally, Some(verified.clone())).unwrap();
    // Wrong arity: tally takes (s, n); step supplies s implicitly.
    match handle.inject(id, Op::step(WORK_ITEM, vec![1, 2], vec![])) {
        Err(FleetError::UncertifiedOp { item, .. }) => assert_eq!(item, WORK_ITEM),
        other => panic!("expected UncertifiedOp, got {other:?}"),
    }
    // Unknown item.
    assert!(matches!(
        handle.inject(id, Op::eval(0x999, vec![], vec![])),
        Err(FleetError::UncertifiedOp { item: 0x999, .. })
    ));
    // A conforming op still runs.
    handle
        .inject(id, Op::step(WORK_ITEM, vec![5], vec![]))
        .unwrap();
    handle.wait_idle(id, WAIT).unwrap();
    assert_eq!(handle.poll(id).unwrap().words.last(), Some(&5));

    let id2 = handle.open_program(&burn, Some(verified)).unwrap();
    match handle.inject(id2, Op::step(WORK_ITEM, vec![3], vec![])) {
        Err(FleetError::UncertifiedOp { item, reason }) => {
            assert_eq!(item, WORK_ITEM);
            assert!(reason.contains("allocation"), "{reason}");
        }
        other => panic!("expected UncertifiedOp for unbounded item, got {other:?}"),
    }
    fleet.shutdown();
}

/// A session snapshotted out of one fleet and restored into another picks
/// up exactly where it left off: the stitched output equals one
/// uninterrupted standalone run.
#[test]
fn snapshot_restore_continues_across_fleets() {
    let cfg = thrashing_config();
    let words = zarf::asm::assemble(program_sources()[0]).unwrap();
    let ops: Vec<Op> = (1..=10)
        .map(|n| Op::step(WORK_ITEM, vec![n], vec![]))
        .collect();
    let (want_words, want_snap) = run_standalone(&words, &cfg, &ops).unwrap();

    let fleet_a = Fleet::start(FleetConfig {
        workers: 2,
        session: cfg.clone(),
        ..FleetConfig::default()
    })
    .unwrap();
    let ha = fleet_a.handle();
    let id_a = ha.open_program(&words, None).unwrap();
    for op in &ops[..5] {
        ha.inject(id_a, op.clone()).unwrap();
    }
    ha.wait_idle(id_a, WAIT).unwrap();
    let mut stitched = ha.poll(id_a).unwrap().words;
    let mid = ha.snapshot(id_a).unwrap();
    fleet_a.shutdown();

    let fleet_b = Fleet::start(FleetConfig {
        workers: 1,
        session: cfg.clone(),
        ..FleetConfig::default()
    })
    .unwrap();
    let hb = fleet_b.handle();
    let id_b = hb.open_snapshot(&mid, None).unwrap();
    for op in &ops[5..] {
        hb.inject(id_b, op.clone()).unwrap();
    }
    hb.wait_idle(id_b, WAIT).unwrap();
    stitched.extend(hb.poll(id_b).unwrap().words);
    assert_eq!(stitched, want_words);
    assert_eq!(hb.snapshot(id_b).unwrap(), want_snap);
    fleet_b.shutdown();
}
