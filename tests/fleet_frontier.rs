//! End-to-end tests of the nonblocking fleet frontier: pipelined and
//! batched requests against the standalone oracle, flag-driven shutdown
//! with no connections (the old frontier needed a throwaway
//! self-connection to unblock its acceptor), and chaos soaks where
//! seeded connection kills and partial writes mid-frame must leave every
//! session byte-identical to a standalone run.
//!
//! The original equivalence suite in `tests/fleet.rs` runs unchanged
//! against this frontier; these tests cover what is new.

use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zarf::chaos::{FaultKind, FaultPlan};
use zarf::fleet::{
    run_standalone, serve_with, Client, Fleet, FleetConfig, Op, Request, Response, ServeOptions,
    SessionConfig,
};

const WAIT: Duration = Duration::from_secs(120);

/// The running-sum program the equivalence suite uses: op `k` with arg
/// `n` logs the pre-add state to port 1 and threads `s + n` forward.
/// `main` is item 0x100, so `tally` is 0x101.
const TALLY_SRC: &str = "fun tally s n =\n\
                         \x20 let w = putint 1 s in\n\
                         \x20 case w of else\n\
                         \x20 let t = add s n in\n\
                         \x20 result t\n\
                         fun main = result 0";

const WORK_ITEM: u32 = 0x101;

fn tally_ops(salt: i32, n: i32) -> Vec<Op> {
    (0..n)
        .map(|i| Op::step(WORK_ITEM, vec![salt + i], vec![]))
        .collect()
}

/// Pipelining and batching: many request frames go out before any
/// response is read, including batched injects, and the frontier answers
/// each connection's requests in order. The session's drained output and
/// final snapshot must equal the standalone oracle byte for byte.
#[test]
fn pipelined_batched_requests_match_the_standalone_oracle() {
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
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

    // Pipeline: 4 batched frames of 4 ops plus 4 singleton frames, all
    // written before a single response is read.
    let ops = tally_ops(3, 20);
    for chunk in ops[..16].chunks(4) {
        client
            .send(&Request::InjectBatch {
                session,
                ops: chunk.to_vec(),
            })
            .unwrap();
    }
    for op in &ops[16..] {
        client
            .send(&Request::Inject {
                session,
                op: op.clone(),
            })
            .unwrap();
    }
    for i in 0..4 {
        match client.recv().unwrap() {
            Response::AcceptedBatch {
                session: sid,
                accepted,
                ..
            } => {
                assert_eq!(sid, session);
                assert_eq!(accepted, 4, "batch frame {i} misreported its op count");
            }
            other => panic!("expected AcceptedBatch, got {other:?}"),
        }
    }
    for _ in 0..4 {
        assert!(matches!(client.recv().unwrap(), Response::Accepted { .. }));
    }

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
                if ops_done == ops.len() as u64 && pending == 0 {
                    break;
                }
            }
            other => panic!("unexpected response {other:?}"),
        }
        std::thread::sleep(Duration::from_millis(2));
    }
    let snap = match client.call(&Request::Snapshot { session }).unwrap() {
        Response::SnapshotData { bytes, .. } => bytes,
        other => panic!("unexpected response {other:?}"),
    };

    let (want, want_snap) = run_standalone(&words, &SessionConfig::default(), &ops).unwrap();
    assert_eq!(got, want, "pipelined output diverged from standalone");
    assert_eq!(snap, want_snap, "snapshot diverged from standalone");

    assert!(matches!(
        client.call(&Request::Close { session }).unwrap(),
        Response::Closed { .. }
    ));
    assert!(matches!(
        client.call(&Request::Shutdown).unwrap(),
        Response::Bye
    ));
    server.join().unwrap().unwrap();
    fleet.shutdown();
}

/// An empty batch is a legal no-op, and a batch with any uncertified op
/// against a verified session is rejected atomically: no op from the
/// batch is admitted.
#[test]
fn batch_admission_is_atomic_under_certification() {
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let fleet = Fleet::start(FleetConfig::default()).unwrap();
    let handle = fleet.handle();
    let session = handle
        .open_program(
            &words,
            Some(SessionConfig {
                verified: true,
                ..SessionConfig::default()
            }),
        )
        .unwrap();

    assert_eq!(handle.inject_batch(session, vec![]).unwrap(), 0);

    // One good op plus one targeting a nonexistent item: nothing lands.
    let bad = vec![
        Op::step(WORK_ITEM, vec![1], vec![]),
        Op::step(0xBEEF, vec![2], vec![]),
    ];
    assert!(handle.inject_batch(session, bad).is_err());
    let stats = handle.session_stats(session).unwrap();
    assert_eq!(
        stats.ops_done + stats.pending as u64,
        0,
        "rejected batch leaked ops into the session"
    );

    let pending = handle.inject_batch(session, tally_ops(1, 4)).unwrap();
    assert!(pending <= 4);
    handle.wait_idle(session, WAIT).unwrap();
    let (want, _) = run_standalone(&words, &SessionConfig::default(), &tally_ops(1, 4)).unwrap();
    assert_eq!(handle.poll(session).unwrap().words, want);
    fleet.shutdown();
}

/// The readiness loop exits via its stop flag without a single
/// connection ever being made — the old thread-per-connection frontier
/// could only unblock its acceptor by dialing itself.
#[test]
fn stop_flag_shuts_down_the_frontier_without_any_connection() {
    let fleet = Fleet::start(FleetConfig::default()).unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let handle = fleet.handle();
        let opts = ServeOptions {
            stop: Some(Arc::clone(&stop)),
            ..ServeOptions::default()
        };
        std::thread::spawn(move || serve_with(listener, handle, opts))
    };
    std::thread::sleep(Duration::from_millis(50));
    assert!(!server.is_finished(), "server exited before the flag");
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap().unwrap();
    fleet.shutdown();
}

/// Drive sessions over a chaotic frontier and require byte-identical
/// outcomes. The client reconnects on every transport failure and
/// resynchronizes its op cursor from the fleet's own admission count
/// (`ops_done + pending`), because a killed response does not mean the
/// request was not admitted. Returns how many reconnects happened.
fn run_chaotic_frontier(frontier: FaultPlan, scheduler: Option<FaultPlan>) -> u64 {
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        chaos: scheduler,
        ..FleetConfig::default()
    })
    .unwrap();
    let handle = fleet.handle();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let handle = fleet.handle();
        let opts = ServeOptions {
            chaos: Some(frontier),
            stop: Some(Arc::clone(&stop)),
            ..ServeOptions::default()
        };
        std::thread::spawn(move || serve_with(listener, handle, opts))
    };

    // Sessions are opened in-process so their lifecycle is not tied to
    // any one chaotic connection; every op travels over TCP.
    let config = SessionConfig {
        fuel_slice: 1, // every op in its own slice: maximum rescheduling
        ..SessionConfig::default()
    };
    let sessions: Vec<(u64, Vec<Op>)> = (0..3)
        .map(|k| {
            let sid = handle.open_program(&words, Some(config.clone())).unwrap();
            (sid, tally_ops(10 * (k + 1), 8))
        })
        .collect();

    let mut reconnects = 0u64;
    for (sid, ops) in &sessions {
        loop {
            let admitted = {
                let s = handle.session_stats(*sid).unwrap();
                s.ops_done + s.pending as u64
            };
            if admitted >= ops.len() as u64 {
                break;
            }
            let mut client = match Client::connect(addr) {
                Ok(c) => c,
                Err(_) => {
                    reconnects += 1;
                    continue;
                }
            };
            loop {
                let admitted = {
                    let s = handle.session_stats(*sid).unwrap();
                    s.ops_done + s.pending as u64
                };
                if admitted >= ops.len() as u64 {
                    break;
                }
                let req = Request::Inject {
                    session: *sid,
                    op: ops[admitted as usize].clone(),
                };
                match client.call(&req) {
                    Ok(Response::Accepted { .. }) => {}
                    Ok(other) => panic!("unexpected response {other:?}"),
                    Err(_) => {
                        // Connection killed or response truncated
                        // mid-frame; the op may or may not have been
                        // admitted — the cursor resync decides.
                        reconnects += 1;
                        break;
                    }
                }
            }
        }
    }

    handle.wait_all_idle(WAIT).unwrap();
    for (sid, ops) in &sessions {
        let (want, want_snap) = run_standalone(&words, &config, ops).unwrap();
        assert_eq!(
            handle.poll(*sid).unwrap().words,
            want,
            "session {sid} output diverged under frontier chaos"
        );
        assert_eq!(
            handle.snapshot(*sid).unwrap(),
            want_snap,
            "session {sid} snapshot diverged under frontier chaos"
        );
    }
    stop.store(true, Ordering::SeqCst);
    server.join().unwrap().unwrap();
    fleet.shutdown();
    reconnects
}

/// Targeted frontier faults at known response coordinates: both kinds
/// must each force a reconnect, and no session may diverge.
#[test]
fn conn_kills_and_partial_writes_leave_sessions_byte_identical() {
    let plan = FaultPlan::new()
        .schedule(1, FaultKind::ConnKill)
        .schedule(4, FaultKind::PartialWrite)
        .schedule(9, FaultKind::ConnKill)
        .schedule(14, FaultKind::PartialWrite);
    let reconnects = run_chaotic_frontier(plan, None);
    assert!(
        reconnects >= 4,
        "expected every scheduled frontier fault to cost a reconnect, saw {reconnects}"
    );
}

/// Seeded soak: random connection kills and partial writes layered on
/// top of scheduler chaos (session kills and forced evictions), across
/// several seeds. Fault plans are deterministic, so any divergence here
/// is reproducible from the seed.
#[test]
fn seeded_frontier_chaos_soak_stays_byte_identical() {
    for seed in 0..4 {
        let frontier = FaultPlan::seeded_frontier(seed, 24, 6);
        let scheduler = FaultPlan::seeded_fleet(seed ^ 0xF1EE7, 24, 4);
        let _reconnects = run_chaotic_frontier(frontier, Some(scheduler));
    }
}

/// Satellite regression: a frame declaring a payload past the server's
/// per-connection cap ([`ServeOptions::max_frame`]) must get a typed
/// `Error` response and a clean close — no unbounded buffering, no
/// reset — and the server must keep serving other clients afterwards.
#[test]
fn oversize_frame_gets_typed_error_and_clean_close() {
    use std::io::{Read, Write};

    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let fleet = Fleet::start(FleetConfig {
        workers: 1,
        ..FleetConfig::default()
    })
    .unwrap();
    let listener = std::net::TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let server = {
        let handle = fleet.handle();
        let opts = ServeOptions {
            max_frame: Some(4096),
            stop: Some(Arc::clone(&stop)),
            ..ServeOptions::default()
        };
        std::thread::spawn(move || serve_with(listener, handle, opts))
    };

    // A well-formed ZFLT header declaring a 1 MiB payload: the server
    // must reject it from the 9 header bytes alone.
    let mut raw = std::net::TcpStream::connect(addr).unwrap();
    let mut hdr = Vec::from(&b"ZFLT"[..]);
    hdr.push(1); // protocol version
    hdr.extend_from_slice(&(1u32 << 20).to_le_bytes());
    raw.write_all(&hdr).unwrap();
    match Response::decode(&zarf::fleet::wire::ZFLT.read(&mut raw).unwrap()).unwrap() {
        Response::Error { code, message } => {
            assert_eq!(code, 6, "oversize rejection should be ERR_INTERNAL");
            assert!(
                message.contains("4096"),
                "error should name the cap: {message}"
            );
        }
        other => panic!("expected an Error response, got {other:?}"),
    }
    // Clean close: an orderly FIN after the error flushes, not a reset.
    let mut rest = Vec::new();
    raw.read_to_end(&mut rest).unwrap();
    assert!(rest.is_empty(), "no bytes expected after the error frame");

    // The frontier survives the hostile client: an in-bound request on a
    // fresh connection still round-trips.
    let mut client = Client::connect(addr).unwrap();
    let session = match client
        .call(&Request::LoadProgram {
            config: SessionConfig::default(),
            program: words,
        })
        .unwrap()
    {
        Response::Opened { session } => session,
        other => panic!("unexpected response {other:?}"),
    };
    match client.call(&Request::Close { session }).unwrap() {
        Response::Closed { session: sid } => assert_eq!(sid, session),
        other => panic!("unexpected response {other:?}"),
    }

    stop.store(true, Ordering::SeqCst);
    server.join().unwrap().unwrap();
    fleet.shutdown();
}
