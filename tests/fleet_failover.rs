//! Failover and migration proofs for the replicated fleet
//! (`zarf serve --replicate-to`, `zarf standby`, `zarf migrate`).
//!
//! Five suites:
//!
//! * **In-process replication + promotion** — a primary fleet streams
//!   every slice commit to an in-process `ZREP` receiver; after a clean
//!   shutdown the standby store is promoted (`Fleet::start` over it)
//!   and must serve every session byte-identical to the
//!   `run_standalone` oracle, then keep executing on top.
//! * **Seeded link chaos** — `FaultPlan::seeded_repl` injects link
//!   drops, stalls, reorders, truncated streams, and duplicate
//!   deliveries into the pump's send path; the standby must still
//!   converge to byte-exact state (recover-or-fail-typed, never
//!   silent divergence).
//! * **Primary SIGKILL failover** — a real `zarf serve --replicate-to`
//!   process is killed (no cleanup) at varied commit points, including
//!   mid-burst with commits racing the kill. Every commit the primary
//!   acknowledged on its replication link (`repl-ack` lines) must be
//!   present on the standby, and the promoted standby must resume each
//!   such session byte-identical to the oracle. The 50-round seeded
//!   matrix runs under `--ignored` in the CI failover-soak job.
//! * **Migration** — `migrate_session` (and the `zarf migrate` binary)
//!   moves a live session from a fleet onto a standby with exactly-once
//!   cutover: the destination holds the oracle bytes, the source
//!   forgets the session, a failed migration leaves it serving on the
//!   source, a destination holding another fleet's session under the
//!   same id refuses typed, and a warm destination (prior commit
//!   already replicated) receives under 10% of the snapshot on the
//!   wire.
//! * **Freeze semantics** — a quiesced session sheds new injects with
//!   a typed `SessionFrozen` until released.

use std::collections::HashMap;
use std::io::{BufRead, BufReader};
use std::net::TcpListener;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use zarf::chaos::FaultPlan;
use zarf::fleet::repl::REPL_ERR_PROTOCOL;
use zarf::fleet::{
    migrate_session, run_standalone, serve, serve_repl, spawn_replicator, Client, Fleet,
    FleetConfig, FleetError, Op, ReplReceiverStats, ReplSink, ReplicatorConfig, Request, Response,
    RetryPolicy, SessionConfig,
};
use zarf::store::{Store, StoreConfig};

const WAIT: Duration = Duration::from_secs(120);

/// The running-sum program from the fleet equivalence suites: op `k`
/// with arg `n` logs the pre-add state to port 1 and threads `s + n`
/// forward. `main` is item 0x100, so `tally` is 0x101.
const TALLY_SRC: &str = "fun tally s n =\n\
                         \x20 let w = putint 1 s in\n\
                         \x20 case w of else\n\
                         \x20 let t = add s n in\n\
                         \x20 result t\n\
                         fun main = result 0";

const WORK_ITEM: u32 = 0x101;

/// Ops `from+1 ..= from+n`, each op's arg equal to its 1-based index so
/// any prefix of the sequence is itself a deterministic workload.
fn tally_ops(from: u64, n: u64) -> Vec<Op> {
    (from + 1..=from + n)
        .map(|i| Op::step(WORK_ITEM, vec![i as i32], vec![]))
        .collect()
}

struct TempDir(PathBuf);

impl TempDir {
    fn new(name: &str) -> TempDir {
        let p = std::env::temp_dir().join(format!("zarf_fo_{}_{name}", std::process::id()));
        let _ = std::fs::remove_dir_all(&p);
        std::fs::create_dir_all(&p).unwrap();
        TempDir(p)
    }

    fn path(&self) -> &Path {
        &self.0
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

fn open_store(dir: &Path) -> Arc<Store> {
    Arc::new(Store::open(dir, StoreConfig::default()).unwrap())
}

/// A short-deadline policy so chaos-induced desyncs recover in
/// milliseconds instead of the default ten-second socket deadline.
fn fast_policy() -> RetryPolicy {
    RetryPolicy {
        op_deadline: Duration::from_millis(500),
        max_attempts: 5,
        backoff_floor: Duration::from_millis(5),
        backoff_ceiling: Duration::from_millis(50),
    }
}

fn wait_for(what: &str, timeout: Duration, mut done: impl FnMut() -> bool) {
    let deadline = Instant::now() + timeout;
    while !done() {
        assert!(Instant::now() < deadline, "timed out waiting for {what}");
        std::thread::sleep(Duration::from_millis(5));
    }
}

/// An in-process `ZREP` standby: a receiver thread writing into its own
/// store, which the test can watch converge and later promote.
struct Standby {
    addr: String,
    store: Arc<Store>,
    stop: Arc<AtomicBool>,
    thread: Option<std::thread::JoinHandle<Result<ReplReceiverStats, FleetError>>>,
}

impl Standby {
    fn start(dir: &Path) -> Standby {
        let store = open_store(dir);
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let stop = Arc::new(AtomicBool::new(false));
        let thread = {
            let store = store.clone();
            let stop = stop.clone();
            std::thread::spawn(move || serve_repl(listener, store, stop))
        };
        Standby {
            addr,
            store,
            stop,
            thread: Some(thread),
        }
    }

    fn stop(mut self) -> ReplReceiverStats {
        self.stop.store(true, Ordering::SeqCst);
        self.thread.take().unwrap().join().unwrap().unwrap()
    }
}

impl Drop for Standby {
    fn drop(&mut self) {
        self.stop.store(true, Ordering::SeqCst);
        if let Some(t) = self.thread.take() {
            let _ = t.join();
        }
    }
}

/// Suite 1: replicate a primary's commits to a standby store, promote
/// it, and every session must be byte-identical to the standalone
/// oracle — then keep executing on the promoted fleet.
#[test]
fn promoted_standby_is_byte_identical_and_resumes() {
    let tmp_a = TempDir::new("promote_a");
    let tmp_b = TempDir::new("promote_b");
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let plain = SessionConfig::default();
    let choppy = SessionConfig {
        fuel_slice: 1,
        ..SessionConfig::default()
    };

    let standby = Standby::start(tmp_b.path());
    let sink = ReplSink::new(1 << 20);
    let store_a = open_store(tmp_a.path());
    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        store: Some(store_a.clone()),
        repl: Some(sink.clone()),
        ..FleetConfig::default()
    })
    .unwrap();
    let pump = spawn_replicator(
        store_a,
        sink.clone(),
        ReplicatorConfig {
            target: standby.addr.clone(),
            policy: fast_policy(),
            chaos: None,
        },
    )
    .unwrap();
    let handle = fleet.handle();
    let a = handle.open_program(&words, Some(plain.clone())).unwrap();
    let b = handle.open_program(&words, Some(choppy.clone())).unwrap();
    let gone = handle.open_program(&words, None).unwrap();
    handle.inject_batch(a, tally_ops(0, 9)).unwrap();
    handle.inject_batch(b, tally_ops(0, 4)).unwrap();
    handle.wait_idle(a, WAIT).unwrap();
    handle.wait_idle(b, WAIT).unwrap();
    handle.close(gone).unwrap();

    // The standby converges: both live sessions present at their final
    // ops count, the closed one propagated away.
    wait_for("standby convergence", WAIT, || {
        let by_id: HashMap<u64, u64> = standby
            .store
            .sessions()
            .into_iter()
            .map(|r| (r.id, r.ops_done))
            .collect();
        by_id.get(&a) == Some(&9) && by_id.get(&b) == Some(&4) && !by_id.contains_key(&gone)
    });
    fleet.shutdown();
    sink.shutdown();
    pump.join().unwrap();
    let stats = standby.stop();
    assert!(stats.commits > 0 && stats.chunks > 0, "stats: {stats:?}");
    assert_eq!(stats.rejects, 0, "healthy link rejected frames: {stats:?}");
    assert!(stats.closes >= 1, "close was not propagated: {stats:?}");

    // Promote: a fleet over the standby store must serve the oracle
    // bytes and keep executing on top of them.
    let promoted = Fleet::start(FleetConfig {
        workers: 2,
        store: Some(open_store(tmp_b.path())),
        ..FleetConfig::default()
    })
    .unwrap();
    let h = promoted.handle();
    let (_, want_a) = run_standalone(&words, &plain, &tally_ops(0, 9)).unwrap();
    let (_, want_b) = run_standalone(&words, &choppy, &tally_ops(0, 4)).unwrap();
    assert_eq!(h.snapshot(a).unwrap(), want_a, "session {a} diverged");
    assert_eq!(h.snapshot(b).unwrap(), want_b, "session {b} diverged");
    assert!(matches!(h.poll(gone), Err(FleetError::UnknownSession(_))));
    h.inject_batch(a, tally_ops(9, 3)).unwrap();
    h.wait_idle(a, WAIT).unwrap();
    let (_, want_full) = run_standalone(&words, &plain, &tally_ops(0, 12)).unwrap();
    assert_eq!(
        h.snapshot(a).unwrap(),
        want_full,
        "promoted execution diverged from an unbroken run"
    );
    promoted.shutdown();
}

/// Suite 2: seeded link chaos. Drops, stalls, reorders, truncations,
/// and duplicate deliveries on the replication link must never corrupt
/// the standby — it converges to byte-exact state through reconnects.
#[test]
fn seeded_link_chaos_converges_byte_exact() {
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let choppy = SessionConfig {
        fuel_slice: 1,
        ..SessionConfig::default()
    };
    for seed in 0..6u64 {
        let tmp_a = TempDir::new(&format!("chaos_a_{seed}"));
        let tmp_b = TempDir::new(&format!("chaos_b_{seed}"));
        let standby = Standby::start(tmp_b.path());
        let sink = ReplSink::new(1 << 20);
        let store_a = open_store(tmp_a.path());
        let fleet = Fleet::start(FleetConfig {
            workers: 2,
            store: Some(store_a.clone()),
            repl: Some(sink.clone()),
            ..FleetConfig::default()
        })
        .unwrap();
        let pump = spawn_replicator(
            store_a,
            sink.clone(),
            ReplicatorConfig {
                target: standby.addr.clone(),
                policy: fast_policy(),
                chaos: Some(FaultPlan::seeded_repl(seed, 48, 5)),
            },
        )
        .unwrap();
        let handle = fleet.handle();
        let sid = handle.open_program(&words, Some(choppy.clone())).unwrap();
        handle.inject_batch(sid, tally_ops(0, 12)).unwrap();
        handle.wait_idle(sid, WAIT).unwrap();
        wait_for(&format!("chaos seed {seed} convergence"), WAIT, || {
            standby
                .store
                .sessions()
                .into_iter()
                .any(|r| r.id == sid && r.ops_done == 12)
        });
        fleet.shutdown();
        sink.shutdown();
        pump.join().unwrap();
        let _ = standby.stop();
        let (_, want) = run_standalone(&words, &choppy, &tally_ops(0, 12)).unwrap();
        let store_b = open_store(tmp_b.path());
        assert_eq!(
            store_b.get_snapshot(sid).unwrap(),
            want,
            "seed {seed}: standby bytes diverged under link chaos"
        );
    }
}

/// Replication acks parsed off a primary's stderr:
/// session id → highest acknowledged commit sequence.
type AckMap = Arc<Mutex<HashMap<u64, u64>>>;

/// Spawn `zarf serve --data-dir --replicate-to` on an ephemeral port.
/// Returns the child, its `ZFLT` address, the live ack map, and the
/// stderr drain handle (join it after the child exits to be sure every
/// buffered ack line was parsed).
fn spawn_primary(dir: &Path, repl: &str) -> (Child, String, AckMap, std::thread::JoinHandle<()>) {
    let mut child = Command::new(env!("CARGO_BIN_EXE_zarf"))
        .args([
            "serve",
            "--listen",
            "127.0.0.1:0",
            "--workers",
            "2",
            "--data-dir",
            dir.to_str().unwrap(),
            "--replicate-to",
            repl,
            "--repl-lag-cap",
            "4096",
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::piped())
        .spawn()
        .unwrap();
    let mut reader = BufReader::new(child.stderr.take().unwrap());
    let addr = loop {
        let mut line = String::new();
        if reader.read_line(&mut line).unwrap() == 0 {
            let _ = child.kill();
            panic!("serve exited before announcing its address");
        }
        if let Some(rest) = line.split("serving ZFLT on ").nth(1) {
            break rest.split_whitespace().next().unwrap().to_string();
        }
    };
    let acks: AckMap = Arc::new(Mutex::new(HashMap::new()));
    let drain = {
        let acks = acks.clone();
        std::thread::spawn(move || {
            // Parse `zarf-repl: repl-ack session=<id> seq=<n>` lines;
            // drain everything else so the child never blocks.
            for line in reader.lines() {
                let Ok(line) = line else { break };
                let Some(rest) = line.split("repl-ack session=").nth(1) else {
                    continue;
                };
                let mut it = rest.split_whitespace();
                let (Some(id), Some(seq)) = (it.next(), it.next()) else {
                    continue;
                };
                let (Ok(id), Some(Ok(seq))) = (
                    id.parse::<u64>(),
                    seq.strip_prefix("seq=").map(str::parse::<u64>),
                ) else {
                    continue;
                };
                let mut m = acks.lock().unwrap();
                let e = m.entry(id).or_insert(seq);
                *e = (*e).max(seq);
            }
        })
    };
    (child, addr, acks, drain)
}

/// One failover round: run a real primary against an in-process
/// standby, SIGKILL it per `kill_after`, and prove zero
/// acknowledged-commit loss plus byte-identical resume on promotion.
///
/// `kill_after = Some(k)` waits for k acknowledged ops then kills;
/// `None` kills mid-burst after `race_ms`, with commits racing the
/// kill.
fn failover_round(tag: &str, kill_after: Option<u64>, race_ms: u64) {
    let tmp_a = TempDir::new(&format!("kill_a_{tag}"));
    let tmp_b = TempDir::new(&format!("kill_b_{tag}"));
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let choppy = SessionConfig {
        fuel_slice: 1,
        ..SessionConfig::default()
    };

    let standby = Standby::start(tmp_b.path());
    let (mut child, addr, acks, drain) = spawn_primary(tmp_a.path(), &standby.addr);
    let mut client = Client::connect(&addr).unwrap();
    let sid = match client
        .call(&Request::LoadProgram {
            config: choppy.clone(),
            program: words.clone(),
        })
        .unwrap()
    {
        Response::Opened { session } => session,
        other => panic!("unexpected response {other:?}"),
    };
    match kill_after {
        Some(k) => {
            if k > 0 {
                client
                    .call(&Request::InjectBatch {
                        session: sid,
                        ops: tally_ops(0, k),
                    })
                    .unwrap();
            }
            // Wait until the replication link acknowledged sequence k
            // (with fuel_slice=1, commit seq counts executed ops), so
            // this round proves those acks survive the kill.
            wait_for(&format!("round {tag}: ack of seq {k}"), WAIT, || {
                acks.lock().unwrap().get(&sid).copied().unwrap_or(0) >= k
            });
        }
        None => {
            client
                .call(&Request::InjectBatch {
                    session: sid,
                    ops: tally_ops(0, 32),
                })
                .unwrap();
            std::thread::sleep(Duration::from_millis(race_ms));
        }
    }
    child.kill().unwrap();
    child.wait().unwrap();
    drain.join().unwrap(); // every buffered ack line is now parsed
    let acked = acks.lock().unwrap().clone();
    let stats = standby.stop();
    assert_eq!(
        stats.rejects, 0,
        "round {tag}: standby rejected frames: {stats:?}"
    );

    // Zero acknowledged-commit loss: everything the primary logged as
    // acked is on the standby at (or past) that sequence.
    let store_b = open_store(tmp_b.path());
    for (&id, &seq) in &acked {
        let held = store_b
            .sessions()
            .into_iter()
            .find(|r| r.id == id)
            .unwrap_or_else(|| panic!("round {tag}: acked session {id} missing on standby"));
        assert!(
            held.commit_seq >= seq,
            "round {tag}: session {id} lost acked commits: {} < {seq}",
            held.commit_seq
        );
    }

    // Promotion: every replicated session is a committed prefix of the
    // oracle, byte-identical, and the promoted fleet executes on top.
    let records = store_b.sessions();
    let promoted = Fleet::start(FleetConfig {
        workers: 2,
        store: Some(store_b),
        ..FleetConfig::default()
    })
    .unwrap();
    let h = promoted.handle();
    for rec in &records {
        let (_, want) = run_standalone(&words, &choppy, &tally_ops(0, rec.ops_done)).unwrap();
        assert_eq!(
            h.snapshot(rec.id).unwrap(),
            want,
            "round {tag}: session {} is not the committed prefix of {} op(s)",
            rec.id,
            rec.ops_done
        );
        h.inject_batch(rec.id, tally_ops(rec.ops_done, 2)).unwrap();
        h.wait_idle(rec.id, WAIT).unwrap();
        let (_, resumed) =
            run_standalone(&words, &choppy, &tally_ops(0, rec.ops_done + 2)).unwrap();
        assert_eq!(
            h.snapshot(rec.id).unwrap(),
            resumed,
            "round {tag}: session {} diverged after promoted resume",
            rec.id
        );
    }
    promoted.shutdown();
}

/// Suite 3 (default matrix): SIGKILL after 0, 3, and 7 acknowledged
/// ops, plus one kill racing a 32-op burst.
#[test]
fn primary_sigkill_failover_loses_no_acked_commit() {
    for k in [0u64, 3, 7] {
        failover_round(&format!("k{k}"), Some(k), 0);
    }
    failover_round("race", None, 15);
}

/// Suite 3 (seeded soak, `--ignored`): 50+ kill points — varied
/// acknowledged-op counts and racing kills at varied delays. Run in the
/// CI failover-soak job.
#[test]
#[ignore = "50+ seeded primary kills; run with --ignored in failover-soak"]
fn primary_sigkill_failover_soak() {
    for seed in 0..26u64 {
        failover_round(&format!("soak_k_{seed}"), Some(seed % 13), 0);
    }
    for seed in 0..26u64 {
        failover_round(&format!("soak_r_{seed}"), None, 1 + (seed * 7) % 40);
    }
}

/// A fleet served over `ZFLT` in a background thread, for the
/// migration suites (the migration source speaks the real protocol).
struct Served {
    addr: String,
    fleet: Fleet,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Served {
    fn start(cfg: FleetConfig) -> Served {
        let listener = TcpListener::bind("127.0.0.1:0").unwrap();
        let addr = listener.local_addr().unwrap().to_string();
        let fleet = Fleet::start(cfg).unwrap();
        let handle = fleet.handle();
        let thread = std::thread::spawn(move || {
            serve(listener, handle).unwrap();
        });
        Served {
            addr,
            fleet,
            thread: Some(thread),
        }
    }

    fn stop(mut self) {
        let mut client = Client::connect(&self.addr).unwrap();
        let _ = client.call(&Request::Shutdown);
        self.thread.take().unwrap().join().unwrap();
        self.fleet.shutdown();
    }
}

/// Suite 4a: cold migration moves a session with exactly-once cutover —
/// the destination holds the oracle bytes, the source forgets it.
#[test]
fn migration_moves_a_session_exactly_once() {
    let tmp_a = TempDir::new("mig_a");
    let tmp_b = TempDir::new("mig_b");
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let plain = SessionConfig::default();

    let src = Served::start(FleetConfig {
        workers: 2,
        store: Some(open_store(tmp_a.path())),
        ..FleetConfig::default()
    });
    let dst = Standby::start(tmp_b.path());
    let h = src.fleet.handle();
    let sid = h.open_program(&words, Some(plain.clone())).unwrap();
    h.inject_batch(sid, tally_ops(0, 9)).unwrap();
    h.wait_idle(sid, WAIT).unwrap();

    let report = migrate_session(&src.addr, &dst.addr, sid, &fast_policy()).unwrap();
    assert_eq!(report.session, sid);
    assert!(!report.already, "cold destination claimed to hold state");
    assert!(report.chunks_shipped > 0 && report.bytes_shipped > 0);
    assert!(report.snap_len > 0);

    // The destination holds the oracle bytes, end-to-end verified.
    let (_, want) = run_standalone(&words, &plain, &tally_ops(0, 9)).unwrap();
    let stats = dst.stop();
    assert_eq!(stats.rejects, 0, "migration rejected frames: {stats:?}");
    let store_b = open_store(tmp_b.path());
    assert_eq!(
        store_b.get_snapshot(sid).unwrap(),
        want,
        "migrated bytes diverged from the oracle"
    );

    // The source forgot the session — exactly-once, no double-serve.
    assert!(matches!(h.poll(sid), Err(FleetError::UnknownSession(_))));
    src.stop();

    // And a fleet over the destination store resumes it.
    let promoted = Fleet::start(FleetConfig {
        workers: 2,
        store: Some(store_b),
        ..FleetConfig::default()
    })
    .unwrap();
    let ph = promoted.handle();
    ph.inject_batch(sid, tally_ops(9, 3)).unwrap();
    ph.wait_idle(sid, WAIT).unwrap();
    let (_, resumed) = run_standalone(&words, &plain, &tally_ops(0, 12)).unwrap();
    assert_eq!(ph.snapshot(sid).unwrap(), resumed);
    promoted.shutdown();
}

/// A session whose snapshot is large and mostly static: the program
/// image carries thousands of padding functions (the machine snapshot
/// includes the loaded code), while the running workload is the tiny
/// `tally` state. A commit therefore dirties a small region of a
/// couple-hundred-kilobyte snapshot — exactly the shape a warm
/// migration should exploit.
fn padded_tally_src(funcs: usize) -> String {
    let mut src = String::from(
        "fun tally s n =\n\
         \x20 let w = putint 1 s in\n\
         \x20 case w of else\n\
         \x20 let t = add s n in\n\
         \x20 result t\n",
    );
    for i in 0..funcs {
        src.push_str(&format!(
            "fun pad{i} s n =\n\
             \x20 let a = add s {} in\n\
             \x20 let b = mul a {} in\n\
             \x20 let c = add b n in\n\
             \x20 result c\n",
            i + 1,
            (i % 97) + 2
        ));
    }
    src.push_str("fun main = result 0");
    src
}

/// Suite 4b: warm migration. When the destination already holds the
/// previous commit (continuous replication), moving the session after a
/// couple more ops ships only the dirtied chunks — under 10% of the
/// snapshot on the wire.
#[test]
fn warm_migration_ships_under_a_tenth_of_the_snapshot() {
    let tmp_a = TempDir::new("warm_a");
    let tmp_b = TempDir::new("warm_b");
    let words = zarf::asm::assemble(&padded_tally_src(5000)).unwrap();
    let choppy = SessionConfig {
        fuel_slice: 1,
        ..SessionConfig::default()
    };

    let dst = Standby::start(tmp_b.path());
    let sink = ReplSink::new(1 << 20);
    let store_a = open_store(tmp_a.path());
    let src = Served::start(FleetConfig {
        workers: 2,
        store: Some(store_a.clone()),
        repl: Some(sink.clone()),
        ..FleetConfig::default()
    });
    let pump = spawn_replicator(
        store_a,
        sink.clone(),
        ReplicatorConfig {
            target: dst.addr.clone(),
            policy: fast_policy(),
            chaos: None,
        },
    )
    .unwrap();
    let h = src.fleet.handle();
    let sid = h.open_program(&words, Some(choppy.clone())).unwrap();
    // Run and replicate a first batch; the full ~quarter-megabyte
    // snapshot crosses the wire once here.
    let seed_ops = 5u64;
    h.inject_batch(sid, tally_ops(0, seed_ops)).unwrap();
    h.wait_idle(sid, WAIT).unwrap();
    wait_for("warm replication", WAIT, || {
        dst.store
            .sessions()
            .into_iter()
            .any(|r| r.id == sid && r.ops_done == seed_ops)
    });
    // Stop continuous replication, then advance the session a little:
    // the destination now holds the *previous* commit, not the latest.
    sink.shutdown();
    pump.join().unwrap();
    h.inject_batch(sid, tally_ops(seed_ops, 2)).unwrap();
    h.wait_idle(sid, WAIT).unwrap();

    let report = migrate_session(&src.addr, &dst.addr, sid, &fast_policy()).unwrap();
    assert!(!report.already, "destination is behind, not current");
    assert!(
        report.bytes_shipped > 0 && report.bytes_shipped * 10 < report.snap_len,
        "warm migration shipped {} of {} snapshot bytes (≥10%)",
        report.bytes_shipped,
        report.snap_len
    );
    let (_, want) = run_standalone(&words, &choppy, &tally_ops(0, seed_ops + 2)).unwrap();
    let _ = dst.stop();
    let store_b = open_store(tmp_b.path());
    assert_eq!(store_b.get_snapshot(sid).unwrap(), want);
    src.stop();
}

/// Suite 4c: a migration that cannot reach its destination resumes the
/// session on the source — never lost in between.
#[test]
fn failed_migration_resumes_on_the_source() {
    let tmp_a = TempDir::new("fail_a");
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let plain = SessionConfig::default();

    let src = Served::start(FleetConfig {
        workers: 2,
        store: Some(open_store(tmp_a.path())),
        ..FleetConfig::default()
    });
    let h = src.fleet.handle();
    let sid = h.open_program(&words, Some(plain.clone())).unwrap();
    h.inject_batch(sid, tally_ops(0, 5)).unwrap();
    h.wait_idle(sid, WAIT).unwrap();

    // A destination that refuses connections: bind then drop.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let err = migrate_session(&src.addr, &dead, sid, &fast_policy());
    assert!(err.is_err(), "migration to a dead destination succeeded");

    // The session thawed and keeps serving on the source.
    h.inject_batch(sid, tally_ops(5, 2)).unwrap();
    h.wait_idle(sid, WAIT).unwrap();
    let (_, want) = run_standalone(&words, &plain, &tally_ops(0, 7)).unwrap();
    assert_eq!(
        h.snapshot(sid).unwrap(),
        want,
        "session diverged after a failed migration"
    );
    src.stop();
}

/// Another fleet runs its first session to commit 12 (one op per slice)
/// in the store at `dir` and shuts down, leaving that record for a
/// standby to serve. Returns the session's id.
fn leave_a_foreign_session(dir: &Path, words: &[u32]) -> u64 {
    let choppy = SessionConfig {
        fuel_slice: 1,
        ..SessionConfig::default()
    };
    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        store: Some(open_store(dir)),
        ..FleetConfig::default()
    })
    .unwrap();
    let h = fleet.handle();
    let id = h.open_program(words, Some(choppy)).unwrap();
    h.inject_batch(id, tally_ops(0, 12)).unwrap();
    h.wait_idle(id, WAIT).unwrap();
    fleet.shutdown();
    id
}

/// A primary fleet replicating to the standby at `target`, with the
/// given lag cap: the fleet, its store and sink, and the pump thread.
fn replicating_primary(
    dir: &Path,
    target: &str,
    lag_cap: u64,
) -> (
    Fleet,
    Arc<Store>,
    Arc<ReplSink>,
    std::thread::JoinHandle<()>,
) {
    let store = open_store(dir);
    let sink = ReplSink::new(lag_cap);
    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        store: Some(store.clone()),
        repl: Some(sink.clone()),
        ..FleetConfig::default()
    })
    .unwrap();
    let pump = spawn_replicator(
        store.clone(),
        sink.clone(),
        ReplicatorConfig {
            target: target.to_string(),
            policy: fast_policy(),
            chaos: None,
        },
    )
    .unwrap();
    (fleet, store, sink, pump)
}

/// Suite 2b: a standby holding another fleet's session 1 at seq 12 does
/// not hold this primary's session 1, so its lag is never released: the
/// pump counts nothing as acked until an `Offer` of the very record is
/// answered `already`, and once the standby refuses the record, lag
/// past the cap sheds injects with a detail naming the refusal.
#[test]
fn a_foreign_record_under_the_same_id_is_never_counted_as_acked() {
    let tmp_a = TempDir::new("foreign_ack_a");
    let tmp_b = TempDir::new("foreign_ack_b");
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let foreign = leave_a_foreign_session(tmp_b.path(), &words);
    let standby = Standby::start(tmp_b.path());
    assert_eq!(standby.store.session(foreign).unwrap().commit_seq, 12);

    let (fleet, store, sink, pump) = replicating_primary(tmp_a.path(), &standby.addr, 1);
    let h = fleet.handle();
    let sid = h.open_program(&words, None).unwrap();
    assert_eq!(sid, foreign, "both fleets number their first session alike");
    for i in 0..2 {
        h.inject(sid, tally_ops(i, 1).remove(0)).unwrap();
        h.wait_idle(sid, WAIT).unwrap();
    }
    assert_eq!(store.session(sid).unwrap().commit_seq, 2);

    // Wait until the pump has settled the session either way: acked, or
    // refused and reported in the overload detail.
    let mut detail = None;
    wait_for("the pump to settle session 1", WAIT, || {
        detail = sink.overloaded().filter(|d| d.contains("parked"));
        detail.is_some() || sink.acked().contains_key(&sid)
    });
    assert_eq!(
        sink.acked().get(&sid),
        None,
        "a foreign record read as acked"
    );
    let detail = detail.unwrap();
    assert!(
        detail.contains("replication lag 2") && detail.contains("held at seq 12"),
        "{detail}"
    );
    let shed = h.inject(sid, tally_ops(2, 1).remove(0));
    assert!(
        matches!(&shed, Err(FleetError::Overloaded(d)) if d.contains("parked")),
        "{shed:?}"
    );

    fleet.shutdown();
    sink.shutdown();
    pump.join().unwrap();
    // The standby still holds the other fleet's record untouched.
    assert_eq!(standby.store.session(foreign).unwrap().commit_seq, 12);
}

/// Suite 2c: a refused session is parked with the standby's reason and
/// the pump ships the others over the same link, instead of retrying
/// the refused one first forever.
#[test]
fn a_refused_session_is_parked_and_the_others_still_ship() {
    let tmp_a = TempDir::new("parked_a");
    let tmp_b = TempDir::new("parked_b");
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let foreign = leave_a_foreign_session(tmp_b.path(), &words);
    let standby = Standby::start(tmp_b.path());

    let (fleet, store, sink, pump) = replicating_primary(tmp_a.path(), &standby.addr, 1 << 20);
    let h = fleet.handle();
    let one = h.open_program(&words, None).unwrap();
    let two = h.open_program(&words, None).unwrap();
    assert_eq!(one, foreign, "both fleets number their first session alike");
    for sid in [one, two] {
        h.inject_batch(sid, tally_ops(0, 3)).unwrap();
        h.wait_idle(sid, WAIT).unwrap();
    }
    let latest = |sid| store.session(sid).unwrap().commit_seq;
    let (seq_one, seq_two) = (latest(one), latest(two));

    wait_for("session 2's commit to be acked", WAIT, || {
        sink.acked().get(&two) == Some(&seq_two)
    });
    wait_for("session 1 to be parked", WAIT, || !sink.parked().is_empty());
    let parked = sink.parked();
    assert_eq!(parked.len(), 1, "{parked:?}");
    let (id, seq, reason) = &parked[0];
    assert_eq!((*id, *seq), (one, seq_one));
    assert!(reason.contains("held at seq 12"), "{reason}");
    assert_eq!(sink.acked().get(&one), None);

    fleet.shutdown();
    sink.shutdown();
    pump.join().unwrap();
    let stats = standby.stop();
    assert!(stats.rejects >= 1, "{stats:?}");
}

/// Suite 4d: session ids are per-fleet counters, so a destination can
/// hold another fleet's session under the same id. Migrating onto it
/// must fail typed and thaw the session on the source: never answer
/// `already` and retire the session onto someone else's bytes.
#[test]
fn migration_onto_a_foreign_record_under_the_same_id_fails_typed() {
    let tmp_a = TempDir::new("foreign_a");
    let tmp_b = TempDir::new("foreign_b");
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let plain = SessionConfig::default();

    let foreign = leave_a_foreign_session(tmp_b.path(), &words);
    let dst = Standby::start(tmp_b.path());
    let held = dst.store.session(foreign).unwrap();

    let store_a = open_store(tmp_a.path());
    let src = Served::start(FleetConfig {
        workers: 2,
        store: Some(store_a.clone()),
        ..FleetConfig::default()
    });
    let h = src.fleet.handle();
    let sid = h.open_program(&words, Some(plain.clone())).unwrap();
    assert_eq!(sid, foreign, "both fleets number their first session alike");
    h.inject_batch(sid, tally_ops(0, 3)).unwrap();
    h.wait_idle(sid, WAIT).unwrap();
    assert!(store_a.session(sid).unwrap().commit_seq < held.commit_seq);

    let err = migrate_session(&src.addr, &dst.addr, sid, &fast_policy());
    assert!(
        matches!(err, Err(FleetError::Remote { code, .. }) if code == REPL_ERR_PROTOCOL),
        "migration onto a foreign record: {err:?}"
    );

    // The session thawed and keeps serving on the source.
    h.inject_batch(sid, tally_ops(3, 2)).unwrap();
    h.wait_idle(sid, WAIT).unwrap();
    let (_, want) = run_standalone(&words, &plain, &tally_ops(0, 5)).unwrap();
    assert_eq!(h.snapshot(sid).unwrap(), want);

    // The destination still holds the other fleet's record untouched.
    let stats = dst.stop();
    assert_eq!(stats.rejects, 1, "{stats:?}");
    assert_eq!(open_store(tmp_b.path()).session(foreign), Some(held));
    src.stop();
}

/// `zarf migrate` end to end: the binary moves a live session from a
/// served fleet onto a standby and prints its report as JSON; pointed at
/// a dead destination it exits nonzero and the session keeps serving on
/// the source.
#[test]
fn zarf_migrate_moves_a_session_or_leaves_it_serving() {
    let tmp_a = TempDir::new("cli_mig_a");
    let tmp_b = TempDir::new("cli_mig_b");
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let plain = SessionConfig::default();

    let src = Served::start(FleetConfig {
        workers: 2,
        store: Some(open_store(tmp_a.path())),
        ..FleetConfig::default()
    });
    let dst = Standby::start(tmp_b.path());
    let h = src.fleet.handle();
    let kept = h.open_program(&words, Some(plain.clone())).unwrap();
    let moved = h.open_program(&words, Some(plain.clone())).unwrap();
    for sid in [kept, moved] {
        h.inject_batch(sid, tally_ops(0, 4)).unwrap();
        h.wait_idle(sid, WAIT).unwrap();
    }
    let migrate = |to: &str, sid: u64| {
        Command::new(env!("CARGO_BIN_EXE_zarf"))
            .args(["migrate", "--from", &src.addr, "--to", to])
            .args(["--session", &sid.to_string()])
            .output()
            .unwrap()
    };

    // A destination that refuses connections: bind then drop.
    let dead = {
        let l = TcpListener::bind("127.0.0.1:0").unwrap();
        l.local_addr().unwrap().to_string()
    };
    let out = migrate(&dead, kept);
    assert!(!out.status.success(), "migration to a dead --to succeeded");
    h.inject_batch(kept, tally_ops(4, 2)).unwrap();
    h.wait_idle(kept, WAIT).unwrap();
    let (_, want) = run_standalone(&words, &plain, &tally_ops(0, 6)).unwrap();
    assert_eq!(h.snapshot(kept).unwrap(), want, "kept session diverged");

    let out = migrate(&dst.addr, moved);
    let stderr = String::from_utf8_lossy(&out.stderr);
    assert!(out.status.success(), "zarf migrate failed: {stderr}");
    let stdout = String::from_utf8(out.stdout).unwrap();
    let report = stdout.lines().next().unwrap_or_default();
    assert!(
        report.contains(&format!("\"session\":{moved},")) && report.contains("\"already\":false"),
        "{report}"
    );
    let chunks: u64 = report
        .split("\"chunks_shipped\":")
        .nth(1)
        .and_then(|rest| rest.split(',').next())
        .and_then(|n| n.parse().ok())
        .unwrap_or_else(|| panic!("no chunks_shipped in {report}"));
    assert!(chunks > 0, "{report}");
    assert!(matches!(h.poll(moved), Err(FleetError::UnknownSession(_))));

    let (_, want) = run_standalone(&words, &plain, &tally_ops(0, 4)).unwrap();
    let stats = dst.stop();
    assert_eq!(stats.rejects, 0, "{stats:?}");
    assert_eq!(open_store(tmp_b.path()).get_snapshot(moved).unwrap(), want);
    src.stop();
}

/// Suite 5: freeze semantics. A quiesced session sheds new injects with
/// a typed `SessionFrozen`; releasing it with `resume` thaws it.
#[test]
fn quiesced_sessions_shed_typed_until_released() {
    let tmp = TempDir::new("freeze");
    let words = zarf::asm::assemble(TALLY_SRC).unwrap();
    let fleet = Fleet::start(FleetConfig {
        workers: 2,
        store: Some(open_store(tmp.path())),
        ..FleetConfig::default()
    })
    .unwrap();
    let h = fleet.handle();
    let sid = h.open_program(&words, None).unwrap();
    h.inject_batch(sid, tally_ops(0, 3)).unwrap();
    let seq = h.quiesce(sid, WAIT).unwrap();
    assert!(seq > 0, "quiesce before any commit");
    assert!(matches!(
        h.inject(sid, Op::step(WORK_ITEM, vec![4], vec![])),
        Err(FleetError::SessionFrozen(id)) if id == sid
    ));
    h.release(sid, true).unwrap();
    h.inject_batch(sid, tally_ops(3, 1)).unwrap();
    h.wait_idle(sid, WAIT).unwrap();
    let (_, want) = run_standalone(&words, &SessionConfig::default(), &tally_ops(0, 4)).unwrap();
    assert_eq!(h.snapshot(sid).unwrap(), want);
    fleet.shutdown();
}
