//! Byte pins for every framed format the workspace writes: one sample
//! each of `ZFLT`, `ZREP`, the `ZMAN` checkpoint, `ZJRN` commit and
//! close records, a `ZCHK` segment record and a two-section `ZSNP`
//! container, compared against fixed hex. Round-trip tests cannot see a
//! byte change that both sides make together; these pins can. Every
//! sample is produced and consumed through public entry points only
//! (the fleet codec, a live `ZREP` receiver, the store's own files, the
//! snapshot section writer), so the pins hold whatever the internals
//! look like.

use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::path::PathBuf;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::time::Duration;

use zarf::fleet::wire::{encode_frame, FrameBuffer, Request};
use zarf::fleet::{serve_repl, Op, PortFeed};
use zarf::hw::{read_sections, SectionWriter};
use zarf::store::{SessionMeta, Store, StoreConfig};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

fn unhex(s: &str) -> Vec<u8> {
    (0..s.len())
        .step_by(2)
        .map(|i| u8::from_str_radix(&s[i..i + 2], 16).unwrap())
        .collect()
}

/// A scratch directory removed on drop.
struct TempDir(PathBuf);

impl TempDir {
    fn new(tag: &str) -> TempDir {
        let dir =
            std::env::temp_dir().join(format!("zarf-wire-formats-{tag}-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&dir);
        TempDir(dir)
    }
}

impl Drop for TempDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.0);
    }
}

const ZFLT_INJECT: &str = concat!(
    "5a464c54",         // magic "ZFLT"
    "01",               // version
    "2a000000",         // payload length 42
    "03",               // opcode Inject
    "0700000000000000", // session 7
    "01",               // op tag Step
    "01010000",         // item 0x101
    "02000000",         // 2 args
    "05000000ffffffff", // 5, -1
    "01000000",         // 1 port feed
    "02000000",         // port 2
    "0100000009000000", // words [9]
    "8e02fd08",         // CRC-32 of the payload
);

#[test]
fn zflt_frame_bytes_are_pinned() {
    let req = Request::Inject {
        session: 7,
        op: Op::step(
            0x101,
            vec![5, -1],
            vec![PortFeed {
                port: 2,
                words: vec![9],
            }],
        ),
    };
    let frame = encode_frame(&req.encode());
    assert_eq!(hex(&frame), ZFLT_INJECT);
    let mut fb = FrameBuffer::new();
    fb.extend_from_slice(&unhex(ZFLT_INJECT));
    let payload = fb.next_frame().unwrap().unwrap();
    assert_eq!(Request::decode(payload).unwrap(), req);
}

/// The link-opening `Hello`, and the receiver's bodiless `HelloAck`.
const ZREP_HELLO: &str = concat!(
    "5a524550", // magic "ZREP"
    "01",       // version
    "01000000", // payload length 1
    "01",       // opcode Hello
    "1bdf05a5", // CRC-32 of the payload
);
const ZREP_HELLO_ACK: &str = concat!(
    "5a524550", // magic "ZREP"
    "01",       // version
    "01000000", // payload length 1
    "02",       // opcode HelloAck
    "a18e0c3c", // CRC-32 of the payload
);
/// An `Offer` of session 9 at commit 4 naming chunks `11…`, `22…`,
/// `11…` (none held by the receiver).
const ZREP_OFFER: &str = concat!(
    "5a524550",                         // magic "ZREP"
    "01",                               // version
    "7e000000",                         // payload length 126
    "03",                               // opcode Offer
    "0900000000000000",                 // id 9
    "0400000000000000",                 // commit_seq 4
    "1e00000000000000",                 // ops_done 30
    "0020000000000000",                 // heap_words 8192
    "f401000000000000",                 // op_budget 500
    "8000000000000000",                 // fuel_slice 128
    "01",                               // verified
    "6000000000000000",                 // snap_len 96
    "5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a5a", // snap_hash
    "03000000",                         // 3 chunks
    "11111111111111111111111111111111",
    "22222222222222222222222222222222",
    "11111111111111111111111111111111",
    "cce5e06d", // CRC-32 of the payload
);
/// The receiver's `Need { already: false, chunks: [11…, 22…] }`.
const ZREP_NEED: &str = concat!(
    "5a524550", // magic "ZREP"
    "01",       // version
    "26000000", // payload length 38
    "04",       // opcode Need
    "00",       // already = false
    "02000000", // 2 chunks
    "11111111111111111111111111111111",
    "22222222222222222222222222222222",
    "b03e7dc0", // CRC-32 of the payload
);

/// Read one whole `ZREP` frame: the 9-byte header, payload and CRC.
fn read_zrep_frame(link: &mut TcpStream) -> Vec<u8> {
    let mut frame = vec![0u8; 9];
    link.read_exact(&mut frame).unwrap();
    let len = u32::from_le_bytes([frame[5], frame[6], frame[7], frame[8]]) as usize;
    frame.resize(9 + len + 4, 0);
    link.read_exact(&mut frame[9..]).unwrap();
    frame
}

#[test]
fn zrep_frame_bytes_are_pinned() {
    let dir = TempDir::new("zrep");
    let store = Arc::new(Store::open(&dir.0, StoreConfig::default()).unwrap());
    let listener = TcpListener::bind("127.0.0.1:0").unwrap();
    let addr = listener.local_addr().unwrap();
    let stop = Arc::new(AtomicBool::new(false));
    let receiver = {
        let (store, stop) = (store.clone(), stop.clone());
        std::thread::spawn(move || serve_repl(listener, store, stop))
    };
    let mut link = TcpStream::connect(addr).unwrap();
    link.set_read_timeout(Some(Duration::from_secs(30)))
        .unwrap();
    link.write_all(&unhex(ZREP_HELLO)).unwrap();
    assert_eq!(hex(&read_zrep_frame(&mut link)), ZREP_HELLO_ACK);
    link.write_all(&unhex(ZREP_OFFER)).unwrap();
    assert_eq!(hex(&read_zrep_frame(&mut link)), ZREP_NEED);
    drop(link);
    stop.store(true, Ordering::SeqCst);
    receiver.join().unwrap().unwrap();
}

/// The segment after one 40-byte chunk: `ZSEG` header + one `ZCHK` record.
const ZSEG_ONE_CHUNK: &str = concat!(
    "5a534547",                         // magic "ZSEG"
    "01000000",                         // version 1
    "5a43484b",                         // record magic "ZCHK"
    "28000000",                         // payload length 40
    "503edc454a469f38deddcbbf2f5c6c93", // content hash
    "00254a6f94b9de03284d7297bce1062b50759abfe4092e53789dc2e70c31567ba0c5ea0f34597ea3", // payload
    "61d7a113",                         // CRC-32 of hash ‖ payload
);
/// `ZJRN` commit of session 1, then `ZJRN` close of session 2.
const ZJRN_COMMIT_CLOSE: &str = concat!(
    "5a4a524e",                         // magic "ZJRN"
    "5e000000",                         // body length 94
    "01",                               // type commit
    "0100000000000000",                 // id 1
    "0300000000000000",                 // commit_seq 3
    "0c00000000000000",                 // ops_done 12
    "0010000000000000",                 // heap_words 4096
    "e803000000000000",                 // op_budget 1000
    "4000000000000000",                 // fuel_slice 64
    "01",                               // verified
    "2800000000000000",                 // snap_len 40
    "503edc454a469f38deddcbbf2f5c6c93", // snap_hash
    "01000000",                         // 1 chunk
    "503edc454a469f38deddcbbf2f5c6c93",
    "a3c4d768",         // CRC-32 of the body
    "5a4a524e",         // magic "ZJRN"
    "09000000",         // body length 9
    "02",               // type close
    "0200000000000000", // id 2
    "553bda8a",         // CRC-32 of the body
);
/// The `ZMAN` checkpoint folding that journal in.
const ZMAN_CHECKPOINT: &str = concat!(
    "5a4d414e",                         // magic "ZMAN"
    "01000000",                         // version 1
    "69000000",                         // body length 105
    "0200000000000000",                 // max_id 2
    "01000000",                         // 1 session
    "0100000000000000",                 // id 1
    "0300000000000000",                 // commit_seq 3
    "0c00000000000000",                 // ops_done 12
    "0010000000000000",                 // heap_words 4096
    "e803000000000000",                 // op_budget 1000
    "4000000000000000",                 // fuel_slice 64
    "01",                               // verified
    "2800000000000000",                 // snap_len 40
    "503edc454a469f38deddcbbf2f5c6c93", // snap_hash
    "01000000",                         // 1 chunk
    "503edc454a469f38deddcbbf2f5c6c93",
    "69bca8e4", // CRC-32 of the body
);

#[test]
fn store_file_bytes_are_pinned() {
    let dir = TempDir::new("store");
    let cfg = StoreConfig {
        fsync: false,
        ..StoreConfig::default()
    };
    let snapshot: Vec<u8> = (0..40u8).map(|i| i.wrapping_mul(37)).collect();
    let meta = SessionMeta {
        id: 1,
        commit_seq: 3,
        ops_done: 12,
        heap_words: 4096,
        op_budget: 1000,
        fuel_slice: 64,
        verified: true,
    };
    {
        let store = Store::open(&dir.0, cfg.clone()).unwrap();
        store.put_session(&meta, &snapshot).unwrap();
        store.remove_session(2).unwrap();
        let journal = std::fs::read(dir.0.join("store.jrnl")).unwrap();
        assert_eq!(hex(&journal), ZJRN_COMMIT_CLOSE);
        store.flush().unwrap();
    }
    let segment = std::fs::read(dir.0.join("seg-000001.zseg")).unwrap();
    assert_eq!(hex(&segment), ZSEG_ONE_CHUNK);
    let manifest = std::fs::read(dir.0.join("store.zman")).unwrap();
    assert_eq!(hex(&manifest), ZMAN_CHECKPOINT);

    // The pinned files decode back to the committed state.
    let store = Store::open(&dir.0, cfg).unwrap();
    assert_eq!(store.next_session_floor(), 3);
    let rec = store.session(1).unwrap();
    assert_eq!((rec.commit_seq, rec.ops_done, rec.verified), (3, 12, true));
    assert_eq!(store.get_snapshot(1).unwrap(), snapshot);
}

const ZSNP_TWO_SECTIONS: &str = concat!(
    "5a534e50", // magic "ZSNP"
    "01000000", // version 1
    "02000000", // 2 sections
    "01000000", // tag 1
    "04000000", // length 4
    "636f6465", // "code"
    "98301577", // CRC-32
    "10000000", // tag 16
    "03000000", // length 3
    "ff0007", "5c78bddf", // CRC-32
);

#[test]
fn zsnp_container_bytes_are_pinned() {
    let mut w = SectionWriter::new();
    w.section(1, b"code");
    w.section(16, &[0xFF, 0, 7]);
    let bytes = w.finish();
    assert_eq!(hex(&bytes), ZSNP_TWO_SECTIONS);
    let pinned = unhex(ZSNP_TWO_SECTIONS);
    let sections = read_sections(&pinned).unwrap();
    assert_eq!(sections, vec![(1, &b"code"[..]), (16, &[0xFF, 0, 7][..])]);
}
