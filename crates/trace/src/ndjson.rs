//! Newline-delimited JSON serialization of trace events.
//!
//! One event per line, `{"ev": "<kind>", …}`. Hand-rolled — the schema is
//! tiny and the workspace builds without external crates. The schema is
//! documented in DESIGN.md §Observability and covered by a golden test.

use std::fmt::Write as _;
use std::io::{self, Write};

use crate::{Event, TraceSink};

/// Append `s` to `out` as a quoted JSON string: `"` and `\` escaped,
/// the common control characters as `\n` `\r` `\t`, and every other
/// byte below 0x20 as `\u00XX`. The one JSON string escaper in the
/// workspace; every hand-rolled JSON writer goes through it.
pub fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Serialize one event as a single JSON object (no trailing newline).
pub fn to_json(e: &Event) -> String {
    let mut s = String::with_capacity(64);
    match e {
        Event::Instr { pc, class } => {
            let _ = write!(
                s,
                r#"{{"ev":"instr","pc":{pc},"class":"{}"}}"#,
                class.name()
            );
        }
        Event::Cycles {
            class,
            item,
            cycles,
        } => {
            let _ = write!(s, r#"{{"ev":"cycles","class":"{}","#, class.name());
            match item {
                Some(id) => {
                    let _ = write!(s, r#""item":{id},"#);
                }
                None => s.push_str(r#""item":null,"#),
            }
            let _ = write!(s, r#""cycles":{cycles}}}"#);
        }
        Event::Alloc { words, heap_words } => {
            let _ = write!(
                s,
                r#"{{"ev":"alloc","words":{words},"heap_words":{heap_words}}}"#
            );
        }
        Event::GcStart { heap_words } => {
            let _ = write!(s, r#"{{"ev":"gc_start","heap_words":{heap_words}}}"#);
        }
        Event::GcEnd {
            pause_cycles,
            objects_copied,
            words_copied,
            words_reclaimed,
        } => {
            let _ = write!(
                s,
                r#"{{"ev":"gc_end","pause_cycles":{pause_cycles},"objects_copied":{objects_copied},"words_copied":{words_copied},"words_reclaimed":{words_reclaimed}}}"#
            );
        }
        Event::ChannelPush { port, word, depth } => {
            let _ = write!(
                s,
                r#"{{"ev":"chan_push","port":{port},"word":{word},"depth":{depth}}}"#
            );
        }
        Event::ChannelPop { port, word, depth } => {
            let _ = write!(
                s,
                r#"{{"ev":"chan_pop","port":{port},"word":{word},"depth":{depth}}}"#
            );
        }
        Event::IoRead { port, value } => {
            let _ = write!(s, r#"{{"ev":"io_read","port":{port},"value":{value}}}"#);
        }
        Event::IoWrite { port, value } => {
            let _ = write!(s, r#"{{"ev":"io_write","port":{port},"value":{value}}}"#);
        }
        Event::CoroutineEnter { id } => {
            let _ = write!(s, r#"{{"ev":"coro_enter","id":{id}}}"#);
        }
        Event::CoroutineExit { id } => {
            let _ = write!(s, r#"{{"ev":"coro_exit","id":{id}}}"#);
        }
        Event::Bind { engine, var, value } => {
            let _ = write!(s, r#"{{"ev":"bind","engine":"{engine}","var":"#);
            push_json_str(&mut s, var);
            s.push_str(r#","value":"#);
            push_json_str(&mut s, value);
            s.push('}');
        }
        Event::Dispatch {
            engine,
            scrutinee,
            branch,
        } => {
            let _ = write!(s, r#"{{"ev":"dispatch","engine":"{engine}","scrutinee":"#);
            push_json_str(&mut s, scrutinee);
            s.push_str(r#","branch":"#);
            push_json_str(&mut s, branch);
            s.push('}');
        }
        Event::Yield { engine, value } => {
            let _ = write!(s, r#"{{"ev":"yield","engine":"{engine}","value":"#);
            push_json_str(&mut s, value);
            s.push('}');
        }
        Event::FaultInjected {
            site,
            kind,
            op,
            detail,
        } => {
            let _ = write!(
                s,
                r#"{{"ev":"fault","site":"{site}","kind":"{kind}","op":{op},"detail":{detail}}}"#
            );
        }
        Event::WatchdogDetect {
            coroutine,
            iteration,
            cause,
        } => {
            let _ = write!(
                s,
                r#"{{"ev":"wd_detect","coroutine":{coroutine},"iteration":{iteration},"cause":"{cause}"}}"#
            );
        }
        Event::WatchdogRecover {
            coroutine,
            iteration,
            action,
        } => {
            let _ = write!(
                s,
                r#"{{"ev":"wd_recover","coroutine":{coroutine},"iteration":{iteration},"action":"{action}"}}"#
            );
        }
        Event::ChannelOverflow {
            port,
            dropped,
            depth,
        } => {
            let _ = write!(
                s,
                r#"{{"ev":"chan_overflow","port":{port},"dropped":{dropped},"depth":{depth}}}"#
            );
        }
        Event::CheckpointCapture { iteration, bytes } => {
            let _ = write!(
                s,
                r#"{{"ev":"ckpt_capture","iteration":{iteration},"bytes":{bytes}}}"#
            );
        }
        Event::CheckpointRollback {
            from_iteration,
            to_iteration,
            cause,
        } => {
            let _ = write!(
                s,
                r#"{{"ev":"ckpt_rollback","from":{from_iteration},"to":{to_iteration},"cause":"{cause}"}}"#
            );
        }
        Event::AuditFail { iteration, error } => {
            let _ = write!(
                s,
                r#"{{"ev":"audit_fail","iteration":{iteration},"error":"{error}"}}"#
            );
        }
    }
    s
}

/// Sink writing one JSON line per event to any `io::Write`.
pub struct NdjsonSink<W: Write> {
    w: W,
    lines: u64,
    error: Option<io::Error>,
}

impl<W: Write> NdjsonSink<W> {
    /// Write events to `w` (wrap files in `BufWriter`).
    pub fn new(w: W) -> Self {
        NdjsonSink {
            w,
            lines: 0,
            error: None,
        }
    }

    /// Lines written so far.
    pub fn lines(&self) -> u64 {
        self.lines
    }

    /// Flush and return the writer; surfaces any deferred write error.
    pub fn finish(mut self) -> io::Result<W> {
        if let Some(e) = self.error.take() {
            return Err(e);
        }
        self.w.flush()?;
        Ok(self.w)
    }
}

impl<W: Write> TraceSink for NdjsonSink<W> {
    fn event(&mut self, e: &Event) {
        if self.error.is_some() {
            return;
        }
        let line = to_json(e);
        if let Err(err) = self
            .w
            .write_all(line.as_bytes())
            .and_then(|()| self.w.write_all(b"\n"))
        {
            self.error = Some(err);
        } else {
            self.lines += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{Engine, InstrClass};

    #[test]
    fn events_serialize_to_stable_json() {
        assert_eq!(
            to_json(&Event::Instr {
                pc: 18,
                class: InstrClass::Let
            }),
            r#"{"ev":"instr","pc":18,"class":"let"}"#
        );
        assert_eq!(
            to_json(&Event::Cycles {
                class: InstrClass::Case,
                item: None,
                cycles: 7
            }),
            r#"{"ev":"cycles","class":"case","item":null,"cycles":7}"#
        );
        assert_eq!(
            to_json(&Event::Cycles {
                class: InstrClass::Case,
                item: Some(256),
                cycles: 7
            }),
            r#"{"ev":"cycles","class":"case","item":256,"cycles":7}"#
        );
        assert_eq!(
            to_json(&Event::GcEnd {
                pause_cycles: 100,
                objects_copied: 2,
                words_copied: 8,
                words_reclaimed: 40
            }),
            r#"{"ev":"gc_end","pause_cycles":100,"objects_copied":2,"words_copied":8,"words_reclaimed":40}"#
        );
        assert_eq!(
            to_json(&Event::Bind {
                engine: Engine::Big,
                var: "v\"1\"".into(),
                value: "C1(λ)\n".into()
            }),
            r#"{"ev":"bind","engine":"big-step","var":"v\"1\"","value":"C1(λ)\n"}"#
        );
        assert_eq!(
            to_json(&Event::FaultInjected {
                site: "alloc",
                kind: "bit_flip",
                op: 17,
                detail: 5
            }),
            r#"{"ev":"fault","site":"alloc","kind":"bit_flip","op":17,"detail":5}"#
        );
        assert_eq!(
            to_json(&Event::WatchdogDetect {
                coroutine: 2,
                iteration: 40,
                cause: "overrun"
            }),
            r#"{"ev":"wd_detect","coroutine":2,"iteration":40,"cause":"overrun"}"#
        );
        assert_eq!(
            to_json(&Event::WatchdogRecover {
                coroutine: 4,
                iteration: 40,
                action: "restart"
            }),
            r#"{"ev":"wd_recover","coroutine":4,"iteration":40,"action":"restart"}"#
        );
        assert_eq!(
            to_json(&Event::ChannelOverflow {
                port: 100,
                dropped: -7,
                depth: 8
            }),
            r#"{"ev":"chan_overflow","port":100,"dropped":-7,"depth":8}"#
        );
        assert_eq!(
            to_json(&Event::CheckpointCapture {
                iteration: 16,
                bytes: 2048
            }),
            r#"{"ev":"ckpt_capture","iteration":16,"bytes":2048}"#
        );
        assert_eq!(
            to_json(&Event::CheckpointRollback {
                from_iteration: 21,
                to_iteration: 16,
                cause: "overrun"
            }),
            r#"{"ev":"ckpt_rollback","from":21,"to":16,"cause":"overrun"}"#
        );
        assert_eq!(
            to_json(&Event::AuditFail {
                iteration: 24,
                error: "crc-mismatch"
            }),
            r#"{"ev":"audit_fail","iteration":24,"error":"crc-mismatch"}"#
        );
    }

    #[test]
    fn sink_writes_one_line_per_event() {
        let mut sink = NdjsonSink::new(Vec::new());
        sink.event(&Event::IoRead { port: 0, value: -3 });
        sink.event(&Event::IoWrite { port: 1, value: 4 });
        assert_eq!(sink.lines(), 2);
        let bytes = sink.finish().unwrap();
        let text = String::from_utf8(bytes).unwrap();
        assert_eq!(
            text,
            "{\"ev\":\"io_read\",\"port\":0,\"value\":-3}\n{\"ev\":\"io_write\",\"port\":1,\"value\":4}\n"
        );
    }
}
