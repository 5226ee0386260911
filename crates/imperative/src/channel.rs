//! The inter-layer communication channel.
//!
//! Zarf's two layers are "connected only via a communication channel
//! through which the system components can pass values" (§1, property 2).
//! This module is that channel: a pair of word-wide FIFOs with two
//! endpoints, each of which implements [`IoPorts`] so that either a [`Hw`]
//! λ-layer instance or a [`Cpu`] imperative core (or a test harness) can
//! sit on either side.
//!
//! Port conventions at each endpoint:
//!
//! * [`CHANNEL_PORT`] — reads dequeue from the peer's transmit FIFO
//!   (failing with `PortEmpty` when none is available, like a real
//!   status-checked FIFO read); writes enqueue toward the peer.
//! * [`CHANNEL_STATUS_PORT`] — reads return how many words are waiting, so
//!   software can poll instead of blocking.
//!
//! Any other port number is forwarded to the endpoint's *external* device,
//! so an endpoint can simultaneously own sensor/actuator ports and the
//! channel (this is how the I/O coroutine reaches the heart interface while
//! the monitor coroutine reaches the imperative layer).
//!
//! [`Hw`]: ../../zarf_hw/machine/struct.Hw.html
//! [`Cpu`]: crate::cpu::Cpu

use std::cell::RefCell;
use std::collections::VecDeque;
use std::rc::Rc;

use zarf_chaos::{ChaosHandle, FaultKind, FaultSite};
use zarf_core::error::IoError;
use zarf_core::io::{IoPorts, NullPorts};
use zarf_core::Int;
use zarf_trace::{Event, SinkHandle, TraceSink};

/// Port number carrying channel data at each endpoint.
pub const CHANNEL_PORT: Int = 100;
/// Port number reporting the number of waiting words.
pub const CHANNEL_STATUS_PORT: Int = 101;

/// Default per-direction FIFO capacity, in words. Generous enough that a
/// well-behaved workload never notices the bound, small enough that a
/// runaway producer hits backpressure instead of exhausting host memory.
pub const DEFAULT_CHANNEL_CAPACITY: usize = 64 * 1024;

/// What a full FIFO does with one more word.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum OverflowPolicy {
    /// Refuse the word non-destructively: the write fails with
    /// [`IoError::PortFull`] and may be retried once the consumer drains
    /// (backpressure — the hardware-FIFO behaviour).
    #[default]
    Block,
    /// Evict the oldest queued word to make room, recording the loss. The
    /// write itself always succeeds (freshness-over-completeness, the
    /// telemetry-stream behaviour).
    DropOldest,
    /// Refuse the word *and* count the incident as an overflow fault.
    Error,
}

/// Capacity and overflow behaviour shared by both directions of a channel.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ChannelConfig {
    /// Maximum words queued per direction; writes beyond this invoke the
    /// policy. Zero is clamped to one.
    pub capacity: usize,
    /// What happens to a write when the direction is at capacity.
    pub policy: OverflowPolicy,
}

impl Default for ChannelConfig {
    fn default() -> Self {
        ChannelConfig {
            capacity: DEFAULT_CHANNEL_CAPACITY,
            policy: OverflowPolicy::Block,
        }
    }
}

/// How the channel disposed of one pushed word.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PushOutcome {
    /// The word was enqueued; payload is the post-push depth.
    Accepted(usize),
    /// The word was enqueued after evicting the oldest queued word
    /// (payload) under [`OverflowPolicy::DropOldest`].
    Evicted(Int),
    /// The word was refused: the FIFO is at capacity under a refusing
    /// policy. Nothing was enqueued.
    Refused,
}

#[derive(Debug, Default)]
struct Fifos {
    a_to_b: VecDeque<Int>,
    b_to_a: VecDeque<Int>,
    config: ChannelConfig,
    /// Overflow incidents (evictions + refusals under `Error`) since
    /// creation, across both directions.
    overflows: u64,
}

impl Fifos {
    /// Apply the configured policy to push `value` onto `q`.
    fn push(q: &mut VecDeque<Int>, config: ChannelConfig, value: Int) -> PushOutcome {
        let cap = config.capacity.max(1);
        if q.len() < cap {
            q.push_back(value);
            return PushOutcome::Accepted(q.len());
        }
        match config.policy {
            OverflowPolicy::Block | OverflowPolicy::Error => PushOutcome::Refused,
            OverflowPolicy::DropOldest => {
                let dropped = q.pop_front().unwrap_or(0);
                q.push_back(value);
                PushOutcome::Evicted(dropped)
            }
        }
    }
}

/// Which side of the channel an endpoint is.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Side {
    A,
    B,
}

/// One endpoint of the channel, wrapping an external device for all
/// non-channel ports.
#[derive(Debug)]
pub struct Endpoint<E> {
    fifos: Rc<RefCell<Fifos>>,
    side: Side,
    /// The device handling every non-channel port.
    pub external: E,
    sink: SinkHandle,
    chaos: Option<ChaosHandle>,
}

/// Create a connected channel whose endpoints have no external devices.
pub fn channel() -> (Endpoint<NullPorts>, Endpoint<NullPorts>) {
    channel_with(NullPorts, NullPorts)
}

/// Create a connected channel with explicit external devices on each side.
pub fn channel_with<A, B>(a_external: A, b_external: B) -> (Endpoint<A>, Endpoint<B>) {
    let fifos = Rc::new(RefCell::new(Fifos::default()));
    (
        Endpoint {
            fifos: Rc::clone(&fifos),
            side: Side::A,
            external: a_external,
            sink: SinkHandle::none(),
            chaos: None,
        },
        Endpoint {
            fifos,
            side: Side::B,
            external: b_external,
            sink: SinkHandle::none(),
            chaos: None,
        },
    )
}

impl<E> Endpoint<E> {
    /// Install a trace sink: channel traffic through this endpoint emits
    /// [`Event::ChannelPush`] / [`Event::ChannelPop`] (with the post-
    /// operation queue depth). Each endpoint is traced independently.
    pub fn set_sink(&mut self, sink: Box<dyn TraceSink>) {
        self.sink.set(sink);
    }

    /// Remove and return the installed sink, if any.
    pub fn take_sink(&mut self) -> Option<Box<dyn TraceSink>> {
        self.sink.take()
    }

    /// Install (or clear) a deterministic fault-injection handle. Words
    /// written through this endpoint's [`CHANNEL_PORT`] consult it and may
    /// be dropped, duplicated, or corrupted ([`FaultSite::ChannelPush`]).
    pub fn set_chaos(&mut self, chaos: Option<ChaosHandle>) {
        self.chaos = chaos;
    }

    /// Reconfigure the shared capacity/overflow policy (both directions,
    /// both endpoints — the FIFOs are one piece of hardware).
    pub fn set_channel_config(&self, config: ChannelConfig) {
        self.fifos.borrow_mut().config = config;
    }

    /// Overflow incidents (evictions and refusals under
    /// [`OverflowPolicy::Error`]) since the channel was created.
    pub fn overflows(&self) -> u64 {
        self.fifos.borrow().overflows
    }

    /// Capture both FIFO directions and the overflow counter for a
    /// checkpoint: `(a_to_b, b_to_a, overflows)`, front of queue first.
    /// Configuration, chaos, and sinks are not state — they survive a
    /// rollback unchanged.
    pub fn fifo_state(&self) -> (Vec<Int>, Vec<Int>, u64) {
        let f = self.fifos.borrow();
        (
            f.a_to_b.iter().copied().collect(),
            f.b_to_a.iter().copied().collect(),
            f.overflows,
        )
    }

    /// Rewind both FIFO directions and the overflow counter to a
    /// previously captured state (affects both endpoints — the FIFOs are
    /// one piece of hardware).
    pub fn restore_fifo_state(&self, a_to_b: &[Int], b_to_a: &[Int], overflows: u64) {
        let mut f = self.fifos.borrow_mut();
        f.a_to_b = a_to_b.iter().copied().collect();
        f.b_to_a = b_to_a.iter().copied().collect();
        f.overflows = overflows;
    }

    /// Words waiting to be read at this endpoint.
    pub fn pending(&self) -> usize {
        let f = self.fifos.borrow();
        match self.side {
            Side::A => f.b_to_a.len(),
            Side::B => f.a_to_b.len(),
        }
    }

    /// Push a word toward this endpoint from outside (the untrusted-input
    /// hook). Bounded like every other path into the FIFO: the outcome says
    /// whether the word was queued, queued by evicting the oldest word, or
    /// refused at capacity.
    pub fn inject(&mut self, word: Int) -> PushOutcome {
        let (outcome, depth) = {
            let mut f = self.fifos.borrow_mut();
            let config = f.config;
            let q = match self.side {
                Side::A => &mut f.b_to_a,
                Side::B => &mut f.a_to_b,
            };
            let outcome = Fifos::push(q, config, word);
            let depth = q.len();
            if !matches!(outcome, PushOutcome::Accepted(_)) {
                f.overflows += 1;
            }
            (outcome, depth)
        };
        match outcome {
            PushOutcome::Accepted(_) => {}
            PushOutcome::Evicted(dropped) => {
                self.sink.emit(|| Event::ChannelOverflow {
                    port: CHANNEL_PORT as i64,
                    dropped: dropped as i64,
                    depth,
                });
            }
            PushOutcome::Refused => {
                self.sink.emit(|| Event::ChannelOverflow {
                    port: CHANNEL_PORT as i64,
                    dropped: word as i64,
                    depth,
                });
            }
        }
        outcome
    }

    /// Enqueue one word toward the peer, applying capacity policy and
    /// emitting the matching events. Shared by `putint` and fault-induced
    /// duplicates.
    fn push_toward_peer(&mut self, value: Int) -> Result<Int, IoError> {
        let (outcome, depth) = {
            let mut f = self.fifos.borrow_mut();
            let config = f.config;
            let q = match self.side {
                Side::A => &mut f.a_to_b,
                Side::B => &mut f.b_to_a,
            };
            let outcome = Fifos::push(q, config, value);
            let depth = q.len();
            if !matches!(outcome, PushOutcome::Accepted(_)) {
                f.overflows += 1;
            }
            (outcome, depth)
        };
        match outcome {
            PushOutcome::Accepted(_) => {
                self.sink.emit(|| Event::ChannelPush {
                    port: CHANNEL_PORT as i64,
                    word: value as i64,
                    depth,
                });
                Ok(value)
            }
            PushOutcome::Evicted(dropped) => {
                self.sink.emit(|| Event::ChannelOverflow {
                    port: CHANNEL_PORT as i64,
                    dropped: dropped as i64,
                    depth,
                });
                self.sink.emit(|| Event::ChannelPush {
                    port: CHANNEL_PORT as i64,
                    word: value as i64,
                    depth,
                });
                Ok(value)
            }
            PushOutcome::Refused => {
                self.sink.emit(|| Event::ChannelOverflow {
                    port: CHANNEL_PORT as i64,
                    dropped: value as i64,
                    depth,
                });
                Err(IoError::PortFull(CHANNEL_PORT))
            }
        }
    }

    /// Consult the fault plan for one channel push. Returns the (possibly
    /// corrupted) word to send, `None` to silently drop it, and whether to
    /// send it twice.
    fn consult_chaos(&mut self, value: Int) -> (Option<Int>, bool) {
        let Some(chaos) = &self.chaos else {
            return (Some(value), false);
        };
        let Some(kind) = chaos.next(FaultSite::ChannelPush) else {
            return (Some(value), false);
        };
        let op = chaos.ops(FaultSite::ChannelPush) - 1;
        self.sink.emit(|| Event::FaultInjected {
            site: FaultSite::ChannelPush.name(),
            kind: kind.name(),
            op,
            detail: kind.detail(),
        });
        match kind {
            FaultKind::ChanDrop => (None, false),
            FaultKind::ChanDup => (Some(value), true),
            FaultKind::ChanCorrupt { xor } => (Some(value ^ xor), false),
            // Faults planned for other sites never reach here.
            _ => (Some(value), false),
        }
    }
}

impl<E: IoPorts> IoPorts for Endpoint<E> {
    fn getint(&mut self, port: Int) -> Result<Int, IoError> {
        match port {
            CHANNEL_PORT => {
                let (word, depth) = {
                    let mut f = self.fifos.borrow_mut();
                    let q = match self.side {
                        Side::A => &mut f.b_to_a,
                        Side::B => &mut f.a_to_b,
                    };
                    let w = q.pop_front().ok_or(IoError::PortEmpty(CHANNEL_PORT))?;
                    (w, q.len())
                };
                self.sink.emit(|| Event::ChannelPop {
                    port: CHANNEL_PORT as i64,
                    word: word as i64,
                    depth,
                });
                Ok(word)
            }
            CHANNEL_STATUS_PORT => Ok(self.pending() as Int),
            other => self.external.getint(other),
        }
    }

    fn putint(&mut self, port: Int, value: Int) -> Result<Int, IoError> {
        match port {
            CHANNEL_PORT => {
                let (word, dup) = self.consult_chaos(value);
                let Some(word) = word else {
                    // Dropped in flight: the writer saw a successful send.
                    return Ok(value);
                };
                self.push_toward_peer(word)?;
                if dup {
                    // The duplicate is subject to the same capacity policy,
                    // but its refusal is the fault's problem, not the
                    // writer's.
                    let _ = self.push_toward_peer(word);
                }
                // The writer always observes the word it asked to send,
                // even when a fault corrupted it in flight.
                Ok(value)
            }
            CHANNEL_STATUS_PORT => Err(IoError::NoSuchPort(CHANNEL_STATUS_PORT)),
            other => self.external.putint(other, value),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_core::io::VecPorts;

    #[test]
    fn words_cross_the_channel_in_order() {
        let (mut a, mut b) = channel();
        a.putint(CHANNEL_PORT, 1).unwrap();
        a.putint(CHANNEL_PORT, 2).unwrap();
        assert_eq!(b.pending(), 2);
        assert_eq!(b.getint(CHANNEL_PORT), Ok(1));
        assert_eq!(b.getint(CHANNEL_PORT), Ok(2));
        assert_eq!(
            b.getint(CHANNEL_PORT),
            Err(IoError::PortEmpty(CHANNEL_PORT))
        );
    }

    #[test]
    fn directions_are_independent() {
        let (mut a, mut b) = channel();
        a.putint(CHANNEL_PORT, 10).unwrap();
        b.putint(CHANNEL_PORT, 20).unwrap();
        assert_eq!(a.getint(CHANNEL_PORT), Ok(20));
        assert_eq!(b.getint(CHANNEL_PORT), Ok(10));
    }

    #[test]
    fn status_port_reports_depth() {
        let (mut a, mut b) = channel();
        assert_eq!(b.getint(CHANNEL_STATUS_PORT), Ok(0));
        a.putint(CHANNEL_PORT, 5).unwrap();
        assert_eq!(b.getint(CHANNEL_STATUS_PORT), Ok(1));
        b.getint(CHANNEL_PORT).unwrap();
        assert_eq!(b.getint(CHANNEL_STATUS_PORT), Ok(0));
    }

    #[test]
    fn external_ports_pass_through() {
        let mut ext = VecPorts::new();
        ext.push_input(0, [7]);
        let (mut a, _b) = channel_with(ext, NullPorts);
        assert_eq!(a.getint(0), Ok(7));
        a.putint(1, 9).unwrap();
        assert_eq!(a.external.output(1), &[9]);
        // Channel traffic does not leak into the external device.
        a.putint(CHANNEL_PORT, 1).unwrap();
        assert_eq!(a.external.output(CHANNEL_PORT), &[] as &[i32]);
    }

    #[test]
    fn block_policy_refuses_at_capacity_and_recovers() {
        let (mut a, mut b) = channel();
        a.set_channel_config(ChannelConfig {
            capacity: 2,
            policy: OverflowPolicy::Block,
        });
        a.putint(CHANNEL_PORT, 1).unwrap();
        a.putint(CHANNEL_PORT, 2).unwrap();
        assert_eq!(
            a.putint(CHANNEL_PORT, 3),
            Err(IoError::PortFull(CHANNEL_PORT))
        );
        assert_eq!(a.overflows(), 1);
        // Draining one word makes the retry succeed; nothing was lost.
        assert_eq!(b.getint(CHANNEL_PORT), Ok(1));
        a.putint(CHANNEL_PORT, 3).unwrap();
        assert_eq!(b.getint(CHANNEL_PORT), Ok(2));
        assert_eq!(b.getint(CHANNEL_PORT), Ok(3));
    }

    #[test]
    fn drop_oldest_policy_keeps_freshest_words() {
        let (mut a, mut b) = channel();
        a.set_channel_config(ChannelConfig {
            capacity: 2,
            policy: OverflowPolicy::DropOldest,
        });
        a.putint(CHANNEL_PORT, 1).unwrap();
        a.putint(CHANNEL_PORT, 2).unwrap();
        a.putint(CHANNEL_PORT, 3).unwrap();
        assert_eq!(a.overflows(), 1);
        assert_eq!(b.getint(CHANNEL_PORT), Ok(2));
        assert_eq!(b.getint(CHANNEL_PORT), Ok(3));
    }

    #[test]
    fn inject_is_bounded_and_reports_outcome() {
        let (mut a, _b) = channel();
        a.set_channel_config(ChannelConfig {
            capacity: 1,
            policy: OverflowPolicy::Block,
        });
        assert_eq!(a.inject(7), PushOutcome::Accepted(1));
        assert_eq!(a.inject(8), PushOutcome::Refused);
        assert_eq!(a.pending(), 1);
        a.set_channel_config(ChannelConfig {
            capacity: 1,
            policy: OverflowPolicy::DropOldest,
        });
        assert_eq!(a.inject(9), PushOutcome::Evicted(7));
        assert_eq!(a.getint(CHANNEL_PORT), Ok(9));
    }

    #[test]
    fn chaos_faults_drop_dup_and_corrupt_pushes() {
        use zarf_chaos::FaultPlan;
        let plan = FaultPlan::new()
            .schedule(0, FaultKind::ChanDrop)
            .schedule(1, FaultKind::ChanDup)
            .schedule(2, FaultKind::ChanCorrupt { xor: 0b100 });
        let chaos = ChaosHandle::new(plan);
        let (mut a, mut b) = channel();
        a.set_chaos(Some(chaos.clone()));
        // Op 0 dropped: the writer still sees success.
        assert_eq!(a.putint(CHANNEL_PORT, 10), Ok(10));
        // Op 1 duplicated, op 2 corrupted, op 3 clean.
        a.putint(CHANNEL_PORT, 11).unwrap();
        a.putint(CHANNEL_PORT, 12).unwrap();
        a.putint(CHANNEL_PORT, 13).unwrap();
        let mut got = Vec::new();
        while let Ok(w) = b.getint(CHANNEL_PORT) {
            got.push(w);
        }
        assert_eq!(got, vec![11, 11, 12 ^ 0b100, 13]);
        assert_eq!(chaos.injected_count(), 3);
    }

    #[test]
    fn cpu_and_harness_communicate() {
        use crate::builder::Asm;
        use crate::cpu::{Cpu, Reg};
        // CPU: read a word from the channel, triple it, send it back.
        let r1 = Reg(1);
        let mut asm = Asm::new();
        asm.inp(r1, CHANNEL_PORT);
        asm.muli(r1, r1, 3);
        asm.out(r1, CHANNEL_PORT);
        asm.halt();
        let (mut host, mut dev) = channel();
        host.putint(CHANNEL_PORT, 14).unwrap();
        let mut cpu = Cpu::new(asm.assemble().unwrap(), 0);
        cpu.run(&mut dev, 100).unwrap();
        assert_eq!(host.getint(CHANNEL_PORT), Ok(42));
    }
}
