//! Readiness-loop plumbing for the nonblocking frontier: a growable
//! write buffer that flushes opportunistically, the `WouldBlock` test,
//! and a readiness wait over `poll(2)`.
//!
//! [`crate::server::serve`] iterates its connections attempting
//! nonblocking reads and writes. While traffic flows every pass does real
//! work; when a pass moves nothing, the loop blocks in [`wait`] on the
//! descriptors that could make the next pass move something, so a frame
//! is picked up as soon as it lands. The build has no external crates,
//! so [`wait`] binds the C library's `poll` directly: it is the
//! workspace's only `unsafe` outside test files.

use std::ffi::{c_int, c_short};
use std::io::{self, Write};
use std::os::fd::RawFd;
use std::time::Duration;

/// True when a nonblocking socket op failed only because it would have
/// blocked — the readiness-loop equivalent of "not ready, try later".
pub fn would_block(e: &io::Error) -> bool {
    e.kind() == io::ErrorKind::WouldBlock || e.kind() == io::ErrorKind::Interrupted
}

/// Byte count at which a drained [`WriteBuf`] prefix is compacted away
/// rather than left to grow the buffer without bound.
const WRITE_BUF_COMPACT_AT: usize = 64 * 1024;

/// An outbound byte queue for one nonblocking connection.
///
/// Responses are appended whole; [`WriteBuf::try_flush`] pushes as much
/// as the socket will take and keeps the rest for the next pass. The
/// consumed prefix is tracked by offset and compacted lazily so steady
/// pipelined traffic never reallocates.
#[derive(Debug, Default)]
pub struct WriteBuf {
    buf: Vec<u8>,
    start: usize,
}

impl WriteBuf {
    /// An empty write queue.
    pub fn new() -> WriteBuf {
        WriteBuf::default()
    }

    /// Bytes still waiting to reach the socket.
    pub fn len(&self) -> usize {
        self.buf.len() - self.start
    }

    /// True when everything queued has been written.
    pub fn is_empty(&self) -> bool {
        self.start == self.buf.len()
    }

    /// Queue `bytes` for transmission.
    pub fn queue(&mut self, bytes: &[u8]) {
        self.buf.extend_from_slice(bytes);
    }

    fn compact(&mut self) {
        if self.start == self.buf.len() {
            self.buf.clear();
            self.start = 0;
        } else if self.start >= WRITE_BUF_COMPACT_AT {
            self.buf.drain(..self.start);
            self.start = 0;
        }
    }

    /// Write as much queued data as the sink will take without blocking.
    /// Returns the number of bytes written this call; `WouldBlock` is
    /// reported as `Ok(written_so_far)`, a real transport error as `Err`.
    pub fn try_flush<W: Write>(&mut self, w: &mut W) -> io::Result<usize> {
        let mut written = 0;
        while self.start < self.buf.len() {
            match w.write(&self.buf[self.start..]) {
                Ok(0) => {
                    return Err(io::Error::new(
                        io::ErrorKind::WriteZero,
                        "socket accepted zero bytes",
                    ))
                }
                Ok(n) => {
                    self.start += n;
                    written += n;
                }
                Err(e) if would_block(&e) => break,
                Err(e) => return Err(e),
            }
        }
        self.compact();
        Ok(written)
    }
}

/// Longest readiness wait. Bounds how late a waiting loop notices a
/// condition no descriptor signals: a stop flag, or a deadline of its own.
pub const MAX_WAIT: Duration = Duration::from_millis(2);

/// What a [`wait`] caller wants to hear about on one descriptor.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Interest {
    /// Wake when a read would not block (data, EOF, error or, on a
    /// listener, a pending connection).
    pub read: bool,
    /// Wake when a write would not block.
    pub write: bool,
}

impl Interest {
    /// Nothing to wait for.
    pub const NONE: Interest = Interest {
        read: false,
        write: false,
    };
    /// Readability only.
    pub const READ: Interest = Interest {
        read: true,
        write: false,
    };
}

const POLLIN: c_short = 0x1;
const POLLOUT: c_short = 0x4;
const POLLERR: c_short = 0x8;
const POLLHUP: c_short = 0x10;
const POLLNVAL: c_short = 0x20;

/// One descriptor and its [`Interest`], laid out as the C `struct pollfd`
/// so a slice of them goes to `poll(2)` as is. After [`wait`],
/// [`Watch::ready`] reports what the kernel found.
#[repr(C)]
#[derive(Debug, Clone, Copy)]
pub struct Watch {
    fd: c_int,
    events: c_short,
    revents: c_short,
}

impl Watch {
    /// Watch `fd` for `interest`.
    pub fn new(fd: RawFd, interest: Interest) -> Watch {
        let mut events = 0;
        if interest.read {
            events |= POLLIN;
        }
        if interest.write {
            events |= POLLOUT;
        }
        Watch {
            fd,
            events,
            revents: 0,
        }
    }

    /// What the last [`wait`] found ready. An error or hang-up counts as
    /// ready for both directions: the next read or write reports it.
    pub fn ready(&self) -> Interest {
        let failed = self.revents & (POLLERR | POLLHUP | POLLNVAL) != 0;
        Interest {
            read: failed || self.revents & POLLIN != 0,
            write: failed || self.revents & POLLOUT != 0,
        }
    }
}

#[cfg(target_os = "linux")]
type NfdsT = std::ffi::c_ulong;
#[cfg(not(target_os = "linux"))]
type NfdsT = std::ffi::c_uint;

/// Block until a descriptor in `watches` is ready for its interest, or
/// until `timeout` (rounded up to whole milliseconds) passes. Returns how
/// many descriptors are ready: 0 on timeout or when a signal cut the
/// wait short, so callers simply run their next pass.
#[allow(unsafe_code)]
pub fn wait(watches: &mut [Watch], timeout: Duration) -> io::Result<usize> {
    extern "C" {
        fn poll(fds: *mut Watch, nfds: NfdsT, timeout: c_int) -> c_int;
    }
    let ms = c_int::try_from(timeout.as_micros().div_ceil(1000)).unwrap_or(c_int::MAX);
    let nfds = NfdsT::try_from(watches.len())
        .map_err(|_| io::Error::new(io::ErrorKind::InvalidInput, "too many descriptors"))?;
    // SAFETY: `Watch` is `#[repr(C)]` with the field order and types of
    // `struct pollfd`, and `watches` is an exclusive borrow of exactly
    // `nfds` of them, so `poll` reads and writes only memory we own for
    // the duration of the call. A stale or closed fd is reported in
    // `revents` (POLLNVAL), not undefined behaviour.
    let n = unsafe { poll(watches.as_mut_ptr(), nfds, ms) };
    if n >= 0 {
        return Ok(n as usize);
    }
    let e = io::Error::last_os_error();
    if e.kind() == io::ErrorKind::Interrupted {
        Ok(0)
    } else {
        Err(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::os::fd::AsRawFd;
    use std::os::unix::net::UnixStream;

    /// A sink that accepts at most `cap` bytes per write call and
    /// refuses (WouldBlock) after `limit` total bytes.
    struct Throttled {
        taken: Vec<u8>,
        cap: usize,
        limit: usize,
    }

    impl Write for Throttled {
        fn write(&mut self, buf: &[u8]) -> io::Result<usize> {
            if self.taken.len() >= self.limit {
                return Err(io::Error::new(io::ErrorKind::WouldBlock, "full"));
            }
            let n = buf.len().min(self.cap).min(self.limit - self.taken.len());
            self.taken.extend_from_slice(&buf[..n]);
            Ok(n)
        }
        fn flush(&mut self) -> io::Result<()> {
            Ok(())
        }
    }

    #[test]
    fn write_buf_flushes_across_partial_writes() {
        let mut wb = WriteBuf::new();
        wb.queue(b"hello ");
        wb.queue(b"world");
        let mut sink = Throttled {
            taken: Vec::new(),
            cap: 4,
            limit: 8,
        };
        let n = wb.try_flush(&mut sink).unwrap();
        assert_eq!(n, 8);
        assert_eq!(wb.len(), 3);
        assert!(!wb.is_empty());
        sink.limit = usize::MAX;
        let n = wb.try_flush(&mut sink).unwrap();
        assert_eq!(n, 3);
        assert!(wb.is_empty());
        assert_eq!(sink.taken, b"hello world");
    }

    #[test]
    fn write_buf_compacts_after_drain() {
        let mut wb = WriteBuf::new();
        wb.queue(&[7u8; 1000]);
        let mut sink = Throttled {
            taken: Vec::new(),
            cap: usize::MAX,
            limit: usize::MAX,
        };
        wb.try_flush(&mut sink).unwrap();
        assert!(wb.is_empty());
        // Internal buffer was cleared, not left holding a dead prefix.
        assert_eq!(wb.buf.len(), 0);
        assert_eq!(wb.start, 0);
    }

    #[test]
    fn write_zero_is_an_error_not_a_spin() {
        struct Dead;
        impl Write for Dead {
            fn write(&mut self, _buf: &[u8]) -> io::Result<usize> {
                Ok(0)
            }
            fn flush(&mut self) -> io::Result<()> {
                Ok(())
            }
        }
        let mut wb = WriteBuf::new();
        wb.queue(b"x");
        assert!(wb.try_flush(&mut Dead).is_err());
    }

    #[test]
    fn a_written_byte_is_reported_readable() {
        let (mut a, b) = UnixStream::pair().unwrap();
        a.write_all(b"x").unwrap();
        let mut w = [Watch::new(b.as_raw_fd(), Interest::READ)];
        // A broken wait reports "not ready" here, not a slow pass: the
        // timeout is far beyond anything the assertion depends on.
        assert_eq!(wait(&mut w, Duration::from_secs(60)).unwrap(), 1);
        assert!(w[0].ready().read);
        assert!(!w[0].ready().write);
    }

    #[test]
    fn nothing_written_is_not_ready_at_zero_timeout() {
        let (_a, b) = UnixStream::pair().unwrap();
        let mut w = [Watch::new(b.as_raw_fd(), Interest::READ)];
        assert_eq!(wait(&mut w, Duration::ZERO).unwrap(), 0);
        assert_eq!(w[0].ready(), Interest::NONE);
    }

    #[test]
    fn an_empty_send_buffer_is_reported_writable() {
        let (a, _b) = UnixStream::pair().unwrap();
        let both = Interest {
            read: true,
            write: true,
        };
        let mut w = [Watch::new(a.as_raw_fd(), both)];
        assert_eq!(wait(&mut w, Duration::from_secs(60)).unwrap(), 1);
        assert!(w[0].ready().write);
        assert!(!w[0].ready().read);
    }
}
