//! The one socket call `std` does not offer: a `send` that neither blocks
//! nor raises `SIGPIPE`, whatever mode the socket is in. A group thread
//! answers a client with it (see [`service`](crate::service)) and leaves
//! whatever the kernel does not take to the connection's writer thread,
//! so no group thread ever waits on a client's socket.

use std::io;
use std::net::TcpStream;

/// Sends what the kernel takes of `bytes` right now, and returns how much
/// that was. An error of kind [`io::ErrorKind::WouldBlock`] means it took
/// nothing. On targets without the call that is every answer, so every
/// response there goes through the writer thread.
pub(crate) fn send_nonblocking(stream: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
    imp::send_nonblocking(stream, bytes)
}

#[cfg(target_os = "linux")]
#[allow(unsafe_code)]
mod imp {
    use std::io;
    use std::net::TcpStream;
    use std::os::fd::AsRawFd;

    const MSG_DONTWAIT: i32 = 0x40;
    const MSG_NOSIGNAL: i32 = 0x4000;

    extern "C" {
        fn send(fd: i32, buf: *const u8, len: usize, flags: i32) -> isize;
    }

    pub(super) fn send_nonblocking(stream: &TcpStream, bytes: &[u8]) -> io::Result<usize> {
        let flags = MSG_DONTWAIT | MSG_NOSIGNAL;
        // SAFETY: `bytes` is `bytes.len()` readable bytes for the whole
        // call, and the descriptor is `stream`'s, which is borrowed for it.
        let sent = unsafe { send(stream.as_raw_fd(), bytes.as_ptr(), bytes.len(), flags) };
        usize::try_from(sent).map_err(|_| io::Error::last_os_error())
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    use std::io;
    use std::net::TcpStream;

    pub(super) fn send_nonblocking(_: &TcpStream, _: &[u8]) -> io::Result<usize> {
        Err(io::ErrorKind::WouldBlock.into())
    }
}
