//! Fault injection for the byte-source layer.
//!
//! [`FaultSource`] wraps any [`ByteSource`] and misbehaves after delivering a
//! configured number of bytes — either with a mid-stream I/O error or with a
//! premature end-of-input. Every failure mode of the index deserializer is
//! pinned by tests built on this wrapper (plus plain truncated
//! [`crate::SliceSource`]s), so regressions in error propagation surface as
//! test failures instead of field panics.

use std::io;

use crate::source::ByteSource;

/// What happens once the fault point is reached.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum FaultMode {
    /// Return `io::ErrorKind::Other` ("injected fault"), modelling a device
    /// or network error in the middle of a stream.
    Error,
    /// Return `io::ErrorKind::UnexpectedEof`, modelling a truncated file.
    Truncate,
}

/// A [`ByteSource`] that delivers at most `fail_after` bytes, then fails
/// every subsequent read according to its [`FaultMode`].
pub struct FaultSource<S> {
    inner: S,
    fail_after: u64,
    delivered: u64,
    mode: FaultMode,
}

impl<S: ByteSource> FaultSource<S> {
    /// Wrap `inner`, injecting the fault once a read would cross byte
    /// `fail_after` of the stream.
    pub fn new(inner: S, fail_after: u64, mode: FaultMode) -> Self {
        FaultSource {
            inner,
            fail_after,
            delivered: 0,
            mode,
        }
    }

    /// Bytes delivered before the fault so far.
    pub fn delivered(&self) -> u64 {
        self.delivered
    }

    fn fault(&self) -> io::Error {
        match self.mode {
            FaultMode::Error => {
                io::Error::other(format!("injected I/O fault after byte {}", self.delivered))
            }
            FaultMode::Truncate => io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!("injected truncation after byte {}", self.delivered),
            ),
        }
    }
}

impl<S: ByteSource> ByteSource for FaultSource<S> {
    fn take_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        if self.delivered + buf.len() as u64 > self.fail_after {
            return Err(self.fault());
        }
        self.inner.take_exact(buf)?;
        self.delivered += buf.len() as u64;
        Ok(())
    }

    // No `borrow_exact` override: forcing every read through `take_exact`
    // keeps the fault accounting exact.

    fn stream_position(&self) -> u64 {
        self.delivered
    }

    fn remaining_hint(&self) -> u64 {
        match self.mode {
            // Truncation shortens the stream, so it tightens the bound.
            FaultMode::Truncate => self
                .inner
                .remaining_hint()
                .min(self.fail_after.saturating_sub(self.delivered)),
            // A device error is not a length bound: the stream still holds
            // its full content, reads just fail. Capping the hint here would
            // make bounds checks misreport the fault as corruption.
            FaultMode::Error => self.inner.remaining_hint(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::source::SliceSource;

    #[test]
    fn delivers_until_fault_then_errors() {
        let data: Vec<u8> = (0..64u8).collect();
        let mut s = FaultSource::new(SliceSource::new(&data), 16, FaultMode::Error);
        let mut buf = [0u8; 8];
        s.take_exact(&mut buf).unwrap();
        s.take_exact(&mut buf).unwrap();
        let e = s.take_exact(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::Other);
        assert!(e.to_string().contains("after byte 16"), "{e}");
        assert_eq!(s.delivered(), 16);
    }

    #[test]
    fn truncation_reports_eof() {
        let data: Vec<u8> = vec![0; 32];
        let mut s = FaultSource::new(SliceSource::new(&data), 10, FaultMode::Truncate);
        let mut buf = [0u8; 8];
        s.take_exact(&mut buf).unwrap();
        let e = s.take_exact(&mut buf).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
    }

    #[test]
    fn remaining_hint_respects_fault_point() {
        let data: Vec<u8> = vec![0; 32];
        let s = FaultSource::new(SliceSource::new(&data), 10, FaultMode::Truncate);
        assert_eq!(s.remaining_hint(), 10);
        let s = FaultSource::new(SliceSource::new(&data), 100, FaultMode::Error);
        assert_eq!(s.remaining_hint(), 32);
    }

    #[test]
    fn length_prefixed_reads_fail_cleanly_through_fault() {
        let mut d = Vec::new();
        d.extend_from_slice(&4u64.to_le_bytes());
        d.extend_from_slice(&[1, 2, 3, 4]);
        let mut s = FaultSource::new(SliceSource::new(&d), 9, FaultMode::Error);
        assert!(s.take_bytes().is_err());
    }
}
