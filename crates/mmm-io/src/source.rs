//! The cursor abstraction the index deserializer is written against.
//!
//! Every source is bounded: a [`SliceSource`] over bytes already in memory
//! (an [`crate::Mmap`] in production), or a [`crate::FaultSource`] wrapped
//! around one. A source therefore always knows its position and how many
//! bytes are left, and every length prefix is checked against that bound
//! before anything is allocated for it.

use std::io;

fn corrupt(offset: u64, msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{msg} at byte {offset}"),
    )
}

/// A forward-only cursor over bytes.
pub trait ByteSource {
    /// Fill `buf` completely or fail.
    fn take_exact(&mut self, buf: &mut [u8]) -> io::Result<()>;

    /// Borrow the next `n` bytes zero-copy if the source supports it
    /// (a slice does; a fault wrapper returns `None` so that every read is
    /// counted).
    fn borrow_exact(&mut self, _n: usize) -> Option<&[u8]> {
        None
    }

    /// Bytes consumed so far (locates corruption in error messages).
    fn stream_position(&self) -> u64;

    /// Upper bound on the bytes still available. Length-prefixed reads
    /// validate their prefix against this bound, so a corrupt or hostile
    /// prefix is a typed [`io::ErrorKind::InvalidData`] instead of a
    /// multi-gigabyte allocation.
    fn remaining_hint(&self) -> u64;

    /// Little-endian u64.
    fn take_u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        self.take_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }

    /// Little-endian u32.
    fn take_u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        self.take_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    /// Read a `u64` element-count prefix for elements of `elem_size` bytes,
    /// validating it against [`remaining_hint`](Self::remaining_hint) and
    /// rejecting byte-size overflow.
    fn take_len_prefix(&mut self, elem_size: u64) -> io::Result<usize> {
        let at = self.stream_position();
        let n = self.take_u64()?;
        let bytes = n.checked_mul(elem_size).ok_or_else(|| {
            corrupt(
                at,
                format!("length prefix {n} (x{elem_size} bytes) overflows"),
            )
        })?;
        let rem = self.remaining_hint();
        if bytes > rem {
            return Err(corrupt(
                at,
                format!("length prefix {n} ({bytes} bytes) exceeds the {rem} bytes remaining"),
            ));
        }
        usize::try_from(n)
            .map_err(|_| corrupt(at, format!("length prefix {n} exceeds the address space")))
    }

    /// A `u64`-prefixed byte string.
    fn take_bytes(&mut self) -> io::Result<Vec<u8>> {
        let n = self.take_len_prefix(1)?;
        if let Some(raw) = self.borrow_exact(n) {
            return Ok(raw.to_vec());
        }
        // The prefix was validated against the remaining length above.
        let mut v = vec![0u8; n];
        self.take_exact(&mut v)?;
        Ok(v)
    }

    /// A `u64`-prefixed vector of little-endian u64s. Uses the zero-copy path
    /// when available (single large copy instead of per-element reads).
    fn take_u64_vec(&mut self) -> io::Result<Vec<u64>> {
        let n = self.take_len_prefix(8)?;
        if let Some(raw) = self.borrow_exact(n * 8) {
            let mut v = Vec::with_capacity(n);
            for c in raw.chunks_exact(8) {
                let mut b = [0u8; 8];
                b.copy_from_slice(c);
                v.push(u64::from_le_bytes(b));
            }
            return Ok(v);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.take_u64()?);
        }
        Ok(v)
    }

    /// A `u64`-prefixed vector of little-endian u32s.
    fn take_u32_vec(&mut self) -> io::Result<Vec<u32>> {
        let n = self.take_len_prefix(4)?;
        if let Some(raw) = self.borrow_exact(n * 4) {
            let mut v = Vec::with_capacity(n);
            for c in raw.chunks_exact(4) {
                let mut b = [0u8; 4];
                b.copy_from_slice(c);
                v.push(u32::from_le_bytes(b));
            }
            return Ok(v);
        }
        let mut v = Vec::with_capacity(n);
        for _ in 0..n {
            v.push(self.take_u32()?);
        }
        Ok(v)
    }
}

/// In-memory source over a byte slice (in production, a memory map).
pub struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Cursor starting at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SliceSource { data, pos: 0 }
    }

    /// Bytes left.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }
}

impl ByteSource for SliceSource<'_> {
    fn take_exact(&mut self, buf: &mut [u8]) -> io::Result<()> {
        if self.remaining() < buf.len() {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "slice source exhausted at byte {} ({} wanted, {} left)",
                    self.pos,
                    buf.len(),
                    self.remaining()
                ),
            ));
        }
        buf.copy_from_slice(&self.data[self.pos..self.pos + buf.len()]);
        self.pos += buf.len();
        Ok(())
    }

    fn borrow_exact(&mut self, n: usize) -> Option<&[u8]> {
        if self.remaining() < n {
            return None;
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Some(s)
    }

    fn stream_position(&self) -> u64 {
        self.pos as u64
    }

    fn remaining_hint(&self) -> u64 {
        self.remaining() as u64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> Vec<u8> {
        let mut d = Vec::new();
        d.extend_from_slice(&3u64.to_le_bytes());
        for x in [10u64, 20, 30] {
            d.extend_from_slice(&x.to_le_bytes());
        }
        d.extend_from_slice(&2u64.to_le_bytes());
        d.extend_from_slice(b"hi");
        d
    }

    #[test]
    fn slice_source_vectors_and_bytes() {
        let d = sample();
        let mut s = SliceSource::new(&d);
        assert_eq!(s.take_u64_vec().unwrap(), vec![10, 20, 30]);
        assert_eq!(s.take_bytes().unwrap(), b"hi");
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn slice_source_eof() {
        let mut s = SliceSource::new(b"abc");
        assert!(s.take_u64().is_err());
    }

    #[test]
    fn u32_vec_round_trip() {
        let mut d = Vec::new();
        d.extend_from_slice(&2u64.to_le_bytes());
        d.extend_from_slice(&1u32.to_le_bytes());
        d.extend_from_slice(&2u32.to_le_bytes());
        let mut s = SliceSource::new(&d);
        assert_eq!(s.take_u32_vec().unwrap(), vec![1, 2]);
    }

    /// A hostile length prefix must yield `InvalidData`, not an allocation
    /// of the claimed size (which would abort the process).
    #[test]
    fn hostile_length_prefix_is_invalid_data() {
        for n in [u64::MAX, u64::MAX / 8 + 1, 1 << 60, 1 << 40] {
            let mut d = Vec::new();
            d.extend_from_slice(&n.to_le_bytes());
            d.extend_from_slice(b"tiny");
            let mut s = SliceSource::new(&d);
            let e = s.take_bytes().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "n={n}");
            let mut s = SliceSource::new(&d);
            let e = s.take_u64_vec().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "n={n}");
            let mut s = SliceSource::new(&d);
            let e = s.take_u32_vec().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "n={n}");
        }
    }

    /// Errors from bounded reads name the offending offset.
    #[test]
    fn bound_error_names_offset() {
        let mut d = Vec::new();
        d.extend_from_slice(&7u64.to_le_bytes()); // 7 bytes claimed, 2 present
        d.extend_from_slice(b"hi");
        let mut s = SliceSource::new(&d);
        let e = s.take_bytes().unwrap_err();
        assert!(e.to_string().contains("at byte 0"), "{e}");
    }
}
