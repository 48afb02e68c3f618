//! The bounded cursor the index formats are read through.
//!
//! A [`SliceSource`] stands over bytes that are already in memory — a
//! memory map, or a buffer — and *borrows* what it reads: fields come back
//! as values, arrays as sub-slices of the source. It always knows its
//! position and how many bytes are left, and every length prefix is checked
//! against that bound before anything is sized by it.

use std::io;

fn corrupt(offset: usize, msg: impl std::fmt::Display) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("{msg} at byte {offset}"),
    )
}

/// A forward-only cursor over a byte slice.
pub struct SliceSource<'a> {
    data: &'a [u8],
    pos: usize,
}

impl<'a> SliceSource<'a> {
    /// Cursor starting at the beginning of `data`.
    pub fn new(data: &'a [u8]) -> Self {
        SliceSource { data, pos: 0 }
    }

    /// Bytes consumed so far (locates corruption in error messages).
    pub fn position(&self) -> usize {
        self.pos
    }

    /// Bytes left.
    pub fn remaining(&self) -> usize {
        self.data.len() - self.pos
    }

    /// The next `n` bytes, where they lie, or `UnexpectedEof`.
    pub fn take_slice(&mut self, n: usize) -> io::Result<&'a [u8]> {
        if self.remaining() < n {
            return Err(io::Error::new(
                io::ErrorKind::UnexpectedEof,
                format!(
                    "slice source exhausted at byte {} ({n} wanted, {} left)",
                    self.pos,
                    self.remaining()
                ),
            ));
        }
        let s = &self.data[self.pos..self.pos + n];
        self.pos += n;
        Ok(s)
    }

    /// Little-endian u64.
    pub fn take_u64(&mut self) -> io::Result<u64> {
        let mut b = [0u8; 8];
        b.copy_from_slice(self.take_slice(8)?);
        Ok(u64::from_le_bytes(b))
    }

    /// Little-endian u32.
    pub fn take_u32(&mut self) -> io::Result<u32> {
        let mut b = [0u8; 4];
        b.copy_from_slice(self.take_slice(4)?);
        Ok(u32::from_le_bytes(b))
    }

    /// Read a `u64` element-count prefix for elements of at least
    /// `elem_size` bytes each, validating it against the bytes left and
    /// rejecting byte-size overflow: a corrupt or hostile prefix is a typed
    /// [`io::ErrorKind::InvalidData`], never a multi-gigabyte allocation.
    pub fn take_len_prefix(&mut self, elem_size: u64) -> io::Result<usize> {
        let at = self.pos;
        let n = self.take_u64()?;
        let bytes = n.checked_mul(elem_size).ok_or_else(|| {
            corrupt(
                at,
                format!("length prefix {n} (x{elem_size} bytes) overflows"),
            )
        })?;
        let rem = self.remaining() as u64;
        if bytes > rem {
            return Err(corrupt(
                at,
                format!("length prefix {n} ({bytes} bytes) exceeds the {rem} bytes remaining"),
            ));
        }
        // `n <= rem`, which is a `usize`.
        Ok(n as usize)
    }

    /// A `u64`-prefixed byte string.
    pub fn take_bytes(&mut self) -> io::Result<&'a [u8]> {
        let n = self.take_len_prefix(1)?;
        self.take_slice(n)
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
        assert_eq!(s.take_len_prefix(8).unwrap(), 3);
        assert_eq!(s.take_u64().unwrap(), 10);
        assert_eq!(s.take_slice(16).unwrap().len(), 16);
        assert_eq!(s.position(), 32);
        assert_eq!(s.take_bytes().unwrap(), b"hi");
        assert_eq!(s.remaining(), 0);
    }

    #[test]
    fn slice_source_eof() {
        let mut s = SliceSource::new(b"abc");
        let e = s.take_u64().unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::UnexpectedEof);
        assert_eq!(
            s.take_u32().unwrap_err().kind(),
            io::ErrorKind::UnexpectedEof
        );
        assert_eq!(s.take_slice(3).unwrap(), b"abc");
    }

    /// A hostile length prefix must yield `InvalidData`, not an allocation
    /// of the claimed size (which would abort the process).
    #[test]
    fn hostile_length_prefix_is_invalid_data() {
        for n in [u64::MAX, u64::MAX / 8 + 1, 1 << 60, 1 << 40] {
            let mut d = Vec::new();
            d.extend_from_slice(&n.to_le_bytes());
            d.extend_from_slice(b"tiny");
            let e = SliceSource::new(&d).take_bytes().unwrap_err();
            assert_eq!(e.kind(), io::ErrorKind::InvalidData, "n={n}");
            let e = SliceSource::new(&d).take_len_prefix(8).unwrap_err();
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
