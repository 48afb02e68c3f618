//! Read-only memory mapping of files.
//!
//! This is the substrate behind the paper's §4.4.2 optimization: the on-disk
//! index is mapped into the address space and *queried* in place. A mapping
//! has two phases, and the kernel is told which one it is in: it opens under
//! `MADV_SEQUENTIAL` for the one front-to-back checksum pass, and
//! [`Mmap::advise_random`] switches it to `MADV_RANDOM` once lookups start
//! probing it (read-ahead on every probe, and early reclaim behind it, are
//! right for the first phase and wrong for the second). [`as_words`] is the
//! one place bytes become `u64` words.
//! Only `mmap`, `munmap` and `madvise` are used, declared directly against
//! the platform C library — the build environment has no registry access, so
//! we do not depend on the `libc` crate for three symbols.
#![expect(unsafe_code, reason = "`mmap(2)` FFI over a read-only owned mapping")]

use std::ffi::{c_int, c_void};
use std::fs::File;
use std::io;
use std::os::unix::io::AsRawFd;
use std::path::Path;
use std::ptr;
use std::slice;

mod sys {
    use std::ffi::{c_int, c_void};

    // Values from the Linux UAPI headers; stable ABI on every Linux target.
    pub const PROT_READ: c_int = 0x1;
    pub const MAP_PRIVATE: c_int = 0x02;
    pub const MADV_RANDOM: c_int = 1;
    pub const MADV_SEQUENTIAL: c_int = 2;
    pub const MAP_FAILED: *mut c_void = usize::MAX as *mut c_void;

    extern "C" {
        pub fn mmap(
            addr: *mut c_void,
            len: usize,
            prot: c_int,
            flags: c_int,
            fd: c_int,
            offset: i64,
        ) -> *mut c_void;
        pub fn munmap(addr: *mut c_void, len: usize) -> c_int;
        pub fn madvise(addr: *mut c_void, len: usize, advice: c_int) -> c_int;
    }
}

/// A read-only memory-mapped file.
///
/// Dereferences to `&[u8]` covering the whole file. The mapping is unmapped
/// on drop. Zero-length files are handled without calling `mmap` (POSIX
/// forbids zero-length mappings).
pub struct Mmap {
    ptr: *mut c_void,
    len: usize,
}

// SAFETY: the mapping is owned; moving it to another thread moves the
// only handle that unmaps it, like moving a `Box<[u8]>`.
unsafe impl Send for Mmap {}
// SAFETY: the mapping is read-only; sharing references across threads is
// no different from sharing a `&[u8]`.
unsafe impl Sync for Mmap {}

impl Mmap {
    /// Map `path` read-only and advise the kernel of sequential access.
    pub fn open(path: &Path) -> io::Result<Self> {
        let file = File::open(path)?;
        let len = file.metadata()?.len() as usize;
        if len == 0 {
            return Ok(Mmap {
                ptr: ptr::null_mut(),
                len: 0,
            });
        }
        // SAFETY: fd is valid for the duration of the call; we request a
        // fresh private read-only mapping and check the result.
        let p = unsafe {
            sys::mmap(
                ptr::null_mut(),
                len,
                sys::PROT_READ,
                sys::MAP_PRIVATE,
                file.as_raw_fd() as c_int,
                0,
            )
        };
        if p == sys::MAP_FAILED {
            return Err(io::Error::last_os_error());
        }
        // Sequential advice matches the checksum pass every mapping starts
        // with; best effort, failure is harmless.
        // SAFETY: p/len describe the mapping we just created.
        unsafe {
            sys::madvise(p, len, sys::MADV_SEQUENTIAL);
        }
        Ok(Mmap { ptr: p, len })
    }

    /// Tell the kernel the sequential pass is over and the mapping is now
    /// probed at random (index lookups). Best effort, like the advice
    /// [`Mmap::open`] gives.
    pub fn advise_random(&self) {
        if !self.ptr.is_null() {
            // SAFETY: ptr/len describe the live mapping owned by self;
            // madvise only changes paging policy.
            unsafe {
                sys::madvise(self.ptr, self.len, sys::MADV_RANDOM);
            }
        }
    }

    /// The mapped bytes.
    #[inline]
    pub fn as_slice(&self) -> &[u8] {
        if self.len == 0 {
            &[]
        } else {
            // SAFETY: ptr/len describe a live PROT_READ mapping owned by self.
            unsafe { slice::from_raw_parts(self.ptr as *const u8, self.len) }
        }
    }

    /// Length of the mapping in bytes.
    #[inline]
    pub fn len(&self) -> usize {
        self.len
    }

    /// True for an empty mapping.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }
}

/// View `bytes` as native `u64` words where they lie: `Some` iff the slice
/// starts 8-byte aligned and is a whole number of words. The index reads
/// its posting pool through this (the image format pads the pool to an
/// 8-byte file offset, and mappings are page aligned); everything that is
/// not aligned in the format is read as little-endian bytes instead.
pub fn as_words(bytes: &[u8]) -> Option<&[u64]> {
    // SAFETY: every bit pattern is a valid `u64`, and `align_to` only puts
    // correctly aligned, in-bounds memory in the middle slice.
    let (head, words, tail) = unsafe { bytes.align_to::<u64>() };
    (head.is_empty() && tail.is_empty()).then_some(words)
}

impl std::ops::Deref for Mmap {
    type Target = [u8];

    fn deref(&self) -> &[u8] {
        self.as_slice()
    }
}

impl Drop for Mmap {
    fn drop(&mut self) {
        if !self.ptr.is_null() {
            // SAFETY: ptr/len came from a successful mmap and are unmapped
            // exactly once.
            unsafe {
                sys::munmap(self.ptr, self.len);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::io::Write;

    fn tmpfile(name: &str, contents: &[u8]) -> std::path::PathBuf {
        let p = std::env::temp_dir().join(format!("mmm-io-test-{name}-{}", std::process::id()));
        let mut f = File::create(&p).unwrap();
        f.write_all(contents).unwrap();
        p
    }

    #[test]
    fn maps_file_contents() {
        let p = tmpfile("basic", b"hello mmap world");
        let m = Mmap::open(&p).unwrap();
        assert_eq!(&*m, b"hello mmap world");
        assert_eq!(m.len(), 16);
        drop(m);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn zero_length_file() {
        let p = tmpfile("empty", b"");
        let m = Mmap::open(&p).unwrap();
        assert!(m.is_empty());
        assert_eq!(m.as_slice(), b"");
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn large_file_round_trip() {
        let data: Vec<u8> = (0..1_000_000u32).map(|i| (i % 251) as u8).collect();
        let p = tmpfile("large", &data);
        let m = Mmap::open(&p).unwrap();
        assert_eq!(&*m, &data[..]);
        std::fs::remove_file(&p).unwrap();
    }

    #[test]
    fn advice_changes_no_bytes() {
        let p = tmpfile("advise", b"lookups probe at random");
        let m = Mmap::open(&p).unwrap();
        m.advise_random();
        assert_eq!(&*m, b"lookups probe at random");
        std::fs::remove_file(&p).unwrap();
        // An empty mapping has nothing to advise.
        Mmap::open(&tmpfile("advise-empty", b""))
            .unwrap()
            .advise_random();
    }

    #[test]
    fn words_only_where_aligned_and_whole() {
        let words = [0x0807_0605_0403_0201u64, u64::MAX, 0];
        let mut bytes = Vec::new();
        for w in words {
            bytes.extend_from_slice(&w.to_ne_bytes());
        }
        // Place the 24 bytes at an 8-aligned address inside a buffer.
        let mut buf = vec![0u8; bytes.len() + 8];
        let at = buf.as_ptr().align_offset(8);
        buf[at..at + bytes.len()].copy_from_slice(&bytes);
        assert_eq!(as_words(&buf[at..at + 24]), Some(&words[..]));
        assert_eq!(as_words(&buf[at..at]), Some(&[][..]));
        assert_eq!(as_words(&buf[at + 1..at + 9]), None, "misaligned start");
        assert_eq!(as_words(&buf[at..at + 23]), None, "ragged tail");
    }

    #[test]
    fn missing_file_errors() {
        assert!(Mmap::open(Path::new("/nonexistent/never/file")).is_err());
    }
}
