//! Typed errors for index loading and parsing.
//!
//! Opening an index distinguishes three failure classes so callers can
//! report them precisely: the file could not be opened at all, a read
//! failed for a reason a retry could cure (today only the shard loader's
//! injected I/O faults — a mapped image is not read through a stream), or
//! the bytes are there but do not describe a valid index
//! (corruption/truncation). The last carries the offset where validation
//! stopped, so a truncated or bit-flipped `.mmx` file is reported as
//! "corrupt index at byte N", never as a panic or an out-of-memory abort.

use std::fmt;
use std::io;
use std::path::PathBuf;

/// Errors from [`crate::ShardedIndex::open`], the shard loader and
/// [`crate::MinimizerIndex::from_image_bytes`].
#[derive(Debug)]
pub enum IndexError {
    /// The index file could not be opened or mapped.
    Open { path: PathBuf, source: io::Error },
    /// The underlying byte source failed mid-parse (I/O fault, not bad
    /// bytes). `offset` is the stream position where the fault surfaced,
    /// when the source tracks one.
    Io {
        offset: Option<u64>,
        source: io::Error,
    },
    /// The bytes were delivered but do not form a valid index: bad magic,
    /// truncation, or a length prefix that contradicts the file size.
    Corrupt { offset: Option<u64>, what: String },
    /// The reference set exceeds the packed-hit bit budget
    /// (`rid << 40 | pos << 1 | strand`: 2^24 sequences of up to 2^39
    /// bases). Packing such hits would silently wrap them into the wrong
    /// reference or strand, so [`crate::MinimizerIndex::build`] refuses the
    /// set instead of mismapping.
    HitBudget { what: String },
    /// The file is an `MMX` index, but of a version this build does not
    /// speak. Distinct from [`IndexError::Corrupt`] so tooling can tell
    /// "rebuild your index" apart from "your file is damaged".
    Version { found: u8, expected: u8 },
    /// A posting bucket exceeds the packed-block field budget
    /// (`off:37 | count:20 | width:7`). In practice this means a single
    /// minimizer with ≥ 2^20 occurrences — beyond any repeat the occurrence
    /// cutoff would keep — so the builder refuses rather than truncating.
    PostingBudget { what: String },
    /// The file is a bare v2 image (`MMX\x02` at offset 0), which earlier
    /// builds wrote as a single-file index. It carries no checksum, so
    /// nothing in it can be verified: like [`IndexError::Version`] this is
    /// "rebuild your index", never "your file is damaged".
    NoContainer,
    /// A section checksum did not match: the bytes of `section` were
    /// altered after the build (bit rot, torn write, hostile edit).
    /// Detected on first touch, before any parsed value reaches a kernel.
    Checksum { section: &'static str, what: String },
}

impl IndexError {
    /// Classify an `io::Error` raised while parsing at `offset`.
    ///
    /// `InvalidData` and `UnexpectedEof` mean the bytes themselves are wrong
    /// (hostile length prefix, truncated file) — that is corruption, not an
    /// I/O fault.
    pub(crate) fn from_parse(offset: u64, e: io::Error) -> Self {
        let offset = Some(offset);
        match e.kind() {
            io::ErrorKind::InvalidData | io::ErrorKind::UnexpectedEof => IndexError::Corrupt {
                offset,
                what: e.to_string(),
            },
            _ => IndexError::Io { offset, source: e },
        }
    }

    /// True when the error indicates a malformed/truncated index rather
    /// than a device fault. Checksum mismatches are corruption by
    /// definition — the section's bytes are not what the builder wrote.
    pub fn is_corrupt(&self) -> bool {
        matches!(
            self,
            IndexError::Corrupt { .. } | IndexError::Checksum { .. }
        )
    }

    /// True when a fresh attempt against the same file could plausibly
    /// succeed (a device-level fault), as opposed to damage baked into the
    /// bytes. The shard fault ladder retries transient errors with backoff
    /// and quarantines everything else immediately.
    pub fn is_transient(&self) -> bool {
        match self {
            IndexError::Io { .. } => true,
            IndexError::Open { source, .. } => {
                // A missing or permission-denied file will not heal between
                // retries; interrupted/timed-out opens might.
                !matches!(
                    source.kind(),
                    io::ErrorKind::NotFound | io::ErrorKind::PermissionDenied
                )
            }
            _ => false,
        }
    }
}

fn write_at(f: &mut fmt::Formatter<'_>, offset: &Option<u64>) -> fmt::Result {
    match offset {
        Some(o) => write!(f, " at byte {o}"),
        None => Ok(()),
    }
}

impl fmt::Display for IndexError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            IndexError::Open { path, source } => {
                write!(f, "cannot open index {}: {source}", path.display())
            }
            IndexError::Io { offset, source } => {
                write!(f, "index read failed")?;
                write_at(f, offset)?;
                write!(f, ": {source}")
            }
            IndexError::Corrupt { offset, what } => {
                write!(f, "corrupt index")?;
                write_at(f, offset)?;
                write!(f, ": {what}")
            }
            IndexError::HitBudget { what } => {
                write!(f, "reference set over the packed-hit budget: {what}")
            }
            IndexError::Version { found, expected } => {
                write!(
                    f,
                    "unsupported index version {found} (this build reads \
                     version {expected}): rebuild the index with `manymap index`"
                )
            }
            IndexError::PostingBudget { what } => {
                write!(f, "posting list over the packed-block budget: {what}")
            }
            IndexError::NoContainer => {
                write!(
                    f,
                    "bare v2 index image with no checksum container: rebuild \
                     the index with `manymap index`"
                )
            }
            IndexError::Checksum { section, what } => {
                write!(f, "checksum mismatch in {section} section: {what}")
            }
        }
    }
}

impl std::error::Error for IndexError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            IndexError::Open { source, .. } | IndexError::Io { source, .. } => Some(source),
            IndexError::Corrupt { .. }
            | IndexError::HitBudget { .. }
            | IndexError::Version { .. }
            | IndexError::PostingBudget { .. }
            | IndexError::NoContainer
            | IndexError::Checksum { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn classification() {
        let e = IndexError::from_parse(
            20,
            io::Error::new(io::ErrorKind::InvalidData, "length prefix 999 exceeds file"),
        );
        assert!(e.is_corrupt());
        let s = e.to_string();
        assert!(s.contains("corrupt index at byte 20"), "{s}");
        assert!(s.contains("length prefix"), "{s}");

        let e = IndexError::from_parse(4, io::Error::other("disk on fire"));
        assert!(!e.is_corrupt());
        assert!(e.to_string().contains("index read failed at byte 4"));

        let e = IndexError::Open {
            path: PathBuf::from("/no/such.mmx"),
            source: io::Error::from(io::ErrorKind::NotFound),
        };
        assert!(e.to_string().contains("/no/such.mmx"));
    }

    #[test]
    fn checksum_and_manifest_classification() {
        let e = IndexError::Checksum {
            section: "bucket map",
            what: "stored 0xdead, computed 0xbeef".into(),
        };
        assert!(e.is_corrupt(), "checksum mismatch is corruption");
        assert!(!e.is_transient());
        let s = e.to_string();
        assert!(s.contains("bucket map"), "{s}");

        let e = IndexError::NoContainer;
        assert!(!e.is_corrupt());
        assert!(!e.is_transient());
        assert!(e.to_string().contains("manymap index"), "{e}");

        // The transient/persistent split drives the shard retry ladder.
        assert!(IndexError::Io {
            offset: None,
            source: io::Error::other("EIO"),
        }
        .is_transient());
        assert!(!IndexError::Open {
            path: PathBuf::from("x"),
            source: io::Error::from(io::ErrorKind::NotFound),
        }
        .is_transient());
        assert!(IndexError::Open {
            path: PathBuf::from("x"),
            source: io::Error::from(io::ErrorKind::Interrupted),
        }
        .is_transient());
    }

    #[test]
    fn version_error_names_found_and_expected() {
        let e = IndexError::Version {
            found: 3,
            expected: 2,
        };
        let s = e.to_string();
        assert!(s.contains("version 3"), "{s}");
        assert!(s.contains("version 2"), "{s}");
        assert!(!e.is_corrupt());
    }
}
