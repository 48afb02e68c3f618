//! Top-level error type for mapping runs.
//!
//! Every failure below — an unreadable input, a corrupt index, a dead byte
//! stream mid-file, a pipeline stage error — flows up to the CLI as a
//! [`MapError`] naming the file (and, via the wrapped sources, the byte
//! offset) involved, and exits nonzero. Only per-read alignment failures
//! degrade instead of aborting; see [`crate::mapper::MapReadError`].

use std::fmt;
use std::io;

use mmm_index::IndexError;
use mmm_pipeline::PipelineError;
use mmm_seq::SeqError;

/// A fatal error from an end-to-end mapping run.
#[derive(Debug)]
pub enum MapError {
    /// Plain I/O failure on a named file (or stream).
    Io { path: String, source: io::Error },
    /// FASTA/FASTQ input failed; `SeqError` carries the byte/line position.
    Seq { path: String, source: SeqError },
    /// Index loading failed; `IndexError` distinguishes open/IO/corruption
    /// and carries the byte offset.
    Index { path: String, source: IndexError },
    /// The mapping pipeline stopped early (stage error or worker panic).
    Pipeline(PipelineError),
    /// Bad invocation or unusable input (reported without a source chain).
    Usage(String),
    /// The output's reader went away (a closed pipe, as in `manymap map …
    /// | head`): it has all it wanted, so the run stops without an error.
    OutputClosed,
}

impl fmt::Display for MapError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MapError::Io { path, source } => write!(f, "{path}: {source}"),
            MapError::Seq { path, source } => write!(f, "{path}: {source}"),
            MapError::Index { path, source } => write!(f, "{path}: {source}"),
            MapError::Pipeline(e) => write!(f, "{e}"),
            MapError::Usage(msg) => write!(f, "{msg}"),
            MapError::OutputClosed => write!(f, "output closed by its reader"),
        }
    }
}

impl std::error::Error for MapError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            MapError::Io { source, .. } => Some(source),
            MapError::Seq { source, .. } => Some(source),
            MapError::Index { source, .. } => Some(source),
            MapError::Pipeline(e) => Some(e),
            MapError::Usage(_) | MapError::OutputClosed => None,
        }
    }
}

impl From<PipelineError> for MapError {
    fn from(e: PipelineError) -> Self {
        MapError::Pipeline(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_path() {
        let e = MapError::Index {
            path: "ref.mmx".into(),
            source: IndexError::Corrupt {
                offset: Some(20),
                what: "bad length".into(),
            },
        };
        let s = e.to_string();
        assert!(s.contains("ref.mmx"), "{s}");
        assert!(s.contains("at byte 20"), "{s}");
    }
}
