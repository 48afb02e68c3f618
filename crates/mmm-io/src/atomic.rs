//! Crash-safe file publication: write to a temp file, `fsync`, `rename`.
//!
//! The shard builder (DESIGN.md §15) must never leave a parseable partial
//! file behind: a crash mid-build would otherwise produce an index that
//! loads but silently misses data. POSIX `rename(2)` within a directory is
//! atomic, so the sequence *write temp → fsync temp → rename over final →
//! fsync directory* guarantees that the final path either holds the
//! complete image or does not exist. Readers racing the rename see one or
//! the other, never a torn prefix.

use std::fs::{File, OpenOptions};
use std::io::{self, Write};
use std::path::{Path, PathBuf};

/// Write `parts`, one after another, to `path` atomically: the file at
/// `path` is either the previous content (or absent) or the complete new
/// content, even across a crash at any point of this call. Parts let a
/// caller write bytes from where they lie rather than gather them first.
///
/// The temp file lives in `path`'s directory (rename must not cross a
/// filesystem boundary) and carries the process id, so concurrent builders
/// of *different* outputs never collide; a leftover temp from a crashed
/// run is silently replaced on retry.
pub fn write_atomic(path: &Path, parts: &[&[u8]]) -> io::Result<()> {
    stage_atomic(path, parts)?.publish()
}

/// The first half of [`write_atomic`]: the content written and synced to
/// the temp file, not yet under its name. [`Staged::publish`] renames it
/// into place; dropping it unpublished removes the temp file. Several files
/// can be staged concurrently and then published in a chosen order.
#[must_use = "a staged file is removed unless it is published"]
pub struct Staged {
    tmp: PathBuf,
    path: PathBuf,
}

/// Stage `parts` for `path` ([`Staged`]); `path` itself is not touched.
pub fn stage_atomic(path: &Path, parts: &[&[u8]]) -> io::Result<Staged> {
    let file_name = path.file_name().ok_or_else(|| {
        io::Error::new(
            io::ErrorKind::InvalidInput,
            format!("write_atomic: {} has no file name", path.display()),
        )
    })?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(format!(".tmp.{}", std::process::id()));
    let staged = Staged {
        tmp: path.with_file_name(tmp_name),
        path: path.to_path_buf(),
    };
    let mut f = OpenOptions::new()
        .write(true)
        .create(true)
        .truncate(true)
        .open(&staged.tmp)?;
    for part in parts {
        f.write_all(part)?;
    }
    // Data must be durable *before* the rename publishes the name: a crash
    // after rename but before writeback would otherwise leave the final
    // path pointing at garbage.
    f.sync_all()?;
    Ok(staged)
}

impl Staged {
    /// Rename the staged content over its path and make the rename durable.
    /// On failure the path keeps its previous content and the temp file is
    /// removed.
    pub fn publish(self) -> io::Result<()> {
        std::fs::rename(&self.tmp, &self.path)?;
        // Make the rename itself durable. Directory fsync is best-effort:
        // opening a directory read-only works on Linux, but a filesystem
        // that refuses it only weakens durability, not atomicity.
        let dir = self.path.parent().filter(|p| !p.as_os_str().is_empty());
        if let Some(d) = dir {
            if let Ok(dirf) = File::open(d) {
                let _ = dirf.sync_all();
            }
        }
        Ok(())
    }
}

impl Drop for Staged {
    /// Removes the temp file; after a successful rename there is none.
    fn drop(&mut self) {
        let _ = std::fs::remove_file(&self.tmp);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn tmp_dir(name: &str) -> std::path::PathBuf {
        let d = std::env::temp_dir().join(format!("mmm-io-atomic-{name}-{}", std::process::id()));
        std::fs::create_dir_all(&d).unwrap();
        d
    }

    #[test]
    fn writes_and_replaces() {
        let d = tmp_dir("basic");
        let p = d.join("out.bin");
        write_atomic(&p, &[b"first"]).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"first");
        write_atomic(&p, &[b"second, ", b"longer"]).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"second, longer");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn no_temp_residue_after_success() {
        let d = tmp_dir("residue");
        write_atomic(&d.join("out.bin"), &[&[7u8; 1024]]).unwrap();
        let names: Vec<String> = std::fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["out.bin".to_string()], "{names:?}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn failure_leaves_previous_content() {
        let d = tmp_dir("fail");
        let p = d.join("keep.bin");
        write_atomic(&p, &[b"stable"]).unwrap();
        // A directory at the temp path forces the open to fail; the
        // published file must be untouched.
        let bad = d.join("missing-dir").join("keep.bin");
        assert!(write_atomic(&bad, &[b"x"]).is_err());
        assert_eq!(std::fs::read(&p).unwrap(), b"stable");
        std::fs::remove_dir_all(&d).unwrap();
    }

    /// A staged file leaves the path as it was until it is published, and
    /// one dropped unpublished leaves nothing behind.
    #[test]
    fn staged_content_appears_only_when_published() {
        let d = tmp_dir("staged");
        let (p, q) = (d.join("a.bin"), d.join("b.bin"));
        write_atomic(&p, &[b"old"]).unwrap();
        let a = stage_atomic(&p, &[b"new"]).unwrap();
        let b = stage_atomic(&q, &[b"never"]).unwrap();
        assert_eq!(std::fs::read(&p).unwrap(), b"old");
        a.publish().unwrap();
        drop(b);
        assert_eq!(std::fs::read(&p).unwrap(), b"new");
        let names: Vec<String> = std::fs::read_dir(&d)
            .unwrap()
            .map(|e| e.unwrap().file_name().to_string_lossy().into_owned())
            .collect();
        assert_eq!(names, vec!["a.bin".to_string()], "{names:?}");
        std::fs::remove_dir_all(&d).unwrap();
    }

    #[test]
    fn bare_relative_path_has_no_parent() {
        // A path with no file name is a typed error, not a panic.
        let e = write_atomic(Path::new(""), &[b"x"]).unwrap_err();
        assert_eq!(e.kind(), io::ErrorKind::InvalidInput);
    }
}
