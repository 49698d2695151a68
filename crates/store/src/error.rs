//! Typed storage errors. Every variant that touches the filesystem
//! carries the offending path, so callers can render actionable
//! messages without re-deriving context.

use std::path::PathBuf;

/// Errors from the durability layer.
#[derive(Debug)]
pub enum StoreError {
    /// An OS-level I/O failure at `path`.
    Io {
        /// Path the operation was acting on.
        path: PathBuf,
        /// The underlying error.
        source: std::io::Error,
    },
    /// A segment or checkpoint whose header does not carry the
    /// expected magic bytes — the file is not ours (or is damaged
    /// beyond framing).
    BadMagic {
        /// Offending file.
        path: PathBuf,
    },
    /// A segment or checkpoint written by an incompatible format
    /// version.
    VersionMismatch {
        /// Offending file.
        path: PathBuf,
        /// Version found in the header.
        found: u32,
        /// Version this build reads and writes.
        expected: u32,
    },
    /// A checkpoint whose payload failed its CRC — the file is
    /// rejected as a whole (unlike WAL records, which are skipped
    /// individually).
    ChecksumMismatch {
        /// Offending file.
        path: PathBuf,
    },
    /// A structurally valid payload that does not decode to the
    /// expected shape (e.g. truncated field, unknown enum tag).
    Decode {
        /// Human-readable description of the first violation.
        detail: String,
    },
}

impl StoreError {
    /// Convenience constructor tagging an `io::Error` with its path.
    pub(crate) fn io(path: impl Into<PathBuf>, source: std::io::Error) -> Self {
        StoreError::Io { path: path.into(), source }
    }

    /// Convenience constructor for decode failures.
    pub fn decode(detail: impl Into<String>) -> Self {
        StoreError::Decode { detail: detail.into() }
    }
}

impl std::fmt::Display for StoreError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            StoreError::Io { path, source } => {
                write!(f, "i/o error on {}: {source}", path.display())
            }
            StoreError::BadMagic { path } => {
                write!(f, "{}: not a gnnav-store file (bad magic)", path.display())
            }
            StoreError::VersionMismatch { path, found, expected } => write!(
                f,
                "{}: format version {found} unsupported (this build reads v{expected})",
                path.display()
            ),
            StoreError::ChecksumMismatch { path } => {
                write!(f, "{}: payload checksum mismatch (file rejected)", path.display())
            }
            StoreError::Decode { detail } => write!(f, "decode error: {detail}"),
        }
    }
}

impl std::error::Error for StoreError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StoreError::Io { source, .. } => Some(source),
            _ => None,
        }
    }
}
