//! Size-capped line-oriented file writing behind
//! [`FileSink`](crate::span::FileSink).
//!
//! When an append would push the file past its cap, the current file is
//! renamed to `<path>.1` (replacing any previous rotation) and a fresh
//! file is started — a long-lived `serve` session keeps at most two
//! generations instead of growing without bound.

use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::PathBuf;

/// A buffered line writer that rotates `path` → `path.1` at `max_bytes`.
#[derive(Debug)]
pub(crate) struct RotatingFile {
    path: PathBuf,
    max_bytes: Option<u64>,
    written: u64,
    writer: BufWriter<File>,
}

impl RotatingFile {
    /// Creates (truncates) `path`; `None` disables rotation.
    pub(crate) fn create(
        path: impl Into<PathBuf>,
        max_bytes: Option<u64>,
    ) -> std::io::Result<Self> {
        let path = path.into();
        let writer = BufWriter::new(File::create(&path)?);
        Ok(Self {
            path,
            max_bytes,
            written: 0,
            writer,
        })
    }

    /// Appends `line` plus a newline, flushing per line, rotating first
    /// if the append would exceed the cap. I/O errors are swallowed —
    /// telemetry must never take the job down.
    pub(crate) fn write_line(&mut self, line: &str) {
        let incoming = line.len() as u64 + 1;
        if let Some(cap) = self.max_bytes {
            if self.written > 0 && self.written + incoming > cap {
                self.rotate();
            }
        }
        let _ = writeln!(self.writer, "{line}");
        let _ = self.writer.flush();
        self.written += incoming;
    }

    fn rotate(&mut self) {
        let _ = self.writer.flush();
        let mut rotated = self.path.clone().into_os_string();
        rotated.push(".1");
        let _ = std::fs::rename(&self.path, &rotated);
        if let Ok(file) = File::create(&self.path) {
            self.writer = BufWriter::new(file);
            self.written = 0;
        }
    }
}
