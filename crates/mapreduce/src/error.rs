//! Error types for the MapReduce runtime.

use std::error::Error;
use std::fmt;

/// A record failed to decode from its wire representation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DecodeError {
    message: String,
}

impl DecodeError {
    /// Creates a decode error with a human-readable reason.
    #[must_use]
    pub fn new(message: impl Into<String>) -> Self {
        Self {
            message: message.into(),
        }
    }
}

impl fmt::Display for DecodeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "decode error: {}", self.message)
    }
}

impl Error for DecodeError {}

/// Errors surfaced by [`MrRuntime`](crate::MrRuntime) when running a job.
#[derive(Debug)]
#[non_exhaustive]
pub enum MrError {
    /// An input, side-file or schimmy path does not exist in the DFS.
    FileNotFound(String),
    /// An output path already exists (Hadoop refuses to clobber outputs).
    OutputExists(String),
    /// A record could not be decoded.
    Decode(DecodeError),
    /// A mapper or reducer task panicked; the job is failed.
    TaskFailed {
        /// `"map"` or `"reduce"`.
        phase: &'static str,
        /// Index of the failed task.
        task: usize,
        /// Panic payload rendered to a string if possible.
        message: String,
    },
    /// The job configuration is invalid (e.g. zero reducers).
    InvalidJob(String),
    /// A service required by the job was not attached.
    ServiceMissing(String),
    /// A reduce task's merge met a key lower than the key before it in
    /// one of its key-sorted input runs. Spills are sorted by the map
    /// task, so in practice the run is a schimmy partition that no
    /// reduce phase wrote (e.g. one from `Dfs::write_records`).
    UnsortedRun {
        /// The run: `schimmy input <path>` or `map task <i> spill`.
        run: String,
        /// The reduce partition being merged.
        partition: usize,
    },
    /// A distributed-mode wire failure: a task spec or result failed to
    /// encode/decode, or the coordinator/worker link misbehaved in a way
    /// that is not attributable to one task attempt (those surface as
    /// [`MrError::TaskFailed`] so the retry policy can re-dispatch them).
    Wire(String),
}

impl fmt::Display for MrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            MrError::FileNotFound(p) => write!(f, "dfs file not found: {p}"),
            MrError::OutputExists(p) => write!(f, "dfs output path already exists: {p}"),
            MrError::Decode(e) => write!(f, "{e}"),
            MrError::TaskFailed {
                phase,
                task,
                message,
            } => write!(f, "{phase} task {task} failed: {message}"),
            MrError::InvalidJob(m) => write!(f, "invalid job: {m}"),
            MrError::ServiceMissing(name) => write!(f, "service not attached: {name}"),
            MrError::UnsortedRun { run, partition } => write!(
                f,
                "{run} is out of key order in partition {partition}: \
                 a key is lower than the one before it"
            ),
            MrError::Wire(m) => write!(f, "wire error: {m}"),
        }
    }
}

impl Error for MrError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            MrError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<DecodeError> for MrError {
    fn from(e: DecodeError) -> Self {
        MrError::Decode(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_nonempty_and_lowercase() {
        let errs: Vec<MrError> = vec![
            MrError::FileNotFound("x".into()),
            MrError::OutputExists("y".into()),
            MrError::Decode(DecodeError::new("bad byte")),
            MrError::TaskFailed {
                phase: "map",
                task: 3,
                message: "boom".into(),
            },
            MrError::InvalidJob("no reducers".into()),
            MrError::ServiceMissing("aug_proc".into()),
            MrError::UnsortedRun {
                run: "schimmy input g".into(),
                partition: 1,
            },
            MrError::Wire("truncated result".into()),
        ];
        for e in errs {
            let s = e.to_string();
            assert!(!s.is_empty());
            assert!(s.chars().next().unwrap().is_lowercase());
        }
    }

    #[test]
    fn decode_error_is_source() {
        let e = MrError::from(DecodeError::new("oops"));
        assert!(e.source().is_some());
    }

    #[test]
    fn error_types_are_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<MrError>();
        assert_send_sync::<DecodeError>();
    }
}
