//! Error type for FFMR drivers.

use std::error::Error;
use std::fmt;

use mapreduce::MrError;

/// Errors surfaced by the FFMR drivers.
#[derive(Debug)]
#[non_exhaustive]
pub enum FfError {
    /// An underlying MapReduce job failed.
    Mr(MrError),
    /// The configuration is invalid (e.g. source equals sink).
    InvalidConfig(String),
    /// The round limit was reached before the movement counters
    /// signalled termination.
    RoundLimitExceeded {
        /// The configured limit.
        limit: usize,
    },
    /// A checkpoint manifest was missing, corrupt, or written by an
    /// incompatible configuration, so the run cannot be resumed.
    Checkpoint(String),
    /// An injected driver crash (see
    /// [`CrashPoint`](crate::CrashPoint)) fired — the fault-injection
    /// analogue of the driver process dying. The DFS retains everything
    /// written so far, including the latest checkpoint manifest.
    CrashInjected {
        /// The round during/after which the crash fired.
        round: usize,
    },
}

impl fmt::Display for FfError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FfError::Mr(e) => write!(f, "mapreduce job failed: {e}"),
            FfError::InvalidConfig(m) => write!(f, "invalid ffmr config: {m}"),
            FfError::RoundLimitExceeded { limit } => {
                write!(f, "round limit of {limit} exceeded before termination")
            }
            FfError::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            FfError::CrashInjected { round } => {
                write!(f, "injected driver crash at round {round}")
            }
        }
    }
}

impl Error for FfError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            FfError::Mr(e) => Some(e),
            _ => None,
        }
    }
}

impl From<MrError> for FfError {
    fn from(e: MrError) -> Self {
        FfError::Mr(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn displays_and_sources() {
        let e = FfError::from(MrError::FileNotFound("x".into()));
        assert!(e.to_string().contains("x"));
        assert!(e.source().is_some());
        assert!(FfError::InvalidConfig("s == t".into())
            .to_string()
            .contains("s == t"));
        assert!(FfError::RoundLimitExceeded { limit: 9 }
            .to_string()
            .contains('9'));
    }

    #[test]
    fn is_send_sync() {
        fn check<T: Send + Sync>() {}
        check::<FfError>();
    }
}
