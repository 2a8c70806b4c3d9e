//! The shared error type for starfish-rs.

use std::fmt;

/// Workspace-wide result alias.
pub type Result<T, E = Error> = std::result::Result<T, E>;

/// Errors surfaced by the Starfish runtime and its substrates.
///
/// The variants mirror the failure modes the paper's system has to cope with:
/// wire-format problems, unreachable/failed nodes, closed groups, protocol
/// violations, and checkpoint/restore incompatibilities.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Error {
    /// Malformed or truncated wire data.
    Codec(String),
    /// The destination node/process is not reachable (crashed, partitioned,
    /// or never existed).
    Unreachable(String),
    /// The channel/port/group has been closed or the endpoint shut down.
    Closed(String),
    /// An operation was used in a way the protocol forbids.
    Protocol(String),
    /// Checkpoint/restore failure (missing image, representation mismatch,
    /// value does not fit the destination word size, ...).
    Checkpoint(String),
    /// Authentication or authorization failure on a management connection.
    Auth(String),
    /// The requested entity does not exist.
    NotFound(String),
    /// The operation timed out.
    Timeout(String),
    /// Invalid argument supplied by the caller.
    InvalidArg(String),
    /// The operation was interrupted by the runtime (rollback to a
    /// checkpoint, kill, reconfiguration). Application code should propagate
    /// this out of its `run` function; the process runtime handles it.
    Interrupted(String),
}

impl Error {
    pub fn codec(msg: impl Into<String>) -> Self {
        Error::Codec(msg.into())
    }
    pub fn unreachable(msg: impl Into<String>) -> Self {
        Error::Unreachable(msg.into())
    }
    pub fn closed(msg: impl Into<String>) -> Self {
        Error::Closed(msg.into())
    }
    pub fn protocol(msg: impl Into<String>) -> Self {
        Error::Protocol(msg.into())
    }
    pub fn checkpoint(msg: impl Into<String>) -> Self {
        Error::Checkpoint(msg.into())
    }
    pub fn not_found(msg: impl Into<String>) -> Self {
        Error::NotFound(msg.into())
    }
    pub fn timeout(msg: impl Into<String>) -> Self {
        Error::Timeout(msg.into())
    }
    pub fn invalid_arg(msg: impl Into<String>) -> Self {
        Error::InvalidArg(msg.into())
    }
    pub fn interrupted(msg: impl Into<String>) -> Self {
        Error::Interrupted(msg.into())
    }
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Codec(m) => write!(f, "codec error: {m}"),
            Error::Unreachable(m) => write!(f, "unreachable: {m}"),
            Error::Closed(m) => write!(f, "closed: {m}"),
            Error::Protocol(m) => write!(f, "protocol violation: {m}"),
            Error::Checkpoint(m) => write!(f, "checkpoint error: {m}"),
            Error::Auth(m) => write!(f, "auth error: {m}"),
            Error::NotFound(m) => write!(f, "not found: {m}"),
            Error::Timeout(m) => write!(f, "timeout: {m}"),
            Error::InvalidArg(m) => write!(f, "invalid argument: {m}"),
            Error::Interrupted(m) => write!(f, "interrupted: {m}"),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_includes_category_and_message() {
        let e = Error::checkpoint("word size");
        assert_eq!(e.to_string(), "checkpoint error: word size");
        let e = Error::unreachable("n3 crashed");
        assert!(e.to_string().contains("n3 crashed"));
    }
}
