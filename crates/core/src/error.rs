//! Error types for the lib·erate library.

use std::fmt;

/// Errors surfaced by lib·erate's phases.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum LiberateError {
    /// The replay could not complete a TCP handshake (e.g. the path
    /// black-holed the SYN or a penalty RST killed it).
    HandshakeFailed,
    /// No differentiation was detected, so later phases have nothing to
    /// characterize or evade.
    NoDifferentiation,
    /// Characterization could not isolate any matching field.
    NoMatchingFields,
    /// No evasion technique in the taxonomy worked.
    NoWorkingTechnique,
    /// The trace is empty or malformed for the requested operation.
    BadTrace(String),
    /// The technique only works with a cooperating server application,
    /// which a socket talking to an unmodified server does not have.
    NeedsServerSupport,
}

impl fmt::Display for LiberateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LiberateError::HandshakeFailed => write!(f, "TCP handshake failed"),
            LiberateError::NoDifferentiation => write!(f, "no differentiation detected"),
            LiberateError::NoMatchingFields => write!(f, "no matching fields found"),
            LiberateError::NoWorkingTechnique => write!(f, "no evasion technique succeeded"),
            LiberateError::BadTrace(s) => write!(f, "bad trace: {s}"),
            LiberateError::NeedsServerSupport => {
                write!(f, "technique needs a cooperating server application")
            }
        }
    }
}

impl std::error::Error for LiberateError {}

pub type Result<T> = std::result::Result<T, LiberateError>;

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_messages() {
        assert_eq!(
            LiberateError::HandshakeFailed.to_string(),
            "TCP handshake failed"
        );
        assert!(LiberateError::BadTrace("empty".into())
            .to_string()
            .contains("empty"));
    }
}
