//! The crate error type.

use std::fmt;

/// Errors produced by SPE construction and inference.
#[derive(Debug, Clone, PartialEq)]
pub enum SpplError {
    /// Conditioning on an event with probability zero (Thm. 4.1 requires
    /// `P⟦S⟧ e > 0`).
    ZeroProbability {
        /// A rendering of the offending event.
        event: String,
    },
    /// An event mentions a variable outside the expression's scope.
    UnknownVariable {
        /// The missing variable's name.
        var: String,
    },
    /// A containment literal uses a transform over several variables,
    /// which restriction (R3) rules out.
    MultivariateTransform {
        /// A rendering of the offending transform.
        transform: String,
    },
    /// An SPE well-formedness condition (C1–C5) was violated.
    IllFormed {
        /// Which condition failed and how.
        message: String,
    },
    /// `condition0`/density was asked about a transformed variable
    /// (Remark 4.2 restricts measure-zero conditioning to base variables).
    TransformedConstraint {
        /// The variable that is derived rather than primitive.
        var: String,
    },
    /// A numeric operation left the supported domain (e.g. a distribution
    /// parameter out of range at runtime).
    Numeric {
        /// Description of the numeric failure.
        message: String,
    },
    /// A [`SharedCache`](crate::cache::SharedCache) snapshot could not be
    /// written, or an on-disk snapshot was rejected at load time — wrong
    /// magic, a [`DIGEST_VERSION`](crate::digest::DIGEST_VERSION)
    /// mismatch, or corruption. Rejection is the *safe* outcome: the
    /// cache degrades to cold (empty) instead of ever serving a value
    /// keyed under a different encoding scheme.
    Snapshot {
        /// What the snapshot reader or writer rejected.
        message: String,
    },
    /// An engine invariant was violated at runtime — e.g. a serving batch
    /// panicked mid-evaluation. Inference state is still consistent
    /// (caches only ever hold completed results), but the failing batch
    /// produced no answer. This is always a bug report, never an expected
    /// outcome of a well-formed query.
    Internal {
        /// Description of the violated invariant.
        message: String,
    },
}

impl fmt::Display for SpplError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SpplError::ZeroProbability { event } => {
                write!(f, "conditioning event has probability zero: {event}")
            }
            SpplError::UnknownVariable { var } => {
                write!(f, "variable not in scope: {var}")
            }
            SpplError::MultivariateTransform { transform } => {
                write!(f, "transform mentions several variables (R3): {transform}")
            }
            SpplError::IllFormed { message } => {
                write!(f, "ill-formed sum-product expression: {message}")
            }
            SpplError::TransformedConstraint { var } => {
                write!(f, "measure-zero constraint on transformed variable: {var}")
            }
            SpplError::Numeric { message } => write!(f, "numeric error: {message}"),
            SpplError::Snapshot { message } => {
                write!(f, "cache snapshot rejected: {message}")
            }
            SpplError::Internal { message } => {
                write!(f, "internal engine error (please report): {message}")
            }
        }
    }
}

impl std::error::Error for SpplError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_is_lowercase_and_informative() {
        let e = SpplError::ZeroProbability {
            event: "X < 0".into(),
        };
        let s = e.to_string();
        assert!(s.contains("probability zero") && s.contains("X < 0"));
    }

    #[test]
    fn implements_error_trait() {
        fn takes_err<E: std::error::Error>(_: E) {}
        takes_err(SpplError::UnknownVariable { var: "Z".into() });
    }
}
