//! Errors raised by the fault-injection layer.

use std::fmt;

/// Errors from profiles, parameter files, and campaign setup.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum FiError {
    /// A parameter file line did not parse.
    BadParamFile {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A profile file line did not parse.
    BadProfileFile {
        /// 1-based line number.
        line: usize,
        /// What was wrong.
        reason: String,
    },
    /// A fault-site selection was requested from an empty population.
    EmptyPopulation {
        /// The group that had no dynamic instructions.
        group: String,
    },
    /// The golden (fault-free) run did not complete cleanly.
    GoldenRunFailed {
        /// Program name.
        program: String,
        /// How it ended.
        reason: String,
    },
    /// A parameter value was out of its documented range.
    BadParam {
        /// Parameter name.
        name: &'static str,
        /// What was wrong.
        reason: String,
    },
    /// A results log's `# meta key=value` line is missing or its value
    /// does not parse.
    BadLogMeta {
        /// The meta key.
        key: &'static str,
        /// What was wrong.
        reason: String,
    },
}

impl fmt::Display for FiError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            FiError::BadParamFile { line, reason } => {
                write!(f, "parameter file line {line}: {reason}")
            }
            FiError::BadProfileFile { line, reason } => {
                write!(f, "profile file line {line}: {reason}")
            }
            FiError::EmptyPopulation { group } => {
                write!(f, "no dynamic instructions in group {group}")
            }
            FiError::GoldenRunFailed { program, reason } => {
                write!(f, "golden run of `{program}` failed: {reason}")
            }
            FiError::BadParam { name, reason } => write!(f, "parameter `{name}`: {reason}"),
            FiError::BadLogMeta { key, reason } => write!(f, "`# meta {key}=`: {reason}"),
        }
    }
}

impl std::error::Error for FiError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_nonempty() {
        for e in [
            FiError::BadParamFile { line: 3, reason: "x".into() },
            FiError::BadProfileFile { line: 1, reason: "y".into() },
            FiError::EmptyPopulation { group: "G_FP64".into() },
            FiError::GoldenRunFailed { program: "p".into(), reason: "hang".into() },
            FiError::BadParam { name: "kernel count", reason: "negative".into() },
        ] {
            assert!(!e.to_string().is_empty());
        }
    }
}
