//! Error type for scenario parsing, validation, and execution.

use core::fmt;

/// Result alias with [`ScenarioError`].
pub type Result<T> = core::result::Result<T, ScenarioError>;

/// Errors produced by the scenario engine.
#[derive(Debug, Clone, PartialEq)]
pub enum ScenarioError {
    /// A config value was missing or out of its domain.
    BadValue {
        /// Dotted parameter path (`section.key`).
        key: String,
        /// The offending value as written.
        value: String,
        /// Constraint description.
        expected: String,
    },
    /// The TOML source could not be parsed.
    Parse {
        /// 1-based line number.
        line: usize,
        /// What went wrong.
        message: String,
    },
    /// A config key or sweep axis is not in the scenario key table.
    UnknownParameter {
        /// The dotted path as written.
        key: String,
        /// The nearest known key, when one is within a few edits.
        hint: Option<&'static str>,
    },
    /// A constellation-design or evaluation routine failed.
    Core(ssplane_core::CoreError),
    /// A networking or survivability routine failed.
    Lsn(ssplane_lsn::LsnError),
    /// A demand-model routine failed.
    Demand(ssplane_demand::DemandError),
}

impl ScenarioError {
    /// Shorthand constructor for [`ScenarioError::BadValue`].
    pub fn bad_value(key: &str, value: &str, expected: &str) -> Self {
        ScenarioError::BadValue {
            key: key.to_string(),
            value: value.to_string(),
            expected: expected.to_string(),
        }
    }
}

impl fmt::Display for ScenarioError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ScenarioError::BadValue { key, value, expected } => {
                write!(f, "bad value for {key}: got '{value}', expected {expected}")
            }
            ScenarioError::Parse { line, message } => {
                write!(f, "scenario config parse error at line {line}: {message}")
            }
            ScenarioError::UnknownParameter { key, hint } => {
                write!(f, "unknown scenario parameter '{key}'")?;
                match hint {
                    Some(hint) => write!(f, " — did you mean `{hint}`?"),
                    None => Ok(()),
                }
            }
            ScenarioError::Core(e) => write!(f, "design error: {e}"),
            ScenarioError::Lsn(e) => write!(f, "networking/survivability error: {e}"),
            ScenarioError::Demand(e) => write!(f, "demand error: {e}"),
        }
    }
}

impl std::error::Error for ScenarioError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            ScenarioError::Core(e) => Some(e),
            ScenarioError::Lsn(e) => Some(e),
            ScenarioError::Demand(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ssplane_core::CoreError> for ScenarioError {
    fn from(e: ssplane_core::CoreError) -> Self {
        ScenarioError::Core(e)
    }
}

impl From<ssplane_lsn::LsnError> for ScenarioError {
    fn from(e: ssplane_lsn::LsnError) -> Self {
        ScenarioError::Lsn(e)
    }
}

impl From<ssplane_demand::DemandError> for ScenarioError {
    fn from(e: ssplane_demand::DemandError) -> Self {
        ScenarioError::Demand(e)
    }
}
