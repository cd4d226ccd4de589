//! Error types for the LSN networking layer.

use core::fmt;

/// Result alias with [`LsnError`].
pub type Result<T> = core::result::Result<T, LsnError>;

/// Errors produced by topology construction, routing, and simulation.
#[derive(Debug, Clone, PartialEq)]
pub enum LsnError {
    /// An astrodynamics routine failed.
    Astro(ssplane_astro::AstroError),
    /// A constellation-design routine failed.
    Core(ssplane_core::CoreError),
    /// The requested node does not exist in the topology.
    UnknownNode {
        /// Plane index requested.
        plane: usize,
        /// Slot index requested.
        slot: usize,
    },
    /// No route exists between the requested endpoints.
    NoRoute,
    /// A configuration parameter was out of its domain.
    BadParameter {
        /// Parameter name.
        name: &'static str,
        /// Constraint description.
        constraint: &'static str,
    },
}

impl fmt::Display for LsnError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LsnError::Astro(e) => write!(f, "astrodynamics error: {e}"),
            LsnError::Core(e) => write!(f, "constellation design error: {e}"),
            LsnError::UnknownNode { plane, slot } => {
                write!(f, "unknown satellite (plane {plane}, slot {slot})")
            }
            LsnError::NoRoute => write!(f, "no route between the requested endpoints"),
            LsnError::BadParameter { name, constraint } => {
                write!(f, "bad parameter {name}: must satisfy {constraint}")
            }
        }
    }
}

impl std::error::Error for LsnError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LsnError::Astro(e) => Some(e),
            LsnError::Core(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ssplane_astro::AstroError> for LsnError {
    fn from(e: ssplane_astro::AstroError) -> Self {
        LsnError::Astro(e)
    }
}

impl From<ssplane_core::CoreError> for LsnError {
    fn from(e: ssplane_core::CoreError) -> Self {
        LsnError::Core(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::error::Error;

    #[test]
    fn display_and_sources() {
        let e = LsnError::NoRoute;
        assert!(e.to_string().contains("no route"));
        assert!(e.source().is_none());
        let e = LsnError::UnknownNode { plane: 2, slot: 5 };
        assert!(e.to_string().contains("plane 2"));
        let e: LsnError = ssplane_astro::AstroError::NoSolution { what: "x" }.into();
        assert!(e.source().is_some());
        let e = LsnError::BadParameter { name: "step", constraint: "> 0" };
        assert!(e.to_string().contains("step"));
    }
}
