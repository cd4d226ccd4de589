//! Error types for the radiation substrate.

use core::fmt;

/// Result alias with [`RadiationError`].
pub type Result<T> = core::result::Result<T, RadiationError>;

/// Errors produced by the radiation environment.
#[derive(Debug, Clone, PartialEq)]
pub enum RadiationError {
    /// A query position was inside the Earth (no trapped-particle
    /// environment is defined there).
    BelowSurface {
        /// Geocentric radius of the query \[km\].
        radius_km: f64,
    },
    /// Propagation of the orbit being integrated failed.
    Propagation(ssplane_astro::AstroError),
}

impl fmt::Display for RadiationError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            RadiationError::BelowSurface { radius_km } => {
                write!(f, "query position below the Earth surface (r = {radius_km} km)")
            }
            RadiationError::Propagation(e) => write!(f, "orbit propagation failed: {e}"),
        }
    }
}

impl std::error::Error for RadiationError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            RadiationError::Propagation(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ssplane_astro::AstroError> for RadiationError {
    fn from(e: ssplane_astro::AstroError) -> Self {
        RadiationError::Propagation(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = RadiationError::BelowSurface { radius_km: 6000.0 };
        assert!(e.to_string().contains("6000"));
        assert!(e.source().is_none());
        let e: RadiationError = ssplane_astro::AstroError::NoSolution { what: "x" }.into();
        assert!(e.source().is_some());
    }
}
