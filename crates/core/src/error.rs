//! Error type of the LBR engine.

use std::fmt;

/// Errors produced by query execution.
#[derive(Debug)]
pub enum LbrError {
    /// Error from the SPARQL front end.
    Sparql(lbr_sparql::SparqlError),
    /// Error from the BitMat catalog.
    BitMat(lbr_bitmat::BitMatError),
    /// A construct the engine does not support.
    Unsupported(String),
    /// A configured resource limit was exceeded (used by the benchmark
    /// harness to bound runaway baseline plans, like the paper's
    /// ">30 min" table entries).
    ResourceLimit(String),
    /// The request's execution deadline passed before evaluation
    /// finished. The serving layer maps this to HTTP `504`; the engine
    /// guarantees the join stopped enumerating seeds promptly after the
    /// deadline (see [`crate::LbrEngine::with_deadline`]).
    DeadlineExceeded,
}

impl fmt::Display for LbrError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            LbrError::Sparql(e) => write!(f, "query error: {e}"),
            LbrError::BitMat(e) => write!(f, "index error: {e}"),
            LbrError::Unsupported(m) => write!(f, "unsupported: {m}"),
            LbrError::ResourceLimit(m) => write!(f, "resource limit exceeded: {m}"),
            LbrError::DeadlineExceeded => f.write_str("deadline exceeded: query timed out"),
        }
    }
}

impl std::error::Error for LbrError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LbrError::Sparql(e) => Some(e),
            LbrError::BitMat(e) => Some(e),
            LbrError::Unsupported(_) | LbrError::ResourceLimit(_) | LbrError::DeadlineExceeded => {
                None
            }
        }
    }
}

impl From<lbr_sparql::SparqlError> for LbrError {
    fn from(e: lbr_sparql::SparqlError) -> Self {
        LbrError::Sparql(e)
    }
}

impl From<lbr_bitmat::BitMatError> for LbrError {
    fn from(e: lbr_bitmat::BitMatError) -> Self {
        LbrError::BitMat(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_and_source() {
        use std::error::Error;
        let e = LbrError::from(lbr_sparql::SparqlError::UnknownPrefix("x".into()));
        assert!(e.to_string().contains("x:"));
        assert!(e.source().is_some());
        let e = LbrError::Unsupported("predicate joins".into());
        assert!(e.to_string().contains("predicate joins"));
        assert!(e.source().is_none());
    }
}
