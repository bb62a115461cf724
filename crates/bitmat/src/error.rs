//! Error type for BitMat storage.

use std::fmt;

/// Errors produced by index construction and (de)serialization.
#[derive(Debug)]
pub enum BitMatError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The on-disk index is malformed.
    Corrupt(String),
}

impl fmt::Display for BitMatError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            BitMatError::Io(e) => write!(f, "I/O error: {e}"),
            BitMatError::Corrupt(m) => write!(f, "corrupt BitMat index: {m}"),
        }
    }
}

impl std::error::Error for BitMatError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            BitMatError::Io(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for BitMatError {
    fn from(e: std::io::Error) -> Self {
        BitMatError::Io(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_variants() {
        assert!(BitMatError::Corrupt("bad magic".into())
            .to_string()
            .contains("bad magic"));
        let io = BitMatError::from(std::io::Error::other("boom"));
        assert!(io.to_string().contains("boom"));
    }
}
