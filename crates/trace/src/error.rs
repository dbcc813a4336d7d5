use rasa_isa::IsaError;
use rasa_numeric::NumericError;
use std::error::Error;
use std::fmt;

/// Errors produced while generating instruction traces.
#[derive(Debug, Clone, PartialEq, Eq)]
#[non_exhaustive]
pub enum TraceError {
    /// The requested kernel configuration is unusable (e.g. zero tile
    /// dimensions or not enough tile registers for the register blocking).
    InvalidKernel {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// The workload shape could not be tiled.
    Shape(NumericError),
    /// The emitted program failed ISA validation (a generator bug — surfaced
    /// rather than panicking so fuzzing can exercise it).
    Emit(IsaError),
    /// A streaming trace's cursor was moved where the walk cannot go (past
    /// its last block, or across reduction steps that do not repeat).
    Stream {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
}

impl fmt::Display for TraceError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            TraceError::InvalidKernel { reason } => {
                write!(f, "invalid kernel configuration: {reason}")
            }
            TraceError::Shape(e) => write!(f, "workload shape error: {e}"),
            TraceError::Emit(e) => write!(f, "emitted program failed validation: {e}"),
            TraceError::Stream { reason } => {
                write!(f, "invalid stream move: {reason}")
            }
        }
    }
}

impl Error for TraceError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            TraceError::Shape(e) => Some(e),
            TraceError::Emit(e) => Some(e),
            TraceError::InvalidKernel { .. } | TraceError::Stream { .. } => None,
        }
    }
}

impl From<NumericError> for TraceError {
    fn from(value: NumericError) -> Self {
        TraceError::Shape(value)
    }
}

impl From<IsaError> for TraceError {
    fn from(value: IsaError) -> Self {
        TraceError::Emit(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: TraceError = NumericError::InvalidTiling {
            reason: "zero".to_string(),
        }
        .into();
        assert!(e.to_string().contains("workload shape"));
        assert!(Error::source(&e).is_some());

        let e: TraceError = IsaError::InvalidTileReg { index: 9 }.into();
        assert!(e.to_string().contains("validation"));

        let e = TraceError::InvalidKernel {
            reason: "too few registers".to_string(),
        };
        assert!(e.to_string().contains("too few registers"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<TraceError>();
    }
}
