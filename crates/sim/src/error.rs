use rasa_cpu::CpuError;
use rasa_numeric::NumericError;
use rasa_systolic::SystolicError;
use rasa_trace::TraceError;
use std::error::Error;
use std::fmt;

/// Errors produced by the end-to-end simulator.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum SimError {
    /// A design point could not be constructed.
    Design(SystolicError),
    /// Trace generation failed.
    Trace(TraceError),
    /// The CPU model rejected the run.
    Cpu(CpuError),
    /// A workload shape was invalid.
    Workload(NumericError),
    /// An experiment was configured inconsistently.
    InvalidExperiment {
        /// Human-readable description of the violated constraint.
        reason: String,
    },
    /// A persisted result document could not be parsed or decoded.
    Json {
        /// Human-readable parse/decode failure description.
        reason: String,
    },
    /// The serving layer rejected a request or configuration.
    Serve {
        /// Human-readable description of the serving failure.
        reason: String,
    },
    /// The networked serving tier failed (framing, transport or a remote
    /// error frame). See `rasa_sim::net` for the underlying error type.
    Net {
        /// Human-readable description of the network failure.
        reason: String,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            SimError::Design(e) => write!(f, "design point error: {e}"),
            SimError::Trace(e) => write!(f, "trace generation error: {e}"),
            SimError::Cpu(e) => write!(f, "cpu simulation error: {e}"),
            SimError::Workload(e) => write!(f, "workload error: {e}"),
            SimError::InvalidExperiment { reason } => {
                write!(f, "invalid experiment configuration: {reason}")
            }
            SimError::Json { reason } => write!(f, "result serialization error: {reason}"),
            SimError::Serve { reason } => write!(f, "serving error: {reason}"),
            SimError::Net { reason } => write!(f, "network serving error: {reason}"),
        }
    }
}

impl Error for SimError {
    fn source(&self) -> Option<&(dyn Error + 'static)> {
        match self {
            SimError::Design(e) => Some(e),
            SimError::Trace(e) => Some(e),
            SimError::Cpu(e) => Some(e),
            SimError::Workload(e) => Some(e),
            SimError::InvalidExperiment { .. }
            | SimError::Json { .. }
            | SimError::Serve { .. }
            | SimError::Net { .. } => None,
        }
    }
}

impl From<SystolicError> for SimError {
    fn from(value: SystolicError) -> Self {
        SimError::Design(value)
    }
}

impl From<TraceError> for SimError {
    fn from(value: TraceError) -> Self {
        SimError::Trace(value)
    }
}

impl From<CpuError> for SimError {
    fn from(value: CpuError) -> Self {
        SimError::Cpu(value)
    }
}

impl From<NumericError> for SimError {
    fn from(value: NumericError) -> Self {
        SimError::Workload(value)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn conversions_and_display() {
        let e: SimError = SystolicError::InvalidConfig {
            reason: "x".to_string(),
        }
        .into();
        assert!(e.to_string().contains("design point"));
        assert!(Error::source(&e).is_some());

        let e: SimError = TraceError::InvalidKernel {
            reason: "y".to_string(),
        }
        .into();
        assert!(e.to_string().contains("trace"));

        let e: SimError = CpuError::InvalidConfig {
            reason: "z".to_string(),
        }
        .into();
        assert!(e.to_string().contains("cpu"));

        let e: SimError = NumericError::InvalidTiling {
            reason: "w".to_string(),
        }
        .into();
        assert!(e.to_string().contains("workload"));

        let e = SimError::InvalidExperiment {
            reason: "no layers".to_string(),
        };
        assert!(e.to_string().contains("no layers"));
        assert!(Error::source(&e).is_none());
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync + 'static>() {}
        assert_send_sync::<SimError>();
    }
}
