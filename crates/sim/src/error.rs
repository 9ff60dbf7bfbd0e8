//! Typed errors for the training-step simulator.

use std::error::Error;
use std::fmt;

/// Why a training-step simulation could not run.
///
/// The simulator is reachable from the planning service's untrusted
/// request path, so inconsistent inputs must surface as values — a
/// malformed request may cost one error response, never the process.
#[derive(Clone, Debug, PartialEq, Eq)]
#[non_exhaustive]
pub enum SimError {
    /// The plan's weighted-layer count does not match the network's
    /// segment graph.
    LayerCountMismatch {
        /// Weighted layers the plan covers.
        plan_layers: usize,
        /// Weighted layers the network actually has.
        network_layers: usize,
    },
}

impl fmt::Display for SimError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Self::LayerCountMismatch {
                plan_layers,
                network_layers,
            } => write!(
                f,
                "plan covers {plan_layers} weighted layer(s) but the network has \
                 {network_layers}; plan and network must have the same number of weighted layers"
            ),
        }
    }
}

impl Error for SimError {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_reports_both_counts() {
        let err = SimError::LayerCountMismatch {
            plan_layers: 4,
            network_layers: 7,
        };
        let msg = err.to_string();
        assert!(msg.contains('4'));
        assert!(msg.contains('7'));
    }

    #[test]
    fn error_is_send_sync() {
        fn assert_send_sync<T: Send + Sync>() {}
        assert_send_sync::<SimError>();
    }
}
