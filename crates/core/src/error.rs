//! Typed errors for the search driver: configuration validation failures
//! ([`ConfigError`]) and the top-level [`StokeError`] returned by
//! [`Session`](crate::driver::Session) runs, replacing the `expect`/panic
//! paths of the original blocking API.

use crate::search::StokeResult;
use std::fmt;
use stoke_x86::ParseError;

/// A violated [`Config`](crate::config::Config) invariant, detected by
/// [`ConfigBuilder::build`](crate::config::ConfigBuilder::build) or
/// [`Config::validate`](crate::config::Config::validate).
///
/// Each variant names one invariant that the raw `pub`-field struct could
/// previously violate silently (producing NaN move distributions, empty
/// sampling pools, or division by zero deep inside the MCMC chain).
#[derive(Debug, Clone, PartialEq)]
pub enum ConfigError {
    /// A move probability (`pc`, `po`, `ps`, `pi` or `pu`) is negative or
    /// not finite.
    InvalidMoveProbability {
        /// The offending field name.
        field: &'static str,
        /// The offending value.
        value: f64,
    },
    /// All four move-kind probabilities (`pc + po + ps + pi`) sum to zero,
    /// which would make the proposal distribution undefined.
    AllMoveProbabilitiesZero,
    /// `pu` exceeds `1.0`. Unlike the move-kind weights, which are
    /// normalized, `pu` is compared against a uniform sample directly, so
    /// it must lie in `[0, 1]` (at `1.0` every instruction move proposes
    /// `UNUSED` — legal, but degenerate).
    UnusedProbabilityOutOfRange {
        /// The offending value.
        value: f64,
    },
    /// The rewrite length ℓ is zero; a zero-slot rewrite cannot represent
    /// any program.
    ZeroRewriteLength,
    /// The opcode pool is empty: instruction moves would have nothing to
    /// sample.
    EmptyOpcodePool,
    /// The register pool is empty: operand moves would have nothing to
    /// sample.
    EmptyRegisterPool,
    /// `rerank_margin` is below `1.0` (or not finite), which would discard
    /// the best candidate from its own re-rank window.
    RerankMarginTooSmall {
        /// The offending value.
        value: f64,
    },
    /// `threads` is zero; the search needs at least one chain.
    ZeroThreads,
    /// The annealing constant β is not finite or not positive. A zero or
    /// NaN β degrades the Metropolis acceptance test to "accept
    /// everything" (the early-termination bound becomes infinite or NaN),
    /// silently turning the search into a pure random walk.
    InvalidBeta {
        /// The offending value.
        value: f64,
    },
    /// `perf_weight` is negative or not finite; a negative weight would
    /// reward *slower* rewrites during optimization.
    InvalidPerfWeight {
        /// The offending value.
        value: f64,
    },
    /// `num_testcases` is zero: with an empty suite every rewrite has
    /// cost 0, so synthesis instantly "succeeds" with garbage.
    ZeroTestcases,
    /// A cost-model weight is out of range: the
    /// [`CostModelSpec::ConstantTime`](crate::model::CostModelSpec::ConstantTime)
    /// penalty must be finite and non-negative — a negative penalty would
    /// reward rewrites for leaking secrets.
    InvalidCostWeight {
        /// The offending weight (`penalty`).
        field: &'static str,
        /// The offending value.
        value: f64,
    },
}

impl fmt::Display for ConfigError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ConfigError::InvalidMoveProbability { field, value } => {
                write!(
                    f,
                    "move probability `{field}` must be finite and non-negative, got {value}"
                )
            }
            ConfigError::AllMoveProbabilitiesZero => {
                write!(
                    f,
                    "move probabilities pc + po + ps + pi must not all be zero"
                )
            }
            ConfigError::UnusedProbabilityOutOfRange { value } => {
                write!(
                    f,
                    "`pu` is an absolute probability and must be <= 1.0, got {value}"
                )
            }
            ConfigError::ZeroRewriteLength => {
                write!(f, "rewrite length `ell` must be at least 1")
            }
            ConfigError::EmptyOpcodePool => write!(f, "the opcode pool must not be empty"),
            ConfigError::EmptyRegisterPool => write!(f, "the register pool must not be empty"),
            ConfigError::RerankMarginTooSmall { value } => {
                write!(
                    f,
                    "`rerank_margin` must be a finite value >= 1.0, got {value}"
                )
            }
            ConfigError::ZeroThreads => write!(f, "`threads` must be at least 1"),
            ConfigError::InvalidBeta { value } => {
                write!(f, "`beta` must be a finite value > 0, got {value}")
            }
            ConfigError::InvalidPerfWeight { value } => {
                write!(
                    f,
                    "`perf_weight` must be finite and non-negative, got {value}"
                )
            }
            ConfigError::ZeroTestcases => {
                write!(f, "`num_testcases` must be at least 1")
            }
            ConfigError::InvalidCostWeight { field, value } => {
                write!(
                    f,
                    "cost model weight `{field}` must be finite and non-negative, got {value}"
                )
            }
        }
    }
}

impl std::error::Error for ConfigError {}

/// The error type of the session-based driver API.
#[derive(Debug, Clone)]
pub enum StokeError {
    /// Assembly text failed to parse.
    Parse(ParseError),
    /// The configuration violates an invariant (see [`ConfigError`]).
    InvalidConfig(ConfigError),
    /// The target program contains no instructions, so there is nothing to
    /// optimize against.
    EmptyTarget,
    /// The search budget (wall clock, proposal count, or an explicit
    /// cancellation) ran out before the pipeline completed.
    BudgetExhausted {
        /// The best result assembled from the work finished before the
        /// budget ran out. Its candidates passed every test case run so
        /// far, but the symbolic validation stage was skipped, so the
        /// verification status is at most
        /// [`Verification::TestsOnly`](crate::search::Verification::TestsOnly).
        partial: Box<StokeResult>,
    },
    /// The run panicked, for example inside a custom
    /// [`CostModel`](crate::model::CostModel) or
    /// [`Verifier`](crate::verifier::Verifier). The session does not catch
    /// panics itself; a host that does, such as `stoke-serve`, reports
    /// the panic's message here.
    Panicked(String),
}

impl fmt::Display for StokeError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            StokeError::Parse(e) => write!(f, "{e}"),
            StokeError::InvalidConfig(e) => write!(f, "invalid configuration: {e}"),
            StokeError::EmptyTarget => write!(f, "the target program is empty"),
            StokeError::BudgetExhausted { .. } => {
                write!(f, "search budget exhausted before the pipeline completed")
            }
            StokeError::Panicked(message) => write!(f, "the search panicked: {message}"),
        }
    }
}

impl std::error::Error for StokeError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            StokeError::Parse(e) => Some(e),
            StokeError::InvalidConfig(e) => Some(e),
            _ => None,
        }
    }
}

impl From<ParseError> for StokeError {
    fn from(e: ParseError) -> StokeError {
        StokeError::Parse(e)
    }
}

impl From<ConfigError> for StokeError {
    fn from(e: ConfigError) -> StokeError {
        StokeError::InvalidConfig(e)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn display_names_the_offending_field() {
        let e = ConfigError::InvalidMoveProbability {
            field: "pc",
            value: -0.5,
        };
        assert!(e.to_string().contains("pc"));
        assert!(e.to_string().contains("-0.5"));
    }

    #[test]
    fn stoke_error_wraps_sources() {
        let parse: StokeError = "bogus instruction"
            .parse::<stoke_x86::Program>()
            .unwrap_err()
            .into();
        assert!(matches!(parse, StokeError::Parse(_)));
        let config: StokeError = ConfigError::ZeroThreads.into();
        assert!(std::error::Error::source(&config).is_some());
        assert!(config.to_string().contains("threads"));
    }
}
