//! Search configuration: the MCMC parameters of Figure 11 plus the knobs
//! this reproduction adds (iteration budgets, thread counts, cost-model and
//! verifier selection), and the validating [`ConfigBuilder`] used by the
//! session-based driver API. How rewrites are executed is not
//! configurable: every search evaluates `eq'` through the one batched
//! engine (see [`cost`](crate::cost)).

use crate::error::ConfigError;
use crate::model::CostModelSpec;
use crate::verifier::VerifierSpec;
use stoke_x86::{Gpr, Opcode};

/// Which register-equality metric the cost function uses (§4.6).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EqMetric {
    /// Equation 9: Hamming distance between each live output register and
    /// the same register of the rewrite.
    Strict,
    /// Equation 15: reward correct values in the wrong register by taking
    /// the minimum distance over all same-width registers, plus a small
    /// misplacement penalty `wm`.
    Improved,
}

/// Configuration of a STOKE search.
///
/// The defaults reproduce Figure 11 of the paper:
///
/// | parameter | value | | parameter | value |
/// |---|---|---|---|---|
/// | `wsf` | 1 | | `pc` (opcode move) | 0.16 |
/// | `wfp` | 1 | | `po` (operand move) | 0.5 |
/// | `wur` | 2 | | `ps` (swap move) | 0.16 |
/// | `wm` | 3 | | `pi` (instruction move) | 0.16 |
/// | `β` | 0.1 | | `pu` (unused token) | 0.16 |
/// | `ℓ` | 50 | | test cases | 32 |
#[derive(Debug, Clone, PartialEq)]
pub struct Config {
    /// Weight of a segmentation fault in `err(·)`.
    pub wsf: u64,
    /// Weight of an arithmetic (floating point in the paper) exception.
    pub wfp: u64,
    /// Weight of a read from an undefined location.
    pub wur: u64,
    /// Misplacement penalty of the improved equality metric.
    pub wm: u64,
    /// Probability of an opcode move.
    pub pc: f64,
    /// Probability of an operand move.
    pub po: f64,
    /// Probability of a swap move.
    pub ps: f64,
    /// Probability of an instruction move.
    pub pi: f64,
    /// Probability that an instruction move proposes the `UNUSED` token.
    pub pu: f64,
    /// The annealing constant β of Equation 6.
    pub beta: f64,
    /// Rewrite length ℓ (number of instruction slots).
    pub ell: usize,
    /// Number of test cases generated per target.
    pub num_testcases: usize,
    /// Which register equality metric to use.
    pub eq_metric: EqMetric,
    /// Whether to use the early-termination acceptance computation (§4.5).
    pub early_termination: bool,
    /// Weight of the performance term during optimization (the correctness
    /// term is measured in bits, so latency is scaled to stay comparable).
    pub perf_weight: f64,
    /// Number of proposals evaluated per synthesis run.
    pub synthesis_iterations: u64,
    /// Number of proposals evaluated per optimization run.
    pub optimization_iterations: u64,
    /// Number of parallel synthesis/optimization chains.
    pub threads: usize,
    /// Candidates within this factor of the best cost are re-ranked by the
    /// timing model (the paper keeps everything within 20%).
    pub rerank_margin: f64,
    /// RNG seed (searches are deterministic given the seed).
    pub seed: u64,
    /// The opcode universe sampled by instruction/opcode moves.
    pub opcode_pool: Vec<Opcode>,
    /// The constant pool sampled for immediate operands.
    pub immediate_pool: Vec<i64>,
    /// Registers eligible as random operands. `rsp` is excluded by default
    /// so that random rewrites do not trample the stack engine.
    pub register_pool: Vec<Gpr>,
    /// Which cost model scores candidate rewrites (see
    /// [`CostModelSpec`]): the paper's metric by default, with the
    /// constant-time penalty built in and [`CostModelSpec::Custom`] for
    /// third-party models.
    pub cost_model: CostModelSpec,
    /// Which verifier validates surviving candidates (see
    /// [`VerifierSpec`]): the paper's cascade by default. An explicit
    /// [`Session::with_verifier`](crate::driver::Session::with_verifier)
    /// override takes precedence over this field.
    pub verifier: VerifierSpec,
    /// Whether to strip statically dead instructions from the final
    /// reported rewrite (liveness-based, validated by a re-run over the
    /// test suite). Off by default so that results remain bit-identical
    /// with earlier releases.
    pub strip_dead_code: bool,
}

impl Default for Config {
    fn default() -> Config {
        Config {
            wsf: 1,
            wfp: 1,
            wur: 2,
            wm: 3,
            pc: 0.16,
            po: 0.5,
            ps: 0.16,
            pi: 0.16,
            pu: 0.16,
            beta: 0.1,
            ell: 50,
            num_testcases: 32,
            eq_metric: EqMetric::Improved,
            early_termination: true,
            perf_weight: 1.0,
            synthesis_iterations: 200_000,
            optimization_iterations: 200_000,
            threads: 4,
            rerank_margin: 1.2,
            // The grouping spells "STOKE 2013"; regrouping would lose the pun.
            #[allow(clippy::unusual_byte_groupings)]
            seed: 0x5704e_2013,
            opcode_pool: Opcode::all(),
            immediate_pool: vec![
                0,
                1,
                -1,
                2,
                3,
                4,
                7,
                8,
                15,
                16,
                31,
                32,
                63,
                64,
                0xff,
                0xffff,
                0x7fff_ffff,
                0xffff_ffff,
                0x1_0000_0000,
                i64::MIN,
                i64::MAX,
            ],
            register_pool: Gpr::ALL
                .iter()
                .copied()
                .filter(|g| *g != Gpr::Rsp)
                .collect(),
            cost_model: CostModelSpec::Paper,
            verifier: VerifierSpec::default(),
            strip_dead_code: false,
        }
    }
}

impl Config {
    /// A configuration scaled down for unit tests and doc examples: short
    /// rewrites, few test cases, few iterations, a single thread.
    pub fn quick_test() -> Config {
        Config {
            ell: 8,
            num_testcases: 8,
            synthesis_iterations: 20_000,
            optimization_iterations: 20_000,
            threads: 1,
            ..Config::default()
        }
    }

    /// Start building a configuration from the Figure 11 defaults; every
    /// field has a setter and [`ConfigBuilder::build`] validates the
    /// invariants that a raw struct literal could violate silently.
    ///
    /// ```
    /// use stoke::Config;
    /// let config = Config::builder()
    ///     .ell(16)
    ///     .threads(2)
    ///     .synthesis_iterations(10_000)
    ///     .build()
    ///     .expect("valid configuration");
    /// assert_eq!(config.ell, 16);
    /// ```
    pub fn builder() -> ConfigBuilder {
        ConfigBuilder::default()
    }

    /// Check every invariant the builder enforces. The fields are still
    /// `pub` (raw struct construction remains supported for one release),
    /// so [`Session`](crate::driver::Session) re-validates on every run.
    ///
    /// # Errors
    /// Returns the first violated invariant as a [`ConfigError`].
    pub fn validate(&self) -> Result<(), ConfigError> {
        for (field, value) in [
            ("pc", self.pc),
            ("po", self.po),
            ("ps", self.ps),
            ("pi", self.pi),
            ("pu", self.pu),
        ] {
            if !value.is_finite() || value < 0.0 {
                return Err(ConfigError::InvalidMoveProbability { field, value });
            }
        }
        if self.pc + self.po + self.ps + self.pi == 0.0 {
            return Err(ConfigError::AllMoveProbabilitiesZero);
        }
        // pc..pi are relative weights (normalized by move_cdf), but pu is
        // compared against a uniform sample directly, so it must be a
        // genuine probability.
        if self.pu > 1.0 {
            return Err(ConfigError::UnusedProbabilityOutOfRange { value: self.pu });
        }
        if self.ell == 0 {
            return Err(ConfigError::ZeroRewriteLength);
        }
        if self.opcode_pool.is_empty() {
            return Err(ConfigError::EmptyOpcodePool);
        }
        if self.register_pool.is_empty() {
            return Err(ConfigError::EmptyRegisterPool);
        }
        if !self.rerank_margin.is_finite() || self.rerank_margin < 1.0 {
            return Err(ConfigError::RerankMarginTooSmall {
                value: self.rerank_margin,
            });
        }
        if self.threads == 0 {
            return Err(ConfigError::ZeroThreads);
        }
        if !self.beta.is_finite() || self.beta <= 0.0 {
            return Err(ConfigError::InvalidBeta { value: self.beta });
        }
        if !self.perf_weight.is_finite() || self.perf_weight < 0.0 {
            return Err(ConfigError::InvalidPerfWeight {
                value: self.perf_weight,
            });
        }
        if self.num_testcases == 0 {
            return Err(ConfigError::ZeroTestcases);
        }
        if let CostModelSpec::ConstantTime { penalty } = self.cost_model {
            if !penalty.is_finite() || penalty < 0.0 {
                return Err(ConfigError::InvalidCostWeight {
                    field: "penalty",
                    value: penalty,
                });
            }
        }
        Ok(())
    }

    /// Move probabilities as a cumulative distribution, normalized.
    ///
    /// An all-zero move distribution is unrepresentable through the
    /// builder; raw-struct construction can still produce one, which this
    /// guards against (a debug assertion, and a uniform fallback in
    /// release builds rather than a division by zero propagating NaN into
    /// the acceptance test).
    pub(crate) fn move_cdf(&self) -> [f64; 4] {
        let total = self.pc + self.po + self.ps + self.pi;
        debug_assert!(
            total > 0.0,
            "move probabilities pc + po + ps + pi must not all be zero \
             (use Config::builder() to get this checked at construction)"
        );
        if total <= 0.0 {
            return [0.25, 0.5, 0.75, 1.0];
        }
        let pc = self.pc / total;
        let po = self.po / total;
        let ps = self.ps / total;
        [pc, pc + po, pc + po + ps, 1.0]
    }
}

/// Builder for [`Config`] with per-field setters and validated
/// construction; see [`Config::builder`].
#[derive(Debug, Clone, Default)]
#[must_use = "a ConfigBuilder does nothing until .build() is called"]
pub struct ConfigBuilder {
    config: Config,
}

macro_rules! builder_setters {
    ($($(#[$doc:meta])* $name:ident: $ty:ty),* $(,)?) => {
        $(
            $(#[$doc])*
            pub fn $name(mut self, value: $ty) -> ConfigBuilder {
                self.config.$name = value;
                self
            }
        )*
    };
}

impl ConfigBuilder {
    /// Start from an existing configuration instead of the defaults.
    pub fn from_config(config: Config) -> ConfigBuilder {
        ConfigBuilder { config }
    }

    /// Start from the scaled-down [`Config::quick_test`] preset.
    pub fn quick_test() -> ConfigBuilder {
        ConfigBuilder {
            config: Config::quick_test(),
        }
    }

    builder_setters! {
        /// Weight of a segmentation fault in `err(·)`.
        wsf: u64,
        /// Weight of an arithmetic exception.
        wfp: u64,
        /// Weight of a read from an undefined location.
        wur: u64,
        /// Misplacement penalty of the improved equality metric.
        wm: u64,
        /// Probability of an opcode move.
        pc: f64,
        /// Probability of an operand move.
        po: f64,
        /// Probability of a swap move.
        ps: f64,
        /// Probability of an instruction move.
        pi: f64,
        /// Probability that an instruction move proposes the `UNUSED` token.
        pu: f64,
        /// The annealing constant β of Equation 6.
        beta: f64,
        /// Rewrite length ℓ (number of instruction slots).
        ell: usize,
        /// Number of test cases generated per target.
        num_testcases: usize,
        /// Which register equality metric to use.
        eq_metric: EqMetric,
        /// Whether to use the early-termination acceptance computation (§4.5).
        early_termination: bool,
        /// Weight of the performance term during optimization.
        perf_weight: f64,
        /// Number of proposals evaluated per synthesis run.
        synthesis_iterations: u64,
        /// Number of proposals evaluated per optimization run.
        optimization_iterations: u64,
        /// Number of parallel synthesis/optimization chains.
        threads: usize,
        /// Re-rank window as a factor of the best candidate cost.
        rerank_margin: f64,
        /// RNG seed (searches are deterministic given the seed).
        seed: u64,
        /// The opcode universe sampled by instruction/opcode moves.
        opcode_pool: Vec<Opcode>,
        /// The constant pool sampled for immediate operands.
        immediate_pool: Vec<i64>,
        /// Registers eligible as random operands.
        register_pool: Vec<Gpr>,
        /// Which cost model scores candidate rewrites.
        cost_model: CostModelSpec,
        /// Which verifier validates surviving candidates.
        verifier: VerifierSpec,
        /// Whether to strip statically dead instructions from the final
        /// reported rewrite.
        strip_dead_code: bool,
    }

    /// Validate every invariant and return the configuration.
    ///
    /// # Errors
    /// Returns the first violated invariant as a [`ConfigError`]; see
    /// [`Config::validate`] for the full list.
    pub fn build(self) -> Result<Config, ConfigError> {
        self.config.validate()?;
        Ok(self.config)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_match_figure_11() {
        let c = Config::default();
        assert_eq!((c.wsf, c.wfp, c.wur, c.wm), (1, 1, 2, 3));
        assert_eq!(c.ell, 50);
        assert_eq!(c.num_testcases, 32);
        assert!((c.beta - 0.1).abs() < 1e-12);
        assert!((c.pc - 0.16).abs() < 1e-12);
        assert!((c.po - 0.5).abs() < 1e-12);
        assert!((c.ps - 0.16).abs() < 1e-12);
        assert!((c.pi - 0.16).abs() < 1e-12);
        assert!((c.pu - 0.16).abs() < 1e-12);
    }

    #[test]
    fn move_cdf_is_monotone_and_normalized() {
        let cdf = Config::default().move_cdf();
        assert!(cdf.windows(2).all(|w| w[0] <= w[1]));
        assert!((cdf[3] - 1.0).abs() < 1e-12);
    }

    #[test]
    fn register_pool_excludes_rsp() {
        assert!(!Config::default().register_pool.contains(&Gpr::Rsp));
        assert_eq!(Config::default().register_pool.len(), 15);
    }

    #[test]
    fn builder_defaults_build_cleanly() {
        let built = Config::builder().build().expect("defaults are valid");
        assert_eq!(built.ell, Config::default().ell);
        let quick = ConfigBuilder::quick_test().build().expect("preset valid");
        assert_eq!(quick.threads, 1);
    }

    #[test]
    fn builder_rejects_negative_move_probability() {
        for field in ["pc", "po", "ps", "pi", "pu"] {
            let b = Config::builder();
            let b = match field {
                "pc" => b.pc(-0.1),
                "po" => b.po(-0.1),
                "ps" => b.ps(-0.1),
                "pi" => b.pi(-0.1),
                _ => b.pu(f64::NAN),
            };
            assert!(
                matches!(
                    b.build(),
                    Err(ConfigError::InvalidMoveProbability { field: f, .. }) if f == field
                ),
                "field {field} should be rejected"
            );
        }
    }

    #[test]
    fn builder_rejects_all_zero_move_probabilities() {
        let err = Config::builder().pc(0.0).po(0.0).ps(0.0).pi(0.0).build();
        assert_eq!(err, Err(ConfigError::AllMoveProbabilitiesZero));
    }

    #[test]
    fn builder_rejects_pu_above_one() {
        // pu is an absolute probability (unlike the normalized move-kind
        // weights): at pu >= 1.0 every instruction move proposes UNUSED.
        assert!(matches!(
            Config::builder().pu(1.5).build(),
            Err(ConfigError::UnusedProbabilityOutOfRange { .. })
        ));
        assert!(Config::builder().pu(1.0).build().is_ok());
        // The other move probabilities are weights and may exceed 1.
        assert!(Config::builder().po(5.0).build().is_ok());
    }

    #[test]
    fn builder_rejects_zero_ell() {
        assert_eq!(
            Config::builder().ell(0).build(),
            Err(ConfigError::ZeroRewriteLength)
        );
    }

    #[test]
    fn builder_rejects_empty_pools() {
        assert_eq!(
            Config::builder().opcode_pool(Vec::new()).build(),
            Err(ConfigError::EmptyOpcodePool)
        );
        assert_eq!(
            Config::builder().register_pool(Vec::new()).build(),
            Err(ConfigError::EmptyRegisterPool)
        );
    }

    #[test]
    fn builder_rejects_bad_rerank_margin() {
        assert!(matches!(
            Config::builder().rerank_margin(0.5).build(),
            Err(ConfigError::RerankMarginTooSmall { .. })
        ));
        assert!(matches!(
            Config::builder().rerank_margin(f64::NAN).build(),
            Err(ConfigError::RerankMarginTooSmall { .. })
        ));
        assert!(Config::builder().rerank_margin(1.0).build().is_ok());
    }

    #[test]
    fn builder_rejects_zero_threads() {
        assert_eq!(
            Config::builder().threads(0).build(),
            Err(ConfigError::ZeroThreads)
        );
    }

    #[test]
    fn builder_rejects_degenerate_scalars() {
        // A NaN or zero beta silently turns Metropolis acceptance into
        // "accept everything"; a negative perf weight rewards slower code;
        // an empty test suite makes every rewrite cost 0.
        assert!(matches!(
            Config::builder().beta(f64::NAN).build(),
            Err(ConfigError::InvalidBeta { .. })
        ));
        assert!(matches!(
            Config::builder().beta(0.0).build(),
            Err(ConfigError::InvalidBeta { .. })
        ));
        assert!(matches!(
            Config::builder().perf_weight(-1.0).build(),
            Err(ConfigError::InvalidPerfWeight { .. })
        ));
        assert!(Config::builder().perf_weight(0.0).build().is_ok());
        assert_eq!(
            Config::builder().num_testcases(0).build(),
            Err(ConfigError::ZeroTestcases)
        );
    }

    #[test]
    fn builder_rejects_bad_constant_time_penalty() {
        for bad in [f64::NAN, f64::INFINITY, -1.0] {
            assert!(matches!(
                Config::builder()
                    .cost_model(CostModelSpec::ConstantTime { penalty: bad })
                    .build(),
                Err(ConfigError::InvalidCostWeight {
                    field: "penalty",
                    ..
                })
            ));
        }
        assert!(Config::builder()
            .cost_model(CostModelSpec::ConstantTime { penalty: 16.0 })
            .build()
            .is_ok());
    }

    #[test]
    fn verifier_and_strip_dead_code_default_off() {
        use crate::verifier::VerifierSpec;
        let c = Config::default();
        assert_eq!(c.verifier, VerifierSpec::Cascade);
        assert!(!c.strip_dead_code);
        let c = Config::builder()
            .verifier(VerifierSpec::LeakageCascade)
            .strip_dead_code(true)
            .build()
            .unwrap();
        assert_eq!(c.verifier, VerifierSpec::LeakageCascade);
        assert!(c.strip_dead_code);
    }

    #[test]
    fn builder_from_config_preserves_fields() {
        let mut base = Config::quick_test();
        base.seed = 42;
        let rebuilt = ConfigBuilder::from_config(base.clone()).build().unwrap();
        assert_eq!(rebuilt.seed, 42);
        assert_eq!(rebuilt.ell, base.ell);
    }

    // Regression test for the raw-struct escape hatch: an all-zero move
    // distribution used to divide by zero inside `move_cdf` and poison the
    // proposal sampler with NaN. The builder makes it unrepresentable; raw
    // construction now trips a debug assertion.
    #[test]
    #[cfg(debug_assertions)]
    #[should_panic(expected = "must not all be zero")]
    fn move_cdf_asserts_on_all_zero_probabilities() {
        let config = Config {
            pc: 0.0,
            po: 0.0,
            ps: 0.0,
            pi: 0.0,
            ..Config::default()
        };
        let _ = config.move_cdf();
    }
}
