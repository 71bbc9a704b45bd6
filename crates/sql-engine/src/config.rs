//! Engine behaviour configuration.

use crate::faults::{Fault, FaultConfig};

/// The typing discipline of the engine instance.
///
/// The paper treats "statically typed vs dynamically typed" as an *abstract
/// property* feature of the DBMS under test (Appendix A.1): PostgreSQL
/// rejects ill-typed expressions, SQLite coerces almost anything. The engine
/// implements both disciplines so the simulated fleet can cover both ends.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum TypingMode {
    /// Dynamic typing with implicit coercions (SQLite-like).
    #[default]
    Dynamic,
    /// Strict typing: type mismatches are errors (PostgreSQL-like).
    Strict,
}

impl TypingMode {
    /// Whether implicit coercions across type families are allowed.
    pub fn allows_implicit_coercion(self) -> bool {
        matches!(self, TypingMode::Dynamic)
    }
}

/// How the engine evaluates expressions against rows.
///
/// Both strategies are observationally identical — same values, same
/// errors, same coverage sets — which the compiled↔tree differential
/// property suite and the fleet-level parity test enforce. The tree walker
/// is kept as the reference arm: it is the executable specification the
/// compiled plans are checked against, and the baseline arm of the
/// `campaign_throughput` benchmark.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, Default)]
pub enum EvalStrategy {
    /// Compile each expression once per statement into a reusable closure
    /// tree (pre-resolved column offsets, pre-validated function arity,
    /// memoized constant subtrees), cached per database. The default.
    #[default]
    Compiled,
    /// Re-walk the AST for every row (the pre-compilation evaluator).
    TreeWalk,
}

/// Execution behaviour of an engine instance: typing discipline plus the
/// injected-fault switches.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct EngineConfig {
    /// Typing discipline.
    pub typing: TypingMode,
    /// Injected logic bugs (all off by default).
    pub faults: FaultConfig,
    /// Expression evaluation strategy.
    pub eval: EvalStrategy,
}

impl EngineConfig {
    /// A fault-free, dynamically-typed configuration.
    pub fn dynamic() -> EngineConfig {
        EngineConfig {
            typing: TypingMode::Dynamic,
            ..EngineConfig::default()
        }
    }

    /// A fault-free, strictly-typed configuration.
    pub fn strict() -> EngineConfig {
        EngineConfig {
            typing: TypingMode::Strict,
            ..EngineConfig::default()
        }
    }

    /// Returns a copy using the given evaluation strategy.
    pub fn with_eval(mut self, eval: EvalStrategy) -> EngineConfig {
        self.eval = eval;
        self
    }

    /// Returns a copy with the given faults enabled.
    pub fn with_faults(mut self, faults: &[Fault]) -> EngineConfig {
        for &fault in faults {
            self.faults.enable(fault);
        }
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn coercion_permission_follows_mode() {
        assert!(TypingMode::Dynamic.allows_implicit_coercion());
        assert!(!TypingMode::Strict.allows_implicit_coercion());
    }

    #[test]
    fn with_faults_enables_the_given_faults() {
        let cfg = EngineConfig::dynamic().with_faults(&[Fault::BadNotElimination]);
        assert_eq!(cfg.faults, FaultConfig::of(&[Fault::BadNotElimination]));
    }
}
