//! Configuration of the conformance checker.

use crate::matcher::NameMatcher;

/// Variance applied to method/constructor argument types (design decision
/// D2 in ARCHITECTURE.md).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Variance {
    /// The rule exactly as printed in the paper: the received method's
    /// argument type must implicitly structurally conform to the expected
    /// method's argument type (*covariant* arguments — pragmatic, not
    /// sound in general, but symmetric with the return-type direction).
    #[default]
    PaperCovariant,
    /// Sound (contravariant) arguments: the *expected* argument type must
    /// conform to the received method's argument type, so any value the
    /// caller may legally pass is accepted by the callee.
    Strict,
}

/// What to do when one expected member matches several received members —
/// the paper "does not impose any criterion, it is up to the programmer"
/// (design decision D3).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Ambiguity {
    /// Bind to the first matching member in declaration order.
    #[default]
    First,
    /// Bind to the candidate whose name has the smallest edit distance to
    /// the expected name; ties broken by declaration order.
    BestName,
    /// Refuse to conform when more than one candidate matches.
    Error,
}

/// Behaviour when a referenced type name cannot be resolved to a
/// description on either side (e.g. the description was never published).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum Unresolved {
    /// Fall back to name conformance between the two type names — the
    /// optimistic reading that keeps the protocol "pragmatic".
    #[default]
    NameFallback,
    /// Treat unresolvable references as non-conformant.
    Fail,
}

/// Full configuration of a conformance check.
///
/// The default value reproduces the paper's printed rules: exact
/// case-insensitive names, covariant arguments, programmer-chosen (first)
/// ambiguity resolution, modifier equality required.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct ConformanceConfig {
    /// Matcher for *type* names (aspect i).
    pub type_names: NameMatcher,
    /// Matcher for member (field/method) names (aspects ii & iv).
    pub member_names: NameMatcher,
    /// Argument variance for methods and constructors (aspects iv & v).
    pub variance: Variance,
    /// Resolution of multiple matching candidates.
    pub ambiguity: Ambiguity,
    /// Handling of unresolvable referenced types.
    pub unresolved: Unresolved,
    /// Whether method/constructor modifiers must be equal ("this
    /// assumption is implicitly assumed in the rule"). On by default.
    pub ignore_modifiers: bool,
}

impl ConformanceConfig {
    /// The paper's rules exactly as printed (also `Default`).
    pub fn paper() -> ConformanceConfig {
        ConformanceConfig::default()
    }

    /// A *pragmatic* profile that also accepts the paper's Section 3.1
    /// motivating example: token-subsequence member names
    /// (`setName` ≈ `setPersonName`) with exact type names.
    pub fn pragmatic() -> ConformanceConfig {
        ConformanceConfig {
            member_names: NameMatcher::TokenSubsequence,
            ..ConformanceConfig::default()
        }
    }

    /// A strict profile: sound argument variance and ambiguity as error.
    pub fn strict() -> ConformanceConfig {
        ConformanceConfig {
            variance: Variance::Strict,
            ambiguity: Ambiguity::Error,
            unresolved: Unresolved::Fail,
            ..ConformanceConfig::default()
        }
    }

    /// Builder-style override of the type-name matcher.
    #[must_use]
    pub fn with_type_names(mut self, m: NameMatcher) -> Self {
        self.type_names = m;
        self
    }

    /// Builder-style override of the member-name matcher.
    #[must_use]
    pub fn with_member_names(mut self, m: NameMatcher) -> Self {
        self.member_names = m;
        self
    }

    /// Builder-style override of the variance mode.
    #[must_use]
    pub fn with_variance(mut self, v: Variance) -> Self {
        self.variance = v;
        self
    }

    /// Builder-style override of ambiguity resolution.
    #[must_use]
    pub fn with_ambiguity(mut self, a: Ambiguity) -> Self {
        self.ambiguity = a;
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn default_is_paper_profile() {
        let d = ConformanceConfig::default();
        assert_eq!(d, ConformanceConfig::paper());
        assert_eq!(d.type_names, NameMatcher::Exact);
        assert_eq!(d.variance, Variance::PaperCovariant);
        assert_eq!(d.ambiguity, Ambiguity::First);
        assert!(!d.ignore_modifiers);
    }

    #[test]
    fn pragmatic_relaxes_member_names_only() {
        let p = ConformanceConfig::pragmatic();
        assert_eq!(p.member_names, NameMatcher::TokenSubsequence);
        assert_eq!(p.type_names, NameMatcher::Exact);
    }

    #[test]
    fn strict_profile() {
        let s = ConformanceConfig::strict();
        assert_eq!(s.variance, Variance::Strict);
        assert_eq!(s.ambiguity, Ambiguity::Error);
        assert_eq!(s.unresolved, Unresolved::Fail);
    }

    #[test]
    fn builder_overrides() {
        let c = ConformanceConfig::paper()
            .with_member_names(NameMatcher::Levenshtein(2))
            .with_variance(Variance::Strict)
            .with_ambiguity(Ambiguity::BestName)
            .with_type_names(NameMatcher::Wildcard);
        assert_eq!(c.member_names, NameMatcher::Levenshtein(2));
        assert_eq!(c.variance, Variance::Strict);
        assert_eq!(c.ambiguity, Ambiguity::BestName);
        assert_eq!(c.type_names, NameMatcher::Wildcard);
    }
}
