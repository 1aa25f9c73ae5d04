//! Name matching strategies (design decision D1 in ARCHITECTURE.md).
//!
//! The paper's formal rule requires case-insensitive equality (Levenshtein
//! distance 0) but explicitly notes "in order to be more general,
//! wildcards could be allowed". Its motivating example (`setName` vs
//! `setPersonName`) needs *some* relaxation, so the matcher is pluggable:
//! the paper-default [`NameMatcher::Exact`], plus the generalizations the
//! paper gestures at.

use std::collections::HashMap;

use pti_metamodel::split_ident_tokens;

use crate::levenshtein::levenshtein_ci;

/// Strategy for deciding whether two identifiers "have the same name".
///
/// Matching is always case-insensitive, per the paper. `target` is the
/// name from the *type of interest* (the local expectation); `source` is
/// the name from the received type.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub enum NameMatcher {
    /// Case-insensitive equality — Levenshtein distance 0. The paper's
    /// stated rule and the default.
    #[default]
    Exact,
    /// Case-insensitive Levenshtein distance at most the given threshold.
    Levenshtein(usize),
    /// The target name is interpreted as a glob pattern over the source
    /// name: `*` matches any run, `?` matches one character. The paper's
    /// "wildcards could be allowed" extension.
    Wildcard,
    /// Names match when one's camel-case/snake-case token sequence is an
    /// ordered subsequence of the other's: `setName` matches
    /// `setPersonName`. What the paper's Section 3.1 example requires.
    TokenSubsequence,
    /// Names match when their canonical forms (after synonym folding,
    /// case-insensitive) are equal. Lets deployments declare that
    /// `Person` and `Human`, or `get` and `fetch`, are the same word.
    Synonyms(SynonymTable),
}

/// A fold-to-canonical synonym dictionary used by
/// [`NameMatcher::Synonyms`]. Whole identifiers and individual camel-case
/// tokens are both folded.
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct SynonymTable {
    canon: HashMap<String, String>,
}

impl SynonymTable {
    /// Creates an empty table (behaves like [`NameMatcher::Exact`]).
    pub fn new() -> SynonymTable {
        SynonymTable::default()
    }

    /// Declares `alias` to mean `canonical` (case-insensitive).
    pub fn alias(&mut self, alias: &str, canonical: &str) -> &mut Self {
        self.canon
            .insert(alias.to_ascii_lowercase(), canonical.to_ascii_lowercase());
        self
    }

    /// Builder-style [`alias`](Self::alias).
    #[must_use]
    pub fn with(mut self, alias: &str, canonical: &str) -> Self {
        self.alias(alias, canonical);
        self
    }

    fn fold_token(&self, token: &str) -> String {
        let t = token.to_ascii_lowercase();
        self.canon.get(&t).cloned().unwrap_or(t)
    }

    /// Canonical form of a whole identifier: tokenized, each token folded,
    /// re-joined.
    pub fn fold(&self, ident: &str) -> String {
        split_ident_tokens(ident)
            .iter()
            .map(|t| self.fold_token(t))
            .collect::<Vec<_>>()
            .join("-")
    }
}

impl NameMatcher {
    /// Whether `source` satisfies the name `target` expects.
    pub fn matches(&self, target: &str, source: &str) -> bool {
        match self {
            NameMatcher::Exact => target.eq_ignore_ascii_case(source),
            NameMatcher::Levenshtein(k) => levenshtein_ci(target, source) <= *k,
            NameMatcher::Wildcard => glob_match_ci(target, source),
            NameMatcher::TokenSubsequence => {
                target.eq_ignore_ascii_case(source)
                    || token_subsequence(target, source)
                    || token_subsequence(source, target)
            }
            NameMatcher::Synonyms(table) => table.fold(target) == table.fold(source),
        }
    }

    /// A distance used to rank multiple matching candidates (smaller is
    /// better); the paper leaves the choice "up to the programmer", and
    /// `Ambiguity::BestName` resolves by this score.
    pub fn distance(&self, target: &str, source: &str) -> usize {
        levenshtein_ci(target, source)
    }
}

/// Ordered containment of `needle`'s identifier tokens in `hay`'s.
fn token_subsequence(needle: &str, hay: &str) -> bool {
    let n = split_ident_tokens(needle);
    let h = split_ident_tokens(hay);
    if n.is_empty() {
        return false;
    }
    let mut it = h.iter();
    n.iter().all(|t| it.any(|x| x == t))
}

/// Case-insensitive glob matching with `*` and `?`.
fn glob_match_ci(pattern: &str, text: &str) -> bool {
    let p: Vec<char> = pattern.to_lowercase().chars().collect();
    let t: Vec<char> = text.to_lowercase().chars().collect();
    // Classic two-pointer with backtracking to the last `*`.
    let (mut pi, mut ti) = (0usize, 0usize);
    let mut star: Option<(usize, usize)> = None;
    while ti < t.len() {
        if pi < p.len() && (p[pi] == '?' || p[pi] == t[ti]) {
            pi += 1;
            ti += 1;
        } else if pi < p.len() && p[pi] == '*' {
            star = Some((pi, ti));
            pi += 1;
        } else if let Some((sp, st)) = star {
            pi = sp + 1;
            ti = st + 1;
            star = Some((sp, st + 1));
        } else {
            return false;
        }
    }
    while pi < p.len() && p[pi] == '*' {
        pi += 1;
    }
    pi == p.len()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_is_case_insensitive_equality() {
        let m = NameMatcher::Exact;
        assert!(m.matches("Person", "person"));
        assert!(m.matches("getName", "GETNAME"));
        assert!(!m.matches("getName", "getPersonName"));
    }

    #[test]
    fn levenshtein_threshold() {
        let m = NameMatcher::Levenshtein(2);
        assert!(m.matches("color", "colour"));
        assert!(m.matches("getNam", "getName"));
        assert!(!m.matches("getName", "getPersonName"), "distance 6 > 2");
    }

    #[test]
    fn levenshtein_zero_equals_exact() {
        let m = NameMatcher::Levenshtein(0);
        assert!(m.matches("Person", "PERSON"));
        assert!(!m.matches("Person", "Persons"));
    }

    #[test]
    fn wildcard_patterns() {
        let m = NameMatcher::Wildcard;
        assert!(m.matches("get*Name", "getPersonName"));
        assert!(m.matches("get*", "getAnything"));
        assert!(m.matches("*Name", "personName"));
        assert!(m.matches("get?ame", "getName"));
        assert!(!m.matches("get*Name", "setPersonName"));
        assert!(
            m.matches("exact", "EXACT"),
            "no wildcards degrades to exact"
        );
        assert!(!m.matches("exact", "exactly"));
    }

    #[test]
    fn wildcard_star_edge_cases() {
        let m = NameMatcher::Wildcard;
        assert!(m.matches("*", "anything"));
        assert!(m.matches("*", ""));
        assert!(m.matches("a*b*c", "aXXbYYc"));
        assert!(!m.matches("a*b*c", "aXXbYY"));
        assert!(m.matches("**", "x"));
    }

    #[test]
    fn token_subsequence_motivating_example() {
        // The paper's Section 3.1 example: two programmers' Person types.
        let m = NameMatcher::TokenSubsequence;
        assert!(m.matches("setName", "setPersonName"));
        assert!(m.matches("getName", "getPersonName"));
        assert!(m.matches("setPersonName", "setName"), "symmetric");
        assert!(!m.matches("setName", "getPersonName"), "set vs get");
        assert!(!m.matches("setAge", "setPersonName"));
    }

    #[test]
    fn token_subsequence_requires_order() {
        let m = NameMatcher::TokenSubsequence;
        assert!(!m.matches("nameSet", "setPersonName"), "order matters");
    }

    #[test]
    fn synonyms_fold_tokens() {
        let table = SynonymTable::new().with("fetch", "get").with("nom", "name");
        let m = NameMatcher::Synonyms(table);
        assert!(m.matches("getName", "fetchNom"));
        assert!(m.matches("getName", "GetName"));
        assert!(!m.matches("getName", "setName"));
    }

    #[test]
    fn distance_ranks_candidates() {
        let m = NameMatcher::TokenSubsequence;
        assert!(m.distance("setName", "setName") < m.distance("setName", "setPersonName"));
    }

    #[test]
    fn default_is_exact() {
        assert_eq!(NameMatcher::default(), NameMatcher::Exact);
    }
}
