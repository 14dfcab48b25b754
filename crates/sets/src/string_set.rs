//! Finite and cofinite sets of strings.

use std::collections::BTreeSet;
use std::fmt;

/// A set of strings that is either finite (`{s₁ … sₘ}`) or cofinite
/// (everything *except* `{s₁ … sₘ}`), matching the paper's
/// `{s₁ … sₘ}^b` syntax where the flag `b = #t` marks the complement
/// (Lst. 1a, case `FiniteStr`).
///
/// ```
/// use sppl_sets::StringSet;
/// let s = StringSet::finite(["India", "USA"]);
/// assert!(s.contains("India"));
/// let c = s.complement();
/// assert!(!c.contains("India"));
/// assert!(c.contains("China"));
/// ```
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum StringSet {
    /// Exactly these strings.
    Finite(BTreeSet<String>),
    /// Every string except these.
    Cofinite(BTreeSet<String>),
}

impl StringSet {
    /// The empty set of strings.
    pub fn empty() -> StringSet {
        StringSet::Finite(BTreeSet::new())
    }

    /// The set of all strings.
    pub fn all() -> StringSet {
        StringSet::Cofinite(BTreeSet::new())
    }

    /// A finite set from an iterator of names.
    pub fn finite<I, S>(items: I) -> StringSet
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        StringSet::Finite(items.into_iter().map(Into::into).collect())
    }

    /// A cofinite set (all strings except the given ones).
    pub fn cofinite<I, S>(items: I) -> StringSet
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        StringSet::Cofinite(items.into_iter().map(Into::into).collect())
    }

    /// Membership test.
    pub fn contains(&self, s: &str) -> bool {
        match self {
            StringSet::Finite(set) => set.contains(s),
            StringSet::Cofinite(set) => !set.contains(s),
        }
    }

    /// True when no string is a member.
    pub fn is_empty(&self) -> bool {
        matches!(self, StringSet::Finite(s) if s.is_empty())
    }

    /// True when every string is a member.
    pub fn is_all(&self) -> bool {
        matches!(self, StringSet::Cofinite(s) if s.is_empty())
    }

    /// Set complement.
    pub fn complement(&self) -> StringSet {
        match self {
            StringSet::Finite(s) => StringSet::Cofinite(s.clone()),
            StringSet::Cofinite(s) => StringSet::Finite(s.clone()),
        }
    }

    /// Set union.
    pub fn union(&self, other: &StringSet) -> StringSet {
        use StringSet::*;
        match (self, other) {
            (Finite(a), Finite(b)) => Finite(a.union(b).cloned().collect()),
            (Cofinite(a), Cofinite(b)) => Cofinite(a.intersection(b).cloned().collect()),
            (Finite(f), Cofinite(c)) | (Cofinite(c), Finite(f)) => {
                Cofinite(c.difference(f).cloned().collect())
            }
        }
    }

    /// Set intersection.
    pub fn intersection(&self, other: &StringSet) -> StringSet {
        use StringSet::*;
        match (self, other) {
            (Finite(a), Finite(b)) => Finite(a.intersection(b).cloned().collect()),
            (Cofinite(a), Cofinite(b)) => Cofinite(a.union(b).cloned().collect()),
            (Finite(f), Cofinite(c)) | (Cofinite(c), Finite(f)) => {
                Finite(f.difference(c).cloned().collect())
            }
        }
    }

    /// Set difference `self \ other`.
    pub fn difference(&self, other: &StringSet) -> StringSet {
        self.intersection(&other.complement())
    }

    /// True when the two sets share no string.
    pub fn is_disjoint(&self, other: &StringSet) -> bool {
        self.intersection(other).is_empty()
    }

    /// Iterates over the *named* strings (the finite basis), regardless of
    /// polarity. Useful for enumerating atoms of categorical distributions.
    pub fn named(&self) -> impl Iterator<Item = &str> {
        match self {
            StringSet::Finite(s) | StringSet::Cofinite(s) => s.iter().map(String::as_str),
        }
    }

    /// True when the set is finite (positive polarity).
    pub fn is_finite(&self) -> bool {
        matches!(self, StringSet::Finite(_))
    }
}

impl Default for StringSet {
    fn default() -> Self {
        StringSet::empty()
    }
}

impl fmt::Display for StringSet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let (set, bar) = match self {
            StringSet::Finite(s) => (s, ""),
            StringSet::Cofinite(s) => (s, "¬"),
        };
        let names: Vec<&str> = set.iter().map(String::as_str).collect();
        write!(f, "{}{{{}}}", bar, names.join(", "))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn membership_and_polarity() {
        let s = StringSet::finite(["a", "b"]);
        assert!(s.contains("a") && !s.contains("c"));
        let c = s.complement();
        assert!(!c.contains("a") && c.contains("c"));
        assert_eq!(c.complement(), s);
    }

    #[test]
    fn union_all_cases() {
        let f1 = StringSet::finite(["a", "b"]);
        let f2 = StringSet::finite(["b", "c"]);
        assert_eq!(f1.union(&f2), StringSet::finite(["a", "b", "c"]));
        let c1 = StringSet::cofinite(["a", "b"]);
        let c2 = StringSet::cofinite(["b", "c"]);
        assert_eq!(c1.union(&c2), StringSet::cofinite(["b"]));
        // finite ∪ cofinite: excludes only the excluded-not-included.
        let u = f1.union(&c2);
        assert!(u.contains("a") && u.contains("b") && !u.contains("c") && u.contains("z"));
    }

    #[test]
    fn intersection_all_cases() {
        let f1 = StringSet::finite(["a", "b"]);
        let f2 = StringSet::finite(["b", "c"]);
        assert_eq!(f1.intersection(&f2), StringSet::finite(["b"]));
        let c1 = StringSet::cofinite(["a"]);
        let c2 = StringSet::cofinite(["b"]);
        assert_eq!(c1.intersection(&c2), StringSet::cofinite(["a", "b"]));
        assert_eq!(f1.intersection(&c1), StringSet::finite(["b"]));
    }

    #[test]
    fn empties_and_universes() {
        assert!(StringSet::empty().is_empty());
        assert!(StringSet::all().is_all());
        assert!(StringSet::empty().complement().is_all());
        let f = StringSet::finite(["x"]);
        assert!(f.is_disjoint(&StringSet::finite(["y"])));
        assert!(!f.is_disjoint(&StringSet::all()));
    }

    #[test]
    fn difference() {
        let all = StringSet::all();
        let d = all.difference(&StringSet::finite(["q"]));
        assert!(!d.contains("q") && d.contains("r"));
    }
}
