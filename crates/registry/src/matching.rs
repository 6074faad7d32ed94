//! Match results and quality ranking for semantic resource lookup.

use std::fmt;

use crate::record::ResourceRecord;

/// How well a resource satisfies a requirement; lower is better.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub enum MatchQuality {
    /// The resource's class equals the required class.
    Exact,
    /// The resource's class is a (derived) subclass of the requirement —
    /// an `hpLaserJet` where any `Printer` will do.
    Subsumed,
    /// The requirement is more specific than the resource, but the
    /// resource is declared substitutable — a generic `Printer` standing
    /// in for a requested `hpLaserJet`.
    Substitutable,
}

impl fmt::Display for MatchQuality {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let s = match self {
            MatchQuality::Exact => "exact",
            MatchQuality::Subsumed => "subsumed",
            MatchQuality::Substitutable => "substitutable",
        };
        f.write_str(s)
    }
}

/// One lookup hit: the resource and how well it matched.
#[derive(Debug, Clone, PartialEq)]
pub struct ResourceMatch {
    /// The matched resource.
    pub resource: ResourceRecord,
    /// Match quality.
    pub quality: MatchQuality,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn quality_orders_best_first() {
        assert!(MatchQuality::Exact < MatchQuality::Subsumed);
        assert!(MatchQuality::Subsumed < MatchQuality::Substitutable);
        assert_eq!(MatchQuality::Exact.to_string(), "exact");
    }
}
