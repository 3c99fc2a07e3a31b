//! Relevance fusion — Eq. 9 — and the strategy taxonomy of §5.2.

/// The recommendation strategies compared in the paper's evaluation.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Strategy {
    /// CR — content relevance only (Zhou & Chen [35]).
    Cr,
    /// SR — social relevance only (exact `sJ`).
    Sr,
    /// CSF — content-social fusion with exact `sJ` (the unoptimised
    /// reference of Fig. 12a).
    Csf,
    /// CSF-SAR — fusion with the sub-community approximation `s̃J` (Eq. 6).
    CsfSar,
    /// CSF-SAR-H — CSF-SAR plus the chained-hash mapping and the Fig. 6
    /// index-backed KNN (the production path).
    CsfSarH,
}

impl Strategy {
    /// Whether the strategy uses any social signal.
    pub fn uses_social(self) -> bool {
        !matches!(self, Strategy::Cr)
    }

    /// Whether the strategy uses any content signal.
    pub fn uses_content(self) -> bool {
        !matches!(self, Strategy::Sr)
    }

    /// The §5 label.
    pub fn label(self) -> &'static str {
        match self {
            Strategy::Cr => "CR",
            Strategy::Sr => "SR",
            Strategy::Csf => "CSF",
            Strategy::CsfSar => "CSF-SAR",
            Strategy::CsfSarH => "CSF-SAR-H",
        }
    }
}

/// `FJ(V, Q) = (1 − ω)·κJ + ω·sJ` — Eq. 9.
///
/// # Panics
/// Debug-panics if inputs leave `[0, 1]` beyond rounding noise.
#[inline]
pub fn fuse_fj(omega: f64, kappa_j: f64, s_j: f64) -> f64 {
    debug_assert!((0.0..=1.0).contains(&omega), "omega {omega}");
    debug_assert!((-1e-9..=1.0 + 1e-9).contains(&kappa_j), "κJ {kappa_j}");
    debug_assert!((-1e-9..=1.0 + 1e-9).contains(&s_j), "sJ {s_j}");
    (1.0 - omega) * kappa_j + omega * s_j
}

/// The per-strategy effective relevance, given both raw scores. `Cr` ignores
/// the social score, `Sr` the content score; the fused strategies apply
/// Eq. 9.
pub fn strategy_score(strategy: Strategy, omega: f64, kappa_j: f64, s_j: f64) -> f64 {
    match strategy {
        Strategy::Cr => kappa_j,
        Strategy::Sr => s_j,
        Strategy::Csf | Strategy::CsfSar | Strategy::CsfSarH => fuse_fj(omega, kappa_j, s_j),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fj_endpoints() {
        assert_eq!(fuse_fj(0.0, 0.8, 0.1), 0.8);
        assert_eq!(fuse_fj(1.0, 0.8, 0.1), 0.1);
    }

    #[test]
    fn fj_is_convex_combination() {
        let f = fuse_fj(0.7, 0.4, 0.9);
        assert!((f - (0.3 * 0.4 + 0.7 * 0.9)).abs() < 1e-12);
        assert!((0.4..=0.9).contains(&f));
    }

    #[test]
    fn strategies_pick_their_signals() {
        assert_eq!(strategy_score(Strategy::Cr, 0.7, 0.5, 0.9), 0.5);
        assert_eq!(strategy_score(Strategy::Sr, 0.7, 0.5, 0.9), 0.9);
        let fused = strategy_score(Strategy::Csf, 0.7, 0.5, 0.9);
        assert!(fused > 0.5 && fused < 0.9);
        assert_eq!(fused, strategy_score(Strategy::CsfSarH, 0.7, 0.5, 0.9));
    }

    #[test]
    fn taxonomy_flags() {
        assert!(!Strategy::Cr.uses_social());
        assert!(!Strategy::Sr.uses_content());
        assert!(Strategy::Csf.uses_social() && Strategy::Csf.uses_content());
        assert_eq!(Strategy::CsfSarH.label(), "CSF-SAR-H");
    }
}
