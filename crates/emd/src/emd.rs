//! `SimC` (Eq. 3): the similarity a distance from [`crate::emd_1d`] turns
//! into.

/// `SimC(C₁, C₂) = 1 / (1 + EMD(C₁, C₂))` — Eq. 3.
#[inline]
pub fn sim_c(emd: f64) -> f64 {
    debug_assert!(emd >= -1e-9, "EMD must be non-negative");
    1.0 / (1.0 + emd.max(0.0))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sim_c_maps_distance_to_unit_interval() {
        assert_eq!(sim_c(0.0), 1.0);
        assert_eq!(sim_c(1.0), 0.5);
        assert!(sim_c(1e9) < 1e-8);
    }
}
