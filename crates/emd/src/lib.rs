//! # viderec-emd
//!
//! Earth Mover's Distance and the content-similarity measures of the paper,
//! implemented from scratch (`repro_why`: EMD crates immature).
//!
//! * [`emd1d`] — the closed-form exact EMD for scalar ground distance
//!   `|x − y|` (the paper simplifies cuboids to single values, so this is the
//!   only EMD the system computes): [`emd_1d`] (the validating reference),
//!   [`emd_1d_presorted_capped`] (its sweep over presorted pairs) and
//!   [`emd_1d_soa_capped`] (the lane kernel every query runs). Its oracle,
//!   the balanced transportation problem and an exact successive-shortest-
//!   paths solver, is test support (`tests/support/`): property tests
//!   cross-validate the 1-D closed form against it.
//! * [`emd`] — `SimC = 1/(1+EMD)` (Eq. 3).
//! * [`lower_bounds`] — cheap lower bounds used for filtering before exact
//!   evaluation.
//! * [`embed`] — the CDF embedding of 1-D EMD into L1, the vectorisation the
//!   LSB-tree indexes (§4.4 embeds "EMD-metric into L1-norm space like
//!   [35]").
//! * [`measures`] — the extended Jaccard `κJ` over signature series (Eq. 4).
//! * [`dtw`] / [`erp`] — the two baseline sequence measures of Fig. 7.

#![warn(missing_docs)]

pub mod dtw;
pub mod embed;
pub mod emd;
pub mod emd1d;
pub mod erp;
pub mod lower_bounds;
pub mod measures;

pub use crate::emd::sim_c;
pub use dtw::dtw_distance;
pub use embed::{CdfEmbedder, CDF_EMBED_DIMS};
pub use emd1d::{emd_1d, emd_1d_presorted_capped, emd_1d_soa_capped};
pub use erp::erp_distance;
pub use lower_bounds::{
    centroid_lower_bound, sim_c_upper_bound, slice_features, slice_lower_bound_from_features,
};
pub use measures::{
    extended_jaccard, extended_jaccard_upper_bound, extended_jaccard_upper_bound_in,
    rounding_allowance, MatchingConfig,
};
