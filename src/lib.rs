//! # viderec
//!
//! A from-scratch Rust implementation of *Online Video Recommendation in
//! Sharing Community* (Zhou, Cao, Chen, Huang, Zhang, Wang — SIGMOD 2015):
//! content–social fused video recommendation where the query is a clicked
//! video, no viewer profile required.
//!
//! This crate is the facade over the workspace; see the member crates for
//! the subsystems:
//!
//! | crate | role |
//! |---|---|
//! | [`video`] | frames, toy codec, synthetic videos, editing transforms, shot detection |
//! | [`emd`] | exact EMD (1-D closed form and its lane kernel), κJ/DTW/ERP |
//! | [`signature`] | video cuboid signatures and series |
//! | [`social`] | social descriptors, UIG, sub-community extraction (SAR), maintenance |
//! | [`index`] | shift-add-xor chained hashing, inverted files, LSB forest |
//! | [`core`] | the recommender: FJ fusion, strategies, KNN, update wiring |
//! | [`eval`] | community simulator, metrics, experiment runners |
//!
//! ## Quickstart
//!
//! ```
//! use viderec::core::{Recommender, RecommenderConfig, QueryVideo, Strategy};
//! use viderec::eval::community::{Community, CommunityConfig};
//!
//! // A small synthetic sharing community (deterministic in the seed).
//! let community = Community::generate(CommunityConfig::tiny(7));
//! let recommender =
//!     Recommender::build(RecommenderConfig { k_subcommunities: 10, ..Default::default() },
//!                        community.source_corpus())
//!         .expect("valid corpus");
//!
//! // The user clicks a video; recommend relevant ones with the full
//! // content-social fusion.
//! let clicked = community.query_videos()[0];
//! let query = QueryVideo {
//!     series: recommender.series_of(clicked).unwrap().clone(),
//!     users: recommender.users_of(clicked).unwrap().to_vec(),
//! };
//! let recs = recommender.recommend_excluding(Strategy::CsfSarH, &query, 5, &[clicked]);
//! assert!(!recs.is_empty());
//! ```

pub use viderec_core as core;
pub use viderec_emd as emd;
pub use viderec_eval as eval;
pub use viderec_index as index;
pub use viderec_signature as signature;
pub use viderec_social as social;
pub use viderec_video as video;
