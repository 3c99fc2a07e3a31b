//! # viderec-core
//!
//! The recommender of *Online Video Recommendation in Sharing Community*
//! (SIGMOD 2015), assembled from the substrate crates:
//!
//! * content relevance — cuboid signatures + EMD + `κJ`
//!   (`viderec-signature` / `viderec-emd`);
//! * social relevance — descriptors + `sJ`, SAR approximation
//!   (`viderec-social`);
//! * indexing — chained hashing, inverted files, LSB forest
//!   (`viderec-index`).
//!
//! The central type is [`recommender::Recommender`]: build it over a corpus
//! of videos with their engaged users, then ask for top-K recommendations
//! with any of the paper's strategies ([`relevance::Strategy`]):
//!
//! | Strategy | §5 name | Social side | Search |
//! |---|---|---|---|
//! | `Cr` | CR [35] | none | exact or LSB-indexed |
//! | `Sr` | SR | exact `sJ` | exact scan |
//! | `Csf` | CSF | exact `sJ` | exact scan |
//! | `CsfSar` | CSF-SAR | SAR vectors | exact scan |
//! | `CsfSarH` | CSF-SAR-H | SAR + chained hash | inverted files + LSB (Fig. 6) |
//!
//! [`baselines`] adds AFFRF (Yang et al., CIVR'07) over synthetic multimodal
//! features, and [`maintenance`] wires the Fig. 5 social-updates algorithm
//! into the index structures.
//!
//! There is one query engine, and it is pruned against corpus-owned scoring
//! caches: the recommender builds a structure-of-arrays arena at ingest
//! (signature means, quantile-slice features, presorted EMD pairs), extends
//! it through maintenance, and [`recommender::Recommender::recommend`] scans
//! against it, skipping candidates via admissible `κJ` ceilings ([`prune`])
//! while returning results bit-identical to the unpruned reference.

#![warn(missing_docs)]

mod arena;
mod topk;

pub mod baselines;
pub mod config;
pub mod corpus;
pub mod errors;
pub mod maintenance;
pub mod prune;
pub mod recommender;
pub mod relevance;
pub mod trace;

pub use config::{RecommenderConfig, RetrievalMode};
pub use corpus::{CorpusVideo, QueryVideo};
pub use errors::RecError;
pub use maintenance::{SocialUpdate, UpdateEvent, UpdateSummary};
pub use prune::{PruneBound, PruneStats};
pub use recommender::{Recommender, Scored};
pub use relevance::{fuse_fj, Strategy};
pub use trace::{QueryTrace, Stage, Tracer, NUM_STAGES};
