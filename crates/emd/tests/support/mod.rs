//! Test support: the balanced transportation problem and its exact
//! successive-shortest-paths solver, the general-distance oracle the 1-D
//! closed form is cross-validated against. No shipped code needs either.

pub mod matrix;
pub mod transport;
