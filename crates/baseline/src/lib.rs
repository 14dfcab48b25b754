//! Baseline inference systems for the evaluation (Sec. 6), built as
//! behavioural substitutes for the external tools the paper compares
//! against, which are not part of this repository. Each keeps what its
//! comparison rests on, not the tool's code (README.md, "Substitutes for
//! the paper's tools and programs"):
//!
//! * [`enumerative`] — an exact but *single-stage, structure-blind*
//!   engine in the spirit of PSI: it expands the model into the flat
//!   two-level sum-of-products of Fig. 3c (no factorization, no
//!   deduplication, no caching) and recomputes everything from scratch
//!   for every dataset and query, failing with a resource-exhaustion
//!   outcome when the term count explodes;
//! * [`sampler`] — rejection-sampling probability estimation in the
//!   spirit of BLOG (Fig. 8);
//! * [`verifair`] — an adaptive-concentration sampling fairness verifier
//!   in the spirit of VeriFair (Table 2);
//! * [`fairsquare`] — an interval-refinement volume-bounding fairness
//!   verifier in the spirit of FairSquare (Table 2).

pub mod enumerative;
pub mod fairsquare;
pub mod sampler;
pub mod verifair;
