//! # rim-core
//!
//! The RIM algorithms — the paper's primary contribution:
//!
//! * [`trrs`] — Time-Reversal Resonating Strength (Eqns. 1–4), with
//!   TX-antenna and virtual-massive-antenna averaging;
//! * [`alignment`] — alignment/TRRS matrices (Eqn. 5) computed with a
//!   box-filter identity that avoids the naive `O(T·W·V·S·N)` cost;
//! * [`movement`] — self-TRRS movement detection (§4.1);
//! * [`tracking_dp`] — dynamic-programming peak tracking (§4.2,
//!   Eqns. 6–8) in `O(T·W)` via a distance transform;
//! * [`reckoning`] — speed / heading / rotation math (§4.4) and the
//!   deviated-retracing error model (§3.2);
//! * [`pipeline`] — the [`pipeline::Rim`] engine tying it all together,
//!   from dense CSI to a [`pipeline::MotionEstimate`];
//! * [`stream`] — the push-based, bounded-memory real-time variant
//!   (the paper's C++ online system);
//! * [`incremental`] — the online column cache + provisional tracker
//!   that spreads segment analysis across ingest and emits mid-motion
//!   [`StreamEvent::Provisional`] estimates;
//! * [`wiball`] — the WiBall-style single-antenna speed estimator the
//!   paper discusses as a complement (§7).
//!
//! ## Entry points and errors
//!
//! Construct a [`Rim`] with [`Rim::new`] (which validates the
//! [`RimConfig`] and geometry) and analyze through the session builder:
//!
//! ```text
//! let rim = Rim::new(geometry, config)?;
//! let estimate = rim.session().probe(&recorder).analyze(&csi)?;
//! let batch    = rim.session().analyze_batch(&[&csi_a, &csi_b])?;
//! ```
//!
//! Fallible operations return [`Error`], whose messages name the
//! offending parameter and the fix — user input never panics. The
//! alignment hot path runs on a deterministic work-stealing pool
//! (`rim-par`), sized by [`RimConfig::with_threads`] or `RIM_THREADS`;
//! results are bit-identical at every thread count.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod alignment;
pub mod diagnostics;
pub mod error;
pub mod incremental;
pub mod movement;
pub mod pipeline;
pub mod reckoning;
mod soa;
pub mod stream;
pub mod tracking_dp;
pub mod trrs;
pub mod wiball;

pub use alignment::{alignment_matrix, AlignmentConfig, AlignmentMatrix};
pub use error::Error;
pub use incremental::ColumnCache;
pub use movement::{auto_threshold, detect_movement, movement_indicator, MovementConfig};
pub use pipeline::{
    Confidence, MotionEstimate, Precision, Rim, RimConfig, SegmentEstimate, SegmentKind, Session,
};
pub use stream::{
    DegradeReason, DropReason, FusedMode, GapFilter, GapOutcome, GapSample, ImuSample, RimStream,
    StreamAggregate, StreamEvent, StreamEventKind, StreamInput, StreamSession,
};
pub use tracking_dp::{track_peaks, DpConfig, TrackedPath};
pub use trrs::{
    trrs_avg, trrs_cfr, trrs_cir, trrs_massive, trrs_norm, trrs_norm_f32, NormSnapshot,
};
