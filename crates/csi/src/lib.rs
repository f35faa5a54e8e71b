//! # rim-csi
//!
//! CSI acquisition substrate for the RIM reproduction — everything between
//! the physical channel and the RIM algorithms:
//!
//! * [`frame`] — per-packet CSI frames with a compact wire format;
//! * [`impairments`] — the phase/amplitude distortions of commodity WiFi
//!   front-ends (CFO, SFO/STO, PLL initial phase, AGC, AWGN);
//! * [`sanitize`] — SpotFi-style linear phase sanitation;
//! * [`loss`] — i.i.d. and bursty packet-loss models;
//! * [`sync`] — broadcast sequence-number synchronisation across NICs;
//! * [`recorder`] — records a device trajectory against the channel
//!   simulator into the dense CSI series the RIM core consumes;
//! * [`storage`] — capture files: persist recordings and load them back.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod block;
pub mod frame;
pub mod impairments;
pub mod loss;
mod noise;
pub mod recorder;
pub mod sanitize;
pub mod storage;
pub mod sync;

pub use frame::{CsiFrame, CsiSnapshot, DecodeError};
pub use impairments::{HardwareProfile, ImpairmentModel};
pub use loss::{LossModel, LossProcess};
pub use recorder::{CsiRecorder, CsiRecording, DenseCsi, DeviceConfig, NicConfig, RecorderConfig};
pub use sanitize::{sanitize_matched_delay, sanitize_snapshot, SanitizeError};
pub use storage::{load_recording, save_recording, LoadError};
pub use sync::{synced_from_recording, synchronize, SyncedSample};
