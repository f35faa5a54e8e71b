//! The error type for user-reachable `rim-core` entry points.
//!
//! Constructors ([`crate::Rim::new`], [`crate::RimStream::new`]) and the
//! session entry points ([`crate::pipeline::Session::analyze`],
//! [`crate::stream::StreamSession::ingest`]) validate their inputs and
//! return one of these instead of panicking, with messages written to be
//! actionable (they name the offending parameter and the fix).

use std::fmt;

/// Why a RIM engine could not be built or run.
#[derive(Debug, Clone, PartialEq)]
#[non_exhaustive]
pub enum Error {
    /// A [`crate::RimConfig`] parameter is out of range. The message
    /// names the parameter, the offending value, and the valid range.
    Config(String),
    /// The array geometry cannot support alignment (fewer than two
    /// antennas, so no antenna pairs exist).
    Geometry(String),
    /// A recording / snapshot set whose antenna count differs from the
    /// engine's geometry.
    AntennaMismatch {
        /// Antennas in the engine's geometry.
        expected: usize,
        /// Antennas in the offered data.
        got: usize,
    },
    /// A CSI series too short to analyze at all.
    SeriesTooShort {
        /// Minimum usable sample count.
        needed: usize,
        /// Samples offered.
        got: usize,
    },
    /// A CSI snapshot containing NaN or infinite values. TRRS on
    /// non-finite input silently poisons every downstream estimate, so
    /// the engine rejects it at the boundary instead.
    NonFiniteCsi {
        /// Antenna index of the offending snapshot.
        antenna: usize,
        /// Sample index (or stream sequence number) of the snapshot.
        sample: usize,
    },
    /// A gyroscope track whose length differs from the motion estimate
    /// it is fused with; batch fusion pairs the two sample by sample.
    GyroLengthMismatch {
        /// Samples in the motion estimate.
        estimate: usize,
        /// Samples in the gyroscope track.
        gyro: usize,
    },
}

impl fmt::Display for Error {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Error::Config(msg) => write!(f, "invalid configuration: {msg}"),
            Error::Geometry(msg) => write!(f, "unsupported geometry: {msg}"),
            Error::AntennaMismatch { expected, got } => write!(
                f,
                "antenna count mismatch: the array geometry has {expected} antennas \
                 but the CSI data has {got}; record with the same array or pass the \
                 matching geometry"
            ),
            Error::SeriesTooShort { needed, got } => write!(
                f,
                "CSI series too short: got {got} samples but at least {needed} are \
                 needed (one movement-detection lag of history); record longer or \
                 lower the sample rate"
            ),
            Error::NonFiniteCsi { antenna, sample } => write!(
                f,
                "non-finite CSI: antenna {antenna} at sample {sample} contains NaN \
                 or infinite values; sanitize the capture (rim-csi rejects such \
                 packets as loss) or drop the sample before offering it"
            ),
            Error::GyroLengthMismatch { estimate, gyro } => write!(
                f,
                "gyro track length mismatch: the motion estimate has {estimate} samples \
                 but the gyroscope track has {gyro}; resample the gyro to the \
                 estimate's rate and span"
            ),
        }
    }
}

impl std::error::Error for Error {}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn messages_are_actionable() {
        let e = Error::Config("threads = 9999 exceeds the cap of 256".into());
        assert!(e.to_string().contains("9999"));
        let e = Error::AntennaMismatch {
            expected: 3,
            got: 2,
        };
        assert!(e.to_string().contains("3 antennas"));
        assert!(e.to_string().contains("has 2"));
        let e = Error::SeriesTooShort { needed: 11, got: 4 };
        assert!(e.to_string().contains("11"), "{e}");
        let e = Error::Geometry("1 antenna".into());
        assert!(e.to_string().contains("1 antenna"));
        let e = Error::NonFiniteCsi {
            antenna: 2,
            sample: 41,
        };
        assert!(e.to_string().contains("antenna 2"), "{e}");
        assert!(e.to_string().contains("sample 41"), "{e}");
        let e = Error::GyroLengthMismatch {
            estimate: 10,
            gyro: 5,
        };
        assert!(e.to_string().contains("10 samples"), "{e}");
        assert!(e.to_string().contains("has 5"), "{e}");
    }
}
