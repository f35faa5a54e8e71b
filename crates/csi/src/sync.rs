//! Cross-NIC packet synchronisation.
//!
//! RIM does not need phase synchronisation across NICs — only *packet*
//! synchronisation (§5): because the AP broadcasts, two frames carrying
//! the same sequence number were received simultaneously (propagation
//! delay is negligible), so the broadcast acts as a coarse external clock.
//! This module merges per-NIC frame streams into a single device-wide
//! timeline indexed by sequence number, inserting nulls where a NIC lost a
//! packet.

use crate::block::{self, BlockError};
use crate::frame::{CsiFrame, CsiSnapshot, DecodeError};
use crate::recorder::CsiRecording;
use bytes::{Buf, BufMut, BytesMut};

/// A synchronised device sample: one entry per antenna across all NICs
/// (NIC 0's antennas first); `None` where that NIC lost the packet.
#[derive(Debug, Clone, PartialEq)]
pub struct SyncedSample {
    /// Broadcast sequence number.
    pub seq: u64,
    /// Per-antenna snapshot or `None` on loss.
    pub antennas: Vec<Option<CsiSnapshot>>,
}

impl SyncedSample {
    /// Appends the sample's wire encoding to `out`: a `u32` antenna count,
    /// then one block of the sample codec the capture format shares
    /// (`block.rs`), so loss patterns survive the round trip exactly.
    /// This is the payload the serving wire protocol ships per ingest.
    pub fn encode(&self, out: &mut BytesMut) {
        out.put_u32(self.antennas.len() as u32);
        let antennas = self.antennas.iter().map(Option::as_ref);
        block::encode(out, self.seq, 0.0, antennas);
    }

    /// Decodes a sample serialised by [`SyncedSample::encode`].
    ///
    /// # Errors
    /// [`DecodeError::Truncated`] when the buffer is shorter than its
    /// declared layout, [`DecodeError::BadDimension`] for more antennas
    /// than a capture file can hold, a presence byte other than 0 or 1,
    /// or a presence bitmap that disagrees with the embedded frame, and
    /// any error of [`CsiFrame::decode`] for the frame block itself.
    pub fn decode(mut buf: &[u8]) -> Result<SyncedSample, DecodeError> {
        if buf.remaining() < 4 {
            return Err(DecodeError::Truncated);
        }
        let n_ant = buf.get_u32() as usize;
        if n_ant > block::MAX_ANTENNAS {
            return Err(DecodeError::BadDimension);
        }
        if buf.remaining() < block::head_len(n_ant) {
            return Err(DecodeError::Truncated);
        }
        let (head, rest) = buf.split_at(block::head_len(n_ant));
        let (bitmap, len) = block::split_head(head);
        let body = rest.get(..len).ok_or(DecodeError::Truncated)?;
        let (seq, antennas) = block::decode(bitmap, body).map_err(|e| match e {
            BlockError::Frame(e) => e,
            BlockError::Presence | BlockError::Mismatch => DecodeError::BadDimension,
        })?;
        Ok(SyncedSample {
            seq,
            antennas: antennas.collect(),
        })
    }
}

/// Merges per-NIC frame streams by sequence number.
///
/// `streams[n]` holds the frames NIC `n` actually received (strictly
/// increasing `seq` within each stream); `antennas_per_nic[n]` is the
/// antenna count of that NIC (needed to emit the right number of nulls
/// when a frame is missing). The output covers every sequence number from
/// the smallest to the largest observed on any NIC.
///
/// # Panics
/// Panics if `streams` and `antennas_per_nic` lengths differ, or a stream
/// is not strictly increasing in `seq`.
pub fn synchronize(streams: &[Vec<CsiFrame>], antennas_per_nic: &[usize]) -> Vec<SyncedSample> {
    assert_eq!(
        streams.len(),
        antennas_per_nic.len(),
        "one antenna count per NIC"
    );
    for s in streams {
        for w in s.windows(2) {
            assert!(
                w[0].seq < w[1].seq,
                "stream must be strictly increasing in seq"
            );
        }
    }
    let lo = streams
        .iter()
        .filter_map(|s| s.first())
        .map(|f| f.seq)
        .min();
    let hi = streams.iter().filter_map(|s| s.last()).map(|f| f.seq).max();
    let (Some(lo), Some(hi)) = (lo, hi) else {
        return Vec::new();
    };
    let mut cursors = vec![0usize; streams.len()];
    let mut out = Vec::with_capacity((hi - lo + 1) as usize);
    for seq in lo..=hi {
        let mut antennas = Vec::new();
        for (n, stream) in streams.iter().enumerate() {
            let cur = &mut cursors[n];
            if *cur < stream.len() && stream[*cur].seq == seq {
                for snap in &stream[*cur].rx {
                    antennas.push(Some(snap.clone()));
                }
                *cur += 1;
            } else {
                for _ in 0..antennas_per_nic[n] {
                    antennas.push(None);
                }
            }
        }
        out.push(SyncedSample { seq, antennas });
    }
    out
}

/// Converts an antenna-major [`CsiRecording`] (with per-sample loss holes)
/// into the sample-major [`SyncedSample`] sequence the gap-aware streaming
/// front-end consumes: `seq` is the sample index, and every antenna that
/// lost the packet maps to `None`.
///
/// This is the lossy counterpart of `CsiRecording::interpolated()` — it
/// preserves the holes so the consumer can decide how to repair or split,
/// instead of interpolating them away up front.
pub fn synced_from_recording(recording: &CsiRecording) -> Vec<SyncedSample> {
    let n = recording.n_samples();
    (0..n)
        .map(|i| SyncedSample {
            seq: i as u64,
            antennas: recording
                .antennas
                .iter()
                .map(|ant| ant[i].clone())
                .collect(),
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_dsp::complex::Complex64;

    fn frame(seq: u64, n_rx: usize, tag: f64) -> CsiFrame {
        CsiFrame {
            seq,
            timestamp_s: seq as f64 * 0.005,
            rx: (0..n_rx)
                .map(|r| CsiSnapshot {
                    per_tx: vec![vec![Complex64::from_re(tag + r as f64)]],
                })
                .collect(),
        }
    }

    #[test]
    fn merges_complete_streams() {
        let a = vec![frame(10, 3, 1.0), frame(11, 3, 1.0)];
        let b = vec![frame(10, 3, 2.0), frame(11, 3, 2.0)];
        let synced = synchronize(&[a, b], &[3, 3]);
        assert_eq!(synced.len(), 2);
        assert_eq!(synced[0].seq, 10);
        assert_eq!(synced[0].antennas.len(), 6);
        assert!(synced[0].antennas.iter().all(|s| s.is_some()));
        // NIC order preserved: first three antennas are NIC A's.
        assert_eq!(synced[0].antennas[0].as_ref().unwrap().per_tx[0][0].re, 1.0);
        assert_eq!(synced[0].antennas[3].as_ref().unwrap().per_tx[0][0].re, 2.0);
    }

    #[test]
    fn inserts_nulls_for_lost_packets() {
        let a = vec![frame(5, 3, 1.0), frame(7, 3, 1.0)]; // lost 6
        let b = vec![frame(5, 3, 2.0), frame(6, 3, 2.0), frame(7, 3, 2.0)];
        let synced = synchronize(&[a, b], &[3, 3]);
        assert_eq!(synced.len(), 3);
        let s6 = &synced[1];
        assert_eq!(s6.seq, 6);
        assert!(s6.antennas[..3].iter().all(|s| s.is_none()), "NIC A nulled");
        assert!(s6.antennas[3..].iter().all(|s| s.is_some()), "NIC B intact");
    }

    #[test]
    fn covers_union_of_ranges() {
        let a = vec![frame(3, 1, 1.0)];
        let b = vec![frame(1, 1, 2.0), frame(5, 1, 2.0)];
        let synced = synchronize(&[a, b], &[1, 1]);
        assert_eq!(synced.len(), 5);
        assert_eq!(synced[0].seq, 1);
        assert_eq!(synced[4].seq, 5);
        // seq 3: A present, B missing.
        assert!(synced[2].antennas[0].is_some());
        assert!(synced[2].antennas[1].is_none());
    }

    #[test]
    fn empty_streams_yield_empty() {
        assert!(synchronize(&[vec![], vec![]], &[3, 3]).is_empty());
        let empty: &[Vec<CsiFrame>] = &[];
        assert!(synchronize(empty, &[]).is_empty());
    }

    #[test]
    #[should_panic(expected = "strictly increasing")]
    fn rejects_out_of_order_stream() {
        let a = vec![frame(5, 1, 1.0), frame(5, 1, 1.0)];
        let _ = synchronize(&[a], &[1]);
    }

    fn encoded(sample: &SyncedSample) -> BytesMut {
        let mut out = BytesMut::new();
        sample.encode(&mut out);
        out
    }

    #[test]
    fn synced_sample_encode_round_trips_with_holes() {
        let snap = |tag: f64| CsiSnapshot {
            per_tx: vec![vec![Complex64::new(tag, -tag); 4]; 2],
        };
        let sample = SyncedSample {
            seq: 917,
            antennas: vec![Some(snap(1.0)), None, Some(snap(3.0)), None],
        };
        let back = SyncedSample::decode(&encoded(&sample)).unwrap();
        assert_eq!(back, sample);
        // All-lost and empty samples survive too.
        for sample in [
            SyncedSample {
                seq: 1,
                antennas: vec![None, None],
            },
            SyncedSample {
                seq: 2,
                antennas: vec![],
            },
        ] {
            let back = SyncedSample::decode(&encoded(&sample)).unwrap();
            assert_eq!(back, sample);
        }
    }

    #[test]
    fn synced_sample_decode_rejects_corrupt_buffers() {
        let sample = SyncedSample {
            seq: 5,
            antennas: vec![Some(CsiSnapshot {
                per_tx: vec![vec![Complex64::new(1.0, 2.0)]],
            })],
        };
        let bytes = encoded(&sample);
        for cut in [0, 3, bytes.len() - 1] {
            assert_eq!(
                SyncedSample::decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut {cut}"
            );
        }
        let mut huge = bytes.to_vec();
        huge[0..4].copy_from_slice(&u32::MAX.to_be_bytes());
        assert_eq!(SyncedSample::decode(&huge), Err(DecodeError::BadDimension));
        // Presence bitmap claiming a lost antenna while the frame still
        // carries its snapshot is a structural mismatch.
        let mut mismatch = bytes.to_vec();
        mismatch[4] = 0;
        assert_eq!(
            SyncedSample::decode(&mismatch),
            Err(DecodeError::BadDimension)
        );
        // A presence byte other than 0 or 1, on a lost antenna or a
        // present one, is rejected rather than read as "absent".
        let holes = encoded(&SyncedSample {
            seq: 6,
            antennas: vec![sample.antennas[0].clone(), None],
        });
        for (at, byte) in [(5, 2), (5, 255), (4, 2), (4, 255)] {
            let mut bad = holes.to_vec();
            bad[at] = byte;
            assert_eq!(
                SyncedSample::decode(&bad),
                Err(DecodeError::BadDimension),
                "byte {at} = {byte}"
            );
        }
        // More antennas than a capture file can hold.
        let mut wide = holes.to_vec();
        wide[0..4].copy_from_slice(&65u32.to_be_bytes());
        assert_eq!(SyncedSample::decode(&wide), Err(DecodeError::BadDimension));
    }

    #[test]
    fn recording_maps_to_synced_samples_preserving_holes() {
        let snap = |tag: f64| CsiSnapshot {
            per_tx: vec![vec![Complex64::from_re(tag)]],
        };
        let recording = CsiRecording {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![0],
            antennas: vec![
                vec![Some(snap(1.0)), None, Some(snap(3.0))],
                vec![Some(snap(10.0)), Some(snap(20.0)), None],
            ],
        };
        let synced = synced_from_recording(&recording);
        assert_eq!(synced.len(), 3);
        assert_eq!(synced[0].seq, 0);
        assert_eq!(synced[2].seq, 2);
        assert_eq!(synced[0].antennas.len(), 2);
        assert!(synced[0].antennas.iter().all(|s| s.is_some()));
        assert!(synced[1].antennas[0].is_none());
        assert_eq!(
            synced[1].antennas[1].as_ref().unwrap().per_tx[0][0].re,
            20.0
        );
        assert!(synced[2].antennas[1].is_none());
    }
}
