//! CSI frames and snapshots.
//!
//! A [`CsiSnapshot`] is what one receive antenna measures from one packet:
//! a CFR vector per transmit antenna. A [`CsiFrame`] is the full per-packet
//! report of one NIC (all of its receive antennas), tagged with the
//! packet's sequence number — the quantity the modified driver exports in
//! the paper's prototype (§5). Frames can be serialised to a compact wire
//! format (the `bytes` crate) so recordings can be stored or piped between
//! processes like the paper's Galileo-to-Windows pipeline.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rim_dsp::complex::Complex64;

/// CSI measured by a single receive antenna for a single packet.
#[derive(Debug, Clone, PartialEq)]
pub struct CsiSnapshot {
    /// `per_tx[k][s]` is the complex channel of subcarrier `s` from TX
    /// antenna `k` to this RX antenna.
    pub per_tx: Vec<Vec<Complex64>>,
}

impl CsiSnapshot {
    /// Number of transmit antennas.
    pub fn n_tx(&self) -> usize {
        self.per_tx.len()
    }

    /// Number of subcarriers (0 when there are no TX streams).
    pub fn n_subcarriers(&self) -> usize {
        self.per_tx.first().map_or(0, Vec::len)
    }

    /// True when every CFR entry is finite.
    pub fn is_finite(&self) -> bool {
        self.per_tx
            .iter()
            .all(|cfr| cfr.iter().all(|h| h.is_finite()))
    }

    /// The entry-wise linear interpolation `self + (other − self)·t`: the
    /// one expression loss repair uses, batch
    /// ([`crate::CsiRecording::interpolated`]) and streamed alike, so the
    /// two repair a gap bit for bit the same way. Entries past the shorter
    /// operand's TX count or CFR length are dropped.
    pub fn lerp(&self, other: &CsiSnapshot, t: f64) -> CsiSnapshot {
        CsiSnapshot {
            per_tx: self
                .per_tx
                .iter()
                .zip(&other.per_tx)
                .map(|(l, r)| {
                    l.iter()
                        .zip(r)
                        .map(|(&lv, &rv)| lv + (rv - lv).scale(t))
                        .collect()
                })
                .collect(),
        }
    }
}

/// One packet's CSI as reported by one NIC: a snapshot per RX antenna plus
/// the broadcast sequence number used for cross-NIC synchronisation.
#[derive(Debug, Clone, PartialEq)]
pub struct CsiFrame {
    /// Broadcast packet sequence number (shared across NICs).
    pub seq: u64,
    /// Receive timestamp, seconds.
    pub timestamp_s: f64,
    /// One snapshot per RX antenna of this NIC.
    pub rx: Vec<CsiSnapshot>,
}

/// Magic bytes of the frame wire format.
const FRAME_MAGIC: u32 = 0x5249_4d31; // "RIM1"

/// Errors decoding a serialised frame.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum DecodeError {
    /// Buffer shorter than the header or declared payload.
    Truncated,
    /// Magic bytes did not match.
    BadMagic,
    /// A declared dimension was implausibly large.
    BadDimension,
}

impl std::fmt::Display for DecodeError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            DecodeError::Truncated => write!(f, "frame buffer truncated"),
            DecodeError::BadMagic => write!(f, "bad frame magic"),
            DecodeError::BadDimension => write!(f, "implausible frame dimension"),
        }
    }
}

impl std::error::Error for DecodeError {}

/// Upper bound on any declared dimension, to reject corrupt headers before
/// allocating.
const MAX_DIM: u32 = 4096;

impl CsiFrame {
    /// Serialises the frame to the compact binary wire format.
    pub fn encode(&self) -> Bytes {
        let mut buf = BytesMut::new();
        put_frame(
            &mut buf,
            self.seq,
            self.timestamp_s,
            self.rx.len(),
            &self.rx,
        );
        buf.freeze()
    }

    /// Decodes a frame from the wire format.
    pub fn decode(mut buf: &[u8]) -> Result<CsiFrame, DecodeError> {
        if buf.remaining() < 4 + 8 + 8 + 4 {
            return Err(DecodeError::Truncated);
        }
        if buf.get_u32() != FRAME_MAGIC {
            return Err(DecodeError::BadMagic);
        }
        let seq = buf.get_u64();
        let timestamp_s = buf.get_f64();
        let n_rx = buf.get_u32();
        if n_rx > MAX_DIM {
            return Err(DecodeError::BadDimension);
        }
        // Every snapshot and every CFR needs at least its 4-byte count, so
        // the bytes left bound how many a hostile header can presize.
        let mut rx = Vec::with_capacity((n_rx as usize).min(buf.remaining() / 4));
        for _ in 0..n_rx {
            if buf.remaining() < 4 {
                return Err(DecodeError::Truncated);
            }
            let n_tx = buf.get_u32();
            if n_tx > MAX_DIM {
                return Err(DecodeError::BadDimension);
            }
            let mut per_tx = Vec::with_capacity((n_tx as usize).min(buf.remaining() / 4));
            for _ in 0..n_tx {
                if buf.remaining() < 4 {
                    return Err(DecodeError::Truncated);
                }
                let n_sc = buf.get_u32();
                if n_sc > MAX_DIM {
                    return Err(DecodeError::BadDimension);
                }
                if buf.remaining() < n_sc as usize * 16 {
                    return Err(DecodeError::Truncated);
                }
                // One split per CFR, then fixed-size chunks: the length
                // check above covers every entry, so no read re-checks it.
                let (body, rest) = buf.split_at(n_sc as usize * 16);
                buf = rest;
                per_tx.push(body.as_chunks::<16>().0.iter().map(decode_entry).collect());
            }
            rx.push(CsiSnapshot { per_tx });
        }
        Ok(CsiFrame {
            seq,
            timestamp_s,
            rx,
        })
    }
}

/// Appends one frame in the wire format, built from `n_rx` borrowed
/// snapshots.
pub(crate) fn put_frame<'a>(
    out: &mut impl BufMut,
    seq: u64,
    timestamp_s: f64,
    n_rx: usize,
    rx: impl IntoIterator<Item = &'a CsiSnapshot>,
) {
    out.put_u32(FRAME_MAGIC);
    out.put_u64(seq);
    out.put_f64(timestamp_s);
    out.put_u32(n_rx as u32);
    for snap in rx {
        out.put_u32(snap.per_tx.len() as u32);
        for cfr in &snap.per_tx {
            out.put_u32(cfr.len() as u32);
            for h in cfr {
                out.put_f64(h.re);
                out.put_f64(h.im);
            }
        }
    }
}

/// One wire CFR entry: big-endian real then imaginary part.
fn decode_entry(entry: &[u8; 16]) -> Complex64 {
    let bits = u128::from_be_bytes(*entry);
    Complex64::new(
        f64::from_bits((bits >> 64) as u64),
        f64::from_bits(bits as u64),
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample_frame() -> CsiFrame {
        let snap = |base: f64| CsiSnapshot {
            per_tx: (0..3)
                .map(|t| {
                    (0..8)
                        .map(|s| Complex64::new(base + t as f64, s as f64 * 0.5))
                        .collect()
                })
                .collect(),
        };
        CsiFrame {
            seq: 42,
            timestamp_s: 1.25,
            rx: vec![snap(1.0), snap(2.0), snap(3.0)],
        }
    }

    #[test]
    fn snapshot_dimensions() {
        let f = sample_frame();
        assert_eq!(f.rx[0].n_tx(), 3);
        assert_eq!(f.rx[0].n_subcarriers(), 8);
        assert!(f.rx[0].is_finite());
        let empty = CsiSnapshot { per_tx: vec![] };
        assert_eq!(empty.n_subcarriers(), 0);
    }

    #[test]
    fn encode_decode_round_trip() {
        let f = sample_frame();
        let bytes = f.encode();
        let g = CsiFrame::decode(&bytes).unwrap();
        assert_eq!(f, g);
    }

    #[test]
    fn decode_rejects_bad_magic() {
        let f = sample_frame();
        let mut bytes = f.encode().to_vec();
        bytes[0] ^= 0xFF;
        assert_eq!(CsiFrame::decode(&bytes), Err(DecodeError::BadMagic));
    }

    #[test]
    fn decode_rejects_truncation() {
        let f = sample_frame();
        let bytes = f.encode();
        for cut in [0, 3, 10, bytes.len() - 1] {
            assert_eq!(
                CsiFrame::decode(&bytes[..cut]),
                Err(DecodeError::Truncated),
                "cut at {cut}"
            );
        }
    }

    #[test]
    fn decode_rejects_huge_dimension() {
        let mut buf = BytesMut::new();
        buf.put_u32(FRAME_MAGIC);
        buf.put_u64(0);
        buf.put_f64(0.0);
        buf.put_u32(u32::MAX); // absurd RX antenna count
        assert_eq!(CsiFrame::decode(&buf), Err(DecodeError::BadDimension));
    }

    #[test]
    fn non_finite_detected() {
        let mut f = sample_frame();
        f.rx[1].per_tx[0][3] = Complex64::new(f64::NAN, 0.0);
        assert!(!f.rx[1].is_finite());
        assert!(f.rx[0].is_finite());
    }
}
