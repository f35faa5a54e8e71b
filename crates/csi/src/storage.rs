//! Recording storage: persist CSI recordings to disk and load them back.
//!
//! The paper's workflow records CSI on the device and analyses it later in
//! MATLAB; this module provides the equivalent capture file. The format is
//! a small header (rate, subcarrier indices, antenna count) followed by
//! per-sample length-prefixed [`CsiFrame`]-encoded
//! blocks, with absent frames marking packet loss.

use crate::frame::{CsiFrame, CsiSnapshot, DecodeError};
use crate::recorder::CsiRecording;
use bytes::{Buf, BufMut, BytesMut};
use std::io::{self, Read, Write};

/// Magic bytes of the capture format.
const CAPTURE_MAGIC: u32 = 0x5249_4d43; // "RIMC"
/// Format version.
const VERSION: u16 = 1;

/// Errors loading a capture.
#[derive(Debug)]
pub enum LoadError {
    /// I/O failure.
    Io(io::Error),
    /// Structural problem in the capture data.
    Corrupt(&'static str),
    /// A frame block failed to decode.
    Frame(DecodeError),
}

impl From<io::Error> for LoadError {
    fn from(e: io::Error) -> Self {
        LoadError::Io(e)
    }
}

impl From<DecodeError> for LoadError {
    fn from(e: DecodeError) -> Self {
        LoadError::Frame(e)
    }
}

impl std::fmt::Display for LoadError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadError::Io(e) => write!(f, "i/o error: {e}"),
            LoadError::Corrupt(what) => write!(f, "corrupt capture: {what}"),
            LoadError::Frame(e) => write!(f, "bad frame: {e}"),
        }
    }
}

impl std::error::Error for LoadError {}

/// Serialises a recording to a writer.
///
/// Each sample stores a presence bitmap over antennas followed by one
/// frame holding the present snapshots (so loss patterns survive a round
/// trip exactly).
pub fn save_recording<W: Write>(rec: &CsiRecording, mut w: W) -> io::Result<()> {
    let mut head = BytesMut::new();
    head.put_u32(CAPTURE_MAGIC);
    head.put_u16(VERSION);
    head.put_f64(rec.sample_rate_hz);
    head.put_u32(rec.n_antennas() as u32);
    head.put_u32(rec.n_samples() as u32);
    head.put_u32(rec.subcarrier_indices.len() as u32);
    for &i in &rec.subcarrier_indices {
        head.put_i32(i);
    }
    w.write_all(&head)?;

    for t in 0..rec.n_samples() {
        // Presence bitmap (one byte per antenna keeps it simple).
        let mut body = BytesMut::new();
        let mut present: Vec<&CsiSnapshot> = Vec::new();
        for a in 0..rec.n_antennas() {
            match &rec.antennas[a][t] {
                Some(s) => {
                    body.put_u8(1);
                    present.push(s);
                }
                None => body.put_u8(0),
            }
        }
        let frame = CsiFrame {
            seq: t as u64,
            timestamp_s: t as f64 / rec.sample_rate_hz,
            rx: present.into_iter().cloned().collect(),
        };
        let encoded = frame.encode();
        body.put_u32(encoded.len() as u32);
        body.put_slice(&encoded);
        w.write_all(&body)?;
    }
    Ok(())
}

/// Loads a recording from a reader.
///
/// # Errors
/// [`LoadError::Io`] when reading fails, [`LoadError::Frame`] when a frame
/// block does not decode, and [`LoadError::Corrupt`] for any structural
/// fault: a bad header, a truncation, a presence bitmap that disagrees
/// with its frame, or a ragged series (a CFR whose length differs from
/// the header's subcarrier count, or a snapshot whose TX count differs
/// from the first present snapshot's). A loaded recording is therefore
/// rectangular, so [`CsiRecording::interpolated`] can index it.
pub fn load_recording<R: Read>(mut r: R) -> Result<CsiRecording, LoadError> {
    let mut buf = Vec::new();
    r.read_to_end(&mut buf)?;
    let mut cur = &buf[..];
    if cur.remaining() < 4 + 2 + 8 + 12 {
        return Err(LoadError::Corrupt("truncated header"));
    }
    if cur.get_u32() != CAPTURE_MAGIC {
        return Err(LoadError::Corrupt("bad magic"));
    }
    if cur.get_u16() != VERSION {
        return Err(LoadError::Corrupt("unsupported version"));
    }
    let sample_rate_hz = cur.get_f64();
    if !(sample_rate_hz.is_finite() && sample_rate_hz > 0.0) {
        return Err(LoadError::Corrupt("bad sample rate"));
    }
    let n_ant = cur.get_u32() as usize;
    let n_samples = cur.get_u32() as usize;
    let n_sc = cur.get_u32() as usize;
    if n_ant > 64 || n_sc > 4096 {
        return Err(LoadError::Corrupt("implausible dimensions"));
    }
    if cur.remaining() < n_sc * 4 {
        return Err(LoadError::Corrupt("truncated subcarrier table"));
    }
    let mut subcarrier_indices = Vec::with_capacity(n_sc);
    for _ in 0..n_sc {
        subcarrier_indices.push(cur.get_i32());
    }

    // Every sample takes at least its bitmap and block length, so the
    // bytes left bound the presize, whatever the header claims.
    let backed = n_samples.min(cur.remaining() / (n_ant + 4));
    let mut antennas: Vec<Vec<Option<CsiSnapshot>>> = vec![Vec::with_capacity(backed); n_ant];
    let mut n_tx = None;
    for _ in 0..n_samples {
        if cur.remaining() < n_ant + 4 {
            return Err(LoadError::Corrupt("truncated sample"));
        }
        let mut present = Vec::with_capacity(n_ant);
        for _ in 0..n_ant {
            present.push(cur.get_u8() == 1);
        }
        let len = cur.get_u32() as usize;
        if cur.remaining() < len {
            return Err(LoadError::Corrupt("truncated frame block"));
        }
        let frame = CsiFrame::decode(&cur[..len])?;
        cur.advance(len);
        let mut it = frame.rx.into_iter();
        for (a, &p) in present.iter().enumerate() {
            if p {
                let snap = it
                    .next()
                    .ok_or(LoadError::Corrupt("bitmap/frame mismatch"))?;
                if snap.per_tx.iter().any(|cfr| cfr.len() != n_sc) {
                    return Err(LoadError::Corrupt(
                        "CFR length differs from the subcarrier count",
                    ));
                }
                if *n_tx.get_or_insert(snap.n_tx()) != snap.n_tx() {
                    return Err(LoadError::Corrupt(
                        "TX count differs from the first snapshot's",
                    ));
                }
                antennas[a].push(Some(snap));
            } else {
                antennas[a].push(None);
            }
        }
    }
    Ok(CsiRecording {
        sample_rate_hz,
        subcarrier_indices,
        antennas,
    })
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_dsp::complex::Complex64;

    fn recording_with_loss() -> CsiRecording {
        let snap = |tag: f64| CsiSnapshot {
            per_tx: vec![vec![Complex64::new(tag, -tag); 6]; 2],
        };
        CsiRecording {
            sample_rate_hz: 200.0,
            subcarrier_indices: vec![-3, -2, -1, 1, 2, 3],
            antennas: vec![
                vec![Some(snap(1.0)), None, Some(snap(3.0))],
                vec![Some(snap(4.0)), Some(snap(5.0)), None],
            ],
        }
    }

    #[test]
    fn save_load_round_trip() {
        let rec = recording_with_loss();
        let mut buf = Vec::new();
        save_recording(&rec, &mut buf).unwrap();
        let loaded = load_recording(&buf[..]).unwrap();
        assert_eq!(loaded.sample_rate_hz, rec.sample_rate_hz);
        assert_eq!(loaded.subcarrier_indices, rec.subcarrier_indices);
        assert_eq!(loaded.n_antennas(), 2);
        assert_eq!(loaded.n_samples(), 3);
        for a in 0..2 {
            for t in 0..3 {
                assert_eq!(loaded.antennas[a][t], rec.antennas[a][t], "({a},{t})");
            }
        }
    }

    #[test]
    fn rejects_bad_magic_and_truncation() {
        let rec = recording_with_loss();
        let mut buf = Vec::new();
        save_recording(&rec, &mut buf).unwrap();
        let mut bad = buf.clone();
        bad[0] ^= 0xFF;
        assert!(matches!(
            load_recording(&bad[..]),
            Err(LoadError::Corrupt(_))
        ));
        for cut in [3usize, 10, buf.len() - 2] {
            assert!(load_recording(&buf[..cut]).is_err(), "cut {cut}");
        }
    }

    /// A capture whose third snapshot has one TX while the first has two:
    /// loading it used to succeed and `interpolated` then panicked
    /// indexing the missing TX.
    #[test]
    fn ragged_capture_is_a_typed_error() {
        let snap = |n_tx: usize, n_sc: usize| CsiSnapshot {
            per_tx: vec![vec![Complex64::new(1.0, -1.0); n_sc]; n_tx],
        };
        let ragged_tx = CsiRecording {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![-1, 1, 2],
            antennas: vec![vec![Some(snap(2, 3)), Some(snap(2, 3)), Some(snap(1, 3))]],
        };
        assert!(ragged_tx.interpolated().is_none(), "ragged TX count");
        let mut buf = Vec::new();
        save_recording(&ragged_tx, &mut buf).unwrap();
        assert!(matches!(
            load_recording(&buf[..]),
            Err(LoadError::Corrupt(what)) if what.contains("TX count")
        ));
        // A CFR shorter than the header's subcarrier table, even when
        // every snapshot agrees with every other.
        let short = CsiRecording {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![-1, 1, 2],
            antennas: vec![vec![Some(snap(2, 2)); 3]],
        };
        let mut buf = Vec::new();
        save_recording(&short, &mut buf).unwrap();
        assert!(matches!(
            load_recording(&buf[..]),
            Err(LoadError::Corrupt(what)) if what.contains("CFR length")
        ));
        // One short CFR within a snapshot, in memory.
        let mut uneven = snap(2, 3);
        uneven.per_tx[1].pop();
        let ragged_sc = CsiRecording {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![-1, 1, 2],
            antennas: vec![vec![Some(snap(2, 3)), None, Some(uneven)]],
        };
        assert!(ragged_sc.interpolated().is_none(), "ragged CFR length");
        // Antennas with different sample counts, in memory.
        let uneven_len = CsiRecording {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![-1, 1, 2],
            antennas: vec![vec![Some(snap(2, 3)); 2], vec![Some(snap(2, 3)); 3]],
        };
        assert!(uneven_len.interpolated().is_none(), "ragged sample count");
    }

    #[test]
    fn empty_recording_round_trips() {
        let rec = CsiRecording {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![1, 2],
            antennas: vec![Vec::new(); 3],
        };
        let mut buf = Vec::new();
        save_recording(&rec, &mut buf).unwrap();
        let loaded = load_recording(&buf[..]).unwrap();
        assert_eq!(loaded.n_antennas(), 3);
        assert_eq!(loaded.n_samples(), 0);
    }
}
