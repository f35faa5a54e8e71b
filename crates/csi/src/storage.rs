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
/// fault: a bad header, a truncation, bytes after the header's last
/// sample, a presence byte other than 0 or 1, a presence bitmap whose
/// present count differs from its frame's snapshot count, or a ragged
/// series (a CFR whose length differs from the header's subcarrier count,
/// or a snapshot whose TX count differs from the first present
/// snapshot's). A loaded recording is therefore rectangular, so
/// [`CsiRecording::interpolated`] can index it.
pub fn load_recording<R: Read>(mut r: R) -> Result<CsiRecording, LoadError> {
    // One buffer for the header, the subcarrier table and every frame
    // block, and one for every sample's presence bitmap and block length:
    // the capture streams through them instead of being copied whole.
    let mut block = Vec::new();
    let mut head = Vec::new();
    read_block(&mut r, 4 + 2 + 8 + 12, &mut block, "truncated header")?;
    let mut cur = &block[..];
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
    read_block(&mut r, n_sc * 4, &mut block, "truncated subcarrier table")?;
    let subcarrier_indices = block
        .as_chunks::<4>()
        .0
        .iter()
        .map(|b| i32::from_be_bytes(*b))
        .collect();

    // The series grow as samples arrive, so a header claiming more
    // samples than the bytes hold presizes nothing.
    let mut antennas: Vec<Vec<Option<CsiSnapshot>>> = vec![Vec::new(); n_ant];
    let mut n_tx = None;
    for _ in 0..n_samples {
        read_block(&mut r, n_ant + 4, &mut head, "truncated sample")?;
        let (bitmap, mut len) = head.split_at(n_ant);
        if bitmap.iter().any(|&b| b > 1) {
            return Err(LoadError::Corrupt("presence byte other than 0 or 1"));
        }
        let len = len.get_u32() as usize;
        read_block(&mut r, len, &mut block, "truncated frame block")?;
        let frame = CsiFrame::decode(&block)?;
        if frame.rx.len() != bitmap.iter().filter(|&&b| b == 1).count() {
            return Err(LoadError::Corrupt("bitmap/frame mismatch"));
        }
        let mut it = frame.rx.into_iter();
        for (series, &b) in antennas.iter_mut().zip(bitmap) {
            if b == 1 {
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
                series.push(Some(snap));
            } else {
                series.push(None);
            }
        }
    }
    head.clear();
    r.take(1).read_to_end(&mut head)?;
    if !head.is_empty() {
        return Err(LoadError::Corrupt("bytes after the last sample"));
    }
    // Growth left up to half of each series' capacity unused; the
    // recording lives through the whole analysis, so return it.
    antennas.iter_mut().for_each(Vec::shrink_to_fit);
    Ok(CsiRecording {
        sample_rate_hz,
        subcarrier_indices,
        antennas,
    })
}

/// Replaces `buf`'s contents with the next `n` bytes of `r`. The buffer
/// grows only as bytes arrive, so a length read from a corrupt capture
/// cannot size an allocation the input does not back.
fn read_block<R: Read>(
    r: &mut R,
    n: usize,
    buf: &mut Vec<u8>,
    truncated: &'static str,
) -> Result<(), LoadError> {
    buf.clear();
    r.by_ref().take(n as u64).read_to_end(buf)?;
    if buf.len() < n {
        return Err(LoadError::Corrupt(truncated));
    }
    Ok(())
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

    /// A presence bitmap that disagrees with its frame used to load: a
    /// cleared or non-binary byte shifted later antennas' CSI onto
    /// earlier ones and dropped the frame's last snapshot, and bytes past
    /// the last sample were ignored.
    #[test]
    fn corrupt_bitmaps_and_trailing_bytes_are_typed_errors() {
        let snap = |tag: f64| CsiSnapshot {
            per_tx: vec![vec![Complex64::new(tag, -tag); 2]],
        };
        let rec = CsiRecording {
            sample_rate_hz: 100.0,
            subcarrier_indices: vec![-1, 1],
            antennas: vec![
                vec![Some(snap(1.0)), Some(snap(4.0))],
                vec![Some(snap(2.0)), None],
                vec![Some(snap(3.0)), Some(snap(6.0))],
            ],
        };
        let mut buf = Vec::new();
        save_recording(&rec, &mut buf).unwrap();
        load_recording(&buf[..]).unwrap();
        // Header (26 B plus the subcarrier table), then sample 0's bitmap.
        let bitmap = 26 + 4 * rec.subcarrier_indices.len();
        let corrupt = |at: usize, byte: u8| {
            let mut bad = buf.clone();
            bad[at] = byte;
            match load_recording(&bad[..]) {
                Err(LoadError::Corrupt(what)) => what,
                other => panic!("byte {at} = {byte}: {other:?}"),
            }
        };
        assert!(corrupt(bitmap + 1, 2).contains("presence byte"));
        assert!(corrupt(bitmap + 1, 0).contains("bitmap/frame"));
        // Sample 1 lost antenna 1; claiming it present leaves the frame
        // one snapshot short.
        let sample_1 = bitmap
            + 3
            + 4
            + (buf[bitmap + 3..bitmap + 7].iter()).fold(0usize, |n, &b| n << 8 | b as usize);
        assert_eq!(buf[sample_1 + 1], 0);
        assert!(corrupt(sample_1 + 1, 1).contains("bitmap/frame"));
        for tail in [&[0u8][..], &buf[bitmap..]] {
            let mut long = buf.clone();
            long.extend_from_slice(tail);
            assert!(matches!(
                load_recording(&long[..]),
                Err(LoadError::Corrupt(what)) if what.contains("after the last sample")
            ));
        }
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
