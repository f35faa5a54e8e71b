//! The per-sample block that capture files and serve ingest frames share.
//!
//! One device sample is stored as, big-endian:
//!
//! | bytes   | field                                                      |
//! |---------|------------------------------------------------------------|
//! | `n_ant` | presence bitmap: `1` if antenna `a` heard the packet, `0` if it lost it |
//! | 4       | `u32` length `L` of the frame block                         |
//! | `L`     | one [`CsiFrame`] holding the present snapshots in antenna order |
//!
//! The callers frame it differently in two ways:
//!
//! * a capture file states `n_ant` once in its header, while the wire puts
//!   a `u32` antenna count in front of every block;
//! * a capture writes the sample index as the frame's `seq` and t/fs as
//!   its timestamp, while the wire writes the sample's own `seq` and
//!   timestamp `0.0`.
//!
//! Both decoders accept at most [`MAX_ANTENNAS`] antennas, so any sample
//! the wire accepts can also be stored.

use crate::frame::{put_frame, CsiFrame, CsiSnapshot, DecodeError};
use bytes::{Buf, BufMut};
use std::ops::DerefMut;

/// Upper bound on a block's antenna count.
pub(crate) const MAX_ANTENNAS: usize = 64;

/// Bytes in front of the frame block: the bitmap and the block length.
pub(crate) const fn head_len(n_ant: usize) -> usize {
    n_ant + 4
}

/// Why a block failed to decode.
#[derive(Debug)]
pub(crate) enum BlockError {
    /// A presence byte other than 0 or 1.
    Presence,
    /// The bitmap's present count differs from the frame's snapshot count.
    Mismatch,
    /// The frame block itself failed to decode.
    Frame(DecodeError),
}

/// Appends one block to `out`: `antennas` gives each antenna's snapshot,
/// or `None` where it lost the packet.
pub(crate) fn encode<'a, B, I>(out: &mut B, seq: u64, timestamp_s: f64, antennas: I)
where
    B: BufMut + DerefMut<Target = [u8]>,
    I: Iterator<Item = Option<&'a CsiSnapshot>> + Clone,
{
    let mut n_present = 0;
    for snap in antennas.clone() {
        out.put_u8(snap.is_some() as u8);
        n_present += snap.is_some() as usize;
    }
    let at = out.len();
    out.put_u32(0);
    put_frame(out, seq, timestamp_s, n_present, antennas.flatten());
    let len = (out.len() - at - 4) as u32;
    out[at..at + 4].copy_from_slice(&len.to_be_bytes());
}

/// Splits a block's [`head_len`] leading bytes into the presence bitmap
/// and the frame block's length.
pub(crate) fn split_head(head: &[u8]) -> (&[u8], usize) {
    let (bitmap, mut len) = head.split_at(head.len() - 4);
    (bitmap, len.get_u32() as usize)
}

/// Decodes one block from its bitmap and its frame block: the frame's
/// `seq`, then one snapshot or `None` per antenna.
pub(crate) fn decode<'a>(
    bitmap: &'a [u8],
    block: &[u8],
) -> Result<(u64, impl Iterator<Item = Option<CsiSnapshot>> + 'a), BlockError> {
    if bitmap.iter().any(|&b| b > 1) {
        return Err(BlockError::Presence);
    }
    let frame = CsiFrame::decode(block).map_err(BlockError::Frame)?;
    if frame.rx.len() != bitmap.iter().filter(|&&b| b == 1).count() {
        return Err(BlockError::Mismatch);
    }
    let mut rx = frame.rx.into_iter();
    Ok((
        frame.seq,
        bitmap
            .iter()
            .map(move |&b| if b == 1 { rx.next() } else { None }),
    ))
}
