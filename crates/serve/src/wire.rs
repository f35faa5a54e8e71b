//! The length-prefixed binary wire protocol.
//!
//! Every message is one frame: a `u32` big-endian body length followed
//! by the body. Bodies start with a one-byte message tag. An ingest
//! carries the session id and a [`SyncedSample`]
//! ([`SyncedSample::encode`]): a `u32` antenna count, then the per-sample
//! block a capture file stores. The two differ in that block's frame: a
//! capture writes the sample index as its `seq` and t/fs as its
//! timestamp, while the wire writes the sample's own `seq` and timestamp
//! 0.0, and a capture states the antenna count once in its header, so
//! replaying a capture onto the wire re-encodes each sample. Responses carry the admission decision
//! plus any events the session has emitted since the last response;
//! floats travel as raw IEEE-754 bits, so estimates cross the wire
//! bit-identically.

use bytes::{Buf, BufMut, Bytes, BytesMut};
use rim_core::{
    Confidence, DegradeReason, FusedMode, ImuSample, SegmentEstimate, SegmentKind, StreamEvent,
};
use rim_csi::frame::DecodeError;
use rim_csi::sync::SyncedSample;
use rim_dsp::geom::{Point2, Vec2};
use std::io::{self, Read, Write};

use crate::manager::{Admit, RejectReason};

/// Upper bound on a declared frame length (a dense multi-antenna sample
/// is ~100 KiB; anything near this bound is a corrupt or hostile peer).
pub const MAX_FRAME_LEN: u32 = 64 * 1024 * 1024;

/// [`read_frame`]'s first buffer step; after it, the buffer at most
/// doubles the bytes that have arrived, so a declared length alone never
/// sizes an allocation.
const READ_CHUNK: usize = 64 * 1024;

/// Encoded size of one IMU sample in an ingest body.
const IMU_SAMPLE_LEN: usize = 40;

/// Smallest encoded event: a tag and one `u64`.
const MIN_EVENT_LEN: usize = 1 + 8;

/// Message tags (first body byte).
mod tag {
    pub const INGEST: u8 = 0x01;
    pub const FINISH: u8 = 0x02;
    pub const SHUTDOWN: u8 = 0x03;
    pub const METRICS: u8 = 0x04;
    pub const INGEST_IMU: u8 = 0x05;
    pub const ADMIT: u8 = 0x81;
    pub const FINISHED: u8 = 0x82;
    pub const BYE: u8 = 0x83;
    pub const METRICS_SNAPSHOT: u8 = 0x84;
}

/// A client→server message.
#[derive(Debug, Clone, PartialEq)]
pub enum Request {
    /// Offer one synced sample to a session.
    Ingest {
        /// Tenant id; sessions are created on first contact.
        session_id: u64,
        /// The sample (sequence number travels inside).
        sample: SyncedSample,
    },
    /// Offer a batch of IMU samples to a session's fusion layer.
    IngestImu {
        /// Tenant id; sessions are created on first contact.
        session_id: u64,
        /// The batch, oldest first (timestamps travel inside).
        samples: Vec<ImuSample>,
    },
    /// Flush and close a session, returning its remaining events.
    Finish {
        /// Tenant id.
        session_id: u64,
    },
    /// Stop the server: drain, refuse new samples, close connections.
    Shutdown,
    /// Ask for a read-only telemetry snapshot (text exposition).
    Metrics,
}

/// A server→client message.
#[derive(Debug, Clone)]
pub enum Response {
    /// Outcome of an [`Request::Ingest`], plus any events the session
    /// emitted since the last response to it.
    Admit {
        /// The admission decision.
        admit: Admit,
        /// Events drained from the session, in emission order.
        events: Vec<StreamEvent>,
    },
    /// Outcome of a [`Request::Finish`].
    Finished {
        /// Every undrained event of the finished session.
        events: Vec<StreamEvent>,
    },
    /// Acknowledges a [`Request::Shutdown`].
    Bye,
    /// Answers a [`Request::Metrics`] with the flat text exposition
    /// (`stage.metric value` lines plus recent trace summaries).
    MetricsSnapshot {
        /// The exposition text, newline-delimited UTF-8.
        text: String,
    },
}

/// Errors decoding a wire message.
#[derive(Debug, PartialEq, Eq)]
pub enum WireError {
    /// Body shorter than its declared layout.
    Truncated,
    /// Unknown message, admit, event, or reason tag.
    BadTag(u8),
    /// A frame exceeded [`MAX_FRAME_LEN`].
    TooLarge(u32),
    /// The embedded CSI payload failed to decode.
    Payload(DecodeError),
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            WireError::Truncated => write!(f, "wire message truncated"),
            WireError::BadTag(t) => write!(f, "unknown wire tag {t:#04x}"),
            WireError::TooLarge(n) => write!(f, "frame of {n} bytes exceeds limit"),
            WireError::Payload(e) => write!(f, "bad payload: {e}"),
        }
    }
}

impl std::error::Error for WireError {}

impl From<DecodeError> for WireError {
    fn from(e: DecodeError) -> Self {
        WireError::Payload(e)
    }
}

impl Request {
    /// Serialises the request to a full frame (length prefix included).
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        match self {
            Request::Ingest { session_id, sample } => {
                body.put_u8(tag::INGEST);
                body.put_u64(*session_id);
                sample.encode(&mut body);
            }
            Request::IngestImu {
                session_id,
                samples,
            } => {
                body.put_u8(tag::INGEST_IMU);
                body.put_u64(*session_id);
                body.put_u32(samples.len() as u32);
                for s in samples {
                    body.put_u64(s.t_us);
                    body.put_f64(s.accel_body.x);
                    body.put_f64(s.accel_body.y);
                    body.put_f64(s.gyro_z);
                    // A magnetometer heading is a wrapped angle and never
                    // legitimately NaN, so NaN is the absence sentinel.
                    body.put_f64(s.mag_orientation.unwrap_or(f64::NAN));
                }
            }
            Request::Finish { session_id } => {
                body.put_u8(tag::FINISH);
                body.put_u64(*session_id);
            }
            Request::Shutdown => body.put_u8(tag::SHUTDOWN),
            Request::Metrics => body.put_u8(tag::METRICS),
        }
        prefix(body)
    }

    /// Decodes a request from a frame body (length prefix removed).
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode(mut body: &[u8]) -> Result<Request, WireError> {
        if body.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match body.get_u8() {
            tag::INGEST => {
                if body.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                let session_id = body.get_u64();
                let sample = SyncedSample::decode(body)?;
                Ok(Request::Ingest { session_id, sample })
            }
            tag::INGEST_IMU => {
                if body.remaining() < 8 + 4 {
                    return Err(WireError::Truncated);
                }
                let session_id = body.get_u64();
                let n = body.get_u32() as usize;
                if body.remaining() / IMU_SAMPLE_LEN < n {
                    return Err(WireError::Truncated);
                }
                let mut samples = Vec::with_capacity(n);
                for _ in 0..n {
                    let t_us = body.get_u64();
                    let accel_body = Vec2::new(body.get_f64(), body.get_f64());
                    let gyro_z = body.get_f64();
                    let mag = body.get_f64();
                    samples.push(ImuSample {
                        t_us,
                        accel_body,
                        gyro_z,
                        mag_orientation: (!mag.is_nan()).then_some(mag),
                    });
                }
                Ok(Request::IngestImu {
                    session_id,
                    samples,
                })
            }
            tag::FINISH => {
                if body.remaining() < 8 {
                    return Err(WireError::Truncated);
                }
                Ok(Request::Finish {
                    session_id: body.get_u64(),
                })
            }
            tag::SHUTDOWN => Ok(Request::Shutdown),
            tag::METRICS => Ok(Request::Metrics),
            t => Err(WireError::BadTag(t)),
        }
    }
}

impl Response {
    /// Serialises the response to a full frame (length prefix included).
    pub fn encode(&self) -> Bytes {
        let mut body = BytesMut::new();
        match self {
            Response::Admit { admit, events } => {
                body.put_u8(tag::ADMIT);
                match admit {
                    Admit::Accepted => {
                        body.put_u8(0);
                        body.put_u64(0);
                    }
                    Admit::Throttled { retry_after } => {
                        body.put_u8(1);
                        body.put_u64(*retry_after);
                    }
                    Admit::Rejected { reason } => {
                        body.put_u8(2);
                        body.put_u64(match reason {
                            RejectReason::SessionTableFull => 0,
                            RejectReason::ShuttingDown => 1,
                            RejectReason::Backpressure => 2,
                        });
                    }
                }
                put_events(&mut body, events);
            }
            Response::Finished { events } => {
                body.put_u8(tag::FINISHED);
                put_events(&mut body, events);
            }
            Response::Bye => body.put_u8(tag::BYE),
            Response::MetricsSnapshot { text } => {
                body.put_u8(tag::METRICS_SNAPSHOT);
                body.put_u32(text.len() as u32);
                body.put_slice(text.as_bytes());
            }
        }
        prefix(body)
    }

    /// Decodes a response from a frame body (length prefix removed).
    ///
    /// # Errors
    /// See [`WireError`].
    pub fn decode(mut body: &[u8]) -> Result<Response, WireError> {
        if body.remaining() < 1 {
            return Err(WireError::Truncated);
        }
        match body.get_u8() {
            tag::ADMIT => {
                if body.remaining() < 9 {
                    return Err(WireError::Truncated);
                }
                let code = body.get_u8();
                let aux = body.get_u64();
                let admit = match code {
                    0 => Admit::Accepted,
                    1 => Admit::Throttled { retry_after: aux },
                    2 => Admit::Rejected {
                        reason: match aux {
                            0 => RejectReason::SessionTableFull,
                            1 => RejectReason::ShuttingDown,
                            2 => RejectReason::Backpressure,
                            _ => return Err(WireError::BadTag(aux as u8)),
                        },
                    },
                    t => return Err(WireError::BadTag(t)),
                };
                let events = get_events(&mut body)?;
                Ok(Response::Admit { admit, events })
            }
            tag::FINISHED => {
                let events = get_events(&mut body)?;
                Ok(Response::Finished { events })
            }
            tag::BYE => Ok(Response::Bye),
            tag::METRICS_SNAPSHOT => {
                if body.remaining() < 4 {
                    return Err(WireError::Truncated);
                }
                let len = body.get_u32() as usize;
                if body.remaining() < len {
                    return Err(WireError::Truncated);
                }
                let text = String::from_utf8(body[..len].to_vec())
                    .map_err(|_| WireError::BadTag(tag::METRICS_SNAPSHOT))?;
                Ok(Response::MetricsSnapshot { text })
            }
            t => Err(WireError::BadTag(t)),
        }
    }
}

/// Prepends the `u32` length prefix to a finished body.
fn prefix(body: BytesMut) -> Bytes {
    let mut framed = BytesMut::with_capacity(4 + body.len());
    framed.put_u32(body.len() as u32);
    framed.put_slice(&body);
    framed.freeze()
}

/// Reads one length-prefixed frame body. Returns `Ok(None)` on a clean
/// EOF at a frame boundary (the peer hung up between messages). The
/// body buffer grows with the bytes that arrive, so a hostile length
/// prefix cannot make it allocate much more than what was received.
///
/// # Errors
/// Propagates I/O errors. Malformed framing is an [`io::Error`] whose
/// inner error is a [`WireError`]: an oversized declared length is
/// [`WireError::TooLarge`] ([`io::ErrorKind::InvalidData`]), and an EOF
/// inside the prefix or the body is [`WireError::Truncated`]
/// ([`io::ErrorKind::UnexpectedEof`]).
pub fn read_frame<R: Read>(r: &mut R) -> io::Result<Option<Vec<u8>>> {
    let truncated = || io::Error::new(io::ErrorKind::UnexpectedEof, WireError::Truncated);
    let mut prefix = [0u8; 4];
    let mut got = 0;
    while got < prefix.len() {
        match r.read(&mut prefix[got..]) {
            Ok(0) if got == 0 => return Ok(None),
            Ok(0) => return Err(truncated()),
            Ok(n) => got += n,
            Err(e) if e.kind() == io::ErrorKind::Interrupted => {}
            Err(e) => return Err(e),
        }
    }
    let len = u32::from_be_bytes(prefix);
    if len > MAX_FRAME_LEN {
        return Err(io::Error::new(
            io::ErrorKind::InvalidData,
            WireError::TooLarge(len),
        ));
    }
    let len = len as usize;
    let mut body = Vec::new();
    while body.len() < len {
        let start = body.len();
        let end = len.min(start.saturating_mul(2).max(READ_CHUNK));
        body.resize(end, 0);
        r.read_exact(&mut body[start..]).map_err(|e| {
            if e.kind() == io::ErrorKind::UnexpectedEof {
                truncated()
            } else {
                e
            }
        })?;
    }
    Ok(Some(body))
}

/// Writes one already-framed message (as produced by the `encode`
/// methods, length prefix included).
///
/// # Errors
/// Propagates I/O errors.
pub fn write_frame<W: Write>(w: &mut W, framed: &[u8]) -> io::Result<()> {
    w.write_all(framed)
}

/// Event tags, derived from the one registry in
/// [`rim_core::StreamEventKind::wire_tag`] (documented in DESIGN.md) so
/// this module cannot drift from core's numbering.
mod event_tag {
    use rim_core::StreamEventKind;

    pub const STARTED: u8 = StreamEventKind::MovementStarted.wire_tag();
    pub const SEGMENT: u8 = StreamEventKind::Segment.wire_tag();
    pub const STOPPED: u8 = StreamEventKind::MovementStopped.wire_tag();
    pub const DEGRADED: u8 = StreamEventKind::Degraded.wire_tag();
    pub const RECOVERED: u8 = StreamEventKind::Recovered.wire_tag();
    pub const PROVISIONAL: u8 = StreamEventKind::Provisional.wire_tag();
    pub const FUSED: u8 = StreamEventKind::Fused.wire_tag();
}

fn put_events(body: &mut BytesMut, events: &[StreamEvent]) {
    // StreamEvent is #[non_exhaustive]: a variant added after this build
    // has no encoding here, and put_event writes nothing for it. Patch
    // the count afterwards so such events are skipped cleanly instead of
    // corrupting the frame.
    let count_at = body.len();
    body.put_u32(0);
    let mut n: u32 = 0;
    for e in events {
        let before = body.len();
        put_event(body, e);
        if body.len() > before {
            n += 1;
        }
    }
    body[count_at..count_at + 4].copy_from_slice(&n.to_be_bytes());
}

fn put_event(body: &mut BytesMut, event: &StreamEvent) {
    match event {
        StreamEvent::MovementStarted { at } => {
            body.put_u8(event_tag::STARTED);
            body.put_u64(*at as u64);
        }
        StreamEvent::Segment(seg) => {
            body.put_u8(event_tag::SEGMENT);
            body.put_u64(seg.start as u64);
            body.put_u64(seg.end as u64);
            body.put_u8(match seg.kind {
                SegmentKind::Translation => 0,
                SegmentKind::Rotation => 1,
            });
            body.put_f64(seg.distance_m);
            match seg.heading_device {
                Some(h) => {
                    body.put_u8(1);
                    body.put_f64(h);
                }
                None => {
                    body.put_u8(0);
                    body.put_f64(0.0);
                }
            }
            body.put_f64(seg.rotation_rad);
            body.put_f64(seg.confidence.peak_margin);
            body.put_f64(seg.confidence.interpolated_fraction);
            body.put_f64(seg.confidence.alignment_coverage);
        }
        StreamEvent::MovementStopped { at } => {
            body.put_u8(event_tag::STOPPED);
            body.put_u64(*at as u64);
        }
        StreamEvent::Degraded { at, reason } => {
            body.put_u8(event_tag::DEGRADED);
            body.put_u64(*at as u64);
            match reason {
                DegradeReason::InputGap { lost } => {
                    body.put_u8(0);
                    body.put_f64(*lost as f64);
                }
                DegradeReason::HighInterpolation { fraction } => {
                    body.put_u8(1);
                    body.put_f64(*fraction);
                }
                DegradeReason::LowAlignment { coverage } => {
                    body.put_u8(2);
                    body.put_f64(*coverage);
                }
            }
        }
        StreamEvent::Recovered { at } => {
            body.put_u8(event_tag::RECOVERED);
            body.put_u64(*at as u64);
        }
        StreamEvent::Provisional {
            at,
            distance_so_far,
            heading,
            confidence,
        } => {
            body.put_u8(event_tag::PROVISIONAL);
            body.put_u64(*at as u64);
            body.put_f64(*distance_so_far);
            match heading {
                Some(h) => {
                    body.put_u8(1);
                    body.put_f64(*h);
                }
                None => {
                    body.put_u8(0);
                    body.put_f64(0.0);
                }
            }
            body.put_f64(confidence.peak_margin);
            body.put_f64(confidence.interpolated_fraction);
            body.put_f64(confidence.alignment_coverage);
        }
        StreamEvent::Fused {
            t_us,
            position,
            heading,
            velocity,
            covariance_trace,
            mode,
        } => {
            body.put_u8(event_tag::FUSED);
            body.put_u64(*t_us);
            body.put_f64(position.x);
            body.put_f64(position.y);
            body.put_f64(*heading);
            body.put_f64(*velocity);
            body.put_f64(*covariance_trace);
            body.put_u8(match mode {
                FusedMode::RimAnchored => 0,
                FusedMode::ImuCoasting => 1,
                FusedMode::Zupt => 2,
            });
        }
        // Unknown (future) variants: encode nothing; put_events skips
        // them via the patched count.
        _ => {}
    }
}

fn get_events(body: &mut &[u8]) -> Result<Vec<StreamEvent>, WireError> {
    if body.remaining() < 4 {
        return Err(WireError::Truncated);
    }
    let n = body.get_u32();
    // Presize only for as many events as the body could hold.
    let mut events = Vec::with_capacity((n as usize).min(body.remaining() / MIN_EVENT_LEN));
    for _ in 0..n {
        events.push(get_event(body)?);
    }
    Ok(events)
}

fn get_event(body: &mut &[u8]) -> Result<StreamEvent, WireError> {
    if body.remaining() < 1 {
        return Err(WireError::Truncated);
    }
    match body.get_u8() {
        event_tag::STARTED => {
            if body.remaining() < 8 {
                return Err(WireError::Truncated);
            }
            Ok(StreamEvent::MovementStarted {
                at: body.get_u64() as usize,
            })
        }
        event_tag::SEGMENT => {
            if body.remaining() < 8 + 8 + 1 + 8 + 9 + 8 + 24 {
                return Err(WireError::Truncated);
            }
            let start = body.get_u64() as usize;
            let end = body.get_u64() as usize;
            let kind = match body.get_u8() {
                0 => SegmentKind::Translation,
                1 => SegmentKind::Rotation,
                t => return Err(WireError::BadTag(t)),
            };
            let distance_m = body.get_f64();
            let has_heading = body.get_u8();
            let heading = body.get_f64();
            let heading_device = match has_heading {
                0 => None,
                1 => Some(heading),
                t => return Err(WireError::BadTag(t)),
            };
            let rotation_rad = body.get_f64();
            let confidence = Confidence {
                peak_margin: body.get_f64(),
                interpolated_fraction: body.get_f64(),
                alignment_coverage: body.get_f64(),
            };
            Ok(StreamEvent::Segment(SegmentEstimate {
                start,
                end,
                kind,
                distance_m,
                heading_device,
                rotation_rad,
                confidence,
            }))
        }
        event_tag::STOPPED => {
            if body.remaining() < 8 {
                return Err(WireError::Truncated);
            }
            Ok(StreamEvent::MovementStopped {
                at: body.get_u64() as usize,
            })
        }
        event_tag::DEGRADED => {
            if body.remaining() < 8 + 1 + 8 {
                return Err(WireError::Truncated);
            }
            let at = body.get_u64() as usize;
            let reason_tag = body.get_u8();
            let value = body.get_f64();
            let reason = match reason_tag {
                0 => DegradeReason::InputGap { lost: value as u64 },
                1 => DegradeReason::HighInterpolation { fraction: value },
                2 => DegradeReason::LowAlignment { coverage: value },
                t => return Err(WireError::BadTag(t)),
            };
            Ok(StreamEvent::Degraded { at, reason })
        }
        event_tag::RECOVERED => {
            if body.remaining() < 8 {
                return Err(WireError::Truncated);
            }
            Ok(StreamEvent::Recovered {
                at: body.get_u64() as usize,
            })
        }
        event_tag::PROVISIONAL => {
            if body.remaining() < 8 + 8 + 9 + 24 {
                return Err(WireError::Truncated);
            }
            let at = body.get_u64() as usize;
            let distance_so_far = body.get_f64();
            let has_heading = body.get_u8();
            let heading_value = body.get_f64();
            let heading = match has_heading {
                0 => None,
                1 => Some(heading_value),
                t => return Err(WireError::BadTag(t)),
            };
            let confidence = Confidence {
                peak_margin: body.get_f64(),
                interpolated_fraction: body.get_f64(),
                alignment_coverage: body.get_f64(),
            };
            Ok(StreamEvent::Provisional {
                at,
                distance_so_far,
                heading,
                confidence,
            })
        }
        event_tag::FUSED => {
            if body.remaining() < 8 + 40 + 1 {
                return Err(WireError::Truncated);
            }
            let t_us = body.get_u64();
            let position = Point2::new(body.get_f64(), body.get_f64());
            let heading = body.get_f64();
            let velocity = body.get_f64();
            let covariance_trace = body.get_f64();
            let mode = match body.get_u8() {
                0 => FusedMode::RimAnchored,
                1 => FusedMode::ImuCoasting,
                2 => FusedMode::Zupt,
                t => return Err(WireError::BadTag(t)),
            };
            Ok(StreamEvent::Fused {
                t_us,
                position,
                heading,
                velocity,
                covariance_trace,
                mode,
            })
        }
        t => Err(WireError::BadTag(t)),
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rim_core::StreamEventKind;
    use rim_csi::frame::CsiSnapshot;
    use rim_dsp::complex::Complex64;

    fn sample() -> SyncedSample {
        SyncedSample {
            seq: 31,
            antennas: vec![
                Some(CsiSnapshot {
                    per_tx: vec![vec![Complex64::new(0.25, -1.5); 4]],
                }),
                None,
            ],
        }
    }

    fn events() -> Vec<StreamEvent> {
        vec![
            StreamEvent::MovementStarted { at: 12 },
            StreamEvent::Segment(SegmentEstimate {
                start: 12,
                end: 240,
                kind: SegmentKind::Translation,
                distance_m: 1.875,
                heading_device: Some(-0.125),
                rotation_rad: 0.0,
                confidence: Confidence {
                    peak_margin: 0.25,
                    interpolated_fraction: 0.0625,
                    alignment_coverage: 0.875,
                },
            }),
            StreamEvent::Provisional {
                at: 120,
                distance_so_far: 0.9375,
                heading: Some(0.25),
                confidence: Confidence {
                    peak_margin: 0.1875,
                    interpolated_fraction: 0.03125,
                    alignment_coverage: 0.75,
                },
            },
            StreamEvent::Provisional {
                at: 180,
                distance_so_far: 1.5,
                heading: None,
                confidence: Confidence {
                    peak_margin: 0.5,
                    interpolated_fraction: 0.0,
                    alignment_coverage: 0.8125,
                },
            },
            StreamEvent::Degraded {
                at: 250,
                reason: DegradeReason::InputGap { lost: 40 },
            },
            StreamEvent::Recovered { at: 300 },
            StreamEvent::MovementStopped { at: 301 },
            StreamEvent::Fused {
                t_us: 1_500_000,
                position: Point2::new(1.5, -0.25),
                heading: 0.75,
                velocity: 1.125,
                covariance_trace: 0.0625,
                mode: FusedMode::ImuCoasting,
            },
            StreamEvent::Fused {
                t_us: 2_000_000,
                position: Point2::new(2.0, 0.5),
                heading: -0.5,
                velocity: 0.0,
                covariance_trace: 0.03125,
                mode: FusedMode::Zupt,
            },
        ]
    }

    fn round_trip_request(req: &Request) -> Request {
        let framed = req.encode();
        let mut cursor = &framed[..];
        let body = read_frame(&mut cursor).unwrap().unwrap();
        Request::decode(&body).unwrap()
    }

    fn round_trip_response(resp: &Response) -> Response {
        let framed = resp.encode();
        let mut cursor = &framed[..];
        let body = read_frame(&mut cursor).unwrap().unwrap();
        Response::decode(&body).unwrap()
    }

    #[test]
    fn requests_round_trip() {
        for req in [
            Request::Ingest {
                session_id: 99,
                sample: sample(),
            },
            Request::IngestImu {
                session_id: 99,
                samples: vec![
                    ImuSample {
                        t_us: 10_000,
                        accel_body: Vec2::new(0.125, -0.5),
                        gyro_z: 0.25,
                        mag_orientation: Some(1.5),
                    },
                    ImuSample {
                        t_us: 20_000,
                        accel_body: Vec2::new(0.0, 0.0),
                        gyro_z: -0.125,
                        mag_orientation: None,
                    },
                ],
            },
            Request::IngestImu {
                session_id: 3,
                samples: vec![],
            },
            Request::Finish { session_id: 7 },
            Request::Shutdown,
            Request::Metrics,
        ] {
            assert_eq!(round_trip_request(&req), req);
        }
    }

    /// FNV-1a 64 over `bytes`.
    fn fnv(bytes: &[u8]) -> u64 {
        bytes.iter().fold(0xcbf2_9ce4_8422_2325, |h, &b| {
            (h ^ b as u64).wrapping_mul(0x0100_0000_01b3)
        })
    }

    /// Pins the ingest frame bytes, so a change to the sample encoding
    /// shows here and not only as a peer that can no longer decode.
    #[test]
    fn ingest_frames_are_byte_identical_to_the_golden_digests() {
        let snap = |tag: f64| CsiSnapshot {
            per_tx: (0..2)
                .map(|k| {
                    (0..4)
                        .map(|s| Complex64::new(tag + k as f64, -0.25 * s as f64))
                        .collect()
                })
                .collect(),
        };
        let ingest = |seq, antennas| {
            Request::Ingest {
                session_id: 0x0102_0304_0506_0708,
                sample: SyncedSample { seq, antennas },
            }
            .encode()
        };
        let holes = ingest(917, vec![Some(snap(1.0)), None, Some(snap(3.0)), None]);
        // Frame length, tag, session id, antenna count, presence bitmap,
        // frame block length, then the block's magic.
        assert_eq!(
            holes[..4 + 1 + 8 + 4 + 4 + 4 + 4],
            [
                0, 0, 1, 69, 1, 1, 2, 3, 4, 5, 6, 7, 8, 0, 0, 0, 4, 1, 0, 1, 0, 0, 0, 1, 48, 82,
                73, 77, 49
            ]
        );
        assert_eq!((holes.len(), fnv(&holes)), (329, 4072101469833895450));
        let all_lost = ingest(1, vec![None, None]);
        assert_eq!((all_lost.len(), fnv(&all_lost)), (47, 8366378583753921249));
        let empty = ingest(2, vec![]);
        assert_eq!((empty.len(), fnv(&empty)), (45, 16303364725139856988));
    }

    #[test]
    fn event_tags_track_the_core_registry() {
        // The serve tags are derived consts; this pins the registry
        // values themselves so renumbering in core is caught loudly.
        for (kind, tag) in [
            (StreamEventKind::MovementStarted, 0u8),
            (StreamEventKind::Segment, 1),
            (StreamEventKind::MovementStopped, 2),
            (StreamEventKind::Degraded, 3),
            (StreamEventKind::Recovered, 4),
            (StreamEventKind::Provisional, 5),
            (StreamEventKind::Fused, 6),
        ] {
            assert_eq!(kind.wire_tag(), tag, "{kind:?}");
            assert_eq!(StreamEventKind::from_wire_tag(tag), Some(kind));
        }
        assert_eq!(StreamEventKind::from_wire_tag(7), None);
    }

    #[test]
    fn truncated_imu_batch_is_rejected() {
        let framed = Request::IngestImu {
            session_id: 1,
            samples: vec![ImuSample {
                t_us: 1,
                accel_body: Vec2::new(0.0, 0.0),
                gyro_z: 0.0,
                mag_orientation: None,
            }],
        }
        .encode();
        let mut cursor = &framed[..];
        let body = read_frame(&mut cursor).unwrap().unwrap();
        assert_eq!(
            Request::decode(&body[..body.len() - 5]),
            Err(WireError::Truncated)
        );
    }

    #[test]
    fn responses_round_trip_bit_exactly() {
        for resp in [
            Response::Admit {
                admit: Admit::Accepted,
                events: events(),
            },
            Response::Admit {
                admit: Admit::Throttled { retry_after: 17 },
                events: vec![],
            },
            Response::Admit {
                admit: Admit::Rejected {
                    reason: RejectReason::ShuttingDown,
                },
                events: vec![],
            },
            Response::Admit {
                admit: Admit::Rejected {
                    reason: RejectReason::Backpressure,
                },
                events: vec![],
            },
            Response::Finished { events: events() },
            Response::Bye,
            Response::MetricsSnapshot {
                text: "# rim-serve metrics v1\nserve.samples_admitted 5\n".into(),
            },
        ] {
            let back = round_trip_response(&resp);
            // StreamEvent has no PartialEq; Debug of f64 prints the
            // shortest round-trippable form, so equal strings ⇔ equal
            // bits.
            assert_eq!(format!("{back:?}"), format!("{resp:?}"));
        }
    }

    #[test]
    fn clean_eof_is_none_and_truncation_errors() {
        let framed = Request::Shutdown.encode();
        let mut empty: &[u8] = &[];
        assert!(read_frame(&mut empty).unwrap().is_none());
        let mut cut = &framed[..framed.len() - 1];
        assert!(read_frame(&mut cut).is_err());
    }

    #[test]
    fn oversized_frame_is_rejected_before_allocating() {
        let mut framed = Request::Shutdown.encode().to_vec();
        framed[0..4].copy_from_slice(&(MAX_FRAME_LEN + 1).to_be_bytes());
        let mut cursor = &framed[..];
        let err = read_frame(&mut cursor).unwrap_err();
        assert_eq!(err.kind(), io::ErrorKind::InvalidData);
    }

    #[test]
    fn truncated_metrics_snapshot_is_rejected() {
        // Declared text length longer than the remaining body.
        let body = [tag::METRICS_SNAPSHOT, 0, 0, 0, 9, b'h', b'i'];
        assert!(matches!(Response::decode(&body), Err(WireError::Truncated)));
    }

    #[test]
    fn unknown_tags_are_rejected() {
        assert_eq!(Request::decode(&[0x7F]), Err(WireError::BadTag(0x7F)));
        assert!(matches!(
            Response::decode(&[0x7F]),
            Err(WireError::BadTag(0x7F))
        ));
        assert_eq!(Request::decode(&[]), Err(WireError::Truncated));
    }
}
