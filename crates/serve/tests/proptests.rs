//! Wire decoders under hostile input: arbitrary bytes, every truncation
//! of valid frames, and counts set to `u32::MAX` must all come back as a
//! typed [`WireError`] — never a panic, and never an allocation sized
//! from a count the body cannot back.
//!
//! Allocation sizes are observed with a counting global allocator that
//! records, per thread, the largest single request while a check runs.

use proptest::prelude::*;
use rim_core::{
    Confidence, DegradeReason, FusedMode, ImuSample, SegmentEstimate, SegmentKind, StreamEvent,
};
use rim_csi::frame::{CsiSnapshot, DecodeError};
use rim_csi::sync::SyncedSample;
use rim_dsp::complex::Complex64;
use rim_dsp::geom::{Point2, Vec2};
use rim_serve::wire::{read_frame, Request, Response, WireError, MAX_FRAME_LEN};
use rim_serve::{Admit, RejectReason};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;
use std::io;

struct LargestAlloc;

thread_local! {
    static LARGEST: Cell<usize> = const { Cell::new(0) };
}

fn note(size: usize) {
    // `try_with`: allocations during thread teardown are not measured.
    let _ = LARGEST.try_with(|m| m.set(m.get().max(size)));
}

// SAFETY: every call forwards to the system allocator with the caller's
// layout unchanged; the thread-local maximum publishes no data.
unsafe impl GlobalAlloc for LargestAlloc {
    unsafe fn alloc(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc`'s contract.
        unsafe { System.alloc(layout) }
    }

    unsafe fn alloc_zeroed(&self, layout: Layout) -> *mut u8 {
        note(layout.size());
        // SAFETY: the caller upholds `GlobalAlloc::alloc_zeroed`'s contract.
        unsafe { System.alloc_zeroed(layout) }
    }

    unsafe fn dealloc(&self, ptr: *mut u8, layout: Layout) {
        // SAFETY: `ptr` came from this allocator with this `layout`.
        unsafe { System.dealloc(ptr, layout) }
    }

    unsafe fn realloc(&self, ptr: *mut u8, layout: Layout, new_size: usize) -> *mut u8 {
        note(new_size);
        // SAFETY: the caller upholds `GlobalAlloc::realloc`'s contract.
        unsafe { System.realloc(ptr, layout, new_size) }
    }
}

#[global_allocator]
static ALLOCATOR: LargestAlloc = LargestAlloc;

/// Runs `f` and asserts that no single allocation it made exceeds a
/// small multiple of the `input_len` bytes it was given, plus a fixed
/// slack. The slack covers the buffered reader's first 64 KiB chunk.
fn bounded_alloc<R>(input_len: usize, f: impl FnOnce() -> R) -> R {
    const SLACK: usize = 128 * 1024;
    LARGEST.with(|m| m.set(0));
    let out = f();
    let largest = LARGEST.with(Cell::get);
    let bound = 16 * input_len + SLACK;
    assert!(
        largest <= bound,
        "allocated {largest} B in one request for {input_len} B of input (bound {bound} B)"
    );
    out
}

/// Every tag byte either decoder knows, plus one neither does.
const TAGS: [u8; 10] = [0x01, 0x02, 0x03, 0x04, 0x05, 0x81, 0x82, 0x83, 0x84, 0x7F];

/// A deterministic value stream for building messages from one seed.
struct Gen(u64);

impl Gen {
    fn next(&mut self) -> u64 {
        self.0 ^= self.0 << 13;
        self.0 ^= self.0 >> 7;
        self.0 ^= self.0 << 17;
        self.0
    }

    fn below(&mut self, n: u64) -> u64 {
        self.next() % n
    }

    fn f64(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64 * 8.0 - 4.0
    }

    fn confidence(&mut self) -> Confidence {
        Confidence {
            peak_margin: self.f64(),
            interpolated_fraction: self.f64(),
            alignment_coverage: self.f64(),
        }
    }

    fn heading(&mut self) -> Option<f64> {
        (self.below(2) == 0).then(|| self.f64())
    }

    fn sample(&mut self) -> SyncedSample {
        let n_ant = 1 + self.below(4) as usize;
        let n_tx = 1 + self.below(2) as usize;
        let n_sc = 1 + self.below(12) as usize;
        let antennas = (0..n_ant)
            .map(|_| {
                (self.below(4) != 0).then(|| CsiSnapshot {
                    per_tx: (0..n_tx)
                        .map(|_| {
                            (0..n_sc)
                                .map(|_| Complex64::new(self.f64(), self.f64()))
                                .collect()
                        })
                        .collect(),
                })
            })
            .collect();
        SyncedSample {
            seq: self.next(),
            antennas,
        }
    }

    fn imu(&mut self) -> Vec<ImuSample> {
        (0..self.below(8))
            .map(|i| ImuSample {
                t_us: i * 5_000,
                accel_body: Vec2::new(self.f64(), self.f64()),
                gyro_z: self.f64(),
                mag_orientation: self.heading(),
            })
            .collect()
    }

    fn event(&mut self) -> StreamEvent {
        let at = self.below(100_000) as usize;
        match self.below(7) {
            0 => StreamEvent::MovementStarted { at },
            1 => StreamEvent::Segment(SegmentEstimate {
                start: at,
                end: at + 1 + self.below(500) as usize,
                kind: if self.below(2) == 0 {
                    SegmentKind::Translation
                } else {
                    SegmentKind::Rotation
                },
                distance_m: self.f64(),
                heading_device: self.heading(),
                rotation_rad: self.f64(),
                confidence: self.confidence(),
            }),
            2 => StreamEvent::MovementStopped { at },
            3 => StreamEvent::Degraded {
                at,
                reason: match self.below(3) {
                    0 => DegradeReason::InputGap {
                        lost: self.below(1000),
                    },
                    1 => DegradeReason::HighInterpolation {
                        fraction: self.f64(),
                    },
                    _ => DegradeReason::LowAlignment {
                        coverage: self.f64(),
                    },
                },
            },
            4 => StreamEvent::Recovered { at },
            5 => StreamEvent::Provisional {
                at,
                distance_so_far: self.f64(),
                heading: self.heading(),
                confidence: self.confidence(),
            },
            _ => StreamEvent::Fused {
                t_us: self.next(),
                position: Point2::new(self.f64(), self.f64()),
                heading: self.f64(),
                velocity: self.f64(),
                covariance_trace: self.f64(),
                mode: match self.below(3) {
                    0 => FusedMode::RimAnchored,
                    1 => FusedMode::ImuCoasting,
                    _ => FusedMode::Zupt,
                },
            },
        }
    }

    fn events(&mut self) -> Vec<StreamEvent> {
        (0..self.below(6)).map(|_| self.event()).collect()
    }

    fn request(&mut self) -> Request {
        let session_id = self.next();
        match self.below(5) {
            0 => Request::Ingest {
                session_id,
                sample: self.sample(),
            },
            1 => Request::IngestImu {
                session_id,
                samples: self.imu(),
            },
            2 => Request::Finish { session_id },
            3 => Request::Metrics,
            _ => Request::Shutdown,
        }
    }

    fn response(&mut self) -> Response {
        match self.below(4) {
            0 => Response::Admit {
                admit: match self.below(3) {
                    0 => Admit::Accepted,
                    1 => Admit::Throttled {
                        retry_after: self.below(1000),
                    },
                    _ => Admit::Rejected {
                        reason: RejectReason::Backpressure,
                    },
                },
                events: self.events(),
            },
            1 => Response::Finished {
                events: self.events(),
            },
            2 => Response::Bye,
            _ => Response::MetricsSnapshot {
                text: format!("# rim-serve metrics v1\nqueue_depth {}\n", self.below(99)),
            },
        }
    }
}

/// The typed wire error inside an `io::Error` from [`read_frame`].
fn wire_error(e: &io::Error) -> Option<&WireError> {
    e.get_ref()?.downcast_ref::<WireError>()
}

fn is_truncated(e: &WireError) -> bool {
    matches!(
        e,
        WireError::Truncated | WireError::Payload(DecodeError::Truncated)
    )
}

/// A frame's body: the encoding without its length prefix.
fn body_of(frame: &[u8]) -> Vec<u8> {
    frame[4..].to_vec()
}

/// Reads one frame from `bytes`; any error must carry a [`WireError`].
fn read_one(bytes: &[u8]) -> Result<Option<Vec<u8>>, WireError> {
    let mut cursor = bytes;
    bounded_alloc(bytes.len(), || read_frame(&mut cursor)).map_err(|e| {
        let inner = wire_error(&e);
        assert!(inner.is_some(), "untyped read_frame error: {e}");
        match inner {
            Some(WireError::TooLarge(n)) => WireError::TooLarge(*n),
            _ => WireError::Truncated,
        }
    })
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    #[test]
    fn arbitrary_bytes_decode_to_a_value_or_a_wire_error(
        tag in prop::sample::select(TAGS.to_vec()),
        tail in prop::collection::vec(any::<u8>(), 0..160),
        raw in prop::collection::vec(any::<u8>(), 0..64),
    ) {
        let mut body = vec![tag];
        body.extend_from_slice(&tail);
        for bytes in [&body[..], &raw[..]] {
            let _ = bounded_alloc(bytes.len(), || Request::decode(bytes));
            let _ = bounded_alloc(bytes.len(), || Response::decode(bytes));
            let _ = read_one(bytes);
        }
    }

    #[test]
    fn every_truncation_of_a_valid_frame_is_a_truncated_error(seed in any::<u64>()) {
        let mut gen = Gen(seed | 1);
        let request = gen.request();
        let response = gen.response();
        let frames = [request.encode().to_vec(), response.encode().to_vec()];
        prop_assert_eq!(
            Request::decode(&body_of(&frames[0])).expect("valid request"),
            request
        );
        prop_assert_eq!(
            format!("{:?}", Response::decode(&body_of(&frames[1])).expect("valid response")),
            format!("{response:?}")
        );
        for (i, frame) in frames.iter().enumerate() {
            let body = body_of(frame);
            for cut in 0..frame.len() {
                let read = read_one(&frame[..cut]);
                if cut == 0 {
                    prop_assert!(read == Ok(None), "empty input is a clean EOF");
                } else {
                    prop_assert!(read == Err(WireError::Truncated), "cut {cut}: {read:?}");
                }
            }
            for cut in 0..body.len() {
                let cut_body = &body[..cut];
                let err = bounded_alloc(cut, || {
                    if i == 0 {
                        Request::decode(cut_body).err()
                    } else {
                        Response::decode(cut_body).err()
                    }
                });
                prop_assert!(
                    err.as_ref().is_some_and(is_truncated),
                    "body cut at {cut} of {}: {err:?}",
                    body.len()
                );
            }
        }
    }

    #[test]
    fn hostile_counts_are_rejected_without_presizing(seed in any::<u64>()) {
        let mut gen = Gen(seed | 1);
        // (body, offset of a u32 count or length in it, is a request)
        let imu = body_of(&Request::IngestImu { session_id: gen.next(), samples: gen.imu() }.encode());
        let sample = body_of(&Request::Ingest { session_id: gen.next(), sample: gen.sample() }.encode());
        let admit = body_of(&Response::Admit { admit: Admit::Accepted, events: gen.events() }.encode());
        let finished = body_of(&Response::Finished { events: gen.events() }.encode());
        let text = body_of(&Response::MetricsSnapshot { text: "# rim-serve metrics v1\n".into() }.encode());
        for (mut body, at, request) in [
            (imu, 1 + 8, true),
            (sample, 1 + 8, true),
            (admit, 1 + 1 + 8, false),
            (finished, 1, false),
            (text, 1, false),
        ] {
            body[at..at + 4].copy_from_slice(&u32::MAX.to_be_bytes());
            let err = bounded_alloc(body.len(), || {
                if request {
                    Request::decode(&body).err()
                } else {
                    Response::decode(&body).map(|_| ()).err()
                }
            });
            prop_assert!(
                matches!(
                    err,
                    Some(WireError::Truncated | WireError::Payload(DecodeError::BadDimension))
                ),
                "count u32::MAX at {at}: {err:?}"
            );
        }
    }
}

#[test]
fn hostile_frame_lengths_are_typed_and_never_presized() {
    // Over the limit: rejected before reading a byte of body.
    let over = (MAX_FRAME_LEN + 1).to_be_bytes();
    assert_eq!(read_one(&over), Err(WireError::TooLarge(MAX_FRAME_LEN + 1)));
    assert_eq!(
        read_one(&u32::MAX.to_be_bytes()),
        Err(WireError::TooLarge(u32::MAX))
    );
    // At the limit with nothing behind it: a truncation, and the 64 MiB
    // the prefix promised is never allocated.
    let mut at_limit = MAX_FRAME_LEN.to_be_bytes().to_vec();
    at_limit.extend_from_slice(&[0u8; 100]);
    assert_eq!(read_one(&at_limit), Err(WireError::Truncated));
    // A frame larger than one read chunk still arrives whole.
    let text = "x".repeat(300 * 1024);
    let frame = Response::MetricsSnapshot { text: text.clone() }.encode();
    let mut cursor = &frame[..];
    let body = read_frame(&mut cursor).expect("read").expect("frame");
    match Response::decode(&body).expect("decode") {
        Response::MetricsSnapshot { text: back } => assert_eq!(back, text),
        other => panic!("unexpected {other:?}"),
    }
}
