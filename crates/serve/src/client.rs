//! A minimal blocking client for the wire protocol.
//!
//! This is the loopback half used by the CLI's self-drive mode, the
//! integration tests, and the serve bench. It is strictly
//! request/response: one frame out, one frame back, so a single client
//! needs no demultiplexing. Run one client per concurrent session.

use crate::manager::Admit;
use crate::wire::{self, Request, Response};
use rim_core::{ImuSample, StreamEvent};
use rim_csi::sync::SyncedSample;
use std::io;
use std::net::{TcpStream, ToSocketAddrs};
use std::time::Duration;

/// Ceiling on one throttle-retry sleep, milliseconds. The exponential
/// schedule saturates here however far behind the server is.
pub const MAX_BACKOFF_MS: u64 = 250;

/// A blocking connection to a [`crate::Server`].
pub struct Client {
    stream: TcpStream,
    /// xorshift64* state for retry jitter; seeded per connection from
    /// the ephemeral local port so concurrent clients de-correlate
    /// without any clock or OS entropy dependency.
    rng: u64,
}

impl Client {
    /// Connects to a running server.
    ///
    /// # Errors
    /// Propagates connect/configuration I/O errors.
    pub fn connect<A: ToSocketAddrs>(addr: A) -> io::Result<Client> {
        let stream = TcpStream::connect(addr)?;
        stream.set_nodelay(true)?;
        let seed = stream
            .local_addr()
            .map(|a| u64::from(a.port()))
            .unwrap_or(1);
        Ok(Client {
            stream,
            rng: seed | 0x9E37_79B9_7F4A_7C15,
        })
    }

    /// Offers one sample to a session and returns the admission decision
    /// plus the events the session emitted since the last response. The
    /// server analyses an accepted sample before it answers, so these
    /// include every event this sample caused: fed one request at a
    /// time, each answer carries exactly what a standalone stream's
    /// `ingest` returns for the same input.
    ///
    /// # Errors
    /// I/O errors, or [`io::ErrorKind::InvalidData`] on a protocol
    /// violation (garbled frame, wrong response type).
    pub fn ingest(
        &mut self,
        session_id: u64,
        sample: SyncedSample,
    ) -> io::Result<(Admit, Vec<StreamEvent>)> {
        match self.round_trip(&Request::Ingest { session_id, sample })? {
            Response::Admit { admit, events } => Ok((admit, events)),
            other => Err(protocol_violation(&other)),
        }
    }

    /// Like [`Client::ingest`], but honours the backpressure contract:
    /// on [`Admit::Throttled`] it backs off and offers the sample again
    /// until it is accepted or rejected. The sleep starts at the
    /// server's `retry_after` hint, doubles per consecutive retry up to
    /// `MAX_BACKOFF_MS` (250 ms), and carries jitter (a deterministic xorshift
    /// stream per client) so a fleet of throttled clients does not
    /// retry in lockstep. Events drained across retries are
    /// concatenated in order.
    ///
    /// # Errors
    /// Same as [`Client::ingest`].
    pub fn ingest_blocking(
        &mut self,
        session_id: u64,
        sample: SyncedSample,
    ) -> io::Result<(Admit, Vec<StreamEvent>)> {
        let mut collected = Vec::new();
        let mut attempt = 0u32;
        loop {
            let (admit, events) = self.ingest(session_id, sample.clone())?;
            collected.extend(events);
            match admit {
                Admit::Throttled { retry_after } => {
                    let delay = backoff_delay_ms(retry_after, attempt, &mut self.rng);
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(delay));
                }
                decided => return Ok((decided, collected)),
            }
        }
    }

    /// Offers one batch of IMU samples to a session and returns the
    /// admission decision plus the events the session emitted since the
    /// last response — for an accepted batch, including the
    /// [`rim_core::StreamEvent::Fused`] estimate the batch itself
    /// produced, as with [`Client::ingest`].
    ///
    /// # Errors
    /// Same as [`Client::ingest`].
    pub fn ingest_imu(
        &mut self,
        session_id: u64,
        samples: Vec<ImuSample>,
    ) -> io::Result<(Admit, Vec<StreamEvent>)> {
        match self.round_trip(&Request::IngestImu {
            session_id,
            samples,
        })? {
            Response::Admit { admit, events } => Ok((admit, events)),
            other => Err(protocol_violation(&other)),
        }
    }

    /// Like [`Client::ingest_imu`], but honours the backpressure
    /// contract the way [`Client::ingest_blocking`] does: backs off on
    /// [`Admit::Throttled`] and re-offers the batch until decided,
    /// concatenating events drained across retries.
    ///
    /// # Errors
    /// Same as [`Client::ingest`].
    pub fn ingest_imu_blocking(
        &mut self,
        session_id: u64,
        samples: Vec<ImuSample>,
    ) -> io::Result<(Admit, Vec<StreamEvent>)> {
        let mut collected = Vec::new();
        let mut attempt = 0u32;
        loop {
            let (admit, events) = self.ingest_imu(session_id, samples.clone())?;
            collected.extend(events);
            match admit {
                Admit::Throttled { retry_after } => {
                    let delay = backoff_delay_ms(retry_after, attempt, &mut self.rng);
                    attempt += 1;
                    std::thread::sleep(Duration::from_millis(delay));
                }
                decided => return Ok((decided, collected)),
            }
        }
    }

    /// Finishes a session, returning every event not yet drained. The
    /// concatenation of all events returned for a session (ingest
    /// responses plus this) is bit-identical to a standalone
    /// [`rim_core::RimStream`] fed the same accepted samples.
    ///
    /// # Errors
    /// Same as [`Client::ingest`].
    pub fn finish(&mut self, session_id: u64) -> io::Result<Vec<StreamEvent>> {
        match self.round_trip(&Request::Finish { session_id })? {
            Response::Finished { events } => Ok(events),
            other => Err(protocol_violation(&other)),
        }
    }

    /// Fetches the server's live telemetry snapshot: the flat
    /// `stage.metric value` text exposition plus recent trace
    /// summaries. Read-only; safe to call mid-run from a separate
    /// connection.
    ///
    /// # Errors
    /// Same as [`Client::ingest`].
    pub fn metrics(&mut self) -> io::Result<String> {
        match self.round_trip(&Request::Metrics)? {
            Response::MetricsSnapshot { text } => Ok(text),
            other => Err(protocol_violation(&other)),
        }
    }

    /// Asks the server to shut down and waits for its acknowledgement.
    ///
    /// # Errors
    /// Same as [`Client::ingest`].
    pub fn shutdown(&mut self) -> io::Result<()> {
        match self.round_trip(&Request::Shutdown)? {
            Response::Bye => Ok(()),
            other => Err(protocol_violation(&other)),
        }
    }

    fn round_trip(&mut self, request: &Request) -> io::Result<Response> {
        wire::write_frame(&mut self.stream, &request.encode())?;
        let body = wire::read_frame(&mut self.stream)?.ok_or_else(|| {
            io::Error::new(
                io::ErrorKind::UnexpectedEof,
                "server hung up before responding",
            )
        })?;
        Response::decode(&body)
            .map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e.to_string()))
    }
}

fn protocol_violation(got: &Response) -> io::Error {
    io::Error::new(
        io::ErrorKind::InvalidData,
        format!("unexpected response type: {got:?}"),
    )
}

/// One step of a xorshift64* pseudo-random stream. Statistical quality
/// is ample for retry jitter, and the determinism keeps tests exact.
fn xorshift(state: &mut u64) -> u64 {
    let mut x = *state;
    x ^= x << 13;
    x ^= x >> 7;
    x ^= x << 17;
    *state = x;
    x.wrapping_mul(0x2545_F491_4F6C_DD1D)
}

/// The throttle-retry schedule: the server's `retry_after` hint doubled
/// per consecutive retry, capped at [`MAX_BACKOFF_MS`], with jitter
/// drawn uniformly from the upper half of the capped delay — i.e. a
/// sleep in `[cap/2, cap]`. The hint stays the floor of the schedule
/// (attempt 0 jitters around the hint itself), so a lightly loaded
/// server's small hints stay small.
fn backoff_delay_ms(retry_after_hint: u64, attempt: u32, rng: &mut u64) -> u64 {
    let base = retry_after_hint.max(1);
    let doubled = base.saturating_mul(1u64 << attempt.min(16));
    let capped = doubled.clamp(1, MAX_BACKOFF_MS);
    let low = capped.div_ceil(2);
    low + xorshift(rng) % (capped - low + 1)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn backoff_doubles_from_the_hint_until_the_cap() {
        let mut rng = 7u64;
        // With hint 5 the schedule's ceilings are 5, 10, 20, 40, ...
        // capped at MAX_BACKOFF_MS; every draw falls in [ceil/2, ceil].
        for attempt in 0..12u32 {
            let ceil = (5u64 << attempt.min(16)).min(MAX_BACKOFF_MS);
            for _ in 0..64 {
                let d = backoff_delay_ms(5, attempt, &mut rng);
                assert!(
                    d >= ceil.div_ceil(2) && d <= ceil,
                    "attempt {attempt}: delay {d} outside [{}, {ceil}]",
                    ceil.div_ceil(2)
                );
            }
        }
    }

    #[test]
    fn backoff_saturates_at_the_cap_for_huge_attempts() {
        let mut rng = 3u64;
        for attempt in [32u32, 63, u32::MAX] {
            let d = backoff_delay_ms(1000, attempt, &mut rng);
            assert!((MAX_BACKOFF_MS / 2..=MAX_BACKOFF_MS).contains(&d), "{d}");
        }
    }

    #[test]
    fn backoff_floors_a_zero_hint_and_jitters_deterministically() {
        let mut a = 42u64;
        let mut b = 42u64;
        assert!(backoff_delay_ms(0, 0, &mut a) >= 1);
        a = 42;
        let first: Vec<u64> = (0..8).map(|i| backoff_delay_ms(7, i, &mut a)).collect();
        let second: Vec<u64> = (0..8).map(|i| backoff_delay_ms(7, i, &mut b)).collect();
        assert_eq!(first, second, "same seed, same schedule");
    }
}
