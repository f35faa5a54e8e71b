//! Property-based tests of the CSI layer.
//!
//! The frame decoder is fuzzed with hostile input: arbitrary bytes, every
//! truncation of a valid frame, and hostile dimension counts must all
//! come back as a typed [`DecodeError`] — never a panic, and never an
//! allocation sized from a count the bytes cannot back. The capture
//! reader gets the same treatment, with ragged shapes (snapshots whose TX
//! count or CFR length disagree) among its inputs. Allocation sizes are
//! observed with a counting global allocator that records, per thread,
//! the largest single request while a decode runs.

use proptest::prelude::*;
use rim_channel::SubcarrierLayout;
use rim_csi::frame::{CsiFrame, CsiSnapshot, DecodeError};
use rim_csi::recorder::CsiRecording;
use rim_csi::sanitize::sanitize_matched_delay;
use rim_csi::storage::{load_recording, save_recording, LoadError};
use rim_dsp::complex::{Complex64, ZERO};
use std::alloc::{GlobalAlloc, Layout, System};
use std::cell::Cell;

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

/// Decodes `bytes`, asserting that no single allocation exceeds what the
/// input can back: a snapshot or CFR list costs 24 B per entry and each
/// entry needs at least a 4-byte count, so 8× the input plus a small
/// fixed slack bounds every honest presize.
fn decode_bounded(bytes: &[u8]) -> Result<CsiFrame, DecodeError> {
    const SLACK: usize = 256;
    LARGEST.with(|m| m.set(0));
    let out = CsiFrame::decode(bytes);
    let largest = LARGEST.with(Cell::get);
    let bound = 8 * bytes.len() + SLACK;
    assert!(
        largest <= bound,
        "allocated {largest} B in one request for {} B of input (bound {bound} B)",
        bytes.len()
    );
    out
}

/// Loads a capture, asserting the same presize bound as
/// [`decode_bounded`]: no single allocation beyond 8× the input plus a
/// small fixed slack, whatever sample or antenna counts the header claims.
fn load_bounded(bytes: &[u8]) -> Result<CsiRecording, LoadError> {
    const SLACK: usize = 4096;
    LARGEST.with(|m| m.set(0));
    let out = load_recording(bytes);
    let largest = LARGEST.with(Cell::get);
    let bound = 8 * bytes.len() + SLACK;
    assert!(
        largest <= bound,
        "allocated {largest} B in one request for {} B of capture (bound {bound} B)",
        bytes.len()
    );
    out
}

/// The 4-byte frame magic, followed by `tail`.
fn behind_magic(tail: &[u8]) -> Vec<u8> {
    let mut bytes = CsiFrame {
        seq: 0,
        timestamp_s: 0.0,
        rx: vec![],
    }
    .encode()[..4]
        .to_vec();
    bytes.extend_from_slice(tail);
    bytes
}

/// Scalar reference for `sanitize_matched_delay`: every β of the coarse
/// search is evaluated directly, one `cis` per subcarrier, with no
/// twiddle table. The cached production path must match it bit for bit.
fn matched_delay_direct(cfr: &mut [Complex64], indices: &[i32]) {
    if cfr.len() < 2 || cfr.len() != indices.len() {
        return;
    }
    let eval = |beta: f64| -> f64 {
        let mut acc = ZERO;
        for (h, &i) in cfr.iter().zip(indices) {
            acc += *h * Complex64::cis(-beta * i as f64);
        }
        acc.norm_sqr()
    };
    let span = (indices.iter().max().unwrap() - indices.iter().min().unwrap()).max(1) as f64;
    let lobe = std::f64::consts::TAU / span;
    let coarse = (lobe / 4.0).min(0.02);
    let range = 0.8f64;
    let n_steps = (range / coarse).ceil() as i32;
    let mut best = (0.0f64, f64::NEG_INFINITY);
    for s in -n_steps..=n_steps {
        let beta = s as f64 * coarse;
        let v = eval(beta);
        if v > best.1 {
            best = (beta, v);
        }
    }
    let step = coarse / 8.0;
    let best = {
        let b0 = best.0;
        let mut fine = (b0, f64::NEG_INFINITY);
        for s in -8..=8 {
            let beta = b0 + s as f64 * step;
            let v = eval(beta);
            if v > fine.1 {
                fine = (beta, v);
            }
        }
        fine
    };
    let (b0, v0) = best;
    let vm = eval(b0 - step);
    let vp = eval(b0 + step);
    let denom = vm - 2.0 * v0 + vp;
    let beta = if denom < -1e-12 {
        b0 + 0.5 * (vm - vp) / denom * step
    } else {
        b0
    };
    let mut acc = ZERO;
    for (h, &i) in cfr.iter().zip(indices) {
        acc += *h * Complex64::cis(-beta * i as f64);
    }
    let intercept = acc.arg();
    for (h, &i) in cfr.iter_mut().zip(indices) {
        *h *= Complex64::cis(-(beta * i as f64 + intercept));
    }
}

/// A multipath CFR on `indices`: one tap per `(amplitude, delay slope,
/// phase)` plus a per-subcarrier perturbation (cycled if shorter).
fn multipath_cfr(
    indices: &[i32],
    taps: &[(f64, f64, f64)],
    noise: &[(f64, f64)],
) -> Vec<Complex64> {
    indices
        .iter()
        .zip(noise.iter().cycle())
        .map(|(&i, &(re, im))| {
            let mut h = Complex64::new(re, im);
            for &(a, slope, phase) in taps {
                h += Complex64::from_polar(a, slope * i as f64 + phase);
            }
            h
        })
        .collect()
}

fn taps_strategy() -> impl Strategy<Value = Vec<(f64, f64, f64)>> {
    prop::collection::vec((0.05f64..2.0, -0.6f64..0.6, -3.1f64..3.1), 1..5)
}

fn noise_strategy() -> impl Strategy<Value = Vec<(f64, f64)>> {
    prop::collection::vec((-0.3f64..0.3, -0.3f64..0.3), 1..32)
}

/// Sanitizes `cfr` on both paths and asserts bit-identical output.
fn assert_matches_reference(cfr: &[Complex64], indices: &[i32]) {
    let mut cached = cfr.to_vec();
    let mut direct = cfr.to_vec();
    sanitize_matched_delay(&mut cached, indices);
    matched_delay_direct(&mut direct, indices);
    for (k, (a, b)) in cached.iter().zip(&direct).enumerate() {
        assert!(
            a.re.to_bits() == b.re.to_bits() && a.im.to_bits() == b.im.to_bits(),
            "subcarrier {k} of {} differs: cached {a} vs direct {b}",
            indices.len()
        );
    }
}

fn wifi_layouts() -> [Vec<i32>; 3] {
    [
        SubcarrierLayout::ht20_5ghz().indices,
        SubcarrierLayout::ht40_5ghz().indices,
        SubcarrierLayout::vht80_5ghz().indices,
    ]
}

fn snapshot_strategy() -> impl Strategy<Value = CsiSnapshot> {
    prop::collection::vec(
        prop::collection::vec(
            (-10.0f64..10.0, -10.0f64..10.0).prop_map(|(re, im)| Complex64::new(re, im)),
            1..20,
        ),
        1..4,
    )
    .prop_map(|per_tx| CsiSnapshot { per_tx })
}

/// A capture of `shapes[antenna][sample]`: `None` is a lost packet,
/// `Some((n_tx, sc_delta))` a snapshot of `n_tx` CFRs of
/// `n_sc + sc_delta` entries. The header always claims `n_sc`.
fn shaped_recording(n_sc: usize, shapes: &[Vec<Option<(usize, usize)>>]) -> CsiRecording {
    let n_samples = shapes.iter().map(Vec::len).min().unwrap_or(0);
    CsiRecording {
        sample_rate_hz: 100.0,
        subcarrier_indices: (0..n_sc as i32).collect(),
        antennas: shapes
            .iter()
            .map(|series| {
                series[..n_samples]
                    .iter()
                    .map(|shape| {
                        shape.map(|(n_tx, sc_delta)| CsiSnapshot {
                            per_tx: vec![vec![Complex64::new(0.5, -0.25); n_sc + sc_delta]; n_tx],
                        })
                    })
                    .collect()
            })
            .collect(),
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Captures of every shape, ragged ones included, then corrupted by
    /// byte flips or a truncation: loading returns a recording or a typed
    /// error, never a panic. A rectangular capture loads and interpolates;
    /// a ragged one is `Corrupt`; whatever loads interpolates without
    /// panicking.
    #[test]
    fn capture_reader_types_ragged_and_corrupt_files(
        n_sc in 1usize..5,
        shapes in prop::collection::vec(
            prop::collection::vec(
                prop::option::weighted(0.8, (prop::sample::select(vec![0usize, 1, 2, 2, 2]), prop::sample::select(vec![0usize, 0, 0, 1]))),
                1..5,
            ),
            1..3,
        ),
        flips in prop::collection::vec((any::<usize>(), any::<u8>()), 0..3),
        cut in prop::option::weighted(0.3, any::<usize>()),
    ) {
        let rec = shaped_recording(n_sc, &shapes);
        let mut bytes = Vec::new();
        save_recording(&rec, &mut bytes).unwrap();
        let present = || rec.antennas.iter().flatten().flatten();
        let first_tx = present().next().map(CsiSnapshot::n_tx);
        let rectangular = present()
            .all(|s| Some(s.n_tx()) == first_tx && s.per_tx.iter().all(|c| c.len() == n_sc));
        match load_bounded(&bytes) {
            Ok(loaded) => {
                prop_assert!(rectangular, "a ragged capture loaded");
                let every_antenna_heard = loaded.antennas.iter().all(|s| s.iter().any(Option::is_some));
                prop_assert_eq!(loaded.interpolated().is_some(), every_antenna_heard);
            }
            Err(e) => {
                prop_assert!(!rectangular, "a rectangular capture failed: {e}");
                prop_assert!(matches!(e, LoadError::Corrupt(_)), "{e}");
            }
        }
        for &(at, byte) in &flips {
            let at = at % bytes.len();
            bytes[at] ^= byte;
        }
        if let Some(cut) = cut {
            bytes.truncate(cut % (bytes.len() + 1));
        }
        if let Ok(loaded) = load_bounded(&bytes) {
            let _ = loaded.interpolated();
        }
    }

    #[test]
    fn frame_wire_round_trip(
        seq in any::<u64>(),
        ts in -1e6f64..1e6,
        rx in prop::collection::vec(snapshot_strategy(), 0..4),
    ) {
        let frame = CsiFrame { seq, timestamp_s: ts, rx };
        let decoded = CsiFrame::decode(&frame.encode()).unwrap();
        prop_assert_eq!(frame, decoded);
    }

    /// Garbage decodes to a frame or a typed error, never presized from
    /// its counts; behind a valid magic it reaches the count fields.
    #[test]
    fn decode_never_panics_on_garbage(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let _ = decode_bounded(&bytes);
        let _ = decode_bounded(&behind_magic(&bytes));
    }

    #[test]
    fn every_truncation_of_a_valid_frame_is_a_truncated_error(
        seq in any::<u64>(),
        rx in prop::collection::vec(snapshot_strategy(), 1..4),
    ) {
        let frame = CsiFrame { seq, timestamp_s: 0.5, rx };
        let bytes = frame.encode();
        prop_assert_eq!(decode_bounded(&bytes), Ok(frame));
        for cut in 0..bytes.len() {
            prop_assert_eq!(decode_bounded(&bytes[..cut]), Err(DecodeError::Truncated), "cut {}", cut);
        }
    }

    /// A count at the `n_rx`, first `n_tx` or first `n_sc` field (byte
    /// offsets 20, 24, 28) that the bytes cannot back is a typed error.
    #[test]
    fn hostile_counts_are_rejected_without_presizing(
        rx in prop::collection::vec(snapshot_strategy(), 1..4),
        count in prop::sample::select(vec![4096u32, 4097, 65_536, u32::MAX]),
    ) {
        let bytes = CsiFrame { seq: 1, timestamp_s: 0.0, rx }.encode().to_vec();
        for at in [20, 24, 28] {
            let mut hostile = bytes.clone();
            hostile[at..at + 4].copy_from_slice(&count.to_be_bytes());
            let err = decode_bounded(&hostile).err();
            prop_assert!(
                matches!(err, Some(DecodeError::Truncated | DecodeError::BadDimension)),
                "count {count} at {at}: {err:?}"
            );
        }
    }

    #[test]
    fn matched_delay_cache_matches_direct_on_wifi_layouts(
        layout in 0usize..3,
        taps in taps_strategy(),
        noise in noise_strategy(),
    ) {
        let indices = &wifi_layouts()[layout];
        assert_matches_reference(&multipath_cfr(indices, &taps, &noise), indices);
    }

    #[test]
    fn matched_delay_cache_matches_direct_on_near_ties(
        layout in 0usize..3,
        s in 1i32..40,
        amplitude in 0.5f64..2.0,
        noise in noise_strategy(),
    ) {
        // Two equal taps at ±β on the coarse grid tie the objective at ±β
        // on these symmetric layouts; a perturbation near rounding level
        // breaks the tie. Rounding then picks the coarse maximum, so the
        // cached sums must round exactly as the direct ones do.
        let indices = &wifi_layouts()[layout];
        let span = (indices[indices.len() - 1] - indices[0]) as f64;
        let beta = s as f64 * (std::f64::consts::TAU / span / 4.0).min(0.02);
        let taps = [(amplitude, beta, 0.0), (amplitude, -beta, 0.0)];
        let tiny: Vec<(f64, f64)> = noise.iter().map(|&(re, im)| (re * 1e-14, im * 1e-14)).collect();
        assert_matches_reference(&multipath_cfr(indices, &taps, &tiny), indices);
    }

    #[test]
    fn matched_delay_cache_matches_direct_on_random_grids(
        indices in prop::collection::vec(-130i32..130, 2..80),
        taps in taps_strategy(),
        noise in noise_strategy(),
    ) {
        // Non-contiguous, unsorted, possibly repeating indices.
        assert_matches_reference(&multipath_cfr(&indices, &taps, &noise), &indices);
    }

    #[test]
    fn matched_delay_cache_rebuilds_when_one_thread_alternates_grids(
        first in 0usize..3,
        other in prop::collection::vec(-64i32..64, 2..40),
        taps in taps_strategy(),
        noise in noise_strategy(),
    ) {
        // Every switch invalidates the thread's cached grid; a stale
        // table would show as a mismatch. The reversed layout has the
        // same length, span and index set as the layout, so only a cache
        // keyed by the index list itself tells the two apart. (A shifted
        // copy would not do: shifting every index turns each coarse sum
        // by one common phase, which leaves the objective unchanged.)
        let layout = wifi_layouts()[first].clone();
        let reversed: Vec<i32> = layout.iter().rev().copied().collect();
        let grids = [layout, other, reversed];
        for round in 0..6 {
            let indices = &grids[round % 3];
            assert_matches_reference(&multipath_cfr(indices, &taps, &noise), indices);
        }
    }

    #[test]
    fn matched_delay_cache_is_per_thread(
        taps in taps_strategy(),
        noise in noise_strategy(),
    ) {
        // Two threads sanitizing different grids at once each keep their
        // own cache.
        let [ht20, ht40, vht80] = wifi_layouts();
        let start = std::sync::Barrier::new(2);
        std::thread::scope(|scope| {
            for grids in [[&vht80, &vht80, &ht20], [&ht40, &ht20, &ht40]] {
                let (start, taps, noise) = (&start, &taps, &noise);
                scope.spawn(move || {
                    start.wait();
                    for indices in grids {
                        assert_matches_reference(&multipath_cfr(indices, taps, noise), indices);
                    }
                });
            }
        });
    }

    #[test]
    fn matched_delay_matches_direct_on_hostile_numerics(
        layout in 0usize..3,
        taps in taps_strategy(),
        noise in noise_strategy(),
        poison in prop::sample::select(vec![f64::NAN, f64::INFINITY, f64::NEG_INFINITY, 1e160, 1e-160]),
        at in prop::collection::vec((0usize..256, any::<bool>()), 1..4),
        everywhere in any::<bool>(),
    ) {
        // NaN and ±∞ entries, or every entry scaled to |h| ~ 1e160 (whose
        // squared sum overflows) or 1e-160 (whose squares underflow):
        // the screen's bound turns NaN, infinite or absolute, and the
        // result must still be the exhaustive scan's, bit for bit.
        let indices = &wifi_layouts()[layout];
        let mut cfr = multipath_cfr(indices, &taps, &noise);
        if everywhere && poison.is_finite() {
            for h in &mut cfr {
                *h = h.scale(poison);
            }
        } else {
            for &(k, imaginary) in &at {
                let h = &mut cfr[k % indices.len()];
                if imaginary {
                    h.im = poison;
                } else {
                    h.re = poison;
                }
            }
        }
        assert_matches_reference(&cfr, indices);
    }

    #[test]
    fn sanitation_preserves_magnitudes(
        cfr in prop::collection::vec(
            (0.01f64..10.0, -3.1f64..3.1).prop_map(|(r, p)| Complex64::from_polar(r, p)),
            2..40,
        ),
    ) {
        let indices: Vec<i32> = (0..cfr.len() as i32).collect();
        let mut v = cfr.clone();
        sanitize_matched_delay(&mut v, &indices);
        for (a, b) in v.iter().zip(&cfr) {
            prop_assert!((a.abs() - b.abs()).abs() < 1e-9);
        }
    }

    #[test]
    fn sanitation_is_idempotent_up_to_phase(
        // Physical multipath CFRs: one dominant tap plus weaker echoes.
        // (On adversarial vectors with *tied* taps the argmax can flip
        // between passes — that ambiguity is inherent to any per-packet
        // delay alignment, not a defect of this one.)
        main_slope in -0.4f64..0.4,
        echoes in prop::collection::vec(
            (0.05f64..0.7, -0.4f64..0.4, -3.1f64..3.1),
            1..4,
        ),
    ) {
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let cfr: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                let mut h = Complex64::cis(main_slope * i as f64);
                for &(a, sl, ph) in &echoes {
                    h += Complex64::from_polar(a, sl * i as f64 + ph);
                }
                h
            })
            .collect();
        // Sanitising twice changes nothing: the second pass finds β ≈ 0.
        let mut once = cfr.clone();
        sanitize_matched_delay(&mut once, &indices);
        let mut twice = once.clone();
        sanitize_matched_delay(&mut twice, &indices);
        let ip = rim_dsp::inner_product(&once, &twice).abs();
        let denom = rim_dsp::norm_sqr(&once);
        // The grid+parabolic β estimate re-converges to within a few
        // millirads/index between passes; what matters downstream is that
        // the TRRS of the two residuals stays ≈ 1.
        prop_assert!(ip > denom * 0.999, "idempotent: {} vs {}", ip, denom);
    }

    #[test]
    fn sanitation_removes_any_linear_ramp(
        slope in -0.5f64..0.5,
        intercept in -3.0f64..3.0,
    ) {
        // A multipath-like fixed channel with an arbitrary added ramp must
        // sanitise to the same fingerprint as the ramp-free version.
        let indices: Vec<i32> = (-28..=-1).chain(1..=28).collect();
        let base: Vec<Complex64> = indices
            .iter()
            .map(|&i| {
                Complex64::cis(0.04 * i as f64)
                    + Complex64::from_polar(0.5, -0.18 * i as f64 + 0.4)
            })
            .collect();
        let mut clean = base.clone();
        let mut ramped: Vec<Complex64> = base
            .iter()
            .zip(&indices)
            .map(|(h, &i)| *h * Complex64::cis(slope * i as f64 + intercept))
            .collect();
        sanitize_matched_delay(&mut clean, &indices);
        sanitize_matched_delay(&mut ramped, &indices);
        let ip = rim_dsp::inner_product(&clean, &ramped).abs();
        let trrs = ip * ip / (rim_dsp::norm_sqr(&clean) * rim_dsp::norm_sqr(&ramped));
        prop_assert!(trrs > 0.999, "ramp removed: {trrs}");
    }
}

/// A 28-byte frame claiming 4096 RX snapshots of 4096 TX chains each: a
/// truncation, decoded without presizing either list.
#[test]
fn maximal_counts_in_a_tiny_frame_are_a_truncation() {
    let mut bytes = behind_magic(&[0; 16]);
    bytes.extend_from_slice(&4096u32.to_be_bytes());
    bytes.extend_from_slice(&4096u32.to_be_bytes());
    assert_eq!(bytes.len(), 28);
    assert_eq!(decode_bounded(&bytes), Err(DecodeError::Truncated));
}

/// FNV-1a 64 over the bits of every sanitized value of a fixed seeded
/// CFR set: 24 multipath CFRs on each of HT20, HT40, VHT80 and the Intel
/// 5300 grid. The digest was computed with the exhaustive coarse scan
/// that the screened search replaced; any bit that moves changes it.
#[test]
fn matched_delay_golden_digest() {
    const GOLDEN: u64 = 0x22f5_2756_bc86_bf90;
    let mut state = 0x5eed_u64;
    let mut next = move || {
        // splitmix64, mapped to [−1, 1).
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let mut grids = wifi_layouts().to_vec();
    grids.push(SubcarrierLayout::intel5300_ht40().indices);
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for indices in &grids {
        for _ in 0..24 {
            let taps: Vec<(f64, f64, f64)> = (0..4)
                .map(|_| (1.0 + next(), 0.6 * next(), 3.1 * next()))
                .collect();
            let noise: Vec<(f64, f64)> = (0..16).map(|_| (0.2 * next(), 0.2 * next())).collect();
            let mut cfr = multipath_cfr(indices, &taps, &noise);
            sanitize_matched_delay(&mut cfr, indices);
            for h in &cfr {
                for bits in [h.re.to_bits(), h.im.to_bits()] {
                    for byte in bits.to_le_bytes() {
                        digest = (digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
                    }
                }
            }
        }
    }
    assert_eq!(
        digest, GOLDEN,
        "sanitized output drifted: digest {digest:#018x}"
    );
}
