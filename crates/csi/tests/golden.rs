//! Golden-fixture test for the `.rimc` capture format.
//!
//! `fixtures/golden_v1.rimc` is a committed capture written by format
//! VERSION 1. The test pins the format in both directions:
//!
//! * loading the committed bytes must yield exactly the recording below
//!   (decode stability — old captures keep loading);
//! * saving that recording must reproduce the committed bytes
//!   byte-for-byte (encode stability — new captures stay readable by
//!   old tools).
//!
//! If the format changes intentionally, bump `VERSION` in
//! `src/storage.rs`, add a new fixture, and keep this one loading.
//! Regenerate with:
//!
//! ```sh
//! RIM_REGEN_GOLDEN=1 cargo test -p rim-csi --test golden
//! ```

use rim_csi::frame::CsiSnapshot;
use rim_csi::loss::{LossModel, LossProcess};
use rim_csi::recorder::CsiRecording;
use rim_csi::storage::{load_recording, save_recording};
use rim_dsp::complex::Complex64;

const FIXTURE: &[u8] = include_bytes!("fixtures/golden_v1.rimc");

/// The recording the fixture encodes, reconstructed value by value. The
/// numbers exercise the format's corners: negative and fractional
/// components, loss holes, and an irrational-looking sample rate.
fn golden_recording() -> CsiRecording {
    let snap = |base: f64| CsiSnapshot {
        per_tx: vec![(0..3)
            .map(|s| Complex64::new(base + s as f64 * 0.25, -base * 0.5 + s as f64))
            .collect()],
    };
    CsiRecording {
        sample_rate_hz: 99.5,
        subcarrier_indices: vec![-28, 0, 28],
        antennas: vec![
            vec![
                Some(snap(1.0)),
                None,
                Some(snap(3.0)),
                Some(snap(-4.5)),
                Some(snap(0.125)),
            ],
            vec![
                Some(snap(10.0)),
                Some(snap(-20.25)),
                None,
                None,
                Some(snap(50.5)),
            ],
        ],
    }
}

fn fixture_path() -> std::path::PathBuf {
    std::path::Path::new(env!("CARGO_MANIFEST_DIR"))
        .join("tests")
        .join("fixtures")
        .join("golden_v1.rimc")
}

#[test]
fn golden_fixture_loads_to_known_recording() {
    if std::env::var("RIM_REGEN_GOLDEN").is_ok() {
        let mut buf = Vec::new();
        save_recording(&golden_recording(), &mut buf).unwrap();
        std::fs::write(fixture_path(), &buf).unwrap();
    }
    let loaded = load_recording(FIXTURE).expect("version-1 fixture must keep loading");
    let expected = golden_recording();
    assert_eq!(loaded.sample_rate_hz, expected.sample_rate_hz);
    assert_eq!(loaded.subcarrier_indices, expected.subcarrier_indices);
    assert_eq!(loaded.antennas.len(), expected.antennas.len());
    for (a, (got, want)) in loaded.antennas.iter().zip(&expected.antennas).enumerate() {
        assert_eq!(got.len(), want.len(), "antenna {a} sample count");
        for (i, (g, w)) in got.iter().zip(want).enumerate() {
            assert_eq!(g, w, "antenna {a} sample {i}");
        }
    }
}

#[test]
fn golden_recording_saves_to_fixture_bytes() {
    let mut buf = Vec::new();
    save_recording(&golden_recording(), &mut buf).unwrap();
    assert_eq!(
        buf, FIXTURE,
        "encoder output drifted from the committed version-1 capture"
    );
}

#[test]
fn golden_fixture_survives_a_full_round_trip() {
    let loaded = load_recording(FIXTURE).unwrap();
    let mut buf = Vec::new();
    save_recording(&loaded, &mut buf).unwrap();
    assert_eq!(buf, FIXTURE, "load→save must be the identity on v1 bytes");
}

/// FNV-1a 64 over `bits`, folded into `digest`.
fn fnv(digest: &mut u64, bits: u64) {
    for byte in bits.to_le_bytes() {
        *digest = (*digest ^ u64::from(byte)).wrapping_mul(0x100_0000_01b3);
    }
}

/// A seeded lossy capture: 3 antennas × 400 samples of 2 × 30 CFRs with
/// splitmix64 values, bursty whole-sample loss, per-antenna holes, a
/// leading run on antenna 1 and a trailing run on antenna 2.
fn seeded_lossy_recording() -> CsiRecording {
    let mut state = 0xc5_u64;
    let mut next = move || {
        // splitmix64, mapped to [−1, 1).
        state = state.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = state;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^= z >> 31;
        (z >> 11) as f64 / (1u64 << 52) as f64 - 1.0
    };
    let (n_samples, n_tx, n_sc) = (400, 2, 30);
    let clean = CsiRecording {
        sample_rate_hz: 200.0,
        subcarrier_indices: (-15..15).collect(),
        antennas: (0..3)
            .map(|_| {
                (0..n_samples)
                    .map(|_| {
                        Some(CsiSnapshot {
                            per_tx: (0..n_tx)
                                .map(|_| {
                                    (0..n_sc).map(|_| Complex64::new(next(), next())).collect()
                                })
                                .collect(),
                        })
                    })
                    .collect()
            })
            .collect(),
    };
    let burst = LossModel::GilbertElliott {
        p_enter_bad: 0.05,
        p_exit_bad: 0.3,
        loss_good: 0.01,
        loss_bad: 0.8,
    };
    let mut rec = clean.degrade(burst, 7);
    for (a, series) in rec.antennas.iter_mut().enumerate() {
        let mut holes = LossProcess::new(LossModel::Iid { p: 0.05 }, 100 + a as u64);
        for snap in series.iter_mut() {
            if holes.next_lost() {
                *snap = None;
            }
        }
    }
    rec.antennas[1][..3].fill(None);
    rec.antennas[2][n_samples - 5..].fill(None);
    rec
}

/// Pins the bits of a seeded lossy capture after a save/load round trip
/// (decode) and after loss repair (`interpolated`). The digests were
/// recorded with the per-value frame decoder and the per-lane
/// `fill_gaps_complex` repair; any change to the decoder, the capture
/// reader or the repair arithmetic that moves a single bit changes one.
#[test]
fn seeded_lossy_capture_decodes_and_repairs_to_pinned_bits() {
    const DECODED: u64 = 0x6871_4ba1_7d3b_af41;
    const REPAIRED: u64 = 0x517d_8fa2_5195_c576;
    let rec = seeded_lossy_recording();
    let mut buf = Vec::new();
    save_recording(&rec, &mut buf).unwrap();
    let loaded = load_recording(&buf[..]).unwrap();
    let dense = loaded.interpolated().expect("every antenna heard a packet");
    let entries = |s: &CsiSnapshot| -> Vec<u64> {
        s.per_tx
            .iter()
            .flatten()
            .flat_map(|h| [h.re.to_bits(), h.im.to_bits()])
            .collect()
    };
    let (mut decoded, mut repaired) = (0xcbf2_9ce4_8422_2325_u64, 0xcbf2_9ce4_8422_2325_u64);
    for snap in loaded.antennas.iter().flatten() {
        let bits = snap.as_ref().map_or(vec![u64::MAX], entries);
        bits.into_iter().for_each(|b| fnv(&mut decoded, b));
    }
    for snap in dense.antennas.iter().flatten() {
        entries(snap)
            .into_iter()
            .for_each(|b| fnv(&mut repaired, b));
    }
    assert_eq!(
        (decoded, repaired),
        (DECODED, REPAIRED),
        "decoded {decoded:#018x}, repaired {repaired:#018x}"
    );
}
