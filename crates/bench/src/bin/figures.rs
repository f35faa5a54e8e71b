//! Reproduces the paper's evaluation figures (§6) and the ablations,
//! printing each paper-vs-measured report.
//!
//! ```sh
//! cargo run --release -p rim-bench --bin figures -- [--markdown] [NAME…]
//! ```
//!
//! With no NAME every figure runs, in the order EXPERIMENTS.md lists
//! them; `--markdown` emits the Markdown blocks EXPERIMENTS.md embeds.
//! Naming `fig05` also renders one aligned group's averaged alignment
//! matrix, and naming `fig10` the ASCII floor map. Set `RIM_FAST=1` to
//! run reduced workloads.
use rim_bench::figs;
use rim_bench::report::Report;

type FigureRun = (&'static str, fn(bool) -> Report);

const FIGURES: &[FigureRun] = &[
    ("fig04", figs::fig04_trrs_resolution::run),
    ("fig10", figs::fig10_floorplan::run),
    ("fig05", figs::fig05_alignment_matrix::run),
    ("fig06", figs::fig06_deviated_retracing::run),
    ("fig07", figs::fig07_movement_detection::run),
    ("fig08", figs::fig08_peak_tracking::run),
    ("fig11", figs::fig11_distance_accuracy::run),
    ("fig12", figs::fig12_heading_accuracy::run),
    ("fig13", figs::fig13_rotation_accuracy::run),
    ("fig14", figs::fig14_ap_location::run),
    ("fig15", figs::fig15_accumulation::run),
    ("fig16", figs::fig16_sampling_rate::run),
    ("fig17", figs::fig17_virtual_antennas::run),
    ("fig18", figs::fig18_handwriting::run),
    ("fig19", figs::fig19_gestures::run),
    ("fig20", figs::fig20_indoor_tracking::run),
    ("fig21", figs::fig21_sensor_fusion::run),
    ("dyn", figs::robustness_dynamics::run),
    ("fault", figs::fault_tolerance::run),
    ("limitation", figs::limitation_swinging::run),
    ("ablations", figs::ablations::run),
];

fn main() {
    let mut markdown = false;
    let mut names = Vec::new();
    for arg in std::env::args().skip(1) {
        if arg == "--markdown" {
            markdown = true;
        } else if arg.starts_with('-') || !FIGURES.iter().any(|(name, _)| *name == arg) {
            let valid: Vec<&str> = FIGURES.iter().map(|(name, _)| *name).collect();
            eprintln!(
                "unknown argument {arg:?} (valid: --markdown, {})",
                valid.join(", ")
            );
            std::process::exit(1);
        } else {
            names.push(arg);
        }
    }
    let fast = rim_bench::fast_mode();
    for &(name, run) in FIGURES {
        let named = names.iter().any(|n| n == name);
        if !names.is_empty() && !named {
            continue;
        }
        let t0 = std::time::Instant::now();
        let report = run(fast);
        if markdown {
            print!("{}", report.render_markdown());
        } else {
            report.print();
        }
        if named && name == "fig05" {
            if let Some(art) = figs::fig05_alignment_matrix::heatmap(fast) {
                println!("\naveraged alignment matrix of group (1v3, 4v6):\n{art}");
            }
        }
        if named && name == "fig10" {
            println!("{}", figs::fig10_floorplan::render_map(95, 34));
        }
        eprintln!("[{name}] done in {:.1?}", t0.elapsed());
    }
}
