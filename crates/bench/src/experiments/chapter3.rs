//! Chapter 1/3 artifacts: the algorithm feature table and the writing-
//! strategy I/O comparison.

use super::measure;
use crate::report::{f2, mb, secs, Report, Table};
use crate::Ctx;
use icecube_core::Algorithm;
use icecube_data::presets;

/// Table 1.1 — key features of the algorithms.
pub fn table1_1() -> Report {
    let mut t = Table::new(["Algorithm", "Writing", "LoadBalance", "Cuboids", "Data"]);
    for alg in [Algorithm::Rp, Algorithm::Bpp, Algorithm::Asl, Algorithm::Pt] {
        let f = alg.features();
        t.row([
            f.name,
            f.writing,
            f.load_balance,
            f.traversal,
            f.decomposition,
        ]);
    }
    let mut r = Report::new("table1_1", "Key features of the algorithms (Table 1.1)", t);
    r.note("Static reproduction of the paper's Table 1.1.".to_string());
    r
}

/// Figure 3.6 — I/O comparison between BPP (breadth-first writing) and RP
/// (depth-first writing) on 9 dimensions, 176,631 tuples, minsup 2,
/// varying the number of processors.
pub fn fig3_6(ctx: &Ctx) -> Report {
    let mut spec = presets::baseline();
    spec.tuples = ctx.tuples(presets::BASELINE_TUPLES);
    let rel = spec.generate().expect("baseline preset is valid");
    let mut t = Table::new([
        "procs",
        "rp_io_s",
        "bpp_io_s",
        "ratio",
        "rp_switches",
        "bpp_switches",
        "output_mb",
    ]);
    let mut ratios = Vec::new();
    for procs in [2usize, 4, 8, 16] {
        let rp = measure(Algorithm::Rp, &rel, presets::BASELINE_MINSUP, procs);
        let bpp = measure(Algorithm::Bpp, &rel, presets::BASELINE_MINSUP, procs);
        let (rp, bpp) = (rp.report.stats, bpp.report.stats);
        let (rio, bio) = (rp.total_io_ns(), bpp.total_io_ns());
        let ratio = rio as f64 / bio.max(1) as f64;
        ratios.push(ratio);
        t.row([
            procs.to_string(),
            secs(rio),
            secs(bio),
            f2(ratio),
            rp.nodes()
                .iter()
                .map(|s| s.file_switches)
                .sum::<u64>()
                .to_string(),
            bpp.nodes()
                .iter()
                .map(|s| s.file_switches)
                .sum::<u64>()
                .to_string(),
            mb(rp.total_bytes_written()),
        ]);
    }
    let mut r = Report::new(
        "fig3_6",
        "I/O: depth-first (RP) vs breadth-first (BPP) writing (Figure 3.6)",
        t,
    );
    let min = ratios.iter().cloned().fold(f64::INFINITY, f64::min);
    r.note(format!(
        "Paper: RP's total I/O time was more than 5x BPP's on the baseline. \
         Measured I/O ratio ranges {:.1}x–{:.1}x — shape {}.",
        min,
        ratios.iter().cloned().fold(0.0, f64::max),
        if min > 2.0 {
            "reproduced"
        } else {
            "NOT reproduced"
        }
    ));
    r
}
