//! The `progressive` experiment: time-to-ε of progressive serving versus
//! time-to-exact convergence (DESIGN §14).
//!
//! A [`ProgressiveBuild`] folds the relation chunk by chunk; after every
//! fold the floor and its [`Progress`] are published to a [`CubeServer`]
//! and the anchor group-by is asked for an `EstimateCuboid` at the
//! serving threshold. Each CSV row records how wrong the count estimates
//! still are against the batch answer (`max_err`, the worst absolute
//! count error over the exact answer's cells) and how much virtual time
//! the folds have cost. Time-to-ε is the virtual time of the earliest
//! fold after which the error never again exceeds ε = 5% of the
//! threshold; time-to-exact is the virtual time of full convergence. The
//! gap between the two is the whole point of progressive serving: the
//! answer is *usably close* long before it is *provably done*.
//!
//! All times are virtual and every seed is fixed, so the emitted CSV is
//! bit-for-bit reproducible — CI regenerates it twice and `cmp`s.
//!
//! [`Progress`]: icecube_online::Progress

use crate::report::{f2, Report, Table};
use crate::Ctx;
use icecube_cluster::ClusterConfig;
use icecube_core::{run_sequential, CubeStore, IcebergQuery, SeqAlgorithm};
use icecube_data::SyntheticSpec;
use icecube_lattice::CuboidMask;
use icecube_online::ProgressiveBuild;
use icecube_serve::{CubeServer, Request, Response, ShardedCube};
use std::collections::BTreeMap;

/// Dimension cardinalities of the streamed relation. Deliberately dense
/// (30 anchor keys): the per-cell counts are large enough that ε = 5% of
/// the threshold is a meaningful tolerance even at test scale.
const CARDS: [u32; 3] = [5, 3, 2];

/// Simulated cluster size (chunks per step = NODES × NODES).
const NODES: usize = 4;

/// Schedule steps each node's partition is cut into; the finer the
/// chunking, the smoother the error trajectory's approach to zero.
const STEPS: usize = 12;

/// Sample size the chunk plan draws its boundaries from.
const SAMPLE: usize = 512;

/// Progressive refinement sweep: estimate error and bound width per fold.
pub fn progressive(ctx: &Ctx) -> Report {
    let rows = ctx.tuples(60_000);
    let rel = SyntheticSpec::uniform(rows, CARDS.to_vec(), 13)
        .generate()
        .expect("uniform spec is valid");
    let key_space: u32 = CARDS.iter().product();
    // Around the mean occupancy of the full group-by, so a healthy share
    // of anchor cells straddles the threshold while chunks stream in.
    let minsup = (rows as u64 / key_space as u64).max(2);
    let eps = (minsup as f64 * 0.05).max(1.0);
    let anchor = CuboidMask::full(rel.arity());
    let cfg = ClusterConfig::fast_ethernet(NODES);

    // The batch oracle: the full minsup-1 floor, thresholded on query.
    let scratch = run_sequential(
        SeqAlgorithm::BppBuc,
        &rel,
        &IcebergQuery::count_cube(rel.arity(), 1),
        &cfg,
    )
    .expect("batch build runs");
    let exact_floor = CubeStore::from_cells(rel.arity(), 1, scratch.cells);
    let exact: BTreeMap<Vec<u32>, u64> = exact_floor
        .query(anchor, minsup)
        .expect("floor answers any threshold")
        .into_iter()
        .map(|(k, a)| (k, a.count))
        .collect();

    let buffer = (rows / (NODES * STEPS)).max(20);
    let mut build =
        ProgressiveBuild::new(&rel, minsup, NODES, buffer, SAMPLE, &cfg).expect("rows > 0");
    let srv =
        CubeServer::start_progressive(ShardedCube::new(build.floor(), 2), 2, build.progress())
            .expect("floor is minsup 1");
    let h = srv.handle().expect("running");

    let mut t = Table::new([
        "chunk",
        "step",
        "owner",
        "rows_folded",
        "pct_folded",
        "virtual_ns",
        "cells_possible",
        "cells_definite",
        "max_err",
        "within_eps",
    ]);
    let mut trajectory = Vec::new();
    while let Some(fold) = build.step().expect("chunks fold cleanly") {
        srv.publish_progressive(build.floor(), build.progress())
            .expect("floor stays minsup 1");
        let resp = h
            .call(Request::EstimateCuboid {
                cuboid: anchor,
                minsup,
            })
            .expect("server running");
        let Response::Estimate {
            cells,
            rows_folded,
            rows_total,
            ..
        } = resp
        else {
            unreachable!("progressive epochs answer estimates");
        };
        let definite = cells.iter().filter(|c| c.definite).count();
        let est: BTreeMap<&[u32], u64> = cells
            .iter()
            .map(|c| (c.key.as_slice(), c.est_count))
            .collect();
        // Worst absolute count error over the batch answer's cells; a
        // key the estimate has not seen yet counts as estimated 0.
        let max_err = exact
            .iter()
            .map(|(k, &count)| est.get(k.as_slice()).copied().unwrap_or(0).abs_diff(count))
            .max()
            .unwrap_or(0);
        trajectory.push((fold.virtual_ns, max_err));
        t.row([
            fold.chunk.to_string(),
            fold.step.to_string(),
            fold.owner.to_string(),
            rows_folded.to_string(),
            f2(100.0 * rows_folded as f64 / rows_total.max(1) as f64),
            fold.virtual_ns.to_string(),
            cells.len().to_string(),
            definite.to_string(),
            max_err.to_string(),
            if (max_err as f64) <= eps { "yes" } else { "no" }.to_string(),
        ]);
    }

    let time_to_exact = build.virtual_ns();
    let time_to_eps = time_to_eps(&trajectory, eps);
    let mut floor_bytes = Vec::new();
    let mut exact_bytes = Vec::new();
    build
        .floor()
        .write_to(&mut floor_bytes)
        .expect("in-memory write");
    exact_floor
        .write_to(&mut exact_bytes)
        .expect("in-memory write");

    let mut r = Report::new(
        "progressive",
        "Progressive serving: estimate error vs virtual time, per folded chunk",
        t,
    );
    r.note(format!(
        "{rows} rows over cardinalities {CARDS:?} on {NODES} nodes, anchor \
         group-by at minsup {minsup}, ε = {eps} (5% of the threshold, floor 1). \
         Time-to-ε {time_to_eps} ns vs time-to-exact {time_to_exact} ns: the \
         estimate is within ε after {pct}% of the exact build's virtual time \
         ({speedup}x earlier). Converged floor byte-identical to the batch \
         build: {}.",
        if floor_bytes == exact_bytes {
            "yes"
        } else {
            "BROKEN"
        },
        pct = f2(100.0 * time_to_eps as f64 / time_to_exact.max(1) as f64),
        speedup = f2(time_to_exact as f64 / time_to_eps.max(1) as f64),
    ));
    r
}

/// The virtual time of the earliest fold after which the error never
/// again exceeds `eps` (convergence guarantees the suffix exists).
fn time_to_eps(trajectory: &[(u64, u64)], eps: f64) -> u64 {
    let mut at = trajectory.last().map(|&(ns, _)| ns).unwrap_or(0);
    for &(ns, err) in trajectory.iter().rev() {
        if err as f64 > eps {
            break;
        }
        at = ns;
    }
    at
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn estimates_land_within_eps_before_exactness_and_stay_deterministic() {
        let ctx = Ctx::quick();
        let r = progressive(&ctx);
        assert!(!r.table.is_empty());
        let last = r.table.len() - 1;
        assert_eq!(r.table.cell(last, 8), "0", "convergence must be exact");
        assert_eq!(r.table.cell(last, 9), "yes");
        assert!(
            r.notes
                .iter()
                .any(|n| n.contains("byte-identical to the batch build: yes")),
            "floor must converge to the batch bytes: {:?}",
            r.notes
        );
        // Time-to-ε strictly below time-to-exact: the ε-stable suffix
        // must start before the final fold.
        let eps_row = (0..r.table.len())
            .find(|&i| (i..r.table.len()).all(|j| r.table.cell(j, 9) == "yes"))
            .expect("the last row is within eps");
        assert!(eps_row < last, "estimates must be usable before exactness");
        let t_eps: u64 = r.table.cell(eps_row, 5).parse().unwrap();
        let t_exact: u64 = r.table.cell(last, 5).parse().unwrap();
        assert!(t_eps < t_exact);
        // Same seeds, same scale: the CSV bytes must be identical.
        let again = progressive(&ctx);
        assert_eq!(r.table.to_csv(), again.table.to_csv());
    }
}
