//! A relation wider than the cube lattice supports (`MAX_DIMS`, 26) is a
//! typed error at every cube entry point, never a panic: the batch
//! algorithms on either executor, the sequential engines, the live cube
//! and the progressive build all refuse it before touching a cuboid mask.

use icecube::cluster::ClusterConfig;
use icecube::core::{
    run_parallel, run_parallel_exec, run_sequential, AlgoError, Algorithm, IcebergQuery,
    MaintainedCube, RunOptions, SeqAlgorithm,
};
use icecube::data::{Relation, Schema};
use icecube::exec::SimExecutor;
use icecube::lattice::{CuboidMask, MAX_DIMS};
use icecube::online::{ChunkPlan, ProgressiveBuild};

/// A few rows over `dims` binary dimensions.
fn wide(dims: usize) -> Relation {
    let mut rel = Relation::new(Schema::from_cardinalities(&vec![2; dims]).expect("valid"));
    for t in 0..4u32 {
        let row: Vec<u32> = (0..dims as u32).map(|d| (t + d) % 2).collect();
        rel.push_row(&row, i64::from(t)).expect("in range");
    }
    rel
}

fn is_too_wide<T: std::fmt::Debug>(got: Result<T, AlgoError>, dims: usize, entry: &str) {
    assert!(
        matches!(
            got,
            Err(AlgoError::TooManyDimensions { dims: d, max: MAX_DIMS }) if d == dims
        ),
        "{entry} at {dims} dimensions: {got:?}"
    );
}

#[test]
fn every_entry_point_rejects_more_than_26_dimensions() {
    assert_eq!(MAX_DIMS, 26);
    let cfg = ClusterConfig::fast_ethernet(2);
    for dims in [MAX_DIMS + 1, 33] {
        let rel = wide(dims);
        let query = IcebergQuery::count_cube(dims, 1);
        for alg in Algorithm::all() {
            let got = run_parallel(alg, &rel, &query, &cfg).map(|out| out.total_cells);
            is_too_wide(got, dims, &format!("run_parallel({alg})"));
        }
        for alg in Algorithm::evaluated() {
            let mut sim = SimExecutor::new(cfg.clone());
            let got = run_parallel_exec(&mut sim, alg, &rel, &query, &RunOptions::default())
                .map(|out| out.total_cells);
            is_too_wide(got, dims, &format!("run_parallel_exec({alg})"));
        }
        for alg in SeqAlgorithm::all() {
            let got = run_sequential(alg, &rel, &query, &cfg).map(|out| out.cells.len());
            is_too_wide(got, dims, &format!("run_sequential({alg:?})"));
        }
        is_too_wide(MaintainedCube::new(dims, 2), dims, "MaintainedCube::new");
        is_too_wide(
            MaintainedCube::from_relation(&rel, 2),
            dims,
            "MaintainedCube::from_relation",
        );
        is_too_wide(
            ProgressiveBuild::new(&rel, 2, 2, 2, 4, &cfg),
            dims,
            "ProgressiveBuild::new",
        );
        let plan = ChunkPlan::new(&rel, CuboidMask::from_dims(&[0]), 2, 2, 4, 1);
        is_too_wide(plan, dims, "ChunkPlan::new");
    }
    // The limit itself is still a cube.
    assert!(MaintainedCube::new(MAX_DIMS, 2).is_ok());
}
