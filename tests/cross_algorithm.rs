//! Cross-crate integration: every algorithm — sequential engines, the five
//! parallel algorithms, the hash-tree attempt, the top-down baseline, POL
//! and selective materialization — produces the same iceberg cells.

use icecube::cluster::{ClusterConfig, SimCluster};
use icecube::core::cell::{sort_cells, Cell, CellBuf};
use icecube::core::naive::naive_iceberg_cube;
use icecube::core::sequential::{run_sequential, SeqAlgorithm};
use icecube::core::verify::assert_same_cells;
use icecube::core::{run_parallel, Algorithm, IcebergQuery};
use icecube::data::{presets, SyntheticSpec};
use icecube::lattice::CuboidMask;
use icecube::online::{run_pol, PolQuery, SelectiveMaterialization};

fn workloads() -> Vec<(&'static str, icecube::data::Relation)> {
    vec![
        ("sales", icecube::core::fixtures::sales()),
        (
            "iceberg-example",
            icecube::core::fixtures::iceberg_example(),
        ),
        ("tiny-skewed", presets::tiny(77).generate().unwrap()),
        (
            "wide-sparse",
            SyntheticSpec::uniform(400, vec![40, 30, 20, 10, 5], 9)
                .with_skews(vec![1.0, 0.2, 0.8, 0.0, 1.5])
                .generate()
                .unwrap(),
        ),
        (
            "dense-binary",
            SyntheticSpec::uniform(600, vec![2, 2, 2, 2, 2, 2], 4)
                .generate()
                .unwrap(),
        ),
    ]
}

#[test]
fn all_algorithms_agree_with_the_reference() {
    for (name, rel) in workloads() {
        for minsup in [1u64, 2, 4] {
            let q = IcebergQuery::count_cube(rel.arity(), minsup);
            let want = naive_iceberg_cube(&rel, &q);
            for alg in Algorithm::all() {
                for nodes in [1usize, 3, 8] {
                    let cfg = ClusterConfig::fast_ethernet(nodes);
                    let out = run_parallel(alg, &rel, &q, &cfg)
                        .unwrap_or_else(|e| panic!("{alg} on {name}: {e}"));
                    assert_same_cells(
                        want.clone(),
                        out.cells,
                        &format!("{alg} on {name}, minsup {minsup}, {nodes} nodes"),
                    );
                    assert_eq!(out.total_cells, want.len() as u64);
                }
            }
        }
    }
}

#[test]
fn heterogeneous_cluster_changes_nothing_but_time() {
    let rel = presets::tiny(55).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let want = naive_iceberg_cube(&rel, &q);
    for alg in Algorithm::evaluated() {
        let het = run_parallel(alg, &rel, &q, &ClusterConfig::heterogeneous_16()).unwrap();
        assert_same_cells(
            want.clone(),
            het.cells,
            &format!("{alg} on heterogeneous_16"),
        );
    }
}

#[test]
fn topdown_baseline_agrees_too() {
    for (name, rel) in workloads() {
        let q = IcebergQuery::count_cube(rel.arity(), 2);
        let cfg = ClusterConfig::fast_ethernet(1);
        let got = run_sequential(SeqAlgorithm::TopDownShared, &rel, &q, &cfg)
            .unwrap()
            .cells;
        assert_same_cells(
            naive_iceberg_cube(&rel, &q),
            got,
            &format!("topdown on {name}"),
        );
    }
}

#[test]
fn pol_matches_the_cube_slice() {
    // POL answers one group-by; that group-by's cells must equal the
    // corresponding cuboid of the offline cube.
    let rel = presets::tiny(88).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let cube = run_parallel(Algorithm::Pt, &rel, &q, &ClusterConfig::fast_ethernet(4)).unwrap();
    for dims in [&[0usize, 1][..], &[2, 3], &[0, 1, 2, 3]] {
        let mask = CuboidMask::from_dims(dims);
        let mut query = PolQuery::new(mask, 2);
        query.buffer_tuples = 37; // force multiple steps
        let pol = run_pol(&rel, &query, &ClusterConfig::fast_ethernet(4)).unwrap();
        let slice: Vec<Cell> = cube
            .cells
            .iter()
            .filter(|c| c.cuboid == mask)
            .cloned()
            .collect();
        assert_eq!(pol.cells, slice, "POL vs cube slice for {mask}");
    }
}

#[test]
fn materialization_answers_match_the_cube() {
    let rel = presets::tiny(99).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 3);
    let cube = run_parallel(Algorithm::Asl, &rel, &q, &ClusterConfig::fast_ethernet(2)).unwrap();
    let mut cluster = SimCluster::new(ClusterConfig::fast_ethernet(1));
    let m = SelectiveMaterialization::precompute(&rel, &mut cluster.nodes[0], 5).unwrap();
    for dims in [&[0usize][..], &[1, 2], &[0, 3], &[0, 1, 2, 3]] {
        let mask = CuboidMask::from_dims(dims);
        let mut sink = CellBuf::collecting();
        m.query(mask, 3, &mut cluster.nodes[0], &mut sink).unwrap();
        let mut got = sink.into_cells();
        sort_cells(&mut got);
        let slice: Vec<Cell> = cube
            .cells
            .iter()
            .filter(|c| c.cuboid == mask)
            .cloned()
            .collect();
        assert_eq!(got, slice, "materialized roll-up vs cube slice for {mask}");
    }
}
