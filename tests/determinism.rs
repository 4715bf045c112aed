//! Reproducibility: the whole stack — generator, algorithms, cluster
//! simulation, online aggregation — is a pure function of its seeds.
//! Every figure in `EXPERIMENTS.md` depends on this.

use icecube::cluster::ClusterConfig;
use icecube::core::{run_parallel, Algorithm, IcebergQuery};
use icecube::data::presets;
use icecube::lattice::CuboidMask;
use icecube::online::{run_pol, PolQuery};

#[test]
fn generator_is_bitwise_reproducible() {
    let a = presets::tiny(5).generate().unwrap();
    let b = presets::tiny(5).generate().unwrap();
    assert_eq!(a, b);
    let c = presets::tiny(6).generate().unwrap();
    assert_ne!(a, c, "different seeds should differ");
}

#[test]
fn parallel_runs_are_bitwise_reproducible() {
    let rel = presets::tiny(42).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let cfg = ClusterConfig::heterogeneous_16();
    for alg in Algorithm::all() {
        let a = run_parallel(alg, &rel, &q, &cfg).unwrap();
        let b = run_parallel(alg, &rel, &q, &cfg).unwrap();
        assert_eq!(a.cells, b.cells, "{alg} cells");
        assert_eq!(
            a.report.stats, b.report.stats,
            "{alg} stats (schedules must be deterministic)"
        );
        assert_eq!(a.report.wall_ns, b.report.wall_ns);
    }
}

#[test]
fn pol_runs_are_bitwise_reproducible() {
    let rel = presets::tiny(43).generate().unwrap();
    let mut q = PolQuery::new(CuboidMask::from_dims(&[0, 1, 2]), 2);
    q.buffer_tuples = 29;
    let cfg = ClusterConfig::slow_myrinet(4);
    let a = run_pol(&rel, &q, &cfg).unwrap();
    let b = run_pol(&rel, &q, &cfg).unwrap();
    assert_eq!(a.cells, b.cells);
    assert_eq!(a.snapshots, b.snapshots);
    assert_eq!(a.stats, b.stats);
    assert_eq!(a.stolen_tasks, b.stolen_tasks);
}

#[test]
fn cluster_seed_changes_schedules_not_answers() {
    let rel = presets::tiny(44).generate().unwrap();
    let q = IcebergQuery::count_cube(rel.arity(), 2);
    let mut cfg = ClusterConfig::fast_ethernet(4);
    let a = run_parallel(Algorithm::Asl, &rel, &q, &cfg).unwrap();
    cfg.seed ^= 0xdead_beef;
    let b = run_parallel(Algorithm::Asl, &rel, &q, &cfg).unwrap();
    assert_eq!(a.cells, b.cells, "answers are seed-independent");
}
