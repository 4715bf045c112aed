//! Property test: a sharded, served cube is observationally identical to
//! the plain `CubeStore` it was built from — bit-for-bit, for every
//! request type, at shard counts 1, 2, 3 and 8.

use icecube::cluster::ClusterConfig;
use icecube::core::{run_parallel, Algorithm, CubeStore, IcebergQuery, MaintainedCube};
use icecube::data::{Relation, Schema};
use icecube::lattice::CuboidMask;
use icecube::serve::{CubeServer, NavigationWorkload, Request, Response, RollUpPlan, ShardedCube};
use proptest::prelude::*;

const SHARD_COUNTS: [usize; 4] = [1, 2, 3, 8];

/// Strategy: a random relation with 2–4 dimensions of small cardinality
/// (small domains force shared keys and non-trivial shard boundaries).
fn relation_strategy() -> impl Strategy<Value = Relation> {
    (2usize..=4)
        .prop_flat_map(|d| {
            let cards = proptest::collection::vec(2u32..6, d);
            (Just(d), cards)
        })
        .prop_flat_map(|(d, cards)| {
            let rows = proptest::collection::vec(
                (proptest::collection::vec(0u32..6, d), -50i64..50),
                1..100,
            );
            (Just(cards), rows)
        })
        .prop_map(|(cards, rows)| {
            let schema = Schema::from_cardinalities(&cards).expect("valid cards");
            let mut rel = Relation::new(schema);
            for (mut dims, m) in rows {
                for (v, &c) in dims.iter_mut().zip(&cards) {
                    *v %= c;
                }
                rel.push_row(&dims, m).expect("in range");
            }
            rel
        })
}

fn build_store(rel: &Relation, minsup: u64) -> CubeStore {
    let q = IcebergQuery::count_cube(rel.arity(), minsup);
    let out = run_parallel(Algorithm::Pt, rel, &q, &ClusterConfig::fast_ethernet(2))
        .expect("small inputs never exhaust memory");
    CubeStore::from_outcome(rel.arity(), minsup, out)
}

/// The ground-truth answer a plain, unsharded `CubeStore` gives.
fn oracle(store: &CubeStore, req: &Request) -> Response {
    match req {
        Request::Point { cuboid, key } => Response::Point(store.get(*cuboid, key).copied()),
        Request::Slice { cuboid, dim, value } => {
            Response::Cells(store.slice(*cuboid, *dim, *value).expect("valid"))
        }
        Request::DrillDown { cuboid, key, dim } => {
            Response::Cells(store.drill_down(*cuboid, key, *dim).expect("valid"))
        }
        Request::Cuboid { cuboid, minsup } => {
            Response::Cells(store.query(*cuboid, *minsup).expect("valid"))
        }
        Request::RollUp { cuboid, key, dim } => {
            let parent = cuboid.without_dim(*dim);
            if parent.is_all() {
                Response::RolledUp {
                    cell: None,
                    plan: RollUpPlan::Stored,
                    exact: true,
                }
            } else {
                Response::RolledUp {
                    cell: store.roll_up(*cuboid, key, *dim).expect("valid"),
                    plan: RollUpPlan::Stored,
                    exact: true,
                }
            }
        }
        Request::Batch(reqs) => Response::Batch(reqs.iter().map(|r| oracle(store, r)).collect()),
        Request::EstimatePoint { .. } | Request::EstimateCuboid { .. } => {
            unreachable!("navigation workloads never generate estimates")
        }
    }
}

#[test]
fn queries_racing_a_streaming_refresh_answer_from_exactly_one_epoch() {
    // End-to-end streaming path: a MaintainedCube ingests batches while a
    // CubeServer serves; each ingest is published with an epoch-swap
    // refresh. Clients hammer the server throughout, and every answer
    // must match the oracle of the epoch it is tagged with — never a
    // blend of two generations, batches included.
    let schema = Schema::from_cardinalities(&[3, 3, 2]).expect("valid cards");
    let mut base = Relation::new(schema.clone());
    for i in 0..30u32 {
        base.push_row(&[i % 3, (i / 3) % 3, i % 2], i64::from(i) - 15)
            .expect("in range");
    }
    let mut maintained = MaintainedCube::from_relation(&base, 1).expect("dims > 0");

    // Precompute every generation and its oracle before serving starts.
    let mut generations = vec![maintained.visible()];
    let mut staged = maintained.clone();
    let batches: Vec<Relation> = (0..4)
        .map(|b| {
            let mut batch = Relation::new(schema.clone());
            for i in 0..10u32 {
                let v = i + 7 * b;
                batch
                    .push_row(&[v % 3, v % 2, (v / 2) % 2], i64::from(v))
                    .expect("in range");
            }
            staged.ingest(&batch).expect("batch ingests");
            generations.push(staged.visible());
            batch
        })
        .collect();
    let g = CuboidMask::from_dims(&[0, 1]);
    let oracles: Vec<_> = generations
        .iter()
        .map(|s| s.query(g, 1).expect("valid cuboid"))
        .collect();

    let server = CubeServer::start(ShardedCube::new(&generations[0], 2), 4).expect("workers > 0");
    let req = Request::Batch(vec![
        Request::Cuboid {
            cuboid: g,
            minsup: 1,
        },
        Request::Cuboid {
            cuboid: g,
            minsup: 1,
        },
    ]);
    std::thread::scope(|scope| {
        for _ in 0..4 {
            let h = server.handle().expect("running");
            let (req, oracles) = (&req, &oracles);
            scope.spawn(move || {
                let mut last_epoch = 0;
                for _ in 0..25 {
                    let got = h.call_tagged(req.clone()).expect("running");
                    assert!(
                        got.epoch >= last_epoch,
                        "epochs moved backwards: {last} then {now}",
                        last = last_epoch,
                        now = got.epoch
                    );
                    last_epoch = got.epoch;
                    let want = &oracles[(got.epoch - 1) as usize];
                    match got.response {
                        Response::Batch(parts) => {
                            // Both halves of the batch come from the same
                            // snapshot — a refresh can never tear them.
                            for part in parts {
                                match part {
                                    Response::Cells(cells) => assert_eq!(
                                        &cells,
                                        want,
                                        "epoch {epoch} answered another epoch's cube",
                                        epoch = got.epoch
                                    ),
                                    other => panic!("unexpected {other:?}"),
                                }
                            }
                        }
                        other => panic!("unexpected {other:?}"),
                    }
                }
            });
        }
        // The ingest loop races the clients: ingest, publish, repeat.
        for batch in &batches {
            maintained.ingest(batch).expect("batch ingests");
            let epoch = server.refresh(&maintained.visible()).expect("same dims");
            assert_eq!(epoch, maintained.epoch(), "server and cube epochs align");
        }
    });
    assert_eq!(server.epoch(), 5, "four refreshes after the initial epoch");
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(12))]

    #[test]
    fn sharded_queries_match_unsharded_bit_for_bit(
        rel in relation_strategy(),
        minsup in 1u64..4,
    ) {
        let store = build_store(&rel, minsup);
        for n in SHARD_COUNTS {
            let sharded = ShardedCube::new(&store, n);
            prop_assert_eq!(sharded.len(), store.len());
            let mut owned = vec![0usize; n];
            for cell in store.iter() {
                owned[sharded.shard_of(cell.cuboid, &cell.key)] += 1;
            }
            prop_assert_eq!(sharded.shard_cell_counts(), owned, "balance at {} shards", n);
            for g in store.cuboid_masks() {
                prop_assert_eq!(
                    sharded.query(g, minsup).expect("valid"),
                    store.query(g, minsup).expect("valid"),
                    "cuboid {} at {} shards", g, n
                );
            }
            for cell in store.iter() {
                prop_assert_eq!(
                    sharded.get(cell.cuboid, &cell.key).expect("valid"),
                    Some(cell.agg),
                    "cell {:?} of {} at {} shards", cell.key, cell.cuboid, n
                );
            }
        }
    }

    #[test]
    fn served_responses_match_the_oracle_for_every_request_type(
        rel in relation_strategy(),
        minsup in 1u64..3,
        seed in 0u64..1_000_000,
    ) {
        let store = build_store(&rel, minsup);
        if !store.is_empty() {
            // Seeded walk over real cells: covers Point, Slice, DrillDown,
            // RollUp, Cuboid and Batch (workload::walk_mixes_request_kinds
            // proves all six kinds appear in streams this long).
            let workload = NavigationWorkload::generate(&store, 48, seed);
            for n in SHARD_COUNTS {
                let server =
                    CubeServer::start(ShardedCube::new(&store, n), 3).expect("workers > 0");
                let handle = server.handle().expect("running");
                for req in &workload.requests {
                    let got = handle.call(req.clone()).expect("running");
                    let want = oracle(&store, req);
                    prop_assert_eq!(&got, &want, "{:?} at {} shards", req, n);
                }
                let stats = server.stats();
                prop_assert_eq!(stats.errors, 0);
                prop_assert_eq!(stats.requests, workload.leaf_count() as u64);
            }
        }
    }
}
