//! The manager/worker affinity schedule of Section 3.3.2, written once for
//! ASL and AHT.
//!
//! Both algorithms make every cuboid its own task and hand tasks out
//! dynamically. A worker keeps two structures: its *first* (the widest
//! it built, kept for the whole run) and its *previous*. The manager
//! prefers a pending cuboid it can derive from one of them, and only
//! without one does the worker go back to the raw data, taking the
//! largest remaining cuboid to maximize future affinity. Only the cell
//! store differs: ASL keeps each cuboid in a skip list ([`crate::asl`]),
//! AHT in a collapsible hash table ([`crate::aht`]). Each implements
//! [`CellStore`], and one [`AffinityWorkload`] drives either.

use crate::agg::Aggregate;
use crate::algorithms::RunOptions;
use crate::backend::{charge_replicated_load, task_sink};
use crate::cell::{emit_cuboid, CellBuf};
use crate::query::IcebergQuery;
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_exec::{TaskSpec, Workload};
use icecube_lattice::{CuboidMask, Lattice};
use std::cmp::Reverse;

/// Every cuboid of the `d`-lattice, most dimensions first (ties by mask
/// for determinism): the manager's pool order for ASL and AHT, and so the
/// id order of their plans.
pub(crate) fn cuboid_tasks(d: usize) -> Vec<CuboidMask> {
    let lattice = Lattice::new(d);
    let mut tasks: Vec<CuboidMask> = lattice.cuboids().collect();
    tasks.sort_unstable_by(|a, b| b.dim_count().cmp(&a.dim_count()).then(a.cmp(b)));
    tasks
}

/// The cuboid a lattice-plan task computes (its affinity hint is the
/// cuboid's mask).
pub(crate) fn cuboid_of(spec: &TaskSpec) -> CuboidMask {
    CuboidMask::from_bits(spec.affinity as u32)
}

/// Which of a worker's held structures an affinity decision resolved to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Held {
    /// The most recently installed one.
    Prev,
    /// The worker's first (widest), kept for the whole run.
    First,
}

/// An affinity hit: which pending task, sourced from which held
/// structure, and whether by prefix (one accumulate-runs scan, nothing
/// new installed) or by subset (a new structure seeded from the held one).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Affine {
    pub(crate) at: usize,
    pub(crate) held: Held,
    pub(crate) prefix: bool,
}

/// The manager's task-selection ladder (Section 3.3.2) for a worker
/// holding the cuboids `prev` and `first`: prefix of the previous, prefix
/// of the first, subset of the previous, subset of the first — ASL's
/// four passes, or AHT's two with `prefix_passes` off. Within a pass the
/// hit is the pending task earliest in pool order (most dimensions
/// first), or with `longest_prefix` (Section 4.9.2) the subset candidate
/// sharing the longest key prefix with the held cuboid — its cells then
/// stream out in near-sorted order. `None` means no pending task is
/// affine: the worker builds from raw data, and [`head`] names which.
pub(crate) fn affinity_ladder(
    pending: &[TaskSpec],
    prev: Option<CuboidMask>,
    first: Option<CuboidMask>,
    prefix_passes: bool,
    longest_prefix: bool,
) -> Option<Affine> {
    let passes = [
        (prev, Held::Prev, true),
        (first, Held::First, true),
        (prev, Held::Prev, false),
        (first, Held::First, false),
    ];
    for (donor, held, prefix) in passes {
        let Some(donor) = donor else { continue };
        if prefix && !prefix_passes {
            continue;
        }
        let affine = pending.iter().enumerate().filter(|(_, spec)| {
            if prefix {
                cuboid_of(spec).is_prefix_of(donor)
            } else {
                cuboid_of(spec).is_subset_of(donor)
            }
        });
        let hit = if longest_prefix && !prefix {
            affine.max_by_key(|(_, s)| (cuboid_of(s).shared_prefix_len(donor), Reverse(s.id)))
        } else {
            affine.min_by_key(|(_, spec)| spec.id)
        };
        if let Some((at, _)) = hit {
            return Some(Affine { at, held, prefix });
        }
    }
    None
}

/// With no affinity to exploit the manager hands out the pending task
/// earliest in pool order — the largest remaining cuboid, to maximize
/// future affinity. (Reclaimed tasks sit at the back of the queue, so
/// this is not always position 0.)
pub(crate) fn head(pending: &[TaskSpec]) -> usize {
    pending
        .iter()
        .enumerate()
        .min_by_key(|(_, spec)| spec.id)
        .map_or(0, |(at, _)| at)
}

/// The lattice as a plan. Ids follow [`cuboid_tasks`] (the manager's pool
/// order). Slice order is the sequence one worker would pull under the
/// manager's ladder, so that contiguous slice blocks keep unsteered
/// workers on prefix/subset chains without a demand scheduler: in pool
/// order most tasks would find no affine held structure (siblings at the
/// same dimension count are never subsets of each other), forcing
/// raw-data rebuilds the manager avoids.
pub(crate) fn lattice_plan(d: usize, prefix_passes: bool) -> Vec<TaskSpec> {
    let mut pending: Vec<TaskSpec> = cuboid_tasks(d)
        .iter()
        .enumerate()
        .map(|(id, cuboid)| TaskSpec {
            id,
            affinity: cuboid.bits() as u64,
            weight: 1u64 << cuboid.dim_count(),
        })
        .collect();
    let mut chain = Vec::with_capacity(pending.len());
    let mut first: Option<CuboidMask> = None;
    let mut prev: Option<CuboidMask> = None;
    while !pending.is_empty() {
        let hit = affinity_ladder(&pending, prev, first, prefix_passes, false);
        let spec = pending.remove(hit.map_or(0, |hit| hit.at));
        // A prefix hit emits from the held structure and installs nothing.
        if !hit.is_some_and(|hit| hit.prefix) {
            if first.is_none() {
                first = Some(cuboid_of(&spec));
            } else {
                prev = Some(cuboid_of(&spec));
            }
        }
        chain.push(spec);
    }
    chain
}

/// ASL's prefix scan: emits a task whose dimensions are a key prefix of
/// the held store's in one pass over it, building no new store.
pub(crate) type PrefixScan<S> =
    fn(&S, CuboidMask, u64, &mut SimNode, &mut CellBuf, &mut <S as CellStore>::Pool);

/// One cuboid's cells, *unfiltered* (sub-threshold cells still feed later
/// tasks): what ASL and AHT differ in. Every build charges its own cost
/// to `node`; the driver charges the emit and the memory around it.
pub(crate) trait CellStore: Sized + Send {
    /// A worker's recycled storage and scratch buffers.
    type Pool: Default + Send;
    /// What the plan fixes for every build of the run.
    type Params: Copy + Sync;
    /// The prefix scan, for a store whose ladder tries the prefix passes
    /// before the subset ones.
    const PREFIX_SCAN: Option<PrefixScan<Self>>;

    /// The cuboid held.
    fn cuboid(&self) -> CuboidMask;
    /// The footprint charged to the node's memory while the store is held.
    fn memory_bytes(&self) -> u64;
    /// Every cell, in the order the emit writes them.
    fn cells(&self) -> impl Iterator<Item = (&[u32], &Aggregate)>;
    /// Builds `task`'s store from the raw rows.
    fn from_rows(
        rel: &Relation,
        task: CuboidMask,
        params: Self::Params,
        node: &mut SimNode,
        pool: &mut Self::Pool,
    ) -> Self;
    /// Builds `task`'s store from this one, which holds a superset.
    fn derive(
        &self,
        task: CuboidMask,
        params: Self::Params,
        node: &mut SimNode,
        pool: &mut Self::Pool,
    ) -> Self;
    /// Returns the storage to `pool` for the worker's next build.
    fn release(self, pool: &mut Self::Pool);
}

/// A worker's held stores and its pool.
pub(crate) struct Holdings<S: CellStore> {
    first: Option<S>,
    prev: Option<S>,
    pool: S::Pool,
}

impl<S: CellStore> Holdings<S> {
    /// Installs a freshly built store as the worker's previous (and
    /// first, if none yet). The new store is charged before the
    /// superseded previous one is freed, so the memory watermark covers
    /// both, and the old storage returns to the pool.
    fn install(&mut self, built: S, node: &mut SimNode) {
        node.alloc(built.memory_bytes());
        if self.first.is_none() {
            self.first = Some(built);
        } else if let Some(old) = self.prev.replace(built) {
            node.free(old.memory_bytes());
            old.release(&mut self.pool);
        }
    }
}

/// ASL's and AHT's decomposition: one task per cuboid, built by whichever
/// rung of the manager's ladder the worker's held stores allow. Affinity
/// changes only *how* a cuboid is built, never its cells, so outputs stay
/// byte-identical however tasks land on workers.
pub(crate) struct AffinityWorkload<'a, S: CellStore> {
    rel: &'a Relation,
    minsup: u64,
    params: S::Params,
    affinity: bool,
    longest_prefix: bool,
    collect: bool,
}

/// Builds the lattice plan of the store `S`, whose builds all take
/// `params`.
pub(crate) fn plan<'a, S: CellStore>(
    rel: &'a Relation,
    query: &IcebergQuery,
    opts: &RunOptions,
    params: S::Params,
) -> (Vec<TaskSpec>, AffinityWorkload<'a, S>) {
    let workload = AffinityWorkload {
        rel,
        minsup: query.minsup,
        params,
        affinity: opts.affinity,
        // Section 4.9.2 refines the subset passes of ASL only.
        longest_prefix: opts.asl_longest_prefix && S::PREFIX_SCAN.is_some(),
        collect: opts.collect_cells,
    };
    (lattice_plan(query.dims, S::PREFIX_SCAN.is_some()), workload)
}

impl<S: CellStore> AffinityWorkload<'_, S> {
    /// The ladder resolved against this worker's held stores.
    fn ladder(&self, pending: &[TaskSpec], held: &Holdings<S>) -> Option<Affine> {
        if !self.affinity {
            return None;
        }
        let prev = held.prev.as_ref().map(S::cuboid);
        let first = held.first.as_ref().map(S::cuboid);
        let prefix_passes = S::PREFIX_SCAN.is_some();
        affinity_ladder(pending, prev, first, prefix_passes, self.longest_prefix)
    }
}

impl<S: CellStore> Workload for AffinityWorkload<'_, S> {
    type Scratch = Holdings<S>;
    type Out = CellBuf;

    fn scratch(&self, _worker: usize) -> Holdings<S> {
        Holdings {
            first: None,
            prev: None,
            pool: S::Pool::default(),
        }
    }

    fn prologue(&self, node: &mut SimNode) {
        charge_replicated_load(self.rel, node);
    }

    fn pick(&self, pending: &[TaskSpec], held: &Holdings<S>) -> usize {
        self.ladder(pending, held)
            .map_or_else(|| head(pending), |hit| hit.at)
    }

    fn run(
        &self,
        spec: &TaskSpec,
        held: &mut Holdings<S>,
        node: &mut SimNode,
        steered: bool,
    ) -> CellBuf {
        let task = cuboid_of(spec);
        let mut sink = task_sink(self.collect);
        // With no manager steering affine tasks its way, a cold worker
        // materializes the full-lattice cuboid before anything else, so
        // the ladder's subset passes always have a donor: every task is a
        // subset of the lattice root, which caps the worst case at one
        // derivation instead of a raw-data rebuild. (A task's cells are
        // the same bytes whichever path builds them.)
        let full = CuboidMask::full(self.rel.arity());
        if !steered && self.affinity && held.first.is_none() && task != full {
            let built = S::from_rows(self.rel, full, self.params, node, &mut held.pool);
            held.install(built, node);
        }
        let hit = self.ladder(std::slice::from_ref(spec), held);
        let Holdings { first, prev, pool } = &mut *held;
        let donor = hit.and_then(|hit| {
            let store = match hit.held {
                Held::Prev => prev.as_ref(),
                Held::First => first.as_ref(),
            };
            Some((store?, hit.prefix))
        });
        let built = match (donor, S::PREFIX_SCAN) {
            (Some((store, true)), Some(scan)) => {
                scan(store, task, self.minsup, node, &mut sink, pool);
                // No new store: the worker's holdings are unchanged.
                return sink;
            }
            (Some((store, _)), _) => store.derive(task, self.params, node, pool),
            (None, _) => S::from_rows(self.rel, task, self.params, node, pool),
        };
        emit_cuboid(task, built.cells(), self.minsup, node, &mut sink);
        held.install(built, node);
        sink
    }
}
