//! Algorithm AHT — Affinity Hash Table (Section 3.5.2, Figure 3.13).
//!
//! AHT is ASL's sibling with a hash table as the cell store. Each CUBE
//! attribute is assigned a number of index bits; a cell's bucket is the
//! concatenation of its values' low bits (the paper's "naive MOD hash").
//! The payoff is the **collapse** operation: when a new task's dimensions
//! are a subset of the previous task's, buckets differing only in the
//! dropped attributes' bits merge — no re-read of the data, no sorting
//! ever (a cuboid is "post-sorted" only if a user asks).
//!
//! The cost is the index: the total bits are capped by the table size
//! (the paper fixes the bucket count to the tuple count), so at high
//! dimensionality or sparseness each attribute gets too few bits,
//! collisions pile up in the chains, and performance degrades — the
//! behaviour Figures 4.4 and 4.6 show. The chains are real here, so the
//! degradation emerges rather than being modelled.
//!
//! The manager/worker schedule is ASL's, written once in the crate's
//! `affinity` driver; this module supplies the table as its cell store.

// check:allow-file(panic-in-lib): asserts and expects in this module
// guard internal algorithm invariants; a violation is a bug in the
// cubing algorithm itself, never caller input, and must abort the run
// loudly rather than launder a wrong cube into a typed error.

// check:allow-file(panic-path): slice indexing and asserts in this
// module guard simulation-internal invariants over indices the module
// itself constructs; a violation is a bug, not runtime input. Tracked
// by the panic-path triage note in DESIGN section 12.

use crate::affinity::{CellStore, PrefixScan};
use crate::agg::Aggregate;
use icecube_cluster::SimNode;
use icecube_data::Relation;
use icecube_lattice::CuboidMask;

/// The bucket-index function AHT uses (Section 4.9.2 suggests replacing
/// the naive MOD hash with "a more sophisticated hash function" to relieve
/// AHT on sparse, high-dimensional cubes).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum AhtHash {
    /// The thesis' implementation: concatenate each value's low bits.
    #[default]
    NaiveMod,
    /// Fibonacci (multiplicative) hashing of the whole key — the
    /// suggested improvement, which mixes high bits into the index.
    Fibonacci,
}

/// Recycled backing storage of one [`AffinityHashTable`]: bucket chains
/// (entry indices, sorted by key), the flat key arena, and the aggregate
/// column. Chains keep their capacity across tables, so a warm
/// [`AhtPool`] serves collapse after collapse without touching the
/// allocator — retiring the per-cell `Box` key and per-table bucket
/// headers the pre-arena implementation allocated.
#[derive(Debug, Default)]
struct TableStorage {
    /// Ascending dimensions of the owning table's cuboid.
    dims: Vec<usize>,
    /// Cardinalities of those dimensions (for bit re-assignment on
    /// collapse).
    cards: Vec<u32>,
    /// Index bits granted to each dimension (aligned with `dims`).
    bits: Vec<u8>,
    /// Per-bucket chains of entry indices, sorted by key. The physical
    /// vector never shrinks; a table uses the first `bucket_count`.
    chains: Vec<Vec<u32>>,
    /// Concatenated cell keys; entry `e` owns
    /// `entry_keys[e*dims.len()..(e+1)*dims.len()]`.
    entry_keys: Vec<u32>,
    /// Aggregate of entry `e`.
    entry_aggs: Vec<Aggregate>,
}

/// A free list of retired table storage plus the collapse/build scratch
/// buffers, threaded through every AHT table construction so the per-cell
/// loops run allocation-free on a warm pool.
#[derive(Debug, Default)]
pub struct AhtPool {
    spares: Vec<TableStorage>,
    /// Kept source-key positions during a collapse.
    keep: Vec<usize>,
    /// Projected keys of every source cell, in source emission order.
    proj: Vec<u32>,
    /// Source entry index of every cell, aligned with `proj`.
    src: Vec<u32>,
    /// Target bucket of every cell, aligned with `proj`.
    bucket_of: Vec<u32>,
    /// Cells per target bucket.
    counts: Vec<u32>,
    /// Scatter cursors (one past each bucket's region after the scatter).
    cursor: Vec<u32>,
    /// Cell ordinals grouped by target bucket, arrival order preserved.
    order: Vec<u32>,
    /// Projected-key buffer for raw-relation builds.
    key: Vec<u32>,
}

impl AhtPool {
    /// An empty pool; storage is grown on first use and recycled after.
    pub fn new() -> Self {
        AhtPool::default()
    }

    /// Returns a retired table's storage to the pool. Used chains are
    /// cleared here (capacity kept) so acquisition stays allocation-free.
    pub fn release(&mut self, table: AffinityHashTable) {
        let mut s = table.s;
        for chain in &mut s.chains[..table.bucket_count] {
            chain.clear();
        }
        self.spares.push(s);
    }
}

/// A collapsible, bit-indexed hash table holding one cuboid's cells.
#[derive(Debug)]
pub struct AffinityHashTable {
    cuboid: CuboidMask,
    /// The fixed bucket budget every table is sized to (the paper pins it
    /// to the tuple count of R).
    target_buckets: usize,
    /// Buckets in use: `2^(total index bits)`; the storage may hold more.
    bucket_count: usize,
    hash: AhtHash,
    len: usize,
    probes: u64,
    key_cmps: u64,
    s: TableStorage,
}

/// Inserts `key` into a bucket's sorted `chain` as entry `len` of the
/// arena (bumping `len`), or merges `agg` into the entry already holding
/// it. Returns the key comparisons a linearly probed chain (the paper's
/// implementation) would pay: about half the chain fails on its first
/// key element and the hit compares the whole key, while a miss scans
/// the whole chain.
#[inline]
fn chain_upsert(
    chain: &mut Vec<u32>,
    entry_keys: &mut Vec<u32>,
    entry_aggs: &mut Vec<Aggregate>,
    len: &mut usize,
    key: &[u32],
    agg: &Aggregate,
) -> u64 {
    let klen = key.len();
    match chain.binary_search_by(|&e| {
        let at = e as usize * klen;
        entry_keys[at..at + klen].cmp(key)
    }) {
        Ok(pos) => {
            entry_aggs[chain[pos] as usize].merge(agg);
            (chain.len() as u64).div_ceil(2) + klen as u64
        }
        Err(pos) => {
            let probed = chain.len() as u64;
            entry_keys.extend_from_slice(key);
            entry_aggs.push(*agg);
            chain.insert(pos, *len as u32);
            *len += 1;
            probed
        }
    }
}

impl AffinityHashTable {
    /// Distributes index bits over the attributes: each starts at
    /// `ceil(log2 cardinality)` and the widest attributes shed bits until
    /// the table fits `target_buckets` (the paper sizes tables to the
    /// tuple count). Every attribute keeps at least one bit.
    pub fn assign_bits(cards: &[u32], target_buckets: usize) -> Vec<u8> {
        let mut bits = Vec::with_capacity(cards.len());
        Self::assign_bits_into(cards, target_buckets, &mut bits);
        bits
    }

    /// [`AffinityHashTable::assign_bits`] into a caller-provided buffer —
    /// the allocation-free form the collapse path uses.
    pub fn assign_bits_into(cards: &[u32], target_buckets: usize, bits: &mut Vec<u8>) {
        assert!(!cards.is_empty(), "need at least one attribute");
        let target_bits = (target_buckets.max(2) as f64).log2().ceil() as u32;
        bits.clear();
        for &c in cards {
            bits.push((32 - c.max(2).leading_zeros()).max(1) as u8);
        }
        loop {
            let total: u32 = bits.iter().map(|&b| b as u32).sum();
            if total <= target_bits.max(cards.len() as u32) {
                return;
            }
            // Shrink the currently widest attribute.
            let widest = bits
                .iter()
                .enumerate()
                .max_by_key(|&(i, &b)| (b, usize::MAX - i))
                .map(|(i, _)| i)
                .expect("non-empty");
            if bits[widest] <= 1 {
                return;
            }
            bits[widest] -= 1;
        }
    }

    /// Creates an empty table for `cuboid` over dimensions with the given
    /// cardinalities, sized to the fixed bucket budget: every attribute
    /// gets its share of `log2(target_buckets)` index bits.
    pub fn new(cuboid: CuboidMask, cards: Vec<u32>, target_buckets: usize) -> Self {
        let s = TableStorage {
            cards,
            ..TableStorage::default()
        };
        Self::from_storage(s, cuboid, target_buckets, AhtHash::NaiveMod)
    }

    /// Assembles an empty table over (possibly recycled) storage whose
    /// `cards` are already filled; everything else is reset here. The
    /// only storage that may survive a recycle is *capacity*, so a
    /// pooled table is observationally identical to a fresh one.
    fn from_storage(
        mut s: TableStorage,
        cuboid: CuboidMask,
        target_buckets: usize,
        hash: AhtHash,
    ) -> Self {
        s.dims.clear();
        for d in cuboid.iter_dims() {
            s.dims.push(d);
        }
        assert_eq!(s.dims.len(), s.cards.len(), "one cardinality per dimension");
        Self::assign_bits_into(&s.cards, target_buckets, &mut s.bits);
        let total: u32 = s.bits.iter().map(|&b| b as u32).sum();
        assert!(total <= 26, "table of 2^{total} buckets is unreasonable");
        let bucket_count = 1usize << total;
        while s.chains.len() < bucket_count {
            s.chains.push(Vec::default());
        }
        debug_assert!(
            s.chains.iter().all(Vec::is_empty),
            "recycled chains must be clear"
        );
        s.entry_keys.clear();
        s.entry_aggs.clear();
        AffinityHashTable {
            cuboid,
            target_buckets,
            bucket_count,
            hash,
            len: 0,
            probes: 0,
            key_cmps: 0,
            s,
        }
    }

    /// The per-dimension index bit widths currently in force.
    pub fn bit_widths(&self) -> &[u8] {
        &self.s.bits
    }

    /// Number of cells.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when no cell has been inserted.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Number of buckets.
    pub fn bucket_count(&self) -> usize {
        self.bucket_count
    }

    /// The bucket index of a key: the concatenated low bits of each value
    /// (`v mod 2^b` — the paper's naive MOD hash).
    #[inline]
    pub fn index(&self, key: &[u32]) -> usize {
        match self.hash {
            AhtHash::NaiveMod => {
                let mut idx = 0usize;
                for (&v, &b) in key.iter().zip(&self.s.bits) {
                    idx = (idx << b) | (v as usize & ((1usize << b) - 1));
                }
                idx
            }
            AhtHash::Fibonacci => {
                let total: u32 = self.s.bits.iter().map(|&b| b as u32).sum();
                let mut h = 0xcbf2_9ce4_8422_2325u64;
                for &v in key {
                    h ^= v as u64;
                    h = h.wrapping_mul(0x9e37_79b9_7f4a_7c15);
                }
                (h >> (64 - total.max(1))) as usize
            }
        }
    }

    /// Inserts or merges a cell.
    ///
    /// Chains are kept sorted and binary-searched so that the *simulation*
    /// stays fast even when the paper's naive MOD index degenerates; the
    /// comparison counter is charged with the cost a linearly probed chain
    /// (the paper's implementation) would pay — about one key element per
    /// chain entry scanned (mismatches are detected on the first element)
    /// plus a full-key compare on a hit — so the virtual-time degradation
    /// at high collision rates is faithful without being quadratic in
    /// real time.
    pub fn upsert(&mut self, key: &[u32], agg: &Aggregate) {
        debug_assert_eq!(key.len(), self.s.dims.len());
        let idx = self.index(key);
        self.probes += 1;
        let TableStorage {
            chains,
            entry_keys,
            entry_aggs,
            ..
        } = &mut self.s;
        self.key_cmps += chain_upsert(
            &mut chains[idx],
            entry_keys,
            entry_aggs,
            &mut self.len,
            key,
            agg,
        );
    }

    /// Builds a table from the raw relation.
    pub fn build(cuboid: CuboidMask, rel: &Relation, target_buckets: usize) -> Self {
        Self::build_pooled(
            cuboid,
            rel,
            target_buckets,
            AhtHash::NaiveMod,
            &mut AhtPool::new(),
        )
    }

    /// Builds a table from the raw relation over recycled pool storage
    /// with the given hash: allocation-free once the pool is warm.
    pub fn build_pooled(
        cuboid: CuboidMask,
        rel: &Relation,
        target_buckets: usize,
        hash: AhtHash,
        pool: &mut AhtPool,
    ) -> Self {
        let mut s = pool.spares.pop().unwrap_or_default();
        s.cards.clear();
        for d in cuboid.iter_dims() {
            s.cards.push(rel.schema().cardinality(d));
        }
        let mut table = Self::from_storage(s, cuboid, target_buckets, hash);
        let key = &mut pool.key;
        key.clear();
        key.resize(table.s.dims.len(), 0);
        for (row, m) in rel.rows() {
            cuboid.project_row(row, key);
            table.upsert(key, &Aggregate::of(m));
        }
        table
    }

    /// Collapses onto a subset of the dimensions (Figure 3.13's
    /// `subset-collapse`): cells are re-bucketed with the dropped
    /// attributes' bits removed and merged by projected key. The bucket
    /// budget is fixed (the paper pins the table size), so the kept
    /// dimensions re-share the full budget's index bits.
    ///
    /// Runs over pool storage as a counting-sort scatter: pass A projects
    /// every source cell (in source emission order) and counts its target
    /// bucket, a stable scatter groups cell ordinals per bucket, and pass
    /// B replays each bucket's sorted-chain inserts. A chain's evolution
    /// depends only on the arrival order of its *own* cells — which the
    /// stable scatter preserves — so the resulting cells and the charged
    /// probe/comparison counters are identical to cell-at-a-time upserts,
    /// while every entry's key lands contiguously in the target arena.
    pub fn collapse(&self, new_cuboid: CuboidMask, pool: &mut AhtPool) -> AffinityHashTable {
        assert!(
            new_cuboid.is_subset_of(self.cuboid),
            "collapse requires subset affinity"
        );
        let AhtPool {
            spares,
            keep,
            proj,
            src,
            bucket_of,
            counts,
            cursor,
            order,
            ..
        } = pool;
        keep.clear();
        for (i, d) in self.cuboid.iter_dims().enumerate() {
            if new_cuboid.contains(d) {
                keep.push(i);
            }
        }
        let mut s = spares.pop().unwrap_or_default();
        s.cards.clear();
        for &i in keep.iter() {
            s.cards.push(self.s.cards[i]);
        }
        let mut out = Self::from_storage(s, new_cuboid, self.target_buckets, self.hash);
        let klen = keep.len();
        let src_klen = self.s.dims.len();

        // Pass A: project each source cell, record its source entry and
        // target bucket, count cells per bucket.
        proj.clear();
        src.clear();
        bucket_of.clear();
        counts.clear();
        counts.resize(out.bucket_count, 0);
        for chain in &self.s.chains[..self.bucket_count] {
            for &e in chain {
                let base = e as usize * src_klen;
                for &i in keep.iter() {
                    proj.push(self.s.entry_keys[base + i]);
                }
                let start = proj.len() - klen;
                let idx = out.index(&proj[start..]);
                src.push(e);
                bucket_of.push(idx as u32);
                counts[idx] += 1;
            }
        }
        let ncells = bucket_of.len();

        // Stable counting-sort scatter: cell ordinals grouped by target
        // bucket, source order preserved within each bucket.
        cursor.clear();
        let mut run = 0u32;
        for &c in counts.iter() {
            cursor.push(run);
            run += c;
        }
        order.clear();
        order.resize(ncells, 0);
        for (ord, &b) in bucket_of.iter().enumerate() {
            let slot = cursor[b as usize] as usize;
            order[slot] = ord as u32;
            cursor[b as usize] += 1;
        }

        // Pass B: per-bucket sorted-chain inserts, charged with the cost a
        // linearly probed chain (the paper's implementation) would pay.
        let mut len = out.len;
        let mut key_cmps = 0u64;
        {
            let TableStorage {
                chains,
                entry_keys,
                entry_aggs,
                ..
            } = &mut out.s;
            for (b, &cnt) in counts.iter().enumerate() {
                let cnt = cnt as usize;
                if cnt == 0 {
                    continue;
                }
                let end = cursor[b] as usize;
                let chain = &mut chains[b];
                for &ord in &order[end - cnt..end] {
                    let at = ord as usize * klen;
                    key_cmps += chain_upsert(
                        chain,
                        entry_keys,
                        entry_aggs,
                        &mut len,
                        &proj[at..at + klen],
                        &self.s.entry_aggs[src[ord as usize] as usize],
                    );
                }
            }
        }
        out.len = len;
        out.key_cmps += key_cmps;
        out.probes += ncells as u64;
        out
    }

    /// Iterates cells in bucket order (unsorted — AHT post-sorts only on
    /// demand).
    pub fn iter(&self) -> impl Iterator<Item = (&[u32], &Aggregate)> {
        let klen = self.s.dims.len();
        self.s.chains[..self.bucket_count]
            .iter()
            .flatten()
            .map(move |&e| {
                let at = e as usize * klen;
                (
                    &self.s.entry_keys[at..at + klen],
                    &self.s.entry_aggs[e as usize],
                )
            })
    }

    /// Drains the probe/comparison counters for cost charging.
    pub fn take_counters(&mut self) -> (u64, u64) {
        (
            std::mem::take(&mut self.probes),
            std::mem::take(&mut self.key_cmps),
        )
    }

    /// Longest collision chain (the degradation the paper describes).
    pub fn max_chain(&self) -> usize {
        self.s.chains[..self.bucket_count]
            .iter()
            .map(Vec::len)
            .max()
            .unwrap_or(0)
    }
}

/// Charges a table construction that scanned `scanned` source entries,
/// draining the table's probe and comparison counters.
fn charge_build(table: &mut AffinityHashTable, scanned: u64, node: &mut SimNode) {
    node.charge_scan(scanned);
    node.charge_agg_updates(scanned);
    let (probes, cmps) = table.take_counters();
    node.charge_hash_probes(probes);
    node.charge_comparisons(cmps);
}

/// AHT's cell store: the collapsible hash table with the paper's fixed
/// bucket budget of one bucket per tuple. AHT treats prefix affinity as
/// ordinary subset affinity (Section 3.5.2), so its ladder has only the
/// two subset passes, and a table's cells stream out in bucket order
/// (post-sorting is deferred to query time).
impl CellStore for AffinityHashTable {
    type Pool = AhtPool;
    type Params = AhtHash;
    const PREFIX_SCAN: Option<PrefixScan<Self>> = None;

    fn cuboid(&self) -> CuboidMask {
        self.cuboid
    }

    /// Approximate memory footprint: bucket headers plus cells. A chain
    /// header is three words whether it holds boxed pairs or arena
    /// indices, and a cell is charged at its key words plus a fixed
    /// 48-byte record, so the figure is unchanged by the arena layout.
    fn memory_bytes(&self) -> u64 {
        (self.bucket_count * std::mem::size_of::<Vec<u32>>()) as u64
            + self.len as u64 * (self.s.dims.len() as u64 * 4 + 48)
    }

    fn cells(&self) -> impl Iterator<Item = (&[u32], &Aggregate)> {
        self.iter()
    }

    fn from_rows(
        rel: &Relation,
        task: CuboidMask,
        hash: AhtHash,
        node: &mut SimNode,
        pool: &mut AhtPool,
    ) -> Self {
        let mut table = Self::build_pooled(task, rel, rel.len(), hash, pool);
        charge_build(&mut table, rel.len() as u64, node);
        table
    }

    fn derive(&self, task: CuboidMask, _: AhtHash, node: &mut SimNode, pool: &mut AhtPool) -> Self {
        let mut table = self.collapse(task, pool);
        charge_build(&mut table, self.len() as u64, node);
        table
    }

    fn release(self, pool: &mut AhtPool) {
        pool.release(self);
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::algorithms::{run_parallel_with, Algorithm, RunOptions};
    use crate::cell::Cell;
    use crate::fixtures::sales;
    use crate::naive::{naive_cuboid, naive_iceberg_cube};
    use crate::query::IcebergQuery;
    use crate::verify::assert_same_cells;
    use icecube_cluster::ClusterConfig;
    use icecube_data::presets;

    #[test]
    fn assign_bits_respects_target_and_minimums() {
        let bits = AffinityHashTable::assign_bits(&[2000, 500, 100, 2], 1 << 12);
        let total: u32 = bits.iter().map(|&b| b as u32).sum();
        assert!(total <= 12, "total {total} bits {bits:?}");
        assert!(bits.iter().all(|&b| b >= 1));
        // A tiny target still grants one bit each.
        let bits = AffinityHashTable::assign_bits(&[1000; 8], 4);
        assert!(bits.iter().all(|&b| b == 1));
    }

    #[test]
    fn upsert_merges_duplicates() {
        let cuboid = CuboidMask::from_dims(&[0, 1]);
        let mut t = AffinityHashTable::new(cuboid, vec![4, 4], 16);
        t.upsert(&[1, 2], &Aggregate::of(10));
        t.upsert(&[1, 2], &Aggregate::of(5));
        t.upsert(&[1, 3], &Aggregate::of(1));
        assert_eq!(t.len(), 2);
        let total: u64 = t.iter().map(|(_, a)| a.count).sum();
        assert_eq!(total, 3);
    }

    #[test]
    fn colliding_keys_chain_correctly() {
        // One bit per dim: keys 0 and 2 collide (same low bit).
        let cuboid = CuboidMask::from_dims(&[0]);
        let mut t = AffinityHashTable::new(cuboid, vec![8], 2);
        t.upsert(&[0], &Aggregate::of(1));
        t.upsert(&[2], &Aggregate::of(2));
        t.upsert(&[4], &Aggregate::of(3));
        assert_eq!(t.len(), 3);
        assert_eq!(t.max_chain(), 3);
        let (_, cmps) = t.take_counters();
        assert!(cmps > 0, "chained inserts must compare keys");
    }

    #[test]
    fn collapse_equals_naive_cuboid() {
        let rel = presets::tiny(5).generate().unwrap();
        let abcd = CuboidMask::from_dims(&[0, 1, 2, 3]);
        let full = AffinityHashTable::build(abcd, &rel, rel.len());
        let mut pool = AhtPool::new();
        for target in [&[0usize, 2][..], &[1], &[0, 1, 3]] {
            let sub = CuboidMask::from_dims(target);
            let collapsed = full.collapse(sub, &mut pool);
            let mut got: Vec<Cell> = collapsed
                .iter()
                .map(|(k, a)| Cell {
                    cuboid: sub,
                    key: k.to_vec(),
                    agg: *a,
                })
                .collect();
            let mut want = Vec::new();
            naive_cuboid(&rel, sub, 1, &mut want);
            crate::cell::sort_cells(&mut got);
            crate::cell::sort_cells(&mut want);
            assert_eq!(got, want, "cuboid {sub}");
        }
    }

    #[test]
    fn pooled_collapse_is_indistinguishable_from_fresh() {
        // Recycled arenas may only carry capacity: collapsing through a
        // warm pool must yield the same cells, counters, chain shape and
        // accounted footprint as a cold pool.
        let rel = presets::tiny(7).generate().unwrap();
        let abcd = CuboidMask::from_dims(&[0, 1, 2, 3]);
        let full = AffinityHashTable::build(abcd, &rel, rel.len());
        let mut warm = AhtPool::new();
        // Warm the pool with a detour collapse, then retire it.
        let detour = full.collapse(CuboidMask::from_dims(&[1, 2, 3]), &mut warm);
        warm.release(detour);
        for target in [&[0usize, 2][..], &[1], &[0, 1, 3]] {
            let sub = CuboidMask::from_dims(target);
            let mut cold_pool = AhtPool::new();
            let mut cold = full.collapse(sub, &mut cold_pool);
            let mut reused = full.collapse(sub, &mut warm);
            assert!(cold.iter().eq(reused.iter()), "cells differ for {sub}");
            assert_eq!(cold.take_counters(), reused.take_counters());
            assert_eq!(cold.max_chain(), reused.max_chain());
            assert_eq!(cold.memory_bytes(), reused.memory_bytes());
            assert_eq!(cold.bucket_count(), reused.bucket_count());
            warm.release(reused);
        }
    }

    fn check(rel: &Relation, minsup: u64, nodes: usize) {
        let q = IcebergQuery::count_cube(rel.arity(), minsup);
        let cfg = ClusterConfig::fast_ethernet(nodes);
        let out = run_parallel_with(Algorithm::Aht, rel, &q, &cfg, &RunOptions::default()).unwrap();
        let want = naive_iceberg_cube(rel, &q);
        assert_same_cells(want, out.cells, &format!("AHT n={nodes} minsup={minsup}"));
    }

    #[test]
    fn matches_naive_across_configurations() {
        let rel = sales();
        for nodes in [1, 2, 4] {
            check(&rel, 1, nodes);
            check(&rel, 2, nodes);
        }
        for seed in [2, 8] {
            let rel = presets::tiny(seed).generate().unwrap();
            for minsup in [1, 3] {
                check(&rel, minsup, 3);
            }
        }
    }

    #[test]
    fn matches_naive_without_affinity() {
        let rel = presets::tiny(1).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let out = run_parallel_with(
            Algorithm::Aht,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(2),
            &RunOptions {
                affinity: false,
                ..RunOptions::default()
            },
        )
        .unwrap();
        assert_same_cells(
            naive_iceberg_cube(&rel, &q),
            out.cells,
            "AHT without affinity",
        );
    }

    #[test]
    fn a_crash_requeues_cuboids_and_the_cube_stays_exact() {
        use icecube_cluster::FaultPlan;
        let rel = presets::tiny(8).generate().unwrap();
        let q = IcebergQuery::count_cube(4, 2);
        let quiet = run_parallel_with(
            Algorithm::Aht,
            &rel,
            &q,
            &ClusterConfig::fast_ethernet(3),
            &RunOptions::default(),
        )
        .unwrap();
        // Kill a worker mid-run: its hash tables (and any in-flight
        // cuboid) are lost; survivors rebuild and finish the lattice.
        let cfg = ClusterConfig::fast_ethernet(3)
            .with_faults(FaultPlan::none().crash(0, quiet.report.wall_ns / 4));
        let out =
            run_parallel_with(Algorithm::Aht, &rel, &q, &cfg, &RunOptions::default()).unwrap();
        assert_same_cells(
            naive_iceberg_cube(&rel, &q),
            out.cells,
            "AHT with a mid-run crash",
        );
        let stats = &out.report.stats;
        assert_eq!(stats.total_crashes(), 1);
        assert!(stats.total_tasks_lost() >= 1, "{stats:?}");
        assert!(stats.total_tasks_recovered() >= 1, "{stats:?}");
    }

    #[test]
    fn dense_data_keeps_chains_short_sparse_grows_them() {
        // The Figure 4.6 mechanism: with cells ≪ buckets chains stay ~1;
        // when distinct cells rival the bucket budget, chains grow.
        let dense = icecube_data::SyntheticSpec::uniform(4000, vec![4, 4], 1)
            .generate()
            .unwrap();
        let t = AffinityHashTable::build(CuboidMask::from_dims(&[0, 1]), &dense, dense.len());
        assert_eq!(t.max_chain(), 1);
        let sparse = icecube_data::SyntheticSpec::uniform(4000, vec![3000, 3000], 1)
            .generate()
            .unwrap();
        let t2 = AffinityHashTable::build(CuboidMask::from_dims(&[0, 1]), &sparse, 256);
        assert!(t2.max_chain() > 4, "max chain {}", t2.max_chain());
    }
}
