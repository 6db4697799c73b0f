//! Hierarchical Navigable Small World graphs (Malkov & Yashunin 2016).
//!
//! The third FAISS-style index family: logarithmic-ish probe cost with
//! high recall, at the price of a heavier build. DIAL's related work
//! (§5.4) contrasts FAISS's quantization approach with LSH (DeepER,
//! AutoBlock); HNSW rounds out the design space the benchmarks compare.

use crate::kernels;
use crate::metric::Metric;
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topk::{Hit, TopK};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use rayon::prelude::*;
use std::collections::{BinaryHeap, HashSet};

/// HNSW tuning parameters.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct HnswParams {
    /// Max neighbours per node on layers > 0 (`M`); layer 0 keeps `2M`.
    pub m: usize,
    /// Beam width during construction.
    pub ef_construction: usize,
    /// Beam width during search (can be raised after build).
    pub ef_search: usize,
    /// Level-assignment seed.
    pub seed: u64,
}

impl Default for HnswParams {
    fn default() -> Self {
        HnswParams { m: 16, ef_construction: 100, ef_search: 48, seed: 0 }
    }
}

/// Graph-based approximate nearest-neighbour index.
///
/// Candidate scoring — neighbour expansion in the beam search, the greedy
/// descent, and degree pruning — runs on the gathered batch kernel: a
/// node's whole adjacency list is scored as one distance block against
/// precomputed per-node norms, instead of one scalar `Metric::distance`
/// call per edge.
#[derive(Debug, Clone)]
pub struct HnswIndex {
    dim: usize,
    metric: Metric,
    params: HnswParams,
    data: Vec<f32>,
    /// Per-node kernel norms ([`kernels::metric_norms`] convention),
    /// maintained on every insert.
    norms: Vec<f32>,
    /// `layers[l][node]` = neighbour ids of `node` at layer `l` (nodes not
    /// present on a layer have an empty list).
    layers: Vec<Vec<Vec<u32>>>,
    /// Top layer of each node.
    node_level: Vec<usize>,
    entry: u32,
    rng: StdRng,
}

/// Max-heap entry ordered by distance (for the result set).
#[derive(PartialEq)]
struct Far(f32, u32);
impl Eq for Far {}
impl PartialOrd for Far {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Far {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        self.0.partial_cmp(&other.0).unwrap().then(self.1.cmp(&other.1))
    }
}

/// Min-heap entry (via reversed ordering) for the candidate frontier.
#[derive(PartialEq)]
struct Near(f32, u32);
impl Eq for Near {}
impl PartialOrd for Near {
    fn partial_cmp(&self, other: &Self) -> Option<std::cmp::Ordering> {
        Some(self.cmp(other))
    }
}
impl Ord for Near {
    fn cmp(&self, other: &Self) -> std::cmp::Ordering {
        other.0.partial_cmp(&self.0).unwrap().then(other.1.cmp(&self.1))
    }
}

impl HnswIndex {
    pub fn new(dim: usize, metric: Metric, params: HnswParams) -> Self {
        assert!(dim > 0 && params.m >= 2);
        HnswIndex {
            dim,
            metric,
            params,
            data: Vec::new(),
            norms: Vec::new(),
            layers: vec![Vec::new()],
            node_level: Vec::new(),
            entry: 0,
            rng: StdRng::seed_from_u64(params.seed),
        }
    }

    /// Build from a packed vector set.
    pub fn build(data: &[f32], dim: usize, metric: Metric, params: HnswParams) -> Self {
        let mut ix = HnswIndex::new(dim, metric, params);
        for v in data.chunks(dim) {
            ix.add(v);
        }
        ix
    }

    pub fn len(&self) -> usize {
        self.node_level.len()
    }

    pub fn is_empty(&self) -> bool {
        self.node_level.is_empty()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Append many packed vectors (incremental graph insertion).
    pub fn add_batch(&mut self, flat: &[f32]) {
        crate::metric::assert_packed(flat.len(), self.dim);
        for v in flat.chunks(self.dim) {
            self.add(v);
        }
    }

    /// Raise/lower the search beam width.
    pub fn set_ef_search(&mut self, ef: usize) {
        self.params.ef_search = ef.max(1);
    }

    /// The tuner's beam knob: `(ceiling, current ef_search)`. The beam
    /// cannot usefully exceed the node count, so that is the sweep
    /// ceiling (mirroring `nprobe`'s `nlist` ceiling on IVF).
    pub fn ef_search_knob(&self) -> (usize, usize) {
        (self.len().max(1), self.params.ef_search)
    }

    fn vector(&self, id: u32) -> &[f32] {
        let i = id as usize * self.dim;
        &self.data[i..i + self.dim]
    }

    /// Kernel distance from a query (with its precomputed metric norm)
    /// to one stored node — bitwise identical to what the gathered batch
    /// scoring produces for the same pair.
    fn dist(&self, q: &[f32], q_norm: f32, id: u32) -> f32 {
        let mut out = [0.0f32];
        kernels::distance_gather(
            self.metric,
            q,
            q_norm,
            &self.data,
            &self.norms,
            self.dim,
            &[id],
            &mut out,
        );
        out[0]
    }

    /// Score a node's whole adjacency list as one gathered distance
    /// block.
    fn dists(&self, q: &[f32], q_norm: f32, ids: &[u32], out: &mut Vec<f32>) {
        out.clear();
        out.resize(ids.len(), 0.0);
        kernels::distance_gather(
            self.metric,
            q,
            q_norm,
            &self.data,
            &self.norms,
            self.dim,
            ids,
            out,
        );
    }

    fn max_degree(&self, layer: usize) -> usize {
        if layer == 0 {
            2 * self.params.m
        } else {
            self.params.m
        }
    }

    /// Insert one vector; returns its id.
    pub fn add(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let id = self.len() as u32;
        self.data.extend_from_slice(v);
        let v_norm = kernels::metric_norm(self.metric, v);
        self.norms.push(v_norm);

        // Exponential level assignment with base 1/ln(M).
        let ml = 1.0 / (self.params.m as f32).ln();
        let level = (-(self.rng.gen::<f32>().max(1e-12).ln()) * ml).floor() as usize;
        self.node_level.push(level);
        while self.layers.len() <= level {
            self.layers.push(Vec::new());
        }
        for l in 0..=level {
            while self.layers[l].len() <= id as usize {
                self.layers[l].push(Vec::new());
            }
        }
        // Also size lower layers' adjacency tables.
        for l in 0..self.layers.len() {
            while self.layers[l].len() <= id as usize {
                self.layers[l].push(Vec::new());
            }
        }

        if id == 0 {
            self.entry = 0;
            return id;
        }

        let mut cur = self.entry;
        let top = self.node_level[self.entry as usize];
        // Greedy descent through layers above the new node's level.
        for l in ((level + 1)..=top).rev() {
            cur = self.greedy_closest(v, v_norm, cur, l);
        }
        // Insert with beam search on each shared layer.
        for l in (0..=level.min(top)).rev() {
            let neighbours = self.search_layer(v, v_norm, cur, self.params.ef_construction, l);
            let selected: Vec<u32> =
                neighbours.iter().take(self.max_degree(l)).map(|h| h.id).collect();
            for &n in &selected {
                self.layers[l][id as usize].push(n);
                self.layers[l][n as usize].push(id);
                // Prune over-full neighbours.
                if self.layers[l][n as usize].len() > self.max_degree(l) {
                    self.prune(n, l);
                }
            }
            if let Some(h) = neighbours.first() {
                cur = h.id;
            }
        }
        if level > top {
            self.entry = id;
        }
        id
    }

    /// Keep only the `max_degree` closest neighbours of `node` at `layer`
    /// (the whole list scored as one gathered block, then sorted by
    /// `(distance, id)`).
    fn prune(&mut self, node: u32, layer: usize) {
        let mut neigh = std::mem::take(&mut self.layers[layer][node as usize]);
        neigh.sort_unstable();
        neigh.dedup();
        let nv = self.vector(node).to_vec();
        let mut ds = Vec::new();
        self.dists(&nv, self.norms[node as usize], &neigh, &mut ds);
        let mut order: Vec<(f32, u32)> = ds.into_iter().zip(neigh).collect();
        order.sort_by(|a, b| a.0.partial_cmp(&b.0).unwrap().then(a.1.cmp(&b.1)));
        order.truncate(self.max_degree(layer));
        self.layers[layer][node as usize] = order.into_iter().map(|(_, n)| n).collect();
    }

    /// Greedy best-neighbour walk at one layer; each step scores the
    /// current node's adjacency list as one batch.
    fn greedy_closest(&self, q: &[f32], q_norm: f32, mut cur: u32, layer: usize) -> u32 {
        let mut cur_d = self.dist(q, q_norm, cur);
        let mut ds = Vec::new();
        loop {
            let neigh = &self.layers[layer][cur as usize];
            self.dists(q, q_norm, neigh, &mut ds);
            let mut improved = false;
            for (&n, &d) in neigh.iter().zip(&ds) {
                if d < cur_d {
                    cur = n;
                    cur_d = d;
                    improved = true;
                }
            }
            if !improved {
                return cur;
            }
        }
    }

    /// Beam search at one layer; returns hits sorted ascending. Unvisited
    /// neighbours of the expanded node are scored as one gathered
    /// distance block before the frontier/result heaps are touched.
    fn search_layer(
        &self,
        q: &[f32],
        q_norm: f32,
        entry: u32,
        ef: usize,
        layer: usize,
    ) -> Vec<Hit> {
        let mut visited: HashSet<u32> = HashSet::new();
        visited.insert(entry);
        let d0 = self.dist(q, q_norm, entry);
        let mut frontier = BinaryHeap::new();
        frontier.push(Near(d0, entry));
        let mut results: BinaryHeap<Far> = BinaryHeap::new();
        results.push(Far(d0, entry));
        let mut fresh: Vec<u32> = Vec::new();
        let mut ds: Vec<f32> = Vec::new();

        while let Some(Near(d, node)) = frontier.pop() {
            let worst = results.peek().map(|f| f.0).unwrap_or(f32::INFINITY);
            if d > worst && results.len() >= ef {
                break;
            }
            fresh.clear();
            fresh.extend(self.layers[layer][node as usize].iter().filter(|&&n| visited.insert(n)));
            self.dists(q, q_norm, &fresh, &mut ds);
            for (&n, &dn) in fresh.iter().zip(&ds) {
                let worst = results.peek().map(|f| f.0).unwrap_or(f32::INFINITY);
                if results.len() < ef || dn < worst {
                    frontier.push(Near(dn, n));
                    results.push(Far(dn, n));
                    if results.len() > ef {
                        results.pop();
                    }
                }
            }
        }
        let mut hits: Vec<Hit> =
            results.into_iter().map(|Far(d, id)| Hit { id, distance: d }).collect();
        hits.sort_by(|a, b| a.distance.partial_cmp(&b.distance).unwrap().then(a.id.cmp(&b.id)));
        hits
    }

    /// Approximate top-`k` nearest neighbours.
    pub fn search(&self, q: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(q.len(), self.dim, "query dimension mismatch");
        if self.is_empty() {
            return Vec::new();
        }
        let q_norm = kernels::metric_norm(self.metric, q);
        let mut cur = self.entry;
        let top = self.node_level[self.entry as usize];
        for l in (1..=top).rev() {
            cur = self.greedy_closest(q, q_norm, cur, l);
        }
        let ef = self.params.ef_search.max(k);
        let hits = self.search_layer(q, q_norm, cur, ef, 0);
        let mut out = TopK::new(k);
        for h in hits {
            out.push(h.id, h.distance);
        }
        out.into_sorted()
    }

    /// Parallel batch probe.
    pub fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        assert_eq!(queries.len() % self.dim, 0, "bad query batch");
        queries.par_chunks(self.dim).map(|q| self.search(q, k)).collect()
    }

    /// Build parameters (including any post-build `ef_search` override) —
    /// what spec validation compares a snapshot against.
    pub fn params(&self) -> HnswParams {
        self.params
    }

    /// Serialize the full built state: parameters, the layered adjacency
    /// lists, per-node levels and norms, the entry point, and the rows.
    /// The level rng is not stored — it is a pure function of
    /// `(seed, len())`, replayed on load (one draw per insert).
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_usize(self.dim);
        w.put_u8(snapshot::metric_code(self.metric));
        w.put_usize(self.params.m);
        w.put_usize(self.params.ef_construction);
        w.put_usize(self.params.ef_search);
        w.put_u64(self.params.seed);
        w.put_u32(self.entry);
        w.put_usize(self.node_level.len());
        for &l in &self.node_level {
            w.put_usize(l);
        }
        w.put_f32_slice(&self.data);
        w.put_f32_slice(&self.norms);
        w.put_usize(self.layers.len());
        for layer in &self.layers {
            w.put_usize(layer.len());
            for neigh in layer {
                w.put_u32_slice(neigh);
            }
        }
        w.into_bytes()
    }

    /// Rebuild from [`HnswIndex::snapshot_bytes`] output. The graph comes
    /// back verbatim (probes are bitwise the saved index's), and the
    /// replayed rng means post-load [`HnswIndex::add`] inserts land
    /// exactly where they would have on the never-snapshotted index.
    pub(crate) fn from_snapshot_bytes(bytes: &[u8]) -> Result<HnswIndex, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let dim = r.get_usize()?;
        let metric = snapshot::metric_from_code(r.get_u8()?)?;
        let params = HnswParams {
            m: r.get_usize()?,
            ef_construction: r.get_usize()?,
            ef_search: r.get_usize()?,
            seed: r.get_u64()?,
        };
        let entry = r.get_u32()?;
        let n = r.get_usize()?;
        if n > bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let mut node_level = Vec::with_capacity(n);
        for _ in 0..n {
            node_level.push(r.get_usize()?);
        }
        let data = r.get_f32_slice()?;
        let norms = r.get_f32_slice()?;
        let n_layers = r.get_usize()?;
        if n_layers > bytes.len() {
            return Err(SnapshotError::Truncated);
        }
        let mut layers = Vec::with_capacity(n_layers);
        for _ in 0..n_layers {
            let n_nodes = r.get_usize()?;
            if n_nodes > bytes.len() {
                return Err(SnapshotError::Truncated);
            }
            let mut layer = Vec::with_capacity(n_nodes);
            for _ in 0..n_nodes {
                layer.push(r.get_u32_slice()?);
            }
            layers.push(layer);
        }
        r.finish()?;
        if dim == 0 || params.m < 2 {
            return Err(SnapshotError::Corrupt("hnsw parameters"));
        }
        if data.len() != n * dim || norms.len() != n {
            return Err(SnapshotError::Corrupt("hnsw row/norm shape"));
        }
        if n_layers == 0 || (n > 0 && entry as usize >= n) {
            return Err(SnapshotError::Corrupt("hnsw entry point"));
        }
        for (node, &level) in node_level.iter().enumerate() {
            if level >= n_layers || layers[level].len() <= node {
                return Err(SnapshotError::Corrupt("hnsw node level past layers"));
            }
        }
        for layer in &layers {
            if layer.len() > n {
                return Err(SnapshotError::Corrupt("hnsw layer wider than node count"));
            }
            for neigh in layer {
                if neigh.iter().any(|&x| x as usize >= n) {
                    return Err(SnapshotError::Corrupt("hnsw edge past node count"));
                }
            }
        }
        // Replay the level rng to where `n` inserts left it: `add`
        // consumes exactly one `gen::<f32>()` per insert.
        let mut rng = StdRng::seed_from_u64(params.seed);
        for _ in 0..n {
            let _: f32 = rng.gen();
        }
        Ok(HnswIndex { dim, metric, params, data, norms, layers, node_level, entry, rng })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn exact_on_tiny_sets() {
        let data = random_data(30, 4, 1);
        let hnsw = HnswIndex::build(&data, 4, Metric::L2, HnswParams::default());
        let mut flat = FlatIndex::new(4, Metric::L2);
        flat.add_batch(&data);
        for qi in 0..10 {
            let q = &data[qi * 4..(qi + 1) * 4];
            assert_eq!(hnsw.search(q, 1)[0].id, flat.search(q, 1)[0].id);
        }
    }

    #[test]
    fn recall_against_flat_on_larger_set() {
        let dim = 16;
        let data = random_data(1500, dim, 7);
        let hnsw = HnswIndex::build(&data, dim, Metric::L2, HnswParams::default());
        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);

        let mut overlap = 0usize;
        for qi in (0..1500).step_by(75) {
            let q = &data[qi * dim..(qi + 1) * dim];
            let exact: std::collections::HashSet<u32> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            overlap += hnsw.search(q, 10).iter().filter(|h| exact.contains(&h.id)).count();
        }
        let recall = overlap as f32 / 200.0;
        assert!(recall > 0.85, "HNSW recall@10 {recall} too low");
    }

    #[test]
    fn self_query_returns_self() {
        let data = random_data(200, 8, 3);
        let hnsw = HnswIndex::build(&data, 8, Metric::L2, HnswParams::default());
        for qi in [0usize, 57, 199] {
            let q = &data[qi * 8..(qi + 1) * 8];
            let hits = hnsw.search(q, 1);
            assert_eq!(hits[0].id as usize, qi);
            assert_eq!(hits[0].distance, 0.0);
        }
    }

    #[test]
    fn ef_search_trades_recall() {
        let dim = 16;
        let data = random_data(1200, dim, 11);
        let mut hnsw = HnswIndex::build(&data, dim, Metric::L2, HnswParams::default());
        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);
        let recall_at = |hnsw: &HnswIndex| {
            let mut overlap = 0usize;
            for qi in (0..1200).step_by(100) {
                let q = &data[qi * dim..(qi + 1) * dim];
                let exact: std::collections::HashSet<u32> =
                    flat.search(q, 10).into_iter().map(|h| h.id).collect();
                overlap += hnsw.search(q, 10).iter().filter(|h| exact.contains(&h.id)).count();
            }
            overlap as f32 / 120.0
        };
        hnsw.set_ef_search(8);
        let low = recall_at(&hnsw);
        hnsw.set_ef_search(128);
        let high = recall_at(&hnsw);
        assert!(high >= low, "ef=128 recall {high} < ef=8 recall {low}");
        assert!(high > 0.9, "high-ef recall {high}");
    }

    #[test]
    fn batch_matches_single() {
        let data = random_data(300, 8, 5);
        let hnsw = HnswIndex::build(&data, 8, Metric::L2, HnswParams::default());
        let queries = &data[0..3 * 8];
        let batch = hnsw.search_batch(queries, 4);
        for (i, hits) in batch.iter().enumerate() {
            assert_eq!(*hits, hnsw.search(&queries[i * 8..(i + 1) * 8], 4));
        }
    }

    #[test]
    fn empty_index_returns_nothing() {
        let ix = HnswIndex::new(4, Metric::L2, HnswParams::default());
        assert!(ix.search(&[0.0; 4], 3).is_empty());
    }
}
