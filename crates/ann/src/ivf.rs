//! Inverted-file index with flat residual storage (FAISS `IndexIVFFlat`).
//!
//! Vectors are partitioned by a k-means coarse quantizer; a probe scans only
//! the `nprobe` lists whose centroids are nearest the query. Exactness
//! degrades gracefully as `nprobe` shrinks — the recall/latency trade-off
//! the paper delegates to FAISS.

use crate::kernels;
use crate::kmeans::{kmeans, KMeans};
use crate::metric::Metric;
use crate::rowstore::{RowFormat, RowStore};
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topk::{Hit, TopK};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// Tuning parameters for [`IvfFlatIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct IvfParams {
    /// Number of inverted lists (k-means clusters).
    pub nlist: usize,
    /// Lists scanned per query.
    pub nprobe: usize,
    /// Lloyd iterations when training the coarse quantizer.
    pub train_iters: usize,
    /// Seed for quantizer training.
    pub seed: u64,
}

impl Default for IvfParams {
    fn default() -> Self {
        IvfParams { nlist: 64, nprobe: 8, train_iters: 20, seed: 0 }
    }
}

/// IVF-Flat index. Built in one shot from a packed vector set.
///
/// Both scans run on the blocked kernels: coarse quantization goes
/// through [`KMeans::nearest_centroids`] (one squared-L2 kernel tile
/// against the norms the quantizer caches at training time — always L2,
/// matching k-means training, whatever the row metric), and each probed
/// posting list is scored through the gathered kernel against
/// precomputed row norms — no scalar per-pair `Metric::distance` calls
/// on the hot path.
#[derive(Debug, Clone)]
pub struct IvfFlatIndex {
    dim: usize,
    metric: Metric,
    params: IvfParams,
    quantizer: KMeans,
    /// Per-list vector ids.
    lists: Vec<Vec<u32>>,
    /// Original vectors, packed in the configured [`RowFormat`] (ids
    /// index into this). Norms and the coarse quantizer are derived from
    /// the rows *as stored* (decoded), so probe arithmetic, training,
    /// and growth retrains stay mutually consistent; for f32 the store
    /// is bitwise the input and nothing changes.
    data: RowStore,
    /// Per-row kernel norms ([`kernels::metric_norms`] convention),
    /// maintained through [`IvfFlatIndex::add_batch`].
    row_norms: Vec<f32>,
    /// `nlist`/`nprobe` as requested at build time, *before* the
    /// row-count clamp. Growth-triggered retraining re-derives the
    /// effective parameters from these, so an index built over a small
    /// seed pool recovers its full list count once the data warrants it.
    requested_nlist: usize,
    requested_nprobe: usize,
    /// Row count the coarse quantizer was last trained on.
    trained_rows: usize,
}

/// Growth factor that triggers coarse-quantizer retraining: when
/// [`IvfFlatIndex::add_batch`] grows the index to at least this multiple
/// of the row count the quantizer was last trained on, the quantizer and
/// posting lists are rebuilt from the current rows. Without it, `params.nlist = nlist.min(n)`
/// clamped at build time would freeze a tiny list count forever while the
/// index grows 100×, silently degrading both probe speed and the
/// auto-tuner's `nprobe` range.
pub const RETRAIN_GROWTH: usize = 4;

impl IvfFlatIndex {
    /// Train the coarse quantizer on `data` and build the inverted lists.
    /// `nlist` is clamped to the number of vectors (and un-clamped again
    /// by growth-triggered retraining, see [`RETRAIN_GROWTH`]).
    pub fn build(data: &[f32], dim: usize, metric: Metric, params: IvfParams) -> Self {
        Self::build_rows(data, dim, metric, params, RowFormat::F32)
    }

    /// [`IvfFlatIndex::build`] with rows stored in `format`. The coarse
    /// quantizer trains on the rows as stored (decoded), so assignment
    /// at probe time agrees with training — and for f32 this is bitwise
    /// the historical build.
    pub fn build_rows(
        data: &[f32],
        dim: usize,
        metric: Metric,
        mut params: IvfParams,
        format: RowFormat,
    ) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "bad packed data");
        let n = data.len() / dim;
        assert!(n > 0, "cannot build an IVF index over zero vectors");
        let (requested_nlist, requested_nprobe) = (params.nlist.max(1), params.nprobe.max(1));
        params.nlist = params.nlist.min(n).max(1);
        params.nprobe = params.nprobe.min(params.nlist).max(1);

        let mut store = RowStore::new(dim, format);
        store.push_rows(data);
        let mut rng = StdRng::seed_from_u64(params.seed);
        let mut scratch = Vec::new();
        let (quantizer, row_norms) = {
            let rows = store.decoded_all(&mut scratch);
            let quantizer = kmeans(rows, dim, params.nlist, params.train_iters, &mut rng);
            let row_norms = kernels::metric_norms(metric, rows, dim);
            (quantizer, row_norms)
        };
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); params.nlist];
        for (i, &a) in quantizer.assignments.iter().enumerate() {
            lists[a as usize].push(i as u32);
        }
        IvfFlatIndex {
            dim,
            metric,
            params,
            quantizer,
            lists,
            data: store,
            row_norms,
            requested_nlist,
            requested_nprobe,
            trained_rows: n,
        }
    }

    /// Storage format of the rows.
    pub fn row_format(&self) -> RowFormat {
        self.data.format()
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn len(&self) -> usize {
        self.data.len()
    }

    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    pub fn metric(&self) -> Metric {
        self.metric
    }

    pub fn params(&self) -> IvfParams {
        self.params
    }

    /// Append one vector after build: assign it to its nearest trained
    /// centroid (no retraining). Returns its id.
    pub fn add(&mut self, v: &[f32]) -> u32 {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let id = self.len() as u32;
        self.data.push_rows(v);
        let mut scratch = Vec::new();
        let (list, norm) = {
            let dec = self.data.decoded_range(id as usize, 1, &mut scratch);
            (self.quantizer.nearest_centroid(dec), kernels::metric_norm(self.metric, dec))
        };
        self.lists[list as usize].push(id);
        self.row_norms.push(norm);
        id
    }

    /// Append many packed vectors after build. Coarse assignment runs as
    /// blocked kernel tiles (rows × centroids) with per-row argmins —
    /// the same arithmetic as the per-row [`IvfFlatIndex::add`], without
    /// its per-insert allocations.
    pub fn add_batch(&mut self, flat: &[f32]) {
        crate::metric::assert_packed(flat.len(), self.dim);
        const BLOCK: usize = 64;
        let k = self.params.nlist;
        let row0 = self.len();
        let n_new = flat.len() / self.dim;
        self.data.push_rows(flat);
        let mut tile = vec![0.0f32; BLOCK * k];
        let mut scratch = Vec::new();
        let mut b0 = 0usize;
        while b0 < n_new {
            let nr = (n_new - b0).min(BLOCK);
            // Assignment runs over the rows as stored (decoded), like
            // training did; for f32 the decoded block is the input.
            let (assignments, norms) = {
                let rows = self.data.decoded_range(row0 + b0, nr, &mut scratch);
                let row_sq = kernels::sq_norms(rows, self.dim);
                kernels::sq_l2_batch(
                    rows,
                    &row_sq,
                    &self.quantizer.centroids,
                    &self.quantizer.centroid_sq,
                    self.dim,
                    &mut tile[..nr * k],
                );
                let assignments: Vec<usize> =
                    tile[..nr * k].chunks(k).map(kernels::argmin).collect();
                (assignments, kernels::metric_norms(self.metric, rows, self.dim))
            };
            for (j, (list, norm)) in assignments.into_iter().zip(norms).enumerate() {
                let id = (row0 + b0 + j) as u32;
                self.lists[list].push(id);
                self.row_norms.push(norm);
            }
            b0 += nr;
        }
        // Batch growth (the engine's streaming path) checks the retrain
        // trigger once per batch; per-row `add` stays assignment-only so
        // `add_batch` == repeated `add` holds below the growth threshold.
        if self.len() >= self.trained_rows.saturating_mul(RETRAIN_GROWTH) {
            self.retrain();
        }
    }

    /// Retrain the coarse quantizer on the *current* rows and rebuild
    /// every posting list, re-deriving `nlist`/`nprobe` from the
    /// build-time request (un-clamping them if the index has outgrown
    /// the seed pool it was built over). This is exactly the computation
    /// [`IvfFlatIndex::build`] runs over the same rows with the same
    /// seed, so a grown-then-retrained index is bitwise a fresh build —
    /// `add_batch` invokes it automatically at [`RETRAIN_GROWTH`]×
    /// growth; callers doing fine-grained per-row [`IvfFlatIndex::add`]
    /// streams can invoke it manually.
    pub fn retrain(&mut self) {
        let n = self.len();
        if n == 0 {
            return;
        }
        self.params.nlist = self.requested_nlist.min(n).max(1);
        self.params.nprobe = self.requested_nprobe.min(self.params.nlist).max(1);
        let mut rng = StdRng::seed_from_u64(self.params.seed);
        let mut scratch = Vec::new();
        self.quantizer = {
            let rows = self.data.decoded_all(&mut scratch);
            kmeans(rows, self.dim, self.params.nlist, self.params.train_iters, &mut rng)
        };
        let mut lists: Vec<Vec<u32>> = vec![Vec::new(); self.params.nlist];
        for (i, &a) in self.quantizer.assignments.iter().enumerate() {
            lists[a as usize].push(i as u32);
        }
        self.lists = lists;
        self.trained_rows = n;
    }

    /// Override `nprobe` after build (the auto-tuner's knob). The value
    /// becomes the new request, so a later growth-triggered retrain
    /// keeps the tuned width instead of reverting to the build-time one.
    pub fn set_nprobe(&mut self, nprobe: usize) {
        self.requested_nprobe = nprobe.max(1);
        self.params.nprobe = nprobe.min(self.params.nlist).max(1);
    }

    /// Probe the `nprobe` nearest lists for the top-`k` neighbours. Each
    /// posting list is scored as one gathered kernel block; the `TopK`
    /// heap only sees finished distance blocks.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let q_norm = kernels::metric_norm(self.metric, query);
        let mut top = TopK::new(k);
        let mut block = Vec::new();
        match self.data.as_f32() {
            // f32 rows: the gathered kernel scans the store zero-copy
            // against the cached norms, exactly as before.
            Some(data) => {
                for list in self.quantizer.nearest_centroids(query, self.params.nprobe) {
                    let ids = &self.lists[list as usize];
                    block.clear();
                    block.resize(ids.len(), 0.0);
                    kernels::distance_gather(
                        self.metric,
                        query,
                        q_norm,
                        data,
                        &self.row_norms,
                        self.dim,
                        ids,
                        &mut block,
                    );
                    for (&id, &d) in ids.iter().zip(&block) {
                        top.push(id, d);
                    }
                }
            }
            // Compressed rows: gather each probed list's rows (decoded)
            // and its *cached* norms into contiguous scratch, then score
            // as a one-query tile — norms are never recomputed from row
            // data at probe time.
            None => {
                let mut rowbuf = Vec::new();
                let mut normbuf = Vec::new();
                for list in self.quantizer.nearest_centroids(query, self.params.nprobe) {
                    let ids = &self.lists[list as usize];
                    self.data.gather_decoded(ids, &mut rowbuf);
                    normbuf.clear();
                    normbuf.extend(ids.iter().map(|&id| self.row_norms[id as usize]));
                    block.clear();
                    block.resize(ids.len(), 0.0);
                    kernels::distance_batch(
                        self.metric,
                        query,
                        &[q_norm],
                        &rowbuf,
                        &normbuf,
                        self.dim,
                        &mut block,
                    );
                    for (&id, &d) in ids.iter().zip(&block) {
                        top.push(id, d);
                    }
                }
            }
        }
        top.into_sorted()
    }

    /// Parallel batch probe; queries packed row-major.
    pub fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        assert_eq!(queries.len() % self.dim, 0, "query batch length not a multiple of dim");
        queries.par_chunks(self.dim).map(|q| self.search(q, k)).collect()
    }

    /// Fraction of vectors scanned by an average probe (cost model helper).
    pub fn expected_scan_fraction(&self) -> f32 {
        self.params.nprobe as f32 / self.params.nlist as f32
    }

    /// Build-time `(nlist, nprobe)` request, before the row-count clamp
    /// — what spec validation compares a snapshot against (the effective
    /// clamped values depend on row count, the request does not).
    pub fn requested_params(&self) -> (usize, usize) {
        (self.requested_nlist, self.requested_nprobe)
    }

    /// Serialize the full trained state: parameters (requested and
    /// clamped), the coarse quantizer, every posting list, cached norms,
    /// and the rows as stored.
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_usize(self.dim);
        w.put_u8(snapshot::metric_code(self.metric));
        w.put_u8(snapshot::rowformat_code(self.data.format()));
        w.put_usize(self.params.nlist);
        w.put_usize(self.params.nprobe);
        w.put_usize(self.params.train_iters);
        w.put_u64(self.params.seed);
        w.put_usize(self.requested_nlist);
        w.put_usize(self.requested_nprobe);
        w.put_usize(self.trained_rows);
        w.put_usize(self.quantizer.k);
        w.put_usize(self.quantizer.dim);
        w.put_f32_slice(&self.quantizer.centroids);
        w.put_f32_slice(&self.quantizer.centroid_sq);
        w.put_u32_slice(&self.quantizer.assignments);
        w.put_f32(self.quantizer.inertia);
        w.put_usize(self.quantizer.iterations);
        w.put_usize(self.lists.len());
        for list in &self.lists {
            w.put_u32_slice(list);
        }
        w.put_f32_slice(&self.row_norms);
        let (full, half) = self.data.raw_parts();
        w.put_f32_slice(full);
        w.put_u16_slice(half);
        w.into_bytes()
    }

    /// Rebuild from [`IvfFlatIndex::snapshot_bytes`] output. Nothing is
    /// retrained or recomputed — quantizer, lists, and norms come back
    /// verbatim, so a loaded index probes bitwise like the saved one.
    pub(crate) fn from_snapshot_bytes(bytes: &[u8]) -> Result<IvfFlatIndex, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let dim = r.get_usize()?;
        let metric = snapshot::metric_from_code(r.get_u8()?)?;
        let format = snapshot::rowformat_from_code(r.get_u8()?)?;
        let params = IvfParams {
            nlist: r.get_usize()?,
            nprobe: r.get_usize()?,
            train_iters: r.get_usize()?,
            seed: r.get_u64()?,
        };
        let requested_nlist = r.get_usize()?;
        let requested_nprobe = r.get_usize()?;
        let trained_rows = r.get_usize()?;
        let quantizer = KMeans {
            k: r.get_usize()?,
            dim: r.get_usize()?,
            centroids: r.get_f32_slice()?,
            centroid_sq: r.get_f32_slice()?,
            assignments: r.get_u32_slice()?,
            inertia: r.get_f32()?,
            iterations: r.get_usize()?,
        };
        let n_lists = r.get_usize()?;
        if n_lists != params.nlist {
            return Err(SnapshotError::Corrupt("ivf list count != nlist"));
        }
        let mut lists = Vec::with_capacity(n_lists);
        for _ in 0..n_lists {
            lists.push(r.get_u32_slice()?);
        }
        let row_norms = r.get_f32_slice()?;
        let full = r.get_f32_slice()?;
        let half = r.get_u16_slice()?;
        r.finish()?;
        if dim == 0 || quantizer.dim != dim || quantizer.centroids.len() != quantizer.k * dim {
            return Err(SnapshotError::Corrupt("ivf quantizer shape"));
        }
        let data = RowStore::from_raw(dim, format, full, half)
            .ok_or(SnapshotError::Corrupt("ivf row store shape"))?;
        let n = data.len();
        if row_norms.len() != n {
            return Err(SnapshotError::Corrupt("ivf per-row array length"));
        }
        // The posting lists partition the rows: every id in `0..n` exactly
        // once, ascending within each list (build, add and retrain all
        // push ids in increasing order).
        let partition = "ivf posting lists do not partition the rows";
        if lists.iter().map(Vec::len).sum::<usize>() != n {
            return Err(SnapshotError::Corrupt(partition));
        }
        let mut seen = vec![false; n];
        for list in &lists {
            if list.windows(2).any(|w| w[0] >= w[1]) {
                return Err(SnapshotError::Corrupt("ivf posting list not ascending"));
            }
            for &id in list {
                if seen.get(id as usize) != Some(&false) {
                    return Err(SnapshotError::Corrupt(partition));
                }
                seen[id as usize] = true;
            }
        }
        Ok(IvfFlatIndex {
            dim,
            metric,
            params,
            quantizer,
            lists,
            data,
            row_norms,
            requested_nlist,
            requested_nprobe,
            trained_rows,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use rand::Rng;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn full_probe_is_exact() {
        let dim = 8;
        let data = random_data(500, dim, 42);
        let params = IvfParams { nlist: 16, nprobe: 16, ..Default::default() };
        let ivf = IvfFlatIndex::build(&data, dim, Metric::L2, params);
        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);

        let q = &data[37 * dim..38 * dim];
        let exact: Vec<u32> = flat.search(q, 10).into_iter().map(|h| h.id).collect();
        let approx: Vec<u32> = ivf.search(q, 10).into_iter().map(|h| h.id).collect();
        assert_eq!(exact, approx);
    }

    #[test]
    fn partial_probe_recall_reasonable() {
        let dim = 8;
        let data = random_data(2000, dim, 7);
        let params = IvfParams { nlist: 32, nprobe: 8, ..Default::default() };
        let ivf = IvfFlatIndex::build(&data, dim, Metric::L2, params);
        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);

        let mut overlap = 0usize;
        let mut total = 0usize;
        for qi in (0..2000).step_by(100) {
            let q = &data[qi * dim..(qi + 1) * dim];
            let exact: std::collections::HashSet<u32> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            let approx = ivf.search(q, 10);
            overlap += approx.iter().filter(|h| exact.contains(&h.id)).count();
            total += 10;
        }
        let recall = overlap as f32 / total as f32;
        assert!(recall > 0.5, "recall@10 {recall} too low for nprobe=8/32");
    }

    #[test]
    fn nlist_clamped_to_n() {
        let data = random_data(5, 4, 3);
        let params = IvfParams { nlist: 100, nprobe: 100, ..Default::default() };
        let ivf = IvfFlatIndex::build(&data, 4, Metric::L2, params);
        assert!(ivf.params().nlist <= 5);
        assert_eq!(ivf.search(&data[0..4], 3).len(), 3);
    }

    #[test]
    fn batch_matches_single() {
        let dim = 4;
        let data = random_data(200, dim, 9);
        let ivf = IvfFlatIndex::build(&data, dim, Metric::L2, IvfParams::default());
        let queries = &data[0..3 * dim];
        let batch = ivf.search_batch(queries, 5);
        for (i, hits) in batch.iter().enumerate() {
            assert_eq!(*hits, ivf.search(&queries[i * dim..(i + 1) * dim], 5));
        }
    }

    #[test]
    fn add_batch_assigns_exactly_like_repeated_add() {
        // The blocked-tile assignment in add_batch must reproduce the
        // per-row add() path: same lists, same retrieval, across a batch
        // larger than the assignment block.
        let dim = 8;
        let base = random_data(300, dim, 13);
        let extra = random_data(150, dim, 14);
        let params = IvfParams { nlist: 16, nprobe: 16, ..Default::default() };
        let mut batched = IvfFlatIndex::build(&base, dim, Metric::L2, params);
        let mut one_by_one = batched.clone();
        batched.add_batch(&extra);
        for v in extra.chunks(dim) {
            one_by_one.add(v);
        }
        assert_eq!(batched.lists, one_by_one.lists);
        assert_eq!(batched.row_norms, one_by_one.row_norms);
        let q = &extra[0..dim];
        assert_eq!(batched.search(q, 7), one_by_one.search(q, 7));
    }

    #[test]
    fn grown_index_retrains_quantizer_and_matches_fresh_build() {
        // Regression: `params.nlist = nlist.min(n)` used to be frozen at
        // the build-time row count, so an index built over a small seed
        // pool kept a tiny nlist while add_batch grew it far past it.
        let dim = 8;
        let seed_pool = random_data(20, dim, 21);
        let grown = random_data(380, dim, 22);
        let params = IvfParams { nlist: 64, nprobe: 8, ..Default::default() };
        let mut ix = IvfFlatIndex::build(&seed_pool, dim, Metric::L2, params);
        assert_eq!(ix.params().nlist, 20, "build clamps nlist to the seed pool");
        ix.add_batch(&grown);
        // 400 rows >= RETRAIN_GROWTH x 20: the quantizer retrains and
        // recovers the requested nlist (and the nprobe clamped under it).
        assert_eq!(ix.params().nlist, 64);
        assert_eq!(ix.params().nprobe, 8);
        // Retraining is the build computation over the same rows and
        // seed, so the grown index matches a fresh build bitwise.
        let mut all = seed_pool.clone();
        all.extend_from_slice(&grown);
        let fresh = IvfFlatIndex::build(&all, dim, Metric::L2, params);
        assert_eq!(ix.params(), fresh.params());
        for qi in [0usize, 25, 399] {
            let q = &all[qi * dim..(qi + 1) * dim];
            assert_eq!(ix.search(q, 7), fresh.search(q, 7), "qi={qi}");
        }
    }

    #[test]
    fn tuned_nprobe_survives_growth_retrain() {
        let dim = 4;
        let mut ix = IvfFlatIndex::build(
            &random_data(20, dim, 33),
            dim,
            Metric::L2,
            IvfParams { nlist: 16, nprobe: 2, ..Default::default() },
        );
        ix.set_nprobe(12);
        assert_eq!(ix.params().nprobe, 12);
        ix.add_batch(&random_data(100, dim, 34));
        assert_eq!(ix.params().nlist, 16);
        assert_eq!(ix.params().nprobe, 12, "retrain must keep the tuned width");
    }

    #[test]
    fn compressed_full_probe_matches_compressed_flat() {
        // At nprobe == nlist the IVF scan covers every row, and the
        // gathered compressed path must score bitwise like the flat
        // fused tiles over the same stored (decoded) rows.
        let dim = 8;
        let data = random_data(300, dim, 51);
        for format in [RowFormat::F16, RowFormat::Bf16] {
            let params = IvfParams { nlist: 8, nprobe: 8, ..Default::default() };
            let ivf = IvfFlatIndex::build_rows(&data, dim, Metric::L2, params, format);
            assert_eq!(ivf.row_format(), format);
            let mut flat = FlatIndex::with_format(dim, Metric::L2, format);
            flat.add_batch(&data);
            for qi in [0usize, 123, 299] {
                let q = &data[qi * dim..(qi + 1) * dim];
                assert_eq!(ivf.search(q, 10), flat.search(q, 10), "{format:?} qi={qi}");
            }
        }
    }

    #[test]
    fn compressed_growth_retrain_matches_fresh_compressed_build() {
        // The retrain path trains on decoded rows, so growing a
        // compressed index reproduces a fresh compressed build exactly.
        let dim = 8;
        let seed_pool = random_data(20, dim, 61);
        let grown = random_data(380, dim, 62);
        let params = IvfParams { nlist: 16, nprobe: 4, ..Default::default() };
        let mut ix = IvfFlatIndex::build_rows(&seed_pool, dim, Metric::L2, params, RowFormat::F16);
        ix.add_batch(&grown);
        let mut all = seed_pool.clone();
        all.extend_from_slice(&grown);
        let fresh = IvfFlatIndex::build_rows(&all, dim, Metric::L2, params, RowFormat::F16);
        assert_eq!(ix.params(), fresh.params());
        for qi in [0usize, 25, 399] {
            let q = &all[qi * dim..(qi + 1) * dim];
            assert_eq!(ix.search(q, 7), fresh.search(q, 7), "qi={qi}");
        }
    }

    #[test]
    fn snapshot_lists_that_repeat_one_id_and_drop_another_are_corrupt() {
        let dim = 4;
        let params = IvfParams { nlist: 4, nprobe: 4, ..Default::default() };
        let ix = IvfFlatIndex::build(&random_data(40, dim, 71), dim, Metric::L2, params);
        let full: Vec<usize> = (0..ix.lists.len()).filter(|&l| !ix.lists[l].is_empty()).collect();
        let (a, b) = (full[0], full[1]);
        let rejects = |bad: &IvfFlatIndex| {
            matches!(
                IvfFlatIndex::from_snapshot_bytes(&bad.snapshot_bytes()),
                Err(SnapshotError::Corrupt(_))
            )
        };
        // List `b` loses its first id and gains list `a`'s first id:
        // lengths still sum to n, every list stays ascending.
        let mut bad = ix.clone();
        bad.lists[b][0] = ix.lists[a][0];
        bad.lists[b].sort_unstable();
        assert!(rejects(&bad), "a repeated id must not load");
        // An out-of-order list is rejected too.
        let mut bad = ix.clone();
        bad.lists[a].reverse();
        assert!(ix.lists[a].len() < 2 || rejects(&bad), "an unsorted list must not load");
        // The untouched index still round-trips.
        assert!(IvfFlatIndex::from_snapshot_bytes(&ix.snapshot_bytes()).is_ok());
    }

    #[test]
    fn scan_fraction_reflects_params() {
        let data = random_data(100, 4, 1);
        let params = IvfParams { nlist: 10, nprobe: 2, ..Default::default() };
        let ivf = IvfFlatIndex::build(&data, 4, Metric::L2, params);
        assert!((ivf.expected_scan_fraction() - 0.2).abs() < 1e-6);
    }
}
