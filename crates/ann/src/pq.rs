//! Product quantization with asymmetric distance computation (ADC).
//!
//! The paper credits FAISS's speed to "product quantization for fast
//! asymmetric distance computations" (§5.4). This module reproduces that
//! substrate: vectors are split into `m` subspaces, each quantized by its
//! own k-means codebook; a query precomputes per-subspace distance tables
//! and scores codes with `m` table lookups instead of `dim` multiplies.
//!
//! ADC itself is an L2 machine, but [`PqIndex`] also serves
//! [`Metric::Cosine`] by pre-normalizing every vector to unit length at
//! build, add, and query time: for unit vectors `‖a − b‖² = 2·(1 − cos)`,
//! so L2 ranking over the normalized sphere *is* cosine ranking, and the
//! reported distance is halved to land on the `1 − cos` scale the exact
//! backends report.

use crate::kernels;
use crate::kmeans::kmeans;
use crate::metric::{normalize, Metric};
use crate::snapshot::{self, SnapshotError, SnapshotReader, SnapshotWriter};
use crate::topk::{Hit, TopK};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;

/// A trained product quantizer.
#[derive(Debug, Clone)]
pub struct ProductQuantizer {
    dim: usize,
    /// Number of subspaces; `dim % m == 0`.
    m: usize,
    /// Codebook size per subspace (≤ 256 so codes fit in a byte).
    ksub: usize,
    /// `m` codebooks, each packed `ksub * dsub`.
    codebooks: Vec<Vec<f32>>,
    /// Squared L2 norms of each codebook's centroids (`m × ksub`),
    /// precomputed at train time so table construction and encoding run
    /// on the batched kernel.
    codebook_sq: Vec<Vec<f32>>,
}

impl ProductQuantizer {
    /// Train codebooks on packed `data`. `m` must divide `dim`; `ksub` is
    /// clamped to the training-set size and to 256.
    pub fn train(data: &[f32], dim: usize, m: usize, ksub: usize, seed: u64) -> Self {
        assert!(dim > 0 && data.len().is_multiple_of(dim), "bad packed data");
        assert!(m > 0 && dim.is_multiple_of(m), "m={m} must divide dim={dim}");
        let n = data.len() / dim;
        assert!(n > 0, "cannot train on zero vectors");
        let ksub = ksub.min(256).min(n).max(1);
        let dsub = dim / m;

        let codebooks: Vec<Vec<f32>> = (0..m)
            .into_par_iter()
            .map(|sub| {
                // Slice out this subspace from every vector.
                let mut subdata = Vec::with_capacity(n * dsub);
                for v in data.chunks(dim) {
                    subdata.extend_from_slice(&v[sub * dsub..(sub + 1) * dsub]);
                }
                let mut rng = StdRng::seed_from_u64(seed.wrapping_add(sub as u64));
                kmeans(&subdata, dsub, ksub, 15, &mut rng).centroids
            })
            .collect();

        let codebook_sq = codebooks.iter().map(|cb| kernels::sq_norms(cb, dsub)).collect();
        ProductQuantizer { dim, m, ksub, codebooks, codebook_sq }
    }

    pub fn dim(&self) -> usize {
        self.dim
    }

    pub fn subspaces(&self) -> usize {
        self.m
    }

    pub fn codebook_size(&self) -> usize {
        self.ksub
    }

    fn dsub(&self) -> usize {
        self.dim / self.m
    }

    /// Distances from one subvector to every centroid of one codebook,
    /// as a single kernel tile.
    fn subspace_dists(&self, sub: usize, part: &[f32], out: &mut [f32]) {
        let part_sq = [kernels::sq_norm(part)];
        kernels::sq_l2_batch(
            part,
            &part_sq,
            &self.codebooks[sub],
            &self.codebook_sq[sub],
            self.dsub(),
            out,
        );
    }

    /// Encode one vector to `m` bytes (per-subspace batched argmin;
    /// distance ties keep the lowest code, like the scalar scan did).
    pub fn encode(&self, v: &[f32]) -> Vec<u8> {
        assert_eq!(v.len(), self.dim, "vector dimension mismatch");
        let dsub = self.dsub();
        let mut dists = vec![0.0f32; self.ksub];
        (0..self.m)
            .map(|sub| {
                self.subspace_dists(sub, &v[sub * dsub..(sub + 1) * dsub], &mut dists);
                kernels::argmin(&dists) as u8
            })
            .collect()
    }

    /// Reconstruct (decode) a code back to an approximate vector.
    pub fn decode(&self, code: &[u8]) -> Vec<f32> {
        assert_eq!(code.len(), self.m, "code length mismatch");
        let dsub = self.dsub();
        let mut out = Vec::with_capacity(self.dim);
        for (sub, &c) in code.iter().enumerate() {
            let cen = &self.codebooks[sub][c as usize * dsub..(c as usize + 1) * dsub];
            out.extend_from_slice(cen);
        }
        out
    }

    /// Per-subspace distance tables for `query`: `m * ksub` entries,
    /// each subspace built as one batched kernel tile against the
    /// codebook (norms precomputed at train time).
    pub fn distance_tables(&self, query: &[f32]) -> Vec<f32> {
        assert_eq!(query.len(), self.dim, "query dimension mismatch");
        let dsub = self.dsub();
        let mut tables = vec![0.0f32; self.m * self.ksub];
        for (sub, out) in tables.chunks_mut(self.ksub).enumerate() {
            self.subspace_dists(sub, &query[sub * dsub..(sub + 1) * dsub], out);
        }
        tables
    }

    /// ADC distance of one code given precomputed tables.
    #[inline]
    pub fn adc(&self, tables: &[f32], code: &[u8]) -> f32 {
        let mut d = 0.0;
        for (sub, &c) in code.iter().enumerate() {
            d += tables[sub * self.ksub + c as usize];
        }
        d
    }
}

fn is_zero(v: &[f32]) -> bool {
    v.iter().all(|x| *x == 0.0)
}

/// Flat list of PQ codes searchable by ADC (FAISS `IndexPQ`).
#[derive(Debug, Clone)]
pub struct PqIndex {
    pq: ProductQuantizer,
    metric: Metric,
    codes: Vec<u8>,
    /// Under cosine only: rows that were the zero vector, which exact
    /// backends score at the `1 − cos = 1.0` convention. Tracked here
    /// because codes cannot represent "no direction".
    zero_rows: Vec<bool>,
}

impl PqIndex {
    pub fn new(pq: ProductQuantizer, metric: Metric) -> Self {
        PqIndex { pq, metric, codes: Vec::new(), zero_rows: Vec::new() }
    }

    /// Train a quantizer on `data` and encode all of it. Under
    /// [`Metric::Cosine`] the codebooks are trained on (and codes store)
    /// unit-normalized vectors.
    pub fn build(
        data: &[f32],
        dim: usize,
        m: usize,
        ksub: usize,
        seed: u64,
        metric: Metric,
    ) -> Self {
        let owned;
        let train_data = match metric {
            Metric::L2 => data,
            Metric::Cosine => {
                owned = data.chunks(dim).flat_map(normalize).collect::<Vec<f32>>();
                &owned
            }
        };
        let pq = ProductQuantizer::train(train_data, dim, m, ksub, seed);
        let mut ix = PqIndex::new(pq, metric);
        // Rows are already normalized where needed; encode them directly.
        for v in train_data.chunks(dim) {
            let _ = ix.push_code(v);
        }
        ix
    }

    pub fn quantizer(&self) -> &ProductQuantizer {
        &self.pq
    }

    /// Distance function probes rank under.
    pub fn metric(&self) -> Metric {
        self.metric
    }

    /// Encode an already-prepared (normalized if cosine) vector.
    fn push_code(&mut self, v: &[f32]) -> u32 {
        let id = self.len() as u32;
        self.codes.extend_from_slice(&self.pq.encode(v));
        if self.metric == Metric::Cosine {
            self.zero_rows.push(is_zero(v));
        }
        id
    }

    pub fn len(&self) -> usize {
        self.codes.len() / self.pq.m
    }

    pub fn is_empty(&self) -> bool {
        self.codes.is_empty()
    }

    /// Bytes per stored vector.
    pub fn code_bytes(&self) -> usize {
        self.pq.m
    }

    pub fn add(&mut self, v: &[f32]) -> u32 {
        match self.metric {
            Metric::L2 => self.push_code(v),
            Metric::Cosine => self.push_code(&normalize(v)),
        }
    }

    /// Encode and append many packed vectors with the trained quantizer.
    pub fn add_batch(&mut self, flat: &[f32]) {
        crate::metric::assert_packed(flat.len(), self.pq.dim);
        for v in flat.chunks(self.pq.dim) {
            self.add(v);
        }
    }

    /// Approximate top-`k` by asymmetric distance. Under cosine, the query
    /// is normalized and the squared-L2 ADC value is halved so reported
    /// distances approximate `1 − cos` like the exact backends; zero
    /// vectors (stored or queried) score the exact backends' `1.0`
    /// convention, since "no direction" has no code.
    pub fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        let normalized;
        let (query, q_zero) = match self.metric {
            Metric::L2 => (query, false),
            Metric::Cosine => {
                normalized = normalize(query);
                (normalized.as_slice(), is_zero(&normalized))
            }
        };
        let tables = self.pq.distance_tables(query);
        let m = self.pq.m;
        let mut top = TopK::new(k);
        for (id, code) in self.codes.chunks(m).enumerate() {
            // 2.0 raw halves to the cosine convention of 1.0.
            let d = if q_zero || self.zero_rows.get(id).copied().unwrap_or(false) {
                2.0
            } else {
                self.pq.adc(&tables, code)
            };
            top.push(id as u32, d);
        }
        let mut hits = top.into_sorted();
        if self.metric == Metric::Cosine {
            for h in &mut hits {
                h.distance *= 0.5;
            }
        }
        hits
    }

    /// Parallel batch search; queries packed row-major.
    pub fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        assert_eq!(queries.len() % self.pq.dim, 0, "bad query batch");
        queries.par_chunks(self.pq.dim).map(|q| self.search(q, k)).collect()
    }

    /// Serialize the full trained state: codebooks, cached codebook
    /// norms, every code, and the cosine zero-row mask.
    pub(crate) fn snapshot_bytes(&self) -> Vec<u8> {
        let mut w = SnapshotWriter::new();
        w.put_usize(self.pq.dim);
        w.put_usize(self.pq.m);
        w.put_usize(self.pq.ksub);
        w.put_u8(snapshot::metric_code(self.metric));
        for cb in &self.pq.codebooks {
            w.put_f32_slice(cb);
        }
        for sq in &self.pq.codebook_sq {
            w.put_f32_slice(sq);
        }
        w.put_u8_slice(&self.codes);
        w.put_usize(self.zero_rows.len());
        for &z in &self.zero_rows {
            w.put_u8(z as u8);
        }
        w.into_bytes()
    }

    /// Rebuild from [`PqIndex::snapshot_bytes`] output. Codebooks and
    /// codes are restored verbatim — no retraining, no re-encoding — so
    /// a loaded index scores ADC bitwise like the saved one.
    pub(crate) fn from_snapshot_bytes(bytes: &[u8]) -> Result<PqIndex, SnapshotError> {
        let mut r = SnapshotReader::new(bytes);
        let dim = r.get_usize()?;
        let m = r.get_usize()?;
        let ksub = r.get_usize()?;
        let metric = snapshot::metric_from_code(r.get_u8()?)?;
        if dim == 0 || m == 0 || !dim.is_multiple_of(m) || ksub == 0 || ksub > 256 {
            return Err(SnapshotError::Corrupt("pq shape"));
        }
        let dsub = dim / m;
        let mut codebooks = Vec::with_capacity(m);
        for _ in 0..m {
            let cb = r.get_f32_slice()?;
            if cb.len() != ksub * dsub {
                return Err(SnapshotError::Corrupt("pq codebook shape"));
            }
            codebooks.push(cb);
        }
        let mut codebook_sq = Vec::with_capacity(m);
        for _ in 0..m {
            let sq = r.get_f32_slice()?;
            if sq.len() != ksub {
                return Err(SnapshotError::Corrupt("pq codebook norm shape"));
            }
            codebook_sq.push(sq);
        }
        let codes = r.get_u8_slice()?;
        let n_zero = r.get_usize()?;
        let mut zero_rows = Vec::with_capacity(n_zero.min(codes.len()));
        for _ in 0..n_zero {
            zero_rows.push(r.get_u8()? != 0);
        }
        r.finish()?;
        if !codes.len().is_multiple_of(m) {
            return Err(SnapshotError::Corrupt("pq code bytes not a multiple of m"));
        }
        let n = codes.len() / m;
        if codes.iter().any(|&c| c as usize >= ksub) {
            return Err(SnapshotError::Corrupt("pq code past codebook size"));
        }
        match metric {
            Metric::Cosine if zero_rows.len() != n => {
                return Err(SnapshotError::Corrupt("pq zero-row mask length"));
            }
            Metric::L2 if !zero_rows.is_empty() => {
                return Err(SnapshotError::Corrupt("pq zero-row mask under l2"));
            }
            _ => {}
        }
        let pq = ProductQuantizer { dim, m, ksub, codebooks, codebook_sq };
        Ok(PqIndex { pq, metric, codes, zero_rows })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::flat::FlatIndex;
    use crate::metric::sq_l2;
    use crate::metric::Metric;
    use rand::Rng;

    fn random_data(n: usize, dim: usize, seed: u64) -> Vec<f32> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..n * dim).map(|_| rng.gen_range(-1.0f32..1.0)).collect()
    }

    #[test]
    fn decode_of_encode_is_close() {
        let dim = 16;
        let data = random_data(400, dim, 11);
        let pq = ProductQuantizer::train(&data, dim, 4, 64, 0);
        let v = &data[0..dim];
        let rec = pq.decode(&pq.encode(v));
        let err = sq_l2(v, &rec);
        let norm = sq_l2(v, &vec![0.0; dim]);
        assert!(err < norm, "reconstruction no better than zero vector");
    }

    #[test]
    fn adc_equals_distance_to_decoded() {
        let dim = 8;
        let data = random_data(300, dim, 5);
        let pq = ProductQuantizer::train(&data, dim, 2, 32, 0);
        let q = &data[8..16];
        let code = pq.encode(&data[0..8]);
        let tables = pq.distance_tables(q);
        let adc = pq.adc(&tables, &code);
        let explicit = sq_l2(q, &pq.decode(&code));
        assert!((adc - explicit).abs() < 1e-4, "{adc} vs {explicit}");
    }

    #[test]
    fn pq_recall_against_flat() {
        let dim = 16;
        let data = random_data(1000, dim, 21);
        let pq = PqIndex::build(&data, dim, 8, 64, 0, Metric::L2);
        let mut flat = FlatIndex::new(dim, Metric::L2);
        flat.add_batch(&data);

        let mut overlap = 0;
        for qi in (0..1000).step_by(50) {
            let q = &data[qi * dim..(qi + 1) * dim];
            let exact: std::collections::HashSet<u32> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            overlap += pq.search(q, 10).iter().filter(|h| exact.contains(&h.id)).count();
        }
        let recall = overlap as f32 / 200.0;
        assert!(recall > 0.4, "PQ recall@10 {recall} too low");
    }

    #[test]
    fn code_size_is_m_bytes() {
        let dim = 8;
        let data = random_data(100, dim, 2);
        let pq = PqIndex::build(&data, dim, 4, 16, 0, Metric::L2);
        assert_eq!(pq.code_bytes(), 4);
        assert_eq!(pq.len(), 100);
    }

    #[test]
    fn cosine_recall_against_exact_cosine() {
        let dim = 16;
        let data = random_data(800, dim, 31);
        let pq = PqIndex::build(&data, dim, 8, 64, 0, Metric::Cosine);
        assert_eq!(pq.metric(), Metric::Cosine);
        let mut flat = FlatIndex::new(dim, Metric::Cosine);
        flat.add_batch(&data);

        let mut overlap = 0;
        for qi in (0..800).step_by(40) {
            let q = &data[qi * dim..(qi + 1) * dim];
            let exact: std::collections::HashSet<u32> =
                flat.search(q, 10).into_iter().map(|h| h.id).collect();
            overlap += pq.search(q, 10).iter().filter(|h| exact.contains(&h.id)).count();
        }
        let recall = overlap as f32 / 200.0;
        assert!(recall > 0.4, "PQ cosine recall@10 {recall} too low");
    }

    #[test]
    fn cosine_ranking_is_scale_invariant() {
        // Cosine only sees direction: scaling a query must not change the
        // returned ranking, and added vectors are normalized the same way
        // as built ones.
        let dim = 8;
        let data = random_data(300, dim, 33);
        let mut pq = PqIndex::build(&data, dim, 4, 32, 0, Metric::Cosine);
        let q: Vec<f32> = data[0..dim].to_vec();
        let scaled: Vec<f32> = q.iter().map(|x| x * 37.5).collect();
        // Normalizing q and 37.5·q differs by float rounding in the last
        // ulp, so compare the returned ids, not the raw distances.
        let ids = |hits: Vec<Hit>| hits.into_iter().map(|h| h.id).collect::<Vec<_>>();
        assert_eq!(ids(pq.search(&q, 5)), ids(pq.search(&scaled, 5)));

        let big: Vec<f32> = data[8 * dim..9 * dim].iter().map(|x| x * 100.0).collect();
        let id = pq.add(&big);
        // The rescaled duplicate of row 8 must rank where row 8 ranks.
        let hits = pq.search(&data[8 * dim..9 * dim], 10);
        let pos8 = hits.iter().position(|h| h.id == 8);
        let pos_new = hits.iter().position(|h| h.id == id);
        assert!(pos8.is_some() && pos_new.is_some(), "both copies retrieved: {hits:?}");
    }

    #[test]
    fn cosine_zero_vectors_score_the_exact_convention() {
        // Exact cosine reports 1.0 against a zero vector (no direction);
        // PQ must match so zero rows rank the same across backends.
        let dim = 8;
        let mut data = random_data(100, dim, 41);
        data[5 * dim..6 * dim].fill(0.0);
        let mut pq = PqIndex::build(&data, dim, 4, 32, 0, Metric::Cosine);
        let hits = pq.search(&data[0..dim], 100);
        let zero_hit = hits.iter().find(|h| h.id == 5).unwrap();
        assert!((zero_hit.distance - 1.0).abs() < 1e-6, "stored zero row: {zero_hit:?}");

        // Zero rows added after build get the same treatment.
        let id = pq.add(&vec![0.0; dim]);
        let hits = pq.search(&data[0..dim], 101);
        let added = hits.iter().find(|h| h.id == id).unwrap();
        assert!((added.distance - 1.0).abs() < 1e-6, "appended zero row: {added:?}");

        // A zero query is 1.0 from everything, ties broken by id.
        let hits = pq.search(&vec![0.0; dim], 3);
        assert!(hits.iter().all(|h| (h.distance - 1.0).abs() < 1e-6), "{hits:?}");
        assert_eq!(hits.iter().map(|h| h.id).collect::<Vec<_>>(), vec![0, 1, 2]);
    }

    #[test]
    fn cosine_distances_on_one_minus_cos_scale() {
        let dim = 8;
        let data = random_data(200, dim, 35);
        let pq = PqIndex::build(&data, dim, 4, 64, 0, Metric::Cosine);
        for h in pq.search(&data[0..dim], 20) {
            // 1 - cos lies in [0, 2]; quantization error keeps ADC close.
            assert!(h.distance >= -0.1 && h.distance <= 2.1, "off-scale distance {h:?}");
        }
    }

    #[test]
    #[should_panic(expected = "must divide dim")]
    fn bad_m_panics() {
        let data = random_data(10, 6, 1);
        let _ = ProductQuantizer::train(&data, 6, 4, 8, 0);
    }
}
