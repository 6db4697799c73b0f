//! DIAL system configuration.

use dial_ann::{HnswParams, IndexSpec, IvfParams, PqParams};
use dial_tplm::TplmConfig;
use std::path::PathBuf;

/// Which embeddings feed the nearest-neighbour blocker (paper §4.3).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum BlockingStrategy {
    /// DIAL's Index-By-Committee over contrastively trained committee
    /// embeddings (§3.2).
    Dial,
    /// Single-mode embeddings of the *pre-trained* TPLM, indexed once and
    /// never updated.
    PairedFixed,
    /// Single-mode embeddings of the matcher-fine-tuned TPLM, re-indexed
    /// every round.
    PairedAdapt,
    /// SentenceBERT-style blocking (DITTO's "advanced blocking"): a
    /// `(u, v, |u-v|)` classification head trained on the labeled pairs;
    /// its input projection defines the indexed embeddings.
    SentenceBert,
    /// Fixed hand-crafted rule candidates (no embedding index).
    Rules,
}

/// Training data for the blocker's negative pairs (§3.2.2, Table 4).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum NegativeSource {
    /// Random records from `R` and `S` — DIAL's choice.
    #[default]
    Random,
    /// The hard actively-labeled negatives `T − Tp`.
    Labeled,
}

/// Blocker training objective (§3.2.3, Table 5).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum BlockerObjective {
    /// InfoNCE-style contrastive loss (Eq. 8) — DIAL's choice.
    #[default]
    Contrastive,
    /// Margin-based triplet loss (Tracz et al. 2020), margin 1, no hard
    /// negative mining.
    Triplet,
    /// Binary cross-entropy separating duplicates from non-duplicates
    /// (SentenceBERT-style).
    Classification,
}

/// Example-selection strategy (§2.3, §4.7).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum SelectionStrategy {
    /// Entropy of the matcher probability (Eq. 4) — the default.
    #[default]
    Uncertainty,
    /// Uniformly random from the candidate set.
    Random,
    /// Most similar pairs first (smallest embedding distance).
    Greedy,
    /// Soft query-by-committee disagreement over a bootstrap committee of
    /// matcher heads.
    Qbc,
    /// High-confidence sampling with partition, querying only the
    /// low-confidence halves.
    Partition2,
    /// Partition variant querying all four subsets.
    Partition4,
    /// BADGE: k-means++ on hallucinated gradient embeddings.
    Badge,
}

/// Which ANN index family backs nearest-neighbour retrieval — the
/// FAISS-style deployment knob of §5.4. `Flat` is exact and the default;
/// the approximate families trade blocker recall for probe latency and are
/// selected per run (config, `REPRO_BACKEND`, or the `repro --backend`
/// flag) without touching retrieval code, which goes through
/// [`dial_ann::AnnIndex`].
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub enum IndexBackend {
    /// Exact brute-force scan (pre-refactor behavior, bit-for-bit).
    #[default]
    Flat,
    /// IVF-Flat: scan only the `nprobe` of `nlist` k-means cells nearest
    /// each probe.
    IvfFlat { nlist: usize, nprobe: usize },
    /// Product quantization with `m` subspaces of `2^nbits` codes, scored
    /// by asymmetric distance computation.
    Pq { m: usize, nbits: u8 },
    /// HNSW graph with degree `m` and search beam `ef_search`.
    Hnsw { m: usize, ef_search: usize },
    /// Size-heuristic family choice, resolved per run against the row
    /// count of the indexed list ([`IndexBackend::resolve`]): exact
    /// `Flat` below [`IndexBackend::AUTO_FLAT_MAX`] rows, `IvfFlat` with
    /// `nlist = √n` above.
    Auto,
}

impl IndexBackend {
    /// Row count below which [`IndexBackend::Auto`] picks the exact flat
    /// scan; at this size a blocked brute-force probe is cheaper than an
    /// IVF build + coarse quantization, and it keeps blocker recall
    /// exact. Above it, Auto trades exactness for `nlist = √n` inverted
    /// lists.
    pub const AUTO_FLAT_MAX: usize = 50_000;

    /// Safety margin of the shard cost model: splitting must save at
    /// least this many times the merge overhead it adds before
    /// [`IndexBackend::auto_shards`] will take it. A wide margin keeps
    /// the pick stable against micro-measurement noise — near the
    /// break-even point the two sides of the inequality are within the
    /// timer's jitter, and a margin of 4 puts the decision boundary well
    /// outside it.
    pub const SHARD_MERGE_SAFETY: f64 = 4.0;

    /// Shard count for an auto-tuned run, from an explicit cost model:
    /// the largest `s ≤ workers` whose per-shard scan work still
    /// outweighs the merge overhead it adds —
    /// `(n/s)·scan ≥ SHARD_MERGE_SAFETY · s · merge` — or `1` when no
    /// split pays for itself. Replaces the old static 25k-row-per-shard
    /// floor, which encoded one machine's break-even point as a
    /// universal constant: on hosts where `merge_topk` is cheap relative
    /// to the scan the floor under-sharded, and vice versa.
    /// Deterministic in its four arguments — the calibration determinism
    /// guarantee includes the shard pick.
    pub fn auto_shards_with_model(
        n_rows: usize,
        workers: usize,
        scan_ns_per_row: f64,
        merge_ns_per_list: f64,
    ) -> usize {
        if n_rows == 0 || workers <= 1 {
            return 1;
        }
        let scan = scan_ns_per_row.max(f64::MIN_POSITIVE);
        let merge = merge_ns_per_list.max(0.0);
        (2..=workers)
            .rev()
            .find(|&s| {
                (n_rows as f64 / s as f64) * scan >= Self::SHARD_MERGE_SAFETY * s as f64 * merge
            })
            .unwrap_or(1)
    }

    /// [`IndexBackend::auto_shards_with_model`] fed by a one-time
    /// micro-measurement of this host's actual per-row scan cost and
    /// per-list `merge_topk` cost (cached for the process, so every pick
    /// in a run sees the same model and stays deterministic in
    /// `(n_rows, workers)`).
    pub fn auto_shards(n_rows: usize, workers: usize) -> usize {
        let (scan, merge) = measured_shard_costs();
        Self::auto_shards_with_model(n_rows, workers, scan, merge)
    }

    /// Resolve the `Auto` heuristic against the row count the index will
    /// hold; concrete backends return themselves unchanged. `Auto` picks
    /// `Flat` below [`IndexBackend::AUTO_FLAT_MAX`] rows and
    /// `IvfFlat { nlist: √n, nprobe: max(1, nlist/8) }` at or above it.
    ///
    /// For a sharded run, resolve against the rows one *shard* holds
    /// ([`IndexBackend::resolve_sharded`]), not the total — each child
    /// index only ever sees `n/shards` rows.
    pub fn resolve(self, n_rows: usize) -> IndexBackend {
        match self {
            IndexBackend::Auto => {
                if n_rows < Self::AUTO_FLAT_MAX {
                    IndexBackend::Flat
                } else {
                    let nlist = (n_rows as f64).sqrt() as usize;
                    IndexBackend::IvfFlat { nlist, nprobe: (nlist / 8).max(1) }
                }
            }
            b => b,
        }
    }

    /// [`IndexBackend::resolve`] for a sharded run: the family is chosen
    /// per *shard* — `n_rows` total rows split round-robin leave each
    /// shard `⌈n/shards⌉` at most, and that is the population whose size
    /// decides flat-vs-IVF (and sizes `nlist = √rows`). Resolving
    /// against the total used to make a 120k-row `auto@4` pick IVF even
    /// though every 30k-row shard sits well under
    /// [`IndexBackend::AUTO_FLAT_MAX`].
    pub fn resolve_sharded(self, n_rows: usize, shards: usize) -> IndexBackend {
        self.resolve(n_rows.div_ceil(shards.max(1)))
    }

    /// [`IndexBackend::label`], but `Auto` reports the concrete family it
    /// resolves to at `n_rows` — `auto(flat)`, `auto(ivf:316,39)` — so a
    /// sweep row never hides which index actually ran.
    pub fn resolved_label(&self, n_rows: usize) -> String {
        self.resolved_label_sharded(n_rows, 1)
    }

    /// [`IndexBackend::resolved_label`] for a sharded run: the family in
    /// the parentheses is the per-shard resolution, suffixed with the
    /// shard count — `auto(flat@4)`, `auto(ivf:273,34@4)`.
    pub fn resolved_label_sharded(&self, n_rows: usize, shards: usize) -> String {
        match self {
            IndexBackend::Auto => {
                format!("auto({})", self.resolve_sharded(n_rows, shards).label_sharded(shards))
            }
            b => b.label_sharded(shards),
        }
    }

    /// Default-parameter instance of every backend, for sweeps.
    pub fn presets() -> [IndexBackend; 4] {
        [
            IndexBackend::Flat,
            IndexBackend::IvfFlat { nlist: 64, nprobe: 8 },
            IndexBackend::Pq { m: 8, nbits: 6 },
            IndexBackend::Hnsw { m: 16, ef_search: 48 },
        ]
    }

    /// Parse a CLI/env value: `flat`, `ivf[:nlist[,nprobe]]`,
    /// `pq[:m[,nbits]]`, or `hnsw[:m[,ef_search]]` (family names are
    /// case-insensitive; `ivf-flat`/`ivf_flat` are accepted). Sharded
    /// specs (`<family>@<shards>`) are rejected here — use
    /// [`IndexBackend::parse_sharded`] when the caller can carry the
    /// shard count.
    pub fn parse(s: &str) -> Option<IndexBackend> {
        let s = s.trim().to_ascii_lowercase();
        let (family, params) = match s.split_once(':') {
            Some((f, p)) => (f, Some(p)),
            None => (s.as_str(), None),
        };
        let nums: Vec<usize> = match params {
            None => Vec::new(),
            Some(p) => p.split(',').map(|x| x.trim().parse().ok()).collect::<Option<_>>()?,
        };
        // Reject surplus parameters (and any parameters for flat/auto) so
        // a typo'd spec errors instead of silently running something else.
        if nums.len() > if matches!(family, "flat" | "auto") { 0 } else { 2 } {
            return None;
        }
        let get = |i: usize, default: usize| nums.get(i).copied().unwrap_or(default);
        // Reject parameter values validate() would panic on, so the CLI
        // surfaces a clean usage error instead of a backtrace.
        let backend = match family {
            "flat" => IndexBackend::Flat,
            "auto" => IndexBackend::Auto,
            "ivf" | "ivf-flat" | "ivf_flat" | "ivfflat" => {
                IndexBackend::IvfFlat { nlist: get(0, 64), nprobe: get(1, 8) }
            }
            "pq" => {
                let nbits = get(1, 6);
                if !(1..=8).contains(&nbits) {
                    return None;
                }
                IndexBackend::Pq { m: get(0, 8), nbits: nbits as u8 }
            }
            "hnsw" => IndexBackend::Hnsw { m: get(0, 16), ef_search: get(1, 48) },
            _ => return None,
        };
        match backend {
            IndexBackend::IvfFlat { nlist, nprobe } if nlist == 0 || nprobe == 0 => None,
            IndexBackend::Pq { m: 0, .. } => None,
            IndexBackend::Hnsw { m, ef_search } if m < 2 || ef_search == 0 => None,
            b => Some(b),
        }
    }

    /// Parse a backend spec with an optional `@<shards>` suffix, e.g.
    /// `ivf:16,4@8` or `flat@4`. Returns the family plus the shard count
    /// (1 when the suffix is absent); a zero shard count is rejected.
    pub fn parse_sharded(s: &str) -> Option<(IndexBackend, usize)> {
        match s.split_once('@') {
            None => IndexBackend::parse(s).map(|b| (b, 1)),
            Some((family, shards)) => {
                let shards: usize = shards.trim().parse().ok()?;
                if shards == 0 {
                    return None;
                }
                IndexBackend::parse(family).map(|b| (b, shards))
            }
        }
    }

    /// Short label for report rows.
    pub fn label(&self) -> String {
        match self {
            IndexBackend::Flat => "flat".into(),
            IndexBackend::IvfFlat { nlist, nprobe } => format!("ivf:{nlist},{nprobe}"),
            IndexBackend::Pq { m, nbits } => format!("pq:{m},{nbits}"),
            IndexBackend::Hnsw { m, ef_search } => format!("hnsw:{m},{ef_search}"),
            IndexBackend::Auto => "auto".into(),
        }
    }

    /// Label including the shard count (`flat@4`); plain [`Self::label`]
    /// when unsharded, so existing report rows are unchanged.
    pub fn label_sharded(&self, shards: usize) -> String {
        if shards > 1 {
            format!("{}@{shards}", self.label())
        } else {
            self.label()
        }
    }

    /// Resolve to a `dial-ann` build spec. `seed` keys quantizer/graph
    /// training so runs stay deterministic per [`DialConfig::seed`].
    ///
    /// Panics on [`IndexBackend::Auto`]: the heuristic needs a row count,
    /// so resolve it first ([`IndexBackend::resolve`] /
    /// [`DialConfig::index_spec_for`]).
    pub fn spec(&self, seed: u64) -> IndexSpec {
        match *self {
            IndexBackend::Auto => {
                panic!("IndexBackend::Auto must be resolved against a row count before spec()")
            }
            IndexBackend::Flat => IndexSpec::Flat,
            IndexBackend::IvfFlat { nlist, nprobe } => IndexSpec::IvfFlat(IvfParams {
                nlist,
                nprobe,
                seed: seed ^ 0x1d1a11,
                ..Default::default()
            }),
            IndexBackend::Pq { m, nbits } => {
                IndexSpec::Pq(PqParams { m, nbits, seed: seed ^ 0x1d1a12 })
            }
            IndexBackend::Hnsw { m, ef_search } => IndexSpec::Hnsw(HnswParams {
                m,
                ef_search,
                seed: seed ^ 0x1d1a13,
                ..Default::default()
            }),
        }
    }

    /// Resolve to a build spec wrapped into `shards` round-robin shards.
    /// `shards <= 1` returns the plain family spec, keeping the default
    /// single-shard path bit-for-bit identical to pre-sharding behavior.
    pub fn spec_sharded(&self, seed: u64, shards: usize) -> IndexSpec {
        let inner = self.spec(seed);
        if shards > 1 {
            inner.sharded(shards)
        } else {
            inner
        }
    }
}

/// One-time micro-measurement behind [`IndexBackend::auto_shards`]:
/// `(scan_ns_per_row, merge_ns_per_list)` on this host. The scan side
/// times a blocked flat probe over a small synthetic corpus (the same
/// kernel a shard scans with); the merge side times [`merge_topk`] over
/// the per-shard hit lists a fan-out produces. Both are amortized over
/// enough repetitions that the quantities land well above timer
/// granularity, and the result is cached for the process.
fn measured_shard_costs() -> (f64, f64) {
    use dial_ann::{merge_topk, FlatIndex, Hit, Metric};
    use std::sync::OnceLock;
    use std::time::Instant;
    static COSTS: OnceLock<(f64, f64)> = OnceLock::new();
    *COSTS.get_or_init(|| {
        const DIM: usize = 32;
        const ROWS: usize = 2_048;
        const QUERIES: usize = 16;
        const K: usize = 10;
        // Deterministic synthetic rows (a Weyl sequence — no RNG needed;
        // the kernel's cost does not depend on the values).
        let data: Vec<f32> = (0..ROWS * DIM)
            .map(|i| (i.wrapping_mul(2_654_435_761) % 10_000) as f32 / 10_000.0)
            .collect();
        let mut ix = FlatIndex::new(DIM, Metric::L2);
        ix.add_batch(&data);
        let queries = &data[..QUERIES * DIM];
        let hits = ix.search_batch(queries, K); // warm the cache once
        let t = Instant::now();
        let _ = ix.search_batch(queries, K);
        let scan_ns = t.elapsed().as_nanos() as f64 / (QUERIES * ROWS) as f64;
        // Merge cost: combine 8 per-shard top-k lists, many times over.
        const LISTS: usize = 8;
        const REPS: usize = 2_000;
        let lists: Vec<Vec<Hit>> = (0..LISTS)
            .map(|l| {
                (0..K)
                    .map(|i| Hit {
                        id: (l * K + i) as u32,
                        distance: hits[0].get(i).map_or(i as f32, |h| h.distance),
                    })
                    .collect()
            })
            .collect();
        let t = Instant::now();
        for _ in 0..REPS {
            std::hint::black_box(merge_topk(std::hint::black_box(&lists), K));
        }
        let merge_ns = t.elapsed().as_nanos() as f64 / (REPS * LISTS) as f64;
        (scan_ns.max(1e-3), merge_ns.max(1e-3))
    })
}

/// Candidate-set size policy (§4.6.3, Table 6).
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum CandSize {
    /// `3 · |dups|` (uses gold cardinality; ablation only).
    Small,
    /// The per-dataset default: `3 · |S|` (or `20 · |S|` for Abt-Buy).
    Medium,
    /// `5 · |S|` (or `20 · |S|` for Abt-Buy — "Large" in Table 6).
    Large,
    /// Explicit multiple of `|S|`.
    MultipleOfS(f64),
}

impl CandSize {
    /// Resolve to a pair count.
    pub fn resolve(self, s_len: usize, n_dups: usize, abt_buy_like: bool) -> usize {
        let n = match self {
            CandSize::Small => 3 * n_dups,
            CandSize::Medium => {
                if abt_buy_like {
                    20 * s_len
                } else {
                    3 * s_len
                }
            }
            CandSize::Large => {
                if abt_buy_like {
                    20 * s_len
                } else {
                    5 * s_len
                }
            }
            CandSize::MultipleOfS(m) => (m * s_len as f64).ceil() as usize,
        };
        n.max(1)
    }
}

/// Full configuration of one active-learning run.
#[derive(Debug, Clone)]
pub struct DialConfig {
    pub tplm: TplmConfig,
    /// Active-learning rounds (paper: 10).
    pub rounds: usize,
    /// Labeling budget per round (paper: 128).
    pub budget: usize,
    /// Initial seed positives / negatives (paper: 64 / 64).
    pub seed_pos: usize,
    pub seed_neg: usize,
    /// Matcher fine-tuning epochs per round (paper: 20).
    pub matcher_epochs: usize,
    /// Committee training epochs per round (paper: 200).
    pub blocker_epochs: usize,
    /// Mini-batch size (paper: 16).
    pub batch_size: usize,
    /// Trunk learning rate. The paper uses 3e-5 for RoBERTa; the mini
    /// transformer trains from a much shallower pre-trained prior and needs
    /// a proportionally larger step (see DESIGN.md §5).
    pub lr_trunk: f32,
    /// Matcher-head learning rate (paper: 1e-3).
    pub lr_head: f32,
    /// Committee / SBERT-blocker learning rate.
    pub lr_committee: f32,
    /// Committee size `N` (paper: 3).
    pub committee: usize,
    /// Committee mask keep-probability `p` (paper: 0.5).
    pub mask_p: f32,
    /// Neighbours retrieved per probe `k` (paper: 3; 20 for Abt-Buy).
    pub k: usize,
    /// Candidate-set size policy.
    pub cand_size: CandSize,
    /// ANN backend for all embedding retrieval (Index-By-Committee and the
    /// single-index strategies).
    pub index_backend: IndexBackend,
    /// Storage format for the scan rows of flat/IVF retrieval indexes
    /// (f32 by default; f16/bf16 halve the scan footprint, ranking
    /// against the decoded rows — see `dial_ann::RowFormat`). Quantized
    /// and graph backends ignore it.
    pub row_format: dial_ann::RowFormat,
    /// Round-robin shard count for every retrieval index: `1` (default)
    /// builds one index per committee member exactly as before; `n > 1`
    /// splits each member's rows across `n` child indexes built
    /// concurrently and merges per-shard top-k at probe time
    /// (`Sharded(Flat, n)` retrieves identically to `Flat`).
    pub index_shards: usize,
    /// Incremental re-indexing gate for the persistent retrieval engine.
    /// A member whose rows are bitwise unchanged always keeps its index.
    /// Otherwise, when the mean cosine shift of its embeddings against
    /// the cached previous round is at or below this threshold, the
    /// engine asks the index to refresh in place — which only the flat
    /// families (Flat, Sharded over Flat) accept, because for them it is
    /// bitwise a rebuild; every other family rebuilds. `0.0` (the
    /// default) admits appended rows only; positive values also admit
    /// row overwrites. Retrieval is bitwise a from-scratch build at
    /// every threshold, so this only trades indexing work.
    pub incremental_threshold: f64,
    /// Close the auto-tuning loop from *observed* metrics: when on, the
    /// retrieval engine runs a calibration stage on the first round (and
    /// again after quantizer-invalidating rebuilds) — a held-out sample
    /// of `S` is probed against the exact flat ground truth and the IVF
    /// `nprobe` is raised until marginal recall@k flattens or
    /// [`DialConfig::tune_recall_target`] is met, never choosing worse
    /// recall than the static heuristic's default width. With the `Auto`
    /// backend and no explicit `--shards`, the shard count is also
    /// picked from worker-thread count and per-shard size
    /// ([`IndexBackend::auto_shards`]) instead of the CLI value. Off by
    /// default: the static size heuristic's candidate sets are
    /// reproduced bit-for-bit.
    pub auto_tune: bool,
    /// Recall@k the calibration sweep aims for before it stops raising
    /// `nprobe` (the sweep also stops when marginal recall flattens, and
    /// never settles below the static default's measured recall).
    pub tune_recall_target: f64,
    /// Held-out probes of `S` the calibration stage measures recall and
    /// latency over (clamped to `|S|`).
    pub tune_sample: usize,
    /// In-flight depth of the committee build/probe pipeline: member
    /// `i`'s index build overlaps member `i-1`'s probes through a bounded
    /// channel holding at most this many built indexes. `0` disables the
    /// overlap (strictly sequential build-then-probe per member); the
    /// retrieved candidate set is identical either way.
    pub pipeline_depth: usize,
    /// Treat the dataset as Abt-Buy-like (small `|S|`: larger `cand`, `k`).
    pub abt_buy_like: bool,
    pub blocking: BlockingStrategy,
    pub negatives: NegativeSource,
    pub objective: BlockerObjective,
    pub selection: SelectionStrategy,
    /// Directory for versioned member-index snapshots: after the first
    /// round's retrieval the engine persists every committee member's
    /// trained index (and the exact rows it indexed) here, written on a
    /// background thread that overlaps the selection stage. `None` (the
    /// default) disables persistence entirely.
    pub snapshot_dir: Option<PathBuf>,
    /// Load member snapshots from [`DialConfig::snapshot_dir`] at run
    /// start (on a background thread overlapping round-0 committee
    /// training) and warm-start the retrieval engine from them. A
    /// snapshot that is corrupt, truncated, or was written under a
    /// different index spec / embedding width / row format is rejected
    /// with a warning and the run falls back to a cold build; a loaded
    /// snapshot whose rows no longer match the fresh embeddings is
    /// rebuilt by the engine's bitwise row comparison — either way the
    /// warm run's retrievals are bit-for-bit the cold run's.
    pub warm_start: bool,
    /// Freeze the TPLM trunk during matcher training (the paper does this
    /// for the multilingual dataset, §4.5).
    pub freeze_trunk: bool,
    /// Skip-gram pre-training passes (the "pre-trained" prior; 0 disables).
    pub pretrain_epochs: usize,
    /// Base RNG seed for the run.
    pub seed: u64,
}

impl Default for DialConfig {
    fn default() -> Self {
        DialConfig {
            tplm: TplmConfig::default(),
            rounds: 6,
            budget: 32,
            seed_pos: 24,
            seed_neg: 24,
            matcher_epochs: 40,
            blocker_epochs: 10,
            batch_size: 16,
            lr_trunk: 3e-3,
            lr_head: 3e-2,
            lr_committee: 1e-3,
            committee: 3,
            mask_p: 0.5,
            k: 3,
            cand_size: CandSize::Medium,
            index_backend: IndexBackend::Flat,
            row_format: dial_ann::RowFormat::F32,
            index_shards: 1,
            incremental_threshold: 0.0,
            auto_tune: false,
            tune_recall_target: 0.95,
            tune_sample: 256,
            pipeline_depth: 2,
            abt_buy_like: false,
            blocking: BlockingStrategy::Dial,
            negatives: NegativeSource::Random,
            objective: BlockerObjective::Contrastive,
            selection: SelectionStrategy::Uncertainty,
            snapshot_dir: None,
            warm_start: false,
            freeze_trunk: false,
            pretrain_epochs: 2,
            seed: 0,
        }
    }
}

impl DialConfig {
    /// A configuration small enough for integration tests: one round, tiny
    /// model, few epochs.
    pub fn smoke() -> Self {
        DialConfig {
            tplm: TplmConfig {
                vocab_size: 2048 + 5,
                d_model: 32,
                n_layers: 1,
                n_heads: 2,
                d_ff: 64,
                max_len: 48,
                dropout: 0.0,
                seed: 0,
            },
            rounds: 2,
            budget: 8,
            seed_pos: 8,
            seed_neg: 8,
            matcher_epochs: 20,
            blocker_epochs: 8,
            batch_size: 8,
            committee: 2,
            pretrain_epochs: 1,
            ..Default::default()
        }
    }

    /// The ANN build spec this configuration retrieves through: the
    /// backend family seeded from [`DialConfig::seed`], wrapped into
    /// [`DialConfig::index_shards`] round-robin shards when sharding is
    /// on. Panics on [`IndexBackend::Auto`] (no row count to resolve the
    /// heuristic against) — runs that may carry `auto` should use
    /// [`DialConfig::index_spec_for`].
    pub fn index_spec(&self) -> dial_ann::IndexSpec {
        self.index_backend.spec_sharded(self.seed, self.index_shards)
    }

    /// The shard count a run over `n_rows` rows actually uses: the
    /// configured [`DialConfig::index_shards`], unless auto-tuning is on
    /// with the `Auto` backend and no explicit sharding — then the count
    /// comes from the worker-thread count and the measured scan-vs-merge
    /// cost model
    /// ([`IndexBackend::auto_shards`]).
    pub fn resolved_shards(&self, n_rows: usize) -> usize {
        if self.auto_tune && self.index_shards <= 1 && self.index_backend == IndexBackend::Auto {
            IndexBackend::auto_shards(n_rows, rayon::current_num_threads())
        } else {
            self.index_shards
        }
    }

    /// [`DialConfig::index_spec`] with [`IndexBackend::Auto`] resolved
    /// against `n_rows`, the row count of the list being indexed (`|R|`
    /// in the AL loop — every retrieval index holds one view of `R`).
    /// The construction point the AL loop uses. Under sharding, `Auto`
    /// resolves against the rows one shard will hold
    /// ([`IndexBackend::resolve_sharded`]), so `auto@4` over 120k rows
    /// builds four exact 30k-row shards instead of four undersized IVF
    /// ones, and per-shard `nlist` is sized from per-shard rows.
    pub fn index_spec_for(&self, n_rows: usize) -> dial_ann::IndexSpec {
        let shards = self.resolved_shards(n_rows);
        self.index_backend.resolve_sharded(n_rows, shards).spec_sharded(self.seed, shards)
    }

    /// Validate cross-field invariants.
    pub fn validate(&self) {
        self.tplm.validate();
        assert!(self.rounds >= 1, "need at least one AL round");
        assert!(self.batch_size >= 2, "batch size must allow negatives");
        assert!(self.committee >= 1, "committee size must be >= 1");
        assert!((0.0..=1.0).contains(&self.mask_p), "mask_p out of range");
        assert!(self.k >= 1, "k must be >= 1");
        assert!(self.index_shards >= 1, "index_shards must be >= 1");
        assert!(
            self.incremental_threshold >= 0.0 && self.incremental_threshold.is_finite(),
            "incremental_threshold must be finite and >= 0"
        );
        assert!(
            self.tune_recall_target > 0.0 && self.tune_recall_target <= 1.0,
            "tune_recall_target must be in (0, 1]"
        );
        assert!(self.tune_sample >= 1, "tune_sample must be >= 1");
        match self.index_backend {
            IndexBackend::Flat | IndexBackend::Auto => {}
            IndexBackend::IvfFlat { nlist, nprobe } => {
                assert!(nlist >= 1, "IVF nlist must be >= 1");
                assert!(nprobe >= 1, "IVF nprobe must be >= 1");
            }
            IndexBackend::Pq { m, nbits } => {
                assert!(m >= 1, "PQ m must be >= 1");
                assert!((1..=8).contains(&nbits), "PQ nbits must be in 1..=8");
                // IndexSpec::build would clamp a non-divisor m to keep the
                // trait usable on arbitrary data, but a DIAL run must not
                // silently measure different parameters than it reports.
                assert!(
                    self.tplm.d_model.is_multiple_of(m),
                    "PQ m={m} must divide d_model={} (a non-divisor would be clamped and the \
                     run mislabeled)",
                    self.tplm.d_model
                );
            }
            IndexBackend::Hnsw { m, ef_search } => {
                assert!(m >= 2, "HNSW m must be >= 2");
                assert!(ef_search >= 1, "HNSW ef_search must be >= 1");
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn defaults_validate() {
        DialConfig::default().validate();
        DialConfig::smoke().validate();
    }

    #[test]
    fn cand_size_resolution() {
        assert_eq!(CandSize::Small.resolve(1000, 50, false), 150);
        assert_eq!(CandSize::Medium.resolve(1000, 50, false), 3000);
        assert_eq!(CandSize::Medium.resolve(100, 50, true), 2000);
        assert_eq!(CandSize::Large.resolve(1000, 50, false), 5000);
        assert_eq!(CandSize::MultipleOfS(0.5).resolve(1000, 50, false), 500);
    }

    #[test]
    fn cand_size_never_zero() {
        assert_eq!(CandSize::Small.resolve(0, 0, false), 1);
    }

    #[test]
    fn backend_parsing() {
        assert_eq!(IndexBackend::parse("flat"), Some(IndexBackend::Flat));
        assert_eq!(IndexBackend::parse("FLAT"), Some(IndexBackend::Flat));
        assert_eq!(
            IndexBackend::parse("ivf"),
            Some(IndexBackend::IvfFlat { nlist: 64, nprobe: 8 })
        );
        assert_eq!(
            IndexBackend::parse("ivf:16,4"),
            Some(IndexBackend::IvfFlat { nlist: 16, nprobe: 4 })
        );
        assert_eq!(IndexBackend::parse("pq:4"), Some(IndexBackend::Pq { m: 4, nbits: 6 }));
        assert_eq!(
            IndexBackend::parse("hnsw:8,32"),
            Some(IndexBackend::Hnsw { m: 8, ef_search: 32 })
        );
        assert_eq!(IndexBackend::parse("faiss"), None);
        assert_eq!(IndexBackend::parse("ivf:x"), None);
        // Values validate() would reject must fail parse, not panic later.
        assert_eq!(IndexBackend::parse("ivf:0"), None);
        assert_eq!(IndexBackend::parse("ivf:64,0"), None);
        assert_eq!(IndexBackend::parse("pq:0"), None);
        assert_eq!(IndexBackend::parse("pq:4,0"), None);
        assert_eq!(IndexBackend::parse("pq:4,9"), None);
        assert_eq!(IndexBackend::parse("hnsw:1"), None);
        assert_eq!(IndexBackend::parse("hnsw:8,0"), None);
        // Surplus parameters are an error, not silently dropped.
        assert_eq!(IndexBackend::parse("flat:64"), None);
        assert_eq!(IndexBackend::parse("hnsw:16,48,200"), None);
        assert_eq!(IndexBackend::parse("ivf:64,8,2"), None);
    }

    #[test]
    fn auto_backend_parses_resolves_and_labels() {
        assert_eq!(IndexBackend::parse("auto"), Some(IndexBackend::Auto));
        assert_eq!(IndexBackend::parse("AUTO"), Some(IndexBackend::Auto));
        // The heuristic takes no parameters; a typo'd spec must error.
        assert_eq!(IndexBackend::parse("auto:4"), None);
        assert_eq!(IndexBackend::parse_sharded("auto@4"), Some((IndexBackend::Auto, 4)));
        // Below the flat ceiling: exact scan. At/above: IVF with √n lists.
        assert_eq!(IndexBackend::Auto.resolve(10_000), IndexBackend::Flat);
        assert_eq!(
            IndexBackend::Auto.resolve(1_000_000),
            IndexBackend::IvfFlat { nlist: 1000, nprobe: 125 }
        );
        // Concrete backends resolve to themselves.
        let hnsw = IndexBackend::Hnsw { m: 16, ef_search: 48 };
        assert_eq!(hnsw.resolve(1_000_000), hnsw);
        // Reports never hide the concrete family that actually ran.
        assert_eq!(IndexBackend::Auto.resolved_label(100), "auto(flat)");
        assert_eq!(IndexBackend::Auto.resolved_label(1_000_000), "auto(ivf:1000,125)");
        assert_eq!(hnsw.resolved_label(100), hnsw.label());
        // Auto validates and resolves through the config entry point.
        let cfg = DialConfig {
            index_backend: IndexBackend::Auto,
            index_shards: 2,
            ..DialConfig::smoke()
        };
        cfg.validate();
        assert_eq!(cfg.index_spec_for(100), IndexSpec::Flat.sharded(2));
    }

    #[test]
    #[should_panic(expected = "resolved against a row count")]
    fn auto_spec_without_row_count_panics() {
        IndexBackend::Auto.spec(0);
    }

    #[test]
    fn sharded_auto_resolves_per_shard_not_per_total() {
        // Regression: auto@4 over 120k rows used to resolve against the
        // total and pick IVF, though every 30k-row shard sits under the
        // flat ceiling.
        let cfg = DialConfig {
            index_backend: IndexBackend::Auto,
            index_shards: 4,
            ..DialConfig::smoke()
        };
        cfg.validate();
        assert_eq!(cfg.index_spec_for(120_000), IndexSpec::Flat.sharded(4));
        assert_eq!(
            IndexBackend::Auto.resolve_sharded(120_000, 4),
            IndexBackend::Flat,
            "per-shard population 30k < AUTO_FLAT_MAX must stay exact"
        );
        // Straddling the threshold: 300k over 4 shards is 75k per shard,
        // so IVF it is — with nlist sized from *per-shard* rows (√75000),
        // not from the 300k total (√300000 = 547).
        assert_eq!(
            IndexBackend::Auto.resolve_sharded(300_000, 4),
            IndexBackend::IvfFlat { nlist: 273, nprobe: 34 }
        );
        let spec = DialConfig {
            index_backend: IndexBackend::Auto,
            index_shards: 4,
            seed: 0,
            ..DialConfig::smoke()
        }
        .index_spec_for(300_000);
        match &spec {
            IndexSpec::Sharded { inner, shards: 4 } => match inner.as_ref() {
                IndexSpec::IvfFlat(p) => assert_eq!((p.nlist, p.nprobe), (273, 34)),
                other => panic!("expected per-shard IVF, got {other:?}"),
            },
            other => panic!("expected a 4-way sharded spec, got {other:?}"),
        }
        // Unsharded resolution is unchanged from the pre-tuner heuristic.
        assert_eq!(
            IndexBackend::Auto.resolve_sharded(120_000, 1),
            IndexBackend::Auto.resolve(120_000)
        );
        // Exactly at the ceiling per shard: IVF, same as unsharded at n.
        assert_eq!(
            IndexBackend::Auto.resolve_sharded(2 * IndexBackend::AUTO_FLAT_MAX, 2),
            IndexBackend::Auto.resolve(IndexBackend::AUTO_FLAT_MAX)
        );
        // The sharded resolved label shows the per-shard family.
        assert_eq!(IndexBackend::Auto.resolved_label_sharded(120_000, 4), "auto(flat@4)");
        assert_eq!(IndexBackend::Auto.resolved_label_sharded(300_000, 4), "auto(ivf:273,34@4)");
    }

    #[test]
    fn shard_cost_model_picks_the_break_even_split() {
        use IndexBackend as B;
        // With scan = merge = 1 ns the inequality is n/s >= 4s, i.e.
        // s <= sqrt(n)/2: exact picks at synthetic costs.
        assert_eq!(B::auto_shards_with_model(1_000_000, 8, 1.0, 1.0), 8, "capped by workers");
        assert_eq!(B::auto_shards_with_model(256, 8, 1.0, 1.0), 8, "sqrt(256)/2 = 8 exactly");
        assert_eq!(B::auto_shards_with_model(255, 8, 1.0, 1.0), 7);
        assert_eq!(B::auto_shards_with_model(100, 8, 1.0, 1.0), 5);
        assert_eq!(B::auto_shards_with_model(15, 8, 1.0, 1.0), 1, "no split pays for itself");
        // A pricier merge shifts break-even toward fewer shards; a
        // pricier scan toward more.
        assert_eq!(B::auto_shards_with_model(100, 8, 1.0, 25.0), 1);
        assert_eq!(B::auto_shards_with_model(100, 8, 100.0, 1.0), 8);
        // Degenerate inputs never panic and never split.
        assert_eq!(B::auto_shards_with_model(0, 8, 1.0, 1.0), 1);
        assert_eq!(B::auto_shards_with_model(1_000_000, 0, 1.0, 1.0), 1);
        assert_eq!(B::auto_shards_with_model(1_000_000, 1, 1.0, 1.0), 1);
        assert_eq!(B::auto_shards_with_model(100, 8, 0.0, 0.0), 8, "zero costs still bounded");
    }

    #[test]
    fn auto_shards_is_bounded_monotone_and_deterministic() {
        use IndexBackend as B;
        // The measured model can land anywhere on a given host; what
        // must always hold: within [1, workers], monotone nondecreasing
        // in n (the process-cached costs are fixed), 1 on degenerate
        // input, and the same answer every call.
        let mut prev = 1usize;
        for n in [0usize, 1_000, 30_000, 120_000, 1_000_000, 10_000_000] {
            let s = B::auto_shards(n, 8);
            assert!((1..=8).contains(&s), "auto_shards({n}, 8) = {s} out of bounds");
            assert!(s >= prev, "more rows must never shard less ({n}: {s} < {prev})");
            assert_eq!(s, B::auto_shards(n, 8), "must be deterministic per process");
            prev = s;
        }
        assert_eq!(B::auto_shards(0, 8), 1);
        assert_eq!(B::auto_shards(1_000_000, 0), 1, "a zero worker count still shards once");
        assert_eq!(B::auto_shards(10_000_000, 4), 4, "a huge corpus saturates the workers");
    }

    #[test]
    fn auto_tune_shard_pick_only_engages_for_unsharded_auto() {
        let base = DialConfig {
            index_backend: IndexBackend::Auto,
            auto_tune: true,
            ..DialConfig::smoke()
        };
        base.validate();
        // Explicit sharding always wins over the heuristic.
        let explicit = DialConfig { index_shards: 3, ..base.clone() };
        assert_eq!(explicit.resolved_shards(1_000_000), 3);
        // A concrete backend never gets auto-sharded.
        let concrete = DialConfig { index_backend: IndexBackend::Flat, ..base.clone() };
        assert_eq!(concrete.resolved_shards(1_000_000), 1);
        // Unsharded Auto under --auto-tune picks from workers + cost model.
        let workers = rayon::current_num_threads();
        assert_eq!(base.resolved_shards(1_000_000), IndexBackend::auto_shards(1_000_000, workers));
        // With auto_tune off, index_spec_for reproduces the static
        // heuristic's spec bit-for-bit (shards stay at the CLI value).
        let off = DialConfig { auto_tune: false, ..base };
        assert_eq!(
            off.index_spec_for(10_000),
            IndexBackend::Auto.resolve(10_000).spec_sharded(off.seed, 1)
        );
    }

    #[test]
    #[should_panic(expected = "tune_recall_target")]
    fn out_of_range_recall_target_rejected() {
        DialConfig { tune_recall_target: 1.5, ..DialConfig::smoke() }.validate();
    }

    #[test]
    #[should_panic(expected = "tune_sample")]
    fn zero_tune_sample_rejected() {
        DialConfig { tune_sample: 0, ..DialConfig::smoke() }.validate();
    }

    #[test]
    #[should_panic(expected = "incremental_threshold")]
    fn negative_incremental_threshold_rejected() {
        DialConfig { incremental_threshold: -0.5, ..DialConfig::smoke() }.validate();
    }

    #[test]
    fn backend_labels_roundtrip_through_parse() {
        for b in IndexBackend::presets() {
            assert_eq!(IndexBackend::parse(&b.label()), Some(b), "{}", b.label());
        }
    }

    #[test]
    fn sharded_parsing_and_labels() {
        assert_eq!(IndexBackend::parse_sharded("flat"), Some((IndexBackend::Flat, 1)));
        assert_eq!(IndexBackend::parse_sharded("flat@4"), Some((IndexBackend::Flat, 4)));
        assert_eq!(
            IndexBackend::parse_sharded("ivf:16,4@8"),
            Some((IndexBackend::IvfFlat { nlist: 16, nprobe: 4 }, 8))
        );
        // Zero shards, junk counts, and junk families all fail cleanly.
        assert_eq!(IndexBackend::parse_sharded("flat@0"), None);
        assert_eq!(IndexBackend::parse_sharded("flat@x"), None);
        assert_eq!(IndexBackend::parse_sharded("faiss@2"), None);
        // The plain parser refuses sharded specs rather than mislabeling.
        assert_eq!(IndexBackend::parse("flat@4"), None);
        // Labels round-trip with and without the suffix.
        for b in IndexBackend::presets() {
            for shards in [1usize, 4] {
                assert_eq!(
                    IndexBackend::parse_sharded(&b.label_sharded(shards)),
                    Some((b, shards)),
                    "{}",
                    b.label_sharded(shards)
                );
            }
        }
        assert_eq!(IndexBackend::Flat.label_sharded(1), "flat", "no suffix at 1 shard");
    }

    #[test]
    fn spec_sharded_wraps_only_above_one() {
        use dial_ann::IndexSpec;
        assert_eq!(IndexBackend::Flat.spec_sharded(0, 1), IndexSpec::Flat);
        assert_eq!(
            IndexBackend::Flat.spec_sharded(0, 4),
            IndexSpec::Sharded { inner: Box::new(IndexSpec::Flat), shards: 4 }
        );
        let cfg = DialConfig { index_shards: 3, ..DialConfig::smoke() };
        assert_eq!(cfg.index_spec(), IndexSpec::Flat.sharded(3));
    }

    #[test]
    #[should_panic(expected = "index_shards")]
    fn zero_shards_rejected_by_validate() {
        DialConfig { index_shards: 0, ..DialConfig::smoke() }.validate();
    }

    #[test]
    fn all_backend_presets_validate() {
        for b in IndexBackend::presets() {
            DialConfig { index_backend: b, ..DialConfig::smoke() }.validate();
        }
    }

    #[test]
    #[should_panic(expected = "nbits")]
    fn zero_nbits_rejected() {
        DialConfig { index_backend: IndexBackend::Pq { m: 4, nbits: 0 }, ..DialConfig::smoke() }
            .validate();
    }
}
