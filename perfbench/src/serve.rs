//! The `serve-zipf` workload: an open-loop schedule of single-query
//! `QueryService::submit` calls at a fixed ladder of offered rates, with
//! index hot swaps beside the reads.
//!
//! Threads: one dispatch worker (`ServeConfig::default()`) whose scans
//! run on `nproc - 1` executor threads, plus a generator, a collector
//! and a swapper thread that sleep or block between events. Latency runs
//! from when a request was due to when its `Ticket::wait` returned; a
//! request that is rejected, shed or answered wrongly counts as missing
//! every latency limit.

use crate::sys::{self, median, percentile};
use crate::Outcome;
use dial_ann::{AnnIndex, FlatIndex, Hit, Metric};
use dial_core::{QueryService, ServeClock, ServeConfig, ServeError, ServeStats, Ticket};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{mpsc, Arc};
use std::time::{Duration, Instant};

/// Served index: rows × width (the committee embedding width).
const ROWS: usize = 50_000;
const DIM: usize = 64;
const K: usize = 10;
const CLUSTERS: usize = 256;
/// Query pool: four times the default result-cache capacity.
const POOL_PER_CACHE_ENTRY: usize = 4;
/// Latency limit on p99, and the deadline every request carries.
const SLO_US: f64 = 50_000.0;
/// The fixed ladder of offered rates (requests per second).
const LADDER_QPS: [f64; 5] = [500.0, 1_000.0, 4_000.0, 8_000.0, 16_000.0];
/// The rate `p50`/`p99` and the per-layer split are reported at.
const REFERENCE_QPS: f64 = 500.0;
/// Share of the run's seconds spent at the reference rate.
const REFERENCE_SHARE: f64 = 0.5;
/// Latency percentiles are taken per window of this many consecutive
/// requests (ten beyond the 99th percentile), and a step reports the
/// median over its windows, so one stall of the host does not decide
/// a step's tail.
const WINDOW: usize = 1_000;
/// Windows per ladder rung.
const RUNG_WINDOWS: usize = 3;
/// An index hot swap is due with every this many requests. Swapping by
/// request count keeps the cache hit rate the same at every offered rate.
const SWAP_EVERY: usize = 500;
const SETUP_REPEATS: usize = 3;
/// Gap between starting a step's threads and its first due request.
const START_DELAY_NS: u64 = 5_000_000;

/// The service clock: nanoseconds since the step's start, so `due`,
/// `admitted_ns` and `finished_ns` share one time line.
struct StepClock(Instant);

impl ServeClock for StepClock {
    fn now_ns(&self) -> u64 {
        self.0.elapsed().as_nanos() as u64
    }
}

/// An identical copy of the served index: installing one exercises the
/// hot-swap path (write lock, generation bump, cache invalidation)
/// without copying the rows.
struct SharedIndex(Arc<FlatIndex>);

impl AnnIndex for SharedIndex {
    fn dim(&self) -> usize {
        self.0.dim()
    }

    fn len(&self) -> usize {
        self.0.len()
    }

    fn metric(&self) -> Metric {
        self.0.metric()
    }

    fn add_batch(&mut self, _flat: &[f32]) {
        unreachable!("the served index is never grown")
    }

    fn search(&self, query: &[f32], k: usize) -> Vec<Hit> {
        self.0.search(query, k)
    }

    fn search_batch(&self, queries: &[f32], k: usize) -> Vec<Vec<Hit>> {
        self.0.search_batch(queries, k)
    }

    fn snapshot_blob(&self) -> (u8, Vec<u8>) {
        AnnIndex::snapshot_blob(&*self.0)
    }
}

/// Zipf(1.0) sampler over `0..n` by inverse CDF.
struct Zipf(Vec<f64>);

impl Zipf {
    fn new(n: usize) -> Self {
        let mut cum: Vec<f64> = (1..=n)
            .scan(0.0, |acc, i| {
                *acc += 1.0 / i as f64;
                Some(*acc)
            })
            .collect();
        let total = *cum.last().expect("non-empty pool");
        cum.iter_mut().for_each(|c| *c /= total);
        Zipf(cum)
    }

    fn sample(&self, rng: &mut StdRng) -> usize {
        let r: f64 = rng.gen_range(0.0..1.0);
        self.0.partition_point(|&c| c < r).min(self.0.len() - 1)
    }
}

struct Step {
    qps: f64,
    /// `(due ns from step start, pool index)` per request.
    schedule: Vec<(u64, usize)>,
}

impl Step {
    fn new(qps: f64, n: usize, pool: usize, seed: u64) -> Self {
        let zipf = Zipf::new(pool);
        let mut rng = StdRng::seed_from_u64(seed);
        let gap = 1e9 / qps;
        let schedule = (0..n).map(|i| ((i as f64 * gap) as u64, zipf.sample(&mut rng))).collect();
        Step { qps, schedule }
    }
}

/// Everything the workload serves: index, pool, steps, and the truth of
/// every query the steps draw.
struct Setup {
    index: Arc<FlatIndex>,
    pool: Vec<Arc<[f32]>>,
    reference: Step,
    ladder: Vec<Step>,
    truth: HashMap<usize, Vec<Hit>>,
}

fn clustered(count: usize, centers: &[f32], rng: &mut StdRng) -> Vec<f32> {
    (0..count)
        .flat_map(|i| {
            let c = &centers[(i % CLUSTERS) * DIM..(i % CLUSTERS + 1) * DIM];
            c.iter().map(|&x| x + rng.gen_range(-0.05f32..0.05)).collect::<Vec<f32>>()
        })
        .collect()
}

/// Index build plus reference truth: one direct `search` per distinct
/// scheduled query on an identical index, over all cores.
fn setup(seed: u64, seconds: f64) -> (Setup, f64) {
    let t = Instant::now();
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5e7e);
    let centers: Vec<f32> = (0..CLUSTERS * DIM).map(|_| rng.gen_range(-1.0f32..1.0)).collect();
    let rows = clustered(ROWS, &centers, &mut rng);
    let pool_n = POOL_PER_CACHE_ENTRY * ServeConfig::default().cache_entries;
    let pool: Vec<Arc<[f32]>> =
        clustered(pool_n, &centers, &mut rng).chunks(DIM).map(Arc::from).collect();
    let mut index = FlatIndex::new(DIM, Metric::L2);
    index.add_batch(&rows);

    let windows = ((REFERENCE_QPS * seconds * REFERENCE_SHARE) as usize / WINDOW).max(RUNG_WINDOWS);
    let reference = Step::new(REFERENCE_QPS, windows * WINDOW, pool_n, seed);
    let ladder: Vec<Step> = LADDER_QPS
        .iter()
        .enumerate()
        .map(|(i, &qps)| {
            Step::new(qps, RUNG_WINDOWS * WINDOW, pool_n, seed ^ ((i as u64 + 1) << 32))
        })
        .collect();

    let mut wanted: Vec<usize> = std::iter::once(&reference)
        .chain(&ladder)
        .flat_map(|s| s.schedule.iter().map(|&(_, q)| q))
        .collect();
    wanted.sort_unstable();
    wanted.dedup();
    let threads = sys::nproc();
    let truth = std::thread::scope(|s| {
        let handles: Vec<_> = (0..threads)
            .map(|w| {
                let (index, pool, wanted) = (&index, &pool, &wanted);
                s.spawn(move || {
                    wanted
                        .iter()
                        .skip(w)
                        .step_by(threads)
                        .map(|&q| (q, index.search(&pool[q], K)))
                        .collect::<Vec<_>>()
                })
            })
            .collect();
        handles
            .into_iter()
            .flat_map(|h| h.join().expect("truth worker panicked"))
            .collect::<HashMap<_, _>>()
    });
    let index = Arc::new(index);
    (Setup { index, pool, reference, ladder, truth }, t.elapsed().as_secs_f64())
}

fn same_hits(a: &[Hit], b: &[Hit]) -> bool {
    a.len() == b.len()
        && a.iter()
            .zip(b)
            .all(|(x, y)| x.id == y.id && x.distance.to_bits() == y.distance.to_bits())
}

/// One request's outcome. Times are ns from the step start.
struct Record {
    due: u64,
    submitted: u64,
    /// `(admitted_ns, finished_ns, wait returned)` when served correctly.
    served: Option<(u64, u64, u64)>,
    /// Answered with hits that differ from the direct search, or failed
    /// with an error other than overload or deadline shedding.
    wrong: bool,
}

struct StepResult {
    qps: f64,
    records: Vec<Record>,
    stats: ServeStats,
    swap_us: Vec<f64>,
}

impl StepResult {
    fn served(&self) -> usize {
        self.records.iter().filter(|r| r.served.is_some()).count()
    }

    /// Wrong or errored requests, plus one if the service's counters do
    /// not close (every request resolved once, every serve accounted).
    fn wrong(&self) -> usize {
        self.records.iter().filter(|r| r.wrong).count() + !self.stats.accounting_closes() as usize
    }

    /// Due → response latency in µs of each request of `records`,
    /// ascending; a request that was not served correctly counts as
    /// infinitely late.
    fn latencies_us(records: &[Record]) -> Vec<f64> {
        let mut v: Vec<f64> = records
            .iter()
            .map(|r| r.served.map_or(f64::INFINITY, |(_, _, woke)| (woke - r.due) as f64 / 1e3))
            .collect();
        v.sort_by(f64::total_cmp);
        v
    }

    /// Latency percentile `p` per window, in window order.
    fn window_pcts(&self, p: f64) -> Vec<f64> {
        self.records.chunks_exact(WINDOW).map(|w| percentile(&Self::latencies_us(w), p)).collect()
    }

    /// Median over windows of the windows' latency percentile `p`.
    fn latency_us(&self, p: f64) -> f64 {
        median(&self.window_pcts(p))
    }

    /// p99 within the limit, and no growing backlog: the last window's
    /// median request was answered within the limit.
    fn meets_slo(&self) -> bool {
        let last_p50 = self.window_pcts(50.0).last().copied().unwrap_or(f64::INFINITY);
        self.latency_us(99.0) <= SLO_US && last_p50 <= SLO_US
    }

    /// Served requests per second, first due time to last response.
    fn achieved_qps(&self) -> f64 {
        let end = self.records.iter().filter_map(|r| r.served.map(|(_, _, w)| w)).max();
        let start = self.records.first().map_or(0, |r| r.due);
        end.map_or(0.0, |e| self.served() as f64 / ((e - start) as f64 / 1e9))
    }

    /// Percentiles p50/p99 of one per-request interval over served ones.
    fn stage_us(&self, f: impl Fn(&Record, (u64, u64, u64)) -> i64) -> (f64, f64) {
        let mut v: Vec<f64> = self
            .records
            .iter()
            .filter_map(|r| r.served.map(|s| f(r, s).max(0) as f64 / 1e3))
            .collect();
        v.sort_by(f64::total_cmp);
        (percentile(&v, 50.0), percentile(&v, 99.0))
    }
}

fn serve_config() -> ServeConfig {
    ServeConfig {
        default_deadline: Some(Duration::from_micros(SLO_US as u64)),
        ..ServeConfig::default()
    }
}

/// Offer one step's schedule to a fresh service, open loop.
fn run_step(step: &Step, s: &Setup) -> StepResult {
    let shared = || Box::new(SharedIndex(s.index.clone()));
    let clock = Arc::new(StepClock(Instant::now()));
    let svc = QueryService::with_clock(shared(), serve_config(), clock.clone());
    let now = || clock.now_ns();
    // The schedule starts once every thread is up.
    let start = now() + START_DELAY_NS;
    let sleep_until = |ns: u64| {
        let t = now();
        if ns > t {
            std::thread::sleep(Duration::from_nanos(ns - t));
        }
    };
    type Sent = (u64, u64, usize, Result<Ticket, ServeError>);
    let (tx, rx) = mpsc::channel::<Sent>();
    let (records, swap_us) = std::thread::scope(|scope| {
        let svc = &svc;
        let collector = scope.spawn(move || {
            rx.into_iter()
                .map(|(due, submitted, q, outcome)| {
                    let mut rec = Record { due, submitted, served: None, wrong: false };
                    match outcome.and_then(Ticket::wait) {
                        Ok(resp) => {
                            let woke = now();
                            if same_hits(&resp.hits, &s.truth[&q]) {
                                rec.served = Some((resp.admitted_ns, resp.finished_ns, woke));
                            } else {
                                rec.wrong = true;
                            }
                        }
                        Err(ServeError::Overloaded | ServeError::DeadlineExceeded { .. }) => {}
                        Err(_) => rec.wrong = true,
                    }
                    rec
                })
                .collect::<Vec<Record>>()
        });
        let swapper = scope.spawn(move || {
            step.schedule
                .iter()
                .step_by(SWAP_EVERY)
                .skip(1)
                .map(|&(at, _)| {
                    let index = shared();
                    sleep_until(start + at);
                    let t = Instant::now();
                    svc.install_index(index).expect("same-width index installs");
                    t.elapsed().as_secs_f64() * 1e6
                })
                .collect::<Vec<f64>>()
        });
        for &(offset, q) in &step.schedule {
            let due = start + offset;
            sleep_until(due);
            let submitted = now();
            let outcome = svc.submit(s.pool[q].clone(), K, None);
            tx.send((due, submitted, q, outcome)).expect("collector alive");
        }
        drop(tx);
        (collector.join().expect("collector panicked"), swapper.join().expect("swapper panicked"))
    });
    let stats = svc.shutdown();
    StepResult { qps: step.qps, records, stats, swap_us }
}

pub fn run(seed: u64, seconds: f64, trace: bool) -> Outcome {
    // Executor threads for the dispatch worker's scans: the generator,
    // collector and swapper share the remaining core.
    rayon::set_num_threads(sys::nproc().saturating_sub(1).max(1));
    let cpu0 = sys::usage();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let (s, secs) = setup(seed, seconds);
        setups.push(secs);
        last = Some(s);
    }
    let s = last.expect("at least one set-up");
    let setup_cpu = sys::cpu_since(&cpu0);

    let cpu1 = sys::usage();
    let reference = run_step(&s.reference, &s);
    let mut ladder = Vec::new();
    for step in &s.ladder {
        let r = run_step(step, &s);
        let met = r.meets_slo();
        ladder.push(r);
        if !met {
            break;
        }
    }
    let run_cpu = sys::cpu_since(&cpu1);

    let mut out = Outcome::default();
    let all = || std::iter::once(&reference).chain(&ladder);
    out.attempted = all().map(|r| r.records.len() as u64).sum();
    let wrong: usize = all().map(StepResult::wrong).sum();
    let ref_unserved = reference.records.len() - reference.served();
    out.failed = wrong as u64;
    out.correct = wrong == 0;

    let (p50, p99) = (reference.latency_us(50.0), reference.latency_us(99.0));
    let best = ladder.iter().rfind(|r| r.meets_slo());
    let qps_at_slo = best.map_or(0.0, StepResult::achieved_qps);
    let ok = 1.0 - ref_unserved as f64 / reference.records.len() as f64;
    let peak = sys::usage().peak_rss_mb;
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak);
    out.set("ok_frac", ok);
    out.set("run_s", if qps_at_slo > 0.0 { 1e3 / qps_at_slo } else { f64::INFINITY });
    out.set("answer_ms", p50 / 1e3);
    // The index is exact and every response was checked bitwise against
    // a direct search, so the served top-k sets score 1 when correct.
    let exact = if wrong == 0 { 1.0 } else { 1.0 - wrong as f64 / out.attempted as f64 };
    out.set("quality_f1", exact);
    out.set("recall", exact);

    out.note(format!(
        "serve_p50_us = {p50:.1} us  serve_p99_us = {p99:.1} us  (median over windows of {WINDOW} \
         requests, {} requests at {REFERENCE_QPS} qps)",
        reference.records.len()
    ));
    out.note(format!(
        "serve_qps_at_slo = {qps_at_slo:.1} 1/s  (p99 <= {SLO_US} us, highest rung {})",
        best.map_or(0.0, |r| r.qps)
    ));
    out.note(format!(
        "setup_s = {:.4} s  peak_rss_mb = {peak:.1} MB  failed_frac = {:.4}",
        median(&setups),
        1.0 - ok
    ));
    out.note(format!("cpu: setup {setup_cpu:.3} s, run {run_cpu:.3} s (getrusage, all threads)"));
    for r in all() {
        out.note(format!(
            "step {:>6} qps: {} req, served {}, shed {}, rejected {}, wrong {}, p50 {:.1} us, \
             p99 {:.1} us, achieved {:.1} qps, hits {}, scanned {}, batches {}, slo {}",
            r.qps,
            r.records.len(),
            r.served(),
            r.stats.shed,
            r.stats.rejected,
            r.wrong(),
            r.latency_us(50.0),
            r.latency_us(99.0),
            r.achieved_qps(),
            r.stats.hits,
            r.stats.scanned,
            r.stats.batches,
            r.meets_slo()
        ));
    }

    if trace {
        out.set("serve.p99_us", p99);
        layer_metrics(&mut out, &reference, &ladder, &s);
        out.set("cpu.setup_s", setup_cpu);
        out.set("cpu.run_s", run_cpu);
    }
    out
}

/// The serve, cache and `dial_ann` per-layer split, at the reference
/// rate.
fn layer_metrics(out: &mut Outcome, r: &StepResult, ladder: &[StepResult], s: &Setup) {
    let (lag50, lag99) = r.stage_us(|rec, _| rec.submitted as i64 - rec.due as i64);
    let (adm50, adm99) = r.stage_us(|rec, (adm, _, _)| adm as i64 - rec.due as i64);
    let (svc50, svc99) = r.stage_us(|_, (adm, fin, _)| fin as i64 - adm as i64);
    let (wake50, wake99) = r.stage_us(|_, (_, fin, woke)| woke as i64 - fin as i64);
    out.set("serve.gen_lag_us_p50", lag50);
    out.set("serve.gen_lag_us_p99", lag99);
    out.set("serve.admit_us_p50", adm50);
    out.set("serve.admit_us_p99", adm99);
    out.set("serve.service_us_p50", svc50);
    out.set("serve.service_us_p99", svc99);
    out.set("serve.wake_us_p50", wake50);
    out.set("serve.wake_us_p99", wake99);
    let st = &r.stats;
    let served = st.served.max(1) as f64;
    out.set("serve.batch_mean", st.scanned as f64 / st.batches.max(1) as f64);
    let swaps: Vec<f64> =
        std::iter::once(r).chain(ladder).flat_map(|x| x.swap_us.iter().copied()).collect();
    out.set("serve.swap_us", median(&swaps));
    out.set("cache.hit_rate", st.hits as f64 / served);
    out.set("serve.coalesce_rate", st.coalesced as f64 / served);
    out.set("serve.scan_frac", st.scanned as f64 / served);
    out.set("cache.invalidations", st.invalidations as f64);
    out.set("cache.evictions", st.evictions as f64);
    let packed: Vec<f32> = s.pool.iter().flat_map(|q| q.iter().copied()).collect();
    let t = Instant::now();
    let hits = std::hint::black_box(s.index.search_batch(std::hint::black_box(&packed), K));
    let secs = t.elapsed().as_secs_f64();
    out.set("ann.search_us_per_query", secs / hits.len() as f64 * 1e6);
}
