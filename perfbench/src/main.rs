//! Whole-round benchmark of the DIAL workspace.
//!
//! ```text
//! perfbench --workload <al-abt-buy|al-dblp-scholar|serve-zipf> --seed <n>
//!           --seconds <s> --trace <0|1> [--spans <path>]
//! ```
//!
//! Prints human-readable lines, then as its last line one JSON object
//! `{"correct", "attempted", "failed", "metrics"}`: the end-to-end
//! metrics with `--trace 0`, the per-layer metrics with `--trace 1`.
//! Exits 1 when any output fails its correctness check. See
//! `perfbench/METRICS.md` for every metric's definition.

mod al;
mod flops;
mod serve;
mod sys;
mod trace;

use dial_datasets::Benchmark;
use std::collections::BTreeMap;
use std::path::PathBuf;

/// End-to-end metrics, reported by every workload: `(name, unit)`.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
    ("ok_frac", "frac"),
    ("run_s", "s"),
    ("answer_ms", "ms"),
    ("quality_f1", "frac"),
    ("recall", "frac"),
];

/// Per-layer metrics of the traced run: `(name, unit)`. A layer a
/// workload does not exercise reports 0.
const PER_LAYER: &[(&str, &str)] = &[
    ("matcher.train_s", "s"),
    ("matcher.train_seqs", "count"),
    ("matcher.train_gflops", "GFLOP/s"),
    ("matcher.train_cpu_util", "frac"),
    ("matcher.score_s", "s"),
    ("matcher.score_pairs", "count"),
    ("matcher.score_us_per_pair", "us"),
    ("matcher.score_gflops", "GFLOP/s"),
    ("matcher.score_cpu_util", "frac"),
    ("encode.s", "s"),
    ("encode.records", "count"),
    ("encode.us_per_record", "us"),
    ("committee.train_s", "s"),
    ("committee.embed_s", "s"),
    ("engine.retrieve_s", "s"),
    ("engine.build_s", "s"),
    ("engine.probe_s", "s"),
    ("engine.queries", "count"),
    ("cand.size", "count"),
    ("cand.dup_frac", "frac"),
    ("engine.union_frac", "frac"),
    ("select.s", "s"),
    ("eval.s", "s"),
    ("round.self_s", "s"),
    ("round.span_cover", "frac"),
    ("trace.overhead_s", "s"),
    ("serve.p99_us", "us"),
    ("serve.gen_lag_us_p50", "us"),
    ("serve.gen_lag_us_p99", "us"),
    ("serve.admit_us_p50", "us"),
    ("serve.admit_us_p99", "us"),
    ("serve.service_us_p50", "us"),
    ("serve.service_us_p99", "us"),
    ("serve.wake_us_p50", "us"),
    ("serve.wake_us_p99", "us"),
    ("serve.batch_mean", "count"),
    ("serve.swap_us", "us"),
    ("cache.hit_rate", "frac"),
    ("serve.coalesce_rate", "frac"),
    ("serve.scan_frac", "frac"),
    ("cache.invalidations", "count"),
    ("cache.evictions", "count"),
    ("ann.search_us_per_query", "us"),
    ("cpu.setup_s", "s"),
    ("cpu.run_s", "s"),
];

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    pub correct: bool,
    pub attempted: u64,
    pub failed: u64,
    values: BTreeMap<&'static str, f64>,
    notes: Vec<String>,
}

impl Outcome {
    pub fn set(&mut self, name: &'static str, value: f64) {
        debug_assert!(
            END_TO_END.iter().chain(PER_LAYER).any(|&(n, _)| n == name),
            "unknown metric {name}"
        );
        self.values.insert(name, value);
    }

    pub fn note(&mut self, line: String) {
        self.notes.push(line);
    }

    /// The result line: every metric of `table`, 0 where unmeasured.
    fn json(&self, table: &[(&str, &str)]) -> String {
        let metrics: Vec<String> = table
            .iter()
            .map(|&(name, unit)| {
                let v = self.values.get(name).copied().unwrap_or(0.0);
                // JSON has no infinity; a run that produced one failed.
                let v = if v.is_finite() { v } else { f64::MAX };
                format!("\"{name}\": {{\"value\": {v:?}, \"unit\": \"{unit}\"}}")
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct,
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }
}

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: PathBuf,
}

fn parse_args() -> Result<Args, String> {
    let mut map = BTreeMap::new();
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let key = flag.strip_prefix("--").ok_or(format!("unexpected argument {flag:?}"))?;
        let value = it.next().ok_or(format!("{flag} needs a value"))?;
        map.insert(key.to_string(), value);
    }
    let get = |k: &str| map.get(k).cloned().ok_or(format!("missing --{k}"));
    let num = |k: &str| get(k)?.parse::<f64>().map_err(|e| format!("--{k}: {e}"));
    let workload = get("workload")?;
    let seed = get("seed")?.parse::<u64>().map_err(|e| format!("--seed: {e}"))?;
    let seconds = num("seconds")?;
    let trace = match get("trace")?.as_str() {
        "0" => false,
        "1" => true,
        t => return Err(format!("--trace must be 0 or 1, got {t:?}")),
    };
    let spans = map
        .get("spans")
        .map(PathBuf::from)
        .unwrap_or_else(|| PathBuf::from(format!(".bench_out/{workload}-seed{seed}.spans.jsonl")));
    Ok(Args { workload, seed, seconds, trace, spans })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(2);
        }
    };
    let bench = match args.workload.as_str() {
        "al-abt-buy" => Some(Benchmark::AbtBuy),
        "al-dblp-scholar" => Some(Benchmark::DblpScholar),
        "serve-zipf" => None,
        w => {
            eprintln!("perfbench: unknown workload {w:?}");
            std::process::exit(2);
        }
    };
    let mut out = match (bench, args.trace) {
        (Some(b), false) => al::run(b, args.seed, args.seconds),
        (Some(b), true) => al::traced(b, args.seed, &args.spans),
        (None, trace) => serve::run(args.seed, args.seconds, trace),
    };
    if args.trace {
        let peak = sys::usage().peak_rss_mb;
        out.note(format!("peak_rss_mb = {peak:.1} MB (traced run)"));
    }
    println!(
        "# {} seed {} seconds {} trace {} threads {}",
        args.workload,
        args.seed,
        args.seconds,
        args.trace as u8,
        rayon::current_num_threads()
    );
    for line in &out.notes {
        println!("# {line}");
    }
    let table = if args.trace { PER_LAYER } else { END_TO_END };
    println!("{}", out.json(table));
    if !out.correct {
        std::process::exit(1);
    }
}
