//! The AL-round workloads: `DialSystem::run` on one dataset, and the
//! traced replay of the same rounds from outside the program.

use crate::sys::{self, median};
use crate::trace::Tracer;
use crate::{flops, Outcome};
use dial_core::{
    all_pairs_prf, blocker_recall, encode_list, select, test_prf, Committee, DialConfig,
    DialSystem, Matcher, Oracle, RetrievalEngine, RunResult, SelectionInputs,
};
use dial_datasets::{Benchmark, EmDataset, LabeledPair, ScaleProfile};
use dial_tensor::ParamStore;
use dial_text::{paired_mode_ids, Vocab};
use dial_tplm::{pretrain_sgns, PretrainConfig, Tplm};
use rand::rngs::StdRng;
use rand::SeedableRng;
use rayon::prelude::*;
use std::collections::HashSet;
use std::panic::{catch_unwind, AssertUnwindSafe};
use std::time::Instant;

/// AL rounds per run: round 0 trains on the seed labels, selects and
/// labels a batch; round 1 retrains on the grown labeled set.
const ROUNDS: usize = 2;
/// Set-ups per run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;
/// Least share of a round's wall its child spans must cover.
const MIN_SPAN_COVER: f64 = 0.95;

pub fn config(bench: Benchmark, seed: u64) -> DialConfig {
    DialConfig {
        rounds: ROUNDS,
        seed,
        abt_buy_like: matches!(bench, Benchmark::AbtBuy),
        ..DialConfig::default()
    }
}

/// Dataset generation + `DialSystem::new` + `pretrain`, timed.
fn setup(bench: Benchmark, seed: u64) -> (EmDataset, DialSystem, f64) {
    let t = Instant::now();
    let data = bench.generate(ScaleProfile::Bench, seed);
    let mut system = DialSystem::new(config(bench, seed));
    system.pretrain(&data);
    (data, system, t.elapsed().as_secs_f64())
}

/// The per-round outputs that must repeat bitwise: labels used,
/// candidate count, blocker recall and all-pairs F1.
type RoundKey = (usize, usize, u64, u64);

fn keys(result: &RunResult) -> Vec<RoundKey> {
    result
        .rounds
        .iter()
        .map(|m| (m.labels_used, m.cand_size, m.blocker_recall.to_bits(), m.all_pairs.f1.to_bits()))
        .collect()
}

/// Sanity of one run's reported metrics.
fn check(cfg: &DialConfig, data: &EmDataset, result: &RunResult) -> Result<(), String> {
    if result.rounds.len() != cfg.rounds {
        return Err(format!("{} rounds, want {}", result.rounds.len(), cfg.rounds));
    }
    let cap = cfg.cand_size.resolve(data.s.len(), data.dups().len(), cfg.abt_buy_like);
    for (r, m) in result.rounds.iter().enumerate() {
        if m.cand_size == 0 || m.cand_size > cap {
            return Err(format!("round {r}: {} candidates, cap {cap}", m.cand_size));
        }
        let in_unit = |x: f64| x > 0.0 && x <= 1.0;
        if !in_unit(m.blocker_recall) || !in_unit(m.all_pairs.f1) {
            return Err(format!("round {r}: recall {} f1 {}", m.blocker_recall, m.all_pairs.f1));
        }
        if !(m.timings.train_matcher > 0.0 && m.timings.find_dups > 0.0) {
            return Err(format!("round {r}: timings not recorded"));
        }
        if r > 0 && m.labels_used != result.rounds[r - 1].labels_used + cfg.budget {
            return Err(format!("round {r}: labeled set did not grow by the budget"));
        }
    }
    Ok(())
}

/// Untraced run: median set-up, then `DialSystem::run` repeated until
/// `seconds` have passed (at least once). Every repeat must pass
/// [`check`] and reproduce the first run bitwise.
pub fn run(bench: Benchmark, seed: u64, seconds: f64) -> Outcome {
    let cpu0 = sys::usage();
    let mut setups = Vec::new();
    let mut last = None;
    for _ in 0..SETUP_REPEATS {
        drop(last.take());
        let (data, system, secs) = setup(bench, seed);
        setups.push(secs);
        last = Some((data, system));
    }
    let (data, mut system) = last.expect("at least one set-up");
    let cfg = config(bench, seed);
    let setup_cpu = sys::cpu_since(&cpu0);

    let mut out = Outcome::default();
    let cpu1 = sys::usage();
    let (mut walls, mut rts, mut finals) = (Vec::new(), Vec::new(), Vec::new());
    let mut first: Option<RunResult> = None;
    let t_all = Instant::now();
    loop {
        out.attempted += 1;
        let t = Instant::now();
        let result = catch_unwind(AssertUnwindSafe(|| system.run(&data, None)));
        let wall = t.elapsed().as_secs_f64();
        let verdict = match &result {
            Err(_) => Err("DialSystem::run panicked".to_string()),
            Ok(r) => check(&cfg, &data, r).and_then(|()| match &first {
                Some(f) if keys(f) != keys(r) => Err("repeat run diverged".to_string()),
                _ => Ok(()),
            }),
        };
        match (verdict, result) {
            (Ok(()), Ok(r)) => {
                walls.push(wall);
                let per_round = r.rounds.iter().map(|m| m.timings.find_dups);
                rts.push(per_round.sum::<f64>() / r.rounds.len() as f64);
                finals.push(r.last().timings.find_dups);
                first.get_or_insert(r);
            }
            (verdict, _) => {
                out.failed += 1;
                out.note(format!(
                    "run {} failed: {}",
                    out.attempted,
                    verdict.err().unwrap_or_default()
                ));
            }
        }
        if t_all.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    let run_cpu = sys::cpu_since(&cpu1);
    out.correct = out.failed == 0;
    let Some(result) = first else {
        return out;
    };
    let last = result.last();
    let (al_run_s, rt_mean_s, rt_s) = (median(&walls), median(&rts), median(&finals));
    let peak = sys::usage().peak_rss_mb;
    let ok = (out.attempted - out.failed) as f64 / out.attempted as f64;
    out.set("setup_s", median(&setups));
    out.set("peak_rss_mb", peak);
    out.set("ok_frac", ok);
    out.set("run_s", al_run_s);
    out.set("answer_ms", rt_mean_s * 1e3);
    out.set("quality_f1", last.all_pairs.f1);
    out.set("recall", last.blocker_recall);
    out.note(format!("al_run_s = {al_run_s:.4} s  (median of {} runs)", walls.len()));
    out.note(format!(
        "rt_s = {rt_s:.4} s  (final round find_dups; mean over rounds {rt_mean_s:.4} s)"
    ));
    out.note(format!(
        "all_pairs_f1 = {:.4}  blocker_recall = {:.4}",
        last.all_pairs.f1, last.blocker_recall
    ));
    out.note(format!(
        "setup_s = {:.4} s  peak_rss_mb = {peak:.1} MB  failed_frac = {:.4}",
        median(&setups),
        1.0 - ok
    ));
    out.note(format!("cpu: setup {setup_cpu:.3} s, run {run_cpu:.3} s (getrusage, all threads)"));
    for m in &result.rounds {
        let t = &m.timings;
        out.note(format!(
            "round {}: labels {} cand {} recall {:.4} f1 {:.4} | train_matcher {:.3} s \
             train_committee {:.3} s indexing_retrieval {:.3} s find_dups {:.3} s selection {:.3} s",
            m.round, m.labels_used, m.cand_size, m.blocker_recall, m.all_pairs.f1, t.train_matcher,
            t.train_committee, t.indexing_retrieval, t.find_dups, t.selection
        ));
    }
    out
}

/// The system's parts, built exactly as `DialSystem::new` + `pretrain`
/// build them, so the replay can call each layer itself.
struct Parts {
    store: ParamStore,
    model: Tplm,
    matcher: Matcher,
    committee: Committee,
    vocab: Vocab,
}

fn parts(cfg: &DialConfig, data: &EmDataset) -> (Parts, dial_tensor::Snapshot) {
    let mut store = ParamStore::new();
    let model = Tplm::new(cfg.tplm, &mut store);
    let matcher = Matcher::new(&mut store, &model);
    let committee =
        Committee::new(&mut store, cfg.committee, cfg.tplm.d_model, cfg.mask_p, cfg.seed);
    let vocab = Vocab::new(cfg.tplm.vocab_size as u32 - Vocab::NUM_SPECIAL);
    if cfg.pretrain_epochs > 0 {
        let corpus: Vec<_> = data
            .r
            .iter()
            .chain(data.s.iter())
            .map(|rec| rec.single_mode_ids(&vocab, cfg.tplm.max_len))
            .collect();
        pretrain_sgns(
            &mut store,
            model.token_embedding_param(),
            cfg.tplm.vocab_size,
            &corpus,
            PretrainConfig { epochs: cfg.pretrain_epochs, seed: cfg.seed, ..Default::default() },
        );
    }
    let pretrained = store.snapshot();
    (Parts { store, model, matcher, committee, vocab }, pretrained)
}

/// Work counts of the replay, gathered beside the spans.
#[derive(Default)]
struct Counts {
    train_seqs: f64,
    train_flops: f64,
    score_pairs: f64,
    score_flops: f64,
    encode_records: f64,
    engine_queries: f64,
    engine_slots: f64,
    cand_dups: f64,
    build_s: f64,
    probe_s: f64,
}

/// Replay `DialSystem::run`'s Dial arm round by round, in `al.rs`'s
/// order and with its seeds, with a span around every call into a layer.
/// Returns each round's [`RoundKey`].
fn replay(
    cfg: &DialConfig,
    data: &EmDataset,
    p: &mut Parts,
    pretrained: &dial_tensor::Snapshot,
    tr: &mut Tracer,
    n: &mut Counts,
) -> Vec<RoundKey> {
    let d = cfg.tplm.d_model;
    let max_len = cfg.tplm.max_len;
    let mut engine = RetrievalEngine::new(
        cfg.index_spec_for(data.r.len()),
        cfg.incremental_threshold,
        cfg.pipeline_depth,
    );
    engine.set_rows(cfg.row_format);
    engine.set_snapshot(cfg.snapshot_dir.clone(), cfg.warm_start, d);
    let cand_cap = cfg.cand_size.resolve(data.s.len(), data.dups().len(), cfg.abt_buy_like);
    let k = if cfg.abt_buy_like { cfg.k.max(20) } else { cfg.k };
    let mut oracle = Oracle::new(data);
    let mut labeled: Vec<LabeledPair> = data.seed_labeled(cfg.seed_pos, cfg.seed_neg, cfg.seed);
    let test_keys = data.test_keys();
    let Parts { store, model, matcher, committee, vocab } = p;
    let (model, matcher, vocab) = (&*model, &*matcher, &*vocab);
    let pair_len =
        |r: u32, s: u32| paired_mode_ids(data.r.get(r), data.s.get(s), vocab, max_len).len();

    let mut keys = Vec::new();
    for round in 0..cfg.rounds {
        let id = round as u32;
        tr.begin(id, "round");
        tr.span(id, "reset", || store.restore(pretrained));

        tr.span(id, "matcher.train", || {
            matcher.train(store, model, vocab, &data.r, &data.s, &labeled, cfg, round)
        });
        n.train_seqs += (labeled.len() * cfg.matcher_epochs) as f64;
        n.train_flops += cfg.matcher_epochs as f64
            * labeled.iter().map(|l| flops::train(&cfg.tplm, pair_len(l.r, l.s))).sum::<f64>();

        let (er, es) = tr.span(id, "encode", || {
            (encode_list(model, store, &data.r, vocab), encode_list(model, store, &data.s, vocab))
        });
        n.encode_records += (data.r.len() + data.s.len()) as f64;

        tr.span(id, "committee.train", || {
            committee.reinit(store, cfg.seed ^ (round as u64) << 8);
            model.set_trunk_frozen(store, true);
            committee.train(store, &er, &es, &labeled, cfg, round);
            model.set_trunk_frozen(store, false);
        });
        let (vr, vs) = tr.span(id, "committee.embed", || {
            (committee.embed_list(store, &er), committee.embed_list(store, &es))
        });
        let cand =
            tr.span(id, "engine.retrieve", || engine.retrieve_committee(&vr, &vs, d, k, cand_cap));
        let st = *engine.last_round();
        n.build_s += st.build_secs;
        n.probe_s += st.probe_secs;
        n.engine_queries += (vs.len() * data.s.len()) as f64;
        n.engine_slots += (vs.len() * data.s.len() * k) as f64;

        let store_ro: &ParamStore = store;
        let scored: Vec<(f32, Vec<f32>)> = tr.span(id, "matcher.score", || {
            cand.pairs()
                .par_iter()
                .map(|c| {
                    matcher.prob_and_feature(
                        store_ro,
                        model,
                        vocab,
                        data.r.get(c.r),
                        data.s.get(c.s),
                    )
                })
                .collect()
        });
        n.score_pairs += cand.len() as f64;
        n.score_flops +=
            cand.pairs().iter().map(|c| flops::score(&cfg.tplm, pair_len(c.r, c.s))).sum::<f64>();
        n.cand_dups += cand.pairs().iter().filter(|c| data.is_dup(c.r, c.s)).count() as f64;

        let (probs, feats, key) = tr.span(id, "eval", || {
            let probs: Vec<f32> = scored.iter().map(|(p, _)| *p).collect();
            let feats: Vec<Vec<f32>> = scored.into_iter().map(|(_, f)| f).collect();
            let cand_keys = cand.key_set();
            let predicted: HashSet<(u32, u32)> = cand
                .pairs()
                .iter()
                .zip(&probs)
                .filter(|(_, &p)| p > 0.5)
                .map(|(c, _)| (c.r, c.s))
                .collect();
            let test_preds: HashSet<(u32, u32)> = data
                .test
                .par_iter()
                .filter(|p| cand_keys.contains(&p.key()))
                .map(|p| {
                    (p, matcher.prob(store_ro, model, vocab, data.r.get(p.r), data.s.get(p.s)))
                })
                .filter(|(_, prob)| *prob > 0.5)
                .map(|(p, _)| p.key())
                .collect();
            // `DialSystem::run` reports test-set PRF too; the replay pays for it.
            let _test = test_prf(&data.test, &test_preds);
            let recall = blocker_recall(data, &cand_keys);
            let f1 = all_pairs_prf(data, &predicted).f1;
            (probs, feats, (labeled.len(), cand.len(), recall.to_bits(), f1.to_bits()))
        });
        keys.push(key);

        if round + 1 < cfg.rounds {
            let picked = tr.span(id, "select", || {
                let mut excluded: HashSet<(u32, u32)> = test_keys.clone();
                excluded.extend(labeled.iter().map(|p| p.key()));
                let labeled_feats: Vec<(Vec<f32>, bool)> = labeled
                    .par_iter()
                    .map(|p| {
                        let (_, f) = matcher.prob_and_feature(
                            store_ro,
                            model,
                            vocab,
                            data.r.get(p.r),
                            data.s.get(p.s),
                        );
                        (f, p.label)
                    })
                    .collect();
                let inputs = SelectionInputs {
                    cands: cand.pairs(),
                    probs: &probs,
                    feats: &feats,
                    labeled_feats: &labeled_feats,
                    excluded: &excluded,
                    budget: cfg.budget,
                };
                let mut rng = StdRng::seed_from_u64(cfg.seed ^ 0x5e1e ^ (round as u64) << 16);
                select(cfg.selection, &inputs, &mut rng)
            });
            let batch = tr.span(id, "oracle.label", || oracle.label_batch(&picked));
            labeled.extend(batch);
        }
        tr.end();
    }
    keys
}

/// Traced run: the replay with spans, then the untraced reference
/// `DialSystem::run`, which the replay must match round for round. The
/// replay runs first so its spans see the same conditions as an
/// untraced workload run, which is also the first run of its process.
pub fn traced(bench: Benchmark, seed: u64, spans_out: &std::path::Path) -> Outcome {
    let cfg = config(bench, seed);
    let mut out = Outcome { attempted: 2, ..Outcome::default() };
    let cpu0 = sys::usage();
    let (data, mut system, _) = setup(bench, seed);
    let (mut p, pretrained) = parts(&cfg, &data);
    out.set("cpu.setup_s", sys::cpu_since(&cpu0));

    let mut tr = Tracer::new();
    let mut n = Counts::default();
    let cpu1 = sys::usage();
    let t = Instant::now();
    let replayed = catch_unwind(AssertUnwindSafe(|| {
        replay(&cfg, &data, &mut p, &pretrained, &mut tr, &mut n)
    }));
    let traced_s = t.elapsed().as_secs_f64();
    out.set("cpu.run_s", sys::cpu_since(&cpu1));
    let t = Instant::now();
    let reference = catch_unwind(AssertUnwindSafe(|| system.run(&data, None)));
    let untraced_s = t.elapsed().as_secs_f64();
    let reference = match reference {
        Ok(r) => r,
        Err(_) => {
            out.failed = 2;
            out.note("reference DialSystem::run panicked".into());
            return out;
        }
    };
    if let Err(e) = check(&cfg, &data, &reference) {
        out.failed += 1;
        out.note(format!("reference run failed its check: {e}"));
    }

    match &replayed {
        Ok(k) if *k == keys(&reference) => {}
        Ok(k) => {
            out.failed += 1;
            out.note(format!("replay parity mismatch: replay {k:?} vs run {:?}", keys(&reference)));
        }
        Err(_) => {
            out.failed += 1;
            out.note("replay panicked".into());
        }
    }
    if let Err(e) = tr.write_jsonl(spans_out) {
        out.note(format!("could not write spans to {}: {e}", spans_out.display()));
    }

    // Span accounting: child spans must cover each round's wall.
    let (mut self_s, mut cover) = (0.0, f64::INFINITY);
    for (ix, s) in tr.spans().iter().enumerate().filter(|(_, s)| s.name == "round") {
        let child = tr.child_secs(ix);
        self_s += s.secs() - child;
        cover = cover.min(child / s.secs());
    }
    if cover < MIN_SPAN_COVER {
        out.failed += 1;
        out.note(format!("child spans cover only {:.4} of a round", cover));
    }
    out.correct = out.failed == 0;

    let cores = sys::nproc() as f64;
    let util = |(wall, cpu): (f64, f64)| if wall > 0.0 { cpu / (wall * cores) } else { 0.0 };
    let (train_s, _) = tr.total("matcher.train");
    let (score_s, _) = tr.total("matcher.score");
    let (encode_s, _) = tr.total("encode");
    out.set("matcher.train_s", train_s);
    out.set("matcher.train_seqs", n.train_seqs);
    out.set("matcher.train_gflops", n.train_flops / train_s / 1e9);
    out.set("matcher.train_cpu_util", util(tr.total("matcher.train")));
    out.set("matcher.score_s", score_s);
    out.set("matcher.score_pairs", n.score_pairs);
    out.set("matcher.score_us_per_pair", score_s / n.score_pairs * 1e6);
    out.set("matcher.score_gflops", n.score_flops / score_s / 1e9);
    out.set("matcher.score_cpu_util", util(tr.total("matcher.score")));
    out.set("encode.s", encode_s);
    out.set("encode.records", n.encode_records);
    out.set("encode.us_per_record", encode_s / n.encode_records * 1e6);
    out.set("committee.train_s", tr.total("committee.train").0);
    out.set("committee.embed_s", tr.total("committee.embed").0);
    out.set("engine.retrieve_s", tr.total("engine.retrieve").0);
    out.set("engine.build_s", n.build_s);
    out.set("engine.probe_s", n.probe_s);
    out.set("engine.queries", n.engine_queries);
    out.set("cand.size", n.score_pairs / cfg.rounds as f64);
    out.set("cand.dup_frac", n.cand_dups / n.score_pairs);
    out.set("engine.union_frac", n.score_pairs / n.engine_slots);
    out.set("select.s", tr.total("select").0);
    out.set("eval.s", tr.total("eval").0);
    out.set("round.self_s", self_s);
    out.set("round.span_cover", cover);
    out.set("trace.overhead_s", traced_s - untraced_s);
    out.note(format!(
        "untraced al_run_s = {untraced_s:.4} s, traced replay = {traced_s:.4} s, \
         span cover >= {cover:.5}, spans -> {}",
        spans_out.display()
    ));
    for m in &reference.rounds {
        let t = &m.timings;
        out.note(format!(
            "reference round {}: train_matcher {:.3} s train_committee {:.3} s \
             indexing_retrieval {:.3} s find_dups {:.3} s selection {:.3} s",
            m.round,
            t.train_matcher,
            t.train_committee,
            t.indexing_retrieval,
            t.find_dups,
            t.selection
        ));
    }
    for round in 0..cfg.rounds as u32 {
        let split: Vec<String> = tr
            .spans()
            .iter()
            .filter(|s| s.trace == round && s.parent.is_some())
            .map(|s| format!("{} {:.3}", s.name, s.secs()))
            .collect();
        out.note(format!("replay round {round}: {}", split.join(", ")));
    }
    out
}
