//! Property-based tests for evaluation metrics, selection invariants,
//! and the persistent retrieval engine.

use dial_ann::{HnswParams, IndexSpec, IvfParams, PqParams};
use dial_core::{
    entropy, index_by_committee, select, Candidate, Prf, RetrievalEngine, SelectionInputs,
    SelectionStrategy,
};
use proptest::prelude::*;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashSet;

proptest! {
    #[test]
    fn prf_always_in_unit_range(tp in 0usize..50, extra_pred in 0usize..50, extra_gold in 0usize..50) {
        let p = Prf::from_counts(tp, tp + extra_pred, tp + extra_gold);
        prop_assert!((0.0..=1.0).contains(&p.precision));
        prop_assert!((0.0..=1.0).contains(&p.recall));
        prop_assert!((0.0..=1.0).contains(&p.f1));
        // F1 is between min and max of P and R (harmonic-mean property).
        let lo = p.precision.min(p.recall);
        let hi = p.precision.max(p.recall);
        prop_assert!(p.f1 >= lo - 1e-12 && p.f1 <= hi + 1e-12);
    }

    #[test]
    fn entropy_symmetric_and_bounded(p in 0.0f32..1.0) {
        let e = entropy(p);
        prop_assert!(e >= 0.0);
        prop_assert!(e <= 2.0f32.ln() + 1e-5);
        prop_assert!((e - entropy(1.0 - p)).abs() < 1e-4);
    }

    #[test]
    fn selection_respects_budget_and_exclusions(
        n in 5usize..40,
        budget in 0usize..20,
        strat_ix in 0usize..7,
        seed in 0u64..100,
    ) {
        let strategies = [
            SelectionStrategy::Random,
            SelectionStrategy::Greedy,
            SelectionStrategy::Uncertainty,
            SelectionStrategy::Qbc,
            SelectionStrategy::Partition2,
            SelectionStrategy::Partition4,
            SelectionStrategy::Badge,
        ];
        let cands: Vec<Candidate> = (0..n as u32)
            .map(|i| Candidate { r: i, s: i, distance: i as f32 * 0.1, rank: 0 })
            .collect();
        let probs: Vec<f32> = (0..n).map(|i| (i as f32 / n as f32).clamp(0.01, 0.99)).collect();
        let feats: Vec<Vec<f32>> = (0..n).map(|i| vec![i as f32, 1.0]).collect();
        let labeled: Vec<(Vec<f32>, bool)> =
            (0..6).map(|i| (vec![i as f32, 1.0], i % 2 == 0)).collect();
        let excluded: HashSet<(u32, u32)> =
            (0..n as u32).filter(|i| i % 3 == 0).map(|i| (i, i)).collect();
        let inputs = SelectionInputs {
            cands: &cands,
            probs: &probs,
            feats: &feats,
            labeled_feats: &labeled,
            excluded: &excluded,
            budget,
        };
        let mut rng = StdRng::seed_from_u64(seed);
        let out = select(strategies[strat_ix], &inputs, &mut rng);
        prop_assert!(out.len() <= budget);
        prop_assert!(out.iter().all(|p| !excluded.contains(p)));
        // No duplicates in the selection.
        let set: HashSet<_> = out.iter().collect();
        prop_assert_eq!(set.len(), out.len());
    }

    #[test]
    fn incremental_refresh_at_drift_zero_is_bit_identical_to_rebuild(
        vr_raw in proptest::collection::vec(-2.0f32..2.0, 2 * 30 * 4),
        vs_raw in proptest::collection::vec(-2.0f32..2.0, 2 * 18 * 4),
        tail_raw in proptest::collection::vec(-2.0f32..2.0, 2 * 5 * 4),
        k in 1usize..5,
        depth in 0usize..3,
        family in 0usize..5,
        shards in 2usize..4,
        mutation in 0usize..3,
        permissive in 0usize..2,
        row in 0usize..30,
    ) {
        // The tentpole exactness guarantee: whatever the family, the
        // second-round mutation (none, one overwritten row, appended
        // rows) and the threshold, the second retrieval — index kept,
        // refreshed in place, or rebuilt — must yield a CandidateSet
        // bit-identical to a from-scratch index_by_committee, across
        // pipeline depths.
        let dim = 4;
        let views_r: Vec<Vec<f32>> = vr_raw.chunks(30 * dim).map(<[f32]>::to_vec).collect();
        let views_s: Vec<Vec<f32>> = vs_raw.chunks(18 * dim).map(<[f32]>::to_vec).collect();
        let spec = family_spec(family, shards);
        let threshold = if permissive == 1 { f64::MAX } else { 0.0 };

        let mut engine = RetrievalEngine::new(spec.clone(), threshold, depth);
        let first = engine.retrieve_committee(&views_r, &views_s, dim, k, 400);
        prop_assert_eq!(engine.last_round().incremental_members, 0);
        let reference = index_by_committee(&views_r, &views_s, dim, k, 400, &spec);
        prop_assert_eq!(first.pairs(), reference.pairs());

        let mut next = views_r.clone();
        match mutation {
            0 => {}
            1 => next.iter_mut().for_each(|v| v[row * dim] += 0.5),
            _ => next.iter_mut().zip(tail_raw.chunks(5 * dim)).for_each(|(v, t)| v.extend_from_slice(t)),
        }
        let second = engine.retrieve_committee(&next, &views_s, dim, k, 400);
        // Unchanged rows keep every family's index; only the flat
        // families refresh changed rows (appends at any threshold,
        // overwrites under a positive one); everything else rebuilds.
        let flat_family = matches!(spec, IndexSpec::Flat | IndexSpec::Sharded { .. });
        let kept = mutation == 0 || (flat_family && (mutation == 2 || permissive == 1));
        prop_assert_eq!(engine.last_round().incremental_members, if kept { 2 } else { 0 });
        let reference = index_by_committee(&next, &views_s, dim, k, 400, &spec);
        prop_assert_eq!(second.pairs(), reference.pairs(), "{} mutation {}", spec.name(), mutation);
    }
}

/// The engine-exactness proptest's families: Flat, IVF, PQ, HNSW, and
/// Flat sharded `shards` ways.
fn family_spec(family: usize, shards: usize) -> IndexSpec {
    match family {
        0 => IndexSpec::Flat,
        1 => IndexSpec::IvfFlat(IvfParams { nlist: 4, nprobe: 2, ..Default::default() }),
        2 => IndexSpec::Pq(PqParams { m: 2, nbits: 4, seed: 0 }),
        3 => IndexSpec::Hnsw(HnswParams::default()),
        _ => IndexSpec::Flat.sharded(shards),
    }
}

/// Pinned cases of the proptest above that an in-place refresh of a
/// trained family gets wrong: an IVF row overwritten far from its list
/// under a permissive threshold (re-assigned against the stale
/// quantizer), and PQ rows appended at the default threshold (encoded
/// against codebooks trained on the old rows). Both must retrieve
/// exactly like a fresh build.
#[test]
fn trained_family_second_rounds_match_a_fresh_build_exactly() {
    let dim = 4;
    let mut rng = StdRng::seed_from_u64(7);
    let mut view = |n: usize| -> Vec<Vec<f32>> {
        (0..2).map(|_| (0..n * dim).map(|_| rng.gen_range(-2.0f32..2.0)).collect()).collect()
    };
    let (views_r, views_s, tail) = (view(30), view(18), view(5));
    let mut overwritten = views_r.clone();
    for v in &mut overwritten {
        v[..dim].copy_from_slice(&[9.0, -9.0, 9.0, -9.0]);
    }
    let mut appended = views_r.clone();
    for (v, t) in appended.iter_mut().zip(&tail) {
        v.extend_from_slice(t);
    }
    for (family, threshold, next) in [(1, f64::MAX, &overwritten), (2, 0.0, &appended)] {
        let spec = family_spec(family, 1);
        let mut engine = RetrievalEngine::new(spec.clone(), threshold, 0);
        engine.retrieve_committee(&views_r, &views_s, dim, 3, 400);
        let got = engine.retrieve_committee(next, &views_s, dim, 3, 400);
        let want = index_by_committee(next, &views_s, dim, 3, 400, &spec);
        assert_eq!(got.pairs(), want.pairs(), "{}", spec.name());
    }
}

proptest! {
    #[test]
    fn served_responses_bitwise_match_direct_search_through_the_queue(
        rows in proptest::collection::vec(-2.0f32..2.0, 40 * 4..120 * 4),
        qraw in proptest::collection::vec(-2.0f32..2.0, 2 * 4..10 * 4),
        n_req in 1usize..40,
        workers in 0usize..4,
        batch_max in 1usize..9,
        cache_entries in 0usize..8,
        seed in 0u64..50,
    ) {
        // The serving-layer exactness guarantee: whatever batches the
        // admission queue coalesces, however many workers race over
        // them, and whatever the result cache holds (disabled, smaller
        // than the pool, or covering it), every response is bitwise
        // identical to a direct single-query `search` on the same index
        // — ids and f32 distance bits both. Requests draw with heavy
        // repetition from a small pool, so cache hits, in-batch
        // duplicates, and evictions all genuinely occur, and the serve
        // accounting (`served == scanned + hits + coalesced`) must
        // close over whichever mix this case produced.
        let dim = 4;
        let rows = &rows[..rows.len() / dim * dim];
        let pool: Vec<Vec<f32>> =
            qraw.chunks_exact(dim).map(<[f32]>::to_vec).collect();
        let mut rng = StdRng::seed_from_u64(seed);
        let requests: Vec<(usize, usize)> = (0..n_req)
            .map(|_| (rng.gen_range(0..pool.len()), rng.gen_range(1..8)))
            .collect();

        let build = || {
            let mut ix = dial_ann::FlatIndex::new(dim, Default::default());
            ix.add_batch(rows);
            ix
        };
        let reference = build();
        let svc = dial_core::QueryService::new(
            Box::new(build()),
            dial_core::ServeConfig {
                queue_capacity: requests.len(),
                batch_max,
                workers,
                default_deadline: None,
                cache_entries,
                cache_bytes: 0,
            },
        );
        let tickets: Vec<dial_core::Ticket> = requests
            .iter()
            .map(|&(q, k)| svc.submit(pool[q].clone(), k, None).unwrap())
            .collect();
        if workers == 0 {
            svc.pump();
        }
        let stats = svc.shutdown();
        prop_assert_eq!(stats.served as usize, requests.len());
        prop_assert!(stats.accounting_closes(), "stats must close: {:?}", stats);
        for (ticket, &(q, k)) in tickets.into_iter().zip(&requests) {
            let got = ticket.wait().unwrap().hits;
            let want = reference.search(&pool[q], k);
            prop_assert_eq!(got.len(), want.len());
            for (g, w) in got.iter().zip(&want) {
                prop_assert_eq!(g.id, w.id);
                prop_assert_eq!(g.distance.to_bits(), w.distance.to_bits());
            }
        }
    }
}
