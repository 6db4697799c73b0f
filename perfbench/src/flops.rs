//! Computed (not measured) floating-point operation counts of the TPLM.
//!
//! Counts the matrix products of one encoder pass over `n` tokens, at
//! two FLOPs per multiply-add, from the model's `TplmConfig`:
//!
//! ```text
//! trunk(n) = L · (8·n·d² + 4·n²·d + 4·n·d·d_ff)
//!            Q, K, V, O projections   8·n·d²
//!            scores Q·Kᵀ and A·V      4·n²·d   (summed over heads)
//!            feed-forward up + down   4·n·d·d_ff
//! head     = 2·(4d·d) + 2·(d + 8)     matcher head: 4d→d, then (d+8)→1
//! score(n) = trunk(n) + head          one paired-mode inference
//! train(n) = 3 · score(n)             forward + backward (2× forward)
//! encode(n)= trunk(n)                 one single-mode embedding
//! ```
//!
//! Element-wise work (softmax, layer norm, GELU, dropout, the detached
//! coverage features) is left out. `n` is the length of the token ids the
//! program is actually fed, from `paired_mode_ids` / `single_mode_ids`.

use dial_tplm::TplmConfig;

pub fn trunk(cfg: &TplmConfig, n: usize) -> f64 {
    let (n, d, ff) = (n as f64, cfg.d_model as f64, cfg.d_ff as f64);
    cfg.n_layers as f64 * (8.0 * n * d * d + 4.0 * n * n * d + 4.0 * n * d * ff)
}

pub fn head(cfg: &TplmConfig) -> f64 {
    let d = cfg.d_model as f64;
    2.0 * (4.0 * d * d) + 2.0 * (d + 8.0)
}

pub fn score(cfg: &TplmConfig, n: usize) -> f64 {
    trunk(cfg, n) + head(cfg)
}

pub fn train(cfg: &TplmConfig, n: usize) -> f64 {
    3.0 * score(cfg, n)
}
