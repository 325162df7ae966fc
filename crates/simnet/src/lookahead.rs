//! Conservative lookahead bounds for the sharded executor: how soon one
//! shard can influence another, from the latency matrix and the regions each
//! shard hosts. `Sim::run_until` hands them to `crate::shard::run_epochs`.

use crate::state::{NodeId, SimCore};
use crate::time::Dur;
use std::sync::Arc;

/// Cached conservative lookahead bounds, derived from the latency model and
/// the region-occupancy of every shard (see [`crate::Sim::lookahead_matrix`]).
#[derive(Clone)]
pub(crate) struct LookaheadInfo {
    /// Minimum over all occupied cross-shard directed pairs (the classic
    /// global lookahead; `NO_LINK` when no such pair exists).
    pub(crate) min: Dur,
    /// Maximum over all occupied *finite* cross-shard directed pairs
    /// (`Dur::ZERO` when none exist) — bounds how far beyond its horizon a
    /// shard may be asked to schedule a cross-shard event.
    pub(crate) max_finite: Dur,
    /// Row-major shard×shard matrix: `direct[src * n + dst]` is the floor
    /// latency of any single event pushed from `src` to `dst` — the bound
    /// `route` asserts per push. Diagonal and unoccupied pairs hold
    /// `NO_LINK`.
    pub(crate) direct: Arc<[Dur]>,
    /// Metric closure (all-pairs shortest path) of `direct`: the earliest a
    /// shard can *influence* another through any chain of cross-shard
    /// events, possibly relayed via intermediate shards. This is the matrix
    /// the executor's horizons must use — with split regions the direct
    /// floor of a wide-area pair can exceed the two-hop path through a
    /// nearby shard, and horizons computed from `direct` alone would admit
    /// causality violations (events arriving below an already-processed
    /// horizon).
    pub(crate) closure: Arc<[Dur]>,
}

/// Sentinel lookahead for shard pairs with no possible link (diagonal, or
/// one side hosts no regions): far enough to never bind an epoch, small
/// enough that `t + NO_LINK` cannot overflow under `saturating_add`.
pub(crate) const NO_LINK: Dur = Dur(u64::MAX / 4);

impl LookaheadInfo {
    /// Derive the bounds for `n` shards from any shard's core (`core0`):
    /// only replicated columns and the latency matrix are read.
    pub(crate) fn compute<M, C>(core0: &SimCore<M, C>, n: usize) -> LookaheadInfo {
        let dim = core0.lat_dim;
        // Region occupancy per shard.
        let mut occupied = vec![vec![false; dim]; n];
        for (i, &region) in core0.region_idx.iter().enumerate() {
            occupied[core0.shard_of(NodeId(i as u32)) as usize][region as usize] = true;
        }
        // Multiplicative jitter draws from (1-j, 1+j) exclusive;
        // flooring at (1-j) is a safe conservative bound.
        let jitter_floor = (1.0 - core0.lat_jitter).max(0.0);
        let mut matrix = vec![NO_LINK; n * n];
        let mut min = NO_LINK;
        let mut max_finite = Dur::ZERO;
        for s1 in 0..n {
            for s2 in 0..n {
                if s1 == s2 {
                    continue;
                }
                // Latency is sampled from base[region(src)][region(dst)],
                // so the channel floor is directed.
                let mut best: Option<Dur> = None;
                for r1 in 0..dim {
                    if !occupied[s1][r1] {
                        continue;
                    }
                    for r2 in 0..dim {
                        if !occupied[s2][r2] {
                            continue;
                        }
                        let d = core0.lat_base[r1 * dim + r2];
                        best = Some(best.map_or(d, |m| m.min(d)));
                    }
                }
                if let Some(base) = best {
                    let floor = Dur((base.0 as f64 * jitter_floor).floor() as u64);
                    matrix[s1 * n + s2] = floor;
                    min = min.min(floor);
                    max_finite = max_finite.max(floor);
                }
            }
        }
        // Metric closure (Floyd–Warshall): influence can hop through an
        // intermediate shard, so the safe per-pair horizon bound is the
        // shortest path over direct channel floors.
        let mut closure = matrix.clone();
        for k in 0..n {
            for a in 0..n {
                if a == k {
                    continue;
                }
                let lak = closure[a * n + k];
                if lak >= NO_LINK {
                    continue;
                }
                for b in 0..n {
                    if b == k || b == a {
                        continue;
                    }
                    let cand = lak.0.saturating_add(closure[k * n + b].0);
                    if cand < closure[a * n + b].0 {
                        closure[a * n + b] = Dur(cand);
                    }
                }
            }
        }
        LookaheadInfo {
            min,
            max_finite,
            direct: matrix.into(),
            closure: closure.into(),
        }
    }
}
