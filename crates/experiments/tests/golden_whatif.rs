//! Golden-digest regression for the `whatif-cloud-exit` sweep at tiny
//! scale: every row's trace digest is pinned to the determinism-contract-v2
//! values. Any engine-history change — scheduler reordering, RNG stream
//! drift, connection-semantics edits — trips this in `cargo test` instead
//! of surfacing only as a nightly EXPERIMENTS.md diff. The digests are
//! shard-invariant by contract, so this test passes identically under any
//! `TCSB_SHARDS` (CI matrixes 1 and 4).
//!
//! If an *intentional* contract change lands (a v3), regenerate with
//! `repro whatif-cloud-exit --scale tiny` and update the constants, noting
//! the bump in ROADMAP.md as PR 4 did for v2.

use experiments::{resilience_exp, Scale};

/// Pinned per-row digests for seed `42 ^ 0xC10D` (the `repro` default
/// derivation) at tiny scale, in sweep order.
const GOLDEN: &[(&str, u64)] = &[
    ("baseline (no exit)", 0xeba832b3a3ecb93a),
    ("25% of cloud peers exit (abrupt)", 0xe9d04949bac81f46),
    ("50% of cloud peers exit (abrupt)", 0x0341f05fba59a8e3),
    ("75% of cloud peers exit (abrupt)", 0x3caf062fc8e647c1),
    ("100% of cloud peers exit (abrupt)", 0xc1f4e56989f80a45),
    ("50% of cloud peers exit (graceful)", 0x774cc36f310cc1cc),
    ("all Hydras exit (abrupt)", 0xe2516a3185ea084e),
    ("EU region partitioned (heals at T+6h)", 0x23523a7161891b20),
];

#[test]
fn cloud_exit_sweep_digests_are_pinned() {
    let got = resilience_exp::sweep_digests(Scale::Tiny, 42 ^ 0xC10D, 0);
    assert_eq!(got.len(), GOLDEN.len(), "sweep row count changed");
    for ((label, digest), (want_label, want_digest)) in got.iter().zip(GOLDEN) {
        assert_eq!(label, want_label, "sweep row order/labels changed");
        assert_eq!(
            *digest, *want_digest,
            "{label}: digest {digest:#018x} != pinned {want_digest:#018x} — \
the engine's event history changed (determinism contract); if intentional, \
regenerate the constants and record the contract bump"
        );
    }
}
