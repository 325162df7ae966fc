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
    ("baseline (no exit)", 0x6f38caee25082c5e),
    ("25% of cloud peers exit (abrupt)", 0xeb130fbb97e6f000),
    ("50% of cloud peers exit (abrupt)", 0xd9c4b0d7e1ea62fd),
    ("75% of cloud peers exit (abrupt)", 0xfd225e2a325d3d95),
    ("100% of cloud peers exit (abrupt)", 0x2eadc3a64bada5c3),
    ("50% of cloud peers exit (graceful)", 0xe6909e4fc3fc1293),
    ("all Hydras exit (abrupt)", 0xc59bd3b153c75723),
    ("EU region partitioned (heals at T+6h)", 0x06f86aecc434287c),
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
