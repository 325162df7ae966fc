//! The `telemetry` artefact: a deterministic snapshot of the virtual-time
//! metrics registry over the crawl campaign.
//!
//! The registry records only commutative folds of virtual-time
//! observations, so the snapshot — like every table — is identical across
//! reruns and shard counts, and CI diffs the rendered lines against a
//! committed expectation file. Wall-clock profiler output never appears
//! here; it ships separately as a Chrome trace (`--profile-out`).

use crate::report::{Report, Unit};

/// Run `campaign` with this thread's metrics registry reset and live, and
/// return its result with the registry snapshot covering exactly that run.
/// This thread's telemetry flag is restored afterwards, so whatever runs
/// next records with whatever the caller selected.
pub fn instrumented<T>(campaign: impl FnOnce() -> T) -> (T, telemetry::Snapshot) {
    let prev = telemetry::enabled();
    telemetry::metrics::reset();
    telemetry::set_enabled(true);
    let out = campaign();
    let snap = telemetry::snapshot();
    telemetry::set_enabled(prev);
    (out, snap)
}

/// The EXPERIMENTS.md section for a registry snapshot.
pub fn report(snap: &telemetry::Snapshot) -> Report {
    let mut r = Report::new(
        "telemetry",
        "Telemetry registry — crawl campaign (virtual-time metrics)",
    );
    for (name, v) in &snap.counters {
        r.val(&format!("counter · {name}"), *v as f64, Unit::Count);
    }
    for (name, v) in &snap.gauges {
        r.val(&format!("gauge · {name}"), *v as f64, Unit::Count);
    }
    for (name, h) in &snap.hists {
        r.val(&format!("{name} · samples"), h.count as f64, Unit::Count);
        r.val(&format!("{name} · mean"), h.mean(), Unit::Count);
    }
    r.note(format!(
        "registry digest {:#018x} — deterministic per (scale, seed), invariant across \
reruns and shard counts; the trace digest is byte-identical with telemetry on or off \
(asserted in tests)",
        snap.digest()
    ));
    r.note(
        "tiny-scale pin: trace and registry digests in ci/expected-telemetry-tiny.txt (CI-diffed)",
    );
    r
}

/// Render the plain-text artefact CI diffs against an expectation file:
/// header, trace + registry digests, then the full registry in fixed id
/// order (occupied histogram buckets only). Deliberately omits the shard
/// count: unlike `budget`, every line here is shard-invariant, so the
/// same expectation file serves every shard count.
pub fn render_lines(
    scale_name: &str,
    seed: u64,
    trace_digest: u64,
    snap: &telemetry::Snapshot,
) -> String {
    let mut out = format!("telemetry scale={scale_name} seed={seed}\n");
    out.push_str(&format!("trace_digest {trace_digest:#018x}\n"));
    out.push_str(&format!("registry_digest {:#018x}\n", snap.digest()));
    for line in snap.render_lines() {
        out.push_str(&line);
        out.push('\n');
    }
    out
}
