//! Report structures: paper-vs-measured tables for every experiment, plus
//! the engine-health section derived from `simnet::SimStats`.

use simnet::{ShardLoad, SimStats, StateBytes};
use std::fmt;

/// One comparison row.
#[derive(Clone, Debug)]
pub struct Row {
    /// Metric name.
    pub metric: String,
    /// The paper's published value (None for context-only rows).
    pub paper: Option<f64>,
    /// The value measured in this reproduction.
    pub measured: f64,
    /// Formatting hint.
    pub unit: Unit,
}

/// Value formatting.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Unit {
    /// Percentage (value is a 0..1 share).
    Pct,
    /// Plain count.
    Count,
    /// Seconds.
    Secs,
    /// Raw ratio.
    Ratio,
}

impl Unit {
    fn fmt_val(&self, v: f64) -> String {
        match self {
            Unit::Pct => format!("{:.1}%", v * 100.0),
            Unit::Count => {
                if v >= 1000.0 {
                    format!("{v:.0}")
                } else {
                    format!("{v:.1}")
                }
            }
            Unit::Secs => format!("{v:.1}s"),
            Unit::Ratio => format!("{v:.3}"),
        }
    }
}

/// One experiment's result table.
#[derive(Clone, Debug)]
pub struct Report {
    /// Experiment id (e.g. `"fig03"`).
    pub id: String,
    /// Human title.
    pub title: String,
    /// Comparison rows.
    pub rows: Vec<Row>,
    /// Free-form notes (series excerpts, caveats).
    pub notes: Vec<String>,
}

impl Report {
    /// New empty report.
    pub fn new(id: &str, title: &str) -> Report {
        Report {
            id: id.to_string(),
            title: title.to_string(),
            rows: vec![],
            notes: vec![],
        }
    }

    /// Add a paper-vs-measured row.
    pub fn cmp(&mut self, metric: &str, paper: f64, measured: f64, unit: Unit) -> &mut Self {
        self.rows.push(Row {
            metric: metric.to_string(),
            paper: Some(paper),
            measured,
            unit,
        });
        self
    }

    /// Add a measured-only row.
    pub fn val(&mut self, metric: &str, measured: f64, unit: Unit) -> &mut Self {
        self.rows.push(Row {
            metric: metric.to_string(),
            paper: None,
            measured,
            unit,
        });
        self
    }

    /// Add a note line.
    pub fn note(&mut self, s: impl Into<String>) -> &mut Self {
        self.notes.push(s.into());
        self
    }

    /// Render as a Markdown section (EXPERIMENTS.md).
    pub fn to_markdown(&self) -> String {
        let mut out = format!("### {} — {}\n\n", self.id, self.title);
        out.push_str("| metric | paper | measured |\n|---|---|---|\n");
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| r.unit.fmt_val(p))
                .unwrap_or_else(|| "—".into());
            out.push_str(&format!(
                "| {} | {} | {} |\n",
                r.metric,
                paper,
                r.unit.fmt_val(r.measured)
            ));
        }
        for n in &self.notes {
            out.push_str(&format!("\n> {n}\n"));
        }
        out.push('\n');
        out
    }
}

/// Scheduler/engine counters for one campaign as a report section, so
/// regressions in the event core are visible in EXPERIMENTS.md output, not
/// only in `tcsb-bench`. Every *table* row is deterministic per
/// seed and shard-invariant (the acceptance oracle for the sharded
/// executor); host-dependent figures — wall time, throughput, per-queue
/// peak — and the shard count go into a clearly-marked note instead.
/// `wall_secs` is the host wall-clock time the campaign took; pass `0.0`
/// when unknown. `loads` carries the per-shard budget (owned nodes,
/// dispatched events, measured state-byte split from
/// [`simnet::Sim::state_bytes`]); shard-layout-dependent, so it is
/// rendered as notes rather than table rows.
pub fn engine_report(
    id: &str,
    title: &str,
    stats: &SimStats,
    wall_secs: f64,
    shards: usize,
    loads: &[ShardLoad],
) -> Report {
    let mut r = Report::new(id, title);
    r.val("events processed", stats.events as f64, Unit::Count);
    r.val("messages sent", stats.msgs_sent as f64, Unit::Count);
    r.val(
        "messages delivered",
        stats.msgs_delivered as f64,
        Unit::Count,
    );
    r.val(
        "messages dropped (offline/disconnected)",
        stats.msgs_dropped as f64,
        Unit::Count,
    );
    r.val(
        "messages lost (random loss)",
        stats.msgs_lost as f64,
        Unit::Count,
    );
    r.val("dials ok", stats.dials_ok as f64, Unit::Count);
    r.val("dials failed", stats.dials_failed as f64, Unit::Count);
    let k = &stats.kinds;
    r.note(format!(
        "events by kind: deliver {} · dial-arrive {} · handshake {} · relay-hop {} · \
dial-outcome {} · timer {} · command {} · node-up {} · node-down {} · conn-closed {} · fault {}",
        k.deliver,
        k.dial_arrive,
        k.handshake,
        k.relay_hop,
        k.dial_outcome,
        k.timer,
        k.command,
        k.node_up,
        k.node_down,
        k.conn_closed,
        k.fault
    ));
    if wall_secs > 0.0 {
        r.note(format!(
            "host metrics (non-deterministic, excluded from the byte-identity contract): \
wall {:.1}s · {:.0} events/s · peak shard-queue {} · shards {}",
            wall_secs,
            stats.events as f64 / wall_secs,
            stats.peak_queue_len,
            shards
        ));
    }
    if !loads.is_empty() {
        let mut total = StateBytes::default();
        for l in loads {
            total.add(&l.state);
        }
        let nodes = total.nodes.max(1);
        r.note(format!(
            "state bytes (shard-layout-dependent, excluded from the byte-identity contract): \
{} nodes · replica {} B total ({:.1} B/node/shard) · owner-only {} B",
            total.nodes,
            total.replica_bytes,
            total.replica_bytes as f64 / (nodes * loads.len() as u64) as f64,
            total.owned_bytes,
        ));
        let per_shard: Vec<String> = loads
            .iter()
            .map(|l| {
                format!(
                    "s{}: owned {} · dispatched {} · owner-only {} B · epochs {} · \
barrier-waits {} · mailbox-out {} ev / {} B",
                    l.shard,
                    l.state.owned_nodes,
                    l.dispatched,
                    l.state.owned_bytes,
                    l.sync.epochs,
                    l.sync.barrier_waits,
                    l.sync.mailbox_events_out,
                    l.sync.mailbox_bytes_out
                )
            })
            .collect();
        let max_d = loads.iter().map(|l| l.dispatched).max().unwrap_or(0);
        let min_d = loads.iter().map(|l| l.dispatched).min().unwrap_or(0).max(1);
        r.note(format!(
            "per-shard budget (balanced placement; dispatched max/min ratio \
{}.{:02}): {}",
            max_d / min_d,
            (max_d * 100 / min_d) % 100,
            per_shard.join(" | ")
        ));
    }
    r
}

impl fmt::Display for Report {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        writeln!(f, "==== {} — {} ====", self.id, self.title)?;
        for r in &self.rows {
            let paper = r
                .paper
                .map(|p| r.unit.fmt_val(p))
                .unwrap_or_else(|| "      —".into());
            writeln!(
                f,
                "  {:<52} paper {:>9}   measured {:>9}",
                r.metric,
                paper,
                r.unit.fmt_val(r.measured)
            )?;
        }
        for n in &self.notes {
            writeln!(f, "  · {n}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn renders_text_and_markdown() {
        let mut r = Report::new("fig99", "Test");
        r.cmp("cloud share", 0.796, 0.81, Unit::Pct);
        r.val("events", 1234.0, Unit::Count);
        r.note("context");
        let txt = r.to_string();
        assert!(txt.contains("79.6%"));
        assert!(txt.contains("81.0%"));
        let md = r.to_markdown();
        assert!(md.contains("| cloud share | 79.6% | 81.0% |"));
        assert!(md.contains("> context"));
    }
}
