//! `tcsb-bench compare A.json B.json`: judge run B against run A (two
//! summaries written by `tcsb-bench run`/`trace --out`), one row per
//! (workload, metric) that the catalog gives a bound.

use crate::json::{self, Parsed};
use crate::metrics::{self, Better};

/// Verdict on one (workload, metric) pair.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Verdict {
    /// No worse than the bound allows.
    Ok,
    /// Worse than the base by more than the bound.
    Regressed,
    /// Either side's repetitions spread wider than the bound, so the
    /// medians cannot be told apart at that resolution.
    Unresolved,
}

impl Verdict {
    pub fn as_str(self) -> &'static str {
        match self {
            Verdict::Ok => "ok",
            Verdict::Regressed => "regressed",
            Verdict::Unresolved => "unresolved",
        }
    }
}

/// One side of a comparison: a metric's reported value and the spread of
/// the repetitions behind it.
#[derive(Clone, Copy, Debug)]
pub struct Side {
    pub value: f64,
    pub spread: f64,
}

/// Share of `base` by which `new` is worse, in the metric's direction
/// (negative = better).
pub fn worse_by(better: Better, base: f64, new: f64) -> f64 {
    if base == 0.0 {
        return if new == base { 0.0 } else { f64::INFINITY };
    }
    match better {
        Better::Lower => (new - base) / base.abs(),
        Better::Higher => (base - new) / base.abs(),
    }
}

/// Judge `b` against base `a` under `bound`. A bound of 0 means the metric
/// is simulated and must repeat exactly.
pub fn judge(better: Better, bound: f64, a: Side, b: Side) -> Verdict {
    if bound == 0.0 {
        return if a.value == b.value {
            Verdict::Ok
        } else {
            Verdict::Regressed
        };
    }
    if a.spread.max(b.spread) > bound {
        Verdict::Unresolved
    } else if worse_by(better, a.value, b.value) > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    }
}

/// One printed row.
pub struct RowOut {
    pub workload: String,
    pub metric: &'static str,
    pub a: Side,
    pub b: Side,
    pub bound: f64,
    pub verdict: Verdict,
}

fn side(metric: &Parsed) -> Option<Side> {
    Some(Side {
        value: json::num(json::get(metric, "value")?)?,
        spread: json::get(metric, "spread")
            .and_then(json::num)
            .unwrap_or(0.0),
    })
}

fn workloads(doc: &Parsed) -> Result<&[Parsed], String> {
    json::get(doc, "workloads")
        .and_then(Parsed::as_arr)
        .ok_or_else(|| "summary has no \"workloads\" array".to_string())
}

fn name(workload: &Parsed) -> &str {
    json::get(workload, "workload")
        .and_then(Parsed::as_str)
        .unwrap_or("?")
}

fn failed_share(workload: &Parsed) -> f64 {
    let field = |k| json::get(workload, k).and_then(json::num).unwrap_or(0.0);
    field("failed") / field("attempted").max(1.0)
}

/// Compare two parsed summaries. Returns the rows and whether B must be
/// rejected: a regressed row, or a larger failed-operation share.
pub fn compare(a: &Parsed, b: &Parsed) -> Result<(Vec<RowOut>, bool), String> {
    let mut rows = Vec::new();
    let mut reject = false;
    for wa in workloads(a)? {
        let Some(wb) = workloads(b)?.iter().find(|w| name(w) == name(wa)) else {
            return Err(format!("workload {} is missing from B", name(wa)));
        };
        reject |= failed_share(wb) > failed_share(wa);
        let metrics_a = json::get(wa, "metrics")
            .and_then(Parsed::as_obj)
            .unwrap_or(&[]);
        for (metric, va) in metrics_a {
            let Some(def) = metrics::find(metric) else {
                return Err(format!("metric {metric} is not in the catalog"));
            };
            let (Some(bound), Some(vb)) = (
                def.bound,
                json::get(wb, "metrics").and_then(|m| json::get(m, metric)),
            ) else {
                continue;
            };
            // `null` on either side (`shard_speedup` on a one-core host):
            // nothing to judge.
            let (Some(sa), Some(sb)) = (side(va), side(vb)) else {
                continue;
            };
            let mut verdict = judge(def.better, bound, sa, sb);
            if verdict == Verdict::Regressed && (sb.value - sa.value).abs() <= def.floor {
                verdict = Verdict::Ok;
            }
            reject |= verdict == Verdict::Regressed;
            rows.push(RowOut {
                workload: name(wa).to_string(),
                metric: def.name,
                a: sa,
                b: sb,
                bound,
                verdict,
            });
        }
    }
    Ok((rows, reject))
}

/// Render the rows: both medians, the ratio with its base, the bound and
/// the verdict.
pub fn render(rows: &[RowOut]) -> String {
    let mut out = format!(
        "{:<24} {:<36} {:>14} {:>14} {:>9} {:>7}  verdict\n",
        "workload", "metric", "A (base)", "B", "B/A", "bound"
    );
    for r in rows {
        let bound = if r.bound == 0.0 {
            "exact".to_string()
        } else {
            format!("{:.0}%", r.bound * 100.0)
        };
        out += &format!(
            "{:<24} {:<36} {:>14.6} {:>14.6} {:>9.4} {:>7}  {}\n",
            r.workload,
            r.metric,
            r.a.value,
            r.b.value,
            r.b.value / r.a.value,
            bound,
            r.verdict.as_str()
        );
    }
    out
}
