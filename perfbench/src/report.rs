//! Metric names, units and the result line.
//!
//! The names and units here are the ones `BENCHMARK.json` declares; a unit
//! test keeps the two in step.

use crate::host::json_str;
use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics every workload reports, with their units. What
/// `p50_ms` and `rate_per_s` count depends on the workload's unit of work
/// (see the README). Tails (p90, p99) are printed with their sample counts
/// but not gated: on a shared host they read the other tenants' load.
pub const END_TO_END: [(&str, &str); 4] = [
    ("setup_s", "s"),
    ("peak_rss_mb", "MiB"),
    ("p50_ms", "ms"),
    ("rate_per_s", "1/s"),
];

/// Per-layer metrics the traced run reports, with their units. A layer a
/// workload does not reach reads 0.
pub const PER_LAYER: [(&str, &str); 37] = [
    ("tensor.select_vecmat", "count"),
    ("tensor.select_skinny_n", "count"),
    ("tensor.select_square", "count"),
    ("tensor.select_conv", "count"),
    ("tensor.pack_panel_hits", "count"),
    ("tensor.buffer_fresh_bytes", "B"),
    ("tensor.buffer_pool_hit_ratio", "ratio"),
    ("tensor.scratch_high_water_bytes", "B"),
    ("tensor.pool_utilization", "ratio"),
    ("core.search.weight_phase_ms", "ms"),
    ("core.search.arch_phase_ms", "ms"),
    ("core.search.val_phase_ms", "ms"),
    ("core.supernet.weight_step_ms", "ms"),
    ("core.supernet.arch_step_ms", "ms"),
    ("core.perf_model.estimate_us", "us"),
    ("ir.passes.compile_ms", "ms"),
    ("ir.artifact.load_ms", "ms"),
    ("ir.exec.batch_ms.b1", "ms"),
    ("ir.exec.batch_ms.b2_3", "ms"),
    ("ir.exec.batch_ms.b4_7", "ms"),
    ("ir.exec.batch_ms.b8_15", "ms"),
    ("ir.exec.batch_ms.b16_31", "ms"),
    ("ir.exec.batch_ms.b32", "ms"),
    ("ir.exec.us_per_image", "us"),
    ("ir.exec.window_forward_us", "us"),
    ("runtime.serve.batch_size_mean", "count"),
    ("runtime.serve.deadline_flush_ratio", "ratio"),
    ("runtime.serve.queue_wait_ms_p50", "ms"),
    ("runtime.serve.queue_wait_ms_p99", "ms"),
    ("runtime.serve.queue_peak", "count"),
    ("runtime.serve.submit_us", "us"),
    ("runtime.serve.gen_lag_ms_max", "ms"),
    ("runtime.stream.push_us", "us"),
    ("runtime.stream.emit_push_us", "us"),
    ("runtime.stream.save_state_us", "us"),
    ("runtime.stream.restore_state_us", "us"),
    ("runtime.stream.state_bytes", "B"),
];

/// Metric values by name.
pub type Values = BTreeMap<&'static str, f64>;

/// Everything one run of one workload produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted (searches, requests or emitted windows).
    pub attempted: u64,
    /// Operations that errored, were refused or failed their oracle.
    pub failed: u64,
    /// End-to-end metrics of the untraced measurement.
    pub end_to_end: Values,
    /// End-to-end metrics of the traced measurement (trace runs only).
    pub traced_end_to_end: Values,
    /// Per-layer metrics (trace runs only).
    pub per_layer: Values,
    /// Extra facts for the record line (sample counts, percentiles).
    pub notes: Vec<(String, String)>,
}

impl Outcome {
    /// Adds a note to the record line.
    pub fn note(&mut self, key: impl Into<String>, value: impl std::fmt::Display) {
        self.notes.push((key.into(), value.to_string()));
    }

    /// Traced minus untraced value of every end-to-end metric both
    /// measurements report.
    #[must_use]
    pub fn tracing_overhead(&self) -> Values {
        self.traced_end_to_end
            .iter()
            .filter_map(|(k, t)| self.end_to_end.get(k).map(|u| (*k, t - u)))
            .collect()
    }

    /// The metric set the result line carries, in declared order, with a
    /// list of the declared names that are missing or not finite.
    #[must_use]
    pub fn result_metrics(
        &self,
        trace: bool,
    ) -> (Vec<(&'static str, f64, &'static str)>, Vec<&'static str>) {
        let mut missing = Vec::new();
        let mut out = Vec::new();
        if trace {
            for (name, unit) in PER_LAYER {
                let v = self.per_layer.get(name).copied().unwrap_or(0.0);
                if !v.is_finite() {
                    missing.push(name);
                }
                out.push((name, if v.is_finite() { v } else { 0.0 }, unit));
            }
        } else {
            for (name, unit) in END_TO_END {
                match self.end_to_end.get(name) {
                    Some(&v) if v.is_finite() && v > 0.0 => out.push((name, v, unit)),
                    _ => missing.push(name),
                }
            }
        }
        (out, missing)
    }
}

/// Formats a number with every digit it has (JSON has no NaN or Inf;
/// callers filter those out first).
#[must_use]
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    }
}

/// A flat JSON object of metric values, in the given order.
#[must_use]
pub fn values_json(values: &Values) -> String {
    let mut s = String::from("{");
    for (i, (k, v)) in values.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(s, "{sep}{}:{}", json_str(k), num(*v));
    }
    s.push('}');
    s
}

/// The last line of standard output, in the shape the benchmark contract
/// fixes.
#[must_use]
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: &[(&'static str, f64, &'static str)],
) -> String {
    let mut m = String::new();
    for (i, (name, value, unit)) in metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            m,
            "{sep}{}: {{\"value\": {}, \"unit\": {}}}",
            json_str(name),
            num(*value),
            json_str(unit)
        );
    }
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \
         \"metrics\": {{{m}}}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The declared metric set, as `BENCHMARK.json` records it.
    const BENCHMARK_JSON: &str = include_str!("../../BENCHMARK.json");

    fn declared(section: &str) -> Vec<(String, String)> {
        let start = BENCHMARK_JSON
            .find(&format!("\"{section}\""))
            .expect("section present");
        let body = &BENCHMARK_JSON[start..];
        let body = &body[..body.find(']').expect("section closes")];
        body.split('{')
            .skip(1)
            .map(|entry| {
                let field = |key: &str| {
                    let at = entry.find(&format!("\"{key}\"")).expect("field present");
                    let rest = &entry[at + key.len() + 2..];
                    let open = rest.find('"').expect("value opens") + 1;
                    let close = open + rest[open..].find('"').expect("value closes");
                    rest[open..close].to_owned()
                };
                (field("name"), field("unit"))
            })
            .collect()
    }

    #[test]
    fn metric_sets_match_benchmark_json() {
        let pairs = |set: &[(&str, &str)]| -> Vec<(String, String)> {
            set.iter()
                .map(|(n, u)| ((*n).to_owned(), (*u).to_owned()))
                .collect()
        };
        assert_eq!(declared("end_to_end"), pairs(&END_TO_END));
        assert_eq!(declared("per_layer"), pairs(&PER_LAYER));
    }

    #[test]
    fn result_line_has_the_contract_shape() {
        let line = result_line(true, 3, 0, &[("p50_ms", 1.25, "ms")]);
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 3, \"failed\": 0, \
             \"metrics\": {\"p50_ms\": {\"value\": 1.25, \"unit\": \"ms\"}}}"
        );
    }

    #[test]
    fn missing_or_zero_end_to_end_metrics_are_flagged() {
        let mut o = Outcome::default();
        o.end_to_end.insert("setup_s", 0.5);
        o.end_to_end.insert("p50_ms", 0.0);
        let (found, missing) = o.result_metrics(false);
        assert_eq!(found.len(), 1);
        assert_eq!(missing, vec!["peak_rss_mb", "p50_ms", "rate_per_s"]);
        // Per-layer metrics default to zero for layers a workload skips.
        let (layers, missing) = o.result_metrics(true);
        assert_eq!(layers.len(), PER_LAYER.len());
        assert!(missing.is_empty());
    }

    #[test]
    fn overhead_is_traced_minus_untraced() {
        let mut o = Outcome::default();
        o.end_to_end.insert("p50_ms", 2.0);
        o.traced_end_to_end.insert("p50_ms", 2.5);
        o.traced_end_to_end.insert("rate_per_s", 9.0);
        let d = o.tracing_overhead();
        assert_eq!(d.len(), 1);
        assert_eq!(d["p50_ms"], 0.5);
    }
}
