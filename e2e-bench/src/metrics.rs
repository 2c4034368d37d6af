//! Metric definitions: the end-to-end metrics of the untraced trials and
//! the per-layer metrics derived from a traced run's spans.

use std::collections::BTreeMap;

use crate::trace::LayerStat;

/// One reported number.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// Which statistic of its timed trials a run reports for a metric.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Reported {
    /// The smallest value: the best trial.
    Min,
    /// The largest value: the best trial of a higher-is-better metric.
    Max,
    /// The median.
    Median,
}

/// End-to-end metrics: `(name, unit, reported statistic)`, in report
/// order; each is measured once per trial.
///
/// Campaign times report the best trial. On a two-core Xeon VM shared
/// with other tenants, interference comes and goes within seconds and
/// only ever adds time (to CPU time too: identical `lane-verify` trials
/// ranged from 2.9 to 5.3 s within one run), so the median of a run
/// follows the neighbours' load while the best trial follows the code.
/// Set-up time and memory report the median.
pub const END_TO_END: [(&str, &str, Reported); 5] = [
    ("wall_s", "s", Reported::Min),
    ("tasks_per_s", "tasks/s", Reported::Max),
    ("cpu_s", "s", Reported::Min),
    ("setup_s", "s", Reported::Median),
    ("peak_rss_mb", "MiB", Reported::Median),
];

/// What a per-layer metric reads from its layer's aggregate.
#[derive(Debug, Clone, Copy)]
enum Field {
    /// Summed self time, in seconds.
    SelfS,
    /// Number of calls.
    Calls,
    /// The layer's work count, under the given name.
    Count(&'static str),
    /// Work count per second of the layer's inclusive time.
    Rate(&'static str),
    /// Work count per call (the count is the layer's failures).
    Ratio(&'static str),
}

/// The traced layers and what each reports. A layer's work count is
/// PHVs or packets for the execution layers, ddmin checks for
/// `dsim.minimize`, enumerated cases for `dsim.verify`, and failed
/// compiles for `chipmunk.compile`.
const LAYERS: &[(&str, &[Field])] = &[
    (
        "dsim.minimize",
        &[
            Field::SelfS,
            Field::Calls,
            Field::Count("checks"),
            Field::Rate("checks_per_s"),
        ],
    ),
    ("dgen.generate", &[Field::SelfS, Field::Calls]),
    ("dgen.exec.unoptimized", EXEC),
    ("dgen.exec.scc", EXEC),
    ("dgen.exec.scc_inline", EXEC),
    ("dgen.exec.fused", EXEC),
    ("dgen.lanes", &[Field::SelfS, Field::Rate("phvs_per_s")]),
    ("domino.parse", &[Field::SelfS, Field::Calls]),
    ("domino.interp", EXEC),
    ("progen.candidate", &[Field::SelfS, Field::Calls]),
    (
        "chipmunk.compile",
        &[Field::SelfS, Field::Calls, Field::Ratio("fail_ratio")],
    ),
    ("analysis.screen", &[Field::SelfS, Field::Calls]),
    ("analysis.tv", &[Field::SelfS, Field::Calls]),
    ("analysis.symbolic", &[Field::SelfS, Field::Calls]),
    ("analysis.flag", &[Field::SelfS, Field::Calls]),
    ("p4.front", &[Field::SelfS, Field::Calls]),
    ("p4.exec", &[Field::SelfS, Field::Rate("packets_per_s")]),
    ("dgen.mat", &[Field::SelfS, Field::Rate("packets_per_s")]),
    ("dsim.traffic", &[Field::SelfS]),
    ("core.compare", &[Field::SelfS]),
    ("dsim.fault", &[Field::SelfS, Field::Calls]),
    (
        "dsim.verify",
        &[
            Field::SelfS,
            Field::Count("cases"),
            Field::Rate("cases_per_s"),
        ],
    ),
];

const EXEC: &[Field] = &[
    Field::SelfS,
    Field::Count("phvs"),
    Field::Rate("phvs_per_s"),
];

/// Everything a traced run measured, plus the untraced numbers the
/// cross-run metrics need.
#[derive(Debug, Clone, Default)]
pub struct TracedInputs {
    /// Per-layer aggregates (span name → stats).
    pub layers: BTreeMap<String, LayerStat>,
    /// Traced run's wall time, in seconds.
    pub wall_s: f64,
    /// Summed duration of the top-level spans, in seconds.
    pub top_level_s: f64,
    /// Median task latency, in milliseconds (0 without task spans).
    pub task_p50_ms: f64,
    /// Tail task latency, in milliseconds (0 without enough tasks).
    pub task_tail_ms: f64,
    /// Reported `cpu_s` of the untraced trials.
    pub untraced_cpu_s: f64,
    /// Median over the untraced trials of `cpu_s` ÷ (`wall_s` × workers).
    pub runtime_efficiency: f64,
}

/// Every per-layer metric, in report order, with 0 for a layer the
/// workload does not reach.
pub fn per_layer(t: &TracedInputs) -> Vec<Metric> {
    let stat = |name: &str| t.layers.get(name).copied().unwrap_or_default();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let mut out = Vec::new();
    for &(layer, fields) in LAYERS {
        let s = stat(layer);
        for f in fields {
            let (suffix, unit, value) = match *f {
                Field::SelfS => ("self_s", "s", s.self_s),
                Field::Calls => ("calls", "count", s.calls as f64),
                Field::Count(name) => (name, "count", s.count as f64),
                Field::Rate(name) => (name, "1/s", ratio(s.count as f64, s.total_s)),
                Field::Ratio(name) => (name, "ratio", ratio(s.count as f64, s.calls as f64)),
            };
            out.push(Metric {
                name: format!("{layer}.{suffix}"),
                unit,
                value,
            });
        }
    }
    let mut push = |name: &str, unit, value| {
        out.push(Metric {
            name: name.to_string(),
            unit,
            value,
        })
    };
    let candidates = stat("progen.candidate").calls as f64;
    let accepted = if candidates > 0.0 {
        stat("campaign.task").calls as f64
    } else {
        0.0
    };
    push("progen.accept_ratio", "ratio", ratio(accepted, candidates));
    push("dsim.runtime.efficiency", "ratio", t.runtime_efficiency);
    push("campaign.task_p50_ms", "ms", t.task_p50_ms);
    push("campaign.task_tail_ms", "ms", t.task_tail_ms);
    push("trace.coverage", "ratio", ratio(t.top_level_s, t.wall_s));
    let overhead = if t.untraced_cpu_s > 0.0 {
        t.wall_s / t.untraced_cpu_s - 1.0
    } else {
        0.0
    };
    push("trace.overhead", "ratio", overhead);
    out
}

/// Names of the traced layers, for the share-of-self-time table.
pub fn layer_names() -> impl Iterator<Item = &'static str> {
    LAYERS.iter().map(|(name, _)| *name)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn absent_layers_read_zero_and_rates_use_inclusive_time() {
        let mut layers = BTreeMap::new();
        layers.insert(
            "dsim.verify".to_string(),
            LayerStat {
                self_s: 0.5,
                total_s: 2.0,
                calls: 4,
                count: 100,
            },
        );
        let m = per_layer(&TracedInputs {
            layers,
            wall_s: 4.0,
            top_level_s: 3.8,
            untraced_cpu_s: 3.0,
            runtime_efficiency: 0.9,
            ..TracedInputs::default()
        });
        let get = |n: &str| m.iter().find(|x| x.name == n).map(|x| x.value);
        assert_eq!(get("dsim.verify.cases_per_s"), Some(50.0));
        assert_eq!(get("dsim.minimize.checks"), Some(0.0));
        assert_eq!(get("trace.coverage"), Some(0.95));
        assert_eq!(get("trace.overhead"), Some(4.0 / 3.0 - 1.0));
        let names: std::collections::HashSet<_> = m.iter().map(|x| &x.name).collect();
        assert_eq!(names.len(), m.len(), "metric names are unique");
    }
}
