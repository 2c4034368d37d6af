//! The load generator: a closed loop of trial processes, one at a time,
//! each spawned after the previous one exits, then (optionally) one
//! traced process. Also the two gates and the summaries.

use std::collections::BTreeMap;
use std::io::{BufRead, BufReader};
use std::process::{Child, Command, Stdio};
use std::time::Instant;

use crate::child::READY;
use crate::metrics::{per_layer, Metric, Reported, TracedInputs, END_TO_END};
use crate::stats::Summary;
use crate::trace::LayerStat;
use crate::workload::{Params, Workload};

/// Timed trials always run, however short `--seconds` is.
pub const MIN_TRIALS: usize = 3;

/// One untraced trial, as the parent saw it.
#[derive(Debug, Clone)]
pub struct Trial {
    /// Spawn → `READY`, in seconds.
    pub setup_s: f64,
    /// Spawn → exit, in seconds.
    pub wall_s: f64,
    /// Tasks attempted.
    pub tasks: u64,
    /// Tasks that failed their known answer.
    pub failed: u64,
    /// Time inside the campaign call, in seconds.
    pub campaign_s: f64,
    /// User + system CPU of the trial, in seconds.
    pub cpu_s: f64,
    /// Peak resident set, in KiB.
    pub rss_kb: f64,
    /// Digest of the rendered report.
    pub digest: String,
    /// The report's deterministic counts.
    pub counts: String,
}

impl Trial {
    /// The value of end-to-end metric `name` for this trial.
    pub fn metric(&self, name: &str) -> f64 {
        match name {
            "wall_s" => self.wall_s,
            "tasks_per_s" => self.tasks as f64 / self.campaign_s,
            "cpu_s" => self.cpu_s,
            "setup_s" => self.setup_s,
            "peak_rss_mb" => self.rss_kb / 1024.0,
            other => unreachable!("unknown end-to-end metric {other}"),
        }
    }
}

/// The traced run, as the parent saw it.
#[derive(Debug, Clone)]
pub struct TracedRun {
    /// Everything the per-layer metrics are computed from.
    pub inputs: TracedInputs,
    /// Which percentile `task_tail_ms` is.
    pub tail_pct: u32,
    /// Tasks the traced campaign attempted.
    pub tasks: u64,
    /// Tasks that failed their known answer.
    pub failed: u64,
    /// The traced campaign's deterministic counts.
    pub counts: String,
}

/// Everything measured for one workload.
#[derive(Debug, Clone)]
pub struct WorkloadRun {
    /// The workload.
    pub workload: Workload,
    /// The timed trials (at least [`MIN_TRIALS`]).
    pub trials: Vec<Trial>,
    /// The traced run, when requested.
    pub traced: Option<TracedRun>,
    /// Gate failures; empty when both gates pass.
    pub gate_errors: Vec<String>,
}

/// One end-to-end metric over a run's timed trials.
#[derive(Debug, Clone, Copy)]
pub struct EndToEnd {
    /// Metric name.
    pub name: &'static str,
    /// Unit.
    pub unit: &'static str,
    /// The statistic the run reports.
    pub reported: Reported,
    /// Every statistic of the trials.
    pub summary: Summary,
}

impl EndToEnd {
    /// The reported value.
    pub fn value(&self) -> f64 {
        match self.reported {
            Reported::Min => self.summary.min,
            Reported::Max => self.summary.max,
            Reported::Median => self.summary.median,
        }
    }
}

impl WorkloadRun {
    /// Every end-to-end metric over the timed trials.
    pub fn end_to_end(&self) -> Vec<EndToEnd> {
        END_TO_END
            .iter()
            .map(|&(name, unit, reported)| {
                let values: Vec<f64> = self.trials.iter().map(|t| t.metric(name)).collect();
                EndToEnd {
                    name,
                    unit,
                    reported,
                    summary: Summary::of(&values).expect("at least one timed trial"),
                }
            })
            .collect()
    }

    /// Per-layer metrics of the traced run, with the untraced numbers
    /// they need filled in.
    pub fn per_layer(&self) -> Option<Vec<Metric>> {
        let jobs = self.workload.jobs() as f64;
        let efficiency: Vec<f64> = self
            .trials
            .iter()
            .map(|t| t.cpu_s / (t.wall_s * jobs))
            .collect();
        let cpu_s = self
            .end_to_end()
            .iter()
            .find(|m| m.name == "cpu_s")
            .map(EndToEnd::value);
        self.traced.as_ref().map(|t| {
            per_layer(&TracedInputs {
                untraced_cpu_s: cpu_s.unwrap_or(0.0),
                runtime_efficiency: Summary::of(&efficiency).map_or(0.0, |s| s.median),
                ..t.inputs.clone()
            })
        })
    }

    /// Tasks attempted across the timed trials and the traced run.
    pub fn attempted(&self) -> u64 {
        self.trials.iter().map(|t| t.tasks).sum::<u64>()
            + self.traced.as_ref().map_or(0, |t| t.tasks)
    }

    /// Tasks that failed across the timed trials and the traced run.
    pub fn failed(&self) -> u64 {
        self.trials.iter().map(|t| t.failed).sum::<u64>()
            + self.traced.as_ref().map_or(0, |t| t.failed)
    }
}

/// Run one workload: a discarded warm-up trial of the `--quick` campaign
/// (it loads the binary and runs the same code paths in well under a
/// second), timed trials until `seconds` since the warm-up started would
/// be exceeded (at least [`MIN_TRIALS`]), then the traced run if asked.
///
/// The reported campaign times are the best trial's, so their spread
/// falls as the trial count grows; a full-size warm-up would cost one
/// timed trial per run.
pub fn run_workload(
    w: Workload,
    p: &Params,
    seconds: f64,
    with_trace: bool,
) -> Result<WorkloadRun, String> {
    let begin = Instant::now();
    spawn_trial(w, &Params { quick: true, ..*p })?;
    let mut trials: Vec<Trial> = Vec::new();
    loop {
        let t = spawn_trial(w, p)?;
        let last = t.wall_s;
        trials.push(t);
        let elapsed = begin.elapsed().as_secs_f64();
        if trials.len() >= MIN_TRIALS && elapsed + last > seconds {
            break;
        }
    }
    let traced = with_trace.then(|| spawn_traced(w, p)).transpose()?;

    let mut gate_errors = Vec::new();
    let first = &trials[0];
    if trials.iter().any(|t| t.digest != first.digest) {
        let digests: Vec<&str> = trials.iter().map(|t| t.digest.as_str()).collect();
        gate_errors.push(format!(
            "determinism gate: {} report digests differ across trials ({})",
            w.name(),
            digests.join(", ")
        ));
    }
    if let Some(t) = &traced {
        if t.counts != first.counts {
            gate_errors.push(format!(
                "faithfulness gate: {} traced counts {} != untraced {}",
                w.name(),
                t.counts,
                first.counts
            ));
        }
    }
    Ok(WorkloadRun {
        workload: w,
        trials,
        traced,
        gate_errors,
    })
}

/// A child's stdout lines plus its spawn → `READY` and spawn → exit times.
struct ChildOutput {
    setup_s: Option<f64>,
    wall_s: f64,
    lines: Vec<String>,
}

fn spawn(mode: &str, w: Workload, p: &Params) -> Result<ChildOutput, String> {
    let exe = std::env::current_exe().map_err(|e| format!("cannot locate own executable: {e}"))?;
    let mut cmd = Command::new(exe);
    cmd.args([mode, w.name(), "--seed", &p.seed.to_string()]);
    if p.quick {
        cmd.arg("--quick");
    }
    let start = Instant::now();
    let mut child = cmd
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::inherit())
        .spawn()
        .map_err(|e| format!("cannot spawn {mode} {}: {e}", w.name()))?;
    let collected = collect(&mut child, start);
    // Reap the child on every path; kill it first if reading failed.
    if collected.is_err() {
        let _ = child.kill();
    }
    let status = child.wait().map_err(|e| format!("waiting for child: {e}"));
    let wall_s = start.elapsed().as_secs_f64();
    let (setup_s, lines) = collected?;
    let status = status?;
    if !status.success() {
        return Err(format!("{mode} {} exited with {status}", w.name()));
    }
    Ok(ChildOutput {
        setup_s,
        wall_s,
        lines,
    })
}

fn collect(child: &mut Child, start: Instant) -> Result<(Option<f64>, Vec<String>), String> {
    let stdout = child.stdout.take().ok_or("child has no stdout")?;
    let mut setup_s = None;
    let mut lines = Vec::new();
    for line in BufReader::new(stdout).lines() {
        let line = line.map_err(|e| format!("reading child output: {e}"))?;
        if line == READY {
            setup_s = Some(start.elapsed().as_secs_f64());
        } else {
            lines.push(line);
        }
    }
    Ok((setup_s, lines))
}

/// `key=value` fields of the result line starting with `tag`.
fn fields(lines: &[String], tag: &str) -> Result<BTreeMap<String, String>, String> {
    let line = lines
        .iter()
        .find_map(|l| l.strip_prefix(tag).and_then(|r| r.strip_prefix(' ')))
        .ok_or_else(|| format!("child printed no {tag} line"))?;
    Ok(line
        .split_whitespace()
        .filter_map(|kv| kv.split_once('='))
        .map(|(k, v)| (k.to_string(), v.to_string()))
        .collect())
}

fn num<T: std::str::FromStr>(f: &BTreeMap<String, String>, key: &str) -> Result<T, String> {
    f.get(key)
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("child result has no numeric `{key}`"))
}

fn spawn_trial(w: Workload, p: &Params) -> Result<Trial, String> {
    let out = spawn("--trial", w, p)?;
    let f = fields(&out.lines, "TRIAL")?;
    Ok(Trial {
        setup_s: out.setup_s.ok_or("trial never reported READY")?,
        wall_s: out.wall_s,
        tasks: num(&f, "tasks")?,
        failed: num(&f, "failed")?,
        campaign_s: num(&f, "campaign_s")?,
        cpu_s: num(&f, "cpu_s")?,
        rss_kb: num(&f, "rss_kb")?,
        digest: f.get("digest").cloned().unwrap_or_default(),
        counts: f.get("counts").cloned().unwrap_or_default(),
    })
}

fn spawn_traced(w: Workload, p: &Params) -> Result<TracedRun, String> {
    let out = spawn("--traced", w, p)?;
    let f = fields(&out.lines, "TRACED")?;
    let mut layers = BTreeMap::new();
    for l in &out.lines {
        let Some(rest) = l.strip_prefix("LAYER ") else {
            continue;
        };
        let parts: Vec<&str> = rest.split_whitespace().collect();
        let [name, self_s, total_s, calls, count] = parts[..] else {
            return Err(format!("malformed LAYER line `{l}`"));
        };
        let bad = || format!("malformed LAYER line `{l}`");
        layers.insert(
            name.to_string(),
            LayerStat {
                self_s: self_s.parse().map_err(|_| bad())?,
                total_s: total_s.parse().map_err(|_| bad())?,
                calls: calls.parse().map_err(|_| bad())?,
                count: count.parse().map_err(|_| bad())?,
            },
        );
    }
    Ok(TracedRun {
        inputs: TracedInputs {
            layers,
            wall_s: num(&f, "wall_s")?,
            top_level_s: num(&f, "top_s")?,
            task_p50_ms: num(&f, "task_p50_ms")?,
            task_tail_ms: num(&f, "task_tail_ms")?,
            ..TracedInputs::default()
        },
        tail_pct: num(&f, "task_tail_pct")?,
        tasks: num(&f, "tasks")?,
        failed: num(&f, "failed")?,
        counts: f.get("counts").cloned().unwrap_or_default(),
    })
}

/// Render runs as the results document written by `--out`.
pub fn results_json(seed: u64, runs: &[WorkloadRun]) -> String {
    let mut s = format!("{{\n  \"seed\": {seed},\n  \"workloads\": {{\n");
    for (i, run) in runs.iter().enumerate() {
        s.push_str(&format!("    \"{}\": {{\n", run.workload.name()));
        s.push_str(&format!(
            "      \"trials\": {},\n      \"attempted\": {},\n      \"failed\": {},\n",
            run.trials.len(),
            run.attempted(),
            run.failed()
        ));
        let gates: Vec<String> = run
            .gate_errors
            .iter()
            .map(|e| format!("\"{}\"", e.replace('\\', "\\\\").replace('"', "\\\"")))
            .collect();
        s.push_str(&format!("      \"gate_errors\": [{}],\n", gates.join(", ")));
        let e2e: Vec<String> = run
            .end_to_end()
            .iter()
            .map(|m| {
                let s = m.summary;
                format!(
                    "        \"{}\": {{\"unit\": \"{}\", \"reported\": {}, \"median\": {}, \
                     \"q1\": {}, \"q3\": {}, \"min\": {}, \"max\": {}, \"n\": {}}}",
                    m.name,
                    m.unit,
                    m.value(),
                    s.median,
                    s.q1,
                    s.q3,
                    s.min,
                    s.max,
                    s.n
                )
            })
            .collect();
        s.push_str(&format!(
            "      \"end_to_end\": {{\n{}\n      }}",
            e2e.join(",\n")
        ));
        if let Some(layers) = run.per_layer() {
            let rows: Vec<String> = layers
                .iter()
                .map(|m| {
                    format!(
                        "        \"{}\": {{\"unit\": \"{}\", \"value\": {}}}",
                        m.name, m.unit, m.value
                    )
                })
                .collect();
            s.push_str(&format!(
                ",\n      \"per_layer\": {{\n{}\n      }}",
                rows.join(",\n")
            ));
        }
        let comma = if i + 1 < runs.len() { "," } else { "" };
        s.push_str(&format!("\n    }}{comma}\n"));
    }
    s.push_str("  }\n}\n");
    s
}
