//! The two child processes the harness spawns: an untraced trial and the
//! traced run. Each prints `key=value` result lines on stdout.

use std::io::Write as _;
use std::time::Instant;

use crate::stats::{tail_percentile, Summary};
use crate::trace::{durations_ms, layer_stats, top_level_s, Tracer};
use crate::workload::{campaign, setup, Params, Workload};

/// Printed once set-up is done; the parent times spawn → this line.
pub const READY: &str = "READY";

/// Tasks that must lie beyond the reported tail percentile.
pub const TAIL_BEYOND: usize = 10;

/// One untraced trial: set-up, one timed campaign call, report digest,
/// resource usage.
pub fn trial(w: Workload, p: &Params) -> Result<(), String> {
    let mut inputs = setup(w)?;
    say(READY);
    let start = Instant::now();
    let report = campaign(p, &mut inputs)?;
    let campaign_s = start.elapsed().as_secs_f64();
    let digest = report.digest();
    let outcome = report.outcome();
    say(&format!(
        "TRIAL tasks={} failed={} campaign_s={campaign_s} cpu_s={} rss_kb={} digest={digest:016x} counts={}",
        outcome.tasks,
        outcome.failed,
        cpu_s()?,
        peak_rss_kb()?,
        outcome.counts_line()
    ));
    Ok(())
}

/// The traced run: the campaign re-driven through [`crate::traced`],
/// then one `LAYER` line per span name and a `TRACED` summary line.
pub fn traced(w: Workload, p: &Params) -> Result<(), String> {
    let start = Instant::now();
    let mut t = Tracer::new();
    let outcome = crate::traced::run(w, p, &mut t)?;
    let wall_s = start.elapsed().as_secs_f64();
    let spans = t.spans();
    for (name, s) in layer_stats(spans) {
        say(&format!(
            "LAYER {name} {} {} {} {}",
            s.self_s, s.total_s, s.calls, s.count
        ));
    }
    let tasks = durations_ms(spans, "campaign.task");
    let p50 = Summary::of(&tasks).map_or(0.0, |s| s.median);
    let (tail_pct, tail_ms) = tail_percentile(&tasks, TAIL_BEYOND).unwrap_or((0, 0.0));
    say(&format!(
        "TRACED wall_s={wall_s} top_s={} task_p50_ms={p50} task_tail_ms={tail_ms} \
         task_tail_pct={tail_pct} tasks={} failed={} counts={}",
        top_level_s(spans),
        outcome.tasks,
        outcome.failed,
        outcome.counts_line()
    ));
    Ok(())
}

fn say(line: &str) {
    let mut out = std::io::stdout().lock();
    // A closed pipe means the parent is gone; nothing is left to report to.
    let _ = writeln!(out, "{line}").and_then(|()| out.flush());
}

/// User plus system CPU time of this process, in seconds
/// (`/proc/self/stat` fields 14 and 15, in 1/100 s clock ticks).
fn cpu_s() -> Result<f64, String> {
    let stat =
        std::fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The fields after the parenthesized command name start at field 3.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let ticks = |field: usize| -> Result<u64, String> {
        fields
            .get(field - 3)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| "malformed /proc/self/stat".to_string())
    };
    Ok((ticks(14)? + ticks(15)?) as f64 / 100.0)
}

/// Peak resident set size of this process (`VmHWM`), in KiB.
fn peak_rss_kb() -> Result<u64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("/proc/self/status: {e}"))?;
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or_else(|| "no VmHWM in /proc/self/status".to_string())
}
