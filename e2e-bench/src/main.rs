//! `e2e`: the end-to-end campaign benchmark (workloads, load and gates
//! are described in the library documentation).

use std::path::PathBuf;
use std::process::ExitCode;

use druzhba_e2e_bench::child;
use druzhba_e2e_bench::harness::{results_json, run_workload, WorkloadRun};
use druzhba_e2e_bench::metrics::{layer_names, Metric};
use druzhba_e2e_bench::workload::{Params, Workload, DEFAULT_SEED};

const USAGE: &str = "\
usage: e2e [--seed S] [--seconds S] [--quick] [--out FILE]
       e2e --workload W [--seed S] [--seconds S] [--trace 0|1] [--quick] [--out FILE]

Without --workload, runs every workload and its traced run. With
--workload, runs one; the last stdout line is a JSON result holding the
end-to-end metrics (--trace 0, the default) or the per-layer metrics of a
traced run (--trace 1).

  --seed S      input seed, decimal or 0x-hex (default 0xd122b)
  --seconds S   per-workload budget for the warm-up and timed trials
                (default 28; at least 3 timed trials)
  --quick       shrink every workload to a few seconds (smoke test)
  --out FILE    also write every summary as JSON
workloads: hunt-corpus, gen-sweep, p4-hunt, lane-verify";

struct Args {
    workload: Option<Workload>,
    /// `--trial W` / `--traced W`: run as a child process.
    child: Option<(&'static str, Workload)>,
    seed: u64,
    seconds: f64,
    trace: bool,
    quick: bool,
    out: Option<PathBuf>,
}

fn parse_args(raw: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        child: None,
        seed: DEFAULT_SEED,
        seconds: 28.0,
        trace: false,
        quick: false,
        out: None,
    };
    let workload =
        |v: &str| Workload::from_name(v).ok_or_else(|| format!("unknown workload `{v}`"));
    let mut it = raw.iter();
    while let Some(flag) = it.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .as_str();
        match flag.as_str() {
            "--workload" => args.workload = Some(workload(value)?),
            "--trial" => args.child = Some(("--trial", workload(value)?)),
            "--traced" => args.child = Some(("--traced", workload(value)?)),
            "--seed" => {
                let parsed = match value.strip_prefix("0x") {
                    Some(hex) => u64::from_str_radix(hex, 16),
                    None => value.parse(),
                };
                args.seed = parsed.map_err(|_| format!("--seed: not a number: `{value}`"))?;
            }
            "--seconds" => {
                args.seconds = value
                    .parse::<f64>()
                    .ok()
                    .filter(|s| s.is_finite() && *s >= 0.0)
                    .ok_or_else(|| format!("--seconds: not a duration: `{value}`"))?;
            }
            "--trace" => {
                args.trace = match value {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace must be 0 or 1, got `{value}`")),
                }
            }
            "--out" => args.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn main() -> ExitCode {
    let raw: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&raw) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let params = Params {
        seed: args.seed,
        quick: args.quick,
    };
    if let Some((mode, w)) = args.child {
        let result = match mode {
            "--trial" => child::trial(w, &params),
            _ => child::traced(w, &params),
        };
        return match result {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("error: {} {}: {e}", mode, w.name());
                ExitCode::FAILURE
            }
        };
    }

    let workloads = args.workload.map_or(Workload::ALL.to_vec(), |w| vec![w]);
    let with_trace = args.workload.is_none() || args.trace;
    let mut runs = Vec::new();
    for w in workloads {
        match run_workload(w, &params, args.seconds, with_trace) {
            Ok(run) => {
                print_run(&run, &params);
                runs.push(run);
            }
            Err(e) => {
                eprintln!("error: {}: {e}", w.name());
                return ExitCode::FAILURE;
            }
        }
    }
    if let Some(path) = &args.out {
        if let Err(e) = std::fs::write(path, results_json(params.seed, &runs)) {
            eprintln!("error: writing {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    let gate_errors: Vec<&String> = runs.iter().flat_map(|r| &r.gate_errors).collect();
    for e in &gate_errors {
        eprintln!("error: {e}");
    }
    if let [run] = &runs[..] {
        if args.workload.is_some() {
            println!("{}", result_line(run, args.trace));
        }
    }
    if gate_errors.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The machine-readable last line of a single-workload run.
fn result_line(run: &WorkloadRun, trace: bool) -> String {
    let metrics: Vec<Metric> = if trace {
        run.per_layer().unwrap_or_default()
    } else {
        run.end_to_end()
            .iter()
            .map(|m| Metric {
                name: m.name.to_string(),
                unit: m.unit,
                value: m.value(),
            })
            .collect()
    };
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        run.failed() == 0 && run.gate_errors.is_empty(),
        run.attempted(),
        run.failed(),
        body.join(", ")
    )
}

fn print_run(run: &WorkloadRun, p: &Params) {
    let w = run.workload;
    println!(
        "== {}  seed {:#x}{}  (1 quick warm-up + {} timed trials, {} worker{}) ==",
        w.name(),
        p.seed,
        if p.quick { ", quick" } else { "" },
        run.trials.len(),
        w.jobs(),
        if w.jobs() == 1 { "" } else { "s" }
    );
    println!(
        "  {:<14} {:>12} {:>7} {:>12} {:>12} {:>12} {:>12} {:>12} {:>3}  unit",
        "metric", "reported", "stat", "median", "q1", "q3", "min", "max", "n"
    );
    for m in run.end_to_end() {
        let s = m.summary;
        println!(
            "  {:<14} {:>12.4} {:>7} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>12.4} {:>3}  {}",
            m.name,
            m.value(),
            format!("{:?}", m.reported).to_lowercase(),
            s.median,
            s.q1,
            s.q3,
            s.min,
            s.max,
            s.n,
            m.unit
        );
    }
    let tasks: u64 = run.trials.iter().map(|t| t.tasks).sum();
    let failed: u64 = run.trials.iter().map(|t| t.failed).sum();
    println!(
        "  {:<14} {:>12} ({failed} of {tasks} tasks)  ratio",
        "fail_ratio",
        if tasks == 0 {
            0.0
        } else {
            failed as f64 / tasks as f64
        }
    );
    if run.gate_errors.is_empty() {
        println!(
            "  gates: ok ({} identical report digests; counts {})",
            run.trials.len(),
            run.trials[0].counts
        );
    }
    for e in &run.gate_errors {
        println!("  GATE FAILED: {e}");
    }
    let (Some(traced), Some(layers)) = (&run.traced, run.per_layer()) else {
        println!();
        return;
    };
    let total_self: f64 = traced.inputs.layers.values().map(|s| s.self_s).sum();
    println!(
        "  traced run: 1 thread, {:.3} s, {} tasks; self time by layer:",
        traced.inputs.wall_s, traced.tasks
    );
    let mut shares: Vec<(&str, f64)> = traced
        .inputs
        .layers
        .iter()
        .map(|(name, s)| (name.as_str(), s.self_s))
        .collect();
    shares.sort_by(|a, b| b.1.total_cmp(&a.1));
    for (name, self_s) in shares {
        let note = if layer_names().any(|l| l == name) {
            ""
        } else {
            "  (benchmark glue)"
        };
        println!(
            "    {name:<24} {self_s:>10.4} s {:>6.1}%{note}",
            100.0 * self_s / total_self.max(f64::MIN_POSITIVE)
        );
    }
    println!("  per-layer metrics (nonzero):");
    for m in layers.iter().filter(|m| m.value != 0.0) {
        let tail = if m.name == "campaign.task_tail_ms" {
            format!("  (p{}, >= 10 tasks beyond)", traced.tail_pct)
        } else {
            String::new()
        };
        println!("    {:<36} {:>16.6} {}{tail}", m.name, m.value, m.unit);
    }
    println!();
}
