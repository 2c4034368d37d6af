//! The headline crash-recovery guarantee, exercised on the real binary:
//! SIGKILL a checkpointed hunt campaign mid-flight, resume it, and the
//! final JSON report is byte-identical to an uninterrupted run's.

use std::fs;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::{Duration, Instant};

fn tmpdir() -> PathBuf {
    let dir = std::env::temp_dir().join(format!("druzhba-crash-resume-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    dir
}

#[test]
fn killed_hunt_resumes_to_a_byte_identical_report() {
    let bin = env!("CARGO_BIN_EXE_druzhba");
    let dir = tmpdir();
    let clean = dir.join("clean.json");
    let resumed = dir.join("resumed.json");
    let ckpt = dir.join("ckpt");
    let base = [
        "hunt",
        "--programs",
        "sampling",
        "--mutants",
        "1",
        "--phvs",
        "400",
        "--runs",
        "1",
        "--jobs",
        "2",
        "--seed",
        "7",
    ];

    // Reference: one uninterrupted run.
    let status = Command::new(bin)
        .args(base)
        .args(["--out", clean.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn clean hunt");
    assert!(status.success(), "clean hunt failed");

    // Victim: checkpoint after every completed task, SIGKILL as soon as
    // the first snapshot lands (no chance to clean up or flush).
    let mut child = Command::new(bin)
        .args(base)
        .args([
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--every",
            "1",
            "--out",
            dir.join("dead.json").to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn checkpointed hunt");
    let snap = ckpt.join("hunt.snapshot");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if snap.exists() {
            break;
        }
        // Finished before we could kill it: the resume below degenerates
        // to a pure cache replay, which must still match byte-for-byte.
        if child.try_wait().expect("poll child").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared before the deadline"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = child.kill(); // SIGKILL on unix: no destructors, no flush
    let _ = child.wait();
    assert!(snap.exists(), "victim died without writing a snapshot");

    // Resume from the checkpoint directory and demand the exact report.
    let status = Command::new(bin)
        .args(base)
        .args([
            "--resume",
            ckpt.to_str().unwrap(),
            "--out",
            resumed.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn resumed hunt");
    assert!(status.success(), "resumed hunt failed");

    let clean_bytes = fs::read(&clean).expect("clean report");
    let resumed_bytes = fs::read(&resumed).expect("resumed report");
    assert!(!clean_bytes.is_empty());
    assert_eq!(
        clean_bytes, resumed_bytes,
        "resumed report is not byte-identical to the uninterrupted run"
    );

    // The live-status heartbeat tracked the campaign to completion.
    let status_json = fs::read_to_string(ckpt.join("status.json")).expect("heartbeat");
    assert!(status_json.contains("\"kind\": \"hunt\""), "{status_json}");
    let _ = fs::remove_dir_all(&dir);
}

/// The same SIGKILL-and-resume guarantee for the generated-program
/// campaign: `hunt --generate` checkpoints per program index, and a
/// resumed campaign's report is byte-identical to an uninterrupted
/// run's.
#[test]
fn killed_genhunt_resumes_to_a_byte_identical_report() {
    let bin = env!("CARGO_BIN_EXE_druzhba");
    let dir = std::env::temp_dir().join(format!("druzhba-genhunt-resume-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    fs::create_dir_all(&dir).unwrap();
    let clean = dir.join("clean.json");
    let resumed = dir.join("resumed.json");
    let ckpt = dir.join("ckpt");
    let base = [
        "hunt",
        "--generate",
        "6",
        "--phvs",
        "150",
        "--faults",
        "1",
        "--jobs",
        "2",
        "--seed",
        "7",
    ];

    let status = Command::new(bin)
        .args(base)
        .args(["--out", clean.to_str().unwrap()])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn clean genhunt");
    assert!(status.success(), "clean genhunt failed");

    let mut child = Command::new(bin)
        .args(base)
        .args([
            "--checkpoint",
            ckpt.to_str().unwrap(),
            "--every",
            "1",
            "--out",
            dir.join("dead.json").to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .spawn()
        .expect("spawn checkpointed genhunt");
    let snap = ckpt.join("genhunt.snapshot");
    let deadline = Instant::now() + Duration::from_secs(300);
    loop {
        if snap.exists() {
            break;
        }
        if child.try_wait().expect("poll child").is_some() {
            break;
        }
        assert!(
            Instant::now() < deadline,
            "no checkpoint appeared before the deadline"
        );
        std::thread::sleep(Duration::from_millis(25));
    }
    let _ = child.kill();
    let _ = child.wait();
    assert!(snap.exists(), "victim died without writing a snapshot");

    let status = Command::new(bin)
        .args(base)
        .args([
            "--resume",
            ckpt.to_str().unwrap(),
            "--out",
            resumed.to_str().unwrap(),
        ])
        .stdout(Stdio::null())
        .stderr(Stdio::null())
        .status()
        .expect("spawn resumed genhunt");
    assert!(status.success(), "resumed genhunt failed");

    let clean_bytes = fs::read(&clean).expect("clean report");
    let resumed_bytes = fs::read(&resumed).expect("resumed report");
    assert!(!clean_bytes.is_empty());
    assert_eq!(
        clean_bytes, resumed_bytes,
        "resumed genhunt report is not byte-identical to the uninterrupted run"
    );
    let status_json = fs::read_to_string(ckpt.join("status.json")).expect("heartbeat");
    assert!(
        status_json.contains("\"kind\": \"genhunt\""),
        "{status_json}"
    );
    let _ = fs::remove_dir_all(&dir);
}

/// Budget truncation is graceful for the generated-program campaign
/// too: exit 0, loud warning, report marked truncated.
#[test]
fn budgeted_genhunt_exits_zero_with_a_truncation_warning() {
    let bin = env!("CARGO_BIN_EXE_druzhba");
    let out = Command::new(bin)
        .args([
            "hunt",
            "--generate",
            "4",
            "--phvs",
            "150",
            "--jobs",
            "2",
            "--budget-secs",
            "0",
        ])
        .output()
        .expect("spawn budgeted genhunt");
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget expired"), "stderr: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"truncated\": 4"), "stdout: {stdout}");
}

#[test]
fn budgeted_hunt_exits_zero_with_a_truncation_warning() {
    let bin = env!("CARGO_BIN_EXE_druzhba");
    let out = Command::new(bin)
        .args([
            "hunt",
            "--programs",
            "sampling",
            "--mutants",
            "1",
            "--phvs",
            "300",
            "--runs",
            "1",
            "--jobs",
            "2",
            "--budget-secs",
            "0",
        ])
        .output()
        .expect("spawn budgeted hunt");
    // Graceful degradation: a budget-truncated campaign is a *partial
    // success* (exit 0) that says so loudly, never a crash or a failure.
    assert!(
        out.status.success(),
        "stderr: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let err = String::from_utf8_lossy(&out.stderr);
    assert!(err.contains("budget expired"), "stderr: {err}");
    let stdout = String::from_utf8_lossy(&out.stdout);
    assert!(stdout.contains("\"truncated\""), "stdout: {stdout}");
}

/// Campaigns over several programs or levels checkpoint each
/// (program, level) run into its own `DIR/<program>/<level>/`, so a
/// resume restores every run from its own snapshot: no fingerprint
/// warnings, nothing rerun, and the stdout of the clean run.
#[test]
fn multi_run_campaigns_resume_each_run_from_its_own_snapshot() {
    let bin = env!("CARGO_BIN_EXE_druzhba");
    let dir = std::env::temp_dir().join(format!("druzhba-keyed-resume-{}", std::process::id()));
    let _ = fs::remove_dir_all(&dir);
    let campaigns: [(&[&str], &str); 2] = [
        (
            &[
                "p4-fuzz",
                "l2_forward",
                "--runs",
                "3",
                "--phvs",
                "200",
                "--level",
                "all",
            ],
            "l2_forward/scc_inline/p4-campaign.snapshot",
        ),
        (
            &["p4-fuzz", "--runs", "2", "--phvs", "200", "--level", "3"],
            "lpm_router/fused/p4-campaign.snapshot",
        ),
    ];
    for (i, (args, snapshot)) in campaigns.into_iter().enumerate() {
        let ckpt = dir.join(i.to_string());
        let ckpt = ckpt.to_str().unwrap();
        let run = |extra: &[&str]| {
            let out = Command::new(bin)
                .args(args)
                .args(extra)
                .output()
                .expect("spawn p4-fuzz");
            assert!(out.status.success(), "{args:?} {extra:?}: {out:?}");
            out
        };
        let clean = run(&[]);
        run(&["--checkpoint", ckpt]);
        assert!(
            dir.join(i.to_string()).join(snapshot).exists(),
            "{args:?}: no snapshot at {snapshot}"
        );
        let resumed = run(&["--resume", ckpt]);
        assert_eq!(
            String::from_utf8_lossy(&clean.stdout),
            String::from_utf8_lossy(&resumed.stdout),
            "{args:?}: resumed stdout differs from the clean run"
        );
        let err = String::from_utf8_lossy(&resumed.stderr);
        assert!(!err.contains("fingerprint mismatch"), "{args:?}: {err}");
    }
    let _ = fs::remove_dir_all(&dir);
}
