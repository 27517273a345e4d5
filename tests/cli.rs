//! End-to-end tests of the `khop` command-line interface: each
//! subcommand is spawned as a real process and its output contract
//! checked.

use std::process::Command;

fn khop(args: &[&str]) -> std::process::Output {
    Command::new(env!("CARGO_BIN_EXE_khop"))
        .args(args)
        .output()
        .expect("spawn khop")
}

fn stdout(out: &std::process::Output) -> String {
    String::from_utf8_lossy(&out.stdout).into_owned()
}

#[test]
fn gen_then_run_round_trip() {
    let dir = std::env::temp_dir().join(format!("khop-cli-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let net = dir.join("net.txt");
    let net_s = net.to_str().unwrap();

    let out = khop(&[
        "gen", "--n", "60", "--d", "6", "--seed", "5", "--out", net_s,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    assert!(stdout(&out).contains("60 nodes"));
    assert!(net.exists());

    let out = khop(&["run", "--input", net_s, "--k", "2", "--alg", "ac-lmst"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("AC-LMST on 60 nodes"), "got: {text}");

    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn run_json_is_parseable_and_consistent() {
    let out = khop(&[
        "run", "--n", "80", "--d", "8", "--seed", "3", "--k", "1", "--alg", "g-mst", "--json",
    ]);
    assert!(out.status.success());
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["algorithm"], "G-MST");
    assert_eq!(v["nodes"], 80);
    let heads = v["clusterheads"].as_array().unwrap().len();
    let gws = v["gateways"].as_array().unwrap().len();
    assert_eq!(v["cds_size"].as_u64().unwrap() as usize, heads + gws);
}

#[test]
fn dist_reports_protocol_phases() {
    let out = khop(&["dist", "--n", "50", "--d", "8", "--seed", "2", "--k", "1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("distributed AC-LMST"));
    assert!(text.contains("total transmissions"));
    assert!(text.contains("clustering"));
}

#[test]
fn exact_reports_ratios() {
    let out = khop(&["exact", "--n", "18", "--d", "5", "--seed", "4", "--k", "1"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("proven optimal"), "got: {text}");
    for alg in ["NC-Mesh", "AC-Mesh", "NC-LMST", "AC-LMST", "G-MST"] {
        assert!(text.contains(alg));
    }
}

#[test]
fn exact_refuses_large_networks() {
    let out = khop(&["exact", "--n", "120", "--k", "1"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("40 or fewer"));
}

#[test]
fn maintain_summarizes_savings() {
    let out = khop(&[
        "maintain", "--n", "60", "--k", "2", "--steps", "8", "--seed", "6",
    ]);
    assert!(out.status.success());
    assert!(stdout(&out).contains("rebuild-every-step"));
}

#[test]
fn mac_prints_both_strategies() {
    let out = khop(&["mac", "--n", "60", "--d", "8", "--seed", "7", "--cw", "4"]);
    assert!(out.status.success());
    let text = stdout(&out);
    assert!(text.contains("flood"));
    assert!(text.contains("backbone"));
}

#[test]
fn unknown_command_fails_with_usage() {
    let out = khop(&["frobnicate"]);
    assert!(!out.status.success());
    assert_eq!(out.status.code(), Some(2));
    assert!(String::from_utf8_lossy(&out.stderr).contains("usage:"));
}

#[test]
fn unsatisfiable_generator_config_exits_2_without_panicking() {
    // Too sparse to ever sample connected (the `churn --n 2000` failure,
    // at a size that gives up quickly), and too few nodes.
    for args in [
        &["churn", "--n", "40", "--d", "0.2"][..],
        &["gen", "--n", "1", "--out", "/dev/null"][..],
    ] {
        let out = khop(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert_eq!(err.lines().count(), 1, "{args:?}: {err}");
        assert!(
            err.starts_with("khop: cannot generate network"),
            "{args:?}: {err}"
        );
    }
}

#[test]
fn route_metrics_count_each_query_once() {
    let dir = std::env::temp_dir().join(format!("khop-cli-route-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    let file = dir.join("route-metrics.json");
    let flag = format!("--metrics={}", file.display());
    let out = khop(&[
        "route",
        "--n",
        "150",
        "--d",
        "8",
        "--seed",
        "4",
        "--k",
        "2",
        "--queries",
        "300",
        "--workers",
        "2",
        &flag,
    ]);
    assert!(
        out.status.success(),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let snap: serde_json::Value =
        serde_json::from_str(&std::fs::read_to_string(&file).unwrap()).expect("valid JSON");
    let count = snap["counters"]
        .as_array()
        .expect("counters array")
        .iter()
        .find(|c| c["name"] == "query.count")
        .expect("query.count counter");
    assert_eq!(count["value"], 300, "query.count must equal --queries");
    std::fs::remove_dir_all(&dir).ok();
}

#[test]
fn resilience_json_full_repair_routes_every_achievable_pair() {
    let out = khop(&[
        "resilience",
        "--n",
        "80",
        "--seed",
        "3",
        "--pairs",
        "300",
        "--json",
    ]);
    assert_eq!(
        out.status.code(),
        Some(0),
        "{}",
        String::from_utf8_lossy(&out.stderr)
    );
    let v: serde_json::Value = serde_json::from_str(&stdout(&out)).expect("valid JSON");
    assert_eq!(v["schema"], "khop-cli-resilience/v1");
    assert_eq!(v["repair_level"], "full");
    assert_eq!(v["sampled_pairs"], 300);
    let post = &v["post_attack"];
    assert!(post["achievable_pairs"].as_u64().unwrap() > 0);
    assert_eq!(post["live_routed_pct_of_achievable"].as_f64(), Some(100.0));
    // The stale pre-attack plan routes through departed relays, so it
    // can never beat the live plan.
    assert!(
        post["stale_routed_pct_of_alive"].as_f64().unwrap()
            <= post["live_routed_pct_of_alive"].as_f64().unwrap()
    );
    let heal = &v["heal"];
    assert_eq!(heal["topology_restored"], true);
    assert_eq!(heal["valid"], true);
    assert_eq!(heal["final_routed_pct_of_achievable"].as_f64(), Some(100.0));
    assert_eq!(heal["final_alive_pairs"], 300);
    assert!(heal["arrivals_to_full"].as_u64().is_some());
}

#[test]
fn dist_rejects_gmst() {
    let out = khop(&["dist", "--n", "50", "--alg", "g-mst"]);
    assert!(!out.status.success());
    assert!(String::from_utf8_lossy(&out.stderr).contains("centralized"));
}

#[test]
fn bad_flags_exit_2_without_panicking() {
    // Out-of-range `--k`, `--cw`, `--workers`, `--budget`, `--steps`,
    // `--d` (an infinite degree once built a complete graph) or
    // `--speed` (zero, negative or NaN once panicked `maintain`), `--pairs
    // 0` (once reported 100% restored over no sampled pair), flags a
    // subcommand does not read (`--labels` included: there is one label
    // layout), a value flag given bare and a switch given a value: each
    // is refused with usage, never a panic or a silently ignored flag.
    for args in [
        &["run", "--n", "60", "--k", "0"][..],
        &["maintain", "--k", "0"][..],
        &["dist", "--n", "40", "--k", "0"][..],
        &["exact", "--n", "12", "--k", "0"][..],
        &["mac", "--n", "40", "--k", "0"][..],
        &["mac", "--n", "40", "--cw", "0"][..],
        &["run", "--n", "60", "--bogus", "1"][..],
        &["churn", "--alg", "bogus"][..],
        &["info", "--n", "40", "--k", "2"][..],
        &["gen", "--n", "40", "--json"][..],
        &["run", "--n", "60", "--k"][..],
        &["run", "--n", "60", "--json", "yes"][..],
        &["run", "--n", "60", "--k", "2", "--workers", "0"][..],
        &["route", "--n", "60", "--workers", "0"][..],
        &["churn", "--n", "60", "--workers", "0"][..],
        &["resilience", "--n", "60", "--workers", "0"][..],
        &["exact", "--n", "18", "--k", "1", "--budget", "0"][..],
        &["run", "--n", "60", "--labels", "sparse"][..],
        &["churn", "--n", "60", "--labels", "sparse"][..],
        &["route", "--n", "60", "--labels", "sparse"][..],
        &["resilience", "--n", "60", "--labels", "sparse"][..],
        &["churn", "--n", "60", "--steps", "0"][..],
        &["maintain", "--n", "60", "--steps", "0"][..],
        &["run", "--n", "60", "--d", "inf"][..],
        &["maintain", "--n", "40", "--speed", "0"][..],
        &["maintain", "--n", "40", "--speed", "-1"][..],
        &["maintain", "--n", "40", "--speed", "nan"][..],
        &["maintain", "--n", "40", "--speed", "inf"][..],
        &["churn", "--n", "40", "--speed", "inf"][..],
        &["resilience", "--n", "60", "--pairs", "0"][..],
        &["churn", "--n", "0"][..],
    ] {
        let out = khop(args);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(2), "{args:?}: {err}");
        assert!(!err.contains("panicked"), "{args:?}: {err}");
        assert!(err.contains("usage:"), "{args:?}: {err}");
    }
    // `--n` bounds `--movers`, so it is checked first: a network too
    // small to generate is refused by name, not as a bad `--movers`.
    let out = khop(&["churn", "--n", "0"]);
    let err = String::from_utf8_lossy(&out.stderr);
    assert_eq!(
        err.lines().next(),
        Some("khop: --n must be at least 2 (got 0)"),
        "{err}"
    );
}

#[test]
fn speeds_below_the_waypoint_floor_run() {
    // The slowest waypoint speed is floored at 1e-6; a `--speed` below
    // that floor once put the floor above the top speed and panicked.
    for cmd in ["maintain", "churn"] {
        let out = khop(&[cmd, "--n", "60", "--steps", "2", "--speed", "1e-9"]);
        let err = String::from_utf8_lossy(&out.stderr);
        assert_eq!(out.status.code(), Some(0), "{cmd}: {err}");
    }
}

#[test]
fn malformed_network_files_exit_2_without_panicking() {
    // Counts and IDs that are not plain integers used to be read as
    // floats and cast: `nodes 1e30` panicked on allocation, `nodes -4`
    // and `nodes 0` panicked building an empty clustering, and
    // `edge 0 1.7` was silently read as edge 0-1.
    let dir = std::env::temp_dir().join(format!("khop-cli-bad-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    for (i, text) in [
        "nodes 1e30\n",
        "nodes -4\n",
        "nodes 0\n",
        "nodes 3\nedge 0 1.7\n",
        "nodes 3\nnodes 4\nedge 0 1\n",
        "nodes 4294967296\n",
    ]
    .into_iter()
    .enumerate()
    {
        let path = dir.join(format!("bad{i}.txt"));
        std::fs::write(&path, text).unwrap();
        let path = path.to_str().unwrap();
        for cmd in ["run", "info"] {
            let out = khop(&[cmd, "--input", path]);
            let err = String::from_utf8_lossy(&out.stderr);
            assert_eq!(out.status.code(), Some(2), "{cmd} {text:?}: {err}");
            assert!(!err.contains("panicked"), "{cmd} {text:?}: {err}");
            assert!(err.contains("usage:"), "{cmd} {text:?}: {err}");
        }
    }
    std::fs::remove_dir_all(&dir).ok();
}

/// A reader that closes the pipe early (`khop … | head -1`) ends the
/// command with exit 0 and no panic: the pipe is closed before the
/// first write (every write then fails) and after the first line.
#[test]
fn closed_stdout_exits_0_without_panicking() {
    use std::io::{BufRead, BufReader};
    use std::process::Stdio;
    let commands: [&[&str]; 3] = [
        &["maintain", "--n", "120", "--k", "2", "--steps", "10"],
        &["run", "--n", "120", "--k", "2", "--alg", "all"],
        &["churn", "--n", "150", "--k", "2", "--steps", "20"],
    ];
    for args in commands {
        for read_first_line in [false, true] {
            let mut child = Command::new(env!("CARGO_BIN_EXE_khop"))
                .args(args)
                .stdout(Stdio::piped())
                .stderr(Stdio::piped())
                .spawn()
                .expect("spawn khop");
            let out = child.stdout.take().expect("piped stdout");
            if read_first_line {
                let mut line = String::new();
                BufReader::new(out).read_line(&mut line).unwrap();
                assert!(!line.is_empty(), "{args:?}: no first line");
            } else {
                drop(out);
            }
            let done = child.wait_with_output().expect("wait for khop");
            let err = String::from_utf8_lossy(&done.stderr);
            assert_eq!(done.status.code(), Some(0), "{args:?}: {err}");
            assert!(!err.contains("panicked"), "{args:?}: {err}");
        }
    }
}
