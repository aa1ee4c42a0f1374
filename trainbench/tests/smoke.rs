//! Smoke test: at tiny sizes, every workload emits every metric that
//! `BENCHMARK.json` names, with the unit `BENCHMARK.json` gives it —
//! the end-to-end metrics from an untraced run, the per-layer metrics
//! from a traced one.

use std::path::Path;
use std::process::Command;

use neo_dlrm::telemetry::json::{self, Json};

fn spec() -> Json {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../BENCHMARK.json");
    let text = std::fs::read_to_string(&path).expect("BENCHMARK.json at the repository root");
    json::parse(&text).expect("BENCHMARK.json parses")
}

fn list<'a>(doc: &'a Json, key: &str) -> &'a [Json] {
    doc.get(key)
        .and_then(Json::as_array)
        .unwrap_or_else(|| panic!("BENCHMARK.json lacks `{key}`"))
}

fn field<'a>(entry: &'a Json, key: &str) -> &'a str {
    entry
        .get(key)
        .and_then(Json::as_str)
        .unwrap_or_else(|| panic!("entry lacks `{key}`"))
}

/// Runs the benchmark and returns its last standard-output line, parsed.
fn run(workload: &str, trace: &str) -> Json {
    let out = Command::new(env!("CARGO_BIN_EXE_trainbench"))
        .args(["--workload", workload, "--seed", "7", "--seconds", "1"])
        .args(["--trace", trace, "--tiny"])
        .output()
        .expect("benchmark starts");
    assert!(
        out.status.success(),
        "{workload} --trace {trace} exited with {}: {}",
        out.status,
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8_lossy(&out.stdout);
    let last = stdout.lines().last().expect("benchmark printed a result");
    json::parse(last).expect("result line parses")
}

#[test]
fn every_named_metric_is_emitted_with_its_unit() {
    let spec = spec();
    for workload in list(&spec, "workloads") {
        let name = field(workload, "name");
        for (trace, section) in [("0", "end_to_end"), ("1", "per_layer")] {
            let result = run(name, trace);
            let mut keys: Vec<&str> = result
                .as_object()
                .expect("result is an object")
                .iter()
                .map(|(k, _)| k.as_str())
                .collect();
            keys.sort_unstable();
            assert_eq!(keys, ["attempted", "correct", "failed", "metrics"]);
            assert!(result.get("attempted").and_then(Json::as_f64) >= Some(1.0));
            let metrics = result.get("metrics").expect("metrics");
            let wanted = list(&spec, section);
            assert_eq!(
                metrics.as_object().map(Vec::len),
                Some(wanted.len()),
                "{name} --trace {trace} emits exactly the {section} metrics"
            );
            for metric in wanted {
                let (m, unit) = (field(metric, "name"), field(metric, "unit"));
                let got = metrics
                    .get(m)
                    .unwrap_or_else(|| panic!("{name} --trace {trace} lacks {m}"));
                assert!(
                    got.get("value").and_then(Json::as_f64).is_some(),
                    "{name}: {m} has no numeric value"
                );
                assert_eq!(
                    got.get("unit").and_then(Json::as_str),
                    Some(unit),
                    "{name}: {m} unit"
                );
            }
        }
    }
}
