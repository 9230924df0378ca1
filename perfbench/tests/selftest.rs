//! Runs every workload at a tiny scale twice — untraced, then traced —
//! and checks that both runs print the same simulated-statistics digest,
//! that the oracle passes, and that every metric `BENCHMARK.json` names
//! is printed with its unit.

use std::process::Command;

use mempar_obs::validate_json;

const WORKLOADS: &[(&str, &str)] = &[
    ("fig3-mp", "0.02"),
    ("fig3-up-measured", "0.02"),
    ("tune-mp", "0.002"),
];

/// `(name, unit)` of every metric in one section of `BENCHMARK.json`.
fn section(doc: &str, key: &str) -> Vec<(String, String)> {
    let start = doc.find(&format!("\"{key}\"")).expect("section present");
    let end = start + doc[start..].find(']').expect("section closes");
    let field = |entry: &str, name: &str| {
        let at = entry
            .find(&format!("\"{name}\": \""))
            .expect("field present")
            + name.len()
            + 5;
        entry[at..at + entry[at..].find('"').expect("string closes")].to_string()
    };
    doc[start..end]
        .split('{')
        .skip(1)
        .map(|e| (field(e, "name"), field(e, "unit")))
        .collect()
}

fn run(workload: &str, scale: &str, trace: &str) -> (String, String) {
    let out = Command::new(env!("CARGO_BIN_EXE_mempar-perfbench"))
        .args(["--workload", workload, "--seed", "0", "--seconds", "1"])
        .args(["--trace", trace, "--scale", scale])
        .output()
        .expect("benchmark runs");
    assert!(out.status.success(), "{workload} --trace {trace} failed");
    let stdout = String::from_utf8(out.stdout).expect("utf-8 output");
    let digest = stdout
        .lines()
        .find(|l| l.starts_with("digest "))
        .expect("digest printed")
        .to_string();
    let last = stdout.lines().last().expect("result line").to_string();
    (digest, last)
}

#[test]
fn every_workload_is_deterministic_and_prints_every_metric() {
    let doc = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"))
        .expect("BENCHMARK.json readable");
    let end_to_end = section(&doc, "end_to_end");
    let per_layer = section(&doc, "per_layer");
    assert_eq!(end_to_end.len(), 9);
    for &(workload, scale) in WORKLOADS {
        let (digest0, result0) = run(workload, scale, "0");
        let (digest1, result1) = run(workload, scale, "1");
        assert_eq!(digest0, digest1, "{workload}: digests differ between runs");
        for (result, metrics) in [(&result0, &end_to_end), (&result1, &per_layer)] {
            validate_json(result).expect("result line is JSON");
            assert!(
                result.starts_with("{\"correct\": true,"),
                "{workload}: {result}"
            );
            assert!(result.contains("\"failed\": 0,"), "{workload}: {result}");
            for (name, unit) in metrics.iter() {
                let printed = format!("\"{name}\": {{\"value\": ");
                let at = result
                    .find(&printed)
                    .unwrap_or_else(|| panic!("{workload}: {name} missing"));
                let rest = &result[at + printed.len()..];
                assert!(
                    rest[..rest.find('}').expect("metric closes")]
                        .ends_with(&format!("\"unit\": \"{unit}\"")),
                    "{workload}: {name} lacks unit {unit}"
                );
            }
        }
    }
}
