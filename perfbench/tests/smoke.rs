//! Tiny-size smoke test of the benchmark: every workload, untraced and
//! traced, emits exactly the metrics `BENCHMARK.json` declares for that kind
//! of run (farm_miss too, which `BENCHMARK.json` leaves out), each with a
//! well-formed name, its declared unit and a finite, non-zero value, and
//! passes its output checks.
//!
//! ```text
//! cargo test --release --manifest-path perfbench/Cargo.toml
//! ```

use perfbench::{run, Options, Scale, Workload};
use std::collections::BTreeMap;

const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// The `"key": "value"` string pairs of the JSON array under `section`.
/// `BENCHMARK.json` is flat enough that a scan for quoted pairs suffices.
fn declared(section: &str, key: &str) -> Vec<String> {
    let start = MANIFEST.find(&format!("\"{section}\"")).unwrap_or_else(|| panic!("{section} missing"));
    let body = &MANIFEST[start..];
    let body = &body[..body.find(']').expect("array end")];
    let needle = format!("\"{key}\": \"");
    body.match_indices(&needle)
        .map(|(at, _)| {
            let value = &body[at + needle.len()..];
            value[..value.find('"').expect("closing quote")].to_string()
        })
        .collect()
}

fn declared_metrics(section: &str) -> BTreeMap<String, String> {
    declared(section, "name").into_iter().zip(declared(section, "unit")).collect()
}

fn well_formed(name: &str) -> bool {
    !name.is_empty() && name.chars().all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
}

#[test]
fn every_declared_metric_is_emitted_with_its_unit() {
    for name in declared("workloads", "name") {
        assert!(Workload::parse(&name).is_some(), "BENCHMARK.json declares unknown workload {name}");
    }
    for (trace, section) in [(false, "end_to_end"), (true, "per_layer")] {
        let expected = declared_metrics(section);
        assert!(!expected.is_empty(), "{section} declares metrics");
        for workload in Workload::ALL {
            let name = workload.name();
            let outcome = run(&Options { workload, seed: 7, seconds: 0.0, trace, scale: Scale::Tiny });
            assert!(outcome.correct, "{name} trace={trace}: {:#?}", outcome.lines);
            assert!(outcome.attempted > 0 && outcome.failed == 0, "{name} trace={trace}");
            let emitted: BTreeMap<String, String> =
                outcome.metrics.iter().map(|m| (m.name.clone(), m.unit.to_string())).collect();
            assert_eq!(emitted.len(), outcome.metrics.len(), "{name}: a metric name is emitted twice");
            assert_eq!(emitted, expected, "{name} trace={trace}: emitted metrics and units differ from {section}");
            for m in &outcome.metrics {
                assert!(well_formed(&m.name), "{name}: malformed metric name {:?}", m.name);
                assert!(!m.unit.is_empty(), "{name}: {} has no unit", m.name);
                assert!(m.value.is_finite() && m.value > 0.0, "{name}: {} = {}", m.name, m.value);
            }
            let json = outcome.to_json();
            assert!(json.starts_with("{\"correct\": true, \"attempted\": "), "{json}");
        }
    }
}
