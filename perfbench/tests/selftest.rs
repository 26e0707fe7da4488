//! The benchmark's own check at tiny sizes: every workload runs in both
//! modes, every published metric is emitted with the unit
//! `BENCHMARK.json` gives it, and no result fails the bit-for-bit check.

use plf_perfbench::{result_json, run, Params, Size, Workload, END_TO_END, PER_LAYER};
use serde_json::Value;

fn field<'a>(v: &'a Value, key: &str) -> &'a Value {
    v.as_object()
        .and_then(|o| o.iter().find(|(k, _)| k == key))
        .map(|(_, v)| v)
        .unwrap_or_else(|| panic!("missing key {key:?}"))
}

fn published(spec: &Value, key: &str) -> Vec<(String, String)> {
    field(spec, key)
        .as_array()
        .expect("metric list")
        .iter()
        .map(|m| {
            let name = field(m, "name").as_str().expect("name").to_string();
            (name, field(m, "unit").as_str().expect("unit").to_string())
        })
        .collect()
}

fn table(t: &[(&str, &str)]) -> Vec<(String, String)> {
    t.iter()
        .map(|(n, u)| (n.to_string(), u.to_string()))
        .collect()
}

#[test]
fn benchmark_json_matches_the_code() {
    let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
    let spec = serde_json::from_str(&std::fs::read_to_string(path).expect("BENCHMARK.json"))
        .expect("BENCHMARK.json parses");
    assert_eq!(published(&spec, "end_to_end"), table(END_TO_END));
    assert_eq!(published(&spec, "per_layer"), table(PER_LAYER));
    let workloads: Vec<&str> = field(&spec, "workloads")
        .as_array()
        .expect("workloads")
        .iter()
        .map(|w| field(w, "name").as_str().expect("workload name"))
        .collect();
    let ours: Vec<&str> = Workload::ALL.iter().map(|w| w.name()).collect();
    assert_eq!(workloads, ours);
}

#[test]
fn every_workload_emits_every_metric_and_passes_the_check() {
    for workload in Workload::ALL {
        for trace in [false, true] {
            let params = Params {
                workload,
                seed: 7,
                seconds: 0.2,
                trace,
                size: Size::Tiny,
                trace_dir: None,
            };
            let outcome = run(&params).unwrap_or_else(|e| panic!("{}: {e}", workload.name()));
            assert!(
                outcome.attempted >= 1,
                "{}: nothing attempted",
                workload.name()
            );
            assert_eq!(
                outcome.failed,
                0,
                "{} trace={trace}: failed_frac > 0",
                workload.name()
            );

            let line: Value = serde_json::from_str(&result_json(&outcome)).expect("result parses");
            assert_eq!(field(&line, "correct").as_bool(), Some(true));
            let metrics = field(&line, "metrics");
            let want = table(if trace { PER_LAYER } else { END_TO_END });
            assert_eq!(
                metrics.as_object().expect("metrics object").len(),
                want.len()
            );
            for (name, unit) in want {
                let m = field(metrics, &name);
                assert_eq!(field(m, "unit").as_str(), Some(unit.as_str()), "{name}");
                let value = field(m, "value").as_f64().expect("numeric value");
                assert!(value.is_finite(), "{name} = {value}");
                if !trace {
                    assert!(value > 0.0, "{} {name} = {value}", workload.name());
                }
            }
        }
    }
}
