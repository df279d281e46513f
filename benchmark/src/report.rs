//! Result emission: the one-line JSON object each run ends with.

use crate::measure::Values;
use crate::metrics::MetricDef;
use std::fmt::Write as _;

/// The result line of one run: exactly the keys `correct`, `attempted`,
/// `failed` and `metrics`, with every metric of `defs` present (a metric
/// the workload does not produce reads 0).
pub fn result_line(attempted: u64, failed: u64, defs: &[MetricDef], values: &Values) -> String {
    let mut out = String::with_capacity(128 + defs.len() * 64);
    let _ = write!(
        out,
        "{{\"correct\":{},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{{",
        failed == 0
    );
    for (i, def) in defs.iter().enumerate() {
        let value = values.get(def.name).copied().filter(|v| v.is_finite());
        let _ = write!(
            out,
            "{}\"{}\":{{\"value\":{},\"unit\":\"{}\"}}",
            if i == 0 { "" } else { "," },
            def.name,
            value.unwrap_or(0.0),
            def.unit
        );
    }
    out.push_str("}}");
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::{self, Json};
    use crate::metrics::{BOUNDS, END_TO_END, PER_LAYER};
    use crate::workloads::Kind;

    fn well_formed(name: &str) -> bool {
        !name.is_empty()
            && name.len() <= 64
            && name.starts_with(|c: char| c.is_ascii_alphanumeric())
            && name
                .chars()
                .all(|c| c.is_ascii_alphanumeric() || "_.-".contains(c))
    }

    #[test]
    fn the_result_line_parses_and_carries_every_metric() {
        let mut values = Values::new();
        values.insert("norm_pkts_per_s", 181_234.567_891);
        values.insert("setup_s", f64::NAN);
        let line = result_line(10, 0, &END_TO_END, &values);
        let doc = json::parse(&line).expect("the result line is JSON");
        let keys: Vec<&str> = doc
            .as_object()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(doc.get("correct").and_then(Json::as_bool), Some(true));
        let metrics = doc.get("metrics").and_then(Json::as_object).unwrap();
        assert_eq!(metrics.len(), END_TO_END.len());
        let value = |m: &Json| m.get("value").and_then(Json::as_f64);
        assert_eq!(value(&metrics[0].1), Some(181_234.567_891));
        assert_eq!(
            value(&metrics[1].1),
            Some(0.0),
            "a NaN never reaches the line"
        );
        assert_eq!(metrics[2].1.get("unit").and_then(Json::as_str), Some("MiB"));
        assert!(!result_line(10, 3, &END_TO_END, &values).contains("\"correct\":true"));
    }

    #[test]
    fn names_are_well_formed_and_unique() {
        let mut seen = std::collections::BTreeSet::new();
        let names = END_TO_END
            .iter()
            .chain(&PER_LAYER)
            .map(|d| d.name)
            .chain(Kind::ALL.map(Kind::name));
        for name in names {
            assert!(well_formed(name), "{name}");
            assert!(seen.insert(name), "{name} is used twice");
        }
    }

    /// `BENCHMARK.json` and the code name exactly the same workloads and
    /// metrics, with the same units, directions and bounds.
    #[test]
    fn benchmark_json_names_exactly_what_the_code_emits() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json at the repository root");
        let doc = json::parse(&text).expect("BENCHMARK.json parses");
        let field = |entry: &Json, key: &str| {
            entry
                .get(key)
                .and_then(Json::as_str)
                .unwrap_or_else(|| panic!("`{key}` missing"))
                .to_string()
        };
        let list = |key: &str| doc.get(key).and_then(Json::as_array).unwrap().to_vec();

        let workloads: Vec<String> = list("workloads").iter().map(|w| field(w, "name")).collect();
        assert_eq!(workloads, Kind::ALL.map(Kind::name));

        for (key, defs) in [
            ("end_to_end", &END_TO_END[..]),
            ("per_layer", &PER_LAYER[..]),
        ] {
            let listed: Vec<[String; 3]> = list(key)
                .iter()
                .map(|m| [field(m, "name"), field(m, "unit"), field(m, "better")])
                .collect();
            let emitted: Vec<[String; 3]> = defs
                .iter()
                .map(|d| [d.name.into(), d.unit.into(), d.better.into()])
                .collect();
            assert_eq!(listed, emitted, "{key}");
        }
        let bounds: Vec<f64> = list("end_to_end")
            .iter()
            .map(|m| m.get("bound").and_then(Json::as_f64).expect("a bound"))
            .collect();
        assert_eq!(bounds, BOUNDS);
    }
}
