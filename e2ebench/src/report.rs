//! Metric names and units, and the result line.

use invmeas_service::Json;
use std::collections::BTreeMap;

/// End-to-end metrics, printed with `--trace 0`.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("submit_p50_ms", "ms"),
    ("submit_p90_ms", "ms"),
    ("slo_met_ratio", "ratio"),
    ("server_cpu_ms_per_job", "ms"),
    ("server_rss_mb", "MB"),
    ("aim_pst_gain", "ratio"),
    ("cold_submit_p50_ms", "ms"),
];

/// Per-layer metrics, printed with `--trace 1`.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("service.frontend_ms_p50", "ms"),
    ("service.frontend_ms_p99", "ms"),
    ("service.epoll_wakeups_per_req", "count"),
    ("service.protocol_parse_us", "us"),
    ("service.protocol_render_us", "us"),
    ("service.server_ms_p50", "ms"),
    ("service.queue_depth_peak", "count"),
    ("service.queue_steals_per_req", "count"),
    ("service.busy_rejections", "count"),
    ("service.cache_lookup_us", "us"),
    ("service.cache_hit_ratio", "ratio"),
    ("service.characterizations", "count"),
    ("service.cache_miss_ms", "ms"),
    ("core.journal_checkpoints", "count"),
    ("noise.snapshot_us", "us"),
    ("qsim.qasm_parse_us", "us"),
    ("core.runner_new_us", "us"),
    ("core.run_ms.baseline", "ms"),
    ("core.run_ms.sim", "ms"),
    ("core.run_ms.aim", "ms"),
    ("qsim.simulations_per_job", "count"),
    ("qsim.pool_tasks_per_job", "count"),
    ("qsim.arena_reuse_per_job", "count"),
    ("qsim.rank_us", "us"),
    ("metrics.evaluate_us", "us"),
    ("generator.send_lag_ms_p99", "ms"),
    ("generator.threads", "count"),
    ("generator.connections", "count"),
    ("machine.steal_pct", "%"),
    ("machine.probe_ms", "ms"),
    ("machine.wakeup_us", "us"),
    ("service.e2e_ms_p99", "ms"),
    ("trace.span_coverage_pct", "%"),
    ("trace.overhead_pct", "%"),
];

/// Renders the result object. Every metric of the mode must be present;
/// a missing or non-finite value is an error, never a silent zero.
pub fn result_line(
    correct: bool,
    attempted: u64,
    failed: u64,
    trace: bool,
    values: &BTreeMap<&'static str, f64>,
) -> Result<String, String> {
    let mut metrics = Vec::new();
    let registry = if trace { PER_LAYER } else { END_TO_END };
    for &(name, unit) in registry {
        let value = *values
            .get(name)
            .ok_or_else(|| format!("metric {name} was not measured"))?;
        if !value.is_finite() {
            return Err(format!("metric {name} is not finite: {value}"));
        }
        metrics.push((
            name,
            Json::obj(vec![("value", Json::Num(value)), ("unit", Json::str(unit))]),
        ));
    }
    Ok(Json::obj(vec![
        ("correct", Json::Bool(correct)),
        ("attempted", Json::int(attempted)),
        ("failed", Json::int(failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    fn valid_name(s: &str) -> bool {
        !s.is_empty()
            && s.len() <= 64
            && s.starts_with(|c: char| c.is_ascii_alphanumeric())
            && s.chars()
                .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-'))
    }

    #[test]
    fn every_name_is_well_formed_and_carries_a_unit() {
        let mut seen = std::collections::BTreeSet::new();
        for &(name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(valid_name(name), "{name}");
            assert!(seen.insert(name), "{name} is emitted twice");
            assert!(!unit.is_empty() && unit.len() <= 16, "{name} unit {unit:?}");
            assert!(
                unit.chars()
                    .all(|c| c.is_ascii_alphanumeric() || matches!(c, '_' | '/' | '%' | '.' | '-')),
                "{name} unit {unit:?}"
            );
        }
    }

    #[test]
    fn registry_matches_the_benchmark_manifest() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let text = std::fs::read_to_string(path).expect("BENCHMARK.json sits at the repo root");
        let manifest = Json::parse(&text).expect("BENCHMARK.json parses");
        for (key, list) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = manifest
                .get(key)
                .and_then(Json::as_arr)
                .expect("metric list")
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let emitted: Vec<(String, String)> = list
                .iter()
                .map(|&(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, emitted, "{key}");
        }
    }

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let values: BTreeMap<&str, f64> = END_TO_END.iter().map(|&(n, _)| (n, 1.5)).collect();
        let line = result_line(true, 10, 0, false, &values).unwrap();
        let json = Json::parse(&line).unwrap();
        let keys: Vec<&str> = json
            .as_obj()
            .unwrap()
            .iter()
            .map(|(k, _)| k.as_str())
            .collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        let setup = json.get("metrics").and_then(|m| m.get("setup_s")).unwrap();
        assert_eq!(setup.get("unit").and_then(Json::as_str), Some("s"));
        assert_eq!(setup.get("value").and_then(Json::as_f64), Some(1.5));
    }

    #[test]
    fn missing_or_non_finite_metrics_are_refused() {
        let mut values: BTreeMap<&str, f64> = END_TO_END.iter().map(|&(n, _)| (n, 1.0)).collect();
        values.insert("setup_s", f64::NAN);
        assert!(result_line(true, 1, 0, false, &values).is_err());
        values.remove("setup_s");
        assert!(result_line(true, 1, 0, false, &values).is_err());
    }
}
