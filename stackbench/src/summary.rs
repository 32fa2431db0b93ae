//! Reading result lines and `BENCHMARK.json` bounds back, for the `repeat`
//! tool that checks a workload's run-to-run spread.

use serde::{Deserialize, Error, Value};

/// A JSON document held as a raw value tree.
struct Raw(Value);

impl Deserialize for Raw {
    fn from_value(v: &Value) -> Result<Self, Error> {
        Ok(Raw(v.clone()))
    }
}

fn parse(text: &str) -> Result<Value, String> {
    serde_json::from_str::<Raw>(text)
        .map(|raw| raw.0)
        .map_err(|e| e.to_string())
}

fn number(value: &Value) -> Result<f64, String> {
    match value {
        Value::Num(text) => text.parse().map_err(|e| format!("number {text}: {e}")),
        other => Err(format!("expected a number, got {other:?}")),
    }
}

fn string(value: &Value) -> Result<&str, String> {
    match value {
        Value::Str(text) => Ok(text),
        other => Err(format!("expected a string, got {other:?}")),
    }
}

fn field<'a>(value: &'a Value, name: &str) -> Result<&'a Value, String> {
    value.field(name).map_err(|e| e.to_string())
}

/// One parsed result line.
#[derive(Debug, Clone, PartialEq)]
pub struct ResultLine {
    /// The `correct` flag.
    pub correct: bool,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations failed.
    pub failed: u64,
    /// `(name, value, unit)` per metric, in printed order.
    pub metrics: Vec<(String, f64, String)>,
}

/// Parses a benchmark result line.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn parse_result_line(line: &str) -> Result<ResultLine, String> {
    let doc = parse(line)?;
    let correct = match field(&doc, "correct")? {
        Value::Bool(flag) => *flag,
        other => return Err(format!("correct: expected a boolean, got {other:?}")),
    };
    let count = |name: &str| -> Result<u64, String> {
        match field(&doc, name)? {
            Value::Num(text) => text.parse().map_err(|e| format!("{name} {text}: {e}")),
            other => Err(format!("{name}: expected an integer, got {other:?}")),
        }
    };
    let metrics = match field(&doc, "metrics")? {
        Value::Object(entries) => entries
            .iter()
            .map(|(name, metric)| {
                Ok((
                    name.clone(),
                    number(field(metric, "value")?)?,
                    string(field(metric, "unit")?)?.to_string(),
                ))
            })
            .collect::<Result<_, String>>()?,
        other => return Err(format!("metrics: expected an object, got {other:?}")),
    };
    Ok(ResultLine {
        correct,
        attempted: count("attempted")?,
        failed: count("failed")?,
        metrics,
    })
}

/// The `(name, bound)` of every end-to-end metric of a `BENCHMARK.json`.
///
/// # Errors
///
/// Returns a description of the first missing or mistyped field.
pub fn parse_bounds(benchmark_json: &str) -> Result<Vec<(String, f64)>, String> {
    let doc = parse(benchmark_json)?;
    field(&doc, "end_to_end")?
        .as_array()
        .map_err(|e| e.to_string())?
        .iter()
        .map(|metric| {
            Ok((
                string(field(metric, "name")?)?.to_string(),
                number(field(metric, "bound")?)?,
            ))
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_lines_round_trip_through_the_printer() {
        let outcome = crate::report::Outcome {
            correct: true,
            attempted: 7,
            failed: 1,
            metrics: vec![
                crate::report::Metric::new("latency_ms", 12.5, "ms"),
                crate::report::Metric::new("setup_s", 0.0001, "s"),
            ],
        };
        let parsed = parse_result_line(&outcome.to_json()).expect("parse");
        assert_eq!(
            parsed,
            ResultLine {
                correct: true,
                attempted: 7,
                failed: 1,
                metrics: vec![
                    ("latency_ms".to_string(), 12.5, "ms".to_string()),
                    ("setup_s".to_string(), 0.0001, "s".to_string()),
                ],
            }
        );
    }

    #[test]
    fn malformed_result_lines_are_refused() {
        assert!(parse_result_line("not json").is_err());
        assert!(parse_result_line(
            "{\"correct\": 1, \"attempted\": 1, \"failed\": 0, \"metrics\": {}}"
        )
        .is_err());
        assert!(
            parse_result_line("{\"correct\": true, \"attempted\": 1, \"metrics\": {}}").is_err()
        );
    }

    #[test]
    fn bounds_are_read_from_the_end_to_end_section() {
        let json = r#"{"command": ["x"], "end_to_end": [
            {"name": "latency_ms", "unit": "ms", "better": "lower", "bound": 0.1},
            {"name": "setup_s", "unit": "s", "better": "lower", "bound": 0.25}],
            "per_layer": [{"name": "a", "unit": "count", "better": "higher"}]}"#;
        assert_eq!(
            parse_bounds(json).expect("bounds"),
            vec![
                ("latency_ms".to_string(), 0.1),
                ("setup_s".to_string(), 0.25)
            ]
        );
    }
}

#[cfg(test)]
mod manifest {
    use super::*;

    fn benchmark_json() -> Value {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        parse(&std::fs::read_to_string(path).expect("read BENCHMARK.json")).expect("parse")
    }

    fn names(doc: &Value, section: &str) -> Vec<(String, String)> {
        field(doc, section)
            .and_then(|list| list.as_array().map_err(|e| e.to_string()))
            .expect("metric list")
            .iter()
            .map(|m| {
                let name = string(field(m, "name").expect("name")).expect("name");
                let unit = string(field(m, "unit").expect("unit")).expect("unit");
                (name.to_string(), unit.to_string())
            })
            .collect()
    }

    #[test]
    fn per_layer_section_matches_the_traced_result_line() {
        let declared: Vec<(String, String)> = crate::layers::declared()
            .into_iter()
            .map(|(name, unit)| (name, unit.to_string()))
            .collect();
        assert_eq!(names(&benchmark_json(), "per_layer"), declared);
    }

    #[test]
    fn workloads_match_the_runnable_ones() {
        let doc = benchmark_json();
        let listed: Vec<String> = field(&doc, "workloads")
            .and_then(|list| list.as_array().map_err(|e| e.to_string()))
            .expect("workloads")
            .iter()
            .map(|w| {
                string(field(w, "name").expect("name"))
                    .expect("name")
                    .to_string()
            })
            .collect();
        assert_eq!(listed, crate::WORKLOADS);
        assert!(names(&doc, "end_to_end").contains(&("setup_s".to_string(), "s".to_string())));
    }
}
