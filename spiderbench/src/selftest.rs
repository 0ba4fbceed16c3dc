//! `--selftest`: a tiny version of every workload, checked for the shape
//! of its output rather than for its numbers.
//!
//! - every end-to-end metric (`--trace 0`) and every per-layer metric
//!   (`--trace 1`) is emitted with its unit, matching `BENCHMARK.json`;
//! - every answer verifies (`error_rate` = 0) and the traced spans add up;
//! - a different seed changes the generated inputs but not the metric
//!   names.

use std::path::Path;

use routes_server::json::{self, Json};

use crate::report::{END_TO_END, PER_LAYER};
use crate::workload::{Size, Workload};
use crate::{run, Args, RunResult};

const SECONDS: f64 = 1.5;

fn names(result: &RunResult) -> Vec<(String, &'static str)> {
    result
        .metrics
        .iter()
        .map(|m| (m.name.clone(), m.unit))
        .collect()
}

fn expect(table: &[(&str, &'static str)]) -> Vec<(String, &'static str)> {
    table.iter().map(|&(n, u)| (n.to_owned(), u)).collect()
}

/// `BENCHMARK.json`'s metric lists agree with the tables the runs print.
fn check_manifest() -> Result<(), String> {
    let Ok(text) = std::fs::read_to_string("BENCHMARK.json") else {
        return Err("BENCHMARK.json not found in the working directory".into());
    };
    let doc = json::parse(&text).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    for (key, table) in [
        ("end_to_end", &END_TO_END[..]),
        ("per_layer", &PER_LAYER[..]),
    ] {
        let listed: Vec<(String, String)> = doc
            .get(key)
            .and_then(Json::as_array)
            .unwrap_or(&[])
            .iter()
            .map(|m| {
                let field = |f: &str| m.get(f).and_then(Json::as_str).unwrap_or("").to_owned();
                (field("name"), field("unit"))
            })
            .collect();
        let want: Vec<(String, String)> = table
            .iter()
            .map(|&(n, u)| (n.to_owned(), u.to_owned()))
            .collect();
        if listed != want {
            return Err(format!(
                "BENCHMARK.json `{key}` disagrees with the benchmark's table"
            ));
        }
    }
    Ok(())
}

pub fn run_selftest(spiderd: &Path) -> Result<(), String> {
    check_manifest()?;
    for workload in Workload::ALL {
        let go = |seed: u64, trace: bool| {
            let result = run(&Args {
                spiderd: spiderd.to_owned(),
                workload,
                seed,
                seconds: SECONDS,
                warmup: 0.3,
                trace,
                size: Size::tiny(),
            })?;
            let label = format!("{} seed {seed} trace {}", workload.name(), u8::from(trace));
            if !result.correct || result.failed != 0 || result.attempted == 0 {
                return Err(format!(
                    "{label}: {} of {} requests failed\n{}",
                    result.failed, result.attempted, result.report
                ));
            }
            let want = expect(if trace {
                &PER_LAYER[..]
            } else {
                &END_TO_END[..]
            });
            if names(&result) != want {
                return Err(format!(
                    "{label}: metric names or units differ from the table"
                ));
            }
            if result.metrics.iter().any(|m| !m.value.is_finite()) {
                return Err(format!("{label}: a metric is not a finite number"));
            }
            println!(
                "selftest: {label}: ok ({} requests verified)",
                result.attempted
            );
            Ok(result)
        };
        let a = go(1, false)?;
        let b = go(2, false)?;
        go(1, true)?;
        if a.fingerprint == b.fingerprint {
            return Err(format!(
                "{}: seeds 1 and 2 generated the same inputs",
                workload.name()
            ));
        }
        if names(&a) != names(&b) {
            return Err(format!(
                "{}: metric names changed with the seed",
                workload.name()
            ));
        }
        if a.fingerprint != go(1, false)?.fingerprint {
            return Err(format!(
                "{}: seed 1 did not reproduce its inputs",
                workload.name()
            ));
        }
    }
    println!("selftest: ok");
    Ok(())
}
