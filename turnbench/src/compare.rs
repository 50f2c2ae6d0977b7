//! `turnbench compare A.jsonl B.jsonl` and `turnbench baseline runs.jsonl`:
//! medians and quartiles over the full records several runs printed.

use crate::json::{self, Value};
use crate::stats::quartiles;
use crate::{env, usage_error};
use std::collections::BTreeMap;
use std::process::ExitCode;

/// `values[workload][metric]`, one value per run, in file order.
type Runs = BTreeMap<String, BTreeMap<String, Vec<f64>>>;

/// The full records in a file of captured standard outputs. Lines that
/// are not full records (the driver's four-key result lines) are skipped.
fn read_records(path: &str) -> Result<Vec<Value>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let records: Vec<Value> = text
        .lines()
        .filter(|l| !l.trim().is_empty())
        .map(|l| json::parse(l).map_err(|e| format!("{path}: {e}")))
        .collect::<Result<Vec<_>, _>>()?
        .into_iter()
        .filter(|r| r.get("workload").is_some())
        .collect();
    if records.is_empty() {
        return Err(format!("{path}: no turnbench records"));
    }
    Ok(records)
}

/// The `metrics` member of a full record, as `(name, value)` pairs.
fn record_metrics(record: &Value) -> Vec<(String, f64)> {
    record
        .get("metrics")
        .and_then(Value::as_obj)
        .map(|members| {
            members
                .iter()
                .filter_map(|(k, m)| Some((k.clone(), m.get("value")?.as_f64()?)))
                .collect()
        })
        .unwrap_or_default()
}

fn is_traced(record: &Value) -> bool {
    record.get("trace") == Some(&Value::Bool(true))
}

fn group(records: &[Value]) -> Runs {
    let mut runs = Runs::new();
    for record in records {
        let workload = record
            .get("workload")
            .and_then(Value::as_str)
            .unwrap_or("?");
        let by_metric = runs.entry(workload.to_string()).or_default();
        for (metric, value) in record_metrics(record) {
            by_metric.entry(metric).or_default().push(value);
        }
    }
    runs
}

/// How one side's runs of one metric on one workload relate to the other's.
#[derive(Debug, PartialEq)]
enum Verdict {
    Ok,
    Regressed,
    /// The run-to-run spread is wider than the bound, so a difference
    /// within the bound cannot be told from noise.
    Unresolved,
}

/// Judge runs `b` (the change) against runs `a` (the parent). `worse` is
/// how far b's median is on the wrong side of a's, as a share of a's.
fn judge(a: &[f64], b: &[f64], lower_is_better: bool, bound: f64) -> (f64, Verdict) {
    let (qa, qb) = (quartiles(a), quartiles(b));
    let worse = if lower_is_better {
        (qb[1] - qa[1]) / qa[1]
    } else {
        (qa[1] - qb[1]) / qa[1]
    };
    let spread = |q: [f64; 3]| (q[2] - q[0]) / q[1];
    let better = |x: f64, y: f64| if lower_is_better { x < y } else { x > y };
    let b_beats_every_a = b.iter().all(|&x| a.iter().all(|&y| better(x, y)));
    let verdict = if spread(qa).max(spread(qb)) > bound && !b_beats_every_a {
        Verdict::Unresolved
    } else if worse > bound {
        Verdict::Regressed
    } else {
        Verdict::Ok
    };
    (worse, verdict)
}

/// `v` to five significant digits.
fn sig(v: f64) -> String {
    let decimals = (4 - v.abs().log10().floor() as i32).clamp(0, 12) as usize;
    format!("{v:.decimals$}")
}

/// The untraced runs in `path`: end-to-end metrics come only from them.
fn untraced_runs(path: &str) -> Result<Runs, String> {
    let mut records = read_records(path)?;
    records.retain(|r| !is_traced(r));
    Ok(group(&records))
}

pub fn compare(args: &[String]) -> ExitCode {
    let (a, b, benchmark) = match args {
        [a, b] => (a, b, env::package_dir().join("../BENCHMARK.json")),
        [a, b, flag, path] if flag == "--benchmark" => (a, b, path.into()),
        _ => {
            return usage_error("compare needs <runs-A.jsonl> <runs-B.jsonl> [--benchmark <file>]")
        }
    };
    let contract = std::fs::read_to_string(&benchmark)
        .map_err(|e| e.to_string())
        .and_then(|text| json::parse(&text))
        .map_err(|e| format!("{}: {e}", benchmark.display()));
    let (contract, a, b) = match (contract, untraced_runs(a), untraced_runs(b)) {
        (Ok(contract), Ok(a), Ok(b)) => (contract, a, b),
        (Err(message), _, _) | (_, Err(message), _) | (_, _, Err(message)) => {
            return usage_error(&message)
        }
    };
    let Some(end_to_end) = contract.get("end_to_end").and_then(Value::as_arr) else {
        return usage_error("the benchmark file has no end_to_end list");
    };

    println!(
        "{:<14} {:<17} {:>38} {:>38} {:>8} {:>6}  verdict",
        "workload", "metric", "A median [q1, q3]", "B median [q1, q3]", "worse", "bound"
    );
    let mut all_ok = true;
    for (workload, a_metrics) in &a {
        for m in end_to_end {
            let field = |k| m.get(k).and_then(Value::as_str).unwrap_or("?");
            let (name, lower) = (field("name"), field("better") == "lower");
            let bound = m.get("bound").and_then(Value::as_f64).unwrap_or(0.0);
            let sides = (
                a_metrics.get(name),
                b.get(workload).and_then(|metrics| metrics.get(name)),
            );
            let (Some(va), Some(vb)) = sides else {
                println!("{workload:<14} {name:<17} missing on one side");
                all_ok = false;
                continue;
            };
            if va.len() < 2 || vb.len() < 2 {
                println!("{workload:<14} {name:<17} needs at least two runs a side");
                all_ok = false;
                continue;
            }
            let (worse, verdict) = judge(va, vb, lower, bound);
            let show = |v: &[f64]| {
                let q = quartiles(v);
                format!("{} [{}, {}] n={}", sig(q[1]), sig(q[0]), sig(q[2]), v.len())
            };
            println!(
                "{workload:<14} {name:<17} {:>38} {:>38} {:>+7.2}% {:>5.0}%  {}",
                show(va),
                show(vb),
                worse * 100.0,
                bound * 100.0,
                match verdict {
                    Verdict::Ok => "ok",
                    Verdict::Regressed => "regressed",
                    Verdict::Unresolved => "unresolved",
                }
            );
            all_ok &= verdict == Verdict::Ok;
        }
    }
    if all_ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Print the median and quartiles of every metric of every workload in a
/// file of runs, as the JSON document committed as `baseline.json`.
pub fn baseline(args: &[String]) -> ExitCode {
    let [path] = args else {
        return usage_error("baseline needs <runs.jsonl>");
    };
    let records = match read_records(path) {
        Ok(records) => records,
        Err(message) => return usage_error(&message),
    };
    let env_of = |key: &str| {
        let value = records[0].get("env").and_then(|e| e.get(key));
        match value {
            Some(Value::Num(n)) => n.clone(),
            Some(Value::Str(s)) => json::quote(s),
            _ => "null".into(),
        }
    };
    let units: BTreeMap<String, String> = records
        .iter()
        .filter_map(|r| r.get("metrics")?.as_obj())
        .flatten()
        .filter_map(|(k, m)| Some((k.clone(), m.get("unit")?.as_str()?.to_string())))
        .collect();
    let mut out = format!(
        "{{\n\"env\": {{\"nproc\": {}, \"rustc\": {}, \"git_commit\": {}}},\n\"workloads\": {{",
        env_of("nproc"),
        env_of("rustc"),
        env_of("git_commit")
    );
    for (i, (workload, metrics)) in group(&records).iter().enumerate() {
        out.push_str(if i > 0 { ",\n" } else { "\n" });
        out.push_str(&format!("{}: {{", json::quote(workload)));
        for (j, (metric, values)) in metrics.iter().enumerate() {
            let q = if values.len() >= 2 {
                quartiles(values)
            } else {
                [values[0]; 3]
            };
            out.push_str(if j > 0 { ",\n  " } else { "\n  " });
            out.push_str(&format!(
                "{}: {{\"median\": {}, \"q1\": {}, \"q3\": {}, \"n\": {}, \"unit\": {}}}",
                json::quote(metric),
                json::number(q[1]),
                json::number(q[0]),
                json::number(q[2]),
                values.len(),
                json::quote(units.get(metric).map_or("", String::as_str)),
            ));
        }
        out.push_str("\n}");
    }
    out.push_str("\n}\n}");
    println!("{out}");
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use super::*;

    fn around(center: f64, step: f64) -> Vec<f64> {
        (-2..=2).map(|i| center + f64::from(i) * step).collect()
    }

    #[test]
    fn same_runs_are_ok() {
        let a = around(10.0, 0.05);
        assert_eq!(judge(&a, &a, true, 0.10), (0.0, Verdict::Ok));
    }

    #[test]
    fn a_slowdown_past_the_bound_regresses() {
        let (worse, verdict) = judge(&around(10.0, 0.05), &around(11.5, 0.05), true, 0.10);
        assert!((worse - 0.15).abs() < 1e-9);
        assert_eq!(verdict, Verdict::Regressed);
        // The same numbers are an improvement when higher is better.
        let (worse, verdict) = judge(&around(10.0, 0.05), &around(11.5, 0.05), false, 0.10);
        assert!(worse < 0.0);
        assert_eq!(verdict, Verdict::Ok);
    }

    #[test]
    fn a_spread_wider_than_the_bound_is_unresolved() {
        let noisy = around(10.0, 1.0);
        assert_eq!(
            judge(&noisy, &around(10.2, 1.0), true, 0.10).1,
            Verdict::Unresolved
        );
        // ... unless every run of the change beats every run of the parent.
        assert_eq!(judge(&noisy, &around(5.0, 1.0), true, 0.10).1, Verdict::Ok);
    }

    #[test]
    fn records_group_by_workload_and_metric() {
        let line = |w: &str, v: f64| {
            json::parse(&format!(
                "{{\"workload\":\"{w}\",\"trace\":false,\
                 \"metrics\":{{\"wall_s\":{{\"value\":{v},\"unit\":\"s\"}}}}}}"
            ))
            .unwrap()
        };
        let runs = group(&[line("a", 1.0), line("b", 5.0), line("a", 2.0)]);
        assert_eq!(runs["a"]["wall_s"], vec![1.0, 2.0]);
        assert_eq!(runs["b"]["wall_s"], vec![5.0]);
    }
}
