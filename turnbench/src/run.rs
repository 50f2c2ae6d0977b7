//! One invocation = one process = one workload: set up, repeat the timed
//! body for the time budget, check what the program computed, print.

use crate::json;
use crate::spec::{END_TO_END, PER_LAYER};
use crate::stats::median;
use crate::trace::Tracer;
use crate::workloads::{self, probes, steady_wall_s, Digest, Layers, Rep, Workload};
use crate::{env, usage_error};
use std::process::ExitCode;
use std::time::{Duration, Instant};

/// Set-up samples taken before every round of repetitions and after the
/// last, so that they straddle the run instead of sitting inside one
/// stall of the machine; `setup_s` is the median of them all.
const SETUP_SAMPLES_PER_ROUND: usize = 5;
/// A set-up sample times enough consecutive set-ups to last this long, so
/// that a 40 µs `Sim::new` is not lost in timer and scheduler jitter.
const SETUP_SAMPLE_FLOOR: Duration = Duration::from_millis(5);

/// Seed-1 digests of every workload. A change that means to alter
/// simulated behaviour regenerates this file in a benchmark-only change.
const GOLDEN: &str = include_str!("../golden.json");

struct Options {
    workload: &'static Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
    self_test: bool,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut workload = None;
    let (mut seed, mut seconds, mut trace, mut self_test) = (1, 10.0, false, false);
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().ok_or(format!("{arg} needs {what}"));
        match arg.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                workload = Some(workloads::find(name).ok_or(format!("no workload '{name}'"))?);
            }
            "--seed" => {
                seed = value("a number")?
                    .parse()
                    .map_err(|_| "--seed needs a whole number")?;
            }
            "--seconds" => {
                seconds = value("a number")?
                    .parse()
                    .map_err(|_| "--seconds needs a number")?;
                if !(seconds > 0.0 && seconds <= 3600.0) {
                    return Err("--seconds must be in (0, 3600]".into());
                }
            }
            // `--trace 0|1` (the driver's form) or a bare `--trace`.
            "--trace" => {
                trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                }
            }
            "--self-test" => self_test = true,
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    if self_test && seed != 1 {
        return Err("--self-test perturbs the seed-1 golden digest; run it with --seed 1".into());
    }
    Ok(Options {
        workload: workload.ok_or("--workload is required")?,
        seed,
        seconds,
        trace,
        self_test,
    })
}

/// The golden digest of `workload`, if `golden.json` has one.
fn golden_digest(workload: &str) -> Option<Vec<(String, u64)>> {
    let doc = json::parse(GOLDEN).expect("golden.json is valid JSON");
    let fields = doc.get(workload)?.as_obj()?;
    Some(
        fields
            .iter()
            .map(|(k, v)| (k.clone(), v.as_u64().expect("golden values are integers")))
            .collect(),
    )
}

fn digest_eq(digest: &Digest, expected: &[(String, u64)]) -> bool {
    digest.len() == expected.len()
        && digest
            .iter()
            .zip(expected)
            .all(|(a, b)| a.0 == b.0 && a.1 == b.1)
}

/// Time `count` consecutive set-ups of `w`.
fn time_setups(w: &Workload, seed: u64, count: u32) -> Duration {
    let start = Instant::now();
    for _ in 0..count {
        (w.setup)(seed);
    }
    start.elapsed()
}

/// Run rounds of one repetition per tracer (untraced first), at least
/// `min_rounds`, until the next round would overrun `budget`. Returns the
/// repetitions per tracer and the set-up samples, in seconds per set-up.
fn run_rounds(
    w: &Workload,
    seed: u64,
    budget: Duration,
    min_rounds: usize,
    tracers: &mut [&mut Tracer],
) -> (Vec<Vec<Rep>>, Vec<f64>) {
    let one = time_setups(w, seed, 1).as_secs_f64();
    let batch = ((SETUP_SAMPLE_FLOOR.as_secs_f64() / one).ceil() as u32).clamp(1, 1_000);
    let mut setup_s = Vec::new();
    let mut sample_setups = || {
        for _ in 0..SETUP_SAMPLES_PER_ROUND {
            setup_s.push(time_setups(w, seed, batch).as_secs_f64() / f64::from(batch));
        }
    };
    let mut reps: Vec<Vec<Rep>> = tracers.iter().map(|_| Vec::new()).collect();
    let start = Instant::now();
    loop {
        sample_setups();
        let round_start = Instant::now();
        for (tr, reps) in tracers.iter_mut().zip(&mut reps) {
            tr.set_rep(reps.len() as u32);
            reps.push(tr.scope("rep", |tr| (w.rep)(seed, tr)));
        }
        if reps[0].len() >= min_rounds && start.elapsed() + round_start.elapsed() > budget {
            sample_setups();
            return (reps, setup_s);
        }
    }
}

struct Metric {
    name: &'static str,
    unit: &'static str,
    value: f64,
    /// The per-repetition (or per-set-up) samples behind `value`, if any.
    samples: Vec<f64>,
}

fn metric_json(m: &Metric, with_samples: bool) -> String {
    let mut out = format!(
        "{}:{{\"value\":{},\"unit\":{}",
        json::quote(m.name),
        json::number(m.value),
        json::quote(m.unit)
    );
    if with_samples && !m.samples.is_empty() {
        let min = m.samples.iter().copied().fold(f64::INFINITY, f64::min);
        let max = m.samples.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        out.push_str(&format!(
            ",\"min\":{},\"max\":{},\"n\":{}",
            json::number(min),
            json::number(max),
            m.samples.len()
        ));
    }
    out.push('}');
    out
}

fn metrics_json(metrics: &[Metric], with_samples: bool) -> String {
    let members: Vec<String> = metrics
        .iter()
        .map(|m| metric_json(m, with_samples))
        .collect();
    format!("{{{}}}", members.join(","))
}

pub fn main(args: &[String]) -> ExitCode {
    let opts = match parse_options(args) {
        Ok(opts) => opts,
        Err(message) => return usage_error(&message),
    };
    let w = opts.workload;
    let budget = Duration::from_secs_f64(opts.seconds);

    let noise_before_ms = env::noise_probe_ms();
    let mut untraced = Tracer::new(false);
    let mut traced = Tracer::new(true);
    // A traced run exists to attribute time to layers; one untraced and one
    // traced repetition already cross-check their digests.
    let (mut rounds, setup_samples) = if opts.trace {
        run_rounds(w, opts.seed, budget, 1, &mut [&mut untraced, &mut traced])
    } else {
        run_rounds(w, opts.seed, budget, w.min_reps, &mut [&mut untraced])
    };
    let traced_reps = if opts.trace {
        rounds.pop().expect("two tracers")
    } else {
        Vec::new()
    };
    let reps = rounds.pop().expect("one untraced series");

    // Correctness: every repetition computed the same thing, and at seed 1
    // the thing golden.json records.
    let mut expected = if opts.seed == 1 {
        golden_digest(w.name)
    } else {
        Some(
            reps[0]
                .digest
                .iter()
                .map(|(k, v)| (k.to_string(), *v))
                .collect(),
        )
    };
    if opts.self_test {
        match expected.as_mut().and_then(|e| e.first_mut()) {
            Some(field) => field.1 ^= 1,
            None => return usage_error("--self-test needs a golden digest to perturb"),
        }
    }
    let mut notes = Vec::new();
    if expected.is_none() {
        notes.push(format!("golden.json has no digest for '{}'", w.name));
    }
    let (mut attempted, mut failed) = (0, 0);
    for (i, rep) in reps.iter().chain(&traced_reps).enumerate() {
        attempted += rep.ops;
        if rep.failed > 0 {
            notes.push(format!(
                "repetition {i}: {} of {} operations failed",
                rep.failed, rep.ops
            ));
        }
        match &expected {
            Some(expected) if digest_eq(&rep.digest, expected) => failed += rep.failed,
            Some(_) => {
                notes.push(format!(
                    "repetition {i}: digest differs from the expected one"
                ));
                failed += rep.ops;
            }
            None => failed += rep.ops,
        }
    }
    let correct = failed == 0;

    let metrics = if opts.trace {
        layer_metrics(w, opts.seed, &mut traced, &reps, &traced_reps)
    } else {
        let walls: Vec<f64> = reps.iter().map(Rep::wall_s).collect();
        let rates: Vec<f64> = walls
            .iter()
            .map(|w| reps[0].sim_cycles as f64 / w)
            .collect();
        let wall_s = steady_wall_s(&reps);
        let values = [
            (wall_s, walls),
            (reps[0].sim_cycles as f64 / wall_s, rates),
            (median(&setup_samples), setup_samples),
            (env::peak_rss_mb(), Vec::new()),
        ];
        END_TO_END
            .iter()
            .zip(values)
            .map(|(&(name, unit), (value, samples))| Metric {
                name,
                unit,
                value,
                samples,
            })
            .collect()
    };
    let noise_after_ms = env::noise_probe_ms();

    if opts.trace {
        let dir = env::package_dir().join("out");
        let path = dir.join(format!("trace_{}.json", w.name));
        let written = std::fs::create_dir_all(&dir)
            .and_then(|()| std::fs::write(&path, traced.to_json(w.name)));
        if let Err(e) = written {
            eprintln!("turnbench: cannot write {}: {e}", path.display());
            return ExitCode::from(2);
        }
    }

    let digest: Vec<String> = reps[0]
        .digest
        .iter()
        .map(|(k, v)| format!("{}:{v}", json::quote(k)))
        .collect();
    let notes: Vec<String> = notes.iter().map(|n| json::quote(n)).collect();
    // The full record first (what `compare` and `baseline` read), then the
    // driver's four-key result as the last line.
    println!(
        "{{\"turnbench\":1,\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\
         \"env\":{{\"nproc\":{},\"rustc\":{},\"git_commit\":{},\"reps\":{},\
         \"noise_probe_before_ms\":{},\"noise_probe_after_ms\":{},\"noise_probe_ratio\":{}}},\
         \"correct\":{correct},\"ops\":{attempted},\"failed_ops\":{failed},\"notes\":[{}],\
         \"metrics\":{},\"digest\":{{{}}}}}",
        json::quote(w.name),
        opts.seed,
        json::number(opts.seconds),
        opts.trace,
        env::nproc(),
        json::quote(env::rustc_version()),
        json::quote(&env::git_commit()),
        reps.len(),
        json::number(noise_before_ms),
        json::number(noise_after_ms),
        json::number(noise_after_ms / noise_before_ms),
        notes.join(","),
        metrics_json(&metrics, true),
        digest.join(","),
    );
    println!(
        "{{\"correct\":{correct},\"attempted\":{attempted},\"failed\":{failed},\"metrics\":{}}}",
        metrics_json(&metrics, false)
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Every per-layer metric, by name: the workload's own (from its spans and
/// extra passes), the fixed-input probes, and the tracing overhead. Names
/// the workload does not measure read 0.
fn layer_metrics(
    w: &Workload,
    seed: u64,
    traced: &mut Tracer,
    untraced_reps: &[Rep],
    traced_reps: &[Rep],
) -> Vec<Metric> {
    let mut layers = Layers::default();
    let (plain, with_spans) = (steady_wall_s(untraced_reps), steady_wall_s(traced_reps));
    layers.set("trace.overhead_pct", (with_spans - plain) / plain * 100.0);
    traced.set_rep(0);
    (w.layers)(seed, traced, traced_reps, &mut layers);
    probes::run(seed, traced, &mut layers);
    layers.set("trace.spans", traced.spans().len() as f64);
    PER_LAYER
        .iter()
        .map(|&(name, unit)| Metric {
            name,
            unit,
            value: layers
                .0
                .iter()
                .find(|(n, _)| *n == name)
                .map_or(0.0, |(_, v)| *v),
            samples: Vec::new(),
        })
        .collect()
}
