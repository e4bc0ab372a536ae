//! `perfbench` — the repository's end-to-end and per-layer benchmark.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload suite|chatter|delta --seed N --seconds S --trace 0|1
//! ```
//!
//! Starts the JSON-lines server in-process on loopback, drives one seeded
//! closed-loop workload through `gpm_service::Client`, checks every answer
//! against an independent oracle, and prints a report followed by one JSON
//! line.  `--trace 0` reports the end-to-end metrics; `--trace 1` makes an
//! untraced and a traced run and reports the per-layer metrics and the
//! tracing overhead.  See `perfbench/README.md`.

mod harness;
mod layers;
mod plan;
mod stats;
mod trace;

use harness::{drive, peak_rss_mb, server_config, setup, Limits, RunResult};
use plan::{Inputs, Kind, Op, Workload};
use serde::Value;
use stats::{geomean, Summary};
use std::collections::BTreeMap;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// End-to-end metrics the final JSON line carries (and `BENCHMARK.json`
/// bounds), with units: those every workload has and whose spread over
/// seeds is a small share of their median.  The others are printed only.
const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("solve_p50_ms", "ms"),
    ("solve_p90_ms", "ms"),
    ("solve_geomean_ms", "ms"),
    ("throughput_rps", "1/s"),
];

/// Set-ups per end-to-end run; `setup_s` is their median.
const SETUP_REPEATS: usize = 5;

/// Solve samples an end-to-end run collects at least, so that ten lie
/// beyond the p90.
const MIN_SOLVES: usize = 100;

const USAGE: &str =
    "usage: perfbench --workload suite|chatter|delta [--seed N] [--seconds S] [--trace 0|1]";

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args(args: impl Iterator<Item = String>) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, 1, 10.0, false);
    let mut args = args.peekable();
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = |what: &str| format!("{flag}: '{value}' is not {what}");
        match flag.as_str() {
            "--workload" => workload = Some(value.parse()?),
            "--seed" => seed = value.parse().map_err(|_| bad("a non-negative integer"))?,
            "--seconds" => {
                seconds = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(0.0..=60.0).contains(&seconds) {
                    return Err(bad("in 0..=60"));
                }
            }
            "--trace" => {
                trace = match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                }
            }
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    let workload = workload.ok_or("--workload is required")?;
    Ok(Args { workload, seed, seconds, trace })
}

fn main() -> ExitCode {
    let args = match parse_args(std::env::args().skip(1)) {
        Ok(args) => args,
        Err(e) => {
            eprintln!("perfbench: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

fn limits(seconds: f64, min_solves: usize) -> Limits {
    Limits { seconds, min_solves, hard_cap_s: (3.0 * seconds).clamp(30.0, 70.0) }
}

fn run(args: &Args) -> Result<(), String> {
    let (workload, seed) = (args.workload, args.seed);
    let start = Instant::now();
    if !args.trace {
        let mut setups = Vec::new();
        let mut prep: Option<harness::Prepared> = None;
        for _ in 0..SETUP_REPEATS {
            if let Some(old) = prep.take() {
                old.stop()?;
            }
            let t = Instant::now();
            prep = Some(setup(workload, seed, nproc())?);
            setups.push(t.elapsed().as_secs_f64());
        }
        let prep = prep.expect("at least one set-up");
        eprintln!(
            "perfbench: {workload} set up {SETUP_REPEATS}x in {:.2} s",
            start.elapsed().as_secs_f64()
        );
        let result = drive(&prep, limits(args.seconds, MIN_SOLVES), false)?;
        let inputs = prep.stop()?;
        let e2e = EndToEnd::of(&inputs, &result, Summary::of(&setups).p50);
        print_record(args, &inputs);
        e2e.print(&result);
        print_failures(&result);
        let metrics = END_TO_END.iter().map(|&(name, unit)| (name, e2e.gated(name), unit));
        print_result(&[&result], metrics);
    } else {
        let prep = setup(workload, seed, nproc())?;
        let untraced = drive(&prep, limits(args.seconds, MIN_SOLVES), false)?;
        prep.stop()?;
        let prep = setup(workload, seed, nproc())?;
        let traced = drive(&prep, limits(args.seconds, 0), true)?;
        let inputs = prep.stop()?;
        let m = layers::per_layer_metrics(&untraced, &traced);
        save_trace(args, &traced, &m)?;
        print_record(args, &inputs);
        print_layers(&inputs, &traced, &m);
        print_failures(&untraced);
        print_failures(&traced);
        let metrics = layers::PER_LAYER.iter().map(|&(name, unit)| (name, m[name], unit));
        print_result(&[&untraced, &traced], metrics);
    }
    Ok(())
}

/// The end-to-end figures of one untraced run.
struct EndToEnd {
    setup_s: f64,
    solve: Summary,
    solve_geomean_ms: f64,
    write: Summary,
    stats: Summary,
    throughput_rps: f64,
    modelled_device_s: f64,
    peak_rss_mb: f64,
}

impl EndToEnd {
    fn of(inputs: &Inputs, run: &RunResult, setup_s: f64) -> Self {
        let ms = |kind: Kind| {
            Summary::of(
                &run.samples.iter().filter(|s| s.kind == kind).map(|s| s.ms).collect::<Vec<_>>(),
            )
        };
        let mut pairs: BTreeMap<(usize, String), Vec<f64>> = BTreeMap::new();
        for s in &run.samples {
            if let Op::Solve { graph, algorithm, .. } = inputs.plans[s.client][s.index].op {
                pairs.entry((graph, algorithm.to_string())).or_default().push(s.ms);
            }
        }
        let ok = run.samples.iter().filter(|s| s.ok).count();
        EndToEnd {
            setup_s,
            solve: ms(Kind::Solve),
            solve_geomean_ms: geomean(
                &pairs.values().map(|v| Summary::of(v).p50).collect::<Vec<_>>(),
            ),
            write: ms(Kind::Write),
            stats: ms(Kind::Stats),
            throughput_rps: ok as f64 / run.wall_s,
            modelled_device_s: layers::modelled_device_s(run),
            peak_rss_mb: peak_rss_mb(),
        }
    }

    /// The value of a metric in [`END_TO_END`].
    fn gated(&self, name: &str) -> f64 {
        match name {
            "setup_s" => self.setup_s,
            "solve_p50_ms" => self.solve.p50,
            "solve_p90_ms" => self.solve.p90,
            "solve_geomean_ms" => self.solve_geomean_ms,
            "throughput_rps" => self.throughput_rps,
            _ => unreachable!("{name} is not an end-to-end metric"),
        }
    }

    fn print(&self, run: &RunResult) {
        println!("end-to-end (host wall clock unless noted; closed loop):");
        println!(
            "  setup_s            {:>12.4} s    median of {SETUP_REPEATS} set-ups",
            self.setup_s
        );
        let latency = |name: &str, s: &Summary| {
            if s.n > 0 {
                println!(
                    "  {name:<18} {:>12.4} ms   {s}",
                    if name.ends_with("p90_ms") { s.p90 } else { s.p50 }
                );
            } else {
                println!("  {name:<18} {:>12} ms   (no such requests in this workload)", "-");
            }
        };
        latency("solve_p50_ms", &self.solve);
        latency("solve_p90_ms", &self.solve);
        println!(
            "  solve_geomean_ms   {:>12.4} ms   over (graph, algorithm) medians",
            self.solve_geomean_ms
        );
        latency("write_p50_ms", &self.write);
        latency("write_p90_ms", &self.write);
        latency("stats_p50_ms", &self.stats);
        println!(
            "  throughput_rps     {:>12.4} 1/s  {} ok requests in {:.3} s",
            self.throughput_rps,
            run.samples.iter().filter(|s| s.ok).count(),
            run.wall_s
        );
        println!(
            "  modelled_device_s  {:>12.6} s    modelled clock, GPU solves of each first pass",
            self.modelled_device_s
        );
        println!(
            "  peak_rss_mb        {:>12.2} MB   VmHWM of the process (server + clients)",
            self.peak_rss_mb
        );
    }
}

fn print_failures(run: &RunResult) {
    for f in &run.failures {
        println!("FAILED {f}");
    }
}

fn commit() -> String {
    let head = std::fs::read_to_string(".git/HEAD").unwrap_or_default();
    let head = head.trim();
    let sha = match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(format!(".git/{r}")).ok().or_else(|| {
            let packed = std::fs::read_to_string(".git/packed-refs").ok()?;
            let line = packed.lines().find(|l| l.ends_with(r))?;
            line.split(' ').next().map(str::to_string)
        }),
        None if !head.is_empty() => Some(head.to_string()),
        None => None,
    };
    sha.map_or_else(|| "unknown (not a git checkout)".to_string(), |s| s.trim().to_string())
}

fn results_dir() -> PathBuf {
    PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("results")
}

/// The run record: enough to trace a figure back to its inputs.
fn print_record(args: &Args, inputs: &Inputs) {
    let mut overhead = Vec::new();
    for w in Workload::ALL {
        let path = results_dir().join(format!("overhead-{w}.json"));
        let v = std::fs::read_to_string(path)
            .ok()
            .and_then(|s| serde_json::from_str(&s).ok())
            .unwrap_or(Value::Str("not measured yet: run with --trace 1".to_string()));
        overhead.push((w.to_string(), v));
    }
    let s = |v: String| Value::Str(v);
    let record = Value::Map(vec![
        ("workload".into(), s(args.workload.to_string())),
        ("seed".into(), Value::U64(args.seed)),
        ("seconds".into(), Value::F64(args.seconds)),
        ("trace".into(), Value::Bool(args.trace)),
        ("nproc".into(), Value::U64(nproc() as u64)),
        ("server".into(), s(server_config())),
        ("scale".into(), s(format!("{:?}", args.workload.scale()))),
        ("clients".into(), Value::U64(args.workload.clients() as u64)),
        ("loop".into(), s("closed: one request in flight per connection".into())),
        (
            "requests_per_pass".into(),
            Value::U64(inputs.plans.iter().map(Vec::len).sum::<usize>() as u64),
        ),
        ("request_digest".into(), s(format!("{:016x}", inputs.digest()))),
        ("commit".into(), s(commit())),
        ("tracing_overhead".into(), Value::Map(overhead)),
    ]);
    println!("run record: {}", serde_json::to_string(&record).expect("JSON emission cannot fail"));
}

/// Writes the span dump and this workload's tracing overhead.
fn save_trace(args: &Args, traced: &RunResult, m: &BTreeMap<&str, f64>) -> Result<(), String> {
    let dir = results_dir();
    std::fs::create_dir_all(&dir).map_err(|e| format!("{}: {e}", dir.display()))?;
    if let Some(t) = &traced.trace {
        let path = dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
        std::fs::write(&path, t.spans_jsonl()).map_err(|e| format!("{}: {e}", path.display()))?;
        println!("spans: {} written to {}", t.spans.len(), path.display());
    }
    let overhead = Value::Map(vec![
        ("seed".into(), Value::U64(args.seed)),
        ("solve_p50_overhead_pct".into(), Value::F64(m["trace.solve_p50_overhead_pct"])),
        ("throughput_overhead_pct".into(), Value::F64(m["trace.throughput_overhead_pct"])),
    ]);
    let path = dir.join(format!("overhead-{}.json", args.workload));
    let text = serde_json::to_string(&overhead).expect("JSON emission cannot fail");
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn print_layers(inputs: &Inputs, traced: &RunResult, m: &BTreeMap<&str, f64>) {
    println!("per-layer (traced run; queue/shard/cache from the untraced run):");
    for &(name, unit) in layers::PER_LAYER {
        println!("  {name:<42} {:>14.4} {unit}", m[name]);
    }
    let Some(t) = &traced.trace else { return };
    let kernels = t.first_pass_kernels();
    let mut by_wall: Vec<_> = kernels.kernels.iter().collect();
    by_wall.sort_by(|a, b| b.1.wall_time_ns.total_cmp(&a.1.wall_time_ns));
    println!("kernels of the first pass by host wall time (wall ms / modelled ms / launches):");
    for (name, k) in by_wall {
        println!(
            "  {name:<24} {:>10.2} {:>10.3} {:>8}",
            k.wall_time_ns / 1e6,
            k.modelled_time_ns / 1e6,
            k.launches
        );
    }
    for (name, ratio) in layers::kernel_outliers(&kernels) {
        println!("  outlier: {name} wall/model {ratio:.1} (> 3x the median ratio)");
    }
    println!("engines per instance, first pass (wall s / modelled s):");
    for e in t.engines.iter().filter(|e| e.pass == 0) {
        let graph = &inputs.graphs[e.graph].name;
        let modelled = e.modelled_s.map_or_else(|| "-".to_string(), |s| format!("{s:.6}"));
        println!("  {graph:<20} {:<24} {:>10.6} {modelled:>10}", e.algorithm.to_string(), e.wall_s);
    }
    println!("self time by span (ms total, spans):");
    for (name, ms, n) in t.self_time_by_name() {
        println!("  {name:<20} {ms:>12.3} {n:>8}");
    }
}

/// Prints the final result line.
fn print_result<'a>(runs: &[&RunResult], metrics: impl Iterator<Item = (&'a str, f64, &'a str)>) {
    let attempted: usize = runs.iter().map(|r| r.samples.len()).sum();
    let failed: usize = runs.iter().map(|r| r.samples.iter().filter(|s| !s.ok).count()).sum();
    let correct = failed == 0 && runs.iter().all(|r| r.failures.is_empty());
    let metrics = metrics
        .map(|(name, value, unit)| {
            let value = if value.is_finite() { value } else { 0.0 };
            let entry = vec![
                ("value".to_string(), Value::F64(value)),
                ("unit".to_string(), Value::Str(unit.into())),
            ];
            (name.to_string(), Value::Map(entry))
        })
        .collect();
    let line = Value::Map(vec![
        ("correct".into(), Value::Bool(correct)),
        ("attempted".into(), Value::U64(attempted as u64)),
        ("failed".into(), Value::U64(failed as u64)),
        ("metrics".into(), Value::Map(metrics)),
    ]);
    println!("{}", serde_json::to_string(&line).expect("JSON emission cannot fail"));
}

#[cfg(test)]
mod tests {
    use super::*;

    fn args(s: &str) -> Result<Args, String> {
        parse_args(s.split_whitespace().map(str::to_string))
    }

    #[test]
    fn flags_parse_and_bad_ones_are_refused() {
        let a = args("--workload delta --seed 9 --seconds 2.5 --trace 1").unwrap();
        assert_eq!((a.workload, a.seed, a.seconds, a.trace), (Workload::Delta, 9, 2.5, true));
        for bad in [
            "",
            "--workload x",
            "--workload suite --trace 2",
            "--seed 1",
            "--workload suite --bogus 1",
        ] {
            assert!(args(bad).is_err(), "{bad}");
        }
    }

    /// `BENCHMARK.json` names exactly the metrics this program prints.
    #[test]
    fn benchmark_json_matches_the_metric_tables() {
        let path = concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json");
        let json: Value = serde_json::from_str(&std::fs::read_to_string(path).unwrap()).unwrap();
        let names = |key: &str| -> Vec<(String, String)> {
            json.get(key)
                .and_then(Value::as_seq)
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f: &str| m.get(f).and_then(Value::as_str).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect()
        };
        let own = |table: &[(&str, &str)]| -> Vec<(String, String)> {
            table.iter().map(|&(n, u)| (n.to_string(), u.to_string())).collect()
        };
        assert_eq!(names("end_to_end"), own(END_TO_END));
        assert_eq!(names("per_layer"), own(layers::PER_LAYER));
        let workloads: Vec<String> = json
            .get("workloads")
            .and_then(Value::as_seq)
            .unwrap()
            .iter()
            .map(|w| w.get("name").and_then(Value::as_str).unwrap().to_string())
            .collect();
        assert_eq!(workloads, Workload::ALL.map(|w| w.to_string()));
    }
}
