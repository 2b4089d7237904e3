//! End-to-end and per-layer benchmark of the pga-serve job server and of
//! the research engines behind it. Workloads, metrics and the layer map
//! are described in `README.md` next to this package.
//!
//! ```sh
//! cargo run --release --manifest-path examples/benchmark/Cargo.toml -- \
//!     --workload serve-small --seed 1 --seconds 20 --trace 0
//! ```
//!
//! One run prints a host stamp, one JSON line per metric it measured, and
//! last a result object: `correct`, `attempted`, `failed`, and the
//! end-to-end metrics of `BENCHMARK.json` (or, with `--trace 1`, its
//! per-layer metrics). Without `--workload` every workload runs, each in
//! its own child process; `--calibrate N` runs each N times and prints
//! the spread of every end-to-end metric.

mod replay;
mod report;
mod serve_load;
mod solve;
mod stats;
mod trace;
mod workload;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::Duration;

use pga_serve::protocol::Json;

use report::{metric_line, Measured, Phases, RunOpts};
use stats::Sample;
use workload::Workload;

/// The benchmark's definition: its workloads, run length, and metrics.
const DEFINITION: &str = include_str!("../../../BENCHMARK.json");

/// Load before the measured window that is not measured.
const WARMUP: Duration = Duration::from_secs(1);

struct Definition {
    workloads: Vec<Workload>,
    run_seconds: u64,
    /// (name, unit) of the metrics an untraced run reports.
    end_to_end: Vec<(String, String)>,
    /// (name, unit) of the metrics a traced run reports.
    per_layer: Vec<(String, String)>,
}

fn definition() -> Result<Definition, String> {
    let doc = Json::parse(DEFINITION).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let items = |key: &str| match doc.get(key) {
        Some(Json::Arr(items)) => Ok(items.as_slice()),
        _ => Err(format!("BENCHMARK.json: `{key}` is not a list")),
    };
    let field = |item: &Json, key: &str| {
        item.get(key)
            .and_then(Json::as_str)
            .map(str::to_string)
            .ok_or_else(|| format!("BENCHMARK.json: an entry has no `{key}`"))
    };
    let metrics = |key: &str| -> Result<Vec<(String, String)>, String> {
        items(key)?
            .iter()
            .map(|m| Ok((field(m, "name")?, field(m, "unit")?)))
            .collect()
    };
    let workloads = items("workloads")?
        .iter()
        .map(|w| {
            let name = field(w, "name")?;
            Workload::from_name(&name).ok_or_else(|| format!("unknown workload `{name}`"))
        })
        .collect::<Result<_, String>>()?;
    Ok(Definition {
        workloads,
        run_seconds: doc
            .get("run_seconds")
            .and_then(Json::as_u64)
            .ok_or("BENCHMARK.json: no `run_seconds`")?,
        end_to_end: metrics("end_to_end")?,
        per_layer: metrics("per_layer")?,
    })
}

struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    calibrate: Option<usize>,
}

fn parse_args(def: &Definition) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: def.run_seconds,
        trace: false,
        calibrate: None,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("{flag}: not a number: {value}"))
        };
        match flag.as_str() {
            "--workload" => {
                let w = Workload::from_name(&value)
                    .ok_or_else(|| format!("unknown workload `{value}`"))?;
                args.workload = Some(w);
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?.max(1),
            "--trace" => match value.as_str() {
                "0" => args.trace = false,
                "1" => args.trace = true,
                _ => return Err(format!("--trace takes 0 or 1, not {value}")),
            },
            "--calibrate" => args.calibrate = Some(number()?.max(2) as usize),
            _ => return Err(format!("unknown flag {flag}")),
        }
    }
    Ok(args)
}

/// Where runs keep their spools and traced runs write their spans.
fn work_dir() -> PathBuf {
    std::env::var_os("CARGO_TARGET_DIR")
        .map_or_else(|| PathBuf::from("target"), PathBuf::from)
        .join("benchmark")
}

fn git_head() -> String {
    Command::new("git")
        .args(["rev-parse", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or_else(
            || "unknown".into(),
            |o| String::from_utf8_lossy(&o.stdout).trim().to_string(),
        )
}

/// The file-system type `path` lives on (the spool's medium).
fn fs_type(path: &Path) -> String {
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    let mounts = std::fs::read_to_string("/proc/self/mounts").unwrap_or_default();
    mounts
        .lines()
        .filter_map(|l| {
            let mut f = l.split_whitespace();
            let (point, kind) = (f.nth(1)?, f.next()?);
            path.starts_with(point)
                .then(|| (point.len(), kind.to_string()))
        })
        .max()
        .map_or_else(|| "unknown".into(), |(_, kind)| kind)
}

fn host_line(run_dir: &Path) -> String {
    let cores = std::thread::available_parallelism().map_or(1, |n| n.get());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    Json::Obj(vec![(
        "host".into(),
        Json::Obj(vec![
            ("available_parallelism".into(), Json::Num(cores as f64)),
            ("profile".into(), Json::Str(profile.into())),
            ("commit".into(), Json::Str(git_head())),
            ("spool_medium".into(), Json::Str(fs_type(run_dir))),
        ]),
    )])
    .to_json_string()
}

/// Runs one workload in this process and prints its result.
fn run_workload(def: &Definition, workload: Workload, args: &Args) -> ExitCode {
    let window = Duration::from_secs(args.seconds);
    let phases = Phases {
        warmup: WARMUP,
        reference: if args.trace {
            window / 3
        } else {
            Duration::ZERO
        },
        window,
    };
    let run_dir = work_dir().join(format!("run-{}-{}", workload.name(), std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&run_dir) {
        eprintln!("benchmark: {}: {e}", run_dir.display());
        return ExitCode::FAILURE;
    }
    println!("{}", host_line(&run_dir));
    let opts = RunOpts {
        seed: args.seed,
        trace: args.trace,
        phases,
        run_dir,
    };
    let result = match workload {
        Workload::ServeSmall | Workload::ServeHeavy => serve_load::closed_loop(workload, &opts),
        Workload::ServeMixed => serve_load::open_loop(&opts),
        Workload::Solve => solve::run(&opts),
    };
    let _ = std::fs::remove_dir_all(&opts.run_dir);
    let mut m = match result {
        Ok(m) => m,
        Err(e) => {
            eprintln!("benchmark: {}: {e}", workload.name());
            return ExitCode::FAILURE;
        }
    };
    if args.trace {
        let path = work_dir().join(format!("trace-{}.jsonl", workload.name()));
        match m.spans.write_jsonl(&path) {
            Ok(()) => eprintln!("benchmark: {} spans -> {}", m.spans.len(), path.display()),
            Err(e) => m.invalid.push(format!("writing {}: {e}", path.display())),
        }
    }
    let failed_frac = m.failed as f64 / m.attempted.max(1) as f64;
    m.add("failed_frac", failed_frac, "frac", m.attempted as usize);
    for metric in &m.metrics {
        println!("{}", metric_line(workload.name(), metric));
    }
    let result = result_object(def, &mut m, args.trace);
    for reason in &m.invalid {
        eprintln!("benchmark: invalid run: {reason}");
    }
    println!("{}", result.to_json_string());
    if m.failed == 0 && m.invalid.is_empty() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// The last output line. A per-layer metric off this workload's path
/// reads 0; a missing end-to-end metric makes the run invalid.
fn result_object(def: &Definition, m: &mut Measured, trace: bool) -> Json {
    let wanted = if trace {
        &def.per_layer
    } else {
        &def.end_to_end
    };
    let mut metrics = Vec::new();
    for (name, unit) in wanted {
        let value = match m.get(name) {
            Some(metric) if metric.unit == unit => metric.value,
            Some(metric) => panic!("{name} is measured in {}, defined in {unit}", metric.unit),
            None if trace => 0.0,
            None => {
                m.invalid.push(format!("{name} was not measured"));
                continue;
            }
        };
        let entry = Json::Obj(vec![
            ("value".into(), Json::Num(value)),
            ("unit".into(), Json::Str(unit.clone())),
        ]);
        metrics.push((name.clone(), entry));
    }
    let correct = m.failed == 0 && m.invalid.is_empty();
    Json::Obj(vec![
        ("correct".into(), Json::Bool(correct)),
        ("attempted".into(), Json::Num(m.attempted as f64)),
        ("failed".into(), Json::Num(m.failed as f64)),
        ("metrics".into(), Json::Obj(metrics)),
    ])
}

/// Runs `workload` in a child process; returns its stdout, or why it failed.
fn child(workload: Workload, seed: u64, seconds: u64, trace: bool) -> Result<String, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = Command::new(exe)
        .args(["--workload", workload.name()])
        .args(["--seed", &seed.to_string()])
        .args(["--seconds", &seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }])
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout).into_owned();
    if output.status.success() {
        Ok(stdout)
    } else {
        print!("{stdout}");
        Err(format!(
            "{} seed {seed} exited with {}",
            workload.name(),
            output.status
        ))
    }
}

/// Runs each workload `runs` times untraced, on consecutive seeds, and
/// prints per end-to-end metric the median, quartiles, and spreads.
fn calibrate(
    def: &Definition,
    workloads: &[Workload],
    runs: usize,
    args: &Args,
) -> Result<(), String> {
    for &workload in workloads {
        let mut values: Vec<Vec<f64>> = vec![Vec::new(); def.end_to_end.len()];
        for i in 0..runs {
            let stdout = child(workload, args.seed + i as u64, args.seconds, false)?;
            let last = stdout.lines().last().unwrap_or_default();
            let result = Json::parse(last).map_err(|e| format!("bad result line: {e}"))?;
            for ((name, _), values) in def.end_to_end.iter().zip(&mut values) {
                let value = result
                    .get("metrics")
                    .and_then(|ms| ms.get(name)?.get("value")?.as_f64())
                    .ok_or_else(|| format!("{} reported no {name}", workload.name()))?;
                values.push(value);
            }
        }
        for ((name, unit), values) in def.end_to_end.iter().zip(values) {
            let runs_json = Json::Arr(values.iter().map(|&v| Json::Num(v)).collect());
            let sample = Sample::new(values);
            let (median, (q1, q3)) = match (sample.median(), sample.quartiles()) {
                (Some(median), Some(quartiles)) => (median, quartiles),
                _ => continue,
            };
            let (min, max) = (sample.min().unwrap_or(0.0), sample.max().unwrap_or(0.0));
            let line = Json::Obj(vec![
                ("calibrate".into(), Json::Str(workload.name().into())),
                ("metric".into(), Json::Str(name.clone())),
                ("unit".into(), Json::Str(unit.clone())),
                ("runs".into(), Json::Num(runs as f64)),
                ("median".into(), Json::Num(median)),
                ("q1".into(), Json::Num(q1)),
                ("q3".into(), Json::Num(q3)),
                ("iqr_frac".into(), Json::Num((q3 - q1) / median)),
                ("range_frac".into(), Json::Num((max - min) / median)),
                ("values".into(), runs_json),
            ]);
            println!("{}", line.to_json_string());
        }
    }
    Ok(())
}

fn main() -> ExitCode {
    let (args, def) = match definition().and_then(|def| Ok((parse_args(&def)?, def))) {
        Ok(parsed) => parsed,
        Err(e) => {
            eprintln!("benchmark: {e}");
            return ExitCode::from(2);
        }
    };
    let workloads = args
        .workload
        .map_or_else(|| def.workloads.clone(), |w| vec![w]);
    if let Some(runs) = args.calibrate {
        return match calibrate(&def, &workloads, runs, &args) {
            Ok(()) => ExitCode::SUCCESS,
            Err(e) => {
                eprintln!("benchmark: {e}");
                ExitCode::FAILURE
            }
        };
    }
    if let Some(workload) = args.workload {
        return run_workload(&def, workload, &args);
    }
    let mut code = ExitCode::SUCCESS;
    for workload in workloads {
        match child(workload, args.seed, args.seconds, args.trace) {
            Ok(stdout) => print!("{stdout}"),
            Err(e) => {
                eprintln!("benchmark: {e}");
                code = ExitCode::FAILURE;
            }
        }
    }
    code
}
