//! The repository's benchmark: three LinkBench-derived workloads run
//! against the system as users deploy it, the embedded `Db2Graph::run`
//! and the in-process `GraphServer`, with default options.
//!
//! ```text
//! perfbench --workload <lb_point|lb_2hop|rw_http|all> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the last stdout line is a JSON object carrying the
//! end-to-end metrics; with `--trace 1` it carries the per-layer metrics
//! of a traced run, whose spans are written under `.bench_out/`. The lines
//! before it record the inputs, the machine and the sample counts. A run
//! whose outputs were not all correct exits with code 1.
//! `--workload all` runs each workload in a child process of its own and
//! prints every metric by name with its unit.

mod common;
mod embedded;
mod rw_http;
mod spans;
mod stats;

use std::path::PathBuf;
use std::process::ExitCode;

use db2graph_core::json::Json;

use crate::common::Outcome;
use crate::spans::Recorder;

pub const WORKLOADS: [&str; 3] = ["lb_point", "lb_2hop", "rw_http"];

/// Directory (relative to the working directory) for span files and the
/// durable workload's data.
const OUT_DIR: &str = ".bench_out";

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Internal: time one set-up and exit (see `common::child_setups`).
    pub setup_only: bool,
}

impl Args {
    fn parse() -> Result<Args, String> {
        let mut args = Args {
            workload: String::new(),
            seed: 1,
            seconds: 10.0,
            trace: false,
            setup_only: false,
        };
        let mut it = std::env::args().skip(1);
        while let Some(flag) = it.next() {
            let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
            let bad = |e: &dyn std::fmt::Display| format!("{flag} {value}: {e}");
            match flag.as_str() {
                "--workload" => args.workload = value,
                "--seed" => args.seed = value.parse().map_err(|e| bad(&e))?,
                "--seconds" => args.seconds = value.parse().map_err(|e| bad(&e))?,
                "--trace" => args.trace = value == "1",
                "--setup-only" => args.setup_only = value == "1",
                _ => return Err(format!("unknown flag {flag}")),
            }
        }
        if args.workload != "all" && !WORKLOADS.contains(&args.workload.as_str()) {
            return Err(format!("--workload must be one of {WORKLOADS:?} or all"));
        }
        if !(args.seconds > 0.0 && args.seconds <= 600.0) {
            return Err("--seconds must be in (0, 600]".into());
        }
        Ok(args)
    }

    /// Seconds of each closed-loop phase. An untraced run measures one
    /// phase of `--seconds`. A traced run splits `--seconds` into an
    /// untraced phase and a traced phase of 40 % each and the pool replay
    /// of 20 % (see [`Args::replay_seconds`]), so it takes no longer than
    /// an untraced run.
    pub fn phase_seconds(&self) -> f64 {
        if self.trace {
            self.seconds * 0.4
        } else {
            self.seconds
        }
    }

    pub fn replay_seconds(&self) -> f64 {
        self.seconds * 0.2
    }

    /// A path under the output directory named after this run, e.g.
    /// `.bench_out/lb_point-seed1-pid42-spans.jsonl`.
    pub fn out_path(&self, what: &str) -> PathBuf {
        let dir = PathBuf::from(OUT_DIR);
        std::fs::create_dir_all(&dir).expect("create output directory");
        dir.join(format!(
            "{}-seed{}-pid{}-{what}",
            self.workload,
            self.seed,
            std::process::id()
        ))
    }

    /// Write the traced run's spans; returns the path for the report.
    pub fn write_spans(&self, rec: &Recorder) -> Json {
        let path = self.out_path("spans.jsonl");
        rec.write_jsonl(&path).expect("write span file");
        Json::str(path.display().to_string())
    }
}

fn result_line(o: &Outcome) -> String {
    let metrics = o
        .metrics
        .iter()
        .map(|m| {
            (
                m.name.as_str(),
                Json::obj(vec![
                    ("value", Json::num(m.value)),
                    ("unit", Json::str(m.unit)),
                ]),
            )
        })
        .collect();
    Json::obj(vec![
        ("correct", Json::Bool(o.correct)),
        ("attempted", Json::u64(o.attempted)),
        ("failed", Json::u64(o.failed)),
        ("metrics", Json::obj(metrics)),
    ])
    .to_compact()
}

/// Run every workload in its own child process (so each reports its own
/// peak memory) and print each metric as `workload name value unit`.
fn run_all(args: &Args) -> ExitCode {
    let exe = std::env::current_exe().expect("own executable path");
    let mut ok = true;
    for w in WORKLOADS {
        let out = std::process::Command::new(&exe)
            .args(["--workload", w, "--seed", &args.seed.to_string()])
            .args([
                "--seconds",
                &args.seconds.to_string(),
                "--trace",
                if args.trace { "1" } else { "0" },
            ])
            .stderr(std::process::Stdio::inherit())
            .output()
            .expect("run workload child");
        let stdout = String::from_utf8_lossy(&out.stdout);
        let parsed = stdout.lines().last().and_then(|l| Json::parse(l).ok());
        let Some(result) = parsed.filter(|_| out.status.success()) else {
            eprintln!("{w}: failed ({})", out.status);
            ok = false;
            continue;
        };
        let get = |k| result.get(k).map_or(String::new(), Json::to_compact);
        println!(
            "{w} correct={} attempted={} failed={}",
            get("correct"),
            get("attempted"),
            get("failed")
        );
        for (name, m) in result
            .get("metrics")
            .and_then(Json::as_object)
            .unwrap_or(&[])
        {
            let value = m.get("value").and_then(Json::as_f64).unwrap_or(f64::NAN);
            let unit = m.get("unit").and_then(Json::as_str).unwrap_or("");
            println!("{w} {name} {value} {unit}");
        }
        ok &= result.get("correct").and_then(Json::as_bool) == Some(true);
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn main() -> ExitCode {
    let args = match Args::parse() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    if args.workload == "all" {
        return run_all(&args);
    }
    if args.setup_only {
        let t = match args.workload.as_str() {
            "rw_http" => rw_http::setup_only(&args),
            _ => embedded::setup_only(&args),
        };
        println!("{} {} {}", t.total_s, t.warm_s, t.steal_ticks);
        return ExitCode::SUCCESS;
    }
    let outcome = match args.workload.as_str() {
        "rw_http" => rw_http::run(&args),
        _ => embedded::run(&args),
    };
    println!("{}", Json::obj(outcome.info.clone()).to_compact());
    for m in &outcome.metrics {
        println!("{} {} {}", m.name, m.value, m.unit);
    }
    println!("{}", result_line(&outcome));
    if outcome.correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
