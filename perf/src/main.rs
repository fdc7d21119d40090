//! The standing benchmark: five workloads, eight end-to-end metrics, a
//! five-height layer ladder. See `README.md` beside `Cargo.toml`.

mod compare;
mod gen;
mod json;
mod report;
mod restart;
mod run;
mod stack;
mod stats;
mod trace;
mod workload;

use std::process::ExitCode;

use json::Json;
use workload::{Request, Workload};

const USAGE: &str = "\
usage: perf [--workload NAME]... [--seed N] [--seconds S] [--trace [0|1]]
            [--repeat N] [--json PATH] [--inject-lost-commit]
       perf --list
       perf compare A.json B.json

Runs every workload (or each --workload named) once per --repeat, prints
`workload metric value unit` lines and, last, one JSON result line per run.
--trace replays the workload at every height of the stack and prints the
per-layer metrics instead of the end-to-end ones. --json writes every run of
the invocation to PATH, the input of `perf compare`. Exits 1 if any op
failed, any expectation was missed or any metric was not produced.";

struct Options {
    workloads: Vec<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    json: Option<String>,
    lose_a_commit: bool,
}

fn number<T: std::str::FromStr>(flag: &str, s: &str) -> Result<T, String> {
    s.parse()
        .map_err(|_| format!("{flag}: `{s}` is not a number"))
}

fn parse(args: &[String]) -> Result<Options, String> {
    let mut o = Options {
        workloads: Vec::new(),
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: 1,
        json: None,
        lose_a_commit: false,
    };
    let mut args = args.iter().peekable();
    while let Some(flag) = args.next() {
        let mut value = |what: &str| args.next().ok_or(format!("{flag} needs {what}"));
        match flag.as_str() {
            "--workload" => {
                let name = value("a workload name")?;
                let w = Workload::from_name(name).ok_or(format!("no workload `{name}`"))?;
                o.workloads.push(w);
            }
            "--seed" => o.seed = number(flag, value("a number")?)?,
            "--seconds" => o.seconds = number(flag, value("a number")?)?,
            "--repeat" => o.repeat = number(flag, value("a number")?)?,
            "--json" => o.json = Some(value("a path")?.clone()),
            "--inject-lost-commit" => o.lose_a_commit = true,
            // `--trace` alone, or the driver's `--trace 0` / `--trace 1`.
            "--trace" => {
                o.trace = match args.peek().map(|s| s.as_str()) {
                    Some("0") => false,
                    Some("1") => true,
                    _ => {
                        o.trace = true;
                        continue;
                    }
                };
                args.next();
            }
            other => return Err(format!("unknown argument `{other}`")),
        }
    }
    if o.seconds == 0 || o.seconds > 60 || o.repeat == 0 {
        return Err("--seconds must be 1..=60 and --repeat at least 1".into());
    }
    if o.workloads.is_empty() {
        o.workloads = Workload::ALL.to_vec();
    }
    Ok(o)
}

fn run_all(o: &Options) -> Result<bool, String> {
    let mut runs = Vec::new();
    for &workload in &o.workloads {
        for _ in 0..o.repeat {
            let run = workload::run(&Request {
                workload,
                seed: o.seed,
                seconds: o.seconds,
                trace: o.trace,
                scale: 1,
                lose_a_commit: o.lose_a_commit,
            });
            print!("{}", run.lines());
            for name in run.missing() {
                eprintln!("{}: metric {name} was not produced", run.workload);
            }
            println!("{}", run.contract_line());
            runs.push(run);
        }
    }
    if let Some(path) = &o.json {
        std::fs::write(path, report::document(&runs)).map_err(|e| format!("{path}: {e}"))?;
    }
    Ok(runs.iter().all(report::Run::correct))
}

fn load(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let outcome = match args.iter().map(String::as_str).collect::<Vec<_>>()[..] {
        ["--list"] => {
            for w in Workload::ALL {
                println!("{:<16} {}", w.name(), w.why());
            }
            Ok(true)
        }
        ["compare", a, b] => load(a).and_then(|a| {
            let (table, any_worse) = compare::compare(&a, &load(b)?)?;
            print!("{table}");
            Ok(!any_worse)
        }),
        ["compare", ..] | ["--help"] | ["-h"] => Err(USAGE.to_string()),
        _ => parse(&args).and_then(|o| run_all(&o)),
    };
    match outcome {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(message) => {
            eprintln!("{message}");
            ExitCode::from(2)
        }
    }
}
