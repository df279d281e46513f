//! The `ledger` command.
//!
//! With `--workload` it measures that one workload in this process and
//! ends with the one-line JSON result (the form the benchmark driver
//! calls). Without it, it runs every workload — one child process each, so
//! `peak_rss_mb` is a workload's own — prints the ledger and writes
//! `benchmark/out/result.json`.

use ledger::host::Quartiles;
use ledger::json::{self, Json};
use ledger::measure::{end_to_end, timed_reps, traced, Effort, SetupBatches};
use ledger::metrics::{MetricDef, BOUNDS, END_TO_END, PER_LAYER};
use ledger::report::result_line;
use ledger::workloads::{verify, Kind, Load};
use std::path::PathBuf;
use std::process::{Command, ExitCode};
use std::time::Duration;

const USAGE: &str = "usage: ledger [--workload <name>] [--seed <u64>] [--seconds <n>] \
                     [--trace <0|1>] [--repeat <k>] [--quick]";

struct Args {
    workload: Option<Kind>,
    seed: u64,
    seconds: u64,
    trace: bool,
    repeat: usize,
    quick: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: 10,
        trace: false,
        repeat: 1,
        quick: false,
    };
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        if flag == "--quick" {
            args.quick = true;
            continue;
        }
        let value = argv
            .next()
            .ok_or_else(|| format!("`{flag}` needs a value"))?;
        let number = || {
            value
                .parse::<u64>()
                .map_err(|_| format!("`{flag} {value}`: not a number"))
        };
        match flag.as_str() {
            "--workload" => {
                args.workload = Some(
                    Kind::from_name(&value).ok_or_else(|| format!("unknown workload `{value}`"))?,
                )
            }
            "--seed" => args.seed = number()?,
            "--seconds" => args.seconds = number()?,
            "--trace" => args.trace = number()? != 0,
            "--repeat" => args.repeat = number()?.max(1) as usize,
            _ => return Err(format!("unknown flag `{flag}`")),
        }
    }
    Ok(args)
}

fn out_dir() -> PathBuf {
    let dir = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("out");
    std::fs::create_dir_all(&dir).expect("benchmark/out is creatable");
    dir
}

fn print_metrics(defs: &[MetricDef], values: &ledger::measure::Values) {
    for def in defs {
        if let Some(v) = values.get(def.name) {
            println!("  {:<32} {:>16.4} {}", def.name, v, def.unit);
        }
    }
}

/// Measures one workload in this process.
fn run_one(kind: Kind, args: &Args) {
    let shrink = if args.quick { 8 } else { 1 };
    let effort = Effort {
        budget: Duration::from_secs(if args.quick { 0 } else { args.seconds }),
        min_reps: if args.trace { 3 } else { 5 },
    };
    println!(
        "workload {} seed {} trace {}",
        kind.name(),
        args.seed,
        args.trace as u8
    );
    let load = Load::generate(kind, args.seed, shrink);
    let verdict = verify(&load, args.trace);
    println!(
        "  verified: {} offered, {} transmitted, {} dropped, {} failed",
        verdict.books.offered,
        verdict.books.transmitted,
        verdict.books.drops.total(),
        verdict.failed
    );
    for finding in &verdict.findings {
        println!("  FAILED {finding}");
    }

    let line = if !args.trace {
        let mut setups = SetupBatches::probe(&load);
        let timed = timed_reps(&load, &verdict, effort, &mut setups);
        let setup = setups.quartiles();
        let values = end_to_end(&load, &timed, &setup);
        print_metrics(&END_TO_END, &values);
        let show = |what: &str, q: Quartiles, unit: &str| {
            println!(
                "  {what:<32} median {:.4} q1 {:.4} q3 {:.4} n {} ({unit})",
                q.median, q.q1, q.q3, q.n
            );
        };
        show("rep time, normalised", timed.norm_ns(), "ns");
        show("rep time, raw", timed.raw_ns(), "ns");
        show("set-up, normalised", setup, "s");
        let failed = verdict.failed + timed.failed_reps * load.offered;
        result_line(verdict.attempted, failed, &END_TO_END, &values)
    } else {
        let run = traced(&load, &verdict, effort);
        print_metrics(&PER_LAYER, &run.values);
        for finding in &run.findings {
            println!("  finding: {finding}");
        }
        let path = out_dir().join(format!("trace-{}.json", kind.name()));
        std::fs::write(&path, run.tracer.to_json(kind.name())).expect("the trace file is writable");
        println!("  {} spans -> {}", run.tracer.spans().len(), path.display());
        let failed = verdict.failed + run.failed_reps * load.offered;
        result_line(verdict.attempted, failed, &PER_LAYER, &run.values)
    };
    println!("{line}");
}

/// One child run's result line, parsed.
struct ChildResult {
    kind: Kind,
    trace: bool,
    set: usize,
    line: String,
    doc: Json,
}

impl ChildResult {
    fn metric(&self, name: &str) -> f64 {
        self.doc
            .get("metrics")
            .and_then(|m| m.get(name))
            .and_then(|m| m.get("value"))
            .and_then(Json::as_f64)
            .unwrap_or(f64::NAN)
    }

    fn correct(&self) -> bool {
        self.doc.get("correct").and_then(Json::as_bool) == Some(true)
    }
}

/// Runs one workload in a child process and waits for it.
fn spawn(kind: Kind, trace: bool, set: usize, args: &Args) -> Result<ChildResult, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut cmd = Command::new(exe);
    cmd.args(["--workload", kind.name()])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if trace { "1" } else { "0" }]);
    if args.quick {
        cmd.arg("--quick");
    }
    let output = cmd.output().map_err(|e| e.to_string())?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    print!("{stdout}");
    if !output.status.success() {
        return Err(format!(
            "{} exited with {}: {}",
            kind.name(),
            output.status,
            String::from_utf8_lossy(&output.stderr)
        ));
    }
    let line = stdout.lines().last().unwrap_or_default().to_string();
    let doc = json::parse(&line).map_err(|e| format!("{}: {e}", kind.name()))?;
    Ok(ChildResult {
        kind,
        trace,
        set,
        line,
        doc,
    })
}

/// Runs every workload (`--repeat` times), prints the ledger, writes
/// `out/result.json`, and checks the repeatability bounds.
fn run_all(args: &Args) -> Result<bool, String> {
    let mut results = Vec::new();
    for set in 0..args.repeat {
        for kind in Kind::ALL {
            results.push(spawn(kind, false, set, args)?);
            // The layer decomposition does not enter the repeatability
            // check, so one traced set is enough; smoke runs skip it.
            if set == 0 && !args.quick {
                results.push(spawn(kind, true, set, args)?);
            }
        }
    }
    let mut ok = results.iter().all(ChildResult::correct);

    println!("\n== ledger (seed {}) ==", args.seed);
    for kind in Kind::ALL {
        let of = |trace| {
            results
                .iter()
                .find(move |r| r.kind == kind && r.trace == trace && r.set == 0)
        };
        if let Some(r) = of(false) {
            println!(
                "{:<17} {:>12.0} pkt/s (normalised)  set-up {:.4} s  peak RSS {:.1} MiB{}",
                kind.name(),
                r.metric("norm_pkts_per_s"),
                r.metric("setup_s"),
                r.metric("peak_rss_mb"),
                if r.correct() { "" } else { "  INCORRECT" }
            );
        }
        if let Some(r) = of(true) {
            println!(
                "{:<17} {:>12.0} ns/pkt end to end, {:+.1}% unattributed, tracing costs {:+.1}%",
                "",
                r.metric("switch.e2e_ns"),
                100.0 * r.metric("switch.unattributed_share"),
                100.0 * r.metric("trace.overhead_share"),
            );
        }
    }

    if args.repeat > 1 {
        println!("\n== repeatability over {} sets ==", args.repeat);
        for kind in Kind::ALL {
            for (def, bound) in END_TO_END.iter().zip(BOUNDS) {
                let values: Vec<f64> = results
                    .iter()
                    .filter(|r| r.kind == kind && !r.trace)
                    .map(|r| r.metric(def.name))
                    .collect();
                let q = Quartiles::of(&values);
                let (lo, hi) = values
                    .iter()
                    .fold((f64::MAX, f64::MIN), |(lo, hi), v| (lo.min(*v), hi.max(*v)));
                let spread = (hi - lo) / q.median;
                let within = spread <= bound;
                ok &= within;
                println!(
                    "{:<17} {:<16} spread {:.4} bound {:.2} {}",
                    kind.name(),
                    def.name,
                    spread,
                    bound,
                    if within { "ok" } else { "EXCEEDED" }
                );
            }
        }
    }

    let runs: Vec<String> = results
        .iter()
        .map(|r| {
            format!(
                "{{\"workload\":\"{}\",\"trace\":{},\"set\":{},\"result\":{}}}",
                r.kind.name(),
                r.trace as u8,
                r.set,
                r.line
            )
        })
        .collect();
    let path = out_dir().join("result.json");
    let doc = format!(
        "{{\"seed\":{},\"seconds\":{},\"quick\":{},\"runs\":[\n{}\n]}}\n",
        args.seed,
        args.seconds,
        args.quick,
        runs.join(",\n")
    );
    std::fs::write(&path, doc).map_err(|e| e.to_string())?;
    println!("\nwrote {}", path.display());
    Ok(ok)
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("{e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match args.workload {
        // The driver reads `correct` from the result line; a run that
        // measured and reported has done its job, so it exits 0.
        Some(kind) => {
            run_one(kind, &args);
            ExitCode::SUCCESS
        }
        None => match run_all(&args) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("verification or repeatability failed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        },
    }
}
