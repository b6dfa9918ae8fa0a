//! `gxbench`: see `README.md` next to this crate's manifest.
//!
//! ```text
//! gxbench --workload <name> --seed <n> --seconds <s> --trace <0|1|all> [--out <dir>] [--smoke]
//! gxbench run [--seed <n>] [--seconds <s>] [--out <dir>] [--smoke]
//! gxbench compare <a> <b>      (each a result.json or a directory of runs)
//! ```

use gx_benchmark::alloc::CountingAlloc;
use gx_benchmark::compare::{compare, load_set};
use gx_benchmark::host;
use gx_benchmark::json::Json;
use gx_benchmark::report::{crashed, detail_line, document, result_line, shape_guards};
use gx_benchmark::run::{run, RunArgs};
use gx_benchmark::spec::{spec, workload, Workload, DEFAULT_SEED, WORKLOADS};
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};
use std::time::Instant;

#[global_allocator]
static ALLOCATOR: CountingAlloc = CountingAlloc;

const USAGE: &str = "usage:
  gxbench --workload <name> --seed <n> --seconds <s> --trace <0|1|all> [--out <dir>] [--smoke]
  gxbench run [--seed <n>] [--seconds <s>] [--out <dir>] [--smoke]
  gxbench compare <a> <b>      (each a result.json or a directory of runs)";

/// Options shared by the single-workload form and `run`.
struct Options {
    workload: Option<&'static Workload>,
    seed: u64,
    seconds: Option<f64>,
    timed: bool,
    traced: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn parse_options(args: &[String]) -> Result<Options, String> {
    let mut opts = Options {
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        timed: true,
        traced: true,
        smoke: false,
        out: None,
    };
    let mut it = args.iter();
    while let Some(flag) = it.next() {
        if flag == "--smoke" {
            opts.smoke = true;
            continue;
        }
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        let bad = || format!("bad value {value:?} for {flag}");
        match flag.as_str() {
            "--workload" => opts.workload = Some(workload(value).ok_or_else(bad)?),
            "--seed" => opts.seed = value.parse().map_err(|_| bad())?,
            "--seconds" => {
                let seconds: f64 = value.parse().map_err(|_| bad())?;
                if !(seconds > 0.0 && seconds <= 600.0) {
                    return Err(bad());
                }
                opts.seconds = Some(seconds);
            }
            "--trace" => {
                (opts.timed, opts.traced) = match value.as_str() {
                    "0" => (true, false),
                    "1" => (false, true),
                    "all" => (true, true),
                    _ => return Err(bad()),
                }
            }
            "--out" => opts.out = Some(PathBuf::from(value)),
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(opts)
}

/// The single-workload form: the command of `BENCHMARK.json`, and the
/// child process `run` starts per workload.
fn single(opts: &Options, workload: &'static Workload) -> ExitCode {
    let args = RunArgs {
        workload,
        seed: opts.seed,
        seconds: opts.seconds.unwrap_or(spec().run_seconds),
        timed: opts.timed,
        traced: opts.traced,
        smoke: opts.smoke,
        out: opts.out.clone(),
    };
    let outcome = run(&args);
    for problem in &outcome.problems {
        eprintln!("gxbench: {}: FAILED CHECK: {problem}", workload.name);
    }
    println!("{}", detail_line(&args, &outcome));
    println!("{}", result_line(&outcome));
    if outcome.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

/// Runs every workload in its own sequential child process (so set-up
/// time and peak RSS are per workload and no heap state leaks from one
/// into the next) and prints the one result document.
fn run_all(opts: &Options) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("gxbench: cannot find my own executable: {e}");
            return ExitCode::FAILURE;
        }
    };
    let seconds = opts.seconds.unwrap_or(spec().run_seconds);
    let mut entries = Vec::new();
    for w in &WORKLOADS {
        let started = Instant::now();
        let mut child = Command::new(&exe);
        child
            .args(["--workload", w.name, "--trace", "all"])
            .args(["--seed", &opts.seed.to_string()])
            .args(["--seconds", &seconds.to_string()])
            .stdout(Stdio::piped());
        if opts.smoke {
            child.arg("--smoke");
        }
        if let Some(out) = &opts.out {
            child.arg("--out").arg(out);
        }
        // `output` waits for the child, so none outlives this loop.
        let entry = match child.output() {
            Err(e) => crashed(w, &format!("cannot start: {e}")),
            Ok(output) => {
                let stdout = String::from_utf8_lossy(&output.stdout);
                let detail = stdout
                    .lines()
                    .rev()
                    .nth(1)
                    .and_then(|line| Json::parse(line).ok())
                    .and_then(|doc| doc.get("gxbench_detail").cloned());
                match detail {
                    Some(Json::Obj(mut fields)) => {
                        let child_s = started.elapsed().as_secs_f64();
                        fields.insert(2, ("child_s".to_string(), Json::Num(child_s)));
                        Json::Obj(fields)
                    }
                    _ => crashed(w, &format!("{} without a result", output.status)),
                }
            }
        };
        eprintln!(
            "gxbench: {} done in {:.1} s",
            w.name,
            started.elapsed().as_secs_f64()
        );
        entries.push(entry);
    }
    // Tiny smoke inputs say nothing about where time goes.
    let guards = if opts.smoke {
        Vec::new()
    } else {
        shape_guards(&entries)
    };
    for g in guards.iter().filter(|g| !g.ok) {
        eprintln!(
            "gxbench: SHAPE GUARD FAILED: {} (measured {})",
            g.rule, g.measured
        );
    }
    let doc = document(
        opts.seed,
        seconds,
        opts.smoke,
        host::descriptor(),
        entries,
        &guards,
    );
    println!("{doc}");
    if let Some(out) = &opts.out {
        let path = out.join("result.json");
        if let Err(e) =
            std::fs::create_dir_all(out).and_then(|()| std::fs::write(&path, doc.pretty()))
        {
            eprintln!("gxbench: cannot write {}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    if doc.get("ok") == Some(&Json::Bool(true)) {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn compare_sets(a: &str, b: &str) -> ExitCode {
    let load = |path: &str| load_set(Path::new(path));
    match load(a).and_then(|da| load(b).and_then(|db| compare(&da, &db))) {
        Ok(comparison) => {
            print!("{}", comparison.render());
            if comparison.regressed() {
                ExitCode::FAILURE
            } else {
                ExitCode::SUCCESS
            }
        }
        Err(e) => {
            eprintln!("gxbench compare: {e}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let usage = |problem: String| {
        eprintln!("gxbench: {problem}\n{USAGE}");
        ExitCode::from(2)
    };
    match args.first().map(String::as_str) {
        Some("compare") => match &args[1..] {
            [a, b] => compare_sets(a, b),
            _ => usage("compare takes two sets of result documents".into()),
        },
        Some("run") => match parse_options(&args[1..]) {
            Ok(opts) if opts.workload.is_none() => run_all(&opts),
            Ok(_) => usage("run measures every workload; drop --workload".into()),
            Err(e) => usage(e),
        },
        _ => match parse_options(&args) {
            Ok(opts) => match opts.workload {
                Some(w) => single(&opts, w),
                None => usage("--workload is required".into()),
            },
            Err(e) => usage(e),
        },
    }
}
