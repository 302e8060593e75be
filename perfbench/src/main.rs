//! The repository benchmark: drives the Buddy Compression reproduction
//! through its public API on three workloads and prints one JSON result.
//!
//! ```text
//! perfbench --workload <dl-train|tenant-churn|repro-sim>
//!           --seed <n> --seconds <s> --trace <0|1> [--bless-reference]
//! ```
//!
//! See `README.md` beside this package for what each workload and metric
//! is for and how to read a traced run.

mod adapter;
mod check;
mod churn;
mod closed;
mod ops;
mod report;
mod repro;
mod span;
mod stats;

use report::{Report, END_TO_END, PER_LAYER};
use std::fmt::Write as _;
use std::process::ExitCode;

const WORKLOADS: [&str; 3] = ["dl-train", "tenant-churn", "repro-sim"];
/// Client run-queue wait above this share of wall time means the host's
/// scheduler, not the program, set the timings.
const SCHEDULER_BOUND: f64 = 0.2;

pub struct Args {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    /// Rewrite the `repro-sim` reference from this run instead of checking.
    pub bless: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut args = Args {
        workload: String::new(),
        seed: 1,
        seconds: 10.0,
        trace: false,
        bless: false,
    };
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || it.next().ok_or(format!("{flag} needs a value"));
        match flag.as_str() {
            "--workload" => args.workload = value()?,
            "--seed" => args.seed = value()?.parse().map_err(|e| format!("--seed: {e}"))?,
            "--seconds" => {
                args.seconds = value()?.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(args.seconds > 0.0 && args.seconds <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
            }
            "--trace" => {
                args.trace = match value()?.as_str() {
                    "0" => false,
                    "1" => true,
                    other => return Err(format!("--trace takes 0 or 1, not {other}")),
                }
            }
            "--bless-reference" => args.bless = true,
            other => return Err(format!("unknown argument {other}")),
        }
    }
    if !WORKLOADS.contains(&args.workload.as_str()) {
        return Err(format!(
            "--workload must be one of {}",
            WORKLOADS.join(", ")
        ));
    }
    Ok(args)
}

/// The git revision of the checkout, if it is a git work tree.
fn git_revision() -> String {
    let git = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("../.git");
    let head = std::fs::read_to_string(git.join("HEAD")).unwrap_or_default();
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(git.join(r))
            .map(|s| s.trim().to_string())
            .unwrap_or_else(|_| r.to_string()),
        None if !head.is_empty() => head.to_string(),
        None => "none".into(),
    }
}

/// Milliseconds a fixed integer loop takes: the host's speed at that
/// moment, printed with the fingerprint so that a slow spell of a shared
/// host shows beside the timings it slowed.
fn host_probe_ms() -> f64 {
    let t = std::time::Instant::now();
    let mut x = 0x9E37_79B9_7F4A_7C15u64;
    for _ in 0..20_000_000 {
        x = x.rotate_left(5) ^ x.wrapping_mul(0x2545_F491_4F6C_DD1D);
    }
    std::hint::black_box(x);
    t.elapsed().as_secs_f64() * 1e3
}

fn fingerprint(args: &Args, rep: &Report, probe_ms: [f64; 2]) -> String {
    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let load = std::fs::read_to_string("/proc/loadavg").unwrap_or_default();
    let load: Vec<&str> = load.split_whitespace().take(3).collect();
    format!(
        "{{\"workload\":\"{}\",\"seed\":{},\"seconds\":{},\"trace\":{},\"nproc\":{nproc},\
         \"rustc\":\"{}\",\"git\":\"{}\",\"features\":\"default\",\"loadavg\":\"{}\",\
         \"host_probe_ms\":[{:.1},{:.1}],\"runqueue_wait_frac\":{:.4},\"scheduler_bound\":{}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        env!("PERFBENCH_RUSTC"),
        git_revision(),
        load.join(" "),
        probe_ms[0],
        probe_ms[1],
        rep.runqueue_wait_frac,
        rep.runqueue_wait_frac > SCHEDULER_BOUND
    )
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::from(2);
        }
    };
    let probe_start = host_probe_ms();
    let mut rep = match args.workload.as_str() {
        "dl-train" => closed::run(&closed::DL_TRAIN, &args),
        "tenant-churn" => churn::run(&args),
        _ => repro::run(&args),
    };
    rep.set("peak_rss_mb", report::peak_rss_mb());
    let key = format!("{}-seed{}-s{}", args.workload, args.seed, args.seconds);
    if !args.bless {
        rep.check("determinism guard", check::guard(&key, &rep.counts));
    }
    rep.set(
        "error_rate",
        rep.failed as f64 / rep.attempted.max(1) as f64,
    );

    let probe = [probe_start, host_probe_ms()];
    println!("fingerprint {}", fingerprint(&args, &rep, probe));
    if rep.runqueue_wait_frac > SCHEDULER_BOUND {
        println!(
            "flag: {} is scheduler-bound: clients waited {:.1}% of wall time for a CPU",
            args.workload,
            100.0 * rep.runqueue_wait_frac
        );
    }
    for d in &rep.details {
        println!("detail {d}");
    }
    for (k, v) in &rep.counts {
        println!("count {k} {v}");
    }
    if args.trace && !rep.traces.is_empty() {
        let threads: Vec<(&str, &span::Tracer)> =
            rep.traces.iter().map(|(l, t)| (l.as_str(), t)).collect();
        let path = check::runs_dir().join(format!("{key}.trace.json"));
        let written = std::fs::create_dir_all(check::runs_dir())
            .and_then(|()| std::fs::write(&path, span::chrome_json(&threads)));
        match written {
            Ok(()) => println!("trace {}", path.display()),
            Err(e) => rep.fail(1, format!("cannot write {}: {e}", path.display())),
        }
    }
    for f in &rep.failures {
        println!("FAILED {f}");
    }

    let table = if args.trace { PER_LAYER } else { END_TO_END };
    let mut metrics = String::new();
    let mut missing = Vec::new();
    for (name, unit) in table {
        let value = match rep.metrics.get(name) {
            Some(v) if v.is_finite() => *v,
            _ => {
                missing.push(*name);
                0.0
            }
        };
        if args.trace {
            println!("layer {name} {value} {unit}");
        }
        let sep = if metrics.is_empty() { "" } else { "," };
        let _ = write!(
            metrics,
            "{sep}\"{name}\":{{\"value\":{value},\"unit\":\"{unit}\"}}"
        );
    }
    for name in &missing {
        rep.fail(1, format!("metric {name} was not measured"));
        println!("FAILED metric {name} was not measured");
    }
    let correct = rep.failed == 0;
    println!(
        "{{\"correct\":{correct},\"attempted\":{},\"failed\":{},\"metrics\":{{{metrics}}}}}",
        rep.attempted.max(1),
        rep.failed
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
