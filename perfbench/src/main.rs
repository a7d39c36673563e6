//! hsyn's benchmark: end-to-end and per-layer metrics over two seeded
//! workloads (`area_sweep`, `serve_mixed`).
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload area_sweep --seed 1 --seconds 10 --trace 0
//! ```
//!
//! With `--trace 0` it measures the end-to-end metrics; with `--trace 1`
//! it records spans around its own calls into each crate, probes each
//! final design of the first round, and reports the per-layer metrics.
//! Every job's output is checked (untimed) either way. The last line of
//! standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics`. Scratch files (daemon cache directories, the span dump)
//! go to `.bench_work/` under the working directory.

mod gate;
mod inproc;
mod jobs;
mod probe;
mod report;
mod served;
mod stats;
mod trace;

use std::path::{Path, PathBuf};
use std::process::ExitCode;

use jobs::Workload;
use report::{RunData, Value};

/// Parsed command line.
struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn usage() -> String {
    "usage: hsyn-perfbench --workload area_sweep|serve_mixed \
     --seed N --seconds S --trace 0|1"
        .to_owned()
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value\n{}", usage()))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(
                    Workload::parse(value)
                        .ok_or_else(|| format!("unknown workload `{value}`\n{}", usage()))?,
                );
            }
            "--seed" => seed = Some(value.parse::<u64>().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s = value
                    .parse::<f64>()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            _ => return Err(format!("unknown argument `{flag}`\n{}", usage())),
        }
    }
    Ok(Args {
        workload: workload.ok_or_else(usage)?,
        seed: seed.ok_or_else(usage)?,
        seconds: seconds.ok_or_else(usage)?,
        trace: trace.ok_or_else(usage)?,
    })
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn revision() -> String {
    let head = match std::fs::read_to_string(".git/HEAD") {
        Ok(h) => h.trim().to_owned(),
        Err(_) => return "unknown".to_owned(),
    };
    match head.strip_prefix("ref: ") {
        Some(r) => std::fs::read_to_string(Path::new(".git").join(r))
            .map(|s| s.trim().to_owned())
            .or_else(|_| packed_ref(r))
            .unwrap_or_else(|_| format!("unknown ({r})")),
        None => head,
    }
}

fn packed_ref(name: &str) -> std::io::Result<String> {
    let packed = std::fs::read_to_string(".git/packed-refs")?;
    packed
        .lines()
        .find_map(|l| l.strip_suffix(name).map(|h| h.trim().to_owned()))
        .ok_or_else(|| std::io::Error::other("ref not found"))
}

fn print_values(kind: &str, values: &[Value]) {
    for v in values {
        println!(
            "# {}: {} ({} is better)",
            v.def.name, v.def.what, v.def.better
        );
    }
    for v in values {
        println!(
            "{kind} {:<26} {:>16} {:<7} n={:<5} {}{}",
            v.def.name,
            format!("{:.6}", v.value),
            v.def.unit,
            v.samples,
            v.note,
            if kind == "layer" {
                format!("  [should move: {}]", v.def.moves)
            } else {
                String::new()
            }
        );
    }
}

/// The result line: exactly `correct`, `attempted`, `failed`, `metrics`.
fn result_line(attempted: usize, failed: usize, values: &[Value]) -> String {
    let metrics: Vec<String> = values
        .iter()
        .map(|v| {
            format!(
                "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                v.def.name,
                json_number(v.value),
                v.def.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        failed == 0,
        metrics.join(", ")
    )
}

/// A finite JSON number with every digit Rust's shortest round-trip form
/// gives.
fn json_number(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "0.0".to_owned()
    }
}

/// File holding an untraced run's end-to-end values, for the traced run
/// of the same workload and seed to compare against.
fn untraced_file(work: &Path, a: &Args) -> PathBuf {
    work.join(format!("e2e-{}-seed{}.txt", a.workload.name(), a.seed))
}

fn save_untraced(path: &Path, values: &[Value]) {
    let text: String = values
        .iter()
        .map(|v| format!("{} {:?}\n", v.def.name, v.value))
        .collect();
    // Best effort: the file only feeds an informational comparison.
    let _ = std::fs::write(path, text);
}

fn print_overhead(path: &Path, traced: &[Value]) {
    let Ok(text) = std::fs::read_to_string(path) else {
        println!("# tracing overhead vs untraced: no untraced run of this workload and seed yet");
        return;
    };
    for line in text.lines() {
        let mut parts = line.split_whitespace();
        let (Some(name), Some(val)) = (parts.next(), parts.next()) else {
            continue;
        };
        let (Ok(untraced), Some(t)) = (
            val.parse::<f64>(),
            traced.iter().find(|v| v.def.name == name),
        ) else {
            continue;
        };
        println!(
            "overhead {:<14} untraced {:>14.6} traced {:>14.6} ({:+.2}%)",
            name,
            untraced,
            t.value,
            100.0 * stats::ratio(t.value - untraced, untraced)
        );
    }
}

fn run(a: &Args) -> Result<(), String> {
    let work = PathBuf::from(".bench_work");
    std::fs::create_dir_all(&work).map_err(|e| format!("cannot create {}: {e}", work.display()))?;
    let ns_per_span = trace::calibrate();
    trace::set_enabled(a.trace);
    let nproc = std::thread::available_parallelism().map_or(1, usize::from);
    println!(
        "# hsyn perfbench workload={} seed={} seconds={} trace={} nproc={} profile={} revision={}",
        a.workload.name(),
        a.seed,
        a.seconds,
        u8::from(a.trace),
        nproc,
        if cfg!(debug_assertions) {
            "debug"
        } else {
            "release"
        },
        revision()
    );

    let data: RunData = match a.workload {
        Workload::ServeMixed => served::run(a.seed, a.seconds, &work)?,
        Workload::AreaSweep => {
            let mut data = inproc::run(a.seed, a.seconds);
            if a.trace {
                data.serve = served::probe(a.seed, &work)?;
            }
            data
        }
    };
    let spans = trace::take();
    for row in &data.rows {
        println!("{}", row.line());
    }
    let attempted = data.rows.len();
    let failed = data.rows.iter().filter(|r| r.failure.is_some()).count();
    let e2e = report::end_to_end(&data)?;
    print_values("metric", &e2e);
    for line in report::info_lines(&data) {
        println!("{line}");
    }
    println!(
        "metric fail_share {:.6} ratio ({failed} failed / {attempted} attempted)",
        stats::ratio(failed as f64, attempted as f64)
    );
    let out = if a.trace {
        let layers = report::per_layer(&data, &spans, ns_per_span);
        print_values("layer", &layers);
        print_overhead(&untraced_file(&work, a), &e2e);
        let dump = work.join(format!("spans-{}-seed{}.jsonl", a.workload.name(), a.seed));
        std::fs::write(&dump, trace::to_jsonl(&spans))
            .map_err(|e| format!("cannot write {}: {e}", dump.display()))?;
        println!("# {} spans written to {}", spans.len(), dump.display());
        for (name, t) in trace::summarize(&spans) {
            println!(
                "span {:<28} count={:<6} total={:>12.6}s self={:>12.6}s",
                name,
                t.count,
                t.total_ns as f64 / 1e9,
                t.self_ns as f64 / 1e9
            );
        }
        layers
    } else {
        save_untraced(&untraced_file(&work, a), &e2e);
        e2e
    };
    println!("{}", result_line(attempted, failed, &out));
    Ok(())
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };
    match run(&args) {
        Ok(()) => ExitCode::SUCCESS,
        Err(e) => {
            eprintln!("hsyn-perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn result_line_has_exactly_the_contract_keys() {
        let v = Value {
            def: report::END_TO_END[0],
            value: 0.25,
            samples: 5,
            note: String::new(),
        };
        let line = result_line(3, 1, &[v]);
        let json = hsyn::util::Json::parse(&line).expect("result line is JSON");
        let hsyn::util::Json::Obj(fields) = &json else {
            panic!("not an object")
        };
        let keys: Vec<&str> = fields.iter().map(|(k, _)| k.as_str()).collect();
        assert_eq!(keys, ["correct", "attempted", "failed", "metrics"]);
        assert_eq!(json.get("correct"), Some(&hsyn::util::Json::Bool(false)));
        assert!(line.contains("\"setup_s\": {\"value\": 0.25, \"unit\": \"s\"}"));
    }

    #[test]
    fn args_are_checked() {
        let ok: Vec<String> = "--workload area_sweep --seed 3 --seconds 10 --trace 1"
            .split(' ')
            .map(str::to_owned)
            .collect();
        let a = parse_args(&ok).expect("valid");
        assert_eq!(
            (a.workload, a.seed, a.seconds, a.trace),
            (Workload::AreaSweep, 3, 10.0, true)
        );
        for bad in [
            "--workload nope --seed 3 --seconds 10 --trace 1",
            "--workload area_sweep --seed x --seconds 10 --trace 1",
            "--workload area_sweep --seed 3 --seconds 0 --trace 1",
            "--workload area_sweep --seed 3 --seconds 10 --trace 2",
            "--workload area_sweep --seed 3 --seconds 10",
        ] {
            let argv: Vec<String> = bad.split(' ').map(str::to_owned).collect();
            assert!(parse_args(&argv).is_err(), "{bad}");
        }
    }
}
