//! The repository's benchmark: one command for the three operator
//! paths (fit-detect, serve-score, stream-mixed).
//!
//! ```text
//! perfbench --workload <name> --seed <n> --seconds <s> --trace <0|1> --server <holo-serve>
//! ```
//!
//! With `--trace 0` a run measures the workload end to end and prints
//! every end-to-end metric; with `--trace 1` it times the calls into
//! each crate's public functions on the same inputs and prints every
//! per-layer metric. Either way the last line of standard output is one
//! JSON object: `correct`, `attempted`, `failed`, `metrics`. Progress
//! and per-phase request counts go to standard error. `run.sh` builds
//! the binaries and calls this.
//!
//! `perfbench compare BASE.jsonl NEW.jsonl` compares two sets of result
//! lines of one workload metric by metric against the bounds in
//! `BENCHMARK.json`.

mod compare;
mod detect;
mod http;
mod layers;
mod load;
mod report;
mod serve;
mod server;
mod spans;
mod stats;
mod world;

use holo_eval::FitContext;
use holodetect::{FittedHoloDetect, HoloDetect, HoloDetectConfig};
use report::Outcome;
use std::path::PathBuf;
use std::process::ExitCode;
use std::time::Instant;

/// The workloads, in the order `BENCHMARK.json` lists them.
pub const WORKLOADS: [&str; 2] = ["serve-score", "stream-mixed"];

/// Score latency tail percentile: the highest that leaves 10 samples
/// beyond it in both workloads' open loops at `--seconds 10` (112 and
/// 100 requests).
pub const SCORE_TAIL: f64 = 80.0;
pub const SCORE_TAIL_NAME: &str = "score_p80_ms";

/// Every end-to-end metric, as every `--trace 0` run reports it.
pub const END_TO_END: [&str; 11] = [
    "setup_s",
    "peak_rss_mb",
    "fit_s",
    "detect_cells_per_s",
    "f1",
    "cold_start_s",
    "score_cells_per_s",
    "score_p50_ms",
    SCORE_TAIL_NAME,
    "ingest_rows_per_s",
    "refit_s",
];

/// How many times a run generates its inputs; the median counts in
/// `setup_s`.
const SETUPS: usize = 5;

/// What a run is given.
pub struct Ctx {
    pub seed: u64,
    pub seconds: u64,
    pub nproc: usize,
    /// The `holo-serve` binary under test.
    pub server_bin: PathBuf,
    /// Scratch directory for this run (artifacts, delta logs, spans).
    pub tmp: PathBuf,
}

/// Run `f` `SETUPS` times; the median time and the last result.
pub fn setup_median<T>(mut f: impl FnMut() -> T) -> (f64, T) {
    let mut times = Vec::with_capacity(SETUPS);
    let mut last = None;
    for _ in 0..SETUPS {
        let t = Instant::now();
        let v = f();
        times.push(t.elapsed().as_secs_f64());
        last = Some(v);
    }
    (
        stats::median(&times).expect("SETUPS > 0"),
        last.expect("SETUPS > 0"),
    )
}

/// The benchmark's model configuration: `HoloDetectConfig::fast()`.
pub fn config() -> HoloDetectConfig {
    HoloDetectConfig::fast()
}

/// Fit the workload's model.
pub fn fit(w: &world::FitWorld) -> FittedHoloDetect {
    HoloDetect::new(config()).fit_model(&fit_context(w))
}

/// The fit context for a world.
pub fn fit_context(w: &world::FitWorld) -> FitContext<'_> {
    FitContext {
        dirty: &w.g.dirty,
        train: &w.train,
        sampling: None,
        constraints: &w.g.constraints,
        seed: w.seed,
    }
}

/// Detection quality counts against ground truth.
#[derive(Default)]
pub struct Quality {
    tp: usize,
    fp: usize,
    fn_: usize,
}

impl Quality {
    pub fn add(&mut self, flagged: bool, error: bool) {
        match (flagged, error) {
            (true, true) => self.tp += 1,
            (true, false) => self.fp += 1,
            (false, true) => self.fn_ += 1,
            (false, false) => {}
        }
    }

    pub fn f1(&self) -> f64 {
        if self.tp == 0 {
            0.0
        } else {
            2.0 * self.tp as f64 / (2 * self.tp + self.fp + self.fn_) as f64
        }
    }
}

/// Record `f1`; an F1 of zero means the scored cells held no detected
/// error at all, which fails the run.
pub fn record_quality(out: &mut Outcome, q: &Quality) {
    out.check(q.tp > 0, || "no error was detected".into());
    out.metric("f1", q.f1(), "1");
}

struct Args {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    server: PathBuf,
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut server = None;
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it
            .next()
            .ok_or_else(|| format!("{flag} needs a value"))?
            .clone();
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!("unknown workload {value:?}; one of {WORKLOADS:?}"));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|_| format!("bad --seed {value:?}"))?),
            "--seconds" => {
                let s: u64 = value
                    .parse()
                    .map_err(|_| format!("bad --seconds {value:?}"))?;
                if !(1..=60).contains(&s) {
                    return Err("--seconds must be 1 to 60".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(format!("--trace wants 0 or 1, got {value:?}")),
                })
            }
            "--server" => server = Some(PathBuf::from(value)),
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
        server: server.ok_or("--server is required")?,
    })
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("compare") {
        let [_, base, new] = &argv[..] else {
            eprintln!("usage: perfbench compare BASE.jsonl NEW.jsonl");
            return ExitCode::FAILURE;
        };
        return match compare::run("BENCHMARK.json", base, new) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => ExitCode::from(1),
            Err(e) => {
                eprintln!("perfbench: {e}");
                ExitCode::from(2)
            }
        };
    }
    let args = match parse_args(&argv) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    };
    if !args.server.is_file() {
        eprintln!(
            "perfbench: no holo-serve binary at {}",
            args.server.display()
        );
        return ExitCode::FAILURE;
    }
    // Scratch space inside the checkout, removed when the run ends.
    let tmp = PathBuf::from(".perfbench").join(format!("run-{}", std::process::id()));
    if let Err(e) = std::fs::create_dir_all(&tmp) {
        eprintln!("perfbench: cannot create {}: {e}", tmp.display());
        return ExitCode::FAILURE;
    }
    let ctx = Ctx {
        seed: args.seed,
        seconds: args.seconds,
        nproc: load::nproc(),
        server_bin: args.server,
        tmp,
    };
    eprintln!(
        "perfbench: workload {} seed {} seconds {} trace {} nproc {}",
        args.workload,
        ctx.seed,
        ctx.seconds,
        u8::from(args.trace),
        ctx.nproc
    );
    let mut out = if args.trace {
        layers::run(&ctx, &args.workload)
    } else {
        serve::run(&ctx, args.workload == "stream-mixed")
    };
    let expected: Vec<&str> = if args.trace {
        layers::PER_LAYER.to_vec()
    } else {
        END_TO_END.to_vec()
    };
    let mut got = out.names();
    got.sort_unstable();
    let mut want = expected.clone();
    want.sort_unstable();
    if got != want {
        out.fail(format!(
            "reported metrics {got:?} are not the declared {want:?}"
        ));
    }
    let _ = std::fs::remove_dir_all(&ctx.tmp);
    eprint!("{}", out.summary());
    if out.names().len() < expected.len() {
        eprintln!("perfbench: the run stopped before measuring every metric");
        return ExitCode::FAILURE;
    }
    println!("{}", out.json());
    ExitCode::SUCCESS
}

#[cfg(test)]
mod tests {
    use holo_serve::{parse_json, Json};

    /// The metrics a run reports are exactly the ones `BENCHMARK.json`
    /// declares, in both modes, and so are the workloads.
    #[test]
    fn benchmark_json_declares_what_runs_report() {
        let text = include_str!(concat!(env!("CARGO_MANIFEST_DIR"), "/../BENCHMARK.json"));
        let doc = parse_json(text).expect("BENCHMARK.json parses");
        let names = |key: &str| -> Vec<String> {
            let mut v: Vec<String> = doc
                .get(key)
                .and_then(Json::as_arr)
                .expect("list present")
                .iter()
                .map(|m| {
                    m.get("name")
                        .and_then(Json::as_str)
                        .expect("named")
                        .to_string()
                })
                .collect();
            v.sort();
            v
        };
        let sorted = |xs: &[&str]| {
            let mut v: Vec<String> = xs.iter().map(|s| s.to_string()).collect();
            v.sort();
            v
        };
        assert_eq!(names("end_to_end"), sorted(&super::END_TO_END));
        assert_eq!(names("per_layer"), sorted(&super::layers::PER_LAYER));
        assert_eq!(names("workloads"), sorted(&super::WORKLOADS));
    }
}
