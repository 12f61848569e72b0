//! The two serving workloads, driven from outside through a real
//! `holo-serve` child process.
//!
//! * `serve-score`: a cold start, then a closed loop and an open loop
//!   of score requests with nothing else running, then ingest and one
//!   forced refit with nothing else running.
//! * `stream-mixed`: a cold start, then ingest (with a forced refit) on
//!   one connection while score requests arrive on another at a fixed
//!   rate, so writes run beside reads.
//!
//! Both first fit the model and run the paper's detection job in
//! process (see `detect`). `perfbench/LAYERS.md` lists every metric.

use crate::http::Conn;
use crate::load::{closed_loop, for_window, open_loop, Generator};
use crate::report::Outcome;
use crate::server::{Server, MODEL};
use crate::stats::{highest_supported, latencies_ms, median, quantile, Sent, MIN_BEYOND};
use crate::world::{batch, fit_world, index_aligned, labels_body, rows_body, FitWorld, Rows};
use crate::{fit, setup_median, Ctx, SCORE_TAIL, SCORE_TAIL_NAME};
use holo_data::Schema;
use holo_eval::TrainedModel;
use holo_serve::{parse_json, Json};
use holodetect::FittedHoloDetect;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Rows per score request (76 cells in the Hospital schema).
pub const ROWS_PER_REQUEST: usize = 4;
/// Rows of the cold-start batch (1,995 cells).
pub const COLD_ROWS: usize = 105;
/// Rows per ingest request.
pub const INGEST_BATCH: usize = 20;
/// Ground-truth labels posted before each forced refit.
pub const LABELS_PER_REFIT: usize = 20;
/// Open-loop score rate, requests per second: about half the
/// closed-loop capacity measured on the seed commit (2 cores), fixed so
/// that every commit is offered the same load.
pub const OPEN_RATE: f64 = 14.0;
/// stream-mixed's score rate, requests per second: lower, since ingest
/// and the refit take their share of the cores.
pub const STREAM_RATE: f64 = 5.0;
/// Share of `--seconds` the serve-score closed loop gets; the open
/// loop gets the rest.
const CLOSED_SHARE: f64 = 0.2;
/// Ingest requests of serve-score's write phase.
const SERVE_INGESTS: usize = 5;
/// stream-mixed forces a refit after every this many ingested rows,
/// `STREAM_REFITS` times per run.
const STREAM_REFIT_EVERY: usize = 100;
const STREAM_REFITS: usize = 1;
/// Minimum ingest requests in a stream-mixed run.
const STREAM_MIN_INGESTS: usize = 10;
/// Closed-loop request cap (the input pool is generated up front).
const MAX_CLOSED_REQUESTS: usize = 1000;

/// Everything a run sends, generated before timing starts (the traced
/// run drives the same inputs).
pub struct Inputs {
    pub world: FitWorld,
    pub schema: Schema,
    /// Rows of score requests; the cold batch is `score[..COLD_ROWS]`.
    pub score: Rows,
    /// Rows for ingest requests.
    pub ingest: Rows,
    /// Encoded request bodies: cold batch first, then one per request.
    pub score_bodies: Vec<String>,
    /// Encoded ingest bodies, one per `INGEST_BATCH` rows.
    pub ingest_bodies: Vec<String>,
}

pub fn inputs(ctx: &Ctx) -> Inputs {
    let world = fit_world(ctx.seed);
    let schema = world.g.dirty.schema().clone();
    let open = (OPEN_RATE * ctx.seconds as f64).ceil() as usize;
    let n_score = COLD_ROWS + (MAX_CLOSED_REQUESTS + open) * ROWS_PER_REQUEST;
    let score = Rows::fresh(ctx.seed, 1, n_score);
    let ingest = Rows::fresh(ctx.seed, 2, 2000);
    let mut score_bodies = vec![rows_body(&schema, &score.dirty[..COLD_ROWS])];
    score_bodies.extend(
        score.dirty[COLD_ROWS..]
            .chunks(ROWS_PER_REQUEST)
            .map(|c| rows_body(&schema, c)),
    );
    let ingest_bodies = ingest
        .dirty
        .chunks(INGEST_BATCH)
        .map(|c| rows_body(&schema, c))
        .collect();
    Inputs {
        world,
        schema,
        score,
        ingest,
        score_bodies,
        ingest_bodies,
    }
}

impl Inputs {
    /// The rows behind score body `i` (0 = the cold batch).
    fn score_rows(&self, i: usize) -> &[Vec<String>] {
        if i == 0 {
            &self.score.dirty[..COLD_ROWS]
        } else {
            let from = COLD_ROWS + (i - 1) * ROWS_PER_REQUEST;
            &self.score.dirty[from..from + ROWS_PER_REQUEST]
        }
    }
}

/// Scores from a `/score` reply, checked for the expected count.
fn reply_scores(body: &str, cells: usize) -> Result<Vec<f64>, String> {
    let doc = parse_json(body).map_err(|e| format!("unparsable reply: {e}"))?;
    let scores: Vec<f64> = doc
        .get("scores")
        .and_then(Json::as_arr)
        .ok_or("reply has no scores")?
        .iter()
        .map(|s| s.as_f64().ok_or("non-numeric score"))
        .collect::<Result<_, _>>()?;
    if scores.len() != cells {
        return Err(format!("{} scores for {cells} cells", scores.len()));
    }
    Ok(scores)
}

fn num(doc: &Json, key: &str) -> Result<f64, String> {
    doc.get(key)
        .and_then(Json::as_f64)
        .ok_or_else(|| format!("reply has no numeric {key:?}"))
}

fn post(conn: &mut Conn, path: &str, body: &str) -> Result<Json, String> {
    let r = conn
        .call("POST", path, body)
        .map_err(|e| format!("POST {path}: {e}"))?;
    if r.status != 200 {
        return Err(format!("POST {path}: status {}: {}", r.status, r.body));
    }
    parse_json(&r.body).map_err(|e| format!("POST {path}: unparsable reply: {e}"))
}

fn get(conn: &mut Conn, path: &str) -> Result<String, String> {
    let r = conn
        .call("GET", path, "")
        .map_err(|e| format!("GET {path}: {e}"))?;
    if r.status != 200 {
        return Err(format!("GET {path}: status {}", r.status));
    }
    Ok(r.body)
}

/// Sends score request `i` and keeps its scores for the output check.
struct Scorer<'a> {
    inputs: &'a Inputs,
    replies: Mutex<Vec<Option<Vec<f64>>>>,
}

impl<'a> Scorer<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        Scorer {
            inputs,
            replies: Mutex::new(vec![None; inputs.score_bodies.len()]),
        }
    }

    fn score(&self, conn: &mut Conn, i: usize) -> Result<(), String> {
        let body = self
            .inputs
            .score_bodies
            .get(i)
            .ok_or("score input pool exhausted")?;
        let r = conn
            .call("POST", &format!("/v1/models/{MODEL}/score"), body)
            .map_err(|e| format!("score: {e}"))?;
        if r.status != 200 {
            return Err(format!("score: status {}: {}", r.status, r.body));
        }
        let cells = self.inputs.score_rows(i).len() * self.inputs.schema.len();
        let scores = reply_scores(&r.body, cells)?;
        self.replies.lock().expect("reply store poisoned")[i] = Some(scores);
        Ok(())
    }
}

/// Ingests request `i` (20 rows), checks the epoch advanced by exactly
/// its row count, and keeps the request's latency (ms; failures as
/// `+inf`).
struct Ingester<'a> {
    inputs: &'a Inputs,
    epoch: Mutex<u64>,
    ms: Mutex<Vec<f64>>,
}

impl<'a> Ingester<'a> {
    fn new(inputs: &'a Inputs) -> Self {
        Ingester {
            inputs,
            epoch: Mutex::new(0),
            ms: Mutex::new(Vec::new()),
        }
    }

    fn ingest(&self, conn: &mut Conn, i: usize) -> Result<(), String> {
        let t = Instant::now();
        let r = self.ingest_checked(conn, i);
        let ms = match r {
            Ok(()) => t.elapsed().as_secs_f64() * 1e3,
            Err(_) => f64::INFINITY,
        };
        self.ms.lock().expect("latency log poisoned").push(ms);
        r
    }

    fn ingest_checked(&self, conn: &mut Conn, i: usize) -> Result<(), String> {
        let body = self
            .inputs
            .ingest_bodies
            .get(i)
            .ok_or("ingest input pool exhausted")?;
        let doc = post(conn, &format!("/v1/models/{MODEL}/rows"), body)?;
        let appended = num(&doc, "appended")? as u64;
        let epoch = num(&doc, "epoch")? as u64;
        let mut last = self.epoch.lock().expect("epoch poisoned");
        if appended != INGEST_BATCH as u64 || epoch != *last + INGEST_BATCH as u64 {
            return Err(format!(
                "ingest {i}: epoch {} -> {epoch} with {appended} rows appended",
                *last
            ));
        }
        *last = epoch;
        Ok(())
    }

    /// Records rows per second of the median ingest request (a forced
    /// refit between two ingests is not ingest time).
    fn record(self, out: &mut Outcome) {
        let ms = self.ms.into_inner().expect("latency log poisoned");
        let ok = ms.iter().filter(|m| m.is_finite()).count();
        out.phase("ingest", ms.len(), ms.len() - ok);
        out.metric(
            "ingest_rows_per_s",
            INGEST_BATCH as f64 * 1e3 / median(&ms).unwrap_or(f64::NAN),
            "rows/s",
        );
    }
}

/// Posts ground-truth labels for the `LABELS_PER_REFIT` most recently
/// ingested rows, forces a refit and checks the generation bumped.
/// Returns the refit's wall time.
fn forced_refit(
    conn: &mut Conn,
    inputs: &Inputs,
    ingested_rows: usize,
    generation: &mut u64,
) -> Result<f64, String> {
    let first = ingested_rows - LABELS_PER_REFIT;
    let body = labels_body(
        &inputs.schema,
        crate::world::FIT_ROWS + first,
        &inputs.ingest.clean[first..ingested_rows],
    );
    let doc = post(conn, &format!("/v1/models/{MODEL}/labels"), &body)?;
    if num(&doc, "accepted")? as usize != LABELS_PER_REFIT {
        return Err("labels not all accepted".into());
    }
    let t = Instant::now();
    let doc = post(conn, &format!("/v1/models/{MODEL}/refit"), "")?;
    let secs = t.elapsed().as_secs_f64();
    let g = num(&doc, "generation")? as u64;
    if g != *generation + 1 {
        return Err(format!("refit moved generation {} -> {g}", *generation));
    }
    *generation = g;
    Ok(secs)
}

/// nn-cache hits and misses the server reports for the model.
fn nn_cache(conn: &mut Conn) -> Result<(f64, f64), String> {
    let page = get(conn, "/metrics")?;
    let read = |name: &str| {
        page.lines()
            .find(|l| l.starts_with(name) && l.contains(&format!("model=\"{MODEL}\"")))
            .and_then(|l| l.split_whitespace().last())
            .and_then(|v| v.parse::<f64>().ok())
            .ok_or_else(|| format!("/metrics has no {name}"))
    };
    Ok((
        read("holo_features_nn_cache_hits_total")?,
        read("holo_features_nn_cache_misses_total")?,
    ))
}

fn record_score_latency(out: &mut Outcome, sent: &[Sent]) {
    let ms = latencies_ms(sent);
    let supported = highest_supported(ms.len(), &[99.0, 95.0, 90.0, SCORE_TAIL]);
    eprintln!(
        "{} score samples: p{} is the highest percentile with {MIN_BEYOND} beyond it",
        ms.len(),
        supported.unwrap_or(f64::NAN)
    );
    out.check(supported.is_some(), || {
        format!("{} score samples cannot support p{SCORE_TAIL}", ms.len())
    });
    out.metric("score_p50_ms", median(&ms).unwrap_or(f64::NAN), "ms");
    out.metric(
        SCORE_TAIL_NAME,
        quantile(&ms, SCORE_TAIL / 100.0).unwrap_or(f64::NAN),
        "ms",
    );
}

/// Run `serve-score` (`mixed == false`) or `stream-mixed`.
pub fn run(ctx: &Ctx, mixed: bool) -> Outcome {
    let mut out = Outcome::default();
    // Set-up: the inputs (generated several times, median), then the
    // fit and the artifact write; then the paper's detection job.
    let (inputs_s, inputs) = setup_median(|| inputs(ctx));
    let artifact = ctx.tmp.join("model.holoart");
    let log = ctx.tmp.join("model.deltalog");
    let t = Instant::now();
    let model = fit(&inputs.world);
    if let Err(e) = model.save(&artifact) {
        out.fail(format!("saving the artifact: {e}"));
        return out;
    }
    let fit_s = t.elapsed().as_secs_f64();
    out.metric("setup_s", inputs_s + fit_s, "s");
    out.metric("fit_s", fit_s, "s");
    crate::detect::run(&mut out, &inputs.world, &model);
    drop(model);
    // Refits overwrite the served artifact; replies are checked against
    // the one the server started from.
    let reference = ctx.tmp.join("reference.holoart");
    if let Err(e) = std::fs::copy(&artifact, &reference) {
        out.fail(format!("copying the artifact: {e}"));
        return out;
    }

    let scorer = Scorer::new(&inputs);
    let ingester = Ingester::new(&inputs);
    let gen = Generator::new(ctx.nproc);
    let cells_per_request = (ROWS_PER_REQUEST * inputs.schema.len()) as f64;

    // Cold start: process start to the first batch answered.
    let t0 = Instant::now();
    let server = match Server::start(&ctx.server_bin, &artifact, &log) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return out;
        }
    };
    let addr = server.addr();
    let cold = Conn::open(addr)
        .map_err(|e| format!("connect: {e}"))
        .and_then(|mut c| scorer.score(&mut c, 0));
    out.metric("cold_start_s", t0.elapsed().as_secs_f64(), "s");
    out.phase("cold", 1, usize::from(cold.is_err()));
    if let Err(e) = cold {
        out.fail(e);
        return out;
    }
    // Administrative calls get a fresh connection each: the server
    // closes connections idle for its read timeout.
    let admin = || Conn::open(addr).map_err(|e| format!("connect: {e}"));

    let mut errors = Vec::new();
    let mut generation = 0u64;
    let mut refit_s = Vec::new();
    let window = Duration::from_secs(ctx.seconds);
    let cache;
    if !mixed {
        // Closed loop: nproc connections back to back.
        let closed_window = window.mul_f64(CLOSED_SHARE);
        let t = Instant::now();
        let (calls, e) = closed_loop(
            &gen,
            addr,
            ctx.nproc,
            &for_window(closed_window, MAX_CLOSED_REQUESTS),
            &|c: &mut Conn, i: usize| scorer.score(c, 1 + i),
        );
        let secs = t.elapsed().as_secs_f64();
        errors.extend(e);
        let ok = calls.iter().filter(|ok| **ok).count();
        out.phase("closed", calls.len(), calls.len() - ok);
        out.metric(
            "score_cells_per_s",
            ok as f64 * cells_per_request / secs,
            "cells/s",
        );
        // Open loop at the fixed rate, on rows not sent before.
        let base = 1 + calls.len();
        let (sent, e) = open_loop(
            &gen,
            addr,
            ctx.nproc,
            OPEN_RATE,
            window - closed_window,
            &|| false,
            &|c: &mut Conn, i: usize| scorer.score(c, base + i),
        );
        errors.extend(e);
        let failed = sent.iter().filter(|s| s.done.is_none()).count();
        out.phase("open", sent.len(), failed);
        record_score_latency(&mut out, &sent);
        cache = admin().and_then(|mut c| nn_cache(&mut c));

        // Writes alone: ingest back to back, then one forced refit.
        let (calls, e) = closed_loop(
            &gen,
            addr,
            1,
            &|i: usize| i < SERVE_INGESTS,
            &|c: &mut Conn, i: usize| ingester.ingest(c, i),
        );
        errors.extend(e);
        let refit = admin().and_then(|mut c| {
            forced_refit(&mut c, &inputs, calls.len() * INGEST_BATCH, &mut generation)
        });
        match refit {
            Ok(s) => refit_s.push(s),
            Err(e) => errors.push(e),
        }
    } else {
        // One connection ingests back to back and forces the refits;
        // another sends score requests at the fixed rate for the window
        // and on until the ingest loop is done, so every forced refit
        // runs beside reads.
        let start = Instant::now();
        let ingesting = AtomicBool::new(true);
        let refits = Mutex::new((Vec::new(), 0u64));
        let keep = |i: usize| {
            let done = refits.lock().expect("refit log poisoned").0.len();
            start.elapsed() < window || i < STREAM_MIN_INGESTS || done < STREAM_REFITS
        };
        let ingest = |c: &mut Conn, i: usize| -> Result<(), String> {
            ingester.ingest(c, i)?;
            let rows = (i + 1) * INGEST_BATCH;
            let mut r = refits.lock().expect("refit log poisoned");
            if rows.is_multiple_of(STREAM_REFIT_EVERY) && r.0.len() < STREAM_REFITS {
                let (log, generation) = &mut *r;
                log.push(forced_refit(c, &inputs, rows, generation)?);
            }
            Ok(())
        };
        let score = |c: &mut Conn, i: usize| scorer.score(c, 1 + i);
        let ((_, e1), (sent, e2)) = std::thread::scope(|s| {
            let w = s.spawn(|| {
                let r = closed_loop(&gen, addr, 1, &keep, &ingest);
                ingesting.store(false, Ordering::SeqCst);
                r
            });
            let extend = || ingesting.load(Ordering::SeqCst);
            let r = open_loop(&gen, addr, 1, STREAM_RATE, window, &extend, &score);
            (w.join().expect("ingest loop panicked"), r)
        });
        errors.extend(e1);
        errors.extend(e2);
        let failed = sent.iter().filter(|s| s.done.is_none()).count();
        out.phase("score", sent.len(), failed);
        record_score_latency(&mut out, &sent);
        // Goodput at the offered rate: below it when the server falls
        // behind.
        let last = sent.iter().filter_map(|s| s.done).max().unwrap_or(start);
        out.metric(
            "score_cells_per_s",
            (sent.len() - failed) as f64 * cells_per_request / (last - start).as_secs_f64(),
            "cells/s",
        );
        cache = admin().and_then(|mut c| nn_cache(&mut c));
        refit_s = refits.into_inner().expect("refit log poisoned").0;
    }
    ingester.record(&mut out);
    out.phase(
        "refit",
        refit_s.len().max(1),
        usize::from(refit_s.is_empty()),
    );
    out.metric("refit_s", median(&refit_s).unwrap_or(f64::NAN), "s");
    match server.peak_rss_mb() {
        Some(mb) => out.metric("peak_rss_mb", mb, "MB"),
        None => out.fail("cannot read the server's peak RSS"),
    }
    match cache {
        Ok((hits, misses)) => eprintln!(
            "nn-cache: {hits} hits, {misses} misses, miss ratio {:.4}",
            misses / (hits + misses).max(1.0)
        ),
        Err(e) => errors.push(e),
    }
    drop(server);
    for e in errors {
        out.fail(e);
    }
    let t = Instant::now();
    verify(&mut out, &inputs, &reference, &scorer, !mixed);
    eprintln!("output checks took {:.1} s", t.elapsed().as_secs_f64());
    out
}

/// Output checks after the server has stopped: no request row may be
/// index-aligned with the reference, and in `serve-score` every reply
/// must equal in-process `score_batch` on the served artifact and the
/// same rows, bit for bit (no write runs before the last score there,
/// so the artifact the server started from is the state every reply
/// came from).
fn verify(
    out: &mut Outcome,
    inputs: &Inputs,
    artifact: &std::path::Path,
    scorer: &Scorer<'_>,
    bitwise: bool,
) {
    let replies = std::mem::take(&mut *scorer.replies.lock().expect("reply store poisoned"));
    let model = match FittedHoloDetect::load(artifact) {
        Ok(m) => m,
        Err(e) => {
            out.fail(format!("loading the artifact: {e}"));
            return;
        }
    };
    let mut aligned = 0;
    for (i, reply) in replies.iter().enumerate() {
        let Some(scores) = reply else { continue };
        let rows = inputs.score_rows(i);
        aligned += index_aligned(&inputs.world.g.dirty, rows);
        if !bitwise {
            continue;
        }
        let (d, cells) = batch(&inputs.schema, rows);
        match model.score_batch(&d, &cells) {
            Ok(expect) => out.check(
                expect
                    .iter()
                    .zip(scores)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
                || format!("reply {i} differs from in-process score_batch"),
            ),
            Err(e) => out.fail(format!("in-process score_batch: {e}")),
        }
    }
    out.check(aligned == 0, || {
        format!("{aligned} request rows are index-aligned with the reference")
    });
}
