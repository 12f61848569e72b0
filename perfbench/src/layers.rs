//! The traced run: the workload's own generated inputs driven through
//! the public calls of each crate, one span per call (see `spans`),
//! giving the per-layer metrics. Layers are named by crate; the serve
//! stage names are the ones `holo-serve` reports in its traces.
//!
//! Which end-to-end metric each layer should move, and on which
//! workload, is listed in `perfbench/LAYERS.md`.

use crate::http::Conn;
use crate::load::{closed_loop, open_loop, Generator};
use crate::report::Outcome;
use crate::serve::{COLD_ROWS, INGEST_BATCH, LABELS_PER_REFIT, OPEN_RATE, STREAM_RATE};
use crate::server::{Server, MODEL};
use crate::spans::{self, Recorder};
use crate::stats::{median, quantile};
use crate::world::{batch, FitWorld, Rows, FIT_ROWS};
use crate::{fit_context, Ctx};
use holo_data::{CellId, Dataset, DatasetBuilder, DeltaLog, DeltaOp};
use holo_eval::TrainedModel;
use holo_features::{Component, FeatureConfig, Featurizer};
use holo_serve::json::parse_with_limits;
use holo_serve::{BatchConfig, Json, Metrics, MicroBatcher, ModelRegistry, ParseLimits};
use holo_stream::{LiveModel, RowLabel};
use holodetect::trainer::{Pipeline, TrainExample};
use holodetect::BranchStyle;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Every per-layer metric, as every `--trace 1` run reports it.
pub const PER_LAYER: [&str; 43] = [
    "serve.parse_us",
    "serve.validate_us",
    "serve.batch_wait_us",
    "serve.merged_requests",
    "serve.encode_us",
    "serve.http_us",
    "serve.request_child_share",
    "features.featurize_us_per_cell",
    "features.format_us_per_cell",
    "features.empirical_us_per_cell",
    "features.cooc_us_per_cell",
    "features.violations_us_per_cell",
    "features.neighborhood_us_per_cell",
    "features.char_emb_us_per_cell",
    "features.word_emb_us_per_cell",
    "features.tuple_emb_us_per_cell",
    "features.family_sum_ratio",
    "features.nn_cache_miss_ratio",
    "features.fit_s",
    "core.score_us_per_cell",
    "core.forward_us_per_cell",
    "core.load_s",
    "core.train_s",
    "core.featurize_examples_s",
    "core.calibrate_s",
    "nn.train_us_per_example_epoch",
    "nn.forward_flops_per_cell",
    "channel.learn_s",
    "channel.augment_s",
    "channel.augmented_examples",
    "data.log_append_us_per_row",
    "data.log_fsync_us",
    "stream.apply_delta_us_per_row",
    "stream.drift_update_us_per_row",
    "stream.state_lock_wait_us",
    "stream.refit.snapshot_s",
    "stream.refit.embed_refresh_s",
    "stream.refit.adapt_s",
    "stream.refit.refit_with_s",
    "stream.refit.persist_s",
    "loadgen.late_p80_ms",
    "trace.overhead_pct",
    "trace.spans",
];

/// The eight feature families: span name, metric name, component.
const FAMILIES: [(&str, &str, Component); 8] = [
    (
        "features.family.format",
        "features.format_us_per_cell",
        Component::FormatModels,
    ),
    (
        "features.family.empirical",
        "features.empirical_us_per_cell",
        Component::EmpiricalModels,
    ),
    (
        "features.family.cooc",
        "features.cooc_us_per_cell",
        Component::Cooccurrence,
    ),
    (
        "features.family.violations",
        "features.violations_us_per_cell",
        Component::ConstraintViolations,
    ),
    (
        "features.family.neighborhood",
        "features.neighborhood_us_per_cell",
        Component::Neighborhood,
    ),
    (
        "features.family.char_emb",
        "features.char_emb_us_per_cell",
        Component::CharEmbedding,
    ),
    (
        "features.family.word_emb",
        "features.word_emb_us_per_cell",
        Component::WordEmbedding,
    ),
    (
        "features.family.tuple_emb",
        "features.tuple_emb_us_per_cell",
        Component::TupleEmbedding,
    ),
];

/// The eight family times must sum to within this share of the whole
/// featurization time (each family alone repeats the per-cell work they
/// share, such as reading the cell's value and tuple).
pub const FAMILY_SUM_TOLERANCE: f64 = 0.35;
/// Child spans must cover at least this share of a request span.
const MIN_CHILD_SHARE: f64 = 0.9;
/// Score requests replayed in process through the serve stages.
const SERVE_REQUESTS: usize = 60;
/// Ingest requests replayed against the delta log and the live model.
const TRACE_INGESTS: usize = 5;
/// Score requests timed one at a time over HTTP.
const HTTP_REQUESTS: usize = 40;

/// Self time per span name, summed (µs), over the spans named `name`.
fn self_us(spans: &[spans::Span], name: &str) -> (f64, usize) {
    spans::self_time_by_name(spans)
        .get(name)
        .copied()
        .unwrap_or((0.0, 0))
}

/// Run the traced sweep on `workload`'s inputs.
pub fn run(ctx: &Ctx, workload: &str) -> Outcome {
    let mut out = Outcome::default();
    let rec = Recorder::new();
    let inputs = crate::serve::inputs(ctx);
    let (world, schema, ingest_rows) = (&inputs.world, &inputs.schema, &inputs.ingest);
    let (cold_data, cold_cells) = batch(schema, &inputs.score.dirty[..COLD_ROWS]);

    // ---- core / channel / nn / features.fit: the fit, then the same fit
    // replayed step by step through the public `Pipeline` calls, in the
    // order `fit_strategy` runs them.
    let model = rec.span("core.fit_model", 0, || crate::fit(world));
    replay_fit(&mut out, &rec, world, &model, &cold_data, &cold_cells);
    let artifact = ctx.tmp.join("model.holoart");
    if let Err(e) = model.save(&artifact) {
        out.fail(format!("saving the artifact: {e}"));
        return out;
    }
    drop(model);

    // ---- features / core / nn: a freshly loaded model (cold nn-cache)
    // on the cold batch.
    featurize_layers(&mut out, &rec, world, &artifact, &cold_data, &cold_cells);

    // ---- serve: the request stages in process, traced and untraced.
    // Score request bodies after the cold batch.
    let bodies = &inputs.score_bodies[1..];
    serve_layers(&mut out, &rec, &artifact, &bodies[..SERVE_REQUESTS]);

    // ---- data: the delta log the server appends to, on identical rows.
    data_layers(&mut out, &rec, ctx, schema, ingest_rows);

    // ---- stream: ingest and one forced refit through the live model.
    stream_layers(&mut out, &rec, ctx, &artifact, ingest_rows);

    // ---- HTTP: round trips, generator lateness and lock waits from a
    // real server (ingest beside the scores in stream-mixed).
    http_layers(
        &mut out,
        ctx,
        &artifact,
        &bodies[SERVE_REQUESTS..],
        // Ingest bodies after the rows the in-process replays used.
        &inputs.ingest_bodies[TRACE_INGESTS..],
        workload == "stream-mixed",
    );

    let all = rec.spans();
    out.metric("trace.spans", all.len() as f64, "count");
    let path =
        std::path::Path::new(".perfbench").join(format!("spans-{workload}-{}.jsonl", ctx.seed));
    if let Err(e) = std::fs::write(&path, spans::to_json_lines(&all)) {
        out.fail(format!("writing {}: {e}", path.display()));
    } else {
        eprintln!("spans written to {}", path.display());
    }
    out
}

/// Replays `fit_strategy`'s augmentation path through the public
/// `Pipeline` steps and checks the replay reproduces `model`'s scores.
fn replay_fit(
    out: &mut Outcome,
    rec: &Recorder,
    world: &FitWorld,
    model: &holodetect::FittedHoloDetect,
    data: &Dataset,
    cells: &[CellId],
) {
    let cfg = crate::config();
    let ctx = fit_context(world);
    let pipeline = rec.span("features.fit", 0, || {
        Pipeline::fit(&cfg, ctx.dirty, ctx.constraints, ctx.seed)
    });
    let (train, hold) = pipeline.split_holdout(ctx.train);
    let holdout = TrainExample::from_training_set(&hold);
    let mut examples = TrainExample::from_training_set(&train);
    let policy = rec.span("channel.learn", 0, || pipeline.learn_channel(&train));
    let augmented = rec.span("channel.augment", 0, || {
        pipeline.augment_examples(&train, &policy, None)
    });
    let n_augmented = augmented.len();
    examples.extend(augmented);
    let mut tune = holdout.clone();
    tune.extend(rec.span("channel.augment", 0, || {
        pipeline.augment_examples(&hold, &policy, None)
    }));
    let (p_t, n_t) = ctx.train.class_counts();
    let prior = (n_t as f64 / (p_t + n_t).max(1) as f64).max(0.002);
    let n_err = tune.iter().filter(|e| e.label.is_error()).count().max(1);
    let n_cor = (tune.len() - n_err.min(tune.len())).max(1);
    let weights: Vec<f64> = tune
        .iter()
        .map(|e| {
            if e.label.is_error() {
                prior / n_err as f64
            } else {
                (1.0 - prior) / n_cor as f64
            }
        })
        .collect();
    let (x, y) = rec.span("core.featurize_examples", 0, || {
        pipeline.featurize(&examples)
    });
    let net = rec.span("core.train", 0, || pipeline.train_model(&x, &y));
    let (platt, threshold) = rec.span("core.calibrate", 0, || {
        let (hx, ht) = pipeline.featurize(&holdout);
        let platt = pipeline.calibrate_scores(&net.scores(&hx), &ht);
        let threshold = pipeline.select_threshold_weighted(&net, &platt, &tune, &weights);
        (platt, threshold)
    });

    let spans = rec.spans();
    let secs = |name| self_us(&spans, name).0 / 1e6;
    out.metric("features.fit_s", secs("features.fit"), "s");
    out.metric("channel.learn_s", secs("channel.learn"), "s");
    out.metric("channel.augment_s", secs("channel.augment"), "s");
    out.metric("channel.augmented_examples", n_augmented as f64, "count");
    out.metric(
        "core.featurize_examples_s",
        secs("core.featurize_examples"),
        "s",
    );
    let train_s = secs("core.train");
    out.metric("core.train_s", train_s, "s");
    out.metric("core.calibrate_s", secs("core.calibrate"), "s");
    out.metric(
        "nn.train_us_per_example_epoch",
        train_s * 1e6 / (examples.len() * cfg.epochs) as f64,
        "us",
    );

    // The replay must be the fit: same threshold, same scores.
    let replayed: Vec<f64> = pipeline
        .predict_proba(&net, &platt, &pipeline.featurize_cells(data, cells))
        .into_iter()
        .map(f64::from)
        .collect();
    match model.score_batch(data, cells) {
        Ok(fitted) => out.check(
            threshold == model.threshold()
                && fitted
                    .iter()
                    .zip(&replayed)
                    .all(|(a, b)| a.to_bits() == b.to_bits()),
            || "the replayed fit steps do not reproduce the fitted model".into(),
        ),
        Err(e) => out.fail(format!("score_batch: {e}")),
    }
}

fn us_per_cell(spans: &[spans::Span], name: &str, cells: usize) -> f64 {
    self_us(spans, name).0 / cells as f64
}

/// Whole and per-family featurization, forward pass and `score_batch`.
fn featurize_layers(
    out: &mut Outcome,
    rec: &Recorder,
    world: &FitWorld,
    artifact: &std::path::Path,
    data: &Dataset,
    cells: &[CellId],
) {
    let loaded = match rec.span("core.load", 0, || {
        holodetect::FittedHoloDetect::load(artifact)
    }) {
        Ok(m) => m,
        Err(e) => {
            out.fail(format!("loading the artifact: {e}"));
            return;
        }
    };
    let pipeline = loaded.pipeline().expect("a fitted model has a pipeline");
    let cfg = &pipeline.cfg;
    out.metric(
        "nn.forward_flops_per_cell",
        forward_flops(
            pipeline.featurizer.layout(),
            cfg.hidden_dim,
            cfg.branch_style,
        ),
        "flop",
    );
    let x = rec.span("features.featurize", 0, || {
        pipeline.featurize_cells(data, cells)
    });
    let stats = loaded.nn_cache_stats();
    rec.span("core.forward", 0, || loaded.proba_features(&x));
    let scored = rec.span("core.score", 0, || loaded.score_batch(data, cells));
    if let Err(e) = scored {
        out.fail(format!("score_batch: {e}"));
    }
    let work: Vec<(CellId, Option<String>)> = cells.iter().map(|&c| (c, None)).collect();
    for (span, _, component) in FAMILIES {
        let mut features: FeatureConfig = cfg.features.clone();
        features.disabled = Component::ALL
            .into_iter()
            .filter(|c| *c != component)
            .collect();
        let f = Featurizer::fit(&world.g.dirty, &world.g.constraints, features);
        rec.span(span, 0, || f.features_batch(data, &work, cfg.threads));
    }
    let spans = rec.spans();
    let n = cells.len();
    let whole = us_per_cell(&spans, "features.featurize", n);
    out.metric("features.featurize_us_per_cell", whole, "us");
    let mut sum = 0.0;
    for (span, metric, _) in FAMILIES {
        let v = us_per_cell(&spans, span, n);
        sum += v;
        out.metric(metric, v, "us");
    }
    let ratio = sum / whole;
    out.metric("features.family_sum_ratio", ratio, "1");
    out.check((ratio - 1.0).abs() <= FAMILY_SUM_TOLERANCE, || {
        format!("feature families sum to {ratio:.3} of the whole featurization")
    });
    out.metric(
        "features.nn_cache_miss_ratio",
        stats.misses as f64 / (stats.hits + stats.misses).max(1) as f64,
        "1",
    );
    out.metric("core.load_s", self_us(&spans, "core.load").0 / 1e6, "s");
    out.metric(
        "core.forward_us_per_cell",
        us_per_cell(&spans, "core.forward", n),
        "us",
    );
    out.metric(
        "core.score_us_per_cell",
        us_per_cell(&spans, "core.score", n),
        "us",
    );
}

/// Forward-pass floating-point operations per cell, from the layer
/// dimensions: a dense layer `i -> o` costs `2io + o` (multiply-add plus
/// bias), a highway layer two `d -> d` dense layers plus `3d` for its
/// gate mix, an activation one per element, Platt scaling 2.
fn forward_flops(layout: &holo_features::FeatureLayout, hidden: usize, style: BranchStyle) -> f64 {
    let dense = |i: usize, o: usize| (2 * i * o + o) as f64;
    let branches: f64 = layout
        .branch_dims
        .iter()
        .map(|&d| match style {
            BranchStyle::Highway => {
                2.0 * (2.0 * dense(d, d) + 3.0 * d as f64) + d as f64 + dense(d, 1)
            }
            BranchStyle::PlainDense => 2.0 * dense(d, d) + 2.0 * d as f64 + dense(d, 1),
        })
        .sum();
    let joint = layout.wide_dim() + layout.n_branches();
    branches + dense(joint, hidden) + hidden as f64 + dense(hidden, 2) + 2.0
}

/// The serve stages of a score request, in process: parse, validate,
/// micro-batched score (queue wait and model call), encode. Each request
/// runs twice, traced and untraced, alternating which goes first, for
/// the tracing overhead.
fn serve_layers(out: &mut Outcome, rec: &Recorder, artifact: &std::path::Path, bodies: &[String]) {
    let registry = ModelRegistry::new();
    let served = match registry.load_insert(MODEL, artifact) {
        Ok(m) => m,
        Err(e) => {
            out.fail(format!("loading the artifact: {e}"));
            return;
        }
    };
    let schema = served
        .schema()
        .expect("a fitted model has a schema")
        .clone();
    let batcher = match MicroBatcher::start(BatchConfig::default(), Arc::new(Metrics::new())) {
        Ok(b) => b,
        Err(e) => {
            out.fail(format!("starting the batcher: {e}"));
            return;
        }
    };
    let limits = ParseLimits::default();
    let handle = |rec: &Recorder, id: u64, body: &str| -> Result<(), String> {
        rec.span("serve.request", id, || {
            let doc = rec
                .span("serve.parse", id, || parse_with_limits(body, &limits))
                .map_err(|e| e.to_string())?;
            let (data, cells) = rec.span("serve.validate", id, || {
                let rows = doc.get("rows").and_then(Json::as_arr).ok_or("no rows")?;
                let mut b = DatasetBuilder::new(schema.clone()).with_capacity(rows.len());
                for row in rows {
                    let obj = row.as_obj().ok_or("row is not an object")?;
                    let pairs = obj
                        .iter()
                        .map(|(k, v)| (k.as_str(), v.as_str().unwrap_or_default().to_string()));
                    let row = schema.row_from_pairs(pairs).map_err(|e| e.to_string())?;
                    b.push_row(&row.into_values());
                }
                let data = b.build();
                let cells: Vec<CellId> = data.cell_ids().collect();
                Ok::<_, String>((data, cells))
            })?;
            let (scores, _) = rec.span("serve.score", id, || {
                let r = batcher.score_timed(Arc::clone(&served), data, cells);
                rec.children_ending_now(
                    id,
                    &[
                        ("serve.batch-wait", r.1.batch_wait_micros as f64),
                        ("serve.model-score", r.1.score_micros as f64),
                    ],
                );
                r
            });
            let scores = scores.map_err(|e| e.to_string())?;
            let reply = rec.span("serve.encode", id, || {
                Json::Obj(vec![
                    ("model".into(), Json::Str(MODEL.into())),
                    ("generation".into(), Json::Num(served.generation() as f64)),
                    (
                        "scores".into(),
                        Json::Arr(scores.into_iter().map(Json::Num).collect()),
                    ),
                ])
                .to_string()
            });
            std::hint::black_box(reply);
            Ok(())
        })
    };
    let untraced = Recorder::off();
    let (mut traced_s, mut untraced_s) = (0.0, 0.0);
    for (i, body) in bodies.iter().enumerate() {
        let id = i as u64 + 1;
        for pass in 0..2 {
            let traced = (i + pass) % 2 == 0;
            let t = Instant::now();
            let r = handle(if traced { rec } else { &untraced }, id, body);
            let s = t.elapsed().as_secs_f64();
            match r {
                Ok(()) if traced => traced_s += s,
                Ok(()) => untraced_s += s,
                Err(e) => out.fail(format!("serve request {id}: {e}")),
            }
        }
    }
    batcher.shutdown();
    let spans = rec.spans();
    let n = bodies.len() as f64;
    let per = |name: &str| self_us(&spans, name).0 / n;
    out.metric("serve.parse_us", per("serve.parse"), "us");
    out.metric("serve.validate_us", per("serve.validate"), "us");
    out.metric("serve.batch_wait_us", per("serve.batch-wait"), "us");
    out.metric("serve.encode_us", per("serve.encode"), "us");
    // The request span's own (uncovered) time is what no stage explains.
    let (request_self, _) = self_us(&spans, "serve.request");
    let request_total: f64 = spans
        .iter()
        .filter(|s| s.name == "serve.request")
        .map(spans::Span::dur_us)
        .sum();
    let share = 1.0 - request_self / request_total;
    out.metric("serve.request_child_share", share, "1");
    out.check(share >= MIN_CHILD_SHARE, || {
        format!("stage spans cover only {share:.3} of the request spans")
    });
    out.metric(
        "trace.overhead_pct",
        (traced_s - untraced_s) / untraced_s * 100.0,
        "%",
    );
}

/// `DeltaLog::append` per row and `flush` per 20-row batch on a log
/// like the server's.
fn data_layers(
    out: &mut Outcome,
    rec: &Recorder,
    ctx: &Ctx,
    schema: &holo_data::Schema,
    rows: &Rows,
) {
    let path = ctx.tmp.join("trace.deltalog");
    let mut log = match DeltaLog::open(&path, schema.clone()) {
        Ok(l) => l,
        Err(e) => {
            out.fail(format!("opening a delta log: {e}"));
            return;
        }
    };
    let n = TRACE_INGESTS * INGEST_BATCH;
    for chunk in rows.dirty[..n].chunks(INGEST_BATCH) {
        for r in chunk {
            let op = DeltaOp::Append { values: r.clone() };
            if let Err(e) = rec.span("data.log_append", 0, || log.append(op)) {
                out.fail(format!("log append: {e}"));
            }
        }
        if let Err(e) = rec.span("data.log_fsync", 0, || log.flush()) {
            out.fail(format!("log flush: {e}"));
        }
    }
    let spans = rec.spans();
    out.metric(
        "data.log_append_us_per_row",
        self_us(&spans, "data.log_append").0 / n as f64,
        "us",
    );
    let (fsync, count) = self_us(&spans, "data.log_fsync");
    out.metric("data.log_fsync_us", fsync / count.max(1) as f64, "us");
}

/// `LiveModel::ingest_rows` (its `IngestReport` stage times) and one
/// forced refit (its timeline phases), with the embedding refresh on so
/// that every refit phase runs.
fn stream_layers(
    out: &mut Outcome,
    rec: &Recorder,
    ctx: &Ctx,
    artifact: &std::path::Path,
    rows: &Rows,
) {
    let copy = ctx.tmp.join("live.holoart");
    let log = ctx.tmp.join("live.deltalog");
    if let Err(e) = std::fs::copy(artifact, &copy) {
        out.fail(format!("copying the artifact: {e}"));
        return;
    }
    let cfg = holo_stream::StreamConfig {
        min_rows_between_refits: u64::MAX,
        embed_refresh_epochs: 1,
        ..holo_stream::StreamConfig::default()
    };
    let live = match rec.span("stream.open", 0, || LiveModel::open(&copy, &log, cfg)) {
        Ok(l) => l,
        Err(e) => {
            out.fail(format!("opening the live model: {e}"));
            return;
        }
    };
    let (mut apply, mut drift) = (0u64, 0u64);
    let n = TRACE_INGESTS * INGEST_BATCH;
    for chunk in rows.dirty[..n].chunks(INGEST_BATCH) {
        match rec.span("stream.ingest", 0, || live.ingest_rows(chunk.to_vec())) {
            Ok(r) => {
                apply += r.apply_delta_micros;
                drift += r.drift_update_micros;
            }
            Err(e) => out.fail(format!("ingest_rows: {e}")),
        }
    }
    out.metric(
        "stream.apply_delta_us_per_row",
        apply as f64 / n as f64,
        "us",
    );
    out.metric(
        "stream.drift_update_us_per_row",
        drift as f64 / n as f64,
        "us",
    );
    let labels = (n - LABELS_PER_REFIT..n)
        .map(|i| RowLabel {
            row: FIT_ROWS + i,
            clean: rows.clean[i].clone(),
        })
        .collect();
    let refit = live
        .add_labels(labels)
        .and_then(|_| rec.span("stream.refit", 0, || live.refit_now()));
    if let Err(e) = refit {
        out.fail(format!("refit: {e}"));
    }
    let timeline = live.refit_timelines(1).pop();
    for (phase, metric) in [
        ("snapshot", "stream.refit.snapshot_s"),
        ("embed-refresh", "stream.refit.embed_refresh_s"),
        ("adapt", "stream.refit.adapt_s"),
        ("refit_with", "stream.refit.refit_with_s"),
        ("persist", "stream.refit.persist_s"),
    ] {
        match timeline.as_ref().and_then(|t| t.phase_micros(phase)) {
            Some(us) => out.metric(metric, us as f64 / 1e6, "s"),
            None => out.fail(format!("the refit timeline has no {phase} phase")),
        }
    }
}

/// Against a real `holo-serve`: round trips minus the server's own
/// request time (its traces), how late the open-loop generator sent,
/// and the state lock's wait from `/v1/prof`.
#[allow(clippy::too_many_arguments)]
fn http_layers(
    out: &mut Outcome,
    ctx: &Ctx,
    artifact: &std::path::Path,
    bodies: &[String],
    ingest_bodies: &[String],
    with_ingest: bool,
) {
    let served = ctx.tmp.join("http.holoart");
    let log = ctx.tmp.join("http.deltalog");
    if let Err(e) = std::fs::copy(artifact, &served) {
        out.fail(format!("copying the artifact: {e}"));
        return;
    }
    let server = match Server::start(&ctx.server_bin, &served, &log) {
        Ok(s) => s,
        Err(e) => {
            out.fail(e);
            return;
        }
    };
    let addr = server.addr();
    let gen = Generator::new(ctx.nproc);
    let window = Duration::from_secs(ctx.seconds);
    let score = |c: &mut Conn, i: usize| -> Result<(), String> {
        let body = bodies.get(i).ok_or("score input pool exhausted")?;
        let r = c
            .call("POST", &format!("/v1/models/{MODEL}/score"), body)
            .map_err(|e| e.to_string())?;
        (r.status == 200)
            .then_some(())
            .ok_or(format!("status {}", r.status))
    };
    // `ingest_at(k)` sends the `k`-th ingest body onward.
    let ingest_at = |first: usize| {
        let bodies = &ingest_bodies;
        move |c: &mut Conn, i: usize| -> Result<(), String> {
            let r = c
                .call(
                    "POST",
                    &format!("/v1/models/{MODEL}/rows"),
                    &bodies[first + i],
                )
                .map_err(|e| e.to_string())?;
            (r.status == 200)
                .then_some(())
                .ok_or(format!("status {}", r.status))
        }
    };
    // Round trips: one connection, one request at a time, so no queue
    // and no merging, on payloads the server has not seen.
    let rtt_us = std::sync::Mutex::new(Vec::new());
    let timed = |c: &mut Conn, i: usize| {
        let t = Instant::now();
        let r = score(c, i);
        rtt_us
            .lock()
            .expect("poisoned")
            .push(t.elapsed().as_secs_f64() * 1e6);
        r
    };
    let (_, errors) = closed_loop(&gen, addr, 1, &|i| i < HTTP_REQUESTS, &timed);
    let rtt_us = rtt_us.into_inner().expect("poisoned");
    // The server's own time for the same requests, from its newest
    // traces (it keeps the last 32).
    let server_us = score_trace_notes(addr, |t| t.get("total_micros").and_then(Json::as_f64));
    match server_us {
        Ok(server_us) if !server_us.is_empty() => {
            let recent = &rtt_us[rtt_us.len().saturating_sub(server_us.len())..];
            let (rtt, inside) = (median(recent), median(&server_us));
            let (rtt, inside) = (rtt.unwrap_or(f64::NAN), inside.unwrap_or(f64::NAN));
            eprintln!("median round trip {rtt:.0} us, of which {inside:.0} us inside the server");
            out.metric("serve.http_us", rtt - inside, "us");
        }
        Ok(_) => out.fail("the server kept no score traces"),
        Err(e) => out.fail(format!("GET /v1/trace/recent: {e}")),
    }
    // The workload's own score load (with ingest beside it in
    // stream-mixed) gives the generator's lateness.
    let (conns, rate) = if with_ingest {
        (1, STREAM_RATE)
    } else {
        (ctx.nproc, OPEN_RATE)
    };
    let later = |c: &mut Conn, i: usize| score(c, HTTP_REQUESTS + i);
    let (sent, errors) = std::thread::scope(|s| {
        let w = with_ingest
            .then(|| s.spawn(|| closed_loop(&gen, addr, 1, &|i| i < TRACE_INGESTS, &ingest_at(0))));
        let (sent, mut more) = open_loop(&gen, addr, conns, rate, window, &|| false, &later);
        more.extend(errors);
        if let Some(w) = w {
            more.extend(w.join().expect("ingest loop panicked").1);
        }
        (sent, more)
    });
    for e in errors {
        out.fail(e);
    }
    // How many requests the batcher merged per model call under the
    // workload's load, from the server's traces of its last 32 scores.
    let merged = score_trace_notes(addr, |t| t.get("notes")?.get("merged_requests")?.as_f64());
    match merged {
        Ok(m) if !m.is_empty() => out.metric(
            "serve.merged_requests",
            m.iter().sum::<f64>() / m.len() as f64,
            "count",
        ),
        Ok(_) => out.fail("the server kept no score traces"),
        Err(e) => out.fail(format!("GET /v1/trace/recent: {e}")),
    }
    // Then, in both workloads, ingest beside back-to-back scores, so
    // the state lock sees writers and readers at once.
    let ingesting = std::sync::atomic::AtomicBool::new(true);
    let errors = std::thread::scope(|s| {
        let w = s.spawn(|| {
            let r = closed_loop(
                &gen,
                addr,
                1,
                &|i| i < TRACE_INGESTS,
                &ingest_at(TRACE_INGESTS),
            );
            ingesting.store(false, std::sync::atomic::Ordering::SeqCst);
            r
        });
        let keep = |_| ingesting.load(std::sync::atomic::Ordering::SeqCst);
        let fresh = |c: &mut Conn, i: usize| score(c, HTTP_REQUESTS + sent.len() + i);
        let (_, mut errors) = closed_loop(&gen, addr, 1, &keep, &fresh);
        errors.extend(w.join().expect("ingest loop panicked").1);
        errors
    });
    for e in errors {
        out.fail(e);
    }
    let late_ms: Vec<f64> = sent
        .iter()
        .map(|s| s.lateness().as_secs_f64() * 1e3)
        .collect();
    out.metric(
        "loadgen.late_p80_ms",
        quantile(&late_ms, 0.8).unwrap_or(f64::NAN),
        "ms",
    );
    let lock_wait = Conn::open(addr)
        .map_err(|e| e.to_string())
        .and_then(|mut c| c.call("GET", "/v1/prof", "").map_err(|e| e.to_string()))
        .and_then(|r| holo_serve::parse_json(&r.body).map_err(|e| e.to_string()))
        .and_then(|doc| {
            doc.get("locks")
                .and_then(Json::as_arr)
                .and_then(|locks| {
                    locks
                        .iter()
                        .find(|l| l.get("lock").and_then(Json::as_str) == Some("state"))
                        .and_then(|l| l.get("wait_micros").and_then(Json::as_f64))
                })
                .ok_or_else(|| "/v1/prof has no state lock".to_string())
        });
    match lock_wait {
        Ok(us) => out.metric("stream.state_lock_wait_us", us, "us"),
        Err(e) => out.fail(e),
    }
    drop(server);
}

/// One value per score trace the server still keeps (its newest 32),
/// read by `f` from the trace's JSON.
fn score_trace_notes(
    addr: std::net::SocketAddr,
    f: impl Fn(&Json) -> Option<f64>,
) -> Result<Vec<f64>, String> {
    let mut conn = Conn::open(addr).map_err(|e| e.to_string())?;
    let reply = conn
        .call("GET", "/v1/trace/recent", "")
        .map_err(|e| e.to_string())?;
    let doc = holo_serve::parse_json(&reply.body).map_err(|e| e.to_string())?;
    Ok(doc
        .get("traces")
        .and_then(Json::as_arr)
        .unwrap_or(&[])
        .iter()
        .filter(|t| t.get("endpoint").and_then(Json::as_str) == Some("/v1/models/{name}/score"))
        .filter_map(f)
        .collect())
}
