//! The micro-batching queue: coalesce concurrent score requests into
//! larger `score_batch` calls.
//!
//! Featurization inside `score_batch` fans out across `cfg.threads`
//! worker threads and amortizes per-call setup, so one 256-cell call is
//! much cheaper than sixteen 16-cell calls. The batcher exploits that:
//! HTTP workers submit `(model, dataset, cells)` jobs and block on a
//! reply channel; a single batcher thread takes the first queued job,
//! adds every compatible job already waiting (until
//! [`BatchConfig::max_batch_cells`] cells are pending), merges their
//! rows into one dataset, issues **one** `score_batch`, and fans the
//! scores back out. It never waits for traffic that has not arrived:
//! under load, requests queue up while a call runs and the next round
//! merges them; on an idle server a request is scored the moment it
//! arrives.
//!
//! ## Why merging never changes a score
//!
//! Scores must be *exactly* what the caller would have gotten from a
//! direct `score_batch` on its own dataset. Every HoloDetect feature of
//! a submitted row is a function of the row's values and the model's
//! fit-time statistics, never of the row's index: violation counts for
//! any dataset other than the model's own reference are external
//! counts against that reference. So jobs that share a model and a
//! schema can be concatenated in any order, for static and streamed
//! models alike.

use crate::metrics::Metrics;
use crate::registry::ServedModel;
use holo_data::{CellId, Dataset, DatasetBuilder};
use holo_eval::ModelError;
use holo_prof::{PoolStats, ProfMutex};
use holo_trace::Stopwatch;
use std::collections::VecDeque;
use std::sync::mpsc::{channel, Sender};
use std::sync::Arc;
use std::thread::JoinHandle;

/// Batching knobs.
#[derive(Debug, Clone)]
pub struct BatchConfig {
    /// Stop merging once this many cells are pending in the group.
    /// `1` disables coalescing (every request scores solo).
    pub max_batch_cells: usize,
}

impl Default for BatchConfig {
    fn default() -> Self {
        BatchConfig {
            max_batch_cells: 512,
        }
    }
}

/// Where a scoring request's time went inside the batcher, reported
/// back alongside the scores so the caller's trace can attribute
/// queueing separately from model work.
#[derive(Debug, Clone, Copy, Default)]
pub struct ScoreTiming {
    /// Time between enqueue and the start of the `score_batch` call
    /// that served this job (queueing behind earlier calls).
    pub batch_wait_micros: u64,
    /// Duration of the `score_batch` call itself (shared by every job
    /// in a merged batch).
    pub score_micros: u64,
    /// How many requests that call served (1 = scored solo).
    pub merged_requests: usize,
    /// Bytes allocated on the batcher thread during the `score_batch`
    /// call (dataset merge buffers, score vectors; always measured —
    /// the thread-local byte counter is unconditional). Shared by every
    /// job in a merged batch, like [`ScoreTiming::score_micros`].
    pub score_alloc_bytes: u64,
}

/// What a job's caller receives: its scores (or typed error) plus timing.
type Reply = (Result<Vec<f64>, ModelError>, ScoreTiming);

struct Job {
    model: Arc<ServedModel>,
    data: Dataset,
    cells: Vec<CellId>,
    enqueued: Stopwatch,
    reply: Sender<Reply>,
}

/// The batching queue plus its worker thread.
pub struct MicroBatcher {
    cfg: BatchConfig,
    tx: ProfMutex<Option<Sender<Job>>>,
    worker: ProfMutex<Option<JoinHandle<()>>>,
}

impl MicroBatcher {
    /// Start the batcher thread. Errs only when the OS refuses to
    /// spawn the thread.
    pub fn start(cfg: BatchConfig, metrics: Arc<Metrics>) -> std::io::Result<Self> {
        let (tx, rx) = channel::<Job>();
        let loop_cfg = cfg.clone();
        let worker = std::thread::Builder::new()
            .name("holo-serve-batcher".into())
            .spawn(move || {
                let pool = PoolStats::register("batcher");
                // Jobs pulled off the channel but not yet scored, in
                // arrival order.
                let mut queue: VecDeque<Job> = VecDeque::new();
                loop {
                    // First job of the round: the oldest queued one,
                    // else block for a fresh arrival. Disconnect + empty
                    // queue = shutdown complete.
                    let first = match queue.pop_front() {
                        Some(j) => j,
                        None => {
                            let idle = Stopwatch::start();
                            let got = rx.recv();
                            pool.record_idle(idle.elapsed_micros());
                            match got {
                                Ok(j) => j,
                                Err(_) => break,
                            }
                        }
                    };
                    let round = Stopwatch::start();
                    // Merge only what is already waiting: everything on
                    // the wire joins the queue without blocking, then
                    // compatible jobs leave it in arrival order.
                    queue.extend(rx.try_iter());
                    let mut rest: Vec<Job> = Vec::new();
                    let mut group_cells = first.cells.len();
                    let mut i = 0;
                    while group_cells < loop_cfg.max_batch_cells {
                        match queue.get(i) {
                            None => break,
                            Some(job) if compatible(&first, job) => {
                                let Some(job) = queue.remove(i) else { break };
                                group_cells += job.cells.len();
                                rest.push(job);
                            }
                            Some(_) => i += 1,
                        }
                    }
                    // Scoring runs user-model code; a panic there must
                    // cost this group its replies (callers see a typed
                    // error), never the batcher thread.
                    let _ = std::panic::catch_unwind(std::panic::AssertUnwindSafe(|| {
                        execute(first, rest, &metrics)
                    }));
                    pool.record_busy(round.elapsed_micros());
                }
            })?;
        Ok(MicroBatcher {
            cfg,
            tx: ProfMutex::new("batcher-tx", Some(tx)),
            worker: ProfMutex::new("batcher-worker", Some(worker)),
        })
    }

    /// The active configuration.
    pub fn config(&self) -> &BatchConfig {
        &self.cfg
    }

    /// Score `cells` of `data` through `model`, coalescing with other
    /// concurrent requests when profitable. Blocks until scored.
    pub fn score(
        &self,
        model: Arc<ServedModel>,
        data: Dataset,
        cells: Vec<CellId>,
    ) -> Result<Vec<f64>, ModelError> {
        self.score_timed(model, data, cells).0
    }

    /// [`MicroBatcher::score`], also reporting where the time went
    /// (queue wait vs. the `score_batch` call). Timing is zeroed when
    /// the request never reached a scoring call.
    pub fn score_timed(
        &self,
        model: Arc<ServedModel>,
        data: Dataset,
        cells: Vec<CellId>,
    ) -> (Result<Vec<f64>, ModelError>, ScoreTiming) {
        // A poisoned sender slot only means some caller panicked while
        // holding it; the Option inside is still coherent, so recover.
        let sender = match self
            .tx
            .lock()
            .unwrap_or_else(|p| p.into_inner())
            .clone()
            .ok_or_else(shut_down)
        {
            Ok(s) => s,
            Err(e) => return (Err(e), ScoreTiming::default()),
        };
        let (reply_tx, reply_rx) = channel();
        if sender
            .send(Job {
                model,
                data,
                cells,
                enqueued: Stopwatch::start(),
                reply: reply_tx,
            })
            .is_err()
        {
            return (Err(shut_down()), ScoreTiming::default());
        }
        // A dropped reply after a successful send means the batcher
        // aborted this group (it survives; see `guarded_score`).
        match reply_rx.recv() {
            Ok((result, timing)) => (result, timing),
            Err(_) => (
                Err(ModelError::Format(
                    "scoring was aborted by the batcher".into(),
                )),
                ScoreTiming::default(),
            ),
        }
    }

    /// Stop accepting new jobs, finish the queued ones, join the thread.
    pub fn shutdown(&self) {
        drop(self.tx.lock().unwrap_or_else(|p| p.into_inner()).take());
        let handle = self.worker.lock().unwrap_or_else(|p| p.into_inner()).take();
        if let Some(w) = handle {
            let _ = w.join();
        }
    }
}

impl Drop for MicroBatcher {
    fn drop(&mut self) {
        self.shutdown();
    }
}

fn shut_down() -> ModelError {
    ModelError::Io(std::io::Error::other("serving batcher is shut down"))
}

/// May `job` join a merged batch led by `first`? Same model, same
/// schema: rows score the same at any index (see the module docs).
fn compatible(first: &Job, job: &Job) -> bool {
    Arc::ptr_eq(&first.model, &job.model) && first.data.schema() == job.data.schema()
}

/// Run scoring work behind panic isolation: model code must never be
/// able to take the batcher thread down, so a panic becomes a typed
/// error on the offending call.
fn guarded<F: FnOnce() -> Result<Vec<f64>, ModelError>>(f: F) -> Result<Vec<f64>, ModelError> {
    std::panic::catch_unwind(std::panic::AssertUnwindSafe(f))
        .unwrap_or_else(|_| Err(ModelError::Format("model panicked while scoring".into())))
}

/// Score under the `"score"` allocation scope, also reporting the bytes
/// the call allocated on this thread (exact: the thread-local counter
/// wraps rather than saturates, so the delta survives overflow).
fn guarded_score(
    model: &ServedModel,
    data: &Dataset,
    cells: &[CellId],
) -> (Result<Vec<f64>, ModelError>, u64) {
    let _scope = holo_prof::scope("score");
    let before = holo_prof::thread_alloc_bytes();
    let result = guarded(|| model.score_batch(data, cells));
    (result, holo_prof::thread_alloc_bytes().wrapping_sub(before))
}

/// Score one job solo, keeping the books: the call shape lands in the
/// batch histograms, the cells in the scored total only on success.
fn execute_solo(job: Job, metrics: &Metrics) {
    metrics.record_batch(job.cells.len(), 1);
    let batch_wait_micros = job.enqueued.elapsed_micros();
    let call = Stopwatch::start();
    let (result, score_alloc_bytes) = guarded_score(&job.model, &job.data, &job.cells);
    let timing = ScoreTiming {
        batch_wait_micros,
        score_micros: call.elapsed_micros(),
        merged_requests: 1,
        score_alloc_bytes,
    };
    if let Ok(scores) = &result {
        metrics.record_scored_cells(scores.len());
    }
    let _ = job.reply.send((result, timing));
}

fn execute(first: Job, rest: Vec<Job>, metrics: &Metrics) {
    if rest.is_empty() {
        execute_solo(first, metrics);
        return;
    }

    // Merge: concatenate rows, shift each job's cells by its row offset.
    let total_cells: usize = first.cells.len() + rest.iter().map(|j| j.cells.len()).sum::<usize>();
    let mut b = DatasetBuilder::new(first.data.schema().clone());
    let mut merged_cells = Vec::with_capacity(total_cells);
    for job in std::iter::once(&first).chain(rest.iter()) {
        let offset = b.rows();
        for t in 0..job.data.n_tuples() {
            b.push_row(&job.data.tuple_values(t));
        }
        merged_cells.extend(job.cells.iter().map(|c| CellId::new(c.t() + offset, c.a())));
    }
    let merged = b.build();
    let merged_requests = rest.len() + 1;
    metrics.record_batch(total_cells, merged_requests);
    // Per-job queue wait ends here; the scoring call itself is one
    // duration shared by every member of the merged batch.
    let waits: Vec<u64> = std::iter::once(&first)
        .chain(rest.iter())
        .map(|j| j.enqueued.elapsed_micros())
        .collect();
    let call = Stopwatch::start();
    let (outcome, score_alloc_bytes) = guarded_score(&first.model, &merged, &merged_cells);
    match outcome {
        // The contract is one score per requested cell; if a model ever
        // broke it, fanning out would misroute scores across jobs, so
        // fall back to solo scoring instead of splitting short.
        Ok(scores) if scores.len() == total_cells => {
            let score_micros = call.elapsed_micros();
            metrics.record_scored_cells(scores.len());
            let mut remaining = scores.as_slice();
            for (job, wait) in std::iter::once(first).chain(rest).zip(waits) {
                let (mine, tail) = remaining.split_at(job.cells.len());
                let timing = ScoreTiming {
                    batch_wait_micros: wait,
                    score_micros,
                    merged_requests,
                    score_alloc_bytes,
                };
                let _ = job.reply.send((Ok(mine.to_vec()), timing));
                remaining = tail;
            }
        }
        // A merged failure must not poison innocent neighbours: fall
        // back to scoring each job alone so errors land only where they
        // belong (each fallback call is its own entry in the books).
        Ok(_) | Err(_) => {
            for job in std::iter::once(first).chain(rest) {
                execute_solo(job, metrics);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::registry::ModelRegistry;
    use holo_constraints::parse_constraints;
    use holo_data::{GroundTruth, Schema};
    use holo_eval::FitContext;
    use holo_stream::{LiveModel, StreamConfig};
    use holodetect::{HoloDetect, HoloDetectConfig};
    use std::path::PathBuf;
    use std::sync::mpsc::Receiver;

    /// Fit a small real model and save it. Its one constraint's residual
    /// accepts an identical pair, so a row scored in-sample (its own
    /// reference copy excluded) and the same row scored as an external
    /// tuple would get different violation counts.
    fn fitted_artifact(tag: &str) -> (PathBuf, Dataset) {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for _ in 0..25 {
            b.push_row(&["60612", "Chicago"]);
            b.push_row(&["53703", "Madison"]);
        }
        let clean = b.build();
        let mut dirty = clean.clone();
        dirty.set_value(0, 1, "Cxhicago");
        dirty.set_value(7, 1, "Madxison");
        let truth = GroundTruth::from_pair(&clean, &dirty);
        let train = truth.label_tuples(&dirty, &(0..20).collect::<Vec<_>>());
        let dcs = parse_constraints("t1.Zip = t2.Zip & t1.City ~ t2.City", dirty.schema())
            .expect("constraints");
        let mut cfg = HoloDetectConfig::fast();
        cfg.epochs = 8;
        let fitted = HoloDetect::new(cfg).fit_model(&FitContext {
            dirty: &dirty,
            train: &train,
            sampling: None,
            constraints: &dcs,
            seed: 3,
        });
        let path = std::env::temp_dir().join(format!(
            "holo-serve-batch-{tag}-{}-{:?}.bin",
            std::process::id(),
            std::thread::current().id()
        ));
        fitted.save(&path).expect("save");
        (path, dirty)
    }

    /// The fitted model loaded through the registry as a static entry
    /// (the shape the server uses), plus the dataset it was fitted on.
    fn served_model() -> (Arc<ServedModel>, Dataset) {
        let (path, dirty) = fitted_artifact("static");
        let model = ModelRegistry::new().load_insert("m", &path).expect("load");
        std::fs::remove_file(&path).ok();
        (model, dirty)
    }

    /// The same fit served as a streamed (`LiveModel`) entry.
    fn live_served_model() -> (Arc<ServedModel>, Dataset) {
        let (path, dirty) = fitted_artifact("live");
        let log = path.with_extension("dlog");
        std::fs::remove_file(&log).ok();
        let live = LiveModel::open(&path, &log, StreamConfig::default()).expect("open live");
        let model = ModelRegistry::new().insert_live("m", Arc::new(live));
        std::fs::remove_file(&path).ok();
        std::fs::remove_file(&log).ok();
        (model, dirty)
    }

    /// A foreign batch of rows the reference never saw.
    fn foreign_batch(tag: usize) -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        b.push_row(&[format!("606{tag:02}"), "Chicago".to_string()]);
        b.push_row(&["53703".to_string(), format!("Madiso{tag}")]);
        b.build()
    }

    /// A copy of rows `range` of `d`, re-indexed from 0.
    fn rows(d: &Dataset, range: std::ops::Range<usize>) -> Dataset {
        let mut b = DatasetBuilder::new(d.schema().clone());
        for t in range {
            b.push_row(&d.tuple_values(t));
        }
        b.build()
    }

    fn job(model: &Arc<ServedModel>, data: Dataset, cells: Vec<CellId>) -> (Job, Receiver<Reply>) {
        let (reply, rx) = channel();
        let job = Job {
            model: Arc::clone(model),
            data,
            cells,
            enqueued: Stopwatch::start(),
            reply,
        };
        (job, rx)
    }

    fn bits(scores: &[f64]) -> Vec<u64> {
        scores.iter().map(|p| p.to_bits()).collect()
    }

    #[test]
    fn concurrent_jobs_score_bitwise_identical_to_direct_calls() {
        let (model, _) = served_model();
        let metrics = Arc::new(Metrics::new());
        let batcher = MicroBatcher::start(
            BatchConfig {
                max_batch_cells: 64,
            },
            Arc::clone(&metrics),
        )
        .expect("start batcher");

        std::thread::scope(|s| {
            let handles: Vec<_> = (0..8)
                .map(|i| {
                    let model = Arc::clone(&model);
                    let batcher = &batcher;
                    s.spawn(move || {
                        let data = foreign_batch(i);
                        let cells: Vec<CellId> = data.cell_ids().collect();
                        let direct = model.score_batch(&data, &cells).expect("direct");
                        let served = batcher
                            .score(Arc::clone(&model), data, cells)
                            .expect("served");
                        (direct, served)
                    })
                })
                .collect();
            for h in handles {
                let (direct, served) = h.join().expect("job thread");
                assert_eq!(
                    bits(&direct),
                    bits(&served),
                    "batched scores differ from direct score_batch"
                );
            }
        });
        // Every submitted cell was scored exactly once.
        batcher.shutdown();
        assert!(metrics
            .render()
            .contains("holo_serve_cells_scored_total 32"));
    }

    #[test]
    fn reference_rows_score_the_same_at_any_position() {
        // Reference row 3 at its own index (in a copy of the reference's
        // first rows), alone at index 0, and spliced behind other jobs in
        // a merged batch: every placement scores bitwise the same, for a
        // static and a streamed model.
        let at = |t: usize| vec![CellId::new(t, 0), CellId::new(t, 1)];
        for (model, dirty) in [served_model(), live_served_model()] {
            let kind = if model.live().is_some() {
                "live"
            } else {
                "static"
            };
            let prefix = rows(&dirty, 0..4);
            let alone = rows(&dirty, 3..4);
            let own = model.score_batch(&prefix, &at(3)).expect("own index");
            let shifted = model.score_batch(&alone, &at(0)).expect("shifted");
            assert_eq!(bits(&own), bits(&shifted), "{kind}: own vs shifted index");

            let metrics = Metrics::new();
            let lead = foreign_batch(1);
            let lead_cells: Vec<CellId> = lead.cell_ids().collect();
            let (first, _) = job(&model, lead, lead_cells);
            let (second, prefix_rx) = job(&model, prefix, at(3));
            let (third, alone_rx) = job(&model, alone, at(0));
            execute(first, vec![second, third], &metrics);
            for (rx, placement) in [(prefix_rx, "index 5"), (alone_rx, "index 6")] {
                let (scores, timing) = rx.recv().expect("reply");
                assert_eq!(timing.merged_requests, 3, "{kind}: not merged");
                let scores = scores.expect("merged score");
                assert_eq!(bits(&scores), bits(&own), "{kind}: merged at {placement}");
            }
        }
    }

    #[test]
    fn reference_aligned_rows_still_score_identically() {
        // Rows that are reference rows at their own indices, mixed with
        // foreign ones: through the batcher, solo or merged with
        // concurrent foreign jobs, served scores equal direct calls, for
        // a static and a streamed model.
        for (model, dirty) in [served_model(), live_served_model()] {
            let kind = if model.live().is_some() {
                "live"
            } else {
                "static"
            };
            let prefix = rows(&dirty, 0..6);
            let batcher = MicroBatcher::start(BatchConfig::default(), Arc::new(Metrics::new()))
                .expect("start batcher");
            std::thread::scope(|s| {
                let handles: Vec<_> = (0..6)
                    .map(|i| {
                        let model = Arc::clone(&model);
                        let batcher = &batcher;
                        let data = if i % 2 == 0 {
                            prefix.clone()
                        } else {
                            foreign_batch(40 + i)
                        };
                        s.spawn(move || {
                            let cells: Vec<CellId> = data.cell_ids().collect();
                            let direct = model.score_batch(&data, &cells).expect("direct");
                            let served = batcher
                                .score(Arc::clone(&model), data, cells)
                                .expect("served");
                            (direct, served)
                        })
                    })
                    .collect();
                for h in handles {
                    let (direct, served) = h.join().expect("job thread");
                    assert_eq!(bits(&direct), bits(&served), "{kind}: batcher parity");
                }
            });
            batcher.shutdown();
        }
    }

    #[test]
    fn errors_only_land_on_the_offending_job() {
        let (model, _) = served_model();
        let batcher = MicroBatcher::start(BatchConfig::default(), Arc::new(Metrics::new()))
            .expect("start batcher");
        let good = foreign_batch(1);
        let good_cells: Vec<CellId> = good.cell_ids().collect();
        // Out-of-bounds cells: typed error, not garbage, not a panic.
        let bad = foreign_batch(2);
        let r = batcher.score(Arc::clone(&model), bad, vec![CellId::new(99, 0)]);
        assert!(matches!(r, Err(ModelError::CellOutOfBounds { .. })));
        // And the batcher still serves afterwards.
        let ok = batcher.score(Arc::clone(&model), good, good_cells).unwrap();
        assert_eq!(ok.len(), 4);
        batcher.shutdown();
    }

    #[test]
    fn panicking_model_code_is_a_typed_error_not_a_dead_batcher() {
        // The guard that keeps the batcher thread alive: a panic inside
        // scoring becomes a Format error on that call.
        let r = guarded(|| panic!("poisoned model"));
        let Err(ModelError::Format(msg)) = r else {
            panic!("panic was not converted to a typed error")
        };
        assert!(msg.contains("panicked"));
        // Non-panicking work passes through untouched.
        assert_eq!(guarded(|| Ok(vec![0.5])).unwrap(), vec![0.5]);
    }

    #[test]
    fn shutdown_is_typed_not_hung() {
        let (model, _) = served_model();
        let batcher = MicroBatcher::start(BatchConfig::default(), Arc::new(Metrics::new()))
            .expect("start batcher");
        batcher.shutdown();
        let data = foreign_batch(3);
        let cells: Vec<CellId> = data.cell_ids().collect();
        assert!(matches!(
            batcher.score(model, data, cells),
            Err(ModelError::Io(_))
        ));
    }
}
