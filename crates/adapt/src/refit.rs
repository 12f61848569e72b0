//! Adaptive refit: turn ≤ `max_labels` operator labels on the drifted
//! slice into a re-learned error channel and an amplified training set.
//!
//! This is HoloDetect's §5 few-shot loop pointed at drift instead of at
//! the initial fit: the labeled rows' `(clean, observed)` error pairs
//! go through Algorithm 1 ([`holo_channel::learn_transformations`]) and
//! Algorithm 2 ([`holo_channel::Policy`]) to learn the *drifted*
//! channel, Algorithm 4 ([`holo_channel::augment_to_ratio`]) amplifies
//! the handful of real examples into a balanced synthetic set in the
//! labeled cells' own tuple contexts, and the combined examples feed
//! `FittedHoloDetect::refit_with` — which re-trains the classifier,
//! re-calibrates, and re-tunes the threshold over the maintained
//! representation. A plain `refit_with(vec![])` retrains on the stale
//! fit-time example set and cannot recover from a changed channel (the
//! census scenario sat at PR-AUC 0.27 before and after); this path can.

use crate::ProbePool;
use holo_channel::{augment_to_ratio, AugmentConfig, NaiveBayesRepair, Policy, RepairConfig};
use holo_data::{CellId, Dataset, Label};
use holo_eval::{ModelError, TrainedModel};
use holo_trace::Stopwatch;
use holodetect::trainer::TrainExample;
use holodetect::FittedHoloDetect;

/// One operator label: a reference row index plus the row's *clean*
/// values in schema order. Cells whose clean value differs from the
/// observed reference value are error examples (and channel pairs);
/// cells that match are correct examples.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct RowLabel {
    /// Row index into the live model's maintained reference dataset.
    pub row: usize,
    /// The clean values, in schema order.
    pub clean: Vec<String>,
}

/// Knobs for [`AdaptiveRefit`].
#[derive(Debug, Clone)]
pub struct AdaptConfig {
    /// Label budget: at most this many labeled rows are consumed per
    /// refit (the paper's few-shot regime — default 20).
    pub max_labels: usize,
    /// Target error fraction of the adaptation examples after
    /// augmentation (Figure 6's forced ratio).
    pub target_error_ratio: f64,
    /// Fraction of the post-refit training set the *fresh* examples
    /// (labeled cells + their amplified errors) should occupy. The
    /// stale fit-time examples teach the pre-drift channel; left
    /// unweighted, a few dozen fresh examples drown in thousands of
    /// stale ones and the retrained classifier barely moves. The
    /// trainer has no per-example weights, so the weight is realised by
    /// replicating the fresh set (capped at [`AdaptConfig::max_replication`]).
    pub fresh_weight: f64,
    /// Upper bound on the fresh-set replication factor — keeps a tiny
    /// label batch against a huge fit-time set from exploding the
    /// training matrix.
    pub max_replication: usize,
    /// Reference cells (outside the labeled rows, strided across the
    /// whole dataset) the learned channel is *broadcast* into: the
    /// drifted transformations are re-applied in these unrelated tuple
    /// contexts so the classifier sees the new error class against
    /// many different co-occurrence/constraint neighbourhoods, not just
    /// the handful of labeled rows (HoloDetect §5.2's augmentation
    /// argument, pointed at adaptation). 0 disables the broadcast.
    pub broadcast_contexts: usize,
    /// Repair each labeled error cell in the model's maintained
    /// reference to its clean value before retraining (the labels are
    /// ground truth; leaving known-wrong values in the reference lets
    /// them keep polluting the count-based statistics every other cell
    /// is scored against).
    pub repair_labeled: bool,
    /// After the label-driven retrain, run one model-guided repair pass
    /// over the rest of the reference: cells the refitted classifier
    /// flags (score ≥ threshold) whose Naive-Bayes co-occurrence repair
    /// confidently suggests a different value are updated to the
    /// suggestion, and the classifier retrained once more over the
    /// cleaned counts. Labels fix the rows an operator saw; this pass
    /// chases the same channel through the rows nobody labeled. Off by
    /// default: on the scenario suite it buys ~0.003 PR-AUC for twice
    /// the refit wall-clock.
    pub self_repair: bool,
    /// Cap on cells one self-repair pass may update.
    pub max_self_repairs: usize,
    /// Cap on the value pool backing the random-swap augmentation move.
    pub max_swap_pool: usize,
    /// RNG seed for the augmentation pass (fixed → deterministic refit).
    pub seed: u64,
    /// Worker threads for the retrain's sharded SGD loop (`None` keeps
    /// the model's own `cfg.threads`). Purely a wall-clock knob: the
    /// trainer's shard decomposition is fixed, so the refitted model is
    /// bitwise-identical at any thread count.
    pub threads: Option<usize>,
}

impl Default for AdaptConfig {
    fn default() -> Self {
        AdaptConfig {
            max_labels: 20,
            target_error_ratio: 0.5,
            fresh_weight: 0.5,
            max_replication: 25,
            broadcast_contexts: 256,
            repair_labeled: true,
            self_repair: false,
            max_self_repairs: 512,
            max_swap_pool: 1000,
            seed: 0xADA7,
            threads: None,
        }
    }
}

/// What one adaptation pass produced (for logs and the `/refit` body).
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct AdaptReport {
    /// Labeled rows consumed (after the budget cut).
    pub labeled_rows: usize,
    /// Real error cells among them.
    pub error_cells: usize,
    /// Correct cells among them.
    pub correct_cells: usize,
    /// Synthetic error examples generated by augmentation.
    pub synthetic_errors: usize,
    /// Distinct transformations in the learned drift channel.
    pub channel_size: usize,
    /// Synthetic errors broadcast into unlabeled reference contexts
    /// (see [`AdaptConfig::broadcast_contexts`]).
    pub broadcast_errors: usize,
    /// Labeled error cells repaired into the reference before the
    /// retrain (0 when [`AdaptConfig::repair_labeled`] is off).
    pub repaired_cells: usize,
    /// Unlabeled cells the model-guided self-repair pass updated (0
    /// when [`AdaptConfig::self_repair`] is off).
    pub self_repaired_cells: usize,
    /// Replication factor applied to the fresh examples so they reach
    /// [`AdaptConfig::fresh_weight`] of the post-refit training set
    /// (1 = no replication was needed; 0 = no fresh examples at all).
    pub replication: usize,
}

/// Wall-clock attribution for one adaptation pass, kept apart from
/// [`AdaptReport`] so the report stays deterministic (and `Eq`) for a
/// fixed seed. The live model folds these into its refit timelines.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct AdaptTiming {
    /// Turning labeled rows into per-cell examples and channel pairs.
    pub label_drain_micros: u64,
    /// Learning the drifted channel (Algorithms 1 + 2) from the pairs.
    pub channel_learn_micros: u64,
    /// Amplifying and broadcasting the channel (Algorithm 4).
    pub augment_micros: u64,
    /// `FittedHoloDetect::refit_with` (plus the optional self-repair
    /// pass and its retrain) — the expensive retrain itself.
    pub refit_with_micros: u64,
}

/// The label → channel → augment → refit pipeline. Stateless besides
/// its configuration; every method is deterministic for a fixed seed.
#[derive(Debug, Clone, Default)]
pub struct AdaptiveRefit {
    cfg: AdaptConfig,
}

impl AdaptiveRefit {
    /// A pipeline with the given knobs.
    pub fn new(cfg: AdaptConfig) -> Self {
        AdaptiveRefit { cfg }
    }

    /// The configured knobs.
    pub fn config(&self) -> &AdaptConfig {
        &self.cfg
    }

    /// Build refit examples from `labels` against `reference`: one
    /// example per labeled cell (observed value, error iff it differs
    /// from the clean value) plus synthetic errors amplified from the
    /// learned channel into the labeled cells' tuple contexts. At most
    /// `max_labels` labels are consumed, oldest first.
    ///
    /// # Errors
    /// [`ModelError::CellOutOfBounds`] for a label row outside the
    /// reference; [`ModelError::Format`] for a label whose arity does
    /// not match the reference schema.
    pub fn examples(
        &self,
        reference: &Dataset,
        labels: &[RowLabel],
    ) -> Result<(Vec<TrainExample>, AdaptReport), ModelError> {
        let (examples, report, _) = self.examples_timed(reference, labels)?;
        Ok((examples, report))
    }

    /// [`AdaptiveRefit::examples`] plus wall-clock attribution for the
    /// drain / channel-learn / augment phases (an [`AdaptTiming`] with
    /// `refit_with_micros` left zero — only [`AdaptiveRefit::refit_timed`]
    /// runs the retrain).
    ///
    /// # Errors
    /// Exactly those of [`AdaptiveRefit::examples`].
    pub fn examples_timed(
        &self,
        reference: &Dataset,
        labels: &[RowLabel],
    ) -> Result<(Vec<TrainExample>, AdaptReport, AdaptTiming), ModelError> {
        let mut timing = AdaptTiming::default();
        let drain_clock = Stopwatch::start();
        let nt = reference.n_tuples();
        let na = reference.n_attrs();
        let budget = labels.len().min(self.cfg.max_labels);
        let mut report = AdaptReport {
            labeled_rows: budget,
            ..AdaptReport::default()
        };
        let mut examples: Vec<TrainExample> = Vec::new();
        let mut pairs: Vec<(String, String)> = Vec::new();
        let mut corrects: Vec<(CellId, String)> = Vec::new();
        for label in labels.iter().take(budget) {
            if label.row >= nt {
                return Err(ModelError::CellOutOfBounds {
                    cell: CellId::new(label.row, 0),
                    n_tuples: nt,
                    n_attrs: na,
                });
            }
            if label.clean.len() != na {
                return Err(ModelError::Format(format!(
                    "label for row {} has arity {}, reference schema has {}",
                    label.row,
                    label.clean.len(),
                    na
                )));
            }
            for (a, clean) in label.clean.iter().enumerate() {
                let cell = CellId::new(label.row, a);
                let observed = reference.value(label.row, a);
                if observed == clean {
                    report.correct_cells += 1;
                    corrects.push((cell, clean.clone()));
                    examples.push(TrainExample {
                        cell,
                        value: observed.to_owned(),
                        label: Label::Correct,
                    });
                } else {
                    report.error_cells += 1;
                    pairs.push((clean.clone(), observed.to_owned()));
                    examples.push(TrainExample {
                        cell,
                        value: observed.to_owned(),
                        label: Label::Error,
                    });
                }
            }
        }
        timing.label_drain_micros = drain_clock.elapsed_micros();

        // Algorithm 1 + 2 on the drifted error pairs.
        let channel_clock = Stopwatch::start();
        let policy = Policy::from_pairs(&pairs);
        report.channel_size = policy.len();
        timing.channel_learn_micros = channel_clock.elapsed_micros();

        // Algorithm 4: amplify the few real errors to the target ratio,
        // in the labeled correct cells' own tuple contexts.
        let augment_clock = Stopwatch::start();
        let values: Vec<String> = corrects.iter().map(|(_, v)| v.clone()).collect();
        let aug_cfg = AugmentConfig {
            seed: self.cfg.seed,
            ..AugmentConfig::default()
        };
        let synthetic = augment_to_ratio(
            &values,
            report.error_cells,
            self.cfg.target_error_ratio,
            &policy,
            &swap_pool(reference, self.cfg.max_swap_pool),
            &aug_cfg,
        );
        report.synthetic_errors = synthetic.len();
        for g in synthetic {
            let Some(&(cell, _)) = corrects.get(g.source) else {
                // `source` indexes `values`, which parallels `corrects`;
                // an out-of-range index would be an augment bug.
                return Err(ModelError::Format(format!(
                    "augmentation returned out-of-range source {}",
                    g.source
                )));
            };
            examples.push(TrainExample {
                cell,
                value: g.dirty,
                label: Label::Error,
            });
        }

        // Broadcast the channel into unlabeled reference contexts: a
        // strided cell sample spanning the whole dataset, each paired
        // with its observed (presumed-correct) value as a Correct
        // example and fed to the channel for Error variants. Cells of
        // labeled rows are skipped — the loop above covered them with
        // actual labels.
        if self.cfg.broadcast_contexts > 0 && !pairs.is_empty() {
            let labeled: std::collections::HashSet<usize> =
                labels.iter().take(budget).map(|l| l.row).collect();
            let total = nt.saturating_mul(na);
            let want = self.cfg.broadcast_contexts;
            let stride = (total / want.max(1)).max(1);
            let mut ctx: Vec<(CellId, String)> = Vec::new();
            let mut idx = 0usize;
            while idx < total && ctx.len() < want {
                let (t, a) = (idx / na, idx % na);
                if !labeled.contains(&t) {
                    ctx.push((CellId::new(t, a), reference.value(t, a).to_owned()));
                }
                idx += stride;
            }
            let ctx_values: Vec<String> = ctx.iter().map(|(_, v)| v.clone()).collect();
            let bcast_cfg = AugmentConfig {
                seed: self.cfg.seed.wrapping_add(0xB0_CA57),
                ..AugmentConfig::default()
            };
            let bcast = augment_to_ratio(
                &ctx_values,
                0,
                self.cfg.target_error_ratio,
                &policy,
                &[],
                &bcast_cfg,
            );
            report.broadcast_errors = bcast.len();
            for g in bcast {
                let Some(&(cell, _)) = ctx.get(g.source) else {
                    return Err(ModelError::Format(format!(
                        "broadcast augmentation returned out-of-range source {}",
                        g.source
                    )));
                };
                examples.push(TrainExample {
                    cell,
                    value: g.dirty,
                    label: Label::Error,
                });
                // Balance: the context's real value as a Correct
                // example, so the broadcast teaches the transformation,
                // not "these cells are all errors".
                examples.push(TrainExample {
                    cell,
                    value: g.clean,
                    label: Label::Correct,
                });
            }
        }
        timing.augment_micros = augment_clock.elapsed_micros();
        Ok((examples, report, timing))
    }

    /// The whole adaptive path: build examples from `labels` and hand
    /// them to [`FittedHoloDetect::refit_with`]. Consumes the model
    /// like `refit_with` does; with an empty `labels` slice this *is*
    /// `refit_with(vec![])`.
    ///
    /// # Errors
    /// Everything [`AdaptiveRefit::examples`] rejects, plus
    /// [`ModelError::Degenerate`] from `refit_with` for a model with no
    /// fitted state.
    pub fn refit(
        &self,
        model: FittedHoloDetect,
        labels: &[RowLabel],
    ) -> Result<(FittedHoloDetect, AdaptReport), ModelError> {
        let (refitted, report, _) = self.refit_timed(model, labels)?;
        Ok((refitted, report))
    }

    /// [`AdaptiveRefit::refit`] plus wall-clock attribution for every
    /// phase — the live model's refit timelines record these.
    ///
    /// # Errors
    /// Exactly those of [`AdaptiveRefit::refit`].
    pub fn refit_timed(
        &self,
        model: FittedHoloDetect,
        labels: &[RowLabel],
    ) -> Result<(FittedHoloDetect, AdaptReport, AdaptTiming), ModelError> {
        let Some(artifact) = model.artifact() else {
            return Err(ModelError::Degenerate {
                method: model.method().to_owned(),
            });
        };
        let (examples, mut report, mut timing) =
            self.examples_timed(artifact.reference(), labels)?;
        let examples = self.weight_fresh(examples, model.n_train_examples(), &mut report);
        let mut model = model;
        if let Some(threads) = self.cfg.threads {
            model.set_threads(threads);
        }
        if self.cfg.repair_labeled {
            // The labels are ground truth — fold them into the
            // representation: every labeled error cell is repaired to
            // its clean value, purging the drifted values from the
            // count-based statistics (co-occurrence, violations,
            // frequencies) every *other* cell is scored against. The
            // error examples above keep their observed values — they
            // now featurize as drifted values in clean contexts, which
            // is exactly the contrast the classifier must learn.
            let budget = labels.len().min(self.cfg.max_labels);
            for label in labels.iter().take(budget) {
                for (a, clean) in label.clean.iter().enumerate() {
                    if model
                        .artifact()
                        .map(|s| s.reference().value(label.row, a) != clean)
                        .unwrap_or(false)
                    {
                        model.apply_delta(&holo_data::DeltaOp::Update {
                            tuple: label.row,
                            attr: a,
                            value: clean.clone(),
                        })?;
                        report.repaired_cells += 1;
                    }
                }
            }
        }
        let train_clock = Stopwatch::start();
        let mut refitted = model.refit_with(examples)?;
        if self.cfg.self_repair {
            report.self_repaired_cells = self.self_repair_pass(&mut refitted, labels)?;
            if report.self_repaired_cells > 0 {
                refitted = refitted.refit_with(Vec::new())?;
            }
        }
        timing.refit_with_micros = train_clock.elapsed_micros();
        Ok((refitted, report, timing))
    }

    /// The model-guided repair pass: score every reference cell with
    /// the freshly adapted classifier, and for flagged cells outside
    /// the labeled rows apply the Naive-Bayes co-occurrence repair when
    /// it confidently suggests a different value. Returns how many
    /// cells were updated.
    fn self_repair_pass(
        &self,
        model: &mut FittedHoloDetect,
        labels: &[RowLabel],
    ) -> Result<usize, ModelError> {
        let Some(artifact) = model.artifact() else {
            return Ok(0);
        };
        // Score the model's own reference (in-sample), then copy it:
        // repairs below mutate the model while the copy is read.
        let cells: Vec<CellId> = artifact.reference().cell_ids().collect();
        let scores = model.score_batch(artifact.reference(), &cells)?;
        let reference = artifact.reference().clone();
        let threshold = model.threshold();
        let budget = labels.len().min(self.cfg.max_labels);
        let labeled: std::collections::HashSet<usize> =
            labels.iter().take(budget).map(|l| l.row).collect();
        let nb = NaiveBayesRepair::build(&reference, RepairConfig::default());
        let mut applied = 0usize;
        for (&cell, &score) in cells.iter().zip(scores.iter()) {
            if applied >= self.cfg.max_self_repairs {
                break;
            }
            if score < threshold || labeled.contains(&cell.t()) {
                continue;
            }
            let Some(repair) = nb.suggest(&reference, cell.t(), cell.a()) else {
                continue;
            };
            model.apply_delta(&holo_data::DeltaOp::Update {
                tuple: cell.t(),
                attr: cell.a(),
                value: repair.suggested,
            })?;
            applied += 1;
        }
        Ok(applied)
    }

    /// Replicate the fresh example set until it makes up
    /// [`AdaptConfig::fresh_weight`] of the post-refit training data
    /// (`stale` stale examples plus the replicated fresh set), capped
    /// at [`AdaptConfig::max_replication`] copies. Replication keeps
    /// the fresh set's internal error ratio intact — it scales the
    /// whole slice, not just the error examples.
    fn weight_fresh(
        &self,
        fresh: Vec<TrainExample>,
        stale: usize,
        report: &mut AdaptReport,
    ) -> Vec<TrainExample> {
        if fresh.is_empty() {
            report.replication = 0;
            return fresh;
        }
        let w = self.cfg.fresh_weight.clamp(0.0, 0.95);
        // reps·|fresh| / (stale + reps·|fresh|) ≥ w  ⇒  solve for reps.
        let needed = if w > 0.0 {
            (w * stale as f64) / ((1.0 - w) * fresh.len() as f64)
        } else {
            1.0
        };
        let reps = (needed.ceil() as usize).clamp(1, self.cfg.max_replication.max(1));
        report.replication = reps;
        if reps == 1 {
            return fresh;
        }
        let mut out = Vec::with_capacity(fresh.len() * reps);
        for _ in 0..reps {
            out.extend(fresh.iter().cloned());
        }
        out
    }

    /// Spot-check `labels` against the model's current predictions and
    /// fold each labeled cell into `probes` (the
    /// [`crate::DriftSignal::Probe`] feed). Labels that fail validation
    /// are skipped — probing is advisory and must never fail an ingest.
    pub fn probe(
        &self,
        model: &FittedHoloDetect,
        labels: &[RowLabel],
        probes: &mut ProbePool,
    ) -> Result<(), ModelError> {
        let Some(artifact) = model.artifact() else {
            return Ok(());
        };
        let reference = artifact.reference();
        let na = reference.n_attrs();
        let threshold = model.threshold();
        let mut cells = Vec::new();
        let mut truths = Vec::new();
        for label in labels {
            if label.row >= reference.n_tuples() || label.clean.len() != na {
                continue;
            }
            for (a, clean) in label.clean.iter().enumerate() {
                cells.push(CellId::new(label.row, a));
                truths.push(reference.value(label.row, a) != clean);
            }
        }
        if cells.is_empty() {
            return Ok(());
        }
        let scores = model.score_batch(reference, &cells)?;
        for (&score, &labeled_error) in scores.iter().zip(truths.iter()) {
            probes.record(score >= threshold, labeled_error);
        }
        Ok(())
    }
}

/// A pool of alternative values for the random-swap augmentation move:
/// one representative per distinct value, capped for memory (the same
/// shape the fit-time trainer uses).
fn swap_pool(d: &Dataset, cap: usize) -> Vec<String> {
    let mut pool = Vec::new();
    let mut seen = std::collections::HashSet::new();
    'outer: for a in 0..d.n_attrs() {
        for t in 0..d.n_tuples() {
            let v = d.value(t, a);
            if seen.insert(v.to_owned()) {
                pool.push(v.to_owned());
                if pool.len() >= cap {
                    break 'outer;
                }
            }
        }
    }
    pool
}

#[cfg(test)]
mod tests {
    use super::*;
    use holo_data::{DatasetBuilder, Schema};

    fn reference() -> Dataset {
        let mut b = DatasetBuilder::new(Schema::new(["Zip", "City"]));
        for i in 0..10 {
            if i % 2 == 0 {
                b.push_row(&["60612", "Chicago"]);
            } else {
                b.push_row(&["53703", "Madison"]);
            }
        }
        // Two drifted rows: in-domain swaps (zip/city mismatch).
        b.push_row(&["60612", "Madison"]);
        b.push_row(&["53703", "Chicago"]);
        b.build()
    }

    #[test]
    fn labels_split_into_error_and_correct_examples() {
        let d = reference();
        let labels = vec![
            RowLabel {
                row: 10,
                clean: vec!["60612".into(), "Chicago".into()], // City is an error
            },
            RowLabel {
                row: 0,
                clean: vec!["60612".into(), "Chicago".into()], // all correct
            },
        ];
        let (examples, report) = AdaptiveRefit::default().examples(&d, &labels).unwrap();
        assert_eq!(report.labeled_rows, 2);
        assert_eq!(report.error_cells, 1);
        assert_eq!(report.correct_cells, 3);
        assert!(report.channel_size > 0, "swap pair must learn a channel");
        // Real examples first, then synthetic.
        let real = &examples[..4];
        assert_eq!(
            real.iter().filter(|e| e.label == Label::Error).count(),
            1,
            "one real error example"
        );
        assert!(
            report.synthetic_errors > 0,
            "augmentation must amplify the single error"
        );
        // Real + amplified + broadcast (each broadcast error pairs with
        // a Correct example of its context's real value).
        assert_eq!(
            examples.len(),
            4 + report.synthetic_errors + 2 * report.broadcast_errors
        );
        // Synthetic errors live in labeled correct cells' contexts.
        for e in &examples[4..4 + report.synthetic_errors] {
            assert_eq!(e.label, Label::Error);
            assert!(real.iter().any(|r| r.cell == e.cell));
        }
        // Broadcast examples live *outside* the labeled rows.
        assert!(report.broadcast_errors > 0, "channel must broadcast");
        for e in &examples[4 + report.synthetic_errors..] {
            assert!(e.cell.t() != 10 && e.cell.t() != 0, "broadcast context");
        }
    }

    #[test]
    fn broadcast_disabled_stays_in_labeled_contexts() {
        let d = reference();
        let labels = vec![RowLabel {
            row: 10,
            clean: vec!["60612".into(), "Chicago".into()],
        }];
        let adapt = AdaptiveRefit::new(AdaptConfig {
            broadcast_contexts: 0,
            ..AdaptConfig::default()
        });
        let (examples, report) = adapt.examples(&d, &labels).unwrap();
        assert_eq!(report.broadcast_errors, 0);
        assert!(examples.iter().all(|e| e.cell.t() == 10));
    }

    #[test]
    fn weight_fresh_replicates_to_the_target_share() {
        let adapt = AdaptiveRefit::new(AdaptConfig {
            fresh_weight: 0.5,
            max_replication: 25,
            ..AdaptConfig::default()
        });
        let fresh = vec![TrainExample {
            cell: CellId::new(0, 0),
            value: "v".into(),
            label: Label::Error,
        }];
        let mut report = AdaptReport::default();
        // 1 fresh example vs 10 stale → 10 copies reach parity.
        let out = adapt.weight_fresh(fresh.clone(), 10, &mut report);
        assert_eq!(out.len(), 10);
        assert_eq!(report.replication, 10);
        // The cap wins when parity would need more copies.
        let capped = AdaptiveRefit::new(AdaptConfig {
            fresh_weight: 0.5,
            max_replication: 3,
            ..AdaptConfig::default()
        });
        let out = capped.weight_fresh(fresh.clone(), 1000, &mut report);
        assert_eq!(out.len(), 3);
        assert_eq!(report.replication, 3);
        // No fresh examples → nothing to replicate.
        let out = adapt.weight_fresh(Vec::new(), 10, &mut report);
        assert!(out.is_empty());
        assert_eq!(report.replication, 0);
    }

    #[test]
    fn budget_caps_consumed_labels() {
        let d = reference();
        let labels: Vec<RowLabel> = (0..5)
            .map(|row| RowLabel {
                row,
                clean: vec!["60612".into(), "Chicago".into()],
            })
            .collect();
        let adapt = AdaptiveRefit::new(AdaptConfig {
            max_labels: 2,
            ..AdaptConfig::default()
        });
        let (_, report) = adapt.examples(&d, &labels).unwrap();
        assert_eq!(report.labeled_rows, 2);
    }

    #[test]
    fn bad_labels_are_typed_errors() {
        let d = reference();
        let out_of_range = vec![RowLabel {
            row: 99,
            clean: vec!["a".into(), "b".into()],
        }];
        assert!(matches!(
            AdaptiveRefit::default().examples(&d, &out_of_range),
            Err(ModelError::CellOutOfBounds { .. })
        ));
        let bad_arity = vec![RowLabel {
            row: 0,
            clean: vec!["only-one".into()],
        }];
        assert!(matches!(
            AdaptiveRefit::default().examples(&d, &bad_arity),
            Err(ModelError::Format(_))
        ));
    }

    #[test]
    fn no_labels_means_no_examples() {
        let d = reference();
        let (examples, report) = AdaptiveRefit::default().examples(&d, &[]).unwrap();
        assert!(examples.is_empty());
        assert_eq!(report, AdaptReport::default());
    }

    #[test]
    fn examples_are_deterministic() {
        let d = reference();
        let labels = vec![RowLabel {
            row: 10,
            clean: vec!["60612".into(), "Chicago".into()],
        }];
        let adapt = AdaptiveRefit::default();
        let a = adapt.examples(&d, &labels).unwrap();
        let b = adapt.examples(&d, &labels).unwrap();
        assert_eq!(a.0, b.0);
        assert_eq!(a.1, b.1);
    }
}
