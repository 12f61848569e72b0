//! The paper's own job, run in process at the start of every workload:
//! label every held-out cell of the fit world at the tuned threshold in
//! 500-cell `predict_batch` calls and score the labels against ground
//! truth, so a speed-up that costs detection quality shows up.

use crate::report::Outcome;
use crate::stats::median;
use crate::world::FitWorld;
use crate::{record_quality, Quality};
use holo_eval::TrainedModel;
use holodetect::FittedHoloDetect;
use std::time::Instant;

/// Cells per `predict_batch` call.
pub const BATCH: usize = 500;

/// Label the held-out cells; records `detect_cells_per_s` and `f1`.
pub fn run(out: &mut Outcome, world: &FitWorld, model: &FittedHoloDetect) {
    let threshold = model.default_threshold();
    let mut q = Quality::default();
    let mut failed = 0;
    let mut cells_per_s = Vec::new();
    for cells in world.test_cells.chunks(BATCH) {
        let t = Instant::now();
        match model.predict_batch(&world.g.dirty, cells, threshold) {
            Ok(labels) => {
                cells_per_s.push(cells.len() as f64 / t.elapsed().as_secs_f64());
                for (c, l) in cells.iter().zip(labels) {
                    q.add(l.is_error(), world.g.truth.label(*c).is_error());
                }
            }
            Err(e) => {
                failed += 1;
                out.fail(format!("predict_batch: {e}"));
            }
        }
    }
    out.phase("detect", world.test_cells.len().div_ceil(BATCH), failed);
    // The median batch, so a burst of outside load on the machine
    // during one batch does not move the figure.
    out.metric(
        "detect_cells_per_s",
        median(&cells_per_s).unwrap_or(f64::NAN),
        "cells/s",
    );
    record_quality(out, &q);
}
