//! Seeded inputs. Everything a run sends to the system under test is
//! derived here from the run's `--seed`; the system sees only the
//! generated rows, never the seed.

use holo_data::{CellId, Dataset, DatasetBuilder, Schema, TrainingSet};
use holo_datagen::{generate, DatasetKind, GeneratedDataset};
use holo_eval::{Split, SplitConfig};
use holo_serve::Json;

/// Rows of the world every workload fits on.
pub const FIT_ROWS: usize = 1000;
/// Share of the fit world's tuples whose cells are labeled.
pub const TRAIN_FRAC: f64 = 0.10;
/// Rows in each fresh world the serving inputs are drawn from.
const FRESH_WORLD_ROWS: usize = 200;

/// A distinct, well-mixed 64-bit value for each `(seed, stream)`
/// (SplitMix64 finalizer), so sub-seeds never collide with each other
/// or with the run seed itself.
pub fn derive(seed: u64, stream: u64) -> u64 {
    let mut z = seed
        .wrapping_mul(0x9E37_79B9_7F4A_7C15)
        .wrapping_add(stream.wrapping_mul(0xD1B5_4A32_D192_ED03))
        .wrapping_add(0x632B_E59B_D9B3_E7CF);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// The dirty Hospital world a model is fitted on, with 10% of its
/// tuples labeled and every other tuple's cells held out for testing.
pub struct FitWorld {
    pub g: GeneratedDataset,
    pub train: TrainingSet,
    pub test_cells: Vec<CellId>,
    pub seed: u64,
}

/// The fit world for a run seed.
pub fn fit_world(seed: u64) -> FitWorld {
    let world_seed = derive(seed, 0);
    let g = generate(DatasetKind::Hospital, FIT_ROWS, world_seed);
    let split = Split::new(
        &g.dirty,
        SplitConfig {
            train_frac: TRAIN_FRAC,
            sampling_frac: 0.0,
            seed: derive(seed, 1),
        },
    );
    let train = split.training_set(&g.dirty, &g.truth);
    let test_cells = split.test_cells(&g.dirty);
    FitWorld {
        g,
        train,
        test_cells,
        seed: world_seed,
    }
}

/// Rows never seen at fit time, dirty and clean. Drawn from fresh
/// worlds, so no row repeats within a run.
#[derive(Default)]
pub struct Rows {
    pub dirty: Vec<Vec<String>>,
    pub clean: Vec<Vec<String>>,
}

impl Rows {
    /// `n` fresh rows for stream `stream` of run `seed`.
    pub fn fresh(seed: u64, stream: u64, n: usize) -> Rows {
        let mut rows = Rows::default();
        let mut world = 0u64;
        while rows.dirty.len() < n {
            let g = generate(
                DatasetKind::Hospital,
                FRESH_WORLD_ROWS,
                derive(derive(seed, 100 + stream), world),
            );
            world += 1;
            let na = g.dirty.n_attrs();
            for t in 0..g.dirty.n_tuples() {
                if rows.dirty.len() == n {
                    break;
                }
                let cells = (0..na).map(|a| CellId::new(t, a));
                rows.dirty.push(
                    cells
                        .clone()
                        .map(|c| g.dirty.cell_value(c).to_string())
                        .collect(),
                );
                rows.clean
                    .push(cells.map(|c| g.clean.cell_value(c).to_string()).collect());
            }
        }
        rows
    }
}

/// A batch of rows as a dataset in `schema`, and every one of its cells
/// in row-major order (what the server scores when a request names no
/// cells).
pub fn batch(schema: &Schema, rows: &[Vec<String>]) -> (Dataset, Vec<CellId>) {
    let mut b = DatasetBuilder::new(schema.clone()).with_capacity(rows.len());
    for r in rows {
        b.push_row(r);
    }
    let d = b.build();
    let cells = d.cell_ids().collect();
    (d, cells)
}

/// `{"rows": [{attr: value, ...}, ...]}` — the body `/score` and
/// `/rows` take.
pub fn rows_body(schema: &Schema, rows: &[Vec<String>]) -> String {
    let names = schema.names();
    let rows = rows
        .iter()
        .map(|r| {
            Json::Obj(
                names
                    .iter()
                    .zip(r)
                    .map(|(n, v)| (n.clone(), Json::Str(v.clone())))
                    .collect(),
            )
        })
        .collect();
    Json::Obj(vec![("rows".to_string(), Json::Arr(rows))]).to_string()
}

/// `{"labels": [{"row": i, "values": {...}}, ...]}` — ground-truth
/// labels for reference rows `first..first + clean.len()`.
pub fn labels_body(schema: &Schema, first: usize, clean: &[Vec<String>]) -> String {
    let names = schema.names();
    let labels = clean
        .iter()
        .enumerate()
        .map(|(i, r)| {
            Json::Obj(vec![
                ("row".to_string(), Json::Num((first + i) as f64)),
                (
                    "values".to_string(),
                    Json::Obj(
                        names
                            .iter()
                            .zip(r)
                            .map(|(n, v)| (n.clone(), Json::Str(v.clone())))
                            .collect(),
                    ),
                ),
            ])
        })
        .collect();
    Json::Obj(vec![("labels".to_string(), Json::Arr(labels))]).to_string()
}

/// Rows of `rows` that equal the reference row at the same index — the
/// rows the featurizer would score with fit-time (in-reference)
/// violation semantics instead of as foreign rows.
pub fn index_aligned(reference: &Dataset, rows: &[Vec<String>]) -> usize {
    rows.iter()
        .enumerate()
        .filter(|(t, r)| {
            *t < reference.n_tuples()
                && r.iter()
                    .enumerate()
                    .all(|(a, v)| reference.value(*t, a) == v.as_str())
        })
        .count()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn inputs_are_a_function_of_the_seed() {
        let a = Rows::fresh(7, 1, 250);
        let b = Rows::fresh(7, 1, 250);
        assert_eq!(a.dirty, b.dirty);
        assert_ne!(a.dirty, Rows::fresh(8, 1, 250).dirty);
        assert_ne!(a.dirty, Rows::fresh(7, 2, 250).dirty);
        assert_eq!(a.dirty.len(), 250);
        assert_eq!(fit_world(7).test_cells, fit_world(7).test_cells);
    }

    #[test]
    fn fresh_rows_are_not_index_aligned_with_the_fit_world() {
        let w = fit_world(3);
        let rows = Rows::fresh(3, 1, 400);
        for chunk in rows.dirty.chunks(4) {
            assert_eq!(index_aligned(&w.g.dirty, chunk), 0);
        }
        // The fit world's own rows are, by construction.
        let own: Vec<Vec<String>> = (0..4)
            .map(|t| {
                (0..w.g.dirty.n_attrs())
                    .map(|a| w.g.dirty.value(t, a).to_string())
                    .collect()
            })
            .collect();
        assert_eq!(index_aligned(&w.g.dirty, &own), 4);
    }
}
