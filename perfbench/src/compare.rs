//! `perfbench compare BASE NEW`: the per-metric verdict a change needs.
//! BASE and NEW each hold the result lines of repeated runs of one
//! workload (one JSON object per line, as a run prints it). For every
//! end-to-end metric of `BENCHMARK.json` it prints both medians, the
//! spread of each side, and whether NEW is worse than BASE by more than
//! the metric's bound.

use crate::stats::{median, regressed, spread};
use holo_serve::{parse_json, Json};

/// One end-to-end metric's declaration.
struct Declared {
    name: String,
    lower_is_better: bool,
    bound: f64,
}

fn declared(benchmark: &Json) -> Result<Vec<Declared>, String> {
    benchmark
        .get("end_to_end")
        .and_then(Json::as_arr)
        .ok_or("BENCHMARK.json has no end_to_end list")?
        .iter()
        .map(|m| {
            Ok(Declared {
                name: m
                    .get("name")
                    .and_then(Json::as_str)
                    .ok_or("metric without a name")?
                    .to_string(),
                lower_is_better: m.get("better").and_then(Json::as_str) == Some("lower"),
                bound: m
                    .get("bound")
                    .and_then(Json::as_f64)
                    .ok_or("metric without a bound")?,
            })
        })
        .collect()
}

/// The values of `metric` over the result lines in `text`.
fn values(text: &str, metric: &str) -> Vec<f64> {
    text.lines()
        .filter_map(|l| parse_json(l).ok())
        .filter_map(|doc| doc.get("metrics")?.get(metric)?.get("value")?.as_f64())
        .collect()
}

/// One metric's verdict line, and whether it regressed.
fn verdict(d: &Declared, base: &[f64], new: &[f64]) -> (String, bool) {
    let (Some(b), Some(n)) = (median(base), median(new)) else {
        return (format!("{:<22} missing on one side", d.name), true);
    };
    let worse = regressed(b, n, d.bound, d.lower_is_better);
    let line = format!(
        "{:<22} base {:>12.4} (spread {:.3})  new {:>12.4} (spread {:.3})  change {:>+7.2}%  bound {:.0}%  {}",
        d.name,
        b,
        spread(base).unwrap_or(f64::NAN),
        n,
        spread(new).unwrap_or(f64::NAN),
        (n - b) / b.abs() * 100.0,
        d.bound * 100.0,
        if worse { "REGRESSED" } else { "ok" }
    );
    (line, worse)
}

/// Compare two result files; `Ok(true)` when no metric regressed.
pub fn run(benchmark: &str, base: &str, new: &str) -> Result<bool, String> {
    let read = |p: &str| std::fs::read_to_string(p).map_err(|e| format!("{p}: {e}"));
    let doc = parse_json(&read(benchmark)?).map_err(|e| format!("{benchmark}: {e}"))?;
    let (base, new) = (read(base)?, read(new)?);
    let mut ok = true;
    for d in declared(&doc)? {
        let (line, worse) = verdict(&d, &values(&base, &d.name), &values(&new, &d.name));
        println!("{line}");
        ok &= !worse;
    }
    Ok(ok)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn line(v: f64) -> String {
        format!("{{\"correct\":true,\"attempted\":1,\"failed\":0,\"metrics\":{{\"x\":{{\"value\":{v},\"unit\":\"s\"}}}}}}")
    }

    #[test]
    fn medians_are_compared_against_the_bound() {
        let base: String = [10.0, 11.0, 9.0].iter().map(|v| line(*v) + "\n").collect();
        let within: String = [10.9, 11.5, 10.5].iter().map(|v| line(*v) + "\n").collect();
        let beyond: String = [11.2, 11.5, 10.5].iter().map(|v| line(*v) + "\n").collect();
        let lower = Declared {
            name: "x".into(),
            lower_is_better: true,
            bound: 0.1,
        };
        let v = |t: &str| values(t, "x");
        assert_eq!(v(&base), vec![10.0, 11.0, 9.0]);
        assert!(!verdict(&lower, &v(&base), &v(&within)).1);
        assert!(verdict(&lower, &v(&base), &v(&beyond)).1);
        // When higher is better, a rise passes and a drop past the
        // bound (11.2 -> 10.0 is -10.7%) regresses.
        let higher = Declared {
            lower_is_better: false,
            ..lower
        };
        assert!(!verdict(&higher, &v(&base), &v(&beyond)).1);
        assert!(verdict(&higher, &v(&beyond), &v(&base)).1);
        assert!(verdict(&higher, &v(&base), &v(&base)).0.ends_with("ok"));
        // A metric missing on one side never passes silently.
        assert!(verdict(&higher, &v(&base), &[]).1);
    }
}
