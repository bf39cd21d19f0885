//! `specbench compare A.jsonl B.jsonl`: one row per workload × metric with
//! each side's median and quartiles over its records, and a verdict
//! against the bound `BENCHMARK.json` fixes for that metric.

use crate::json::{self, Json};
use crate::stats::{median, quartiles};

/// Values of one metric on one side, in record order.
#[derive(Default)]
struct Series {
    unit: String,
    exact: bool,
    values: Vec<f64>,
}

/// `(workload, metric)` → series, in first-seen order.
type Table = Vec<((String, String), Series)>;

fn load(path: &str) -> Result<Table, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let mut t: Table = Vec::new();
    for (n, line) in text
        .lines()
        .enumerate()
        .filter(|(_, l)| !l.trim().is_empty())
    {
        let rec = json::parse(line).map_err(|e| format!("{path}:{}: {e}", n + 1))?;
        let wl = rec
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string();
        let mode = rec.get("mode").and_then(Json::as_str).unwrap_or("untraced");
        let wl = if mode == "traced" {
            format!("{wl} (traced)")
        } else {
            wl
        };
        for (name, m) in rec.get("metrics").and_then(Json::as_obj).unwrap_or(&[]) {
            let Some(v) = m.get("value").and_then(Json::as_f64) else {
                continue;
            };
            let key = (wl.clone(), name.clone());
            let idx = match t.iter().position(|(k, _)| *k == key) {
                Some(i) => i,
                None => {
                    t.push((key, Series::default()));
                    t.len() - 1
                }
            };
            let s = &mut t[idx].1;
            s.unit = m
                .get("unit")
                .and_then(Json::as_str)
                .unwrap_or("")
                .to_string();
            s.exact = m.get("exact") == Some(&Json::Bool(true));
            s.values.push(v);
        }
    }
    Ok(t)
}

/// `(bound, lower_is_better)` of an end-to-end metric in `BENCHMARK.json`.
fn bound_of(bench: Option<&Json>, metric: &str) -> Option<(f64, bool)> {
    let e2e = bench?.get("end_to_end")?.as_arr()?;
    let m = e2e
        .iter()
        .find(|m| m.get("name").and_then(Json::as_str) == Some(metric))?;
    Some((
        m.get("bound")?.as_f64()?,
        m.get("better").and_then(Json::as_str) == Some("lower"),
    ))
}

/// The verdict for one row.
fn verdict(a: &Series, b: &Series, bound: Option<(f64, bool)>) -> String {
    if a.exact || b.exact {
        let first = a.values[0];
        let same = a.values.iter().chain(&b.values).all(|&v| v == first);
        return if same {
            "identical".into()
        } else {
            "DIFFERS".into()
        };
    }
    let Some((bound, lower_better)) = bound else {
        return "no bound".into();
    };
    let spread = |s: &Series| {
        let (q1, q3) = quartiles(&s.values);
        let m = median(&s.values);
        if m == 0.0 {
            0.0
        } else {
            (q3 - q1) / m.abs()
        }
    };
    if spread(a) > bound || spread(b) > bound {
        return "unresolved (spread > bound)".into();
    }
    let (ma, mb) = (median(&a.values), median(&b.values));
    let change = if ma == 0.0 { 0.0 } else { (mb - ma) / ma.abs() };
    let worse = if lower_better { change } else { -change };
    if worse > bound {
        format!(
            "WORSE by {:.1}% (bound {:.0}%)",
            100.0 * worse,
            100.0 * bound
        )
    } else if worse < -bound {
        format!("better by {:.1}%", -100.0 * worse)
    } else {
        format!("within bound ({:+.1}%)", -100.0 * worse)
    }
}

fn summary(s: &Series) -> String {
    let (q1, q3) = quartiles(&s.values);
    format!(
        "{:>12} [{:>10}, {:>10}] n={}",
        fmt(median(&s.values)),
        fmt(q1),
        fmt(q3),
        s.values.len()
    )
}

fn fmt(x: f64) -> String {
    if x != 0.0 && (x.abs() >= 1e6 || x.abs() < 1e-3) {
        format!("{x:.4e}")
    } else {
        format!("{x:.4}")
    }
}

/// Renders the comparison table of two JSONL result files.
pub fn compare(a_path: &str, b_path: &str, bench: Option<&Json>) -> Result<String, String> {
    let a = load(a_path)?;
    let b = load(b_path)?;
    let mut out = format!(
        "{:<22} {:<34} {:<16} {:<40} {:<40} verdict\n",
        "workload", "metric", "unit", "A median [q1, q3]", "B median [q1, q3]"
    );
    for ((wl, metric), sa) in &a {
        let Some((_, sb)) = b.iter().find(|(k, _)| k.0 == *wl && k.1 == *metric) else {
            continue;
        };
        out.push_str(&format!(
            "{wl:<22} {metric:<34} {:<16} {:<40} {:<40} {}\n",
            sa.unit,
            summary(sa),
            summary(sb),
            verdict(sa, sb, bound_of(bench, metric))
        ));
    }
    Ok(out)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn series(values: &[f64], exact: bool) -> Series {
        Series {
            unit: "ms".into(),
            exact,
            values: values.to_vec(),
        }
    }

    #[test]
    fn verdicts() {
        let a = series(&[100.0, 101.0, 99.0], false);
        let b = series(&[120.0, 121.0, 119.0], false);
        assert!(verdict(&a, &b, Some((0.1, true))).starts_with("WORSE"));
        assert!(verdict(&a, &b, Some((0.1, false))).starts_with("better"));
        assert!(verdict(&a, &a, Some((0.1, true))).starts_with("within"));
        let wide = series(&[50.0, 100.0, 150.0, 200.0], false);
        assert!(verdict(&wide, &a, Some((0.1, true))).starts_with("unresolved"));
        assert_eq!(verdict(&a, &b, None), "no bound");
        let e = series(&[7.0, 7.0], true);
        assert_eq!(verdict(&e, &e, None), "identical");
        assert_eq!(verdict(&e, &series(&[7.0, 8.0], true), None), "DIFFERS");
    }
}
