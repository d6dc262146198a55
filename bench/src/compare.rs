//! `--compare a.json b.json`: the repeatability evaluator. For every
//! metric × workload present in both result files it prints both values,
//! the change, the recorded per-repeat spread and the bound, and a
//! verdict. `a` is the baseline, `b` the candidate.

use crate::json::Json;
use crate::manifest::{Better, END_TO_END, PER_LAYER};

/// What one metric × workload pair came to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Verdict {
    /// Within the bound (or, for an exact metric, equal to the digit).
    Same,
    /// Better by more than the bound, or every repeat better.
    Better,
    /// Worse by more than the bound; an exact metric that got worse.
    Worse,
    /// The repeats spread wider than the bound, so the pair cannot be
    /// called unchanged.
    Unresolved,
    /// A per-layer metric: reported, never judged.
    Info,
}

impl Verdict {
    fn as_str(self) -> &'static str {
        match self {
            Verdict::Same => "same",
            Verdict::Better => "better",
            Verdict::Worse => "worse",
            Verdict::Unresolved => "unresolved",
            Verdict::Info => "-",
        }
    }
}

/// One side's reading of a metric: the value and its per-repeat range.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Reading {
    /// Median over repeats.
    pub value: f64,
    /// Smallest repeat.
    pub min: f64,
    /// Largest repeat.
    pub max: f64,
}

impl Reading {
    fn from_json(j: &Json) -> Option<Reading> {
        let value = j.get("value")?.as_f64()?;
        Some(Reading {
            value,
            min: j.get("min").and_then(Json::as_f64).unwrap_or(value),
            max: j.get("max").and_then(Json::as_f64).unwrap_or(value),
        })
    }

    /// The per-repeat range as a share of the value.
    fn spread(&self) -> f64 {
        if self.value == 0.0 {
            0.0
        } else {
            (self.max - self.min) / self.value.abs()
        }
    }
}

/// Judges one end-to-end metric.
pub fn judge(a: Reading, b: Reading, better: Better, bound: f64, exact: bool) -> Verdict {
    let worsening = better.worsening(a.value, b.value);
    if exact {
        return if a.value == b.value {
            Verdict::Same
        } else if worsening > 0.0 {
            Verdict::Worse
        } else {
            Verdict::Better
        };
    }
    if a.spread().max(b.spread()) > bound {
        // Too noisy to call unchanged — unless every repeat of `b` beats
        // every repeat of `a`.
        let all_better = match better {
            Better::Lower => b.max < a.min,
            Better::Higher => b.min > a.max,
        };
        return if all_better {
            Verdict::Better
        } else {
            Verdict::Unresolved
        };
    }
    if worsening > bound {
        Verdict::Worse
    } else if worsening < -bound {
        Verdict::Better
    } else {
        Verdict::Same
    }
}

/// The results in a file: a single run's result, or a baseline's
/// `results` array.
fn results(doc: &Json) -> Vec<&Json> {
    match doc.get("results").and_then(Json::as_arr) {
        Some(items) => items.iter().collect(),
        None => vec![doc],
    }
}

fn key(result: &Json) -> (String, bool, u64) {
    (
        result
            .get("workload")
            .and_then(Json::as_str)
            .unwrap_or("?")
            .to_string(),
        result.get("trace") == Some(&Json::Bool(true)),
        result.get("seed").and_then(Json::as_f64).unwrap_or(0.0) as u64,
    )
}

/// Compares two parsed result files, printing the table. Returns whether
/// every judged pair is `same` or `better` and every digest agrees.
pub fn compare(a: &Json, b: &Json) -> bool {
    let mut ok = true;
    let mut judged = 0;
    println!(
        "{:<14} {:<40} {:>14} {:>14} {:>8} {:>8} {:>6}  verdict",
        "workload", "metric", "a", "b", "delta", "spread", "bound"
    );
    for ra in results(a) {
        let ka = key(ra);
        let Some(rb) = results(b)
            .into_iter()
            .find(|rb| (key(rb).0.as_str(), key(rb).1) == (ka.0.as_str(), ka.1))
        else {
            continue;
        };
        let same_seed = key(rb).2 == ka.2;
        let (Some(ma), Some(mb)) = (ra.get("metrics").and_then(Json::as_obj), rb.get("metrics"))
        else {
            continue;
        };
        for (name, ja) in ma {
            let (Some(va), Some(vb)) = (
                Reading::from_json(ja),
                mb.get(name).and_then(Reading::from_json),
            ) else {
                continue;
            };
            let spec = END_TO_END.iter().find(|m| m.name == name);
            let layer = PER_LAYER.iter().find(|m| m.0 == name);
            let (better, bound, verdict) = match (spec, layer) {
                (Some(m), _) => {
                    let exact = m.exact && same_seed;
                    (
                        m.better,
                        Some(m.bound),
                        judge(va, vb, m.better, m.bound, exact),
                    )
                }
                (None, Some(&(_, _, better))) => (better, None, Verdict::Info),
                (None, None) => continue,
            };
            let delta = -better.worsening(va.value, vb.value);
            println!(
                "{:<14} {:<40} {:>14.6} {:>14.6} {:>+7.2}% {:>7.2}% {:>6}  {}",
                ka.0,
                name,
                va.value,
                vb.value,
                delta * 100.0,
                va.spread().max(vb.spread()) * 100.0,
                bound.map_or("-".to_string(), |b| format!("{:.0}%", b * 100.0)),
                verdict.as_str()
            );
            if verdict != Verdict::Info {
                judged += 1;
            }
            ok &= !matches!(verdict, Verdict::Worse | Verdict::Unresolved);
        }
        if same_seed {
            let (da, db) = (ra.get("digest"), rb.get("digest"));
            let equal = da.is_some() && da == db;
            println!(
                "{:<14} {:<40} {:>16} {:>16} {:>4} {:>4} {:>6}  {}",
                ka.0,
                "graph digest",
                da.and_then(Json::as_str).unwrap_or("?"),
                db.and_then(Json::as_str).unwrap_or("?"),
                "",
                "",
                "exact",
                if equal { "same" } else { "worse" }
            );
            judged += 1;
            ok &= equal;
        }
    }
    println!(
        "{judged} pair(s) judged: {}",
        if ok {
            "no regression, nothing unresolved"
        } else {
            "at least one worse or unresolved"
        }
    );
    ok && judged > 0
}

#[cfg(test)]
mod tests {
    use super::*;

    fn r(value: f64, min: f64, max: f64) -> Reading {
        Reading { value, min, max }
    }

    #[test]
    fn verdicts_follow_bound_spread_and_direction() {
        let tight = |v: f64| r(v, v * 0.99, v * 1.01);
        assert_eq!(
            judge(tight(100.0), tight(105.0), Better::Lower, 0.1, false),
            Verdict::Same
        );
        assert_eq!(
            judge(tight(100.0), tight(115.0), Better::Lower, 0.1, false),
            Verdict::Worse
        );
        assert_eq!(
            judge(tight(100.0), tight(85.0), Better::Lower, 0.1, false),
            Verdict::Better
        );
        assert_eq!(
            judge(tight(100.0), tight(85.0), Better::Higher, 0.1, false),
            Verdict::Worse
        );
        // Spread wider than the bound: unresolved, unless b wins outright.
        let wide = r(100.0, 90.0, 110.0);
        assert_eq!(
            judge(wide, tight(100.0), Better::Lower, 0.1, false),
            Verdict::Unresolved
        );
        assert_eq!(
            judge(wide, tight(80.0), Better::Lower, 0.1, false),
            Verdict::Better
        );
    }

    #[test]
    fn exact_metrics_must_match_to_the_digit() {
        let a = r(0.7875, 0.7875, 0.7875);
        assert_eq!(judge(a, a, Better::Higher, 0.02, true), Verdict::Same);
        let b = r(0.7874, 0.7874, 0.7874);
        assert_eq!(judge(a, b, Better::Higher, 0.02, true), Verdict::Worse);
        assert_eq!(judge(b, a, Better::Higher, 0.02, true), Verdict::Better);
    }
}
