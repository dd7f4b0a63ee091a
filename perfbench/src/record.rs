//! Benchmark records: what was measured, under which identity, and the rule
//! that only records with the same identity are ever compared.

use crate::stats::Summary;
use nde_data::fxhash::hash_bytes;
use nde_data::json::Json;

/// The fields that decide whether two records measure the same thing. Two
/// records that differ in any of them are never compared: a different
/// scale, seed or machine class is a different experiment, not a
/// regression.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Identity {
    /// Workload name.
    pub workload: String,
    /// Input seed.
    pub seed: u64,
    /// Digest of every setting that shapes the work (see [`config_hash`]).
    pub config_hash: String,
    /// Machine class the record was taken on (see [`runner`]).
    pub runner: String,
}

/// One metric of a record: its unit and the summary of its samples.
#[derive(Debug, Clone, PartialEq)]
pub struct MetricRecord {
    /// `[A-Za-z0-9_.-]` name.
    pub name: String,
    /// Unit, e.g. `s`, `ms`, `count`.
    pub unit: String,
    /// Median and quartiles over the run's samples.
    pub summary: Summary,
}

/// Everything one benchmark process measured.
#[derive(Debug, Clone, PartialEq)]
pub struct Record {
    /// Comparison key.
    pub identity: Identity,
    /// Hardware threads the process could use.
    pub hw_threads: usize,
    /// Operations attempted (library calls plus correctness checks).
    pub attempted: u64,
    /// Failed operations plus failed correctness checks.
    pub failed: u64,
    /// Per-metric summaries.
    pub metrics: Vec<MetricRecord>,
}

/// Hex FxHash digest of a canonical config rendering.
pub fn config_hash(config: &str) -> String {
    format!("{:016x}", hash_bytes(config.as_bytes()))
}

/// Hardware threads available to this process (`nproc`).
pub fn hw_threads() -> usize {
    std::thread::available_parallelism().map_or(1, |n| n.get())
}

/// Machine class: architecture, operating system and hardware threads.
pub fn runner() -> String {
    format!(
        "{}-{}-{}t",
        std::env::consts::ARCH,
        std::env::consts::OS,
        hw_threads()
    )
}

/// Whether `name` is a legal metric name: starts with a letter or digit,
/// at most 64 characters from `[A-Za-z0-9_.-]`.
pub fn valid_metric_name(name: &str) -> bool {
    let ok = |c: char| c.is_ascii_alphanumeric() || matches!(c, '_' | '.' | '-');
    name.len() <= 64
        && name
            .chars()
            .next()
            .is_some_and(|c| c.is_ascii_alphanumeric())
        && name.chars().all(ok)
}

/// `Ok` iff the two records may be compared; otherwise names the first
/// identity field that differs.
pub fn comparable(a: &Identity, b: &Identity) -> Result<(), String> {
    let fields = [
        ("workload", a.workload.clone(), b.workload.clone()),
        ("seed", a.seed.to_string(), b.seed.to_string()),
        ("config_hash", a.config_hash.clone(), b.config_hash.clone()),
        ("runner", a.runner.clone(), b.runner.clone()),
    ];
    match fields.into_iter().find(|(_, x, y)| x != y) {
        Some((field, x, y)) => Err(format!("records differ in {field} ({x} vs {y})")),
        None => Ok(()),
    }
}

/// Relative change of each shared metric's median from `base` to `new`
/// (`+0.05` = 5% higher), refusing records whose identities differ.
pub fn compare(base: &Record, new: &Record) -> Result<Vec<(String, f64)>, String> {
    comparable(&base.identity, &new.identity)?;
    Ok(base
        .metrics
        .iter()
        .filter_map(|b| {
            let n = new.metrics.iter().find(|m| m.name == b.name)?;
            let change = if b.summary.median == 0.0 {
                0.0
            } else {
                n.summary.median / b.summary.median - 1.0
            };
            Some((b.name.clone(), change))
        })
        .collect())
}

fn num(v: f64) -> Json {
    Json::Float(if v.is_finite() { v } else { 0.0 })
}

impl Record {
    /// The record as a JSON object.
    pub fn to_json(&self) -> Json {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                let s = &m.summary;
                let body = Json::Obj(vec![
                    ("unit".into(), Json::Str(m.unit.clone())),
                    ("n".into(), Json::UInt(s.n as u64)),
                    ("q1".into(), num(s.q1)),
                    ("median".into(), num(s.median)),
                    ("q3".into(), num(s.q3)),
                ]);
                (m.name.clone(), body)
            })
            .collect();
        Json::Obj(vec![
            ("workload".into(), Json::Str(self.identity.workload.clone())),
            ("seed".into(), Json::UInt(self.identity.seed)),
            (
                "config_hash".into(),
                Json::Str(self.identity.config_hash.clone()),
            ),
            ("runner".into(), Json::Str(self.identity.runner.clone())),
            ("hw_threads".into(), Json::UInt(self.hw_threads as u64)),
            ("attempted".into(), Json::UInt(self.attempted)),
            ("failed".into(), Json::UInt(self.failed)),
            ("metrics".into(), Json::Obj(metrics)),
        ])
    }

    /// Parse a record written by [`Record::to_json`].
    pub fn from_json(doc: &Json) -> Result<Record, String> {
        let field = |k: &str| doc.get(k).ok_or_else(|| format!("record lacks `{k}`"));
        let text = |k: &str| -> Result<String, String> {
            field(k)?
                .as_str()
                .map(str::to_owned)
                .ok_or_else(|| format!("`{k}` is not a string"))
        };
        let uint = |k: &str| -> Result<u64, String> {
            field(k)?
                .as_u64()
                .ok_or_else(|| format!("`{k}` is not an integer"))
        };
        let Some(Json::Obj(entries)) = doc.get("metrics") else {
            return Err("record lacks a `metrics` object".into());
        };
        let mut metrics = Vec::with_capacity(entries.len());
        for (name, body) in entries {
            let f = |k: &str| {
                body.get(k)
                    .and_then(Json::as_f64)
                    .ok_or_else(|| format!("metric `{name}` lacks `{k}`"))
            };
            metrics.push(MetricRecord {
                name: name.clone(),
                unit: body
                    .get("unit")
                    .and_then(Json::as_str)
                    .unwrap_or_default()
                    .to_owned(),
                summary: Summary {
                    n: f("n")? as usize,
                    q1: f("q1")?,
                    median: f("median")?,
                    q3: f("q3")?,
                },
            });
        }
        Ok(Record {
            identity: Identity {
                workload: text("workload")?,
                seed: uint("seed")?,
                config_hash: text("config_hash")?,
                runner: text("runner")?,
            },
            hw_threads: uint("hw_threads")? as usize,
            attempted: uint("attempted")?,
            failed: uint("failed")?,
            metrics,
        })
    }
}

/// Single-line JSON rendering (the in-tree printer is multi-line).
pub fn compact(doc: &Json) -> String {
    let mut out = String::new();
    write_compact(doc, &mut out);
    out
}

fn write_compact(doc: &Json, out: &mut String) {
    match doc {
        Json::Null => out.push_str("null"),
        Json::Bool(b) => out.push_str(if *b { "true" } else { "false" }),
        Json::UInt(u) => out.push_str(&u.to_string()),
        Json::Float(f) if f.is_finite() => out.push_str(&format!("{f:?}")),
        Json::Float(_) => out.push_str("null"),
        Json::Str(s) => write_str(s, out),
        Json::Arr(items) => {
            out.push('[');
            for (i, item) in items.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_compact(item, out);
            }
            out.push(']');
        }
        Json::Obj(entries) => {
            out.push('{');
            for (i, (k, v)) in entries.iter().enumerate() {
                if i > 0 {
                    out.push_str(", ");
                }
                write_str(k, out);
                out.push_str(": ");
                write_compact(v, out);
            }
            out.push('}');
        }
    }
}

fn write_str(s: &str, out: &mut String) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
}

#[cfg(test)]
mod tests {
    use super::*;

    fn identity(config: &str) -> Identity {
        Identity {
            workload: "fix-stream".into(),
            seed: 7,
            config_hash: config_hash(config),
            runner: "x86_64-linux-2t".into(),
        }
    }

    fn record(config: &str, median: f64) -> Record {
        Record {
            identity: identity(config),
            hw_threads: 2,
            attempted: 10,
            failed: 0,
            metrics: vec![MetricRecord {
                name: "wall_s".into(),
                unit: "s".into(),
                summary: Summary {
                    n: 5,
                    q1: median * 0.9,
                    median,
                    q3: median * 1.1,
                },
            }],
        }
    }

    #[test]
    fn metric_names_use_only_the_allowed_alphabet() {
        for ok in [
            "wall_s",
            "pipeline.delta.apply_us.cell_patch",
            "data.pool.jobs",
            "p-99",
        ] {
            assert!(valid_metric_name(ok), "{ok}");
        }
        for bad in [
            "",
            "_lead",
            ".lead",
            "has space",
            "a/b",
            "ms%",
            &"x".repeat(65),
        ] {
            assert!(!valid_metric_name(bad), "{bad}");
        }
    }

    #[test]
    fn records_with_different_config_hashes_are_not_compared() {
        let small = record("letters=200", 1.0);
        let large = record("letters=2000", 2.0);
        let err = compare(&small, &large).unwrap_err();
        assert!(err.contains("config_hash"), "{err}");
        let mut other_seed = record("letters=200", 1.1);
        other_seed.identity.seed = 8;
        assert!(compare(&small, &other_seed).unwrap_err().contains("seed"));
        let same = record("letters=200", 1.1);
        let delta = compare(&small, &same).unwrap();
        assert_eq!(delta.len(), 1);
        assert!((delta[0].1 - 0.1).abs() < 1e-12);
    }

    #[test]
    fn record_round_trips_through_json() {
        let r = record("letters=200", 1.25);
        let text = compact(&r.to_json());
        assert!(!text.contains('\n'));
        let back = Record::from_json(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, r);
    }
}
