//! The snapshot contract every resumable run checkpoints through, and the
//! TMC-Shapley permutation-walk snapshot.
//!
//! A [`Snapshot`] is a struct of plain fields plus the invariants they must
//! satisfy together. Its payload — the [`Json`] a [`crate::RunStore`]
//! record carries, and the form a run hands back to resume from — is one
//! object: the method tag, then every field. [`Snapshot::from_payload`]
//! checks the tag, reads each field through one typed reader ([`Fields`])
//! that owns the "missing / wrong type / not finite" errors, then runs the
//! type's invariant check. Floats are serialized shortest-round-trip (see
//! [`nde_data::json`]), so a resumed run is **bit-identical** to an
//! uninterrupted one.

use crate::error::RobustError;
use crate::Result;
use nde_data::json::Json;

/// A resumable run's snapshot: a method tag, a progress step, a field list
/// ([`snapshot_fields!`](crate::snapshot_fields)) and invariants.
pub trait Snapshot: Sized {
    /// Method tag written into every payload; decoding refuses any other.
    const METHOD: &'static str;

    /// Monotone progress step (permutations, samples, points, epochs or
    /// rounds done): the step the snapshot's store record is written under.
    fn step(&self) -> u64;

    /// Invariants the fields must satisfy together (lengths, bounds,
    /// counts). Field types and float finiteness are the reader's job.
    fn validate(&self) -> Result<()>;

    /// Every field as `(name, value)`, in payload order.
    fn fields(&self) -> Vec<(&'static str, Json)>;

    /// Rebuild the struct from a payload's fields.
    fn from_fields(fields: &Fields<'_>) -> Result<Self>;

    /// The payload: the method tag followed by every field.
    fn to_payload(&self) -> Json {
        let mut obj = vec![("method".to_string(), Json::Str(Self::METHOD.into()))];
        obj.extend(self.fields().into_iter().map(|(k, v)| (k.to_string(), v)));
        Json::Obj(obj)
    }

    /// Decode and validate a payload. Another method's payload, a missing
    /// or mistyped field, a non-finite float, or a broken invariant is a
    /// [`RobustError::Checkpoint`].
    fn from_payload(doc: &Json) -> Result<Self> {
        let fields = Fields::new(doc, "")?;
        let method: String = fields.get("method")?;
        if method != Self::METHOD {
            return Err(RobustError::Checkpoint(format!(
                "snapshot written by `{method}`, expected `{}`",
                Self::METHOD
            )));
        }
        let snapshot = Self::from_fields(&fields)?;
        snapshot.validate()?;
        Ok(snapshot)
    }
}

/// Implement [`Snapshot::fields`] and [`Snapshot::from_fields`] from one
/// list of the struct's fields, so encoding and decoding cannot disagree.
/// Use inside an `impl Snapshot for T` block; every listed field's type
/// must implement [`Field`], and the invoking crate must depend on
/// `nde_data`.
#[macro_export]
macro_rules! snapshot_fields {
    ($($field:ident),+ $(,)?) => {
        fn fields(&self) -> Vec<(&'static str, ::nde_data::json::Json)> {
            vec![$((stringify!($field), $crate::Field::encode(&self.$field))),+]
        }

        fn from_fields(fields: &$crate::Fields<'_>) -> $crate::Result<Self> {
            Ok(Self {
                $($field: fields.get(stringify!($field))?),+
            })
        }
    };
}

/// Typed reader over one payload object. [`Fields::get`] owns every decode
/// error and names the field's full path in it (`inflight.marginals[3]`).
#[derive(Debug)]
pub struct Fields<'a> {
    doc: &'a Json,
    path: &'a str,
}

impl<'a> Fields<'a> {
    /// A reader over `doc`, which must be an object. `path` is the
    /// object's own field path (empty for a whole payload); it prefixes
    /// the paths of the fields read through it.
    fn new(doc: &'a Json, path: &'a str) -> Result<Fields<'a>> {
        match doc {
            Json::Obj(_) => Ok(Fields { doc, path }),
            _ if path.is_empty() => Err(RobustError::Checkpoint("payload is not an object".into())),
            _ => Err(wrong(path, "an object")),
        }
    }

    /// Decode field `name`.
    pub fn get<T: Field>(&self, name: &str) -> Result<T> {
        let at = if self.path.is_empty() {
            name.to_string()
        } else {
            format!("{}.{name}", self.path)
        };
        match self.doc.get(name) {
            Some(value) => T::decode(value, &at),
            None => Err(RobustError::Checkpoint(format!("missing field `{at}`"))),
        }
    }
}

fn wrong(at: &str, what: &str) -> RobustError {
    RobustError::Checkpoint(format!("`{at}` is not {what}"))
}

/// A value a snapshot field can hold: its [`Json`] encoding and the
/// checked decode back (`at` is the field's path, for errors).
pub trait Field: Sized {
    /// The value as JSON.
    fn encode(&self) -> Json;
    /// The value back from JSON, or a [`RobustError::Checkpoint`].
    fn decode(value: &Json, at: &str) -> Result<Self>;
}

impl Field for u64 {
    fn encode(&self) -> Json {
        Json::UInt(*self)
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        value.as_u64().ok_or_else(|| wrong(at, "an integer"))
    }
}

impl Field for usize {
    fn encode(&self) -> Json {
        Json::UInt(*self as u64)
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        usize::try_from(u64::decode(value, at)?).map_err(|_| wrong(at, "a usize"))
    }
}

/// Floats must be finite: a permissive reader turns `1e999` into `+inf`,
/// and one non-finite running sum would poison every value folded after
/// resume.
impl Field for f64 {
    fn encode(&self) -> Json {
        Json::Float(*self)
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        match value.as_f64() {
            Some(v) if v.is_finite() => Ok(v),
            Some(_) => Err(wrong(at, "a finite number")),
            None => Err(wrong(at, "a number")),
        }
    }
}

impl Field for bool {
    fn encode(&self) -> Json {
        Json::Bool(*self)
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        value.as_bool().ok_or_else(|| wrong(at, "a boolean"))
    }
}

impl Field for String {
    fn encode(&self) -> Json {
        Json::Str(self.clone())
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        value
            .as_str()
            .map(str::to_string)
            .ok_or_else(|| wrong(at, "a string"))
    }
}

impl<T: Field> Field for Vec<T> {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Field::encode).collect())
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        let items = value.as_arr().ok_or_else(|| wrong(at, "an array"))?;
        items
            .iter()
            .enumerate()
            .map(|(i, v)| T::decode(v, &format!("{at}[{i}]")))
            .collect()
    }
}

/// `null` is `None`.
impl<T: Field> Field for Option<T> {
    fn encode(&self) -> Json {
        self.as_ref().map_or(Json::Null, Field::encode)
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        match value {
            Json::Null => Ok(None),
            v => T::decode(v, at).map(Some),
        }
    }
}

impl Field for [u64; 4] {
    fn encode(&self) -> Json {
        Json::Arr(self.iter().map(Field::encode).collect())
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        Vec::<u64>::decode(value, at)?
            .try_into()
            .map_err(|_| wrong(at, "a 4-word array"))
    }
}

/// Progress inside a single interrupted permutation walk.
///
/// When a utility-call budget trips partway through a permutation, the
/// runner records how far the prefix walk got so resume can continue the
/// walk **mid-permutation** instead of re-running it from scratch. The
/// permutation's shuffled order is not stored: it is reconstructed on
/// resume by re-shuffling with `child_seed(seed, cursor)`, and
/// [`McCheckpoint::rng_state`] carries the post-shuffle stream state.
#[derive(Debug, Clone, PartialEq)]
pub struct InflightPermutation {
    /// Number of prefix positions already folded (the walk resumes at
    /// `order[pos]`).
    pub pos: u64,
    /// Utility of the prefix `order[..pos]` (the subtrahend for the next
    /// marginal).
    pub prev_u: f64,
    /// Marginal contributions recorded so far in this permutation, indexed
    /// by example (zero for examples not yet reached).
    pub marginals: Vec<f64>,
}

impl Field for InflightPermutation {
    fn encode(&self) -> Json {
        Json::Obj(vec![
            ("pos".into(), self.pos.encode()),
            ("prev_u".into(), self.prev_u.encode()),
            ("marginals".into(), self.marginals.encode()),
        ])
    }
    fn decode(value: &Json, at: &str) -> Result<Self> {
        let fields = Fields::new(value, at)?;
        Ok(InflightPermutation {
            pos: fields.get("pos")?,
            prev_u: fields.get("prev_u")?,
            marginals: fields.get("marginals")?,
        })
    }
}

/// A resumable snapshot of a TMC-Shapley estimation.
#[derive(Debug, Clone, PartialEq)]
pub struct McCheckpoint {
    /// The base seed; permutation `p` derives its stream from
    /// `child_seed(seed, p)`.
    pub seed: u64,
    /// Number of scored training examples.
    pub n: usize,
    /// Truncation tolerance of the run that wrote the snapshot. It decides
    /// where every walk stops, so resume refuses any other tolerance.
    pub truncation_tolerance: f64,
    /// Next permutation index to run (permutations `0..cursor` are folded
    /// into the running sums already).
    pub cursor: u64,
    /// Cumulative utility evaluations across all segments of the run.
    pub utility_calls: u64,
    /// Raw xoshiro256** state of an in-flight stream, if the runner was
    /// interrupted mid-permutation (permutation-granular runners leave this
    /// `None` and restart the cursor's permutation from its child seed).
    pub rng_state: Option<[u64; 4]>,
    /// Walk progress inside permutation `cursor`, if the runner was
    /// interrupted mid-permutation. `None` means the run stopped exactly on
    /// a permutation boundary.
    pub inflight: Option<InflightPermutation>,
    /// Running sum of marginal contributions per example.
    pub totals: Vec<f64>,
    /// Running sum of squared marginal contributions per example (for
    /// standard-error diagnostics).
    pub totals_sq: Vec<f64>,
}

impl McCheckpoint {
    /// A fresh checkpoint at permutation 0 with zeroed sums.
    pub fn fresh(seed: u64, n: usize, truncation_tolerance: f64) -> McCheckpoint {
        McCheckpoint {
            seed,
            n,
            truncation_tolerance,
            cursor: 0,
            utility_calls: 0,
            rng_state: None,
            inflight: None,
            totals: vec![0.0; n],
            totals_sq: vec![0.0; n],
        }
    }
}

impl Snapshot for McCheckpoint {
    const METHOD: &'static str = "tmc-shapley";

    fn step(&self) -> u64 {
        self.cursor
    }

    /// Vector lengths match `n`, and in-flight state is well-formed.
    fn validate(&self) -> Result<()> {
        if self.totals.len() != self.n || self.totals_sq.len() != self.n {
            return Err(RobustError::Checkpoint(format!(
                "checkpoint claims n={} but holds {} totals / {} squared totals",
                self.n,
                self.totals.len(),
                self.totals_sq.len()
            )));
        }
        if let Some(inflight) = &self.inflight {
            if inflight.marginals.len() != self.n {
                return Err(RobustError::Checkpoint(format!(
                    "in-flight state claims n={} but holds {} marginals",
                    self.n,
                    inflight.marginals.len()
                )));
            }
            if inflight.pos > self.n as u64 {
                return Err(RobustError::Checkpoint(format!(
                    "in-flight position {} exceeds n={}",
                    inflight.pos, self.n
                )));
            }
            if self.rng_state.is_none() {
                return Err(RobustError::Checkpoint(
                    "in-flight state requires `rng_state` to reconstruct the stream".into(),
                ));
            }
        }
        Ok(())
    }

    crate::snapshot_fields!(
        seed,
        n,
        truncation_tolerance,
        cursor,
        utility_calls,
        rng_state,
        inflight,
        totals,
        totals_sq,
    );
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> McCheckpoint {
        McCheckpoint {
            seed: u64::MAX - 7,
            n: 3,
            truncation_tolerance: 0.0,
            cursor: 41,
            utility_calls: 1234,
            rng_state: Some([1, u64::MAX, 0, 99]),
            inflight: Some(InflightPermutation {
                pos: 2,
                prev_u: 0.625 + 1e-16,
                marginals: vec![0.25, -0.125, 0.0],
            }),
            totals: vec![0.1 + 0.2, -1.5e-13, 1.0 / 3.0],
            totals_sq: vec![0.09, 2.25e-26, 1.0 / 9.0],
        }
    }

    fn error_of(payload: &Json) -> String {
        match McCheckpoint::from_payload(payload) {
            Err(RobustError::Checkpoint(msg)) => msg,
            other => panic!("expected a checkpoint error, got {other:?}"),
        }
    }

    /// Replace the value at a dotted path of `payload`.
    fn set(payload: &mut Json, path: &[&str], value: Json) {
        let mut node = payload;
        for key in path {
            let Json::Obj(fields) = node else {
                panic!("no object at {key}")
            };
            node = &mut fields.iter_mut().find(|(k, _)| k == key).expect(key).1;
        }
        *node = value;
    }

    #[test]
    fn json_roundtrip_is_bit_identical() {
        // Through text and back: every nested field kind (fixed array,
        // option, nested object, float vectors) restores bit-for-bit.
        let ckpt = sample();
        let text = ckpt.to_payload().to_string_pretty();
        let back = McCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap();
        assert_eq!(back, ckpt);
        let bits = |c: &McCheckpoint| -> Vec<u64> {
            let inflight = c.inflight.as_ref().unwrap();
            c.totals
                .iter()
                .chain(&c.totals_sq)
                .chain(&inflight.marginals)
                .chain([&inflight.prev_u])
                .map(|v| v.to_bits())
                .collect()
        };
        assert_eq!(bits(&back), bits(&ckpt));
        assert_eq!(ckpt.step(), 41);
    }

    #[test]
    fn corrupt_checkpoints_are_typed_errors() {
        assert!(error_of(&Json::Obj(vec![])).contains("missing field `method`"));
        assert!(error_of(&Json::Arr(vec![])).contains("payload is not an object"));
        // Inconsistent n vs. totals length.
        let mut ckpt = sample();
        ckpt.totals.pop();
        assert!(error_of(&ckpt.to_payload()).contains("n=3"));
    }

    #[test]
    fn fresh_checkpoint_is_zeroed() {
        let ckpt = McCheckpoint::fresh(9, 4, 0.5);
        assert_eq!(ckpt.cursor, 0);
        assert_eq!(ckpt.totals, vec![0.0; 4]);
        assert_eq!(ckpt.truncation_tolerance, 0.5);
        assert!(ckpt.inflight.is_none());
        assert!(ckpt.validate().is_ok());
    }

    #[test]
    fn malformed_inflight_is_rejected() {
        // Marginals length must match n.
        let mut ckpt = sample();
        ckpt.inflight.as_mut().unwrap().marginals.pop();
        assert!(error_of(&ckpt.to_payload()).contains("marginals"));
        // In-flight state without an RNG stream to resume is unusable.
        let mut ckpt = sample();
        ckpt.rng_state = None;
        assert!(error_of(&ckpt.to_payload()).contains("rng_state"));
        // Position can't exceed n.
        let mut ckpt = sample();
        ckpt.inflight.as_mut().unwrap().pos = 99;
        assert!(error_of(&ckpt.to_payload()).contains("position 99"));
    }

    #[test]
    fn truncated_serializations_never_panic() {
        // A torn write can cut the text at any byte; every prefix must fail
        // to parse or decode as a typed error (the full text decodes).
        let text = sample().to_payload().to_string_pretty();
        for cut in 0..text.len() {
            if let Ok(doc) = Json::parse(&text[..cut]) {
                error_of(&doc);
            }
        }
        assert_eq!(
            McCheckpoint::from_payload(&Json::parse(&text).unwrap()).unwrap(),
            sample()
        );
    }

    #[test]
    fn non_finite_float_encodings_are_rejected() {
        // The reader refuses `+inf` (what `1e999` parses to) in scalar,
        // vector and nested float fields, naming the full path.
        let inf = Json::Float(f64::INFINITY);
        let cases: [(&[&str], Json, &str); 3] = [
            (
                &["truncation_tolerance"],
                inf.clone(),
                "`truncation_tolerance`",
            ),
            (
                &["totals"],
                Json::Arr(vec![Json::UInt(0), inf.clone()]),
                "`totals[1]`",
            ),
            (&["inflight", "prev_u"], inf, "`inflight.prev_u`"),
        ];
        for (path, value, at) in cases {
            let mut payload = sample().to_payload();
            set(&mut payload, path, value);
            let msg = error_of(&payload);
            assert!(
                msg.contains(&format!("{at} is not a finite number")),
                "{msg}"
            );
        }
    }

    #[test]
    fn wrong_type_fields_are_rejected() {
        let cases: [(&[&str], Json, &str); 8] = [
            (&["method"], Json::UInt(17), "`method` is not a string"),
            (
                &["seed"],
                Json::Str("huge".into()),
                "`seed` is not an integer",
            ),
            (
                &["cursor"],
                Json::Float(-41.0),
                "`cursor` is not an integer",
            ),
            (&["utility_calls"], Json::Arr(vec![]), "is not an integer"),
            (
                &["rng_state"],
                Json::Arr(vec![Json::UInt(4)]),
                "4-word array",
            ),
            (&["inflight", "pos"], Json::Float(2.5), "`inflight.pos`"),
            (
                &["inflight"],
                Json::Bool(true),
                "`inflight` is not an object",
            ),
            (
                &["totals"],
                Json::Str("[".into()),
                "`totals` is not an array",
            ),
        ];
        for (path, value, expect) in cases {
            let mut payload = sample().to_payload();
            set(&mut payload, path, value);
            let msg = error_of(&payload);
            assert!(msg.contains(expect), "{path:?}: {msg}");
        }
    }

    #[test]
    fn random_mutations_error_or_validate_but_never_panic() {
        use nde_data::rng::{seeded, Rng};
        // Property test: hammer the serialized text with random byte edits.
        // Every outcome must be a parse error, a typed checkpoint error, or
        // a snapshot that passes `validate()` with only finite floats.
        let text = sample().to_payload().to_string_pretty();
        let mut rng = seeded(0xC4A05);
        for _ in 0..600 {
            let mut bytes = text.clone().into_bytes();
            for _ in 0..1 + rng.gen_range(0..4usize) {
                let i = rng.gen_range(0..bytes.len());
                bytes[i] = rng.gen_range(32..127usize) as u8;
            }
            let Ok(mutated) = String::from_utf8(bytes) else {
                continue;
            };
            let Ok(doc) = Json::parse(&mutated) else {
                continue;
            };
            match McCheckpoint::from_payload(&doc) {
                Ok(ckpt) => {
                    assert!(ckpt.validate().is_ok());
                    assert!(ckpt.truncation_tolerance.is_finite());
                    assert!(ckpt.totals.iter().all(|v| v.is_finite()));
                    assert!(ckpt.totals_sq.iter().all(|v| v.is_finite()));
                    if let Some(inflight) = &ckpt.inflight {
                        assert!(inflight.prev_u.is_finite());
                        assert!(inflight.marginals.iter().all(|v| v.is_finite()));
                    }
                }
                Err(e) => assert!(matches!(e, RobustError::Checkpoint(_)), "{e:?}"),
            }
        }
    }
}
