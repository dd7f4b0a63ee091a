//! Incremental view maintenance for executed pipelines.
//!
//! Prioritized cleaning (paper §3) applies one small fix at a time — flip a
//! label, correct a rating, drop a duplicate — and re-evaluates the model
//! after each. Re-running the whole pipeline per fix costs milliseconds for
//! work whose footprint is a handful of rows. A [`PipelineSession`] keeps
//! the executed run alive (every operator's table and routing trace) and
//! applies a single-tuple [`Delta`] by pushing it *forward* through the
//! operator DAG:
//!
//! - **Cell patch** ([`DeltaPath::CellPatch`]): an [`Delta::Update`] that
//!   cannot change any routing decision (join keys, filter predicates,
//!   distinct keys untouched) patches the changed cells of affected rows in
//!   place: each node table on the row's path is written where it lives,
//!   nothing is copied. Routing is identical by construction.
//! - **Splice** ([`DeltaPath::Splice`]): an [`Delta::Insert`] or
//!   [`Delta::Delete`] re-decides routing only where the changed tuple can
//!   reach, carrying a per-node row map (old row → new row).
//! - **Rerun** ([`DeltaPath::Rerun`]): anything the incremental paths
//!   cannot prove safe (a join-key update, an operator error on a spliced
//!   row) falls back to full re-execution — so every apply, whatever path
//!   it takes, leaves the session in exactly the state a fresh run over the
//!   mutated inputs would produce. Row identity survives the rerun: the old
//!   and new routing traces are diffed bottom-up into the same monotone row
//!   maps a splice builds, starting from the source delta (an update
//!   replaces its row, so that row maps to nothing and is re-inserted).
//!
//! An update that stores the value the cell already holds is *unchanged*:
//! it passes every check a real write does (bounds, column, type, with an
//! `Int` coerced into a `Float` column), then stops at the source. Values
//! compare bit for bit, so `-0.0` over `0.0` or a NaN with another payload
//! is still a change. An unchanged write reports a cell patch with no
//! affected rows and counts in [`DeltaStats::unchanged`].
//!
//! A cell-patch walk may bail out after it has written some node tables:
//! a tainted column meets a routing decision further down, or an operator
//! fails on the new value. Every bail-out ends in the rerun fallback,
//! which replaces every node table from the (already mutated) inputs, so
//! no half-patched table outlives the apply. The rerun diff reads only the
//! old tables' row counts, which a cell patch never changes. A rerun that
//! fails poisons the session, as it would after any other path.
//!
//! The session holds no provenance. Routing traces determine it: a fresh
//! provenance-tracked run interns arena nodes in the recorded evaluation
//! order, so [`PipelineSession::lineage`] replays that interning on demand
//! and reproduces the arena *bit for bit* (hash-consing is deterministic in
//! interning order). No apply pays for provenance nobody reads.
//!
//! The differential test suite (`tests/tests/incremental_delta.rs`) holds
//! the session to that contract: identical output table, identical lineage
//! (same arena node ids), at every thread count.

use crate::exec::{catch_tuple_panic, Executor, NodeTrace, PanicPolicy};
use crate::plan::{JoinType, NodeId, Plan, PlanNode};
use crate::provenance::{Lineage, ProvArena, ProvId, TupleId};
use crate::{PipelineError, Result};
use nde_data::fxhash::FxHashMap;
use nde_data::{join_key_matches, Column, Field, Table, Value};

/// One single-tuple change to a named source table.
#[derive(Debug, Clone, PartialEq)]
pub enum Delta {
    /// Overwrite one cell of one source row.
    Update {
        /// Source table name (as registered in the plan).
        source: String,
        /// Row index within the source table.
        row: usize,
        /// Column to overwrite.
        column: String,
        /// The new value (type-checked against the column).
        value: Value,
    },
    /// Append one row to a source table.
    Insert {
        /// Source table name.
        source: String,
        /// The new row, one value per column.
        values: Vec<Value>,
    },
    /// Remove one row from a source table (later rows shift down).
    Delete {
        /// Source table name.
        source: String,
        /// Row index to remove.
        row: usize,
    },
}

impl Delta {
    /// The source table this delta targets.
    pub fn source(&self) -> &str {
        match self {
            Delta::Update { source, .. }
            | Delta::Insert { source, .. }
            | Delta::Delete { source, .. } => source,
        }
    }
}

/// How a consumer of pipeline runs reacts to accepted fixes: re-execute
/// from scratch, or maintain the run incrementally via [`PipelineSession`].
/// Both modes produce bit-identical results; `Incremental` trades the
/// per-fix full re-execution for delta propagation.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub enum MaintenanceMode {
    /// Re-run the pipeline after every accepted fix (the seed behavior).
    #[default]
    Rerun,
    /// Maintain the executed run with [`PipelineSession::apply`].
    Incremental,
}

/// Which propagation path an [`PipelineSession::apply`] call took.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum DeltaPath {
    /// Cells patched in place; routing untouched.
    CellPatch,
    /// Routing re-decided along the changed tuple's reach.
    Splice,
    /// Full re-execution (routing-relevant update, or an incremental path
    /// that could not complete); the row map is recovered by diffing the
    /// old and new routing traces.
    Rerun,
}

/// Counters over a session's lifetime.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct DeltaStats {
    /// Deltas applied successfully.
    pub applied: usize,
    /// Applies that took [`DeltaPath::CellPatch`], unchanged writes
    /// included.
    pub cell_patches: usize,
    /// Updates that stored the value the cell already held (bit for bit):
    /// validated, then stopped at the source without walking the DAG.
    /// Counted in `applied` and `cell_patches` too.
    pub unchanged: usize,
    /// Applies that took [`DeltaPath::Splice`].
    pub splices: usize,
    /// Applies that fell back to [`DeltaPath::Rerun`].
    pub reruns: usize,
    /// Output rows rewritten incrementally (patched or spliced at the
    /// root), summed over all applies.
    pub rows_patched: usize,
}

/// What one [`PipelineSession::apply`] did to the root output.
#[derive(Debug, Clone, PartialEq)]
pub struct DeltaOutcome {
    /// The propagation path taken.
    pub path: DeltaPath,
    /// Root output rows whose content changed (cell patch), or that no
    /// old row maps to (splice, rerun): the only rows a consumer must
    /// re-derive. Ascending.
    pub affected_rows: Vec<usize>,
    /// For [`DeltaPath::Splice`] and [`DeltaPath::Rerun`]: where each
    /// *old* root row went (`None` = the row no longer exists, or its
    /// content changed). The map is monotone and value-preserving: a mapped
    /// new row is bit-identical to its old row. Absent on a cell patch,
    /// which keeps rows in place.
    pub row_map: Option<Vec<Option<usize>>>,
}

/// Per-node row bookkeeping for a splice or a rerun: how the node's old
/// output rows map into its new output, which new rows have no old
/// counterpart, and the new row count. Maps are monotone (old row order is
/// preserved) and value-preserving (a mapped row keeps its content).
#[derive(Debug, Clone)]
struct NodeDelta {
    /// `map[old_row]` = new row, or `None` if the row disappeared or its
    /// content changed.
    map: Vec<Option<usize>>,
    /// New rows with no old counterpart, ascending.
    inserted: Vec<usize>,
    /// New output length.
    new_len: usize,
    /// Fast path: `map` is the identity and nothing was inserted.
    identity: bool,
}

impl NodeDelta {
    fn identity(len: usize) -> NodeDelta {
        NodeDelta {
            map: (0..len).map(Some).collect(),
            inserted: Vec::new(),
            new_len: len,
            identity: true,
        }
    }

    /// A source table after row `row` of `len` was replaced in place: the
    /// row's content changed, so it maps to nothing and is re-inserted.
    fn replaced(len: usize, row: usize) -> NodeDelta {
        let mut delta = NodeDelta::identity(len);
        delta.map[row] = None;
        delta.inserted.push(row);
        delta.identity = false;
        delta
    }

    /// A source table after one row was appended to its `len` rows.
    fn appended(len: usize) -> NodeDelta {
        let mut delta = NodeDelta::identity(len);
        delta.inserted.push(len);
        delta.new_len = len + 1;
        delta.identity = false;
        delta
    }

    /// A source table after row `row` of `len` was removed.
    fn removed(len: usize, row: usize) -> NodeDelta {
        NodeDelta {
            map: (0..len)
                .map(|i| match i.cmp(&row) {
                    std::cmp::Ordering::Less => Some(i),
                    std::cmp::Ordering::Equal => None,
                    std::cmp::Ordering::Greater => Some(i - 1),
                })
                .collect(),
            inserted: Vec::new(),
            new_len: len - 1,
            identity: false,
        }
    }

    /// Match each old row's routing key, pushed through the child row maps
    /// (`None` = a child row it came from is gone), against the new routing
    /// keys. Both sequences ascend (child maps are monotone), so one merge
    /// pass finds every old row the new run reproduced.
    fn matching<K: Ord + Copy>(old: impl Iterator<Item = Option<K>>, new: &[K]) -> NodeDelta {
        let mut map = Vec::new();
        let mut hit = vec![false; new.len()];
        let mut p = 0usize;
        for key in old {
            let target = key.and_then(|k| {
                while p < new.len() && new[p] < k {
                    p += 1;
                }
                (p < new.len() && new[p] == k).then(|| {
                    p += 1;
                    p - 1
                })
            });
            if let Some(n) = target {
                hit[n] = true;
            }
            map.push(target);
        }
        NodeDelta {
            map,
            inserted: (0..new.len()).filter(|&n| !hit[n]).collect(),
            new_len: new.len(),
            identity: false,
        }
    }

    /// `inv[new_row]` = the old row that became it, if any.
    fn inverse(&self) -> Vec<Option<usize>> {
        let mut inv = vec![None; self.new_len];
        for (old, new) in self.map.iter().enumerate() {
            if let Some(n) = new {
                inv[*n] = Some(old);
            }
        }
        inv
    }
}

/// Affected-row/tainted-column state one node contributes during a cell
/// patch walk. Nodes without state are untouched by the update.
#[derive(Debug, Clone, Default)]
struct PatchState {
    /// Output rows whose content changed, ascending.
    affected: Vec<usize>,
    /// Columns (in this node's output schema) whose values may differ.
    tainted: Vec<String>,
}

/// Everything a successful splice walk produced, staged for commit.
struct SplicePlan {
    new_tables: FxHashMap<usize, Table>,
    new_traces: FxHashMap<usize, NodeTrace>,
    root_delta: NodeDelta,
}

/// `a` and `b` are the same cell value bit for bit: floats compare by
/// `to_bits`, so `-0.0` and `0.0` differ, as do NaNs with other payloads.
fn same_bits(a: &Value, b: &Value) -> bool {
    match (a, b) {
        (Value::Float(x), Value::Float(y)) => x.to_bits() == y.to_bits(),
        _ => a == b,
    }
}

/// Run `f` under the executor's panic guard, mapping a panic to a typed
/// error (the caller falls back to a full rerun, which reproduces the
/// executor's own report for the same failure).
fn guarded<T>(f: impl FnOnce() -> Result<T>) -> Result<T> {
    match catch_tuple_panic(f) {
        Ok(r) => r,
        Err(msg) => Err(PipelineError::Delta(format!(
            "operator panicked during delta propagation: {msg}"
        ))),
    }
}

/// The right-side output column name under the join rename rule: the key is
/// dropped; a clash with a left column gets a `_right` suffix.
fn right_out_name(left: &Table, name: &str) -> String {
    if left.schema().contains(name) {
        format!("{name}_right")
    } else {
        name.to_string()
    }
}

fn table_of<'a>(
    staged: &'a FxHashMap<usize, Table>,
    base: &'a FxHashMap<usize, Table>,
    idx: usize,
) -> &'a Table {
    staged
        .get(&idx)
        .unwrap_or_else(|| base.get(&idx).expect("node table present"))
}

/// Best fuzzy match for `lv` over the whole right table: ascending rows,
/// strict improvement — exactly [`crate::fuzzy::fuzzy_join`]'s kernel
/// (lowest right row among maximal similarities wins).
fn fuzzy_best(lv: &str, right: &Table, right_key: &str, threshold: f64) -> Result<Option<usize>> {
    let mut best: Option<(usize, f64)> = None;
    for rn in 0..right.n_rows() {
        if let Value::Str(rv) = right.get(rn, right_key)? {
            let sim = crate::fuzzy::similarity(lv, &rv);
            if sim >= threshold && best.is_none_or(|(_, b)| sim > b) {
                best = Some((rn, sim));
            }
        }
    }
    Ok(best.map(|(r, _)| r))
}

/// A live, incrementally maintainable pipeline run.
///
/// [`PipelineSession::build`] executes the plan once (recording routing
/// traces, not provenance); [`PipelineSession::apply`] then folds
/// single-tuple source changes into the run. After every apply — whichever
/// [`DeltaPath`] it takes — [`PipelineSession::table`] and
/// [`PipelineSession::lineage`] are bit-identical to a fresh
/// provenance-tracked [`Executor::run`] over the mutated inputs.
#[derive(Debug, Clone)]
pub struct PipelineSession {
    executor: Executor,
    plan: Plan,
    root: NodeId,
    source_names: Vec<String>,
    /// Current source tables, indexed like `source_names`.
    inputs: Vec<Table>,
    /// Node ids in first-evaluation order (children before parents).
    order: Vec<usize>,
    traces: FxHashMap<usize, NodeTrace>,
    tables: FxHashMap<usize, Table>,
    stats: DeltaStats,
    /// Set when a fallback rerun failed: the cached state no longer matches
    /// the mutated inputs, so further applies are refused.
    poisoned: bool,
}

impl PipelineSession {
    /// Execute `root` of `plan` over `inputs` and capture the run for
    /// incremental maintenance. The run records routing traces with
    /// provenance tracking off (lineage is replayed from the traces on
    /// demand); the executor must use [`PanicPolicy::FailFast`] —
    /// quarantining rewrites routing per policy, which delta propagation
    /// does not model.
    pub fn build(
        executor: &Executor,
        plan: &Plan,
        root: NodeId,
        inputs: &[(&str, &Table)],
    ) -> Result<PipelineSession> {
        if executor.panic_policy() != PanicPolicy::FailFast {
            return Err(PipelineError::Delta(
                "incremental maintenance requires PanicPolicy::FailFast".into(),
            ));
        }
        let executor = executor.clone().with_provenance(false);
        let source_names: Vec<String> =
            plan.source_names().into_iter().map(str::to_owned).collect();
        let mut by_name: FxHashMap<&str, &Table> = FxHashMap::default();
        for (name, table) in inputs {
            by_name.insert(name, table);
        }
        let owned: Vec<Table> = source_names
            .iter()
            .map(|n| {
                by_name
                    .get(n.as_str())
                    .map(|t| (*t).clone())
                    .ok_or_else(|| PipelineError::MissingInput(n.clone()))
            })
            .collect::<Result<_>>()?;
        let (_, trace, memo) = executor.run_traced(plan, root, inputs)?;
        Ok(PipelineSession {
            executor,
            plan: plan.clone(),
            root,
            source_names,
            inputs: owned,
            order: trace.order,
            traces: trace.nodes,
            tables: memo.into_iter().map(|(idx, (t, _))| (idx, t)).collect(),
            stats: DeltaStats::default(),
            poisoned: false,
        })
    }

    /// The root output table, as maintained.
    pub fn table(&self) -> &Table {
        self.tables.get(&self.root.index()).expect("root present")
    }

    /// The root lineage, replayed from the maintained routing traces.
    /// Bit-identical (same arena nodes, same ids) to a fresh
    /// provenance-tracked run over the current inputs; costs one arena
    /// build per call.
    pub fn lineage(&self) -> Lineage {
        let (arena, mut provs) = self.replay_arena();
        Lineage::new(
            self.source_names.clone(),
            arena,
            provs.remove(&self.root.index()).expect("root present"),
        )
    }

    /// The current (maintained) copy of a source table.
    pub fn input(&self, name: &str) -> Option<&Table> {
        let i = self.source_names.iter().position(|s| s == name)?;
        Some(&self.inputs[i])
    }

    /// Source names in [`TupleId::source`] order.
    pub fn source_names(&self) -> &[String] {
        &self.source_names
    }

    /// Lifetime counters.
    pub fn stats(&self) -> &DeltaStats {
        &self.stats
    }

    fn source_index(&self, name: &str) -> Result<usize> {
        self.source_names
            .iter()
            .position(|s| s == name)
            .ok_or_else(|| PipelineError::Delta(format!("unknown source table `{name}`")))
    }

    /// Fold one source change into the run. Validation failures (unknown
    /// source/column, out-of-bounds row, type mismatch) leave the session
    /// untouched; after a successful apply the session state matches a
    /// fresh run over the mutated inputs exactly.
    pub fn apply(&mut self, delta: &Delta) -> Result<DeltaOutcome> {
        if self.poisoned {
            return Err(PipelineError::Delta(
                "session poisoned by an earlier failed rerun; rebuild it".into(),
            ));
        }
        let src = self.source_index(delta.source())?;
        let old_len = self.inputs[src].n_rows();
        let source_delta = match delta {
            Delta::Update {
                row, column, value, ..
            } => {
                if *row >= old_len {
                    return Err(PipelineError::Delta(format!(
                        "update row {row} out of bounds for `{}` ({old_len} rows)",
                        delta.source(),
                    )));
                }
                // `set` validates column and type before mutating; the cell
                // read back is the value as stored (an `Int` written into a
                // `Float` column is coerced).
                let input = &mut self.inputs[src];
                let old = input.get(*row, column)?;
                input.set(*row, column, value.clone())?;
                if same_bits(&old, &input.get(*row, column)?) {
                    self.stats.unchanged += 1;
                    return Ok(self.commit_cell_patch(Vec::new()));
                }
                // A structural change or an operator failure on the new
                // value falls through to a full rerun, which reproduces
                // rerun semantics (including the error report) exactly and
                // replaces any node table the walk already patched.
                if let Ok(Some(root_affected)) = self.cell_patch_walk(src, *row, column) {
                    return Ok(self.commit_cell_patch(root_affected));
                }
                return self.rerun_fallback(src, &NodeDelta::replaced(old_len, *row));
            }
            Delta::Insert { values, .. } => {
                // `push_row` validates arity and types atomically.
                self.inputs[src].push_row(values.clone())?;
                NodeDelta::appended(old_len)
            }
            Delta::Delete { row, .. } => {
                if *row >= old_len {
                    return Err(PipelineError::Delta(format!(
                        "delete row {row} out of bounds for `{}` ({old_len} rows)",
                        delta.source(),
                    )));
                }
                let survivors: Vec<usize> = (0..old_len).filter(|&i| i != *row).collect();
                self.inputs[src] = self.inputs[src].take(&survivors)?;
                NodeDelta::removed(old_len, *row)
            }
        };
        match self.splice_walk(src, &source_delta) {
            Ok(Some(plan)) => Ok(self.commit_splice(plan)),
            Ok(None) | Err(_) => self.rerun_fallback(src, &source_delta),
        }
    }

    /// Full re-execution over the mutated inputs: the fallback that makes
    /// every apply equivalent to rerun semantics. The old and new routing
    /// traces are then diffed into a root row map, starting from
    /// `source_delta` at source `src`. A failure here (e.g. the new value
    /// makes an operator error) poisons the session — the cached state no
    /// longer matches the inputs.
    fn rerun_fallback(&mut self, src: usize, source_delta: &NodeDelta) -> Result<DeltaOutcome> {
        let refs: Vec<(&str, &Table)> = self
            .source_names
            .iter()
            .map(String::as_str)
            .zip(self.inputs.iter())
            .collect();
        let (trace, memo) = match self.executor.run_traced(&self.plan, self.root, &refs) {
            Ok((_, trace, memo)) => (trace, memo),
            Err(e) => {
                self.poisoned = true;
                return Err(e);
            }
        };
        let tables: FxHashMap<usize, Table> =
            memo.into_iter().map(|(idx, (t, _))| (idx, t)).collect();
        let root_delta = self.rerun_walk(src, source_delta, &trace.nodes, &tables);
        self.order = trace.order;
        self.traces = trace.nodes;
        self.tables = tables;
        self.stats.applied += 1;
        self.stats.reruns += 1;
        Ok(DeltaOutcome {
            path: DeltaPath::Rerun,
            affected_rows: root_delta.inserted,
            row_map: Some(root_delta.map),
        })
    }

    /// The rerun diff: walk the DAG bottom-up, pushing each old routing
    /// decision through its children's row maps and matching it against
    /// the new run's decisions. A node whose children are unchanged is
    /// unchanged (operators are deterministic), so only the changed tuple's
    /// reach is compared. Returns the root's map.
    fn rerun_walk(
        &self,
        src: usize,
        source_delta: &NodeDelta,
        new_traces: &FxHashMap<usize, NodeTrace>,
        new_tables: &FxHashMap<usize, Table>,
    ) -> NodeDelta {
        let mut deltas: FxHashMap<usize, NodeDelta> = FxHashMap::default();
        for &idx in &self.order {
            let children = self.plan.children(NodeId(idx)).expect("node present");
            let old_len = self.tables.get(&idx).expect("table present").n_rows();
            let child = |i: usize| &deltas[&children[i].index()];
            let delta = match (&self.traces[&idx], &new_traces[&idx]) {
                (NodeTrace::Source { source }, _) => {
                    if *source as usize == src {
                        source_delta.clone()
                    } else {
                        NodeDelta::identity(old_len)
                    }
                }
                _ if children.iter().all(|c| deltas[&c.index()].identity) => {
                    NodeDelta::identity(old_len)
                }
                (NodeTrace::Join { pairs: old }, NodeTrace::Join { pairs: new }) => {
                    let (ld, rd) = (child(0), child(1));
                    let keys = old.iter().map(|&(l, r)| {
                        let r = match r {
                            Some(r) => Some(rd.map[r]?),
                            None => None, // a null pad stays a pad
                        };
                        Some((ld.map[l]?, r))
                    });
                    NodeDelta::matching(keys, new)
                }
                (NodeTrace::FuzzyJoin { pairs: old }, NodeTrace::FuzzyJoin { pairs: new }) => {
                    let (ld, rd) = (child(0), child(1));
                    let keys = old.iter().map(|&(l, r)| Some((ld.map[l]?, rd.map[r]?)));
                    NodeDelta::matching(keys, new)
                }
                (NodeTrace::Filter { kept: old }, NodeTrace::Filter { kept: new })
                | (NodeTrace::Project { kept: old }, NodeTrace::Project { kept: new }) => {
                    let cd = child(0);
                    NodeDelta::matching(old.iter().map(|&k| cd.map[k]), new)
                }
                (NodeTrace::Select, NodeTrace::Select) => child(0).clone(),
                // A group's output row is its first occurrence: an old
                // slot survives iff its first occurrence still is one.
                (
                    NodeTrace::Distinct { first_of: old, .. },
                    NodeTrace::Distinct { first_of: new, .. },
                ) => {
                    let cd = child(0);
                    NodeDelta::matching(old.iter().map(|&f| cd.map[f]), new)
                }
                (NodeTrace::Concat { left_rows }, NodeTrace::Concat { .. }) => {
                    concat_delta(child(0), child(1), *left_rows, old_len)
                }
                _ => unreachable!("node {idx}: a trace's kind follows its plan node"),
            };
            debug_assert_eq!(delta.new_len, new_tables[&idx].n_rows(), "node {idx}");
            deltas.insert(idx, delta);
        }
        deltas.remove(&self.root.index()).expect("root visited")
    }

    fn commit_cell_patch(&mut self, root_affected: Vec<usize>) -> DeltaOutcome {
        self.stats.applied += 1;
        self.stats.cell_patches += 1;
        self.stats.rows_patched += root_affected.len();
        DeltaOutcome {
            path: DeltaPath::CellPatch,
            affected_rows: root_affected,
            row_map: None,
        }
    }

    fn commit_splice(&mut self, plan: SplicePlan) -> DeltaOutcome {
        for (idx, t) in plan.new_tables {
            self.tables.insert(idx, t);
        }
        for (idx, tr) in plan.new_traces {
            self.traces.insert(idx, tr);
        }
        self.stats.applied += 1;
        self.stats.splices += 1;
        self.stats.rows_patched += plan.root_delta.inserted.len();
        DeltaOutcome {
            path: DeltaPath::Splice,
            affected_rows: plan.root_delta.inserted,
            row_map: Some(plan.root_delta.map),
        }
    }

    /// Build the provenance arena by replaying every node's interning in
    /// the recorded evaluation order. Hash-consing is deterministic in
    /// interning order, so the result is bit-identical to the arena a fresh
    /// provenance-tracked run over the current inputs would build. Returns
    /// the arena and every node's per-row ids.
    fn replay_arena(&self) -> (ProvArena, FxHashMap<usize, Vec<ProvId>>) {
        let mut arena = ProvArena::new();
        let mut provs: FxHashMap<usize, Vec<ProvId>> = FxHashMap::default();
        for &idx in &self.order {
            let id = NodeId(idx);
            let children = self.plan.children(id).expect("node present");
            let trace = self.traces.get(&idx).expect("trace present");
            let prov: Vec<ProvId> = match trace {
                NodeTrace::Source { source } => {
                    let n = self.tables.get(&idx).expect("table present").n_rows();
                    (0..n)
                        .map(|r| arena.var(TupleId::new(*source, r as u32)))
                        .collect()
                }
                NodeTrace::Join { pairs } => {
                    let lp = &provs[&children[0].index()];
                    let rp = &provs[&children[1].index()];
                    pairs
                        .iter()
                        .map(|&(l, r)| match r {
                            Some(r) => arena.times(lp[l], rp[r]),
                            None => lp[l],
                        })
                        .collect()
                }
                NodeTrace::FuzzyJoin { pairs } => {
                    let lp = &provs[&children[0].index()];
                    let rp = &provs[&children[1].index()];
                    pairs
                        .iter()
                        .map(|&(l, r)| arena.times(lp[l], rp[r]))
                        .collect()
                }
                NodeTrace::Filter { kept } | NodeTrace::Project { kept } => {
                    let cp = &provs[&children[0].index()];
                    kept.iter().map(|&k| cp[k]).collect()
                }
                NodeTrace::Select => provs[&children[0].index()].clone(),
                NodeTrace::Distinct { first_of, owner } => {
                    let cp = &provs[&children[0].index()];
                    let mut alts: Vec<Vec<ProvId>> = vec![Vec::new(); first_of.len()];
                    for (row, &slot) in owner.iter().enumerate() {
                        alts[slot].push(cp[row]);
                    }
                    alts.into_iter().map(|a| arena.plus(&a)).collect()
                }
                NodeTrace::Concat { .. } => {
                    let mut lp = provs[&children[0].index()].clone();
                    lp.extend_from_slice(&provs[&children[1].index()]);
                    lp
                }
            };
            provs.insert(idx, prov);
        }
        (arena, provs)
    }

    /// The cell-patch walk: propagate `(source, row, column)` taint through
    /// the DAG without re-deciding any routing, writing each affected
    /// node's table in place (children come first, so every read sees
    /// already patched child tables). Returns the root's affected rows.
    /// `Ok(None)` means a tainted column feeds a routing decision
    /// (join/distinct key, filter predicate); `Err` means an operator failed
    /// re-evaluating a tainted projection. Either way tables may be
    /// half-patched, and the caller must fall back to a rerun, which
    /// replaces them all (and reproduces the error report).
    fn cell_patch_walk(
        &mut self,
        src: usize,
        row: usize,
        column: &str,
    ) -> Result<Option<Vec<usize>>> {
        let mut states: FxHashMap<usize, PatchState> = FxHashMap::default();
        for &idx in &self.order {
            let id = NodeId(idx);
            let trace = self.traces.get(&idx).expect("trace present");
            let children = self.plan.children(id)?;
            let table = |i: usize| self.tables.get(&children[i].index()).expect("child table");
            // Read phase: compute this node's state and the cell values to
            // copy from (already patched) child tables.
            let mut state = PatchState::default();
            let mut patches: Vec<(usize, String, Value)> = Vec::new();
            match (self.plan.node(id)?, trace) {
                (PlanNode::Source { .. }, NodeTrace::Source { source }) => {
                    if *source as usize == src {
                        state.affected.push(row);
                        state.tainted.push(column.to_string());
                        patches.push((row, column.to_string(), self.inputs[src].get(row, column)?));
                    }
                }
                (
                    PlanNode::Join {
                        left_key,
                        right_key,
                        ..
                    },
                    NodeTrace::Join { .. },
                )
                | (
                    PlanNode::FuzzyJoin {
                        left_key,
                        right_key,
                        ..
                    },
                    NodeTrace::FuzzyJoin { .. },
                ) => {
                    let ls = states.get(&children[0].index());
                    let rs = states.get(&children[1].index());
                    if ls.is_none() && rs.is_none() {
                        continue;
                    }
                    // A tainted join key can change the match set (and for
                    // fuzzy joins, similarities): structural.
                    if ls.is_some_and(|s| s.tainted.iter().any(|c| c == left_key))
                        || rs.is_some_and(|s| s.tainted.iter().any(|c| c == right_key))
                    {
                        return Ok(None);
                    }
                    let (lt, rt) = (table(0), table(1));
                    // Read both join kinds as (left, Option<right>); one of
                    // the two slices is empty.
                    let join: &[(usize, Option<usize>)] = match trace {
                        NodeTrace::Join { pairs } => pairs,
                        _ => &[],
                    };
                    let fuzzy: &[(usize, usize)] = match trace {
                        NodeTrace::FuzzyJoin { pairs } => pairs,
                        _ => &[],
                    };
                    let pairs = join
                        .iter()
                        .copied()
                        .chain(fuzzy.iter().map(|&(l, r)| (l, Some(r))));
                    let l_aff = affected_mask(ls, lt.n_rows());
                    let r_aff = affected_mask(rs, rt.n_rows());
                    let renames: Vec<(String, String)> = rs
                        .map(|s| {
                            s.tainted
                                .iter()
                                .map(|c| (c.clone(), right_out_name(lt, c)))
                                .collect()
                        })
                        .unwrap_or_default();
                    for (out, (l, r)) in pairs.enumerate() {
                        let left_hit = l_aff[l];
                        let right_hit = r.is_some_and(|r| r_aff[r]);
                        if !left_hit && !right_hit {
                            continue;
                        }
                        state.affected.push(out);
                        if left_hit {
                            if let Some(ls) = ls {
                                for c in &ls.tainted {
                                    patches.push((out, c.clone(), lt.get(l, c)?));
                                }
                            }
                        }
                        if let Some(r) = r {
                            if r_aff[r] {
                                for (c, oc) in &renames {
                                    patches.push((out, oc.clone(), rt.get(r, c)?));
                                }
                            }
                        }
                    }
                    if let Some(ls) = ls {
                        state.tainted.extend(ls.tainted.iter().cloned());
                    }
                    state.tainted.extend(renames.into_iter().map(|(_, oc)| oc));
                }
                (PlanNode::Filter { predicate, .. }, NodeTrace::Filter { kept }) => {
                    let Some(cs) = states.get(&children[0].index()) else {
                        continue;
                    };
                    if predicate
                        .columns()
                        .iter()
                        .any(|c| cs.tainted.iter().any(|t| t == c))
                    {
                        return Ok(None);
                    }
                    let ct = table(0);
                    let c_aff = affected_mask(Some(cs), ct.n_rows());
                    for (out, &k) in kept.iter().enumerate() {
                        if c_aff[k] {
                            state.affected.push(out);
                            for c in &cs.tainted {
                                patches.push((out, c.clone(), ct.get(k, c)?));
                            }
                        }
                    }
                    state.tainted = cs.tainted.clone();
                }
                (PlanNode::Project { column, expr, .. }, NodeTrace::Project { kept }) => {
                    let Some(cs) = states.get(&children[0].index()) else {
                        continue;
                    };
                    let ct = table(0);
                    let c_aff = affected_mask(Some(cs), ct.n_rows());
                    let recompute = expr
                        .columns()
                        .iter()
                        .any(|c| cs.tainted.iter().any(|t| t == c));
                    for (out, &k) in kept.iter().enumerate() {
                        if c_aff[k] {
                            state.affected.push(out);
                            for c in &cs.tainted {
                                patches.push((out, c.clone(), ct.get(k, c)?));
                            }
                            if recompute {
                                let v = guarded(|| expr.eval(ct, k))?;
                                patches.push((out, column.clone(), v));
                            }
                        }
                    }
                    state.tainted = cs.tainted.clone();
                    if recompute {
                        state.tainted.push(column.clone());
                    }
                }
                (PlanNode::SelectColumns { columns, .. }, NodeTrace::Select) => {
                    let Some(cs) = states.get(&children[0].index()) else {
                        continue;
                    };
                    let visible: Vec<String> = cs
                        .tainted
                        .iter()
                        .filter(|c| columns.contains(c))
                        .cloned()
                        .collect();
                    if visible.is_empty() {
                        // The change is projected away: nothing downstream.
                        continue;
                    }
                    let ct = table(0);
                    for &r in &cs.affected {
                        state.affected.push(r);
                        for c in &visible {
                            patches.push((r, c.clone(), ct.get(r, c)?));
                        }
                    }
                    state.tainted = visible;
                }
                (PlanNode::Distinct { key, .. }, NodeTrace::Distinct { first_of, .. }) => {
                    let Some(cs) = states.get(&children[0].index()) else {
                        continue;
                    };
                    if cs.tainted.iter().any(|c| c == key) {
                        return Ok(None);
                    }
                    let ct = table(0);
                    let c_aff = affected_mask(Some(cs), ct.n_rows());
                    // Only changes to a group's surviving first occurrence
                    // are visible; absorbed duplicates contribute nothing.
                    for (slot, &f) in first_of.iter().enumerate() {
                        if c_aff[f] {
                            state.affected.push(slot);
                            for c in &cs.tainted {
                                patches.push((slot, c.clone(), ct.get(f, c)?));
                            }
                        }
                    }
                    state.tainted = cs.tainted.clone();
                }
                (PlanNode::Concat { .. }, NodeTrace::Concat { left_rows }) => {
                    let ls = states.get(&children[0].index());
                    let rs = states.get(&children[1].index());
                    if ls.is_none() && rs.is_none() {
                        continue;
                    }
                    let (lt, rt) = (table(0), table(1));
                    if let Some(ls) = ls {
                        for &r in &ls.affected {
                            state.affected.push(r);
                            for c in &ls.tainted {
                                patches.push((r, c.clone(), lt.get(r, c)?));
                            }
                        }
                        state.tainted.extend(ls.tainted.iter().cloned());
                    }
                    if let Some(rs) = rs {
                        for &r in &rs.affected {
                            state.affected.push(r + left_rows);
                            for c in &rs.tainted {
                                patches.push((r + left_rows, c.clone(), rt.get(r, c)?));
                            }
                        }
                        for c in &rs.tainted {
                            if !state.tainted.contains(c) {
                                state.tainted.push(c.clone());
                            }
                        }
                    }
                }
                (node, trace) => {
                    return Err(PipelineError::Delta(format!(
                        "trace/plan mismatch at node {idx}: {node:?} vs {trace:?}"
                    )))
                }
            }
            if state.affected.is_empty() {
                continue;
            }
            // Write phase: patch this node's table where it lives.
            let t = self.tables.get_mut(&idx).expect("table present");
            for (r, c, v) in patches {
                t.set(r, &c, v)?;
            }
            states.insert(idx, state);
        }
        Ok(Some(
            states
                .remove(&self.root.index())
                .map(|s| s.affected)
                .unwrap_or_default(),
        ))
    }

    /// The splice walk: push a one-row insert/delete at source `src`
    /// through the DAG, re-deciding routing only where the changed row can
    /// reach. `Ok(None)` / `Err` mean the walk could not complete (rare
    /// structural edge or an operator failure on a spliced row); the caller
    /// falls back to a rerun.
    fn splice_walk(&self, src: usize, source_delta: &NodeDelta) -> Result<Option<SplicePlan>> {
        let mut deltas: FxHashMap<usize, NodeDelta> = FxHashMap::default();
        let mut new_tables: FxHashMap<usize, Table> = FxHashMap::default();
        let mut new_traces: FxHashMap<usize, NodeTrace> = FxHashMap::default();
        for &idx in &self.order {
            let id = NodeId(idx);
            let trace = self.traces.get(&idx).expect("trace present");
            let children = self.plan.children(id)?;
            let old_table = self.tables.get(&idx).expect("table present");
            let (delta, table, new_trace): (NodeDelta, Option<Table>, Option<NodeTrace>) =
                match (self.plan.node(id)?, trace) {
                    (PlanNode::Source { .. }, NodeTrace::Source { source }) => {
                        if *source as usize == src {
                            let mut t = self.inputs[src].clone();
                            t.set_name(old_table.name());
                            (source_delta.clone(), Some(t), None)
                        } else {
                            (NodeDelta::identity(old_table.n_rows()), None, None)
                        }
                    }
                    (
                        PlanNode::Join {
                            left_key,
                            right_key,
                            how,
                            ..
                        },
                        NodeTrace::Join { pairs },
                    ) => {
                        let ld = &deltas[&children[0].index()];
                        let rd = &deltas[&children[1].index()];
                        if ld.identity && rd.identity {
                            (NodeDelta::identity(pairs.len()), None, None)
                        } else {
                            let lt = table_of(&new_tables, &self.tables, children[0].index());
                            let rt = table_of(&new_tables, &self.tables, children[1].index());
                            let (delta, new_pairs) =
                                splice_join(pairs, ld, rd, lt, rt, left_key, right_key, *how)?;
                            let rk = rt.schema().index_of(right_key)?;
                            let mut t = lt.materialize_join(rt, &new_pairs, rk)?;
                            t.set_name(old_table.name());
                            (delta, Some(t), Some(NodeTrace::Join { pairs: new_pairs }))
                        }
                    }
                    (
                        PlanNode::FuzzyJoin {
                            left_key,
                            right_key,
                            threshold,
                            ..
                        },
                        NodeTrace::FuzzyJoin { pairs },
                    ) => {
                        let ld = &deltas[&children[0].index()];
                        let rd = &deltas[&children[1].index()];
                        if ld.identity && rd.identity {
                            (NodeDelta::identity(pairs.len()), None, None)
                        } else {
                            let lt = table_of(&new_tables, &self.tables, children[0].index());
                            let rt = table_of(&new_tables, &self.tables, children[1].index());
                            let (delta, new_pairs) = splice_fuzzy(
                                pairs, ld, rd, lt, rt, left_key, right_key, *threshold,
                            )?;
                            let rk = rt.schema().index_of(right_key)?;
                            let opt: Vec<(usize, Option<usize>)> =
                                new_pairs.iter().map(|&(l, r)| (l, Some(r))).collect();
                            let mut t = lt.materialize_join(rt, &opt, rk)?;
                            t.set_name(old_table.name());
                            (
                                delta,
                                Some(t),
                                Some(NodeTrace::FuzzyJoin { pairs: new_pairs }),
                            )
                        }
                    }
                    (PlanNode::Filter { predicate, .. }, NodeTrace::Filter { kept }) => {
                        let cd = &deltas[&children[0].index()];
                        if cd.identity {
                            (NodeDelta::identity(kept.len()), None, None)
                        } else {
                            let ct = table_of(&new_tables, &self.tables, children[0].index());
                            let inv = cd.inverse();
                            let mut new_kept = Vec::with_capacity(kept.len() + 1);
                            let mut map = vec![None; kept.len()];
                            let mut inserted = Vec::new();
                            let mut kp = 0usize;
                            for (cn, old) in inv.iter().enumerate() {
                                match old {
                                    Some(co) => {
                                        while kp < kept.len() && kept[kp] < *co {
                                            kp += 1;
                                        }
                                        if kp < kept.len() && kept[kp] == *co {
                                            map[kp] = Some(new_kept.len());
                                            new_kept.push(cn);
                                            kp += 1;
                                        }
                                    }
                                    None => {
                                        // A spliced-in row: the predicate
                                        // decides fresh, under the guard.
                                        if guarded(|| predicate.eval_predicate(ct, cn))? {
                                            inserted.push(new_kept.len());
                                            new_kept.push(cn);
                                        }
                                    }
                                }
                            }
                            let mut t = ct.take(&new_kept)?;
                            t.set_name(old_table.name());
                            let delta = NodeDelta {
                                map,
                                inserted,
                                new_len: new_kept.len(),
                                identity: false,
                            };
                            (delta, Some(t), Some(NodeTrace::Filter { kept: new_kept }))
                        }
                    }
                    (PlanNode::Project { column, expr, .. }, NodeTrace::Project { kept }) => {
                        let cd = &deltas[&children[0].index()];
                        if cd.identity {
                            (NodeDelta::identity(kept.len()), None, None)
                        } else {
                            let ct = table_of(&new_tables, &self.tables, children[0].index());
                            // Under FailFast a projection keeps every row.
                            debug_assert!(kept.iter().enumerate().all(|(i, &k)| i == k));
                            if old_table.n_rows() == 0 || ct.n_rows() == 0 {
                                // Empty-side dtype inference diverges from
                                // the recorded column type; let rerun decide.
                                return Ok(None);
                            }
                            let dtype = old_table.schema().field(column)?.dtype;
                            let inv = cd.inverse();
                            let mut col = Column::with_capacity(dtype, ct.n_rows());
                            for (cn, old) in inv.iter().enumerate() {
                                let v = match old {
                                    Some(co) => old_table.get(*co, column)?,
                                    None => guarded(|| expr.eval(ct, cn))?,
                                };
                                col.push(v)
                                    .map_err(|e| PipelineError::Expr(e.to_string()))?;
                            }
                            let mut t = ct.clone();
                            t.add_column(Field::new(column.clone(), dtype), col)?;
                            t.set_name(old_table.name());
                            let delta = cd.clone();
                            let kept_new = (0..t.n_rows()).collect();
                            (delta, Some(t), Some(NodeTrace::Project { kept: kept_new }))
                        }
                    }
                    (PlanNode::SelectColumns { columns, .. }, NodeTrace::Select) => {
                        let cd = &deltas[&children[0].index()];
                        if cd.identity {
                            (NodeDelta::identity(old_table.n_rows()), None, None)
                        } else {
                            let ct = table_of(&new_tables, &self.tables, children[0].index());
                            let cols: Vec<&str> = columns.iter().map(String::as_str).collect();
                            let mut t = ct.select(&cols)?;
                            t.set_name(old_table.name());
                            (cd.clone(), Some(t), Some(NodeTrace::Select))
                        }
                    }
                    (PlanNode::Distinct { key, .. }, NodeTrace::Distinct { first_of, .. }) => {
                        let cd = &deltas[&children[0].index()];
                        if cd.identity {
                            (NodeDelta::identity(first_of.len()), None, None)
                        } else {
                            let ct = table_of(&new_tables, &self.tables, children[0].index());
                            let (first_new, owner_new) =
                                ct.distinct_by(key, self.executor.threads())?;
                            let mut t = ct.take(&first_new)?;
                            t.set_name(old_table.name());
                            // An old slot survives iff its first occurrence
                            // is still the first occurrence of its group.
                            let mut old_slot_of: FxHashMap<usize, usize> = FxHashMap::default();
                            for (slot, &f) in first_of.iter().enumerate() {
                                old_slot_of.insert(f, slot);
                            }
                            let inv = cd.inverse();
                            let mut map = vec![None; first_of.len()];
                            let mut inserted = Vec::new();
                            for (s_new, &f_new) in first_new.iter().enumerate() {
                                match inv[f_new].and_then(|f_old| old_slot_of.get(&f_old)) {
                                    Some(&s_old) => map[s_old] = Some(s_new),
                                    None => inserted.push(s_new),
                                }
                            }
                            let delta = NodeDelta {
                                map,
                                inserted,
                                new_len: first_new.len(),
                                identity: false,
                            };
                            (
                                delta,
                                Some(t),
                                Some(NodeTrace::Distinct {
                                    first_of: first_new,
                                    owner: owner_new,
                                }),
                            )
                        }
                    }
                    (PlanNode::Concat { .. }, NodeTrace::Concat { left_rows }) => {
                        let ld = &deltas[&children[0].index()];
                        let rd = &deltas[&children[1].index()];
                        if ld.identity && rd.identity {
                            (NodeDelta::identity(old_table.n_rows()), None, None)
                        } else {
                            let lt = table_of(&new_tables, &self.tables, children[0].index());
                            let rt = table_of(&new_tables, &self.tables, children[1].index());
                            let mut t = lt.clone();
                            t.append(rt)?;
                            t.set_name(old_table.name());
                            (
                                concat_delta(ld, rd, *left_rows, old_table.n_rows()),
                                Some(t),
                                Some(NodeTrace::Concat {
                                    left_rows: ld.new_len,
                                }),
                            )
                        }
                    }
                    (node, trace) => {
                        return Err(PipelineError::Delta(format!(
                            "trace/plan mismatch at node {idx}: {node:?} vs {trace:?}"
                        )))
                    }
                };
            debug_assert!(
                delta.map.windows(2).all(|w| match (w[0], w[1]) {
                    (Some(a), Some(b)) => a < b,
                    _ => true,
                }),
                "node {idx}: row map must stay monotone"
            );
            if let Some(t) = table {
                debug_assert_eq!(t.n_rows(), delta.new_len, "node {idx}");
                new_tables.insert(idx, t);
            }
            if let Some(tr) = new_trace {
                new_traces.insert(idx, tr);
            }
            deltas.insert(idx, delta);
        }
        let root_delta = deltas.remove(&self.root.index()).expect("root visited");
        Ok(Some(SplicePlan {
            new_tables,
            new_traces,
            root_delta,
        }))
    }
}

/// A concat's row map: the left input's rows, then the right input's
/// shifted past the new left length.
fn concat_delta(ld: &NodeDelta, rd: &NodeDelta, left_rows: usize, old_len: usize) -> NodeDelta {
    let mut map = Vec::with_capacity(old_len);
    map.extend_from_slice(&ld.map[..left_rows]);
    map.extend(
        rd.map[..old_len - left_rows]
            .iter()
            .map(|n| n.map(|n| n + ld.new_len)),
    );
    let mut inserted = ld.inserted.clone();
    inserted.extend(rd.inserted.iter().map(|&n| n + ld.new_len));
    NodeDelta {
        map,
        inserted,
        new_len: ld.new_len + rd.new_len,
        identity: false,
    }
}

/// `mask[child_row]` = the row is affected (empty state = all false).
fn affected_mask(state: Option<&PatchState>, len: usize) -> Vec<bool> {
    let mut mask = vec![false; len];
    if let Some(s) = state {
        for &r in &s.affected {
            if r < len {
                mask[r] = true;
            }
        }
    }
    mask
}

/// A join's match list: `(left_row, Option<right_row>)`, l-major, right
/// rows ascending within a left group, `None` padding under left join.
type JoinPairs = Vec<(usize, Option<usize>)>;

/// Re-decide a hash/left join's pairs after its children changed. Old
/// matches are remapped (preserving their ascending right-row order);
/// spliced-in right rows are key-tested against every surviving left row
/// and merged by row index; spliced-in left rows probe the whole right
/// side — reproducing the executor's "all matches ascending by right row,
/// pad unmatched under left join" contract exactly.
#[allow(clippy::too_many_arguments)]
fn splice_join(
    pairs: &[(usize, Option<usize>)],
    ld: &NodeDelta,
    rd: &NodeDelta,
    lt: &Table,
    rt: &Table,
    left_key: &str,
    right_key: &str,
    how: JoinType,
) -> Result<(NodeDelta, JoinPairs)> {
    let outer = how == JoinType::Left;
    let l_inv = ld.inverse();
    let ins_right: Vec<(usize, Value)> = rd
        .inserted
        .iter()
        .map(|&r| Ok((r, rt.get(r, right_key)?)))
        .collect::<Result<_>>()?;
    let mut new_pairs: Vec<(usize, Option<usize>)> = Vec::with_capacity(pairs.len() + 1);
    let mut map = vec![None; pairs.len()];
    let mut inserted = Vec::new();
    let mut p = 0usize; // cursor over the l-major old pair list
    for (ln, old_left) in l_inv.iter().enumerate() {
        match old_left {
            Some(lo) => {
                while p < pairs.len() && pairs[p].0 < *lo {
                    p += 1; // pairs of left rows that no longer exist
                }
                let gstart = p;
                while p < pairs.len() && pairs[p].0 == *lo {
                    p += 1;
                }
                // Surviving old matches, remapped; order stays ascending
                // because row maps are monotone.
                let mut matches: Vec<(usize, Option<usize>)> = Vec::new();
                for (oi, &(_, right)) in pairs.iter().enumerate().take(p).skip(gstart) {
                    if let Some(ro) = right {
                        if let Some(rn) = rd.map[ro] {
                            matches.push((rn, Some(oi)));
                        }
                    }
                }
                if !ins_right.is_empty() {
                    let lkey = lt.get(ln, left_key)?;
                    for (rn, rv) in &ins_right {
                        if join_key_matches(&lkey, rv) {
                            let pos = matches.partition_point(|&(m, _)| m < *rn);
                            matches.insert(pos, (*rn, None));
                        }
                    }
                }
                if matches.is_empty() {
                    if outer {
                        let ni = new_pairs.len();
                        new_pairs.push((ln, None));
                        // The pad is value-preserving only if the old row
                        // was already a pad (its right side stays null).
                        if p - gstart == 1 && pairs[gstart].1.is_none() {
                            map[gstart] = Some(ni);
                        } else {
                            inserted.push(ni);
                        }
                    }
                } else {
                    for (rn, oi) in matches {
                        let ni = new_pairs.len();
                        new_pairs.push((ln, Some(rn)));
                        match oi {
                            Some(oi) => map[oi] = Some(ni),
                            None => inserted.push(ni),
                        }
                    }
                }
            }
            None => {
                // A spliced-in left row probes the whole right side.
                let lkey = lt.get(ln, left_key)?;
                let mut any = false;
                for rn in 0..rt.n_rows() {
                    if join_key_matches(&lkey, &rt.get(rn, right_key)?) {
                        inserted.push(new_pairs.len());
                        new_pairs.push((ln, Some(rn)));
                        any = true;
                    }
                }
                if !any && outer {
                    inserted.push(new_pairs.len());
                    new_pairs.push((ln, None));
                }
            }
        }
    }
    let delta = NodeDelta {
        map,
        inserted,
        new_len: new_pairs.len(),
        identity: false,
    };
    Ok((delta, new_pairs))
}

/// Re-decide a fuzzy join's best-match pairs. A surviving old winner stays
/// maximal among surviving candidates (relative order is preserved, so the
/// lowest-row maximal match cannot change by deletion of other rows); it
/// is only challenged by spliced-in right rows, compared with the kernel's
/// strict-improvement rule (higher similarity wins; equal similarity goes
/// to the lower row index). A dead winner or spliced-in left row triggers
/// a full rescan of the right side.
#[allow(clippy::too_many_arguments)]
fn splice_fuzzy(
    pairs: &[(usize, usize)],
    ld: &NodeDelta,
    rd: &NodeDelta,
    lt: &Table,
    rt: &Table,
    left_key: &str,
    right_key: &str,
    threshold: f64,
) -> Result<(NodeDelta, Vec<(usize, usize)>)> {
    use crate::fuzzy::similarity;
    let l_inv = ld.inverse();
    let ins_right: Vec<(usize, String)> = rd
        .inserted
        .iter()
        .filter_map(|&r| match rt.get(r, right_key) {
            Ok(Value::Str(s)) => Some(Ok((r, s))),
            Ok(_) => None, // null keys are never candidates
            Err(e) => Some(Err(PipelineError::from(e))),
        })
        .collect::<Result<_>>()?;
    // Challenge `best` with the spliced-in right rows under the kernel's
    // visit-ascending, strict-improvement rule.
    let challenge = |lv: &str, best: Option<usize>| -> Result<Option<usize>> {
        let mut best: Option<(usize, f64)> = match best {
            Some(rn) => match rt.get(rn, right_key)? {
                Value::Str(rv) => Some((rn, similarity(lv, &rv))),
                _ => None,
            },
            None => None,
        };
        for (rn, rv) in &ins_right {
            let sim = similarity(lv, rv);
            if sim < threshold {
                continue;
            }
            best = match best {
                None => Some((*rn, sim)),
                Some((bn, bs)) => {
                    if sim > bs || (sim == bs && *rn < bn) {
                        Some((*rn, sim))
                    } else {
                        Some((bn, bs))
                    }
                }
            };
        }
        Ok(best.map(|(rn, _)| rn))
    };
    let mut new_pairs: Vec<(usize, usize)> = Vec::with_capacity(pairs.len() + 1);
    let mut map = vec![None; pairs.len()];
    let mut inserted = Vec::new();
    let mut p = 0usize; // cursor over the left-ascending old pair list
    for (ln, old_left) in l_inv.iter().enumerate() {
        let lv = match lt.get(ln, left_key)? {
            Value::Str(s) => s,
            _ => continue, // null left keys never match
        };
        let winner = match old_left {
            Some(lo) => {
                while p < pairs.len() && pairs[p].0 < *lo {
                    p += 1;
                }
                let old_pair = (p < pairs.len() && pairs[p].0 == *lo).then(|| {
                    let oi = p;
                    p += 1;
                    oi
                });
                match old_pair {
                    Some(oi) => match rd.map[pairs[oi].1] {
                        // Old winner survived: only new rows can beat it.
                        Some(rn) => challenge(&lv, Some(rn))?.map(|w| (w, Some(oi), rn)),
                        // Old winner died: rescan.
                        None => fuzzy_best(&lv, rt, right_key, threshold)?
                            .map(|w| (w, Some(oi), usize::MAX)),
                    },
                    // Previously unmatched: survivors all scored below the
                    // threshold, so only spliced-in rows can match now.
                    None => challenge(&lv, None)?.map(|w| (w, None, usize::MAX)),
                }
            }
            None => fuzzy_best(&lv, rt, right_key, threshold)?.map(|w| (w, None, usize::MAX)),
        };
        if let Some((rn, old_pair, old_rn)) = winner {
            let ni = new_pairs.len();
            new_pairs.push((ln, rn));
            match old_pair {
                // Value-preserving only when the partner is unchanged.
                Some(oi) if rn == old_rn => map[oi] = Some(ni),
                _ => inserted.push(ni),
            }
        }
    }
    let delta = NodeDelta {
        map,
        inserted,
        new_len: new_pairs.len(),
        identity: false,
    };
    Ok((delta, new_pairs))
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::expr::Expr;
    use nde_data::generate::hiring::HiringScenario;
    use nde_data::{DataType, Field, Schema};

    fn hiring_inputs(s: &HiringScenario) -> Vec<(&'static str, &Table)> {
        vec![
            ("train_df", &s.letters),
            ("jobdetail_df", &s.job_details),
            ("social_df", &s.social),
        ]
    }

    /// Assert the session state is bit-identical to a fresh traced run over
    /// the session's current inputs — table, lineage (same arena ids), and
    /// every intermediate.
    fn assert_matches_fresh(session: &PipelineSession) {
        let inputs: Vec<(&str, &Table)> = session
            .source_names
            .iter()
            .map(String::as_str)
            .zip(session.inputs.iter())
            .collect();
        let fresh = session
            .executor
            .clone()
            .with_provenance(true)
            .run_traced(&session.plan, session.root, &inputs)
            .expect("fresh run succeeds");
        let (out, trace, memo) = fresh;
        assert_eq!(session.table(), &out.table, "root table diverged");
        let lineage = out.provenance.expect("provenance on");
        assert_eq!(session.lineage(), lineage, "lineage diverged");
        let (_, provs) = session.replay_arena();
        assert_eq!(session.order, trace.order, "evaluation order diverged");
        for (idx, tr) in &trace.nodes {
            assert_eq!(
                session.traces.get(idx),
                Some(tr),
                "trace diverged at node {idx}"
            );
        }
        for (idx, (table, prov)) in &memo {
            assert_eq!(
                session.tables.get(idx),
                Some(table),
                "table diverged at node {idx}"
            );
            assert_eq!(
                provs.get(idx).cloned(),
                prov.clone(),
                "provenance ids diverged at node {idx}"
            );
        }
    }

    #[test]
    fn build_captures_a_run() {
        let s = HiringScenario::generate(60, 3);
        let (plan, root) = Plan::hiring_pipeline();
        for threads in [1, 4] {
            let executor = Executor::new().with_threads(threads);
            let session =
                PipelineSession::build(&executor, &plan, root, &hiring_inputs(&s)).unwrap();
            assert!(session.table().n_rows() > 0);
            // The session tracks no provenance; its replayed lineage is
            // a fresh provenance-tracked run's.
            let fresh = executor
                .with_provenance(true)
                .run(&plan, root, &hiring_inputs(&s))
                .unwrap();
            assert_eq!(
                Some(session.lineage()),
                fresh.provenance,
                "threads={threads}"
            );
            assert_matches_fresh(&session);
        }
    }

    /// The three properties a rerun's row map owes its consumers: it is
    /// monotone, every mapped new row equals its old row, and every new row
    /// nothing maps to derives from the changed tuple or has no old twin.
    fn assert_rerun_map_sound(
        before: &Table,
        session: &PipelineSession,
        outcome: &DeltaOutcome,
        changed: TupleId,
    ) {
        assert_eq!(outcome.path, DeltaPath::Rerun);
        let map = outcome.row_map.as_ref().expect("a rerun carries a row map");
        assert_eq!(map.len(), before.n_rows());
        let after = session.table();
        let mapped: Vec<usize> = map.iter().flatten().copied().collect();
        assert!(mapped.windows(2).all(|w| w[0] < w[1]), "monotone");
        for (old, new) in map.iter().enumerate() {
            if let Some(new) = new {
                assert_eq!(before.row(old).unwrap(), after.row(*new).unwrap(), "{old}");
            }
        }
        let mut hit = vec![false; after.n_rows()];
        for &n in &mapped {
            hit[n] = true;
        }
        let unmapped: Vec<usize> = (0..after.n_rows()).filter(|&n| !hit[n]).collect();
        assert_eq!(outcome.affected_rows, unmapped);
        let lineage = session.lineage();
        let old_rows: Vec<Vec<Value>> = (0..before.n_rows())
            .map(|r| before.row(r).unwrap())
            .collect();
        for n in unmapped {
            let row = after.row(n).unwrap();
            assert!(
                lineage.row_tuples(n).contains(&changed) || !old_rows.contains(&row),
                "unmapped row {n} neither derives from {changed:?} nor is new"
            );
        }
    }

    #[test]
    fn rerun_row_map_is_monotone_value_preserving_and_local() {
        let s = HiringScenario::generate(120, 23);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        let jobs = session.source_index("jobdetail_df").unwrap() as u32;
        let letters = session.source_index("train_df").unwrap() as u32;
        let healthcare = (0..s.job_details.n_rows())
            .find(|&r| s.job_details.get(r, "sector").unwrap() == Value::Str("healthcare".into()))
            .unwrap();
        let other_job = s
            .job_details
            .get((healthcare + 1) % s.job_details.n_rows(), "job_id");
        let fixes = [
            // A healthcare job leaves the filter, then comes back.
            (jobs, healthcare, "sector", Value::Str("tech".into())),
            (jobs, healthcare, "sector", Value::Str("healthcare".into())),
            // Join-key updates: letters move between jobs.
            (letters, 3, "job_id", other_job.unwrap()),
            (
                letters,
                5,
                "job_id",
                s.job_details.get(healthcare, "job_id").unwrap(),
            ),
            (letters, 8, "job_id", Value::Int(1_000_000)),
        ];
        let n_fixes = fixes.len() + 1;
        // A letter whose social row is gone keeps its null pad when its
        // `person_id` (the left join's key) moves to another unmatched
        // value: same routing, new content, so the row must not map.
        let pid = session.table().get(0, "person_id").unwrap();
        let social_row = (0..s.social.n_rows())
            .find(|&r| s.social.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let letter_row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        session
            .apply(&Delta::Delete {
                source: "social_df".into(),
                row: social_row,
            })
            .unwrap();
        let fixes =
            fixes
                .into_iter()
                .chain([(letters, letter_row, "person_id", Value::Int(9_999_999))]);
        for (source, row, column, value) in fixes {
            let before = session.table().clone();
            let outcome = session
                .apply(&Delta::Update {
                    source: session.source_names()[source as usize].clone(),
                    row,
                    column: column.into(),
                    value,
                })
                .unwrap();
            assert_rerun_map_sound(
                &before,
                &session,
                &outcome,
                TupleId::new(source, row as u32),
            );
            assert!(outcome.affected_rows.len() < session.table().n_rows());
            assert_matches_fresh(&session);
        }
        assert_eq!(session.stats().reruns, n_fixes);
    }

    #[test]
    fn rerun_unmaps_rows_whose_right_join_tuple_changed() {
        // `salary_band` feeds the filter, so updating it reruns even when
        // every row keeps its routing; the band is visible in the output,
        // so the changed job's rows must not map.
        let s = HiringScenario::generate(80, 29);
        let mut plan = Plan::new();
        let letters = plan.source("train_df");
        let jobs = plan.source("jobdetail_df");
        let joined = plan.join(letters, jobs, "job_id", "job_id", JoinType::Inner);
        let root = plan.filter(joined, Expr::col("salary_band").gt(Expr::int(0)));
        let inputs = &hiring_inputs(&s)[..2];
        let mut session = PipelineSession::build(&Executor::new(), &plan, root, inputs).unwrap();
        let job = s.letters.get(0, "job_id").unwrap().as_int().unwrap() as usize;
        let band = s
            .job_details
            .get(job, "salary_band")
            .unwrap()
            .as_int()
            .unwrap();
        let before = session.table().clone();
        let outcome = session
            .apply(&Delta::Update {
                source: "jobdetail_df".into(),
                row: job,
                column: "salary_band".into(),
                value: Value::Int(band + 10),
            })
            .unwrap();
        assert_rerun_map_sound(&before, &session, &outcome, TupleId::new(1, job as u32));
        assert_eq!(session.table().n_rows(), before.n_rows());
        assert!(!outcome.affected_rows.is_empty());
        assert_matches_fresh(&session);
    }

    #[test]
    fn build_rejects_skip_and_record() {
        let s = HiringScenario::generate(20, 3);
        let (plan, root) = Plan::hiring_pipeline();
        let err = PipelineSession::build(
            &Executor::new().with_panic_policy(PanicPolicy::SkipAndRecord),
            &plan,
            root,
            &hiring_inputs(&s),
        );
        assert!(matches!(err, Err(PipelineError::Delta(_))));
    }

    #[test]
    fn update_takes_cell_patch_and_matches_fresh() {
        let s = HiringScenario::generate(80, 7);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        let outcome = session
            .apply(&Delta::Update {
                source: "train_df".into(),
                row: 5,
                column: "employer_rating".into(),
                value: Value::Float(9.5),
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::CellPatch);
        assert_matches_fresh(&session);
        assert_eq!(session.stats().cell_patches, 1);
        // The patched value is visible wherever source row 5 reached.
        for &out in &outcome.affected_rows {
            assert_eq!(
                session.table().get(out, "employer_rating").unwrap(),
                Value::Float(9.5)
            );
        }
    }

    #[test]
    fn routing_update_falls_back_to_rerun() {
        let s = HiringScenario::generate(60, 11);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        // `sector` feeds the healthcare filter: structural. (Job 0 is a
        // healthcare job, so writing "healthcare" would be unchanged.)
        assert_eq!(
            s.job_details.get(0, "sector").unwrap(),
            Value::Str("healthcare".into())
        );
        let outcome = session
            .apply(&Delta::Update {
                source: "jobdetail_df".into(),
                row: 0,
                column: "sector".into(),
                value: Value::Str("tech".into()),
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Rerun);
        assert_matches_fresh(&session);
        // `job_id` is a join key: structural too.
        let outcome = session
            .apply(&Delta::Update {
                source: "train_df".into(),
                row: 2,
                column: "job_id".into(),
                value: Value::Int(1),
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Rerun);
        assert_matches_fresh(&session);
        assert_eq!(session.stats().reruns, 2);
    }

    #[test]
    fn insert_and_delete_splice_and_match_fresh() {
        let s = HiringScenario::generate(80, 13);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        // Append a social row for a person that exists (left join gains a
        // real match) — splice.
        let person = s.letters.get(0, "person_id").unwrap();
        let outcome = session
            .apply(&Delta::Insert {
                source: "social_df".into(),
                values: vec![person, Value::Str("@new".into()), Value::Int(10)],
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Splice);
        assert_matches_fresh(&session);
        // Delete a letters row — splice again.
        let outcome = session
            .apply(&Delta::Delete {
                source: "train_df".into(),
                row: 3,
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Splice);
        assert!(outcome.row_map.is_some());
        assert_matches_fresh(&session);
        assert_eq!(session.stats().splices, 2);
    }

    #[test]
    fn splice_covers_distinct_concat_select_fuzzy() {
        // A plan exercising every remaining operator: fuzzy join, distinct,
        // concat (sharing a subtree), and a column selection.
        let mut companies = Table::empty(
            "companies",
            Schema::new(vec![
                Field::new("name", DataType::Str),
                Field::new("rating", DataType::Float),
            ])
            .unwrap(),
        );
        for (n, r) in [("Acme Corp", 4.5), ("Globex", 3.2), ("Initech", 2.8)] {
            companies.push_row(vec![n.into(), r.into()]).unwrap();
        }
        let mut mentions = Table::empty(
            "mentions",
            Schema::new(vec![
                Field::new("employer", DataType::Str),
                Field::new("person", DataType::Int),
            ])
            .unwrap(),
        );
        for (e, p) in [
            ("acme corp.", 1),
            ("GLOBEX", 2),
            ("acme  corp", 3),
            ("umbrella", 4),
        ] {
            mentions
                .push_row(vec![e.into(), (p as i64).into()])
                .unwrap();
        }
        let mut plan = Plan::new();
        let m = plan.source("mentions");
        let c = plan.source("companies");
        let fj = plan.fuzzy_join(m, c, "employer", "name", 0.75);
        let both = plan.concat(fj, fj);
        let d = plan.distinct(both, "person");
        let root = plan.select(d, &["person", "rating"]);
        let inputs: Vec<(&str, &Table)> = vec![("mentions", &mentions), ("companies", &companies)];
        let mut session = PipelineSession::build(&Executor::new(), &plan, root, &inputs).unwrap();
        assert_matches_fresh(&session);

        // Insert a mention that fuzzy-matches and survives distinct.
        let outcome = session
            .apply(&Delta::Insert {
                source: "mentions".into(),
                values: vec!["initech inc".into(), Value::Int(9)],
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Splice);
        assert_matches_fresh(&session);

        // Insert a company that steals an existing best match (exact
        // normalized form beats the typo match).
        let outcome = session
            .apply(&Delta::Insert {
                source: "companies".into(),
                values: vec!["acme corp.".into(), Value::Float(9.9)],
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Splice);
        assert_matches_fresh(&session);

        // Delete the stolen-match company again: dead winners rescan.
        let outcome = session
            .apply(&Delta::Delete {
                source: "companies".into(),
                row: 3,
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Splice);
        assert_matches_fresh(&session);

        // Delete a mention absorbed by distinct.
        let outcome = session
            .apply(&Delta::Delete {
                source: "mentions".into(),
                row: 2,
            })
            .unwrap();
        assert_eq!(outcome.path, DeltaPath::Splice);
        assert_matches_fresh(&session);

        // Fuzzy-join key updates rerun; the diff walks fuzzy join, concat,
        // distinct and selection.
        for (row, employer) in [(1, "initech"), (0, "globex corp")] {
            let before = session.table().clone();
            let outcome = session
                .apply(&Delta::Update {
                    source: "mentions".into(),
                    row,
                    column: "employer".into(),
                    value: employer.into(),
                })
                .unwrap();
            assert_rerun_map_sound(&before, &session, &outcome, TupleId::new(0, row as u32));
            assert_matches_fresh(&session);
        }
    }

    #[test]
    fn splice_is_identical_across_thread_counts() {
        let s = HiringScenario::generate(120, 17);
        let (plan, root) = Plan::hiring_pipeline();
        let person = s.letters.get(1, "person_id").unwrap();
        let deltas = [
            Delta::Insert {
                source: "social_df".into(),
                values: vec![person, Value::Null, Value::Int(0)],
            },
            Delta::Delete {
                source: "jobdetail_df".into(),
                row: 2,
            },
            Delta::Update {
                source: "train_df".into(),
                row: 7,
                column: "years_experience".into(),
                value: Value::Float(40.0),
            },
        ];
        let run = |threads: usize| {
            let mut session = PipelineSession::build(
                &Executor::new().with_threads(threads),
                &plan,
                root,
                &hiring_inputs(&s),
            )
            .unwrap();
            for d in &deltas {
                session.apply(d).unwrap();
            }
            (session.table().clone(), session.lineage())
        };
        let (seq_table, seq_lineage) = run(1);
        for threads in [2, 4, 7] {
            let (t, l) = run(threads);
            assert_eq!(t, seq_table, "threads={threads}");
            assert_eq!(l, seq_lineage, "threads={threads}");
        }
    }

    #[test]
    fn operator_panic_on_spliced_row_reruns_with_typed_error() {
        let s = HiringScenario::generate(30, 5);
        let mut plan = Plan::new();
        let a = plan.source("train_df");
        let boom = Expr::udf(
            "boom_on_neg",
            DataType::Bool,
            &["employer_rating"],
            |t, row| {
                let v = t.get(row, "employer_rating").unwrap();
                if matches!(v, Value::Float(f) if f < 0.0) {
                    panic!("negative rating");
                }
                Ok(Value::Bool(true))
            },
        );
        let f = plan.filter(a, boom);
        let inputs: Vec<(&str, &Table)> = vec![("train_df", &s.letters)];
        let mut session = PipelineSession::build(&Executor::new(), &plan, f, &inputs).unwrap();
        // Insert a row the predicate panics on: the splice fails, the rerun
        // fails with the executor's typed report, and the session poisons.
        let mut values = s.letters.row(0).unwrap();
        values[4] = Value::Float(-1.0); // employer_rating
        let err = session
            .apply(&Delta::Insert {
                source: "train_df".into(),
                values,
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::OperatorPanic { .. }));
        let err = session
            .apply(&Delta::Delete {
                source: "train_df".into(),
                row: 0,
            })
            .unwrap_err();
        assert!(matches!(err, PipelineError::Delta(_)), "poisoned session");
    }

    #[test]
    fn validation_failures_leave_session_untouched() {
        let s = HiringScenario::generate(30, 5);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        let before = session.table().clone();
        assert!(session
            .apply(&Delta::Update {
                source: "no_such".into(),
                row: 0,
                column: "x".into(),
                value: Value::Int(0),
            })
            .is_err());
        assert!(session
            .apply(&Delta::Update {
                source: "train_df".into(),
                row: 99_999,
                column: "employer_rating".into(),
                value: Value::Float(1.0),
            })
            .is_err());
        assert!(session
            .apply(&Delta::Delete {
                source: "train_df".into(),
                row: 99_999,
            })
            .is_err());
        assert_eq!(session.table(), &before);
        assert_eq!(session.stats().applied, 0);
        assert_matches_fresh(&session);
    }

    /// One seeded fix for the unchanged-write stream, and whether it writes
    /// the value its cell already holds. Rows come from small pools so
    /// repeated writes to one cell are common.
    fn mixed_fix(rng: &mut nde_data::rng::StdRng, session: &PipelineSession) -> (Delta, bool) {
        use nde_data::rng::Rng;
        let letters = session.input("train_df").unwrap();
        let jobs = session.input("jobdetail_df").unwrap();
        let social = session.input("social_df").unwrap();
        let update = |source: &str, row: usize, column: &str, value: Value| Delta::Update {
            source: source.into(),
            row,
            column: column.into(),
            value,
        };
        let row = rng.gen_range(0..8usize);
        match rng.gen_range(0..6u32) {
            // The label the cell already holds.
            0 => {
                let label = letters.get(row, "sentiment").unwrap();
                (update("train_df", row, "sentiment", label), true)
            }
            // An `Int` into a `Float` cell: unchanged when the cell holds
            // the same integral value, a real write otherwise.
            1 => match letters.get(row, "years_experience").unwrap() {
                Value::Float(f) if f.fract() == 0.0 => (
                    update("train_df", row, "years_experience", Value::Int(f as i64)),
                    true,
                ),
                _ => (
                    update(
                        "train_df",
                        row,
                        "years_experience",
                        Value::Int(rng.gen_range(0..30i64)),
                    ),
                    false,
                ),
            },
            // Null over Null (a real write when the handle is present).
            2 => {
                let null = social.get(row, "twitter").unwrap().is_null();
                (update("social_df", row, "twitter", Value::Null), null)
            }
            // The sector a job already has: a routing column, no rerun.
            3 => {
                let row = row % jobs.n_rows();
                let sector = jobs.get(row, "sector").unwrap();
                (update("jobdetail_df", row, "sector", sector), true)
            }
            // Real fixes: a label flip and a new rating.
            4 => {
                let flipped = match letters.get(row, "sentiment").unwrap().as_str() {
                    Some("positive") => "negative",
                    _ => "positive",
                };
                (
                    update("train_df", row, "sentiment", Value::Str(flipped.into())),
                    false,
                )
            }
            _ => {
                let rating = 0.25 + rng.gen_range(0..40u32) as f64 * 0.25;
                let same = letters.get(row, "employer_rating").unwrap() == Value::Float(rating);
                (
                    update("train_df", row, "employer_rating", Value::Float(rating)),
                    same,
                )
            }
        }
    }

    #[test]
    fn unchanged_writes_stop_at_the_source_and_match_fresh_at_every_thread_count() {
        let s = HiringScenario::generate(80, 41);
        let (plan, root) = Plan::hiring_pipeline();
        let mut baseline: Vec<(Table, Lineage)> = Vec::new();
        for threads in [1usize, 2, 4, 7] {
            let executor = Executor::new().with_threads(threads);
            let mut session =
                PipelineSession::build(&executor, &plan, root, &hiring_inputs(&s)).unwrap();
            let mut rng = nde_data::rng::seeded(0x0dd5);
            let mut unchanged = 0;
            for step in 0..60 {
                let (delta, same) = mixed_fix(&mut rng, &session);
                let before_tables = session.tables.clone();
                let before = *session.stats();
                let outcome = session.apply(&delta).unwrap();
                let at = format!("threads={threads} step={step} {delta:?}");
                if same {
                    unchanged += 1;
                    assert_eq!(
                        outcome,
                        DeltaOutcome {
                            path: DeltaPath::CellPatch,
                            affected_rows: Vec::new(),
                            row_map: None,
                        },
                        "{at}"
                    );
                    assert_eq!(session.tables, before_tables, "{at}: tables moved");
                    let after = *session.stats();
                    assert_eq!(after.unchanged, before.unchanged + 1, "{at}");
                    assert_eq!(after.cell_patches, before.cell_patches + 1, "{at}");
                    assert_eq!(after.reruns, before.reruns, "{at}");
                } else {
                    assert_eq!(session.stats().unchanged, before.unchanged, "{at}");
                }
                assert_matches_fresh(&session);
                if threads == 1 {
                    baseline.push((session.table().clone(), session.lineage()));
                } else {
                    let (t, l) = &baseline[step];
                    assert_eq!(session.table(), t, "{at}");
                    assert_eq!(&session.lineage(), l, "{at}");
                }
            }
            let stats = session.stats();
            assert_eq!(stats.unchanged, unchanged);
            assert!(
                unchanged >= 20 && stats.applied - unchanged >= 15,
                "{stats:?}"
            );
        }
    }

    #[test]
    fn floats_compare_by_bits_and_types_are_still_checked() {
        let s = HiringScenario::generate(60, 43);
        let (plan, root) = Plan::hiring_pipeline();
        let mut session =
            PipelineSession::build(&Executor::new(), &plan, root, &hiring_inputs(&s)).unwrap();
        // A letter that reaches the output.
        let pid = session.table().get(0, "person_id").unwrap();
        let row = (0..s.letters.n_rows())
            .find(|&r| s.letters.get(r, "person_id").unwrap() == pid)
            .unwrap();
        let mut write = |value: Value| {
            session
                .apply(&Delta::Update {
                    source: "train_df".into(),
                    row,
                    column: "employer_rating".into(),
                    value,
                })
                .map(|outcome| outcome.affected_rows)
        };
        assert_eq!(write(Value::Float(0.0)).unwrap(), vec![0]);
        assert!(write(Value::Float(0.0)).unwrap().is_empty());
        // `-0.0 == 0.0`, but it is another value: a change.
        assert_eq!(write(Value::Float(-0.0)).unwrap(), vec![0]);
        assert!(write(Value::Float(-0.0)).unwrap().is_empty());
        // An `Int` coerces to the `Float` it stores.
        assert_eq!(write(Value::Int(0)).unwrap(), vec![0]);
        assert!(write(Value::Int(0)).unwrap().is_empty());
        assert!(write(Value::Float(0.0)).unwrap().is_empty());
        // NaNs with different payloads are different values.
        let quiet = f64::NAN;
        let other = f64::from_bits(quiet.to_bits() | 1);
        assert_eq!(write(Value::Float(quiet)).unwrap(), vec![0]);
        assert!(write(Value::Float(quiet)).unwrap().is_empty());
        assert_eq!(write(Value::Float(other)).unwrap(), vec![0]);
        // A type mismatch errors, whatever the cell holds.
        assert!(matches!(
            write(Value::Str("0".into())),
            Err(PipelineError::Data(_))
        ));
        // The output holds the last payload bit for bit.
        let cell = session.table().get(0, "employer_rating").unwrap();
        assert_eq!(cell.as_float().map(f64::to_bits), Some(other.to_bits()));
        let stats = session.stats();
        assert_eq!((stats.applied, stats.unchanged, stats.reruns), (10, 5, 0));
    }

    #[test]
    fn a_cell_patch_that_meets_a_routing_column_downstream_ends_as_a_fresh_run() {
        // The rating flows through a join and a projection (both patched in
        // place) before a filter reads the projected column: the walk bails
        // out there and the rerun must replace every table it patched.
        let s = HiringScenario::generate(80, 45);
        let mut plan = Plan::new();
        let letters = plan.source("train_df");
        let jobs = plan.source("jobdetail_df");
        let joined = plan.join(letters, jobs, "job_id", "job_id", JoinType::Inner);
        let boosted = plan.project(
            joined,
            "boosted",
            Expr::udf("boost", DataType::Float, &["employer_rating"], |t, row| {
                let v = t.get(row, "employer_rating")?;
                Ok(v.as_float().map_or(Value::Null, |f| Value::Float(f + 1.0)))
            }),
        );
        let root = plan.filter(boosted, Expr::col("boosted").gt(Expr::float(5.0)));
        let inputs = &hiring_inputs(&s)[..2];
        let mut session = PipelineSession::build(&Executor::new(), &plan, root, inputs).unwrap();
        let before = session.table().n_rows();
        // Push every kept row's letter below the bar, one fix at a time.
        let mut reruns = 0;
        for row in 0..s.letters.n_rows() {
            let rating = s.letters.get(row, "employer_rating").unwrap();
            if rating.as_float().is_none_or(|f| f + 1.0 <= 5.0) {
                continue;
            }
            let outcome = session
                .apply(&Delta::Update {
                    source: "train_df".into(),
                    row,
                    column: "employer_rating".into(),
                    value: Value::Float(1.0),
                })
                .unwrap();
            reruns += usize::from(outcome.path == DeltaPath::Rerun);
            assert_matches_fresh(&session);
            if reruns == 6 {
                break;
            }
        }
        assert_eq!(reruns, 6);
        assert!(session.table().n_rows() < before);
    }

    #[test]
    fn a_projection_failing_on_the_new_value_reports_the_rerun_error_and_poisons() {
        let s = HiringScenario::generate(40, 47);
        for panics in [false, true] {
            let mut plan = Plan::new();
            let letters = plan.source("train_df");
            let doubled = plan.project(
                letters,
                "doubled",
                Expr::udf("double", DataType::Float, &["employer_rating"], |t, row| {
                    let v = t.get(row, "employer_rating")?;
                    Ok(v.as_float().map_or(Value::Null, |f| Value::Float(2.0 * f)))
                }),
            );
            let root = plan.project(
                doubled,
                "checked",
                Expr::udf(
                    "check",
                    DataType::Float,
                    &["doubled"],
                    move |t, row| match t.get(row, "doubled")? {
                        Value::Float(f) if f < 0.0 && panics => panic!("negative rating"),
                        Value::Float(f) if f < 0.0 => {
                            Err(PipelineError::Expr("negative rating".into()))
                        }
                        v => Ok(v),
                    },
                ),
            );
            let inputs = &hiring_inputs(&s)[..1];
            let mut session =
                PipelineSession::build(&Executor::new(), &plan, root, inputs).unwrap();
            let bad = Delta::Update {
                source: "train_df".into(),
                row: 3,
                column: "employer_rating".into(),
                value: Value::Float(-1.0),
            };
            let err = session.apply(&bad).unwrap_err();
            // The error a fresh run over the mutated input reports.
            let mut mutated = s.letters.clone();
            mutated
                .set(3, "employer_rating", Value::Float(-1.0))
                .unwrap();
            let want = Executor::new()
                .run(&plan, root, &[("train_df", &mutated)])
                .unwrap_err();
            assert_eq!(err, want, "panics={panics}");
            assert_eq!(
                matches!(err, PipelineError::OperatorPanic { .. }),
                panics,
                "{err:?}"
            );
            assert_eq!(session.stats().applied, 0);
            // Poisoned: even a valid (or unchanged) fix is refused.
            for value in [Value::Float(2.0), Value::Float(-1.0)] {
                let err = session
                    .apply(&Delta::Update {
                        source: "train_df".into(),
                        row: 3,
                        column: "employer_rating".into(),
                        value,
                    })
                    .unwrap_err();
                assert!(
                    matches!(&err, PipelineError::Delta(m) if m.contains("poisoned")),
                    "{err:?}"
                );
            }
        }
    }
}
