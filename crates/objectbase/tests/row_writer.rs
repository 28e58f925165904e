//! Seeded differential suite of the batched row writer.
//!
//! Random batches of whole-row replacements go through
//! `InstanceTxn::replace_rows` (with a maintained view observing it) and
//! through `EdgeIndex::replace_rows`, and are compared with a flat
//! `BTreeSet<Edge>` oracle edited edge by edge: after every batch the
//! instance equals the oracle, both index views and the counts agree
//! (`check_consistent`), the view equals a rebuild, the log holds exactly
//! the effective edits (per row in ascending source order, removals then
//! additions, each ascending), and the per-row diffs equal those of one
//! `EdgeIndex::replace_row` per row.
//!
//! The batches mix small random rows, hub sources past the small-vector
//! bound, many sources gaining or losing one bar (its reverse row crosses
//! `ADJ_BOUND` both ways), a few edits to a large reverse row, many rows
//! sharing one value list, and the shape of a set update whose value is
//! one closed subquery: most sources take one list that drifts by a bar
//! from batch to batch, so rows that took it before already hold part of
//! it and its bars already have tree-sized reverse rows, while a block of
//! sources in the middle takes other lists, so the run of rows sharing
//! the list breaks and resumes. The sweep fails unless each of these
//! shared-list shapes occurs. Some batches carry a dangling or
//! ill-typed value in one row, or a repeated source: those must fail with
//! the error `Instance::add_edge` gives for the first failing edge in
//! batch order (or a duplicate-row error), leaving instance, view and
//! log as they were.
//!
//! The sweep runs `DEFAULT_TRIALS` seeds from `SWEEP_BASE`; replay one
//! with `RECEIVERS_DIFF_SEED=<seed> cargo test -p receivers-objectbase
//! --test row_writer`.

use std::collections::BTreeSet;
use std::sync::Arc;

use rand::rngs::StdRng;
use rand::{RngExt, SeedableRng};

use receivers_objectbase::examples::{beer_schema, BeerSchema};
use receivers_objectbase::index::ADJ_BOUND;
use receivers_objectbase::{
    DeltaOp, Edge, EdgeIndex, Instance, InstanceTxn, ObjectBaseError, Oid, PropId,
};
use receivers_relalg::DatabaseView;

/// First seed of the sweep (`0x2B0E_0000`).
const SWEEP_BASE: u64 = 722_337_792;
/// Seeds in the default sweep.
const DEFAULT_TRIALS: u64 = 24;
/// Batches per seed.
const BATCHES: usize = 24;
/// Objects per class.
const UNIVERSE: u32 = 3 * ADJ_BOUND as u32;

/// What the sweep must have exercised.
#[derive(Default)]
struct Seen {
    applied: usize,
    faults: usize,
    duplicates: usize,
    crossed_up: usize,
    crossed_down: usize,
    /// A row of a shared list's run already held part of the list, not
    /// all of it.
    shared_strict: usize,
    /// A shared list's run broke for rows adding other lists, and
    /// resumed.
    resumed: usize,
    /// A shared list added a value whose reverse row was tree-sized.
    tree_targets: usize,
}

/// One replacement row, values as given (any order, duplicates allowed).
type Row = (Oid, Vec<Oid>);

struct Trial {
    s: BeerSchema,
    rng: StdRng,
    seed: u64,
    subject: Instance,
    view: DatabaseView,
    log: Vec<DeltaOp>,
    oracle: BTreeSet<Edge>,
    /// `EdgeIndex::replace_rows` on its own ...
    batched: EdgeIndex,
    /// ... and one `EdgeIndex::replace_row` per row.
    per_row: EdgeIndex,
    /// The drifting list of the closed-subquery shape: bars, ascending.
    stage: Vec<Oid>,
}

impl Trial {
    fn new(seed: u64) -> Self {
        let s = beer_schema();
        let mut rng = StdRng::seed_from_u64(seed);
        let mut base = Instance::empty(Arc::clone(&s.schema));
        for c in [s.drinker, s.bar, s.beer] {
            for k in 0..UNIVERSE {
                base.add_object(Oid::new(c, k));
            }
        }
        for _ in 0..1500 {
            let d = Oid::new(s.drinker, rng.random_range(0..UNIVERSE));
            let p = if rng.random_bool(0.5) {
                s.frequents
            } else {
                s.likes
            };
            let class = s.schema.property(p).dst;
            base.link(d, p, Oid::new(class, rng.random_range(0..UNIVERSE)))
                .expect("typed");
        }
        let oracle: BTreeSet<Edge> = base.edges().collect();
        let stage: BTreeSet<Oid> = (0..32)
            .map(|_| Oid::new(s.bar, rng.random_range(0..UNIVERSE)))
            .collect();
        Self {
            stage: stage.into_iter().collect(),
            view: DatabaseView::new(&base),
            batched: oracle.iter().copied().collect(),
            per_row: oracle.iter().copied().collect(),
            oracle,
            subject: base,
            log: Vec::new(),
            s,
            rng,
            seed,
        }
    }

    fn successors(&self, src: Oid, prop: PropId) -> Vec<Oid> {
        let from = Edge::new(src, prop, Oid::new(receivers_objectbase::ClassId(0), 0));
        self.oracle
            .range(from..)
            .take_while(|e| e.src == src && e.prop == prop)
            .map(|e| e.dst)
            .collect()
    }

    fn in_degree(&self, dst: Oid, prop: PropId) -> usize {
        self.oracle
            .iter()
            .filter(|e| e.dst == dst && e.prop == prop)
            .count()
    }

    fn drinker(&mut self) -> Oid {
        Oid::new(self.s.drinker, self.rng.random_range(0..UNIVERSE))
    }

    /// `n` distinct random drinkers, ascending.
    fn drinkers(&mut self, n: usize) -> Vec<Oid> {
        let mut out = BTreeSet::new();
        while out.len() < n {
            out.insert(self.drinker());
        }
        out.into_iter().collect()
    }

    /// Random values of `prop`'s target class: part of `src`'s old list,
    /// topped up to `len`, with a duplicate, shuffled.
    fn values(&mut self, src: Oid, prop: PropId, len: usize) -> Vec<Oid> {
        let class = self.s.schema.property(prop).dst;
        let old = self.successors(src, prop);
        let mut values: Vec<Oid> = old
            .into_iter()
            .filter(|_| self.rng.random_bool(0.5))
            .collect();
        while values.len() < len {
            values.push(Oid::new(class, self.rng.random_range(0..UNIVERSE)));
        }
        if !values.is_empty() {
            let k = self.rng.random_range(0..values.len());
            values.push(values[k]);
        }
        self.shuffle(&mut values);
        values
    }

    /// Drift the stage list by one bar: drop one, take one it lacks.
    fn drift_stage(&mut self) {
        if self.stage.len() > 1 {
            let k = self.rng.random_range(0..self.stage.len());
            self.stage.remove(k);
        }
        loop {
            let bar = Oid::new(self.s.bar, self.rng.random_range(0..UNIVERSE));
            if let Err(at) = self.stage.binary_search(&bar) {
                self.stage.insert(at, bar);
                return;
            }
        }
    }

    fn shuffle<T>(&mut self, items: &mut [T]) {
        for k in (1..items.len()).rev() {
            items.swap(k, self.rng.random_range(0..k + 1));
        }
    }

    /// One random batch of one property.
    fn batch(&mut self) -> (PropId, Vec<Row>) {
        let b = ADJ_BOUND;
        let (frequents, likes) = (self.s.frequents, self.s.likes);
        let hub_bar = Oid::new(self.s.bar, self.rng.random_range(0..4));
        match self.rng.random_range(0..7u32) {
            // Small random rows, one of them sometimes a hub source.
            0 | 1 => {
                let prop = if self.rng.random_bool(0.5) {
                    frequents
                } else {
                    likes
                };
                let n = self.rng.random_range(1..40usize);
                let srcs = self.drinkers(n);
                let rows = srcs
                    .into_iter()
                    .map(|src| {
                        let len = if self.rng.random_range(0..8u32) == 0 {
                            let sizes = [b / 2 - 1, b / 2 + 1, b - 1, b, b + 1, 2 * b, 3 * b];
                            sizes[self.rng.random_range(0..sizes.len())]
                        } else {
                            self.rng.random_range(0..6usize)
                        };
                        (src, self.values(src, prop, len))
                    })
                    .collect();
                (prop, rows)
            }
            // Many drinkers gain, or lose, one bar: its reverse row
            // crosses the bound upwards or downwards.
            2 => {
                let gain = self.rng.random_bool(0.5);
                let n = self.rng.random_range(b / 2..3 * b);
                let srcs = self.drinkers(n);
                let rows = srcs
                    .into_iter()
                    .map(|src| {
                        let mut values = self.successors(src, frequents);
                        values.retain(|&v| v != hub_bar);
                        if gain {
                            values.push(hub_bar);
                        }
                        (src, values)
                    })
                    .collect();
                (frequents, rows)
            }
            // A few edits to what may be a large reverse row.
            3 => {
                let n = self.rng.random_range(1..24usize);
                let srcs = self.drinkers(n);
                let rows = srcs
                    .into_iter()
                    .map(|src| {
                        let mut values = self.successors(src, frequents);
                        if values.contains(&hub_bar) {
                            values.retain(|&v| v != hub_bar);
                        } else {
                            values.push(hub_bar);
                        }
                        (src, values)
                    })
                    .collect();
                (frequents, rows)
            }
            // A set update whose value is one closed subquery: most
            // sources take the drifting stage list, a block of sources
            // in the middle takes other lists.
            6 => {
                self.drift_stage();
                let n = self.rng.random_range(b + 8..3 * b);
                let srcs = self.drinkers(n);
                let from = self.rng.random_range(2..n / 2);
                let to = from + self.rng.random_range(1..8usize);
                let rows = srcs
                    .into_iter()
                    .enumerate()
                    .map(|(k, src)| {
                        if (from..to).contains(&k) {
                            let len = self.rng.random_range(1..6usize);
                            (src, self.values(src, frequents, len))
                        } else {
                            (src, self.stage.clone())
                        }
                    })
                    .collect();
                (frequents, rows)
            }
            // Many rows sharing one value list, as an uncorrelated set
            // update writes them.
            _ => {
                let prop = if self.rng.random_bool(0.5) {
                    frequents
                } else {
                    likes
                };
                let len = self.rng.random_range(0..40usize);
                let shared = {
                    let from = self.drinker();
                    let mut v = self.values(from, prop, len);
                    v.sort_unstable();
                    v.dedup();
                    v
                };
                let n = self.rng.random_range(1..b);
                let srcs = self.drinkers(n);
                (
                    prop,
                    srcs.into_iter().map(|src| (src, shared.clone())).collect(),
                )
            }
        }
    }

    /// Which shared-list shapes the batch `sorted` (ascending sources,
    /// each list a set) has against the state before it: `[a row of a
    /// shared run already held part of its list, not all; a shared run
    /// broke for rows adding other lists and resumed; a shared list
    /// added a value whose reverse row was tree-sized]`. A run is shared
    /// when two rows or more give the same list of 8 values or more.
    fn shared_shapes(&self, prop: PropId, sorted: &[(Oid, Vec<Oid>)]) -> [bool; 3] {
        let held = |src: Oid, list: &[Oid]| {
            let old = self.successors(src, prop);
            list.iter().filter(|v| old.contains(v)).count()
        };
        let adds = |run: &[(Oid, Vec<Oid>)]| run.iter().any(|(src, l)| held(*src, l) < l.len());
        // Runs of consecutive rows with one non-empty list.
        let runs: Vec<&[(Oid, Vec<Oid>)]> = sorted
            .chunk_by(|x, y| x.1 == y.1)
            .filter(|run| !run[0].1.is_empty())
            .collect();
        // Shared: two rows or more, and a list of 8 values or more.
        let is_shared = |run: &[(Oid, Vec<Oid>)]| run.len() >= 2 && run[0].1.len() >= 8;
        let shared = || runs.iter().filter(|run| is_shared(run));
        let strict = shared().any(|run| {
            run.iter().any(|(src, list)| {
                let held = held(*src, list);
                0 < held && held < list.len()
            })
        });
        let resumed = runs.windows(3).any(|w| {
            w[0][0].1 == w[2][0].1 && is_shared(w[0]) && is_shared(w[2]) && adds(w[1]) && adds(w[2])
        });
        let trees = shared().any(|run| {
            run[0].1.iter().any(|&v| {
                self.subject.predecessors(v, prop).count() > ADJ_BOUND
                    && run
                        .iter()
                        .any(|(src, _)| !self.successors(*src, prop).contains(&v))
            })
        });
        [strict, resumed, trees]
    }

    /// The error `Instance::add_edge` gives for the first failing edge of
    /// `rows` in batch order (each row's values in ascending order).
    fn first_add_edge_error(&self, prop: PropId, rows: &[Row]) -> Option<ObjectBaseError> {
        let mut scratch = self.subject.clone();
        rows.iter().find_map(|(src, values)| {
            let set: BTreeSet<Oid> = values.iter().copied().collect();
            set.into_iter()
                .find_map(|v| scratch.add_edge(Edge::new(*src, prop, v)).err())
        })
    }

    /// Apply one batch and check every invariant of the module docs.
    fn step(&mut self, k: usize, seen: &mut Seen) {
        let (prop, mut rows) = self.batch();
        let ctx = format!("seed {}, batch {k}", self.seed);
        // Faults: a bad value in one row, or a repeated source.
        let mut duplicate = false;
        match self.rng.random_range(0..10u32) {
            0 if !rows.is_empty() => {
                let at = self.rng.random_range(0..rows.len());
                let class = self.s.schema.property(prop).dst;
                let bad = match self.rng.random_range(0..3u32) {
                    0 => Oid::new(class, 10 * UNIVERSE),
                    1 => rows[at].0,
                    _ => {
                        rows[at].0 = Oid::new(self.s.drinker, 10 * UNIVERSE);
                        Oid::new(class, 0)
                    }
                };
                rows[at].1.push(bad);
            }
            1 if !rows.is_empty() => {
                let at = self.rng.random_range(0..rows.len());
                let values = self.values(rows[at].0, prop, 2);
                rows.push((rows[at].0, values));
                duplicate = true;
            }
            _ => {}
        }
        if self.rng.random_bool(0.3) {
            self.shuffle(&mut rows);
        }
        let fault = self.first_add_edge_error(prop, &rows);

        let hub_bars: Vec<(Oid, usize)> = (0..4)
            .map(|k| {
                let bar = Oid::new(self.s.bar, k);
                (bar, self.in_degree(bar, self.s.frequents))
            })
            .collect();
        // The rows as the writer takes them: ascending sources, each
        // list a set.
        let mut sorted: Vec<(Oid, Vec<Oid>)> = rows
            .iter()
            .map(|(src, values)| {
                let set: BTreeSet<Oid> = values.iter().copied().collect();
                (*src, set.into_iter().collect())
            })
            .collect();
        sorted.sort();
        let shapes = self.shared_shapes(prop, &sorted);
        let (before, logged) = (self.subject.clone(), self.log.len());
        let mut txn = InstanceTxn::begin_observed(&mut self.subject, &mut self.view);
        let outcome = txn.replace_rows(prop, &rows);
        match (&fault, duplicate) {
            (Some(want), _) => {
                assert_eq!(outcome.as_ref().err(), Some(want), "{ctx}: fault error");
                seen.faults += 1;
            }
            (None, true) => {
                assert!(
                    matches!(outcome, Err(ObjectBaseError::DuplicateRow { .. })),
                    "{ctx}: a repeated source must be refused: {outcome:?}"
                );
                seen.duplicates += 1;
            }
            (None, false) => assert!(outcome.is_ok(), "{ctx}: {outcome:?}"),
        }
        let Ok(edits) = outcome else {
            drop(txn);
            assert_eq!(self.subject, before, "{ctx}: a failed batch wrote");
            assert_eq!(self.log.len(), logged, "{ctx}: a failed batch logged");
            assert!(self.view.matches_rebuild(&self.subject), "{ctx}: view");
            self.subject.check_index_consistent();
            return;
        };
        txn.commit_into(&mut self.log);
        seen.applied += 1;

        for (tally, shape) in [
            &mut seen.shared_strict,
            &mut seen.resumed,
            &mut seen.tree_targets,
        ]
        .into_iter()
        .zip(shapes)
        {
            *tally += usize::from(shape);
        }

        // The oracle, edited edge by edge; the expected log, per row in
        // ascending source order.
        let mut expected_ops = Vec::new();
        let mut expected_diffs = Vec::new();
        for (src, new) in &sorted {
            let old: BTreeSet<Oid> = self.successors(*src, prop).into_iter().collect();
            let new_set: BTreeSet<Oid> = new.iter().copied().collect();
            let removed: Vec<Oid> = old.difference(&new_set).copied().collect();
            let added: Vec<Oid> = new_set.difference(&old).copied().collect();
            for &v in &old {
                self.oracle.remove(&Edge::new(*src, prop, v));
            }
            for &v in new {
                self.oracle.insert(Edge::new(*src, prop, v));
            }
            let edge = |v: &Oid| Edge::new(*src, prop, *v);
            expected_ops.extend(removed.iter().map(|v| DeltaOp::RemovedEdge(edge(v))));
            expected_ops.extend(added.iter().map(|v| DeltaOp::AddedEdge(edge(v))));
            expected_diffs.push((*src, removed, added));
        }
        assert_eq!(self.log[logged..], expected_ops[..], "{ctx}: logged edits");
        assert_eq!(edits, expected_ops.len(), "{ctx}: edit count");
        let got: BTreeSet<Edge> = self.subject.edges().collect();
        assert!(
            got == self.oracle,
            "{ctx}: instance diverged from the oracle"
        );
        self.subject.check_index_consistent();
        assert!(self.view.matches_rebuild(&self.subject), "{ctx}: view");

        // The index on its own: one batch against one row at a time.
        let diffs = self.batched.replace_rows(prop, &sorted);
        let mut per_row_diffs = Vec::new();
        for (src, new) in &sorted {
            let (removed, added) = self.per_row.replace_row(*src, prop, new);
            per_row_diffs.push((*src, removed, added));
        }
        let batched_diffs: Vec<(Oid, Vec<Oid>, Vec<Oid>)> = diffs
            .iter()
            .map(|(src, r, a)| (src, r.to_vec(), a.to_vec()))
            .collect();
        assert_eq!(batched_diffs, per_row_diffs, "{ctx}: per-row diffs");
        assert_eq!(
            batched_diffs, expected_diffs,
            "{ctx}: diffs against the oracle"
        );
        assert_eq!(diffs.edit_count(), expected_ops.len(), "{ctx}: diff count");
        self.batched.check_consistent();
        self.per_row.check_consistent();
        assert_eq!(
            self.batched, self.per_row,
            "{ctx}: batched vs per-row index"
        );
        assert!(
            self.batched.iter().eq(self.oracle.iter().copied()),
            "{ctx}: index diverged from the oracle"
        );
        for (bar, was) in hub_bars {
            let now = self.in_degree(bar, self.s.frequents);
            assert!(
                self.batched
                    .predecessors(bar, self.s.frequents)
                    .eq(self.subject.predecessors(bar, self.s.frequents)),
                "{ctx}: reverse row of {bar}"
            );
            if was <= ADJ_BOUND && now > ADJ_BOUND {
                seen.crossed_up += 1;
            }
            if was > ADJ_BOUND && now <= ADJ_BOUND / 2 {
                seen.crossed_down += 1;
            }
        }
    }
}

fn run_trial(seed: u64, seen: &mut Seen) {
    let mut trial = Trial::new(seed);
    for k in 0..BATCHES {
        trial.step(k, seen);
    }
}

/// The tier-1 sweep, or one seed from `RECEIVERS_DIFF_SEED`.
#[test]
fn batched_rows_match_the_per_edge_oracle() {
    let mut seen = Seen::default();
    if let Ok(s) = std::env::var("RECEIVERS_DIFF_SEED") {
        let seed = s.trim().parse().expect("RECEIVERS_DIFF_SEED must be u64");
        run_trial(seed, &mut seen);
        return;
    }
    for k in 0..DEFAULT_TRIALS {
        run_trial(SWEEP_BASE + k, &mut seen);
    }
    assert!(seen.applied > 0 && seen.faults > 0 && seen.duplicates > 0);
    assert!(
        seen.crossed_up > 0 && seen.crossed_down > 0,
        "reverse rows must cross the bound both ways: up {}, down {}",
        seen.crossed_up,
        seen.crossed_down
    );
    assert!(
        seen.shared_strict > 0 && seen.resumed > 0 && seen.tree_targets > 0,
        "shared lists must be partly held ({}), break and resume ({}) and \
         reach tree-sized reverse rows ({})",
        seen.shared_strict,
        seen.resumed,
        seen.tree_targets
    );
}
