//! Incremental matching over edge-update streams.
//!
//! The paper budgets *rounds of data access* for a frozen graph; a serving
//! system never gets one — edges arrive, expire and change weight
//! continuously, and re-running a cold `O(p/ε)`-round solve per change wastes
//! exactly the resource the paper economizes. [`DynamicMatcher`] turns the
//! static reproduction into a serving-shaped session:
//!
//! 1. Callers feed batches of [`GraphUpdate`]s into an **epoch**. The batch
//!    first streams through the [`PassEngine`] via
//!    [`PassEngine::pass_items`] — one charged, sharded, deterministic pass
//!    producing a *damage summary* (touched vertices, update mix) — and is
//!    then applied in order to the [`mwm_graph::GraphOverlay`].
//! 2. A **damage-ratio policy** (touched vertices / live vertices) picks the
//!    cheapest adequate reaction:
//!    * `damage ≤ 0.05` → **incremental repair**: the previous
//!      matching keeps its surviving edges; a localized 2-swap/augmentation
//!      repair ([`mwm_matching::local_search`]) runs on the 1-hop region
//!      around the touched vertices, with a global greedy pass as a ½-floor
//!      safety net.
//!    * `damage ≤ 0.5` (and duals available) → **warm
//!      re-solve**: the dual-primal solver resumes from the previous epoch's
//!      exported [`DualSnapshot`] ([`DualPrimalSolver::solve_warm`]), skipping the
//!      `O(p)` cold sampling rounds.
//!    * otherwise → **full rebuild**: a cold solve through the same
//!      [`DualPrimalSolver::solve_warm`] call, whose final duals seed the
//!      next warm re-solve.
//!
//!    A session owns one [`DualPrimalSolver`], built from its
//!    [`DynamicConfig`], so an exported and re-imported session solves
//!    exactly as one that stayed resident.
//! 3. Every epoch appends an [`EpochStats`] row to the session ledger:
//!    updates applied, the repair/warm/rebuild decision, rounds charged,
//!    items streamed, the weight and the overlay's resident bytes.
//!
//! The overlay holds only the live edges under stable ids, so a session's
//! memory follows its live graph, not the length of its update stream.
//!
//! Determinism contract: like every pass in the workspace, epochs are
//! **bit-identical across parallelism levels** — update ingestion and repair
//! scans merge in shard order, the solver inherits the pass engine's
//! guarantees, and every tie-break is explicit. The worker count comes from
//! the epoch's [`ResourceBudget::with_parallelism`] (1 when unset).

use mwm_core::{
    DualPrimalConfig, DualPrimalSolver, MwmError, ResourceBudget, SolveReport, WarmStartState,
};
use mwm_graph::{
    BMatching, Edge, EdgeId, Graph, GraphOverlay, GraphUpdate, Matching, OverlayState, VertexId,
};
use mwm_lp::DualSnapshot;
use mwm_mapreduce::{GraphSource, PassEngine, ResourceTracker, TrackerCounters};
use mwm_matching::{greedy_b_matching, improve_matching};
use std::fmt;
use std::sync::{Arc, RwLock};

/// Damage ratio (touched vertices / live vertices) at or below which an
/// epoch is handled by localized incremental repair.
const REPAIR_THRESHOLD: f64 = 0.05;
/// Damage ratio at or below which an epoch warm re-solves from the previous
/// epoch's duals; above it the epoch rebuilds cold.
const REBUILD_THRESHOLD: f64 = 0.5;

/// Configuration of a [`DynamicMatcher`] session.
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// Accuracy parameter ε of the underlying dual-primal solves.
    pub eps: f64,
    /// Round/space trade-off exponent `p` of the underlying solves.
    pub p: f64,
    /// RNG seed threaded into the solver.
    pub seed: u64,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig { eps: 0.2, p: 2.0, seed: 0xD1A }
    }
}

impl DynamicConfig {
    /// Validates every parameter through the solver config they feed into,
    /// returning the first violation.
    pub fn validate(&self) -> Result<(), MwmError> {
        self.solver_config().validate()
    }

    /// The dual-primal configuration an epoch solve runs with.
    fn solver_config(&self) -> DualPrimalConfig {
        DualPrimalConfig { eps: self.eps, p: self.p, seed: self.seed, ..Default::default() }
    }
}

/// How an epoch reacted to its damage ratio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochDecision {
    /// Localized augmenting/2-swap repair around the touched vertices.
    Repair,
    /// Dual-primal re-solve warm-started from the previous epoch's duals.
    WarmResolve,
    /// Cold dual-primal solve on the live graph.
    Rebuild,
}

impl fmt::Display for EpochDecision {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            EpochDecision::Repair => "repair",
            EpochDecision::WarmResolve => "warm",
            EpochDecision::Rebuild => "rebuild",
        })
    }
}

/// One row of the session ledger: what an epoch ingested, decided and cost.
#[derive(Clone, Debug)]
pub struct EpochStats {
    /// Epoch index (0-based).
    pub epoch: usize,
    /// Overlay version after the epoch's updates were applied.
    pub version: u64,
    /// Updates applied / rejected (malformed updates are counted, not fatal).
    pub updates_applied: usize,
    /// Rejected updates (dead ids, bad weights, …).
    pub updates_rejected: usize,
    /// Edge inserts in the batch.
    pub inserts: usize,
    /// Edge deletes in the batch.
    pub deletes: usize,
    /// Edge reweights in the batch.
    pub reweights: usize,
    /// Vertex additions/removals in the batch.
    pub vertex_ops: usize,
    /// Capacity changes in the batch.
    pub capacity_ops: usize,
    /// Distinct vertices whose incident structure the batch touched.
    pub touched_vertices: usize,
    /// `touched_vertices / live vertices`, the policy input.
    pub damage_ratio: f64,
    /// The reaction the policy picked.
    pub decision: EpochDecision,
    /// Rounds of data access charged by this epoch (update ingestion +
    /// repair scans + solver rounds).
    pub epoch_rounds: usize,
    /// Rounds used by the epoch's solver call alone (0 for repair epochs) —
    /// compare against a cold solve's rounds to see the warm-start saving.
    pub solver_rounds: usize,
    /// Items streamed by this epoch (updates + edges scanned).
    pub streamed_items: usize,
    /// Weight of the maintained matching after the epoch.
    pub weight: f64,
    /// Distinct edges in the maintained matching.
    pub matching_edges: usize,
    /// Resident bytes of the overlay after the epoch: its live edges and
    /// vertex tables ([`GraphOverlay::resident_bytes`]).
    pub journal_bytes: usize,
}

/// The state of a session at its last **committed** epoch boundary.
///
/// Snapshots are immutable values published atomically when an epoch fully
/// commits — a failed epoch rolls back without publishing,
/// so a snapshot never exposes a mid-epoch or torn state. Edge ids are the
/// session's stable overlay ids as of `version`.
#[derive(Clone, Debug)]
pub struct CommittedSnapshot {
    /// Number of committed epochs (0 before the bootstrap epoch).
    pub epoch: usize,
    /// Overlay version at the commit point.
    pub version: u64,
    /// Weight of the committed matching.
    pub weight: f64,
    /// The committed matching, in stable overlay edge ids.
    pub matching: BMatching,
    /// The ledger row of the last committed epoch (`None` before bootstrap).
    pub last_stats: Option<EpochStats>,
}

/// A cheap, clonable handle onto a session's last committed state.
///
/// [`CommittedView::load`] is a read-lock plus an `Arc` clone — O(1), never
/// blocked behind an in-flight epoch — so any number of reader threads can
/// query a live session (the serving layer's snapshot-consistent reads)
/// while its owner applies updates. Readers always observe a complete
/// committed epoch, never a partial one: the owning [`DynamicMatcher`]
/// publishes a fresh immutable [`CommittedSnapshot`] only after an epoch has
/// fully succeeded.
#[derive(Clone, Debug)]
pub struct CommittedView {
    slot: Arc<RwLock<Arc<CommittedSnapshot>>>,
}

impl CommittedView {
    /// The latest committed snapshot (shared, immutable).
    pub fn load(&self) -> Arc<CommittedSnapshot> {
        self.slot.read().expect("committed-view lock poisoned").clone()
    }
}

/// What [`DynamicMatcher::apply_epoch`] returns: the ledger row plus the
/// solver report when the epoch re-solved (absent for repair epochs).
#[derive(Clone, Debug)]
pub struct EpochReport {
    /// The ledger row (also appended to [`DynamicMatcher::ledger`]).
    pub stats: EpochStats,
    /// The warm/rebuild solve's report, if the epoch ran a solver.
    pub solve: Option<SolveReport>,
}

/// Per-shard damage accumulator of the sharded update-ingestion pass.
#[derive(Clone, Debug, Default, PartialEq)]
struct DamageSummary {
    touched: Vec<VertexId>,
    inserts: usize,
    deletes: usize,
    reweights: usize,
    vertex_ops: usize,
    capacity_ops: usize,
}

impl DamageSummary {
    fn absorb(&mut self, overlay: &GraphOverlay, update: &GraphUpdate) {
        self.touched.extend(overlay.touched_by(update));
        match update {
            GraphUpdate::InsertEdge { .. } => self.inserts += 1,
            GraphUpdate::DeleteEdge { .. } => self.deletes += 1,
            GraphUpdate::ReweightEdge { .. } => self.reweights += 1,
            GraphUpdate::AddVertex { .. } | GraphUpdate::RemoveVertex { .. } => {
                self.vertex_ops += 1
            }
            GraphUpdate::SetCapacity { .. } => self.capacity_ops += 1,
            GraphUpdate::ExpireWindow { lo, hi } => {
                // Counts as one delete per live edge it will remove, so the
                // delete-fraction policy sees mass expiry for what it is.
                self.deletes +=
                    overlay.live_edge_iter().filter(|&(id, _)| id >= *lo && id < *hi).count();
            }
        }
    }

    fn merge(&mut self, other: DamageSummary) {
        self.touched.extend(other.touched);
        self.inserts += other.inserts;
        self.deletes += other.deletes;
        self.reweights += other.reweights;
        self.vertex_ops += other.vertex_ops;
        self.capacity_ops += other.capacity_ops;
    }
}

/// The full exported state of a [`DynamicMatcher`] session, public field by
/// field, so a persistence layer can serialize it without this crate knowing
/// about any on-disk format. [`DynamicMatcher::export_state`] and
/// [`DynamicMatcher::import_state`] round-trip bit-identically.
///
/// The session's solver is not stored: it is rebuilt from `config`, the one
/// place that sets it, so an imported session solves every later epoch
/// exactly as the exported one would have.
#[derive(Clone, Debug)]
pub struct SessionState {
    /// The session configuration.
    pub config: DynamicConfig,
    /// The overlay: its live edges under stable ids and its vertex tables.
    pub overlay: OverlayState,
    /// The maintained matching as `(stable overlay id, edge, multiplicity)`
    /// entries, in ascending id order.
    pub matching: Vec<(EdgeId, Edge, u64)>,
    /// The last solve's exported duals (the next warm-start seed). Present
    /// exactly when `epoch > 0`: the bootstrap epoch always solves, and every
    /// solve exports its duals.
    pub duals: Option<DualSnapshot>,
    /// Committed epochs.
    pub epoch: u64,
    /// The per-epoch ledger (one row per committed epoch).
    pub ledger: Vec<EpochStats>,
    /// The cumulative resource ledger.
    pub tracker: TrackerCounters,
}

/// An epoch-based incremental matching session over an evolving graph.
pub struct DynamicMatcher {
    config: DynamicConfig,
    overlay: GraphOverlay,
    /// The solver every warm re-solve and rebuild goes through, built from
    /// `config`.
    solver: DualPrimalSolver,
    /// The maintained matching, in **stable overlay edge ids**.
    matching: BMatching,
    /// Duals exported by the last solve, for the next warm start; `None`
    /// until the bootstrap epoch commits.
    duals: Option<DualSnapshot>,
    epoch: usize,
    stats: Vec<EpochStats>,
    tracker: ResourceTracker,
    /// The published committed-state slot behind every [`CommittedView`].
    committed: Arc<RwLock<Arc<CommittedSnapshot>>>,
}

impl DynamicMatcher {
    /// Starts a session over `base` (validated config).
    pub fn new(base: &Graph, config: DynamicConfig) -> Result<Self, MwmError> {
        config.validate()?;
        let solver = DualPrimalSolver::new(config.solver_config())?;
        // The weight comes from the (empty) matching itself so a reader
        // recomputing it sees the same bits (an empty float sum is -0.0).
        let matching = BMatching::new();
        let initial = Arc::new(CommittedSnapshot {
            epoch: 0,
            version: 0,
            weight: matching.weight(),
            matching,
            last_stats: None,
        });
        Ok(DynamicMatcher {
            config,
            overlay: GraphOverlay::new(base),
            solver,
            matching: BMatching::new(),
            duals: None,
            epoch: 0,
            stats: Vec::new(),
            tracker: ResourceTracker::new(),
            committed: Arc::new(RwLock::new(initial)),
        })
    }

    /// The session configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// The overlay of live edges (read access).
    pub fn overlay(&self) -> &GraphOverlay {
        &self.overlay
    }

    /// The maintained matching in stable overlay edge ids.
    pub fn matching(&self) -> &BMatching {
        &self.matching
    }

    /// Weight of the maintained matching.
    pub fn weight(&self) -> f64 {
        self.matching.weight()
    }

    /// Number of epochs applied so far.
    pub fn epochs(&self) -> usize {
        self.epoch
    }

    /// The per-epoch ledger.
    pub fn ledger(&self) -> &[EpochStats] {
        &self.stats
    }

    /// Cumulative resource ledger across all epochs.
    pub fn tracker(&self) -> &ResourceTracker {
        &self.tracker
    }

    /// The duals exported by the last solve (the next warm-start seed);
    /// `None` until the bootstrap epoch has solved.
    pub fn duals(&self) -> Option<&DualSnapshot> {
        self.duals.as_ref()
    }

    /// Exports the complete session state for persistence (`O(live graph +
    /// matching + ledger)` copy). [`DynamicMatcher::import_state`] restores a
    /// session that behaves bit-identically from this point on.
    pub fn export_state(&self) -> SessionState {
        SessionState {
            config: self.config,
            overlay: self.overlay.export_state(),
            matching: self.matching.iter().collect(),
            duals: self.duals.clone(),
            epoch: self.epoch as u64,
            ledger: self.stats.clone(),
            tracker: self.tracker.counters(),
        }
    }

    /// Rebuilds a session from an exported state, validating the config, the
    /// overlay invariants, the epoch/ledger agreement, that duals are present
    /// exactly after the bootstrap epoch, and that every matching entry names
    /// a live overlay edge with the exact recorded endpoints and weight bits.
    /// The committed snapshot is republished, so
    /// [`DynamicMatcher::committed_view`] handles taken afterwards see the
    /// restored state immediately.
    pub fn import_state(state: SessionState) -> Result<Self, MwmError> {
        state.config.validate()?;
        let solver = DualPrimalSolver::new(state.config.solver_config())?;
        let invalid = |reason: String| MwmError::InvalidInput { reason };
        let overlay = GraphOverlay::from_state(state.overlay)
            .map_err(|e| invalid(format!("session overlay: {e}")))?;
        if state.epoch as usize != state.ledger.len() {
            return Err(invalid(format!(
                "epoch counter {} disagrees with ledger of {} rows",
                state.epoch,
                state.ledger.len()
            )));
        }
        if state.duals.is_some() != (state.epoch > 0) {
            return Err(invalid(format!(
                "duals {} at epoch {}: a session holds duals exactly once it has bootstrapped",
                if state.duals.is_some() { "present" } else { "missing" },
                state.epoch
            )));
        }
        let mut matching = BMatching::new();
        for &(id, e, mult) in &state.matching {
            let live = overlay.live_edge(id).ok_or_else(|| {
                invalid(format!("matching entry {id} references a dead or unknown edge"))
            })?;
            if live.u != e.u || live.v != e.v || live.w.to_bits() != e.w.to_bits() {
                return Err(invalid(format!(
                    "matching entry {id} disagrees with the overlay edge"
                )));
            }
            if mult == 0 {
                return Err(invalid(format!("matching entry {id} has multiplicity 0")));
            }
            matching.add(id, e, mult);
        }
        let committed = Arc::new(CommittedSnapshot {
            epoch: state.epoch as usize,
            version: overlay.version(),
            weight: matching.weight(),
            matching: matching.clone(),
            last_stats: state.ledger.last().cloned(),
        });
        Ok(DynamicMatcher {
            config: state.config,
            overlay,
            solver,
            matching,
            duals: state.duals,
            epoch: state.epoch as usize,
            stats: state.ledger,
            tracker: ResourceTracker::from_counters(state.tracker),
            committed: Arc::new(RwLock::new(committed)),
        })
    }

    /// A handle onto the session's last committed state, safe to hand to any
    /// number of reader threads. Loads are O(1) and never observe a mid-epoch
    /// state: the matcher publishes a fresh snapshot only after an epoch
    /// fully commits, and failed epochs publish nothing.
    pub fn committed_view(&self) -> CommittedView {
        CommittedView { slot: Arc::clone(&self.committed) }
    }

    /// The latest committed snapshot (equivalent to
    /// `self.committed_view().load()`).
    pub fn committed(&self) -> Arc<CommittedSnapshot> {
        self.committed.read().expect("committed-view lock poisoned").clone()
    }

    /// Publishes the current session state as the committed snapshot. Only
    /// called once per fully successful epoch, so readers see epoch
    /// boundaries and nothing else.
    fn publish(&self) {
        let snap = Arc::new(CommittedSnapshot {
            epoch: self.epoch,
            version: self.overlay.version(),
            weight: self.matching.weight(),
            matching: self.matching.clone(),
            last_stats: self.stats.last().cloned(),
        });
        *self.committed.write().expect("committed-view lock poisoned") = snap;
    }

    /// Materializes the current live graph, its edges numbered `0..m` in
    /// stable-id order (see [`GraphOverlay::materialize`] for the back-map).
    pub fn current_graph(&self) -> Graph {
        self.overlay.materialize().0
    }

    /// Applies one epoch: stream `updates` through the engine (sharded,
    /// charged, budget-enforced), apply them to the overlay, pick
    /// repair / warm re-solve / rebuild by damage ratio, and return the
    /// ledger row.
    ///
    /// The caller's `budget` supplies the pass-engine worker count (1 when
    /// unset) plus the streamed-items limit, which is enforced
    /// **cumulatively across the session**: ingestion/repair passes and the
    /// epoch's solver call all draw from the same remaining allowance.
    /// Round, oracle-iteration and central-space limits apply per solver
    /// call: the solver refuses a round or an oracle iteration the limit
    /// cannot pay for before doing its work, and checks central space once
    /// the solve ends. Epochs are atomic: if any stage
    /// errors after the updates were applied, the overlay is rolled back,
    /// so a caller can raise the budget and re-submit the same batch without
    /// double-applying it.
    pub fn apply_epoch(
        &mut self,
        updates: &[GraphUpdate],
        budget: &ResourceBudget,
    ) -> Result<EpochReport, MwmError> {
        let _span = mwm_obs::span!("epoch", updates = updates.len());
        let mut engine = PassEngine::new(budget.parallelism().unwrap_or(1))
            .with_budget(budget.pass_budget(self.tracker.items_streamed()));

        // ---- 1. Charged sharded ingestion pass: damage summary ----
        let mut damage = DamageSummary::default();
        if !updates.is_empty() {
            let overlay = &self.overlay;
            let shards = engine.pass_items(
                updates,
                |_| DamageSummary::default(),
                |acc, u| acc.absorb(overlay, u),
            )?;
            for shard in shards {
                damage.merge(shard);
            }
        }
        damage.touched.sort_unstable();
        damage.touched.dedup();

        // Everything past this point mutates the session and can still fail
        // on a budget interrupt; snapshot the overlay so a failed epoch rolls
        // back whole instead of leaving the batch half-adopted. Nothing can
        // fail without a limit, so the O(live graph) clone is only paid when
        // the budget sets one.
        let rollback = (!budget.is_unlimited()).then(|| self.overlay.clone());

        // ---- 2. Sequential apply (updates take effect in order) ----
        let mut applied = 0usize;
        let mut rejected = 0usize;
        // A vertex removal scans the live edges for incident ones: charge the
        // edges live before each removal instead of hiding that scan behind
        // the one-item-per-update ingestion charge.
        let mut removal_scan = 0usize;
        for update in updates {
            let live = self.overlay.num_live_edges();
            match self.overlay.apply(update) {
                Ok(_) => {
                    applied += 1;
                    if matches!(update, GraphUpdate::RemoveVertex { .. }) {
                        removal_scan += live;
                    }
                }
                Err(_) => rejected += 1,
            }
        }
        engine.tracker_mut().charge_stream(removal_scan);

        // ---- 3. Survivors: previous matching minus dead/overloaded edges ----
        let survivors = self.surviving_matching();

        // ---- 4. Damage-ratio policy ----
        let live_vertices = self.overlay.num_live_vertices().max(1);
        let damage_ratio = (damage.touched.len() as f64 / live_vertices as f64).min(1.0);
        // No duals means no epoch has committed yet: bootstrap with a rebuild.
        let decision = match self.duals {
            None => EpochDecision::Rebuild,
            Some(_) if damage_ratio <= REPAIR_THRESHOLD => EpochDecision::Repair,
            Some(_) if damage_ratio <= REBUILD_THRESHOLD => EpochDecision::WarmResolve,
            Some(_) => EpochDecision::Rebuild,
        };

        // ---- 5. Execute the decision on the materialized live graph ----
        let (graph, back) = self.overlay.materialize();
        // The solver enforces its streamed-items limit against a fresh
        // tracker, so hand it only the session's *remaining* allowance —
        // one cumulative limit, not a fresh one per solve.
        let streamed_so_far = self.tracker.items_streamed() + engine.tracker().items_streamed();
        let solver_budget = match budget.max_streamed_items() {
            Some(limit) => budget.with_max_streamed_items(limit.saturating_sub(streamed_so_far)),
            None => *budget,
        };
        let executed = self.execute_decision(
            decision,
            &mut engine,
            &graph,
            &back,
            &damage.touched,
            &survivors,
            &solver_budget,
        );
        let (solve, solver_rounds) = match executed {
            Ok(outcome) => outcome,
            Err(err) => {
                if let Some(overlay) = rollback {
                    self.overlay = overlay;
                }
                return Err(err);
            }
        };

        // ---- 6. Ledger row ----
        let epoch_tracker = engine.into_tracker();
        let epoch_rounds = epoch_tracker.rounds() + solver_rounds;
        let mut streamed = epoch_tracker.items_streamed();
        self.tracker.merge(&epoch_tracker);
        if let Some(report) = &solve {
            self.tracker.merge(&report.tracker);
            streamed += report.tracker.items_streamed();
        }
        let stats = EpochStats {
            epoch: self.epoch,
            version: self.overlay.version(),
            updates_applied: applied,
            updates_rejected: rejected,
            inserts: damage.inserts,
            deletes: damage.deletes,
            reweights: damage.reweights,
            vertex_ops: damage.vertex_ops,
            capacity_ops: damage.capacity_ops,
            touched_vertices: damage.touched.len(),
            damage_ratio,
            decision,
            epoch_rounds,
            solver_rounds,
            streamed_items: streamed,
            weight: self.matching.weight(),
            matching_edges: self.matching.num_edges(),
            journal_bytes: self.overlay.resident_bytes(),
        };
        self.record_epoch_metrics(&stats);
        self.stats.push(stats.clone());
        self.epoch += 1;
        self.publish();
        Ok(EpochReport { stats, solve })
    }

    /// Folds one epoch's ledger row into the global metrics registry.
    /// Write-only taps — nothing is read back into the repair/warm/rebuild
    /// policy, so epoch outputs are bit-identical with metrics on or off.
    fn record_epoch_metrics(&self, stats: &EpochStats) {
        match stats.decision {
            EpochDecision::Repair => mwm_obs::counter!("dynamic_epochs_total{decision=repair}"),
            EpochDecision::WarmResolve => {
                mwm_obs::counter!("dynamic_epochs_total{decision=warm}")
            }
            EpochDecision::Rebuild => mwm_obs::counter!("dynamic_epochs_total{decision=rebuild}"),
        }
        .inc();
        mwm_obs::counter!("dynamic_updates_applied_total").add(stats.updates_applied as u64);
        mwm_obs::counter!("dynamic_updates_rejected_total").add(stats.updates_rejected as u64);
        mwm_obs::counter!("dynamic_solver_rounds_total").add(stats.solver_rounds as u64);
        mwm_obs::gauge!("dynamic_journal_bytes").set(stats.journal_bytes as i64);
    }

    /// Runs the fallible core of an epoch (repair pass or solver call) and
    /// adopts the result. Split out so [`DynamicMatcher::apply_epoch`] can
    /// roll the overlay back when any stage errors: nothing here mutates the
    /// session before its stage has fully succeeded.
    #[allow(clippy::too_many_arguments)]
    fn execute_decision(
        &mut self,
        decision: EpochDecision,
        engine: &mut PassEngine,
        graph: &Graph,
        back: &[EdgeId],
        touched: &[VertexId],
        survivors: &BMatching,
        budget: &ResourceBudget,
    ) -> Result<(Option<SolveReport>, usize), MwmError> {
        let warm = match decision {
            EpochDecision::Repair => {
                self.matching = self.repair(engine, graph, back, touched, survivors)?;
                return Ok((None, 0));
            }
            // The policy picks a warm re-solve only when duals exist.
            EpochDecision::WarmResolve => self.duals.clone().map(|duals| WarmStartState {
                duals,
                hint: to_materialized_ids(survivors, back, graph),
            }),
            EpochDecision::Rebuild => None,
        };
        let (report, duals) = self.solver.solve_warm(graph, budget, warm.as_ref())?;
        // Adopt the solve: the matching is remapped to stable overlay ids and
        // the final dual point becomes the next warm-start seed.
        let mut matching = BMatching::new();
        for (mid, e, mult) in report.matching.iter() {
            matching.add(back[mid], e, mult);
        }
        self.matching = matching;
        self.duals = Some(duals);
        let rounds = report.rounds();
        Ok((Some(report), rounds))
    }

    /// The previous matching restricted to edges that are still alive (with
    /// their *current* weights) and re-packed greedily — heaviest first, edge
    /// id as the tie-break — so capacity reductions never leave an infeasible
    /// survivor set.
    fn surviving_matching(&self) -> BMatching {
        let mut entries: Vec<(EdgeId, Edge, u64)> = self
            .matching
            .iter()
            .filter_map(|(id, _, mult)| self.overlay.live_edge(id).map(|e| (id, e, mult)))
            .collect();
        entries.sort_by(|a, b| b.1.w.total_cmp(&a.1.w).then(a.0.cmp(&b.0)));
        let slots = self.overlay.num_vertex_slots();
        let mut residual: Vec<u64> = (0..slots)
            .map(|v| {
                let v = v as VertexId;
                if self.overlay.is_live_vertex(v) {
                    self.overlay.capacity(v)
                } else {
                    0
                }
            })
            .collect();
        let mut out = BMatching::new();
        for (id, e, mult) in entries {
            let take = mult.min(residual[e.u as usize]).min(residual[e.v as usize]);
            if take > 0 {
                residual[e.u as usize] -= take;
                residual[e.v as usize] -= take;
                out.add(id, e, take);
            }
        }
        out
    }

    /// Localized repair: one charged sharded pass collects the candidate
    /// edges incident to touched vertices; the 1-hop active region is then
    /// improved by 2-swap/augmentation local search (unit capacities) or
    /// greedy b-matching (general capacities) on top of the frozen remainder
    /// of the surviving matching. A global greedy pass provides the ½-floor
    /// safety net; the heavier candidate wins (repair on ties). Returns the
    /// repaired matching in overlay ids.
    fn repair(
        &self,
        engine: &mut PassEngine,
        graph: &Graph,
        back: &[EdgeId],
        touched: &[VertexId],
        survivors: &BMatching,
    ) -> Result<BMatching, MwmError> {
        let n = graph.num_vertices();
        if graph.num_edges() == 0 {
            return Ok(BMatching::new());
        }
        let mut active = vec![false; n];
        for &v in touched {
            if (v as usize) < n {
                active[v as usize] = true;
            }
        }
        let is_touched = active.clone();

        // Candidate repair edges incident to touched vertices: one charged
        // full-graph pass (per-shard lists merged in shard order → ascending
        // ids).
        let source = GraphSource::auto(graph);
        let shards = engine.pass_shards(
            &source,
            |_| Vec::new(),
            |acc: &mut Vec<EdgeId>, id, e| {
                if is_touched[e.u as usize] || is_touched[e.v as usize] {
                    acc.push(id);
                }
            },
        )?;
        let eligible: Vec<EdgeId> = shards.into_iter().flatten().collect();
        for &id in &eligible {
            let e = graph.edge(id);
            active[e.u as usize] = true;
            active[e.v as usize] = true;
        }

        // Split survivors: frozen edges (no endpoint active) keep their
        // capacity; edges in the active region become the repair seed.
        let mut frozen = BMatching::new();
        let mut seed_mids: Vec<(usize, u64)> = Vec::new();
        for (oid, e, mult) in survivors.iter() {
            if active[e.u as usize] || active[e.v as usize] {
                let mid = back.binary_search(&oid).expect("survivor edges are live");
                seed_mids.push((mid, mult));
            } else {
                frozen.add(oid, e, mult);
            }
        }

        // Residual capacities after the frozen part.
        let frozen_loads = frozen.vertex_loads(n);
        let residual: Vec<u64> =
            (0..n).map(|v| graph.b(v as VertexId).saturating_sub(frozen_loads[v])).collect();

        // The repair subgraph: candidate + seed edges whose endpoints both
        // retain residual capacity, in ascending materialized-id order.
        let mut ids: Vec<EdgeId> = eligible;
        ids.extend(seed_mids.iter().map(|&(mid, _)| mid));
        ids.sort_unstable();
        ids.dedup();
        let mut sub = Graph::with_capacities(residual.clone());
        let mut sub_back: Vec<EdgeId> = Vec::new();
        let mut sub_of = vec![usize::MAX; graph.num_edges()];
        for &mid in &ids {
            let e = graph.edge(mid);
            if residual[e.u as usize] > 0 && residual[e.v as usize] > 0 {
                sub_of[mid] = sub_back.len();
                sub.add_edge(e.u, e.v, e.w);
                sub_back.push(mid);
            }
        }

        let improved_sub: BMatching = if graph.has_unit_capacities() {
            let mut seed = Matching::new();
            for &(mid, _) in &seed_mids {
                if sub_of[mid] != usize::MAX {
                    seed.push(sub_of[mid], graph.edge(mid));
                }
            }
            improve_matching(&sub, seed).to_b_matching()
        } else {
            // General capacities: greedy on the residual subgraph vs the seed
            // restricted to it — take the heavier (deterministic tie: seed).
            let greedy = greedy_b_matching(&sub);
            let mut seed = BMatching::new();
            for &(mid, mult) in &seed_mids {
                if sub_of[mid] != usize::MAX {
                    let take = mult
                        .min(residual[graph.edge(mid).u as usize])
                        .min(residual[graph.edge(mid).v as usize]);
                    if take > 0 {
                        seed.add(sub_of[mid], graph.edge(mid), take);
                    }
                }
            }
            if greedy.weight() > seed.weight() {
                greedy
            } else {
                seed
            }
        };

        let mut candidate = frozen;
        for (sid, e, mult) in improved_sub.iter() {
            candidate.add(back[sub_back[sid]], e, mult);
        }

        // Global safety net: one more charged pass worth of data access for a
        // fresh greedy ½-approximation; keeps every repair epoch above half
        // of any from-scratch solve no matter how unlucky the local region.
        engine.tracker_mut().charge_round();
        engine.tracker_mut().charge_stream(graph.num_edges());
        let safety = greedy_b_matching(graph);
        if safety.weight() > candidate.weight() {
            let mut remapped = BMatching::new();
            for (mid, e, mult) in safety.iter() {
                remapped.add(back[mid], e, mult);
            }
            return Ok(remapped);
        }
        Ok(candidate)
    }
}

/// Remaps an overlay-id b-matching into materialized ids through the
/// ascending back-map of [`GraphOverlay::materialize`], dropping entries
/// whose edge died (belt-and-braces; survivors are alive by construction).
fn to_materialized_ids(bm: &BMatching, back: &[EdgeId], graph: &Graph) -> BMatching {
    let mut out = BMatching::new();
    for (oid, _, mult) in bm.iter() {
        if let Ok(mid) = back.binary_search(&oid) {
            out.add(mid, graph.edge(mid), mult);
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_core::MatchingSolver;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn base_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::gnm(40, 160, WeightModel::Uniform(1.0, 9.0), &mut rng)
    }

    fn config() -> DynamicConfig {
        DynamicConfig { eps: 0.25, p: 2.0, seed: 7 }
    }

    /// Deterministic pseudo-random update batch generator for tests.
    fn batch(overlay_edges: usize, n: usize, seed: u64, size: usize) -> Vec<GraphUpdate> {
        let mut rng = StdRng::seed_from_u64(seed);
        (0..size)
            .map(|_| match rng.gen_range(0..3u32) {
                0 => GraphUpdate::InsertEdge {
                    u: rng.gen_range(0..n as u32),
                    v: rng.gen_range(0..n as u32),
                    w: rng.gen_range(1.0..9.0),
                },
                1 => GraphUpdate::DeleteEdge { id: rng.gen_range(0..overlay_edges.max(1)) },
                _ => GraphUpdate::ReweightEdge {
                    id: rng.gen_range(0..overlay_edges.max(1)),
                    w: rng.gen_range(1.0..9.0),
                },
            })
            .collect()
    }

    #[test]
    fn first_epoch_rebuilds_and_later_small_batches_repair() {
        let g = base_graph(1);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        let r0 = dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        assert_eq!(r0.stats.decision, EpochDecision::Rebuild);
        assert!(r0.stats.weight > 0.0);
        assert!(r0.solve.is_some());

        // A two-update batch touches ≤ 4 of 40 vertices but > 5% → pick a
        // single delete (2/40 = 5% = threshold boundary inclusive).
        let upd = vec![GraphUpdate::DeleteEdge { id: 0 }];
        let r1 = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(r1.stats.decision, EpochDecision::Repair);
        assert!(r1.solve.is_none());
        assert_eq!(r1.stats.solver_rounds, 0);
        let (graph, back) = dm.overlay().materialize();
        let ours = to_materialized_ids(dm.matching(), &back, &graph);
        assert!(ours.is_valid(&graph), "repaired matching must stay feasible");
    }

    #[test]
    fn medium_damage_warm_resolves_with_fewer_rounds_than_cold() {
        let g = base_graph(2);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        let cold = dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let cold_rounds = cold.stats.solver_rounds;

        // Touch ~25% of the graph: between the thresholds → warm re-solve.
        let upd = batch(dm.overlay().next_edge_id(), 40, 5, 8);
        let r = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(r.stats.decision, EpochDecision::WarmResolve, "ratio {}", r.stats.damage_ratio);
        let report = r.solve.expect("warm epochs carry a solver report");
        assert_eq!(report.stat("warm_started"), Some(1.0));
        assert!(
            r.stats.solver_rounds < cold_rounds,
            "warm rounds {} must beat cold rounds {cold_rounds}",
            r.stats.solver_rounds
        );
    }

    #[test]
    fn huge_damage_rebuilds() {
        let g = base_graph(3);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let upd = batch(dm.overlay().next_edge_id(), 40, 11, 400);
        let r = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(r.stats.decision, EpochDecision::Rebuild, "ratio {}", r.stats.damage_ratio);
    }

    #[test]
    fn epochs_are_bit_identical_across_parallelism() {
        let g = base_graph(4);
        let mut fingerprints = Vec::new();
        // 0 asks for no workers; the engine runs it as 1.
        for workers in [1usize, 0, 4] {
            let mut dm = DynamicMatcher::new(&g, config()).unwrap();
            let budget = ResourceBudget::unlimited().with_parallelism(workers);
            let mut fp = Vec::new();
            dm.apply_epoch(&[], &budget).unwrap();
            for round in 0..4u64 {
                let upd = batch(dm.overlay().next_edge_id(), 40, 100 + round, 12);
                let r = dm.apply_epoch(&upd, &budget).unwrap();
                fp.push((r.stats.decision, r.stats.weight.to_bits(), r.stats.touched_vertices));
            }
            let mut edges: Vec<(EdgeId, u64)> =
                dm.matching().iter().map(|(id, _, m)| (id, m)).collect();
            edges.sort_unstable();
            fingerprints.push((fp, edges));
        }
        for (fp, workers) in fingerprints[1..].iter().zip([0, 4]) {
            assert_eq!(&fingerprints[0], fp, "{workers} workers changed a dynamic session");
        }
    }

    #[test]
    fn final_matching_stays_within_floor_of_cold_solve() {
        let g = base_graph(6);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        for round in 0..5u64 {
            let upd = batch(dm.overlay().next_edge_id(), 40, 600 + round, 20);
            dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        }
        let graph = dm.current_graph();
        let cold = DualPrimalSolver::new(dm.config().solver_config())
            .unwrap()
            .solve(&graph, &ResourceBudget::unlimited())
            .unwrap();
        assert!(
            dm.weight() >= 0.66 * cold.weight,
            "dynamic weight {} below floor of cold {}",
            dm.weight(),
            cold.weight
        );
    }

    #[test]
    fn vertex_churn_and_capacity_changes_stay_feasible() {
        let mut g = base_graph(8);
        let mut rng = StdRng::seed_from_u64(9);
        generators::randomize_capacities(&mut g, 3, &mut rng);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let upd = vec![
            GraphUpdate::AddVertex { b: 2 },
            GraphUpdate::InsertEdge { u: 40, v: 0, w: 8.5 },
            GraphUpdate::SetCapacity { v: 1, b: 1 },
            GraphUpdate::RemoveVertex { v: 2 },
        ];
        let r = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(r.stats.updates_applied, 4);
        let (graph, back) = dm.overlay().materialize();
        let ours = to_materialized_ids(dm.matching(), &back, &graph);
        assert!(ours.is_valid(&graph));
        assert!(!dm.overlay().is_live_vertex(2));
    }

    #[test]
    fn rejected_updates_are_counted_not_fatal() {
        let g = base_graph(10);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let upd = vec![
            GraphUpdate::DeleteEdge { id: 999_999 },
            GraphUpdate::DeleteEdge { id: 0 },
            GraphUpdate::InsertEdge { u: 0, v: 0, w: 1.0 },
        ];
        let r = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(r.stats.updates_applied, 1);
        assert_eq!(r.stats.updates_rejected, 2);
    }

    #[test]
    fn stream_budget_interrupts_update_ingestion() {
        let g = base_graph(12);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let already = dm.tracker().items_streamed();
        let upd = batch(dm.overlay().next_edge_id(), 40, 13, 5_000);
        let tight = ResourceBudget::unlimited().with_max_streamed_items(already + 100);
        match dm.apply_epoch(&upd, &tight) {
            Err(MwmError::BudgetExceeded { resource, .. }) => {
                assert_eq!(resource, "streamed items");
            }
            other => panic!("expected BudgetExceeded, got {:?}", other.map(|r| r.stats.decision)),
        }
    }

    #[test]
    fn failed_epochs_roll_back_the_journal_and_retries_do_not_double_apply() {
        let g = base_graph(18);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let version = dm.overlay().version();
        let next_id = dm.overlay().next_edge_id();
        let live = dm.overlay().num_live_edges();
        let weight = dm.weight();

        // A batch that passes ingestion but whose solve/repair work cannot
        // fit the remaining allowance: the ingestion pass streams the batch,
        // then the decision stage trips the budget.
        let upd = batch(next_id, 40, 21, 30);
        let limit = dm.tracker().items_streamed() + upd.len() + 8;
        let tight = ResourceBudget::unlimited().with_max_streamed_items(limit);
        let err = dm.apply_epoch(&upd, &tight).unwrap_err();
        assert!(matches!(err, MwmError::BudgetExceeded { .. }));
        assert_eq!(dm.overlay().version(), version, "failed epoch must roll back the overlay");
        assert_eq!(dm.overlay().next_edge_id(), next_id);
        assert_eq!(dm.overlay().num_live_edges(), live);
        assert_eq!(dm.weight(), weight);
        assert_eq!(dm.epochs(), 1, "failed epoch is not recorded");

        // The retry with room to spare applies the batch exactly once.
        let r = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(r.stats.updates_applied + r.stats.updates_rejected, upd.len());
        let inserts = upd.iter().filter(|u| matches!(u, GraphUpdate::InsertEdge { .. })).count();
        assert_eq!(dm.overlay().next_edge_id(), next_id + inserts, "no double-applied inserts");
    }

    #[test]
    fn solver_budget_is_session_cumulative() {
        // A limit below what even the bootstrap solve needs must trip inside
        // the solver too — the session allowance is one pool, not a fresh
        // per-solve grant.
        let g = base_graph(20);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        let tight = ResourceBudget::unlimited().with_max_streamed_items(50);
        let err = dm.apply_epoch(&[], &tight).unwrap_err();
        assert!(matches!(err, MwmError::BudgetExceeded { .. }));
        assert_eq!(dm.epochs(), 0);
        // With the budget lifted the same session bootstraps fine.
        assert!(dm.apply_epoch(&[], &ResourceBudget::unlimited()).is_ok());
    }

    #[test]
    fn committed_view_publishes_only_at_epoch_boundaries() {
        let g = base_graph(30);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        let view = dm.committed_view();
        let s0 = view.load();
        assert_eq!((s0.epoch, s0.version), (0, 0));
        assert!(s0.matching.is_empty() && s0.last_stats.is_none());

        let r = dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let s1 = view.load();
        assert_eq!(s1.epoch, 1);
        assert_eq!(s1.version, dm.overlay().version());
        assert_eq!(s1.weight.to_bits(), dm.weight().to_bits());
        assert_eq!(s1.matching.num_edges(), dm.matching().num_edges());
        assert_eq!(s1.last_stats.as_ref().map(|s| s.decision), Some(r.stats.decision));

        // A failed epoch rolls back without publishing: readers keep seeing
        // the previous committed state, never a torn one.
        let upd = batch(dm.overlay().next_edge_id(), 40, 31, 2_000);
        let tight =
            ResourceBudget::unlimited().with_max_streamed_items(dm.tracker().items_streamed() + 10);
        assert!(dm.apply_epoch(&upd, &tight).is_err());
        let s_after_fail = view.load();
        assert_eq!(s_after_fail.epoch, 1);
        assert_eq!(s_after_fail.weight.to_bits(), s1.weight.to_bits());
    }

    #[test]
    fn committed_view_is_readable_while_the_session_advances() {
        // A reader thread hammering the view while the owner applies epochs
        // must only ever observe fully committed states (weight and matching
        // agree with each other).
        let g = base_graph(33);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        let view = dm.committed_view();
        let stop = std::sync::Arc::new(std::sync::atomic::AtomicBool::new(false));
        let reader = {
            let view = view.clone();
            let stop = std::sync::Arc::clone(&stop);
            std::thread::spawn(move || {
                let mut observed = 0usize;
                while !stop.load(std::sync::atomic::Ordering::Relaxed) {
                    let s = view.load();
                    let recomputed: f64 = s.matching.weight();
                    assert_eq!(s.weight.to_bits(), recomputed.to_bits(), "torn snapshot");
                    observed += 1;
                }
                observed
            })
        };
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        for round in 0..3u64 {
            let upd = batch(dm.overlay().next_edge_id(), 40, 300 + round, 10);
            dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        }
        stop.store(true, std::sync::atomic::Ordering::Relaxed);
        assert!(reader.join().expect("reader panicked") > 0);
    }

    #[test]
    fn export_import_restores_a_bit_identical_session() {
        let g = base_graph(40);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        for round in 0..3u64 {
            let upd = batch(dm.overlay().next_edge_id(), 40, 400 + round, 12);
            dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        }
        let state = dm.export_state();
        let mut back = DynamicMatcher::import_state(state).unwrap();

        assert_eq!(back.weight().to_bits(), dm.weight().to_bits());
        assert_eq!(back.epochs(), dm.epochs());
        assert_eq!(back.overlay().version(), dm.overlay().version());
        assert_eq!(back.ledger().len(), dm.ledger().len());
        assert_eq!(back.tracker().counters(), dm.tracker().counters());
        assert_eq!(
            back.duals().map(|d| d.fingerprint()),
            dm.duals().map(|d| d.fingerprint()),
            "warm-start duals must survive the round trip bit-exactly"
        );
        let snap = back.committed();
        assert_eq!(snap.epoch, dm.epochs());
        assert_eq!(snap.weight.to_bits(), dm.weight().to_bits());

        // Both sessions keep evolving identically from the restore point.
        let upd = batch(dm.overlay().next_edge_id(), 40, 999, 15);
        let ra = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        let rb = back.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(ra.stats.decision, rb.stats.decision);
        assert_eq!(ra.stats.weight.to_bits(), rb.stats.weight.to_bits());
        let a: Vec<(EdgeId, u64)> = dm.matching().iter().map(|(id, _, m)| (id, m)).collect();
        let b: Vec<(EdgeId, u64)> = back.matching().iter().map(|(id, _, m)| (id, m)).collect();
        assert_eq!(a, b, "post-restore epochs must stay bit-identical");
    }

    #[test]
    fn import_rejects_inconsistent_states() {
        let g = base_graph(42);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();

        let mut state = dm.export_state();
        state.epoch = 7;
        assert!(DynamicMatcher::import_state(state).is_err(), "epoch/ledger mismatch");

        let mut state = dm.export_state();
        if let Some(first) = state.matching.first_mut() {
            first.0 = usize::MAX >> 8;
        }
        assert!(DynamicMatcher::import_state(state).is_err(), "dead matching edge");

        let mut state = dm.export_state();
        if let Some(first) = state.matching.first_mut() {
            first.1.w += 1.0;
        }
        assert!(DynamicMatcher::import_state(state).is_err(), "weight bits disagree");

        let mut state = dm.export_state();
        state.overlay.removed.pop();
        assert!(DynamicMatcher::import_state(state).is_err(), "broken overlay invariant");
    }

    #[test]
    fn import_rejects_duals_that_disagree_with_the_epoch() {
        let g = base_graph(44);
        let fresh = DynamicMatcher::new(&g, config()).unwrap();
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();

        // A bootstrapped session without duals.
        let mut state = dm.export_state();
        state.duals = None;
        assert!(matches!(DynamicMatcher::import_state(state), Err(MwmError::InvalidInput { .. })));

        // A session before its bootstrap epoch with duals.
        let mut state = fresh.export_state();
        state.duals = dm.duals().cloned();
        assert!(matches!(DynamicMatcher::import_state(state), Err(MwmError::InvalidInput { .. })));

        // Both sessions as exported import fine.
        assert!(DynamicMatcher::import_state(fresh.export_state()).is_ok());
        assert!(DynamicMatcher::import_state(dm.export_state()).is_ok());
    }

    #[test]
    fn out_of_order_deletes_leave_no_dead_edges() {
        // The newest edges die while the oldest stay live: the session holds
        // exactly what a fresh session on its live graph holds.
        let g = base_graph(46);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        let budget = ResourceBudget::unlimited();
        dm.apply_epoch(&[], &budget).unwrap();
        let first_insert = dm.overlay().next_edge_id();
        let inserts: Vec<GraphUpdate> = (0..30u32)
            .map(|i| GraphUpdate::InsertEdge { u: i % 40, v: (i * 7 + 1) % 40, w: 2.5 })
            .collect();
        dm.apply_epoch(&inserts, &budget).unwrap();
        let deletes: Vec<GraphUpdate> = (first_insert..dm.overlay().next_edge_id())
            .rev()
            .map(|id| GraphUpdate::DeleteEdge { id })
            .collect();
        let long = dm.apply_epoch(&deletes, &budget).unwrap().stats;

        let mut fresh = DynamicMatcher::new(&dm.current_graph(), config()).unwrap();
        let short = fresh.apply_epoch(&[], &budget).unwrap().stats;
        assert_eq!(long.journal_bytes, short.journal_bytes, "deleted edges are still held");
        assert_eq!(dm.overlay().export_state().edges, fresh.overlay().export_state().edges);
    }

    #[test]
    fn expiring_streams_keep_the_journal_at_window_size() {
        // A sliding-window stream: each round expires everything older and
        // inserts a fresh block. The overlay holds the live window, not the
        // history.
        let mut rng = StdRng::seed_from_u64(56);
        let g = generators::gnm(16, 40, WeightModel::Uniform(1.0, 9.0), &mut rng);
        // Coarse eps keeps the 30 full re-solves cheap.
        let coarse = DynamicConfig { eps: 0.45, ..config() };
        let mut dm = DynamicMatcher::new(&g, coarse).unwrap();
        let budget = ResourceBudget::unlimited();
        dm.apply_epoch(&[], &budget).unwrap();

        let mut prev_lo = 0usize;
        let mut journal_bytes = Vec::new();
        for round in 0..30u64 {
            let hi = dm.overlay().next_edge_id();
            let mut upd = vec![GraphUpdate::ExpireWindow { lo: prev_lo, hi }];
            let mut rng = StdRng::seed_from_u64(5600 + round);
            for _ in 0..120 {
                let u = rng.gen_range(0..16u32);
                let mut v = rng.gen_range(0..15u32);
                if v >= u {
                    v += 1;
                }
                upd.push(GraphUpdate::InsertEdge { u, v, w: rng.gen_range(1.0..9.0) });
            }
            prev_lo = hi;
            let r = dm.apply_epoch(&upd, &budget).unwrap();
            journal_bytes.push(r.stats.journal_bytes);
            assert_eq!(
                dm.overlay().export_state().edges.len(),
                dm.overlay().num_live_edges(),
                "round {round}: the overlay must hold exactly the live window"
            );
        }
        assert!(
            journal_bytes[1..].iter().all(|&b| b == journal_bytes[0]),
            "the overlay must stay at window size, not grow with the stream: {journal_bytes:?}"
        );
        assert_eq!(dm.overlay().next_edge_id(), 40 + 30 * 120, "ids keep counting");
        let (graph, back) = dm.overlay().materialize();
        let ours = to_materialized_ids(dm.matching(), &back, &graph);
        assert!(ours.is_valid(&graph));

        // A vertex removal scans the live edges, not the history: it reads
        // exactly what it reads in a fresh session on the same live graph.
        let mut fresh = DynamicMatcher::new(&graph, coarse).unwrap();
        fresh.apply_epoch(&[], &budget).unwrap();
        let removal = [GraphUpdate::RemoveVertex { v: 3 }];
        let long = dm.apply_epoch(&removal, &budget).unwrap().stats;
        let short = fresh.apply_epoch(&removal, &budget).unwrap().stats;
        assert_eq!(long.decision, short.decision);
        assert_eq!(long.streamed_items, short.streamed_items, "removal overcharged");
    }
}
