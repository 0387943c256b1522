//! Incremental matching over edge-update streams.
//!
//! The paper budgets *rounds of data access* for a frozen graph; a serving
//! system never gets one — edges arrive, expire and change weight
//! continuously, and re-running a cold `O(p/ε)`-round solve per change wastes
//! exactly the resource the paper economizes. [`DynamicMatcher`] turns the
//! static reproduction into a serving-shaped session:
//!
//! 1. Callers feed batches of [`GraphUpdate`]s into an **epoch**. The batch
//!    first streams through the [`PassEngine`] via an
//!    [`mwm_mapreduce::UpdateSource`] — one charged, sharded, deterministic
//!    pass producing a *damage summary* (touched vertices, update mix) — and
//!    is then replayed sequentially into the journaled
//!    [`mwm_graph::GraphOverlay`].
//! 2. A **damage-ratio policy** picks the cheapest adequate reaction:
//!    * `damage ≤ repair_threshold` → **incremental repair**: the previous
//!      matching keeps its surviving edges; a localized 2-swap/augmentation
//!      repair ([`mwm_matching::local_search`]) runs on the 1-hop region
//!      around the touched vertices, with a global greedy pass as a ½-floor
//!      safety net.
//!    * `damage ≤ rebuild_threshold` (and duals available) → **warm
//!      re-solve**: the dual-primal solver resumes from the previous epoch's
//!      exported [`DualSnapshot`] ([`WarmStart::solve_warm`]), skipping the
//!      `O(p)` cold sampling rounds.
//!    * otherwise → **full rebuild** through the configured rebuild solver
//!      (the umbrella crate wires any `SolverRegistry` entry in here — e.g.
//!      the Lattanzi-filtering baseline for bulk rebuilds).
//! 3. Every epoch appends an [`EpochStats`] row to the session ledger:
//!    updates applied, the repair/warm/rebuild decision, rounds charged, and
//!    (when auditing is on) the weight drift against a certified from-scratch
//!    recompute.
//!
//! **Turnstile mode** ([`IngestMode`]): deletion-heavy streams additionally
//! maintain an [`mwm_turnstile::SketchBank`] — per-weight-class linear
//! sketches absorbing inserts/deletes/reweights in `O(polylog)` cells per
//! edge. Bank deltas are ingested through the same charged pass engine
//! (sharded, merged in shard order; linearity makes the merged bank
//! bit-identical at every worker count), the journal's dead prefix is pruned
//! each sketch epoch so resident bytes track the *live* window instead of
//! total stream length, and repair epochs shrink their region to the sketch
//! recovery (spanning forest + per-class boundary samples), optionally
//! squeezed further through `mwm-sparsify`'s deferred Benczúr–Karger pass.
//! [`IngestMode::Auto`] switches between journal and sketch ingestion with a
//! hysteresis on the observed delete fraction.
//!
//! Determinism contract: like every pass in the workspace, epochs are
//! **bit-identical across parallelism levels** — update ingestion and repair
//! scans merge in shard order, the warm solver inherits the pass engine's
//! guarantees, and every tie-break is explicit.

use mwm_core::{
    certify_b_matching, DualPrimalConfig, DualPrimalSolver, MatchingSolver, MwmError,
    ResourceBudget, ResumePolicy, SolveReport, WarmStart, WarmStartState,
};
use mwm_graph::{
    BMatching, Edge, EdgeId, Graph, GraphOverlay, GraphUpdate, Matching, OverlayState, VertexId,
};
use mwm_lp::DualSnapshot;
use mwm_mapreduce::{
    auto_shard_count, GraphSource, ItemSource, PassEngine, ResourceTracker, TrackerCounters,
    UpdateSource,
};
use mwm_matching::{greedy_b_matching, improve_matching};
use mwm_sparsify::DeferredSparsifier;
use mwm_turnstile::{EdgeDelta, SketchBank, SketchBankState, TurnstileConfig};
use std::fmt;
use std::sync::{Arc, RwLock};

/// How a session journals its update stream.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum IngestMode {
    /// Journal replay only — the historical behavior and the default.
    Journal,
    /// Maintain the turnstile sketch bank every epoch.
    Turnstile,
    /// Switch between the two on the observed per-epoch delete fraction,
    /// with hysteresis: enter sketch mode at `turnstile_enter`, leave it
    /// below `turnstile_exit`.
    Auto,
}

impl fmt::Display for IngestMode {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(match self {
            IngestMode::Journal => "journal",
            IngestMode::Turnstile => "turnstile",
            IngestMode::Auto => "auto",
        })
    }
}

/// Configuration of a [`DynamicMatcher`] session.
#[derive(Clone, Copy, Debug)]
pub struct DynamicConfig {
    /// Accuracy parameter ε of the underlying dual-primal solves.
    pub eps: f64,
    /// Round/space trade-off exponent `p` of the underlying solves.
    pub p: f64,
    /// RNG seed threaded into the solver.
    pub seed: u64,
    /// Default pass-engine worker threads per epoch (a per-epoch
    /// `ResourceBudget::with_parallelism` override takes precedence).
    pub parallelism: usize,
    /// Damage ratio (touched vertices / live vertices) at or below which an
    /// epoch is handled by localized incremental repair.
    pub repair_threshold: f64,
    /// Damage ratio at or below which a warm re-solve is attempted (above it,
    /// or when no duals are available, the epoch falls back to full rebuild).
    pub rebuild_threshold: f64,
    /// Decay in `(0, 1]` applied to imported duals on warm re-solves
    /// (discounts stale dual mass; `1.0` resumes verbatim).
    pub dual_decay: f64,
    /// Audit cadence: every `audit_every`-th epoch additionally runs a cold
    /// certified recompute and records the weight drift in the ledger.
    /// `0` disables auditing (the default; audits are expensive by design).
    pub audit_every: usize,
    /// Update-ingestion mode (see [`IngestMode`]; `Journal` preserves the
    /// pre-turnstile behavior exactly).
    pub ingest: IngestMode,
    /// [`IngestMode::Auto`]: delete fraction at or above which an epoch
    /// enters sketch mode.
    pub turnstile_enter: f64,
    /// [`IngestMode::Auto`]: delete fraction below which an active sketch
    /// session falls back to journal mode (hysteresis: must be ≤ enter).
    pub turnstile_exit: f64,
    /// Weight ceiling of the turnstile lattice: the per-class samplers cover
    /// `(1+eps)^k` classes up to this weight; heavier edges share the top
    /// class. Raw-weight classification (`scale = 1.0`).
    pub turnstile_max_weight: f64,
    /// ℓ0-sampler repetitions per sketch in the bank (space dial).
    pub turnstile_reps: usize,
}

impl Default for DynamicConfig {
    fn default() -> Self {
        DynamicConfig {
            eps: 0.2,
            p: 2.0,
            seed: 0xD1A,
            parallelism: 1,
            repair_threshold: 0.05,
            rebuild_threshold: 0.5,
            dual_decay: 1.0,
            audit_every: 0,
            ingest: IngestMode::Journal,
            turnstile_enter: 0.35,
            turnstile_exit: 0.15,
            turnstile_max_weight: 1e6,
            turnstile_reps: 1,
        }
    }
}

impl DynamicConfig {
    /// Validates every parameter, returning the first violation.
    pub fn validate(&self) -> Result<(), MwmError> {
        // eps / p / seed / parallelism / dual_decay are validated by the
        // solver config they feed into.
        self.solver_config(self.parallelism.max(1)).validate()?;
        if !self.repair_threshold.is_finite() || self.repair_threshold < 0.0 {
            return Err(MwmError::InvalidConfig {
                param: "repair_threshold",
                value: format!("{}", self.repair_threshold),
                requirement: "must be finite and non-negative",
            });
        }
        if !self.rebuild_threshold.is_finite()
            || self.rebuild_threshold < self.repair_threshold
            || self.rebuild_threshold > 1.0
        {
            return Err(MwmError::InvalidConfig {
                param: "rebuild_threshold",
                value: format!("{}", self.rebuild_threshold),
                requirement: "must lie in [repair_threshold, 1]",
            });
        }
        if !(self.turnstile_enter.is_finite()
            && self.turnstile_exit.is_finite()
            && (0.0..=1.0).contains(&self.turnstile_enter)
            && (0.0..=1.0).contains(&self.turnstile_exit)
            && self.turnstile_exit <= self.turnstile_enter)
        {
            return Err(MwmError::InvalidConfig {
                param: "turnstile_exit",
                value: format!("{} / {}", self.turnstile_enter, self.turnstile_exit),
                requirement: "enter/exit fractions must lie in [0,1] with exit <= enter",
            });
        }
        if !self.turnstile_max_weight.is_finite() || self.turnstile_max_weight < 1.0 {
            return Err(MwmError::InvalidConfig {
                param: "turnstile_max_weight",
                value: format!("{}", self.turnstile_max_weight),
                requirement: "must be finite and at least 1",
            });
        }
        if self.turnstile_reps == 0 {
            return Err(MwmError::InvalidConfig {
                param: "turnstile_reps",
                value: "0".to_string(),
                requirement: "must be at least 1",
            });
        }
        Ok(())
    }

    /// The dual-primal configuration an epoch solve runs with.
    fn solver_config(&self, workers: usize) -> DualPrimalConfig {
        DualPrimalConfig {
            eps: self.eps,
            p: self.p,
            seed: self.seed,
            parallelism: workers.max(1),
            resume: ResumePolicy::Resume { dual_decay: self.dual_decay },
            ..Default::default()
        }
    }
}

/// How an epoch reacted to its damage ratio.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EpochDecision {
    /// Localized augmenting/2-swap repair around the touched vertices.
    Repair,
    /// Dual-primal re-solve warm-started from the previous epoch's duals.
    WarmResolve,
    /// Cold solve through the rebuild solver.
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
    /// Whether this epoch ingested through the turnstile sketch bank.
    pub sketch_mode: bool,
    /// Candidate edges recovered from the sketch bank (0 when the epoch did
    /// not recover — journal mode, or a warm/rebuild decision).
    pub candidate_edges: usize,
    /// Repair-region edges actually fed to the repair pass after the
    /// sparsifier shrink (0 outside sketch-mode repair epochs).
    pub region_edges: usize,
    /// Resident bytes of the journaled overlay after the epoch (post-prune in
    /// sketch mode) — the journal side of the memory-per-session comparison.
    pub journal_bytes: usize,
    /// Resident bytes of the sketch bank (0 when no bank is active).
    pub sketch_bytes: usize,
    /// When this epoch was audited: relative weight gap versus a certified
    /// cold recompute, `(oracle - weight) / oracle` (negative = we beat it),
    /// plus the recompute's feasibility verdict on our matching.
    pub audit: Option<EpochAudit>,
}

/// The result of an epoch audit (cold certified recompute).
#[derive(Clone, Copy, Debug)]
pub struct EpochAudit {
    /// Weight of the from-scratch solve on the post-epoch graph.
    pub oracle_weight: f64,
    /// `(oracle_weight - weight) / max(oracle_weight, ε)`.
    pub weight_drift: f64,
    /// Whether the maintained matching passed the feasibility certificate.
    pub feasible: bool,
}

/// The state of a session at its last **committed** epoch boundary.
///
/// Snapshots are immutable values published atomically when an epoch (or a
/// compaction) fully commits — a failed epoch rolls back without publishing,
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
                // Counts as one delete per live edge it will tombstone, so the
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

/// [`ItemSource`] over a batch of turnstile deltas: sharded by batch length
/// only (never by worker count), like [`UpdateSource`], so the per-shard bank
/// partials merge in a stable order at every parallelism level.
struct DeltaSource<'a> {
    deltas: &'a [EdgeDelta],
    num_shards: usize,
}

impl<'a> DeltaSource<'a> {
    fn auto(deltas: &'a [EdgeDelta]) -> Self {
        DeltaSource { deltas, num_shards: auto_shard_count(deltas.len()) }
    }

    fn bounds(&self, shard: usize) -> (usize, usize) {
        let m = self.deltas.len();
        (shard * m / self.num_shards, (shard + 1) * m / self.num_shards)
    }
}

impl ItemSource for DeltaSource<'_> {
    type Item = EdgeDelta;

    fn num_items(&self) -> usize {
        self.deltas.len()
    }

    fn num_shards(&self) -> usize {
        self.num_shards
    }

    fn visit_shard(&self, shard: usize, visit: &mut dyn FnMut(EdgeDelta) -> bool) {
        let (lo, hi) = self.bounds(shard);
        for &d in &self.deltas[lo..hi] {
            if !visit(d) {
                break;
            }
        }
    }
}

/// The full exported state of a [`DynamicMatcher`] session, public field by
/// field, so a persistence layer can serialize it without this crate knowing
/// about any on-disk format. [`DynamicMatcher::export_state`] and
/// [`DynamicMatcher::import_state`] round-trip bit-identically.
///
/// The injected rebuild solver (a trait object) is deliberately **not** part
/// of the state: an imported session uses the default dual-primal rebuild
/// path until the owner re-injects one via
/// [`DynamicMatcher::with_rebuild_solver`].
#[derive(Clone, Debug)]
pub struct SessionState {
    /// The session configuration.
    pub config: DynamicConfig,
    /// The journaled overlay (base graph + full update journal).
    pub overlay: OverlayState,
    /// The maintained matching as `(stable overlay id, edge, multiplicity)`
    /// entries, in ascending id order.
    pub matching: Vec<(EdgeId, Edge, u64)>,
    /// The last solve's exported duals (the next warm-start seed), if any.
    pub duals: Option<DualSnapshot>,
    /// Committed epochs.
    pub epoch: u64,
    /// Whether the bootstrap epoch has run.
    pub bootstrapped: bool,
    /// The per-epoch ledger (one row per committed epoch).
    pub ledger: Vec<EpochStats>,
    /// The cumulative resource ledger.
    pub tracker: TrackerCounters,
    /// The turnstile sketch bank, when the session hibernated in sketch mode.
    /// Revives bit-identically (and carries the Auto-mode hysteresis state:
    /// a present bank means sketch mode was active).
    pub bank: Option<SketchBankState>,
}

/// An epoch-based incremental matching session over an evolving graph.
pub struct DynamicMatcher {
    config: DynamicConfig,
    overlay: GraphOverlay,
    /// Injected cold-rebuild backend; `None` uses the dual-primal solver
    /// (which also re-exports duals, keeping the warm chain alive).
    rebuild_solver: Option<Box<dyn MatchingSolver>>,
    /// The maintained matching, in **stable overlay edge ids**.
    matching: BMatching,
    /// Duals exported by the last solve, for the next warm start.
    duals: Option<DualSnapshot>,
    epoch: usize,
    stats: Vec<EpochStats>,
    tracker: ResourceTracker,
    bootstrapped: bool,
    /// The turnstile sketch bank; `Some` exactly while sketch ingestion is
    /// active (this presence is also the Auto-mode hysteresis state).
    bank: Option<SketchBank>,
    /// The published committed-state slot behind every [`CommittedView`].
    committed: Arc<RwLock<Arc<CommittedSnapshot>>>,
}

impl DynamicMatcher {
    /// Starts a session over `base` (validated config).
    pub fn new(base: &Graph, config: DynamicConfig) -> Result<Self, MwmError> {
        config.validate()?;
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
            rebuild_solver: None,
            matching: BMatching::new(),
            duals: None,
            epoch: 0,
            stats: Vec::new(),
            tracker: ResourceTracker::new(),
            bootstrapped: false,
            bank: None,
            committed: Arc::new(RwLock::new(initial)),
        })
    }

    /// Starts a session over an initially empty graph on `n` vertices.
    pub fn from_empty(n: usize, config: DynamicConfig) -> Result<Self, MwmError> {
        Self::new(&Graph::new(n), config)
    }

    /// Injects the solver used for full rebuilds (builder style). The umbrella
    /// crate's `SolverRegistry::create_dynamic` resolves a registry name into
    /// this slot. Solvers without dual export (the baselines) still work —
    /// subsequent mid-damage epochs simply rebuild until duals exist again.
    pub fn with_rebuild_solver(mut self, solver: Box<dyn MatchingSolver>) -> Self {
        self.rebuild_solver = Some(solver);
        self
    }

    /// The session configuration.
    pub fn config(&self) -> &DynamicConfig {
        &self.config
    }

    /// The journaled overlay (read access).
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

    /// The duals exported by the last solve (the next warm-start seed), if
    /// the session has any. Repair-only histories and baseline rebuild
    /// solvers leave this `None`.
    pub fn duals(&self) -> Option<&DualSnapshot> {
        self.duals.as_ref()
    }

    /// The turnstile sketch bank, while sketch ingestion is active.
    pub fn sketch_bank(&self) -> Option<&SketchBank> {
        self.bank.as_ref()
    }

    /// Exports the complete session state for persistence (`O(journal +
    /// matching + ledger)` copy). [`DynamicMatcher::import_state`] restores a
    /// session that behaves bit-identically from this point on.
    pub fn export_state(&self) -> SessionState {
        SessionState {
            config: self.config,
            overlay: self.overlay.export_state(),
            matching: self.matching.iter().collect(),
            duals: self.duals.clone(),
            epoch: self.epoch as u64,
            bootstrapped: self.bootstrapped,
            ledger: self.stats.clone(),
            tracker: self.tracker.counters(),
            bank: self.bank.as_ref().map(SketchBank::to_state),
        }
    }

    /// Rebuilds a session from an exported state, validating the config, the
    /// overlay invariants, the epoch/ledger agreement, and that every
    /// matching entry names a live overlay edge with the exact recorded
    /// endpoints and weight bits. The committed snapshot is republished, so
    /// [`DynamicMatcher::committed_view`] handles taken afterwards see the
    /// restored state immediately.
    pub fn import_state(state: SessionState) -> Result<Self, MwmError> {
        state.config.validate()?;
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
        let mut matching = BMatching::new();
        for &(id, e, mult) in &state.matching {
            let live = overlay.live_edge(id).ok_or_else(|| {
                invalid(format!("matching entry {id} references a dead or unknown edge"))
            })?;
            if live.u != e.u || live.v != e.v || live.w.to_bits() != e.w.to_bits() {
                return Err(invalid(format!(
                    "matching entry {id} disagrees with the journaled edge"
                )));
            }
            if mult == 0 {
                return Err(invalid(format!("matching entry {id} has multiplicity 0")));
            }
            matching.add(id, e, mult);
        }
        let bank = state
            .bank
            .as_ref()
            .map(SketchBank::from_state)
            .transpose()
            .map_err(|e| invalid(format!("session sketch bank: {e}")))?;
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
            rebuild_solver: None,
            matching,
            duals: state.duals,
            epoch: state.epoch as usize,
            stats: state.ledger,
            tracker: ResourceTracker::from_counters(state.tracker),
            bootstrapped: state.bootstrapped,
            bank,
            committed: Arc::new(RwLock::new(committed)),
        })
    }

    /// A handle onto the session's last committed state, safe to hand to any
    /// number of reader threads. Loads are O(1) and never observe a mid-epoch
    /// state: the matcher publishes a fresh snapshot only after an epoch (or
    /// compaction) fully commits, and failed epochs publish nothing.
    pub fn committed_view(&self) -> CommittedView {
        CommittedView { slot: Arc::clone(&self.committed) }
    }

    /// The latest committed snapshot (equivalent to
    /// `self.committed_view().load()`).
    pub fn committed(&self) -> Arc<CommittedSnapshot> {
        self.committed.read().expect("committed-view lock poisoned").clone()
    }

    /// Publishes the current session state as the committed snapshot. Only
    /// called once per fully successful epoch/compaction, so readers see
    /// epoch boundaries and nothing else.
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

    /// Materializes the current live graph (compacted ids; see
    /// [`GraphOverlay::materialize`] for the id back-map).
    pub fn current_graph(&self) -> Graph {
        self.overlay.materialize().0
    }

    /// Compacts the overlay journal: dead edges are reclaimed and live edges
    /// renumbered contiguously; the maintained matching follows the new ids
    /// automatically (duals are vertex-keyed and unaffected). Returns the
    /// old-id → new-id map (`usize::MAX` for dead ids) so callers that track
    /// stable edge ids externally can follow. Never done implicitly — the
    /// stable-id contract is part of the update API — but long sliding-window
    /// sessions should call this periodically, or per-epoch costs grow with
    /// the total journal length rather than the live graph size.
    pub fn compact(&mut self) -> Vec<usize> {
        let remap = self.overlay.compact();
        let mut matching = BMatching::new();
        for (id, e, mult) in self.matching.iter() {
            debug_assert!(remap[id] != usize::MAX, "maintained matching only holds live edges");
            matching.add(remap[id], e, mult);
        }
        self.matching = matching;
        self.publish();
        remap
    }

    /// Applies one epoch: stream `updates` through the engine (sharded,
    /// charged, budget-enforced), journal them into the overlay, pick
    /// repair / warm re-solve / rebuild by damage ratio, and return the
    /// ledger row.
    ///
    /// The caller's `budget` supplies the parallelism override plus the
    /// streamed-items limit, which is enforced **cumulatively across the
    /// session**: ingestion/repair passes and the epoch's solver call all
    /// draw from the same remaining allowance. Round/space/oracle limits
    /// apply per solver call (they are checked post-hoc by the solver).
    /// Epochs are atomic: if any stage errors after the updates were
    /// journaled, the overlay is rolled back, so a caller can raise the
    /// budget and re-submit the same batch without double-applying it.
    pub fn apply_epoch(
        &mut self,
        updates: &[GraphUpdate],
        budget: &ResourceBudget,
    ) -> Result<EpochReport, MwmError> {
        let _span = mwm_obs::span!("epoch", updates = updates.len());
        let workers = budget.parallelism().unwrap_or(self.config.parallelism).max(1);
        let mut engine =
            PassEngine::new(workers).with_budget(budget.pass_budget(self.tracker.items_streamed()));

        // ---- 1. Charged sharded ingestion pass: damage summary ----
        let mut damage = DamageSummary::default();
        if !updates.is_empty() {
            let source = UpdateSource::auto(updates);
            let overlay = &self.overlay;
            let shards = engine.pass_items(
                &source,
                |_| DamageSummary::default(),
                |acc: &mut DamageSummary, (_seq, u): (usize, GraphUpdate)| acc.absorb(overlay, &u),
            )?;
            for shard in shards {
                damage.merge(shard);
            }
        }
        damage.touched.sort_unstable();
        damage.touched.dedup();

        // ---- 1b. Ingest-mode switch on the observed delete fraction ----
        let edge_ops = damage.inserts + damage.deletes + damage.reweights;
        let delete_fraction =
            if edge_ops == 0 { 0.0 } else { damage.deletes as f64 / edge_ops as f64 };
        let sketch_mode = match self.config.ingest {
            IngestMode::Journal => false,
            IngestMode::Turnstile => true,
            // Hysteresis: an active bank stays until the stream turns clearly
            // insert-dominated; an inactive session waits for clearly
            // delete-dominated batches. Bank presence *is* the state.
            IngestMode::Auto => {
                if self.bank.is_some() {
                    delete_fraction >= self.config.turnstile_exit
                } else {
                    delete_fraction >= self.config.turnstile_enter
                }
            }
        };

        // Everything past this point mutates the session and can still fail
        // on a budget interrupt; snapshot the overlay (and sketch bank) so a
        // failed epoch rolls back whole instead of leaving the batch
        // half-adopted. The O(journal) clone is only paid when a limit is
        // actually set.
        let rollback = if budget.is_unlimited() {
            None
        } else {
            Some((self.overlay.clone(), self.bank.clone()))
        };

        // ---- 2. Sequential journal replay (updates take effect in order) ----
        let mut applied = 0usize;
        let mut rejected = 0usize;
        let mut removal_scans = 0usize;
        let mut deltas: Vec<EdgeDelta> = Vec::new();
        for update in updates {
            // Turnstile deltas need the pre-application journal (a delete's
            // endpoints/weight), so derive them before applying — and keep
            // them only if the update is accepted.
            let pending = if sketch_mode { self.turnstile_deltas(update) } else { Vec::new() };
            match self.overlay.apply(update) {
                Ok(_) => {
                    applied += 1;
                    deltas.extend(pending);
                    if matches!(update, GraphUpdate::RemoveVertex { .. }) {
                        removal_scans += 1;
                    }
                }
                Err(_) => rejected += 1,
            }
        }
        // A vertex removal scans the whole edge journal for incident edges;
        // charge that data access honestly instead of hiding it behind the
        // one-item-per-update ingestion charge.
        if removal_scans > 0 {
            engine.tracker_mut().charge_stream(removal_scans * self.overlay.next_edge_id());
        }

        // ---- 2b. Turnstile bank maintenance ----
        if let Err(err) = self.maintain_bank(sketch_mode, &deltas, &mut engine) {
            if let Some((overlay, bank)) = rollback {
                self.overlay = overlay;
                self.bank = bank;
            }
            return Err(err);
        }

        // ---- 3. Survivors: previous matching minus dead/overloaded edges ----
        let survivors = self.surviving_matching();

        // ---- 4. Damage-ratio policy ----
        let live_vertices = self.overlay.num_live_vertices().max(1);
        let damage_ratio = (damage.touched.len() as f64 / live_vertices as f64).min(1.0);
        let decision = if !self.bootstrapped {
            EpochDecision::Rebuild
        } else if damage_ratio <= self.config.repair_threshold {
            EpochDecision::Repair
        } else if damage_ratio <= self.config.rebuild_threshold && self.duals.is_some() {
            EpochDecision::WarmResolve
        } else {
            EpochDecision::Rebuild
        };

        // ---- 5. Execute the decision on the materialized live graph ----
        let (graph, back) = self.overlay.materialize();
        // Sketch-mode repair epochs restrict their region to the bank's
        // recovery (forest + per-class boundary samples), shrunk through the
        // deferred sparsifier when it is large. Deterministic: recovery reads
        // only bank state, which is worker-count invariant by linearity.
        let mut candidate_edges = 0usize;
        let region: Option<Vec<EdgeId>> = if sketch_mode && decision == EpochDecision::Repair {
            let bank = self.bank.as_ref().expect("sketch mode maintains a bank");
            let pairs = bank.recover_candidates();
            engine.tracker_mut().charge_round();
            engine.tracker_mut().charge_stream(graph.num_edges() + pairs.len());
            let resolved = resolve_candidates(&graph, &pairs);
            candidate_edges = resolved.len();
            Some(self.shrink_region(&graph, resolved))
        } else {
            None
        };
        let region_edges = region.as_ref().map_or(0, |r| r.len());
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
            region.as_deref(),
            &solver_budget,
            workers,
        );
        let (solve, solver_rounds) = match executed {
            Ok(outcome) => outcome,
            Err(err) => {
                if let Some((overlay, bank)) = rollback {
                    self.overlay = overlay;
                    self.bank = bank;
                }
                return Err(err);
            }
        };
        self.bootstrapped = true;

        // Sketch mode keeps the journal lean: the bank already holds the
        // cancelled history, so the dead prefix can be reclaimed every epoch
        // (observationally invisible — ids stay stable, pruned ids answer
        // like dead ids).
        if sketch_mode {
            self.overlay.prune_dead_prefix();
        }

        // ---- 6. Optional audit: certified cold recompute + drift ----
        let audit = if self.config.audit_every > 0
            && (self.epoch + 1).is_multiple_of(self.config.audit_every)
        {
            let oracle = DualPrimalSolver::new(self.config.solver_config(workers))?
                .solve(&graph, &ResourceBudget::unlimited())?;
            let fwd = forward_map(&back, self.overlay.next_edge_id());
            let ours = to_materialized_ids(&self.matching, &fwd, &graph);
            let cert = certify_b_matching(&graph, &ours);
            self.tracker.merge(&oracle.tracker);
            Some(EpochAudit {
                oracle_weight: oracle.weight,
                weight_drift: (oracle.weight - self.matching.weight()) / oracle.weight.max(1e-12),
                feasible: cert.feasible,
            })
        } else {
            None
        };

        // ---- 7. Ledger row ----
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
            sketch_mode,
            candidate_edges,
            region_edges,
            journal_bytes: self.overlay.resident_bytes(),
            sketch_bytes: self.bank.as_ref().map_or(0, |b| b.resident_bytes()),
            audit,
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
        // Only sketch-mode repair epochs build a repair region; any other
        // epoch would record a placeholder 0.
        if stats.sketch_mode && stats.decision == EpochDecision::Repair {
            mwm_obs::histogram!("dynamic_region_edges", &mwm_obs::SIZE_BOUNDS)
                .observe(stats.region_edges as f64);
        }
        mwm_obs::gauge!("dynamic_journal_bytes").set(stats.journal_bytes as i64);
        mwm_obs::gauge!("dynamic_sketch_bytes").set(stats.sketch_bytes as i64);
    }

    /// Runs the fallible core of an epoch (repair pass or solver call) and
    /// adopts the result. Split out so [`DynamicMatcher::apply_epoch`] can
    /// roll the journal back when any stage errors: nothing here mutates the
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
        region: Option<&[EdgeId]>,
        budget: &ResourceBudget,
        workers: usize,
    ) -> Result<(Option<SolveReport>, usize), MwmError> {
        match decision {
            EpochDecision::Repair => {
                self.matching = self.repair(engine, graph, back, touched, survivors, region)?;
                Ok((None, 0))
            }
            EpochDecision::WarmResolve => {
                let fwd = forward_map(back, self.overlay.next_edge_id());
                let hint = to_materialized_ids(survivors, &fwd, graph);
                let warm = WarmStartState {
                    // The branch is only reachable when duals exist.
                    duals: self.duals.clone().expect("WarmResolve requires stored duals"),
                    hint,
                };
                let solver = DualPrimalSolver::new(self.config.solver_config(workers))?;
                let report = solver.solve_warm(graph, budget, &warm)?;
                let rounds = report.rounds();
                self.adopt_report(&report, back);
                Ok((Some(report), rounds))
            }
            EpochDecision::Rebuild => {
                let report = match &self.rebuild_solver {
                    Some(solver) => solver.solve(graph, budget)?,
                    None => DualPrimalSolver::new(self.config.solver_config(workers))?
                        .solve(graph, budget)?,
                };
                let rounds = report.rounds();
                self.adopt_report(&report, back);
                Ok((Some(report), rounds))
            }
        }
    }

    /// Adopts a solver report produced on the materialized graph: the matching
    /// is remapped to stable overlay ids and the exported duals (if any)
    /// become the next warm-start seed.
    fn adopt_report(&mut self, report: &SolveReport, back: &[EdgeId]) {
        let mut matching = BMatching::new();
        for (mid, e, mult) in report.matching.iter() {
            matching.add(back[mid], e, mult);
        }
        self.matching = matching;
        self.duals = report.final_duals.clone();
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
    ///
    /// With `region` (sketch mode) the candidate edges come from the bank's
    /// recovery instead of a full graph scan — the region is pre-shrunk, so
    /// the repair cost tracks the recovered set, not the live edge count.
    #[allow(clippy::too_many_arguments)]
    fn repair(
        &self,
        engine: &mut PassEngine,
        graph: &Graph,
        back: &[EdgeId],
        touched: &[VertexId],
        survivors: &BMatching,
        region: Option<&[EdgeId]>,
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

        // Candidate repair edges incident to touched vertices: either the
        // pre-recovered sketch region (already charged by the caller), or a
        // charged full-graph pass (per-shard lists merged in shard order →
        // ascending ids).
        let eligible: Vec<EdgeId> = match region {
            Some(mids) => mids
                .iter()
                .copied()
                .filter(|&mid| {
                    let e = graph.edge(mid);
                    is_touched[e.u as usize] || is_touched[e.v as usize]
                })
                .collect(),
            None => {
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
                shards.into_iter().flatten().collect()
            }
        };
        for &id in &eligible {
            let e = graph.edge(id);
            active[e.u as usize] = true;
            active[e.v as usize] = true;
        }

        let fwd = forward_map(back, self.overlay.next_edge_id());

        // Split survivors: frozen edges (no endpoint active) keep their
        // capacity; edges in the active region become the repair seed.
        let mut frozen = BMatching::new();
        let mut seed_mids: Vec<(usize, u64)> = Vec::new();
        for (oid, e, mult) in survivors.iter() {
            let mid = fwd[oid];
            debug_assert!(mid != usize::MAX, "survivor edge must be alive");
            if active[e.u as usize] || active[e.v as usize] {
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

        let unit_caps = (0..n).all(|v| graph.b(v as VertexId) == 1);
        let improved_sub: BMatching = if unit_caps {
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

    /// The bank shape for the session's current vertex domain: solver `eps`
    /// (class boundaries bit-identical to the batch lattice at `scale = 1`),
    /// the configured weight ceiling and repetitions, seeded by the session
    /// seed — a pure function of `(config, vertex slots)`, so every worker
    /// count and every revived session builds the very same bank.
    fn bank_config(&self) -> TurnstileConfig {
        let mut cfg = TurnstileConfig::for_stream(
            self.overlay.num_vertex_slots().max(2),
            self.config.eps,
            self.config.turnstile_max_weight,
            self.config.seed,
        );
        cfg.reps = self.config.turnstile_reps;
        cfg
    }

    /// The turnstile deltas of one update against the **pre-application**
    /// journal (deletes need the endpoints/weight the id still resolves to).
    /// Rejected updates must contribute nothing — the caller discards the
    /// deltas unless the overlay accepts the update.
    fn turnstile_deltas(&self, update: &GraphUpdate) -> Vec<EdgeDelta> {
        match update {
            GraphUpdate::InsertEdge { u, v, w } => vec![EdgeDelta::insert(*u, *v, *w)],
            GraphUpdate::DeleteEdge { id } => self
                .overlay
                .live_edge(*id)
                .map(|e| vec![EdgeDelta::delete(e.u, e.v, e.w)])
                .unwrap_or_default(),
            GraphUpdate::ReweightEdge { id, w } => self
                .overlay
                .live_edge(*id)
                .map(|e| vec![EdgeDelta::delete(e.u, e.v, e.w), EdgeDelta::insert(e.u, e.v, *w)])
                .unwrap_or_default(),
            GraphUpdate::RemoveVertex { v } => self
                .overlay
                .live_edge_iter()
                .filter(|(_, e)| e.u == *v || e.v == *v)
                .map(|(_, e)| EdgeDelta::delete(e.u, e.v, e.w))
                .collect(),
            GraphUpdate::ExpireWindow { lo, hi } => self
                .overlay
                .live_edge_iter()
                .filter(|&(id, _)| id >= *lo && id < *hi)
                .map(|(_, e)| EdgeDelta::delete(e.u, e.v, e.w))
                .collect(),
            GraphUpdate::AddVertex { .. } | GraphUpdate::SetCapacity { .. } => Vec::new(),
        }
    }

    /// Brings the sketch bank in line with this epoch's mode and batch:
    /// leaving sketch mode drops the bank; entering it (or growing the vertex
    /// domain) rebuilds it from the live edge multiset; staying in it ingests
    /// the batch deltas through a charged sharded pass whose per-shard bank
    /// partials merge in shard order (bit-identical at every worker count, by
    /// linearity).
    fn maintain_bank(
        &mut self,
        sketch_mode: bool,
        deltas: &[EdgeDelta],
        engine: &mut PassEngine,
    ) -> Result<(), MwmError> {
        if !sketch_mode {
            self.bank = None;
            return Ok(());
        }
        let wanted = self.bank_config();
        let incremental = self.bank.as_ref().is_some_and(|b| *b.config() == wanted);
        if incremental {
            if !deltas.is_empty() {
                let source = DeltaSource::auto(deltas);
                let shards = engine.pass_items(
                    &source,
                    |_| SketchBank::new(wanted),
                    |acc: &mut SketchBank, d: EdgeDelta| acc.apply_delta(d),
                )?;
                let bank = self.bank.as_mut().expect("incremental implies a live bank");
                for shard in &shards {
                    bank.merge(shard).expect("shard banks share the session bank config");
                }
            }
        } else {
            // (Re)build from the live multiset: one honest scan of the live
            // edges, then the bank carries the session until the next domain
            // growth or mode exit.
            engine.tracker_mut().charge_round();
            engine.tracker_mut().charge_stream(self.overlay.num_live_edges());
            let mut bank = SketchBank::new(wanted);
            for (_, e) in self.overlay.live_edge_iter() {
                bank.apply_delta(EdgeDelta::insert(e.u, e.v, e.w));
            }
            self.bank = Some(bank);
        }
        Ok(())
    }

    /// Shrinks a resolved sketch-recovery region through the deferred
    /// Benczúr–Karger sparsifier when it is large relative to the vertex
    /// count; small regions pass through untouched. Seeded per epoch, so the
    /// shrink is deterministic and worker-count invariant.
    fn shrink_region(&self, graph: &Graph, candidates: Vec<EdgeId>) -> Vec<EdgeId> {
        let n = graph.num_vertices();
        if candidates.len() <= 2 * n.max(8) {
            return candidates;
        }
        let mut sub = Graph::new(n);
        for &mid in &candidates {
            let e = graph.edge(mid);
            sub.add_edge(e.u, e.v, e.w);
        }
        let promise = vec![1.0; sub.num_edges()];
        let seed = self.config.seed ^ ((self.epoch as u64 + 1).wrapping_mul(0x9E37_79B9_7F4A_7C15));
        let sparsifier = DeferredSparsifier::build(&sub, &promise, 1.0, 0.5, seed);
        let kept = sparsifier.reveal(|_| 1.0);
        let mut out: Vec<EdgeId> =
            kept.kept_edge_ids().into_iter().map(|sid| candidates[sid]).collect();
        out.sort_unstable();
        out.dedup();
        out
    }
}

/// On-demand publication of the session's levels (the per-epoch counters
/// record themselves as epochs commit).
impl mwm_obs::Observable for DynamicMatcher {
    fn obs_scope(&self) -> &'static str {
        "dynamic"
    }

    fn publish_metrics(&self, registry: &mwm_obs::Registry) {
        registry.gauge("dynamic_epochs").set(self.epochs() as i64);
        registry.gauge("dynamic_journal_bytes").set(self.overlay().resident_bytes() as i64);
        registry
            .gauge("dynamic_sketch_bytes")
            .set(self.sketch_bank().map_or(0, |b| b.resident_bytes()) as i64);
        registry.gauge("dynamic_matching_edges").set(self.matching().num_edges() as i64);
    }
}

/// Resolves recovered `(u, v)` pairs to materialized edge ids: the heaviest
/// live parallel edge wins, ascending id as the tie-break. Sorted ascending.
fn resolve_candidates(graph: &Graph, pairs: &[(VertexId, VertexId)]) -> Vec<EdgeId> {
    let mut best: std::collections::HashMap<(VertexId, VertexId), EdgeId> =
        std::collections::HashMap::with_capacity(graph.num_edges());
    for (mid, e) in graph.edges().iter().enumerate() {
        best.entry(e.key())
            .and_modify(|cur| {
                // Ascending iteration: replace only on a strictly heavier
                // parallel edge, so ties keep the smaller id.
                if e.w > graph.edge(*cur).w {
                    *cur = mid;
                }
            })
            .or_insert(mid);
    }
    let mut out: Vec<EdgeId> = pairs.iter().filter_map(|p| best.get(p).copied()).collect();
    out.sort_unstable();
    out.dedup();
    out
}

/// Inverts a materialize back-map: overlay id → materialized id
/// (`usize::MAX` for dead edges).
fn forward_map(back: &[EdgeId], overlay_edges: usize) -> Vec<usize> {
    let mut fwd = vec![usize::MAX; overlay_edges];
    for (mid, &oid) in back.iter().enumerate() {
        fwd[oid] = mid;
    }
    fwd
}

/// Remaps an overlay-id b-matching into materialized ids, dropping entries
/// whose edge died (belt-and-braces; survivors are alive by construction).
fn to_materialized_ids(bm: &BMatching, fwd: &[usize], graph: &Graph) -> BMatching {
    let mut out = BMatching::new();
    for (oid, _, mult) in bm.iter() {
        if let Some(&mid) = fwd.get(oid) {
            if mid != usize::MAX {
                out.add(mid, graph.edge(mid), mult);
            }
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;
    use mwm_graph::generators::{self, WeightModel};
    use rand::prelude::*;
    use rand::rngs::StdRng;

    fn base_graph(seed: u64) -> Graph {
        let mut rng = StdRng::seed_from_u64(seed);
        generators::gnm(40, 160, WeightModel::Uniform(1.0, 9.0), &mut rng)
    }

    fn config() -> DynamicConfig {
        DynamicConfig { eps: 0.25, p: 2.0, seed: 7, ..Default::default() }
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
        let (graph, _) = dm.overlay().materialize();
        let fwd = forward_map(&dm.overlay().materialize().1, dm.overlay().next_edge_id());
        let ours = to_materialized_ids(dm.matching(), &fwd, &graph);
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
        for workers in [1usize, 4] {
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
        assert_eq!(fingerprints[0], fingerprints[1], "parallelism changed a dynamic session");
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
        let cold = DualPrimalSolver::new(dm.config().solver_config(1))
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
        let fwd = forward_map(&back, dm.overlay().next_edge_id());
        let ours = to_materialized_ids(dm.matching(), &fwd, &graph);
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
        assert_eq!(dm.overlay().version(), version, "failed epoch must roll back the journal");
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
    fn compaction_preserves_the_session_and_renumbers_the_matching() {
        let g = base_graph(22);
        let mut dm = DynamicMatcher::new(&g, config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let upd = batch(dm.overlay().next_edge_id(), 40, 23, 25);
        dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        let weight = dm.weight();
        let edges = dm.matching().num_edges();

        let remap = dm.compact();
        assert!(remap.contains(&usize::MAX), "dead edges were reclaimed");
        assert_eq!(dm.overlay().next_edge_id(), dm.overlay().num_live_edges());
        assert_eq!(dm.weight(), weight, "compaction must not change the matching");
        assert_eq!(dm.matching().num_edges(), edges);
        for (id, _, _) in dm.matching().iter() {
            assert!(dm.overlay().live_edge(id).is_some(), "matching ids follow the remap");
        }
        // The session keeps working on the renumbered journal.
        let more = batch(dm.overlay().next_edge_id(), 40, 24, 10);
        let r = dm.apply_epoch(&more, &ResourceBudget::unlimited()).unwrap();
        assert!(r.stats.updates_applied > 0);
    }

    #[test]
    fn compaction_is_invisible_to_subsequent_insert_only_epochs() {
        // Two sessions consume the same stream; one compacts mid-way. Since
        // compaction only renumbers ids (the materialized live graph — edge
        // order included — is unchanged), insert-only epochs afterwards must
        // produce bit-identical weights and decisions in both sessions.
        let g = base_graph(26);
        let mut with_compact = DynamicMatcher::new(&g, config()).unwrap();
        let mut without = DynamicMatcher::new(&g, config()).unwrap();
        let budget = ResourceBudget::unlimited();
        for dm in [&mut with_compact, &mut without] {
            dm.apply_epoch(&[], &budget).unwrap();
            let upd = batch(dm.overlay().next_edge_id(), 40, 27, 20);
            dm.apply_epoch(&upd, &budget).unwrap();
        }
        with_compact.compact();
        let (ga, _) = with_compact.overlay().materialize();
        let (gb, _) = without.overlay().materialize();
        assert_eq!(ga.num_edges(), gb.num_edges());
        assert_eq!(ga.total_weight().to_bits(), gb.total_weight().to_bits());

        let mut rng = StdRng::seed_from_u64(28);
        let inserts: Vec<GraphUpdate> = (0..12)
            .map(|_| {
                let u = rng.gen_range(0..40u32);
                let mut v = rng.gen_range(0..39u32);
                if v >= u {
                    v += 1;
                }
                GraphUpdate::InsertEdge { u, v, w: rng.gen_range(1.0..9.0) }
            })
            .collect();
        let ra = with_compact.apply_epoch(&inserts, &budget).unwrap();
        let rb = without.apply_epoch(&inserts, &budget).unwrap();
        assert_eq!(ra.stats.decision, rb.stats.decision);
        assert_eq!(ra.stats.weight.to_bits(), rb.stats.weight.to_bits());
        assert_eq!(ra.stats.touched_vertices, rb.stats.touched_vertices);
        assert_eq!(with_compact.weight().to_bits(), without.weight().to_bits());
    }

    #[test]
    fn audit_records_drift_and_feasibility() {
        let g = base_graph(14);
        let cfg = DynamicConfig { audit_every: 2, ..config() };
        let mut dm = DynamicMatcher::new(&g, cfg).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        let upd = batch(dm.overlay().next_edge_id(), 40, 15, 10);
        let r = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        let audit = r.stats.audit.expect("epoch 1 (2nd) must be audited");
        assert!(audit.feasible);
        assert!(audit.weight_drift < 0.5, "drift {} suspiciously large", audit.weight_drift);
        assert!(dm.ledger()[0].audit.is_none());
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

        // Compaction republishes under the renumbered ids.
        let upd = batch(dm.overlay().next_edge_id(), 40, 32, 15);
        dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        dm.compact();
        let s2 = view.load();
        assert_eq!(s2.epoch, 2);
        for (id, _, _) in s2.matching.iter() {
            assert!(dm.overlay().live_edge(id).is_some(), "snapshot follows the remap");
        }
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
        state.overlay.alive.pop();
        assert!(DynamicMatcher::import_state(state).is_err(), "broken overlay invariant");
    }

    #[test]
    fn invalid_thresholds_are_rejected() {
        let g = base_graph(16);
        let bad = DynamicConfig { repair_threshold: 0.6, rebuild_threshold: 0.5, ..config() };
        assert!(DynamicMatcher::new(&g, bad).is_err());
        let bad2 = DynamicConfig { dual_decay: 0.0, ..config() };
        assert!(DynamicMatcher::new(&g, bad2).is_err());
        let bad3 = DynamicConfig { turnstile_enter: 0.1, turnstile_exit: 0.2, ..config() };
        assert!(DynamicMatcher::new(&g, bad3).is_err());
        let bad4 = DynamicConfig { turnstile_reps: 0, ..config() };
        assert!(DynamicMatcher::new(&g, bad4).is_err());
    }

    fn turnstile_config() -> DynamicConfig {
        DynamicConfig { ingest: IngestMode::Turnstile, turnstile_max_weight: 16.0, ..config() }
    }

    /// Deterministic delete-heavy batch: the first `deletes` live edge ids
    /// plus `inserts` fresh random edges (no self loops).
    fn mixed_batch(
        dm: &DynamicMatcher,
        n: usize,
        seed: u64,
        deletes: usize,
        inserts: usize,
    ) -> Vec<GraphUpdate> {
        let mut rng = StdRng::seed_from_u64(seed);
        let mut upd: Vec<GraphUpdate> = dm
            .overlay()
            .live_edge_iter()
            .take(deletes)
            .map(|(id, _)| GraphUpdate::DeleteEdge { id })
            .collect();
        for _ in 0..inserts {
            let u = rng.gen_range(0..n as u32);
            let mut v = rng.gen_range(0..n as u32 - 1);
            if v >= u {
                v += 1;
            }
            upd.push(GraphUpdate::InsertEdge { u, v, w: rng.gen_range(1.0..9.0) });
        }
        upd
    }

    #[test]
    fn turnstile_sessions_are_bit_identical_across_parallelism() {
        let g = base_graph(50);
        let mut fingerprints = Vec::new();
        for workers in [1usize, 4] {
            let mut dm = DynamicMatcher::new(&g, turnstile_config()).unwrap();
            let budget = ResourceBudget::unlimited().with_parallelism(workers);
            let mut fp = Vec::new();
            dm.apply_epoch(&[], &budget).unwrap();
            for round in 0..4u64 {
                let upd = mixed_batch(&dm, 40, 500 + round, 6, 6);
                let r = dm.apply_epoch(&upd, &budget).unwrap();
                assert!(r.stats.sketch_mode, "forced turnstile mode must report sketch ingestion");
                fp.push((
                    r.stats.decision,
                    r.stats.weight.to_bits(),
                    r.stats.candidate_edges,
                    r.stats.region_edges,
                ));
            }
            let bank = dm.sketch_bank().expect("turnstile sessions keep a bank").to_state();
            let mut edges: Vec<(EdgeId, u64)> =
                dm.matching().iter().map(|(id, _, m)| (id, m)).collect();
            edges.sort_unstable();
            fingerprints.push((fp, edges, bank));
        }
        assert_eq!(fingerprints[0], fingerprints[1], "parallelism changed a turnstile session");
    }

    #[test]
    fn auto_mode_hysteresis_tracks_the_delete_fraction() {
        let g = base_graph(52);
        let cfg = DynamicConfig { ingest: IngestMode::Auto, ..config() };
        let mut dm = DynamicMatcher::new(&g, cfg).unwrap();
        let r0 = dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        assert!(!r0.stats.sketch_mode && dm.sketch_bank().is_none());

        // 50% deletes clears the enter threshold (0.35) → sketch mode.
        let upd = mixed_batch(&dm, 40, 60, 6, 6);
        let r1 = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert!(r1.stats.sketch_mode && dm.sketch_bank().is_some());

        // 20% sits between exit (0.15) and enter (0.35): hysteresis holds.
        let upd = mixed_batch(&dm, 40, 61, 2, 8);
        let r2 = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert!(r2.stats.sketch_mode && dm.sketch_bank().is_some());

        // Insert-only falls below exit → back to journal mode, bank dropped.
        let upd = mixed_batch(&dm, 40, 62, 0, 10);
        let r3 = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert!(!r3.stats.sketch_mode && dm.sketch_bank().is_none());
    }

    #[test]
    fn export_import_round_trips_an_active_sketch_bank() {
        let g = base_graph(54);
        let mut dm = DynamicMatcher::new(&g, turnstile_config()).unwrap();
        dm.apply_epoch(&[], &ResourceBudget::unlimited()).unwrap();
        for round in 0..3u64 {
            let upd = mixed_batch(&dm, 40, 700 + round, 5, 7);
            dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        }
        let state = dm.export_state();
        assert!(state.bank.is_some(), "turnstile sessions export their bank");
        let mut back = DynamicMatcher::import_state(state).unwrap();
        assert_eq!(
            back.sketch_bank().map(SketchBank::to_state),
            dm.sketch_bank().map(SketchBank::to_state),
            "revived bank must be bit-identical"
        );
        // A second hibernation is a fixed point of the first.
        assert_eq!(
            back.export_state().bank,
            dm.sketch_bank().map(SketchBank::to_state),
            "re-export must reproduce the same bank image"
        );

        // Both sessions keep evolving identically, bank included.
        let upd = mixed_batch(&dm, 40, 900, 5, 7);
        let ra = dm.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        let rb = back.apply_epoch(&upd, &ResourceBudget::unlimited()).unwrap();
        assert_eq!(ra.stats.weight.to_bits(), rb.stats.weight.to_bits());
        assert_eq!(ra.stats.candidate_edges, rb.stats.candidate_edges);
        assert_eq!(
            dm.sketch_bank().unwrap().to_state(),
            back.sketch_bank().unwrap().to_state(),
            "post-restore epochs must keep the banks in lockstep"
        );
    }

    #[test]
    fn sketch_mode_memory_undercuts_the_journal_on_expiring_streams() {
        // A sliding-window stream: each round inserts a fresh block and
        // expires everything older. The journal session's overlay grows with
        // the whole history; the sketch session prunes the dead prefix and
        // keeps a bank whose size is O(n polylog n), independent of stream
        // length — so a stream much longer than the vertex count must leave
        // the sketch session smaller.
        let mut rng = StdRng::seed_from_u64(56);
        let g = generators::gnm(16, 40, WeightModel::Uniform(1.0, 9.0), &mut rng);
        // Coarse eps keeps the 2 x 30 full re-solves cheap; both sessions use
        // the same accuracy so the comparison stays fair.
        let coarse = DynamicConfig { eps: 0.45, ..config() };
        let mut journal = DynamicMatcher::new(&g, coarse).unwrap();
        let sketch_cfg = DynamicConfig { eps: 0.45, ..turnstile_config() };
        let mut sketch = DynamicMatcher::new(&g, sketch_cfg).unwrap();
        let budget = ResourceBudget::unlimited();
        journal.apply_epoch(&[], &budget).unwrap();
        sketch.apply_epoch(&[], &budget).unwrap();

        let mut prev_lo = 0usize;
        let mut last = None;
        let mut bank_sizes = Vec::new();
        for round in 0..30u64 {
            let hi = journal.overlay().next_edge_id();
            assert_eq!(hi, sketch.overlay().next_edge_id(), "streams must stay aligned");
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
            let rj = journal.apply_epoch(&upd, &budget).unwrap();
            let rs = sketch.apply_epoch(&upd, &budget).unwrap();
            assert!(!rj.stats.sketch_mode && rj.stats.sketch_bytes == 0);
            assert!(rs.stats.sketch_mode && rs.stats.sketch_bytes > 0);
            bank_sizes.push(rs.stats.sketch_bytes);
            last = Some((rj.stats.journal_bytes, rs.stats.journal_bytes, rs.stats.sketch_bytes));
        }
        let (journal_bytes, pruned_journal_bytes, sketch_bytes) = last.unwrap();
        assert!(
            pruned_journal_bytes + sketch_bytes < journal_bytes,
            "sketch session ({pruned_journal_bytes} + {sketch_bytes}) must undercut the \
             journal session ({journal_bytes}) on an expiring stream"
        );
        assert_eq!(
            bank_sizes.first(),
            bank_sizes.last(),
            "the bank footprint is fixed, independent of stream length"
        );
        // Both sessions still hold feasible matchings on their live graphs.
        for dm in [&journal, &sketch] {
            let (graph, _) = dm.overlay().materialize();
            let fwd = forward_map(&dm.overlay().materialize().1, dm.overlay().next_edge_id());
            let ours = to_materialized_ids(dm.matching(), &fwd, &graph);
            assert!(ours.is_valid(&graph));
        }
    }
}
