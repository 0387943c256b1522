//! A journaled delta overlay on [`Graph`]: the mutable view a stream of
//! [`GraphUpdate`]s edits between matching epochs.
//!
//! The paper's model treats the edge list as a read-only input; a serving
//! system never gets that luxury — edges arrive, expire and change weight
//! continuously. [`GraphOverlay`] keeps the canonical edge list *append-only*
//! (edge ids are stable: base edges keep their ids, inserts append, and only
//! an explicit [`GraphOverlay::compact`] renumbers) and records deletions,
//! reweights, vertex additions/removals and capacity changes in place, with
//! a monotonically increasing [`GraphOverlay::version`] bumped once per
//! applied update. Edge updates are O(1); [`GraphUpdate::RemoveVertex`]
//! scans the journal for incident edges (callers charging data access should
//! account for that scan). Tombstoned deletes are kept until compaction,
//! except for a dead prefix of the journal, which
//! [`GraphOverlay::prune_dead_prefix`] reclaims without renumbering: a
//! session that expires its oldest edges first (a sliding window) and prunes
//! after every epoch holds its live edges plus trailing tombstones, not its
//! whole history. An epoch engine materializes a
//! compacted [`Graph`] of the live edges on demand, together with a back-map
//! from materialized edge ids to stable overlay ids.

use crate::graph::{Edge, EdgeId, Graph, VertexId};
use std::fmt;

/// One mutation of the evolving graph. All variants are `Copy`, so batches of
/// updates can be sharded and streamed like edges.
#[derive(Clone, Copy, Debug, PartialEq)]
pub enum GraphUpdate {
    /// Adds an undirected edge `{u, v}` with weight `w > 0`; the new edge
    /// receives the next stable overlay id (see [`GraphOverlay::next_edge_id`]).
    InsertEdge {
        /// One endpoint.
        u: VertexId,
        /// The other endpoint.
        v: VertexId,
        /// Positive finite weight.
        w: f64,
    },
    /// Removes the edge with stable overlay id `id`.
    DeleteEdge {
        /// Stable overlay edge id.
        id: EdgeId,
    },
    /// Changes the weight of the edge with stable overlay id `id` to `w > 0`.
    ReweightEdge {
        /// Stable overlay edge id.
        id: EdgeId,
        /// The new positive finite weight.
        w: f64,
    },
    /// Appends a new vertex with b-matching capacity `b ≥ 1`; its id is the
    /// current vertex count.
    AddVertex {
        /// Capacity of the new vertex.
        b: u64,
    },
    /// Removes vertex `v` and deletes every live edge incident to it.
    RemoveVertex {
        /// The vertex to remove.
        v: VertexId,
    },
    /// Sets the capacity of vertex `v` to `b ≥ 1`.
    SetCapacity {
        /// The vertex whose capacity changes.
        v: VertexId,
        /// The new capacity.
        b: u64,
    },
    /// Mass expiry: tombstones every live edge with stable id in `[lo, hi)`
    /// in one journal scan — the sliding-window fast path, equivalent to (but
    /// far cheaper than) one [`GraphUpdate::DeleteEdge`] per id. Ids in the
    /// window that are already dead or were never assigned are skipped, so an
    /// empty window is a successful no-op, and the whole window counts as a
    /// single applied update (one version bump).
    ExpireWindow {
        /// First stable id of the window (inclusive).
        lo: EdgeId,
        /// End of the window (exclusive).
        hi: EdgeId,
    },
}

/// Why an update was rejected. Rejected updates leave the overlay unchanged;
/// an epoch engine counts them and moves on (a malformed update in a stream
/// of millions must not poison the epoch).
#[derive(Clone, Debug, PartialEq)]
pub enum UpdateError {
    /// The referenced edge id does not exist or is already deleted.
    DeadEdge(EdgeId),
    /// The referenced vertex does not exist or is already removed.
    DeadVertex(VertexId),
    /// An edge weight was non-positive or non-finite.
    BadWeight(f64),
    /// A capacity below 1 was requested.
    BadCapacity(u64),
    /// A self-loop insert was requested.
    SelfLoop(VertexId),
}

impl fmt::Display for UpdateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            UpdateError::DeadEdge(id) => write!(f, "edge {id} does not exist or was deleted"),
            UpdateError::DeadVertex(v) => write!(f, "vertex {v} does not exist or was removed"),
            UpdateError::BadWeight(w) => write!(f, "weight {w} must be positive and finite"),
            UpdateError::BadCapacity(b) => write!(f, "capacity {b} must be at least 1"),
            UpdateError::SelfLoop(v) => write!(f, "self-loop at vertex {v} rejected"),
        }
    }
}

impl std::error::Error for UpdateError {}

/// The summary of one applied update: which vertices it touched (the damage
/// policy of the dynamic matcher is vertex-local) and whether it killed edges.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct AppliedUpdate {
    /// Vertices whose incident structure changed.
    pub touched: Vec<VertexId>,
    /// Overlay ids of edges this update deleted (several for vertex removal).
    pub deleted_edges: Vec<EdgeId>,
    /// Overlay id of an edge this update inserted or reweighted.
    pub changed_edge: Option<EdgeId>,
}

/// The full exported state of a [`GraphOverlay`], public field by field, so
/// a persistence layer can serialize it without this crate knowing about any
/// on-disk format. [`GraphOverlay::export_state`] and
/// [`GraphOverlay::from_state`] round-trip bit-identically (weights travel as
/// `f64` values whose bit patterns are preserved by the caller's codec).
#[derive(Clone, Debug, PartialEq)]
pub struct OverlayState {
    /// Stable id of the first still-resident journal entry (ids below it were
    /// pruned as dead; see [`GraphOverlay::prune_dead_prefix`]).
    pub base: EdgeId,
    /// The resident journaled edges, indexed by `stable id - base`.
    pub edges: Vec<Edge>,
    /// Liveness per resident journal entry (`edges.len()` entries).
    pub alive: Vec<bool>,
    /// Capacities per vertex slot, including removed vertices.
    pub capacities: Vec<u64>,
    /// Removal marker per vertex slot (`capacities.len()` entries).
    pub removed: Vec<bool>,
    /// Monotone version counter at export time.
    pub version: u64,
    /// Total updates applied at export time.
    pub applied: u64,
}

/// A journaled, versioned delta overlay over a base [`Graph`].
#[derive(Clone, Debug)]
pub struct GraphOverlay {
    /// Stable id of journal slot 0: ids below `base` were pruned while dead
    /// and behave exactly like tombstoned ids forever after.
    base: EdgeId,
    /// The resident journaled edges (base edges then inserts), indexed by
    /// `stable id - base`.
    edges: Vec<Edge>,
    /// Liveness per resident journal slot.
    alive: Vec<bool>,
    /// Capacities per vertex (including removed vertices, frozen at removal).
    capacities: Vec<u64>,
    /// Removal marker per vertex.
    removed: Vec<bool>,
    live_edges: usize,
    live_vertices: usize,
    version: u64,
    applied: u64,
}

impl GraphOverlay {
    /// Wraps a base graph. The base is copied once (`O(n + m)`); afterwards
    /// the overlay is self-contained.
    pub fn new(base: &Graph) -> Self {
        GraphOverlay {
            base: 0,
            edges: base.edges().to_vec(),
            alive: vec![true; base.num_edges()],
            capacities: base.capacities().to_vec(),
            removed: vec![false; base.num_vertices()],
            live_edges: base.num_edges(),
            live_vertices: base.num_vertices(),
            version: 0,
            applied: 0,
        }
    }

    /// An overlay over an initially empty graph on `n` unit-capacity vertices.
    pub fn empty(n: usize) -> Self {
        Self::new(&Graph::new(n))
    }

    /// Monotone version counter: bumped once per successfully applied update.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Total updates successfully applied over the overlay's lifetime.
    pub fn updates_applied(&self) -> u64 {
        self.applied
    }

    /// Vertex slots (live and removed); also the id the next
    /// [`GraphUpdate::AddVertex`] will receive.
    pub fn num_vertex_slots(&self) -> usize {
        self.capacities.len()
    }

    /// Currently live (non-removed) vertices.
    pub fn num_live_vertices(&self) -> usize {
        self.live_vertices
    }

    /// Currently live edges.
    pub fn num_live_edges(&self) -> usize {
        self.live_edges
    }

    /// The stable id the next [`GraphUpdate::InsertEdge`] will receive.
    /// Deterministic, so an update generator can pre-compute ids for deletes.
    pub fn next_edge_id(&self) -> EdgeId {
        self.base + self.edges.len()
    }

    /// Stable id of the first still-resident journal entry; ids below it were
    /// pruned while dead and stay dead.
    pub fn journal_base(&self) -> EdgeId {
        self.base
    }

    #[inline]
    fn slot(&self, id: EdgeId) -> Option<usize> {
        id.checked_sub(self.base).filter(|&s| s < self.edges.len())
    }

    /// The live edge with stable id `id`, if it exists and is alive.
    pub fn live_edge(&self, id: EdgeId) -> Option<Edge> {
        let slot = self.slot(id)?;
        if self.alive[slot] {
            Some(self.edges[slot])
        } else {
            None
        }
    }

    /// Iterates the live edges as `(stable id, edge)` in stable-id order.
    pub fn live_edge_iter(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges
            .iter()
            .enumerate()
            .filter(|&(slot, _)| self.alive[slot])
            .map(|(slot, e)| (self.base + slot, *e))
    }

    /// Resident journal bytes: the edge records, liveness bitmap and vertex
    /// tables actually held in memory. This is what pruning and compaction
    /// reclaim — the memory-per-session metric of the dynamic experiments.
    pub fn resident_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<Edge>()
            + self.alive.len()
            + self.capacities.len() * std::mem::size_of::<u64>()
            + self.removed.len()
    }

    /// Drops the longest all-dead prefix of the journal, sliding
    /// [`GraphOverlay::journal_base`] forward. Pruned ids behave exactly as
    /// they did while tombstoned (dead to every lookup and update), so this
    /// is observationally invisible — no version bump — but the resident
    /// journal shrinks to `O(live + trailing tombstones)` instead of growing
    /// with all updates ever. Returns the number of entries reclaimed.
    pub fn prune_dead_prefix(&mut self) -> usize {
        let dead = self.alive.iter().take_while(|&&a| !a).count();
        if dead > 0 {
            self.edges.drain(..dead);
            self.alive.drain(..dead);
            self.base += dead;
        }
        dead
    }

    /// True if vertex `v` exists and has not been removed.
    pub fn is_live_vertex(&self, v: VertexId) -> bool {
        (v as usize) < self.removed.len() && !self.removed[v as usize]
    }

    /// Capacity of vertex `v` (frozen at its last value for removed vertices).
    pub fn capacity(&self, v: VertexId) -> u64 {
        self.capacities[v as usize]
    }

    /// The vertices an update *would* touch, resolved against the current
    /// state without applying anything. Used by the sharded damage pass, which
    /// runs before the sequential apply; updates referencing ids created
    /// later in the same batch resolve to nothing here (they are still
    /// applied correctly by [`GraphOverlay::apply`]).
    pub fn touched_by(&self, update: &GraphUpdate) -> Vec<VertexId> {
        match *update {
            GraphUpdate::InsertEdge { u, v, .. } => vec![u, v],
            GraphUpdate::DeleteEdge { id } | GraphUpdate::ReweightEdge { id, .. } => {
                self.live_edge(id).map(|e| vec![e.u, e.v]).unwrap_or_default()
            }
            GraphUpdate::AddVertex { .. } => vec![self.num_vertex_slots() as VertexId],
            GraphUpdate::RemoveVertex { v } => {
                let mut touched = vec![v];
                for (slot, e) in self.edges.iter().enumerate() {
                    if self.alive[slot] && e.is_incident(v) {
                        touched.push(e.other(v));
                    }
                }
                touched
            }
            GraphUpdate::SetCapacity { v, .. } => vec![v],
            GraphUpdate::ExpireWindow { lo, hi } => {
                let mut touched = Vec::new();
                for (id, e) in self.live_edge_iter() {
                    if id >= lo && id < hi {
                        touched.push(e.u);
                        touched.push(e.v);
                    }
                }
                touched
            }
        }
    }

    /// Applies one update, bumping the version on success. Rejected updates
    /// (dead ids, bad weights, …) leave every field untouched.
    pub fn apply(&mut self, update: &GraphUpdate) -> Result<AppliedUpdate, UpdateError> {
        let applied = match *update {
            GraphUpdate::InsertEdge { u, v, w } => {
                if !w.is_finite() || w <= 0.0 {
                    return Err(UpdateError::BadWeight(w));
                }
                if u == v {
                    return Err(UpdateError::SelfLoop(u));
                }
                if !self.is_live_vertex(u) {
                    return Err(UpdateError::DeadVertex(u));
                }
                if !self.is_live_vertex(v) {
                    return Err(UpdateError::DeadVertex(v));
                }
                let id = self.base + self.edges.len();
                self.edges.push(Edge::new(u, v, w));
                self.alive.push(true);
                self.live_edges += 1;
                AppliedUpdate {
                    touched: vec![u, v],
                    deleted_edges: Vec::new(),
                    changed_edge: Some(id),
                }
            }
            GraphUpdate::DeleteEdge { id } => {
                let e = self.live_edge(id).ok_or(UpdateError::DeadEdge(id))?;
                let slot = self.slot(id).expect("live edge has a resident slot");
                self.alive[slot] = false;
                self.live_edges -= 1;
                AppliedUpdate {
                    touched: vec![e.u, e.v],
                    deleted_edges: vec![id],
                    changed_edge: None,
                }
            }
            GraphUpdate::ReweightEdge { id, w } => {
                if !w.is_finite() || w <= 0.0 {
                    return Err(UpdateError::BadWeight(w));
                }
                let e = self.live_edge(id).ok_or(UpdateError::DeadEdge(id))?;
                let slot = self.slot(id).expect("live edge has a resident slot");
                self.edges[slot].w = w;
                AppliedUpdate {
                    touched: vec![e.u, e.v],
                    deleted_edges: Vec::new(),
                    changed_edge: Some(id),
                }
            }
            GraphUpdate::AddVertex { b } => {
                if b < 1 {
                    return Err(UpdateError::BadCapacity(b));
                }
                let v = self.capacities.len() as VertexId;
                self.capacities.push(b);
                self.removed.push(false);
                self.live_vertices += 1;
                AppliedUpdate { touched: vec![v], deleted_edges: Vec::new(), changed_edge: None }
            }
            GraphUpdate::RemoveVertex { v } => {
                if !self.is_live_vertex(v) {
                    return Err(UpdateError::DeadVertex(v));
                }
                let mut deleted = Vec::new();
                let mut touched = vec![v];
                for slot in 0..self.edges.len() {
                    if self.alive[slot] && self.edges[slot].is_incident(v) {
                        self.alive[slot] = false;
                        self.live_edges -= 1;
                        deleted.push(self.base + slot);
                        touched.push(self.edges[slot].other(v));
                    }
                }
                self.removed[v as usize] = true;
                self.live_vertices -= 1;
                AppliedUpdate { touched, deleted_edges: deleted, changed_edge: None }
            }
            GraphUpdate::SetCapacity { v, b } => {
                if b < 1 {
                    return Err(UpdateError::BadCapacity(b));
                }
                if !self.is_live_vertex(v) {
                    return Err(UpdateError::DeadVertex(v));
                }
                self.capacities[v as usize] = b;
                AppliedUpdate { touched: vec![v], deleted_edges: Vec::new(), changed_edge: None }
            }
            GraphUpdate::ExpireWindow { lo, hi } => {
                let from = lo.max(self.base) - self.base;
                let to = hi.clamp(self.base, self.base + self.edges.len()) - self.base;
                let mut deleted = Vec::new();
                let mut touched = Vec::new();
                for slot in from..to.max(from) {
                    if self.alive[slot] {
                        self.alive[slot] = false;
                        self.live_edges -= 1;
                        deleted.push(self.base + slot);
                        touched.push(self.edges[slot].u);
                        touched.push(self.edges[slot].v);
                    }
                }
                AppliedUpdate { touched, deleted_edges: deleted, changed_edge: None }
            }
        };
        self.version += 1;
        self.applied += 1;
        Ok(applied)
    }

    /// Compacts the journal: dead edges are reclaimed and live edges are
    /// renumbered contiguously in order. Returns the old-id → new-id map
    /// (`usize::MAX` for dead ids). This deliberately breaks the stable-id
    /// contract — callers that precompute ids (update generators, stored
    /// matchings) must consume the remap — so it is never done implicitly.
    /// Bumps the version; vertex ids are untouched. The remap covers every
    /// stable id ever assigned (pruned ids map to `usize::MAX` like any other
    /// dead id), and the journal base resets to 0.
    pub fn compact(&mut self) -> Vec<usize> {
        let mut remap = vec![usize::MAX; self.next_edge_id()];
        let mut live = Vec::with_capacity(self.live_edges);
        for (slot, &e) in self.edges.iter().enumerate() {
            if self.alive[slot] {
                remap[self.base + slot] = live.len();
                live.push(e);
            }
        }
        self.base = 0;
        self.edges = live;
        self.alive = vec![true; self.edges.len()];
        self.version += 1;
        remap
    }

    /// Exports the complete overlay state for persistence. The copy is
    /// `O(n + m)`; [`GraphOverlay::from_state`] restores an overlay that is
    /// indistinguishable from this one.
    pub fn export_state(&self) -> OverlayState {
        OverlayState {
            base: self.base,
            edges: self.edges.clone(),
            alive: self.alive.clone(),
            capacities: self.capacities.clone(),
            removed: self.removed.clone(),
            version: self.version,
            applied: self.applied,
        }
    }

    /// Rebuilds an overlay from an exported state, re-deriving the live
    /// counters and validating the cross-array invariants (parallel lengths,
    /// live edges referencing existing vertex slots). Errors are strings:
    /// the caller (a persistence codec) wraps them in its own error type.
    pub fn from_state(state: OverlayState) -> Result<Self, String> {
        if state.alive.len() != state.edges.len() {
            return Err(format!(
                "alive has {} entries for {} edges",
                state.alive.len(),
                state.edges.len()
            ));
        }
        if state.removed.len() != state.capacities.len() {
            return Err(format!(
                "removed has {} entries for {} vertex slots",
                state.removed.len(),
                state.capacities.len()
            ));
        }
        let slots = state.capacities.len() as u64;
        for (id, (e, &alive)) in state.edges.iter().zip(&state.alive).enumerate() {
            if alive && (u64::from(e.u) >= slots || u64::from(e.v) >= slots) {
                return Err(format!("live edge {id} references a vertex outside {slots} slots"));
            }
        }
        if state.capacities.iter().zip(&state.removed).any(|(&b, &dead)| !dead && b < 1) {
            return Err("live vertex with capacity below 1".to_string());
        }
        let live_edges = state.alive.iter().filter(|&&a| a).count();
        let live_vertices = state.removed.iter().filter(|&&r| !r).count();
        Ok(GraphOverlay {
            base: state.base,
            edges: state.edges,
            alive: state.alive,
            capacities: state.capacities,
            removed: state.removed,
            live_edges,
            live_vertices,
            version: state.version,
            applied: state.applied,
        })
    }

    /// Materializes the current live graph plus the back-map from materialized
    /// edge ids to stable overlay ids. Removed vertices keep their slots (with
    /// capacity 1 and no incident edges) so vertex ids stay stable across the
    /// overlay's whole lifetime — a dual snapshot exported three epochs ago
    /// still names the right vertices.
    pub fn materialize(&self) -> (Graph, Vec<EdgeId>) {
        let caps: Vec<u64> = self
            .capacities
            .iter()
            .zip(&self.removed)
            .map(|(&b, &dead)| if dead { 1 } else { b })
            .collect();
        let mut g = Graph::with_capacities(caps);
        let mut back = Vec::with_capacity(self.live_edges);
        for (slot, e) in self.edges.iter().enumerate() {
            if self.alive[slot] {
                g.add_edge(e.u, e.v, e.w);
                back.push(self.base + slot);
            }
        }
        (g, back)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn base() -> Graph {
        let mut g = Graph::new(4);
        g.add_edge(0, 1, 1.0);
        g.add_edge(1, 2, 2.0);
        g.add_edge(2, 3, 3.0);
        g
    }

    #[test]
    fn insert_delete_reweight_round_trip() {
        let mut ov = GraphOverlay::new(&base());
        assert_eq!(ov.next_edge_id(), 3);
        let a = ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 3, w: 4.0 }).unwrap();
        assert_eq!(a.changed_edge, Some(3));
        assert_eq!(ov.num_live_edges(), 4);
        ov.apply(&GraphUpdate::DeleteEdge { id: 1 }).unwrap();
        ov.apply(&GraphUpdate::ReweightEdge { id: 0, w: 9.0 }).unwrap();
        assert_eq!(ov.version(), 3);
        let (g, back) = ov.materialize();
        assert_eq!(g.num_edges(), 3);
        assert_eq!(back, vec![0, 2, 3]);
        assert_eq!(g.edge(0).w, 9.0);
        assert_eq!(ov.live_edge(1), None);
    }

    #[test]
    fn vertex_lifecycle_and_capacities() {
        let mut ov = GraphOverlay::new(&base());
        ov.apply(&GraphUpdate::AddVertex { b: 3 }).unwrap();
        assert_eq!(ov.num_vertex_slots(), 5);
        assert_eq!(ov.capacity(4), 3);
        ov.apply(&GraphUpdate::InsertEdge { u: 4, v: 0, w: 1.5 }).unwrap();
        ov.apply(&GraphUpdate::SetCapacity { v: 4, b: 2 }).unwrap();
        let removed = ov.apply(&GraphUpdate::RemoveVertex { v: 1 }).unwrap();
        assert_eq!(removed.deleted_edges, vec![0, 1]);
        assert!(removed.touched.contains(&0) && removed.touched.contains(&2));
        assert!(!ov.is_live_vertex(1));
        assert_eq!(ov.num_live_vertices(), 4);
        let (g, back) = ov.materialize();
        assert_eq!(g.num_vertices(), 5, "removed vertices keep their slots");
        assert_eq!(g.num_edges(), 2);
        assert_eq!(back, vec![2, 3]);
        assert!(g.bipartition().is_some() || g.num_edges() > 0);
    }

    #[test]
    fn rejected_updates_change_nothing() {
        let mut ov = GraphOverlay::new(&base());
        let v0 = ov.version();
        assert!(matches!(
            ov.apply(&GraphUpdate::DeleteEdge { id: 99 }),
            Err(UpdateError::DeadEdge(99))
        ));
        assert!(matches!(
            ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 0, w: 1.0 }),
            Err(UpdateError::SelfLoop(0))
        ));
        assert!(matches!(
            ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 1, w: -1.0 }),
            Err(UpdateError::BadWeight(_))
        ));
        assert!(matches!(
            ov.apply(&GraphUpdate::SetCapacity { v: 0, b: 0 }),
            Err(UpdateError::BadCapacity(0))
        ));
        ov.apply(&GraphUpdate::RemoveVertex { v: 3 }).unwrap();
        assert!(matches!(
            ov.apply(&GraphUpdate::RemoveVertex { v: 3 }),
            Err(UpdateError::DeadVertex(3))
        ));
        assert_eq!(ov.version(), v0 + 1, "only the successful removal bumped the version");
        assert_eq!(ov.num_live_edges(), 2);
    }

    #[test]
    fn deleting_a_deleted_edge_is_dead() {
        let mut ov = GraphOverlay::new(&base());
        ov.apply(&GraphUpdate::DeleteEdge { id: 0 }).unwrap();
        assert!(ov.apply(&GraphUpdate::DeleteEdge { id: 0 }).is_err());
        assert!(ov.apply(&GraphUpdate::ReweightEdge { id: 0, w: 2.0 }).is_err());
    }

    #[test]
    fn compaction_reclaims_dead_edges_and_remaps() {
        let mut ov = GraphOverlay::new(&base());
        ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 3, w: 4.0 }).unwrap();
        ov.apply(&GraphUpdate::DeleteEdge { id: 1 }).unwrap();
        let before = ov.materialize().0;
        let remap = ov.compact();
        assert_eq!(remap, vec![0, usize::MAX, 1, 2]);
        assert_eq!(ov.next_edge_id(), 3, "journal shrank to the live edges");
        assert_eq!(ov.num_live_edges(), 3);
        let after = ov.materialize().0;
        assert_eq!(before.num_edges(), after.num_edges());
        assert_eq!(before.total_weight(), after.total_weight());
        // Post-compaction ids keep working: delete the renumbered insert.
        ov.apply(&GraphUpdate::DeleteEdge { id: remap[3] }).unwrap();
        assert_eq!(ov.num_live_edges(), 2);
    }

    #[test]
    fn compact_remap_is_total_order_preserving_and_weight_exact() {
        // A heavily churned journal: interleaved inserts, deletes (including
        // re-deleting via vertex removal) and reweights.
        let mut ov = GraphOverlay::new(&base());
        for i in 0..40u32 {
            ov.apply(&GraphUpdate::InsertEdge { u: i % 4, v: (i + 1) % 4, w: 1.0 + i as f64 })
                .unwrap();
        }
        for id in (0..ov.next_edge_id()).step_by(3) {
            let _ = ov.apply(&GraphUpdate::DeleteEdge { id });
        }
        for id in (1..ov.next_edge_id()).step_by(5) {
            let _ = ov.apply(&GraphUpdate::ReweightEdge { id, w: 0.5 + id as f64 });
        }
        let live_before = ov.num_live_edges();
        let survivors: Vec<(EdgeId, Edge)> =
            (0..ov.next_edge_id()).filter_map(|id| ov.live_edge(id).map(|e| (id, e))).collect();

        let journal_len = ov.next_edge_id();
        let remap = ov.compact();
        // Total: every pre-compaction id has an entry; dead ids map to MAX,
        // live ids biject onto 0..live in their original relative order.
        assert_eq!(remap.len(), journal_len);
        let mapped: Vec<usize> = survivors.iter().map(|&(id, _)| remap[id]).collect();
        assert_eq!(mapped, (0..live_before).collect::<Vec<_>>(), "order-preserving bijection");
        for (old, &new) in remap.iter().enumerate() {
            if new == usize::MAX {
                continue;
            }
            let e_new = ov.live_edge(new).expect("remapped id is live");
            let (_, e_old) = survivors.iter().find(|&&(id, _)| id == old).unwrap();
            assert_eq!(
                (e_new.u, e_new.v, e_new.w.to_bits()),
                (e_old.u, e_old.v, e_old.w.to_bits())
            );
        }
        // Tombstones are gone: the journal holds exactly the live edges.
        assert_eq!(ov.next_edge_id(), live_before);
        assert_eq!(ov.num_live_edges(), live_before);
    }

    #[test]
    fn compact_is_idempotent_once_tombstones_are_reclaimed() {
        let mut ov = GraphOverlay::new(&base());
        ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 2, w: 5.0 }).unwrap();
        ov.apply(&GraphUpdate::DeleteEdge { id: 0 }).unwrap();
        let first = ov.compact();
        assert!(first.contains(&usize::MAX));
        let (g_first, _) = ov.materialize();
        // With no tombstones left, a second compaction is the identity remap
        // and changes nothing but the version.
        let v = ov.version();
        let second = ov.compact();
        assert_eq!(second, (0..ov.next_edge_id()).collect::<Vec<_>>());
        assert_eq!(ov.version(), v + 1);
        let (g_second, back) = ov.materialize();
        assert_eq!(g_first.num_edges(), g_second.num_edges());
        assert_eq!(g_first.total_weight().to_bits(), g_second.total_weight().to_bits());
        assert_eq!(back, (0..ov.num_live_edges()).collect::<Vec<_>>());
    }

    #[test]
    fn compaction_preserves_vertex_state_and_future_updates() {
        // Vertex removals and capacities are orthogonal to edge compaction:
        // the journal shrinks, vertex ids and capacities stay put, and the
        // overlay keeps accepting updates against the renumbered ids.
        let mut ov = GraphOverlay::new(&base());
        ov.apply(&GraphUpdate::AddVertex { b: 3 }).unwrap();
        ov.apply(&GraphUpdate::InsertEdge { u: 4, v: 0, w: 2.5 }).unwrap();
        ov.apply(&GraphUpdate::RemoveVertex { v: 1 }).unwrap();
        let live_vertices = ov.num_live_vertices();
        let remap = ov.compact();
        assert_eq!(ov.num_live_vertices(), live_vertices);
        assert!(!ov.is_live_vertex(1) && ov.is_live_vertex(4));
        assert_eq!(ov.capacity(4), 3);
        // The renumbered insert is addressable through the remap.
        let new_id = remap[3];
        assert!(ov.live_edge(new_id).is_some());
        ov.apply(&GraphUpdate::ReweightEdge { id: new_id, w: 9.0 }).unwrap();
        assert_eq!(ov.live_edge(new_id).unwrap().w, 9.0);
        // Dead-vertex inserts stay rejected after compaction.
        assert!(matches!(
            ov.apply(&GraphUpdate::InsertEdge { u: 1, v: 0, w: 1.0 }),
            Err(UpdateError::DeadVertex(1))
        ));
    }

    #[test]
    fn export_import_round_trips_bit_exactly() {
        let mut ov = GraphOverlay::new(&base());
        ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 3, w: 0.1 + 0.2 }).unwrap();
        ov.apply(&GraphUpdate::DeleteEdge { id: 1 }).unwrap();
        ov.apply(&GraphUpdate::AddVertex { b: 2 }).unwrap();
        ov.apply(&GraphUpdate::RemoveVertex { v: 2 }).unwrap();
        let state = ov.export_state();
        let restored = GraphOverlay::from_state(state.clone()).unwrap();
        assert_eq!(restored.export_state(), state, "export ∘ import ∘ export is a fixed point");
        assert_eq!(restored.num_live_edges(), ov.num_live_edges());
        assert_eq!(restored.num_live_vertices(), ov.num_live_vertices());
        assert_eq!(restored.version(), ov.version());
        assert_eq!(restored.updates_applied(), ov.updates_applied());
        let (g1, b1) = ov.materialize();
        let (g2, b2) = restored.materialize();
        assert_eq!(b1, b2);
        assert_eq!(g1.total_weight().to_bits(), g2.total_weight().to_bits());
    }

    #[test]
    fn from_state_rejects_inconsistent_arrays() {
        let ov = GraphOverlay::new(&base());
        let mut state = ov.export_state();
        state.alive.pop();
        assert!(GraphOverlay::from_state(state).is_err());

        let mut state = ov.export_state();
        state.removed.push(false);
        assert!(GraphOverlay::from_state(state).is_err());

        let mut state = ov.export_state();
        state.edges[0].u = 99;
        assert!(GraphOverlay::from_state(state).is_err(), "live edge past vertex slots");

        let mut state = ov.export_state();
        state.capacities[0] = 0;
        assert!(GraphOverlay::from_state(state).is_err(), "live vertex with zero capacity");
    }

    #[test]
    fn expire_window_matches_per_edge_deletes() {
        let mut per_edge = GraphOverlay::new(&base());
        let mut windowed = per_edge.clone();
        for ov in [&mut per_edge, &mut windowed] {
            ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 3, w: 4.0 }).unwrap();
            ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 2, w: 5.0 }).unwrap();
        }
        per_edge.apply(&GraphUpdate::DeleteEdge { id: 1 }).unwrap();
        per_edge.apply(&GraphUpdate::DeleteEdge { id: 2 }).unwrap();
        per_edge.apply(&GraphUpdate::DeleteEdge { id: 3 }).unwrap();
        let a = windowed.apply(&GraphUpdate::ExpireWindow { lo: 1, hi: 4 }).unwrap();
        assert_eq!(a.deleted_edges, vec![1, 2, 3]);
        assert_eq!(a.touched, vec![1, 2, 2, 3, 0, 3]);
        assert_eq!(windowed.num_live_edges(), per_edge.num_live_edges());
        let (g_w, back_w) = windowed.materialize();
        let (g_p, back_p) = per_edge.materialize();
        assert_eq!(back_w, back_p);
        assert_eq!(g_w.total_weight().to_bits(), g_p.total_weight().to_bits());

        // Re-expiring the same window is a successful no-op, one version bump.
        let v = windowed.version();
        let again = windowed.apply(&GraphUpdate::ExpireWindow { lo: 0, hi: 4 }).unwrap();
        assert_eq!(again.deleted_edges, vec![0]);
        assert_eq!(windowed.version(), v + 1);
        // Windows past the journal end (or entirely dead) still succeed.
        let empty = windowed.apply(&GraphUpdate::ExpireWindow { lo: 50, hi: 99 }).unwrap();
        assert!(empty.deleted_edges.is_empty() && empty.touched.is_empty());
    }

    #[test]
    fn prune_dead_prefix_is_observationally_invisible() {
        let mut ov = GraphOverlay::new(&base());
        for i in 0..6u32 {
            ov.apply(&GraphUpdate::InsertEdge { u: i % 4, v: (i + 1) % 4, w: 1.0 + i as f64 })
                .unwrap();
        }
        ov.apply(&GraphUpdate::ExpireWindow { lo: 0, hi: 6 }).unwrap();
        let bytes_before = ov.resident_bytes();
        let (g_before, back_before) = ov.materialize();
        let version = ov.version();

        let pruned = ov.prune_dead_prefix();
        assert_eq!(pruned, 6);
        assert_eq!(ov.journal_base(), 6);
        assert!(ov.resident_bytes() < bytes_before, "pruning must reclaim journal bytes");
        assert_eq!(ov.version(), version, "pruning is not an update");
        assert_eq!(ov.next_edge_id(), 9, "stable ids keep counting past the pruned prefix");

        // Identical observable state: materialization, lookups, rejections.
        let (g_after, back_after) = ov.materialize();
        assert_eq!(back_before, back_after);
        assert_eq!(g_before.total_weight().to_bits(), g_after.total_weight().to_bits());
        assert_eq!(ov.live_edge(2), None);
        assert!(matches!(
            ov.apply(&GraphUpdate::DeleteEdge { id: 2 }),
            Err(UpdateError::DeadEdge(2))
        ));
        assert_eq!(ov.export_state().edges.len(), 3, "pruned entries are gone from the journal");
        assert!(ov.live_edge(7).is_some());

        // New inserts get the next stable id; deletes against it work.
        let a = ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 1, w: 2.0 }).unwrap();
        assert_eq!(a.changed_edge, Some(9));
        ov.apply(&GraphUpdate::DeleteEdge { id: 9 }).unwrap();

        // Export/import round-trips the base; compact resets it.
        let restored = GraphOverlay::from_state(ov.export_state()).unwrap();
        assert_eq!(restored.export_state(), ov.export_state());
        assert_eq!(restored.journal_base(), 6);
        let remap = ov.compact();
        assert_eq!(remap.len(), 10);
        assert_eq!(ov.journal_base(), 0);
        assert_eq!(remap[..6], [usize::MAX; 6]);
    }

    #[test]
    fn live_edge_iter_yields_stable_ids() {
        let mut ov = GraphOverlay::new(&base());
        ov.apply(&GraphUpdate::DeleteEdge { id: 0 }).unwrap();
        ov.prune_dead_prefix();
        let ids: Vec<EdgeId> = ov.live_edge_iter().map(|(id, _)| id).collect();
        assert_eq!(ids, vec![1, 2]);
        for (id, e) in ov.live_edge_iter() {
            assert_eq!(ov.live_edge(id).unwrap().key(), e.key());
        }
    }

    #[test]
    fn touched_by_matches_apply() {
        let ov = GraphOverlay::new(&base());
        assert_eq!(ov.touched_by(&GraphUpdate::DeleteEdge { id: 1 }), vec![1, 2]);
        assert_eq!(ov.touched_by(&GraphUpdate::DeleteEdge { id: 77 }), Vec::<VertexId>::new());
        assert_eq!(ov.touched_by(&GraphUpdate::AddVertex { b: 1 }), vec![4]);
        let touched = ov.touched_by(&GraphUpdate::RemoveVertex { v: 1 });
        assert!(touched.contains(&0) && touched.contains(&2) && touched.contains(&1));
    }
}
