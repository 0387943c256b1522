//! A versioned delta overlay on [`Graph`]: the mutable view a stream of
//! [`GraphUpdate`]s edits between matching epochs.
//!
//! The paper's model treats the edge list as a read-only input; a serving
//! system never gets that luxury — edges arrive, expire and change weight
//! continuously. [`GraphOverlay`] holds exactly the live edges, keyed by
//! stable id: base edges keep their ids, every insert takes the next id, and
//! no id is ever renumbered or reused, so a deleted id is simply absent.
//! Deletions, reweights, vertex additions/removals and capacity changes
//! apply in place, with a monotonically increasing [`GraphOverlay::version`]
//! bumped once per applied update. Edge updates cost `O(log m)`;
//! [`GraphUpdate::RemoveVertex`] scans the live edges for incident ones
//! (callers charging data access should account for that scan). An epoch
//! engine materializes a [`Graph`] of the live edges on demand, together
//! with a back-map from materialized edge ids to stable overlay ids.

use crate::graph::{Edge, EdgeId, Graph, VertexId};
use std::collections::BTreeMap;
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
    /// Mass expiry: deletes every live edge with stable id in `[lo, hi)` in
    /// one range removal — the sliding-window fast path, equivalent to (but
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
    /// The stable id the next insert will receive.
    pub next_id: EdgeId,
    /// The live edges as `(stable id, edge)`, in ascending id order.
    pub edges: Vec<(EdgeId, Edge)>,
    /// Capacities per vertex slot, including removed vertices.
    pub capacities: Vec<u64>,
    /// Removal marker per vertex slot (`capacities.len()` entries).
    pub removed: Vec<bool>,
    /// Monotone version counter at export time.
    pub version: u64,
    /// Total updates applied at export time.
    pub applied: u64,
}

/// A versioned delta overlay over a base [`Graph`].
#[derive(Clone, Debug)]
pub struct GraphOverlay {
    /// The live edges by stable id; a deleted id is absent.
    edges: BTreeMap<EdgeId, Edge>,
    /// The stable id the next insert receives.
    next_id: EdgeId,
    /// Capacities per vertex (including removed vertices, frozen at removal).
    capacities: Vec<u64>,
    /// Removal marker per vertex.
    removed: Vec<bool>,
    live_vertices: usize,
    version: u64,
    applied: u64,
}

impl GraphOverlay {
    /// Wraps a base graph. The base is copied once (`O(n + m)`); afterwards
    /// the overlay is self-contained.
    pub fn new(base: &Graph) -> Self {
        GraphOverlay {
            edges: base.edges().iter().copied().enumerate().collect(),
            next_id: base.num_edges(),
            capacities: base.capacities().to_vec(),
            removed: vec![false; base.num_vertices()],
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
        self.edges.len()
    }

    /// The stable id the next [`GraphUpdate::InsertEdge`] will receive.
    /// Deterministic, so an update generator can pre-compute ids for deletes.
    pub fn next_edge_id(&self) -> EdgeId {
        self.next_id
    }

    /// The live edge with stable id `id`, if it exists and is alive.
    pub fn live_edge(&self, id: EdgeId) -> Option<Edge> {
        self.edges.get(&id).copied()
    }

    /// Iterates the live edges as `(stable id, edge)` in stable-id order.
    pub fn live_edge_iter(&self) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges.iter().map(|(&id, &e)| (id, e))
    }

    /// The live edges with stable id in `[lo, hi)`, in stable-id order
    /// (none when `lo >= hi`).
    fn window(&self, lo: EdgeId, hi: EdgeId) -> impl Iterator<Item = (EdgeId, Edge)> + '_ {
        self.edges.range(lo..hi.max(lo)).map(|(&id, &e)| (id, e))
    }

    /// Resident bytes: one `(EdgeId, Edge)` record per live edge plus the
    /// vertex tables — the memory-per-session metric of the dynamic
    /// experiments. The map's node overhead is not counted.
    pub fn resident_bytes(&self) -> usize {
        self.edges.len() * std::mem::size_of::<(EdgeId, Edge)>()
            + self.capacities.len() * std::mem::size_of::<u64>()
            + self.removed.len()
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
            GraphUpdate::RemoveVertex { v } => std::iter::once(v)
                .chain(self.edges.values().filter(|e| e.is_incident(v)).map(|e| e.other(v)))
                .collect(),
            GraphUpdate::SetCapacity { v, .. } => vec![v],
            GraphUpdate::ExpireWindow { lo, hi } => {
                self.window(lo, hi).flat_map(|(_, e)| [e.u, e.v]).collect()
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
                let id = self.next_id;
                self.next_id += 1;
                self.edges.insert(id, Edge::new(u, v, w));
                AppliedUpdate {
                    touched: vec![u, v],
                    deleted_edges: Vec::new(),
                    changed_edge: Some(id),
                }
            }
            GraphUpdate::DeleteEdge { id } => {
                let e = self.edges.remove(&id).ok_or(UpdateError::DeadEdge(id))?;
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
                let e = self.edges.get_mut(&id).ok_or(UpdateError::DeadEdge(id))?;
                e.w = w;
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
                // `retain` visits the edges in ascending id order.
                self.edges.retain(|&id, e| {
                    let incident = e.is_incident(v);
                    if incident {
                        deleted.push(id);
                        touched.push(e.other(v));
                    }
                    !incident
                });
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
                let expired: Vec<(EdgeId, Edge)> = self.window(lo, hi).collect();
                let mut deleted = Vec::with_capacity(expired.len());
                let mut touched = Vec::with_capacity(2 * expired.len());
                for (id, e) in expired {
                    self.edges.remove(&id);
                    deleted.push(id);
                    touched.push(e.u);
                    touched.push(e.v);
                }
                AppliedUpdate { touched, deleted_edges: deleted, changed_edge: None }
            }
        };
        self.version += 1;
        self.applied += 1;
        Ok(applied)
    }

    /// Exports the complete overlay state for persistence. The copy is
    /// `O(n + m)`; [`GraphOverlay::from_state`] restores an overlay that is
    /// indistinguishable from this one.
    pub fn export_state(&self) -> OverlayState {
        OverlayState {
            next_id: self.next_id,
            edges: self.live_edge_iter().collect(),
            capacities: self.capacities.clone(),
            removed: self.removed.clone(),
            version: self.version,
            applied: self.applied,
        }
    }

    /// Rebuilds an overlay from an exported state, re-deriving the live
    /// vertex count and validating the invariants: parallel vertex tables,
    /// edge ids strictly ascending and below `next_id`, and edges referencing
    /// existing vertex slots. Errors are strings: the caller (a persistence
    /// codec) wraps them in its own error type.
    pub fn from_state(state: OverlayState) -> Result<Self, String> {
        if state.removed.len() != state.capacities.len() {
            return Err(format!(
                "removed has {} entries for {} vertex slots",
                state.removed.len(),
                state.capacities.len()
            ));
        }
        if let Some(pair) = state.edges.windows(2).find(|pair| pair[0].0 >= pair[1].0) {
            return Err(format!("edge ids {} and {} are out of order", pair[0].0, pair[1].0));
        }
        if let Some(&(id, _)) = state.edges.last().filter(|&&(id, _)| id >= state.next_id) {
            return Err(format!("edge id {id} is not below the next id {}", state.next_id));
        }
        let slots = state.capacities.len() as u64;
        for &(id, e) in &state.edges {
            if u64::from(e.u) >= slots || u64::from(e.v) >= slots {
                return Err(format!("live edge {id} references a vertex outside {slots} slots"));
            }
        }
        if state.capacities.iter().zip(&state.removed).any(|(&b, &dead)| !dead && b < 1) {
            return Err("live vertex with capacity below 1".to_string());
        }
        let live_vertices = state.removed.iter().filter(|&&r| !r).count();
        Ok(GraphOverlay {
            edges: state.edges.into_iter().collect(),
            next_id: state.next_id,
            capacities: state.capacities,
            removed: state.removed,
            live_vertices,
            version: state.version,
            applied: state.applied,
        })
    }

    /// Materializes the current live graph plus the back-map from materialized
    /// edge ids to stable overlay ids, ascending. Removed vertices keep their
    /// slots (with capacity 1 and no incident edges) so vertex ids stay stable
    /// across the overlay's whole lifetime — a dual snapshot exported three
    /// epochs ago still names the right vertices.
    pub fn materialize(&self) -> (Graph, Vec<EdgeId>) {
        let caps: Vec<u64> = self
            .capacities
            .iter()
            .zip(&self.removed)
            .map(|(&b, &dead)| if dead { 1 } else { b })
            .collect();
        let mut g = Graph::with_capacities(caps);
        let mut back = Vec::with_capacity(self.edges.len());
        for (id, e) in self.live_edge_iter() {
            g.add_edge(e.u, e.v, e.w);
            back.push(id);
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
        state.edges.swap(0, 1);
        assert!(GraphOverlay::from_state(state).is_err(), "edge ids out of order");

        let mut state = ov.export_state();
        state.edges[2].0 = state.next_id;
        assert!(GraphOverlay::from_state(state).is_err(), "edge id at or past the next id");

        let mut state = ov.export_state();
        state.removed.push(false);
        assert!(GraphOverlay::from_state(state).is_err());

        let mut state = ov.export_state();
        state.edges[0].1.u = 99;
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
        // Windows past the last id, entirely dead or reversed still succeed.
        let empty = windowed.apply(&GraphUpdate::ExpireWindow { lo: 50, hi: 99 }).unwrap();
        assert!(empty.deleted_edges.is_empty() && empty.touched.is_empty());
        let reversed = windowed.apply(&GraphUpdate::ExpireWindow { lo: 4, hi: 2 }).unwrap();
        assert!(reversed.deleted_edges.is_empty() && reversed.touched.is_empty());
        assert!(windowed.touched_by(&GraphUpdate::ExpireWindow { lo: 4, hi: 2 }).is_empty());
    }

    #[test]
    fn deleted_ids_stay_dead_and_new_ids_keep_counting() {
        let mut ov = GraphOverlay::new(&base());
        for i in 0..6u32 {
            ov.apply(&GraphUpdate::InsertEdge { u: i % 4, v: (i + 1) % 4, w: 1.0 + i as f64 })
                .unwrap();
        }
        ov.apply(&GraphUpdate::ExpireWindow { lo: 0, hi: 6 }).unwrap();
        assert_eq!(ov.export_state().edges.len(), 3, "only the live edges are held");
        let vertex_tables = 4 * std::mem::size_of::<u64>() + 4;
        let record = std::mem::size_of::<(EdgeId, Edge)>();
        assert_eq!(ov.resident_bytes(), 3 * record + vertex_tables);
        assert_eq!(ov.next_edge_id(), 9, "stable ids keep counting past deleted ones");

        // Deleted ids stay dead to every lookup and update.
        assert_eq!(ov.live_edge(2), None);
        assert!(matches!(
            ov.apply(&GraphUpdate::DeleteEdge { id: 2 }),
            Err(UpdateError::DeadEdge(2))
        ));
        assert!(ov.live_edge(7).is_some());

        // New inserts get the next stable id; deleting the newest edges
        // first leaves nothing behind either.
        let a = ov.apply(&GraphUpdate::InsertEdge { u: 0, v: 1, w: 2.0 }).unwrap();
        assert_eq!(a.changed_edge, Some(9));
        ov.apply(&GraphUpdate::DeleteEdge { id: 9 }).unwrap();
        ov.apply(&GraphUpdate::DeleteEdge { id: 8 }).unwrap();
        let ids: Vec<EdgeId> = ov.export_state().edges.iter().map(|&(id, _)| id).collect();
        assert_eq!(ids, vec![6, 7]);
        assert_eq!(ov.resident_bytes(), 2 * record + vertex_tables);

        // Export/import keeps the next id.
        let restored = GraphOverlay::from_state(ov.export_state()).unwrap();
        assert_eq!(restored.export_state(), ov.export_state());
        assert_eq!(restored.next_edge_id(), 10);
    }

    #[test]
    fn live_edge_iter_yields_stable_ids() {
        let mut ov = GraphOverlay::new(&base());
        ov.apply(&GraphUpdate::DeleteEdge { id: 0 }).unwrap();
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
