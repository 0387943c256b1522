//! The field-level binary codec shared by session images, write-ahead
//! journals and the socket wire protocol.
//!
//! Everything is little-endian; floats travel as IEEE-754 bit patterns
//! (`to_bits`/`from_bits`), so values round-trip bit-exactly — including
//! negative zero and every NaN payload — which is what the workspace's
//! bit-identical determinism contract requires of a persistence layer.
//! Decoders never panic: truncation, bad tags and non-UTF-8 strings all
//! come back as descriptive `Err(String)`s for the caller to wrap in its own
//! error type.

use crate::PersistError;
use mwm_dynamic::{DynamicConfig, EpochDecision, EpochStats, SessionState};
use mwm_graph::{Edge, Graph, GraphUpdate, OverlayState};
use mwm_mapreduce::TrackerCounters;

/// An append-only byte sink with typed little-endian put methods.
#[derive(Debug, Default)]
pub struct ByteWriter {
    buf: Vec<u8>,
}

impl ByteWriter {
    /// An empty writer.
    pub fn new() -> Self {
        Self::default()
    }

    /// Consumes the writer, yielding the encoded bytes.
    pub fn into_bytes(self) -> Vec<u8> {
        self.buf
    }

    /// Bytes written so far.
    pub fn len(&self) -> usize {
        self.buf.len()
    }

    /// True if nothing has been written.
    pub fn is_empty(&self) -> bool {
        self.buf.is_empty()
    }

    /// Appends one byte.
    pub fn u8(&mut self, v: u8) {
        self.buf.push(v);
    }

    /// Appends a `u16` (LE).
    pub fn u16(&mut self, v: u16) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u32` (LE).
    pub fn u32(&mut self, v: u32) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends a `u64` (LE).
    pub fn u64(&mut self, v: u64) {
        self.buf.extend_from_slice(&v.to_le_bytes());
    }

    /// Appends an `f64` as its exact bit pattern.
    pub fn f64(&mut self, v: f64) {
        self.u64(v.to_bits());
    }

    /// Appends a bool as one byte (0/1).
    pub fn bool(&mut self, v: bool) {
        self.u8(u8::from(v));
    }

    /// Appends a string as `len: u32` + UTF-8 bytes. Fails if the string
    /// is too long for the `u32` length prefix.
    pub fn str(&mut self, s: &str) -> Result<(), PersistError> {
        self.u32(u32_len(s.len(), "string")?);
        self.buf.extend_from_slice(s.as_bytes());
        Ok(())
    }

    /// Appends raw bytes as `len: u32` + bytes. Fails if the slice is too
    /// long for the `u32` length prefix.
    pub fn bytes(&mut self, b: &[u8]) -> Result<(), PersistError> {
        self.u32(u32_len(b.len(), "byte slice")?);
        self.buf.extend_from_slice(b);
        Ok(())
    }
}

/// Checked narrowing of a collection length to the codec's `u32` count
/// prefix. An unchecked `len() as u32` would wrap for collections over
/// `u32::MAX` entries and encode an image whose count prefixes disagree
/// with the payload — corruption the decoder cannot distinguish from bit
/// rot. Every count-prefix encode site must go through this helper.
pub fn u32_len(len: usize, what: &str) -> Result<u32, PersistError> {
    u32::try_from(len).map_err(|_| {
        PersistError::corrupt(format!("{what} length {len} exceeds the u32 count prefix"))
    })
}

/// A cursor over encoded bytes whose typed take methods fail with a
/// description instead of panicking on truncation.
#[derive(Debug)]
pub struct ByteReader<'a> {
    buf: &'a [u8],
    at: usize,
}

impl<'a> ByteReader<'a> {
    /// A reader over `buf`, positioned at the start.
    pub fn new(buf: &'a [u8]) -> Self {
        ByteReader { buf, at: 0 }
    }

    /// Bytes not yet consumed.
    pub fn remaining(&self) -> usize {
        self.buf.len() - self.at
    }

    fn take(&mut self, n: usize, what: &str) -> Result<&'a [u8], String> {
        let end = self.at.checked_add(n).filter(|&e| e <= self.buf.len());
        match end {
            Some(end) => {
                let slice = &self.buf[self.at..end];
                self.at = end;
                Ok(slice)
            }
            None => Err(format!("truncated while reading {what}")),
        }
    }

    /// Reads one byte.
    pub fn u8(&mut self, what: &str) -> Result<u8, String> {
        Ok(self.take(1, what)?[0])
    }

    /// Reads a `u16` (LE).
    pub fn u16(&mut self, what: &str) -> Result<u16, String> {
        Ok(u16::from_le_bytes(self.take(2, what)?.try_into().expect("2 bytes")))
    }

    /// Reads a `u32` (LE).
    pub fn u32(&mut self, what: &str) -> Result<u32, String> {
        Ok(u32::from_le_bytes(self.take(4, what)?.try_into().expect("4 bytes")))
    }

    /// Reads a `u64` (LE).
    pub fn u64(&mut self, what: &str) -> Result<u64, String> {
        Ok(u64::from_le_bytes(self.take(8, what)?.try_into().expect("8 bytes")))
    }

    /// Reads an `f64` from its bit pattern.
    pub fn f64(&mut self, what: &str) -> Result<f64, String> {
        Ok(f64::from_bits(self.u64(what)?))
    }

    /// Reads a bool, rejecting bytes other than 0/1 (a corrupt image must
    /// not silently coerce).
    pub fn bool(&mut self, what: &str) -> Result<bool, String> {
        match self.u8(what)? {
            0 => Ok(false),
            1 => Ok(true),
            b => Err(format!("{what} has non-boolean byte {b}")),
        }
    }

    /// Reads a `len: u32`-prefixed UTF-8 string.
    pub fn str(&mut self, what: &str) -> Result<&'a str, String> {
        let len = self.u32(what)? as usize;
        std::str::from_utf8(self.take(len, what)?).map_err(|_| format!("{what} is not UTF-8"))
    }

    /// Reads `len: u32`-prefixed raw bytes.
    pub fn bytes(&mut self, what: &str) -> Result<&'a [u8], String> {
        let len = self.u32(what)? as usize;
        self.take(len, what)
    }

    /// Asserts the reader consumed the buffer exactly.
    pub fn finish(self, what: &str) -> Result<(), String> {
        if self.at == self.buf.len() {
            Ok(())
        } else {
            Err(format!("{} trailing bytes after {what}", self.buf.len() - self.at))
        }
    }
}

/// A sanity cap on decoded element counts (64M): a corrupt length field must
/// fail fast, not drive a multi-gigabyte allocation.
const MAX_COUNT: usize = 1 << 26;

fn checked_count(n: u64, what: &str) -> Result<usize, String> {
    let n = n as usize;
    if n > MAX_COUNT {
        return Err(format!("{what} count {n} exceeds sanity cap {MAX_COUNT}"));
    }
    Ok(n)
}

// ---- graph updates -------------------------------------------------------

const UPD_INSERT: u8 = 1;
const UPD_DELETE: u8 = 2;
const UPD_REWEIGHT: u8 = 3;
const UPD_ADD_VERTEX: u8 = 4;
const UPD_REMOVE_VERTEX: u8 = 5;
const UPD_SET_CAPACITY: u8 = 6;
const UPD_EXPIRE_WINDOW: u8 = 7;

/// Encodes one [`GraphUpdate`].
pub fn encode_update(w: &mut ByteWriter, u: &GraphUpdate) {
    match *u {
        GraphUpdate::InsertEdge { u, v, w: wt } => {
            w.u8(UPD_INSERT);
            w.u32(u);
            w.u32(v);
            w.f64(wt);
        }
        GraphUpdate::DeleteEdge { id } => {
            w.u8(UPD_DELETE);
            w.u64(id as u64);
        }
        GraphUpdate::ReweightEdge { id, w: wt } => {
            w.u8(UPD_REWEIGHT);
            w.u64(id as u64);
            w.f64(wt);
        }
        GraphUpdate::AddVertex { b } => {
            w.u8(UPD_ADD_VERTEX);
            w.u64(b);
        }
        GraphUpdate::RemoveVertex { v } => {
            w.u8(UPD_REMOVE_VERTEX);
            w.u32(v);
        }
        GraphUpdate::SetCapacity { v, b } => {
            w.u8(UPD_SET_CAPACITY);
            w.u32(v);
            w.u64(b);
        }
        GraphUpdate::ExpireWindow { lo, hi } => {
            w.u8(UPD_EXPIRE_WINDOW);
            w.u64(lo as u64);
            w.u64(hi as u64);
        }
    }
}

/// Decodes one [`GraphUpdate`].
pub fn decode_update(r: &mut ByteReader<'_>) -> Result<GraphUpdate, String> {
    match r.u8("update tag")? {
        UPD_INSERT => Ok(GraphUpdate::InsertEdge {
            u: r.u32("insert u")?,
            v: r.u32("insert v")?,
            w: r.f64("insert weight")?,
        }),
        UPD_DELETE => Ok(GraphUpdate::DeleteEdge { id: r.u64("delete id")? as usize }),
        UPD_REWEIGHT => Ok(GraphUpdate::ReweightEdge {
            id: r.u64("reweight id")? as usize,
            w: r.f64("reweight weight")?,
        }),
        UPD_ADD_VERTEX => Ok(GraphUpdate::AddVertex { b: r.u64("add-vertex capacity")? }),
        UPD_REMOVE_VERTEX => Ok(GraphUpdate::RemoveVertex { v: r.u32("remove vertex")? }),
        UPD_SET_CAPACITY => Ok(GraphUpdate::SetCapacity {
            v: r.u32("set-capacity vertex")?,
            b: r.u64("set-capacity value")?,
        }),
        UPD_EXPIRE_WINDOW => Ok(GraphUpdate::ExpireWindow {
            lo: r.u64("expire-window lo")? as usize,
            hi: r.u64("expire-window hi")? as usize,
        }),
        tag => Err(format!("unknown update tag {tag}")),
    }
}

/// Encodes a batch of updates with a count prefix.
pub fn encode_updates(w: &mut ByteWriter, updates: &[GraphUpdate]) -> Result<(), PersistError> {
    w.u32(u32_len(updates.len(), "update batch")?);
    for u in updates {
        encode_update(w, u);
    }
    Ok(())
}

/// Decodes a count-prefixed batch of updates.
pub fn decode_updates(r: &mut ByteReader<'_>) -> Result<Vec<GraphUpdate>, String> {
    let n = checked_count(u64::from(r.u32("update count")?), "update")?;
    let mut out = Vec::with_capacity(n);
    for _ in 0..n {
        out.push(decode_update(r)?);
    }
    Ok(out)
}

// ---- dynamic config ------------------------------------------------------

/// Encodes a [`DynamicConfig`].
pub fn encode_config(w: &mut ByteWriter, c: &DynamicConfig) {
    w.f64(c.eps);
    w.f64(c.p);
    w.u64(c.seed);
}

/// Decodes a [`DynamicConfig`] (semantic validation is the importer's job).
pub fn decode_config(r: &mut ByteReader<'_>) -> Result<DynamicConfig, String> {
    Ok(DynamicConfig {
        eps: r.f64("config eps")?,
        p: r.f64("config p")?,
        seed: r.u64("config seed")?,
    })
}

// ---- epoch ledger --------------------------------------------------------

fn encode_decision(w: &mut ByteWriter, d: EpochDecision) {
    w.u8(match d {
        EpochDecision::Repair => 1,
        EpochDecision::WarmResolve => 2,
        EpochDecision::Rebuild => 3,
    });
}

fn decode_decision(r: &mut ByteReader<'_>) -> Result<EpochDecision, String> {
    match r.u8("epoch decision")? {
        1 => Ok(EpochDecision::Repair),
        2 => Ok(EpochDecision::WarmResolve),
        3 => Ok(EpochDecision::Rebuild),
        tag => Err(format!("unknown epoch decision {tag}")),
    }
}

/// Encodes one [`EpochStats`] ledger row.
pub fn encode_stats(w: &mut ByteWriter, s: &EpochStats) {
    w.u64(s.epoch as u64);
    w.u64(s.version);
    w.u64(s.updates_applied as u64);
    w.u64(s.updates_rejected as u64);
    w.u64(s.inserts as u64);
    w.u64(s.deletes as u64);
    w.u64(s.reweights as u64);
    w.u64(s.vertex_ops as u64);
    w.u64(s.capacity_ops as u64);
    w.u64(s.touched_vertices as u64);
    w.f64(s.damage_ratio);
    encode_decision(w, s.decision);
    w.u64(s.epoch_rounds as u64);
    w.u64(s.solver_rounds as u64);
    w.u64(s.streamed_items as u64);
    w.f64(s.weight);
    w.u64(s.matching_edges as u64);
    w.u64(s.journal_bytes as u64);
}

/// Decodes one [`EpochStats`] ledger row.
pub fn decode_stats(r: &mut ByteReader<'_>) -> Result<EpochStats, String> {
    Ok(EpochStats {
        epoch: r.u64("stats epoch")? as usize,
        version: r.u64("stats version")?,
        updates_applied: r.u64("stats applied")? as usize,
        updates_rejected: r.u64("stats rejected")? as usize,
        inserts: r.u64("stats inserts")? as usize,
        deletes: r.u64("stats deletes")? as usize,
        reweights: r.u64("stats reweights")? as usize,
        vertex_ops: r.u64("stats vertex ops")? as usize,
        capacity_ops: r.u64("stats capacity ops")? as usize,
        touched_vertices: r.u64("stats touched")? as usize,
        damage_ratio: r.f64("stats damage ratio")?,
        decision: decode_decision(r)?,
        epoch_rounds: r.u64("stats epoch rounds")? as usize,
        solver_rounds: r.u64("stats solver rounds")? as usize,
        streamed_items: r.u64("stats streamed")? as usize,
        weight: r.f64("stats weight")?,
        matching_edges: r.u64("stats matching edges")? as usize,
        journal_bytes: r.u64("stats journal bytes")? as usize,
    })
}

// ---- graphs --------------------------------------------------------------

/// Encodes a [`Graph`] as capacities + edges (bit-exact weights).
pub fn encode_graph(w: &mut ByteWriter, g: &Graph) -> Result<(), PersistError> {
    w.u32(u32_len(g.num_vertices(), "graph vertices")?);
    for v in 0..g.num_vertices() {
        w.u64(g.b(v as u32));
    }
    w.u32(u32_len(g.num_edges(), "graph edges")?);
    for e in g.edges() {
        w.u32(e.u);
        w.u32(e.v);
        w.f64(e.w);
    }
    Ok(())
}

/// Decodes a [`Graph`] written by [`encode_graph`].
pub fn decode_graph(r: &mut ByteReader<'_>) -> Result<Graph, String> {
    let n = checked_count(u64::from(r.u32("vertex count")?), "vertex")?;
    let mut caps = Vec::with_capacity(n);
    for _ in 0..n {
        caps.push(r.u64("vertex capacity")?);
    }
    let mut g = Graph::with_capacities(caps);
    let m = checked_count(u64::from(r.u32("edge count")?), "edge")?;
    for _ in 0..m {
        let u = r.u32("edge u")?;
        let v = r.u32("edge v")?;
        let wt = r.f64("edge weight")?;
        if u as usize >= n || v as usize >= n {
            return Err(format!("edge ({u},{v}) outside {n} vertices"));
        }
        if u == v {
            return Err(format!("self-loop at vertex {u}"));
        }
        if !wt.is_finite() || wt <= 0.0 {
            return Err(format!("edge ({u},{v}) has invalid weight {wt}"));
        }
        g.add_edge(u, v, wt);
    }
    Ok(g)
}

// ---- full session state --------------------------------------------------

fn encode_overlay(w: &mut ByteWriter, o: &OverlayState) -> Result<(), PersistError> {
    w.u64(o.next_id as u64);
    w.u32(u32_len(o.edges.len(), "overlay edges")?);
    for &(id, e) in &o.edges {
        w.u64(id as u64);
        w.u32(e.u);
        w.u32(e.v);
        w.f64(e.w);
    }
    w.u32(u32_len(o.capacities.len(), "overlay capacities")?);
    for &b in &o.capacities {
        w.u64(b);
    }
    for &d in &o.removed {
        w.bool(d);
    }
    w.u64(o.version);
    w.u64(o.applied);
    Ok(())
}

fn decode_overlay(r: &mut ByteReader<'_>) -> Result<OverlayState, String> {
    let next_id = r.u64("overlay next id")? as usize;
    let m = checked_count(u64::from(r.u32("overlay edge count")?), "overlay edge")?;
    let mut edges = Vec::with_capacity(m);
    for _ in 0..m {
        let id = r.u64("overlay edge id")? as usize;
        // Constructed literally: the image must round-trip any bit pattern
        // the overlay accepted (the importer re-validates invariants).
        let e = Edge {
            u: r.u32("overlay edge u")?,
            v: r.u32("overlay edge v")?,
            w: r.f64("overlay edge weight")?,
        };
        edges.push((id, e));
    }
    let n = checked_count(u64::from(r.u32("overlay vertex count")?), "overlay vertex")?;
    let mut capacities = Vec::with_capacity(n);
    for _ in 0..n {
        capacities.push(r.u64("overlay capacity")?);
    }
    let mut removed = Vec::with_capacity(n);
    for _ in 0..n {
        removed.push(r.bool("overlay removed bit")?);
    }
    Ok(OverlayState {
        next_id,
        edges,
        capacities,
        removed,
        version: r.u64("overlay version")?,
        applied: r.u64("overlay applied")?,
    })
}

/// Encodes a complete [`SessionState`].
pub fn encode_session_state(w: &mut ByteWriter, s: &SessionState) -> Result<(), PersistError> {
    encode_config(w, &s.config);
    encode_overlay(w, &s.overlay)?;
    w.u32(u32_len(s.matching.len(), "matching entries")?);
    for &(id, e, mult) in &s.matching {
        w.u64(id as u64);
        w.u32(e.u);
        w.u32(e.v);
        w.f64(e.w);
        w.u64(mult);
    }
    w.u64(s.epoch);
    w.u32(u32_len(s.ledger.len(), "ledger rows")?);
    for row in &s.ledger {
        encode_stats(w, row);
    }
    let t = &s.tracker;
    w.u64(t.rounds);
    w.u64(t.current_central_space);
    w.u64(t.peak_central_space);
    w.u64(t.shuffle_volume);
    w.u64(t.items_streamed);
    Ok(())
}

/// Decodes a complete [`SessionState`]. Structural errors only — semantic
/// validation (overlay invariants, matching liveness, config ranges) happens
/// in `DynamicMatcher::import_state`.
pub fn decode_session_state(r: &mut ByteReader<'_>) -> Result<SessionState, String> {
    let config = decode_config(r)?;
    let overlay = decode_overlay(r)?;
    let mn = checked_count(u64::from(r.u32("matching entry count")?), "matching entry")?;
    let mut matching = Vec::with_capacity(mn);
    for _ in 0..mn {
        let id = r.u64("matching id")? as usize;
        let e = Edge {
            u: r.u32("matching edge u")?,
            v: r.u32("matching edge v")?,
            w: r.f64("matching edge weight")?,
        };
        let mult = r.u64("matching multiplicity")?;
        matching.push((id, e, mult));
    }
    let epoch = r.u64("session epoch")?;
    let ln = checked_count(u64::from(r.u32("ledger row count")?), "ledger row")?;
    let mut ledger = Vec::with_capacity(ln);
    for _ in 0..ln {
        ledger.push(decode_stats(r)?);
    }
    let tracker = TrackerCounters {
        rounds: r.u64("tracker rounds")?,
        current_central_space: r.u64("tracker current central")?,
        peak_central_space: r.u64("tracker peak central")?,
        shuffle_volume: r.u64("tracker shuffle")?,
        items_streamed: r.u64("tracker streamed")?,
    };
    Ok(SessionState { config, overlay, matching, epoch, ledger, tracker })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn updates_round_trip_every_variant() {
        let updates = vec![
            GraphUpdate::InsertEdge { u: 1, v: 2, w: 0.1 + 0.2 },
            GraphUpdate::DeleteEdge { id: 7 },
            GraphUpdate::ReweightEdge { id: 3, w: 5.5 },
            GraphUpdate::AddVertex { b: 4 },
            GraphUpdate::RemoveVertex { v: 9 },
            GraphUpdate::SetCapacity { v: 0, b: 2 },
            GraphUpdate::ExpireWindow { lo: 3, hi: 11 },
        ];
        let mut w = ByteWriter::new();
        encode_updates(&mut w, &updates).unwrap();
        let bytes = w.into_bytes();
        let mut r = ByteReader::new(&bytes);
        let back = decode_updates(&mut r).unwrap();
        r.finish("updates").unwrap();
        assert_eq!(back, updates);
    }

    #[test]
    fn graphs_round_trip_and_reject_malformed() {
        let mut g = Graph::with_capacities(vec![1, 2, 1]);
        g.add_edge(0, 1, 1.25);
        g.add_edge(1, 2, 3.5);
        let mut w = ByteWriter::new();
        encode_graph(&mut w, &g).unwrap();
        let bytes = w.into_bytes();
        let back = decode_graph(&mut ByteReader::new(&bytes)).unwrap();
        assert_eq!(back.num_vertices(), 3);
        assert_eq!(back.num_edges(), 2);
        assert_eq!(back.total_weight().to_bits(), g.total_weight().to_bits());
        assert_eq!(back.b(1), 2);

        // Edge endpoint outside the vertex count must be rejected.
        let mut w = ByteWriter::new();
        w.u32(2);
        w.u64(1);
        w.u64(1);
        w.u32(1);
        w.u32(0);
        w.u32(5);
        w.f64(1.0);
        assert!(decode_graph(&mut ByteReader::new(&w.into_bytes())).is_err());
    }

    #[test]
    fn truncation_is_an_error_not_a_panic() {
        let mut w = ByteWriter::new();
        encode_update(&mut w, &GraphUpdate::InsertEdge { u: 0, v: 1, w: 1.0 });
        let bytes = w.into_bytes();
        for cut in 0..bytes.len() {
            let mut r = ByteReader::new(&bytes[..cut]);
            assert!(decode_update(&mut r).is_err(), "cut at {cut} must error");
        }
    }

    #[test]
    fn u32_len_accepts_u32_range_and_rejects_overflow() {
        assert_eq!(u32_len(0, "x").unwrap(), 0);
        assert_eq!(u32_len(u32::MAX as usize, "x").unwrap(), u32::MAX);
        let err = u32_len(u32::MAX as usize + 1, "widget list").unwrap_err();
        match err {
            PersistError::Corrupt { context } => {
                assert!(context.contains("widget list"), "context names the field: {context}");
                assert!(context.contains("u32"), "context names the prefix: {context}");
            }
            other => panic!("expected Corrupt, got {other:?}"),
        }
    }

    #[test]
    fn insane_counts_fail_fast() {
        let mut w = ByteWriter::new();
        w.u32(u32::MAX);
        assert!(decode_updates(&mut ByteReader::new(&w.into_bytes()))
            .unwrap_err()
            .contains("sanity cap"));
    }
}
