//! Portable export/import format for dual solutions.
//!
//! The dual-primal solver's dual point (the `x_i(k)` / `z_{U,ℓ}` variables of
//! the penalty relaxation) lives in the solver's `DualState`: one flat
//! `n × levels` array for `x` and per-level odd-set lists. A
//! [`DualSnapshot`] is the *wire format* of that point: plain sorted vectors
//! of the nonzero entries, independent of the solver's in-memory
//! representation, so a snapshot exported from one solve can seed the next —
//! the warm-start path of the dynamic matching subsystem.
//!
//! Level indices are not portable across graphs (the discretization
//! `ŵ_k = (1+ε)^k` depends on the maximum weight), so the snapshot records the
//! **level weight** of every entry alongside the index. Importers re-resolve
//! each entry against the *current* graph's levels by weight and drop entries
//! whose level no longer exists — import is best-effort by design: a warm
//! start only has to be a valid dual point, the solve loop restores quality.

/// One exported vertex dual: `x_v(k)` at the level whose **original-scale**
/// weight was `level_weight` when the snapshot was taken.
#[derive(Clone, Copy, Debug, PartialEq)]
pub struct VertexDual {
    /// Vertex id (the graph's `u32` vertex ids).
    pub vertex: u32,
    /// Level index at export time.
    pub level: usize,
    /// The level's weight in the **original** (unrescaled) scale,
    /// `ŵ_k / scale` — the portable key importers re-resolve by.
    pub level_weight: f64,
    /// The value `x_v(k)` (rescaled weight space, see `DualSnapshot::scale`).
    pub value: f64,
}

/// One exported odd-set dual: `z_{U,ℓ}` with its members and level weight.
#[derive(Clone, Debug, PartialEq)]
pub struct OddSetDual {
    /// Level index at export time.
    pub level: usize,
    /// The level's weight in the original scale (the portable key).
    pub level_weight: f64,
    /// Member vertices, sorted ascending.
    pub members: Vec<u32>,
    /// The value `z_{U,ℓ}`.
    pub value: f64,
}

/// A deterministic, representation-independent snapshot of a dual point.
///
/// Entries are sorted (vertex duals by `(vertex, level)`, odd sets by
/// `(level, members)`), so two exports of the same dual point are equal and
/// every import walks them in the same order — a prerequisite for the
/// bit-identical-across-parallelism guarantee of the warm-start path.
#[derive(Clone, Debug, Default, PartialEq)]
pub struct DualSnapshot {
    /// Accuracy parameter ε the exporting solve ran with.
    pub eps: f64,
    /// The exporting graph's rescale factor `B / W*`. Dual values live in the
    /// rescaled weight space; an importer whose graph rescales differently
    /// multiplies every value by `new_scale / scale` to keep coverage
    /// commensurate with the new requirements.
    pub scale: f64,
    /// Number of weight levels at export time.
    pub num_levels: usize,
    /// Vertex duals, sorted by `(vertex, level)`.
    pub vertex_duals: Vec<VertexDual>,
    /// Odd-set duals, sorted by `(level, members)`.
    pub odd_sets: Vec<OddSetDual>,
}

impl DualSnapshot {
    /// An empty snapshot (no dual mass).
    pub fn empty(eps: f64, num_levels: usize) -> Self {
        DualSnapshot { eps, scale: 1.0, num_levels, vertex_duals: Vec::new(), odd_sets: Vec::new() }
    }

    /// True if the snapshot carries no dual mass.
    pub fn is_empty(&self) -> bool {
        self.vertex_duals.is_empty() && self.odd_sets.is_empty()
    }

    /// Number of stored entries (vertex duals + odd sets).
    pub fn num_entries(&self) -> usize {
        self.vertex_duals.len() + self.odd_sets.len()
    }

    /// Restores the sort invariant after manual edits (no-op when already
    /// sorted). Exporters produced by this workspace always emit sorted
    /// snapshots; call this after building one by hand.
    pub fn normalize(&mut self) {
        self.vertex_duals.sort_by_key(|vd| (vd.vertex, vd.level));
        self.odd_sets.sort_by(|a, b| (a.level, &a.members).cmp(&(b.level, &b.members)));
    }

    /// A 64-bit fingerprint of the snapshot, folding every field through its
    /// exact bit pattern (floats via `to_bits`). Two snapshots fingerprint
    /// equal iff they are bit-identical — the persistence layer uses this as
    /// the "revived duals match the always-resident duals" witness.
    pub fn fingerprint(&self) -> u64 {
        const K: u64 = 0x9E37_79B9_7F4A_7C15;
        let mut h: u64 = 0xcbf2_9ce4_8422_2325;
        let mut fold = |x: u64| {
            h = (h.rotate_left(7) ^ x).wrapping_mul(K);
        };
        fold(self.eps.to_bits());
        fold(self.scale.to_bits());
        fold(self.num_levels as u64);
        fold(self.vertex_duals.len() as u64);
        for vd in &self.vertex_duals {
            fold(u64::from(vd.vertex));
            fold(vd.level as u64);
            fold(vd.level_weight.to_bits());
            fold(vd.value.to_bits());
        }
        fold(self.odd_sets.len() as u64);
        for os in &self.odd_sets {
            fold(os.level as u64);
            fold(os.level_weight.to_bits());
            fold(os.members.len() as u64);
            for &m in &os.members {
                fold(u64::from(m));
            }
            fold(os.value.to_bits());
        }
        h
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn snapshot() -> DualSnapshot {
        DualSnapshot {
            eps: 0.2,
            scale: 1.0,
            num_levels: 3,
            vertex_duals: vec![
                VertexDual { vertex: 0, level: 1, level_weight: 1.2, value: 2.0 },
                VertexDual { vertex: 3, level: 0, level_weight: 1.0, value: 1.0 },
            ],
            odd_sets: vec![OddSetDual {
                level: 0,
                level_weight: 1.0,
                members: vec![1, 2, 3],
                value: 0.5,
            }],
        }
    }

    #[test]
    fn fingerprint_separates_bitwise_differences() {
        let s = snapshot();
        assert_eq!(s.fingerprint(), snapshot().fingerprint(), "deterministic");
        let mut t = snapshot();
        t.vertex_duals[0].value = f64::from_bits(2.0f64.to_bits() + 1);
        assert_ne!(s.fingerprint(), t.fingerprint(), "one ULP must change the fingerprint");
        let mut u = snapshot();
        u.odd_sets[0].members.pop();
        assert_ne!(s.fingerprint(), u.fingerprint());
        assert_ne!(
            DualSnapshot::empty(0.1, 2).fingerprint(),
            DualSnapshot::empty(0.1, 3).fingerprint()
        );
    }

    #[test]
    fn normalize_sorts_both_tables() {
        let mut s = snapshot();
        s.vertex_duals.swap(0, 1);
        s.normalize();
        assert_eq!(s.vertex_duals[0].vertex, 0);
        assert!(!s.is_empty());
        assert!(DualSnapshot::empty(0.1, 2).is_empty());
    }
}
