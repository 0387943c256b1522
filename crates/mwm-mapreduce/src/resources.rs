//! The resource ledger: rounds, central space, shuffle volume, streamed
//! items — and the model's central-space budget.

use std::fmt;

/// The central-space budget `4·n^{1+1/p}` (in items) of the paper's model
/// for an `n`-vertex input: the sampling phases (the solver's initial
/// solution, Lattanzi-style filtering) size their per-round samples by it.
pub fn central_space_budget(n: usize, p: f64) -> f64 {
    4.0 * (n.max(2) as f64).powf(1.0 + 1.0 / p)
}

/// Tracks every resource the paper's model charges for.
#[derive(Clone, Debug, Default)]
pub struct ResourceTracker {
    rounds: usize,
    /// Current central (between-round) space in items (edges / sketch cells / words).
    current_central_space: usize,
    /// Peak central space seen so far.
    peak_central_space: usize,
    /// Total number of key-value pairs shuffled across all rounds.
    shuffle_volume: usize,
    /// Total input items streamed (for streaming passes).
    items_streamed: usize,
}

/// A plain-data snapshot of a [`ResourceTracker`], public field by field, so
/// a persistence layer can serialize the ledger without this crate knowing
/// about any on-disk format.
#[derive(Clone, Copy, Debug, Default, PartialEq, Eq)]
pub struct TrackerCounters {
    /// Rounds charged.
    pub rounds: u64,
    /// Central space currently held, in items.
    pub current_central_space: u64,
    /// Peak central space, in items.
    pub peak_central_space: u64,
    /// Total key-value pairs shuffled.
    pub shuffle_volume: u64,
    /// Total streamed input items.
    pub items_streamed: u64,
}

impl ResourceTracker {
    /// Creates an empty tracker.
    pub fn new() -> Self {
        Self::default()
    }

    /// Snapshots every counter for persistence.
    pub fn counters(&self) -> TrackerCounters {
        TrackerCounters {
            rounds: self.rounds as u64,
            current_central_space: self.current_central_space as u64,
            peak_central_space: self.peak_central_space as u64,
            shuffle_volume: self.shuffle_volume as u64,
            items_streamed: self.items_streamed as u64,
        }
    }

    /// Rebuilds a tracker from snapshotted counters. The peak is clamped to
    /// at least the current space, so a hand-edited snapshot can never create
    /// the impossible state `peak < current`.
    pub fn from_counters(c: TrackerCounters) -> Self {
        ResourceTracker {
            rounds: c.rounds as usize,
            current_central_space: c.current_central_space as usize,
            peak_central_space: c.peak_central_space.max(c.current_central_space) as usize,
            shuffle_volume: c.shuffle_volume as usize,
            items_streamed: c.items_streamed as usize,
        }
    }

    /// Charges one round of data access (MapReduce round / streaming pass /
    /// round of adaptive sketching).
    pub fn charge_round(&mut self) {
        self.rounds += 1;
    }

    /// Adds `items` to the central space held between rounds.
    pub fn allocate_central(&mut self, items: usize) {
        self.current_central_space += items;
        self.peak_central_space = self.peak_central_space.max(self.current_central_space);
    }

    /// Releases `items` of central space.
    pub fn release_central(&mut self, items: usize) {
        self.current_central_space = self.current_central_space.saturating_sub(items);
    }

    /// Charges `pairs` key-value pairs of shuffle traffic.
    pub fn charge_shuffle(&mut self, pairs: usize) {
        self.shuffle_volume += pairs;
    }

    /// Charges `items` of streamed input (one per edge per pass, typically).
    pub fn charge_stream(&mut self, items: usize) {
        self.items_streamed += items;
    }

    /// Charges one sampling round: the round itself, the `streamed` edges the
    /// mappers read, and a sample of `sampled` edges shuffled to the centre,
    /// held there while the round runs and released before the next one.
    pub fn charge_sample_round(&mut self, streamed: usize, sampled: usize) {
        self.charge_round();
        self.charge_stream(streamed);
        self.charge_shuffle(sampled);
        self.allocate_central(sampled);
        self.release_central(sampled);
    }

    /// Number of rounds charged so far.
    pub fn rounds(&self) -> usize {
        self.rounds
    }

    /// Current central space.
    pub fn current_central_space(&self) -> usize {
        self.current_central_space
    }

    /// Peak central space.
    pub fn peak_central_space(&self) -> usize {
        self.peak_central_space
    }

    /// Total shuffle volume.
    pub fn shuffle_volume(&self) -> usize {
        self.shuffle_volume
    }

    /// Total streamed items.
    pub fn items_streamed(&self) -> usize {
        self.items_streamed
    }

    /// Merges another tracker (e.g. a sub-phase) into this one. Rounds and
    /// volumes add; peaks take the maximum; current space adds.
    pub fn merge(&mut self, other: &ResourceTracker) {
        self.rounds += other.rounds;
        self.current_central_space += other.current_central_space;
        self.peak_central_space =
            self.peak_central_space.max(self.current_central_space).max(other.peak_central_space);
        self.shuffle_volume += other.shuffle_volume;
        self.items_streamed += other.items_streamed;
    }

    /// Checks the paper's central-space budget `C · n^{1+1/p} · (log B + 1)`
    /// (Theorem 15); returns whether the peak stayed within it.
    pub fn within_space_budget(&self, n: usize, p: f64, log_b: f64, constant: f64) -> bool {
        let budget = constant * (n as f64).powf(1.0 + 1.0 / p) * (log_b + 1.0);
        (self.peak_central_space as f64) <= budget
    }
}

impl fmt::Display for ResourceTracker {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "rounds={} peak_central={} shuffle={} streamed={}",
            self.rounds, self.peak_central_space, self.shuffle_volume, self.items_streamed
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn peaks_track_allocations() {
        let mut t = ResourceTracker::new();
        t.allocate_central(100);
        t.allocate_central(50);
        t.release_central(120);
        t.allocate_central(10);
        assert_eq!(t.peak_central_space(), 150);
        assert_eq!(t.current_central_space(), 40);
    }

    #[test]
    fn rounds_and_volumes_accumulate() {
        let mut t = ResourceTracker::new();
        t.charge_round();
        t.charge_round();
        t.charge_shuffle(500);
        t.charge_stream(1000);
        assert_eq!(t.rounds(), 2);
        assert_eq!(t.shuffle_volume(), 500);
        assert_eq!(t.items_streamed(), 1000);
    }

    #[test]
    fn sampling_charges_one_round_and_space() {
        let mut t = ResourceTracker::new();
        t.allocate_central(30);
        t.charge_sample_round(400, 90);
        assert_eq!(t.rounds(), 1);
        assert_eq!(t.items_streamed(), 400);
        assert_eq!(t.shuffle_volume(), 90);
        assert_eq!(t.peak_central_space(), 120, "the sample is held on top of the resident items");
        assert_eq!(t.current_central_space(), 30, "and released before the next round");
    }

    #[test]
    fn merge_adds_rounds_and_maxes_peaks() {
        let mut a = ResourceTracker::new();
        a.charge_round();
        a.allocate_central(10);
        let mut b = ResourceTracker::new();
        b.charge_round();
        b.allocate_central(100);
        b.release_central(100);
        a.merge(&b);
        assert_eq!(a.rounds(), 2);
        assert_eq!(a.peak_central_space(), 100);
    }

    #[test]
    fn central_space_budget_is_four_n_to_the_one_plus_one_over_p() {
        assert!((central_space_budget(100, 2.0) - 4000.0).abs() < 1e-9);
        assert_eq!(central_space_budget(0, 2.0), central_space_budget(2, 2.0));
    }

    #[test]
    fn space_budget_check() {
        let mut t = ResourceTracker::new();
        t.allocate_central(1000);
        // n=100, p=2 → n^{1.5} = 1000; with constant 2 and log_b 0 the budget is 2000.
        assert!(t.within_space_budget(100, 2.0, 0.0, 2.0));
        t.allocate_central(10_000);
        assert!(!t.within_space_budget(100, 2.0, 0.0, 2.0));
    }

    #[test]
    fn counters_round_trip_and_clamp_peak() {
        let mut t = ResourceTracker::new();
        t.charge_round();
        t.allocate_central(70);
        t.release_central(20);
        t.charge_shuffle(33);
        t.charge_stream(400);
        let c = t.counters();
        let back = ResourceTracker::from_counters(c);
        assert_eq!(back.counters(), c, "snapshot → restore → snapshot is the identity");
        assert_eq!(back.rounds(), 1);
        assert_eq!(back.peak_central_space(), 70);
        assert_eq!(back.current_central_space(), 50);

        let bogus = TrackerCounters { current_central_space: 10, peak_central_space: 3, ..c };
        assert_eq!(ResourceTracker::from_counters(bogus).peak_central_space(), 10);
    }

    #[test]
    fn display_is_informative() {
        let mut t = ResourceTracker::new();
        t.charge_round();
        let s = format!("{t}");
        assert!(s.contains("rounds=1"));
    }
}
