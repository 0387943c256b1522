//! Union-find (disjoint set union) with path compression and union by rank.
//!
//! Used by the streaming sparsifier (Algorithm 6 of the paper maintains `k`
//! union-find structures per subsampling level) and by connectivity queries
//! in `mwm-graph`.

/// Disjoint-set union structure over `0..n`.
#[derive(Clone, Debug)]
pub struct UnionFind {
    parent: Vec<usize>,
    rank: Vec<u8>,
    components: usize,
}

impl UnionFind {
    /// Creates `n` singleton sets.
    pub fn new(n: usize) -> Self {
        UnionFind { parent: (0..n).collect(), rank: vec![0; n], components: n }
    }

    /// Number of elements.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// True if the structure is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// Number of disjoint sets.
    pub fn num_components(&self) -> usize {
        self.components
    }

    /// Representative of the set containing `x` (with path compression).
    pub fn find(&mut self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        // Path compression.
        let mut cur = x;
        while self.parent[cur] != root {
            let next = self.parent[cur];
            self.parent[cur] = root;
            cur = next;
        }
        root
    }

    /// Representative without mutation (no compression); useful behind shared refs.
    pub fn find_immutable(&self, x: usize) -> usize {
        let mut root = x;
        while self.parent[root] != root {
            root = self.parent[root];
        }
        root
    }

    /// Merges the sets of `a` and `b`; returns `true` if they were distinct.
    pub fn union(&mut self, a: usize, b: usize) -> bool {
        let (ra, rb) = (self.find(a), self.find(b));
        if ra == rb {
            return false;
        }
        let (hi, lo) = if self.rank[ra] >= self.rank[rb] { (ra, rb) } else { (rb, ra) };
        self.parent[lo] = hi;
        if self.rank[hi] == self.rank[lo] {
            self.rank[hi] += 1;
        }
        self.components -= 1;
        true
    }

    /// True if `a` and `b` are in the same set.
    pub fn connected(&mut self, a: usize, b: usize) -> bool {
        self.find(a) == self.find(b)
    }

    /// Returns `(labels, count)` where `labels[x]` is a dense component id in `0..count`.
    pub fn component_labels(&self) -> (Vec<usize>, usize) {
        let n = self.parent.len();
        let mut labels = vec![usize::MAX; n];
        let mut next = 0usize;
        let mut out = vec![0usize; n];
        for (x, slot) in out.iter_mut().enumerate() {
            let root = self.find_immutable(x);
            if labels[root] == usize::MAX {
                labels[root] = next;
                next += 1;
            }
            *slot = labels[root];
        }
        (out, next)
    }

    /// Groups elements by component; each group is non-empty.
    pub fn groups(&self) -> Vec<Vec<usize>> {
        let (labels, count) = self.component_labels();
        let mut groups = vec![Vec::new(); count];
        for (x, &l) in labels.iter().enumerate() {
            groups[l].push(x);
        }
        groups
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singleton_start() {
        let mut uf = UnionFind::new(4);
        assert_eq!(uf.num_components(), 4);
        assert!(!uf.connected(0, 1));
        assert_eq!(uf.len(), 4);
        assert!(!uf.is_empty());
    }

    #[test]
    fn union_and_find() {
        let mut uf = UnionFind::new(6);
        assert!(uf.union(0, 1));
        assert!(uf.union(2, 3));
        assert!(!uf.union(1, 0));
        assert!(uf.union(1, 2));
        assert!(uf.connected(0, 3));
        assert!(!uf.connected(0, 4));
        assert_eq!(uf.num_components(), 3);
    }

    #[test]
    fn labels_are_dense() {
        let mut uf = UnionFind::new(5);
        uf.union(0, 4);
        uf.union(1, 2);
        let (labels, count) = uf.component_labels();
        assert_eq!(count, 3);
        assert_eq!(labels[0], labels[4]);
        assert_eq!(labels[1], labels[2]);
        assert!(labels.iter().all(|&l| l < count));
    }

    #[test]
    fn groups_partition_elements() {
        let mut uf = UnionFind::new(7);
        uf.union(0, 1);
        uf.union(1, 2);
        uf.union(5, 6);
        let groups = uf.groups();
        let total: usize = groups.iter().map(|g| g.len()).sum();
        assert_eq!(total, 7);
        assert!(groups.iter().any(|g| g.len() == 3));
        assert!(groups.iter().any(|g| g.len() == 2));
    }

    #[test]
    fn immutable_find_matches() {
        let mut uf = UnionFind::new(8);
        uf.union(3, 5);
        uf.union(5, 7);
        let r = uf.find(3);
        assert_eq!(uf.find_immutable(7), r);
    }
}
