//! Union-find with path compression and union by rank.

/// A classic disjoint-set forest over `u32` node ids.
///
/// `find` uses iterative path halving; `union` is by rank. Amortized cost is
/// effectively constant, which is what gives Steensgaard's analysis its
/// almost-linear bound.
#[derive(Debug, Clone, Default)]
pub struct UnionFind {
    parent: Vec<u32>,
    rank: Vec<u8>,
}

impl UnionFind {
    /// An empty forest.
    pub fn new() -> UnionFind {
        UnionFind::default()
    }

    /// Adds a fresh singleton node and returns its id.
    pub fn push(&mut self) -> u32 {
        let id = self.parent.len() as u32;
        self.parent.push(id);
        self.rank.push(0);
        id
    }

    /// Number of nodes ever created.
    pub fn len(&self) -> usize {
        self.parent.len()
    }

    /// Whether the forest is empty.
    pub fn is_empty(&self) -> bool {
        self.parent.is_empty()
    }

    /// The representative of `x`'s class.
    pub fn find(&mut self, mut x: u32) -> u32 {
        loop {
            let p = self.parent[x as usize];
            if p == x {
                return x;
            }
            let gp = self.parent[p as usize];
            self.parent[x as usize] = gp; // path halving
            x = gp;
        }
    }

    /// Merges the classes of `a` and `b`; returns the surviving
    /// representative.
    pub fn union(&mut self, a: u32, b: u32) -> u32 {
        let ra = self.find(a);
        let rb = self.find(b);
        if ra == rb {
            return ra;
        }
        let (hi, lo) = if self.rank[ra as usize] >= self.rank[rb as usize] {
            (ra, rb)
        } else {
            (rb, ra)
        };
        self.parent[lo as usize] = hi;
        if self.rank[hi as usize] == self.rank[lo as usize] {
            self.rank[hi as usize] += 1;
        }
        hi
    }

    /// Whether `a` and `b` are in the same class.
    pub fn same(&mut self, a: u32, b: u32) -> bool {
        self.find(a) == self.find(b)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn singletons_are_distinct() {
        let mut uf = UnionFind::new();
        let a = uf.push();
        let b = uf.push();
        assert!(!uf.same(a, b));
        assert_eq!(uf.len(), 2);
    }

    #[test]
    fn union_links_classes_transitively() {
        let mut uf = UnionFind::new();
        let ids: Vec<u32> = (0..6).map(|_| uf.push()).collect();
        uf.union(ids[0], ids[1]);
        uf.union(ids[2], ids[3]);
        assert!(!uf.same(ids[0], ids[2]));
        uf.union(ids[1], ids[3]);
        assert!(uf.same(ids[0], ids[2]));
        assert!(!uf.same(ids[0], ids[4]));
    }

    #[cfg(test)]
    mod props {
        use super::*;
        use proptest::prelude::*;

        proptest! {
            /// union is an equivalence closure: after arbitrary unions,
            /// same() is reflexive/symmetric/transitive and agrees with a
            /// naive labelling.
            #[test]
            fn matches_naive_model(ops in proptest::collection::vec((0u32..32, 0u32..32), 0..64)) {
                let mut uf = UnionFind::new();
                for _ in 0..32 { uf.push(); }
                // naive model: label vector, relabel on union
                let mut label: Vec<u32> = (0..32).collect();
                for &(a, b) in &ops {
                    uf.union(a, b);
                    let (la, lb) = (label[a as usize], label[b as usize]);
                    if la != lb {
                        for l in label.iter_mut() {
                            if *l == lb { *l = la; }
                        }
                    }
                }
                for i in 0..32u32 {
                    for j in 0..32u32 {
                        prop_assert_eq!(
                            uf.same(i, j),
                            label[i as usize] == label[j as usize]
                        );
                    }
                }
            }
        }
    }
}
