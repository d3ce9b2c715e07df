//! Vector timestamps: the happens-before machinery of LRC.
//!
//! Every node's intervals are numbered; a vector timestamp maps each node to
//! the highest of its intervals known (paper Section 2.1). Lock grants and
//! barrier releases carry vector timestamps so that write notices can be
//! selected, and — in the home-based protocols — so that page fetches can be
//! version-checked against the home's per-writer flush state (Section 2.4.2).

use std::cmp::Ordering;
use std::fmt;

use svm_machine::NodeId;

/// A vector timestamp over `P` nodes.
#[derive(Clone, PartialEq, Eq, Hash)]
pub struct VectorTime(Vec<u32>);

impl VectorTime {
    /// The zero timestamp for `nodes` nodes.
    pub fn zero(nodes: usize) -> Self {
        VectorTime(vec![0; nodes])
    }

    /// Number of components.
    pub fn len(&self) -> usize {
        self.0.len()
    }

    /// Whether the vector has zero components (never for a real machine).
    pub fn is_empty(&self) -> bool {
        self.0.is_empty()
    }

    /// The component for `node`.
    pub fn get(&self, node: NodeId) -> u32 {
        self.0[node.index()]
    }

    /// Set the component for `node`.
    pub fn set(&mut self, node: NodeId, v: u32) {
        self.0[node.index()] = v;
    }

    /// Increment `node`'s component and return the new value.
    pub fn bump(&mut self, node: NodeId) -> u32 {
        self.0[node.index()] += 1;
        self.0[node.index()]
    }

    /// Componentwise maximum with `other` (learning its knowledge).
    pub fn merge(&mut self, other: &VectorTime) {
        debug_assert_eq!(self.0.len(), other.0.len());
        for (a, b) in self.0.iter_mut().zip(other.0.iter()) {
            *a = (*a).max(*b);
        }
    }

    /// Whether this timestamp knows `writer`'s interval `interval`. For the
    /// timestamp of a *different* interval this is happens-before in one
    /// load: interval `(w, i)` ends with `vt[w] = i`, and a vector only
    /// changes by bumping its own component or by [`Self::merge`], so
    /// learning `(w, i)` drags in everything `(w, i)` knew —
    /// `b.covers(w, i)` iff `(w, i)`'s timestamp is `Less` than `b` under
    /// [`Self::causal_cmp`], the specification this shortcut is asserted
    /// against.
    pub fn covers(&self, writer: NodeId, interval: u32) -> bool {
        self.get(writer) >= interval
    }

    /// `self >= other` componentwise: everything `other` knows, `self`
    /// knows.
    pub fn dominates(&self, other: &VectorTime) -> bool {
        debug_assert_eq!(self.0.len(), other.0.len());
        self.0.iter().zip(other.0.iter()).all(|(a, b)| a >= b)
    }

    /// Causal comparison: `Less` iff `self` happened strictly before
    /// `other`, `None` for concurrent timestamps.
    pub fn causal_cmp(&self, other: &VectorTime) -> Option<Ordering> {
        let le = other.dominates(self);
        let ge = self.dominates(other);
        match (le, ge) {
            (true, true) => Some(Ordering::Equal),
            (true, false) => Some(Ordering::Less),
            (false, true) => Some(Ordering::Greater),
            (false, false) => None,
        }
    }

    /// Wire/heap footprint: the full-vector-timestamp cost that makes
    /// homeless write notices expensive (paper Section 4.6).
    pub fn bytes(&self) -> usize {
        4 * self.0.len()
    }

    /// Iterate `(node, component)` pairs.
    pub fn iter(&self) -> impl Iterator<Item = (NodeId, u32)> + '_ {
        self.0
            .iter()
            .enumerate()
            .map(|(i, &v)| (NodeId(i as u16), v))
    }
}

impl fmt::Debug for VectorTime {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "vt{:?}", self.0)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn vt(v: &[u32]) -> VectorTime {
        VectorTime(v.to_vec())
    }

    #[test]
    fn bump_and_get() {
        let mut t = VectorTime::zero(3);
        assert_eq!(t.bump(NodeId(1)), 1);
        assert_eq!(t.bump(NodeId(1)), 2);
        assert_eq!(t.get(NodeId(1)), 2);
        assert_eq!(t.get(NodeId(0)), 0);
    }

    #[test]
    fn merge_takes_componentwise_max() {
        let mut a = vt(&[1, 5, 2]);
        a.merge(&vt(&[3, 1, 2]));
        assert_eq!(a, vt(&[3, 5, 2]));
    }

    #[test]
    fn dominance_and_causality() {
        let a = vt(&[1, 2, 3]);
        let b = vt(&[2, 2, 3]);
        let c = vt(&[0, 3, 3]);
        assert!(b.dominates(&a));
        assert!(!a.dominates(&b));
        assert_eq!(a.causal_cmp(&b), Some(Ordering::Less));
        assert_eq!(b.causal_cmp(&a), Some(Ordering::Greater));
        assert_eq!(a.causal_cmp(&a), Some(Ordering::Equal));
        assert_eq!(b.causal_cmp(&c), None, "concurrent");
    }

    #[test]
    fn covers_is_precedence_in_one_component() {
        // (w0, i1) ends at [1,0,0]; w1 learns it and ends (w1, i1) at
        // [1,1,0]; w2 saw neither and ends (w2, i1) at [0,0,1].
        let (a, b, c) = (vt(&[1, 0, 0]), vt(&[1, 1, 0]), vt(&[0, 0, 1]));
        assert!(b.covers(NodeId(0), 1) && a.causal_cmp(&b) == Some(Ordering::Less));
        assert!(!a.covers(NodeId(1), 1), "not the other way round");
        assert!(!c.covers(NodeId(0), 1) && !a.covers(NodeId(2), 1));
        assert_eq!(a.causal_cmp(&c), None, "concurrent: neither covers");
    }

    #[test]
    fn wire_bytes_grow_with_nodes() {
        assert_eq!(VectorTime::zero(8).bytes(), 32);
        assert_eq!(VectorTime::zero(64).bytes(), 256);
    }
}
