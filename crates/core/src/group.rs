//! Process groups: ordered sets of global ranks.

use std::sync::Arc;

/// An ordered set of global (world) ranks — the membership of a communicator.
///
/// Local rank *r* in the group corresponds to global rank `ranks[r]`.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Group {
    ranks: Arc<Vec<usize>>,
}

impl Group {
    /// A group over `0..n` (the world group).
    pub fn world(n: usize) -> Self {
        Group {
            ranks: Arc::new((0..n).collect()),
        }
    }

    /// A group from an explicit rank list. Ranks must be unique.
    pub fn from_ranks(ranks: Vec<usize>) -> Self {
        debug_assert!(
            {
                let mut r = ranks.clone();
                r.sort_unstable();
                r.windows(2).all(|w| w[0] != w[1])
            },
            "duplicate ranks in group"
        );
        Group {
            ranks: Arc::new(ranks),
        }
    }

    /// A group whose ranks may share an owner process: rank *r* lives on
    /// world process `owners[r]` (an endpoints communicator).
    pub fn from_owners(owners: Vec<usize>) -> Self {
        Group {
            ranks: Arc::new(owners),
        }
    }

    /// Number of members.
    pub fn size(&self) -> usize {
        self.ranks.len()
    }

    /// Global rank of local rank `r`.
    pub fn global(&self, r: usize) -> usize {
        self.ranks[r]
    }

    /// Local rank of global rank `g`, if a member.
    pub fn local(&self, g: usize) -> Option<usize> {
        self.ranks.iter().position(|&x| x == g)
    }

    /// Whether global rank `g` is a member.
    pub fn contains(&self, g: usize) -> bool {
        self.local(g).is_some()
    }

    /// All global ranks, in group order.
    pub fn ranks(&self) -> &[usize] {
        &self.ranks
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn world_group_is_identity() {
        let g = Group::world(4);
        assert_eq!(g.size(), 4);
        for r in 0..4 {
            assert_eq!(g.global(r), r);
            assert_eq!(g.local(r), Some(r));
        }
    }

    #[test]
    fn subgroup_translates_ranks() {
        let g = Group::from_ranks(vec![5, 2, 9]);
        assert_eq!(g.size(), 3);
        assert_eq!(g.global(0), 5);
        assert_eq!(g.global(2), 9);
        assert_eq!(g.local(2), Some(1));
        assert_eq!(g.local(7), None);
        assert!(g.contains(9));
        assert!(!g.contains(0));
    }
}
