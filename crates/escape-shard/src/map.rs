//! The shard map: which consensus group owns which slice of the keyspace.
//!
//! Keys hash (FNV-1a) onto the full `u64` line, which is partitioned into
//! contiguous ranges — one per group. The map is **versioned**: today the
//! partition is a static uniform split chosen at deployment, but every
//! derived map (see [`ShardMap::split`]) bumps the version, so routers and
//! redirects can already tell a stale map from a current one when dynamic
//! splits arrive.

use escape_core::hash::fnv1a;
use escape_core::rand::{Rng64, SplitMix64};
use escape_core::types::GroupId;

/// One SplitMix64 step as a finalizer: FNV-1a's high bits are weakly
/// mixed for short keys, and range ownership is decided by the *top* of
/// the hash line, so the raw hash must pass a full-width avalanche first
/// or sequential key families pile onto a few groups. Routing
/// determinism depends on this mixing never changing.
fn spread(h: u64) -> u64 {
    SplitMix64::new(h).next_u64()
}

/// A versioned partition of the hashed keyspace into consensus groups.
///
/// Each entry of `ranges` is `(start, owner)`: the owner of the
/// half-open hash range from `start` to the next entry's start, with the
/// last range running to the top of the `u64` line (inclusive). Ranges
/// carry their owner explicitly (rather than by position) so that a
/// future [`split`](ShardMap::split) can hand a slice to a brand-new
/// group **without renumbering any existing group** — keys that routed
/// to group `g` before a split of some *other* group still route to `g`.
///
/// # Examples
///
/// ```
/// use escape_shard::ShardMap;
///
/// let map = ShardMap::uniform(4);
/// assert_eq!(map.len(), 4);
/// let owner = map.owner(b"account-17");
/// // The owner is stable: routing the same key again gives the same group.
/// assert_eq!(map.owner(b"account-17"), owner);
/// ```
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct ShardMap {
    version: u64,
    /// `(range start, owning group)`, ascending by start;
    /// `ranges[0].0 == 0`. Group ids are dense `0..len` but not
    /// necessarily in range order once a split has happened.
    ranges: Vec<(u64, GroupId)>,
}

impl ShardMap {
    /// A uniform split of the hash line into `n` equal ranges, version 1.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero (a keyspace nobody owns cannot be routed).
    pub fn uniform(n: usize) -> Self {
        assert!(n > 0, "a shard map needs at least one group");
        let span = (u64::MAX as u128 + 1) / n as u128;
        ShardMap {
            version: 1,
            ranges: (0..n as u128)
                .map(|i| ((i * span) as u64, GroupId::from_index(i as usize)))
                .collect(),
        }
    }

    /// The map version; any future repartition produces a larger one.
    pub fn version(&self) -> u64 {
        self.version
    }

    /// Number of groups.
    pub fn len(&self) -> usize {
        self.ranges.len()
    }

    /// `true` only for an impossible empty map (kept for API symmetry).
    pub fn is_empty(&self) -> bool {
        self.ranges.is_empty()
    }

    /// Every group id in the map, ascending by id. Ids are dense
    /// `0..len` regardless of split history.
    pub fn groups(&self) -> impl Iterator<Item = GroupId> + '_ {
        (0..self.ranges.len()).map(GroupId::from_index)
    }

    /// The raw `(range start, owning group)` table, ascending by start —
    /// the map's wire form (`escape_wire::WireShardMap` carries exactly
    /// this plus the version).
    pub fn ranges(&self) -> &[(u64, GroupId)] {
        &self.ranges
    }

    /// Reconstructs a map received off the wire, validating the shape
    /// every routing method assumes: a nonzero version, a non-empty table
    /// whose first range starts at 0 with strictly ascending starts, and
    /// owning groups dense `0..len` (each exactly once). Returns `None`
    /// for anything else — a corrupt or adversarial map must not become
    /// a router.
    pub fn from_wire(version: u64, ranges: Vec<(u64, GroupId)>) -> Option<ShardMap> {
        if version == 0 || ranges.first().map(|(start, _)| *start) != Some(0) {
            return None;
        }
        if !ranges.windows(2).all(|w| matches!(w, [a, b] if a.0 < b.0)) {
            return None;
        }
        let mut seen = vec![false; ranges.len()];
        for (_, group) in &ranges {
            let slot = seen.get_mut(group.index())?;
            if *slot {
                return None;
            }
            *slot = true;
        }
        Some(ShardMap { version, ranges })
    }

    /// The group owning `hash` on the `u64` line.
    pub fn owner_of_hash(&self, hash: u64) -> GroupId {
        // partition_point: first range starting strictly above `hash`;
        // its predecessor's range contains `hash`.
        let idx = self.ranges.partition_point(|(start, _)| *start <= hash) - 1;
        // lint:allow(panic): the first range starts at 0 (`uniform`, `split`, `from_wire` all keep it), so 1 <= partition_point <= len
        self.ranges[idx].1
    }

    /// The group owning `key` (FNV-1a plus a SplitMix64 finalizer onto
    /// the hash line).
    pub fn owner(&self, key: &[u8]) -> GroupId {
        self.owner_of_hash(spread(fnv1a(key)))
    }

    /// The half-open hash range `[start, end)` group `group` owns
    /// (`end == None` means "through `u64::MAX` inclusive"), or `None`
    /// for a group not in the map.
    pub fn range(&self, group: GroupId) -> Option<(u64, Option<u64>)> {
        let idx = self.ranges.iter().position(|(_, g)| *g == group)?;
        let (start, _) = *self.ranges.get(idx)?;
        Some((start, self.ranges.get(idx + 1).map(|(s, _)| *s)))
    }

    /// A new map in which `group`'s range is halved, the upper half going
    /// to a brand-new group (id = current [`len`](ShardMap::len)) — the
    /// future-split shape the versioning exists for. Every existing
    /// group keeps both its id and its remaining range. Returns `None`
    /// if `group` is unknown or its range is too narrow to split.
    pub fn split(&self, group: GroupId) -> Option<ShardMap> {
        let idx = self.ranges.iter().position(|(_, g)| *g == group)?;
        let (start, _) = *self.ranges.get(idx)?;
        let end = self
            .ranges
            .get(idx + 1)
            .map_or(u64::MAX as u128 + 1, |(s, _)| u128::from(*s));
        let mid = ((u128::from(start) + end) / 2) as u64;
        if mid == start {
            return None; // one-point range: nothing left to split
        }
        let mut ranges = self.ranges.clone();
        ranges.insert(idx + 1, (mid, GroupId::from_index(self.ranges.len())));
        Some(ShardMap {
            version: self.version + 1,
            ranges,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn uniform_map_covers_the_whole_line() {
        let map = ShardMap::uniform(4);
        assert_eq!(map.owner_of_hash(0), GroupId::new(0));
        assert_eq!(map.owner_of_hash(u64::MAX), GroupId::new(3));
        // Boundaries land in the upper group (half-open ranges).
        let (start_g1, _) = map.range(GroupId::new(1)).unwrap();
        assert_eq!(map.owner_of_hash(start_g1), GroupId::new(1));
        assert_eq!(map.owner_of_hash(start_g1 - 1), GroupId::new(0));
    }

    #[test]
    fn single_group_owns_everything() {
        let map = ShardMap::uniform(1);
        for h in [0, 1, u64::MAX / 2, u64::MAX] {
            assert_eq!(map.owner_of_hash(h), GroupId::ZERO);
        }
    }

    #[test]
    fn keys_spread_over_every_group() {
        let map = ShardMap::uniform(8);
        let mut counts = [0usize; 8];
        for i in 0..4000 {
            let key = format!("user-{i}");
            counts[map.owner(key.as_bytes()).index()] += 1;
        }
        for (g, count) in counts.iter().enumerate() {
            assert!(
                *count > 4000 / 8 / 4,
                "group {g} got only {count} of 4000 keys — hash badly skewed"
            );
        }
    }

    #[test]
    fn routing_is_deterministic() {
        let a = ShardMap::uniform(16);
        let b = ShardMap::uniform(16);
        for i in 0..500 {
            let key = format!("k{i}");
            assert_eq!(a.owner(key.as_bytes()), b.owner(key.as_bytes()));
        }
    }

    #[test]
    fn split_bumps_version_and_partitions_the_range() {
        let map = ShardMap::uniform(2);
        let split = map.split(GroupId::new(1)).expect("wide range splits");
        assert_eq!(split.version(), map.version() + 1);
        assert_eq!(split.len(), 3);
        let (start, end) = map.range(GroupId::new(1)).unwrap();
        assert_eq!(end, None);
        let mid = (u128::from(start) + (u64::MAX as u128 + 1)) / 2;
        // Below the midpoint stays with the old group; above moves to the
        // brand-new group (id = previous len).
        assert_eq!(split.owner_of_hash(start), GroupId::new(1));
        assert_eq!(split.owner_of_hash(mid as u64), GroupId::new(2));
        // Hashes outside the split range keep their owner.
        assert_eq!(split.owner_of_hash(0), map.owner_of_hash(0));
    }

    /// Splitting a non-last group must not renumber the groups after it:
    /// every pre-existing group keeps its id and its (remaining) range.
    #[test]
    fn splitting_a_middle_group_leaves_other_groups_ranges_alone() {
        let map = ShardMap::uniform(4);
        let split = map.split(GroupId::new(0)).expect("splits");
        assert_eq!(split.len(), 5);
        // Groups 1..=3 keep their exact ranges.
        for g in 1..=3u32 {
            assert_eq!(
                split.range(GroupId::new(g)),
                map.range(GroupId::new(g)),
                "group {g} must be untouched by a split of group 0"
            );
        }
        // The upper half of group 0's old range belongs to the new group 4.
        let (start0, end0) = map.range(GroupId::new(0)).unwrap();
        let mid = (u128::from(start0) + u128::from(end0.unwrap())) / 2;
        assert_eq!(split.owner_of_hash(start0), GroupId::new(0));
        assert_eq!(split.owner_of_hash(mid as u64), GroupId::new(4));
        // Exhaustive agreement everywhere outside the split range.
        for probe in [end0.unwrap(), u64::MAX / 2, u64::MAX] {
            assert_eq!(split.owner_of_hash(probe), map.owner_of_hash(probe));
        }
    }

    #[test]
    fn split_of_unknown_group_is_none() {
        assert!(ShardMap::uniform(2).split(GroupId::new(9)).is_none());
    }

    #[test]
    #[should_panic(expected = "at least one group")]
    fn zero_groups_rejected() {
        let _ = ShardMap::uniform(0);
    }

    #[test]
    fn wire_round_trip_preserves_routing() {
        let map = ShardMap::uniform(4).split(GroupId::new(2)).expect("splits");
        let rebuilt = ShardMap::from_wire(map.version(), map.ranges().to_vec())
            .expect("a map's own wire form must validate");
        assert_eq!(rebuilt, map);
        for i in 0..200 {
            let key = format!("wire-{i}");
            assert_eq!(rebuilt.owner(key.as_bytes()), map.owner(key.as_bytes()));
        }
    }

    #[test]
    fn from_wire_rejects_malformed_tables() {
        let g = GroupId::new;
        // Empty, zero version, not starting at 0, unsorted, duplicate
        // group, non-dense ids.
        assert!(ShardMap::from_wire(1, vec![]).is_none());
        assert!(ShardMap::from_wire(0, vec![(0, g(0))]).is_none());
        assert!(ShardMap::from_wire(1, vec![(5, g(0))]).is_none());
        assert!(ShardMap::from_wire(1, vec![(0, g(0)), (9, g(1)), (4, g(2))]).is_none());
        assert!(ShardMap::from_wire(1, vec![(0, g(0)), (9, g(0))]).is_none());
        assert!(ShardMap::from_wire(1, vec![(0, g(0)), (9, g(5))]).is_none());
    }

    #[test]
    fn groups_iterates_in_order() {
        let map = ShardMap::uniform(3);
        let ids: Vec<u32> = map.groups().map(|g| g.get()).collect();
        assert_eq!(ids, vec![0, 1, 2]);
        assert!(!map.is_empty());
    }
}
