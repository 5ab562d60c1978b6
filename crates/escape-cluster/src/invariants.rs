//! Runtime safety checking.
//!
//! The paper's §V argues ESCAPE preserves Raft's safety properties
//! (Theorems 1–3). [`SafetyChecker`] turns those arguments into executable
//! checks that run *during* simulation, so any violation pinpoints the
//! first event that caused it:
//!
//! * **Election Safety** — at most one leader per term.
//! * **Commit Safety / State-Machine Safety** — once any node commits an
//!   entry at an index, every later commit of that index carries the same
//!   `(term, payload)`.
//! * **Log Matching** (on demand) — any two logs agree on every index where
//!   their terms agree, and committed prefixes are identical.
//! * **Configuration uniqueness** (Theorem 3, on demand) — no two *live*
//!   servers hold the same priority at the same configuration clock.

use std::collections::BTreeMap;

use escape_core::engine::Node;
use escape_core::log::Payload;
use escape_core::types::{LogIndex, ServerId, Term};

/// A detected safety violation.
#[derive(Clone, Debug, PartialEq, Eq)]
pub enum Violation {
    /// Two leaders claimed the same term.
    TwoLeadersOneTerm {
        /// The contested term.
        term: Term,
        /// First claimant.
        first: ServerId,
        /// Second claimant.
        second: ServerId,
    },
    /// An index was committed with two different entries.
    CommittedEntryChanged {
        /// The index in question.
        index: LogIndex,
        /// Term recorded first.
        first_term: Term,
        /// Conflicting term.
        second_term: Term,
    },
    /// Two logs disagree beneath their common committed prefix.
    CommittedPrefixDiverged {
        /// First node.
        a: ServerId,
        /// Second node.
        b: ServerId,
        /// First divergent index.
        index: LogIndex,
    },
    /// Theorem 3 violated: same priority, same clock, two live holders.
    DuplicateConfiguration {
        /// First holder.
        a: ServerId,
        /// Second holder.
        b: ServerId,
    },
}

impl std::fmt::Display for Violation {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            Violation::TwoLeadersOneTerm { term, first, second } => {
                write!(f, "two leaders in {term}: {first} and {second}")
            }
            Violation::CommittedEntryChanged {
                index,
                first_term,
                second_term,
            } => write!(
                f,
                "committed entry at {index} changed term: {first_term} → {second_term}"
            ),
            Violation::CommittedPrefixDiverged { a, b, index } => {
                write!(f, "committed prefixes of {a} and {b} diverge at {index}")
            }
            Violation::DuplicateConfiguration { a, b } => {
                write!(f, "{a} and {b} hold the same prioritized configuration")
            }
        }
    }
}

/// Fingerprint of a committed entry: enough to detect divergence without
/// retaining payloads.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
struct EntryMark {
    term: Term,
    payload_hash: u64,
}

fn hash_payload(payload: &Payload) -> u64 {
    let bytes: &[u8] = match payload {
        Payload::Noop => b"\x00noop",
        Payload::Command(c) => c.as_ref(),
    };
    escape_core::hash::fnv1a(bytes)
}

/// Accumulates observations and flags the first violation of each kind.
#[derive(Clone, Debug)]
pub struct SafetyChecker {
    cluster_size: usize,
    leaders_by_term: BTreeMap<Term, ServerId>,
    committed: BTreeMap<LogIndex, EntryMark>,
    violations: Vec<Violation>,
}

impl SafetyChecker {
    /// A checker for a cluster of `n` servers.
    pub fn new(n: usize) -> Self {
        SafetyChecker {
            cluster_size: n,
            leaders_by_term: BTreeMap::new(),
            committed: BTreeMap::new(),
            violations: Vec::new(),
        }
    }

    /// All violations found so far (empty = safe).
    pub fn violations(&self) -> &[Violation] {
        &self.violations
    }

    /// `true` if no violation has been observed.
    pub fn is_safe(&self) -> bool {
        self.violations.is_empty()
    }

    /// The highest index observed committed so far (zero before any
    /// commit).
    pub fn highest_committed(&self) -> LogIndex {
        self.committed
            .last_key_value()
            .map_or(LogIndex::ZERO, |(index, _)| *index)
    }

    /// Records a leadership claim (Election Safety).
    pub fn observe_leader(&mut self, node: ServerId, term: Term) {
        match self.leaders_by_term.get(&term) {
            Some(prev) if *prev != node => self.violations.push(Violation::TwoLeadersOneTerm {
                term,
                first: *prev,
                second: node,
            }),
            _ => {
                self.leaders_by_term.insert(term, node);
            }
        }
    }

    /// Records a commit advance on `node` up to `index` (Commit Safety).
    pub fn observe_commit(&mut self, node: &Node, index: LogIndex) {
        // Walk down from `index` registering marks; stop at already-known
        // prefix for O(new entries) cost.
        let mut i = index;
        while i > LogIndex::ZERO {
            let entry = match node.log().entry(i) {
                Some(e) => e,
                None => break,
            };
            let mark = EntryMark {
                term: entry.term,
                payload_hash: hash_payload(&entry.payload),
            };
            match self.committed.get(&i) {
                Some(prev) if *prev != mark => {
                    self.violations.push(Violation::CommittedEntryChanged {
                        index: i,
                        first_term: prev.term,
                        second_term: mark.term,
                    });
                    break;
                }
                Some(_) => break, // known-good prefix below
                None => {
                    self.committed.insert(i, mark);
                }
            }
            i = i.prev();
        }
    }

    /// Full-cluster structural check: Log Matching on committed prefixes and
    /// Theorem 3 configuration uniqueness among live nodes. Quadratic in
    /// cluster size — run at checkpoints, not per event, for big sims.
    pub fn check_cluster(&mut self, nodes: &[Node], alive: &[bool]) {
        debug_assert_eq!(nodes.len(), self.cluster_size);
        // Committed-prefix agreement. By the Log Matching property, a
        // single agreeing index implies the whole prefix agrees, so
        // comparing the common committed tail entry is sufficient here
        // (the exhaustive variant is `check_full_prefixes`).
        for (ia, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(ia + 1) {
                let common = a.commit_index().min(b.commit_index());
                if common == LogIndex::ZERO {
                    continue;
                }
                if let (Some(ea), Some(eb)) = (a.log().entry(common), b.log().entry(common)) {
                    if ea.term != eb.term || ea.payload != eb.payload {
                        self.violations.push(Violation::CommittedPrefixDiverged {
                            a: a.id(),
                            b: b.id(),
                            index: common,
                        });
                    }
                }
            }
        }
        // Theorem 3: configuration uniqueness among live servers.
        let mut seen: BTreeMap<(u64, u64), ServerId> = BTreeMap::new();
        for node in nodes {
            if !alive[node.id().index()] {
                continue;
            }
            if let Some(config) = node.current_config() {
                let key = (config.priority.get(), config.conf_clock.get());
                if let Some(prev) = seen.insert(key, node.id()) {
                    self.violations.push(Violation::DuplicateConfiguration {
                        a: prev,
                        b: node.id(),
                    });
                }
            }
        }
    }

    /// Exhaustive committed-prefix comparison between every pair of nodes
    /// (every index, not just the tail). For end-of-test verification.
    pub fn check_full_prefixes(&mut self, nodes: &[Node]) {
        for (ia, a) in nodes.iter().enumerate() {
            for b in nodes.iter().skip(ia + 1) {
                let common = a.commit_index().min(b.commit_index());
                let mut i = LogIndex::ZERO.next();
                while i <= common {
                    let (ea, eb) = match (a.log().entry(i), b.log().entry(i)) {
                        (Some(x), Some(y)) => (x, y),
                        _ => break,
                    };
                    if ea.term != eb.term || ea.payload != eb.payload {
                        self.violations.push(Violation::CommittedPrefixDiverged {
                            a: a.id(),
                            b: b.id(),
                            index: i,
                        });
                        break;
                    }
                    i = i.next();
                }
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn election_safety_flags_second_leader() {
        let mut c = SafetyChecker::new(3);
        c.observe_leader(ServerId::new(1), Term::new(5));
        assert!(c.is_safe());
        // Same node re-claiming is fine (idempotent observation).
        c.observe_leader(ServerId::new(1), Term::new(5));
        assert!(c.is_safe());
        c.observe_leader(ServerId::new(2), Term::new(5));
        assert!(!c.is_safe());
        assert!(matches!(
            c.violations()[0],
            Violation::TwoLeadersOneTerm { .. }
        ));
    }

    #[test]
    fn different_terms_different_leaders_is_fine() {
        let mut c = SafetyChecker::new(3);
        c.observe_leader(ServerId::new(1), Term::new(1));
        c.observe_leader(ServerId::new(2), Term::new(2));
        c.observe_leader(ServerId::new(1), Term::new(7));
        assert!(c.is_safe());
    }

    #[test]
    fn violation_display_is_informative() {
        let v = Violation::TwoLeadersOneTerm {
            term: Term::new(3),
            first: ServerId::new(1),
            second: ServerId::new(2),
        };
        assert_eq!(v.to_string(), "two leaders in t(3): S1 and S2");
        let v = Violation::DuplicateConfiguration {
            a: ServerId::new(4),
            b: ServerId::new(5),
        };
        assert!(v.to_string().contains("S4"));
    }

    #[test]
    fn payload_hash_distinguishes_contents() {
        use bytes::Bytes;
        let a = hash_payload(&Payload::Command(Bytes::from_static(b"a")));
        let b = hash_payload(&Payload::Command(Bytes::from_static(b"b")));
        let noop = hash_payload(&Payload::Noop);
        assert_ne!(a, b);
        assert_ne!(a, noop);
        assert_eq!(
            hash_payload(&Payload::Command(Bytes::from_static(b"a"))),
            a,
            "hash must be deterministic"
        );
    }
}
