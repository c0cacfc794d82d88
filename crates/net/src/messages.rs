//! Message taxonomy and hop accounting (Table 1 of the paper).

use std::fmt;

/// Every protocol message kind the two schemes send.
///
/// Each enum variant corresponds to a message named in the paper;
/// counting *transmissions* (hops) of these is exactly what Table 1
/// reports for FLOOR.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum MsgKind {
    /// §4.1 connectivity flood ("you are connected").
    ConnectFlood,
    /// §3.3 lazy-movement loop probe.
    PathParentInquiry,
    /// §4.2 subtree locking request.
    LockTree,
    /// §4.2 subtree unlock / lock rejection.
    UnlockTree,
    /// §4.2 motion coordination with neighbors (position/period probes).
    MotionProbe,
    /// §5.3 arrival report to the base station.
    Report,
    /// §5.3 base-station response carrying the ancestor list.
    AncestorList,
    /// §5.3 serialized movable/fixed classification token.
    ClassifyToken,
    /// §5.4 point-coverage query routed to floor headers.
    CoverageQuery,
    /// §5.4 floor-header response.
    CoverageReply,
    /// §5.5.2 random-walk invitation carrying an expansion point.
    Invitation,
    /// §5.5.2 movable sensor's acceptance.
    AcceptInvitation,
    /// §5.5.2 inviter acknowledgment (exactly one per EP).
    Acknowledge,
    /// §5.5.2 inviter rejection (EP already taken).
    Reject,
    /// §5.4/§5.5.2 location updates toward the root (virtual nodes,
    /// floor-header bookkeeping).
    LocationUpdate,
}

impl MsgKind {
    /// All message kinds, for iteration/reporting.
    pub const ALL: [MsgKind; 15] = [
        MsgKind::ConnectFlood,
        MsgKind::PathParentInquiry,
        MsgKind::LockTree,
        MsgKind::UnlockTree,
        MsgKind::MotionProbe,
        MsgKind::Report,
        MsgKind::AncestorList,
        MsgKind::ClassifyToken,
        MsgKind::CoverageQuery,
        MsgKind::CoverageReply,
        MsgKind::Invitation,
        MsgKind::AcceptInvitation,
        MsgKind::Acknowledge,
        MsgKind::Reject,
        MsgKind::LocationUpdate,
    ];

    fn index(self) -> usize {
        MsgKind::ALL
            .iter()
            .position(|&k| k == self)
            .expect("listed")
    }
}

impl fmt::Display for MsgKind {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let name = match self {
            MsgKind::ConnectFlood => "ConnectFlood",
            MsgKind::PathParentInquiry => "PathParentInquiry",
            MsgKind::LockTree => "LockTree",
            MsgKind::UnlockTree => "UnlockTree",
            MsgKind::MotionProbe => "MotionProbe",
            MsgKind::Report => "Report",
            MsgKind::AncestorList => "AncestorList",
            MsgKind::ClassifyToken => "ClassifyToken",
            MsgKind::CoverageQuery => "CoverageQuery",
            MsgKind::CoverageReply => "CoverageReply",
            MsgKind::Invitation => "Invitation",
            MsgKind::AcceptInvitation => "AcceptInvitation",
            MsgKind::Acknowledge => "Acknowledge",
            MsgKind::Reject => "Reject",
            MsgKind::LocationUpdate => "LocationUpdate",
        };
        f.write_str(name)
    }
}

/// Counts message transmissions (hops) by kind.
///
/// # Examples
///
/// ```
/// use msn_net::{MessageCounter, MsgKind};
///
/// let mut mc = MessageCounter::new();
/// mc.record(MsgKind::Invitation, 40); // one invitation walking 40 hops
/// mc.record(MsgKind::Acknowledge, 3); // ack routed over 3 hops
/// assert_eq!(mc.total(), 43);
/// assert_eq!(mc.count(MsgKind::Invitation), 40);
/// ```
#[derive(Debug, Clone, Default, PartialEq, Eq)]
pub struct MessageCounter {
    counts: [u64; MsgKind::ALL.len()],
}

impl MessageCounter {
    /// A counter with all kinds at zero.
    pub fn new() -> Self {
        MessageCounter::default()
    }

    /// Records `hops` transmissions of `kind`.
    #[inline]
    pub fn record(&mut self, kind: MsgKind, hops: u64) {
        self.counts[kind.index()] += hops;
    }

    /// Transmissions recorded for `kind`.
    #[inline]
    pub fn count(&self, kind: MsgKind) -> u64 {
        self.counts[kind.index()]
    }

    /// Total transmissions over all kinds.
    pub fn total(&self) -> u64 {
        self.counts.iter().sum()
    }

    /// Merges another counter into this one.
    pub fn merge(&mut self, other: &MessageCounter) {
        for (a, b) in self.counts.iter_mut().zip(&other.counts) {
            *a += b;
        }
    }

    /// Iterates over `(kind, count)` pairs with non-zero counts.
    pub fn iter(&self) -> impl Iterator<Item = (MsgKind, u64)> + '_ {
        MsgKind::ALL
            .iter()
            .map(|&k| (k, self.count(k)))
            .filter(|&(_, c)| c > 0)
    }
}

impl fmt::Display for MessageCounter {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "messages: total {}", self.total())?;
        for (k, c) in self.iter() {
            write!(f, ", {k}={c}")?;
        }
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn record_and_total() {
        let mut mc = MessageCounter::new();
        mc.record(MsgKind::ConnectFlood, 100);
        mc.record(MsgKind::Invitation, 50);
        mc.record(MsgKind::Invitation, 25);
        assert_eq!(mc.count(MsgKind::Invitation), 75);
        assert_eq!(mc.count(MsgKind::ConnectFlood), 100);
        assert_eq!(mc.count(MsgKind::Reject), 0);
        assert_eq!(mc.total(), 175);
    }

    #[test]
    fn merge_counters() {
        let mut a = MessageCounter::new();
        a.record(MsgKind::Report, 5);
        let mut b = MessageCounter::new();
        b.record(MsgKind::Report, 3);
        b.record(MsgKind::CoverageQuery, 7);
        a.merge(&b);
        assert_eq!(a.count(MsgKind::Report), 8);
        assert_eq!(a.count(MsgKind::CoverageQuery), 7);
    }

    #[test]
    fn iter_skips_zeros() {
        let mut mc = MessageCounter::new();
        mc.record(MsgKind::LockTree, 2);
        let pairs: Vec<_> = mc.iter().collect();
        assert_eq!(pairs, vec![(MsgKind::LockTree, 2)]);
    }

    #[test]
    fn all_kinds_have_distinct_indices() {
        use std::collections::HashSet;
        let set: HashSet<usize> = MsgKind::ALL.iter().map(|k| k.index()).collect();
        assert_eq!(set.len(), MsgKind::ALL.len());
    }

    #[test]
    fn display_formats() {
        let mut mc = MessageCounter::new();
        mc.record(MsgKind::Invitation, 4);
        let s = format!("{mc}");
        assert!(s.contains("total 4"));
        assert!(s.contains("Invitation=4"));
    }
}
