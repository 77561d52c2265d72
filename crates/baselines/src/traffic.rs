//! Rekey traffic accounting in the paper's units.

use mykil_tree::RekeyPlan;
use std::ops::{Add, AddAssign};

/// Bytes and messages generated by one rekey operation.
///
/// `*_bytes` counts *key material* bytes (16 per encrypted key), the
/// unit plotted in Figures 8–10; transport framing is excluded, exactly
/// as in the paper's arithmetic.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct RekeyTraffic {
    /// Bytes of encrypted key material multicast to the group/area.
    pub multicast_bytes: u64,
    /// Multicast messages sent.
    pub multicast_messages: u64,
    /// Bytes of encrypted key material unicast to individuals.
    pub unicast_bytes: u64,
    /// Unicast messages sent.
    pub unicast_messages: u64,
}

impl From<&RekeyPlan> for RekeyTraffic {
    /// The traffic of carrying out `plan`: its key changes go out as
    /// one multicast message (none when nothing changed), and each
    /// unicast delivery is one message.
    fn from(plan: &RekeyPlan) -> RekeyTraffic {
        RekeyTraffic {
            multicast_bytes: plan.multicast_bytes() as u64,
            multicast_messages: u64::from(!plan.changes.is_empty()),
            unicast_bytes: plan.unicast_bytes() as u64,
            unicast_messages: plan.unicasts.len() as u64,
        }
    }
}

impl RekeyTraffic {
    /// Total key bytes on the wire (the y-axis of Figure 8).
    pub fn total_key_bytes(&self) -> u64 {
        self.multicast_bytes + self.unicast_bytes
    }

    /// Total messages.
    pub fn total_messages(&self) -> u64 {
        self.multicast_messages + self.unicast_messages
    }
}

impl Add for RekeyTraffic {
    type Output = RekeyTraffic;

    fn add(self, other: RekeyTraffic) -> RekeyTraffic {
        RekeyTraffic {
            multicast_bytes: self.multicast_bytes + other.multicast_bytes,
            multicast_messages: self.multicast_messages + other.multicast_messages,
            unicast_bytes: self.unicast_bytes + other.unicast_bytes,
            unicast_messages: self.unicast_messages + other.unicast_messages,
        }
    }
}

impl AddAssign for RekeyTraffic {
    fn add_assign(&mut self, other: RekeyTraffic) {
        *self = *self + other;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn totals_and_addition() {
        let a = RekeyTraffic {
            multicast_bytes: 100,
            multicast_messages: 1,
            unicast_bytes: 32,
            unicast_messages: 2,
        };
        let b = RekeyTraffic {
            multicast_bytes: 10,
            multicast_messages: 1,
            unicast_bytes: 0,
            unicast_messages: 0,
        };
        let c = a + b;
        assert_eq!(c.total_key_bytes(), 142);
        assert_eq!(c.total_messages(), 4);
        let mut d = RekeyTraffic::default();
        d += a;
        d += b;
        assert_eq!(d, c);
    }
}
