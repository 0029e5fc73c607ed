//! Typed lanes: per-connection channels with distinct reliability, ordering and framing.
//!
//! A connection is not one undifferentiated byte stream: real protocols multiplex traffic with
//! different delivery requirements over one peer relationship (bulk data that must arrive,
//! control messages that must arrive but whose relative order is irrelevant, telemetry that is
//! better dropped than queued). The transport models this as **lanes** — every message sent on
//! a connection names the lane it travels on, and the lane determines
//!
//! * the **framing overhead** charged on the wire (an ordered lane pays for sequence *and*
//!   cumulative-ack bookkeeping, an unordered reliable lane only for the retransmit id, an
//!   unreliable lane for a bare length/port header), and
//! * the **retransmit policy** applied when a pipe drops the frame (exponential backoff for the
//!   ordered lane, where a gap stalls delivery anyway; a flat quick retry for the unordered
//!   reliable lane; nothing for the unreliable lane).
//!
//! The emulated data plane itself walks every frame over the same FIFO pipes, so observed
//! delivery is in practice in send order unless a retransmission overtakes it — the lanes
//! differ in cost model and loss semantics, which is what the experiments measure.
//!
//! The design follows `aeronet`'s lane taxonomy (reliability × ordering), reduced to the three
//! kinds the emulation can distinguish.

use p2plab_sim::SimDuration;

/// Base retransmission timeout of the reliable lanes: the ordered lane's backoff starts here
/// and the unordered reliable lane retries on it flat.
pub const RTO: SimDuration = SimDuration::from_millis(500);

/// The delivery class of a message on a connection.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum LaneKind {
    /// Delivered reliably, in order — the classic TCP-like stream.
    ReliableOrdered,
    /// Delivered reliably, but the receiver takes frames as they arrive — no head-of-line
    /// blocking, slightly cheaper framing (no cumulative-ack bookkeeping).
    ReliableUnordered,
    /// Fire-and-forget over the connection: dropped frames are not retransmitted. Same loss
    /// semantics as a connectionless datagram, but addressed by connection.
    UnreliableUnordered,
}

impl LaneKind {
    /// Every lane kind, in enum order.
    pub const ALL: [LaneKind; 3] = [
        LaneKind::ReliableOrdered,
        LaneKind::ReliableUnordered,
        LaneKind::UnreliableUnordered,
    ];

    /// Bytes of per-message framing the lane pays on the wire, on top of the payload.
    ///
    /// The ordered reliable lane carries sequence + cumulative-ack state (40 bytes — exactly
    /// the legacy data path's header, so ported protocols keep their wire-identical cost); the
    /// unordered reliable lane drops the ack bookkeeping (36); the unreliable lane pays the
    /// bare datagram header (28).
    pub fn header_bytes(self) -> u64 {
        match self {
            LaneKind::ReliableOrdered => 40,
            LaneKind::ReliableUnordered => 36,
            LaneKind::UnreliableUnordered => 28,
        }
    }

    /// The lane's index into per-lane state arrays (matches [`LaneKind::ALL`] order).
    pub fn index(self) -> usize {
        match self {
            LaneKind::ReliableOrdered => 0,
            LaneKind::ReliableUnordered => 1,
            LaneKind::UnreliableUnordered => 2,
        }
    }

    /// Whether frames on this lane are retransmitted after a drop.
    pub fn reliable(self) -> bool {
        !matches!(self, LaneKind::UnreliableUnordered)
    }

    /// The lane's retransmission backoff before attempt `attempts + 1`, or `None` when the
    /// lane does not retransmit.
    ///
    /// * [`ReliableOrdered`](LaneKind::ReliableOrdered) backs off exponentially (a gap stalls
    ///   the stream anyway, so pushing harder only fills the queues) — `RTO * 2^min(n,5) / 2`,
    ///   the legacy transport's exact schedule.
    /// * [`ReliableUnordered`](LaneKind::ReliableUnordered) retries on a flat [`RTO`]: no
    ///   ordering means no stall, so the lane trades bandwidth for latency.
    /// * [`UnreliableUnordered`](LaneKind::UnreliableUnordered) never retransmits.
    pub fn retransmit_backoff(self, attempts: u32) -> Option<SimDuration> {
        match self {
            LaneKind::ReliableOrdered => Some(RTO * (1u64 << attempts.min(5)) / 2),
            LaneKind::ReliableUnordered => Some(RTO),
            LaneKind::UnreliableUnordered => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn framing_overhead_is_ordered_by_guarantees() {
        assert!(
            LaneKind::ReliableOrdered.header_bytes() > LaneKind::ReliableUnordered.header_bytes()
        );
        assert!(
            LaneKind::ReliableUnordered.header_bytes()
                > LaneKind::UnreliableUnordered.header_bytes()
        );
        // The ordered lane's header is the legacy data path's 40 bytes: ported protocols keep
        // byte-identical wire costs.
        assert_eq!(LaneKind::ReliableOrdered.header_bytes(), 40);
        assert_eq!(LaneKind::UnreliableUnordered.header_bytes(), 28);
    }

    #[test]
    fn retransmit_policies_differ_per_lane() {
        let rto = RTO;
        // Ordered: exponential, capped at 2^5.
        assert_eq!(LaneKind::ReliableOrdered.retransmit_backoff(1), Some(rto));
        assert_eq!(
            LaneKind::ReliableOrdered.retransmit_backoff(3),
            Some(rto * 4)
        );
        assert_eq!(
            LaneKind::ReliableOrdered.retransmit_backoff(40),
            Some(rto * 16)
        );
        // Unordered reliable: flat.
        for attempts in [1, 3, 40] {
            assert_eq!(
                LaneKind::ReliableUnordered.retransmit_backoff(attempts),
                Some(rto)
            );
        }
        // Unreliable: none.
        assert_eq!(LaneKind::UnreliableUnordered.retransmit_backoff(1), None);
        assert!(!LaneKind::UnreliableUnordered.reliable());
        assert!(LaneKind::ReliableUnordered.reliable());
    }
}
