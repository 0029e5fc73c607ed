//! Ack-bitfield reliability: wrapping sequence numbers, the receive-side tracker and the
//! send-side window.
//!
//! The wire format follows the classic game-networking shape (aeronet, Gaffer-style acks): an
//! acknowledgement names the **latest** sequence number received plus a 32-bit bitfield where
//! bit `k` acknowledges sequence `latest - 1 - k`. One ack therefore covers a sliding window of
//! 33 fragments, and losing an ack frame is harmless — the next one re-covers the window.
//!
//! Sequence numbers are 16-bit and wrap; comparisons use serial-number arithmetic
//! ([`seq_newer`]), so the scheme is sound as long as fewer than 2^15 fragments are in flight
//! per (connection, direction) — far beyond any window the congestion controllers allow.
//!
//! The sender's [`SentWindow`] stores only the fragments still unacknowledged, 24 bytes each,
//! so its memory follows what is in flight. A fragment can get stuck there: one retransmitted
//! after the receiver's `latest` moved more than 32 sequences past it is recorded by the
//! receiver but covered by no later bitfield. The protocol keeps that behaviour as it is. The
//! window's cap bounds it: an unacknowledged fragment is dropped 4,096 sends after it was
//! sent, whether or not it is stuck.

use p2plab_sim::SimTime;
use std::collections::VecDeque;

/// Serial-number comparison on wrapping u16 sequence numbers: is `a` newer than `b`?
pub fn seq_newer(a: u16, b: u16) -> bool {
    a != b && a.wrapping_sub(b) < 0x8000
}

/// An acknowledgement: the latest received sequence plus a window bitfield (bit `k` set ⇔
/// `latest - 1 - k` was received).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default)]
pub struct AckBitfield {
    /// Latest sequence number received.
    pub latest: u16,
    /// Window bitfield over the 32 sequences preceding `latest`.
    pub bits: u32,
}

impl AckBitfield {
    /// Whether the bitfield acknowledges `seq`.
    pub fn contains(&self, seq: u16) -> bool {
        if seq == self.latest {
            return true;
        }
        let diff = self.latest.wrapping_sub(seq);
        (1..=32).contains(&diff) && self.bits & (1u32 << (diff - 1)) != 0
    }

    /// Serializes to the 6-byte wire shape (little-endian `latest`, then `bits`).
    pub fn encode(&self) -> [u8; 6] {
        let mut out = [0u8; 6];
        out[..2].copy_from_slice(&self.latest.to_le_bytes());
        out[2..].copy_from_slice(&self.bits.to_le_bytes());
        out
    }

    /// Deserializes the 6-byte wire shape. Total: every 6-byte string is a valid bitfield.
    pub fn decode(bytes: [u8; 6]) -> AckBitfield {
        AckBitfield {
            latest: u16::from_le_bytes([bytes[0], bytes[1]]),
            bits: u32::from_le_bytes([bytes[2], bytes[3], bytes[4], bytes[5]]),
        }
    }
}

/// Receive-side sequence tracker: records every received fragment sequence and produces the
/// [`AckBitfield`] to send back.
#[derive(Debug, Clone, Default)]
pub struct AckTracker {
    latest: u16,
    bits: u32,
    any: bool,
}

impl AckTracker {
    /// Records receipt of `seq`. Returns `true` when the sequence was newly recorded inside
    /// the 33-wide window, `false` for duplicates or sequences older than the window (delivery
    /// dedup does **not** rely on this — the reassembler is authoritative).
    pub fn record(&mut self, seq: u16) -> bool {
        if !self.any {
            self.any = true;
            self.latest = seq;
            self.bits = 0;
            return true;
        }
        if seq == self.latest {
            return false;
        }
        if seq_newer(seq, self.latest) {
            let shift = u32::from(seq.wrapping_sub(self.latest));
            let shifted = if shift >= 32 { 0 } else { self.bits << shift };
            let prev_bit = if shift <= 32 { 1u32 << (shift - 1) } else { 0 };
            self.bits = shifted | prev_bit;
            self.latest = seq;
            true
        } else {
            let diff = u32::from(self.latest.wrapping_sub(seq));
            if !(1..=32).contains(&diff) {
                return false;
            }
            let bit = 1u32 << (diff - 1);
            if self.bits & bit != 0 {
                return false;
            }
            self.bits |= bit;
            true
        }
    }

    /// The current acknowledgement window.
    pub fn bitfield(&self) -> AckBitfield {
        AckBitfield {
            latest: self.latest,
            bits: self.bits,
        }
    }

    /// Whether anything was ever received.
    pub fn any(&self) -> bool {
        self.any
    }
}

/// One unacknowledged fragment on the sender side.
#[derive(Debug, Clone, Copy)]
struct SentRecord {
    wire_bytes: u64,
    sent_at: SimTime,
    /// Send ordinal: the number of sends on this window before this one (wrapping; the cap
    /// only compares ordinals less than [`SENT_WINDOW_CAP`] apart).
    ordinal: u32,
    seq: u16,
    /// Set when the fragment was retransmitted. Its eventual ack still credits the bytes, but
    /// yields no RTT sample (Karn's algorithm): the ack cannot be matched to a particular
    /// transmission, and sampling from the first one would fold retransmit backoffs into the
    /// smoothed RTT — inflating the pacer's spacing into a positive-feedback stall.
    retransmitted: bool,
}

// Every unacknowledged fragment of every connection direction holds one.
const _: () = assert!(std::mem::size_of::<SentRecord>() <= 24);

/// Send-side window of outstanding fragments: turns returning ack bitfields into
/// `(bytes, rtt)` samples for the congestion controller.
///
/// The window stores only the **unacknowledged** fragments, in send order, each with its send
/// ordinal. An ack credits and removes the ones its bitfield covers, so an ack visits only
/// what it may credit.
///
/// The cap drops an unacknowledged fragment 4,096 sends after it was sent. That is the rule of
/// a window that keeps every send, acknowledged or not, pops its acknowledged prefix after
/// each ack and evicts its front at 4,096 entries: an unacknowledged entry stops the prefix,
/// so it is the front exactly when 4,096 sends fill the window behind it, and evicting an
/// acknowledged front changes nothing an ack can observe. A stuck fragment so costs one
/// record, not one per send behind it.
///
/// Sequence numbers of the last 4,096 sends are distinct: the transport assigns them
/// sequentially from a 16-bit space, sixteen times the cap.
#[derive(Debug, Clone, Default)]
pub struct SentWindow {
    /// Unacknowledged records, in send order.
    unacked: VecDeque<SentRecord>,
    /// Ordinal of the next send.
    next: u32,
}

/// Sends after which an unacknowledged fragment leaves the window; far beyond any cwnd the
/// controllers reach, it only bounds stuck fragments and pathological scenarios.
const SENT_WINDOW_CAP: u32 = 4096;

/// The capacity, in records, below which an ack never shrinks a window's buffer.
const SHRINK_FLOOR: usize = 8;

impl SentWindow {
    /// Records a fragment handed to the wire at `sent_at`.
    pub fn on_sent(&mut self, seq: u16, wire_bytes: u64, sent_at: SimTime) {
        // Ordinals are distinct and stored in order, so at most the oldest record comes due.
        let due = |r: &SentRecord| self.next.wrapping_sub(r.ordinal) >= SENT_WINDOW_CAP;
        if self.unacked.front().is_some_and(due) {
            self.unacked.pop_front();
        }
        self.unacked.push_back(SentRecord {
            wire_bytes,
            sent_at,
            ordinal: self.next,
            seq,
            retransmitted: false,
        });
        self.next = self.next.wrapping_add(1);
    }

    /// Marks `seq` as retransmitted, excluding its eventual ack from RTT sampling (Karn's
    /// algorithm). An acknowledged or evicted `seq` is not stored, so nothing changes.
    pub fn mark_retransmitted(&mut self, seq: u16) {
        if let Some(record) = self.unacked.iter_mut().find(|r| r.seq == seq) {
            record.retransmitted = true;
        }
    }

    /// Applies a received ack bitfield, invoking `on_acked(wire_bytes, sent_at)` once per
    /// newly acknowledged fragment, in send order, and forgets those fragments. `sent_at` is
    /// `None` for fragments that were retransmitted: the bytes count, the RTT sample does not.
    ///
    /// A buffer at most a quarter full shrinks to twice its length (not below `SHRINK_FLOOR`,
    /// eight records), so a drained burst does not keep its capacity for the life of the
    /// connection.
    pub fn on_ack(&mut self, field: &AckBitfield, mut on_acked: impl FnMut(u64, Option<SimTime>)) {
        self.unacked.retain(|r| {
            let acked = field.contains(r.seq);
            if acked {
                on_acked(r.wire_bytes, (!r.retransmitted).then_some(r.sent_at));
            }
            !acked
        });
        let (len, capacity) = (self.unacked.len(), self.unacked.capacity());
        if capacity > SHRINK_FLOOR && len <= capacity / 4 {
            self.shrink();
        }
    }

    /// Shrinks the buffer to twice its length, not below [`SHRINK_FLOOR`]. Out of line: the
    /// ack path that inlines `on_ack` rarely takes it.
    #[inline(never)]
    fn shrink(&mut self) {
        let len = self.unacked.len();
        self.unacked.shrink_to((2 * len).max(SHRINK_FLOOR));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn serial_comparison_wraps() {
        assert!(seq_newer(1, 0));
        assert!(seq_newer(0, u16::MAX));
        assert!(seq_newer(100, 65500));
        assert!(!seq_newer(0, 1));
        assert!(!seq_newer(0, 0));
        assert!(!seq_newer(65500, 100));
    }

    #[test]
    fn tracker_builds_window() {
        let mut t = AckTracker::default();
        assert!(t.record(0));
        assert!(t.record(1));
        assert!(t.record(3));
        let f = t.bitfield();
        assert_eq!(f.latest, 3);
        assert!(f.contains(3));
        assert!(!f.contains(2));
        assert!(f.contains(1));
        assert!(f.contains(0));
        // Late arrival of 2 fills the hole.
        assert!(t.record(2));
        assert!(t.bitfield().contains(2));
        // Duplicates are reported as such.
        assert!(!t.record(2));
        assert!(!t.record(3));
    }

    #[test]
    fn tracker_handles_wraparound() {
        let mut t = AckTracker::default();
        assert!(t.record(u16::MAX - 1));
        assert!(t.record(u16::MAX));
        assert!(t.record(0));
        assert!(t.record(1));
        let f = t.bitfield();
        assert_eq!(f.latest, 1);
        for seq in [u16::MAX - 1, u16::MAX, 0, 1] {
            assert!(f.contains(seq), "missing {seq}");
        }
    }

    #[test]
    fn tracker_survives_large_jumps() {
        let mut t = AckTracker::default();
        assert!(t.record(0));
        assert!(t.record(1000)); // jump far beyond the 32-bit window
        let f = t.bitfield();
        assert_eq!(f.latest, 1000);
        assert!(!f.contains(0), "0 fell out of the window");
        // Too-old arrivals are rejected without panicking.
        assert!(!t.record(1));
    }

    #[test]
    fn bitfield_roundtrip() {
        let f = AckBitfield {
            latest: 0xBEEF,
            bits: 0xDEAD_1234,
        };
        assert_eq!(AckBitfield::decode(f.encode()), f);
    }

    #[test]
    fn sent_window_acks_and_drains() {
        let mut w = SentWindow::default();
        for seq in 0..4u16 {
            w.on_sent(seq, 100, SimTime::from_millis(u64::from(seq)));
        }
        assert_eq!(w.unacked.len(), 4);
        // Ack 0, 1 and 3 (2 missing).
        let mut acked = Vec::new();
        let mut t = AckTracker::default();
        t.record(0);
        t.record(1);
        t.record(3);
        w.on_ack(&t.bitfield(), |bytes, sent| {
            acked.push((bytes, sent));
        });
        assert_eq!(acked.len(), 3);
        // None of these were retransmitted, so every ack carries an RTT anchor.
        assert!(acked.iter().all(|&(_, sent)| sent.is_some()));
        // Only 2 is still unacked.
        assert_eq!(w.unacked.len(), 1);
        // Re-applying the same ack produces no new samples.
        w.on_ack(&t.bitfield(), |_, _| panic!("duplicate ack sample"));
        // Acking 2 drains everything.
        t.record(2);
        w.on_ack(&t.bitfield(), |_, _| {});
        assert_eq!(w.unacked.len(), 0);
    }

    #[test]
    fn retransmitted_fragments_yield_no_rtt_sample() {
        let mut w = SentWindow::default();
        w.on_sent(0, 100, SimTime::ZERO);
        w.on_sent(1, 100, SimTime::ZERO);
        w.mark_retransmitted(0);
        let mut t = AckTracker::default();
        t.record(0);
        t.record(1);
        let mut samples = Vec::new();
        w.on_ack(&t.bitfield(), |bytes, sent| samples.push((bytes, sent)));
        // Both acks credit their bytes, but only the clean one anchors an RTT.
        assert_eq!(samples.len(), 2);
        assert_eq!(samples.iter().filter(|(_, s)| s.is_some()).count(), 1);
    }

    #[test]
    fn sent_window_is_bounded() {
        let mut w = SentWindow::default();
        for i in 0..(SENT_WINDOW_CAP + 10) {
            w.on_sent(i as u16, 1, SimTime::ZERO);
        }
        assert_eq!(w.unacked.len(), SENT_WINDOW_CAP as usize);
        // The cap evicted the ten oldest sends: an ack of them credits nothing.
        for latest in 0..10 {
            w.on_ack(&AckBitfield { latest, bits: 0 }, |_, _| {
                panic!("evicted send acked")
            });
        }
        assert_eq!(w.unacked.len(), SENT_WINDOW_CAP as usize);
    }

    #[test]
    fn a_drained_burst_gives_its_capacity_back() {
        let mut w = SentWindow::default();
        for seq in 0..4000u16 {
            w.on_sent(seq, 100, SimTime::ZERO);
        }
        assert!(w.unacked.capacity() >= 4000);
        // Acknowledge the burst 33 sequences at a time, as the receiver's acks would.
        for latest in (32..4033u16).step_by(33) {
            w.on_ack(
                &AckBitfield {
                    latest,
                    bits: u32::MAX,
                },
                |_, _| {},
            );
        }
        assert_eq!(w.unacked.len(), 0);
        assert!(
            w.unacked.capacity() <= 2 * SHRINK_FLOOR,
            "a drained window kept {} records of capacity",
            w.unacked.capacity()
        );
    }

    #[test]
    fn the_cap_drops_a_stuck_fragment_4096_sends_after_it() {
        let mut w = SentWindow::default();
        // Send 0 is lost and stays; 1..=3 are acknowledged behind it.
        for seq in 0..4u16 {
            w.on_sent(seq, 100, SimTime::ZERO);
        }
        w.on_ack(
            &AckBitfield {
                latest: 3,
                bits: 0b11,
            },
            |_, _| {},
        );
        assert_eq!(w.unacked.len(), 1);
        // Sends 4..4096 leave it in place: the window behind it is not full yet.
        for seq in 4..SENT_WINDOW_CAP as u16 {
            w.on_sent(seq, 100, SimTime::ZERO);
        }
        assert_eq!(w.unacked.front().map(|r| r.seq), Some(0));
        // Send 4096 drops it; send 4097 drops nothing, for send 1 was acknowledged.
        w.on_sent(SENT_WINDOW_CAP as u16, 100, SimTime::ZERO);
        assert_eq!(w.unacked.front().map(|r| r.seq), Some(4));
        w.on_sent(SENT_WINDOW_CAP as u16 + 1, 100, SimTime::ZERO);
        assert_eq!(w.unacked.front().map(|r| r.seq), Some(4));
        assert_eq!(w.unacked.len(), SENT_WINDOW_CAP as usize - 2);
    }
}
