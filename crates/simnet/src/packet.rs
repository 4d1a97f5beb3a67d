//! Packets and protocol header fields.
//!
//! One packet struct serves every protocol in the workspace. TFC's two
//! extra header bits (RM / RMA, §5 of the paper) and the explicit window
//! field live alongside the standard TCP-ish flags; DCTCP uses the ECN
//! codepoints. Baselines simply ignore the fields they do not use.

use core::fmt;

use telemetry::{PacketFields, PacketView};

use crate::units::Time;

/// Maximum segment size in bytes (payload of a full frame).
pub const MSS: u64 = 1460;

/// Transport + network header bytes added to every packet.
pub const HEADER_BYTES: u64 = 40;

/// Minimum Ethernet frame size in bytes; short packets (ACKs, SYNs) are
/// padded to this on the wire.
pub const MIN_FRAME: u64 = 64;

/// Frame size (headers included) at and above which an RM packet is used
/// for RTT measurement (§4.4: "only the marked packets with frame length
/// larger than 1500 Bytes are used to measure RTT").
pub const RTT_PROBE_FRAME: u64 = 1500;

/// The initial value a TFC sender writes into the window field before the
/// switches min-clamp it (the paper uses `0xffff`; we use the full range
/// of the simulated 32-bit field). It doubles as the "never stamped"
/// sentinel.
pub const WINDOW_INIT: u32 = u32::MAX;

/// Identifier of a node (host or switch) in the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct NodeId(pub u32);

/// Identifier of a flow (connection), unique across the simulation.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct FlowId(pub u64);

/// Header flag bits.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Default, Hash)]
pub struct Flags(pub u16);

impl Flags {
    /// Connection-open request.
    pub const SYN: Flags = Flags(1 << 0);
    /// Acknowledgement (the `ack` field is valid).
    pub const ACK: Flags = Flags(1 << 1);
    /// Connection close.
    pub const FIN: Flags = Flags(1 << 2);
    /// TFC Round MArk: first packet of a full window (§5.1).
    pub const RM: Flags = Flags(1 << 3);
    /// TFC Round MArk Acknowledgement (§5.3).
    pub const RMA: Flags = Flags(1 << 4);
    /// ECN-capable transport codepoint.
    pub const ECT: Flags = Flags(1 << 5);
    /// ECN Congestion Experienced, set by switches.
    pub const CE: Flags = Flags(1 << 6);
    /// ECN Echo, set by receivers on ACKs (DCTCP feedback).
    pub const ECE: Flags = Flags(1 << 7);

    /// Whether every bit of `other` is set in `self`.
    pub fn contains(self, other: Flags) -> bool {
        self.0 & other.0 == other.0
    }

    /// Returns `self` with the bits of `other` set.
    pub fn with(self, other: Flags) -> Flags {
        Flags(self.0 | other.0)
    }

    /// Returns `self` with the bits of `other` cleared.
    pub fn without(self, other: Flags) -> Flags {
        Flags(self.0 & !other.0)
    }

    /// Sets the bits of `other` in place.
    pub fn set(&mut self, other: Flags) {
        self.0 |= other.0;
    }

    /// Clears the bits of `other` in place.
    pub fn clear(&mut self, other: Flags) {
        self.0 &= !other.0;
    }
}

impl fmt::Display for Flags {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        let names = [
            (Flags::SYN, "SYN"),
            (Flags::ACK, "ACK"),
            (Flags::FIN, "FIN"),
            (Flags::RM, "RM"),
            (Flags::RMA, "RMA"),
            (Flags::ECT, "ECT"),
            (Flags::CE, "CE"),
            (Flags::ECE, "ECE"),
        ];
        let mut first = true;
        for (bit, name) in names {
            if self.contains(bit) {
                if !first {
                    write!(f, "|")?;
                }
                write!(f, "{name}")?;
                first = false;
            }
        }
        if first {
            write!(f, "-")?;
        }
        Ok(())
    }
}

/// A simulated packet.
///
/// `src`/`dst` are the *host* endpoints of the flow's current direction:
/// data packets carry `src = sender host`, ACKs carry `src = receiver
/// host`. Switches route on `dst`.
///
/// `Clone` is implemented manually (not derived) so every copy is
/// counted in a thread-local tally, keeping the hot path honest: the
/// forwarding pipeline stores packets in the [`crate::arena`] and moves
/// ids, so a steady-state delivery performs zero clones — a property
/// pinned by regression tests via [`thread_packet_clones`].
///
/// 56 bytes, so an arena slot with its generation and FIFO link is one
/// 64-byte cache line.
#[derive(Debug, PartialEq)]
pub struct Packet {
    /// Flow this packet belongs to.
    pub flow: FlowId,
    /// Originating host.
    pub src: NodeId,
    /// Destination host (routing key).
    pub dst: NodeId,
    /// Sequence number of the first payload byte (data packets).
    pub seq: u64,
    /// Cumulative acknowledgement: next expected byte (ACK packets).
    pub ack: u64,
    /// Payload bytes carried.
    pub payload: u64,
    /// Header flag bits.
    pub flags: Flags,
    /// Explicit congestion window in bytes (TFC); `WINDOW_INIT` until a
    /// switch clamps it (see [`clamp_window`](Self::clamp_window)).
    pub window: u32,
    /// Allocation weight of the flow (TFC weighted-allocation extension;
    /// §4.1 notes tokens may be split "according to any allocation
    /// policies"). Default 1 = plain fair share.
    pub weight: u8,
    /// Switch hops traversed so far (incremented at each switch egress).
    /// Feeds the deterministic ECMP hash `(flow, hop)` so a flow's
    /// next-hop choice is independent at every tier of a multipath
    /// fabric; wraps at 256, far beyond any sane path length.
    pub hop: u8,
    /// Time the packet left its originating host (for diagnostics).
    pub sent_at: Time,
}

const _: () = assert!(std::mem::size_of::<Packet>() == 56);

std::thread_local! {
    static PACKET_CLONES: std::cell::Cell<u64> = const { std::cell::Cell::new(0) };
}

/// Number of [`Packet`] clones performed on the current thread since it
/// started. Rust runs tests on separate threads, so delta measurements
/// against this counter are race-free.
pub fn thread_packet_clones() -> u64 {
    PACKET_CLONES.with(std::cell::Cell::get)
}

impl Clone for Packet {
    fn clone(&self) -> Self {
        PACKET_CLONES.with(|c| c.set(c.get() + 1));
        Packet {
            flow: self.flow,
            src: self.src,
            dst: self.dst,
            seq: self.seq,
            ack: self.ack,
            payload: self.payload,
            flags: self.flags,
            window: self.window,
            weight: self.weight,
            hop: self.hop,
            sent_at: self.sent_at,
        }
    }
}

impl Packet {
    /// Creates a data packet.
    pub fn data(flow: FlowId, src: NodeId, dst: NodeId, seq: u64, payload: u64) -> Packet {
        Packet {
            flow,
            src,
            dst,
            seq,
            ack: 0,
            payload,
            flags: Flags::default(),
            window: WINDOW_INIT,
            weight: 1,
            hop: 0,
            sent_at: Time::ZERO,
        }
    }

    /// Creates a bare ACK packet acknowledging up to `ack`.
    pub fn ack(flow: FlowId, src: NodeId, dst: NodeId, ack: u64) -> Packet {
        Packet {
            flow,
            src,
            dst,
            seq: 0,
            ack,
            payload: 0,
            flags: Flags::ACK,
            window: WINDOW_INIT,
            weight: 1,
            hop: 0,
            sent_at: Time::ZERO,
        }
    }

    /// Bytes this packet occupies on the wire (headers + minimum frame
    /// padding included).
    pub fn wire_bytes(&self) -> u64 {
        (self.payload + HEADER_BYTES).max(MIN_FRAME)
    }

    /// Lowers the window field to at most `cap` bytes. A cap beyond the
    /// field's range leaves it unchanged, as the minimum with the wider
    /// value would.
    pub fn clamp_window(&mut self, cap: u64) {
        if let Ok(cap) = u32::try_from(cap) {
            self.window = self.window.min(cap);
        }
    }

    /// Whether this packet carries payload (as opposed to pure control).
    pub fn is_data(&self) -> bool {
        self.payload > 0
    }

    /// Whether this is a pure acknowledgement (no payload).
    pub fn is_pure_ack(&self) -> bool {
        self.flags.contains(Flags::ACK) && self.payload == 0
    }

    /// Whether a TFC switch may use this RM packet for RTT measurement
    /// (frame length at least [`RTT_PROBE_FRAME`], §4.4).
    pub fn is_rtt_probe(&self) -> bool {
        self.flags.contains(Flags::RM) && self.wire_bytes() >= RTT_PROBE_FRAME
    }
}

impl PacketView for Packet {
    fn fields(&self) -> PacketFields {
        // The event field is a `u64` whatever the packet field's width,
        // so an unstamped window exports as all ones.
        let window = match self.window {
            WINDOW_INIT => u64::MAX,
            w => u64::from(w),
        };
        PacketFields {
            flow: self.flow.0,
            seq: self.seq,
            bytes: self.wire_bytes(),
            data: self.is_data(),
            ack: self.flags.contains(Flags::ACK).then_some(self.ack),
            ce: self.flags.contains(Flags::CE),
            round_mark: self.flags.contains(Flags::RM).then_some(window),
            sent_ns: self.sent_at.nanos(),
        }
    }
}

impl fmt::Display for Packet {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "[flow {} {}->{} seq={} ack={} len={} {}]",
            self.flow.0, self.src.0, self.dst.0, self.seq, self.ack, self.payload, self.flags
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flag_algebra() {
        let f = Flags::SYN.with(Flags::RM);
        assert!(f.contains(Flags::SYN));
        assert!(f.contains(Flags::RM));
        assert!(!f.contains(Flags::ACK));
        assert!(!f.contains(Flags::SYN.with(Flags::ACK)));
        let g = f.without(Flags::SYN);
        assert!(!g.contains(Flags::SYN));
        let mut h = Flags::default();
        h.set(Flags::CE);
        assert!(h.contains(Flags::CE));
        h.clear(Flags::CE);
        assert_eq!(h, Flags::default());
    }

    #[test]
    fn wire_bytes_pads_small_frames() {
        let ack = Packet::ack(FlowId(1), NodeId(0), NodeId(1), 100);
        assert_eq!(ack.wire_bytes(), MIN_FRAME);
        let data = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, MSS);
        assert_eq!(data.wire_bytes(), 1500);
    }

    #[test]
    fn rtt_probe_requires_full_frame_and_rm() {
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, MSS);
        assert!(!p.is_rtt_probe());
        p.flags.set(Flags::RM);
        assert!(p.is_rtt_probe());
        let mut small = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 100);
        small.flags.set(Flags::RM);
        assert!(!small.is_rtt_probe());
    }

    #[test]
    fn clamp_window_takes_the_minimum_within_range() {
        let mut p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, MSS);
        p.clamp_window(u64::MAX);
        assert_eq!(
            p.window, WINDOW_INIT,
            "an out-of-range cap leaves it unstamped"
        );
        p.clamp_window(u64::from(u32::MAX) + 1);
        assert_eq!(p.window, WINDOW_INIT);
        p.clamp_window(9_000);
        assert_eq!(p.window, 9_000);
        p.clamp_window(12_000);
        assert_eq!(p.window, 9_000, "a larger cap never raises it");
    }

    #[test]
    fn classification() {
        let data = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 10);
        assert!(data.is_data());
        assert!(!data.is_pure_ack());
        let ack = Packet::ack(FlowId(1), NodeId(1), NodeId(0), 10);
        assert!(ack.is_pure_ack());
        assert!(!ack.is_data());
    }

    #[test]
    fn clone_counter_tallies_per_thread() {
        let p = Packet::data(FlowId(1), NodeId(0), NodeId(1), 0, 10);
        let before = thread_packet_clones();
        let q = p.clone();
        assert_eq!(q, p);
        assert_eq!(thread_packet_clones() - before, 1);
    }

    #[test]
    fn flags_display() {
        assert_eq!(format!("{}", Flags::SYN.with(Flags::ACK)), "SYN|ACK");
        assert_eq!(format!("{}", Flags::default()), "-");
    }
}
