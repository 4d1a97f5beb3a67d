//! Receive-side reassembly and the generic stream receiver.

use std::collections::BTreeMap;

use simnet::endpoint::{Effects, Note, ReceiverEndpoint};
use simnet::packet::{Flags, FlowId, NodeId, Packet, WINDOW_INIT};
use simnet::units::Time;

/// Out-of-order reassembly buffer over a byte-sequence space.
///
/// Tracks the cumulative in-order point (`rcv_nxt`) plus disjoint
/// out-of-order ranges. [`RecvBuffer::on_segment`] returns how many new
/// in-order bytes became available to the application.
///
/// # Examples
///
/// ```
/// use tfc_transport::recv::RecvBuffer;
///
/// let mut b = RecvBuffer::new();
/// assert_eq!(b.on_segment(1000, 500), 0); // hole at 0..1000
/// assert_eq!(b.on_segment(0, 1000), 1500); // fills the hole
/// assert_eq!(b.rcv_nxt(), 1500);
/// ```
#[derive(Debug, Clone, Default)]
pub struct RecvBuffer {
    rcv_nxt: u64,
    /// Out-of-order ranges `start -> end` (exclusive), disjoint and
    /// non-adjacent after normalisation.
    ooo: BTreeMap<u64, u64>,
}

impl RecvBuffer {
    /// Creates an empty buffer expecting byte 0 first.
    pub fn new() -> Self {
        Self::default()
    }

    /// Next in-order byte the application has not yet seen.
    pub fn rcv_nxt(&self) -> u64 {
        self.rcv_nxt
    }

    /// Number of buffered out-of-order ranges (diagnostics).
    pub fn ooo_ranges(&self) -> usize {
        self.ooo.len()
    }

    /// Ingests a segment `[seq, seq + len)`; returns the number of bytes
    /// newly delivered in order (0 if the segment left a hole or was a
    /// duplicate).
    pub fn on_segment(&mut self, seq: u64, len: u64) -> u64 {
        if len == 0 {
            return 0;
        }
        let end = seq + len;
        let before = self.rcv_nxt;
        if end <= before {
            return 0; // Entirely duplicate.
        }
        if seq <= before && self.ooo.is_empty() {
            // In order with nothing buffered: the common case never
            // touches the map, so a flow that sees no reordering never
            // allocates a node.
            self.rcv_nxt = end;
            return end - before;
        }
        self.insert_range(seq.max(before), end);
        // Advance the cumulative point through any now-contiguous ranges.
        while let Some((&s, &e)) = self.ooo.first_key_value() {
            if s > self.rcv_nxt {
                break;
            }
            self.ooo.pop_first();
            self.rcv_nxt = self.rcv_nxt.max(e);
        }
        if self.ooo.is_empty() {
            // A drained map keeps its root node; free it.
            self.ooo = BTreeMap::new();
        }
        self.rcv_nxt - before
    }

    fn insert_range(&mut self, mut start: u64, mut end: u64) {
        // Merge with any overlapping or adjacent ranges in place. Ranges
        // are disjoint and non-adjacent, so walking down from the last
        // one starting at or before `end` meets exactly the ranges that
        // touch `[start, end]` before the first that ends below `start`.
        while let Some((&s, &e)) = self.ooo.range(..=end).next_back() {
            if e < start {
                break;
            }
            self.ooo.remove(&s);
            start = start.min(s);
            end = end.max(e);
        }
        self.ooo.insert(start, end);
    }
}

/// How the receiver reflects congestion signals on its ACKs.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EchoMode {
    /// Plain TCP: no echo.
    None,
    /// DCTCP: echo CE as ECE per ACK.
    Ecn,
    /// TFC: echo RM as RMA, carrying `min(awnd, pkt.window)` (§5.3).
    Tfc {
        /// The receiver's advertised window in bytes.
        awnd: u64,
    },
}

/// Generic receiver endpoint shared by every protocol in the workspace.
///
/// Behaviour:
/// * replies SYN-ACK to SYN (repeatedly, so a lost SYN-ACK recovers),
/// * ACKs every data packet immediately with the cumulative ACK,
/// * reflects congestion signals per [`EchoMode`],
/// * emits [`Note::Delivered`] as in-order bytes appear and
///   [`Note::ReceiverDone`] when `expected` bytes have arrived (or, for
///   open-ended flows, when the FIN is delivered in order).
pub struct StreamReceiver {
    flow: FlowId,
    /// This host (ACK source).
    local: NodeId,
    /// The sender host (ACK destination).
    remote: NodeId,
    expected: Option<u64>,
    echo: EchoMode,
    buf: RecvBuffer,
    fin_seq: Option<u64>,
    done: bool,
}

impl StreamReceiver {
    /// Creates a receiver for `flow` at `local`, sending ACKs to
    /// `remote`; `expected` is the sized-flow byte count if known.
    pub fn new(
        flow: FlowId,
        local: NodeId,
        remote: NodeId,
        expected: Option<u64>,
        echo: EchoMode,
    ) -> Self {
        Self {
            flow,
            local,
            remote,
            expected,
            echo,
            buf: RecvBuffer::new(),
            fin_seq: None,
            done: false,
        }
    }

    fn make_ack(&self, data: &Packet) -> Packet {
        let mut ack = Packet::ack(self.flow, self.local, self.remote, self.buf.rcv_nxt());
        match self.echo {
            EchoMode::None => {}
            EchoMode::Ecn => {
                if data.flags.contains(Flags::CE) {
                    ack.flags.set(Flags::ECE);
                }
            }
            EchoMode::Tfc { awnd } => {
                if data.flags.contains(Flags::RM) {
                    ack.flags.set(Flags::RMA);
                    ack.window = data.window;
                    ack.clamp_window(awnd);
                } else {
                    ack.window = WINDOW_INIT;
                }
            }
        }
        ack
    }
}

impl ReceiverEndpoint for StreamReceiver {
    fn on_packet(&mut self, pkt: &Packet, _now: Time, fx: &mut Effects) {
        if pkt.flags.contains(Flags::SYN) {
            // SYN-ACK; duplicated SYNs get duplicated SYN-ACKs.
            let mut synack = Packet::ack(self.flow, self.local, self.remote, 0);
            synack.flags.set(Flags::SYN);
            fx.send(synack);
            return;
        }
        if pkt.flags.contains(Flags::FIN) {
            // FIN occupies one sequence unit after the data stream.
            self.fin_seq = Some(pkt.seq);
            let newly = self.buf.on_segment(pkt.seq, 1);
            if newly > 1 {
                fx.note(Note::Delivered { bytes: newly - 1 });
            }
            fx.send(self.make_ack(pkt));
        } else if pkt.is_data() {
            let newly = self.buf.on_segment(pkt.seq, pkt.payload);
            let fin_consumed = self.fin_seq.is_some_and(|f| self.buf.rcv_nxt() > f) && newly > 0;
            let payload_bytes = if fin_consumed { newly - 1 } else { newly };
            if payload_bytes > 0 {
                fx.note(Note::Delivered {
                    bytes: payload_bytes,
                });
            }
            fx.send(self.make_ack(pkt));
        } else {
            // Zero-payload non-FIN probe (TFC window acquisition): ACK it
            // so the RMA echo travels back, but deliver nothing.
            fx.send(self.make_ack(pkt));
        }
        if !self.done {
            let complete = match (self.expected, self.fin_seq) {
                (Some(exp), _) => self.delivered_bytes() >= exp,
                (None, Some(f)) => self.buf.rcv_nxt() > f,
                (None, None) => false,
            };
            if complete {
                self.done = true;
                fx.note(Note::ReceiverDone);
            }
        }
    }

    fn delivered_bytes(&self) -> u64 {
        match self.fin_seq {
            Some(f) if self.buf.rcv_nxt() > f => self.buf.rcv_nxt() - 1,
            _ => self.buf.rcv_nxt(),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use rng::props::cases;
    use rng::seq::SliceRandom;
    use rng::Rng;

    #[test]
    fn in_order_delivery() {
        let mut b = RecvBuffer::new();
        assert_eq!(b.on_segment(0, 100), 100);
        assert_eq!(b.on_segment(100, 100), 100);
        assert_eq!(b.rcv_nxt(), 200);
    }

    #[test]
    fn duplicate_is_zero() {
        let mut b = RecvBuffer::new();
        b.on_segment(0, 100);
        assert_eq!(b.on_segment(0, 100), 0);
        assert_eq!(b.on_segment(50, 50), 0);
    }

    #[test]
    fn hole_then_fill() {
        let mut b = RecvBuffer::new();
        assert_eq!(b.on_segment(200, 100), 0);
        assert_eq!(b.on_segment(100, 100), 0);
        assert_eq!(b.ooo_ranges(), 1); // merged adjacent ranges
        assert_eq!(b.on_segment(0, 100), 300);
    }

    #[test]
    fn overlapping_segments_merge() {
        let mut b = RecvBuffer::new();
        b.on_segment(100, 100);
        b.on_segment(150, 200);
        assert_eq!(b.ooo_ranges(), 1);
        assert_eq!(b.on_segment(0, 100), 350);
    }

    /// Byte-set reference model of [`RecvBuffer`]: which bytes arrived.
    #[derive(Default)]
    struct ByteSet {
        seen: Vec<bool>,
        rcv_nxt: u64,
    }

    impl ByteSet {
        fn on_segment(&mut self, seq: u64, len: u64) -> u64 {
            let end = (seq + len) as usize;
            if self.seen.len() < end {
                self.seen.resize(end, false);
            }
            self.seen[seq as usize..end].fill(true);
            let before = self.rcv_nxt;
            while self.seen.get(self.rcv_nxt as usize) == Some(&true) {
                self.rcv_nxt += 1;
            }
            self.rcv_nxt - before
        }

        /// Maximal runs of arrived bytes above the in-order point.
        fn ranges(&self) -> usize {
            let above = self.seen.get(self.rcv_nxt as usize..).unwrap_or(&[]);
            above.windows(2).filter(|w| !w[0] && w[1]).count()
        }

        /// Start of the first buffered range, if any.
        fn first_range(&self) -> Option<u64> {
            (self.rcv_nxt..self.seen.len() as u64).find(|&i| self.seen[i as usize])
        }
    }

    /// Differential check against the byte-set model over segment
    /// streams mixing in-order runs, holes, duplicates, overlaps,
    /// zero-length segments and segments below `rcv_nxt`; filling the
    /// first hole exactly drains the map, so later holes reopen it.
    #[test]
    fn matches_byte_set_model() {
        cases(256, |_case, rng| {
            let mut b = RecvBuffer::new();
            let mut model = ByteSet::default();
            let mut trace = Vec::new();
            for _ in 0..150 {
                let nxt = model.rcv_nxt;
                let (seq, len) = match rng.gen_range(0..7u32) {
                    // In-order run.
                    0 | 1 => (nxt, rng.gen_range(1..24u64)),
                    // Hole ahead of the in-order point.
                    2 => (nxt + rng.gen_range(1..48u64), rng.gen_range(1..24u64)),
                    // At or below `rcv_nxt`, possibly straddling it.
                    3 => {
                        let seq = rng.gen_range(0..=nxt);
                        (seq, rng.gen_range(0..nxt - seq + 24))
                    }
                    // Zero length anywhere.
                    4 => (rng.gen_range(0..nxt + 64), 0),
                    // Anywhere near the in-order point: overlaps.
                    5 => (
                        rng.gen_range(nxt.saturating_sub(32)..nxt + 96),
                        rng.gen_range(1..64u64),
                    ),
                    // Fill the first hole exactly, draining the map.
                    _ => match model.first_range() {
                        Some(s) => (nxt, s - nxt),
                        None => (nxt, rng.gen_range(1..24u64)),
                    },
                };
                trace.push((seq, len));
                let got = b.on_segment(seq, len);
                let want = model.on_segment(seq, len);
                assert_eq!(got, want, "return value after {trace:?}");
                assert_eq!(b.rcv_nxt(), model.rcv_nxt, "rcv_nxt after {trace:?}");
                assert_eq!(b.ooo_ranges(), model.ranges(), "ranges after {trace:?}");
            }
        });
    }

    fn mk_recv(expected: Option<u64>, echo: EchoMode) -> StreamReceiver {
        StreamReceiver::new(FlowId(7), NodeId(1), NodeId(0), expected, echo)
    }

    fn data(seq: u64, len: u64) -> Packet {
        Packet::data(FlowId(7), NodeId(0), NodeId(1), seq, len)
    }

    #[test]
    fn syn_gets_synack() {
        let mut r = mk_recv(Some(100), EchoMode::None);
        let mut syn = Packet::data(FlowId(7), NodeId(0), NodeId(1), 0, 0);
        syn.flags.set(Flags::SYN);
        let mut fx = Effects::new();
        r.on_packet(&syn, Time::ZERO, &mut fx);
        assert_eq!(fx.packets.len(), 1);
        assert!(fx.packets[0].flags.contains(Flags::SYN.with(Flags::ACK)));
    }

    #[test]
    fn data_acked_and_done_note() {
        let mut r = mk_recv(Some(200), EchoMode::None);
        let mut fx = Effects::new();
        r.on_packet(&data(0, 100), Time::ZERO, &mut fx);
        assert_eq!(fx.packets[0].ack, 100);
        assert!(fx.notes.contains(&Note::Delivered { bytes: 100 }));
        assert!(!fx.notes.contains(&Note::ReceiverDone));
        let mut fx2 = Effects::new();
        r.on_packet(&data(100, 100), Time::ZERO, &mut fx2);
        assert!(fx2.notes.contains(&Note::ReceiverDone));
        // A retransmit does not re-emit done.
        let mut fx3 = Effects::new();
        r.on_packet(&data(100, 100), Time::ZERO, &mut fx3);
        assert!(!fx3.notes.contains(&Note::ReceiverDone));
    }

    #[test]
    fn ecn_echo() {
        let mut r = mk_recv(Some(1_000), EchoMode::Ecn);
        let mut marked = data(0, 100);
        marked.flags.set(Flags::CE);
        let mut fx = Effects::new();
        r.on_packet(&marked, Time::ZERO, &mut fx);
        assert!(fx.packets[0].flags.contains(Flags::ECE));
        let mut fx2 = Effects::new();
        r.on_packet(&data(100, 100), Time::ZERO, &mut fx2);
        assert!(!fx2.packets[0].flags.contains(Flags::ECE));
    }

    #[test]
    fn tfc_rma_echo_carries_min_window() {
        let mut r = mk_recv(Some(1_000), EchoMode::Tfc { awnd: 5_000 });
        let mut rm = data(0, 100);
        rm.flags.set(Flags::RM);
        rm.window = 2_920; // stamped by a switch
        let mut fx = Effects::new();
        r.on_packet(&rm, Time::ZERO, &mut fx);
        let ack = &fx.packets[0];
        assert!(ack.flags.contains(Flags::RMA));
        assert_eq!(ack.window, 2_920);
        // awnd smaller than the stamp clamps.
        let mut r2 = mk_recv(Some(1_000), EchoMode::Tfc { awnd: 1_000 });
        let mut fx2 = Effects::new();
        r2.on_packet(&rm, Time::ZERO, &mut fx2);
        assert_eq!(fx2.packets[0].window, 1_000);
    }

    #[test]
    fn open_ended_done_on_fin() {
        let mut r = mk_recv(None, EchoMode::None);
        let mut fx = Effects::new();
        r.on_packet(&data(0, 100), Time::ZERO, &mut fx);
        assert!(!fx.notes.contains(&Note::ReceiverDone));
        let mut fin = Packet::data(FlowId(7), NodeId(0), NodeId(1), 100, 0);
        fin.flags.set(Flags::FIN);
        let mut fx2 = Effects::new();
        r.on_packet(&fin, Time::ZERO, &mut fx2);
        assert!(fx2.notes.contains(&Note::ReceiverDone));
        assert_eq!(r.delivered_bytes(), 100);
        assert_eq!(fx2.packets[0].ack, 101); // FIN consumed one unit
    }

    #[test]
    fn fin_before_last_data_still_completes() {
        let mut r = mk_recv(None, EchoMode::None);
        let mut fin = Packet::data(FlowId(7), NodeId(0), NodeId(1), 100, 0);
        fin.flags.set(Flags::FIN);
        let mut fx = Effects::new();
        r.on_packet(&fin, Time::ZERO, &mut fx);
        assert!(!fx.notes.contains(&Note::ReceiverDone));
        let mut fx2 = Effects::new();
        r.on_packet(&data(0, 100), Time::ZERO, &mut fx2);
        assert!(fx2.notes.contains(&Note::ReceiverDone));
        assert_eq!(r.delivered_bytes(), 100);
    }

    #[test]
    fn random_arrival_order_reassembles() {
        cases(128, |_case, rng| {
            let mut order: Vec<u64> = (0..20).collect();
            order.shuffle(rng);
            let dup_len = rng.gen_range(0..10usize);
            let dup: Vec<u64> = (0..dup_len).map(|_| rng.gen_range(0..20u64)).collect();
            let mut b = RecvBuffer::new();
            let mut total = 0;
            for seg in order.iter().chain(dup.iter()) {
                total += b.on_segment(seg * 100, 100);
            }
            assert_eq!(total, 2_000, "order {order:?}, dup {dup:?}");
            assert_eq!(b.rcv_nxt(), 2_000, "order {order:?}, dup {dup:?}");
            assert_eq!(b.ooo_ranges(), 0, "order {order:?}, dup {dup:?}");
        });
    }
}
