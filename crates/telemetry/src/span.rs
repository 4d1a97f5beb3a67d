//! Causal packet-lifecycle spans.
//!
//! Every tracked packet's life is split into segments — host NIC queue
//! wait, per-hop switch queue wait, per-hop wire time, TFC token/window
//! acquire wait, and end-to-end latency — and each completed segment is
//! recorded straight into a per-`(stage, hop)` streaming
//! [`QuantileSketch`]. Nothing per-packet is retained after delivery or
//! drop, so resident memory is O(in-flight packets of sampled flows)
//! plus a fixed set of sketches, no matter how many flows a run pushes.
//!
//! The tracker is keyed by the simulator's arena `PacketId` (packed to
//! `u64` by the caller) and driven by the telemetry observer
//! ([`crate::observe`]) at the enqueue/dequeue/drop/ECN/deliver points;
//! it never iterates its hash map, so hash order cannot leak into
//! artifacts. Under [`TraceConfig::Off`] no flow is tracked, so every
//! hook returns after one branch and records nothing — enforced by the
//! [`thread_span_records`] counter mirroring the packet-clone
//! regression counter.

use std::cell::Cell;
use std::collections::HashMap;

use metrics::sketch::{QuantileSketch, DEFAULT_ALPHA};

use crate::json::{Map, Value};

/// Which flows get lifecycle spans.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TraceConfig {
    /// No spans; hooks cost one branch and artifacts are byte-identical
    /// to a build without the subsystem.
    Off,
    /// Trace a deterministic pseudo-random subset of flows: flow `f` is
    /// tracked iff `splitmix64(f ^ seed) % 1000 < permille`. The choice
    /// depends only on `(flow, seed)`, never on RNG state, so the same
    /// flows are sampled across scheduler backends and reruns.
    SampledFlows {
        /// Tracked flows per thousand (0 = none, ≥1000 = all).
        permille: u16,
        /// Sampling-hash seed.
        seed: u64,
    },
    /// Trace every flow.
    Full,
}

impl TraceConfig {
    /// Stable human/manifest form (`off`, `sampled(64/1000,seed=9)`,
    /// `full`).
    pub fn describe(&self) -> String {
        match self {
            TraceConfig::Off => "off".into(),
            TraceConfig::SampledFlows { permille, seed } => {
                format!("sampled({permille}/1000,seed={seed})")
            }
            TraceConfig::Full => "full".into(),
        }
    }
}

/// Lifecycle segment kinds. `hop` disambiguates within a stage: hop 0
/// is the sending host's NIC, hop `h ≥ 1` is the `h`-th switch on the
/// path (wire `h` is the link *into* hop `h`; the final wire into the
/// receiving host gets `last hop + 1`).
pub const STAGE_NAMES: [&str; 6] = [
    "host_q",     // sender NIC queue wait (enqueue → dequeue, hop 0)
    "sw_q",       // switch queue wait per hop (enqueue → dequeue)
    "wire",       // propagation + serialization per hop
    "token_wait", // TFC delay-arbiter hold (token/window acquire wait)
    "e2e_data",   // data-packet end-to-end (emit → deliver)
    "e2e_ctrl",   // control-packet end-to-end (ACK/SYN/FIN/RM)
];

/// Index of `host_q` in [`STAGE_NAMES`].
pub const STAGE_HOST_Q: u8 = 0;
/// Index of `sw_q`.
pub const STAGE_SW_Q: u8 = 1;
/// Index of `wire`.
pub const STAGE_WIRE: u8 = 2;
/// Index of `token_wait`.
pub const STAGE_TOKEN_WAIT: u8 = 3;
/// Index of `e2e_data`.
pub const STAGE_E2E_DATA: u8 = 4;
/// Index of `e2e_ctrl`.
pub const STAGE_E2E_CTRL: u8 = 5;

thread_local! {
    static SPAN_RECORDS: Cell<u64> = const { Cell::new(0) };
}

/// Total span segments recorded on this thread (ever). The
/// zero-overhead regression test asserts this stays flat across a run
/// with [`TraceConfig::Off`], mirroring `packet::thread_packet_clones`.
pub fn thread_span_records() -> u64 {
    SPAN_RECORDS.with(|c| c.get())
}

#[inline]
fn bump_records() {
    SPAN_RECORDS.with(|c| c.set(c.get() + 1));
}

/// splitmix64 finalizer — the sampling hash.
#[inline]
fn mix64(mut x: u64) -> u64 {
    x = x.wrapping_add(0x9e37_79b9_7f4a_7c15);
    x = (x ^ (x >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x = (x ^ (x >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^ (x >> 31)
}

/// Hasher for the in-flight map: one splitmix64 round over the already
/// run-unique packet key. The map is probed on every enqueue/dequeue
/// seam — for *untracked* packets too, since only the key survives past
/// span start — so the default SipHash would dominate the traced-run
/// profile (measured >1.5x on the leaf-spine scale bench).
#[derive(Default)]
struct KeyHash(u64);

impl std::hash::Hasher for KeyHash {
    fn finish(&self) -> u64 {
        self.0
    }
    fn write(&mut self, bytes: &[u8]) {
        // Keys are hashed via `write_u64`; keep a correct fallback.
        for &b in bytes {
            self.0 = mix64(self.0 ^ u64::from(b));
        }
    }
    fn write_u64(&mut self, v: u64) {
        self.0 = mix64(v);
    }
}

type ActiveMap = HashMap<u64, PacketSpan, std::hash::BuildHasherDefault<KeyHash>>;

/// In-flight per-packet state (dropped at deliver/drop/free). The flow
/// id is not retained: sampling is a stateless hash of the flow id, so
/// every seam re-derives the verdict from the id the caller holds —
/// untracked packets then never touch this map at all.
#[derive(Debug, Clone, Copy)]
struct PacketSpan {
    data: bool,
    /// Current hop: 0 at the sender NIC, +1 per switch entered.
    hop: u8,
    /// When the packet entered the current queue (ns).
    q_start: u64,
    /// When the packet was dequeued onto the wire (ns); meaningful only
    /// while in flight between nodes.
    wire_start: u64,
}

/// Aggregates packet lifecycle segments into per-`(stage, hop)`
/// sketches. Owned by [`crate::Telemetry`]; see the module docs for the
/// seam-to-stage mapping.
#[derive(Debug)]
pub struct SpanTracker {
    cfg: TraceConfig,
    active: ActiveMap,
    /// Stage-major dense store: `sketches[stage][hop]`. The stage axis
    /// is fixed ([`STAGE_NAMES`]); the hop axis grows to the deepest
    /// hop seen. Plain indexing keeps the per-segment record path free
    /// of tree walks — this is probed for every segment of every
    /// tracked packet.
    sketches: [Vec<Option<QuantileSketch>>; STAGE_NAMES.len()],
    drops: std::collections::BTreeMap<u8, u64>,
    ecn: std::collections::BTreeMap<u8, u64>,
    tracked_packets: u64,
    dropped_packets: u64,
}

impl SpanTracker {
    /// Builds a tracker for one run.
    pub fn new(cfg: TraceConfig) -> Self {
        Self {
            cfg,
            active: ActiveMap::default(),
            sketches: std::array::from_fn(|_| Vec::new()),
            drops: std::collections::BTreeMap::new(),
            ecn: std::collections::BTreeMap::new(),
            tracked_packets: 0,
            dropped_packets: 0,
        }
    }

    /// Whether any tracing is configured.
    #[inline]
    pub fn enabled(&self) -> bool {
        !matches!(self.cfg, TraceConfig::Off)
    }

    /// Whether `flow`'s packets are sampled under the current config.
    #[inline]
    pub fn tracked_flow(&self, flow: u64) -> bool {
        match self.cfg {
            TraceConfig::Off => false,
            TraceConfig::Full => true,
            TraceConfig::SampledFlows { permille, seed } => {
                u16::try_from(mix64(flow ^ seed) % 1000).expect("mod 1000 fits") < permille
            }
        }
    }

    #[inline]
    fn record(&mut self, stage: u8, hop: u8, nanos: u64) {
        let row = &mut self.sketches[stage as usize];
        let hop = hop as usize;
        if hop >= row.len() {
            row.resize_with(hop + 1, || None);
        }
        row[hop]
            .get_or_insert_with(|| QuantileSketch::new(DEFAULT_ALPHA))
            .record(nanos as f64);
        bump_records();
    }

    /// Packet entered a queue: the sender's NIC (`is_host`) or a switch
    /// port. First sight of a key starts its span; a revisit closes the
    /// preceding wire segment and advances the hop.
    #[inline]
    pub fn on_enqueue(&mut self, key: u64, flow: u64, data: bool, is_host: bool, now: u64) {
        if !self.tracked_flow(flow) {
            return;
        }
        match self.active.get_mut(&key) {
            Some(span) => {
                span.hop = span.hop.saturating_add(1);
                let (hop, wire_start) = (span.hop, span.wire_start);
                span.q_start = now;
                self.record(STAGE_WIRE, hop, now.saturating_sub(wire_start));
            }
            None => {
                self.active.insert(
                    key,
                    PacketSpan {
                        data,
                        // Policy-injected packets (e.g. arbiter-released
                        // ACKs) first appear at a switch: that's hop 1.
                        hop: if is_host { 0 } else { 1 },
                        q_start: now,
                        wire_start: now,
                    },
                );
                self.tracked_packets += 1;
                bump_records();
            }
        }
    }

    /// Packet left its queue onto the wire: closes the queue-wait
    /// segment for the current hop.
    #[inline]
    pub fn on_dequeue(&mut self, key: u64, flow: u64, now: u64) {
        if !self.tracked_flow(flow) {
            return;
        }
        let Some(span) = self.active.get_mut(&key) else {
            return;
        };
        let (stage, hop) = if span.hop == 0 {
            (STAGE_HOST_Q, 0)
        } else {
            (STAGE_SW_Q, span.hop)
        };
        let wait = now.saturating_sub(span.q_start);
        span.wire_start = now;
        self.record(stage, hop, wait);
    }

    /// Packet delivered to the receiving host. Closes the final wire
    /// segment and the end-to-end span (`sent_ns` is the emit stamp the
    /// packet carries), then forgets the key.
    #[inline]
    pub fn on_deliver(&mut self, key: u64, flow: u64, sent_ns: u64, now: u64) {
        if !self.tracked_flow(flow) {
            return;
        }
        let Some(span) = self.active.remove(&key) else {
            return;
        };
        self.record(
            STAGE_WIRE,
            span.hop.saturating_add(1),
            now.saturating_sub(span.wire_start),
        );
        let e2e = if span.data {
            STAGE_E2E_DATA
        } else {
            STAGE_E2E_CTRL
        };
        self.record(e2e, 0, now.saturating_sub(sent_ns));
    }

    /// Packet dropped (queue overflow, fault, down link, stalled host):
    /// counts the drop against the hop it died at and forgets the key.
    #[inline]
    pub fn on_drop(&mut self, key: u64, flow: u64) {
        if !self.tracked_flow(flow) {
            return;
        }
        if let Some(span) = self.active.remove(&key) {
            *self.drops.entry(span.hop).or_insert(0) += 1;
            self.dropped_packets += 1;
            bump_records();
        }
    }

    /// Packet consumed on purpose (e.g. a TFC-held ACK absorbed by the
    /// delay arbiter): forgets the key without counting a drop.
    #[inline]
    pub fn on_consumed(&mut self, key: u64, flow: u64) {
        if !self.tracked_flow(flow) {
            return;
        }
        self.active.remove(&key);
    }

    /// ECN CE mark applied at the packet's current hop.
    #[inline]
    pub fn on_ecn(&mut self, key: u64, flow: u64) {
        if !self.tracked_flow(flow) {
            return;
        }
        if let Some(span) = self.active.get(&key) {
            let hop = span.hop;
            *self.ecn.entry(hop).or_insert(0) += 1;
            bump_records();
        }
    }

    /// TFC token/window acquire wait reported by the delay arbiter for
    /// `flow` (keyed by flow, not packet: the held packet is a policy
    /// copy, not an arena resident).
    #[inline]
    pub fn on_token_wait(&mut self, flow: u64, waited_ns: u64) {
        if !self.tracked_flow(flow) {
            return;
        }
        self.record(STAGE_TOKEN_WAIT, 0, waited_ns);
    }

    /// Packets whose spans were started.
    pub fn tracked_packets(&self) -> u64 {
        self.tracked_packets
    }

    /// In-flight spans currently held (memory diagnostics; 0 after a
    /// drained run).
    pub fn active_len(&self) -> usize {
        self.active.len()
    }

    /// Read access to a stage sketch, if any segment was recorded.
    pub fn sketch(&self, stage: u8, hop: u8) -> Option<&QuantileSketch> {
        self.sketches
            .get(stage as usize)?
            .get(hop as usize)?
            .as_ref()
    }

    /// Live `(stage, hop, sketch)` triples in canonical (stage-major,
    /// then hop) order.
    fn sketch_iter(&self) -> impl Iterator<Item = (u8, u8, &QuantileSketch)> {
        self.sketches.iter().enumerate().flat_map(|(stage, row)| {
            row.iter()
                .enumerate()
                .filter_map(move |(hop, s)| s.as_ref().map(|s| (stage as u8, hop as u8, s)))
        })
    }

    /// The `spans.json` document: schema, config echo, per-hop drops and
    /// ECN marks, and one row per `(stage, hop)` sketch in canonical
    /// order. Deterministic for a deterministic run.
    pub fn to_json(&self) -> Value {
        let stages: Vec<Value> = self
            .sketch_iter()
            .map(|(stage, hop, s)| sketch_row(stage, hop, s))
            .collect();
        let drops: Vec<Value> = self
            .drops
            .iter()
            .map(|(&hop, &count)| crate::json!({"hop": hop, "count": count}))
            .collect();
        let ecn: Vec<Value> = self
            .ecn
            .iter()
            .map(|(&hop, &marks)| crate::json!({"hop": hop, "marks": marks}))
            .collect();
        crate::json!({
            "schema": "tfc-spans/v1",
            "trace": self.cfg.describe().as_str(),
            "alpha": DEFAULT_ALPHA,
            "tracked_packets": self.tracked_packets,
            "dropped_packets": self.dropped_packets,
            "incomplete": self.active.len() as u64,
            "stages": Value::Array(stages),
            "drops": Value::Array(drops),
            "ecn": Value::Array(ecn),
        })
    }
}

fn sketch_row(stage: u8, hop: u8, s: &QuantileSketch) -> Value {
    let q = |p: f64| Value::from(s.quantile(p).unwrap_or(0.0));
    let buckets: Vec<Value> = s
        .bucket_entries()
        .into_iter()
        .map(|(k, c)| Value::Array(vec![Value::from(i64::from(k)), Value::from(c)]))
        .collect();
    let mut m = Map::new();
    m.insert("stage".into(), STAGE_NAMES[stage as usize].into());
    m.insert("hop".into(), u64::from(hop).into());
    m.insert("count".into(), s.count().into());
    m.insert("zero".into(), s.zero_count().into());
    m.insert("sum_ns".into(), s.sum().into());
    m.insert("min_ns".into(), s.min().unwrap_or(0.0).into());
    m.insert("max_ns".into(), s.max().unwrap_or(0.0).into());
    m.insert("p50".into(), q(0.50));
    m.insert("p90".into(), q(0.90));
    m.insert("p99".into(), q(0.99));
    m.insert("p999".into(), q(0.999));
    m.insert("buckets".into(), Value::Array(buckets));
    Value::Object(m)
}

/// Rebuilds a sketch from a `spans.json` stage row (inverse of the
/// exporter; used by `tfc-trace diff` to compare quantiles).
pub fn sketch_from_json(row: &Value) -> Result<QuantileSketch, String> {
    let num = |k: &str| -> Result<f64, String> {
        row.get(k)
            .and_then(Value::as_f64)
            .ok_or_else(|| format!("stage row missing numeric '{k}'"))
    };
    let zero = num("zero")? as u64;
    let entries: Vec<(i32, u64)> = row
        .get("buckets")
        .and_then(Value::as_array)
        .ok_or("stage row missing 'buckets'")?
        .iter()
        .map(|pair| {
            let p = pair
                .as_array()
                .filter(|p| p.len() == 2)
                .ok_or("bad bucket pair")?;
            let k = p[0].as_i64().ok_or("bad bucket key")? as i32;
            let c = p[1].as_i64().ok_or("bad bucket count")? as u64;
            Ok::<(i32, u64), String>((k, c))
        })
        .collect::<Result<_, _>>()?;
    Ok(QuantileSketch::from_parts(
        DEFAULT_ALPHA,
        zero,
        &entries,
        num("sum_ns")?,
        num("min_ns")?,
        num("max_ns")?,
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing_and_counts_nothing() {
        let before = thread_span_records();
        let mut t = SpanTracker::new(TraceConfig::Off);
        assert!(!t.enabled());
        t.on_enqueue(1, 7, true, true, 100);
        t.on_dequeue(1, 7, 200);
        t.on_ecn(1, 7);
        t.on_deliver(1, 7, 100, 900);
        t.on_drop(1, 7);
        t.on_token_wait(7, 55);
        assert_eq!(thread_span_records(), before);
        assert_eq!(t.tracked_packets(), 0);
        assert_eq!(t.active_len(), 0);
        assert!(t
            .to_json()
            .get("stages")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn full_tracks_a_two_hop_lifecycle() {
        let mut t = SpanTracker::new(TraceConfig::Full);
        // Host enqueue at 100, dequeue 150 (host_q 50), switch enqueue
        // 250 (wire 100 into hop 1), dequeue 300 (sw_q 50), deliver 420
        // (wire 120 into hop 2), e2e from emit stamp 90.
        t.on_enqueue(1, 7, true, true, 100);
        t.on_dequeue(1, 7, 150);
        t.on_enqueue(1, 7, true, false, 250);
        t.on_ecn(1, 7);
        t.on_dequeue(1, 7, 300);
        t.on_deliver(1, 7, 90, 420);
        assert_eq!(t.active_len(), 0);
        assert_eq!(t.tracked_packets(), 1);
        let near = |s: &QuantileSketch, v: f64| {
            let m = s.quantile(0.5).unwrap();
            assert!((m - v).abs() <= v * 0.011, "got {m}, want ~{v}");
        };
        near(t.sketch(STAGE_HOST_Q, 0).unwrap(), 50.0);
        near(t.sketch(STAGE_WIRE, 1).unwrap(), 100.0);
        near(t.sketch(STAGE_SW_Q, 1).unwrap(), 50.0);
        near(t.sketch(STAGE_WIRE, 2).unwrap(), 120.0);
        near(t.sketch(STAGE_E2E_DATA, 0).unwrap(), 330.0);
        assert!(t.sketch(STAGE_E2E_CTRL, 0).is_none());
        let j = t.to_json();
        assert_eq!(j.get("tracked_packets").unwrap().as_i64(), Some(1));
        let ecn = j.get("ecn").unwrap().as_array().unwrap();
        assert_eq!(ecn[0].get("hop").unwrap().as_i64(), Some(1));
        assert_eq!(ecn[0].get("marks").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn drops_count_against_the_current_hop() {
        let mut t = SpanTracker::new(TraceConfig::Full);
        t.on_enqueue(9, 1, true, true, 0);
        t.on_dequeue(9, 1, 10);
        t.on_enqueue(9, 1, true, false, 20);
        t.on_drop(9, 1);
        t.on_drop(9, 1); // double-drop is a no-op
        assert_eq!(t.active_len(), 0);
        let j = t.to_json();
        let drops = j.get("drops").unwrap().as_array().unwrap();
        assert_eq!(drops.len(), 1);
        assert_eq!(drops[0].get("hop").unwrap().as_i64(), Some(1));
        assert_eq!(drops[0].get("count").unwrap().as_i64(), Some(1));
        assert_eq!(j.get("dropped_packets").unwrap().as_i64(), Some(1));
    }

    #[test]
    fn sampled_flows_is_deterministic_and_proportional() {
        let cfg = TraceConfig::SampledFlows {
            permille: 250,
            seed: 42,
        };
        let t = SpanTracker::new(cfg);
        let t2 = SpanTracker::new(cfg);
        let picked: Vec<u64> = (0..4_000).filter(|&f| t.tracked_flow(f)).collect();
        let picked2: Vec<u64> = (0..4_000).filter(|&f| t2.tracked_flow(f)).collect();
        assert_eq!(picked, picked2, "sampling must be stateless");
        let frac = picked.len() as f64 / 4_000.0;
        assert!((0.20..0.30).contains(&frac), "got fraction {frac}");
        // A different seed picks a different subset.
        let t3 = SpanTracker::new(TraceConfig::SampledFlows {
            permille: 250,
            seed: 43,
        });
        let picked3: Vec<u64> = (0..4_000).filter(|&f| t3.tracked_flow(f)).collect();
        assert_ne!(picked, picked3);
        // Untracked flows never allocate span state.
        let mut t4 = SpanTracker::new(cfg);
        let untracked: Vec<u64> = (0..4_000)
            .filter(|&f| !t4.tracked_flow(f))
            .take(10)
            .collect();
        for f in untracked {
            t4.on_enqueue(f, f, true, true, 0);
        }
        assert_eq!(t4.active_len(), 0);
    }

    #[test]
    fn consumed_packets_are_forgotten_without_a_drop() {
        let mut t = SpanTracker::new(TraceConfig::Full);
        t.on_enqueue(5, 2, false, true, 0);
        t.on_consumed(5, 2);
        assert_eq!(t.active_len(), 0);
        assert!(t
            .to_json()
            .get("drops")
            .unwrap()
            .as_array()
            .unwrap()
            .is_empty());
    }

    #[test]
    fn stage_rows_roundtrip_through_json() {
        let mut t = SpanTracker::new(TraceConfig::Full);
        for i in 0..500u64 {
            t.on_enqueue(i, 3, true, true, 0);
            t.on_dequeue(i, 3, 100 + i * 17);
            t.on_deliver(i, 3, 0, 200 + i * 29);
        }
        let j = t.to_json();
        for row in j.get("stages").unwrap().as_array().unwrap() {
            let s = sketch_from_json(row).unwrap();
            let stage = row.get("stage").unwrap().as_str().unwrap();
            let hop = row.get("hop").unwrap().as_i64().unwrap();
            let idx = STAGE_NAMES.iter().position(|n| *n == stage).unwrap() as u8;
            let orig = t.sketch(idx, hop as u8).unwrap();
            assert_eq!(s.count(), orig.count(), "{stage}@{hop}");
            for q in [0.5, 0.99, 0.999] {
                assert_eq!(s.quantile(q), orig.quantile(q), "{stage}@{hop} q{q}");
            }
        }
    }

    #[test]
    fn describe_is_stable() {
        assert_eq!(TraceConfig::Off.describe(), "off");
        assert_eq!(TraceConfig::Full.describe(), "full");
        assert_eq!(
            TraceConfig::SampledFlows {
                permille: 64,
                seed: 9
            }
            .describe(),
            "sampled(64/1000,seed=9)"
        );
    }
}
