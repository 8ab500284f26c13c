//! Per-query flight recorder: a bounded in-memory ring of completed
//! request audit records, plus a slow-query log.
//!
//! Every completed request — whether it succeeded, degraded, or was
//! cancelled — leaves one [`AuditRecord`] behind: its trace id, a
//! stage-level latency breakdown (admission / queue / dispatch /
//! kernel / traceback / net-rtt / merge), the engine that served it,
//! retry/hedge/degradation counts, its admission cost, and the cancel
//! reason if any. Records land in a fixed-capacity ring (oldest
//! evicted first); records whose total latency crosses the slow-query
//! threshold are *additionally* promoted to a separate slow-log ring
//! so a burst of fast queries cannot evict the interesting ones.
//!
//! The recorder is process-global and enabled by default: its cost is
//! one relaxed atomic load plus one short uncontended mutex-held encode
//! per completed request (bounded by the `obs_overhead` gate), which is
//! noise next to even the smallest kernel call. The rings keep records
//! encoded in byte buffers reserved up front, so recording allocates
//! nothing and the recorder's memory is bounded whatever thread files
//! a record.

use std::fmt;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering::Relaxed};
use std::sync::{Mutex, OnceLock};

/// Capacity of the main audit ring.
pub const RING_CAPACITY: usize = 512;
/// Capacity of the slow-log ring.
pub const SLOW_CAPACITY: usize = 128;
/// Default slow-query threshold: 100ms end-to-end.
pub const DEFAULT_SLOW_THRESHOLD_NS: u64 = 100_000_000;

/// A stage of a request's lifecycle, for latency attribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Stage {
    /// Admission control: validation + cost estimation at the edge.
    Admission,
    /// Time spent queued before a worker picked the job up.
    Queue,
    /// Scatter: building and sending per-shard sub-requests.
    Dispatch,
    /// Alignment kernel time.
    Kernel,
    /// Traceback reconstruction time.
    Traceback,
    /// Network round-trip: waiting on shard replies.
    NetRtt,
    /// Merging and ranking shard results.
    Merge,
}

impl Stage {
    /// Every stage, in lifecycle order.
    pub const ALL: [Stage; 7] = [
        Stage::Admission,
        Stage::Queue,
        Stage::Dispatch,
        Stage::Kernel,
        Stage::Traceback,
        Stage::NetRtt,
        Stage::Merge,
    ];

    /// Stable lowercase name (used in wire encoding keys, JSON, CLI).
    pub fn as_str(&self) -> &'static str {
        match self {
            Stage::Admission => "admission",
            Stage::Queue => "queue",
            Stage::Dispatch => "dispatch",
            Stage::Kernel => "kernel",
            Stage::Traceback => "traceback",
            Stage::NetRtt => "net_rtt",
            Stage::Merge => "merge",
        }
    }

    /// Stable wire tag. Append-only: never renumber.
    pub fn as_u8(&self) -> u8 {
        match self {
            Stage::Admission => 1,
            Stage::Queue => 2,
            Stage::Dispatch => 3,
            Stage::Kernel => 4,
            Stage::Traceback => 5,
            Stage::NetRtt => 6,
            Stage::Merge => 7,
        }
    }

    /// Inverse of [`Stage::as_u8`]; unknown tags (from a newer peer)
    /// return `None` and should be skipped, not rejected.
    pub fn from_u8(tag: u8) -> Option<Stage> {
        Some(match tag {
            1 => Stage::Admission,
            2 => Stage::Queue,
            3 => Stage::Dispatch,
            4 => Stage::Kernel,
            5 => Stage::Traceback,
            6 => Stage::NetRtt,
            7 => Stage::Merge,
            _ => return None,
        })
    }
}

impl fmt::Display for Stage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.write_str(self.as_str())
    }
}

/// One stage's measured wall-clock contribution.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub struct StageTiming {
    /// Which stage.
    pub stage: Stage,
    /// Nanoseconds spent in it.
    pub ns: u64,
}

/// A shard's self-reported timing summary, returned in its reply and
/// stitched into the gateway's audit record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct ShardTiming {
    /// Shard (slice) index.
    pub shard: u32,
    /// The shard-side request span id (parents under the gateway's
    /// request span in the stitched tree).
    pub root_span: u64,
    /// Engine/ISA the shard served with (e.g. "AVX2", "scalar").
    pub engine: String,
    /// Gateway-measured round-trip to this shard, nanoseconds.
    pub rtt_ns: u64,
    /// Shard-side stage breakdown (queue, kernel, ...).
    pub stages: Vec<StageTiming>,
}

/// One completed request's audit record.
#[derive(Clone, Debug, Default, PartialEq, Eq)]
pub struct AuditRecord {
    /// Distributed trace id (0 = untraced).
    pub trace_id: u64,
    /// Wire-level query id (0 when not applicable).
    pub query_id: u64,
    /// End-to-end wall clock, nanoseconds.
    pub total_ns: u64,
    /// Local stage breakdown; stages should roughly partition
    /// `total_ns` so `swsimd trace` can cross-check the sum.
    pub stages: Vec<StageTiming>,
    /// Per-shard summaries (gateway records only).
    pub shards: Vec<ShardTiming>,
    /// Engine/ISA that served the request (merged view at a gateway).
    pub engine: String,
    /// Retries spent across all shards.
    pub retries: u32,
    /// Hedged sub-requests issued.
    pub hedges: u32,
    /// True if the response was served degraded (missing shards).
    pub degraded: bool,
    /// Admission cost units charged.
    pub cost: u64,
    /// Cancel reason (`deadline`, `client_drop`, ...) or error code;
    /// empty string = completed normally.
    pub cancel: String,
    /// True if the request produced a successful reply.
    pub ok: bool,
    /// Tenant the request was admitted under (`"default"` for
    /// anonymous traffic; empty in records from peers that predate
    /// multi-tenancy), so slow-query triage can attribute noisy
    /// neighbors.
    pub tenant: String,
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

fn push_stages(out: &mut String, stages: &[StageTiming]) {
    out.push('{');
    for (i, st) in stages.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        push_json_str(out, st.stage.as_str());
        out.push(':');
        out.push_str(&st.ns.to_string());
    }
    out.push('}');
}

impl AuditRecord {
    /// Sum of the local stage breakdown, nanoseconds.
    pub fn stage_sum_ns(&self) -> u64 {
        self.stages.iter().map(|s| s.ns).sum()
    }

    /// Hand-rolled JSON object (the obs crate takes no serializer
    /// dependency; the schema is documented in DESIGN.md §14).
    pub fn to_json(&self) -> String {
        let mut out = String::with_capacity(256);
        out.push_str("{\"trace_id\":");
        out.push_str(&self.trace_id.to_string());
        out.push_str(",\"query_id\":");
        out.push_str(&self.query_id.to_string());
        out.push_str(",\"total_ns\":");
        out.push_str(&self.total_ns.to_string());
        out.push_str(",\"ok\":");
        out.push_str(if self.ok { "true" } else { "false" });
        out.push_str(",\"degraded\":");
        out.push_str(if self.degraded { "true" } else { "false" });
        out.push_str(",\"engine\":");
        push_json_str(&mut out, &self.engine);
        out.push_str(",\"retries\":");
        out.push_str(&self.retries.to_string());
        out.push_str(",\"hedges\":");
        out.push_str(&self.hedges.to_string());
        out.push_str(",\"cost\":");
        out.push_str(&self.cost.to_string());
        out.push_str(",\"cancel\":");
        push_json_str(&mut out, &self.cancel);
        out.push_str(",\"tenant\":");
        push_json_str(&mut out, &self.tenant);
        out.push_str(",\"stages\":");
        push_stages(&mut out, &self.stages);
        out.push_str(",\"shards\":[");
        for (i, sh) in self.shards.iter().enumerate() {
            if i > 0 {
                out.push(',');
            }
            out.push_str("{\"shard\":");
            out.push_str(&sh.shard.to_string());
            out.push_str(",\"root_span\":");
            out.push_str(&sh.root_span.to_string());
            out.push_str(",\"engine\":");
            push_json_str(&mut out, &sh.engine);
            out.push_str(",\"rtt_ns\":");
            out.push_str(&sh.rtt_ns.to_string());
            out.push_str(",\"stages\":");
            push_stages(&mut out, &sh.stages);
            out.push('}');
        }
        out.push_str("]}");
        out
    }
}

// ---------------------------------------------------------------------
// Binary encoding: the layout `Msg::FlightRecords` and the shard-timing
// wire extension carry, and the form the recorder keeps records in.
// Decoding never panics; an error names the field that was short or
// invalid.
// ---------------------------------------------------------------------

const AUDIT_FLAG_OK: u8 = 1;
const AUDIT_FLAG_DEGRADED: u8 = 2;

fn take<'a>(buf: &mut &'a [u8], n: usize, what: &'static str) -> Result<&'a [u8], &'static str> {
    if buf.len() < n {
        return Err(what);
    }
    let (head, rest) = buf.split_at(n);
    *buf = rest;
    Ok(head)
}

fn read<const N: usize>(buf: &mut &[u8], what: &'static str) -> Result<[u8; N], &'static str> {
    Ok(take(buf, N, what)?
        .try_into()
        .expect("take returned N bytes"))
}

/// A length-prefixed string, cut to 255 bytes at a character boundary.
fn push_len_str(out: &mut Vec<u8>, s: &str) {
    let mut n = s.len().min(u8::MAX as usize);
    while !s.is_char_boundary(n) {
        n -= 1;
    }
    out.push(n as u8);
    out.extend_from_slice(&s.as_bytes()[..n]);
}

fn read_len_str(buf: &mut &[u8], what: &'static str) -> Result<String, &'static str> {
    let [n] = read(buf, what)?;
    let bytes = take(buf, n as usize, what)?;
    String::from_utf8(bytes.to_vec()).map_err(|_| what)
}

fn push_stage_timings(out: &mut Vec<u8>, stages: &[StageTiming]) {
    out.push(stages.len().min(u8::MAX as usize) as u8);
    for st in stages.iter().take(u8::MAX as usize) {
        out.push(st.stage.as_u8());
        out.extend_from_slice(&st.ns.to_le_bytes());
    }
}

/// Unknown stage tags (from a newer peer) are skipped, not rejected.
fn read_stage_timings(buf: &mut &[u8]) -> Result<Vec<StageTiming>, &'static str> {
    let [n] = read(buf, "stage count")?;
    let mut stages = Vec::with_capacity((n as usize).min(Stage::ALL.len()));
    for _ in 0..n {
        let [tag] = read(buf, "stage tag")?;
        let ns = u64::from_le_bytes(read(buf, "stage ns")?);
        if let Some(stage) = Stage::from_u8(tag) {
            stages.push(StageTiming { stage, ns });
        }
    }
    Ok(stages)
}

impl ShardTiming {
    /// Append this summary's binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.shard.to_le_bytes());
        out.extend_from_slice(&self.root_span.to_le_bytes());
        out.extend_from_slice(&self.rtt_ns.to_le_bytes());
        push_len_str(out, &self.engine);
        push_stage_timings(out, &self.stages);
    }

    /// Decode a summary. Trailing bytes are ignored on purpose: a newer
    /// peer may append fields.
    pub fn decode(mut bytes: &[u8]) -> Result<ShardTiming, &'static str> {
        let buf = &mut bytes;
        Ok(ShardTiming {
            shard: u32::from_le_bytes(read(buf, "timing shard")?),
            root_span: u64::from_le_bytes(read(buf, "timing root span")?),
            rtt_ns: u64::from_le_bytes(read(buf, "timing rtt")?),
            engine: read_len_str(buf, "timing engine")?,
            stages: read_stage_timings(buf)?,
        })
    }
}

impl AuditRecord {
    /// Append this record's binary encoding to `out`.
    pub fn encode(&self, out: &mut Vec<u8>) {
        out.extend_from_slice(&self.trace_id.to_le_bytes());
        out.extend_from_slice(&self.query_id.to_le_bytes());
        out.extend_from_slice(&self.total_ns.to_le_bytes());
        out.extend_from_slice(&self.cost.to_le_bytes());
        out.extend_from_slice(&self.retries.to_le_bytes());
        out.extend_from_slice(&self.hedges.to_le_bytes());
        let mut flags = 0u8;
        if self.ok {
            flags |= AUDIT_FLAG_OK;
        }
        if self.degraded {
            flags |= AUDIT_FLAG_DEGRADED;
        }
        out.push(flags);
        push_len_str(out, &self.engine);
        push_len_str(out, &self.cancel);
        push_stage_timings(out, &self.stages);
        out.push(self.shards.len().min(u8::MAX as usize) as u8);
        for sh in self.shards.iter().take(u8::MAX as usize) {
            let len_at = out.len();
            out.extend_from_slice(&[0, 0]);
            sh.encode(out);
            let len = (out.len() - len_at - 2) as u16;
            out[len_at..len_at + 2].copy_from_slice(&len.to_le_bytes());
        }
        push_len_str(out, &self.tenant);
    }

    /// Decode one record from the front of `buf`, advancing past it. A
    /// record that ends before its tenant (from a peer that predates
    /// tenants) decodes with an empty tenant.
    pub fn decode(buf: &mut &[u8]) -> Result<AuditRecord, &'static str> {
        let trace_id = u64::from_le_bytes(read(buf, "audit trace id")?);
        let query_id = u64::from_le_bytes(read(buf, "audit query id")?);
        let total_ns = u64::from_le_bytes(read(buf, "audit total")?);
        let cost = u64::from_le_bytes(read(buf, "audit cost")?);
        let retries = u32::from_le_bytes(read(buf, "audit retries")?);
        let hedges = u32::from_le_bytes(read(buf, "audit hedges")?);
        let [flags] = read(buf, "audit flags")?;
        let engine = read_len_str(buf, "audit engine")?;
        let cancel = read_len_str(buf, "audit cancel")?;
        let stages = read_stage_timings(buf)?;
        let [n_shards] = read(buf, "audit shard count")?;
        let mut shards = Vec::with_capacity(n_shards as usize);
        for _ in 0..n_shards {
            let len = u16::from_le_bytes(read(buf, "audit shard timing length")?);
            shards.push(ShardTiming::decode(take(
                buf,
                len as usize,
                "audit shard timing",
            )?)?);
        }
        let tenant = if buf.is_empty() {
            String::new()
        } else {
            read_len_str(buf, "audit tenant")?
        };
        Ok(AuditRecord {
            trace_id,
            query_id,
            total_ns,
            stages,
            shards,
            engine,
            retries,
            hedges,
            degraded: flags & AUDIT_FLAG_DEGRADED != 0,
            cost,
            cancel,
            ok: flags & AUDIT_FLAG_OK != 0,
            tenant,
        })
    }
}

/// Bytes per record slot. A gateway record over three shards encodes to
/// about 250 bytes; one too large for a slot is filed with its
/// per-shard timings cut from the end until it fits.
const SLOT_BYTES: usize = 1024;

/// A ring of encoded records in fixed-size slots of one buffer
/// allocated up front: record `n` goes to slot `n % slots`, overwriting
/// the oldest. The ring therefore keeps no allocation made by the
/// thread that filed a record. Kept as live objects, records filed by
/// short-lived threads would pin the allocator's per-thread heaps at
/// their high-water mark.
struct Log {
    /// `slots × SLOT_BYTES`, zeroed, so untouched slots cost no
    /// resident memory.
    bytes: Vec<u8>,
    /// Per slot: the trace id and encoded length of the record it holds.
    held: Vec<(u64, usize)>,
    /// Records filed so far.
    filed: usize,
}

impl Log {
    fn new(slots: usize) -> Log {
        Log {
            bytes: vec![0; slots * SLOT_BYTES],
            held: vec![(0, 0); slots],
            filed: 0,
        }
    }

    /// Slots holding a record, newest first.
    fn live(&self) -> impl Iterator<Item = usize> + '_ {
        let slots = self.held.len();
        (1..=self.filed.min(slots)).map(move |back| (self.filed - back) % slots)
    }

    #[cfg(test)]
    fn len(&self) -> usize {
        self.live().count()
    }

    /// File an encoded record of at most [`SLOT_BYTES`].
    fn push(&mut self, trace_id: u64, encoded: &[u8]) {
        let slot = self.filed % self.held.len();
        self.bytes[slot * SLOT_BYTES..][..encoded.len()].copy_from_slice(encoded);
        self.held[slot] = (trace_id, encoded.len());
        self.filed += 1;
    }

    fn decode(&self, slot: usize) -> AuditRecord {
        let len = self.held[slot].1;
        AuditRecord::decode(&mut &self.bytes[slot * SLOT_BYTES..][..len])
            .expect("the ring holds records it encoded")
    }

    /// The record filed under `trace_id` most recently, if still held.
    fn lookup(&self, trace_id: u64) -> Option<AuditRecord> {
        let slot = self.live().find(|&s| self.held[s].0 == trace_id)?;
        Some(self.decode(slot))
    }

    /// The `n` most recent records, newest first.
    fn recent(&self, n: usize) -> Vec<AuditRecord> {
        self.live().take(n).map(|s| self.decode(s)).collect()
    }
}

struct Rings {
    ring: Log,
    slow: Log,
    /// Encoding buffer, reused for every record.
    scratch: Vec<u8>,
}

/// The process-global per-query flight recorder.
pub struct FlightRecorder {
    rings: Mutex<Rings>,
    enabled: AtomicBool,
    slow_threshold_ns: AtomicU64,
    recorded: AtomicU64,
    promoted: AtomicU64,
}

static GLOBAL: OnceLock<FlightRecorder> = OnceLock::new();

/// The process-global recorder (created on first use, enabled).
pub fn global() -> &'static FlightRecorder {
    GLOBAL.get_or_init(FlightRecorder::new)
}

impl FlightRecorder {
    fn new() -> FlightRecorder {
        FlightRecorder {
            rings: Mutex::new(Rings {
                ring: Log::new(RING_CAPACITY),
                slow: Log::new(SLOW_CAPACITY),
                scratch: Vec::with_capacity(SLOT_BYTES),
            }),
            enabled: AtomicBool::new(true),
            slow_threshold_ns: AtomicU64::new(DEFAULT_SLOW_THRESHOLD_NS),
            recorded: AtomicU64::new(0),
            promoted: AtomicU64::new(0),
        }
    }

    /// Turn recording on or off (it defaults to on).
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Relaxed);
    }

    /// Is recording on?
    pub fn enabled(&self) -> bool {
        self.enabled.load(Relaxed)
    }

    /// Current slow-query promotion threshold, nanoseconds.
    pub fn slow_threshold_ns(&self) -> u64 {
        self.slow_threshold_ns.load(Relaxed)
    }

    /// Set the slow-query promotion threshold, nanoseconds.
    pub fn set_slow_threshold_ns(&self, ns: u64) {
        self.slow_threshold_ns.store(ns, Relaxed);
    }

    /// Total records accepted since process start.
    pub fn recorded(&self) -> u64 {
        self.recorded.load(Relaxed)
    }

    /// Records promoted to the slow log since process start.
    pub fn promoted(&self) -> u64 {
        self.promoted.load(Relaxed)
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Rings> {
        self.rings.lock().unwrap_or_else(|e| e.into_inner())
    }

    /// Record one completed request. Cheap: a relaxed load when
    /// disabled; one short mutex-held encode when enabled.
    pub fn record(&self, mut rec: AuditRecord) {
        if !self.enabled.load(Relaxed) {
            return;
        }
        self.recorded.fetch_add(1, Relaxed);
        let slow = rec.total_ns >= self.slow_threshold_ns.load(Relaxed);
        let mut rings = self.lock();
        let Rings {
            ring,
            slow: slow_log,
            scratch,
        } = &mut *rings;
        scratch.clear();
        rec.encode(scratch);
        while scratch.len() > SLOT_BYTES && rec.shards.pop().is_some() {
            scratch.clear();
            rec.encode(scratch);
        }
        if scratch.len() > SLOT_BYTES {
            return;
        }
        if slow {
            self.promoted.fetch_add(1, Relaxed);
            slow_log.push(rec.trace_id, scratch);
        }
        ring.push(rec.trace_id, scratch);
    }

    /// Find a record by trace id (checks the slow log too, which
    /// outlives the main ring under fast-query churn).
    pub fn lookup(&self, trace_id: u64) -> Option<AuditRecord> {
        let rings = self.lock();
        rings
            .ring
            .lookup(trace_id)
            .or_else(|| rings.slow.lookup(trace_id))
    }

    /// The `n` most recent records, newest first.
    pub fn recent(&self, n: usize) -> Vec<AuditRecord> {
        self.lock().ring.recent(n)
    }

    /// The `n` most recent slow-log records, newest first.
    pub fn slowlog(&self, n: usize) -> Vec<AuditRecord> {
        self.lock().slow.recent(n)
    }

    /// JSON array of the `n` most recent slow-log records.
    pub fn slowlog_json(&self, n: usize) -> String {
        json_array(&self.slowlog(n))
    }

    /// JSON array of the `n` most recent records.
    pub fn recent_json(&self, n: usize) -> String {
        json_array(&self.recent(n))
    }
}

/// Render records as a JSON array.
pub fn json_array(records: &[AuditRecord]) -> String {
    let mut out = String::from("[");
    for (i, r) in records.iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        out.push_str(&r.to_json());
    }
    out.push(']');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    fn rec(trace_id: u64, total_ns: u64) -> AuditRecord {
        AuditRecord {
            trace_id,
            total_ns,
            engine: "AVX2".into(),
            stages: vec![
                StageTiming {
                    stage: Stage::Queue,
                    ns: total_ns / 2,
                },
                StageTiming {
                    stage: Stage::Kernel,
                    ns: total_ns / 2,
                },
            ],
            ok: true,
            ..Default::default()
        }
    }

    #[test]
    fn ring_is_bounded_and_lookup_works() {
        let fr = FlightRecorder::new();
        fr.set_slow_threshold_ns(u64::MAX);
        for i in 0..(RING_CAPACITY as u64 + 10) {
            fr.record(rec(i + 1, 1000));
        }
        let rings = fr.lock();
        assert_eq!(rings.ring.len(), RING_CAPACITY);
        drop(rings);
        // Oldest 10 evicted; newest still present.
        assert!(fr.lookup(5).is_none());
        assert!(fr.lookup(RING_CAPACITY as u64 + 10).is_some());
        assert_eq!(fr.recorded(), RING_CAPACITY as u64 + 10);
        assert_eq!(fr.promoted(), 0);
    }

    #[test]
    fn slow_queries_are_promoted_and_survive_churn() {
        let fr = FlightRecorder::new();
        fr.set_slow_threshold_ns(1_000_000);
        fr.record(rec(42, 5_000_000)); // slow
        for i in 0..RING_CAPACITY as u64 + 1 {
            fr.record(rec(1000 + i, 10)); // fast churn evicts the ring
        }
        assert_eq!(fr.promoted(), 1);
        let found = fr.lookup(42).expect("slow record survives ring churn");
        assert_eq!(found.total_ns, 5_000_000);
        assert_eq!(fr.slowlog(10).len(), 1);
    }

    #[test]
    fn disabled_recorder_drops_records() {
        let fr = FlightRecorder::new();
        fr.set_enabled(false);
        fr.record(rec(7, 1000));
        assert_eq!(fr.recorded(), 0);
        assert!(fr.lookup(7).is_none());
    }

    #[test]
    fn stage_tags_round_trip() {
        for st in Stage::ALL {
            assert_eq!(Stage::from_u8(st.as_u8()), Some(st));
        }
        assert_eq!(Stage::from_u8(0), None);
        assert_eq!(Stage::from_u8(200), None);
    }

    #[test]
    fn json_shape_is_stable() {
        let mut r = rec(3, 1000);
        r.shards.push(ShardTiming {
            shard: 1,
            root_span: 9,
            engine: "SSE4.1".into(),
            rtt_ns: 777,
            stages: vec![StageTiming {
                stage: Stage::Kernel,
                ns: 500,
            }],
        });
        r.cancel = "deadline".into();
        r.tenant = "acme".into();
        let j = r.to_json();
        for needle in [
            "\"trace_id\":3",
            "\"total_ns\":1000",
            "\"engine\":\"AVX2\"",
            "\"stages\":{\"queue\":500,\"kernel\":500}",
            "\"shards\":[{\"shard\":1,\"root_span\":9,\"engine\":\"SSE4.1\",\"rtt_ns\":777",
            "\"cancel\":\"deadline\"",
            "\"tenant\":\"acme\"",
        ] {
            assert!(j.contains(needle), "{needle} missing from {j}");
        }
        // Escaping: a hostile engine string stays valid JSON.
        r.engine = "a\"b\\c\n".into();
        assert!(r.to_json().contains("a\\\"b\\\\c\\u000a"));
        assert_eq!(r.stage_sum_ns(), 1000);
    }

    fn with_shards(mut r: AuditRecord, n: u64) -> AuditRecord {
        for s in 0..n {
            r.shards.push(ShardTiming {
                shard: s as u32,
                root_span: r.trace_id,
                engine: "é".repeat(20),
                rtt_ns: s,
                stages: vec![],
            });
        }
        r
    }

    /// Records of mixed sizes wrap around a small ring: the newest 16
    /// are held, newest first, and each decodes to exactly what was
    /// filed.
    #[test]
    fn log_wraps_without_corrupting_records() {
        let mut log = Log::new(16);
        let mut filed = Vec::new();
        let mut scratch = Vec::new();
        for i in 0..200u64 {
            let r = with_shards(rec(i + 1, i * 7), i * 5 % 9);
            scratch.clear();
            r.encode(&mut scratch);
            log.push(r.trace_id, &scratch);
            filed.push(r);
            let newest: Vec<_> = filed.iter().rev().take(16).cloned().collect();
            assert_eq!(log.len(), newest.len());
            assert_eq!(log.recent(usize::MAX), newest);
            assert_eq!(log.lookup(i + 1).as_ref(), filed.last());
        }
        assert!(log.lookup(1).is_none(), "the oldest were overwritten");
    }

    /// A record too large for a slot is filed with its per-shard
    /// timings cut from the end until it fits.
    #[test]
    fn oversized_records_lose_trailing_shard_timings() {
        let fr = FlightRecorder::new();
        fr.record(with_shards(rec(7, 10), 40));
        let held = fr.lookup(7).expect("filed");
        assert!(!held.shards.is_empty() && held.shards.len() < 40);
        assert_eq!(
            held.shards,
            with_shards(rec(7, 10), 40).shards[..held.shards.len()]
        );
        let mut bytes = Vec::new();
        held.encode(&mut bytes);
        assert!(bytes.len() <= SLOT_BYTES);
    }

    /// Strings past 255 bytes are cut at a character boundary, so a
    /// cut record still decodes.
    #[test]
    fn long_strings_are_cut_on_a_character_boundary() {
        let mut r = rec(1, 10);
        r.engine = "é".repeat(200);
        let mut bytes = Vec::new();
        r.encode(&mut bytes);
        let back = AuditRecord::decode(&mut &bytes[..]).unwrap();
        assert_eq!(back.engine, "é".repeat(127));
    }
}
