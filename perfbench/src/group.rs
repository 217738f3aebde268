//! `group-live`: a 4-daemon loopback group replaying a BU-94 prefix.
//!
//! Every round starts a fresh cluster, so every round replays the same
//! prefix from cold caches and yields the same local/remote/miss mix;
//! rounds repeat until the run has lasted its seconds. One client thread
//! sends each request to its client's cache and waits for the answer
//! (closed loop), timing every call.

use crate::measure::{cpu_seconds, Hist, Segments, ThreadPeak};
use coopcache_core::PlacementScheme;
use coopcache_net::{ClusterConfig, LoopbackCluster};
use coopcache_obs::{
    Event, EventSink, FaultOp, PlacementRole, SinkHandle, SpanKind, TraceAssembler,
};
use coopcache_proxy::RequestOutcome;
use coopcache_trace::{Partitioner, Trace};
use coopcache_types::{ByteSize, Request};
use std::collections::HashSet;
use std::io;
use std::sync::{Arc, Mutex, PoisonError};
use std::time::{Duration, Instant};

pub const CACHES: u16 = 4;
/// Requests replayed per round: long enough to leave the cold start
/// (about 2 s a round on a 2-core host), short enough for several rounds
/// per run.
pub const PREFIX: usize = 50_000;
/// Per-cache capacity, well below the prefix's working set, so inserts
/// evict and EA's placement decisions matter.
pub const PER_CACHE: ByteSize = ByteSize::from_mb(1);

/// The replayed prefix with each request's cache and first-reference
/// flag worked out in advance.
pub struct Replay {
    requests: Vec<Request>,
    caches: Vec<usize>,
    first_ref: Vec<bool>,
    pub distinct: u64,
}

impl Replay {
    pub fn new(trace: &Trace) -> Self {
        let requests = trace.requests()[..PREFIX.min(trace.len())].to_vec();
        let caches = requests
            .iter()
            .enumerate()
            .map(|(i, r)| {
                Partitioner::ByClientModulo
                    .assign(r, i, usize::from(CACHES))
                    .index()
            })
            .collect();
        let mut seen = HashSet::new();
        let first_ref: Vec<bool> = requests.iter().map(|r| seen.insert(r.doc)).collect();
        Self {
            requests,
            caches,
            distinct: seen.len() as u64,
            first_ref,
        }
    }

    pub fn len(&self) -> u64 {
        self.requests.len() as u64
    }
}

pub fn start_cluster() -> io::Result<LoopbackCluster> {
    LoopbackCluster::start_with_config(ClusterConfig::new(CACHES, PER_CACHE, PlacementScheme::Ea))
}

/// Sums over the rounds of one phase.
#[derive(Default)]
pub struct Totals {
    pub rounds: u64,
    pub requests: u64,
    pub failed: u64,
    pub local: u64,
    pub remote: u64,
    pub miss: u64,
    pub local_ns: Hist,
    pub remote_ns: Hist,
    pub miss_ns: Hist,
    /// One segment per round.
    pub segments: Segments,
    /// Counters read from every daemon's `OP_STATS` document.
    pub shed: u64,
    pub peer_faults: u64,
    pub failovers: u64,
    pub conn_reused: u64,
    pub origin_served: u64,
    /// Spans the benchmark recorded around its own calls (traced only).
    pub bench_spans: u64,
}

impl Totals {
    pub fn hit_pct(&self) -> f64 {
        100.0 * (self.local + self.remote) as f64 / (self.requests - self.failed).max(1) as f64
    }
}

/// The daemons' own event stream, captured during traced rounds.
#[derive(Default)]
pub struct DaemonEvents {
    pub spans: TraceAssembler,
    pub ea_store: u64,
    pub ea_decline: u64,
    pub ea_promote: u64,
    pub icp_timeouts: u64,
    /// Reused peer connections, as reported by both ends.
    pub peer_conn_reused: u64,
}

impl DaemonEvents {
    /// Adds another capture's counts (not its spans) to these.
    pub fn add_counts(&mut self, other: &DaemonEvents) {
        self.ea_store += other.ea_store;
        self.ea_decline += other.ea_decline;
        self.ea_promote += other.ea_promote;
        self.icp_timeouts += other.icp_timeouts;
        self.peer_conn_reused += other.peer_conn_reused;
    }
}

impl EventSink for DaemonEvents {
    fn emit(&mut self, event: &Event) {
        match event {
            Event::Span(_) => self.spans.observe(event),
            Event::Placement { role, stored, .. } => match (role, stored) {
                (PlacementRole::RequesterStore, true) => self.ea_store += 1,
                (PlacementRole::RequesterStore, false) => self.ea_decline += 1,
                (PlacementRole::ResponderPromote, true) => self.ea_promote += 1,
                _ => {}
            },
            Event::PeerFault {
                op: FaultOp::Icp,
                error: "silent",
                ..
            } => self.icp_timeouts += 1,
            Event::ConnReused { peer: Some(_), .. } => self.peer_conn_reused += 1,
            _ => {}
        }
    }
}

/// Reads one counter from a daemon's `OP_STATS` JSON document.
pub fn stats_counter(stats_json: &str, name: &str) -> u64 {
    let needle = format!("\"{name}\":");
    stats_json.find(&needle).map_or(0, |at| {
        stats_json[at + needle.len()..]
            .bytes()
            .take_while(u8::is_ascii_digit)
            .fold(0, |acc, b| acc * 10 + u64::from(b - b'0'))
    })
}

/// Replays the prefix once on `cluster`, then shuts it down.
pub fn round(
    replay: &Replay,
    mut cluster: LoopbackCluster,
    events: Option<&Arc<Mutex<DaemonEvents>>>,
    totals: &mut Totals,
    threads: &mut ThreadPeak,
    problems: &mut Vec<String>,
) {
    if let Some(events) = events {
        cluster.set_sink(SinkHandle::from_arc(Arc::clone(events)));
    }
    // The benchmark's own spans around each call, kept in memory.
    let mut spans: Vec<(u64, u64)> = Vec::with_capacity(if events.is_some() {
        replay.requests.len()
    } else {
        0
    });
    let (mut local, mut remote, mut miss, mut failed) = (0u64, 0u64, 0u64, 0u64);
    let mut first_ref_not_miss = 0u64;
    let mut self_responder = 0u64;
    let cpu0 = cpu_seconds();
    let started = Instant::now();
    for (i, req) in replay.requests.iter().enumerate() {
        let cache = replay.caches[i];
        let call = Instant::now();
        let result = cluster.request(cache, req.doc, req.size);
        let ns = call.elapsed().as_nanos() as u64;
        if events.is_some() {
            let from = call.duration_since(started).as_nanos() as u64;
            spans.push((from, from + ns));
        }
        match result {
            Ok(RequestOutcome::LocalHit) => {
                local += 1;
                totals.local_ns.record(ns);
            }
            Ok(RequestOutcome::RemoteHit { responder, .. }) => {
                remote += 1;
                totals.remote_ns.record(ns);
                self_responder += u64::from(responder.index() == cache);
            }
            Ok(RequestOutcome::Miss { .. }) => {
                miss += 1;
                totals.miss_ns.record(ns);
            }
            Err(_) => failed += 1,
        }
        if replay.first_ref[i] && !matches!(result, Ok(RequestOutcome::Miss { .. })) {
            first_ref_not_miss += 1;
        }
        if i == replay.requests.len() / 2 {
            threads.sample();
        }
    }
    totals.segments.push(
        replay.len(),
        started.elapsed().as_secs_f64(),
        cpu_seconds() - cpu0,
    );

    let n = replay.len();
    let origin = cluster.origin_fetches();
    if local + remote + miss + failed != n {
        problems.push(format!(
            "group-live: {local} local + {remote} remote + {miss} miss + {failed} failed != {n} attempted"
        ));
    }
    if origin != miss {
        problems.push(format!(
            "group-live: origin served {origin} documents but the client counted {miss} misses"
        ));
    }
    if first_ref_not_miss > 0 || miss < replay.distinct {
        problems.push(format!(
            "group-live: {first_ref_not_miss} first references were not misses; {miss} misses < {} distinct documents",
            replay.distinct
        ));
    }
    if self_responder > 0 {
        problems.push(format!(
            "group-live: {self_responder} remote hits named the requester as responder"
        ));
    }
    for i in 0..cluster.len() {
        let stats = cluster.daemon(i).stats_json();
        totals.shed += stats_counter(&stats, "admission-shed");
        totals.peer_faults += stats_counter(&stats, "peer-fault");
        totals.failovers += stats_counter(&stats, "failover");
        totals.conn_reused += stats_counter(&stats, "connections-reused");
    }
    totals.origin_served += origin;
    totals.rounds += 1;
    totals.requests += n;
    totals.failed += failed;
    totals.local += local;
    totals.remote += remote;
    totals.miss += miss;
    totals.bench_spans += spans.len() as u64;
    // The sink's lock is never held here: shutdown joins threads that
    // may still emit.
    cluster.shutdown();
}

/// Runs untraced rounds until `seconds` have passed (at least one); the
/// first round uses `first`, later rounds start their own cluster.
pub fn phase(
    replay: &Replay,
    first: Option<LoopbackCluster>,
    seconds: f64,
    threads: &mut ThreadPeak,
    problems: &mut Vec<String>,
) -> io::Result<Totals> {
    let mut totals = Totals::default();
    let started = Instant::now();
    let mut first = first;
    loop {
        let cluster = match first.take() {
            Some(c) => c,
            None => start_cluster()?,
        };
        threads.sample();
        round(replay, cluster, None, &mut totals, threads, problems);
        if started.elapsed() >= Duration::from_secs_f64(seconds) {
            return Ok(totals);
        }
    }
}

/// Durations folded out of the daemons' span trees, in nanoseconds.
#[derive(Default)]
pub struct SpanTimes {
    pub icp_round: Hist,
    pub peer_fetch: Hist,
    pub doc_serve: Hist,
    pub origin_fetch: Hist,
    /// Self time of request roots that left their cache (remote hits and
    /// misses): the root's duration minus what its child spans cover.
    pub request_self: Hist,
    pub spans: u64,
}

impl SpanTimes {
    pub fn merge(&mut self, other: &SpanTimes) {
        self.icp_round.merge(&other.icp_round);
        self.peer_fetch.merge(&other.peer_fetch);
        self.doc_serve.merge(&other.doc_serve);
        self.origin_fetch.merge(&other.origin_fetch);
        self.request_self.merge(&other.request_self);
        self.spans += other.spans;
    }
}

pub fn fold_spans(asm: &TraceAssembler) -> SpanTimes {
    let mut out = SpanTimes::default();
    for id in asm.trace_ids() {
        let Some(spans) = asm.spans(id) else { continue };
        for s in spans {
            out.spans += 1;
            let dur_ns = s.end_us.saturating_sub(s.start_us) * 1000;
            match s.kind {
                SpanKind::IcpRound => out.icp_round.record(dur_ns),
                SpanKind::PeerFetch => out.peer_fetch.record(dur_ns),
                SpanKind::DocServe => out.doc_serve.record(dur_ns),
                SpanKind::OriginFetch => out.origin_fetch.record(dur_ns),
                SpanKind::Request if s.status != "local-hit" => {
                    let mut children: Vec<(u64, u64)> = spans
                        .iter()
                        .filter(|c| c.parent == Some(s.span_id))
                        .map(|c| (c.start_us.max(s.start_us), c.end_us.min(s.end_us)))
                        .filter(|(a, b)| a < b)
                        .collect();
                    children.sort_unstable();
                    let mut covered = 0;
                    let mut reach = s.start_us;
                    for (a, b) in children {
                        let a = a.max(reach);
                        if b > a {
                            covered += b - a;
                            reach = b;
                        }
                    }
                    let self_us = s.end_us.saturating_sub(s.start_us).saturating_sub(covered);
                    out.request_self.record(self_us * 1000);
                }
                _ => {}
            }
        }
    }
    out
}

/// Locks the shared event capture after every emitting thread has been
/// joined.
pub fn take_events(events: &Arc<Mutex<DaemonEvents>>) -> DaemonEvents {
    std::mem::take(&mut *events.lock().unwrap_or_else(PoisonError::into_inner))
}
