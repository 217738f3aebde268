//! The traced run: per-layer numbers and the tracing overhead.
//!
//! A traced run first runs its own workload in two halves, untraced then
//! traced, and reports the difference in throughput as the tracing
//! overhead. It then measures every layer of the ladder on the run's
//! seed, so each traced run reports every per-layer metric: layers its
//! workload already crossed come from the workload's own halves, the
//! others from a short probe of the path that crosses them (one group
//! round, one second of pipelining). The simulator layers, which no
//! workload crosses, come from one pass over the paper grids. Small
//! operations are timed in batches through the public functions of
//! `core`, `proxy` and `net`, each row with its quartile spread.

use crate::group::{self, fold_spans, take_events, DaemonEvents, Replay, SpanTimes, Totals};
use crate::measure::{mix64, spread, time_batches, Segments, ThreadPeak};
use crate::pipelined::{Pipe, PipeStats, SEGMENT_S};
use crate::sweep::{self, Facts};
use crate::Report;
use coopcache_core::{CacheConfig, PlacementScheme, PolicyKind};
use coopcache_net::WireMessage;
use coopcache_obs::TraceCtx;
use coopcache_proxy::{ConcurrentNode, HttpRequest, HttpResponse, IcpQuery, IcpReply};
use coopcache_trace::Trace;
use coopcache_types::{ByteSize, CacheId, DocId, DurationMs, ExpirationAge, Timestamp};
use std::collections::HashSet;
use std::hint::black_box;
use std::io;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// Batches per micro row: the row reports their median and quartiles.
const BATCHES: usize = 15;
/// Operations per batch for codec calls.
const OPS: usize = 1 << 16;
/// Operations per batch for inserts, which each evict.
const INSERTS: usize = 1 << 14;
/// Entries the node-handler rows run against.
const NODE_ENTRIES: u64 = 100_000;
/// Seconds of pipelining when the pipelined path is probed.
const PIPE_PROBE_S: f64 = 1.0;

struct GroupLayer {
    untraced: Totals,
    traced: Totals,
    spans: SpanTimes,
    events: DaemonEvents,
}

#[derive(Default)]
pub struct Layers {
    group: Option<GroupLayer>,
    pipe: Option<PipeStats>,
    bench_spans: u64,
}

fn overhead_pct(untraced: &Segments, traced: &Segments) -> f64 {
    100.0 * (untraced.rate() - traced.rate()) / untraced.rate()
}

// In each traced run the workload's untraced and traced segments
// alternate, so a drift in the host's speed during the run falls on both
// halves alike instead of reading as tracing overhead.
impl Layers {
    /// `group-live` traced run: untraced and traced rounds alternate.
    pub fn group_phases(
        &mut self,
        replay: &Replay,
        first: Option<coopcache_net::LoopbackCluster>,
        seconds: f64,
        threads: &mut ThreadPeak,
        report: &mut Report,
    ) -> io::Result<()> {
        let layer = group_layer(replay, first, seconds, threads, report)?;
        report.metric(
            "trace.overhead_pct",
            overhead_pct(&layer.untraced.segments, &layer.traced.segments),
            "%",
        );
        self.group = Some(layer);
        Ok(())
    }

    /// `local-pipelined` traced run: untraced and traced seconds alternate.
    pub fn pipe_phases(
        &mut self,
        pipe: Pipe,
        seconds: f64,
        threads: &mut ThreadPeak,
        report: &mut Report,
    ) {
        let (mut untraced, mut traced) = (PipeStats::default(), PipeStats::default());
        let started = Instant::now();
        for k in 0.. {
            let is_traced = k % 2 == 1;
            let stats = pipe.run(SEGMENT_S, is_traced, threads, &mut report.problems);
            if is_traced {
                traced.merge(&stats);
            } else {
                untraced.merge(&stats);
            }
            if is_traced && started.elapsed().as_secs_f64() >= seconds {
                break;
            }
        }
        pipe.shutdown();
        report.metric(
            "trace.overhead_pct",
            overhead_pct(&untraced.segments, &traced.segments),
            "%",
        );
        self.bench_spans += traced.bench_spans;
        crate::count_pipe(report, &untraced);
        crate::count_pipe(report, &traced);
        self.pipe = Some(untraced);
    }

    /// Probes the paths the workload did not cross, then reports every
    /// per-layer metric.
    pub fn complete(
        mut self,
        trace: &Trace,
        seed: u64,
        threads: &mut ThreadPeak,
        report: &mut Report,
    ) -> io::Result<()> {
        let group = match self.group.take() {
            Some(g) => g,
            None => group_layer(&Replay::new(trace), None, 0.0, threads, report)?,
        };
        let pipe = match self.pipe.take() {
            Some(p) => p,
            None => {
                let pipe = Pipe::start(trace, seed)?;
                threads.sample();
                let stats = pipe.run(PIPE_PROBE_S, false, threads, &mut report.problems);
                pipe.shutdown();
                crate::count_pipe(report, &stats);
                stats
            }
        };
        let sim = sweep::pass(trace, &Facts::new(trace), &mut report.problems);
        report.attempted += sim.cells;

        let us = |ns: f64| ns / 1e3;
        let g = &group.untraced;
        report.metric("live.local_hit_p50_ns", g.local_ns.percentile(50.0), "ns");
        report.metric(
            "live.remote_hit_p50_us",
            us(g.remote_ns.percentile(50.0)),
            "us",
        );
        report.metric(
            "live.remote_hit_p99_us",
            us(g.remote_ns.percentile(99.0)),
            "us",
        );
        report.metric("live.miss_p50_us", us(g.miss_ns.percentile(50.0)), "us");
        report.metric("live.miss_p99_us", us(g.miss_ns.percentile(99.0)), "us");
        report.metric("live.req_per_s", g.segments.rate(), "1/s");

        let spans = &group.spans;
        report.metric(
            "net.icp_round_p50_us",
            us(spans.icp_round.percentile(50.0)),
            "us",
        );
        report.metric(
            "net.icp_round_p99_us",
            us(spans.icp_round.percentile(99.0)),
            "us",
        );
        report.metric(
            "net.peer_fetch_p50_us",
            us(spans.peer_fetch.percentile(50.0)),
            "us",
        );
        report.metric(
            "net.doc_serve_p50_us",
            us(spans.doc_serve.percentile(50.0)),
            "us",
        );
        report.metric(
            "net.origin_fetch_p50_us",
            us(spans.origin_fetch.percentile(50.0)),
            "us",
        );
        report.metric(
            "net.request_self_p50_us",
            us(spans.request_self.percentile(50.0)),
            "us",
        );
        // Counts are means per traced round: every round replays the same
        // prefix on a fresh cluster.
        let e = &group.events;
        let t = &group.traced;
        let per_round = |n: u64| n as f64 / t.rounds as f64;
        report.metric("net.icp_timeouts", per_round(e.icp_timeouts), "count");
        report.metric("net.conn_reused", per_round(t.conn_reused), "count");
        // Both ends report a reused peer exchange: the requester on its
        // pool checkout, the responder on the connection's later frame.
        report.metric(
            "net.pool_reuse_pct",
            100.0 * e.peer_conn_reused as f64 / (2 * spans.peer_fetch.count()).max(1) as f64,
            "%",
        );
        report.metric("net.peer_faults", per_round(t.peer_faults), "count");
        report.metric("net.failovers", per_round(t.failovers), "count");
        report.metric("origin.served", per_round(t.origin_served), "count");
        report.metric("proxy.ea_store", per_round(e.ea_store), "count");
        report.metric("proxy.ea_decline", per_round(e.ea_decline), "count");
        report.metric("proxy.ea_promote", per_round(e.ea_promote), "count");
        report.metric(
            "proxy.store_ratio",
            e.ea_store as f64 / (e.ea_store + e.ea_decline).max(1) as f64,
            "ratio",
        );
        report.metric(
            "trace.spans",
            (self.bench_spans + t.bench_spans + spans.spans) as f64,
            "count",
        );

        report.metric("pipe.p50_us", us(pipe.latency.percentile(50.0)), "us");
        report.metric("pipe.p99_us", us(pipe.latency.percentile(99.0)), "us");
        report.metric("pipe.req_per_s", pipe.segments.rate(), "1/s");

        report.metric("sim.sync_pass_ms", sim.sync_s * 1e3, "ms");
        report.metric("sim.des_pass_ms", sim.des_s * 1e3, "ms");
        report.metric(
            "sim.des_ns_per_request",
            1e9 * sim.des_s / sim.des_requests as f64,
            "ns",
        );
        report.metric(
            "sim.sync_req_per_s",
            sim.sync_requests as f64 / sim.sync_s,
            "1/s",
        );
        report.metric(
            "sim.des_req_per_s",
            sim.des_requests as f64 / sim.des_s,
            "1/s",
        );

        let docs: Vec<u64> = trace.requests().iter().map(|r| r.doc.as_u64()).collect();
        let mut touched = Vec::new();
        for (entries, label) in [(100_000u64, "100k"), (1_000_000, "1m")] {
            let keys = core_rows(&docs, seed, entries, label, report);
            touched.push(format!("{label}: {keys} of {entries}"));
        }
        report.health("core_entries_looked_up", touched.join(", "));
        node_rows(&docs, seed, report);
        wire_rows(trace, report);
        Ok(())
    }
}

/// Untraced and traced rounds alternate until `seconds` have passed (at
/// least one of each). Each traced round's daemon events are folded as
/// soon as its cluster has shut down, so memory stays at one round's
/// spans.
fn group_layer(
    replay: &Replay,
    first: Option<coopcache_net::LoopbackCluster>,
    seconds: f64,
    threads: &mut ThreadPeak,
    report: &mut Report,
) -> io::Result<GroupLayer> {
    let (mut untraced, mut traced) = (Totals::default(), Totals::default());
    let mut spans = SpanTimes::default();
    let mut events = DaemonEvents::default();
    let started = Instant::now();
    let mut first = first;
    loop {
        let cluster = match first.take() {
            Some(c) => c,
            None => group::start_cluster()?,
        };
        group::round(
            replay,
            cluster,
            None,
            &mut untraced,
            threads,
            &mut report.problems,
        );
        let sink = Arc::new(Mutex::new(DaemonEvents::default()));
        let cluster = group::start_cluster()?;
        group::round(
            replay,
            cluster,
            Some(&sink),
            &mut traced,
            threads,
            &mut report.problems,
        );
        let round = take_events(&sink);
        spans.merge(&fold_spans(&round.spans));
        events.add_counts(&round);
        if started.elapsed().as_secs_f64() >= seconds {
            break;
        }
    }
    crate::count_group(report, &untraced);
    crate::count_group(report, &traced);
    Ok(GroupLayer {
        untraced,
        traced,
        spans,
        events,
    })
}

fn row(report: &mut Report, name: &str, per_op_ns: &[f64]) {
    let s = spread(per_op_ns);
    report.metric(name, s.median, "ns");
    report.metric(&format!("{name}.iqr_pct"), s.iqr_pct, "%");
}

/// Resident document ids for the micro rows.
fn resident(seed: u64, i: u64) -> DocId {
    DocId::new(mix64(seed ^ mix64(i)))
}

/// The trace's document stream mapped onto the ids `resident(seed, i)`
/// for `i < n`, spread over all of them: the `i` range is cut into one
/// band per distinct document, in hashed order, and each reference picks
/// an id of its document's band at random. References keep the trace's
/// popularity skew over bands, and the ids they reach lie across the
/// whole resident set, not on one id per document.
fn mapped_stream(docs: &[u64], seed: u64, n: u64) -> Vec<DocId> {
    let mut bands: Vec<u64> = docs.iter().map(|&d| mix64(d)).collect();
    bands.sort_unstable();
    bands.dedup();
    let count = bands.len() as u64;
    docs.iter()
        .enumerate()
        .map(|(j, &d)| {
            let band = bands.binary_search(&mix64(d)).unwrap_or(0) as u64;
            let (lo, hi) = (band * n / count, (band + 1) * n / count);
            resident(seed, lo + mix64(seed ^ j as u64) % (hi - lo).max(1))
        })
        .collect()
}

/// `Cache` beside `ConcurrentCache`, used from one thread, at `entries`
/// one-kilobyte entries: lookups on the trace's stream, and inserts of
/// new documents into the full cache (each evicts one). Returns how many
/// distinct entries the lookups reach.
fn core_rows(docs: &[u64], seed: u64, entries: u64, label: &str, report: &mut Report) -> usize {
    let config = || CacheConfig::new(CacheId::new(0), ByteSize::from_kb(entries), PolicyKind::Lru);
    let one_kb = ByteSize::from_kb(1);
    let keys = mapped_stream(docs, seed, entries);
    let mut now = 0u64;
    let mut tick = || {
        now += 1;
        Timestamp::from_millis(now)
    };

    let mut cache = config().build();
    for i in 0..entries {
        cache.insert(resident(seed, i), one_kb, tick());
    }
    let mut misses = 0u64;
    let lookups = time_batches(BATCHES, keys.len(), |_| {
        for &k in &keys {
            misses += u64::from(cache.lookup(black_box(k), tick()).is_none());
        }
    });
    let mut fresh = entries;
    let mut not_stored = 0u64;
    let inserts = time_batches(BATCHES, INSERTS, |_| {
        for _ in 0..INSERTS {
            fresh += 1;
            not_stored += u64::from(
                !cache
                    .insert(resident(seed, fresh), one_kb, tick())
                    .is_stored(),
            );
        }
    });
    let full = cache.len() as u64;
    drop(cache);

    let concurrent = config().build_concurrent();
    for i in 0..entries {
        concurrent.insert(resident(seed, i), one_kb, tick());
    }
    let concurrent_lookups = time_batches(BATCHES, keys.len(), |_| {
        for &k in &keys {
            misses += u64::from(concurrent.lookup(black_box(k), tick()).is_none());
        }
    });
    drop(concurrent);

    if misses > 0 || not_stored > 0 || full != entries {
        report.problems.push(format!(
            "core {label}: {misses} lookups of resident documents missed, {not_stored} inserts not stored, {full} entries held of {entries}"
        ));
    }
    row(report, &format!("core.lookup_ns.{label}"), &lookups);
    row(report, &format!("core.insert_evict_ns.{label}"), &inserts);
    row(
        report,
        &format!("core.concurrent_lookup_ns.{label}"),
        &concurrent_lookups,
    );
    keys.iter().collect::<HashSet<_>>().len()
}

/// The `ConcurrentNode` handlers a daemon calls, timed directly.
fn node_rows(docs: &[u64], seed: u64, report: &mut Report) {
    let node = ConcurrentNode::from_config(
        CacheConfig::new(
            CacheId::new(0),
            ByteSize::from_kb(NODE_ENTRIES),
            PolicyKind::Lru,
        ),
        PlacementScheme::Ea,
    );
    let one_kb = ByteSize::from_kb(1);
    let mut now = 0u64;
    let mut tick = || {
        now += 1;
        Timestamp::from_millis(now)
    };
    for i in 0..NODE_ENTRIES {
        node.complete_origin_fetch(resident(seed, i), one_kb, tick());
    }
    // A tenth more documents: the evictions give the node a finite
    // expiration age, so both EA outcomes occur below.
    for i in NODE_ENTRIES..NODE_ENTRIES + NODE_ENTRIES / 10 {
        node.complete_origin_fetch(resident(seed, i), one_kb, tick());
    }
    let peer = CacheId::new(1);
    // About half the queried documents are resident.
    let queried = mapped_stream(docs, seed, 2 * NODE_ENTRIES);
    let served: Vec<DocId> = mapped_stream(docs, seed, NODE_ENTRIES)
        .into_iter()
        .filter(|&d| node.cache().contains(d))
        .collect();
    let mut positives = 0u64;
    let icp = time_batches(BATCHES, queried.len(), |_| {
        for &doc in &queried {
            positives += u64::from(node.handle_icp_query(IcpQuery { from: peer, doc }).hit);
        }
    });
    let age = |x: u64| ExpirationAge::finite(DurationMs::from_millis(x % 200_000));
    let mut unserved = 0u64;
    let http = time_batches(BATCHES, served.len(), |_| {
        for (j, &doc) in served.iter().enumerate() {
            let request = HttpRequest {
                from: peer,
                doc,
                requester_age: age(mix64(j as u64)),
            };
            unserved += u64::from(node.handle_http_request(request, tick()).is_none());
        }
    });
    let mut fresh = 2 * NODE_ENTRIES;
    let fetch = time_batches(BATCHES, INSERTS, |_| {
        for _ in 0..INSERTS {
            fresh += 1;
            let doc = resident(seed, fresh);
            let sent = node.build_http_request(doc);
            let response = HttpResponse {
                from: peer,
                doc,
                size: one_kb,
                responder_age: age(mix64(fresh ^ seed)),
            };
            black_box(node.complete_remote_fetch(sent, response, tick()));
        }
    });
    if positives == 0 || unserved > 0 {
        report.problems.push(format!(
            "proxy handlers: {positives} positive ICP replies, {unserved} resident documents not served"
        ));
    }
    row(report, "proxy.icp_query_ns", &icp);
    row(report, "proxy.http_request_ns", &http);
    row(report, "proxy.remote_fetch_ns", &fetch);
}

/// `WireMessage::encode` and `decode`, per frame kind and over an even
/// mix of the four kinds the protocol exchanges per request.
fn wire_rows(trace: &Trace, report: &mut Report) {
    let from = CacheId::new(0);
    let age = ExpirationAge::finite(DurationMs::from_secs(90));
    let ctx = Some(TraceCtx {
        trace_id: 0x0001_0000_0000_002a,
        parent_span: 0x0001_0000_0000_002b,
    });
    let sample: Vec<_> = trace.requests().iter().take(256).collect();
    type Make =
        fn(&coopcache_types::Request, CacheId, ExpirationAge, Option<TraceCtx>) -> WireMessage;
    let kinds: [(&str, Make); 4] = [
        ("icp_query", |r, from, _, ctx| WireMessage::IcpQuery {
            query: IcpQuery { from, doc: r.doc },
            ctx,
        }),
        ("icp_reply", |r, from, _, _| {
            WireMessage::IcpReply(IcpReply {
                from,
                doc: r.doc,
                hit: r.doc.as_u64() % 2 == 0,
            })
        }),
        ("doc_request", |r, from, age, ctx| WireMessage::DocRequest {
            request: HttpRequest {
                from,
                doc: r.doc,
                requester_age: age,
            },
            ctx,
        }),
        ("doc_response", |r, from, age, _| WireMessage::DocResponse {
            response: HttpResponse {
                from,
                doc: r.doc,
                size: r.size,
                responder_age: age,
            },
            found: true,
        }),
    ];
    let mut per_kind = Vec::new();
    let mut bad = 0u64;
    for (name, make) in kinds {
        let msgs: Vec<WireMessage> = sample.iter().map(|r| make(r, from, age, ctx)).collect();
        let frames: Vec<Vec<u8>> = msgs.iter().map(WireMessage::encode).collect();
        bad += msgs
            .iter()
            .zip(&frames)
            .filter(|(m, f)| WireMessage::decode(f).as_ref() != Ok(*m))
            .count() as u64;
        let (enc, dec) = codec_batches(&msgs, &frames);
        row(report, &format!("net.wire_encode_ns.{name}"), &enc);
        row(report, &format!("net.wire_decode_ns.{name}"), &dec);
        per_kind.push((msgs, frames));
    }
    // Interleave the kinds so the mixed rows see them in turn.
    let (mut msgs, mut frames) = (Vec::new(), Vec::new());
    for j in 0..sample.len() {
        for (m, f) in &per_kind {
            msgs.push(m[j].clone());
            frames.push(f[j].clone());
        }
    }
    let (enc, dec) = codec_batches(&msgs, &frames);
    row(report, "net.wire_encode_ns", &enc);
    row(report, "net.wire_decode_ns", &dec);
    if bad > 0 {
        report.problems.push(format!(
            "wire: {bad} frames did not decode to the message encoded"
        ));
    }
}

fn codec_batches(msgs: &[WireMessage], frames: &[Vec<u8>]) -> (Vec<f64>, Vec<f64>) {
    let n = msgs.len();
    let enc = time_batches(BATCHES, OPS, |_| {
        for j in 0..OPS {
            black_box(black_box(&msgs[j % n]).encode());
        }
    });
    let dec = time_batches(BATCHES, OPS, |_| {
        for j in 0..OPS {
            let _ = black_box(WireMessage::decode(black_box(&frames[j % n])));
        }
    });
    (enc, dec)
}
