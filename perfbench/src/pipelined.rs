//! `local-pipelined`: one daemon whose working set fits in its cache,
//! hammered by persistent connections that pipeline `DocRequest` frames.
//!
//! Every frame is a read served from the daemon's own cache: no ICP, no
//! placement on the requester side, no origin. It is the control for
//! changes to those paths, and it measures the wire codec, the doc-serve
//! loop and the cache lookup per frame.

use crate::group::stats_counter;
use crate::measure::{cpu_seconds, mix64, nproc, Hist, Segments, ThreadPeak};
use coopcache_core::PlacementScheme;
use coopcache_net::{ClusterConfig, LoopbackCluster, WireMessage, MAX_FRAME_LEN};
use coopcache_proxy::{HttpRequest, RequestOutcome};
use coopcache_trace::Trace;
use coopcache_types::{ByteSize, CacheId, DocId, DurationMs, ExpirationAge};
use std::collections::HashSet;
use std::io::{self, BufReader, Read, Write};
use std::net::TcpStream;
use std::time::{Duration, Instant};

/// Distinct documents in the working set.
pub const DOCS: usize = 1024;
/// Only documents up to this size join the working set, so the frame
/// path, not the body copy, dominates the per-request cost.
pub const MAX_DOC_BYTES: u64 = 4096;
/// Frames written back to back before the responses are read.
pub const DEPTH: usize = 64;
/// Requests drawn per client before its stream repeats.
const STREAM: usize = 1 << 16;
/// Length of one measured segment, seconds.
pub const SEGMENT_S: f64 = 1.0;

pub struct Pipe {
    cluster: LoopbackCluster,
    docs: Vec<(DocId, u64)>,
    clients: Vec<Client>,
}

/// One persistent connection with its pre-encoded frames and its seeded
/// request stream (indices into the working set).
struct Client {
    conn: TcpStream,
    frames: Vec<Vec<u8>>,
    stream: Vec<usize>,
}

/// One phase's counts and timings.
#[derive(Default)]
pub struct PipeStats {
    pub frames: u64,
    pub failed: u64,
    pub found: u64,
    /// One segment per second of pipelining.
    pub segments: Segments,
    /// Batch write to each response, nanoseconds.
    pub latency: Hist,
    /// Origin stores shed while the phase ran.
    pub shed: u64,
    /// Spans the benchmark recorded around its own batches (traced only).
    pub bench_spans: u64,
}

impl PipeStats {
    pub fn hit_pct(&self) -> f64 {
        100.0 * self.found as f64 / self.frames.max(1) as f64
    }

    pub fn merge(&mut self, other: &PipeStats) {
        self.frames += other.frames;
        self.failed += other.failed;
        self.found += other.found;
        self.segments.merge(&other.segments);
        self.latency.merge(&other.latency);
        self.shed += other.shed;
        self.bench_spans += other.bench_spans;
    }
}

impl Pipe {
    /// Starts the daemon, warms the working set into it through the
    /// client API, and opens the persistent connections.
    pub fn start(trace: &Trace, seed: u64) -> io::Result<Self> {
        let mut seen = HashSet::new();
        let docs: Vec<(DocId, u64)> = trace
            .requests()
            .iter()
            .filter(|r| r.size.as_bytes() <= MAX_DOC_BYTES && seen.insert(r.doc))
            .map(|r| (r.doc, r.size.as_bytes()))
            .take(DOCS)
            .collect();
        let working_set: u64 = docs.iter().map(|d| d.1).sum();
        let cluster = LoopbackCluster::start_with_config(ClusterConfig::new(
            1,
            ByteSize::from_bytes(2 * working_set),
            PlacementScheme::Ea,
        ))?;
        for &(doc, size) in &docs {
            let outcome = cluster.request(0, doc, ByteSize::from_bytes(size))?;
            if !matches!(
                outcome,
                RequestOutcome::Miss {
                    stored_locally: true,
                    ..
                }
            ) {
                return Err(io::Error::other(format!(
                    "warm-up of {doc:?} was {outcome:?}, not a stored miss"
                )));
            }
        }
        let addr = cluster.daemon(0).doc_addr();
        // A finite requester age makes the responder's promote rule run
        // on every frame, as it does for a real peer.
        let requester_age = ExpirationAge::finite(DurationMs::from_secs(1));
        let clients = (0..nproc().min(2))
            .map(|c| {
                let conn = TcpStream::connect_timeout(&addr, Duration::from_secs(5))?;
                conn.set_nodelay(true)?;
                conn.set_read_timeout(Some(Duration::from_secs(30)))?;
                conn.set_write_timeout(Some(Duration::from_secs(30)))?;
                let from = CacheId::new(1 + c as u16);
                let frames = docs
                    .iter()
                    .map(|&(doc, _)| {
                        let header = WireMessage::DocRequest {
                            request: HttpRequest {
                                from,
                                doc,
                                requester_age,
                            },
                            ctx: None,
                        }
                        .encode();
                        let mut frame = (header.len() as u32).to_be_bytes().to_vec();
                        frame.extend_from_slice(&header);
                        frame
                    })
                    .collect();
                let mut rng = mix64(seed ^ (c as u64).wrapping_mul(0x5851_f42d_4c95_7f2d));
                let stream = (0..STREAM)
                    .map(|_| {
                        rng = mix64(rng);
                        (rng % docs.len() as u64) as usize
                    })
                    .collect();
                Ok(Client {
                    conn,
                    frames,
                    stream,
                })
            })
            .collect::<io::Result<_>>()?;
        Ok(Self {
            cluster,
            docs,
            clients,
        })
    }

    pub fn shutdown(self) {
        drop(self.clients);
        self.cluster.shutdown();
    }

    pub fn summary(&self) -> String {
        format!(
            "{} documents, {} bytes, {} connection(s), {DEPTH} frames a batch",
            self.docs.len(),
            self.docs.iter().map(|d| d.1).sum::<u64>(),
            self.clients.len()
        )
    }

    pub fn connections(&self) -> u64 {
        self.clients.len() as u64
    }

    /// Pipelines batches on every connection, in segments of a second,
    /// until `seconds` have passed, checking every response.
    pub fn run(
        &self,
        seconds: f64,
        traced: bool,
        threads: &mut ThreadPeak,
        problems: &mut Vec<String>,
    ) -> PipeStats {
        let before = self.cluster.daemon(0).stats_json();
        let reused_before = stats_counter(&before, "connections-reused");
        let shed_before = stats_counter(&before, "admission-shed");
        let mut stats = PipeStats::default();
        let started = Instant::now();
        let end = started + Duration::from_secs_f64(seconds);
        loop {
            let cpu0 = cpu_seconds();
            let segment = Instant::now();
            let deadline = end.min(segment + Duration::from_secs_f64(SEGMENT_S));
            let per_client: Vec<(PipeStats, Vec<String>)> = std::thread::scope(|scope| {
                let workers: Vec<_> = self
                    .clients
                    .iter()
                    .enumerate()
                    .map(|(c, client)| {
                        scope.spawn(move || self.client(c, client, deadline, traced))
                    })
                    .collect();
                threads.sample();
                workers
                    .into_iter()
                    .map(|w| w.join().expect("pipelined client thread panicked"))
                    .collect()
            });
            let frames_before = stats.frames;
            for (s, p) in per_client {
                stats.frames += s.frames;
                stats.failed += s.failed;
                stats.found += s.found;
                stats.bench_spans += s.bench_spans;
                stats.latency.merge(&s.latency);
                problems.extend(p);
            }
            stats.segments.push(
                stats.frames - frames_before,
                segment.elapsed().as_secs_f64(),
                cpu_seconds() - cpu0,
            );
            if Instant::now() >= end || stats.failed > 0 {
                break;
            }
        }
        let after = self.cluster.daemon(0).stats_json();
        stats.shed = stats_counter(&after, "admission-shed") - shed_before;
        let reused = stats_counter(&after, "connections-reused") - reused_before;
        let floor = stats.frames.saturating_sub(self.connections());
        if reused < floor {
            problems.push(format!(
                "local-pipelined: connections-reused grew by {reused}, below {} frames minus {} connections",
                stats.frames,
                self.connections()
            ));
        }
        stats
    }

    fn client(
        &self,
        c: usize,
        client: &Client,
        deadline: Instant,
        traced: bool,
    ) -> (PipeStats, Vec<String>) {
        let mut stats = PipeStats::default();
        let mut problems = Vec::new();
        let (frames, stream) = (&client.frames, &client.stream);
        let mut spans: Vec<(Instant, Instant)> = Vec::new();
        let mut reader = BufReader::with_capacity(1 << 16, &client.conn);
        let mut writer = &client.conn;
        let mut batch = Vec::with_capacity(DEPTH * 64);
        let mut header = [0u8; MAX_FRAME_LEN];
        let mut body = vec![0u8; MAX_DOC_BYTES as usize];
        let mut pos = 0;
        while Instant::now() < deadline {
            let picks = &stream[pos..pos + DEPTH];
            pos = (pos + DEPTH) % STREAM;
            batch.clear();
            for &i in picks {
                batch.extend_from_slice(&frames[i]);
            }
            let sent = Instant::now();
            let answered = writer.write_all(&batch).and_then(|()| {
                for &i in picks {
                    let (doc, size) = self.docs[i];
                    let mut len = [0u8; 4];
                    reader.read_exact(&mut len)?;
                    let len = u32::from_be_bytes(len) as usize;
                    if len > MAX_FRAME_LEN {
                        return Err(io::Error::other("oversized response header"));
                    }
                    reader.read_exact(&mut header[..len])?;
                    let msg = WireMessage::decode(&header[..len])
                        .map_err(|e| io::Error::other(e.to_string()))?;
                    let WireMessage::DocResponse { response, found } = msg else {
                        return Err(io::Error::other("expected a document response"));
                    };
                    if found {
                        let n = response.size.as_bytes() as usize;
                        let body = body
                            .get_mut(..n)
                            .ok_or_else(|| io::Error::other("response body larger than any document"))?;
                        reader.read_exact(body)?;
                    }
                    stats.latency.record(sent.elapsed().as_nanos() as u64);
                    stats.frames += 1;
                    if found && response.doc == doc && response.size.as_bytes() == size {
                        stats.found += 1;
                    } else if problems.len() < 8 {
                        problems.push(format!(
                            "local-pipelined: asked for {doc:?} ({size} B), got found={found} {:?} ({} B)",
                            response.doc,
                            response.size.as_bytes()
                        ));
                    }
                }
                Ok(())
            });
            if traced {
                spans.push((sent, Instant::now()));
            }
            if let Err(e) = answered {
                // The connection is unusable: the rest of the batch failed.
                let done = stats.frames % DEPTH as u64;
                stats.failed += DEPTH as u64 - done;
                stats.frames += DEPTH as u64 - done;
                problems.push(format!("local-pipelined: client {c}: {e}"));
                break;
            }
        }
        stats.bench_spans = spans.len() as u64;
        (stats, problems)
    }
}
