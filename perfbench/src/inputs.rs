//! Seeded inputs and the facts about them that the output checks use.
//! Every fact here is computed by the benchmark itself from the trace,
//! never read back from the program under test.

use crate::measure::mix64;
use coopcache_trace::{generate, Trace, TraceProfile};
use coopcache_types::{ByteSize, DocId, Request};
use std::collections::{HashMap, HashSet};
use std::time::Instant;

/// The BU-94-scale trace with its documents renamed for `seed`, and how
/// long making it took in milliseconds.
///
/// The trace itself always comes from the profile's own generator seed:
/// per-seed traces differ widely in locality (the share of requests that
/// leave their cache ranges from 39 % to 56 % over the first 50,000
/// requests of seeds 1 to 10), which would swamp every throughput figure.
/// The workload seed instead renames every document through a bijection
/// of the id space, so each seed gives different ids, hashes, shard and
/// table layouts and wire bytes, over the same request pattern.
pub fn bu94(seed: u64) -> (Trace, f64) {
    let started = Instant::now();
    let base = generate(&TraceProfile::bu94()).expect("bu94 profile is valid");
    let key = mix64(seed);
    let renamed = base
        .requests()
        .iter()
        .map(|r| Request {
            doc: DocId::new(mix64(r.doc.as_u64() ^ key)),
            ..*r
        })
        .collect();
    let trace = Trace::from_requests(renamed);
    (trace, started.elapsed().as_secs_f64() * 1e3)
}

/// Number of distinct documents among `requests`.
pub fn distinct_docs(requests: &[Request]) -> usize {
    requests.iter().map(|r| r.doc).collect::<HashSet<_>>().len()
}

/// Bytes needed to hold one copy of every distinct document, each at the
/// largest size it is requested with.
pub fn unique_bytes(requests: &[Request]) -> ByteSize {
    let mut sizes: HashMap<_, u64> = HashMap::new();
    for r in requests {
        let s = sizes.entry(r.doc).or_default();
        *s = (*s).max(r.size.as_bytes());
    }
    ByteSize::from_bytes(sizes.values().sum())
}
