//! The simulator probe of every traced run: the in-process path behind
//! every paper table.
//!
//! One pass runs `sim::run` over the Figure 1 grid (five aggregate
//! capacities × ad-hoc and EA, 4 caches) and `sim::run_des` over the
//! `des_latency` grid (four capacities × both schemes) on the full
//! BU-94-scale trace.

use crate::inputs::{distinct_docs, unique_bytes};
use coopcache_core::PlacementScheme;
use coopcache_metrics::GroupMetrics;
use coopcache_sim::{run, run_des, NetworkModel, SimConfig, PAPER_CACHE_SIZES};
use coopcache_trace::Trace;
use coopcache_types::ByteSize;
use std::time::Instant;

const GROUP: u16 = 4;
const SCHEMES: [PlacementScheme; 2] = [PlacementScheme::AdHoc, PlacementScheme::Ea];
const DES_SIZES: [ByteSize; 4] = [
    ByteSize::from_kb(100),
    ByteSize::from_mb(1),
    ByteSize::from_mb(10),
    ByteSize::from_mb(100),
];

/// What the checks need to know about the trace, computed from it here.
pub struct Facts {
    distinct: u64,
    unique_bytes: ByteSize,
}

impl Facts {
    pub fn new(trace: &Trace) -> Self {
        Self {
            distinct: distinct_docs(trace.requests()) as u64,
            unique_bytes: unique_bytes(trace.requests()),
        }
    }
}

/// What one pass over both grids did and how long each half took.
pub struct SweepStats {
    pub cells: u64,
    pub sync_requests: u64,
    pub des_requests: u64,
    pub sync_s: f64,
    pub des_s: f64,
}

fn check_counts(cell: &str, m: &GroupMetrics, len: u64, problems: &mut Vec<String>) {
    let sum = m.local_hits + m.remote_hits + m.misses;
    if m.requests != len || sum != len {
        problems.push(format!(
            "sim {cell}: {} requests, hits + misses = {sum}, trace has {len}",
            m.requests
        ));
    }
}

/// One pass over both grids.
pub fn pass(trace: &Trace, facts: &Facts, problems: &mut Vec<String>) -> SweepStats {
    let len = trace.len() as u64;
    let sync_started = Instant::now();
    for aggregate in PAPER_CACHE_SIZES {
        for scheme in SCHEMES {
            let cfg = SimConfig::new(aggregate)
                .with_group_size(GROUP)
                .with_scheme(scheme);
            let report = run(&cfg, trace);
            let cell = format!("sync {aggregate} {scheme}");
            check_counts(&cell, &report.metrics, len, problems);
            // With room for every distinct document in every cache,
            // nothing is ever evicted: each document misses exactly once,
            // on its first reference, under either scheme.
            if aggregate == ByteSize::from_gb(1) {
                if cfg.per_cache_capacity() < facts.unique_bytes {
                    problems.push(format!(
                        "sim {cell}: a cache holds {} bytes, less than the trace's {} unique bytes",
                        cfg.per_cache_capacity().as_bytes(),
                        facts.unique_bytes.as_bytes()
                    ));
                } else if report.metrics.misses != facts.distinct {
                    problems.push(format!(
                        "sim {cell}: {} misses with no eviction possible, trace has {} distinct documents",
                        report.metrics.misses, facts.distinct
                    ));
                }
            }
        }
    }
    let sync_s = sync_started.elapsed().as_secs_f64();
    let network = NetworkModel::paper_calibrated();
    let des_started = Instant::now();
    for aggregate in DES_SIZES {
        for scheme in SCHEMES {
            let cfg = SimConfig::new(aggregate)
                .with_group_size(GROUP)
                .with_scheme(scheme);
            let report = run_des(&cfg, &network, trace);
            let cell = format!("des {aggregate} {scheme}");
            check_counts(&cell, &report.metrics, len, problems);
            if report.p50_latency_ms < network.local_service.as_millis() {
                problems.push(format!(
                    "sim {cell}: p50 {} ms is below the local service time {} ms",
                    report.p50_latency_ms,
                    network.local_service.as_millis()
                ));
            }
        }
    }
    let des_s = des_started.elapsed().as_secs_f64();
    let cells = |sizes: usize| (sizes * SCHEMES.len()) as u64;
    SweepStats {
        cells: cells(PAPER_CACHE_SIZES.len() + DES_SIZES.len()),
        sync_requests: cells(PAPER_CACHE_SIZES.len()) * len,
        des_requests: cells(DES_SIZES.len()) * len,
        sync_s,
        des_s,
    }
}
