//! coopcache benchmark: end-to-end and per-layer numbers for the live
//! cooperative group and the pipelined local path, measured from outside
//! through the crates' public functions.
//!
//! ```text
//! perfbench --workload <group-live|local-pipelined>
//!           --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! With `--trace 0` the run reports the end-to-end metrics; with
//! `--trace 1` it reports the per-layer metrics and the tracing overhead.
//! Health facts go to the lines before the last; the last line of
//! standard output is one JSON object with the result. See README.md.

mod group;
mod inputs;
mod layers;
mod measure;
mod pipelined;
mod sweep;

use measure::{loadavg, nproc, peak_rss_mb, ThreadPeak};
use std::fmt::Write as _;
use std::io;
use std::process::{Command, ExitCode};
use std::time::Instant;

const USAGE: &str = "usage: perfbench --workload <group-live|local-pipelined> \
                     --seed <n> --seconds <s> --trace <0|1>";

/// Set-ups per run: `setup_s` is the median of these.
const SETUPS: usize = 9;

#[derive(Clone, Copy, PartialEq, Eq)]
enum Workload {
    GroupLive,
    LocalPipelined,
}

struct Args {
    workload: Workload,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let (mut workload, mut seed, mut seconds, mut trace) = (None, None, None, None);
    let mut it = argv.iter();
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                workload = Some(match value.as_str() {
                    "group-live" => Workload::GroupLive,
                    "local-pipelined" => Workload::LocalPipelined,
                    other => return Err(format!("unknown workload {other:?}")),
                });
            }
            "--seed" => seed = Some(value.parse().map_err(|_| "--seed takes an integer")?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| "--seconds takes a number")?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err("--seconds must be in (0, 600]".into());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// What a run found: counts, failed checks, metrics and host facts.
#[derive(Default)]
pub struct Report {
    pub attempted: u64,
    pub failed: u64,
    pub problems: Vec<String>,
    /// `admission-shed` summed over the daemons' `OP_STATS` documents.
    pub shed: u64,
    /// `peer-fault` likewise: every ICP timeout is one, as is any failed
    /// peer fetch.
    pub peer_faults: u64,
    metrics: Vec<(String, f64, &'static str)>,
    health: Vec<(&'static str, String)>,
}

impl Report {
    pub fn metric(&mut self, name: &str, value: f64, unit: &'static str) {
        self.metrics.push((name.to_owned(), value, unit));
    }

    pub fn health(&mut self, key: &'static str, value: impl ToString) {
        self.health.push((key, value.to_string()));
    }

    fn print(&self) {
        for (key, value) in &self.health {
            println!("# {key}: {value}");
        }
        for p in &self.problems {
            println!("# check failed: {p}");
        }
        let mut json = String::new();
        let _ = write!(
            json,
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{",
            self.problems.is_empty(),
            self.attempted,
            self.failed
        );
        for (i, (name, value, unit)) in self.metrics.iter().enumerate() {
            let value = if value.is_finite() { *value } else { 0.0 };
            let sep = if i == 0 { "" } else { ", " };
            // `{:?}` prints the shortest text that reads back to the
            // same f64: every measured digit, and always a JSON number.
            let _ = write!(
                json,
                "{sep}\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        json.push_str("}}");
        println!("{json}");
    }
}

/// Runs `make` [`SETUPS`] times, handing all but the last result to
/// `discard`, and returns the last with the median set-up time.
fn repeated_setup<S>(
    mut make: impl FnMut() -> io::Result<S>,
    mut discard: impl FnMut(S),
) -> io::Result<(S, f64)> {
    let mut times = Vec::with_capacity(SETUPS);
    let mut kept = None;
    for _ in 0..SETUPS {
        if let Some(old) = kept.take() {
            discard(old);
        }
        let started = Instant::now();
        kept = Some(make()?);
        times.push(started.elapsed().as_secs_f64());
    }
    let setup = measure::spread(&times).median;
    Ok((kept.expect("SETUPS > 0"), setup))
}

fn run(args: &Args) -> io::Result<Report> {
    let host_ref_start = measure::host_ref_ms();
    let mut report = Report::default();
    let mut threads = ThreadPeak::default();
    let mut layers = layers::Layers::default();
    let mut gen_ms = Vec::new();
    let (trace, setup_s) = match args.workload {
        Workload::GroupLive => {
            let ((trace, replay, cluster), setup_s) = repeated_setup(
                || {
                    let (trace, ms) = inputs::bu94(args.seed);
                    gen_ms.push(ms);
                    let replay = group::Replay::new(&trace);
                    Ok((trace, replay, group::start_cluster()?))
                },
                |(_, _, cluster)| cluster.shutdown(),
            )?;
            threads.sample();
            if args.trace {
                layers.group_phases(
                    &replay,
                    Some(cluster),
                    args.seconds,
                    &mut threads,
                    &mut report,
                )?;
            } else {
                let totals = group::phase(
                    &replay,
                    Some(cluster),
                    args.seconds,
                    &mut threads,
                    &mut report.problems,
                )?;
                report.metric("req_per_s", totals.segments.rate(), "1/s");
                report.metric("cpu_us_per_req", totals.segments.cpu_us_per_op(), "us");
                report.metric("group_hit_pct", totals.hit_pct(), "%");
                report.health("segments", totals.segments.summary());
                count_group(&mut report, &totals);
            }
            report.health(
                "input",
                format!(
                    "{} requests, {} distinct documents",
                    replay.len(),
                    replay.distinct
                ),
            );
            (trace, setup_s)
        }
        Workload::LocalPipelined => {
            let ((trace, pipe), setup_s) = repeated_setup(
                || {
                    let (trace, ms) = inputs::bu94(args.seed);
                    gen_ms.push(ms);
                    let pipe = pipelined::Pipe::start(&trace, args.seed)?;
                    Ok((trace, pipe))
                },
                |(_, pipe): (_, pipelined::Pipe)| pipe.shutdown(),
            )?;
            threads.sample();
            report.health("input", pipe.summary());
            if args.trace {
                layers.pipe_phases(pipe, args.seconds, &mut threads, &mut report);
            } else {
                let stats = pipe.run(args.seconds, false, &mut threads, &mut report.problems);
                pipe.shutdown();
                report.metric("req_per_s", stats.segments.rate(), "1/s");
                report.metric("cpu_us_per_req", stats.segments.cpu_us_per_op(), "us");
                report.metric("group_hit_pct", stats.hit_pct(), "%");
                report.health("segments", stats.segments.summary());
                count_pipe(&mut report, &stats);
            }
            (trace, setup_s)
        }
    };
    if args.trace {
        layers.complete(&trace, args.seed, &mut threads, &mut report)?;
        report.metric("trace.generate_ms", measure::spread(&gen_ms).median, "ms");
        report.metric("proc.threads_peak", threads.get() as f64, "count");
    } else {
        report.metric("setup_s", setup_s, "s");
        report.metric("peak_rss_mb", peak_rss_mb(), "MB");
    }
    if report.shed > 0 {
        report.problems.push(format!(
            "run invalid: {} origin stores were shed under memory pressure, which changes placement",
            report.shed
        ));
    }
    // Only the pinned child runs this far.
    let pin = std::env::var(PINNED_ENV).unwrap_or_default();
    let (cpu, cpus) = pin.split_once('/').unwrap_or((&pin, "?"));
    report.health("nproc", cpus);
    report.health("pinned_to_cpu", cpu);
    report.health(
        "host_ref_ms",
        format!(
            "{host_ref_start:.1} at start, {:.1} at end",
            measure::host_ref_ms()
        ),
    );
    report.health("loadavg_1m", loadavg());
    report.health("attempted", report.attempted);
    report.health("failed", report.failed);
    report.health("admission_shed", report.shed);
    report.health("icp_timeouts_and_peer_faults", report.peer_faults);
    Ok(report)
}

/// Adds one pipelined phase's counts to the run's totals.
fn count_pipe(report: &mut Report, stats: &pipelined::PipeStats) {
    report.attempted += stats.frames;
    report.failed += stats.failed;
    report.shed += stats.shed;
}

/// Adds one group phase's counts to the run's totals.
fn count_group(report: &mut Report, totals: &group::Totals) {
    report.attempted += totals.requests;
    report.failed += totals.failed;
    report.shed += totals.shed;
    report.peer_faults += totals.peer_faults;
    report.health(
        "local_remote_miss",
        format!(
            "{} / {} / {} over {} rounds",
            totals.local, totals.remote, totals.miss, totals.rounds
        ),
    );
}

/// Set in the pinned child: `<cpu>/<cpus the parent could use>`.
const PINNED_ENV: &str = "PERFBENCH_PINNED";

/// The first CPU this process may run on.
fn first_allowed_cpu() -> Option<u32> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let list = status
        .lines()
        .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?;
    list.trim()
        .split(|c: char| !c.is_ascii_digit())
        .next()?
        .parse()
        .ok()
}

/// Runs this benchmark again under `taskset` on one CPU and returns the
/// child's exit code; `Ok(None)` when this process is that child. Failing
/// to pin is an error: the bounds hold for pinned runs only.
///
/// On a 2-vCPU virtual machine, threads that hand every request to each
/// other across CPUs pay for a cross-CPU wake-up each time, and the
/// scheduler's placement flips between runs: unpinned `group-live` runs
/// read either about 10k or about 25k req/s, pinned runs 30k to 40k.
fn run_pinned() -> io::Result<Option<ExitCode>> {
    if std::env::var_os(PINNED_ENV).is_some() {
        return Ok(None);
    }
    let cpu = first_allowed_cpu()
        .ok_or_else(|| io::Error::other("cannot pin: no Cpus_allowed_list in /proc/self/status"))?;
    let status = Command::new("taskset")
        .arg("-c")
        .arg(cpu.to_string())
        .arg(std::env::current_exe()?)
        .args(std::env::args_os().skip(1))
        .env(PINNED_ENV, format!("{cpu}/{}", nproc()))
        .status()
        .map_err(|e| io::Error::other(format!("cannot pin with taskset: {e}")))?;
    Ok(Some(match status.code() {
        Some(0) => ExitCode::SUCCESS,
        Some(code) => ExitCode::from(u8::try_from(code).unwrap_or(1)),
        None => ExitCode::FAILURE,
    }))
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(msg) => {
            eprintln!("perfbench: {msg}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    match run_pinned() {
        Ok(Some(code)) => return code,
        Ok(None) => {}
        Err(e) => {
            eprintln!("perfbench: {e}");
            return ExitCode::FAILURE;
        }
    }
    match run(&args) {
        Ok(report) => {
            report.print();
            ExitCode::SUCCESS
        }
        Err(e) => {
            eprintln!("perfbench: {e}");
            ExitCode::FAILURE
        }
    }
}
