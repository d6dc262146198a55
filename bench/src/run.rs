//! One benchmark run: set-up, checks, the measured replay, and the
//! metrics it reports.

use crate::driver::{Pipeline, Plan, StepSample};
use crate::judge::{self, Verdict};
use crate::probes;
use crate::trace::Trace;
use crate::workloads::{self, Capture, Link, Spec};
use std::path::Path;
use std::time::{Duration, Instant};

/// Set-up is repeated at least this often per run, and until
/// [`SETUP_MIN_SECONDS`] have gone into it, and the median reported: a
/// 50 ms simulation timed five times still moves by a third between runs.
const SETUP_REPEATS: usize = 5;
const SETUP_MIN_SECONDS: f64 = 1.5;
/// Share of a traced run's measuring time spent untraced first, to give
/// `trace.overhead_share` its reference.
const UNTRACED_SHARE: f64 = 0.3;
/// Lowest recall a workload may show before its run counts as incorrect:
/// a workload that silently publishes root-edge-only graphs measures
/// nothing.
pub const RECALL_FLOOR: f64 = 0.7;

/// A named value with its unit.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// Metric name as in `BENCHMARK.json`.
    pub name: &'static str,
    /// The measured value.
    pub value: f64,
    /// Its unit.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Debug)]
pub struct Report {
    /// The workload.
    pub workload: &'static str,
    /// The seed the inputs were made from.
    pub seed: u64,
    /// Whether every output check passed.
    pub correct: bool,
    /// Operations attempted over measured steps: frames emitted plus
    /// graphs due.
    pub attempted: u64,
    /// Of those, operations that failed: frames dropped at a sink, frames
    /// written but never ingested, graphs not published.
    pub failed: u64,
    /// The metrics: end-to-end for an untraced run, per-layer for a
    /// traced one.
    pub metrics: Vec<Metric>,
    /// Digest of every graph published in one replay pass.
    pub digest: u64,
    /// Human-readable notes: sample counts, check results.
    pub notes: Vec<String>,
}

/// The median of `values` (mean of the two middle ones for an even
/// count); `NaN` when empty.
pub fn median(values: &[f64]) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    match v.len() {
        0 => f64::NAN,
        n if n % 2 == 1 => v[n / 2],
        n => (v[n / 2 - 1] + v[n / 2]) / 2.0,
    }
}

/// The `p`-quantile of `values` by nearest rank; `NaN` when empty.
pub fn percentile(values: &[f64], p: f64) -> f64 {
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    if v.is_empty() {
        return f64::NAN;
    }
    let rank = ((p * v.len() as f64).ceil() as usize).clamp(1, v.len());
    v[rank - 1]
}

/// Resident and peak resident set size in MiB, from `/proc/self/status`
/// (zeros where that file does not exist).
fn rss_mb() -> (f64, f64) {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let field = |name: &str| {
        status
            .lines()
            .find_map(|l| l.strip_prefix(name))
            .and_then(|rest| {
                rest.trim()
                    .trim_end_matches("kB")
                    .trim()
                    .parse::<f64>()
                    .ok()
            })
            .map_or(0.0, |kb| kb / 1024.0)
    };
    (field("VmRSS:"), field("VmHWM:"))
}

/// What the measured steps of a run add up to.
#[derive(Debug, Default)]
struct Tally {
    /// Measured steps, in order, across passes.
    samples: Vec<StepSample>,
    verdicts: Vec<Verdict>,
    /// Records consumed by each measured step, parallel to `samples`.
    step_records: Vec<u64>,
    /// What the pipelines' lifetime counters added over measured steps.
    totals: Counters,
    unwritten: u64,
    pruned: (u64, u64),
    skipped: (u64, u64),
    reused: (u64, u64),
    passes: u64,
    mismatches: u64,
    /// What the first — always whole — pass measured: `(steps, payload
    /// bytes, socket bytes)`. The counts a run reports come from it alone,
    /// so they do not depend on how far the time budget reached.
    first_pass: (usize, u64, u64),
}

/// Replays passes over `capture` until `budget` of measured step time is
/// spent — but never less than one whole pass, so the counts a run reports
/// (bytes, recall, precision, the digest) cover the same steps on every
/// host — judging every measured step and checking each step's digest
/// against `reference` (filled in by the first pass when empty).
fn replay(
    plan: &Plan,
    capture: &Capture,
    budget: Duration,
    mut trace: Option<&mut Trace>,
    reference: &mut Vec<u64>,
    tally: &mut Tally,
) {
    let warm = plan.spec.warmup_steps();
    let budget_ns = budget.as_nanos() as u64;
    let mut spent = 0u64;
    while spent < budget_ns || tally.passes == 0 {
        let mut pipeline = Pipeline::build(plan, capture, trace.is_some());
        let mut base = Counters::default();
        for step in 1..=plan.spec.steps() {
            if step == warm + 1 {
                base = Counters::of(&pipeline);
            }
            let sample = match trace.as_deref_mut() {
                Some(trace) if step > warm => pipeline.step_traced(step, trace),
                // Warm-up steps of a traced pass still go through the
                // taps, into a scratch trace that is thrown away.
                Some(_) => pipeline.step_traced(step, &mut Trace::new()),
                None => pipeline.step(step),
            };
            let digest = judge::digest(&sample.graphs);
            let at = (step - 1) as usize;
            match reference.get(at) {
                Some(&expected) if expected != digest => tally.mismatches += 1,
                Some(_) => {}
                None => reference.push(digest),
            }
            if step <= warm {
                continue;
            }
            spent += sample.wall_ns;
            tally.step_records.push(plan.records[at]);
            for shard in pipeline.shards() {
                if let Some(s) = shard.screening_stats() {
                    tally.pruned.0 += s.pruned;
                    tally.pruned.1 += s.candidates;
                }
                if let Some(s) = shard.incremental_stats() {
                    tally.skipped.0 += s.fine_skipped;
                    tally.skipped.1 += s.fine_pairs;
                    tally.reused.0 += s.reused_roots;
                    tally.reused.1 += s.roots;
                }
            }
            tally
                .verdicts
                .push(judge::judge(plan, capture, step, &sample.graphs));
            tally.samples.push(sample);
            if spent >= budget_ns && tally.passes > 0 {
                break;
            }
        }
        tally.totals.add_delta(&Counters::of(&pipeline), &base);
        tally.unwritten += pipeline.frames_unwritten();
        if tally.passes == 0 {
            tally.first_pass = (
                tally.samples.len(),
                tally.totals.payload_bytes,
                tally.totals.socket_bytes,
            );
        }
        tally.passes += 1;
        pipeline.shutdown();
    }
}

/// Lifetime counters of a pipeline at one instant, so a pass can report
/// what its measured steps alone added.
#[derive(Debug, Default, Clone, Copy)]
struct Counters {
    frames: u64,
    dropped: u64,
    payload_bytes: u64,
    socket_bytes: u64,
    redials: u64,
    duplicates: u64,
    ring_dropped: u64,
    broker_writes: u64,
    pairs: u64,
    allocs: u64,
}

impl Counters {
    fn of(p: &Pipeline<'_>) -> Counters {
        use std::sync::atomic::Ordering::Relaxed;
        let (duplicates, ring_dropped, broker_writes) = p.broker_counters();
        let scratch = p
            .shards()
            .iter()
            .map(|s| s.scratch_counters())
            .fold((0, 0), |acc, c| (acc.0 + c.reused, acc.1 + c.allocated));
        Counters {
            frames: p.frames_emitted(),
            dropped: p.frames_dropped(),
            payload_bytes: p.counters.payload_bytes.load(Relaxed),
            socket_bytes: p.counters.socket_bytes.load(Relaxed),
            redials: p.redials(),
            duplicates,
            ring_dropped,
            broker_writes,
            pairs: scratch.0 + scratch.1,
            allocs: scratch.1,
        }
    }

    /// Adds what the counters gained between `base` and `now`.
    fn add_delta(&mut self, now: &Counters, base: &Counters) {
        self.frames += now.frames - base.frames;
        self.dropped += now.dropped - base.dropped;
        self.payload_bytes += now.payload_bytes - base.payload_bytes;
        self.socket_bytes += now.socket_bytes - base.socket_bytes;
        self.redials += now.redials - base.redials;
        self.duplicates += now.duplicates - base.duplicates;
        self.ring_dropped += now.ring_dropped - base.ring_dropped;
        self.broker_writes += now.broker_writes - base.broker_writes;
        self.pairs += now.pairs - base.pairs;
        self.allocs += now.allocs - base.allocs;
    }
}

/// The per-layer metrics the traced steps themselves yield (the offline
/// probes and memory readings are added by the caller).
fn layer_metrics(spec: &Spec, tally: &Tally, trace: &Trace, untraced_ms: f64) -> Vec<Metric> {
    let mut out = Vec::new();
    let mut put = |name, value, unit| out.push(Metric { name, value, unit });
    let ratio = |n: f64, d: f64| if d > 0.0 { n / d } else { 0.0 };
    let share = |(n, d): (u64, u64)| ratio(n as f64, d as f64);
    let sum = |f: fn(&StepSample) -> u64| tally.samples.iter().map(f).sum::<u64>() as f64;
    let per_step = |f: fn(&StepSample) -> u64, unit_ns: f64| -> Vec<f64> {
        tally
            .samples
            .iter()
            .map(|s| f(s) as f64 / unit_ns)
            .collect()
    };
    let totals = &tally.totals;
    let n_steps = tally.samples.len() as f64;
    let flushes = n_steps * spec.flushes_per_step as f64;
    let frames = totals.frames as f64;
    let records = tally.step_records.iter().sum::<u64>() as f64;
    let shards = match spec.link {
        Link::InProcess => 1.0,
        Link::Tcp { shards } => shards as f64,
    };
    let (wall_ns, poll_ns) = (sum(|s| s.wall_ns), sum(|s| s.poll_ns));
    let (ingest_ns, refresh_ns) = (sum(|s| s.ingest_ns), sum(|s| s.refresh_ns));
    let walls = per_step(|s| s.wall_ns, 1e6);
    let refresh_ms = per_step(|s| s.refresh_ns, 1e6);
    // All zeros in process: no link, no broker.
    let relay_us = per_step(|s| s.relay_ns, 1e3);
    let skew_us = per_step(|s| s.skew_ns, 1e3);
    let envelope_bytes = totals.socket_bytes.saturating_sub(totals.payload_bytes) as f64;

    put("core.tracer.poll_ns_per_record", poll_ns / records, "ns");
    put(
        "core.tracer.poll_us_per_flush",
        poll_ns / 1e3 / flushes,
        "us",
    );
    put("core.tracer.frames_per_flush", frames / flushes, "count");
    put("core.tracer.frames_dropped", totals.dropped as f64, "count");
    put(
        "net.link.send_us_per_frame",
        sum(|s| s.link_ns) / 1e3 / frames,
        "us",
    );
    put(
        "net.link.envelope_bytes_per_frame",
        envelope_bytes / frames,
        "B",
    );
    put("net.link.redials", totals.redials as f64, "count");
    put("net.broker.relay_us_p50", median(&relay_us), "us");
    put("net.broker.relay_us_p90", percentile(&relay_us, 0.9), "us");
    put(
        "net.broker.write_calls_per_frame",
        totals.broker_writes as f64 / (frames * shards),
        "count",
    );
    put("net.broker.fanout_skew_us_p50", median(&skew_us), "us");
    put(
        "net.broker.duplicates_rejected",
        totals.duplicates as f64,
        "count",
    );
    put(
        "net.broker.ring_dropped",
        totals.ring_dropped as f64,
        "count",
    );
    put(
        "core.analyzer.ingest_us_per_frame",
        ingest_ns / 1e3 / (frames * shards),
        "us",
    );
    put(
        "core.analyzer.ingest_ns_per_record",
        ingest_ns / records,
        "ns",
    );
    put("core.analyzer.refresh_ms_p50", median(&refresh_ms), "ms");
    put(
        "core.analyzer.refresh_ms_p90",
        percentile(&refresh_ms, 0.9),
        "ms",
    );
    put("core.analyzer.refresh_share", refresh_ns / wall_ns, "ratio");
    put(
        "core.analyzer.pairs",
        totals.pairs as f64 / n_steps,
        "count",
    );
    put(
        "core.analyzer.pairs_pruned_share",
        share(tally.pruned),
        "ratio",
    );
    put(
        "core.analyzer.pairs_skipped_share",
        share(tally.skipped),
        "ratio",
    );
    put(
        "core.analyzer.roots_reused_share",
        share(tally.reused),
        "ratio",
    );
    put(
        "core.analyzer.series_allocs_per_refresh",
        totals.allocs as f64 / n_steps,
        "count",
    );
    let traced_ms = wall_ns / 1e6 / n_steps;
    put(
        "trace.overhead_share",
        (traced_ms - untraced_ms) / untraced_ms,
        "ratio",
    );
    put("trace.step_ms_mean", traced_ms, "ms");
    put("trace.untraced_step_ms_mean", untraced_ms, "ms");
    put("trace.samples", n_steps, "count");
    // The tail of the step time: the 90th percentile is the highest that
    // keeps ten samples beyond it on every workload.
    put("bench.step_ms_p50", median(&walls), "ms");
    put("bench.step_ms_p90", percentile(&walls, 0.9), "ms");

    // Self time per layer as a share of the traced step time.
    let selfs = trace.self_times();
    let layer = |prefix: &str| -> f64 {
        let ns: u64 = selfs
            .iter()
            .filter(|(name, _)| name.starts_with(prefix))
            .map(|(_, &ns)| ns)
            .sum();
        ns as f64 / wall_ns
    };
    put("core.tracer.self_share", layer("core.tracer."), "ratio");
    put("net.self_share", layer("net."), "ratio");
    put("core.analyzer.self_share", layer("core.analyzer."), "ratio");
    put("bench.driver.self_share", layer("bench."), "ratio");
    out
}

/// Runs `spec` once: set-up, checks, `seconds` of measured replay, and
/// the metrics of the requested kind. A traced run writes its spans to
/// `trace_dir/trace-<workload>.json`.
pub fn run(spec: Spec, seed: u64, seconds: f64, traced: bool, trace_dir: &Path) -> Report {
    let mut notes = Vec::new();

    // Set-up: load generation, timed on its own and excluded from every
    // other number.
    let mut setup_times = Vec::new();
    let mut capture = None;
    while setup_times.len() < SETUP_REPEATS || setup_times.iter().sum::<f64>() < SETUP_MIN_SECONDS {
        drop(capture.take());
        let t0 = Instant::now();
        capture = Some(workloads::build(&spec, seed));
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let capture = capture.expect("set-up ran at least once");
    let setup_s = median(&setup_times);
    let (rss_setup, _) = rss_mb();
    let plan = Plan::new(spec, &capture);
    let warm = spec.warmup_steps();
    assert!(
        spec.steps() > warm,
        "{}: {} steps cannot cover {} warm-up steps",
        spec.name,
        spec.steps(),
        warm
    );

    // A sharded socket run must publish, at every refresh, exactly what
    // one in-process analyzer publishes: take that anchor first.
    let mut reference = Vec::new();
    let anchored = matches!(spec.link, Link::Tcp { shards } if shards > 1);
    if anchored {
        let anchor_plan = Plan::new(
            Spec {
                link: Link::InProcess,
                ..spec
            },
            &capture,
        );
        let mut anchor = Pipeline::build(&anchor_plan, &capture, false);
        for step in 1..=spec.steps() {
            reference.push(judge::digest(&anchor.step(step).graphs));
        }
        anchor.shutdown();
    }

    let mut tally = Tally::default();
    let mut untraced_ms = f64::NAN;
    let mut trace = None;
    if traced {
        let mut reference_tally = Tally::default();
        replay(
            &plan,
            &capture,
            Duration::from_secs_f64(seconds * UNTRACED_SHARE),
            None,
            &mut reference,
            &mut reference_tally,
        );
        let walls: Vec<f64> = reference_tally
            .samples
            .iter()
            .map(|s| s.wall_ns as f64 / 1e6)
            .collect();
        untraced_ms = walls.iter().sum::<f64>() / walls.len() as f64;
        tally.mismatches += reference_tally.mismatches;
        let mut t = Trace::new();
        replay(
            &plan,
            &capture,
            Duration::from_secs_f64(seconds * (1.0 - UNTRACED_SHARE)),
            Some(&mut t),
            &mut reference,
            &mut tally,
        );
        trace = Some(t);
    } else {
        replay(
            &plan,
            &capture,
            Duration::from_secs_f64(seconds),
            None,
            &mut reference,
            &mut tally,
        );
    }
    let (_, rss_peak) = rss_mb();

    // Totals and checks.
    let n_steps = tally.samples.len() as f64;
    let wall_ns: u64 = tally.samples.iter().map(|s| s.wall_ns).sum();
    let poll_ns: u64 = tally.samples.iter().map(|s| s.poll_ns).sum();
    let lost: u64 = tally.samples.iter().map(|s| s.lost).sum();
    let expected: u64 = tally.verdicts.iter().map(|v| v.expected).sum();
    let missing: u64 = tally.verdicts.iter().map(|v| v.missing).sum();
    let (whole, whole_payload, whole_socket) = tally.first_pass;
    let graded: Vec<&Verdict> = tally.verdicts[..whole]
        .iter()
        .filter(|v| v.expected > 0)
        .collect();
    let recall = graded.iter().map(|v| v.recall).sum::<f64>() / graded.len() as f64;
    let precision = graded.iter().map(|v| v.precision).sum::<f64>() / graded.len() as f64;
    let attempted = tally.totals.frames + expected;
    let failed = tally.totals.dropped + tally.unwritten + lost + missing;

    notes.push(format!(
        "{} measured steps over {} pass(es) of {} steps ({} warm-up each), {:.2} s measured",
        tally.samples.len(),
        tally.passes,
        spec.steps(),
        warm,
        wall_ns as f64 / 1e9
    ));
    notes.push(format!(
        "digest {:016x} over {} steps; {} step digest(s) differed between passes{}",
        judge::fold(&reference),
        reference.len(),
        tally.mismatches,
        if anchored {
            " or from the in-process single-shard anchor"
        } else {
            ""
        }
    ));
    notes.push(format!(
        "recall {recall:.4}, precision {precision:.4} over the {} graded steps of one whole pass \
         (floor {RECALL_FLOOR}); {} edges published per step",
        graded.len(),
        tally.verdicts.iter().map(|v| v.edges).sum::<u64>() as f64 / n_steps
    ));
    notes.push(format!(
        "{attempted} operations attempted ({} frames, {expected} graphs due), {failed} failed \
         ({} dropped, {} unwritten, {lost} not ingested, {missing} graphs missing)",
        tally.totals.frames, tally.totals.dropped, tally.unwritten
    ));
    let correct =
        tally.mismatches == 0 && failed == 0 && recall >= RECALL_FLOOR && !tally.samples.is_empty();

    let walls: Vec<f64> = tally
        .samples
        .iter()
        .map(|s| s.wall_ns as f64 / 1e6)
        .collect();
    let records = tally.step_records.iter().sum::<u64>() as f64;
    let whole_records = tally.step_records[..whole].iter().sum::<u64>() as f64;
    let wire_bytes = match spec.link {
        Link::Tcp { .. } => whole_socket,
        Link::InProcess => whole_payload,
    };

    let metrics = match &trace {
        None => {
            notes.push(format!("step_ms_p50 over {} samples", walls.len()));
            vec![
                Metric {
                    name: "setup_s",
                    value: setup_s,
                    unit: "s",
                },
                Metric {
                    name: "records_per_s",
                    value: records / (wall_ns as f64 / 1e9),
                    unit: "1/s",
                },
                Metric {
                    name: "step_ms_p50",
                    value: median(&walls),
                    unit: "ms",
                },
                Metric {
                    name: "tracer_ns_per_record",
                    value: poll_ns as f64 / records,
                    unit: "ns",
                },
                Metric {
                    name: "wire_bytes_per_record",
                    value: wire_bytes as f64 / whole_records,
                    unit: "B",
                },
                Metric {
                    name: "edge_recall",
                    value: recall,
                    unit: "ratio",
                },
                Metric {
                    name: "edge_precision",
                    value: precision,
                    unit: "ratio",
                },
            ]
        }
        Some(trace) => {
            let traced_ms = walls.iter().sum::<f64>() / n_steps;
            notes.push(format!(
                "traced step mean {traced_ms:.3} ms vs untraced {untraced_ms:.3} ms; \
                 percentiles over {} samples ({} beyond p90)",
                walls.len(),
                walls.len() - (0.9 * walls.len() as f64).ceil() as usize
            ));
            let mut metrics = layer_metrics(&spec, &tally, trace, untraced_ms);
            metrics.push(Metric {
                name: "mem.rss_setup_mb",
                value: rss_setup,
                unit: "MiB",
            });
            metrics.push(Metric {
                name: "mem.rss_peak_delta_mb",
                value: (rss_peak - rss_setup).max(0.0),
                unit: "MiB",
            });
            metrics.extend(
                probes::run(&plan, &capture)
                    .into_iter()
                    .map(|(name, value, unit)| Metric { name, value, unit }),
            );
            metrics
        }
    };

    if let Some(trace) = &trace {
        let path = trace_dir.join(format!("trace-{}.json", spec.name));
        match trace.write_json(&path) {
            Ok(()) => notes.push(format!(
                "{} spans written to {}",
                trace.spans().len(),
                path.display()
            )),
            Err(e) => notes.push(format!("could not write {}: {e}", path.display())),
        }
    }

    Report {
        workload: spec.name,
        seed,
        correct,
        attempted,
        failed,
        metrics,
        digest: judge::fold(&reference),
        notes,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn median_and_percentile_use_the_samples_given() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert!(median(&[]).is_nan());
        let hundred: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&hundred, 0.9), 90.0);
        assert_eq!(percentile(&hundred, 1.0), 100.0);
        assert_eq!(percentile(&[7.0], 0.9), 7.0);
    }
}
