//! Micro-benchmarks of the correlation engines on one prepared signal
//! pair: the unit cost underlying Fig. 9, plus normalization, spike
//! detection, and the incremental update path — at a 30 s window and at
//! the paper's own scale.

use criterion::{criterion_group, criterion_main, BenchmarkId, Criterion};
use e2eprof_bench::{corr_pair, rubis_scenario};
use e2eprof_timeseries::{Nanos, Tick};
use e2eprof_xcorr::engine::all_engines;
use e2eprof_xcorr::incremental::{IncrementalCorrelator, SlideScratch};
use e2eprof_xcorr::{normalize, rle, SpikeDetector};

fn bench_engines(c: &mut Criterion) {
    let scenario = rubis_scenario(Nanos::from_secs(30), Nanos::from_secs(2), 42);
    let (x, y) = corr_pair(&scenario);
    let max_lag = scenario.config.max_lag();

    let mut group = c.benchmark_group("xcorr_engines");
    for engine in all_engines() {
        group.bench_with_input(
            BenchmarkId::from_parameter(engine.name()),
            &(&x, &y),
            |b, (x, y)| {
                b.iter(|| engine.correlate(x, y, max_lag));
            },
        );
    }
    group.finish();

    let mut group = c.benchmark_group("xcorr_support");
    let raw = rle::correlate(&x, &y, max_lag);
    group.bench_function("normalize_eq1", |b| {
        b.iter(|| normalize::normalize(&raw, &x, &y));
    });
    let rho = normalize::normalize(&raw, &x, &y);
    let detector = SpikeDetector::new(3.0, 50);
    group.bench_function("spike_detection", |b| {
        b.iter(|| detector.detect(rho.values()));
    });
    // One ΔW = W/4 window slide (the online analyzer's unit of work per
    // refresh per edge), with the scratch the analyzer keeps per worker.
    let (start, end) = (x.start(), x.end());
    let quarter = (end - start) / 4;
    let mut scratch = SlideScratch::new();
    group.bench_function("incremental_refresh", |b| {
        b.iter_batched(
            || {
                let mut inc = IncrementalCorrelator::new(max_lag);
                inc.append(&x.slice(start, Tick::new(end.index() - quarter)), &y);
                inc
            },
            |mut inc| {
                let new_start = Tick::new(start.index() + quarter);
                inc.advance(
                    &x.slice(Tick::new(end.index() - quarter), end),
                    &y,
                    new_start,
                    &x.slice(start, new_start),
                    &y,
                    &mut scratch,
                );
                inc
            },
            criterion::BatchSize::LargeInput,
        );
    });

    // The paper's own scale (W = 3 min, T_u = 1 min: 60 000 lags over a
    // few thousand runs). Normalization must stay linear in runs + lags;
    // anything per-lag logarithmic in the runs shows here and not above.
    let paper = rubis_scenario(Nanos::from_minutes(3), Nanos::from_minutes(1), 42);
    let (x, y) = corr_pair(&paper);
    let max_lag = paper.config.max_lag();
    // One ΔW = 15 s slide of the 3 min window (`rubis_paper`'s refresh
    // interval): 60 000 lags walked in lag tiles, both chunks' run pairs
    // within reach.
    let (start, end) = (x.start(), x.end());
    let delta = paper.config.quanta().ticks_in(Nanos::from_secs(15));
    let (cut, new_start) = (
        Tick::new(end.index() - delta),
        Tick::new(start.index() + delta),
    );
    group.bench_function("incremental_refresh/paper_scale", |b| {
        b.iter_batched(
            || {
                let mut inc = IncrementalCorrelator::new(max_lag);
                inc.append(&x.slice(start, cut), &y);
                inc
            },
            |mut inc| {
                inc.advance(
                    &x.slice(cut, end),
                    &y,
                    new_start,
                    &x.slice(start, new_start),
                    &y,
                    &mut scratch,
                );
                inc
            },
            criterion::BatchSize::LargeInput,
        );
    });
    // Discovery's fused path: normalization also sums the coefficients'
    // moments, and spike detection starts from them.
    let raw = rle::correlate(&x, &y, max_lag);
    let mut rho = Vec::new();
    group.bench_function("normalize_eq1/paper_scale", |b| {
        b.iter(|| normalize::normalize_into(&raw, &x, &y, &mut rho));
    });
    let moments = normalize::normalize_into(&raw, &x, &y, &mut rho);
    group.bench_function("spike_detection/paper_scale", |b| {
        b.iter(|| detector.detect_with(&rho, moments));
    });
    group.finish();
}

criterion_group!(benches, bench_engines);
criterion_main!(benches);
