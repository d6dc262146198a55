//! Fig. 10 (Criterion form): the *cost* side of trace compression — how
//! long density estimation, zero-suppression, run-length encoding, and
//! wire encoding take as the window grows. (The representation *sizes*
//! Fig. 10 plots are printed by `experiments fig10`.)
//!
//! The trailing size report extends the figure to the wire formats — a
//! pure format comparison calling the two encoders directly, no pipeline
//! involved: bytes/record for one RUBiS window as v1 frames (fixed
//! layout, one per edge; reader-side only now) versus the batch frames
//! tracers ship, with raw and integer-count amplitudes, asserting the
//! shipped form spends at least 1.5× fewer bytes per captured record.
//! Written to `BENCH_fig10_compression.json`.

use criterion::{criterion_group, BenchmarkId, Criterion, Throughput};
use e2eprof_bench::{rubis_scenario, write_bench_json, JsonValue};
use e2eprof_timeseries::density::DensityEstimator;
use e2eprof_timeseries::{wire, Nanos, Quanta, RleSeries};

fn bench_fig10(c: &mut Criterion) {
    let mut group = c.benchmark_group("fig10_compression");
    for w_secs in [30u64, 60, 120] {
        let scenario = rubis_scenario(Nanos::from_secs(w_secs), Nanos::from_secs(2), 42);
        let n = scenario.rubis.nodes();
        let timestamps: Vec<Nanos> = scenario
            .rubis
            .sim()
            .captures()
            .edge_signal(n.ts1, n.ws)
            .to_vec();
        group.throughput(Throughput::Elements(timestamps.len() as u64));

        group.bench_with_input(
            BenchmarkId::new("density_estimation", w_secs),
            &timestamps,
            |b, ts| {
                b.iter(|| DensityEstimator::from_timestamps(Quanta::from_millis(1), 50, ts));
            },
        );

        let sparse = DensityEstimator::from_timestamps(Quanta::from_millis(1), 50, &timestamps);
        group.bench_with_input(BenchmarkId::new("rle_encode", w_secs), &sparse, |b, s| {
            b.iter(|| s.to_rle());
        });

        let rle = sparse.to_rle();
        group.bench_with_input(BenchmarkId::new("rle_decode", w_secs), &rle, |b, r| {
            b.iter(|| r.to_sparse());
        });

        group.bench_with_input(BenchmarkId::new("wire_encode", w_secs), &rle, |b, r| {
            b.iter(|| wire::encode(r));
        });

        let frame = wire::encode(&rle);
        group.bench_with_input(BenchmarkId::new("wire_decode", w_secs), &frame, |b, f| {
            b.iter(|| wire::decode(f).expect("valid frame"));
        });
    }
    group.finish();
}

criterion_group!(benches, bench_fig10);

/// Bytes on the wire to ship one full window of every captured edge's
/// density series, per underlying message record.
fn size_report() {
    let scenario = rubis_scenario(Nanos::from_secs(60), Nanos::from_secs(2), 42);
    let captures = scenario.rubis.sim().captures();
    let mut entries: Vec<((u32, u32), RleSeries)> = Vec::new();
    let mut records = 0u64;
    for (src, dst) in captures.edges() {
        let ts = captures.edge_signal(src, dst).to_vec();
        records += ts.len() as u64;
        let rle = DensityEstimator::from_timestamps(Quanta::from_millis(1), 50, &ts).to_rle();
        entries.push(((src.index() as u32, dst.index() as u32), rle));
    }
    assert!(records > 10_000, "scenario too quiet: {records} records");

    let v1_bytes: u64 = entries
        .iter()
        .map(|(_, s)| wire::encode(s).as_ref().len() as u64)
        .sum();
    let v2_raw_bytes = wire::encode_batch(&entries, false).as_ref().len() as u64;
    let v2_int_bytes = wire::encode_batch(&entries, true).as_ref().len() as u64;
    let per = |bytes: u64| bytes as f64 / records as f64;
    let ratio = per(v1_bytes) / per(v2_int_bytes);

    println!(
        "fig10 wire sizes: {} edges, {records} records in one 60 s window",
        entries.len()
    );
    println!(
        "  v1 per-edge frames   {v1_bytes:>8} B  {:>6.3} B/record",
        per(v1_bytes)
    );
    println!(
        "  v2 batch (raw f64)   {v2_raw_bytes:>8} B  {:>6.3} B/record",
        per(v2_raw_bytes)
    );
    println!(
        "  v2 batch (int amp)   {v2_int_bytes:>8} B  {:>6.3} B/record  ({ratio:.2}x fewer than v1)",
        per(v2_int_bytes)
    );
    assert!(
        ratio >= 1.5,
        "wire v2 must spend >= 1.5x fewer bytes/record than v1, got {ratio:.2}x"
    );
    assert!(
        v2_int_bytes <= v2_raw_bytes,
        "integer amplitudes must never cost more than raw f64"
    );

    let report = JsonValue::Obj(vec![
        ("bench".into(), JsonValue::Str("fig10_compression".into())),
        ("edges".into(), JsonValue::Int(entries.len() as u64)),
        ("records".into(), JsonValue::Int(records)),
        ("v1_bytes".into(), JsonValue::Int(v1_bytes)),
        ("v2_raw_bytes".into(), JsonValue::Int(v2_raw_bytes)),
        ("v2_int_amp_bytes".into(), JsonValue::Int(v2_int_bytes)),
        ("v1_bytes_per_record".into(), JsonValue::Num(per(v1_bytes))),
        (
            "v2_raw_bytes_per_record".into(),
            JsonValue::Num(per(v2_raw_bytes)),
        ),
        (
            "v2_int_amp_bytes_per_record".into(),
            JsonValue::Num(per(v2_int_bytes)),
        ),
        ("v1_over_v2_int_amp".into(), JsonValue::Num(ratio)),
    ]);
    let path = write_bench_json("fig10_compression", &report).expect("write bench artifact");
    println!("  wrote {}", path.display());
}

fn main() {
    let mut c = Criterion::default();
    benches(&mut c);
    size_report();
}
