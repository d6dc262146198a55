//! The deterministic fault-injection harness: scripted connection cuts
//! (at exact byte offsets, including mid-frame), read-side jitter, and
//! stalls are injected into the distributed pipeline, and the analyzer
//! tier's graphs after every reconnect must be **identical** to an
//! uninterrupted run — frames are delivered exactly once, in per-origin
//! order, or not at all (counted, never silent).
//!
//! Everything here is deterministic: faults trigger on byte/operation
//! counts (not time), reconnect backoff is zero, and the run loop blocks
//! on frame counts rather than sleeping. Failures reproduce exactly.

use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::net::fault::FaultPlan;
use e2eprof::net::pipeline::{run_distributed, Endpoint, PipelineBuilder};
use e2eprof::timeseries::{Nanos, Quanta};

fn cfg() -> PathmapConfig {
    PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .build()
}

fn build_app() -> Rubis {
    Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed: 1,
        ..RubisConfig::default()
    })
}

const STEPS: u64 = 12;
const STEP: Nanos = Nanos::from_secs(5);
const LAG: Nanos = Nanos::from_secs(1);

/// The uninterrupted distributed run every faulted run must match.
fn clean_run(shards: usize) -> Vec<Vec<ServiceGraph>> {
    let mut app = build_app();
    let endpoint = Endpoint::Mem.bind().expect("bind");
    run_distributed(
        app.sim_mut(),
        PipelineBuilder::new(cfg(), shards),
        &endpoint,
        STEPS,
        STEP,
        LAG,
    )
}

/// Exact structural equality (the fault harness demands bit-identity,
/// not tolerance: reconnects must not perturb the windows at all).
fn assert_identical(a: &[Vec<ServiceGraph>], b: &[Vec<ServiceGraph>], ctx: &str) {
    assert_eq!(a.len(), b.len(), "{ctx}: refresh count differs");
    for (i, (ra, rb)) in a.iter().zip(b).enumerate() {
        assert_eq!(ra.len(), rb.len(), "{ctx}: refresh {} graph count", i + 1);
        for (ga, gb) in ra.iter().zip(rb) {
            assert_eq!(ga.client_label, gb.client_label, "{ctx}");
            let key = |g: &ServiceGraph| {
                let mut edges: Vec<_> = g
                    .edges()
                    .iter()
                    .map(|e| {
                        (
                            (e.from, e.to),
                            e.spikes
                                .iter()
                                .map(|s| (s.delay, s.strength.to_bits()))
                                .collect::<Vec<_>>(),
                            e.hop_delay,
                        )
                    })
                    .collect();
                edges.sort();
                edges
            };
            assert_eq!(
                key(ga),
                key(gb),
                "{ctx}: refresh {} diverged\n{ga}\nvs\n{gb}",
                i + 1
            );
        }
    }
}

#[test]
fn tracer_mid_frame_cuts_leave_graphs_identical() {
    let anchor = clean_run(2);
    // Every tracer's first connection dies mid-stream at a different,
    // deliberately awkward byte offset (inside headers, inside payloads);
    // the second connection for nodes 0 and 1 dies too. All reconnect.
    let mut app = build_app();
    let endpoint = Endpoint::Mem.bind().expect("bind");
    let builder = PipelineBuilder::new(cfg(), 2)
        .tracer_faults(
            0,
            vec![FaultPlan::cut_write_at(97), FaultPlan::cut_write_at(411)],
        )
        .tracer_faults(
            1,
            vec![FaultPlan::cut_write_at(130), FaultPlan::cut_write_at(267)],
        )
        .tracer_faults(2, vec![FaultPlan::cut_write_at(55)])
        .tracer_faults(3, vec![FaultPlan::cut_write_at(1)]);
    let faulted = run_distributed(app.sim_mut(), builder, &endpoint, STEPS, STEP, LAG);
    assert_identical(&anchor, &faulted, "tracer cuts");
}

#[test]
fn analyzer_disconnects_resume_without_loss_or_duplication() {
    let anchor = clean_run(2);
    // Both analyzer shards lose their subscription mid-run — at different
    // read offsets — and resubscribe with resume positions.
    let mut app = build_app();
    let endpoint = Endpoint::Mem.bind().expect("bind");
    let builder = PipelineBuilder::new(cfg(), 2)
        .analyzer_faults(
            0,
            vec![FaultPlan::cut_read_at(731), FaultPlan::cut_read_at(2048)],
        )
        .analyzer_faults(1, vec![FaultPlan::cut_read_at(113)]);
    let faulted = run_distributed(app.sim_mut(), builder, &endpoint, STEPS, STEP, LAG);
    assert_identical(&anchor, &faulted, "analyzer cuts");
}

#[test]
fn jitter_and_stalls_change_timing_not_results() {
    let anchor = clean_run(4);
    // Short reads/writes everywhere (seeded, so the chunking schedule is
    // reproducible) plus a write-side stall on one tracer.
    let mut app = build_app();
    let endpoint = Endpoint::Mem.bind().expect("bind");
    let mut builder = PipelineBuilder::new(cfg(), 4)
        .tracer_faults(0, vec![FaultPlan::jitter(42, 3); 1])
        .tracer_faults(1, vec![FaultPlan::jitter(43, 5); 1])
        .analyzer_faults(0, vec![FaultPlan::jitter(44, 7); 1]);
    let mut stall = FaultPlan::jitter(45, 4);
    stall.stall = Some(e2eprof::net::fault::Stall { at: 64, ops: 3 });
    builder = builder.tracer_faults(2, vec![stall]);
    let faulted = run_distributed(app.sim_mut(), builder, &endpoint, STEPS, STEP, LAG);
    assert_identical(&anchor, &faulted, "jitter+stall");
}

/// Cuts that land *inside* a coalesced multi-frame batch. With a zero
/// redial budget, each failed poll leaves its frame queued, so the
/// backlog grows across polls; the first connection that survives its
/// handshake flushes the whole backlog as one coalesced write — and the
/// scripted byte-offset cut severs that write mid-batch. The
/// fully-written prefix must be retired exactly once (never re-sent into
/// the dedup window as a *different* count), the partial frame must be
/// rewound and resent whole, and the graphs must stay bit-identical to
/// an unfaulted run at 1 and 4 shards.
#[test]
fn cuts_mid_coalesced_batch_leave_graphs_identical() {
    use e2eprof::net::link::LinkConfig;
    for shards in [1, 4] {
        let anchor = clean_run(shards);
        let mut app = build_app();
        let endpoint = Endpoint::Mem.bind().expect("bind");
        let mut link = LinkConfig::immediate();
        // One flush attempt per poll: a cut connection leaves the frame
        // queued instead of redialing inside the same flush, so the
        // backlog (and with it the coalesced batch) builds up.
        link.max_flush_redials = 0;
        let builder = PipelineBuilder::new(cfg(), shards)
            .link_config(link)
            .tracer_faults(
                0,
                vec![
                    // Three connections die during the handshake (byte 1)
                    // — three polls' frames pile up — then the fourth
                    // survives the handshake and is cut mid-way through
                    // the coalesced backlog flush.
                    FaultPlan::cut_write_at(1),
                    FaultPlan::cut_write_at(1),
                    FaultPlan::cut_write_at(1),
                    FaultPlan::cut_write_at(260),
                ],
            )
            .tracer_faults(
                1,
                vec![
                    FaultPlan::cut_write_at(1),
                    FaultPlan::cut_write_at(1),
                    FaultPlan::cut_write_at(520),
                ],
            )
            .tracer_faults(
                2,
                vec![FaultPlan::cut_write_at(1), FaultPlan::cut_write_at(900)],
            )
            // And a subscriber cut landing mid-way through the broker's
            // coalesced replay backlog on reconnect.
            .analyzer_faults(0, vec![FaultPlan::cut_read_at(700)]);
        let faulted = run_distributed(app.sim_mut(), builder, &endpoint, STEPS, STEP, LAG);
        assert_identical(
            &anchor,
            &faulted,
            &format!("coalesced-batch cuts x{shards}"),
        );
    }
}

#[test]
fn cuts_compose_with_jitter_across_shard_counts() {
    for shards in [1, 4] {
        let anchor = clean_run(shards);
        let mut app = build_app();
        let endpoint = Endpoint::Mem.bind().expect("bind");
        let mut cut_and_jitter = FaultPlan::cut_write_at(300);
        cut_and_jitter.jitter = Some(e2eprof::net::fault::Jitter {
            seed: 7,
            max_chunk: 2,
        });
        let builder = PipelineBuilder::new(cfg(), shards)
            .tracer_faults(0, vec![cut_and_jitter])
            .analyzer_faults(0, vec![FaultPlan::cut_read_at(500)]);
        let faulted = run_distributed(app.sim_mut(), builder, &endpoint, STEPS, STEP, LAG);
        assert_identical(&anchor, &faulted, &format!("composed faults x{shards}"));
    }
}

/// A permanently unreachable broker must not panic, hang, or grow
/// unboundedly: the bounded queue evicts oldest, the agent counts every
/// eviction, and `poll` reports the drops in its outcome.
#[test]
fn unreachable_broker_drops_are_counted_never_silent() {
    use e2eprof::net::link::{LinkConfig, TracerLink};
    use e2eprof::net::{Dialer, NetStream};
    use e2eprof::netsim::NodeId;
    use std::collections::HashSet;

    struct DeadDialer;
    impl Dialer for DeadDialer {
        fn dial(&self) -> std::io::Result<Box<dyn NetStream>> {
            Err(std::io::Error::new(
                std::io::ErrorKind::ConnectionRefused,
                "down",
            ))
        }
    }

    let mut app = build_app();
    let sim = app.sim_mut();
    let clients: HashSet<NodeId> = sim.topology().clients().into_iter().collect();
    let node = sim.topology().services()[0];
    let mut link_cfg = LinkConfig::immediate();
    link_cfg.queue_capacity = 2;
    link_cfg.max_flush_redials = 0;
    let link = TracerLink::new(node.index() as u32, Box::new(DeadDialer), link_cfg);
    // One frame per poll: the 2-slot queue overflows from the third on.
    let mut agent = TracerAgent::with_sink(node, clients, cfg(), Box::new(link));
    let mut dropped_outcomes = 0;
    for i in 1..=6u64 {
        let now = Nanos::from_secs(5 * i);
        sim.run_until(now);
        let drain = Quanta::from_millis(1).tick_of(now.saturating_sub(Nanos::from_secs(1)));
        match agent.poll(sim.captures(), drain) {
            PollOutcome::Dropped(n) => {
                assert!(n > 0);
                dropped_outcomes += 1;
            }
            PollOutcome::Sent(_) => {}
        }
    }
    assert!(
        dropped_outcomes > 0,
        "a 2-slot queue against a dead broker must overflow"
    );
    assert!(agent.frames_emitted() > agent.frames_dropped());
    assert_eq!(
        agent.frames_dropped(),
        agent.frames_emitted() - 2,
        "everything but the retained queue tail was dropped, and counted"
    );
}

/// The reduction feedback loop's fault-tolerance contract: hint
/// subscriptions are cut mid-stream — including between a demote `Hint`
/// and the `Backfill` its later promote triggers — and the replayed
/// full-state snapshots must converge every tracer to the same levels,
/// leaving the published graphs identical to an unfaulted reduced run.
mod reduction_faults {
    use super::*;
    use e2eprof_bench::ebbing_fanout_sim;

    fn reduced_cfg() -> PathmapConfig {
        PathmapConfig::builder()
            .window(Nanos::from_secs(20))
            .refresh(Nanos::from_secs(5))
            .max_delay(Nanos::from_millis(500))
            .reduction(ReductionConfig::default())
            .build()
    }

    /// The ebbing fanout drives the whole hint lifecycle inside 12 × 5 s
    /// steps on a sharded tier: the background client's silence lets its
    /// backend edges go cold on *every* shard (the unanimity the
    /// effective-level merge requires), its resumption fires the
    /// promote-overlap check, and the promote triggers fine backfills.
    fn run_ebbing(
        builder_faults: impl FnOnce(PipelineBuilder) -> PipelineBuilder,
    ) -> (Vec<Vec<ServiceGraph>>, u64) {
        let mut sim = ebbing_fanout_sim(4, 11, 12.0, 44.0, 60.0);
        let endpoint = Endpoint::Mem.bind().expect("bind");
        let builder = builder_faults(PipelineBuilder::new(reduced_cfg(), 2));
        let mut pipeline = builder.build(sim.topology(), &endpoint);
        let mut out = Vec::new();
        for i in 1..=STEPS {
            let now = Nanos::from_nanos(STEP.as_nanos() * i);
            out.push(pipeline.step(&mut sim, now, LAG));
        }
        let backfills = pipeline.backfills_emitted();
        pipeline.shutdown();
        (out, backfills)
    }

    #[test]
    fn hint_cuts_between_hint_and_backfill_converge_to_the_same_graphs() {
        let (clean, clean_backfills) = run_ebbing(|b| b);
        assert!(
            clean_backfills > 0,
            "the ebbing workload must drive a demote→promote→backfill round trip"
        );
        // Cut the hint subscriptions at mid-frame byte offsets chosen to
        // land after the demote snapshots and before the promote ones —
        // i.e. between a Hint and the Backfill it will trigger — plus one
        // immediate cut exercising the resubscribe-from-scratch path.
        let (faulted, faulted_backfills) = run_ebbing(|b| {
            b.hint_faults(
                0,
                vec![FaultPlan::cut_read_at(41), FaultPlan::cut_read_at(97)],
            )
            .hint_faults(1, vec![FaultPlan::cut_read_at(73)])
            .hint_faults(2, vec![FaultPlan::cut_read_at(1)])
        });
        assert_identical(&clean, &faulted, "hint cuts");
        assert!(
            faulted_backfills > 0,
            "hint replay must still deliver the promote and its backfill"
        );
    }

    /// Hint faults compose with data-link faults: a tracer whose *data*
    /// connection dies mid-frame while its *hint* subscription is also
    /// cut must still converge.
    #[test]
    fn hint_and_data_cuts_compose() {
        let (clean, _) = run_ebbing(|b| b);
        let (faulted, backfills) = run_ebbing(|b| {
            b.tracer_faults(0, vec![FaultPlan::cut_write_at(211)])
                .hint_faults(0, vec![FaultPlan::cut_read_at(59)])
                .analyzer_faults(1, vec![FaultPlan::cut_read_at(307)])
        });
        assert_identical(&clean, &faulted, "hint+data cuts");
        assert!(backfills > 0);
    }
}

/// Same-seed fault schedules are bitwise reproducible: two identical
/// faulted runs yield identical graphs (the harness itself is
/// deterministic, so any failure it ever reports replays exactly).
#[test]
fn faulted_runs_are_reproducible() {
    let run = || {
        let mut app = build_app();
        let endpoint = Endpoint::Mem.bind().expect("bind");
        let builder = PipelineBuilder::new(cfg(), 2)
            .tracer_faults(
                0,
                vec![FaultPlan::jitter(9, 2), FaultPlan::cut_write_at(200)],
            )
            .analyzer_faults(1, vec![FaultPlan::cut_read_at(901)]);
        run_distributed(app.sim_mut(), builder, &endpoint, STEPS, STEP, LAG)
    };
    let first = run();
    let second = run();
    assert_identical(&first, &second, "reproducibility");
}
