//! Absolute anchor: the online graphs of the two evaluation applications,
//! pinned bit for bit.
//!
//! Every equivalence suite compares one configuration against another, so
//! a change that moves *both* sides by an ulp passes them all. This test
//! pins the published graphs themselves: each refresh's graphs are
//! digested over `(client, from, to, spike lag, strength.to_bits())` and
//! the fold over all refreshes must equal a constant recorded on the
//! commit preceding the linear-time refresh kernels (PR 17). A kernel
//! rewrite that claims "same bits" is falsified here if it is wrong.
//! The Delta seeds 8–9 were recorded on the last commit that still had an
//! eager refresh (`incremental = false`, the parent of PR 22), so they pin
//! the activity-gated refresh — now the only one — to what the eager
//! computation published.
//!
//! If a PR *intends* to change the arithmetic, it re-records the
//! constants (the failure message prints the new value) and says so.

use e2eprof::apps::delta::{Delta, DeltaConfig};
use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::prelude::*;
use e2eprof::netsim::Simulation;
use e2eprof::timeseries::{Nanos, Quanta};

/// FNV-1a over 64-bit words.
struct Fnv(u64);

impl Fnv {
    fn new() -> Self {
        Fnv(0xCBF2_9CE4_8422_2325)
    }

    fn word(&mut self, w: u64) {
        for byte in w.to_le_bytes() {
            self.0 ^= u64::from(byte);
            self.0 = self.0.wrapping_mul(0x0000_0100_0000_01B3);
        }
    }
}

/// Folds one refresh's graphs into `h`, in published order, edges sorted
/// by endpoints.
fn digest_into(h: &mut Fnv, graphs: &[ServiceGraph]) {
    h.word(graphs.len() as u64);
    for g in graphs {
        h.word(g.client.index() as u64);
        let mut edges: Vec<_> = g.edges().iter().collect();
        edges.sort_by_key(|e| (e.from, e.to));
        h.word(edges.len() as u64);
        for e in edges {
            h.word(e.from.index() as u64);
            h.word(e.to.index() as u64);
            h.word(e.spikes.len() as u64);
            for s in &e.spikes {
                h.word(s.delay.as_nanos());
                h.word(s.strength.to_bits());
            }
        }
    }
}

/// Drives a [`LocalPipeline`] over `steps` refresh intervals and returns
/// `(digest of every refresh, number of non-empty refreshes)`.
fn run_digest(
    sim: &mut Simulation,
    config: &PathmapConfig,
    steps: u64,
    drain_lag: Nanos,
) -> (u64, usize) {
    let mut pipeline = LocalPipeline::new(sim.topology(), config.clone());
    let mut h = Fnv::new();
    let mut productive = 0;
    for i in 1..=steps {
        let now = Nanos::from_nanos(config.refresh().as_nanos() * i);
        let graphs = pipeline.step(sim, now, drain_lag);
        if !graphs.is_empty() {
            productive += 1;
        }
        digest_into(&mut h, &graphs);
    }
    (h.0, productive)
}

/// RUBiS with affinity dispatch under `config`, drained 1 s behind.
fn rubis_digest(seed: u64, config: &PathmapConfig, steps: u64) -> (u64, usize) {
    let mut app = Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed,
        ..RubisConfig::default()
    });
    run_digest(app.sim_mut(), config, steps, Nanos::from_secs(1))
}

fn delta_digest(seed: u64) -> (u64, usize) {
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_secs(1))
        .omega_ticks(20)
        .window(Nanos::from_minutes(30))
        .refresh(Nanos::from_minutes(5))
        .max_delay(Nanos::from_minutes(10))
        .build();
    let mut app = Delta::build(DeltaConfig {
        queues: 6,
        seed,
        ..DeltaConfig::default()
    });
    run_digest(app.sim_mut(), &config, 12, Nanos::from_secs(60))
}

/// Hex rendering so a failure prints values ready to paste back.
fn hex(digests: &[u64]) -> Vec<String> {
    digests.iter().map(|d| format!("{d:#018x}")).collect()
}

/// Digests `seeds` with `digest`, demanding `min_productive` non-empty
/// refreshes of each, and compares against `golden`.
fn assert_recorded(
    what: &str,
    seeds: &[u64],
    min_productive: usize,
    digest: impl Fn(u64) -> (u64, usize),
    golden: &[u64],
) {
    let got: Vec<u64> = seeds
        .iter()
        .map(|&seed| {
            let (digest, productive) = digest(seed);
            assert!(
                productive >= min_productive,
                "{what} seed {seed}: only {productive} productive refreshes"
            );
            digest
        })
        .collect();
    assert_eq!(
        hex(&got),
        hex(golden),
        "{what} seeds {seeds:?}: graph bits moved (left: now, right: recorded)"
    );
}

#[test]
fn rubis_online_graphs_match_recorded_bits() {
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(20))
        .refresh(Nanos::from_secs(5))
        .max_delay(Nanos::from_secs(2))
        .build();
    assert_recorded(
        "rubis",
        &[1, 2, 3],
        5,
        |seed| rubis_digest(seed, &config, 12),
        &[
            0xeb78_02ef_1b39_ed78,
            0xa7e9_e0cc_e445_62dd,
            0x24f4_c687_922a_e374,
        ],
    );
}

#[test]
fn delta_online_graphs_match_recorded_bits() {
    assert_recorded(
        "delta",
        &[7, 8, 9],
        2,
        delta_digest,
        &[
            0xd471_aa42_47c4_eb17,
            0xa300_0684_98b2_da27,
            0xd917_4279_8c3d_e62f,
        ],
    );
}

/// The paper's own RUBiS geometry (W = 3 min, T_u = 1 min: 60 000 lags at
/// τ = 1 ms, ΔW = 15 s), where the lag axis is long enough for the slide
/// kernel to walk it in several tiles — the constants above use 2 000
/// lags and never cross one. The first refresh that sees `W + T_u` of
/// data (the 17th, at 255 s) fills every pair; five more slide them. Recorded on the commit before the lag-tiled kernel and the
/// four-lane normalization. Too slow for a debug build; CI runs it in
/// release.
#[test]
#[cfg_attr(debug_assertions, ignore)]
fn rubis_paper_geometry_graphs_match_recorded_bits() {
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_minutes(3))
        .refresh(Nanos::from_secs(15))
        .max_delay(Nanos::from_minutes(1))
        .build();
    assert_recorded(
        "rubis paper geometry",
        &[1],
        6,
        |seed| rubis_digest(seed, &config, 22),
        &[0xa572_b3cd_ca35_9632],
    );
}
