//! Continuous SLA monitoring on the live pipeline — the paper's
//! motivating scenario, automated end to end: tracer agents stream
//! signals, the analyzer republishes service graphs every ΔW, an SLA
//! monitor flags violations *and names the suspect component*, and graph
//! diffs show exactly what changed between refreshes.
//!
//! A fault is injected at EJB1 three minutes in; watch the violation
//! appear with `EJB1` attributed, then study the per-edge diff.
//!
//! ```sh
//! cargo run --release --example sla_monitoring
//! ```

use e2eprof::apps::rubis::{Dispatch, Rubis, RubisConfig};
use e2eprof::core::diff::diff;
use e2eprof::core::prelude::*;
use e2eprof::core::sla::{SlaMonitor, SlaTarget};
use e2eprof::netsim::perturb::DelaySchedule;
use e2eprof::timeseries::{Nanos, Quanta};

fn main() {
    // EJB1 degrades by 60 ms from minute 3 onward.
    let fault = DelaySchedule::Piecewise(vec![(Nanos::from_minutes(3), Nanos::from_millis(60))]);
    let mut rubis = Rubis::build(RubisConfig {
        dispatch: Dispatch::Affinity,
        seed: 17,
        ejb1_perturb: fault,
        ..RubisConfig::default()
    });
    let config = PathmapConfig::builder()
        .quanta(Quanta::from_millis(1))
        .omega_ticks(50)
        .window(Nanos::from_secs(30))
        .refresh(Nanos::from_secs(15))
        .max_delay(Nanos::from_secs(2))
        .build();

    // Tracers on every server, streaming to one analyzer.
    let mut pipeline = LocalPipeline::new(rubis.sim().topology(), config);

    // The bidding class has a 90 ms end-to-end SLA.
    let n = rubis.nodes();
    let mut monitor = SlaMonitor::new(vec![SlaTarget {
        client: n.c1,
        max_latency: Nanos::from_millis(90),
    }]);

    println!("bidding SLA: 90 ms end-to-end; fault (+60 ms at EJB1) from minute 3\n");
    let mut previous: Option<ServiceGraph> = None;
    for step in 1..=24u64 {
        let now = Nanos::from_secs(step * 15);
        let graphs = pipeline.step(rubis.sim_mut(), now, Nanos::from_secs(1));
        if graphs.is_empty() {
            continue;
        }
        let bid = graphs
            .iter()
            .find(|g| g.client == n.c1)
            .expect("bidding graph")
            .clone();

        let estimate = bid
            .end_to_end_delay()
            .map(|d| format!("{:.0}ms", d.as_millis_f64()))
            .unwrap_or_else(|| "n/a".into());
        let violations = monitor.check(now, &graphs);
        let status = if violations.is_empty() {
            "ok"
        } else {
            "SLA VIOLATION"
        };
        print!(
            "t={:>4.0}s  e2e={estimate:>6}  {status:<14}",
            now.as_secs_f64()
        );
        for v in &violations {
            print!(" suspect: {}", v.suspect.as_deref().unwrap_or("(unknown)"));
        }
        // What changed since the previous refresh?
        if let Some(prev) = &previous {
            let d = diff(prev, &bid, Nanos::from_millis(20));
            for s in &d.shifted {
                print!(
                    "  [{} -> {}: {:.0}ms -> {:.0}ms]",
                    bid.label_of(s.from),
                    bid.label_of(s.to),
                    s.before.as_millis_f64(),
                    s.after.as_millis_f64()
                );
            }
        }
        println!();
        previous = Some(bid);
    }

    println!("\nviolations recorded: {}", monitor.history().len());
    if let Some(g) = previous {
        println!("\nfinal bidding request waterfall:\n{}", g.to_waterfall(48));
    }
}
