//! The timing wrappers observe without perturbing: on small instances of
//! every workload, the traced pass computes the same digest as the bare
//! pass, and wrapper call counts equal the event loop's own per-kind
//! counts where the two count the same thing.

use simnet::event::Event;
use tfc_perfbench::workloads::{run, Pass, Sizes, Workload};

const SMALL: Sizes = Sizes {
    fat_tree_k: 4,
    fat_tree_flows: 40,
    stream_target: 400,
    incast_senders: 8,
    incast_rounds: 4,
};

fn kind(name: &str) -> usize {
    Event::KIND_NAMES
        .iter()
        .position(|k| *k == name)
        .expect("known event kind")
}

#[test]
fn wrapping_leaves_outcomes_identical_and_counts_agree() {
    // The incast workload exports artifacts; keep them in the target dir.
    std::env::set_var("TFC_RESULTS_DIR", env!("CARGO_TARGET_TMPDIR"));
    for workload in Workload::ALL {
        let name = workload.name();
        let plain = run(workload, 7, &SMALL, Pass::Plain);
        let traced = run(workload, 7, &SMALL, Pass::Traced);
        let heap = run(workload, 7, &SMALL, Pass::RefHeap);
        for rep in [&plain, &traced, &heap] {
            assert_eq!(rep.check, Ok(()), "{name}");
        }
        assert!(plain.digest.events > 0, "{name}: nothing ran");
        assert_eq!(
            plain.digest, traced.digest,
            "{name}: wrappers changed the run"
        );
        assert_eq!(plain.digest, heap.digest, "{name}: reference heap diverged");

        let (events, t) = (&traced.layers.events, &traced.layers.tallies);
        assert_eq!(t.policy_timer.calls, events[kind("policy_timer")], "{name}");
        // No retirement drops a sender before its timers, so every host
        // timer reaches one.
        if workload != Workload::Stream {
            assert_eq!(t.sender_timer.calls, events[kind("host_timer")], "{name}");
        }
        assert_eq!(t.sender_new, traced.outcome.attempted, "{name}");
        assert!(t.ingress.calls > 0 && t.egress.calls > 0, "{name}");
        assert!(t.payload_sent >= traced.digest.delivered, "{name}");
        assert!(t.app.calls > 0, "{name}");
        // The bare pass has no wrappers to count.
        assert_eq!(plain.layers.tallies.sender_new, 0, "{name}");
    }
}
