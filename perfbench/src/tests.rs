//! Self-tests of the benchmark at a tiny size: every metric of the
//! registry is reported on every workload, and the correctness checks trip
//! on a deliberately altered reference output.

use std::time::Duration;

use crate::run::{self, Inputs, Size};
use crate::serve::{self, Ops};
use crate::spec::{self, END_TO_END, PER_LAYER, WORKLOADS};
use crate::stats::{poisson_schedule, SplitMix64};
use crate::trace::Tracer;
use quantmcu::tensor::{Shape, Tensor};
use quantmcu::{Error, ServeError};

#[test]
fn every_workload_reports_every_metric() {
    for w in WORKLOADS {
        for (traced, registry) in [(false, END_TO_END), (true, PER_LAYER)] {
            let tracer = Tracer::new(traced);
            let out = run::run(w, 1, 4.0, &Size::TINY, &tracer)
                .unwrap_or_else(|e| panic!("{} trace {traced}: {e}", w.name));
            for m in registry {
                let value = out.metrics.iter().find(|(n, _)| *n == m.name).map(|(_, v)| *v);
                assert!(
                    value.is_some_and(f64::is_finite),
                    "{} trace {traced}: {} is {value:?}",
                    w.name,
                    m.name
                );
            }
            let total = out.total();
            assert!(total.sent > 0);
            assert_eq!((total.failed, total.mismatched), (0, 0), "{} trace {traced}", w.name);
            assert_eq!(traced, tracer.len() > 0);
        }
    }
}

#[test]
fn altered_reference_output_trips_every_check() {
    let w = spec::workload("serve-tail").expect("serve-tail exists");
    let inputs = Inputs::generate(w, 5, &Size::TINY);
    let exports = run::export(&inputs.order).expect("export");
    let mut ops = Ops::default();
    let (mut targets, _) =
        run::plan_targets(&inputs, &exports, &mut Default::default(), &mut ops).expect("plan");
    assert_eq!(ops.mismatched, 0);
    let t = &mut targets[0];
    let first = &mut t.reference[0].data_mut()[0];
    *first = f32::from_bits(first.to_bits() ^ 1);

    let mut cold = Ops::default();
    run::cold_start(&targets, &inputs.pool, true, &mut cold).expect("cold start");
    assert!(cold.mismatched > 0, "cold start accepted an altered reference");

    let t = &targets[0];
    let mut setup = Ops::default();
    let (server, _) = run::ready_server(t, &inputs.pool, &mut setup).expect("server");
    assert!(setup.mismatched > 0, "warm-up accepted an altered reference");
    let off = Tracer::new(false);
    let closed = serve::closed_loop(
        &server,
        &inputs.pool,
        &t.reference,
        2,
        Duration::from_millis(200),
        &off,
    );
    assert!(closed.ops.mismatched > 0, "closed loop accepted an altered reference");
    let schedule = poisson_schedule(&mut SplitMix64::new(1), 200.0, Duration::from_millis(200));
    let open = serve::open_loop(&server, &inputs.pool, &t.reference, &schedule, false, &off);
    assert!(open.ops.mismatched > 0, "open loop accepted an altered reference");
    assert_eq!(open.ops.failed, open.ops.mismatched);
    assert!(!open.ops.is_clean());

    // An input the deployment cannot run: every request returns a typed
    // error, and an error fails the run even with no output to compare.
    let shape = inputs.pool[0].shape();
    let wrong = vec![Tensor::zeros(Shape::new(shape.n, shape.h + 1, shape.w, shape.c))];
    let closed =
        serve::closed_loop(&server, &wrong, &t.reference, 2, Duration::from_millis(200), &off);
    assert!(closed.ops.errors > 0 && closed.ops.mismatched == 0, "{:?}", closed.ops);
    assert!(!closed.ops.is_clean());
    let open = serve::open_loop(&server, &wrong, &t.reference, &schedule, false, &off);
    assert!(open.ops.errors > 0 && !open.ops.is_clean(), "{:?}", open.ops);
    server.shutdown();
}

#[test]
fn a_full_queue_fails_the_request_and_other_refusals_fail_the_run() {
    let mut ops = Ops::default();
    ops.refused(&Error::Serve(ServeError::QueueFull));
    assert_eq!((ops.sent, ops.failed, ops.errors), (1, 1, 0));
    assert!(ops.is_clean());
    ops.refused(&Error::Serve(ServeError::ShuttingDown));
    assert_eq!((ops.sent, ops.failed, ops.errors), (2, 2, 1));
    assert!(!ops.is_clean());
}
