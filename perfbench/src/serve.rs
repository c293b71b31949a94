//! Load generation against a `Server`: one thread submits, one reaps.
//!
//! Every served output is compared bit for bit with the serial
//! `Session::run` reference for its input.

use std::sync::mpsc;
use std::thread;
use std::time::{Duration, Instant};

use quantmcu::tensor::Tensor;
use quantmcu::{Error, ServeError, Server, Ticket};

use crate::trace::Tracer;

/// Operations of one phase.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct Ops {
    /// Operations attempted.
    pub sent: u64,
    /// Operations that completed with a correct result.
    pub ok: u64,
    /// Operations refused, failed or with a wrong result.
    pub failed: u64,
    /// Of `failed`: results that differ from the reference.
    pub mismatched: u64,
    /// Of `failed`: typed errors from the system, other than a full queue.
    pub errors: u64,
}

impl Ops {
    /// Adds another phase's counts.
    pub fn add(&mut self, other: Ops) {
        self.sent += other.sent;
        self.ok += other.ok;
        self.failed += other.failed;
        self.mismatched += other.mismatched;
        self.errors += other.errors;
    }

    /// No result differs from its reference and no call returned an
    /// error: the run may pass.
    pub fn is_clean(&self) -> bool {
        self.mismatched == 0 && self.errors == 0
    }

    /// Counts one submission the server did not accept. A full queue is a
    /// failed operation; any other error also fails the run.
    pub fn refused(&mut self, error: &Error) {
        self.sent += 1;
        self.failed += 1;
        if !matches!(error, Error::Serve(ServeError::QueueFull)) {
            self.errors += 1;
        }
    }

    /// Counts one operation whose result must equal `expected` bit for bit.
    pub fn check(&mut self, result: Result<Tensor, Error>, expected: &Tensor) {
        self.sent += 1;
        match result {
            Ok(out) if bit_identical(&out, expected) => self.ok += 1,
            Ok(_) => {
                self.failed += 1;
                self.mismatched += 1;
            }
            Err(_) => {
                self.failed += 1;
                self.errors += 1;
            }
        }
    }
}

/// Same shape and the same bits in every element.
pub fn bit_identical(a: &Tensor, b: &Tensor) -> bool {
    a.shape() == b.shape() && a.data().iter().zip(b.data()).all(|(x, y)| x.to_bits() == y.to_bits())
}

/// Result of a closed-loop phase.
#[derive(Debug, Clone)]
pub struct Closed {
    /// Requests sent and their outcomes.
    pub ops: Ops,
    /// Completions that landed inside the measured window.
    pub completions: u64,
    /// Length of the measured window.
    pub window: Duration,
}

/// Result of an open-loop phase.
#[derive(Debug, Clone)]
pub struct Open {
    /// Requests sent and their outcomes.
    pub ops: Ops,
    /// Per-request latency from due time to `Ticket::wait` return, ms. A
    /// refused or failed request counts as a miss at the phase length.
    pub latencies_ms: Vec<f64>,
    /// How late the generator submitted each request, ms.
    pub late_ms: Vec<f64>,
    /// Deepest queue seen by `Server::stats` (when sampled).
    pub queue_depth_max: usize,
    /// Submissions refused with a full queue.
    pub queue_full: u64,
}

/// A submitted request on its way to the reaper.
struct InFlight {
    index: usize,
    due: Instant,
    span: u64,
    ticket: Ticket,
}

/// Keeps `in_flight` requests outstanding for `window` and counts the
/// completions that land after a tenth of the window has passed.
pub fn closed_loop(
    server: &Server,
    pool: &[Tensor],
    reference: &[Tensor],
    in_flight: usize,
    window: Duration,
    tracer: &Tracer,
) -> Closed {
    let (credit_tx, credit_rx) = mpsc::channel::<()>();
    for _ in 0..in_flight {
        credit_tx.send(()).expect("the credit receiver is alive");
    }
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now();
    let warm = start + window / 10;
    let end = start + window;
    thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut refused = Ops::default();
            for index in 0.. {
                if credit_rx.recv().is_err() || Instant::now() >= end {
                    break;
                }
                let span = tracer.id();
                let due = Instant::now();
                let (ticket, _) =
                    tracer.time("core.serve.submit", Some(span), Some(index as u64), || {
                        server.submit(&pool[index % pool.len()])
                    });
                match ticket {
                    Ok(ticket) => {
                        tx.send(InFlight { index, due, span, ticket }).expect("reaper is alive")
                    }
                    Err(e) => refused.refused(&e),
                }
            }
            refused
        });
        let mut ops = Ops::default();
        let mut completions = 0;
        for req in rx {
            let index = req.index;
            let (out, _) =
                tracer.time("core.serve.wait", Some(req.span), Some(index as u64), || {
                    req.ticket.wait()
                });
            let done = Instant::now();
            tracer.record(req.span, "loadgen.request", (req.due, done), None, Some(index as u64));
            ops.check(out, &reference[index % reference.len()]);
            if done >= warm && done < end {
                completions += 1;
            }
            // The submitter may already have stopped; a dropped credit is fine.
            let _ = credit_tx.send(());
        }
        ops.add(submitter.join().expect("the submitter thread does not panic"));
        Closed { ops, completions, window: end - warm }
    })
}

/// Sends one request at each due offset in `schedule`, refusing to block:
/// a full queue is a failed request. With `sample_depth`, reads the queue
/// depth from `Server::stats` after each submission.
pub fn open_loop(
    server: &Server,
    pool: &[Tensor],
    reference: &[Tensor],
    schedule: &[Duration],
    sample_depth: bool,
    tracer: &Tracer,
) -> Open {
    let (tx, rx) = mpsc::channel::<InFlight>();
    let start = Instant::now();
    let phase_ms = schedule.last().map_or(0.0, |d| d.as_secs_f64() * 1e3);
    thread::scope(|scope| {
        let submitter = scope.spawn(move || {
            let mut refused = Ops::default();
            let mut late_ms = Vec::with_capacity(schedule.len());
            let mut depth_max = 0;
            for (index, &offset) in schedule.iter().enumerate() {
                let due = start + offset;
                let now = Instant::now();
                if now < due {
                    thread::sleep(due - now);
                }
                late_ms.push(Instant::now().saturating_duration_since(due).as_secs_f64() * 1e3);
                let span = tracer.id();
                let (ticket, _) =
                    tracer.time("core.serve.try_submit", Some(span), Some(index as u64), || {
                        server.try_submit(&pool[index % pool.len()])
                    });
                if sample_depth {
                    depth_max = depth_max.max(server.stats().queue_depth);
                }
                match ticket {
                    Ok(ticket) => {
                        tx.send(InFlight { index, due, span, ticket }).expect("reaper is alive")
                    }
                    Err(e) => refused.refused(&e),
                }
            }
            (refused, late_ms, depth_max)
        });
        let mut ops = Ops::default();
        let mut latencies_ms = Vec::with_capacity(schedule.len());
        for req in rx {
            let index = req.index;
            let (out, _) =
                tracer.time("core.serve.wait", Some(req.span), Some(index as u64), || {
                    req.ticket.wait()
                });
            let done = Instant::now();
            tracer.record(req.span, "loadgen.request", (req.due, done), None, Some(index as u64));
            let before = ops.ok;
            ops.check(out, &reference[index % reference.len()]);
            let ms = (done - req.due).as_secs_f64() * 1e3;
            latencies_ms.push(if ops.ok > before { ms } else { phase_ms.max(ms) });
        }
        let (refused, late_ms, queue_depth_max) =
            submitter.join().expect("the submitter thread does not panic");
        latencies_ms.extend((0..refused.sent).map(|_| phase_ms));
        let queue_full = refused.sent - refused.errors;
        ops.add(refused);
        Open { ops, latencies_ms, late_ms, queue_depth_max, queue_full }
    })
}
