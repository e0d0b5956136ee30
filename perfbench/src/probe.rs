//! Benchmark-side node wrappers.
//!
//! [`Probe`] wraps any node of the deployment. With a [`Tap`] it reports
//! every notification delivered to a client, with its arrival instant, so
//! the load generator can wait on deliveries without polling. With a
//! [`LayerClock`] (traced run only) it times every handler call. Neither
//! changes what the wrapped node does.

use rebeca::broker::Message;
use rebeca::net::{Ctx, Node, NodeId, TimerId};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{Arc, Condvar, Mutex};
use std::time::{Duration, Instant};

/// Deliveries seen by one tapped client.
#[derive(Debug, Clone, Copy, Default)]
pub struct Seen {
    /// Notifications delivered so far (duplicates included).
    pub count: u64,
    /// Threshold set by [`Tap::arm`].
    pub armed: i64,
    /// When the first delivery with a mark at or above `armed` (since the
    /// last [`Tap::arm`]) reached the client node.
    pub armed_at: Option<Instant>,
}

/// A delivery counter the load generator blocks on.
#[derive(Debug, Default)]
pub struct Tap {
    seen: Mutex<Seen>,
    changed: Condvar,
}

impl Tap {
    /// A fresh, shareable tap.
    pub fn new() -> Arc<Tap> {
        Arc::new(Tap::default())
    }

    fn record(&self, mark: i64, at: Instant) {
        let mut seen = self.seen.lock().expect("tap lock");
        seen.count += 1;
        if seen.armed_at.is_none() && mark >= seen.armed {
            seen.armed_at = Some(at);
        }
        drop(seen);
        self.changed.notify_all();
    }

    /// Starts waiting for the first delivery whose mark is at least
    /// `threshold` (marks increase in publish order).
    pub fn arm(&self, threshold: i64) {
        let mut seen = self.seen.lock().expect("tap lock");
        seen.armed = threshold;
        seen.armed_at = None;
    }

    /// The current state.
    pub fn get(&self) -> Seen {
        *self.seen.lock().expect("tap lock")
    }

    /// Blocks until `done` holds or `timeout` passes; returns the state
    /// that satisfied `done`, or `None` on timeout.
    pub fn wait(&self, timeout: Duration, done: impl Fn(&Seen) -> bool) -> Option<Seen> {
        let deadline = Instant::now() + timeout;
        let mut seen = self.seen.lock().expect("tap lock");
        loop {
            if done(&seen) {
                return Some(*seen);
            }
            let now = Instant::now();
            if now >= deadline {
                return None;
            }
            seen = self.changed.wait_timeout(seen, deadline - now).expect("tap lock").0;
        }
    }
}

/// Accumulated handler time of one wrapped node, split by path.
#[derive(Debug, Default)]
pub struct LayerClock {
    route_ns: AtomicU64,
    route_calls: AtomicU64,
    mutation_ns: AtomicU64,
    replica_msgs: AtomicU64,
}

/// A snapshot of a [`LayerClock`].
#[derive(Debug, Clone, Copy, Default, PartialEq)]
pub struct ClockReading {
    /// Time in route-path handlers (`AppPublish`, `Publish`, `Forward`,
    /// `Deliver`).
    pub route_ns: u64,
    /// Route-path handler calls.
    pub route_calls: u64,
    /// Time in every other handler (subscriptions, announcements, replica
    /// protocol, timers).
    pub mutation_ns: u64,
    /// Replica-protocol messages handled.
    pub replica_msgs: u64,
}

impl ClockReading {
    /// Mean route-path handler time.
    pub fn route_mean_ns(&self) -> f64 {
        self.route_ns as f64 / self.route_calls as f64
    }

    /// Counter growth from `earlier` to `self`.
    pub fn since(&self, earlier: &ClockReading) -> ClockReading {
        ClockReading {
            route_ns: self.route_ns - earlier.route_ns,
            route_calls: self.route_calls - earlier.route_calls,
            mutation_ns: self.mutation_ns - earlier.mutation_ns,
            replica_msgs: self.replica_msgs - earlier.replica_msgs,
        }
    }

    /// Sum of two readings.
    pub fn plus(&self, other: &ClockReading) -> ClockReading {
        ClockReading {
            route_ns: self.route_ns + other.route_ns,
            route_calls: self.route_calls + other.route_calls,
            mutation_ns: self.mutation_ns + other.mutation_ns,
            replica_msgs: self.replica_msgs + other.replica_msgs,
        }
    }
}

impl LayerClock {
    /// A fresh, shareable clock.
    pub fn new() -> Arc<LayerClock> {
        Arc::new(LayerClock::default())
    }

    /// Current totals.
    pub fn read(&self) -> ClockReading {
        // ordering: Relaxed — statistics only; readers sample them after
        // the runtime's own synchronisation (deliveries, stop) anyway.
        let load = |c: &AtomicU64| c.load(Ordering::Relaxed);
        ClockReading {
            route_ns: load(&self.route_ns),
            route_calls: load(&self.route_calls),
            mutation_ns: load(&self.mutation_ns),
            replica_msgs: load(&self.replica_msgs),
        }
    }

    fn add(&self, route: bool, ns: u64) {
        // ordering: Relaxed — statistics counters, no data published.
        if route {
            self.route_ns.fetch_add(ns, Ordering::Relaxed);
            self.route_calls.fetch_add(1, Ordering::Relaxed);
        } else {
            self.mutation_ns.fetch_add(ns, Ordering::Relaxed);
        }
    }
}

/// A node wrapped with an optional delivery tap and an optional handler
/// clock.
pub struct Probe<N> {
    /// The wrapped node.
    pub inner: N,
    tap: Option<Arc<Tap>>,
    clock: Option<Arc<LayerClock>>,
}

impl<N> Probe<N> {
    /// Wraps `inner`.
    pub fn new(inner: N, tap: Option<Arc<Tap>>, clock: Option<Arc<LayerClock>>) -> Probe<N> {
        Probe { inner, tap, clock }
    }
}

fn is_route(msg: &Message) -> bool {
    matches!(
        msg,
        Message::AppPublish { .. }
            | Message::Publish { .. }
            | Message::Forward { .. }
            | Message::Deliver { .. }
    )
}

impl<N: Node<Message> + 'static> Node<Message> for Probe<N> {
    fn on_start(&mut self, ctx: &mut Ctx<'_, Message>) {
        self.inner.on_start(ctx);
    }

    fn on_message(&mut self, ctx: &mut Ctx<'_, Message>, from: NodeId, msg: Message) {
        let mark = match (&self.tap, &msg) {
            (Some(_), Message::Deliver { notification, .. }) => {
                notification.get("mark").and_then(|v| v.as_int())
            }
            _ => None,
        };
        match &self.clock {
            None => self.inner.on_message(ctx, from, msg),
            Some(clock) => {
                let route = is_route(&msg);
                if matches!(msg, Message::Replica(_)) {
                    // ordering: Relaxed — statistics counter.
                    clock.replica_msgs.fetch_add(1, Ordering::Relaxed);
                }
                let t0 = Instant::now();
                self.inner.on_message(ctx, from, msg);
                clock.add(route, t0.elapsed().as_nanos() as u64);
            }
        }
        if let (Some(tap), Some(mark)) = (&self.tap, mark) {
            tap.record(mark, Instant::now());
        }
    }

    fn on_timer(&mut self, ctx: &mut Ctx<'_, Message>, timer: TimerId, tag: u64) {
        let t0 = self.clock.as_ref().map(|_| Instant::now());
        self.inner.on_timer(ctx, timer, tag);
        if let (Some(clock), Some(t0)) = (&self.clock, t0) {
            clock.add(false, t0.elapsed().as_nanos() as u64);
        }
    }

    fn on_peer_change(&mut self, ctx: &mut Ctx<'_, Message>, peer: NodeId, up: bool) {
        self.inner.on_peer_change(ctx, peer, up);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self
    }
}

/// Downcasts a node returned by `ProcessRuntime::stop` to `T`, looking
/// through a [`Probe`] wrapper if there is one.
pub fn unwrap_node<T: 'static>(node: &dyn Node<Message>) -> Option<&T> {
    let any = node.as_any();
    any.downcast_ref::<T>().or_else(|| any.downcast_ref::<Probe<T>>().map(|p| &p.inner))
}
