//! `live-churn`: the replicated mutation path over a real socket.
//!
//! Three brokers on a line in two `ProcessRuntime` partitions of one
//! process, joined by a socketpair: broker 0 with the churner on one
//! side, brokers 1 and 2 with the preload client and the probe generator
//! on the other. Covering routing, `replication(3)` placed by
//! `build_process_partition`, so every backup of broker 0 sits across the
//! socket. Set-up preloads [`PRELOAD_TOPICS`] × [`THRESHOLDS`] filters at
//! broker 2 and ends when a probe published at broker 0 reaches the last
//! of them. Then the churner runs [`CYCLES`] closed-loop cycles: subscribe
//! to a fresh topic, wait for the first delivery of a probe stream the
//! generator publishes at broker 2 every [`PROBE_INTERVAL`], unsubscribe.

use crate::checks::{check_churn, ProbeLog};
use crate::probe::{unwrap_node, ClockReading, LayerClock, Probe, Tap};
use crate::procfs::{peak_rss_mb, Counters};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use rebeca::broker::{BrokerCore, ClientNode, Message, ReplicaNode, ReplicatedBrokerNode};
use rebeca::broker::{Replica, ReplicationMetrics, RoutingStrategy};
use rebeca::core::Digest;
use rebeca::net::{Ctx, NodeId, PeerId, ProcessRuntime, SplitMix64};
use rebeca::{BrokerId, ClientId, Filter, Notification, NotificationBuilder, SharedInterner};
use rebeca::{SimTime, SubscriptionId, SystemBuilder, Topology};
use std::collections::BTreeSet;
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Distinct preload topics.
pub const PRELOAD_TOPICS: usize = 1_000;
/// Filters per preload topic (`x < v` for distinct `v`); covering keeps
/// only the widest one per topic in every announcement.
pub const THRESHOLDS: usize = 4;
/// Churn cycles per round.
pub const CYCLES: usize = 1_500;
/// Interval between probes while a subscription is pending.
pub const PROBE_INTERVAL: Duration = Duration::from_micros(100);
/// A subscription not delivering within this long fails its cycle.
const EFFECT_TIMEOUT: Duration = Duration::from_secs(2);
/// Over twice the replica heartbeat (200 ms): every backup has learnt the
/// last commit number once this has passed after the last op.
const COMMIT_SETTLE: Duration = Duration::from_millis(450);

const BROKERS: usize = 3;
const GROUP: usize = 3;
/// Client nodes follow the brokers (0..3) and their backups (3..9).
const CHURNER: NodeId = NodeId::new(9);
const PRELOADER: NodeId = NodeId::new(10);
const GENERATOR: NodeId = NodeId::new(11);
const CHURNER_ID: ClientId = ClientId::new(1);
const PRELOADER_ID: ClientId = ClientId::new(2);
const GENERATOR_ID: ClientId = ClientId::new(3);
const FENCE_SUB: SubscriptionId = SubscriptionId::new(u32::MAX);

/// The preload: `thresholds[t]` are the `x` bounds of topic `t`'s filters.
#[derive(Debug, Clone)]
pub struct Preload {
    /// Per topic, distinct thresholds in subscription order.
    pub thresholds: Vec<Vec<i64>>,
}

impl Preload {
    /// Generates the preload from the seed.
    pub fn generate(seed: u64, round: u64) -> Preload {
        let mut rng =
            SplitMix64::new(seed ^ 0xc4u64.wrapping_add(round).wrapping_mul(0x9e37_79b9_7f4a_7c15));
        let thresholds = (0..PRELOAD_TOPICS)
            .map(|_| {
                let mut v: Vec<i64> = Vec::with_capacity(THRESHOLDS);
                while v.len() < THRESHOLDS {
                    let x = 1 + rng.next_below(1_000) as i64;
                    if !v.contains(&x) {
                        v.push(x);
                    }
                }
                v
            })
            .collect();
        Preload { thresholds }
    }

    /// Every preload filter in subscription order; the last one (topic
    /// `pre-end`) marks the end of set-up.
    pub fn filters(&self) -> Vec<Filter> {
        let mut out: Vec<Filter> = self
            .thresholds
            .iter()
            .enumerate()
            .flat_map(|(t, vs)| vs.iter().map(move |v| preload_filter(t, *v)))
            .collect();
        out.push(end_filter());
        out
    }

    /// The minimal cover of the preload, computed from the generator's
    /// parameters: the widest bound per topic, plus the end marker.
    pub fn cover(&self) -> BTreeSet<Digest> {
        let mut out: BTreeSet<Digest> = self
            .thresholds
            .iter()
            .enumerate()
            .map(|(t, vs)| preload_filter(t, *vs.iter().max().expect("non-empty")).digest())
            .collect();
        out.insert(end_filter().digest());
        out
    }
}

fn preload_filter(topic: usize, bound: i64) -> Filter {
    Filter::builder().eq("topic", format!("pre-{topic}")).lt("x", bound).build()
}

fn end_filter() -> Filter {
    Filter::builder().eq("topic", "pre-end").build()
}

fn churn_filter(cycle: usize) -> Filter {
    Filter::builder().eq("topic", format!("churn-{cycle}")).build()
}

fn boot_filter() -> Filter {
    Filter::builder().eq("topic", "boot").build()
}

fn fence_filter() -> Filter {
    Filter::builder().eq("topic", "fence").build()
}

fn probe(topic: &str, mark: i64) -> NotificationBuilder {
    Notification::builder().attr("topic", topic.to_owned()).attr("mark", mark).attr("x", 0i64)
}

/// Global id of backup `p` (1..GROUP) of broker `b`: the facade's
/// placement formula.
fn group_of(b: usize) -> Vec<NodeId> {
    let mut group = vec![NodeId::new(b as u32)];
    group.extend((0..GROUP - 1).map(|j| NodeId::new((BROKERS + b * (GROUP - 1) + j) as u32)));
    group
}

/// Handler clocks of the traced deployment.
#[derive(Clone)]
struct Clocks {
    primaries: Arc<LayerClock>,
    backups: Arc<LayerClock>,
    metrics: [Arc<ReplicationMetrics>; 2],
}

/// Declares one partition: side 0 hosts broker 0, side 1 brokers 1 and 2.
fn partition(
    rt: &mut ProcessRuntime<Message>,
    side: usize,
    peer: PeerId,
    clocks: Option<&Clocks>,
    taps: &[Arc<Tap>; 2],
) {
    let hosted: Vec<BrokerId> =
        if side == 0 { vec![BrokerId::new(0)] } else { vec![BrokerId::new(1), BrokerId::new(2)] };
    let topology = Topology::line(BROKERS).expect("three brokers");
    match clocks {
        None => {
            SystemBuilder::new(topology)
                .strategy(RoutingStrategy::Covering)
                .replication(GROUP)
                .shards(1)
                .build_process_partition(rt, &hosted, |_| Some(peer))
                .expect("deploy replicated partition");
        }
        Some(clocks) => {
            // The same public constructors and placement the facade uses,
            // each node wrapped in a timing probe.
            let topology = Arc::new(topology);
            let nodes: Arc<Vec<NodeId>> = Arc::new((0..BROKERS as u32).map(NodeId::new).collect());
            let interner = Arc::new(SharedInterner::new());
            let metrics = &clocks.metrics[side];
            for b in 0..BROKERS {
                if hosted.contains(&BrokerId::new(b as u32)) {
                    let core = BrokerCore::with_shards(
                        BrokerId::new(b as u32),
                        Arc::clone(&topology),
                        Arc::clone(&nodes),
                        RoutingStrategy::Covering,
                        Arc::clone(&interner),
                        1,
                    );
                    let node = ReplicatedBrokerNode::new(core, group_of(b), Arc::clone(metrics));
                    let clock = Some(Arc::clone(&clocks.primaries));
                    rt.add_local(Box::new(Probe::new(node, None, clock)));
                } else {
                    rt.add_remote(peer);
                }
            }
            for b in 0..BROKERS {
                for p in 1..GROUP {
                    let host = BrokerId::new(((b + p) % BROKERS) as u32);
                    if hosted.contains(&host) {
                        let node = ReplicaNode::new(group_of(b), p, Arc::clone(metrics));
                        let clock = Some(Arc::clone(&clocks.backups));
                        rt.add_local(Box::new(Probe::new(node, None, clock)));
                    } else {
                        rt.add_remote(peer);
                    }
                }
            }
            for b in 1..BROKERS {
                rt.connect(NodeId::new(b as u32 - 1), NodeId::new(b as u32));
            }
            for b in 0..BROKERS {
                let group = group_of(b);
                for i in 0..GROUP {
                    for k in (i + 1)..GROUP {
                        rt.connect(group[i], group[k]);
                    }
                }
            }
        }
    }
    let client = |id: ClientId, home: u32| ClientNode::new(id, Some(NodeId::new(home)));
    if side == 0 {
        rt.add_local(Box::new(Probe::new(client(CHURNER_ID, 0), Some(Arc::clone(&taps[0])), None)));
        rt.add_remote(peer);
        rt.add_remote(peer);
    } else {
        rt.add_remote(peer);
        let preloader = Probe::new(client(PRELOADER_ID, 2), Some(Arc::clone(&taps[1])), None);
        rt.add_local(Box::new(preloader));
        rt.add_local(Box::new(client(GENERATOR_ID, 2)));
    }
    rt.connect(CHURNER, NodeId::new(0));
    rt.connect(PRELOADER, NodeId::new(2));
    rt.connect(GENERATOR, NodeId::new(2));
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    setup_s: f64,
    loop_s: f64,
    sub_lat_us: Vec<f64>,
    failed_cycles: u64,
    /// Deployments torn down because a replica group wedged at boot.
    wedged_boots: u64,
    /// Traced: handler clocks (primaries, backups), replication ops and
    /// process counters over the churn loop, and the final log length.
    clocks: [ClockReading; 2],
    ops: u64,
    counters: Counters,
    log_len: f64,
    faults: Vec<String>,
}

fn ops_logged(clocks: Option<&Clocks>) -> u64 {
    clocks.map_or(0, |c| c.metrics.iter().map(|m| m.snapshot().ops_logged).sum())
}

/// Deployments tried per round before giving up on a wedged boot.
const BOOT_ATTEMPTS: usize = 5;
/// A boot that has not completed after this long is wedged.
const BOOT_TIMEOUT: Duration = Duration::from_secs(3);

/// Both partitions of one deployment, started.
struct Deployment {
    rt0: ProcessRuntime<Message>,
    rt1: ProcessRuntime<Message>,
    links: [rebeca::net::LinkMetricsHandle; 2],
}

impl Deployment {
    fn start(clocks: Option<&Clocks>, taps: &[Arc<Tap>; 2]) -> Deployment {
        let (a, b) = UnixStream::pair().expect("socketpair");
        let mut rt0: ProcessRuntime<Message> = ProcessRuntime::new();
        let mut rt1: ProcessRuntime<Message> = ProcessRuntime::new();
        let p0 = rt0.add_peer(a);
        let p1 = rt1.add_peer(b);
        partition(&mut rt0, 0, p0, clocks, taps);
        partition(&mut rt1, 1, p1, clocks, taps);
        let links = [rt0.metrics_handle(), rt1.metrics_handle()];
        rt0.start();
        rt1.start();
        Deployment { rt0, rt1, links }
    }

    /// Waits until one subscription works end to end, which needs every
    /// replica group to have finished its boot probe round. A group
    /// sometimes never does (see CHANGES.md); `false` after
    /// [`BOOT_TIMEOUT`].
    fn boot(&self, churner: &Tap) -> bool {
        let boot_sub = SubscriptionId::new(u32::MAX - 1);
        self.rt0
            .send_external(CHURNER, Message::AppSubscribe { id: boot_sub, filter: boot_filter() });
        churner.arm(i64::MIN);
        let deadline = Instant::now() + BOOT_TIMEOUT;
        let mut booted = false;
        while !booted && Instant::now() < deadline {
            self.rt1.send_external(GENERATOR, Message::AppPublish { attrs: probe("boot", 0) });
            booted = churner.wait(Duration::from_millis(1), |s| s.armed_at.is_some()).is_some();
        }
        self.rt0.send_external(CHURNER, Message::AppUnsubscribe { id: boot_sub });
        booted
    }
}

fn run_round(preload: &Preload, clocks: Option<&Clocks>) -> Round {
    let mut round = Round::default();
    // Inputs first: no generation inside a timed region.
    let preload_msgs: Vec<Message> = preload
        .filters()
        .into_iter()
        .enumerate()
        .map(|(i, filter)| Message::AppSubscribe { id: SubscriptionId::new(i as u32 + 1), filter })
        .collect();
    let topics: Vec<String> = (0..CYCLES).map(|c| format!("churn-{c}")).collect();
    let subscribe: Vec<Message> = (0..CYCLES)
        .map(|c| Message::AppSubscribe {
            id: SubscriptionId::new(c as u32 + 1),
            filter: churn_filter(c),
        })
        .collect();
    let mut log = ProbeLog::default();
    let mut next_mark: i64 = 1;

    // Deploy and boot; a deployment whose replica groups wedge at boot is
    // torn down and redeployed (see `Deployment::boot`).
    let mut attempt = None;
    for _ in 0..BOOT_ATTEMPTS {
        let t_setup = Instant::now();
        let taps = [Tap::new(), Tap::new()];
        let d = Deployment::start(clocks, &taps);
        if d.boot(&taps[0]) {
            attempt = Some((t_setup, taps, d));
            break;
        }
        round.wedged_boots += 1;
        drop(d.rt0.stop());
        drop(d.rt1.stop());
    }
    let Some((t_setup, taps, Deployment { rt0, rt1, links })) = attempt else {
        round.faults.push(format!("replica groups never booted in {BOOT_ATTEMPTS} deployments"));
        return round;
    };
    for m in preload_msgs {
        rt1.send_external(PRELOADER, m);
    }
    // Set-up ends when a probe published at broker 0 reaches the last
    // preload filter at broker 2.
    taps[1].arm(i64::MIN);
    let mut setup_done = false;
    let setup_deadline = Instant::now() + Duration::from_secs(30);
    let mut setup_mark = -1i64;
    while Instant::now() < setup_deadline {
        rt0.send_external(CHURNER, Message::AppPublish { attrs: probe("pre-end", setup_mark) });
        setup_mark -= 1;
        if taps[1].wait(Duration::from_millis(1), |s| s.armed_at.is_some()).is_some() {
            setup_done = true;
            break;
        }
    }
    round.setup_s = t_setup.elapsed().as_secs_f64();
    if !setup_done {
        round.faults.push("preload never became effective".into());
    }

    // Churn loop: one subscription at a time, probes every interval.
    let ops_before = ops_logged(clocks);
    let clocks_before = clocks.map(|c| [c.primaries.read(), c.backups.read()]);
    let counters_before = clocks.map(|_| Counters::now());
    let mut effective = vec![false; CYCLES];
    let t_loop = Instant::now();
    for (c, sub) in subscribe.into_iter().enumerate() {
        taps[0].arm(next_mark);
        let sent = Instant::now();
        rt0.send_external(CHURNER, sub);
        let deadline = sent + EFFECT_TIMEOUT;
        loop {
            rt1.send_external(
                GENERATOR,
                Message::AppPublish { attrs: probe(&topics[c], next_mark) },
            );
            log.probes.push((next_mark, c));
            next_mark += 1;
            // A slow cycle probes less often, so probes never pile up
            // behind a stalled subscription.
            let interval = PROBE_INTERVAL.max(sent.elapsed() / 8);
            if let Some(s) = taps[0].wait(interval, |s| s.armed_at.is_some()) {
                let at = s.armed_at.expect("armed delivery");
                round.sub_lat_us.push((at - sent).as_nanos() as f64 / 1000.0);
                effective[c] = true;
                break;
            }
            if Instant::now() >= deadline {
                round.failed_cycles += 1;
                break;
            }
        }
        rt0.send_external(
            CHURNER,
            Message::AppUnsubscribe { id: SubscriptionId::new(c as u32 + 1) },
        );
    }
    round.loop_s = t_loop.elapsed().as_secs_f64();
    if let (Some(c), Some(before), Some(counters)) = (clocks, clocks_before, counters_before) {
        round.clocks = [c.primaries.read().since(&before[0]), c.backups.read().since(&before[1])];
        round.ops = ops_logged(clocks) - ops_before;
        round.counters = Counters::now().since(&counters);
    }

    // Fence: a subscription issued after every unsubscribe becomes
    // effective only once they have all been applied at broker 2.
    let fence = |rt1: &ProcessRuntime<Message>, next_mark: &mut i64| -> bool {
        taps[0].arm(*next_mark);
        let deadline = Instant::now() + EFFECT_TIMEOUT;
        while Instant::now() < deadline {
            rt1.send_external(GENERATOR, Message::AppPublish { attrs: probe("fence", *next_mark) });
            *next_mark += 1;
            if taps[0].wait(PROBE_INTERVAL, |s| s.armed_at.is_some()).is_some() {
                return true;
            }
        }
        false
    };
    rt0.send_external(CHURNER, Message::AppSubscribe { id: FENCE_SUB, filter: fence_filter() });
    let mut fenced = fence(&rt1, &mut next_mark);
    // Probes for every retired topic, then a fence probe behind them.
    log.retired_from = next_mark;
    for (c, topic) in topics.iter().enumerate() {
        rt1.send_external(GENERATOR, Message::AppPublish { attrs: probe(topic, next_mark) });
        log.probes.push((next_mark, c));
        next_mark += 1;
    }
    fenced &= fence(&rt1, &mut next_mark);
    if !fenced {
        round.faults.push("fence subscription never took effect".into());
    }
    std::thread::sleep(COMMIT_SETTLE);

    // Stop broker 0's side first: its nodes freeze in the settled state.
    // Brokers 1 and 2 then see their peer die and start reacting (they
    // retract what broker 0 announced, broker 0's backups elect a new
    // primary) until they are stopped too; the checks below allow for
    // exactly that.
    let pre_stop: Vec<_> = links.iter().map(|m| m.snapshot()).collect();
    let nodes0 = rt0.stop();
    let nodes1 = rt1.stop();
    for (i, m) in pre_stop.iter().enumerate() {
        if m.frames_dropped != 0 || m.link_downs != 0 {
            round.faults.push(format!("partition {i}: {m:?}"));
        }
    }
    for (i, m) in links.iter().map(|m| m.snapshot()).enumerate() {
        if m.thread_panics != 0 {
            round.faults.push(format!("partition {i}: {} thread panics", m.thread_panics));
        }
    }
    let node =
        |id: usize| nodes0[id].as_deref().or(nodes1[id].as_deref()).expect("local somewhere");

    // The churner's delivery log against the probes published.
    let churner = unwrap_node::<ClientNode>(node(CHURNER.raw() as usize)).expect("churner");
    // Boot and fence probes are the set-up's and the check's own.
    let observed: Vec<i64> = churner
        .local()
        .delivered()
        .iter()
        .filter(|r| {
            r.notification
                .get("topic")
                .and_then(|v| v.as_str())
                .is_some_and(|t| t.starts_with("churn-"))
        })
        .map(|r| r.notification.get("mark").and_then(|v| v.as_int()).unwrap_or(i64::MIN))
        .collect();
    if let Err(f) = check_churn(&log, &effective, &observed) {
        round.faults.push(f.to_string());
    }

    // Routing tables: exactly the preload and the fence subscription on
    // broker 0's frozen side; on the other side, broker 0's announcement
    // (the fence) may already be retracted after its peer died, but no
    // churned subscription may remain anywhere.
    let cover = preload.cover();
    let preload_all: BTreeSet<Digest> = preload.filters().iter().map(Filter::digest).collect();
    let fence_only: BTreeSet<Digest> = [fence_filter().digest()].into();
    let core = |b: usize| -> &BrokerCore {
        unwrap_node::<ReplicatedBrokerNode>(node(b)).expect("replicated broker").core()
    };
    let neighbor = |b: usize, n: u32| -> BTreeSet<Digest> {
        core(b).router().neighbor_filters(NodeId::new(n)).map(Filter::digest).collect()
    };
    let client_subs = |b: usize, c: ClientId| -> BTreeSet<Digest> {
        core(b)
            .router()
            .shards()
            .iter()
            .filter_map(|t| t.client(c))
            .flat_map(|e| e.subs.values().map(Filter::digest))
            .collect()
    };
    let exact = [
        ("B0 churner subscriptions", client_subs(0, CHURNER_ID), &fence_only),
        ("B0 filters from B1", neighbor(0, 1), &cover),
        ("B1 filters from B2", neighbor(1, 2), &cover),
        ("B2 preload subscriptions", client_subs(2, PRELOADER_ID), &preload_all),
    ];
    for (what, got, want) in exact {
        if &got != want {
            round.faults.push(format!("{what}: {} entries, expected {}", got.len(), want.len()));
        }
    }
    for (what, got) in
        [("B1 filters from B0", neighbor(1, 0)), ("B2 filters from B1", neighbor(2, 1))]
    {
        if !got.is_subset(&fence_only) {
            round.faults.push(format!("{what}: {} entries, expected at most the fence", got.len()));
        }
    }

    // Replica groups: every op of the run is committed by every member.
    // Each group has a member on broker 0's side, frozen in the settled
    // state (commit = op there); members on the other side may have
    // logged ops of their own after the peer died, but must have
    // committed every op the frozen member holds.
    let mut log_lens = Vec::new();
    for b in 0..BROKERS {
        let members: Vec<(bool, &Replica)> = group_of(b)
            .iter()
            .enumerate()
            .map(|(p, id)| {
                let frozen = nodes0[id.raw() as usize].is_some();
                let n = node(id.raw() as usize);
                let r = if p == 0 {
                    unwrap_node::<ReplicatedBrokerNode>(n).expect("primary").replica()
                } else {
                    unwrap_node::<ReplicaNode>(n).expect("backup").replica()
                };
                (frozen, r)
            })
            .collect();
        log_lens.push(members[0].1.log().ops().len() as f64);
        let settled = members.iter().filter(|(f, _)| *f).map(|(_, r)| r.op_number()).max();
        let settled = settled.expect("every group has a member on broker 0's side");
        for (p, (frozen, r)) in members.iter().enumerate() {
            let ok = if *frozen {
                r.commit_number() == r.op_number()
            } else {
                r.commit_number() >= settled
            };
            if !ok {
                round.faults.push(format!(
                    "group B{b} member {p}: op {} commit {}, settled op {settled}",
                    r.op_number(),
                    r.commit_number()
                ));
            }
        }
    }
    round.log_len = log_lens.iter().sum::<f64>() / log_lens.len() as f64;
    round
}

/// Isolated announcement cost: `subscribe_client` + `unsubscribe_client`
/// of fresh topics against the preload at broker 2 (ns per call).
fn isolated_announce(preload: &Preload) -> f64 {
    let topology = Arc::new(Topology::line(BROKERS).expect("three brokers"));
    let nodes: Arc<Vec<NodeId>> = Arc::new((0..BROKERS as u32).map(NodeId::new).collect());
    let mut core = BrokerCore::with_shards(
        BrokerId::new(2),
        topology,
        nodes,
        RoutingStrategy::Covering,
        Arc::new(SharedInterner::new()),
        1,
    );
    let mut next_timer = 0u64;
    let link_up = |_: NodeId, _: NodeId| true;
    let mut ctx: Ctx<'_, Message> =
        Ctx::standalone(SimTime::ZERO, NodeId::new(2), &mut next_timer, &link_up);
    core.attach_client(PRELOADER_ID, PRELOADER);
    core.attach_client(CHURNER_ID, CHURNER);
    for (i, f) in preload.filters().into_iter().enumerate() {
        core.subscribe_client(&mut ctx, PRELOADER_ID, SubscriptionId::new(i as u32 + 1), f);
        ctx.clear_actions();
    }
    let filters: Vec<Filter> = (0..CYCLES).map(churn_filter).collect();
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for (c, f) in filters.iter().enumerate() {
                let id = SubscriptionId::new(c as u32 + 1);
                core.subscribe_client(&mut ctx, CHURNER_ID, id, f.clone());
                ctx.clear_actions();
                core.unsubscribe_client(&mut ctx, CHURNER_ID, id);
                ctx.clear_actions();
            }
            t0.elapsed().as_nanos() as f64 / (2 * filters.len()) as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Sets this thread's timer slack to 1 ns so the generator's short waits
/// between probes end on time (the default slack is 50 µs). Acts on the
/// calling thread only.
fn tighten_timer_slack() {
    extern "C" {
        fn prctl(option: i32, arg2: u64, arg3: u64, arg4: u64, arg5: u64) -> i32;
    }
    const PR_SET_TIMERSLACK: i32 = 29;
    // SAFETY: PR_SET_TIMERSLACK takes one integer argument and touches no
    // caller memory.
    let _ = unsafe { prctl(PR_SET_TIMERSLACK, 1, 0, 0, 0) };
}

/// Runs whole rounds until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    tighten_timer_slack();
    let mut o = Outcome::default();
    let clocks = traced.then(|| Clocks {
        primaries: LayerClock::new(),
        backups: LayerClock::new(),
        metrics: [Arc::new(ReplicationMetrics::default()), Arc::new(ReplicationMetrics::default())],
    });
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let (mut setups, mut rates, mut lat) = (Vec::new(), Vec::new(), Vec::new());
    let (mut p50s, mut loop_s) = (Vec::new(), 0.0f64);
    let mut clock_sum = [ClockReading::default(); 2];
    let (mut ops, mut counters, mut log_len) = (0u64, Counters::default(), Vec::new());
    let mut first_round_rss = f64::NAN;
    let mut rounds = 0u64;
    let mut wedged = 0u64;
    let mut last_preload = None;
    while rounds == 0 || Instant::now() < deadline {
        let preload = Preload::generate(seed, rounds);
        let round = run_round(&preload, clocks.as_ref());
        o.attempted += CYCLES as u64;
        o.failed += round.failed_cycles;
        wedged += round.wedged_boots;
        o.faults.extend(round.faults);
        setups.push(round.setup_s);
        rates.push(CYCLES as f64 / round.loop_s);
        loop_s += round.loop_s;
        let mut round_lat = round.sub_lat_us;
        round_lat.sort_by(f64::total_cmp);
        p50s.push(percentile(&round_lat, 50.0).unwrap_or(f64::NAN));
        lat.extend(round_lat);
        for (sum, r) in clock_sum.iter_mut().zip(&round.clocks) {
            *sum = sum.plus(r);
        }
        ops += round.ops;
        counters = counters.plus(&round.counters);
        log_len.push(round.log_len);
        if rounds == 0 {
            first_round_rss = peak_rss_mb();
        }
        rounds += 1;
        last_preload = Some(preload);
    }
    lat.sort_by(f64::total_cmp);
    o.notes.push(format!(
        "per round: cycles/s {:?}, p50 us {:?}, setup s {:?}",
        rates.iter().map(|r| r.round()).collect::<Vec<_>>(),
        p50s.iter().map(|r| r.round()).collect::<Vec<_>>(),
        setups.iter().map(|s| (s * 1000.0).round() / 1000.0).collect::<Vec<_>>()
    ));
    o.notes.push(format!(
        "live-churn: {rounds} rounds, {} effective cycles, {wedged} deployments redeployed \
         after a replica group wedged at boot",
        lat.len()
    ));
    // Pooled over the run: rounds run either in a fast or a slow mode of
    // the host (p50 ~0.9 ms or ~1.3 ms), and a pooled figure moves with
    // the share of fast rounds where a median over a few rounds jumps
    // between the two.
    let e2e = [
        ("ops_per_s", (rounds as usize * CYCLES) as f64 / loop_s, "op/s"),
        ("lat_p50_us", percentile(&lat, 50.0).unwrap_or(f64::NAN), "us"),
        ("lat_p90_us", percentile(&lat, 90.0).unwrap_or(f64::NAN), "us"),
        ("setup_s", median(&mut setups).unwrap_or(f64::NAN), "s"),
        ("peak_rss_mb", first_round_rss, "MiB"),
    ];
    if !traced {
        for (name, value, unit) in e2e {
            o.metric(name, value, unit);
        }
        return o;
    }
    o.notes.push(format!("end-to-end under tracing: {e2e:?}"));
    let cycles = (rounds as usize * CYCLES) as f64;
    let per_op = |x: u64| x as f64 / ops as f64;
    let [primaries, backups] = clock_sum;
    o.metric("broker.replication.primary_ns_per_op", per_op(primaries.mutation_ns), "ns");
    o.metric("broker.replication.backup_ns_per_op", per_op(backups.mutation_ns), "ns");
    o.metric("broker.replication.ops_per_cycle", ops as f64 / cycles, "op/cycle");
    o.metric(
        "broker.replication.msgs_per_op",
        per_op(primaries.replica_msgs + backups.replica_msgs),
        "msg/op",
    );
    o.metric("broker.replication.log_len", median(&mut log_len).unwrap_or(f64::NAN), "op");
    let preload = last_preload.expect("at least one round");
    o.metric("broker.routing.announce_ns", isolated_announce(&preload), "ns");
    o.metric("net.process_rt.ctxsw_per_op", per_op(counters.ctxsw), "ctxsw/op");
    o.metric("process.allocs_per_op", per_op(counters.allocs), "alloc/op");
    o
}
