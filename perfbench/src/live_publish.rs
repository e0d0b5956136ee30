//! `live-publish`: the read path over a real socket.
//!
//! Two `ProcessRuntime` partitions in one OS process, joined by a kernel
//! socketpair: broker 0 and the publisher on one side, broker 1 and two
//! consumers on the other (Simple routing, no replication). Consumer A
//! subscribes to the whole feed, consumer Q to a quarter of it. A round
//! deploys the system, pushes [`FLOOD`] notifications through a bounded
//! in-flight window, then runs [`PINGS`] closed-loop publishes with one
//! notification in flight, stops the system and checks every delivery
//! log against the generated stream.

use crate::checks::check_exact_sequence;
use crate::probe::{unwrap_node, ClockReading, LayerClock, Probe, Tap};
use crate::procfs::{peak_rss_mb, Counters};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use rebeca::broker::{BrokerCore, BrokerNode, ClientNode, Message, RoutingStrategy};
use rebeca::broker::{RouteScratch, RoutingTable};
use rebeca::net::{encode_frame, Frame, FrameReassembler, Node, NodeId, ProcessRuntime};
use rebeca::net::{SendBuffer, SplitMix64, Wire, PEER_SEND_CAPACITY};
use rebeca::{BrokerId, ClientId, Filter, Notification, NotificationBuilder, SharedInterner};
use rebeca::{SimTime, SubscriptionId, SystemBuilder, Topology};
use std::os::unix::net::UnixStream;
use std::sync::Arc;
use std::time::{Duration, Instant};

/// Notifications per flood phase.
pub const FLOOD: usize = 40_000;
/// Notifications allowed in flight during the flood.
pub const WINDOW: usize = 256;
/// Closed-loop publishes per ping phase.
pub const PINGS: usize = 3_000;
/// Longest wait for any one expected delivery before the round is failed.
const STALL: Duration = Duration::from_secs(5);
/// Marks of warm-up notifications (published until both subscriptions
/// are routed) start here, below every measured mark.
const WARM_BASE: i64 = -1_000_000;

const B0: NodeId = NodeId::new(0);
const B1: NodeId = NodeId::new(1);
const PUBLISHER: NodeId = NodeId::new(2);
const CONSUMER_A: NodeId = NodeId::new(3);
const CONSUMER_Q: NodeId = NodeId::new(4);

/// One generated notification: its mark and the attributes it carries.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Item {
    /// Unique mark, increasing in publish order.
    pub mark: i64,
    /// Selects consumer Q when 0 (values 0..4).
    pub bucket: i64,
    /// A price-like payload attribute.
    pub px: f64,
}

impl Item {
    fn attrs(&self) -> NotificationBuilder {
        Notification::builder()
            .attr("topic", "feed")
            .attr("mark", self.mark)
            .attr("bucket", self.bucket)
            .attr("px", self.px)
    }

    /// True if consumer Q's filter selects this item (the benchmark's own
    /// evaluation, independent of the program's matcher).
    pub fn selected_by_q(&self) -> bool {
        self.bucket == 0
    }
}

/// The stream of one round: flood items then ping items, marks 0.. in
/// publish order.
pub fn generate(seed: u64, round: u64) -> Vec<Item> {
    let mut rng = SplitMix64::new(seed ^ round.wrapping_mul(0xa076_1d64_78bd_642f));
    (0..(FLOOD + PINGS) as i64)
        .map(|mark| Item {
            mark,
            bucket: rng.next_below(4) as i64,
            px: (rng.next_below(1_000_000) as f64) / 100.0,
        })
        .collect()
}

fn filter_a() -> Filter {
    Filter::builder().eq("topic", "feed").build()
}

fn filter_q() -> Filter {
    Filter::builder().eq("topic", "feed").eq("bucket", 0i64).build()
}

/// Handler clocks of the traced deployment.
#[derive(Default, Clone)]
struct Clocks {
    publisher: Option<Arc<LayerClock>>,
    brokers: Vec<Arc<LayerClock>>,
    consumer_a: Option<Arc<LayerClock>>,
}

impl Clocks {
    fn traced() -> Clocks {
        Clocks {
            publisher: Some(LayerClock::new()),
            brokers: vec![LayerClock::new(), LayerClock::new()],
            consumer_a: Some(LayerClock::new()),
        }
    }

    fn read(&self) -> [ClockReading; 3] {
        let r = |c: &Option<Arc<LayerClock>>| c.as_ref().map(|c| c.read()).unwrap_or_default();
        let brokers =
            self.brokers.iter().fold(ClockReading::default(), |sum, c| sum.plus(&c.read()));
        [r(&self.publisher), brokers, r(&self.consumer_a)]
    }
}

/// Declares one partition's node table: the brokers (through the facade
/// untraced, or from the same public constructors wrapped in timing
/// probes when traced), then publisher, consumer A, consumer Q.
fn partition(
    rt: &mut ProcessRuntime<Message>,
    side: usize,
    peer: rebeca::net::PeerId,
    clocks: &Clocks,
    taps: &[Arc<Tap>; 2],
) {
    let topology = Topology::line(2).expect("two brokers");
    let brokers = if clocks.brokers.is_empty() {
        SystemBuilder::new(topology)
            .strategy(RoutingStrategy::Simple)
            .shards(1)
            .build_process_partition(rt, &[BrokerId::new(side as u32)], |_| Some(peer))
            .expect("deploy broker partition")
    } else {
        let topology = Arc::new(topology);
        let nodes: Arc<Vec<NodeId>> = Arc::new(vec![B0, B1]);
        let interner = Arc::new(SharedInterner::new());
        let ids: Vec<NodeId> = (0..2u32)
            .map(|b| {
                if b as usize != side {
                    return rt.add_remote(peer);
                }
                let core = BrokerCore::with_shards(
                    BrokerId::new(b),
                    Arc::clone(&topology),
                    Arc::clone(&nodes),
                    RoutingStrategy::Simple,
                    Arc::clone(&interner),
                    1,
                );
                let clock = Some(Arc::clone(&clocks.brokers[b as usize]));
                rt.add_local(Box::new(Probe::new(BrokerNode::new(core), None, clock)))
            })
            .collect();
        rt.connect(ids[0], ids[1]);
        ids
    };
    debug_assert_eq!(brokers, vec![B0, B1]);
    let client = |id: u32, home: NodeId| ClientNode::new(ClientId::new(id), Some(home));
    if side == 0 {
        let publisher: Box<dyn Node<Message>> = match &clocks.publisher {
            None => Box::new(client(1, B0)),
            Some(c) => Box::new(Probe::new(client(1, B0), None, Some(Arc::clone(c)))),
        };
        rt.add_local(publisher);
        rt.add_remote(peer);
        rt.add_remote(peer);
    } else {
        rt.add_remote(peer);
        let a = Probe::new(client(2, B1), Some(Arc::clone(&taps[0])), clocks.consumer_a.clone());
        rt.add_local(Box::new(a));
        rt.add_local(Box::new(Probe::new(client(3, B1), Some(Arc::clone(&taps[1])), None)));
    }
    rt.connect(PUBLISHER, B0);
    rt.connect(CONSUMER_A, B1);
    rt.connect(CONSUMER_Q, B1);
}

/// What one round measured.
#[derive(Debug, Default)]
struct Round {
    /// Deployment, start and subscription warm-up.
    setup_s: f64,
    deliver_per_s: f64,
    latencies_us: Vec<f64>,
    /// Traced: handler clocks over the ping phase (publisher, brokers,
    /// consumer A) and process counters over the flood.
    ping_clocks: [ClockReading; 3],
    flood_counters: Counters,
    faults: Vec<String>,
}

fn run_round(items: &[Item], clocks: &Clocks) -> Round {
    let mut round = Round::default();
    let warm_attrs: Vec<NotificationBuilder> =
        (0..5000).map(|k| Item { mark: WARM_BASE + k, bucket: 0, px: 0.0 }.attrs()).collect();
    let flood: Vec<NotificationBuilder> = items[..FLOOD].iter().map(Item::attrs).collect();
    let pings: Vec<NotificationBuilder> = items[FLOOD..].iter().map(Item::attrs).collect();
    let q_flood = items[..FLOOD].iter().filter(|i| i.selected_by_q()).count() as u64;

    let t_setup = Instant::now();
    let taps = [Tap::new(), Tap::new()];
    let (a, b) = UnixStream::pair().expect("socketpair");
    let mut rt0: ProcessRuntime<Message> = ProcessRuntime::new();
    let mut rt1: ProcessRuntime<Message> = ProcessRuntime::new();
    let p0 = rt0.add_peer(a);
    let p1 = rt1.add_peer(b);
    partition(&mut rt0, 0, p0, clocks, &taps);
    partition(&mut rt1, 1, p1, clocks, &taps);
    let metrics = [rt0.metrics_handle(), rt1.metrics_handle()];
    rt0.start();
    rt1.start();
    let publish =
        |attrs: NotificationBuilder| rt0.send_external(PUBLISHER, Message::AppPublish { attrs });

    rt1.send_external(
        CONSUMER_A,
        Message::AppSubscribe { id: SubscriptionId::new(1), filter: filter_a() },
    );
    rt1.send_external(
        CONSUMER_Q,
        Message::AppSubscribe { id: SubscriptionId::new(1), filter: filter_q() },
    );
    // Warm up until both subscriptions route: publish, wait briefly for
    // both consumers, repeat.
    let mut warmed = false;
    for attrs in warm_attrs {
        publish(attrs);
        if taps[0].wait(Duration::from_millis(2), |s| s.count > 0).is_some()
            && taps[1].wait(Duration::from_millis(2), |s| s.count > 0).is_some()
        {
            warmed = true;
            break;
        }
    }
    round.setup_s = t_setup.elapsed().as_secs_f64();
    if !warmed {
        round.faults.push("subscriptions never took effect".into());
    }
    // Let the warm-up drain before the flood: with no pause, the first
    // flood notification went missing from consumer A's log once in about
    // two thousand rounds (see CHANGES.md). Completion below is still
    // waited for by mark, never by count.
    std::thread::sleep(Duration::from_millis(5));
    let base = taps[0].get().count;
    let q_marks: Vec<i64> = items.iter().filter(|i| i.selected_by_q()).map(|i| i.mark).collect();
    let last_q_flood = q_marks.iter().copied().filter(|m| *m < FLOOD as i64).max();
    taps[0].arm(FLOOD as i64 - 1);
    taps[1].arm(last_q_flood.expect("a quarter of the flood selects consumer Q"));

    // Flood through a bounded window.
    let before = clocks.publisher.as_ref().map(|_| Counters::now());
    let t0 = Instant::now();
    let mut stalled = false;
    for (i, attrs) in flood.into_iter().enumerate() {
        if i >= WINDOW {
            let need = base + (i - WINDOW + 1) as u64;
            if taps[0].wait(STALL, |s| s.count >= need).is_none() {
                stalled = true;
                break;
            }
        }
        publish(attrs);
    }
    let done_a = taps[0].wait(STALL, |s| s.armed_at.is_some()).and_then(|s| s.armed_at);
    let done_q = taps[1].wait(STALL, |s| s.armed_at.is_some()).and_then(|s| s.armed_at);
    match (stalled, done_a, done_q) {
        (false, Some(ta), Some(tq)) => {
            let elapsed = ta.max(tq) - t0;
            round.deliver_per_s = (FLOOD as u64 + q_flood) as f64 / elapsed.as_secs_f64();
        }
        _ => round.faults.push("flood phase stalled".into()),
    }
    if let Some(before) = before {
        round.flood_counters = Counters::now().since(&before);
    }

    // Ping: one notification in flight.
    let last_q_ping = q_marks.last().copied().filter(|m| *m >= FLOOD as i64);
    if let Some(m) = last_q_ping {
        taps[1].arm(m);
    }
    let clocks_before = clocks.read();
    for (item, attrs) in items[FLOOD..].iter().zip(pings) {
        taps[0].arm(item.mark);
        let sent = Instant::now();
        publish(attrs);
        match taps[0].wait(STALL, |s| s.armed_at.is_some()).and_then(|s| s.armed_at) {
            Some(at) => round.latencies_us.push((at - sent).as_nanos() as f64 / 1000.0),
            None => {
                round.faults.push("ping phase stalled".into());
                break;
            }
        }
    }
    let clocks_after = clocks.read();
    for ((ping, after), before) in
        round.ping_clocks.iter_mut().zip(&clocks_after).zip(&clocks_before)
    {
        *ping = after.since(before);
    }
    if last_q_ping.is_some() && taps[1].wait(STALL, |s| s.armed_at.is_some()).is_none() {
        round.faults.push("consumer Q never received its share".into());
    }

    let links: Vec<_> = metrics.iter().map(|m| m.snapshot()).collect();
    drop(rt0.stop());
    let nodes = rt1.stop();
    for (i, m) in links.iter().enumerate() {
        if m.frames_dropped != 0 || m.link_downs != 0 {
            round.faults.push(format!("partition {i}: {m:?}"));
        }
    }
    for (i, m) in metrics.iter().map(|m| m.snapshot()).enumerate() {
        if m.thread_panics != 0 {
            round.faults.push(format!("partition {i}: {} thread panics", m.thread_panics));
        }
    }
    for (node, selected) in [(CONSUMER_A, None), (CONSUMER_Q, Some(()))] {
        let client = nodes[node.raw() as usize]
            .as_deref()
            .and_then(unwrap_node::<ClientNode>)
            .expect("consumer is local to partition 1");
        let expected: Vec<&Item> =
            items.iter().filter(|i| selected.is_none() || i.selected_by_q()).collect();
        if let Err(f) = check_delivery_log(client, &expected) {
            round.faults.push(format!("consumer {node}: {f}"));
        }
    }
    round
}

/// Checks one consumer's delivery log: the measured marks exactly as
/// expected (once each, in publish order), attributes intact, warm-up
/// marks (any prefix may be lost before the subscription routed) in order
/// and free of duplicates.
fn check_delivery_log(client: &ClientNode, expected: &[&Item]) -> Result<(), String> {
    let log = client.local().delivered();
    let marks: Vec<i64> = log
        .iter()
        .map(|r| r.notification.get("mark").and_then(|v| v.as_int()).unwrap_or(i64::MIN))
        .collect();
    if let Some(w) = marks.windows(2).find(|w| w[0] >= w[1]) {
        return Err(format!("mark {} delivered after mark {}", w[1], w[0]));
    }
    let measured: Vec<i64> = marks.iter().copied().filter(|m| *m >= 0).collect();
    let due: Vec<i64> = expected.iter().map(|i| i.mark).collect();
    check_exact_sequence(&due, &measured).map_err(|f| f.to_string())?;
    let first = marks.len() - measured.len();
    for (rec, item) in log[first..].iter().zip(expected) {
        let n = &rec.notification;
        let intact = n.get("topic").and_then(|v| v.as_str()) == Some("feed")
            && n.get("bucket").and_then(|v| v.as_int()) == Some(item.bucket)
            && n.get("px").and_then(|v| v.as_f64()) == Some(item.px)
            && n.attr_count() == 4;
        if !intact {
            return Err(format!("mark {} arrived with altered attributes", item.mark));
        }
    }
    Ok(())
}

/// Mean time per call of `f` over `items`, best of five passes (ns).
fn per_call_ns<T>(items: &[T], mut f: impl FnMut(&T)) -> f64 {
    (0..5)
        .map(|_| {
            let t0 = Instant::now();
            for i in items {
                f(i);
            }
            t0.elapsed().as_nanos() as f64 / items.len() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Isolated layer costs on the workload's own messages (ns per call):
/// match at broker 1, codec encode, codec decode, frame
/// encode+reassemble+decode, send-buffer push+drain; and the mean framed
/// size of one message (bytes).
fn isolated_layers(items: &[Item]) -> [f64; 6] {
    let notifications: Vec<Arc<Notification>> = items
        .iter()
        .enumerate()
        .map(|(seq, i)| Arc::new(i.attrs().publish(ClientId::new(1), seq as u64, SimTime::ZERO)))
        .collect();
    let mut table = RoutingTable::with_interner(Arc::new(SharedInterner::new()));
    table.attach_client(ClientId::new(2), CONSUMER_A);
    table.attach_client(ClientId::new(3), CONSUMER_Q);
    table.subscribe_client(ClientId::new(2), SubscriptionId::new(1), filter_a());
    table.subscribe_client(ClientId::new(3), SubscriptionId::new(1), filter_q());
    let mut scratch = RouteScratch::new();
    let matching = per_call_ns(&notifications, |n| {
        table.route_into(n, &mut scratch);
        std::hint::black_box(&scratch);
    });

    let messages: Vec<Message> =
        notifications.iter().map(|n| Message::Forward { notification: Arc::clone(n) }).collect();
    let encode = per_call_ns(&messages, |m| {
        let mut payload = Vec::new();
        m.encode_into(&mut payload);
        std::hint::black_box(payload);
    });
    let payloads: Vec<Vec<u8>> = messages
        .iter()
        .map(|m| {
            let mut p = Vec::new();
            m.encode_into(&mut p);
            p
        })
        .collect();
    let decode = per_call_ns(&payloads, |p| {
        std::hint::black_box(Message::decode(p).expect("own encoding decodes"));
    });
    let mut reassembler = FrameReassembler::new();
    let frame = per_call_ns(&payloads, |p| {
        let mut bytes = Vec::new();
        encode_frame(&Frame::Msg { from: B0, to: B1, payload: p.clone() }, &mut bytes);
        reassembler.push(&bytes);
        std::hint::black_box(reassembler.next_frame().expect("valid frame"));
    });
    let frames: Vec<Vec<u8>> = payloads
        .iter()
        .map(|p| {
            let mut bytes = Vec::new();
            encode_frame(&Frame::Msg { from: B0, to: B1, payload: p.clone() }, &mut bytes);
            bytes
        })
        .collect();
    let frame_bytes = frames.iter().map(Vec::len).sum::<usize>() as f64 / frames.len() as f64;
    let buffer = SendBuffer::new(PEER_SEND_CAPACITY);
    let mut out = Vec::new();
    let send_buffer = per_call_ns(&frames, |f| {
        buffer.push(f).expect("open buffer");
        out.clear();
        buffer.drain_into(&mut out);
    });
    [matching, encode, decode, frame, send_buffer, frame_bytes]
}

/// Runs whole rounds until `seconds` have passed.
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let clocks = if traced { Clocks::traced() } else { Clocks::default() };
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    let mut rates = Vec::new();
    let mut setups = Vec::new();
    let mut latencies = Vec::new();
    // Per-round percentiles: their median over rounds keeps a few rounds
    // slowed by other load on the host from moving the run's figure.
    let (mut p50s, mut p90s) = (Vec::new(), Vec::new());
    let mut ping_clocks = [ClockReading::default(); 3];
    let mut flood = Counters::default();
    let mut rounds = 0u64;
    let mut last_items = Vec::new();
    let mut first_round_rss = f64::NAN;
    while rounds == 0 || Instant::now() < deadline {
        let items = generate(seed, rounds);
        let round = run_round(&items, &clocks);
        let q = items.iter().filter(|i| i.selected_by_q()).count() as u64;
        // Operations: every due delivery of the round.
        o.attempted += items.len() as u64 + q;
        if !round.faults.is_empty() {
            o.failed += items.len() as u64 + q;
        }
        o.faults.extend(round.faults);
        rates.push(round.deliver_per_s);
        setups.push(round.setup_s);
        let mut lat = round.latencies_us;
        lat.sort_by(f64::total_cmp);
        p50s.push(percentile(&lat, 50.0).unwrap_or(f64::NAN));
        p90s.push(percentile(&lat, 90.0).unwrap_or(f64::NAN));
        latencies.extend(lat);
        for (sum, r) in ping_clocks.iter_mut().zip(&round.ping_clocks) {
            *sum = sum.plus(r);
        }
        flood = flood.plus(&round.flood_counters);
        if rounds == 0 {
            // Freed delivery logs stay cached in per-thread malloc arenas,
            // so later rounds only add allocator slack: the peak of the
            // first round is the deployment's own.
            first_round_rss = peak_rss_mb();
        }
        rounds += 1;
        last_items = items;
    }
    latencies.sort_by(f64::total_cmp);
    o.notes.push(format!(
        "live-publish: {rounds} rounds, {} pings, p99 {:?} us",
        latencies.len(),
        percentile(&latencies, 99.0)
    ));
    let e2e = [
        ("ops_per_s", median(&mut rates).unwrap_or(f64::NAN), "op/s"),
        ("lat_p50_us", median(&mut p50s).unwrap_or(f64::NAN), "us"),
        ("lat_p90_us", median(&mut p90s).unwrap_or(f64::NAN), "us"),
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
    let [publisher, brokers, consumer] = ping_clocks;
    let publish_ns = publisher.route_mean_ns();
    let handle_ns = brokers.route_mean_ns();
    let deliver_ns = consumer.route_mean_ns();
    let [matching, encode, decode, frame, send_buffer, frame_bytes] =
        isolated_layers(&last_items[..FLOOD]);
    let wall_ns = latencies.iter().sum::<f64>() / latencies.len() as f64 * 1000.0;
    // One notification: one publish, two broker hops (match included),
    // one delivery to consumer A, one socket crossing.
    let layers = publish_ns + 2.0 * handle_ns + deliver_ns + encode + decode + frame + send_buffer;
    let msgs = (rounds as usize * FLOOD) as f64;
    o.metric("broker.client.publish_ns", publish_ns, "ns");
    o.metric("broker.client.deliver_ns", deliver_ns, "ns");
    o.metric("broker.broker.handle_ns", handle_ns, "ns");
    o.metric("core.matching.match_ns", matching, "ns");
    o.metric("broker.codec.encode_ns", encode, "ns");
    o.metric("broker.codec.decode_ns", decode, "ns");
    o.metric("net.wire.frame_ns", frame, "ns");
    o.metric("net.send_buffer.ns", send_buffer, "ns");
    o.metric("net.process_rt.residual_ns", wall_ns - layers, "ns");
    o.metric("net.process_rt.wall_ns_per_delivery", wall_ns, "ns");
    o.metric("net.process_rt.wire_bytes_per_msg", frame_bytes, "B/msg");
    o.metric("net.process_rt.ctxsw_per_msg", flood.ctxsw as f64 / msgs, "ctxsw/msg");
    o.metric("process.allocs_per_msg", flood.allocs as f64 / msgs, "alloc/msg");
    o.metric("process.retained_bytes_per_msg", flood.live_bytes as f64 / msgs, "B/msg");
    o.notes.push(format!(
        "budget per delivery (ns): publish {publish_ns:.0} + 2 x handle {handle_ns:.0} \
         (match {matching:.0} inside) + deliver {deliver_ns:.0} + encode {encode:.0} + \
         decode {decode:.0} + frame {frame:.0} + send buffer {send_buffer:.0} + residual {:.0} \
         = wall {wall_ns:.0}",
        wall_ns - layers
    ));
    o
}
