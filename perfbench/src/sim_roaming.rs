//! `sim-roaming`: the paper's mobility machinery in the deterministic
//! simulator, driven through `rebeca_sim::scenario`.
//!
//! Roaming clients random-walk a 4×4 grid movement graph over a 16-broker
//! tree under `ExtendedLogical { k: 1 }` with location-dependent (`myloc`)
//! subscriptions; one Zipf-skewed Poisson publisher runs per broker. A
//! round is [`SEEDED_SCENARIOS`] seed-derived scenarios of
//! [`SEEDED_CLIENTS`] clients each, plus one fixed-input scenario of
//! [`FAULT_CLIENTS`] clients that keeps the `System::depart` fault
//! visible (see the README). Every output check is computed here with
//! indexed lookups, outside the timed region.

use crate::procfs::{thread_cpu_time, Counters};
use crate::report::Outcome;
use crate::stats::{median, percentile};
use rebeca::{BrokerId, BufferSpec, LocationId, LocationMap, MovementGraph, RoutingStrategy};
use rebeca::{ClientMobilityMode, Deployment, Filter, Notification, ReplicatorConfig};
use rebeca::{SimDuration, SimTime, SystemBuilder};
use rebeca_sim::movement::{MoveSchedule, MovementModel};
use rebeca_sim::scenario::{self, MovementKind, ScenarioConfig, SystemVariant, TopologyKind};
use rebeca_sim::workload::{Arrivals, PubEvent, WorkloadConfig};
use std::time::{Duration, Instant};

/// Border brokers (a 4×4 grid of cells).
pub const BROKERS: usize = 16;
/// Seed-derived scenarios per round.
pub const SEEDED_SCENARIOS: usize = 6;
/// Roaming clients per seeded scenario. The scenario runner moves all of
/// a scenario's clients at the same instants; at this count the late
/// departures of the `depart` fault (50 ms each) still fit into the
/// 500 ms hand-off gap, so no due notification is lost.
pub const SEEDED_CLIENTS: usize = 6;
/// Roaming clients of the fixed-input fault scenario: enough simultaneous
/// departures that the `depart` fault overlaps hand-offs.
pub const FAULT_CLIENTS: usize = 12;
/// Seed of the fault scenario (fixed: its failures must not depend on
/// `--seed`).
pub const FAULT_SEED: u64 = 0x00de_9a27;
/// `nlb` radius of the variant under test.
const K: u32 = 1;
/// Replay window of the oracle: buffers are unbounded.
const WINDOW: SimDuration = SimDuration::from_secs(3600);
/// Virtual-client set-up time the oracle allows after an arrival: the new
/// neighbourhood's virtual clients are created by a few simulated link
/// hops (1 ms each), so a publication less than this after the arrival
/// may precede its virtual client. Such a publication is neither due nor
/// spurious.
pub const VC_SETUP: SimDuration = SimDuration::from_millis(10);

/// The scenario every round runs, for one seed and client count.
pub fn scenario_config(seed: u64, clients: usize) -> ScenarioConfig {
    ScenarioConfig {
        brokers: BROKERS,
        topology: TopologyKind::Random(17),
        movement_graph: MovementKind::Grid(4, 4),
        variant: SystemVariant::ExtendedLogical {
            k: K,
            buffer: BufferSpec::Unbounded,
            shared: false,
        },
        strategy: RoutingStrategy::Simple,
        mobile_clients: clients,
        movement_model: MovementModel::RandomWalk,
        dwell: SimDuration::from_secs(2),
        gap: SimDuration::from_millis(500),
        workload: WorkloadConfig {
            services: vec!["weather".to_owned()],
            arrivals: Arrivals::Poisson { rate: 4.0 },
            zipf_s: 1.0,
            duration: SimDuration::from_secs(60),
            start: SimTime::from_secs(1),
            seed: seed ^ 0x5eed,
        },
        location_dependent: true,
        seed,
        shards: Some(1),
    }
}

/// Due marks of one client under extended logical mobility with a k-hop
/// neighbourhood, computed with indexed lookups.
#[derive(Debug, Default, Clone, PartialEq)]
pub struct Due {
    /// Marks that must be delivered, ascending.
    pub due: Vec<i64>,
    /// Replay-due marks published within [`VC_SETUP`] of the arrival that
    /// created their virtual client, ascending: delivery optional.
    pub uncertain: Vec<i64>,
}

/// Coverage-aware due marks of one client. `due ∪ uncertain` is exactly
/// `rebeca_sim::oracle::location_due_covered` (which scans every stint per
/// publication); `uncertain` splits off replays whose virtual client may
/// not exist yet when they are published.
pub fn covered_due(
    pubs: &[PubEvent],
    timeline: &MoveSchedule,
    locations: &LocationMap,
    cover: &Cover,
    window: SimDuration,
) -> Due {
    let stints = &timeline.stints;
    let serves = |b: BrokerId, l: LocationId| locations.serves(b, l);
    let mut due = Due::default();
    for e in pubs {
        // Stints that started at or before the publication.
        let started = stints.partition_point(|s| s.from <= e.at);
        let Some(position) = started.checked_sub(1).map(|i| &stints[i]) else {
            continue; // not yet in the system: nothing buffered for it
        };
        if position.to > e.at && serves(position.broker, e.location) {
            due.due.push(e.mark); // live
            continue;
        }
        let deadline = e.at + window;
        let first = stints.partition_point(|s| s.from < e.at);
        // The first arrival at a broker serving the location, and every
        // hand-off before it, must stay inside the k-hop cover of that
        // broker.
        let Some(arrival) = stints[first..]
            .iter()
            .take_while(|s| s.from <= deadline)
            .position(|s| serves(s.broker, e.location))
            .map(|i| first + i)
        else {
            continue;
        };
        let target = stints[arrival].broker;
        let covered = cover.covers(position.broker, target)
            && stints[first..arrival]
                .iter()
                .filter(|s| s.from > e.at)
                .all(|s| cover.covers(s.broker, target));
        if covered {
            if e.at < position.from + VC_SETUP {
                due.uncertain.push(e.mark);
            } else {
                due.due.push(e.mark);
            }
        }
    }
    due.due.sort_unstable();
    due.uncertain.sort_unstable();
    due
}

/// Precomputed k-hop neighbourhoods of a movement graph.
pub struct Cover {
    n: usize,
    within: Vec<bool>,
}

impl Cover {
    /// Tabulates `movement.k_hop(b, k)` for every broker.
    pub fn new(movement: &MovementGraph, k: u32) -> Cover {
        let n = movement.broker_count();
        let mut within = vec![false; n * n];
        for b in 0..n {
            within[b * n + b] = true;
            for t in movement.k_hop(BrokerId::new(b as u32), k) {
                within[b * n + t.raw() as usize] = true;
            }
        }
        Cover { n, within }
    }

    /// True if a client positioned at `position` keeps a virtual client at
    /// `target`.
    pub fn covers(&self, position: BrokerId, target: BrokerId) -> bool {
        self.within[position.raw() as usize * self.n + target.raw() as usize]
    }
}

/// Time (simulated ms) from each arrival after a hand-off to the first
/// delivery for the new broker's location; an arrival with none during
/// its stint counts as the whole stint, as in the simulator's E1 metric.
pub fn arrival_latencies_ms(
    location_of: &[LocationId],
    locations: &LocationMap,
    timeline: &MoveSchedule,
    delivered: &[(i64, SimTime)],
) -> Vec<f64> {
    let mut out = Vec::new();
    for stint in timeline.stints.iter().skip(1) {
        let start = delivered.partition_point(|(_, at)| *at < stint.from);
        let first = delivered[start..]
            .iter()
            .take_while(|(_, at)| *at < stint.to)
            .find(|(m, _)| locations.serves(stint.broker, location_of[*m as usize]))
            .map_or(stint.to, |(_, at)| *at);
        out.push((first - stint.from).as_micros() as f64 / 1000.0);
    }
    out
}

/// Everything one scenario run contributes to a round.
#[derive(Debug, Default, Clone)]
pub struct ScenarioTally {
    /// Hand-offs in the generated movement schedules.
    pub handovers: u64,
    /// Due notifications summed over clients.
    pub due: u64,
    /// Due notifications never delivered.
    pub misses: u64,
    /// Notifications delivered but not due.
    pub spurious: u64,
    /// Stints (arrivals) the replicators must count as handovers: the
    /// first attachment plus every hand-off.
    pub stints: u64,
    /// CPU time of the (single) simulator thread in `scenario::run`.
    pub cpu: Duration,
    /// Simulated link messages and bytes.
    pub msgs: u64,
    /// Simulated link bytes.
    pub bytes: u64,
    /// Routing control messages (`sub` + `ctl` kinds).
    pub control_msgs: u64,
    /// Virtual clients created.
    pub vcs_created: u64,
    /// Notifications replayed from virtual-client buffers.
    pub replayed: u64,
    /// Peak replication-buffer bytes.
    pub peak_buffer_bytes: u64,
    /// Allocations during `scenario::run` (traced run only).
    pub allocs: u64,
    /// Arrival latencies after hand-offs (simulated ms).
    pub arrival_ms: Vec<f64>,
    /// Output checks that did not hold.
    pub faults: Vec<String>,
}

/// Runs one scenario and checks its outputs.
pub fn run_scenario(cfg: &ScenarioConfig, expect_clean: bool) -> ScenarioTally {
    let before = Counters::now();
    let t0 = thread_cpu_time();
    let out = scenario::run(cfg);
    let cpu = thread_cpu_time() - t0;
    let allocs = Counters::now().since(&before).allocs;

    let cover = Cover::new(&out.movement, K);
    let max_mark = out.pubs.iter().map(|e| e.mark).max().unwrap_or(0);
    let mut location_of = vec![LocationId::new(u32::MAX); max_mark as usize + 1];
    for e in &out.pubs {
        location_of[e.mark as usize] = e.location;
    }
    let mut tally = ScenarioTally { cpu, allocs, ..Default::default() };
    for (i, (tl, del)) in out.timelines.iter().zip(&out.delivered).enumerate() {
        tally.handovers += tl.moves() as u64;
        tally.stints += tl.stints.len() as u64;
        let Due { due, uncertain } = covered_due(&out.pubs, tl, &out.locations, &cover, WINDOW);
        let mut got: Vec<i64> = del.iter().map(|(m, _)| *m).collect();
        got.sort_unstable();
        got.dedup();
        let hits = count_common(&due, &got);
        tally.due += due.len() as u64;
        tally.misses += (due.len() - hits) as u64;
        tally.spurious += (got.len() - hits - count_common(&uncertain, &got)) as u64;
        tally.arrival_ms.extend(arrival_latencies_ms(&location_of, &out.locations, tl, del));
        if out.fifo_violations[i] != 0 {
            tally.faults.push(format!("client {i}: {} FIFO violations", out.fifo_violations[i]));
        }
    }
    let r = &out.replicator_totals;
    if r.exceptions != 0 {
        tally.faults.push(format!("{} exception-mode arrivals", r.exceptions));
    }
    if r.handovers != tally.stints {
        tally.faults.push(format!(
            "replicators counted {} handovers, the schedule has {} arrivals",
            r.handovers, tally.stints
        ));
    }
    // Spurious deliveries are not checked here: the `depart` fault keeps
    // every departing client attached 50 ms past its planned departure,
    // so it receives a seed-dependent number of notifications the
    // planned timeline does not make due. They are reported as a note.
    if expect_clean && tally.misses != 0 {
        tally.faults.push(format!("seed {}: {} due notifications missed", cfg.seed, tally.misses));
    }
    tally.msgs = out.traffic.values().map(|(m, _)| *m).sum();
    tally.bytes = out.total_bytes();
    tally.control_msgs = out.msgs("sub") + out.msgs("ctl");
    tally.vcs_created = r.vcs_created;
    tally.replayed = r.replayed;
    tally.peak_buffer_bytes = out.peak_buffer_bytes as u64;
    tally
}

/// Size of the intersection of two ascending, duplicate-free lists.
fn count_common(a: &[i64], b: &[i64]) -> usize {
    let (mut i, mut j, mut n) = (0, 0, 0);
    while i < a.len() && j < b.len() {
        match a[i].cmp(&b[j]) {
            std::cmp::Ordering::Less => i += 1,
            std::cmp::Ordering::Greater => j += 1,
            std::cmp::Ordering::Equal => {
                n += 1;
                i += 1;
                j += 1;
            }
        }
    }
    n
}

/// Builds the scenario's deployment, clients, subscriptions and
/// pre-scheduled publications exactly as the scenario runner's prologue
/// does, and returns the simulator thread's CPU time for it (the
/// workload's set-up cost).
pub fn setup_once(cfg: &ScenarioConfig) -> Duration {
    let t0 = thread_cpu_time();
    let topology = cfg.topology.build(cfg.brokers);
    let movement = cfg.movement_graph.build(cfg.brokers, &topology);
    let SystemVariant::ExtendedLogical { k, buffer, shared } = &cfg.variant else {
        unreachable!("sim-roaming runs the extended variant");
    };
    let deployment = Deployment::Replicated {
        movement: Some(movement.clone()),
        config: ReplicatorConfig {
            k_hops: *k,
            buffer: buffer.clone(),
            shared_buffer: *shared,
            ..Default::default()
        },
    };
    let mut sys = SystemBuilder::new(topology)
        .strategy(cfg.strategy)
        .deployment(deployment)
        .seed(cfg.seed)
        .shards(1)
        .build()
        .expect("valid deployment");
    let publishers: Vec<_> = (0..cfg.brokers)
        .map(|b| sys.add_client(BrokerId::new(b as u32)).expect("broker in topology"))
        .collect();
    let horizon = cfg.workload.start + cfg.workload.duration;
    for i in 0..cfg.mobile_clients {
        let c = sys.add_mobile_client_with_mode(ClientMobilityMode::Relocation);
        let start = BrokerId::new(((cfg.seed as usize + i * 7) % cfg.brokers) as u32);
        std::hint::black_box(MoveSchedule::generate(
            &cfg.movement_model,
            &movement,
            cfg.brokers,
            start,
            SimTime::from_millis(500),
            cfg.dwell,
            cfg.gap,
            horizon,
            cfg.seed.wrapping_add(i as u64 * 131),
        ));
        let filter = Filter::builder().eq("service", "weather").myloc("location").build();
        sys.subscribe(c, filter).expect("own client");
    }
    for e in cfg.workload.generate(cfg.brokers) {
        let attrs = Notification::builder()
            .attr("service", e.service)
            .attr("location", e.location)
            .attr("mark", e.mark);
        sys.publish_at(publishers[e.broker.raw() as usize], attrs, e.at).expect("future time");
    }
    std::hint::black_box(&sys);
    let elapsed = thread_cpu_time() - t0;
    drop(sys);
    elapsed
}

/// Rounds in the scenario pool. Round `r` runs the seeded scenarios of
/// pool slot `r % POOL_ROUNDS` and the fault scenario, so each scenario
/// runs again every `POOL_ROUNDS` rounds (about 1 s) and many times in a
/// run.
pub const POOL_ROUNDS: usize = 4;

/// What the runs of one pool scenario produced.
#[derive(Debug, Clone)]
struct Runs {
    /// Simulator-thread CPU time of every run.
    cpu: Vec<Duration>,
    /// Least set-up CPU time over the runs.
    setup: Duration,
    /// Output of the first run; every later run must produce the same.
    first: ScenarioTally,
}

impl Runs {
    /// Least CPU time over the runs: other load on the host (cache and
    /// memory contention, frequency) only ever adds to the CPU time of
    /// the same deterministic work.
    fn least(&self) -> Duration {
        self.cpu.iter().copied().min().unwrap_or_default()
    }

    /// Least CPU µs per hand-off.
    fn least_us_per_handover(&self) -> f64 {
        self.least().as_secs_f64() * 1e6 / self.first.handovers as f64
    }
}

/// The outputs two runs of the same scenario must agree on.
fn outputs(t: &ScenarioTally) -> (u64, u64, u64, u64, u64, u64) {
    (t.handovers, t.due, t.misses, t.spurious, t.msgs, t.bytes)
}

/// Runs whole rounds until `seconds` have passed (and at least one round
/// per pool slot) and reports the end-to-end metrics (or, traced, the
/// per-layer ones).
pub fn run(seed: u64, seconds: f64, traced: bool) -> Outcome {
    let mut o = Outcome::default();
    let deadline = Instant::now() + Duration::from_secs_f64(seconds);
    // Inputs for every round, generated before any clock starts: the
    // seeded scenarios of all pool slots, then the fault scenario.
    let mut pool: Vec<(ScenarioConfig, bool)> = (0..(POOL_ROUNDS * SEEDED_SCENARIOS) as u64)
        .map(|s| {
            let derived = seed.wrapping_mul(0x9e37_79b9).wrapping_add(s + 1);
            (scenario_config(derived, SEEDED_CLIENTS), true)
        })
        .collect();
    pool.push((scenario_config(FAULT_SEED, FAULT_CLIENTS), false));
    let fault_index = pool.len() - 1;
    let mut runs: Vec<Option<Runs>> = vec![None; pool.len()];
    let mut arrivals = Vec::new();
    let mut fault_arrivals = Vec::new();
    let mut seeded_spurious = 0u64;
    let (mut handovers, mut allocs) = (0u64, 0u64);
    let mut round = 0u64;
    while round < POOL_ROUNDS as u64 || Instant::now() < deadline {
        let slot = round as usize % POOL_ROUNDS;
        let members = (slot * SEEDED_SCENARIOS..(slot + 1) * SEEDED_SCENARIOS).chain([fault_index]);
        for i in members {
            let (cfg, seeded) = &pool[i];
            let setup = setup_once(cfg);
            let t = run_scenario(cfg, *seeded);
            for f in &t.faults {
                if !o.faults.contains(f) {
                    o.faults.push(f.clone());
                }
            }
            // Seeded scenarios count hand-offs as operations (none may
            // fail); the fault scenario counts its due notifications, of
            // which the `depart` fault loses the same ones every run.
            if *seeded {
                o.attempted += t.handovers;
            } else {
                o.attempted += t.due;
                o.failed += t.misses + t.spurious;
            }
            // Outputs of a repeat equal the first run's (checked below), so
            // only first runs are kept: memory does not grow with the run.
            if runs[i].is_none() && *seeded {
                arrivals.extend(t.arrival_ms.iter().copied());
                seeded_spurious += t.spurious;
            } else if runs[i].is_none() {
                fault_arrivals.extend(t.arrival_ms.iter().copied());
            }
            handovers += t.handovers;
            allocs += t.allocs;
            match &mut runs[i] {
                None => {
                    runs[i] = Some(Runs {
                        cpu: vec![t.cpu],
                        setup,
                        first: ScenarioTally { arrival_ms: Vec::new(), ..t },
                    })
                }
                Some(r) => {
                    if outputs(&r.first) != outputs(&t) {
                        o.fault(format!(
                            "scenario seed {}: a repeated run produced {:?}, the first {:?} \
                             (handovers, due, misses, spurious, msgs, bytes)",
                            cfg.seed,
                            outputs(&t),
                            outputs(&r.first)
                        ));
                    }
                    r.cpu.push(t.cpu);
                    r.setup = r.setup.min(setup);
                }
            }
        }
        round += 1;
    }
    let runs: Vec<Runs> = runs.into_iter().map(|r| r.expect("every slot ran")).collect();
    let fault = &runs[fault_index].first;
    let fault = (fault.due, fault.misses, fault.spurious);
    let seeded = &runs[..fault_index];
    let pool_sum = |f: &dyn Fn(&Runs) -> f64| runs.iter().map(f).sum::<f64>();
    let pool_handovers = pool_sum(&|r| r.first.handovers as f64);
    let least_cpu = pool_sum(&|r| r.least().as_secs_f64());
    let mut cost: Vec<f64> = seeded.iter().map(Runs::least_us_per_handover).collect();
    cost.sort_by(f64::total_cmp);
    let mut setups: Vec<f64> = runs.iter().map(|r| r.setup.as_secs_f64()).collect();
    arrivals.sort_by(f64::total_cmp);
    fault_arrivals.sort_by(f64::total_cmp);
    let e2e = [
        ("ops_per_s", pool_handovers / least_cpu, "op/s"),
        ("lat_p50_us", percentile(&cost, 50.0).unwrap_or(f64::NAN), "us"),
        ("lat_p90_us", percentile(&cost, 90.0).unwrap_or(f64::NAN), "us"),
        ("setup_s", median(&mut setups).unwrap_or(f64::NAN), "s"),
        ("peak_rss_mb", crate::procfs::peak_rss_mb(), "MiB"),
    ];
    if traced {
        let per_handover =
            |f: &dyn Fn(&ScenarioTally) -> u64| pool_sum(&|r| f(&r.first) as f64) / pool_handovers;
        let msgs = pool_sum(&|r| r.first.msgs as f64);
        let peak_buffer = runs.iter().map(|r| r.first.peak_buffer_bytes).max().unwrap_or(0);
        o.notes.push(format!("end-to-end under tracing: {e2e:?}"));
        o.metric("net.world.msgs_per_handover", msgs / pool_handovers, "msg/handover");
        o.metric("net.world.ns_per_msg", least_cpu * 1e9 / msgs, "ns");
        o.metric(
            "mobility.replicator.vcs_created_per_handover",
            per_handover(&|t| t.vcs_created),
            "vc/handover",
        );
        o.metric(
            "broker.routing.control_msgs_per_handover",
            per_handover(&|t| t.control_msgs),
            "msg/handover",
        );
        o.metric("mobility.replicator.replayed", per_handover(&|t| t.replayed), "notif/handover");
        o.metric("mobility.buffer.peak_bytes", peak_buffer as f64, "B");
        o.metric("process.allocs_per_handover", allocs as f64 / handovers as f64, "alloc/handover");
        o.metric("net.world.wire_kb_per_handover", per_handover(&|t| t.bytes) / 1024.0, "KiB");
    } else {
        for (name, value, unit) in e2e {
            o.metric(name, value, unit);
        }
    }
    let repeats: Vec<usize> = runs.iter().map(|r| r.cpu.len()).collect();
    o.notes.push(format!(
        "sim-roaming: {round} rounds, {handovers} handovers; each of {} scenarios ran {}-{} times",
        runs.len(),
        repeats.iter().min().unwrap_or(&0),
        repeats.iter().max().unwrap_or(&0)
    ));
    o.notes.push(format!(
        "least CPU us per hand-off over seeded scenarios, deciles: {:?}",
        (0..=10)
            .map(|d| percentile(&cost, d as f64 * 10.0).unwrap_or(f64::NAN).round())
            .collect::<Vec<_>>()
    ));
    // How much the host's other load added: a scenario's median run
    // against its least, median over scenarios.
    let mut slowdown: Vec<f64> = runs
        .iter()
        .map(|r| {
            let mut cpu: Vec<f64> = r.cpu.iter().map(Duration::as_secs_f64).collect();
            median(&mut cpu).unwrap_or(f64::NAN) / r.least().as_secs_f64()
        })
        .collect();
    o.notes.push(format!(
        "median run / least run of a scenario, median over scenarios: {:.3}",
        median(&mut slowdown).unwrap_or(f64::NAN)
    ));
    // Simulated links have a constant latency, so arrival latencies fall
    // on a lattice and their median is the same on every seed: printed,
    // not gated (see the README).
    o.notes.push(format!(
        "arrival latency p50: {:?} ms over {} seeded arrivals, {:?} ms in the fault scenario",
        percentile(&arrivals, 50.0),
        arrivals.len(),
        percentile(&fault_arrivals, 50.0)
    ));
    o.notes.push(format!(
        "spurious deliveries in one run of each seeded scenario (depart pause, not counted): {seeded_spurious}"
    ));
    o.notes.push(format!(
        "fault scenario per round: {} due, {} missed, {} spurious",
        fault.0, fault.1, fault.2
    ));
    o
}

#[cfg(test)]
mod tests {
    use super::*;
    use rebeca_sim::oracle;

    #[test]
    fn indexed_oracle_agrees_with_the_simulator_oracle() {
        let mut cfg = scenario_config(3, 3);
        cfg.workload.duration = SimDuration::from_secs(20);
        let out = scenario::run(&cfg);
        let cover = Cover::new(&out.movement, K);
        for tl in &out.timelines {
            let Due { due, uncertain } = covered_due(&out.pubs, tl, &out.locations, &cover, WINDOW);
            let theirs: Vec<i64> = oracle::location_due_covered(
                &out.pubs,
                tl,
                &out.locations,
                &out.movement,
                K,
                WINDOW,
            )
            .all()
            .into_iter()
            .collect();
            let mut ours = [due, uncertain].concat();
            ours.sort_unstable();
            assert_eq!(ours, theirs);
        }
    }

    #[test]
    fn intersection_counts_common_marks() {
        assert_eq!(count_common(&[1, 2, 5, 7], &[2, 3, 5, 8]), 2);
        assert_eq!(count_common(&[], &[1]), 0);
    }
}
