//! The open-loop workload `open_overload`: the `pmnet-traffic` engine with
//! `TrafficSpec::poisson` defaults (4 nodes × 64 sessions, 64 B values, a
//! 100M-key zipf, churn, AIMD admission) and the device-log spill policy,
//! climbing a fixed ladder of offered rates. It is the only workload that
//! drives `OpenLoopClient`, admission control and the spill path, and the
//! one that finds the highest rate meeting the latency limit.

use std::time::Instant;

use pmnet::core::audit;
use pmnet::core::{DeviceConfig, PmnetDevice, ServerLib, SystemConfig};
use pmnet::net::{NodeId, PortCounters, PortNo, World};
use pmnet::sim::stats::{CounterSet, LatencyHistogram};
use pmnet::sim::{Dur, Time};
use pmnet::traffic::{OpenLoopClient, TrafficCounters, TrafficSpec, TrafficSystem};
use pmnet::workloads::KvHandler;

use crate::report::{Traced, LADDER, SLO_LIMIT};
use crate::rig::{self, Layer, Ledger, Rig, Timed};

/// Per-session live-entry quota of the spill policy.
const SESSION_QUOTA: u32 = 8;
/// Soft device-log occupancy watermark of the spill policy.
const WATERMARK: usize = 1024;

/// The open-loop workload at a given measurement window per rung.
#[derive(Debug, Clone, Copy)]
pub struct Open {
    /// Simulated arrival window of each rung (a fixed drain follows).
    pub measure: Dur,
}

/// What one rung simulated: the values the traced rig must reproduce.
#[derive(Debug, Clone, PartialEq)]
pub struct RungSim {
    /// Offered arrivals per simulated second.
    pub rate: f64,
    /// Engine accounting, summed over nodes.
    pub counters: TrafficCounters,
    /// Admitted ops still in flight and queued at the end.
    pub backlog: (usize, usize),
    /// Arrival-anchored latency of completed ops.
    pub latency: LatencyHistogram,
    /// Device, log and server counters.
    pub components: CounterSet,
    /// Every egress port's counters.
    pub ports: Vec<(NodeId, PortNo, PortCounters)>,
    /// Simulated end time.
    pub end: Time,
}

/// Host seconds of one rung of one climb.
#[derive(Debug, Clone, Copy)]
pub struct RungTimes {
    /// Building the rung's system.
    pub setup_s: f64,
    /// The run phase.
    pub run_s: f64,
    /// The whole rung: build, run and checks.
    pub total_s: f64,
}

/// One untraced climb of the ladder.
#[derive(Debug)]
pub struct LadderRep {
    /// Per-rung host times, in ladder order.
    pub times: Vec<RungTimes>,
    /// Per-rung outcome, in ladder order.
    pub rungs: Vec<RungSim>,
}

impl LadderRep {
    /// Host seconds of the rungs' run phases, summed.
    pub fn run_s(&self) -> f64 {
        self.times.iter().map(|t| t.run_s).sum()
    }
}

impl RungSim {
    /// Arrivals refused or lost: shed by admission or for lack of a
    /// connected session, dropped from a full queue, timed out, or
    /// aborted by a disconnect.
    pub fn failed(&self) -> u64 {
        let c = &self.counters;
        c.shed_admission
            + c.shed_disconnected
            + c.queue_drops
            + c.timed_out
            + c.disconnect_aborts
            + c.disconnect_queue_drops
    }

    /// True when the rung met the latency limit with no shedding, no
    /// queue drops and a drained device log.
    pub fn meets_slo(&self) -> bool {
        let c = &self.counters;
        let mut lat = self.latency.clone();
        !lat.is_empty()
            && lat.percentile(0.99) <= SLO_LIMIT
            && c.shed_admission == 0
            && c.queue_drops == 0
            && self.components.get("log.stranded") == 0
    }
}

impl Open {
    fn spec(&self, rate: f64) -> TrafficSpec {
        let mut spec = TrafficSpec::poisson(rate);
        spec.measure = self.measure;
        spec
    }

    fn config() -> SystemConfig {
        SystemConfig {
            device: DeviceConfig::fpga().with_spill_policy(SESSION_QUOTA, WATERMARK),
            ..SystemConfig::default()
        }
    }

    /// Completed ops per simulated second of arrivals at one rung.
    pub fn goodput(&self, rung: &RungSim) -> f64 {
        rung.counters.completed as f64 / self.measure.as_secs_f64()
    }

    /// Climbs the ladder untraced and checks every rung.
    pub fn run_untraced(&self, seed: u64) -> Result<LadderRep, String> {
        let mut rep = LadderRep {
            times: Vec::new(),
            rungs: Vec::new(),
        };
        for rate in LADDER {
            let (times, rung) = self.run_rung(seed, rate)?;
            rep.times.push(times);
            rep.rungs.push(rung);
        }
        Ok(rep)
    }

    /// Builds, runs and checks one rung untraced.
    pub fn run_rung(&self, seed: u64, rate: f64) -> Result<(RungTimes, RungSim), String> {
        let t0 = Instant::now();
        let mut sys = TrafficSystem::build_with(&self.spec(rate), Open::config(), seed);
        let t1 = Instant::now();
        sys.run();
        let t2 = Instant::now();
        let mut latency = LatencyHistogram::new();
        for &e in &sys.engines {
            latency.merge(sys.world.node::<OpenLoopClient>(e).latency_hist());
        }
        let rung = RungSim {
            rate,
            counters: sys.counters(),
            backlog: sys.backlog(),
            latency,
            components: rig::component_counters(
                sys.world.node::<PmnetDevice>(sys.device),
                sys.world.node::<ServerLib>(sys.server),
            ),
            ports: rig::port_counters(&sys.world),
            end: sys.world.now(),
        };
        check_rung(&rung)?;
        let server = sys.world.node::<ServerLib>(sys.server);
        if let Err(v) = audit::verify(server.audit_log(), &sys.acked_updates()) {
            return Err(format!(
                "durability audit at {rate} arrivals/s: {} violations, first {:?}",
                v.len(),
                v[0]
            ));
        }
        let times = RungTimes {
            setup_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            total_s: t0.elapsed().as_secs_f64(),
        };
        Ok((times, rung))
    }

    /// Climbs the ladder through the traced rig, checking each rung
    /// against the untraced `reference`.
    pub fn run_traced(&self, seed: u64, reference: &[RungSim]) -> Result<Traced, String> {
        let mut total = Traced::default();
        for (rate, want) in LADDER.into_iter().zip(reference) {
            let spec = self.spec(rate);
            let cfg = Open::config();
            let ledger = Ledger::default();
            let stop_at = Time::ZERO + spec.measure;
            let engines = (0..spec.nodes)
                .map(|i| {
                    let engine = OpenLoopClient::new(
                        i,
                        &spec,
                        cfg.client,
                        cfg.retry,
                        cfg.client_timeout,
                        stop_at,
                    );
                    rig::timed(engine, Layer::Traffic, &ledger)
                })
                .collect();
            let mut rig = Rig::assemble(
                seed,
                &cfg,
                engines,
                Box::new(KvHandler::new("btree", 5)),
                ledger,
                |world, id, t| {
                    world
                        .node_mut::<Timed<OpenLoopClient>>(id)
                        .inner
                        .set_telemetry(t.clone())
                },
            );
            let t = Instant::now();
            run(&mut rig.world, &rig.endpoints, stop_at + spec.drain);
            let wall_ns = t.elapsed().as_nanos() as u64;

            let engines: Vec<&OpenLoopClient> = rig
                .endpoints
                .iter()
                .map(|&e| &rig.world.node::<Timed<OpenLoopClient>>(e).inner)
                .collect();
            let mut counters = TrafficCounters::default();
            let mut latency = LatencyHistogram::new();
            let mut backlog = (0, 0);
            for e in &engines {
                counters = add(counters, e.counters());
                latency.merge(e.latency_hist());
                backlog.0 += e.in_flight();
                backlog.1 += e.queued();
            }
            let got = RungSim {
                rate,
                counters,
                backlog,
                latency,
                components: rig::component_counters(rig.device(), rig.server()),
                ports: rig::port_counters(&rig.world),
                end: rig.world.now(),
            };
            if &got != want {
                return Err(format!(
                    "traced rig diverged from TrafficSystem at {rate} arrivals/s: \
                     untraced {:?} vs traced {:?} (the rig must be kept in step with the builder)",
                    want.counters, got.counters
                ));
            }

            let mut t = Traced::new(&rig, wall_ns, got.counters.completed);
            t.counters.merge(&got.components);
            for (name, v) in [
                ("traffic.arrivals", got.counters.arrivals),
                ("traffic.shed_admission", got.counters.shed_admission),
                ("traffic.queue_drops", got.counters.queue_drops),
                (
                    "traffic.congestion_signals",
                    got.counters.congestion_signals,
                ),
            ] {
                t.counters.add(name, v);
            }
            t.add_net(&rig.world, (got.end - Time::ZERO).as_secs_f64());
            t.peak_entries = got.components.get("log.peak_entries");
            let mut lat = got.latency.clone();
            let p99 = if lat.is_empty() {
                0.0
            } else {
                lat.percentile(0.99).as_micros_f64()
            };
            t.rung_p99_us.push((rate, p99));
            total.absorb(t);
        }
        Ok(total)
    }
}

fn add(mut a: TrafficCounters, b: TrafficCounters) -> TrafficCounters {
    a.arrivals += b.arrivals;
    a.admitted += b.admitted;
    a.shed_admission += b.shed_admission;
    a.shed_disconnected += b.shed_disconnected;
    a.queue_drops += b.queue_drops;
    a.completed += b.completed;
    a.timed_out += b.timed_out;
    a.disconnect_aborts += b.disconnect_aborts;
    a.disconnect_queue_drops += b.disconnect_queue_drops;
    a.retransmits += b.retransmits;
    a.congestion_signals += b.congestion_signals;
    a.disconnects += b.disconnects;
    a.reconnects += b.reconnects;
    a.registry_evictions += b.registry_evictions;
    a
}

/// `TrafficSystem::run`, over the rig's wrapped engines.
fn run(world: &mut World, engines: &[NodeId], end: Time) {
    for &e in engines {
        world.start_node(e);
    }
    let slice = Dur::millis(1);
    let mut cursor = world.now();
    while cursor < end {
        cursor = (cursor + slice).min(end);
        world.run_until(cursor);
        if world.pending_events() == 0 {
            break;
        }
    }
}

/// The open-loop correctness checks for one rung.
fn check_rung(r: &RungSim) -> Result<(), String> {
    let c = &r.counters;
    let stranded = r.components.get("log.stranded");
    if stranded > 0 {
        return Err(format!(
            "{stranded} log entries stranded at {} arrivals/s",
            r.rate
        ));
    }
    if c.arrivals != c.admitted + c.shed_admission + c.shed_disconnected + c.queue_drops {
        return Err(format!("arrival accounting does not balance: {c:?}"));
    }
    let resolved = c.completed
        + c.timed_out
        + c.disconnect_aborts
        + c.disconnect_queue_drops
        + (r.backlog.0 + r.backlog.1) as u64;
    if c.admitted != resolved {
        return Err(format!(
            "admission accounting does not balance: {c:?} backlog {:?}",
            r.backlog
        ));
    }
    if c.completed == 0 {
        return Err(format!("nothing completed at {} arrivals/s", r.rate));
    }
    Ok(())
}
