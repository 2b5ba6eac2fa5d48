//! The closed-loop workloads: 16 clients that each wait for a reply
//! before sending their next request, against the PMNet-Switch design.
//!
//! * `closed_update` — 100% 512 B updates against the ideal handler (the
//!   paper's §VI-B1 microbenchmark): client, device log, ports and the
//!   event loop do nearly all the work.
//! * `kv_cached` — YCSB 50% SET / 50% GET, 256 B values, zipf 0.99 over
//!   100k keys, a real PM B-tree handler and a 65,536-entry device read
//!   cache (smaller than the key space), so reads exercise the cache, the
//!   server's bypass path and the B-tree.

use std::time::Instant;

use pmnet::core::audit;
use pmnet::core::client::{ClientLib, ClientMode, CompletionRecord, RequestKind, RequestSource};
use pmnet::core::server::IdealHandler;
use pmnet::core::system::{addrs, BuiltSystem, DesignPoint, MicroSource, SystemBuilder};
use pmnet::core::{DeviceConfig, RequestHandler, SystemConfig};
use pmnet::net::{NodeId, PortCounters, PortNo, World};
use pmnet::sim::stats::CounterSet;
use pmnet::sim::{Dur, Time};
use pmnet::telemetry::registry::Registry;
use pmnet::workloads::{KvHandler, YcsbSource};

use crate::report::{Traced, SLO_LIMIT};
use crate::rig::{self, Layer, Ledger, Rig, Timed, TimedSource};
use crate::stats::nearest_rank;

/// Closed-loop clients per workload.
pub const CLIENTS: usize = 16;
/// Simulated-time budget; both workloads finish far inside it.
const DEADLINE: Dur = Dur::secs(60);

/// Which closed-loop workload.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ClosedKind {
    /// `closed_update`.
    Update,
    /// `kv_cached`.
    Kv,
}

/// A closed-loop workload at a given size.
#[derive(Debug, Clone, Copy)]
pub struct Closed {
    /// Which workload.
    pub kind: ClosedKind,
    /// Requests each client issues.
    pub ops_per_client: usize,
}

/// What one run simulated: the values the traced rig must reproduce bit
/// for bit.
#[derive(Debug, Clone, PartialEq)]
pub struct ClosedSim {
    /// Every completion, client by client.
    pub records: Vec<CompletionRecord>,
    /// Client, device, log and server counters.
    pub counters: CounterSet,
    /// Every egress port's counters.
    pub ports: Vec<(NodeId, PortNo, PortCounters)>,
    /// Simulated end time.
    pub end: Time,
}

/// One untraced repetition.
#[derive(Debug)]
pub struct ClosedRep {
    /// Host seconds building the system.
    pub setup_s: f64,
    /// Host seconds of the run phase (first event to drained).
    pub run_s: f64,
    /// Host seconds of the whole repetition (build, run, checks).
    pub total_s: f64,
    /// The simulated outcome.
    pub sim: ClosedSim,
}

/// The simulated-clock end-to-end numbers of one run.
#[derive(Debug, Clone, Copy)]
pub struct ClosedSimMetrics {
    /// Completed ops.
    pub completed: usize,
    /// Completed ops per simulated second (first to last completion).
    pub goodput: f64,
    /// Ops that met [`SLO_LIMIT`], per simulated second.
    pub slo_goodput: f64,
    /// Exact latency percentiles in µs.
    pub p50_us: f64,
    /// 99th percentile.
    pub p99_us: f64,
    /// 99.9th percentile.
    pub p999_us: f64,
}

impl ClosedSim {
    /// Latency percentiles and goodput of the completions.
    pub fn metrics(&self) -> ClosedSimMetrics {
        let mut lat: Vec<u64> = self.records.iter().map(|r| r.latency.as_nanos()).collect();
        lat.sort_unstable();
        let first = self
            .records
            .iter()
            .map(|r| r.at)
            .min()
            .unwrap_or(Time::ZERO);
        let last = self
            .records
            .iter()
            .map(|r| r.at)
            .max()
            .unwrap_or(Time::ZERO);
        let n = self.records.len();
        let span = (last - first).as_secs_f64();
        let goodput = if n > 1 && span > 0.0 {
            (n - 1) as f64 / span
        } else {
            0.0
        };
        let within = lat.iter().filter(|&&l| l <= SLO_LIMIT.as_nanos()).count();
        let us = |q| nearest_rank(&lat, q) as f64 / 1e3;
        ClosedSimMetrics {
            completed: n,
            goodput,
            slo_goodput: goodput * within as f64 / n as f64,
            p50_us: us(0.5),
            p99_us: us(0.99),
            p999_us: us(0.999),
        }
    }

    /// Bypass reads completed.
    pub fn reads(&self) -> u64 {
        self.records
            .iter()
            .filter(|r| r.kind == RequestKind::Bypass)
            .count() as u64
    }
}

impl Closed {
    /// Ops the clients issue in one run.
    pub fn issued(&self) -> usize {
        CLIENTS * self.ops_per_client
    }

    fn config(&self) -> SystemConfig {
        match self.kind {
            ClosedKind::Update => SystemConfig::default(),
            ClosedKind::Kv => SystemConfig {
                device: DeviceConfig::fpga().with_cache(65_536),
                ..SystemConfig::default()
            },
        }
    }

    fn source(&self) -> Box<dyn RequestSource> {
        match self.kind {
            ClosedKind::Update => Box::new(MicroSource::updates(self.ops_per_client, 512)),
            ClosedKind::Kv => Box::new(YcsbSource::new(self.ops_per_client, 100_000, 0.5, 256)),
        }
    }

    fn handler(kind: ClosedKind, seed: u64) -> Box<dyn RequestHandler> {
        match kind {
            ClosedKind::Update => Box::new(IdealHandler::new()),
            ClosedKind::Kv => Box::new(KvHandler::new("btree", seed)),
        }
    }

    /// Builds the untraced system with the library's own builder.
    pub fn build(&self, seed: u64) -> BuiltSystem {
        let kind = self.kind;
        let mut b = SystemBuilder::new(DesignPoint::PmnetSwitch, self.config())
            .handler_factory(move || Closed::handler(kind, seed));
        for _ in 0..CLIENTS {
            b = b.client(self.source());
        }
        b.build(seed)
    }

    /// Builds, runs and checks one untraced repetition.
    pub fn run_untraced(&self, seed: u64) -> Result<ClosedRep, String> {
        let t0 = Instant::now();
        let mut sys = self.build(seed);
        let t1 = Instant::now();
        sys.run_clients(DEADLINE);
        let t2 = Instant::now();
        self.check(&sys)?;
        let sim = ClosedSim {
            records: sys
                .clients
                .iter()
                .flat_map(|&c| sys.world.node::<ClientLib>(c).records().iter().copied())
                .collect(),
            counters: sys.counter_set(),
            ports: rig::port_counters(&sys.world),
            end: sys.world.now(),
        };
        Ok(ClosedRep {
            setup_s: (t1 - t0).as_secs_f64(),
            run_s: (t2 - t1).as_secs_f64(),
            total_s: t0.elapsed().as_secs_f64(),
            sim,
        })
    }

    /// The closed-loop correctness checks.
    fn check(&self, sys: &BuiltSystem) -> Result<(), String> {
        let mut errors = Vec::new();
        let unfinished = sys
            .clients
            .iter()
            .filter(|&&c| !sys.world.node::<ClientLib>(c).is_finished())
            .count();
        if unfinished > 0 {
            errors.push(format!("{unfinished} clients never finished"));
        }
        let completed = sys.metrics().completed;
        if completed != self.issued() {
            errors.push(format!("completed {completed} of {} issued", self.issued()));
        }
        let failed = sys.client_retry_counters().failed;
        if failed > 0 {
            errors.push(format!("{failed} client requests failed"));
        }
        let stranded = sys.stranded_log_entries();
        if stranded > 0 {
            errors.push(format!("{stranded} log entries stranded after the drain"));
        }
        let server = sys.world.node::<pmnet::core::ServerLib>(sys.server);
        if let Err(v) = audit::verify(server.audit_log(), &sys.acked_updates()) {
            errors.push(format!(
                "durability audit: {} violations, first {:?}",
                v.len(),
                v[0]
            ));
        }
        if errors.is_empty() {
            Ok(())
        } else {
            Err(errors.join("; "))
        }
    }

    /// Runs the same seed through the traced rig and checks it reproduces
    /// `reference` bit for bit.
    pub fn run_traced(&self, seed: u64, reference: &ClosedSim) -> Result<Traced, String> {
        let cfg = self.config();
        let ledger = Ledger::default();
        let endpoints = (0..CLIENTS)
            .map(|i| {
                let client = ClientLib::new(
                    addrs::client(i),
                    addrs::SERVER,
                    i as u16,
                    ClientMode::Pmnet { needed_acks: 1 },
                    cfg.client,
                    cfg.client_timeout,
                    cfg.retry,
                    Box::new(TimedSource::new(self.source(), &ledger)),
                );
                rig::timed(client, Layer::Client, &ledger)
            })
            .collect();
        let mut rig = Rig::assemble(
            seed,
            &cfg,
            endpoints,
            Closed::handler(self.kind, seed),
            ledger,
            |world, id, t| {
                world
                    .node_mut::<Timed<ClientLib>>(id)
                    .inner
                    .set_telemetry(t.clone())
            },
        );
        let t = Instant::now();
        run_clients(&mut rig.world, &rig.endpoints);
        let wall_ns = t.elapsed().as_nanos() as u64;

        let clients: Vec<&ClientLib> = rig
            .endpoints
            .iter()
            .map(|&c| &rig.world.node::<Timed<ClientLib>>(c).inner)
            .collect();
        let mut reg = Registry::new();
        for c in &clients {
            reg.record_group("client", &c.retry_counters());
        }
        let mut counters = reg.into_counter_set();
        counters.merge(&rig::component_counters(rig.device(), rig.server()));
        let sim = ClosedSim {
            records: clients
                .iter()
                .flat_map(|c| c.records().iter().copied())
                .collect(),
            counters,
            ports: rig::port_counters(&rig.world),
            end: rig.world.now(),
        };
        check_same(reference, &sim)?;

        let mut t = Traced::new(&rig, wall_ns, sim.records.len() as u64);
        t.reads = sim.reads();
        t.counters.merge(&sim.counters);
        if let Some(c) = rig.device().cache_counters() {
            t.counters.add("cache.hits", c.hits);
            t.counters.add("cache.misses", c.misses);
        }
        let span = (sim.end - Time::ZERO).as_secs_f64();
        t.add_net(&rig.world, span);
        t.peak_entries = sim.counters.get("log.peak_entries");
        t.check_phase_sums(
            sim.records
                .iter()
                .map(|r| u128::from(r.latency.as_nanos()))
                .sum(),
        )?;
        Ok(t)
    }
}

/// `BuiltSystem::run_clients`, over the rig's wrapped clients.
fn run_clients(world: &mut World, clients: &[NodeId]) {
    for &c in clients {
        world.start_node(c);
    }
    let end = Time::ZERO + DEADLINE;
    let slice = Dur::millis(1);
    let mut cursor = world.now();
    while cursor < end {
        cursor = (cursor + slice).min(end);
        world.run_until(cursor);
        let all_done = clients
            .iter()
            .all(|&c| world.node::<Timed<ClientLib>>(c).inner.is_finished());
        if all_done {
            world.run_for(Dur::millis(1));
            break;
        }
        if world.pending_events() == 0 {
            break;
        }
    }
}

/// The rig-equality check: fails with the first difference.
fn check_same(reference: &ClosedSim, traced: &ClosedSim) -> Result<(), String> {
    if reference == traced {
        return Ok(());
    }
    let what = if reference.records.len() != traced.records.len() {
        format!(
            "completed {} untraced vs {} traced",
            reference.records.len(),
            traced.records.len()
        )
    } else if reference.records != traced.records {
        "per-op latency records differ".to_string()
    } else if reference.counters != traced.counters {
        format!(
            "counter sets differ: untraced {} / traced {}",
            reference.counters, traced.counters
        )
    } else if reference.ports != traced.ports {
        "port counters differ".to_string()
    } else {
        format!(
            "end time {} untraced vs {} traced",
            reference.end, traced.end
        )
    };
    Err(format!(
        "traced rig diverged from SystemBuilder: {what} (the rig must be kept in step with the builder)"
    ))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_rig_check_catches_a_diverging_topology() {
        let w = Closed {
            kind: ClosedKind::Update,
            ops_per_client: 20,
        };
        let rep = w.run_untraced(5).expect("checks pass");
        w.run_traced(5, &rep.sim).expect("same seed reproduces");
        // A rig seeded differently stands in for a rig wired differently:
        // the same workload, a different simulation.
        let err = w.run_traced(6, &rep.sim).expect_err("divergence must fail");
        assert!(err.contains("diverged"), "{err}");
    }
}
