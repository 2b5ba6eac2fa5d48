//! Metric names, units and the result line.
//!
//! End-to-end metrics come from untraced runs; per-layer metrics from the
//! traced rig (or, for the chaos workload, from the campaign verdicts).
//! Every workload prints every metric of its mode, so a layer a workload
//! never exercises reads zero.

use pmnet::net::World;
use pmnet::sim::stats::CounterSet;
use pmnet::sim::Dur;

use crate::rig::{self, Layer, Ledger, Rig};
use crate::stats::ratio;

/// The latency limit behind `sim_slo_rate_ops_per_s`: about 4× the
/// unloaded PMNet update latency of 23 µs.
pub const SLO_LIMIT: Dur = Dur::micros(100);

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name, as in `BENCHMARK.json`.
    pub name: String,
    /// Measured value.
    pub value: f64,
    /// Unit, as in `BENCHMARK.json`.
    pub unit: &'static str,
    /// `host`, `sim` or `count` — which clock (if any) the value is on.
    pub clock: &'static str,
}

impl Metric {
    /// A metric on the host clock.
    pub fn host(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            clock: "host",
        }
    }

    /// A metric on the simulated clock.
    pub fn sim(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            clock: "sim",
        }
    }

    /// A deterministic count or ratio of counts.
    pub fn count(name: &str, value: f64, unit: &'static str) -> Metric {
        Metric {
            name: name.to_string(),
            value,
            unit,
            clock: "count",
        }
    }
}

/// The open-loop ladder: offered arrivals per simulated second.
pub const LADDER: [f64; 5] = [1.0e6, 2.0e6, 2.5e6, 3.0e6, 4.0e6];

/// The metric-name suffix of a ladder rung, e.g. `r2.5M`.
pub fn rung_name(rate: f64) -> String {
    format!("r{:.1}M", rate / 1e6)
}

/// Everything a traced run measured, summed over its rig runs.
#[derive(Debug, Default)]
pub struct Traced {
    /// Completed ops.
    pub ops: u64,
    /// Bypass reads completed.
    pub reads: u64,
    /// Host ns of the traced run phases.
    pub wall_ns: u64,
    /// Host time per layer.
    pub ledger: Ledger,
    /// Named counters (`client.*`, `device.*`, `log.*`, `server.*`,
    /// `cache.*`, `traffic.*`).
    pub counters: CounterSet,
    /// Packets sent on every port.
    pub packets: u64,
    /// Packets tail-dropped by a full egress queue.
    pub overflow_drops: u64,
    /// The busiest link's utilisation.
    pub max_link_util: f64,
    /// Highest device-log occupancy.
    pub peak_entries: u64,
    /// Per-phase `(name, total simulated ns, samples)`.
    pub phases: Vec<(&'static str, u128, usize)>,
    /// Open loop: p99 in µs per ladder rung.
    pub rung_p99_us: Vec<(f64, f64)>,
}

impl Traced {
    /// The ledger, wall time and phases of one rig run of `ops` ops.
    pub fn new(rig: &Rig, wall_ns: u64, ops: u64) -> Traced {
        Traced {
            ops,
            wall_ns,
            ledger: rig.ledger.clone(),
            phases: rig::phase_totals(&rig.telemetry),
            ..Traced::default()
        }
    }

    /// Adds the network totals of `world` over `sim_secs`.
    pub fn add_net(&mut self, world: &World, sim_secs: f64) {
        let (packets, overflow, util) = rig::net_totals(world, sim_secs);
        self.packets += packets;
        self.overflow_drops += overflow;
        self.max_link_util = self.max_link_util.max(util);
    }

    /// Folds another traced run into this one.
    pub fn absorb(&mut self, other: Traced) {
        self.ops += other.ops;
        self.reads += other.reads;
        self.wall_ns += other.wall_ns;
        self.ledger.absorb(&other.ledger);
        self.counters.merge(&other.counters);
        self.packets += other.packets;
        self.overflow_drops += other.overflow_drops;
        self.max_link_util = self.max_link_util.max(other.max_link_util);
        self.peak_entries = self.peak_entries.max(other.peak_entries);
        if self.phases.is_empty() {
            self.phases = other.phases;
        } else {
            for (mine, theirs) in self.phases.iter_mut().zip(other.phases) {
                mine.1 += theirs.1;
                mine.2 += theirs.2;
            }
        }
        self.rung_p99_us.extend(other.rung_p99_us);
    }

    /// Checks that the telemetry phases account for `latency_ns`, the
    /// summed latency of every completed op, to within the histograms'
    /// whole-nanosecond mean rounding.
    pub fn check_phase_sums(&self, latency_ns: u128) -> Result<(), String> {
        let phases: u128 = self.phases.iter().map(|p| p.1).sum();
        let slack = self.phases.iter().map(|p| p.2 as u128).sum::<u128>();
        if phases > latency_ns || latency_ns - phases > slack {
            return Err(format!(
                "telemetry phases sum to {phases} ns but completed ops took {latency_ns} ns"
            ));
        }
        Ok(())
    }

    fn per_op(&self, v: f64) -> f64 {
        ratio(v, self.ops as f64)
    }

    fn phase_us(&self, name: &str) -> f64 {
        let total = self.phases.iter().find(|p| p.0 == name).map_or(0, |p| p.1);
        self.per_op(total as f64) / 1e3
    }

    /// The host-time residual: traced wall time outside every wrapped node.
    pub fn residual_ns(&self) -> i128 {
        i128::from(self.wall_ns) - i128::from(self.ledger.node_ns())
    }

    /// The per-layer metrics (without `trace.overhead_frac` and `chaos.*`).
    pub fn layer_metrics(&self) -> Vec<Metric> {
        let c = &self.counters;
        let g = |n: &str| c.get(n) as f64;
        let self_ns = |l: Layer| self.per_op(self.ledger.self_ns(l) as f64);
        let calls = |l: Layer| self.per_op(self.ledger.cost(l).total_calls() as f64);
        let offered =
            g("log.logged") + bypassed(c) + g("log.spilled_quota") + g("log.spilled_watermark");
        let arrivals = g("traffic.arrivals");
        let mut m = vec![
            Metric::host("client.self_ns_per_op", self_ns(Layer::Client), "ns/op"),
            Metric::count("client.events_per_op", calls(Layer::Client), "count/op"),
            Metric::count(
                "client.retransmits_per_op",
                self.per_op(g("client.retransmits")),
                "count/op",
            ),
            Metric::sim("phase.client_tx_us", self.phase_us("client_tx"), "us"),
            Metric::sim("phase.client_rx_us", self.phase_us("client_rx"), "us"),
            Metric::host("traffic.self_ns_per_op", self_ns(Layer::Traffic), "ns/op"),
            Metric::count(
                "traffic.shed_frac",
                ratio(
                    g("traffic.shed_admission") + g("traffic.queue_drops"),
                    arrivals,
                ),
                "ratio",
            ),
            Metric::count(
                "traffic.congestion_signals_per_op",
                self.per_op(g("traffic.congestion_signals")),
                "count/op",
            ),
        ];
        for rate in LADDER {
            let p99 = self
                .rung_p99_us
                .iter()
                .find(|r| r.0 == rate)
                .map_or(0.0, |r| r.1);
            m.push(Metric::sim(
                &format!("traffic.p99_us.{}", rung_name(rate)),
                p99,
                "us",
            ));
        }
        m.extend([
            Metric::host("switch.self_ns_per_op", self_ns(Layer::Switch), "ns/op"),
            Metric::count(
                "net.packets_per_op",
                self.per_op(self.packets as f64),
                "count/op",
            ),
            Metric::sim("net.max_link_util", self.max_link_util, "ratio"),
            Metric::count("net.overflow_drops", self.overflow_drops as f64, "count"),
            Metric::sim("phase.wire_out_us", self.phase_us("wire_out"), "us"),
            Metric::sim("phase.wire_back_us", self.phase_us("wire_back"), "us"),
            Metric::host("device.self_ns_per_op", self_ns(Layer::Device), "ns/op"),
            Metric::count("device.events_per_op", calls(Layer::Device), "count/op"),
            Metric::count("log.bypass_frac", ratio(bypassed(c), offered), "ratio"),
            Metric::count(
                "log.spill_frac",
                ratio(g("log.spilled_quota") + g("log.spilled_watermark"), offered),
                "ratio",
            ),
            Metric::count("log.peak_entries", self.peak_entries as f64, "count"),
            Metric::count(
                "device.retrans_served_per_op",
                self.per_op(g("device.retrans_served")),
                "count/op",
            ),
            Metric::count(
                "cache.hit_frac",
                ratio(g("cache.hits"), g("cache.hits") + g("cache.misses")),
                "ratio",
            ),
            Metric::count(
                "device.reads_parked_per_read",
                ratio(g("device.reads_parked"), self.reads as f64),
                "ratio",
            ),
            Metric::sim("phase.device_us", self.phase_us("device"), "us"),
            Metric::sim("phase.batch_wait_us", self.phase_us("batch_wait"), "us"),
            Metric::host("server.self_ns_per_op", self_ns(Layer::Server), "ns/op"),
            Metric::count(
                "server.reordered_per_op",
                self.per_op(g("server.reordered")),
                "count/op",
            ),
            Metric::count(
                "server.retrans_sent_per_op",
                self.per_op(g("server.retrans_sent")),
                "count/op",
            ),
            Metric::count(
                "server.duplicates_dropped_per_op",
                self.per_op(g("server.duplicates_dropped")),
                "count/op",
            ),
            Metric::sim("phase.server_stack_us", self.phase_us("server_stack"), "us"),
            Metric::sim("phase.handler_us", self.phase_us("handler"), "us"),
            Metric::host("kv.self_ns_per_op", self_ns(Layer::Kv), "ns/op"),
            Metric::count("kv.calls_per_op", calls(Layer::Kv), "count/op"),
            Metric::host("gen.self_ns_per_op", self_ns(Layer::Gen), "ns/op"),
            Metric::host(
                "runtime.residual_ns_per_op",
                self.per_op(self.residual_ns() as f64),
                "ns/op",
            ),
            Metric::count(
                "runtime.node_events_per_op",
                self.per_op(self.ledger.node_events() as f64),
                "count/op",
            ),
            Metric::host(
                "trace.wall_ns_per_op",
                self.per_op(self.wall_ns as f64),
                "ns/op",
            ),
        ]);
        m
    }
}

fn bypassed(c: &CounterSet) -> f64 {
    (c.get("log.bypass_queue") + c.get("log.bypass_collision") + c.get("log.bypass_full")) as f64
}

/// The final result line. Values print with every digit `f64` carries
/// (`{:?}`); the caller has checked they are finite.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let body: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "\"{}\": {{\"value\": {:?}, \"unit\": \"{}\"}}",
                m.name, m.value, m.unit
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        attempted,
        body.join(", ")
    )
}
