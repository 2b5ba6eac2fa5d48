//! The traced rig: the benchmark's own reassembly of the PMNet-Switch
//! topology from public constructors, with every node, the request
//! handler and the request sources wrapped in timers.
//!
//! The rig sits entirely outside the program. `SystemBuilder` and
//! `TrafficSystem` add nodes and links in the same order for this design:
//! endpoints, server, merge switch, endpoint links, device, merge→device,
//! device→server, then routes. The rig repeats that order, so the same
//! seed replays the same simulation. The workloads check this bit for bit
//! against the untraced run; a builder change that breaks it fails the
//! benchmark instead of silently skewing the decomposition.

use std::cell::RefCell;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use pmnet::core::client::{AppRequest, RequestSource, UpdateOutcome};
use pmnet::core::system::addrs;
use pmnet::core::{PmnetDevice, RequestHandler, ServerLib, SystemConfig};
use pmnet::net::{Addr, AnyNode, Ctx, Msg, Node, NodeId, PortCounters, PortNo, Switch, World};
use pmnet::sim::stats::CounterSet;
use pmnet::sim::{Dur, SimRng};
use pmnet::telemetry::registry::Registry;
use pmnet::telemetry::span::Phase;
use pmnet::telemetry::Telemetry;

/// The layers the rig times. Nodes are timed per message; the handler and
/// the sources are timed per call and nest inside the server and client
/// nodes, whose self time excludes them.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Layer {
    /// `ClientLib` nodes (closed loop).
    Client,
    /// `OpenLoopClient` nodes (open loop).
    Traffic,
    /// The merge switch.
    Switch,
    /// The PMNet device.
    Device,
    /// `ServerLib`.
    Server,
    /// The wrapped `RequestHandler`.
    Kv,
    /// The wrapped `RequestSource`s.
    Gen,
}

impl Layer {
    /// Every layer, in report order.
    pub const ALL: [Layer; 7] = [
        Layer::Client,
        Layer::Traffic,
        Layer::Switch,
        Layer::Device,
        Layer::Server,
        Layer::Kv,
        Layer::Gen,
    ];

    /// The metric prefix.
    pub fn name(self) -> &'static str {
        match self {
            Layer::Client => "client",
            Layer::Traffic => "traffic",
            Layer::Switch => "switch",
            Layer::Device => "device",
            Layer::Server => "server",
            Layer::Kv => "kv",
            Layer::Gen => "gen",
        }
    }

    /// True for layers that are simulator nodes (the others nest inside
    /// one).
    pub fn is_node(self) -> bool {
        !matches!(self, Layer::Kv | Layer::Gen)
    }
}

/// Message kinds a node's time is split by. The last slot holds handler
/// and source calls, and any other message a node receives (the
/// benchmark's workloads send no crash, restore or inject messages).
pub const KINDS: [&str; 4] = ["packet", "timer", "start", "call"];

fn kind_of(msg: &Msg) -> usize {
    match msg {
        Msg::Packet { .. } => 0,
        Msg::Timer(_) => 1,
        Msg::Start => 2,
        _ => 3,
    }
}

/// Host time and call counts of one layer, split by message kind.
#[derive(Debug, Clone, Copy, Default)]
pub struct LayerCost {
    /// Nanoseconds inside the layer, per kind (nested layers included).
    pub ns: [u64; 4],
    /// Calls, per kind.
    pub calls: [u64; 4],
}

impl LayerCost {
    /// Total nanoseconds.
    pub fn total_ns(&self) -> u64 {
        self.ns.iter().sum()
    }

    /// Total calls.
    pub fn total_calls(&self) -> u64 {
        self.calls.iter().sum()
    }

    fn add(&mut self, other: &LayerCost) {
        for k in 0..KINDS.len() {
            self.ns[k] += other.ns[k];
            self.calls[k] += other.calls[k];
        }
    }
}

/// Per-layer host cost, shared by every wrapper of one rig.
#[derive(Debug, Clone, Default)]
pub struct Ledger(Rc<RefCell<[LayerCost; 7]>>);

impl Ledger {
    fn record(&self, layer: Layer, kind: usize, since: Instant) {
        let ns = since.elapsed().as_nanos() as u64;
        let mut costs = self.0.borrow_mut();
        let c = &mut costs[layer as usize];
        c.ns[kind] += ns;
        c.calls[kind] += 1;
    }

    /// The cost recorded for `layer`.
    pub fn cost(&self, layer: Layer) -> LayerCost {
        self.0.borrow()[layer as usize]
    }

    /// Adds every layer of `other` into this ledger.
    pub fn absorb(&self, other: &Ledger) {
        let theirs = *other.0.borrow();
        let mut mine = self.0.borrow_mut();
        for (m, t) in mine.iter_mut().zip(theirs.iter()) {
            m.add(t);
        }
    }

    /// Self time of `layer`: its own time minus the layers nested in it.
    pub fn self_ns(&self, layer: Layer) -> u64 {
        let own = self.cost(layer).total_ns();
        let nested = match layer {
            Layer::Client | Layer::Traffic => self.cost(Layer::Gen).total_ns(),
            Layer::Server => self.cost(Layer::Kv).total_ns(),
            _ => 0,
        };
        // A layer that never ran has no nested time either.
        if own == 0 {
            0
        } else {
            own.saturating_sub(nested)
        }
    }

    /// Time inside any wrapped node (the nested handler and sources are
    /// part of it).
    pub fn node_ns(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_node())
            .map(|&l| self.cost(l).total_ns())
            .sum()
    }

    /// Messages delivered to wrapped nodes.
    pub fn node_events(&self) -> u64 {
        Layer::ALL
            .iter()
            .filter(|l| l.is_node())
            .map(|&l| self.cost(l).total_calls())
            .sum()
    }
}

/// A node wrapper that times every `on_msg`.
pub struct Timed<N> {
    /// The wrapped node.
    pub inner: N,
    layer: Layer,
    ledger: Ledger,
}

impl<N: Node> Node for Timed<N> {
    fn on_msg(&mut self, msg: Msg, ctx: &mut Ctx<'_>) {
        let kind = kind_of(&msg);
        let t = Instant::now();
        self.inner.on_msg(msg, ctx);
        self.ledger.record(self.layer, kind, t);
    }

    fn addr(&self) -> Option<Addr> {
        self.inner.addr()
    }

    fn install_route(&mut self, dst: Addr, port: PortNo) {
        self.inner.install_route(dst, port);
    }
}

/// Wraps `node` for the ledger.
pub fn timed<N: Node + 'static>(node: N, layer: Layer, ledger: &Ledger) -> Box<dyn AnyNode> {
    Box::new(Timed {
        inner: node,
        layer,
        ledger: ledger.clone(),
    })
}

/// A `RequestSource` wrapper timing every call.
#[derive(Debug)]
pub struct TimedSource {
    inner: Box<dyn RequestSource>,
    ledger: Ledger,
}

impl TimedSource {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn RequestSource>, ledger: &Ledger) -> TimedSource {
        TimedSource {
            inner,
            ledger: ledger.clone(),
        }
    }
}

impl RequestSource for TimedSource {
    fn next_request(&mut self, rng: &mut SimRng) -> Option<AppRequest> {
        let t = Instant::now();
        let r = self.inner.next_request(rng);
        self.ledger.record(Layer::Gen, 3, t);
        r
    }

    fn on_complete(&mut self, req: &AppRequest, reply: Option<&Bytes>) {
        let t = Instant::now();
        self.inner.on_complete(req, reply);
        self.ledger.record(Layer::Gen, 3, t);
    }

    fn on_outcome(&mut self, req: &AppRequest, outcome: UpdateOutcome) {
        let t = Instant::now();
        self.inner.on_outcome(req, outcome);
        self.ledger.record(Layer::Gen, 3, t);
    }
}

/// A `RequestHandler` wrapper timing every call.
#[derive(Debug)]
pub struct TimedHandler {
    inner: Box<dyn RequestHandler>,
    ledger: Ledger,
}

impl TimedHandler {
    /// Wraps `inner`.
    pub fn new(inner: Box<dyn RequestHandler>, ledger: &Ledger) -> TimedHandler {
        TimedHandler {
            inner,
            ledger: ledger.clone(),
        }
    }

    fn timed<R>(&mut self, f: impl FnOnce(&mut dyn RequestHandler) -> R) -> R {
        let t = Instant::now();
        let r = f(self.inner.as_mut());
        self.ledger.record(Layer::Kv, 3, t);
        r
    }
}

impl RequestHandler for TimedHandler {
    fn handle_update(
        &mut self,
        client: Addr,
        session: u16,
        seq: u32,
        payload: &Bytes,
        rng: &mut SimRng,
    ) -> Dur {
        self.timed(|h| h.handle_update(client, session, seq, payload, rng))
    }

    fn handle_bypass(&mut self, payload: &Bytes, rng: &mut SimRng) -> (Dur, Option<Bytes>) {
        self.timed(|h| h.handle_bypass(payload, rng))
    }

    fn applied_seq(&mut self, client: Addr, session: u16) -> Option<u32> {
        self.timed(|h| h.applied_seq(client, session))
    }

    fn on_crash(&mut self, rng: &mut SimRng) {
        self.timed(|h| h.on_crash(rng));
    }

    fn on_recover(&mut self) -> Dur {
        self.timed(|h| h.on_recover())
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self.inner.as_any()
    }

    fn as_any_mut(&mut self) -> &mut dyn std::any::Any {
        self.inner.as_any_mut()
    }
}

/// The reassembled PMNet-Switch topology with every node wrapped.
pub struct Rig {
    /// The simulated world.
    pub world: World,
    /// Endpoint nodes (`Timed<ClientLib>` or `Timed<OpenLoopClient>`).
    pub endpoints: Vec<NodeId>,
    /// The server (`Timed<ServerLib>`).
    pub server: NodeId,
    /// The PMNet device (`Timed<PmnetDevice>`).
    pub device: NodeId,
    /// Host time per layer.
    pub ledger: Ledger,
    /// Simulated-clock phase attribution.
    pub telemetry: Telemetry,
}

impl Rig {
    /// Assembles the topology `SystemBuilder` (design `PmnetSwitch`) and
    /// `TrafficSystem` build, from already wrapped `endpoints` and an
    /// unwrapped `handler`, and attaches full telemetry through
    /// `attach(world, endpoint, telemetry)` for each endpoint.
    pub fn assemble(
        seed: u64,
        cfg: &SystemConfig,
        endpoints: Vec<Box<dyn AnyNode>>,
        handler: Box<dyn RequestHandler>,
        ledger: Ledger,
        attach: impl Fn(&mut World, NodeId, &Telemetry),
    ) -> Rig {
        let mut world = World::new(seed);
        let endpoints: Vec<NodeId> = endpoints.into_iter().map(|n| world.add_node(n)).collect();
        let server = ServerLib::new(
            addrs::SERVER,
            cfg.server,
            cfg.server_workers,
            cfg.gap_timeout,
            Box::new(TimedHandler::new(handler, &ledger)),
        )
        .with_devices(vec![Addr(addrs::DEVICE_BASE)])
        .with_recovery_poll_timeout(cfg.recovery_poll_timeout)
        .with_gap_skip_rounds(cfg.gap_skip_rounds)
        .with_batch(cfg.batch)
        .with_apply(cfg.apply);
        let server = world.add_node(timed(server, Layer::Server, &ledger));
        let merge = world.add_node(timed(Switch::new("merge"), Layer::Switch, &ledger));
        for &e in &endpoints {
            world.connect(e, merge, cfg.link);
        }
        let device = PmnetDevice::new("pmnet0", 1, Addr(addrs::DEVICE_BASE), cfg.device)
            .with_batch(cfg.batch);
        let device = world.add_node(timed(device, Layer::Device, &ledger));
        world.connect(merge, device, cfg.link);
        world.connect(device, server, cfg.link);
        world.populate_switch_routes();

        let telemetry = Telemetry::full();
        for &e in &endpoints {
            attach(&mut world, e, &telemetry);
        }
        world
            .node_mut::<Timed<PmnetDevice>>(device)
            .inner
            .set_telemetry(telemetry.clone());
        world
            .node_mut::<Timed<ServerLib>>(server)
            .inner
            .set_telemetry(telemetry.clone());
        Rig {
            world,
            endpoints,
            server,
            device,
            ledger,
            telemetry,
        }
    }

    /// The wrapped device.
    pub fn device(&self) -> &PmnetDevice {
        &self.world.node::<Timed<PmnetDevice>>(self.device).inner
    }

    /// The wrapped server.
    pub fn server(&self) -> &ServerLib {
        &self.world.node::<Timed<ServerLib>>(self.server).inner
    }
}

/// Every egress port's counters, sorted by node and port.
pub fn port_counters(world: &World) -> Vec<(NodeId, PortNo, PortCounters)> {
    let mut ports: Vec<(NodeId, PortNo)> = world.ports().edges().map(|(n, p, _)| (n, p)).collect();
    ports.sort_by_key(|&(n, p)| (n.index(), p.0));
    ports
        .into_iter()
        .map(|(n, p)| (n, p, world.ports().counters(n, p)))
        .collect()
}

/// Network totals over every port of `world`: packets sent, overflow
/// drops, and the busiest link's utilisation over `sim_secs` simulated
/// seconds.
pub fn net_totals(world: &World, sim_secs: f64) -> (u64, u64, f64) {
    let mut packets = 0;
    let mut overflow = 0;
    let mut max_util = 0.0f64;
    for (n, p, c) in port_counters(world) {
        packets += c.tx_packets;
        overflow += c.dropped_overflow;
        let peer = world.ports().peer_of(n, p).0;
        let bps = world.ports().link_spec(n, peer).bandwidth_bps as f64;
        if sim_secs > 0.0 {
            max_util = max_util.max(c.tx_bytes as f64 * 8.0 / (bps * sim_secs));
        }
    }
    (packets, overflow, max_util)
}

/// Device, log and server counters as one named set (the groups and
/// prefixes `BuiltSystem::record_counters` uses for these components).
pub fn component_counters(device: &PmnetDevice, server: &ServerLib) -> CounterSet {
    let mut reg = Registry::new();
    reg.record_group("device", &device.counters());
    reg.record_group("log", &device.log_counters());
    reg.add("log.stranded", device.log_len() as u64);
    reg.record_group("server", &server.counters());
    if let Some(rec) = server.recovery() {
        reg.record_group("recovery", &rec);
    }
    reg.into_counter_set()
}

/// Per-phase `(total simulated ns, samples)` from the attached telemetry.
pub fn phase_totals(telemetry: &Telemetry) -> Vec<(&'static str, u128, usize)> {
    let reg = telemetry.registry();
    Phase::ALL
        .iter()
        .map(|p| match reg.histogram(p.metric_name()) {
            Some(h) if !h.is_empty() => (
                p.name(),
                u128::from(h.mean().as_nanos()) * h.len() as u128,
                h.len(),
            ),
            _ => (p.name(), 0, 0),
        })
        .collect()
}
