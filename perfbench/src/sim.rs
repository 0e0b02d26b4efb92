//! The simulated workloads: a paper-scale DualPeer overlay of
//! `NodeEngine`s on `geogrid_simnet::Simulation`, with every sent
//! message passed through the wire codec.
//!
//! The benchmark's own process type wraps each engine. Every `Effect::Send`
//! is wrapped in an `Envelope` exactly as the live runtime's `transmit`
//! does (sender, sender address, address-book entries for every node the
//! message references, here synthesized loopback addresses), encoded, and
//! decoded again on delivery; a round trip that does not reproduce the
//! message aborts the run. Each message carries the operation whose
//! causal chain it belongs to, so messages and bytes are charged to the
//! query, publish or tick that caused them.

use std::cell::RefCell;
use std::collections::HashMap;
use std::net::SocketAddr;
use std::rc::Rc;
use std::time::Instant;

use bytes::Bytes;
use geogrid_core::engine::{
    ClientEvent, Effect, EngineConfig, EngineMode, Input, Message, NodeEngine,
};
use geogrid_core::service::{LocationQuery, LocationRecord, Subscription};
use geogrid_core::topology::Role;
use geogrid_core::{NodeId, NodeInfo};
use geogrid_geometry::{Point, Region, Space};
use geogrid_simnet::{Addr, Context, Process, SimConfig, SimTime, Simulation};
use geogrid_transport::wire::{referenced_nodes, Envelope};
use geogrid_workload::{HotSpotField, QueryGenerator};
use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};

use crate::report::Report;
use crate::stats::{
    host_probe_s, mean, median, process_cpu_s, quantile, quantile_stepped, PROBE_REF_S,
};
use crate::trace::Tracer;

/// Overlay size (the paper's evaluation scale).
pub const NODES: usize = 1000;
/// Join spacing of the `simulate` binary (simulated ms between joins).
pub const JOIN_SPACING_MS: u64 = 250;
/// Seed of the overlay (coordinates, capacities, simulator). Fixed so the
/// overlay, and with it the DualPeer join defect, is the same on every run;
/// `--seed` drives the operation stream.
pub const OVERLAY_SEED: u64 = 1;
/// simnet's default one-way delay, which the benchmark keeps.
pub const HOP_DELAY_MS: u64 = 5;
/// Objects preloaded before measurement.
pub const OBJECTS: usize = 5_000;
/// Standing subscriptions of `publish-moving`.
pub const SUBSCRIPTIONS: usize = 200;
/// Open-loop query rate of `query-hotspot`, per simulated second.
pub const QUERY_RATE: f64 = 1000.0;
/// Open-loop publish rate of `publish-moving`, per simulated second.
pub const PUBLISH_RATE: f64 = 500.0;
/// Simulated seconds measured per requested wall second (calibrated on a
/// 2-core host).
const QUERY_SIM_PER_WALL: f64 = 7.0;
const PUBLISH_SIM_PER_WALL: f64 = 2.0;
/// Measurement window (simulated ms); throughput is a median over windows.
const WINDOW_MS: u64 = 1000;
/// Replies later than this after a query's due time do not count.
const DEADLINE_MS: u64 = 2000;
/// The final sweep tiles the space into SWEEP_TILES² queries.
const SWEEP_TILES: usize = 7;
/// Hot spots of the query field, and migration epochs per window.
const HOT_SPOTS: usize = 16;
const MIGRATION_EPOCHS: usize = 4;

/// Cause tags carried by every packet: setup, periodic tick, sweep, or
/// `OP_BASE + index` into the operation table.
const CAUSE_SETUP: u32 = 0;
const CAUSE_TICK: u32 = 1;
const OP_BASE: u32 = 8;

/// Which simulated workload to run.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum SimWorkload {
    /// Hot-spot range queries, no publishes.
    QueryHotspot,
    /// Moving-object re-publishes with standing subscriptions.
    PublishMoving,
}

/// Message kinds the wire counters distinguish.
const KINDS: [&str; 8] = [
    "query",
    "query_reply",
    "publish",
    "notify",
    "heartbeat",
    "sync_state",
    "join",
    "other",
];

fn kind_index(kind: &str) -> usize {
    match kind {
        "query" => 0,
        "query_reply" => 1,
        "publish" => 2,
        "notify" => 3,
        "heartbeat" => 4,
        "sync_state" => 5,
        "join_request" | "join_directed" | "join_split" | "join_as_secondary"
        | "split_takeover" => 6,
        _ => 7,
    }
}

/// Span name of an engine call for a message kind that has no outcome
/// split.
fn engine_span_name(kind: &str) -> &'static str {
    match kind {
        "heartbeat" => "engine.heartbeat",
        "sync_state" => "engine.sync_state",
        "query_reply" => "engine.query_reply",
        "notify" => "engine.notify",
        "subscribe" => "engine.subscribe",
        "join_request" | "join_directed" | "join_split" | "join_as_secondary"
        | "split_takeover" => "engine.join",
        "neighbor_update" | "who_owns" | "owner_is" => "engine.neighbor",
        "steal_secondary_request"
        | "steal_secondary_grant"
        | "steal_secondary_deny"
        | "take_over_region"
        | "detached" => "engine.adapt",
        _ => "engine.other",
    }
}

fn loopback(id: NodeId) -> SocketAddr {
    SocketAddr::from(([127, 0, 0, 1], 10_000 + id.as_u64() as u16))
}

/// What an operation is.
#[derive(Debug, Clone, Copy)]
enum OpKind {
    Query { issuer: u64, area: Region },
    Publish { object: u32, pos: Point },
    Subscribe,
    Sweep { area: Region },
    Probe { area: Region },
}

/// One user operation and what the benchmark observed of it.
#[derive(Debug)]
struct Op {
    kind: OpKind,
    due_us: u64,
    measured: bool,
    /// Query id the issuing engine assigned.
    qid: u64,
    /// Time of the last reply within the deadline.
    last_reply_us: u64,
    /// (responder, record id, publish op of that version, position).
    replies: Vec<(u64, u64, u32, Point)>,
    /// Publish: executions at a covering primary, and elsewhere.
    exec_us: u64,
    exec_ok: u32,
    exec_bad: u32,
    msgs: u32,
    bytes: u64,
    /// Greedy forwarding hops (non-fan-out query or publish messages).
    hops: u32,
    /// Answering regions (one `QueryResults` event each).
    answers: u32,
}

impl Op {
    fn new(kind: OpKind, due_us: u64, measured: bool) -> Self {
        Self {
            kind,
            due_us,
            measured,
            qid: 0,
            last_reply_us: 0,
            replies: Vec::new(),
            exec_us: 0,
            exec_ok: 0,
            exec_bad: 0,
            msgs: 0,
            bytes: 0,
            hops: 0,
            answers: 0,
        }
    }
}

/// Phases the wire counters are kept for.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum Phase {
    Setup,
    Measure,
    Other,
}

/// State shared by every simulated node: counters, the tracer, and the
/// oracle's observations.
#[derive(Debug)]
struct Shared {
    space: Space,
    tracer: Tracer,
    phase: Phase,
    /// [phase][kind] messages and bytes.
    msgs: [[u64; 8]; 3],
    bytes: [[u64; 8]; 3],
    /// Tick-caused bytes during measurement.
    bg_bytes: u64,
    joined: Vec<bool>,
    adaptations: u64,
    steal_denied: u64,
    ops: Vec<Op>,
    qids: HashMap<(u64, u64), u32>,
    /// (subscriber, publish op) → notifications received.
    notified: HashMap<(u64, u32), u32>,
    /// Client events that matched no operation.
    strays: u64,
}

impl Shared {
    fn phase_index(&self) -> usize {
        match self.phase {
            Phase::Setup => 0,
            Phase::Measure => 1,
            Phase::Other => 2,
        }
    }

    fn op_label(&self, op: u64) -> String {
        let cause = (op >> 32) as u32;
        let root = op as u32;
        match cause {
            CAUSE_SETUP => "setup".into(),
            CAUSE_TICK => format!("tick:{root}"),
            c if c >= OP_BASE => match self.ops.get((c - OP_BASE) as usize) {
                Some(Op {
                    kind: OpKind::Query { issuer, .. },
                    qid,
                    ..
                }) => format!("query:{issuer}:{qid}"),
                Some(Op {
                    kind: OpKind::Publish { object, .. },
                    ..
                }) => format!("publish:{object}"),
                Some(Op {
                    kind: OpKind::Sweep { .. },
                    qid,
                    ..
                }) => format!("sweep:{qid}"),
                _ => format!("op:{}", c - OP_BASE),
            },
            _ => "bench".into(),
        }
    }

    /// Wraps `message` in an envelope as the live runtime does, encodes
    /// it, and counts it against its cause.
    fn encode(
        &mut self,
        sender: NodeInfo,
        message: Message,
        cause: u32,
        parent: u32,
        root: u32,
    ) -> Packet {
        let span = self.tracer.reserve();
        let t0 = self.tracer.now();
        let addrs = referenced_nodes(&message)
            .into_iter()
            .filter(|id| *id != sender.id())
            .map(|id| (id, loopback(id)))
            .collect();
        let env = Envelope {
            sender,
            sender_addr: loopback(sender.id()),
            addrs,
            message,
        };
        let bytes = env.encode();
        self.tracer
            .record(span, parent, op_id(cause, root), "wire.encode", t0);
        // The live path frames each envelope with a 4-byte length prefix.
        let n = bytes.len() as u64 + 4;
        let k = kind_index(env.message.kind());
        let p = self.phase_index();

        self.msgs[p][k] += 1;
        self.bytes[p][k] += n;
        if cause == CAUSE_TICK && self.phase == Phase::Measure {
            self.bg_bytes += n;
        }
        if cause >= OP_BASE {
            if let Some(op) = self.ops.get_mut((cause - OP_BASE) as usize) {
                op.msgs += 1;
                op.bytes += n;
                if matches!(
                    env.message,
                    Message::Query { fanout: false, .. } | Message::Publish { .. }
                ) {
                    op.hops += 1;
                }
            }
        }
        Packet {
            bytes,
            orig: env.message,
            cause,
            parent: span,
            root,
        }
    }

    /// Decodes a delivered packet; a round trip that does not reproduce
    /// the sent message ends the process with exit code 3.
    fn decode(&mut self, pkt: &Packet) -> (Envelope, u32) {
        let span = self.tracer.reserve();
        let t0 = self.tracer.now();
        let env = Envelope::decode(&pkt.bytes);
        self.tracer.record(
            span,
            pkt.parent,
            op_id(pkt.cause, pkt.root),
            "wire.decode",
            t0,
        );
        match env {
            Ok(env) if env.message == pkt.orig => (env, span),
            Ok(env) => codec_abort(&format!(
                "decoded {} differs from the sent {}",
                env.message.kind(),
                pkt.orig.kind()
            )),
            Err(e) => codec_abort(&format!("{} failed to decode: {e}", pkt.orig.kind())),
        }
    }

    fn client_event(&mut self, me: u64, responder: u64, ev: ClientEvent, now_us: u64) {
        match ev {
            ClientEvent::Joined { .. } => {
                if let Some(j) = self.joined.get_mut(me as usize) {
                    *j = true;
                }
            }
            ClientEvent::AdaptationExecuted { .. } => self.adaptations += 1,
            ClientEvent::QueryResults { query_id, records } => {
                let Some(&op) = self.qids.get(&(me, query_id)) else {
                    self.strays += 1;
                    return;
                };
                let op = &mut self.ops[op as usize];
                if now_us > op.due_us + DEADLINE_MS * 1000 {
                    return;
                }
                op.last_reply_us = op.last_reply_us.max(now_us);
                op.answers += 1;
                for r in records {
                    op.replies
                        .push((responder, r.id(), payload_op(r.payload()), r.position()));
                }
            }
            ClientEvent::Notified { record } => {
                *self
                    .notified
                    .entry((me, payload_op(record.payload())))
                    .or_default() += 1;
            }
            _ => {}
        }
    }
}

fn codec_abort(what: &str) -> ! {
    eprintln!("codec round-trip mismatch: {what}");
    std::process::exit(3)
}

fn op_id(cause: u32, root: u32) -> u64 {
    (u64::from(cause) << 32) | u64::from(root)
}

fn payload_op(payload: &[u8]) -> u32 {
    payload
        .get(..4)
        .and_then(|b| b.try_into().ok())
        .map(u32::from_le_bytes)
        .unwrap_or(u32::MAX)
}

/// A message in flight: the encoded envelope plus the original message
/// (for the round-trip check) and its causal tags.
#[derive(Debug)]
pub struct Packet {
    bytes: Bytes,
    orig: Message,
    cause: u32,
    parent: u32,
    root: u32,
}

/// What kind of input an engine call handles, read before the call.
enum Pre {
    Tick,
    Join,
    Query { fanout: bool },
    Publish(Point),
    Subscribe,
    Other(&'static str),
}

impl Pre {
    fn of(input: &Input) -> Pre {
        match input {
            Input::Tick => Pre::Tick,
            Input::BootstrapAsFirst | Input::Join { .. } => Pre::Join,
            Input::UserQuery { .. } => Pre::Query { fanout: false },
            Input::UserPublish { record } => Pre::Publish(record.position()),
            Input::UserSubscribe { .. } => Pre::Subscribe,
            Input::Leave => Pre::Other("engine.other"),
            Input::Message { message, .. } => match message {
                Message::Query { fanout, .. } => Pre::Query { fanout: *fanout },
                Message::Publish { record, .. } => Pre::Publish(record.position()),
                m => Pre::Other(engine_span_name(m.kind())),
            },
        }
    }

    /// Span name; forwarding calls are named by outcome.
    fn name(&self, effects: &[Effect]) -> &'static str {
        let forwards = |pred: fn(&Message) -> bool| {
            effects
                .iter()
                .any(|e| matches!(e, Effect::Send { message, .. } if pred(message)))
        };
        match self {
            Pre::Tick => "engine.tick",
            Pre::Join => "engine.join",
            Pre::Subscribe => "engine.subscribe",
            Pre::Query { fanout: true } => "engine.query.fanout",
            Pre::Query { fanout: false } => {
                if forwards(|m| matches!(m, Message::Query { fanout: false, .. })) {
                    "engine.query.forward"
                } else {
                    "engine.query.execute"
                }
            }
            Pre::Publish(_) => {
                if forwards(|m| matches!(m, Message::Publish { .. })) {
                    "engine.publish.forward"
                } else {
                    "engine.publish.execute"
                }
            }
            Pre::Other(name) => name,
        }
    }
}

/// One simulated node: an engine plus a handle on the shared recorder.
#[derive(Debug)]
pub struct BenchNode {
    engine: NodeEngine,
    shared: Rc<RefCell<Shared>>,
    startup: Option<Input>,
}

impl BenchNode {
    /// Runs one engine call and turns its effects into packets.
    fn step(
        &mut self,
        now_us: u64,
        input: Input,
        cause: u32,
        parent: u32,
        root: u32,
        from: Option<NodeId>,
    ) -> Vec<(u64, Packet)> {
        let info = self.engine.info();
        let me = info.id().as_u64();
        let pre = Pre::of(&input);
        let is_reply = matches!(
            &input,
            Input::Message {
                message: Message::QueryReply { .. },
                ..
            }
        );
        let steal_deny = matches!(
            &input,
            Input::Message {
                message: Message::StealSecondaryDeny,
                ..
            }
        );
        let user_query = matches!(input, Input::UserQuery { .. });
        let mut sh = self.shared.borrow_mut();
        let span = sh.tracer.reserve();
        let root = if matches!(pre, Pre::Tick) { span } else { root };
        let t0 = sh.tracer.now();
        let effects = self.engine.handle(now_us / 1000, input);
        let name = pre.name(&effects);
        sh.tracer.record(span, parent, op_id(cause, root), name, t0);
        if steal_deny {
            sh.steal_denied += 1;
        }
        if let Pre::Publish(pos) = pre {
            if name == "engine.publish.execute" && cause >= OP_BASE {
                let space = sh.space;
                let ok = self.engine.owner_view().is_some_and(|v| {
                    v.role == Role::Primary && space.region_covers(&v.region, pos)
                });
                if let Some(op) = sh.ops.get_mut((cause - OP_BASE) as usize) {
                    if ok {
                        op.exec_ok += 1;
                        op.exec_us = now_us;
                    } else {
                        op.exec_bad += 1;
                    }
                }
            }
        }
        if user_query && cause >= OP_BASE {
            // The issuing call reveals the query id the engine assigned,
            // in its forwarded message or in a local answer.
            let qid = effects.iter().find_map(|e| match e {
                Effect::Send {
                    message: Message::Query { query_id, .. },
                    ..
                }
                | Effect::Client(ClientEvent::QueryResults { query_id, .. }) => Some(*query_id),
                _ => None,
            });
            if let Some(qid) = qid {
                sh.ops[(cause - OP_BASE) as usize].qid = qid;
                sh.qids.insert((me, qid), cause - OP_BASE);
            }
        }
        let responder = match (is_reply, from) {
            (true, Some(f)) => f.as_u64(),
            _ => me,
        };
        let mut out = Vec::new();
        for effect in effects {
            match effect {
                Effect::Send { to, message } => {
                    let pkt = sh.encode(info, message, cause, span, root);
                    out.push((to.as_u64(), pkt));
                }
                Effect::Client(ev) => sh.client_event(me, responder, ev, now_us),
            }
        }
        out
    }
}

impl Process for BenchNode {
    type Msg = Packet;

    fn on_start(&mut self, ctx: &mut Context<'_, Packet>) {
        if let Some(input) = self.startup.take() {
            let out = self.step(ctx.now().as_micros(), input, CAUSE_SETUP, 0, 0, None);
            for (to, pkt) in out {
                ctx.send(Addr::from_raw(to), pkt);
            }
        }
        ctx.set_timer(
            SimTime::from_millis(self.engine.config().heartbeat_interval),
            1,
        );
    }

    fn on_message(&mut self, ctx: &mut Context<'_, Packet>, _from: Addr, pkt: Packet) {
        let (env, span) = self.shared.borrow_mut().decode(&pkt);
        let from = env.sender.id();
        let input = Input::Message {
            from,
            message: env.message,
        };
        let out = self.step(
            ctx.now().as_micros(),
            input,
            pkt.cause,
            span,
            pkt.root,
            Some(from),
        );
        for (to, p) in out {
            ctx.send(Addr::from_raw(to), p);
        }
    }

    fn on_timer(&mut self, ctx: &mut Context<'_, Packet>, _timer: u64) {
        let out = self.step(ctx.now().as_micros(), Input::Tick, CAUSE_TICK, 0, 0, None);
        for (to, pkt) in out {
            ctx.send(Addr::from_raw(to), pkt);
        }
        ctx.set_timer(
            SimTime::from_millis(self.engine.config().heartbeat_interval),
            1,
        );
    }
}

/// A moving object: latest position, the node it publishes through, and
/// the operation that published its latest version.
#[derive(Debug, Clone, Copy)]
struct Object {
    pos: Point,
    home: u64,
    latest: u32,
}

/// A formed overlay with its preloaded objects.
struct World {
    sim: Simulation<BenchNode>,
    shared: Rc<RefCell<Shared>>,
    owners: Vec<u64>,
    objects: Vec<Object>,
    subs: Vec<Subscription>,
}

impl World {
    fn space(&self) -> Space {
        self.shared.borrow().space
    }

    /// Advances simulated time to `deadline`, timing the event loop.
    fn run_until_us(&mut self, deadline_us: u64) {
        let (span, t0) = {
            let mut sh = self.shared.borrow_mut();
            (sh.tracer.reserve(), sh.tracer.now())
        };
        self.sim
            .run_until(SimTime::from_micros(deadline_us), u64::MAX);
        self.shared
            .borrow_mut()
            .tracer
            .record(span, 0, op_id(u32::MAX, 0), "simnet.run_until", t0);
    }

    fn run_for_ms(&mut self, ms: u64) {
        let deadline = self.sim.now().as_micros() + ms * 1000;
        self.run_until_us(deadline);
    }

    /// Hands a user input to node `node` at the current time.
    fn inject(&mut self, node: u64, input: Input, cause: u32) {
        let addr = Addr::from_raw(node);
        let now = self.sim.now().as_micros();
        let Some(n) = self.sim.process_mut(addr) else {
            return;
        };
        let out = n.step(now, input, cause, 0, 0, None);
        for (to, pkt) in out {
            self.sim.post(addr, Addr::from_raw(to), pkt);
        }
    }

    fn push_op(&mut self, op: Op) -> u32 {
        let mut sh = self.shared.borrow_mut();
        sh.ops.push(op);
        OP_BASE + (sh.ops.len() - 1) as u32
    }

    fn publish(&mut self, object: u32, measured: bool) {
        let due = self.sim.now().as_micros();
        let o = self.objects[object as usize];
        let cause = self.push_op(Op::new(
            OpKind::Publish { object, pos: o.pos },
            due,
            measured,
        ));
        self.objects[object as usize].latest = cause - OP_BASE;
        let record = LocationRecord::new(
            u64::from(object),
            "gps",
            o.pos,
            (cause - OP_BASE).to_le_bytes().to_vec(),
        );
        self.inject(o.home, Input::UserPublish { record }, cause);
    }

    fn query(&mut self, issuer: u64, kind: OpKind, measured: bool) {
        let area = match kind {
            OpKind::Query { area, .. } | OpKind::Sweep { area } | OpKind::Probe { area } => area,
            _ => return,
        };
        let due = self.sim.now().as_micros();
        let cause = self.push_op(Op::new(kind, due, measured));
        let query = LocationQuery::new(area, NodeId::new(issuer));
        self.inject(issuer, Input::UserQuery { query }, cause);
    }
}

fn new_shared(space: Space) -> Rc<RefCell<Shared>> {
    Rc::new(RefCell::new(Shared {
        space,
        tracer: Tracer::new(),
        phase: Phase::Setup,
        msgs: [[0; 8]; 3],
        bytes: [[0; 8]; 3],
        bg_bytes: 0,
        joined: vec![false; NODES],
        adaptations: 0,
        steal_denied: 0,
        ops: Vec::new(),
        qids: HashMap::new(),
        notified: HashMap::new(),
        strays: 0,
    }))
}

/// Forms the overlay exactly as `simulate` does (uniform coordinates,
/// the same capacity cycle, 250 ms join spacing), preloads the objects
/// and, for `publish-moving`, registers the standing subscriptions.
fn setup(workload: SimWorkload, seed: u64, summing: bool, probes: &mut Vec<f64>) -> World {
    let space = Space::paper_evaluation();
    let shared = new_shared(space);
    shared.borrow_mut().tracer.set_summing(summing);
    let config = EngineConfig {
        mode: EngineMode::DualPeer,
        ..EngineConfig::default()
    };
    let mut rng = SmallRng::seed_from_u64(OVERLAY_SEED);
    let coord =
        |rng: &mut SmallRng| Point::new(rng.random_range(0.2..63.8), rng.random_range(0.2..63.8));
    let caps = [1.0, 10.0, 10.0, 100.0, 10.0, 1.0, 10.0, 100.0, 1000.0, 10.0];
    let mut world = World {
        sim: Simulation::new(SimConfig::default(), OVERLAY_SEED),
        shared: Rc::clone(&shared),
        owners: Vec::new(),
        objects: Vec::new(),
        subs: Vec::new(),
    };
    for i in 0..NODES {
        let (cap, startup) = if i == 0 {
            (10.0, Input::BootstrapAsFirst)
        } else {
            let entry = NodeId::new(0);
            (caps[i % caps.len()], Input::Join { entry })
        };
        let info = NodeInfo::new(NodeId::new(i as u64), coord(&mut rng), cap);
        world.sim.add_process(BenchNode {
            engine: NodeEngine::new(info, space, config),
            shared: Rc::clone(&shared),
            startup: Some(startup),
        });
        if i > 0 {
            world.run_for_ms(JOIN_SPACING_MS);
        }
        if i % 100 == 0 {
            probes.push(host_probe_s());
        }
    }
    world.run_for_ms(1000);
    world.owners = (0..NODES as u64)
        .filter(|&i| {
            world
                .sim
                .process(Addr::from_raw(i))
                .is_some_and(|n| n.engine.is_owner())
        })
        .collect();

    // Preload: uniform positions, published through random owners at
    // 10 publishes per simulated ms.
    let mut orng = SmallRng::seed_from_u64(OVERLAY_SEED ^ 0x5eed_0b1e);
    for j in 0..OBJECTS {
        let home = world.owners[orng.random_range(0..world.owners.len())];
        world.objects.push(Object {
            pos: Point::new(orng.random_range(0.0..64.0), orng.random_range(0.0..64.0)),
            home,
            latest: u32::MAX,
        });
        world.publish(j as u32, false);
        if j % 10 == 9 {
            world.run_for_ms(1);
        }
    }
    world.run_for_ms(1000);

    if workload == SimWorkload::PublishMoving {
        // Standing subscriptions around the hot places, one per
        // subscriber node.
        let mut srng = SmallRng::seed_from_u64(seed ^ 0x50b5);
        let field = HotSpotField::random(&mut srng, space, HOT_SPOTS);
        for s in 0..SUBSCRIPTIONS.min(world.owners.len()) {
            let spot = field.spots()[s % field.len()];
            let c = spot.center();
            let r = spot.radius();
            let center = space.clamp(Point::new(
                c.x + srng.random_range(-r..r),
                c.y + srng.random_range(-r..r),
            ));
            let side = srng.random_range(1.0..3.0);
            let subscriber = world.owners[(s * 7919) % world.owners.len()];
            let sub = Subscription::new(
                s as u64,
                Region::new(center.x - side / 2.0, center.y - side / 2.0, side, side),
                NodeId::new(subscriber),
                u64::MAX,
            );
            world.subs.push(sub.clone());
            let cause = world.push_op(Op::new(OpKind::Subscribe, 0, false));
            world.inject(subscriber, Input::UserSubscribe { sub }, cause);
            world.run_for_ms(1);
        }
        world.run_for_ms(1000);
    }
    probes.push(host_probe_s());
    world.shared.borrow_mut().tracer.set_summing(false);
    world
}

/// Exponential inter-arrival gap in µs for an open-loop `rate` per second.
fn gap_us(rng: &mut SmallRng, rate: f64) -> u64 {
    let u: f64 = rng.random_range(f64::MIN_POSITIVE..1.0);
    ((-u.ln() / rate) * 1e6).max(1.0) as u64
}

/// Number of traced windows in a traced run (interleaved with as many
/// untraced ones, which give the overhead baseline).
const TRACED_WINDOWS: usize = 3;

/// Per-window throughput record.
struct Window {
    ops: u64,
    wall_s: f64,
    traced: bool,
    probe: f64,
}

/// Moving-object generator with `store_bench`'s skew: 80% of re-publishes
/// move one of a commuter set (1/16 of the objects), 20% any object; each
/// step moves the object by up to ±0.125 miles per axis.
struct Mover {
    hot: usize,
}

impl Mover {
    fn next(&self, rng: &mut SmallRng, objects: &mut [Object], space: Space) -> u32 {
        let id = if rng.random::<f64>() < 0.2 {
            rng.random_range(0..objects.len())
        } else {
            rng.random_range(0..self.hot)
        };
        let o = &mut objects[id];
        let step = Point::new(
            o.pos.x + rng.random_range(-0.125..0.125),
            o.pos.y + rng.random_range(-0.125..0.125),
        );
        o.pos = space.clamp(step);
        id as u32
    }
}

/// Record counts from every owner's view: (held by primaries, held by
/// secondaries, largest primary store).
fn census(world: &World) -> (u64, u64, u64) {
    let mut out = (0, 0, 0);
    for i in 0..NODES as u64 {
        let Some(v) = world
            .sim
            .process(Addr::from_raw(i))
            .and_then(|n| n.engine.owner_view())
        else {
            continue;
        };
        let r = v.records as u64;
        if v.role == Role::Primary {
            out.0 += r;
            out.2 = out.2.max(r);
        } else {
            out.1 += r;
        }
    }
    out
}

/// What the oracle concluded.
#[derive(Debug, Default)]
struct Eval {
    attempted: u64,
    failed: u64,
    correct: bool,
    latencies_ms: Vec<f64>,
    msgs_per_op: f64,
    bytes_per_op: f64,
    hops_mean: f64,
    hops_p99: f64,
    regions_mean: f64,
    matches_mean: f64,
    objects: u64,
    found_once: u64,
    missing: u64,
    duplicated: u64,
    misplaced: u64,
    stale: u64,
    preload_failed: u64,
}

/// Objects bucketed by 1-mile cell, for the expected answer of a range
/// query.
fn expected_ids(objects: &[Object], cells: &[Vec<u32>], area: Region) -> Vec<u64> {
    let c0 = area.x().floor().max(0.0) as usize;
    let r0 = area.y().floor().max(0.0) as usize;
    let c1 = (area.east().floor().max(0.0) as usize).min(63);
    let r1 = (area.north().floor().max(0.0) as usize).min(63);
    let mut out = Vec::new();
    for r in r0..=r1 {
        for c in c0..=c1 {
            for &id in &cells[r * 64 + c] {
                if area.contains_closed(objects[id as usize].pos) {
                    out.push(u64::from(id));
                }
            }
        }
    }
    out.sort_unstable();
    out
}

/// Checks every measured operation, the preload and the final sweep.
fn evaluate(world: &World, workload: SimWorkload, sweep: std::ops::Range<usize>) -> Eval {
    let sh = world.shared.borrow();
    let mut ev = Eval::default();
    let mut cells: Vec<Vec<u32>> = vec![Vec::new(); 64 * 64];
    for (id, o) in world.objects.iter().enumerate() {
        let c = (o.pos.x.floor().max(0.0) as usize).min(63);
        let r = (o.pos.y.floor().max(0.0) as usize).min(63);
        cells[r * 64 + c].push(id as u32);
    }
    let mut notified_per_op: HashMap<u32, u32> = HashMap::new();
    for (&(_, op), &n) in &sh.notified {
        *notified_per_op.entry(op).or_default() += n;
    }
    let (mut msgs, mut bytes, mut hops, mut answers, mut matches) =
        (0u64, 0u64, Vec::new(), 0u64, 0u64);
    let mut n_queries = 0u64;
    for (idx, op) in sh.ops.iter().enumerate() {
        let ok = match op.kind {
            OpKind::Query { area, .. } if op.measured => {
                let mut got: Vec<u64> = op.replies.iter().map(|r| r.1).collect();
                matches += got.len() as u64;
                got.sort_unstable();
                got.dedup();
                answers += u64::from(op.answers);
                n_queries += 1;
                let ok = op.answers > 0 && got == expected_ids(&world.objects, &cells, area);
                if ok {
                    ev.latencies_ms
                        .push((op.last_reply_us - op.due_us) as f64 / 1000.0);
                }
                ok
            }
            OpKind::Publish { pos, .. } => {
                let executed = op.exec_ok == 1 && op.exec_bad == 0;
                if !op.measured {
                    if !executed {
                        ev.preload_failed += 1;
                    }
                    continue;
                }
                let mut expected = 0u32;
                let mut each_once = true;
                for sub in &world.subs {
                    if sub.area().contains_closed(pos) {
                        expected += 1;
                        let key = (sub.subscriber().as_u64(), idx as u32);
                        each_once &= sh.notified.get(&key) == Some(&1);
                    }
                }
                let total = notified_per_op.get(&(idx as u32)).copied().unwrap_or(0);
                let ok = executed && each_once && total == expected;
                if ok {
                    ev.latencies_ms
                        .push((op.exec_us - op.due_us) as f64 / 1000.0);
                }
                ok
            }
            _ => continue,
        };
        if !op.measured {
            continue;
        }
        ev.attempted += 1;
        msgs += u64::from(op.msgs);
        bytes += op.bytes;
        hops.push(f64::from(op.hops));
        if !ok {
            ev.failed += 1;
        }
    }
    let n = ev.attempted.max(1) as f64;
    ev.msgs_per_op = msgs as f64 / n;
    ev.bytes_per_op = bytes as f64 / n;
    ev.hops_mean = mean(&hops);
    ev.hops_p99 = quantile(&hops, 0.99);
    ev.regions_mean = answers as f64 / n_queries.max(1) as f64;
    ev.matches_mean = matches as f64 / answers.max(1) as f64;

    // Sweep: each object's latest version exactly once, answered by a
    // primary covering its position. Older versions left behind at a
    // previous region are counted as stale copies.
    let space = sh.space;
    let mut seen = vec![0u32; world.objects.len()];
    let mut bogus = 0u64;
    for op in &sh.ops[sweep.clone()] {
        for &(responder, id, version, pos) in &op.replies {
            let Some(o) = world.objects.get(id as usize) else {
                bogus += 1;
                continue;
            };
            if version == o.latest && pos == o.pos {
                seen[id as usize] += 1;
                let covers = world
                    .sim
                    .process(Addr::from_raw(responder))
                    .and_then(|n| n.engine.owner_view())
                    .is_some_and(|v| {
                        v.role == Role::Primary && space.region_covers(&v.region, pos)
                    });
                if !covers {
                    ev.misplaced += 1;
                }
            } else if version < o.latest {
                ev.stale += 1;
            } else {
                bogus += 1;
            }
        }
    }
    ev.objects = world.objects.len() as u64;
    ev.found_once = seen.iter().filter(|&&c| c == 1).count() as u64;
    ev.missing = seen.iter().filter(|&&c| c == 0).count() as u64;
    ev.duplicated = seen.iter().filter(|&&c| c > 1).count() as u64;
    let stale_ok = workload == SimWorkload::PublishMoving || ev.stale == 0;
    ev.correct = ev.failed == 0
        && ev.preload_failed == 0
        && ev.missing == 0
        && ev.duplicated == 0
        && ev.misplaced == 0
        && bogus == 0
        && stale_ok
        && sh.strays == 0;
    ev
}

impl SimWorkload {
    /// The workload's name on the command line.
    pub fn name(self) -> &'static str {
        match self {
            SimWorkload::QueryHotspot => "query-hotspot",
            SimWorkload::PublishMoving => "publish-moving",
        }
    }
}

/// Runs one simulated workload and evaluates it.
pub fn run(workload: SimWorkload, seed: u64, seconds: f64, trace: bool) -> Report {
    // Setup time excludes the probes taken during it and is scaled to the
    // reference host speed they measured.
    let t_setup = Instant::now();
    let mut setup_probes = Vec::new();
    let mut world = setup(workload, seed, trace, &mut setup_probes);
    let setup_raw_s = t_setup.elapsed().as_secs_f64() - setup_probes.iter().sum::<f64>();
    let setup_s = setup_raw_s * PROBE_REF_S / mean(&setup_probes);
    let space = world.space();
    let live_nodes = world.sim.len() as f64;
    let (join_fail_ratio, setup_join_bytes, setup_join) = {
        let sh = world.shared.borrow();
        let joined = sh.joined.iter().skip(1).filter(|j| **j).count();
        (
            1.0 - joined as f64 / (NODES - 1) as f64,
            sh.bytes[0][6],
            sh.tracer
                .sums()
                .get("engine.join")
                .copied()
                .unwrap_or_default(),
        )
    };

    // Measured phase: open-loop operations on the simulated clock, in
    // windows of WINDOW_MS. An untraced run measures a fixed simulated
    // span, `seconds` times the workload's calibration (about `seconds`
    // of wall time on a 2-core host), so every run of a seed does the same
    // work; a traced run alternates untraced and traced windows until
    // TRACED_WINDOWS were traced.
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut field = HotSpotField::random(&mut rng, space, HOT_SPOTS);
    let mut gen = QueryGenerator::new(space).hotspot_bias(0.8);
    let mover = Mover {
        hot: (world.objects.len() / 16).max(1),
    };
    let (rate, sim_per_wall) = match workload {
        SimWorkload::QueryHotspot => (QUERY_RATE, QUERY_SIM_PER_WALL),
        SimWorkload::PublishMoving => (PUBLISH_RATE, PUBLISH_SIM_PER_WALL),
    };
    let windows_wanted = ((seconds * sim_per_wall * 1000.0) / WINDOW_MS as f64)
        .round()
        .max(1.0) as usize;
    world.shared.borrow_mut().phase = Phase::Measure;
    let sim0_us = world.sim.now().as_micros();
    let mut next_due = sim0_us + gap_us(&mut rng, rate);
    let mut windows: Vec<Window> = Vec::new();
    let mut traced_events = 0u64;
    let cpu0 = process_cpu_s();
    let t0 = Instant::now();
    for w in 0.. {
        let traced = trace && w % 2 == 1;
        world.shared.borrow_mut().tracer.set_enabled(traced);
        let ev_w = world.sim.stats().events;
        let probe = host_probe_s();
        let tw = Instant::now();
        let end_us = world.sim.now().as_micros() + WINDOW_MS * 1000;
        let mut ops = 0;
        while next_due < end_us {
            world.run_until_us(next_due);
            let (span, g0) = {
                let mut sh = world.shared.borrow_mut();
                (sh.tracer.reserve(), sh.tracer.now())
            };
            let op = match workload {
                SimWorkload::QueryHotspot => OpKind::Query {
                    issuer: world.owners[rng.random_range(0..world.owners.len())],
                    area: gen.generate(&mut rng, &field).region,
                },
                SimWorkload::PublishMoving => {
                    let object = mover.next(&mut rng, &mut world.objects, space);
                    let pos = world.objects[object as usize].pos;
                    OpKind::Publish { object, pos }
                }
            };
            world.shared.borrow_mut().tracer.record(
                span,
                0,
                op_id(u32::MAX, 0),
                "workload.generate",
                g0,
            );
            match op {
                OpKind::Query { issuer, .. } => world.query(issuer, op, true),
                OpKind::Publish { object, .. } => world.publish(object, true),
                _ => unreachable!("the generators make queries and publishes only"),
            }
            ops += 1;
            next_due += gap_us(&mut rng, rate);
        }
        world.run_until_us(end_us);
        windows.push(Window {
            ops,
            wall_s: tw.elapsed().as_secs_f64(),
            traced,
            probe,
        });
        if traced {
            traced_events += world.sim.stats().events - ev_w;
        }
        field.advance_epochs(&mut rng, space, MIGRATION_EPOCHS);
        let done = if trace {
            windows.iter().filter(|w| w.traced).count() >= TRACED_WINDOWS
        } else {
            windows.len() >= windows_wanted
        };
        if done {
            break;
        }
    }
    let last_probe = host_probe_s();
    let measured_wall = t0.elapsed().as_secs_f64();
    let probes_s: f64 = windows.iter().map(|w| w.probe).sum::<f64>() + last_probe;
    let cpu_s = process_cpu_s() - cpu0 - probes_s;
    let sim_s = (world.sim.now().as_micros() - sim0_us) as f64 * 1e-6;
    let store = census(&world);
    let (kind_msgs, kind_bytes, bg_bytes, adaptations, steal_denied, agg) = {
        let mut sh = world.shared.borrow_mut();
        sh.tracer.set_enabled(false);
        sh.phase = Phase::Other;
        (
            sh.msgs[1],
            sh.bytes[1],
            sh.bg_bytes,
            sh.adaptations,
            sh.steal_denied,
            sh.tracer.aggregate(0),
        )
    };

    // Let every reply arrive, then sweep the whole space with a tiling of
    // queries. The tiling is 7x7 so no tile center lies on a split line
    // (multiples of 64/2^k): greedy routing toward a point on a region
    // corner can ping-pong between two neighbors that both touch it, which
    // the corner probe below counts separately.
    world.run_for_ms(DEADLINE_MS + 500);
    let primaries: Vec<u64> = world
        .owners
        .iter()
        .copied()
        .filter(|&i| {
            world
                .sim
                .process(Addr::from_raw(i))
                .and_then(|n| n.engine.owner_view())
                .is_some_and(|v| v.role == Role::Primary)
        })
        .collect();
    let sweep_first = world.shared.borrow().ops.len();
    let side = 64.0 / SWEEP_TILES as f64;
    for k in 0..SWEEP_TILES * SWEEP_TILES {
        let (i, j) = ((k % SWEEP_TILES) as f64, (k / SWEEP_TILES) as f64);
        let area = Region::new(i * side, j * side, side, side);
        let issuer = primaries[(k * 13) % primaries.len()];
        world.query(issuer, OpKind::Sweep { area }, false);
        world.run_for_ms(1);
    }
    // Corner probe: small queries centred on interior split corners.
    let probe_first = world.shared.borrow().ops.len();
    for k in 0..9 {
        let c = Point::new(16.0 * (1 + k % 3) as f64, 16.0 * (1 + k / 3) as f64);
        let area = Region::new(c.x - 0.25, c.y - 0.25, 0.5, 0.5);
        let issuer = primaries[(k * 31) % primaries.len()];
        world.query(issuer, OpKind::Probe { area }, false);
        world.run_for_ms(1);
    }
    world.run_for_ms(DEADLINE_MS + 500);
    let corner_lost = world.shared.borrow().ops[probe_first..]
        .iter()
        .filter(|op| op.answers == 0)
        .count();
    let eval = evaluate(&world, workload, sweep_first..probe_first);

    let mut report = Report::new();
    if trace {
        let path = format!("perfbench/out/spans-{}.csv", workload.name());
        let sh = world.shared.borrow();
        match sh
            .tracer
            .write_csv(std::path::Path::new(&path), |op| sh.op_label(op))
        {
            Ok(()) => report.note(format!("{} spans written to {path}", sh.tracer.len())),
            Err(e) => report.note(format!("could not write {path}: {e}")),
        }
    }

    // Each window's rate is scaled by the mean of the probes just before
    // and just after it.
    let after: Vec<f64> = windows
        .iter()
        .skip(1)
        .map(|w| w.probe)
        .chain([last_probe])
        .collect();
    let (mut rates, mut raw_rates) = (Vec::new(), Vec::new());
    for (w, next) in windows.iter().zip(after) {
        if !w.traced {
            let raw = w.ops as f64 / w.wall_s;
            raw_rates.push(raw);
            rates.push(raw * (w.probe + next) / 2.0 / PROBE_REF_S);
        }
    }
    let ops_total: u64 = windows.iter().map(|w| w.ops).sum();
    let probe_ms: Vec<f64> = windows.iter().map(|w| w.probe * 1e3).collect();
    report.note(format!(
        "host probe: median {:.3} ms during measurement, {:.3} ms during setup (reference {:.1} ms)",
        median(&probe_ms),
        mean(&setup_probes) * 1e3,
        PROBE_REF_S * 1e3
    ));

    let p50 = quantile_stepped(&eval.latencies_ms, 0.5, HOP_DELAY_MS as f64);
    let p99 = quantile_stepped(&eval.latencies_ms, 0.99, HOP_DELAY_MS as f64);
    report.note(format!(
        "measured {} windows of {WINDOW_MS} simulated ms: {ops_total} operations over {sim_s:.1} simulated s in {measured_wall:.2} wall s",
        windows.len()
    ));
    report.note(format!(
        "latency: {} samples, simulated ms with a constant {HOP_DELAY_MS} ms hop delay; processing time excluded",
        eval.latencies_ms.len()
    ));
    report.note(format!(
        "sweep: {} objects, {} found once at a covering primary, {} missing, {} duplicated, {} misplaced, {} stale older copies",
        eval.objects, eval.found_once, eval.missing, eval.duplicated, eval.misplaced, eval.stale
    ));
    if eval.preload_failed > 0 {
        report.note(format!(
            "preload: {} publishes not executed exactly once at a covering primary",
            eval.preload_failed
        ));
    }

    let ops_per_s = median(&rates);
    report.named("setup_s", setup_s, "s");
    report.named("setup_wall_s", setup_raw_s, "s");
    report.named("join_fail_ratio", join_fail_ratio, "ratio");
    report.named(
        "op_fail_ratio",
        eval.failed as f64 / eval.attempted.max(1) as f64,
        "ratio",
    );
    report.named("ops_per_s", ops_per_s, "1/s");
    report.named("ops_per_wall_s", median(&raw_rates), "1/s");
    match workload {
        SimWorkload::QueryHotspot => {
            report.named("query_p50_ms", p50, "ms");
            report.named("query_p99_ms", p99, "ms");
            report.named("msgs_per_query", eval.msgs_per_op, "count");
            report.named("bytes_per_query", eval.bytes_per_op, "B");
        }
        SimWorkload::PublishMoving => {
            report.named("publish_p99_ms", p99, "ms");
            report.named("msgs_per_publish", eval.msgs_per_op, "count");
            report.named("bytes_per_publish", eval.bytes_per_op, "B");
        }
    }
    let bg_rate = bg_bytes as f64 / (live_nodes * sim_s);
    report.named("bg_bytes_per_node_sec", bg_rate, "B/s");

    report.e2e("setup_s", setup_s, "s");
    report.e2e("ops_per_s", ops_per_s, "1/s");
    report.e2e("latency_p50_ms", p50, "ms");
    report.e2e("latency_p99_ms", p99, "ms");
    report.named("cpu_ms_per_op", cpu_s * 1e3 / ops_total.max(1) as f64, "ms");
    report.e2e("msgs_per_op", eval.msgs_per_op, "count");
    report.e2e("bytes_per_op", eval.bytes_per_op, "B");
    report.e2e("bg_bytes_per_node_s", bg_rate, "B/s");

    // Per-layer metrics; spans exist only in a traced run.
    let a = |name: &str| agg.get(name).copied().unwrap_or_default();
    for name in [
        "engine.publish.execute",
        "engine.publish.forward",
        "engine.sync_state",
        "engine.tick",
        "engine.heartbeat",
        "engine.query.forward",
        "engine.query.execute",
        "engine.query.fanout",
    ] {
        report.layer(&format!("{name}.calls"), a(name).calls as f64, "count");
        report.layer(&format!("{name}.self_s"), a(name).self_s, "s");
    }
    report.layer(
        "engine.notify.calls",
        a("engine.notify").calls as f64,
        "count",
    );
    report.layer(
        "engine.subscribe.calls",
        a("engine.subscribe").calls as f64,
        "count",
    );
    let publish_hops = if workload == SimWorkload::PublishMoving {
        eval.hops_mean
    } else {
        0.0
    };
    let (query_hops, query_hops_p99) = if workload == SimWorkload::QueryHotspot {
        (eval.hops_mean, eval.hops_p99)
    } else {
        (0.0, 0.0)
    };
    report.layer("engine.query.hops_mean", query_hops, "count");
    report.layer("engine.query.hops_p99", query_hops_p99, "count");
    report.layer("engine.publish.hops_mean", publish_hops, "count");
    report.layer("engine.query.regions_mean", eval.regions_mean, "count");
    report.layer("service.query_matches_mean", eval.matches_mean, "count");
    report.layer("service.records_primary", store.0 as f64, "count");
    report.layer("service.records_replica", store.1 as f64, "count");
    report.layer("service.records_region_max", store.2 as f64, "count");
    report.layer("service.stale_copies", eval.stale as f64, "count");
    report.layer("engine.query.corner_lost", corner_lost as f64, "count");
    report.layer("engine.join.calls", setup_join.calls as f64, "count");
    report.layer("engine.join.self_s", setup_join.self_s, "s");
    report.layer("engine.join_fail_ratio", join_fail_ratio, "ratio");
    report.layer("wire.bytes.join", setup_join_bytes as f64, "B");
    report.layer("engine.adaptations", adaptations as f64, "count");
    report.layer("engine.steal_denied", steal_denied as f64, "count");
    report.layer("wire.encode.calls", a("wire.encode").calls as f64, "count");
    report.layer("wire.encode.self_s", a("wire.encode").self_s, "s");
    report.layer("wire.decode.self_s", a("wire.decode").self_s, "s");
    // Join traffic of the measured phase (there is little) counts as
    // "other"; `wire.bytes.join` above is the setup's.
    let join = kind_index("join_request");
    for (k, kind) in KINDS.iter().enumerate() {
        if k == join {
            continue;
        }
        let extra = |v: &[u64; 8]| if *kind == "other" { v[join] } else { 0 };
        let msgs = kind_msgs[k] + extra(&kind_msgs);
        let bytes = kind_bytes[k] + extra(&kind_bytes);
        report.layer(&format!("wire.msgs.{kind}"), msgs as f64, "count");
        report.layer(&format!("wire.bytes.{kind}"), bytes as f64, "B");
    }
    report.layer("simnet.events", traced_events as f64, "count");
    report.layer("simnet.self_s", a("simnet.run_until").self_s, "s");
    report.layer("workload.self_s", a("workload.generate").self_s, "s");
    let walls = |traced: bool| -> Vec<f64> {
        windows
            .iter()
            .filter(|w| w.traced == traced)
            .map(|w| w.wall_s)
            .collect()
    };
    let (traced_wall, untraced_wall) = (walls(true), walls(false));
    let overhead = if traced_wall.is_empty() {
        1.0
    } else {
        mean(&traced_wall) / mean(&untraced_wall)
    };
    let span_self: f64 = agg.values().map(|x| x.self_s).sum();
    let traced_total: f64 = traced_wall.iter().sum();
    let unattributed = if traced_total > 0.0 {
        1.0 - span_self / traced_total
    } else {
        0.0
    };
    report.layer("trace.overhead_ratio", overhead, "ratio");
    report.layer("trace.unattributed_ratio", unattributed, "ratio");

    report.correct = eval.correct;
    report.attempted = eval.attempted;
    report.failed = eval.failed;
    report
}
