//! The world: every entity, the event loop, and the glue between MAC,
//! medium, monitors, wired network, transport and workloads.
//!
//! Implementation is split by concern:
//! * [`mod@self`] — state, constructor plumbing, event dispatch, finalize;
//! * `mac_drive` — DCF state machine driving (backoff, transmit, timers);
//! * `rx` — transmission-end processing: sensing updates, station
//!   delivery, monitor capture;
//! * `net` — everything above the MAC: association, bridging, ARP, TCP,
//!   wired arrivals, workloads, interferers.

mod dynamics;
mod mac_drive;
mod net;
mod rx;

use crate::event::{EventKind, EventQueue};
use crate::medium::Medium;
use crate::monitor::{Monitor, TraceCollector};
use crate::output::{GroundTruth, SimOutput, SimStats, StationInfo, TruthExchange};
use crate::scenario::ScenarioConfig;
use crate::station::{Role, Station};
use crate::traffic::{Flow, WorkloadParams};
use crate::wired::{Wired, WiredTraceRecord};
use crate::{HostId, StationId};
use jigsaw_ieee80211::{MacAddr, Micros, PhyRate};
use rand_chacha::ChaCha8Rng;
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Which transmissions (if any) are recorded as ground truth.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum TruthMode {
    /// Record nothing (cheapest; used for large figure runs).
    Off,
    /// Record only transmissions to/from one station — the §6 "oracle
    /// laptop" experiment.
    Sample(MacAddr),
    /// Record everything (validation tests).
    Full,
}

/// What an in-flight transmission was, for end-of-transmission routing.
#[derive(Debug, Clone, Copy)]
pub enum TxTag {
    /// A station's head-of-queue transmission.
    Head {
        /// The transmitting station.
        station: StationId,
        /// Which stage of the exchange.
        stage: HeadStage,
        /// Rate used (for the ACK-timeout computation).
        rate: PhyRate,
    },
    /// A station's immediate response (ACK).
    Response {
        /// The responding station.
        station: StationId,
    },
    /// A noise burst.
    Noise {
        /// Index into `World::interferers`.
        interferer: u16,
    },
}

/// Stage of a head-of-queue exchange in flight.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum HeadStage {
    /// The CTS-to-self protection preamble.
    Cts,
    /// The protected (or unprotected) data/management frame.
    Data,
}

/// A microwave-oven style interferer.
#[derive(Debug, Clone)]
pub struct InterfererState {
    /// Medium entity.
    pub entity: u32,
    /// End of the current cooking session (0 = not cooking).
    pub session_until: Micros,
    /// Whether a burst is on the air right now.
    pub burst_active: bool,
}

/// The complete simulation state.
pub struct World {
    /// Scenario parameters.
    pub cfg: ScenarioConfig,
    /// Workload parameters (derived from cfg).
    pub params: WorkloadParams,
    /// Current true time, µs.
    pub now: Micros,
    /// Event queue.
    pub queue: EventQueue,
    /// The radio medium.
    pub medium: Medium,
    /// All stations (APs first, then clients).
    pub stations: Vec<Station>,
    /// All monitors (2 radios each).
    pub monitors: Vec<Monitor>,
    /// Per-radio capture collectors (indexed by RadioId).
    pub collectors: Vec<TraceCollector>,
    /// The wired network.
    pub wired: Wired,
    /// The wired distribution-network trace.
    pub wired_trace: Vec<WiredTraceRecord>,
    /// All TCP flows ever created.
    pub flows: Vec<Flow>,
    /// Ground truth (subject to `truth_mode`).
    pub truth: GroundTruth,
    /// Truth recording mode.
    pub truth_mode: TruthMode,
    /// Aggregate counters.
    pub stats: SimStats,
    /// Deterministic RNG.
    pub rng: ChaCha8Rng,

    /// MAC address → station.
    pub addr_to_station: HashMap<MacAddr, StationId>,
    /// IP → station (clients).
    pub ip_to_station: HashMap<Ipv4Addr, StationId>,
    /// Medium entity → station.
    pub entity_station: Vec<Option<StationId>>,
    /// Medium entity → (monitor index, radio slot).
    pub entity_monitor_radio: Vec<Option<(u16, u8)>>,
    /// Flow lookup by (client, client port).
    pub flow_by_client_port: HashMap<(StationId, u16), u32>,

    /// Per tx-entity: stations that can possibly sense/receive it
    /// (co/adjacent-channel rx power, deci-dBm).
    pub audible_stations: Vec<Vec<(StationId, i32)>>,
    /// Per tx-entity: monitor radios that can possibly capture it.
    pub audible_radios: Vec<Vec<(u32, i32)>>,

    /// In-flight transmission routing.
    pub tx_tags: HashMap<u64, TxTag>,
    /// Per in-flight transmission: exactly the stations whose carrier-sense
    /// counter it incremented (released verbatim at `TxEnd`, keeping the
    /// counters balanced across mid-flight audibility changes).
    pub sensing_holds: HashMap<u64, Vec<StationId>>,
    /// Next ground-truth exchange id.
    pub next_xid: u64,
    /// Next ephemeral port to hand out.
    pub next_port: u16,

    /// Interferers (microwave ovens).
    pub interferers: Vec<InterfererState>,

    /// Clients registered with the Vernier-style management server.
    pub vernier_registry: Vec<(Ipv4Addr, MacAddr)>,
    /// Round-robin cursor into the registry.
    pub vernier_next: usize,
    /// The management server host (None disables the ARP scanner).
    pub vernier_host: Option<HostId>,
}

impl World {
    /// Station accessor.
    pub fn station(&self, sid: StationId) -> &Station {
        &self.stations[sid.index()]
    }

    /// True when ground truth should record traffic between `a` and `b`.
    pub fn truth_covers(&self, a: Option<MacAddr>, b: Option<MacAddr>) -> bool {
        match self.truth_mode {
            TruthMode::Off => false,
            TruthMode::Full => true,
            TruthMode::Sample(m) => a == Some(m) || b == Some(m),
        }
    }

    /// Allocates a fresh ground-truth exchange id for a unicast MSDU.
    pub fn new_exchange(&mut self, sender: MacAddr, receiver: MacAddr) -> u64 {
        if !self.truth_covers(Some(sender), Some(receiver)) {
            return u64::MAX;
        }
        let xid = self.next_xid;
        self.next_xid += 1;
        self.truth.exchanges.push(TruthExchange {
            xid,
            sender,
            receiver,
            attempts: 0,
            delivered: false,
            acked: false,
            first_tx: 0,
            last_tx: 0,
        });
        xid
    }

    /// Allocates an ephemeral TCP port.
    pub fn alloc_port(&mut self) -> u16 {
        let p = self.next_port;
        self.next_port = if self.next_port >= 64000 {
            10_000
        } else {
            self.next_port + 1
        };
        p
    }

    /// Runs the event loop until `horizon` (true time, µs), then finalizes.
    pub fn run(mut self, horizon: Micros) -> SimOutput {
        while let Some((t, ev)) = self.queue.pop() {
            if t > horizon {
                break;
            }
            debug_assert!(t >= self.now, "time went backwards");
            self.now = t;
            self.dispatch(ev);
        }
        self.finalize(horizon)
    }

    pub(crate) fn dispatch(&mut self, ev: EventKind) {
        match ev {
            EventKind::TxEnd { tx_id } => self.on_tx_end(tx_id),
            EventKind::MacTimer { station, gen, kind } => self.on_mac_timer(station, gen, kind),
            EventKind::Beacon { station } => self.on_beacon_timer(station),
            EventKind::WiredArrival { handle } => self.on_wired_arrival(handle),
            EventKind::TcpTimer { flow, gen } => self.on_tcp_timer(flow, gen),
            EventKind::AppTimer { station, gen } => self.on_app_timer(station, gen),
            EventKind::NoiseBurst { entity } => self.on_noise_burst(entity),
            EventKind::ProtectionCheck { station } => self.on_protection_check(station),
            EventKind::VernierArp => self.on_vernier_arp(),
            EventKind::HostApp { host, flow } => self.on_host_app(host, flow),
            EventKind::ClientLifecycle { station, activate } => {
                self.on_client_lifecycle(station, activate)
            }
            EventKind::SshKeystroke { flow } => self.on_ssh_keystroke(flow),
            EventKind::OfficeBroadcast { station } => self.on_office_broadcast(station),
            EventKind::ClientRoam { station, dwell_us } => self.on_client_roam(station, dwell_us),
            EventKind::ChannelRealloc { station, channel } => {
                self.on_channel_realloc(station, channel)
            }
            EventKind::ClientRetune { station, channel } => self.on_client_retune(station, channel),
        }
    }

    fn finalize(mut self, horizon: Micros) -> SimOutput {
        // Gather per-station stats into the aggregate.
        for s in &self.stations {
            self.stats.queue_drops += s.mac.queue_drops;
            self.stats.retry_failures += s.mac.retry_failures;
            self.stats.frames_transmitted += s.tx_frames;
        }
        self.stats.flows_opened = self.flows.len() as u64;
        self.stats.flows_completed = self.flows.iter().filter(|f| f.completed).count() as u64;
        for f in &self.flows {
            self.stats.tcp_rto_retx += f.client_end.rto_retransmits + f.host_end.rto_retransmits;
            self.stats.tcp_fast_retx += f.client_end.fast_retransmits + f.host_end.fast_retransmits;
        }

        let mut traces = Vec::with_capacity(self.collectors.len());
        let mut capture_events = 0u64;
        for mut c in self.collectors {
            c.finalize();
            capture_events += c.len() as u64;
            traces.push(c.events);
        }
        self.stats.capture_events = capture_events;

        let mut radio_meta = Vec::with_capacity(traces.len());
        for m in self.monitors.iter_mut() {
            for slot in 0..2 {
                radio_meta.push(m.radio_meta(slot));
            }
        }
        radio_meta.sort_by_key(|m| m.radio.0);

        let stations = self
            .stations
            .iter()
            .map(|s| {
                let e = self.medium.entity(s.entity);
                StationInfo {
                    addr: s.mac.addr,
                    is_ap: s.is_ap(),
                    b_only: s.mac.b_only,
                    external: matches!(&s.role, Role::Ap(a) if a.external),
                    channel: e.channel.number(),
                    pos: (e.pos.x, e.pos.y, e.pos.z),
                }
            })
            .collect();

        self.truth.transmissions.sort_by_key(|t| t.start);
        self.wired_trace.sort_by_key(|w| w.ts);

        SimOutput {
            radio_meta,
            traces,
            wired: self.wired_trace,
            truth: self.truth,
            stations,
            stats: self.stats,
            duration_us: horizon,
        }
    }
}
