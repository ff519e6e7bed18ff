//! Stations: access points and clients, with the role-specific state the
//! paper's analyses observe — association handshakes, beaconing, wired
//! bridging, and the 802.11g protection-mode policy with its overly
//! conservative timeout (§7.3).

use crate::mac::Mac;
use crate::{HostId, StationId};
use jigsaw_ieee80211::{MacAddr, Micros};
use std::collections::HashMap;
use std::net::Ipv4Addr;

/// Per-associated-client record kept by an AP.
#[derive(Debug, Clone)]
pub struct AssocInfo {
    /// Association ID handed out.
    pub aid: u16,
    /// Whether the client is 802.11b-only (drives protection).
    pub b_only: bool,
    /// When the association completed (true time).
    pub since: Micros,
}

/// Access-point specific state.
#[derive(Debug)]
pub struct ApState {
    /// Network name broadcast in beacons.
    pub ssid: Vec<u8>,
    /// Associated clients.
    pub clients: HashMap<MacAddr, AssocInfo>,
    /// Next association id.
    pub next_aid: u16,
    /// Whether 802.11g protection mode is currently on.
    pub protection_on: bool,
    /// Last true time an 802.11b client was sensed (associated client
    /// traffic, probe, or association).
    pub last_b_seen: Micros,
    /// How long after the last b-sighting protection stays on.
    /// The paper's production APs use a *one hour* timeout — the root of
    /// the overprotective-AP finding.
    pub protection_timeout_us: Micros,
    /// True for APs in neighboring buildings / rogue APs: they beacon and
    /// carry no modeled clients, existing to populate the trace edges.
    pub external: bool,
}

impl ApState {
    /// Fresh AP state.
    pub fn new(ssid: Vec<u8>, protection_timeout_us: Micros, external: bool) -> Self {
        ApState {
            ssid,
            clients: HashMap::new(),
            next_aid: 1,
            protection_on: false,
            last_b_seen: 0,
            protection_timeout_us,
            external,
        }
    }

    /// Notes evidence of an 802.11b station in range; enables protection.
    pub fn saw_b_client(&mut self, now: Micros) {
        self.last_b_seen = now;
        self.protection_on = true;
    }

    /// Re-evaluates the protection timeout; returns true if protection was
    /// switched off.
    pub fn maybe_expire_protection(&mut self, now: Micros) -> bool {
        if self.protection_on && now.saturating_sub(self.last_b_seen) >= self.protection_timeout_us
        {
            // Also require that no *currently associated* client is b-only.
            if !self.clients.values().any(|c| c.b_only) {
                self.protection_on = false;
                return true;
            }
        }
        false
    }
}

/// Client association phase.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum AssocPhase {
    /// Radio on, not yet looking for a network.
    Dormant,
    /// Broadcasting probe requests, collecting responses.
    Probing,
    /// Sent AUTH, awaiting response from the chosen AP.
    Authenticating,
    /// Sent ASSOC-REQ, awaiting response.
    Associating,
    /// Fully associated.
    Associated,
}

/// Client-specific state.
#[derive(Debug)]
pub struct ClientState {
    /// Legacy 802.11b-only hardware.
    pub b_only: bool,
    /// Current phase of the association state machine.
    pub phase: AssocPhase,
    /// The AP we are (or are becoming) associated with.
    pub ap: Option<StationId>,
    /// Best probe response seen this scan: (AP, rx power deci-dBm).
    pub best_probe: Option<(StationId, MacAddr, i32)>,
    /// Whether the serving AP currently signals protection (from beacons).
    pub ap_protection: bool,
    /// Diurnal session: true while the user is active.
    pub session_active: bool,
    /// True time the current/most recent session started.
    pub session_start: Micros,
    /// True time the session ends (departure).
    pub session_end: Micros,
    /// This client stays on overnight running background traffic.
    pub overnight: bool,
    /// Workload program counter (interpreted by `traffic`).
    pub work_step: u32,
    /// Retries of the current association stage.
    pub assoc_retries: u8,
    /// Flows currently in progress for this client.
    pub active_flows: Vec<u32>,
    /// Generation guard for this client's app timer.
    pub app_gen: u32,
    /// Traffic class driving activity selection (QoS-mix scenarios).
    pub workload: crate::traffic::WorkloadClass,
    /// How many times this client has roamed (picks the next AP).
    pub roam_count: u32,
}

impl ClientState {
    /// Fresh client state.
    pub fn new(b_only: bool, session_start: Micros, session_end: Micros, overnight: bool) -> Self {
        ClientState {
            b_only,
            phase: AssocPhase::Dormant,
            ap: None,
            best_probe: None,
            ap_protection: false,
            session_active: false,
            session_start,
            session_end,
            overnight,
            work_step: 0,
            assoc_retries: 0,
            active_flows: Vec::new(),
            app_gen: 0,
            workload: crate::traffic::WorkloadClass::Mixed,
            roam_count: 0,
        }
    }
}

/// Station role.
#[derive(Debug)]
pub enum Role {
    /// An access point.
    Ap(ApState),
    /// A wireless client.
    Client(ClientState),
}

impl Role {
    /// AP state accessor.
    pub fn as_ap(&self) -> Option<&ApState> {
        match self {
            Role::Ap(a) => Some(a),
            _ => None,
        }
    }

    /// Mutable AP state accessor.
    pub fn as_ap_mut(&mut self) -> Option<&mut ApState> {
        match self {
            Role::Ap(a) => Some(a),
            _ => None,
        }
    }

    /// Client state accessor.
    pub fn as_client(&self) -> Option<&ClientState> {
        match self {
            Role::Client(c) => Some(c),
            _ => None,
        }
    }

    /// Mutable client state accessor.
    pub fn as_client_mut(&mut self) -> Option<&mut ClientState> {
        match self {
            Role::Client(c) => Some(c),
            _ => None,
        }
    }
}

/// A station: MAC layer plus role state plus network identity.
#[derive(Debug)]
pub struct Station {
    /// Our id.
    pub id: StationId,
    /// Index of this station's radio entity in the medium.
    pub entity: u32,
    /// Role-specific state.
    pub role: Role,
    /// The DCF MAC.
    pub mac: Mac,
    /// IP address (clients and APs both get one; APs' is unused for data).
    pub ip: Ipv4Addr,
    /// For clients: the wired host each flow talks to is chosen by traffic;
    /// kept here for the ARP server's registry.
    pub registered_with_vernier: bool,
    /// Frames transmitted (stat).
    pub tx_frames: u64,
    /// Frames received ok and addressed to us (stat).
    pub rx_frames: u64,
}

impl Station {
    /// Creates a station.
    pub fn new(id: StationId, entity: u32, role: Role, mac: Mac, ip: Ipv4Addr) -> Self {
        Station {
            id,
            entity,
            role,
            mac,
            ip,
            registered_with_vernier: false,
            tx_frames: 0,
            rx_frames: 0,
        }
    }

    /// Is this an AP?
    pub fn is_ap(&self) -> bool {
        matches!(self.role, Role::Ap(_))
    }

    /// The BSSID this station currently operates under (its own address for
    /// APs; the serving AP's address for associated clients, else None).
    pub fn addr(&self) -> MacAddr {
        self.mac.addr
    }
}

/// A wired host (server) reachable through the distribution network.
#[derive(Debug, Clone)]
pub struct WiredHost {
    /// Host id.
    pub id: HostId,
    /// Its MAC address on the distribution LAN (or the router's, for
    /// Internet hosts — indistinguishable to the wireless side).
    pub mac: MacAddr,
    /// Its IP address.
    pub ip: Ipv4Addr,
    /// One-way latency from the building LAN, µs.
    pub latency_us: Micros,
    /// Packet loss probability on the wired path (Internet hosts > 0).
    pub loss_prob: f64,
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn protection_lifecycle() {
        let mut ap = ApState::new(b"test".to_vec(), 1_000_000, false);
        assert!(!ap.protection_on);
        ap.saw_b_client(100);
        assert!(ap.protection_on);
        // Too early to expire.
        assert!(!ap.maybe_expire_protection(500_000));
        assert!(ap.protection_on);
        // Past the timeout with no associated b clients → off.
        assert!(ap.maybe_expire_protection(1_100_100));
        assert!(!ap.protection_on);
    }

    #[test]
    fn protection_sticky_while_b_client_associated() {
        let mut ap = ApState::new(b"test".to_vec(), 1_000_000, false);
        ap.saw_b_client(0);
        ap.clients.insert(
            MacAddr::local(3, 1),
            AssocInfo {
                aid: 1,
                b_only: true,
                since: 0,
            },
        );
        assert!(!ap.maybe_expire_protection(10_000_000));
        assert!(ap.protection_on);
        ap.clients.clear();
        assert!(ap.maybe_expire_protection(10_000_000));
    }

    #[test]
    fn role_accessors() {
        let mut r = Role::Ap(ApState::new(b"x".to_vec(), 1, false));
        assert!(r.as_ap().is_some());
        assert!(r.as_client().is_none());
        assert!(r.as_ap_mut().is_some());
        let mut c = Role::Client(ClientState::new(false, 0, 10, false));
        assert!(c.as_client().is_some());
        assert!(c.as_ap().is_none());
        assert!(c.as_client_mut().is_some());
    }
}
