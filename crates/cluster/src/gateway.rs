//! The cluster front tier: routing, hedging, retry budgets, admission
//! control.
//!
//! The gateway owns no simulation state. It hashes each request's
//! `(path, body)` onto the [`HashRing`](crate::ring::HashRing), forwards
//! to the primary replica, and relays whatever bytes come back — the
//! determinism contract (same request → same bytes on every node) is what
//! lets it hedge and fail over without a consistency protocol: *any*
//! replica's answer is *the* answer.
//!
//! Three protections keep overload and brownouts from amplifying:
//!
//! - **Admission control** — the same bounded-queue design as `dee serve`:
//!   the accept thread never blocks, and a full queue means an immediate
//!   `503` (fast shed beats latency collapse).
//! - **Hedged requests** — when the primary has not answered within a
//!   budget (a percentile of recent latencies, or a fixed override), the
//!   same request is sent to the next replica and the first complete
//!   response wins. Hedges spend retry tokens, so a brown-out cannot turn
//!   every slow request into double load.
//! - **Per-route retry budgets** — a token bucket per route, refilled by
//!   successful forwards. Failover retries and hedges both spend from it;
//!   an exhausted bucket degrades to single-attempt forwarding (and a
//!   `502` if that attempt fails) instead of a retry storm.
//!
//! Peer liveness is tracked outside the ring: a connect failure marks the
//! peer dead (skipped in replica order), and a background prober
//! re-admits it on the first successful `/healthz` — which is how a
//! killed-and-respawned node rejoins without any ring rebuild.

use std::io::BufReader;
use std::net::{SocketAddr, TcpListener, TcpStream};
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::mpsc;
use std::sync::{Arc, Mutex, PoisonError};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};

use dee_serve::http::{read_request, write_response, HttpError, Request};
use dee_serve::queue::{Bounded, TryPushError};
use dee_serve::{FaultPlan, FaultSite, Json};
use dee_vm::frame::fnv1a;

use crate::client::{peer_request, request as probe_request, PeerResponse, PeerTimeouts};
use crate::ring::HashRing;

const JSON: &str = "application/json";

/// Routes with independent retry buckets; everything else shares the
/// last slot.
const ROUTES: [&str; 5] = ["/simulate", "/tree", "/levo", "/batch", "<other>"];

/// Tuning knobs for [`Gateway::spawn`].
#[derive(Clone, Debug)]
pub struct GatewayConfig {
    /// Bind address; port 0 picks a free port.
    pub addr: String,
    /// Backend node addresses (`host:port`), in ring order.
    pub peers: Vec<String>,
    /// Replica set size per key (clamped to the peer count).
    pub replication: usize,
    /// Forwarding worker threads.
    pub workers: usize,
    /// Bounded queue capacity; beyond it requests get fast `503`s.
    pub queue_capacity: usize,
    /// Hedge budget: `None` disables hedging, `Some(0)` derives it from
    /// the p90 of a recent-latency window, `Some(ms)` fixes it.
    pub hedge_ms: Option<u64>,
    /// Retry-bucket capacity per route, in whole tokens.
    pub retry_tokens: u32,
    /// Millitokens refilled into a route's bucket per successful forward
    /// (1000 = one token; 100 caps sustained retries at 10% of traffic).
    pub retry_refill_millitokens: u32,
    /// Virtual nodes per peer on the ring.
    pub vnodes: usize,
    /// Ring placement seed; gateways sharing it route identically.
    pub ring_seed: u64,
    /// Peer connect/IO budgets.
    pub timeouts: PeerTimeouts,
    /// How often dead peers are probed for re-admission.
    pub probe_interval: Duration,
    /// Maximum accepted request-body size in bytes.
    pub max_body_bytes: usize,
    /// Fault-injection plan for the cluster sites; inert in production.
    pub faults: Arc<FaultPlan>,
}

impl Default for GatewayConfig {
    fn default() -> Self {
        GatewayConfig {
            addr: "127.0.0.1:0".to_string(),
            peers: Vec::new(),
            replication: 2,
            workers: 4,
            queue_capacity: 64,
            hedge_ms: Some(0),
            retry_tokens: 16,
            retry_refill_millitokens: 100,
            vnodes: 32,
            ring_seed: 0xDEE,
            timeouts: PeerTimeouts::default(),
            probe_interval: Duration::from_millis(50),
            max_body_bytes: 1 << 20,
            faults: Arc::new(FaultPlan::inert()),
        }
    }
}

/// A per-route retry token bucket, in millitokens so refill can be
/// fractional. Lock-free: spend and refill are CAS loops.
struct Bucket {
    millitokens: AtomicU64,
    cap: u64,
}

impl Bucket {
    fn new(tokens: u32) -> Self {
        let cap = u64::from(tokens) * 1000;
        Bucket {
            millitokens: AtomicU64::new(cap),
            cap,
        }
    }

    /// Spends one whole token; `false` when the bucket cannot afford it.
    fn try_spend(&self) -> bool {
        let mut current = self.millitokens.load(Ordering::Relaxed);
        loop {
            if current < 1000 {
                return false;
            }
            match self.millitokens.compare_exchange_weak(
                current,
                current - 1000,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return true,
                Err(actual) => current = actual,
            }
        }
    }

    /// Refills `amount` millitokens, saturating at capacity.
    fn refill(&self, amount: u64) {
        let mut current = self.millitokens.load(Ordering::Relaxed);
        loop {
            let next = (current + amount).min(self.cap);
            if next == current {
                return;
            }
            match self.millitokens.compare_exchange_weak(
                current,
                next,
                Ordering::Relaxed,
                Ordering::Relaxed,
            ) {
                Ok(_) => return,
                Err(actual) => current = actual,
            }
        }
    }
}

/// Gateway counters, rendered on `GET /metrics`.
#[derive(Default)]
pub struct GatewayMetrics {
    /// Requests read off the wire.
    pub requests: AtomicU64,
    /// Forward attempts sent to peers (including hedges and retries).
    pub forwards: AtomicU64,
    /// Hedged requests launched.
    pub hedges: AtomicU64,
    /// Hedges whose response won the race.
    pub hedge_wins: AtomicU64,
    /// Hedges suppressed by an exhausted retry bucket.
    pub hedges_suppressed: AtomicU64,
    /// Failover retries after a peer error.
    pub retries: AtomicU64,
    /// Retries refused because the route's bucket was empty.
    pub retry_exhausted: AtomicU64,
    /// Requests shed by admission control (queue full).
    pub shed: AtomicU64,
    /// Peer attempts that failed (connect refused, timeout, reset).
    pub peer_errors: AtomicU64,
    /// Requests answered `502` because every allowed attempt failed.
    pub gateway_errors: AtomicU64,
    /// Peers re-admitted by the liveness prober.
    pub readmissions: AtomicU64,
}

impl GatewayMetrics {
    fn render(&self, dead_peers: u64) -> String {
        let mut out = String::new();
        for (name, value) in [
            ("dee_gateway_requests_total", &self.requests),
            ("dee_gateway_forwards_total", &self.forwards),
            ("dee_gateway_hedges_total", &self.hedges),
            ("dee_gateway_hedge_wins_total", &self.hedge_wins),
            (
                "dee_gateway_hedges_suppressed_total",
                &self.hedges_suppressed,
            ),
            ("dee_gateway_retries_total", &self.retries),
            ("dee_gateway_retry_exhausted_total", &self.retry_exhausted),
            ("dee_gateway_shed_total", &self.shed),
            ("dee_gateway_peer_errors_total", &self.peer_errors),
            ("dee_gateway_errors_total", &self.gateway_errors),
            ("dee_gateway_readmissions_total", &self.readmissions),
        ] {
            out.push_str(&format!(
                "# TYPE {name} counter\n{name} {}\n",
                value.load(Ordering::Relaxed)
            ));
        }
        out.push_str(&format!(
            "# TYPE dee_gateway_dead_peers gauge\ndee_gateway_dead_peers {dead_peers}\n"
        ));
        out
    }
}

/// Sliding window of recent forward latencies, for the adaptive hedge
/// budget.
struct LatencyWindow {
    samples_us: Mutex<Vec<u64>>,
    cap: usize,
}

impl LatencyWindow {
    fn new(cap: usize) -> Self {
        LatencyWindow {
            samples_us: Mutex::new(Vec::with_capacity(cap)),
            cap,
        }
    }

    fn record(&self, us: u64) {
        let mut samples = self
            .samples_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if samples.len() == self.cap {
            samples.remove(0);
        }
        samples.push(us);
    }

    /// The p90 of the window, or `None` until enough samples exist to
    /// make a percentile meaningful.
    fn p90_us(&self) -> Option<u64> {
        let samples = self
            .samples_us
            .lock()
            .unwrap_or_else(PoisonError::into_inner);
        if samples.len() < 8 {
            return None;
        }
        let mut sorted = samples.clone();
        sorted.sort_unstable();
        Some(sorted[(sorted.len() * 9) / 10 - 1])
    }
}

struct GwShared {
    queue: Bounded<GwJob>,
    metrics: GatewayMetrics,
    stop: AtomicBool,
    ring: HashRing,
    peers: Vec<String>,
    /// Liveness map, indexed like `peers`; `true` = skipped in routing.
    dead: Vec<AtomicBool>,
    buckets: [Bucket; ROUTES.len()],
    latency: LatencyWindow,
    replication: usize,
    hedge_ms: Option<u64>,
    retry_refill_millitokens: u32,
    timeouts: PeerTimeouts,
    probe_interval: Duration,
    max_body_bytes: usize,
    faults: Arc<FaultPlan>,
}

struct GwJob {
    stream: TcpStream,
    accepted: Instant,
}

/// A running gateway. Call [`shutdown`](Gateway::shutdown) for an orderly
/// stop; dropping the handle leaks the threads.
pub struct Gateway {
    shared: Arc<GwShared>,
    addr: SocketAddr,
    accept_thread: JoinHandle<()>,
    prober_thread: JoinHandle<()>,
    workers: Vec<JoinHandle<()>>,
}

impl Gateway {
    /// Binds `config.addr` and spawns the accept loop, forwarding
    /// workers, and the dead-peer prober.
    ///
    /// # Errors
    ///
    /// Propagates the bind failure; rejects an empty peer list as
    /// `InvalidInput`.
    pub fn spawn(config: GatewayConfig) -> std::io::Result<Gateway> {
        if config.peers.is_empty() {
            return Err(std::io::Error::new(
                std::io::ErrorKind::InvalidInput,
                "gateway needs at least one peer",
            ));
        }
        let listener = TcpListener::bind(&config.addr)?;
        let addr = listener.local_addr()?;
        let shared = Arc::new(GwShared {
            queue: Bounded::new(config.queue_capacity),
            metrics: GatewayMetrics::default(),
            stop: AtomicBool::new(false),
            ring: HashRing::new(config.peers.len(), config.vnodes, config.ring_seed),
            dead: config
                .peers
                .iter()
                .map(|_| AtomicBool::new(false))
                .collect(),
            peers: config.peers,
            buckets: std::array::from_fn(|_| Bucket::new(config.retry_tokens)),
            latency: LatencyWindow::new(64),
            replication: config.replication,
            hedge_ms: config.hedge_ms,
            retry_refill_millitokens: config.retry_refill_millitokens,
            timeouts: config.timeouts,
            probe_interval: config.probe_interval,
            max_body_bytes: config.max_body_bytes,
            faults: config.faults,
        });
        let mut workers = Vec::with_capacity(config.workers);
        for i in 0..config.workers.max(1) {
            let shared = Arc::clone(&shared);
            workers.push(
                std::thread::Builder::new()
                    .name(format!("dee-gateway-worker-{i}"))
                    .spawn(move || worker_loop(&shared))?,
            );
        }
        let prober_shared = Arc::clone(&shared);
        let prober_thread = std::thread::Builder::new()
            .name("dee-gateway-prober".to_string())
            .spawn(move || prober_loop(&prober_shared))?;
        let accept_shared = Arc::clone(&shared);
        let accept_thread = std::thread::Builder::new()
            .name("dee-gateway-accept".to_string())
            .spawn(move || accept_loop(&listener, &accept_shared))?;
        Ok(Gateway {
            shared,
            addr,
            accept_thread,
            prober_thread,
            workers,
        })
    }

    /// The bound address (resolves port 0).
    #[must_use]
    pub fn addr(&self) -> SocketAddr {
        self.addr
    }

    /// The gateway's counters.
    #[must_use]
    pub fn metrics(&self) -> &GatewayMetrics {
        &self.shared.metrics
    }

    /// Peers currently marked dead (skipped in routing until the prober
    /// re-admits them).
    #[must_use]
    pub fn dead_peers(&self) -> Vec<String> {
        self.shared
            .peers
            .iter()
            .zip(&self.shared.dead)
            .filter(|(_, dead)| dead.load(Ordering::Relaxed))
            .map(|(peer, _)| peer.clone())
            .collect()
    }

    /// Stops accepting, drains queued requests through the workers, then
    /// joins every thread. Requests still queued after the workers exit
    /// are shed with `503`.
    pub fn shutdown(self) {
        self.shared.stop.store(true, Ordering::SeqCst);
        drop(TcpStream::connect(self.addr));
        let _ = self.accept_thread.join();
        let _ = self.prober_thread.join();
        self.shared.queue.close();
        for worker in self.workers {
            let _ = worker.join();
        }
        for job in self.shared.queue.drain() {
            shed(job.stream, &self.shared.metrics);
        }
    }
}

fn accept_loop(listener: &TcpListener, shared: &GwShared) {
    loop {
        let Ok((stream, _)) = listener.accept() else {
            if shared.stop.load(Ordering::SeqCst) {
                return;
            }
            continue;
        };
        if shared.stop.load(Ordering::SeqCst) {
            return;
        }
        let job = GwJob {
            stream,
            accepted: Instant::now(),
        };
        match shared.queue.try_push(job) {
            Ok(_) => {}
            Err(TryPushError::Full(job)) | Err(TryPushError::Closed(job)) => {
                shed(job.stream, &shared.metrics);
            }
        }
    }
}

/// Sheds one connection with a fast `503` — the admission-control exit.
fn shed(mut stream: TcpStream, metrics: &GatewayMetrics) {
    metrics.shed.fetch_add(1, Ordering::Relaxed);
    let body = Json::obj(vec![("error", Json::str("gateway overloaded"))]).to_string();
    let _ = stream.set_write_timeout(Some(Duration::from_secs(5)));
    let _ = write_response(&mut stream, 503, JSON, body.as_bytes());
}

/// Probes dead peers with un-injected `/healthz` requests and re-admits
/// any that answer — the respawn path back onto the ring.
fn prober_loop(shared: &GwShared) {
    while !shared.stop.load(Ordering::SeqCst) {
        for (i, peer) in shared.peers.iter().enumerate() {
            if !shared.dead[i].load(Ordering::Relaxed) {
                continue;
            }
            let probe = probe_request(peer, "GET", "/healthz", b"", shared.timeouts);
            if matches!(&probe, Ok(res) if res.status == 200) {
                shared.dead[i].store(false, Ordering::Relaxed);
                shared.metrics.readmissions.fetch_add(1, Ordering::Relaxed);
            }
        }
        std::thread::sleep(shared.probe_interval);
    }
}

fn worker_loop(shared: &Arc<GwShared>) {
    while let Some(job) = shared.queue.pop() {
        serve_one(shared, job);
    }
}

fn serve_one(shared: &Arc<GwShared>, job: GwJob) {
    let stream = job.stream;
    let _ = stream.set_read_timeout(Some(shared.timeouts.io));
    let _ = stream.set_write_timeout(Some(shared.timeouts.io));
    let mut reader = BufReader::new(stream);
    let (status, content_type, body) = match read_request(&mut reader, shared.max_body_bytes) {
        Ok(None) => return, // peer closed without a request
        Ok(Some(request)) => {
            shared.metrics.requests.fetch_add(1, Ordering::Relaxed);
            dispatch(shared, &request, job.accepted)
        }
        Err(HttpError::BadRequest(message)) => (400, JSON.to_string(), error_body(message)),
        Err(HttpError::TooLarge) => (413, JSON.to_string(), error_body("payload too large")),
        Err(HttpError::Io(_)) => (408, JSON.to_string(), error_body("request read timed out")),
    };
    let mut stream = reader.into_inner();
    let _ = write_response(&mut stream, status, &content_type, &body);
}

fn error_body(message: impl Into<String>) -> Vec<u8> {
    Json::obj(vec![("error", Json::str(message.into()))])
        .to_string()
        .into_bytes()
}

fn dispatch(
    shared: &Arc<GwShared>,
    request: &Request,
    accepted: Instant,
) -> (u16, String, Vec<u8>) {
    let path = request.path();
    match (request.method.as_str(), path) {
        ("GET", "/healthz") => (
            200,
            "text/plain; charset=utf-8".to_string(),
            b"ok\n".to_vec(),
        ),
        ("GET", "/metrics") => {
            let dead = shared
                .dead
                .iter()
                .filter(|d| d.load(Ordering::Relaxed))
                .count() as u64;
            (
                200,
                "text/plain; charset=utf-8".to_string(),
                shared.metrics.render(dead).into_bytes(),
            )
        }
        ("POST", "/simulate" | "/tree" | "/levo" | "/batch") => forward(shared, request, accepted),
        (_, "/healthz" | "/metrics" | "/simulate" | "/tree" | "/levo" | "/batch") => {
            (405, JSON.to_string(), error_body("method not allowed"))
        }
        _ => (404, JSON.to_string(), error_body("not found")),
    }
}

/// The retry bucket index for a path.
fn route_index(path: &str) -> usize {
    ROUTES
        .iter()
        .position(|&r| r == path)
        .unwrap_or(ROUTES.len() - 1)
}

/// One peer attempt, counted. An `Ok` marks the peer alive; an `Err`
/// marks it dead for the prober to re-admit later.
fn attempt(
    shared: &Arc<GwShared>,
    peer_index: usize,
    request: &Request,
) -> std::io::Result<PeerResponse> {
    shared.metrics.forwards.fetch_add(1, Ordering::Relaxed);
    let result = peer_request(
        &shared.peers[peer_index],
        &request.method,
        request.path(),
        &request.body,
        shared.timeouts,
        &shared.faults,
    );
    match &result {
        Ok(_) => shared.dead[peer_index].store(false, Ordering::Relaxed),
        Err(_) => {
            shared.metrics.peer_errors.fetch_add(1, Ordering::Relaxed);
            shared.dead[peer_index].store(true, Ordering::Relaxed);
        }
    }
    result
}

/// The hedge budget for this request, `None` when hedging is off.
fn hedge_budget(shared: &GwShared) -> Option<Duration> {
    match shared.hedge_ms {
        None => None,
        Some(0) => {
            // Adaptive: p90 of the recent window, floored so a burst of
            // cache hits cannot drive the budget to zero and hedge
            // everything. Until the window fills, a fixed conservative
            // budget applies.
            let us = shared.latency.p90_us().unwrap_or(25_000).max(1_000);
            Some(Duration::from_micros(us))
        }
        Some(ms) => Some(Duration::from_millis(ms)),
    }
}

/// Forwards one API request to its replica set: primary first, hedge
/// after the budget, fail over on errors while the route's retry bucket
/// lasts. Returns whatever response won, verbatim.
fn forward(shared: &Arc<GwShared>, request: &Request, accepted: Instant) -> (u16, String, Vec<u8>) {
    let key = {
        let mut keyed = request.path().as_bytes().to_vec();
        keyed.extend_from_slice(&request.body);
        fnv1a(&keyed)
    };
    let mut order = shared.ring.replicas_for(key, shared.replication);
    // ReplicaLoss: the primary drops out of the replica set for this
    // request, exactly as if its ring arcs were lost mid-flight.
    if order.len() > 1 && shared.faults.trip(FaultSite::ReplicaLoss).is_some() {
        order.rotate_left(1);
    }
    // Route around peers already known dead (stable: ring order is kept
    // within the live and dead groups, so the failover order is
    // deterministic for a given liveness map).
    order.sort_by_key(|&i| shared.dead[i].load(Ordering::Relaxed));

    let route = route_index(request.path());
    let bucket = &shared.buckets[route];
    // GatewayHedgeDelay sleeps here when armed: the hedge decision is
    // late, exactly the pathology the site exists to rehearse.
    shared.faults.trip(FaultSite::GatewayHedgeDelay);
    let budget = hedge_budget(shared);

    let (tx, rx) = mpsc::channel::<std::io::Result<PeerResponse>>();
    let spawn_attempt = |peer_index: usize| {
        let shared = Arc::clone(shared);
        let request = request.clone();
        let tx = tx.clone();
        std::thread::spawn(move || {
            let _ = tx.send(attempt(&shared, peer_index, &request));
        });
    };
    spawn_attempt(order[0]);
    let mut launched = 1usize;
    let mut hedged = false;

    let first = match budget {
        Some(budget) if order.len() > 1 => match rx.recv_timeout(budget) {
            Ok(result) => result,
            Err(_) => {
                // Primary is past budget: hedge to the next replica if
                // the route can afford it, then take whichever answers
                // first.
                if bucket.try_spend() {
                    shared.metrics.hedges.fetch_add(1, Ordering::Relaxed);
                    spawn_attempt(order[1]);
                    launched += 1;
                    hedged = true;
                } else {
                    shared
                        .metrics
                        .hedges_suppressed
                        .fetch_add(1, Ordering::Relaxed);
                }
                match rx.recv_timeout(shared.timeouts.io) {
                    Ok(result) => {
                        if hedged && launched == 2 {
                            // Both are in flight; whichever sent first is
                            // `result`. A win by the hedge is observable
                            // only as "the first arrival was Ok and the
                            // primary had not answered" — close enough
                            // for the counter's purpose.
                            if result.is_ok() {
                                shared.metrics.hedge_wins.fetch_add(1, Ordering::Relaxed);
                            }
                        }
                        result
                    }
                    Err(_) => Err(std::io::Error::new(
                        std::io::ErrorKind::TimedOut,
                        "all replicas timed out",
                    )),
                }
            }
        },
        _ => rx.recv_timeout(shared.timeouts.io).unwrap_or_else(|_| {
            Err(std::io::Error::new(
                std::io::ErrorKind::TimedOut,
                "replica timed out",
            ))
        }),
    };

    let winner = match first {
        Ok(response) => Some(response),
        Err(_) => {
            // First arrival failed. If another attempt is still in
            // flight, its answer may yet save the request; otherwise try
            // the next replicas in order while the bucket lasts.
            let mut salvage = None;
            if launched == 2 {
                if let Ok(Ok(response)) = rx.recv_timeout(shared.timeouts.io) {
                    salvage = Some(response);
                }
            }
            let mut next = launched;
            while salvage.is_none() && next < order.len() {
                if !bucket.try_spend() {
                    shared
                        .metrics
                        .retry_exhausted
                        .fetch_add(1, Ordering::Relaxed);
                    break;
                }
                shared.metrics.retries.fetch_add(1, Ordering::Relaxed);
                if let Ok(response) = attempt(shared, order[next], request) {
                    salvage = Some(response);
                }
                next += 1;
            }
            salvage
        }
    };

    match winner {
        Some(response) => {
            let elapsed_us = u64::try_from(accepted.elapsed().as_micros()).unwrap_or(u64::MAX);
            shared.latency.record(elapsed_us);
            bucket.refill(u64::from(shared.retry_refill_millitokens));
            let content_type = if response.content_type.is_empty() {
                JSON.to_string()
            } else {
                response.content_type
            };
            (response.status, content_type, response.body)
        }
        None => {
            shared
                .metrics
                .gateway_errors
                .fetch_add(1, Ordering::Relaxed);
            (
                502,
                JSON.to_string(),
                error_body("no replica reachable for request"),
            )
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bucket_spends_whole_tokens_and_refills_capped() {
        let bucket = Bucket::new(2);
        assert!(bucket.try_spend());
        assert!(bucket.try_spend());
        assert!(!bucket.try_spend(), "empty bucket refuses");
        bucket.refill(500);
        assert!(!bucket.try_spend(), "half a token is not a token");
        bucket.refill(500);
        assert!(bucket.try_spend());
        for _ in 0..100 {
            bucket.refill(1000);
        }
        assert!(bucket.try_spend());
        assert!(bucket.try_spend());
        assert!(!bucket.try_spend(), "refill saturates at capacity");
    }

    #[test]
    fn latency_window_p90_needs_samples_then_tracks() {
        let window = LatencyWindow::new(16);
        assert_eq!(window.p90_us(), None);
        for us in 1..=10 {
            window.record(us * 100);
        }
        let p90 = window.p90_us().expect("warm window");
        assert!((800..=1000).contains(&p90), "{p90}");
    }

    #[test]
    fn route_index_buckets_known_routes_separately() {
        assert_ne!(route_index("/simulate"), route_index("/batch"));
        assert_eq!(route_index("/nope"), ROUTES.len() - 1);
        assert_eq!(route_index("/other"), route_index("/unknown"));
    }
}
