//! `serve-mix`: an in-process `dee-serve` node with 2 workers and a
//! store pre-populated with checkpoints, driven over HTTP by a closed
//! loop of 2 client threads.
//!
//! A run is a series of rounds. Each round spawns a fresh node over a
//! fresh store (set-up: publish the paper five's `tiny` traces with
//! `DEESNAP1` checkpoints, spawn, warm the prepared cache with every hot
//! workload), then sends [`REQUESTS_PER_ROUND`] requests drawn from a
//! seeded mix:
//!
//! | share | route | what the node does |
//! |---|---|---|
//! | 55% | hot `/simulate` | cache hit on a paper workload at tiny/small |
//! | 10% | `/batch` | a 2 × 2 × 2 grid of hot cells |
//! | 10% | `/simulate_range` | snapshot seek + replay at tiny |
//! | 10% | cold `/simulate` | a unique `dee-gen` upload: lint, capture, prepare, simulate |
//! | 10% | `/analyze` | lint + static plan of a `dee-gen` upload |
//! |  5% | `/levo` | the Levo machine at tiny |
//!
//! Every 200 body is then compared (length plus 64-bit FNV-1a digest, so
//! no response is held in memory) with an in-process oracle that calls
//! the same handlers directly (no HTTP, queue, store or
//! shared cache; ranges replay from record zero), and the node's cache
//! hits and misses must account for exactly the simulate cells sent.

use std::collections::{BTreeMap, HashMap};
use std::io::{Read, Write};
use std::net::TcpStream;
use std::path::Path;
use std::sync::atomic::{AtomicUsize, Ordering};
use std::time::{Duration, Instant};

use dee_gen::GenSpec;
use dee_serve::api::{
    handle_analyze, handle_levo, handle_simulate, handle_simulate_range, parse_batch,
    run_batch_cell,
};
use dee_serve::{FaultPlan, Json, Metrics, PreparedCache, Server, ServerConfig};
use dee_store::{fnv1a, ArtifactKey, Store};
use dee_workloads::{Scale, WorkloadRegistry, PAPER_WORKLOADS};

use crate::report::{Outcome, MODELS};
use crate::span::{Span, Tracer};
use crate::stats::{median, percentile};
use crate::{repetitions, Config, Rng};

/// Requests per round: enough for a p99 with 10 samples beyond it.
const REQUESTS_PER_ROUND: usize = 1000;
/// Seconds one round (set-up, inputs, requests) takes on a 2-core host.
const ROUND_S: f64 = 2.7;
/// Fewest rounds a run measures.
const MIN_ROUNDS: usize = 3;
/// Client threads in the closed loop.
const CLIENTS: usize = 2;
/// Node worker threads.
const WORKERS: usize = 2;
/// Scales of the hot (cached) workloads.
const HOT_SCALES: [&str; 2] = ["tiny", "small"];
/// `E_T` values requests draw from.
const ETS: [u32; 6] = [4, 8, 16, 32, 64, 100];
/// Predictors range requests draw from (all carried by the checkpoints).
const RANGE_PREDICTORS: [&str; 4] = ["twobit", "gshare", "pap", "taken"];
/// Checkpoint stride of the pre-populated store, in records.
const RANGE_STRIDE: u64 = 1024;
/// Longest range a request asks for, in records.
const RANGE_MAX: u64 = 512;

/// Which route (and which path through it) a request takes.
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
enum Route {
    Hot,
    Cold,
    Batch,
    Range,
    Analyze,
    Levo,
}

impl Route {
    const ALL: [Route; 6] = [
        Route::Hot,
        Route::Cold,
        Route::Batch,
        Route::Range,
        Route::Analyze,
        Route::Levo,
    ];

    fn path(self) -> &'static str {
        match self {
            Route::Hot | Route::Cold => "/simulate",
            Route::Batch => "/batch",
            Route::Range => "/simulate_range",
            Route::Analyze => "/analyze",
            Route::Levo => "/levo",
        }
    }

    fn span(self) -> &'static str {
        match self {
            Route::Hot => "serve.simulate_hot",
            Route::Cold => "serve.simulate_cold",
            Route::Batch => "serve.batch",
            Route::Range => "serve.range",
            Route::Analyze => "serve.analyze",
            Route::Levo => "serve.levo",
        }
    }
}

/// One request of the mix.
struct Request {
    route: Route,
    body: String,
    /// Simulate cells it asks the prepared cache for.
    cells: u64,
}

/// One completed exchange, as the client saw it.
struct Exchange {
    /// Index of the request within its round.
    request: usize,
    route: Route,
    cells: u64,
    latency_ms: f64,
    status: u16,
    /// Length and FNV-1a digest of the response body: the body itself
    /// is dropped at once, so the harness holds no response memory.
    body_len: usize,
    body_digest: u64,
    /// The body of a non-200 response, for the failure message.
    error: String,
}

fn pick<'a>(rng: &mut Rng, items: &[&'a str]) -> &'a str {
    items[rng.below(items.len() as u64) as usize]
}

/// A unique seeded `dee-gen` upload: program listing plus memory image.
fn upload(rng: &mut Rng) -> Vec<(&'static str, Json)> {
    let spec = GenSpec {
        pred: rng.range_f64(0.6, 0.98),
        spread: 0.05,
        depth: 1 + rng.below(3) as u32,
        calls: rng.range_f64(0.0, 0.4),
        jr: rng.range_f64(0.0, 0.3),
        alias: rng.range_f64(0.0, 1.0),
        blocks: 2 + rng.below(10) as u32,
        iters: 8 + rng.below(40) as u32,
    };
    let generated = dee_gen::generate(&spec, rng.next_u64()).expect("dee-gen spec in range");
    let memory = generated
        .workload
        .initial_memory
        .iter()
        .map(|&v| Json::from(f64::from(v)))
        .collect();
    vec![
        ("program", Json::str(generated.listing())),
        ("memory", Json::Arr(memory)),
    ]
}

/// The `i`-th request of the mix for `seed`.
fn request(seed: u64, i: u64, range_len: &BTreeMap<&str, u64>) -> Request {
    let mut rng = Rng::new(seed, i);
    let draw = rng.below(100);
    let workload = pick(&mut rng, &PAPER_WORKLOADS);
    let scale = pick(&mut rng, &HOT_SCALES);
    let model = pick(&mut rng, &MODELS);
    let et = ETS[rng.below(ETS.len() as u64) as usize];
    let (route, members, cells) = match draw {
        0..=54 => (
            Route::Hot,
            vec![
                ("workload", Json::str(workload)),
                ("scale", Json::str(scale)),
                ("model", Json::str(model)),
                ("et", Json::from(et)),
            ],
            1,
        ),
        55..=64 => {
            // Two distinct values on each axis: a 2 x 2 x 2 grid.
            let mut two = |n: usize| {
                let a = rng.below(n as u64) as usize;
                [a, (a + 1 + rng.below(n as u64 - 1) as usize) % n]
            };
            let workloads = two(PAPER_WORKLOADS.len()).map(|i| Json::str(PAPER_WORKLOADS[i]));
            let models = two(MODELS.len()).map(|i| Json::str(MODELS[i]));
            let ets = two(ETS.len()).map(|i| Json::from(ETS[i]));
            (
                Route::Batch,
                vec![
                    ("workloads", Json::Arr(workloads.to_vec())),
                    ("scale", Json::str(scale)),
                    ("models", Json::Arr(models.to_vec())),
                    ("ets", Json::Arr(ets.to_vec())),
                ],
                8,
            )
        }
        65..=74 => {
            let len = range_len[workload];
            let start = rng.below(len - 1);
            let end = (start + 1 + rng.below(RANGE_MAX)).min(len);
            (
                Route::Range,
                vec![
                    ("workload", Json::str(workload)),
                    ("scale", Json::str("tiny")),
                    ("model", Json::str(model)),
                    ("et", Json::from(et)),
                    ("predictor", Json::str(pick(&mut rng, &RANGE_PREDICTORS))),
                    ("start", Json::from(start)),
                    ("end", Json::from(end)),
                ],
                0,
            )
        }
        75..=84 => {
            let mut members = upload(&mut rng);
            members.push(("model", Json::str(model)));
            members.push(("et", Json::from(et)));
            (Route::Cold, members, 1)
        }
        85..=94 => (Route::Analyze, upload(&mut rng), 0),
        _ => (
            Route::Levo,
            vec![
                ("workload", Json::str(workload)),
                ("scale", Json::str("tiny")),
            ],
            0,
        ),
    };
    Request {
        route,
        body: Json::obj(members).to_string(),
        cells,
    }
}

/// One `Connection: close` HTTP exchange: `(status, body)`.
fn exchange(addr: &str, head: &str, body: &str) -> Result<(u16, String), String> {
    let mut stream = TcpStream::connect(addr).map_err(|e| format!("connect {addr}: {e}"))?;
    stream
        .set_read_timeout(Some(Duration::from_secs(60)))
        .map_err(|e| e.to_string())?;
    stream
        .write_all(format!("{head}\r\n\r\n{body}").as_bytes())
        .map_err(|e| e.to_string())?;
    let mut raw = String::new();
    stream.read_to_string(&mut raw).map_err(|e| e.to_string())?;
    let status = raw
        .split_whitespace()
        .nth(1)
        .and_then(|s| s.parse().ok())
        .ok_or_else(|| format!("bad response: {raw:.60}"))?;
    let body = raw.split_once("\r\n\r\n").map_or("", |(_, b)| b);
    Ok((status, body.to_string()))
}

fn post(addr: &str, path: &str, body: &str) -> Result<(u16, String), String> {
    exchange(
        addr,
        &format!(
            "POST {path} HTTP/1.1\r\nHost: perfbench\r\nContent-Length: {}\r\nConnection: close",
            body.len()
        ),
        body,
    )
}

/// `GET /metrics`, parsed into `name → value` (unlabelled series only).
fn scrape(addr: &str) -> BTreeMap<String, f64> {
    let text = exchange(
        addr,
        "GET /metrics HTTP/1.1\r\nHost: perfbench\r\nConnection: close",
        "",
    )
    .map(|(_, body)| body)
    .unwrap_or_default();
    text.lines()
        .filter(|l| !l.starts_with('#'))
        .filter_map(|l| {
            let (name, value) = l.split_once(' ')?;
            Some((name.to_string(), value.trim().parse().ok()?))
        })
        .collect()
}

/// Publishes the paper five's `tiny` traces with checkpoints into `dir`;
/// returns each trace's length, the bound for range requests.
fn populate(dir: &Path) -> BTreeMap<&'static str, u64> {
    let store = Store::open(dir).expect("open the node store");
    let registry = WorkloadRegistry::builtin();
    let mut lens = BTreeMap::new();
    for name in PAPER_WORKLOADS {
        let w = registry.build(name, Scale::Tiny).expect("paper workload");
        let trace = w
            .validate_with(dee_vm::Engine::default())
            .expect("paper workload validates");
        let key = ArtifactKey::new(name, "tiny", &w.program.to_listing(), &w.initial_memory);
        store.put(&key, &trace).expect("publish trace");
        dee_snap::publish_checkpoints(&store, &key, &w.program, &w.initial_memory, RANGE_STRIDE)
            .expect("publish checkpoints");
        lens.insert(name, trace.len() as u64);
    }
    lens
}

/// What one round measured. Each round runs in a process of its own, so
/// its peak resident set is the node's and the clients' alone, and it
/// reaches the parent as one JSON line. Request bodies are not kept: the
/// checks regenerate them from the seed.
struct Round {
    setup_s: f64,
    wall_s: f64,
    peak_rss_mib: f64,
    /// Seed index of the round's first request.
    first: u64,
    range_len: BTreeMap<&'static str, u64>,
    /// Warm-up requests that did not answer 200.
    warmup_failed: u64,
    exchanges: Vec<Exchange>,
    delta: BTreeMap<String, f64>,
    queue_highwater: f64,
}

fn round(config: &Config, r: usize, traced: bool) -> (Round, Vec<Span>) {
    let start = Instant::now();
    let dir = config.scratch.join(format!("serve-store-{r}"));
    let range_len = populate(&dir);
    let server = Server::spawn(ServerConfig {
        workers: WORKERS,
        store_dir: Some(dir.clone()),
        ..ServerConfig::default()
    })
    .expect("spawn the node");
    let addr = server.addr().to_string();
    let mut warmup_failed = 0;
    for workload in PAPER_WORKLOADS {
        for scale in HOT_SCALES {
            let body =
                format!(r#"{{"workload":"{workload}","scale":"{scale}","model":"Oracle","et":1}}"#);
            let status = post(&addr, "/simulate", &body).map(|(s, _)| s);
            if status != Ok(200) {
                eprintln!("perfbench: warm-up {workload}/{scale}: {status:?}");
                warmup_failed += 1;
            }
        }
    }
    let setup_s = start.elapsed().as_secs_f64();

    let first = (r * REQUESTS_PER_ROUND) as u64;
    let requests: Vec<Request> = (0..REQUESTS_PER_ROUND as u64)
        .map(|i| request(config.seed, first + i, &range_len))
        .collect();
    let before = scrape(&addr);
    let next = AtomicUsize::new(0);
    let measured = Instant::now();
    let per_client: Vec<(Vec<Exchange>, Vec<Span>)> = std::thread::scope(|s| {
        let clients: Vec<_> = (0..CLIENTS)
            .map(|_| {
                s.spawn(|| {
                    let mut tracer = Tracer::new(traced);
                    let mut done = Vec::new();
                    loop {
                        let i = next.fetch_add(1, Ordering::Relaxed);
                        let Some(req) = requests.get(i) else {
                            break;
                        };
                        let sent = Instant::now();
                        let reply = tracer.span(req.route.span(), |_| {
                            post(&addr, req.route.path(), &req.body)
                        });
                        let latency_ms = sent.elapsed().as_secs_f64() * 1e3;
                        let (status, body) = reply.unwrap_or_else(|e| (0, e));
                        let error = if status == 200 {
                            String::new()
                        } else {
                            body.clone()
                        };
                        done.push(Exchange {
                            request: i,
                            route: req.route,
                            cells: req.cells,
                            latency_ms,
                            status,
                            body_len: body.len(),
                            body_digest: fnv1a(body.as_bytes()),
                            error,
                        });
                    }
                    (done, tracer.take())
                })
            })
            .collect();
        clients
            .into_iter()
            .map(|c| c.join().expect("client thread"))
            .collect()
    });
    let wall_s = measured.elapsed().as_secs_f64();
    let peak_rss_mib = crate::host::peak_rss_mib("self").unwrap_or(0.0);
    let after = scrape(&addr);
    server.shutdown();
    std::fs::remove_dir_all(&dir).ok();

    let delta = after
        .iter()
        .map(|(k, v)| (k.clone(), v - before.get(k).copied().unwrap_or(0.0)))
        .collect();
    let mut exchanges = Vec::new();
    let mut spans = Vec::new();
    for (e, s) in per_client {
        exchanges.extend(e);
        spans.extend(s);
    }
    let round = Round {
        setup_s,
        wall_s,
        peak_rss_mib,
        first,
        range_len,
        warmup_failed,
        exchanges,
        delta,
        queue_highwater: after
            .get("dee_queue_depth_highwater")
            .copied()
            .unwrap_or(0.0),
    };
    (round, spans)
}

/// The child side of a round: runs round `r` and prints it as one JSON
/// line (and, when traced, its spans on stderr).
pub fn round_main(config: &Config, r: usize) {
    let (round, spans) = round(config, r, config.traced && r % 2 == 1);
    eprint!("{}", crate::span::render_jsonl(&spans));
    println!("{}", round.to_json());
}

/// The parent side of a round: runs it in a child process.
fn spawn_round(config: &Config, r: usize) -> Result<Round, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let output = std::process::Command::new(exe)
        .args(["--workload", "serve-mix", "--round", &r.to_string()])
        .args(["--seed", &config.seed.to_string()])
        .args(["--seconds", &config.seconds.to_string()])
        .args(["--trace", if config.traced { "1" } else { "0" }])
        .arg("--root")
        .arg(&config.root)
        .arg("--scratch")
        .arg(&config.scratch)
        .stderr(std::process::Stdio::inherit())
        .output()
        .map_err(|e| format!("spawn round {r}: {e}"))?;
    if !output.status.success() {
        return Err(format!("round {r} exited with {}", output.status));
    }
    let text = String::from_utf8_lossy(&output.stdout);
    let line = text.lines().last().ok_or("round printed nothing")?;
    Round::from_json(&dee_serve::json::parse(line)?).ok_or_else(|| format!("round {r}: bad record"))
}

impl Round {
    fn to_json(&self) -> String {
        let exchanges = self
            .exchanges
            .iter()
            .map(|e| {
                Json::Arr(vec![
                    Json::from(e.request as u64),
                    Json::from(Route::ALL.iter().position(|&r| r == e.route).unwrap_or(0) as u64),
                    Json::from(e.cells),
                    Json::from(e.latency_ms),
                    Json::from(u64::from(e.status)),
                    Json::from(e.body_len as u64),
                    Json::str(format!("{:016x}", e.body_digest)),
                    Json::str(e.error.clone()),
                ])
            })
            .collect();
        let map = |m: Vec<(String, Json)>| Json::Obj(m);
        Json::obj(vec![
            ("setup_s", Json::from(self.setup_s)),
            ("wall_s", Json::from(self.wall_s)),
            ("peak_rss_mib", Json::from(self.peak_rss_mib)),
            ("first", Json::from(self.first)),
            ("warmup_failed", Json::from(self.warmup_failed)),
            ("queue_highwater", Json::from(self.queue_highwater)),
            (
                "range_len",
                map(self
                    .range_len
                    .iter()
                    .map(|(k, v)| (k.to_string(), Json::from(*v)))
                    .collect()),
            ),
            (
                "delta",
                map(self
                    .delta
                    .iter()
                    .map(|(k, v)| (k.clone(), Json::from(*v)))
                    .collect()),
            ),
            ("exchanges", Json::Arr(exchanges)),
        ])
        .to_string()
    }

    fn from_json(j: &Json) -> Option<Round> {
        let f = |k: &str| j.get(k).and_then(Json::as_f64);
        let members = |k: &str| match j.get(k) {
            Some(Json::Obj(m)) => Some(m.clone()),
            _ => None,
        };
        let range_len = members("range_len")?
            .into_iter()
            .filter_map(|(k, v)| {
                let name = PAPER_WORKLOADS.into_iter().find(|n| *n == k)?;
                Some((name, v.as_u64()?))
            })
            .collect();
        let delta = members("delta")?
            .into_iter()
            .filter_map(|(k, v)| Some((k, v.as_f64()?)))
            .collect();
        let exchanges = j
            .get("exchanges")?
            .as_arr()?
            .iter()
            .map(|e| {
                let e = e.as_arr()?;
                let u = |i: usize| e.get(i).and_then(Json::as_u64);
                Some(Exchange {
                    request: usize::try_from(u(0)?).ok()?,
                    route: *Route::ALL.get(usize::try_from(u(1)?).ok()?)?,
                    cells: u(2)?,
                    latency_ms: e.get(3)?.as_f64()?,
                    status: u16::try_from(u(4)?).ok()?,
                    body_len: usize::try_from(u(5)?).ok()?,
                    body_digest: u64::from_str_radix(e.get(6)?.as_str()?, 16).ok()?,
                    error: e.get(7)?.as_str()?.to_string(),
                })
            })
            .collect::<Option<Vec<_>>>()?;
        Some(Round {
            setup_s: f("setup_s")?,
            wall_s: f("wall_s")?,
            peak_rss_mib: f("peak_rss_mib")?,
            first: j.get("first")?.as_u64()?,
            warmup_failed: j.get("warmup_failed")?.as_u64()?,
            queue_highwater: f("queue_highwater")?,
            range_len,
            delta,
            exchanges,
        })
    }
}

/// Runs the workload; see the module docs.
pub fn run(config: &Config) -> Outcome {
    let mut out = Outcome::default();
    // A traced run alternates untraced and traced rounds, for the
    // tracing overhead.
    let min = if config.traced { 2 } else { MIN_ROUNDS };
    let mut rounds = Vec::new();
    for r in 0..repetitions(config.seconds, ROUND_S, min) {
        match spawn_round(config, r) {
            Ok(round) => {
                out.check(PAPER_WORKLOADS.len() as u64 * 2, round.warmup_failed);
                rounds.push(round);
            }
            Err(e) => out.expect(false, || e),
        }
    }
    if rounds.len() < min {
        return out;
    }

    let verdicts = judge(config.seed, &rounds);
    let mut verdict = verdicts.into_iter();
    let mut latencies: Vec<Vec<(Route, f64)>> = Vec::new();
    for round in &rounds {
        let mut round_latencies = Vec::new();
        let mut hot_cells = 0;
        let mut cold_cells = 0;
        for e in &round.exchanges {
            match e.route {
                Route::Cold => cold_cells += e.cells,
                _ => hot_cells += e.cells,
            }
            let ok = verdict.next() == Some(true);
            out.expect(ok, || {
                format!(
                    "{} request {}: HTTP {} ({} bytes) disagrees with the oracle {:.120}",
                    e.route.path(),
                    e.request,
                    e.status,
                    e.body_len,
                    e.error
                )
            });
            round_latencies.push((e.route, if ok { e.latency_ms } else { f64::INFINITY }));
        }
        latencies.push(round_latencies);
        let hits = round.delta.get("dee_prepared_cache_hits_total").copied();
        let misses = round.delta.get("dee_prepared_cache_misses_total").copied();
        out.expect(
            hits == Some(hot_cells as f64) && misses == Some(cold_cells as f64),
            || {
                format!(
                    "cache accounting: hits {hits:?} misses {misses:?}, \
                     sent {hot_cells} hot and {cold_cells} cold cells"
                )
            },
        );
    }

    if config.traced {
        per_layer(&mut out, &rounds, &latencies);
    } else {
        end_to_end(&mut out, &rounds, &latencies);
    }
    out
}

/// Per-round figures are reduced by their median, so one round slowed by
/// the host does not move the result.
fn end_to_end(out: &mut Outcome, rounds: &[Round], latencies: &[Vec<(Route, f64)>]) {
    let n = rounds.len();
    let per_round = |f: &dyn Fn(usize) -> f64| median(&(0..n).map(f).collect::<Vec<_>>());
    let sorted: Vec<Vec<f64>> = latencies
        .iter()
        .map(|round| {
            let mut l: Vec<f64> = round.iter().map(|&(_, l)| l).collect();
            l.sort_by(f64::total_cmp);
            l
        })
        .collect();
    out.set("setup_s", per_round(&|r| rounds[r].setup_s), n);
    out.set("wall_s", per_round(&|r| rounds[r].wall_s), n);
    let walls = rounds.iter().map(|r| Json::from(r.wall_s)).collect();
    out.note("wall_s_samples", Json::Arr(walls));
    out.set("peak_rss_mb", per_round(&|r| rounds[r].peak_rss_mib), n);
    let rss = rounds.iter().map(|r| Json::from(r.peak_rss_mib)).collect();
    out.note("peak_rss_mb_samples", Json::Arr(rss));
    out.set(
        "rps",
        per_round(&|r| {
            sorted[r].iter().filter(|l| l.is_finite()).count() as f64 / rounds[r].wall_s
        }),
        n,
    );
    out.set("p50_ms", per_round(&|r| percentile(&sorted[r], 50.0)), n);
    out.set("p99_ms", per_round(&|r| percentile(&sorted[r], 99.0)), n);
    out.note(
        "tail_percentile_supported_per_round",
        Json::from(crate::stats::tail_percentile(REQUESTS_PER_ROUND).unwrap_or(0.0)),
    );
    out.note(
        "load",
        Json::str(format!(
            "closed loop, {CLIENTS} clients, {WORKERS} workers, {n} rounds of {REQUESTS_PER_ROUND} requests"
        )),
    );
}

/// Client-side `serve.<route>.p50_ms` / `p90_ms` metric names.
const ROUTE_METRICS: [[&str; 2]; 6] = [
    ["serve.simulate_hot.p50_ms", "serve.simulate_hot.p90_ms"],
    ["serve.simulate_cold.p50_ms", "serve.simulate_cold.p90_ms"],
    ["serve.batch.p50_ms", "serve.batch.p90_ms"],
    ["serve.range.p50_ms", "serve.range.p90_ms"],
    ["serve.analyze.p50_ms", "serve.analyze.p90_ms"],
    ["serve.levo.p50_ms", "serve.levo.p90_ms"],
];

fn per_layer(out: &mut Outcome, rounds: &[Round], latencies: &[Vec<(Route, f64)>]) {
    // Odd rounds are traced; even ones are the untraced comparison.
    let traced: Vec<&Round> = rounds.iter().skip(1).step_by(2).collect();
    let traced_latencies: Vec<(Route, f64)> = latencies
        .iter()
        .skip(1)
        .step_by(2)
        .flatten()
        .copied()
        .collect();
    for (route, [p50, p90]) in Route::ALL.into_iter().zip(ROUTE_METRICS) {
        let mut samples: Vec<f64> = traced_latencies
            .iter()
            .filter(|(r, _)| *r == route)
            .map(|&(_, l)| l)
            .collect();
        if samples.is_empty() {
            continue;
        }
        samples.sort_by(f64::total_cmp);
        out.set(p50, percentile(&samples, 50.0), samples.len());
        out.set(p90, percentile(&samples, 90.0), samples.len());
    }
    let sum = |name: &str| -> f64 {
        traced
            .iter()
            .map(|r| r.delta.get(name).copied().unwrap_or(0.0))
            .sum()
    };
    let n = traced.len();
    let ratio = |a: f64, b: f64| if b > 0.0 { a / b } else { 0.0 };
    let hits = sum("dee_prepared_cache_hits_total");
    let misses = sum("dee_prepared_cache_misses_total");
    out.set("serve.cache_hit_rate", ratio(hits, hits + misses), n);
    let seek_hits = sum("dee_snap_seek_hits_total");
    let seek_misses = sum("dee_snap_seek_misses_total");
    out.set(
        "serve.snap_seek_hit_rate",
        ratio(seek_hits, seek_hits + seek_misses),
        n,
    );
    out.set(
        "serve.queue_full_rejects",
        sum("dee_rejected_queue_full_total"),
        n,
    );
    out.set(
        "serve.queue_depth_highwater",
        traced.iter().map(|r| r.queue_highwater).fold(0.0, f64::max),
        n,
    );
    out.set(
        "serve.server_mean_ms",
        ratio(
            sum("dee_request_latency_us_sum"),
            sum("dee_request_latency_us_count"),
        ) / 1e3,
        n,
    );
    let walls = |skip: usize| -> Vec<f64> {
        rounds
            .iter()
            .skip(skip)
            .step_by(2)
            .map(|r| r.wall_s * 1e3)
            .collect()
    };
    crate::layers::overhead(out, &walls(0), &walls(1));
}

/// Threads comparing responses with the oracle.
const CHECKERS: usize = 2;

/// Whether each exchange, in round order, is a 200 whose body has the
/// oracle's length and digest; the work is split over [`CHECKERS`]
/// threads.
fn judge(seed: u64, rounds: &[Round]) -> Vec<bool> {
    let jobs: Vec<(&Round, &Exchange)> = rounds
        .iter()
        .flat_map(|r| r.exchanges.iter().map(move |e| (r, e)))
        .collect();
    std::thread::scope(|s| {
        let checkers: Vec<_> = jobs
            .chunks(jobs.len().div_ceil(CHECKERS).max(1))
            .map(|chunk| {
                s.spawn(move || {
                    let mut oracle = Oracle::new();
                    chunk
                        .iter()
                        .map(|(r, e)| {
                            let req = request(seed, r.first + e.request as u64, &r.range_len);
                            e.status == 200
                                && oracle.expected(&req).is_ok_and(|want| {
                                    want.len() == e.body_len
                                        && fnv1a(want.as_bytes()) == e.body_digest
                                })
                        })
                        .collect::<Vec<bool>>()
                })
            })
            .collect();
        checkers
            .into_iter()
            .flat_map(|c| c.join().expect("checker thread"))
            .collect()
    })
}

/// Expected response bodies, from the node's own handlers called
/// directly.
struct Oracle {
    /// Prepared traces of the hot workloads, so hot answers read `hit`.
    hot: PreparedCache,
    faults: FaultPlan,
    metrics: Metrics,
    deadline: Instant,
    memo: HashMap<String, String>,
}

impl Oracle {
    fn new() -> Self {
        Oracle {
            hot: PreparedCache::new(64, 1),
            faults: FaultPlan::inert(),
            metrics: Metrics::new(),
            deadline: Instant::now() + Duration::from_secs(3600),
            memo: HashMap::new(),
        }
    }

    fn expected(&mut self, req: &Request) -> Result<String, String> {
        if let Some(body) = self.memo.get(&req.body) {
            return Ok(body.clone());
        }
        let body = dee_serve::json::parse(&req.body)?;
        let (faults, deadline) = (&self.faults, self.deadline);
        let json = match req.route {
            Route::Hot => {
                // The node was warmed, so its answer reports a hit.
                let _ = handle_simulate(&self.hot, &body, deadline, faults, None);
                handle_simulate(&self.hot, &body, deadline, faults, None).map(|(j, _)| j)
            }
            Route::Cold => {
                let fresh = PreparedCache::new(1, 1);
                handle_simulate(&fresh, &body, deadline, faults, None).map(|(j, _)| j)
            }
            Route::Batch => {
                let cells = parse_batch(&body).map_err(|e| e.message)?;
                let (mut hits, mut misses) = (0u64, 0u64);
                let results = cells
                    .iter()
                    .map(|cell| {
                        let _ = run_batch_cell(&self.hot, cell, deadline, faults, None);
                        let (json, hit) = run_batch_cell(&self.hot, cell, deadline, faults, None);
                        match hit {
                            Some(true) => hits += 1,
                            Some(false) => misses += 1,
                            None => {}
                        }
                        json
                    })
                    .collect();
                Ok(Json::obj(vec![
                    ("cells", Json::from(cells.len() as u64)),
                    (
                        "cache",
                        Json::obj(vec![
                            ("hits", Json::from(hits)),
                            ("misses", Json::from(misses)),
                        ]),
                    ),
                    ("results", Json::Arr(results)),
                ]))
            }
            Route::Range => handle_simulate_range(&body, deadline, faults, None, &self.metrics),
            Route::Analyze => handle_analyze(&body, faults),
            Route::Levo => handle_levo(&body, deadline, faults),
        }
        .map_err(|e| e.message)?
        .to_string();
        if matches!(req.route, Route::Hot | Route::Batch | Route::Levo) {
            self.memo.insert(req.body.clone(), json.clone());
        }
        Ok(json)
    }
}
