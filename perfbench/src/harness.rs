//! The loopback server, set-up, and the closed-loop clients with their
//! oracle checks.

use crate::layers::{Replayer, TraceOutput};
use crate::plan::{algorithm, Inputs, Kind, Op, Workload, GPR};
use gpm_core::{DevicePolicy, InitHeuristic};
use gpm_graph::{gen, verify, BipartiteCsr, Matching};
use gpm_service::proto::fingerprint_from_hex;
use gpm_service::{serve, Client, Service, ServiceBuilder};
use serde::Value;
use std::io;
use std::net::{SocketAddr, TcpListener};
use std::sync::atomic::{AtomicUsize, Ordering};
use std::thread::JoinHandle;
use std::time::Instant;

/// Shards of the server under test; with one worker each, two workers in
/// total, matching a 2-core host.
pub const SHARDS: usize = 2;
/// Workers per shard.
pub const WORKERS_PER_SHARD: usize = 1;

/// The server configuration every workload runs against: the sequential
/// device makes modelled seconds repeat exactly, and the cache keeps its
/// default capacity (32 graphs per shard).
pub fn service_builder() -> ServiceBuilder {
    Service::builder()
        .shards(SHARDS)
        .workers(WORKERS_PER_SHARD)
        .device_policy(DevicePolicy::Sequential)
}

/// The server configuration as the run record states it.
pub fn server_config() -> String {
    format!(
        "shards={SHARDS} workers_per_shard={WORKERS_PER_SHARD} device=sequential \
         cache=default(32 graphs/shard) bind=127.0.0.1:0"
    )
}

fn io_err(context: &str, e: impl std::fmt::Display) -> String {
    format!("{context}: {e}")
}

/// `gpm_service::serve` on a loopback port, on its own thread.
#[derive(Debug)]
pub struct Server {
    /// Where clients connect.
    pub addr: SocketAddr,
    thread: Option<JoinHandle<io::Result<()>>>,
}

impl Server {
    /// Binds `127.0.0.1:0` and serves a fresh service on it.
    pub fn start() -> Result<Server, String> {
        let listener = TcpListener::bind("127.0.0.1:0").map_err(|e| io_err("bind", e))?;
        let addr = listener.local_addr().map_err(|e| io_err("local_addr", e))?;
        let service = service_builder().build();
        let thread = std::thread::spawn(move || serve(listener, service));
        Ok(Server { addr, thread: Some(thread) })
    }

    /// Sends `shutdown` and joins the server thread (which joins every
    /// connection and, dropping the service, every worker).
    pub fn stop(mut self) -> Result<(), String> {
        self.stop_inner()
    }

    fn stop_inner(&mut self) -> Result<(), String> {
        let Some(thread) = self.thread.take() else { return Ok(()) };
        let sent = Client::connect(self.addr).and_then(|mut c| c.shutdown());
        if let Err(e) = sent {
            // Leave the thread detached rather than block on a server that
            // cannot be told to stop.
            return Err(io_err("shutdown", e));
        }
        match thread.join() {
            Ok(result) => result.map_err(|e| io_err("serve", e)),
            Err(_) => Err("server thread panicked".to_string()),
        }
    }
}

impl Drop for Server {
    fn drop(&mut self) {
        let _ = self.stop_inner();
    }
}

/// A booted server holding a workload's corpus, warmed up.
pub struct Prepared {
    /// The server under test.
    pub server: Server,
    /// What the clients will send.
    pub inputs: Inputs,
}

impl Prepared {
    /// Stops the server, handing back the inputs for reporting.
    pub fn stop(self) -> Result<Inputs, String> {
        self.server.stop()?;
        Ok(self.inputs)
    }
}

/// Set-up: boot the server, generate the inputs and their oracles, upload
/// the corpus, and warm every shard with one GPU solve.
pub fn setup(workload: Workload, seed: u64, nproc: usize) -> Result<Prepared, String> {
    let server = Server::start()?;
    let inputs = Inputs::generate(workload, seed, nproc);
    let mut client = Client::connect(server.addr).map_err(|e| io_err("connect", e))?;
    for &g in &inputs.corpus {
        let graph = &inputs.graphs[g];
        let fp = client.put_graph(&graph.csr).map_err(|e| io_err("corpus upload", e))?;
        if fp != graph.fingerprint {
            return Err(format!("corpus upload of {}: server fingerprint {fp:#x}", graph.name));
        }
    }
    warm_up(&mut client)?;
    Ok(Prepared { server, inputs })
}

/// One untimed G-PR solve per shard, so each shard's lazy device and
/// kernel pool exist before timing.
fn warm_up(client: &mut Client) -> Result<(), String> {
    warm_every_shard(|g| {
        let fp = client.put_graph(&g).map_err(|e| io_err("warm-up upload", e))?;
        let response = client
            .solve_cached(fp, algorithm(GPR), InitHeuristic::Cheap)
            .map_err(|e| io_err("warm-up solve", e))?;
        Ok(response.get("shard").and_then(Value::as_u64).unwrap_or(0) as usize)
    })
}

/// A small graph for warm-up solves, outside every workload's corpus.
pub fn warm_up_graph(seed: u64) -> BipartiteCsr {
    gen::uniform_random(64, 64, 256, 0x3a7e_0000 + seed).expect("warm-up graphs generate")
}

/// Hands `solve` warm-up graphs (it uploads one, solves it with G-PR and
/// returns the shard that ran it) until every shard has run one.
pub fn warm_every_shard(
    mut solve: impl FnMut(BipartiteCsr) -> Result<usize, String>,
) -> Result<(), String> {
    let mut warmed = [false; SHARDS];
    for seed in 0..64 {
        warmed[solve(warm_up_graph(seed))?.min(SHARDS - 1)] = true;
        if warmed.iter().all(|&w| w) {
            return Ok(());
        }
    }
    Err("warm-up did not reach every shard".to_string())
}

/// When a run stops: at the first pass boundary after `seconds` at which
/// the clients together have `min_solves` solve samples, or at the first
/// request boundary after `hard_cap_s`.
#[derive(Clone, Copy, Debug)]
pub struct Limits {
    /// Measured seconds asked for.
    pub seconds: f64,
    /// Solve samples needed (so the p90 has ten samples beyond it).
    pub min_solves: usize,
    /// Safety stop.
    pub hard_cap_s: f64,
}

/// One timed request.
#[derive(Clone, Debug)]
pub struct Sample {
    /// Client thread.
    pub client: usize,
    /// Pass number (0-based) of that client.
    pub pass: usize,
    /// Index into the client's plan.
    pub index: usize,
    /// Latency class.
    pub kind: Kind,
    /// Round trip in milliseconds: send to parsed response.
    pub ms: f64,
    /// Answered `ok:true` and passed the oracle check.
    pub ok: bool,
    /// `queue_seconds` of a solve response.
    pub queue_s: Option<f64>,
    /// `service_seconds` of a solve response.
    pub service_s: Option<f64>,
    /// `report.modelled_device_seconds` of a GPU solve.
    pub modelled_s: Option<f64>,
}

/// What one run measured.
pub struct RunResult {
    /// Every timed request, per client in order.
    pub samples: Vec<Sample>,
    /// Wall seconds from the first send to the last client's stop.
    pub wall_s: f64,
    /// One line per failed request.
    pub failures: Vec<String>,
    /// The server's `stats` after the run.
    pub stats: Option<Value>,
    /// The server's `shards` after the run.
    pub shards: Option<Vec<Value>>,
    /// The traced run's spans and layer records (traced runs only).
    pub trace: Option<TraceOutput>,
}

/// Drives every client's plan in a closed loop until `limits` stop it.
/// With `traced`, each request is followed by the layer replays of
/// [`Replayer`], timed as spans.
pub fn drive(prep: &Prepared, limits: Limits, traced: bool) -> Result<RunResult, String> {
    let inputs = &prep.inputs;
    let replayer = if traced { Some(Replayer::new(inputs)?) } else { None };
    let solves = AtomicUsize::new(0);
    let epoch = Instant::now();
    let per_client: Vec<_> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..inputs.plans.len())
            .map(|client| {
                let (solves, replayer) = (&solves, replayer.as_ref());
                scope.spawn(move || run_client(prep, client, limits, epoch, solves, replayer))
            })
            .collect();
        handles.into_iter().map(|h| h.join().expect("client thread panicked")).collect()
    });
    let wall_s = epoch.elapsed().as_secs_f64();
    let mut result = RunResult {
        samples: Vec::new(),
        wall_s,
        failures: Vec::new(),
        stats: None,
        shards: None,
        trace: None,
    };
    let mut traces = Vec::new();
    for outcome in per_client {
        let (samples, failures, trace) = outcome?;
        result.samples.extend(samples);
        result.failures.extend(failures);
        traces.extend(trace);
    }
    if replayer.is_some() {
        result.trace = Some(crate::layers::merge(traces));
    }
    let mut client = Client::connect(prep.server.addr).map_err(|e| io_err("connect", e))?;
    result.stats = client.stats().ok();
    result.shards = client.shard_stats().ok();
    Ok(result)
}

type ClientOutcome<'a> = (Vec<Sample>, Vec<String>, Option<crate::layers::ClientTrace<'a>>);

fn run_client<'a>(
    prep: &Prepared,
    client_id: usize,
    limits: Limits,
    epoch: Instant,
    solves: &AtomicUsize,
    replayer: Option<&'a Replayer<'a>>,
) -> Result<ClientOutcome<'a>, String> {
    let inputs = &prep.inputs;
    let plan = &inputs.plans[client_id];
    let mut client = Client::connect(prep.server.addr).map_err(|e| io_err("connect", e))?;
    let mut trace = replayer.map(|r| r.client(epoch, client_id));
    let mut samples = Vec::new();
    let mut failures = Vec::new();
    for pass in 0.. {
        for (index, request) in plan.iter().enumerate() {
            if epoch.elapsed().as_secs_f64() >= limits.hard_cap_s {
                return Ok((samples, failures, trace));
            }
            let start_ns = epoch.elapsed().as_nanos() as u64;
            let started = Instant::now();
            let response = client.request(request.fields.clone());
            let ms = started.elapsed().as_secs_f64() * 1e3;
            let end_ns = epoch.elapsed().as_nanos() as u64;
            let checked = match &response {
                Ok(value) => check(inputs, &request.op, value),
                Err(e) => Err(format!("request failed: {e}")),
            };
            let value = response.as_ref().ok();
            let num = |key: &str| value.and_then(|v| v.get(key)).and_then(Value::as_f64);
            let modelled_s = value
                .and_then(|v| v.get("report"))
                .and_then(|r| r.get("modelled_device_seconds"))
                .and_then(Value::as_f64);
            if let Err(why) = &checked {
                failures.push(format!(
                    "{} client {client_id} pass {pass} request {index}: {why}",
                    inputs.workload
                ));
            }
            let kind = request.op.kind();
            if kind == Kind::Solve {
                solves.fetch_add(1, Ordering::Relaxed);
            }
            samples.push(Sample {
                client: client_id,
                pass,
                index,
                kind,
                ms,
                ok: checked.is_ok(),
                queue_s: num("queue_seconds"),
                service_s: num("service_seconds"),
                modelled_s,
            });
            if let Some(trace) = trace.as_mut() {
                if let Err(why) = trace.replay(request, pass, start_ns, end_ns) {
                    failures.push(format!(
                        "{} client {client_id} pass {pass} request {index}: replay: {why}",
                        inputs.workload
                    ));
                    samples.last_mut().expect("pushed above").ok = false;
                }
            }
            if let Err(e) = response {
                // `ok:false` leaves the connection usable; a transport error
                // does not.
                if e.kind() != io::ErrorKind::Other {
                    client =
                        Client::connect(prep.server.addr).map_err(|e| io_err("reconnect", e))?;
                }
            }
        }
        let elapsed = epoch.elapsed().as_secs_f64();
        if elapsed >= limits.seconds && solves.load(Ordering::Relaxed) >= limits.min_solves {
            break;
        }
    }
    Ok((samples, failures, trace))
}

/// Checks one `ok:true` response against the oracle.
fn check(inputs: &Inputs, op: &Op, response: &Value) -> Result<(), String> {
    let fingerprint = |want: u64| -> Result<(), String> {
        let got = response
            .get("fingerprint")
            .and_then(Value::as_str)
            .ok_or("no fingerprint in response")
            .and_then(|hex| fingerprint_from_hex(hex).map_err(|_| "bad fingerprint"))?;
        if got == want {
            Ok(())
        } else {
            Err(format!("fingerprint {got:#x}, expected {want:#x}"))
        }
    };
    match *op {
        Op::Solve { graph, include_matching, .. } => {
            let g = &inputs.graphs[graph];
            let cardinality = response
                .get("report")
                .and_then(|r| r.get("cardinality"))
                .and_then(Value::as_u64)
                .ok_or("no report.cardinality in response")?;
            if cardinality as usize != g.oracle {
                return Err(format!(
                    "{}: cardinality {cardinality}, oracle says {}",
                    g.name, g.oracle
                ));
            }
            if include_matching {
                let row_mates = response
                    .get("row_mates")
                    .and_then(Value::as_seq)
                    .ok_or("no row_mates in response")?;
                let matching =
                    matching_from_row_mates(row_mates, g.csr.num_rows(), g.csr.num_cols())?;
                verify::check_matching(&g.csr, &matching)
                    .map_err(|e| format!("{}: {e}", g.name))?;
                if matching.cardinality() != g.oracle {
                    return Err(format!(
                        "{}: row_mates hold {} pairs",
                        g.name,
                        matching.cardinality()
                    ));
                }
            }
            Ok(())
        }
        Op::Put { graph } => fingerprint(inputs.graphs[graph].fingerprint),
        Op::Patch { child, .. } => fingerprint(inputs.graphs[child].fingerprint),
        Op::Stats => response.get("stats").map(|_| ()).ok_or_else(|| "no stats".to_string()),
    }
}

/// Builds a matching from a wire `row_mates` array, rejecting anything out
/// of range or matched twice instead of panicking on it.
fn matching_from_row_mates(
    row_mates: &[Value],
    rows: usize,
    cols: usize,
) -> Result<Matching, String> {
    if row_mates.len() != rows {
        return Err(format!("row_mates has {} entries for {rows} rows", row_mates.len()));
    }
    let mut row_mate = Vec::with_capacity(rows);
    let mut col_mate = vec![-1i64; cols];
    for (r, v) in row_mates.iter().enumerate() {
        let c = match v {
            Value::I64(c) => *c,
            Value::U64(c) => i64::try_from(*c).unwrap_or(i64::MAX),
            _ => return Err(format!("row_mates[{r}] is not an integer")),
        };
        if c >= 0 {
            let slot = usize::try_from(c)
                .ok()
                .and_then(|c| col_mate.get_mut(c))
                .ok_or_else(|| format!("row_mates[{r}] = {c} is out of range"))?;
            if *slot >= 0 {
                return Err(format!("column {c} is matched twice"));
            }
            *slot = r as i64;
        }
        row_mate.push(c.max(-1));
    }
    Ok(Matching::from_raw(row_mate, col_mate))
}

/// Peak resident set (`VmHWM`) of this process, in MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// One pass of `workload` on a fresh server: its modelled device
    /// seconds and the request digest.
    fn one_pass(workload: Workload, seed: u64) -> (f64, u64) {
        let prep = setup(workload, seed, 2).unwrap();
        let limits = Limits { seconds: 0.0, min_solves: 0, hard_cap_s: 120.0 };
        let run = drive(&prep, limits, false).unwrap();
        let inputs = prep.stop().unwrap();
        assert!(run.failures.is_empty(), "{:?}", run.failures);
        assert!(run.samples.iter().all(|s| s.pass == 0 && s.ok));
        (crate::layers::modelled_device_s(&run), inputs.digest())
    }

    #[test]
    fn modelled_device_seconds_repeat_exactly_for_a_seed() {
        for workload in Workload::ALL {
            let (a, digest_a) = one_pass(workload, 5);
            let (b, digest_b) = one_pass(workload, 5);
            println!("{workload}: seed 5 digest {digest_a:016x}, modelled_device_s {a}");
            assert_eq!(digest_a, digest_b);
            assert!(a > 0.0, "{workload}: no GPU solves");
            assert_eq!(a.to_bits(), b.to_bits(), "{workload}: {a} vs {b}");
        }
    }

    #[test]
    fn row_mates_are_validated_without_panicking() {
        let ok = [Value::I64(1), Value::I64(-1), Value::I64(0)];
        let m = matching_from_row_mates(&ok, 3, 2).unwrap();
        assert_eq!(m.cardinality(), 2);
        assert!(matching_from_row_mates(&ok, 4, 2).unwrap_err().contains("entries"));
        let twice = [Value::I64(0), Value::I64(0)];
        assert!(matching_from_row_mates(&twice, 2, 2).unwrap_err().contains("twice"));
        let far = [Value::I64(9)];
        assert!(matching_from_row_mates(&far, 1, 2).unwrap_err().contains("range"));
        let text = [Value::Str("x".into())];
        assert!(matching_from_row_mates(&text, 1, 2).is_err());
    }
}
