//! The three daemon workloads: `ingest_large_reads`, `ingest_replicated`
//! and the ungated `ingest_small` (see [`crate::UNGATED_WORKLOADS`]).
//!
//! Each runs the daemon in this process on a state directory under the
//! checkout (a disk-backed filesystem; its type is recorded) and drives
//! it over loopback TCP with closed-loop clients: a feed sends its next
//! chunk only after the durable ack of the previous one. Chunks are a
//! pure function of `(seed, chunk index)`. After the run, the daemon's
//! state must equal an in-process `ServeCore` fed the acknowledged
//! chunks in order.
//!
//! The traced run spends half its time on the same TCP loop, untraced,
//! and the other half replaying the chunks in process with a span around
//! each public layer call, so the ledger can be read per layer.

use std::collections::HashMap;
use std::net::SocketAddr;
use std::path::Path;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant};

use crh_core::par::Pool;
use crh_core::rng::{hash_rng, Rng};
use crh_core::solver::{fit_and_deviations_into, PreparedProblem, SolverScratch};
use crh_core::table::{Claim, ObservationTable, TruthTable};
use crh_core::{ObjectId, PropertyId, Schema, SourceId, Value};
use crh_serve::proto::Request;
use crh_serve::{
    ChunkClaim, Client, ClusterClient, DiskFaultPlan, HaConfig, HaServer, NetFaultPlan,
    ReplicaConfig, RetryPolicy, Role, ServeConfig, ServeCore, ServeError, Server, ServerConfig,
    SimCluster, Vfs, Wal,
};
use crh_stream::ICrh;

use crate::trace::Tracer;
use crate::{host, stats, Args, Outcome};

/// I-CRH decay rate of every daemon.
const ALPHA: f64 = 0.5;
/// Sources feeding the daemon.
const SOURCES: u32 = 64;
/// Domain of the categorical property.
const LABELS: [&str; 8] = [
    "sunny", "cloudy", "rain", "snow", "fog", "wind", "storm", "hail",
];
/// Members of the replicated cluster.
const MEMBERS: u32 = 3;
/// Truth reads per chunk in the traced replay of `ingest_large_reads`.
const READS_PER_CHUNK: usize = 8;
/// Client and cluster-convergence timeouts.
const TIMEOUT: Duration = Duration::from_secs(10);

/// Shape of one ingest workload.
#[derive(Debug, Clone, Copy)]
struct Shape {
    objects: u32,
    chunk_claims: usize,
    reader: bool,
    replicated: bool,
    /// Acknowledged chunks after which `peak_rss_mb` is read, about half
    /// a run: the daemon's memory grows with every chunk it folds, so a
    /// reading at the end of a timed run would rise with throughput.
    rss_at: u64,
    /// Chunks per throughput window, a whole number of snapshot periods
    /// lasting about a fifth of a second, so every window does the same
    /// work and a run holds about a hundred of them.
    window_chunks: usize,
    /// Set-up repetitions; `setup_s` is their median. A single server
    /// starts in well under a millisecond, so it takes many more than a
    /// cluster, which waits for an election.
    setup_reps: usize,
}

fn shape(workload: &str) -> Shape {
    match workload {
        "ingest_small" => Shape {
            objects: 4096,
            chunk_claims: 16,
            reader: false,
            replicated: false,
            rss_at: 15_000,
            window_chunks: 512,
            setup_reps: 101,
        },
        "ingest_large_reads" => Shape {
            objects: 50_000,
            chunk_claims: 20_000,
            reader: true,
            replicated: false,
            rss_at: 200,
            window_chunks: 8,
            setup_reps: 101,
        },
        _ => Shape {
            objects: 4096,
            chunk_claims: 1000,
            reader: false,
            replicated: true,
            rss_at: 400,
            window_chunks: 8,
            setup_reps: 11,
        },
    }
}

/// Two continuous properties and one categorical one.
fn schema() -> Schema {
    let mut s = Schema::new();
    s.add_continuous("temperature");
    s.add_continuous("humidity");
    let cond = s.add_categorical("condition");
    for label in LABELS {
        s.intern(cond, label).expect("categorical property");
    }
    s
}

fn serve_config(dir: &Path) -> ServeConfig {
    ServeConfig::new(schema(), ALPHA, dir)
}

/// Deterministic chunk source: chunk `i` is a pure function of
/// `(seed, i)`. Source `s` is less reliable the larger `s` is.
#[derive(Debug, Clone, Copy)]
struct ChunkGen {
    seed: u64,
    shape: Shape,
}

impl ChunkGen {
    fn chunk(&self, i: u64) -> Vec<ChunkClaim> {
        let mut rng = hash_rng(self.seed, &[1, i]);
        (0..self.shape.chunk_claims)
            .map(|_| {
                let object = rng.random_range(0..self.shape.objects);
                let property = rng.random_range(0..3u32);
                let source = rng.random_range(0..SOURCES);
                let value = self.value(object, property, source, &mut rng);
                ChunkClaim {
                    object,
                    property,
                    source,
                    value,
                }
            })
            .collect()
    }

    fn value(&self, object: u32, property: u32, source: u32, rng: &mut impl Rng) -> Value {
        let truth: f64 = hash_rng(self.seed, &[2, u64::from(object), u64::from(property)]).random();
        let unreliability = f64::from(source) / f64::from(SOURCES);
        if property == 2 {
            let n = LABELS.len() as u32;
            let label = if rng.random::<f64>() < 0.95 - 0.6 * unreliability {
                (truth * f64::from(n)) as u32 % n
            } else {
                rng.random_range(0..n)
            };
            Value::Cat(label)
        } else {
            let t = 10.0 + 90.0 * truth;
            let spread = (0.01 + 0.3 * unreliability) * t;
            Value::Num(t + (rng.random::<f64>() - 0.5) * 2.0 * spread)
        }
    }
}

fn to_claims(chunk: &[ChunkClaim]) -> Vec<Claim> {
    chunk
        .iter()
        .map(|c| Claim {
            object: ObjectId(c.object),
            property: PropertyId(c.property),
            source: SourceId(c.source),
            value: c.value.clone(),
        })
        .collect()
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

/// The daemon under test.
enum Daemon {
    Single(Server),
    Cluster(Vec<HaServer>),
}

impl Daemon {
    fn start(shape: Shape, dir: &Path) -> Result<Self, String> {
        if !shape.replicated {
            let (core, _) = ServeCore::open(serve_config(dir)).map_err(err)?;
            let server =
                Server::start(core, ServerConfig::default(), "127.0.0.1:0").map_err(err)?;
            return Ok(Self::Single(server));
        }
        let addrs = free_addrs(MEMBERS as usize)?;
        let all: Vec<u32> = (0..MEMBERS).collect();
        let mut members = Vec::with_capacity(addrs.len());
        for (id, addr) in addrs.iter().enumerate() {
            let cfg = HaConfig {
                peer_addrs: addrs
                    .iter()
                    .enumerate()
                    .filter(|(j, _)| *j != id)
                    .map(|(j, a)| (j as u32, a.clone()))
                    .collect(),
                ..HaConfig::default()
            };
            let serve = serve_config(&dir.join(format!("n{id}")));
            let replica = ReplicaConfig::new(id as u32, &all);
            members.push(HaServer::start(replica, serve, cfg, addr).map_err(err)?);
        }
        let start = Instant::now();
        while !members.iter().any(|m| m.role() == Role::Primary) {
            if start.elapsed() > TIMEOUT {
                return Err("no primary elected".into());
            }
            std::thread::sleep(Duration::from_millis(1));
        }
        Ok(Self::Cluster(members))
    }

    fn addrs(&self) -> Vec<SocketAddr> {
        match self {
            Self::Single(s) => vec![s.addr()],
            Self::Cluster(m) => m.iter().map(HaServer::addr).collect(),
        }
    }

    fn feed(&self) -> Result<Feed, String> {
        let addrs = self.addrs();
        match self {
            Self::Single(_) => Ok(Feed::One(Client::connect(addrs[0], TIMEOUT).map_err(err)?)),
            Self::Cluster(_) => Ok(Feed::Cluster(ClusterClient::new(
                addrs
                    .iter()
                    .enumerate()
                    .map(|(i, a)| (i as u32, a.to_string()))
                    .collect(),
                TIMEOUT,
                RetryPolicy::default(),
            ))),
        }
    }

    fn shutdown(self) {
        match self {
            Self::Single(s) => s.shutdown(),
            Self::Cluster(m) => m.into_iter().for_each(HaServer::shutdown),
        }
    }
}

/// Loopback addresses free right now.
fn free_addrs(n: usize) -> Result<Vec<String>, String> {
    let held: Vec<std::net::TcpListener> = (0..n)
        .map(|_| std::net::TcpListener::bind("127.0.0.1:0"))
        .collect::<Result<_, _>>()
        .map_err(err)?;
    held.iter()
        .map(|l| l.local_addr().map(|a| a.to_string()).map_err(err))
        .collect()
}

/// A closed-loop ingest client.
enum Feed {
    One(Client),
    Cluster(ClusterClient),
}

impl Feed {
    fn ingest(&mut self, claims: Vec<ChunkClaim>) -> Result<(u64, u64), ServeError> {
        match self {
            Self::One(c) => c.ingest(claims),
            Self::Cluster(c) => c.ingest(claims),
        }
    }
}

/// What one closed-loop TCP phase measured.
#[derive(Debug, Default)]
struct TcpRun {
    acks_ms: Vec<f64>,
    /// When each acknowledgement arrived, in seconds from the start.
    acked_at_s: Vec<f64>,
    reads_ms: Vec<f64>,
    read_hits: u64,
    acked: u64,
    acked_claims: u64,
    seconds: f64,
    /// Peak RSS after `Shape::rss_at` acknowledged chunks (or at the
    /// end, if the run acknowledged fewer).
    peak_rss_mb: f64,
    attempted: u64,
    failures: Vec<String>,
}

/// Drive `daemon` with one closed-loop feed (plus one closed-loop reader
/// on keys of the latest acknowledged chunk) for `budget`.
fn tcp_phase(daemon: &Daemon, gen: ChunkGen, budget: Duration) -> Result<TcpRun, String> {
    let mut feed = daemon.feed()?;
    let latest: Mutex<Arc<Vec<(u32, u32)>>> = Mutex::new(Arc::new(Vec::new()));
    let stop = AtomicBool::new(false);
    let addr = daemon.addrs()[0];
    let mut run = TcpRun::default();
    std::thread::scope(|scope| -> Result<(), String> {
        let reader = gen.shape.reader.then(|| {
            let (latest, stop) = (&latest, &stop);
            scope.spawn(move || read_loop(addr, gen.seed, latest, stop))
        });
        let start = Instant::now();
        let mut i = 0u64;
        while start.elapsed() < budget {
            let claims = gen.chunk(i);
            let n = claims.len() as u64;
            let keys: Vec<(u32, u32)> = if gen.shape.reader {
                claims.iter().map(|c| (c.object, c.property)).collect()
            } else {
                Vec::new()
            };
            run.attempted += 1;
            let t0 = Instant::now();
            let res = feed.ingest(claims);
            let dt = t0.elapsed().as_secs_f64() * 1e3;
            match res {
                Ok((seq, _)) if seq == i => {
                    run.acks_ms.push(dt);
                    run.acked_at_s.push(start.elapsed().as_secs_f64());
                    run.acked += 1;
                    run.acked_claims += n;
                    if run.acked == gen.shape.rss_at {
                        run.peak_rss_mb = host::peak_rss_mb();
                    }
                    if gen.shape.reader {
                        *latest.lock().expect("key list lock") = Arc::new(keys);
                    }
                }
                Ok((seq, _)) => {
                    run.failures.push(format!("chunk {i} acked as seq {seq}"));
                    break;
                }
                Err(e) => {
                    run.failures.push(format!("chunk {i}: {e}"));
                    break;
                }
            }
            i += 1;
        }
        run.seconds = start.elapsed().as_secs_f64();
        if run.acked < gen.shape.rss_at {
            run.peak_rss_mb = host::peak_rss_mb();
        }
        stop.store(true, Ordering::SeqCst);
        if let Some(h) = reader {
            let r = h.join().map_err(|_| "reader panicked".to_string())??;
            run.reads_ms = r.reads_ms;
            run.read_hits = r.read_hits;
            run.attempted += r.attempted;
            run.failures.extend(r.failures);
        }
        Ok(())
    })?;
    Ok(run)
}

/// Closed-loop truth reads on keys of the latest acknowledged chunk.
fn read_loop(
    addr: SocketAddr,
    seed: u64,
    latest: &Mutex<Arc<Vec<(u32, u32)>>>,
    stop: &AtomicBool,
) -> Result<TcpRun, String> {
    let mut client = Client::connect(addr, TIMEOUT).map_err(err)?;
    let mut rng = hash_rng(seed, &[3]);
    let mut run = TcpRun::default();
    while !stop.load(Ordering::SeqCst) {
        let keys = Arc::clone(&latest.lock().expect("key list lock"));
        if keys.is_empty() {
            std::thread::sleep(Duration::from_micros(200));
            continue;
        }
        let (object, property) = keys[rng.random_range(0..keys.len())];
        run.attempted += 1;
        let t0 = Instant::now();
        match client.truth(object, property) {
            Ok(t) => {
                run.reads_ms.push(t0.elapsed().as_secs_f64() * 1e3);
                run.read_hits += u64::from(t.is_some());
            }
            Err(e) => {
                run.failures
                    .push(format!("truth({object}, {property}): {e}"));
                break;
            }
        }
    }
    Ok(run)
}

/// Digest of an in-process `ServeCore` fed chunks `0..n` in order. Its
/// fsyncs are skipped and it takes no snapshots: durability is not what
/// this reference checks, and a snapshot leaves the digested state
/// (weights, accumulated distances, cached truths) as it was. So the
/// check adds little disk traffic to the next run's measurement.
fn reference_digest(gen: ChunkGen, n: u64, dir: &Path) -> Result<u64, String> {
    let vfs =
        Vfs::faulted(DiskFaultPlan::new(0).lying_fsyncs(1.0).max_faults(u64::MAX)).map_err(err)?;
    let cfg = serve_config(dir).vfs(vfs).snapshot_every(u64::MAX);
    let (mut core, _) = ServeCore::open(cfg).map_err(err)?;
    for i in 0..n {
        core.ingest(&gen.chunk(i)).map_err(err)?;
    }
    Ok(core.state_digest())
}

/// Put a tail percentile, or note why it was refused.
fn put_tail(out: &mut Outcome, name: &str, sorted: &[f64], p: f64) {
    match stats::tail_percentile(sorted, p) {
        Ok(v) => out.put(name, v, "ms"),
        Err(why) => out.set(&format!("{name}_refused"), why),
    }
}

pub fn run(args: &Args, workload: &str) -> Result<Outcome, String> {
    let shape = shape(workload);
    let gen = ChunkGen {
        seed: args.seed,
        shape,
    };
    let mut out = Outcome::default();
    let daemon_dir = args.state_dir.join("daemon");

    // set-up, repeated on fresh directories; the last daemon is kept
    let mut setup_times = Vec::with_capacity(shape.setup_reps);
    let mut daemon: Option<Daemon> = None;
    for _ in 0..shape.setup_reps {
        if let Some(d) = daemon.take() {
            d.shutdown();
            std::fs::remove_dir_all(&daemon_dir).map_err(err)?;
        }
        let t0 = Instant::now();
        daemon = Some(Daemon::start(shape, &daemon_dir)?);
        setup_times.push(t0.elapsed().as_secs_f64());
    }
    let daemon = daemon.ok_or("no set-up ran")?;
    out.put("setup_s", stats::median(&setup_times), "s");
    let rss_after_setup = host::rss_mb();

    let defaults = serve_config(&daemon_dir);
    out.set("state_fs", host::fs_type(&daemon_dir));
    out.set("flush_policy", "fsync on every WAL append");
    out.set("snapshot_every_chunks", defaults.snapshot_every);
    out.set("truth_cache_cap", defaults.truth_cache_cap);
    out.set(
        "solver_threads",
        Pool::new(defaults.solve_threads).threads(),
    );
    out.set("alpha", ALPHA);
    out.set("objects", shape.objects);
    out.set("claims_per_chunk", shape.chunk_claims);
    out.set("sources", SOURCES);
    out.set(
        "clients",
        if shape.reader {
            "1 ingest + 1 reader, closed loop"
        } else {
            "1 ingest, closed loop"
        },
    );
    if shape.replicated {
        let ha = HaConfig::default();
        out.set("members", MEMBERS);
        out.set("replication_tick_ms", ha.tick.as_secs_f64() * 1e3);
    }

    let budget = Duration::from_secs(args.seconds);
    let tcp_budget = if args.trace { budget / 2 } else { budget };
    let tcp = tcp_phase(&daemon, gen, tcp_budget)?;
    out.put("peak_rss_mb", tcp.peak_rss_mb, "MiB");
    out.put("peak_rss_end_mb", host::peak_rss_mb(), "MiB");
    out.put("rss_growth_mb", host::rss_mb() - rss_after_setup, "MiB");
    out.attempted += tcp.attempted;
    for f in &tcp.failures {
        out.fail(f.clone());
    }

    let acks = stats::sorted(&tcp.acks_ms);
    out.put("op_p50_ms", stats::median(&acks), "ms");
    out.put("ack_p50_ms", stats::median(&acks), "ms");
    put_tail(&mut out, "ack_p99_ms", &acks, 99.0);
    put_tail(&mut out, "ack_p90_ms", &acks, 90.0);
    out.put("acks", acks.len() as f64, "count");
    // throughput of the median window: a disk stall on a shared host
    // slows a few windows, not the figure, as it would a whole-run mean
    let rates = stats::window_rates(
        &tcp.acked_at_s,
        shape.chunk_claims as f64,
        shape.window_chunks,
    );
    out.put("claims_per_s", stats::median(&rates), "claims/s");
    out.put("throughput_windows", rates.len() as f64, "count");
    out.put(
        "claims_per_s_whole_run",
        tcp.acked_claims as f64 / tcp.seconds.max(1e-9),
        "claims/s",
    );
    if shape.reader {
        let reads = stats::sorted(&tcp.reads_ms);
        out.put("read_p50_ms", stats::median(&reads), "ms");
        put_tail(&mut out, "read_p99_ms", &reads, 99.0);
        out.put("reads", reads.len() as f64, "count");
        out.put(
            "read_hit_ratio",
            tcp.read_hits as f64 / reads.len().max(1) as f64,
            "ratio",
        );
    }

    // output checks: the daemon's state equals an in-process replay of
    // the acknowledged chunks
    let expected = reference_digest(gen, tcp.acked, &args.state_dir.join("reference"))?;
    match daemon {
        Daemon::Single(server) => {
            server.shutdown();
            let (core, _) = ServeCore::open(serve_config(&daemon_dir)).map_err(err)?;
            let got = core.state_digest();
            out.check(got == expected, || {
                format!("reopened state {got:016x} != replay {expected:016x}")
            });
            out.check(core.chunks_seen() == tcp.acked, || {
                format!("{} chunks folded, {} acked", core.chunks_seen(), tcp.acked)
            });
        }
        Daemon::Cluster(members) => {
            let start = Instant::now();
            let converged = |m: &[HaServer]| {
                m.iter()
                    .all(|s| s.commit() >= tcp.acked && s.state_digest() == expected)
            };
            while !converged(&members) && start.elapsed() < TIMEOUT {
                std::thread::sleep(Duration::from_millis(5));
            }
            for (id, m) in members.iter().enumerate() {
                let got = m.state_digest();
                out.check(got == expected, || {
                    format!("member {id} state {got:016x} != replay {expected:016x}")
                });
            }
            Daemon::Cluster(members).shutdown();
        }
    }

    if args.trace {
        let replay_budget = if shape.replicated {
            budget / 4
        } else {
            budget / 2
        };
        let mut tracer = traced_replay(args, gen, replay_budget, &tcp, &mut out)?;
        if shape.replicated {
            traced_replication(args, gen, budget / 4, &tcp, &mut tracer, &mut out)?;
        }
        crate::finish_trace(&mut out, &tracer, args)?;
    }
    Ok(out)
}

/// In-process replay of the workload's chunks with a span around every
/// public layer call. Per chunk, the served path (encode, decode,
/// `ServeCore::ingest`) runs under one root; the stages that
/// `ServeCore::ingest` performs internally are then timed one by one on
/// shadow instances (own WAL, own I-CRH state) under a second root with
/// the same chunk id, so the ledger can subtract them from the ingest
/// time. Blocks of one snapshot period alternate between traced and
/// untraced, which gives the tracing overhead on the same core.
fn traced_replay(
    args: &Args,
    gen: ChunkGen,
    budget: Duration,
    tcp: &TcpRun,
    out: &mut Outcome,
) -> Result<Tracer, String> {
    let dir = args.state_dir.join("traced");
    let cfg = serve_config(&dir.join("core"));
    let every = cfg.snapshot_every;
    let threads = cfg.solve_threads;
    let (mut core, _) = ServeCore::open(cfg).map_err(err)?;
    let (mut wal, _) = Wal::open(dir.join("shadow.wal"), &Vfs::passthrough()).map_err(err)?;
    let mut fold = ICrh::new(ALPHA).map_err(err)?.threads(threads).start();
    let pool = Pool::new(threads);
    let schema = core.schema().clone();
    let no_overrides = HashMap::new();
    let mut rng = hash_rng(args.seed, &[4]);

    let mut on = Tracer::new(true);
    let mut off = Tracer::new(false);
    let (mut traced_roots, mut plain_roots) = (Vec::new(), Vec::new());
    let (mut traced_claims, mut wal_bytes, mut frame_bytes) = (0u64, 0u64, 0u64);
    let (mut reads, mut hits) = (0u64, 0u64);
    let mut snapshot_bytes = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget || i < 2 * every {
        let claims = gen.chunk(i);
        let traced = (i / every) % 2 == 1;
        let t = if traced { &mut on } else { &mut off };

        // the served path
        let t0 = Instant::now();
        let root = t.begin("op.chunk", i, None);
        let bytes = t.span("serve.proto.encode", i, Some(root), || {
            Request::Ingest(claims).encode()
        });
        let decoded = t.span("serve.proto.decode", i, Some(root), || {
            Request::decode(&bytes)
        });
        let Ok(Request::Ingest(decoded)) = decoded else {
            return Err(format!("chunk {i} did not decode to an ingest"));
        };
        t.span("serve.core.ingest", i, Some(root), || core.ingest(&decoded))
            .map_err(err)?;
        t.end(root);
        let root_ms = t0.elapsed().as_secs_f64() * 1e3;

        // the stages of ServeCore::ingest, one public call each
        let stages = t.begin("op.stages", i, None);
        let before = wal.len_bytes();
        t.span("serve.wal.append", i, Some(stages), || wal.append(&bytes))
            .map_err(err)?;
        let appended = wal.len_bytes() - before;
        let table = t
            .span("core.table.build", i, Some(stages), || {
                ObservationTable::from_claims(schema.clone(), to_claims(&decoded))
            })
            .map_err(err)?;
        t.span("stream.icrh.process_chunk", i, Some(stages), || {
            fold.process_chunk(&table)
        })
        .map_err(err)?;
        let prepared = t
            .span("core.columnar.prepare", i, Some(stages), || {
                PreparedProblem::new_with_layout(&table, &no_overrides, true)
            })
            .map_err(err)?;
        let mut scratch = SolverScratch::for_table(&table);
        let mut truths = TruthTable::new(Vec::new());
        let weights = fold.weights().to_vec();
        t.span("core.kernels.sweep", i, Some(stages), || {
            fit_and_deviations_into(&prepared, &weights, &pool, &mut truths, &mut scratch);
        });
        if (i + 1).is_multiple_of(every) {
            t.span("serve.core.snapshot", i, Some(stages), || {
                core.snapshot_now()
            })
            .map_err(err)?;
            if traced {
                snapshot_bytes.push(core.checkpoint_bytes().len() as f64);
            }
            wal.rotate(dir.join("shadow.prev.wal")).map_err(err)?;
        }
        t.end(stages);

        if gen.shape.reader {
            for _ in 0..READS_PER_CHUNK {
                let c = &decoded[rng.random_range(0..decoded.len())];
                let hit = t.span("serve.core.truth", i, None, || {
                    core.truth(c.object, c.property)
                });
                if traced {
                    reads += 1;
                    hits += u64::from(hit.is_some());
                }
            }
        }

        if traced {
            traced_roots.push(root_ms);
            traced_claims += decoded.len() as u64;
            wal_bytes += appended;
            frame_bytes += bytes.len() as u64;
        } else {
            plain_roots.push(root_ms);
        }
        i += 1;
    }
    out.check(core.weights() == fold.weights(), || {
        "shadow I-CRH weights drifted from the daemon core".into()
    });
    out.put("replayed_chunks", i as f64, "count");

    let t = &on;
    // mean duration of one span, so per chunk except for the snapshot,
    // which the ledger amortizes over the traced chunks
    let mean_ms = |name: &str| stats::mean(&t.durations(name));
    let chunks = traced_roots.len().max(1) as f64;
    let ingest = mean_ms("serve.core.ingest");
    let staged = mean_ms("serve.wal.append")
        + mean_ms("core.table.build")
        + mean_ms("stream.icrh.process_chunk")
        + t.durations("serve.core.snapshot").iter().sum::<f64>() / chunks;
    let per_claim = |bytes: u64| bytes as f64 / traced_claims.max(1) as f64;
    out.put("core.table.build_ms", mean_ms("core.table.build"), "ms");
    out.put(
        "core.columnar.prepare_ms",
        mean_ms("core.columnar.prepare"),
        "ms",
    );
    out.put("core.kernels.sweep_ms", mean_ms("core.kernels.sweep"), "ms");
    out.put(
        "stream.icrh.process_chunk_ms",
        mean_ms("stream.icrh.process_chunk"),
        "ms",
    );
    out.put(
        "stream.icrh.weight_history_len",
        fold.weight_history().len() as f64,
        "count",
    );
    out.put("serve.proto.encode_ms", mean_ms("serve.proto.encode"), "ms");
    out.put("serve.proto.decode_ms", mean_ms("serve.proto.decode"), "ms");
    out.put(
        "serve.proto.frame_bytes_per_claim",
        per_claim(frame_bytes),
        "bytes",
    );
    out.put("serve.wal.append_ms", mean_ms("serve.wal.append"), "ms");
    out.put("serve.wal.bytes_per_claim", per_claim(wal_bytes), "bytes");
    out.put(
        "serve.core.snapshot_ms",
        mean_ms("serve.core.snapshot"),
        "ms",
    );
    out.put(
        "serve.core.snapshot_bytes",
        stats::mean(&snapshot_bytes),
        "bytes",
    );
    out.put("serve.core.ingest_ms", ingest, "ms");
    out.put("serve.core.unattributed_ms", ingest - staged, "ms");
    out.put(
        "trace.overhead_ms",
        stats::median(&traced_roots) - stats::median(&plain_roots),
        "ms",
    );
    if !gen.shape.replicated {
        out.put(
            "serve.server.ack_overhead_ms",
            stats::mean(&tcp.acks_ms) - ingest,
            "ms",
        );
    }
    if gen.shape.reader {
        let truth = mean_ms("serve.core.truth");
        out.put("serve.core.truth_ms", truth, "ms");
        out.put(
            "serve.cache.hit_ratio",
            hits as f64 / reads.max(1) as f64,
            "ratio",
        );
        out.put(
            "serve.server.read_wait_ms",
            stats::mean(&tcp.reads_ms) - truth,
            "ms",
        );
    }
    Ok(on)
}

/// Replicated staging and commit in the stepped `SimCluster`: the
/// primary's `ReplicaNode::client_ingest` is timed per chunk, and the
/// logical steps until the chunk commits are counted.
fn traced_replication(
    args: &Args,
    gen: ChunkGen,
    budget: Duration,
    tcp: &TcpRun,
    t: &mut Tracer,
    out: &mut Outcome,
) -> Result<(), String> {
    let base = args.state_dir.join("sim");
    let mut sim = SimCluster::new(
        MEMBERS as usize,
        |id| serve_config(&base.join(format!("n{id}"))),
        NetFaultPlan::new(args.seed),
    )
    .map_err(err)?;
    let mut steps_left = 1000;
    while sim.primary().is_none() && steps_left > 0 {
        sim.step().map_err(err)?;
        steps_left -= 1;
    }
    let mut steps_per_commit = Vec::new();
    let start = Instant::now();
    let mut i = 0u64;
    while start.elapsed() < budget || i < 2 {
        let claims = gen.chunk(i);
        let primary = sim.primary().ok_or("no primary in the simulated cluster")?;
        let node = sim.node_mut(primary).ok_or("primary vanished")?;
        let seq = t
            .span("serve.replicate.stage", i, None, || {
                node.client_ingest(&claims)
            })
            .map_err(err)?;
        let mut steps = 0u64;
        while !sim.is_committed(seq) {
            if steps > 1000 {
                return Err(format!("chunk {i} did not commit in 1000 steps"));
            }
            sim.step().map_err(err)?;
            steps += 1;
        }
        steps_per_commit.push(steps as f64);
        i += 1;
    }
    let stage = stats::mean(&t.durations("serve.replicate.stage"));
    let proto = stats::mean(&t.durations("serve.proto.encode"))
        + stats::mean(&t.durations("serve.proto.decode"));
    out.put("serve.replicate.stage_ms", stage, "ms");
    out.put(
        "serve.replicate.commit_wait_ms",
        stats::mean(&tcp.acks_ms) - stage - proto,
        "ms",
    );
    out.put(
        "serve.replicate.steps_per_commit",
        stats::mean(&steps_per_commit),
        "count",
    );
    Ok(())
}
