//! The traced run's two halves: a span recorder with an in-process replay of
//! a workload's request sequence, and timings of single layers called through
//! their public functions.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::io::{Read, Write};
use std::net::{TcpListener, TcpStream};
use std::sync::Barrier;
use std::time::{Duration, Instant};

use ptrng_engine::audit::{EntropyAudit, DEFAULT_EVERY_LANE_CADENCE};
use ptrng_engine::expanded::ExpandedTap;
use ptrng_engine::health::{HealthConfig, HealthMonitor};
use ptrng_engine::pool::{ConditionerSpec, Engine, EngineConfig};
use ptrng_engine::source::EntropySource;
use ptrng_engine::stream::BitPacker;
use ptrng_serve::cli::EngineArgs;
use ptrng_serve::http::{encode_chunk, encode_chunk_end, ChunkedWriter, Request, ResponseHead};
use ptrng_stats::seed::derive_seed;
use ptrng_trng::conditioning::{ConditioningChain, EntropyLedger};
use ptrng_trng::drbg::HashDrbg;
use ptrng_trng::sha256::{compress_block, BLOCK_BYTES, INITIAL_STATE};

use crate::stats::{median, quantile, Digest};
use crate::workload::{Replica, Tier, Workload, CHUNK_BYTES};

/// One timed call into a layer. Spans of one request share `request`.
struct Span {
    request: u32,
    name: &'static str,
    parent: Option<usize>,
    start_ns: u64,
    end_ns: u64,
}

/// In-memory span recorder. Disabled, it reads no clock and stores nothing,
/// which is the untraced baseline for `trace.overhead_pct`.
pub struct Tracer {
    enabled: bool,
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
}

impl Tracer {
    pub fn new(enabled: bool) -> Self {
        Self {
            enabled,
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
        }
    }

    fn begin(&mut self, request: u32, name: &'static str) {
        if !self.enabled {
            return;
        }
        let start_ns = self.epoch.elapsed().as_nanos() as u64;
        self.spans.push(Span {
            request,
            name,
            parent: self.open.last().copied(),
            start_ns,
            end_ns: start_ns,
        });
        self.open.push(self.spans.len() - 1);
    }

    fn end(&mut self) {
        if !self.enabled {
            return;
        }
        let index = self.open.pop().expect("end matches a begin");
        self.spans[index].end_ns = self.epoch.elapsed().as_nanos() as u64;
    }

    fn span<R>(&mut self, request: u32, name: &'static str, f: impl FnOnce() -> R) -> R {
        self.begin(request, name);
        let result = f();
        self.end();
        result
    }

    pub fn span_count(&self) -> usize {
        self.spans.len()
    }

    /// Writes every span as one JSON line: request id, name, parent index,
    /// start and end in nanoseconds since the replay began.
    pub fn write_jsonl(&self, path: &std::path::Path) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut out = std::io::BufWriter::new(std::fs::File::create(path)?);
        for (index, span) in self.spans.iter().enumerate() {
            let parent = span.parent.map_or("null".to_string(), |p| p.to_string());
            writeln!(
                out,
                "{{\"span\": {index}, \"request\": {}, \"name\": \"{}\", \"parent\": {parent}, \"start_ns\": {}, \"end_ns\": {}}}",
                span.request, span.name, span.start_ns, span.end_ns
            )?;
        }
        out.flush()
    }

    /// Total self time per span name, in nanoseconds: each span's duration
    /// minus the part of it its children cover.
    pub fn self_ns(&self) -> BTreeMap<&'static str, u64> {
        let mut child_ns = vec![0u64; self.spans.len()];
        for span in &self.spans {
            if let Some(parent) = span.parent {
                child_ns[parent] += span.end_ns - span.start_ns;
            }
        }
        let mut totals = BTreeMap::new();
        for (span, children) in self.spans.iter().zip(child_ns) {
            *totals.entry(span.name).or_insert(0) +=
                (span.end_ns - span.start_ns).saturating_sub(children);
        }
        totals
    }
}

/// A loopback socket whose far end is drained by a thread, standing in for
/// the client's receive side.
struct Sink {
    stream: TcpStream,
    reader: std::thread::JoinHandle<u64>,
}

impl Sink {
    fn open() -> std::io::Result<Self> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let stream = TcpStream::connect(listener.local_addr()?)?;
        let (mut far, _) = listener.accept()?;
        let reader = std::thread::spawn(move || {
            let mut buf = vec![0u8; 1 << 18];
            let mut total = 0u64;
            while let Ok(n) = far.read(&mut buf) {
                if n == 0 {
                    break;
                }
                total += n as u64;
            }
            total
        });
        Ok(Self { stream, reader })
    }

    fn close(self) -> u64 {
        drop(self.stream);
        self.reader.join().unwrap_or(0)
    }
}

/// The engine's shard pipeline for shard 0, built from the engine
/// configuration exactly as the engine builds it, and run inline so that
/// each stage can be timed: source → health → audit → conditioning →
/// health → audit → bit packing.
struct Pipeline {
    source: Box<dyn EntropySource>,
    monitor: HealthMonitor,
    chain: ConditioningChain,
    identity: bool,
    raw_audit: Option<EntropyAudit>,
    output_audit: Option<EntropyAudit>,
    output_ledger: EntropyLedger,
    packer: BitPacker,
    raw: Vec<u8>,
    conditioned: Vec<u8>,
    pending: Vec<u8>,
    cursor: usize,
}

fn err(e: impl std::fmt::Display) -> String {
    e.to_string()
}

impl Pipeline {
    fn new(config: &EngineConfig) -> Result<Self, String> {
        let source = config
            .spec
            .build(derive_seed(config.seed, 0))
            .map_err(err)?;
        let raw_ledger =
            EntropyLedger::source(&source.label(), source.entropy_per_bit()).map_err(err)?;
        let output_ledger = config.conditioner.ledger(&raw_ledger).map_err(err)?;
        let identity = config.conditioner.is_identity();
        let (raw_audit, output_audit) = match &config.audit {
            Some(audit) => {
                let raw_config = if identity {
                    audit.clone()
                } else {
                    audit.clone().claim(None)
                };
                let raw = EntropyAudit::new("raw", raw_ledger.min_entropy_per_bit(), raw_config)
                    .map_err(err)?;
                let output = (!identity)
                    .then(|| {
                        EntropyAudit::new(
                            "conditioned",
                            output_ledger.min_entropy_per_bit(),
                            audit.clone(),
                        )
                    })
                    .transpose()
                    .map_err(err)?;
                (Some(raw), output)
            }
            None => (None, None),
        };
        Ok(Self {
            monitor: HealthMonitor::new(&config.health, &raw_ledger).map_err(err)?,
            chain: config.conditioner.build().map_err(err)?,
            identity,
            raw: vec![0u8; config.batch_bits],
            source,
            raw_audit,
            output_audit,
            output_ledger,
            packer: BitPacker::new(),
            conditioned: Vec::new(),
            pending: Vec::new(),
            cursor: 0,
        })
    }

    /// Generates one batch, one span per stage.
    fn batch(&mut self, tr: &mut Tracer, request: u32) -> Result<(), String> {
        let Self {
            source,
            monitor,
            chain,
            identity,
            raw_audit,
            output_audit,
            packer,
            raw,
            conditioned,
            pending,
            ..
        } = self;
        tr.span(request, "engine.source", || source.fill_bits(raw))
            .map_err(err)?;
        tr.span(request, "engine.health", || {
            monitor.observe_bits(raw).map(|_| ())
        })
        .map_err(err)?;
        if let Some(audit) = raw_audit {
            tr.span(request, "engine.audit", || {
                audit.observe_bits(raw).map(|_| ())
            })
            .map_err(err)?;
        }
        let processed: &[u8] = if *identity {
            raw
        } else {
            conditioned.clear();
            tr.span(request, "trng.conditioning", || {
                chain.process(raw, conditioned)
            })
            .map_err(err)?;
            conditioned
        };
        tr.span(request, "engine.health", || {
            monitor.observe_output_bits(processed).map(|_| ())
        })
        .map_err(err)?;
        if monitor.is_alarmed() {
            return Err(format!("health alarm: {:?}", monitor.state()));
        }
        if let Some(audit) = output_audit {
            tr.span(request, "engine.audit", || {
                audit.observe_bits(processed).map(|_| ())
            })
            .map_err(err)?;
        }
        let bytes = tr.span(request, "engine.pack", || {
            packer.push_bits(processed);
            packer.drain_bytes()
        });
        pending.extend_from_slice(&bytes);
        Ok(())
    }

    fn draw(&mut self, tr: &mut Tracer, request: u32, out: &mut [u8]) -> Result<(), String> {
        while self.pending.len() - self.cursor < out.len() {
            self.batch(tr, request)?;
        }
        out.copy_from_slice(&self.pending[self.cursor..self.cursor + out.len()]);
        self.cursor += out.len();
        if self.cursor > 1 << 20 {
            self.pending.drain(..self.cursor);
            self.cursor = 0;
        }
        Ok(())
    }
}

/// What a replay produced.
pub struct Replay {
    pub tracer: Tracer,
    pub digests: Vec<u64>,
    /// Wall time of every request after the first.
    pub elapsed_s: f64,
}

/// Replays up to `requests` requests of `workload` in order, stopping early
/// once `budget` has passed, through the calls the
/// server makes for each: head parse, draws at the server's sizes, chunk
/// framing, and one socket write per pump. `/random` draws go through a real
/// `ExpandedTap`; `/entropy` runs the engine's shard pipeline inline, so its
/// stages show as their own spans. Each body's digest is kept for comparison
/// with the served stream.
pub fn replay(
    workload: &Workload,
    seed: u64,
    requests: usize,
    budget: Duration,
    traced: bool,
    request_head: &[u8],
) -> Result<Replay, String> {
    let mut tr = Tracer::new(traced);
    let (config, _) = workload.engine_config(seed)?;
    enum Supply {
        Random(Replica),
        Entropy(Box<Pipeline>),
    }
    let mut supply = match workload.tier {
        Tier::Random => Supply::Random(Replica::spawn(workload, seed)?),
        Tier::Entropy => Supply::Entropy(Box::new(Pipeline::new(&config)?)),
    };
    let plan = workload.draw_plan();
    let mut sink = Sink::open().map_err(err)?;
    let mut body = vec![0u8; workload.bytes];
    let mut framed = Vec::with_capacity(4 * CHUNK_BYTES + 512);
    let mut digests = Vec::with_capacity(requests);
    let start = Instant::now();
    // Timed from the end of the first request, which also pays for the
    // engine's start and the DRBG instantiation.
    let mut steady = start;
    for request in 0..requests as u32 {
        tr.begin(request, "request");
        tr.span(request, "serve.parse", || {
            black_box(Request::parse_head(request_head))
        })
        .map_err(err)?;
        // The head as the server renders it for every response, ledger
        // header included.
        let ledger = match &supply {
            Supply::Random(replica) => replica.ledger(),
            Supply::Entropy(pipeline) => &pipeline.output_ledger,
        };
        tr.span(request, "serve.http", || {
            let mut head =
                ResponseHead::new(200).header("Content-Type", "application/octet-stream");
            head = match workload.tier {
                Tier::Random => head.header("X-PTRNG-Tier", "drbg-sha256"),
                Tier::Entropy => head.header("X-PTRNG-Tier", "full-entropy").header(
                    "X-PTRNG-MinEntropy",
                    format!("{:.6}", ledger.min_entropy_per_bit()),
                ),
            };
            let head = head.header("X-PTRNG-Ledger", ledger.to_json());
            ChunkedWriter::start(&mut framed, &head, true).map(|_| ())
        })
        .map_err(err)?;
        let mut offset = 0;
        for &(size, pump_ends) in &plan {
            let chunk = &mut body[offset..offset + size];
            match &mut supply {
                Supply::Random(replica) => {
                    tr.span(request, "engine.expanded", || replica.draw(chunk))?;
                }
                Supply::Entropy(pipeline) => pipeline.draw(&mut tr, request, chunk)?,
            }
            tr.span(request, "serve.http", || encode_chunk(&mut framed, chunk));
            offset += size;
            if pump_ends {
                if offset == workload.bytes {
                    tr.span(request, "serve.http", || encode_chunk_end(&mut framed));
                }
                let stream = &mut sink.stream;
                tr.span(request, "socket.write", || stream.write_all(&framed))
                    .map_err(err)?;
                framed.clear();
            }
        }
        tr.end();
        let mut digest = Digest::default();
        digest.update(&body);
        digests.push(digest.value());
        if request == 0 {
            steady = Instant::now();
        }
        if start.elapsed() >= budget {
            break;
        }
    }
    let elapsed_s = steady.elapsed().as_secs_f64();
    drop(supply);
    sink.close();
    Ok(Replay {
        tracer: tr,
        digests,
        elapsed_s,
    })
}

/// Median nanoseconds per call of `f` over `rounds` rounds of `calls` calls.
fn ns_per_call(rounds: usize, calls: usize, mut f: impl FnMut()) -> f64 {
    let times: Vec<f64> = (0..rounds)
        .map(|_| {
            let start = Instant::now();
            for _ in 0..calls {
                f();
            }
            start.elapsed().as_nanos() as f64 / calls as f64
        })
        .collect();
    median(&times)
}

/// The time `a` takes over the time `b` takes, the two run back to back in
/// each of `rounds` rounds so that both see the same host speed, and in
/// alternating order so that neither always runs on the other's warm caches:
/// the median ratio and the interquartile range of the rounds' ratios.
fn time_ratio(rounds: usize, mut a: impl FnMut(), mut b: impl FnMut()) -> (f64, f64) {
    let timed = |f: &mut dyn FnMut()| {
        let start = Instant::now();
        f();
        start.elapsed().as_secs_f64()
    };
    let ratios: Vec<f64> = (0..rounds)
        .map(|round| {
            if round % 2 == 0 {
                let a_s = timed(&mut a);
                a_s / timed(&mut b)
            } else {
                let b_s = timed(&mut b);
                timed(&mut a) / b_s
            }
        })
        .collect();
    (
        median(&ratios),
        quantile(&ratios, 0.75) - quantile(&ratios, 0.25),
    )
}

/// SHA-256 compressions one Hash_DRBG generate of `bytes` runs: one per
/// 32-byte hashgen block (V is 55 bytes, one padded block) plus two for the
/// state update `Hash(0x03 || V)`.
fn compressions_per_generate(bytes: usize) -> f64 {
    (bytes.div_ceil(32) + 2) as f64
}

/// Timings of single layers through their public functions, in the units of
/// the per-layer metric names. Shares that contradict each other go to
/// `problems`.
pub fn layer_timings(
    workload: &Workload,
    seed: u64,
    threads: usize,
    problems: &mut Vec<String>,
) -> Result<Vec<(&'static str, f64, &'static str)>, String> {
    let mut out = Vec::new();
    let mut push = |name, value, unit| out.push((name, value, unit));

    let mut state = INITIAL_STATE;
    let block = [0x5au8; BLOCK_BYTES];
    let compress_ns = ns_per_call(5, 200_000, || {
        compress_block(black_box(&mut state), black_box(&block));
    });
    push("sha256.compress_ns", compress_ns, "ns");

    let mut drbg = HashDrbg::instantiate(&[7u8; 48], &[9u8; 16], b"bench").map_err(err)?;
    let mut bulk = vec![0u8; CHUNK_BYTES];
    let bulk_ns = ns_per_call(5, 200, || {
        drbg.generate(black_box(&mut bulk), &[]).expect("generate")
    });
    push(
        "drbg.generate_bulk_mb_s",
        CHUNK_BYTES as f64 / bulk_ns * 1e3,
        "MB/s",
    );
    let mut small = [0u8; 32];
    let small_ns = ns_per_call(5, 20_000, || {
        drbg.generate(black_box(&mut small), &[]).expect("generate")
    });
    push("drbg.generate_small_us", small_ns / 1e3, "us");
    // One generate at the workload's draw size (the server draws at most a
    // chunk per call), and the share of it spent in SHA-256 compressions,
    // timed against the same number of bare compressions back to back.
    let draw_size = workload.bytes.min(CHUNK_BYTES);
    let mut draw = vec![0u8; draw_size];
    let calls = ((1 << 22) / draw_size).clamp(1, 20_000);
    let draw_ns = ns_per_call(5, calls, || {
        drbg.generate(black_box(&mut draw), &[]).expect("generate");
    });
    push("drbg.generate_draw_us", draw_ns / 1e3, "us");
    let calls = ((1 << 19) / draw_size).clamp(1, 20_000);
    let compressions = calls * compressions_per_generate(draw_size) as usize;
    let (sha256_share, sha256_spread) = time_ratio(
        15,
        || {
            for _ in 0..compressions {
                compress_block(black_box(&mut state), black_box(&block));
            }
        },
        || {
            for _ in 0..calls {
                drbg.generate(black_box(&mut draw), &[]).expect("generate");
            }
        },
    );
    push("drbg.sha256_share_pct", 100.0 * sha256_share, "%");
    // The true share is close to 100%, so a round that reads above it is
    // timing noise; only a median above 100% by more than the rounds' spread
    // contradicts the compression count.
    if sha256_share - sha256_spread > 1.0 {
        problems.push(format!(
            "a generate's SHA-256 compressions take {:.2}% of the generate (rounds spread {:.2}%)",
            100.0 * sha256_share,
            100.0 * sha256_spread
        ));
    }

    // The expansion tier over the workload's own engine (the model source for
    // the `/random` workloads); with `/entropy` flags the seeds come from the
    // conditioned eRO stream.
    let (config, _) = workload.engine_config(seed)?;
    let spawn_ms: Vec<f64> = (0..3)
        .map(|_| {
            let start = Instant::now();
            let engine = Engine::spawn(config.clone()).map_err(err)?;
            let ms = start.elapsed().as_secs_f64() * 1e3;
            engine.into_tap().shutdown().map_err(err)?;
            Ok(ms)
        })
        .collect::<Result<_, String>>()?;
    push("setup.engine_spawn_ms", median(&spawn_ms), "ms");
    let tap = Engine::spawn(config.clone()).map_err(err)?.into_tap();
    // Wait out the startup battery so the instantiation timing is the seed
    // draw and derivation only.
    tap.draw(&mut [0u8; 1]);
    let expanded = ExpandedTap::new(tap, Default::default()).map_err(err)?;
    let start = Instant::now();
    expanded.draw(&mut [0u8; 32]).map_err(err)?;
    push(
        "setup.drbg_instantiate_ms",
        start.elapsed().as_secs_f64() * 1e3,
        "ms",
    );
    // The share of a 32-byte `ExpandedTap::draw` spent in its one Hash_DRBG
    // generate. The rest, the tap's lock and counters, costs the same at
    // every size; at 64 KiB it is under the timing noise, at 32 bytes not.
    let mut drawn = [0u8; 32];
    let (generate_share, spread) = time_ratio(
        15,
        || {
            for _ in 0..16_384 {
                drbg.generate(black_box(&mut small), &[]).expect("generate");
            }
        },
        || {
            for _ in 0..16_384 {
                expanded.draw(black_box(&mut drawn)).expect("draw");
            }
        },
    );
    push("expanded.generate_share_pct", 100.0 * generate_share, "%");
    if generate_share - spread > 1.0 {
        problems.push(format!(
            "a generate takes {:.2}% of the draw that runs it (rounds spread {:.2}%)",
            100.0 * generate_share,
            100.0 * spread
        ));
    }
    let mut request = vec![0u8; workload.bytes];
    let draws = (32 << 20) / workload.bytes.max(1 << 12);
    let draw_ns = ns_per_call(3, draws.max(1), || {
        expanded.draw(black_box(&mut request)).expect("draw");
    });
    push(
        "expanded.draw_mb_s",
        workload.bytes as f64 / draw_ns * 1e3,
        "MB/s",
    );
    let reseed_ms: Vec<f64> = (0..5)
        .map(|_| {
            let start = Instant::now();
            expanded.reseed_now().map_err(err)?;
            Ok(start.elapsed().as_secs_f64() * 1e3)
        })
        .collect::<Result<_, String>>()?;
    push("expanded.reseed_ms", median(&reseed_ms), "ms");
    let per_thread = 20_000;
    let alone_ns = ns_per_call(3, per_thread, || {
        expanded.draw(&mut [0u8; 32]).expect("draw")
    });
    let barrier = Barrier::new(threads);
    let together: Vec<f64> = std::thread::scope(|scope| {
        let handles: Vec<_> = (0..threads)
            .map(|_| {
                scope.spawn(|| {
                    barrier.wait();
                    ns_per_call(3, per_thread, || {
                        expanded.draw(&mut [0u8; 32]).expect("draw")
                    })
                })
            })
            .collect();
        handles
            .into_iter()
            .map(|h| h.join().expect("draw thread"))
            .collect()
    });
    push(
        "expanded.lock_wait_us",
        (median(&together) - alone_ns) / 1e3,
        "us",
    );
    expanded.shutdown().map_err(err)?;

    let payload = vec![0xa5u8; CHUNK_BYTES];
    let mut framed = Vec::with_capacity(CHUNK_BYTES + 64);
    let encode_ns = ns_per_call(5, 2_000, || {
        framed.clear();
        encode_chunk(&mut framed, black_box(&payload));
    });
    push(
        "http.encode_chunk_gb_s",
        CHUNK_BYTES as f64 / encode_ns,
        "GB/s",
    );
    let head = crate::client::request_head(&workload.target());
    let parse_ns = ns_per_call(5, 50_000, || {
        black_box(Request::parse_head(black_box(&head)).expect("parse"));
    });
    push("http.parse_head_ns", parse_ns, "ns");

    let mut pump = Vec::new();
    for _ in 0..4 {
        encode_chunk(&mut pump, &payload);
    }
    let mut sink = Sink::open().map_err(err)?;
    let pumps = 1024;
    let start = Instant::now();
    for _ in 0..pumps {
        sink.stream.write_all(&pump).map_err(err)?;
    }
    let sent = sink.close();
    let socket_s = start.elapsed().as_secs_f64();
    push("socket.loopback_gb_s", sent as f64 / socket_s / 1e9, "GB/s");

    // The entropy path's stages on the workload's source and batch size.
    let batch_bits = config.batch_bits;
    let mut source = config.spec.build(derive_seed(seed, 0)).map_err(err)?;
    let mut raw = vec![0u8; batch_bits];
    let fill_ns = ns_per_call(5, 20, || source.fill_bits(&mut raw).expect("fill"));
    push(
        "source.fill_mbit_s",
        batch_bits as f64 / fill_ns * 1e3,
        "Mbit/s",
    );
    let mut chain = ConditionerSpec::parse("sha256")
        .map_err(err)?
        .build()
        .map_err(err)?;
    let mut conditioned = Vec::new();
    let condition_ns = ns_per_call(5, 200, || {
        conditioned.clear();
        chain.process(&raw, &mut conditioned).expect("process");
    });
    push(
        "conditioning.sha256_mbit_s",
        batch_bits as f64 / condition_ns * 1e3,
        "Mbit/s",
    );
    let ledger = EntropyLedger::source(&source.label(), source.entropy_per_bit()).map_err(err)?;
    let mut monitor =
        HealthMonitor::new(&HealthConfig::default().without_startup_battery(), &ledger)
            .map_err(err)?;
    let health_ns = ns_per_call(5, 200, || {
        monitor.observe_bits(&raw).expect("observe");
        monitor.observe_output_bits(&conditioned).expect("observe");
    });
    push(
        "health.observe_mbit_s",
        batch_bits as f64 / health_ns * 1e3,
        "Mbit/s",
    );

    // The every-lane audit as `--audit-every-lane` configures it: window 0
    // runs the full SP 800-90B battery, later windows only the counting
    // members until the cadence comes round again.
    let every_lane = EngineArgs {
        audit_every_lane: true,
        ..EngineArgs::default()
    };
    let audit_config = every_lane
        .engine_config()?
        .audit
        .ok_or("every-lane flags configure no audit")?;
    let window_bits = audit_config.window_bits;
    let mut audit =
        EntropyAudit::new("bench", ledger.min_entropy_per_bit(), audit_config).map_err(err)?;
    let mut window_ms = Vec::new();
    let mut bits_in_window = 0;
    let mut start = Instant::now();
    while window_ms.len() < 6 {
        source.fill_bits(&mut raw).map_err(err)?;
        audit.observe_bits(&raw).map_err(err)?;
        bits_in_window += raw.len();
        if bits_in_window >= window_bits {
            window_ms.push(start.elapsed().as_secs_f64() * 1e3);
            bits_in_window -= window_bits;
            start = Instant::now();
        }
    }
    // Source fills are inside these windows; take them out again.
    let fill_ms_per_window = fill_ns * (window_bits as f64 / batch_bits as f64) / 1e6;
    let full_ms = (window_ms[0] - fill_ms_per_window).max(0.0);
    let counting_ms = (median(&window_ms[1..]) - fill_ms_per_window).max(1e-6);
    push("ais.battery_ms", full_ms, "ms");
    let cadence = f64::from(DEFAULT_EVERY_LANE_CADENCE);
    let cycle_ms = full_ms + (cadence - 1.0) * counting_ms;
    push(
        "audit.observe_mbit_s",
        cadence * window_bits as f64 / cycle_ms / 1e3,
        "Mbit/s",
    );
    Ok(out)
}
