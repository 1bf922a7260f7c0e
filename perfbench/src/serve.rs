//! `serve_steady` and `serve_burst`: an open loop against the sharded
//! dynamic-batching `Server`, round-robin over the three tiny-zoo engines.
//!
//! Two client threads: the generator sends each request at its due time
//! and hands the ticket to a collector, which waits for the responses.
//! Each engine sits behind [`TimedModel`], a benchmark-side `BatchModel`
//! that records when each batch started and finished. A model's queue is
//! served first in, first out by one shard, so the k-th request accepted
//! for a model is the k-th image its batches process; that gives every
//! request its compute start and its completion time.
//!
//! Under steady load the median latency is that of the run's least
//! disturbed quarter second of due times ([`floor_over_blocks`]). Under
//! bursty load it is taken over the whole run: the latencies of one burst
//! depend on how its batches happened to form as much as on the host, so
//! the least disturbed burst or block is luck rather than a floor. The
//! whole run's percentiles are notes either way.

use crate::report::{Outcome, Values};
use crate::schedule::{burst_drains, drain_rate, latency_from_due, lateness, Arrivals};
use crate::stats::{floor_over_blocks, median_or_zero, percentile, percentile_of, Summary};
use crate::trace::{ratio, Recorder, TensorDelta};
use crate::zoo::{self, IrTimings};
use edd_ir::CompiledModel;
use edd_runtime::{BatchModel, BatcherConfig, ServeConfig, ServeError, Server, Ticket};
use edd_tensor::{Array, TensorError};
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};
use std::collections::HashMap;
use std::sync::{mpsc, Arc, Mutex};
use std::time::{Duration, Instant};

/// Steady load: evenly spaced, well below the zoo's capacity, so batches
/// hold about one image and the batching deadline plus single-image
/// engine time set the latency.
pub const STEADY: Arrivals = Arrivals::Steady { rate: 400.0 };

/// Bursty load: bursts far above capacity, separated by gaps long enough
/// for the backlog to drain, so batch formation and wide GEMMs do the work.
/// A burst puts ten requests in each engine's queue within 4 ms; a run
/// holds several hundred bursts. Deeper bursts amplify the host's speed
/// swings into latency: with 1000-request bursts the median latency of
/// six 20 s runs on a 2-vCPU VM spread by 27 % of its value, with
/// 30-request bursts by 7–11 % in the same hour.
pub const BURST: Arrivals = Arrivals::Burst {
    size: 30,
    rate: 8000.0,
    gap: Duration::from_millis(30),
};

/// The serving front end's configuration (one shard per model keeps each
/// model's queue first in, first out).
const SERVE: ServeConfig = ServeConfig {
    batcher: BatcherConfig {
        max_batch: 32,
        max_delay_us: 500,
        queue_depth: 4096,
    },
    shards: 1,
};

/// Block length of the steady-load latency floor: a hundred requests.
const FLOOR_BLOCK_S: f64 = 0.25;

/// Distinct request images, drawn from the seed.
const POOL_IMAGES: usize = 32;
/// Engine builds before and after the measurement (about 2 s each);
/// `setup_s` is the median of all of them. The host's speed swings within
/// a second, so the median of a few builds reads whichever level held
/// those few: with 29 builds the run medians spread by 17 % of their
/// median, with 160 by 13 %.
const SETUPS_BEFORE: usize = 80;
const SETUPS_AFTER: usize = 80;
/// Batch-size buckets of `ir.exec.batch_ms`: `(metric, smallest, largest)`.
const BATCH_BUCKETS: [(&str, usize, usize); 6] = [
    ("ir.exec.batch_ms.b1", 1, 1),
    ("ir.exec.batch_ms.b2_3", 2, 3),
    ("ir.exec.batch_ms.b4_7", 4, 7),
    ("ir.exec.batch_ms.b8_15", 8, 15),
    ("ir.exec.batch_ms.b16_31", 16, 31),
    ("ir.exec.batch_ms.b32", 32, usize::MAX),
];

/// One batch an engine ran.
#[derive(Debug, Clone, Copy)]
struct BatchRecord {
    start: Instant,
    end: Instant,
    size: usize,
}

/// A compiled engine that logs the start, end and size of every batch.
#[derive(Debug)]
pub struct TimedModel {
    inner: Arc<CompiledModel>,
    log: Mutex<Vec<BatchRecord>>,
}

impl TimedModel {
    fn new(inner: Arc<CompiledModel>) -> Self {
        TimedModel {
            inner,
            log: Mutex::new(Vec::with_capacity(1 << 16)),
        }
    }

    fn take_log(&self) -> Vec<BatchRecord> {
        std::mem::take(&mut *self.log.lock().expect("batch log poisoned"))
    }
}

impl BatchModel for TimedModel {
    type Error = TensorError;

    fn image_len(&self) -> usize {
        self.inner.image_len()
    }

    fn num_classes(&self) -> usize {
        self.inner.num_classes()
    }

    fn infer_batch(&self, images: &[f32], batch: usize) -> Result<Vec<f32>, TensorError> {
        let start = Instant::now();
        let out = self.inner.infer_batch(images, batch);
        let end = Instant::now();
        self.log
            .lock()
            .expect("batch log poisoned")
            .push(BatchRecord {
                start,
                end,
                size: batch,
            });
        out
    }
}

/// One request the generator sent.
#[derive(Debug, Clone, Copy)]
struct Sent {
    model: usize,
    image: usize,
    due: Duration,
    sent: Duration,
    submit: Duration,
    accepted: bool,
}

/// Raw results of one measured open-loop phase.
struct Phase {
    sent: Vec<Sent>,
    responses: Vec<Option<Result<Vec<f32>, ServeError>>>,
    logs: Vec<Vec<BatchRecord>>,
    start: Instant,
    batches: u64,
    batched_images: u64,
    deadline_flushes: u64,
    flushes: u64,
    queue_peak: u64,
}

/// Runs the generator and collector against a fresh server for
/// `seconds`, sending only whole bursts.
fn run_phase(
    engines: &[Arc<CompiledModel>],
    images: &[Vec<f32>],
    arrivals: Arrivals,
    seconds: f64,
    seed: u64,
) -> Phase {
    let timed: Vec<Arc<TimedModel>> = engines
        .iter()
        .map(|e| Arc::new(TimedModel::new(Arc::clone(e))))
        .collect();
    let models: Vec<(String, Arc<TimedModel>)> = timed
        .iter()
        .enumerate()
        .map(|(i, m)| (format!("engine-{i}"), Arc::clone(m)))
        .collect();
    let server = Server::start(models, SERVE);
    // Warm every engine once, then forget those batches.
    for m in 0..timed.len() {
        server
            .infer_one(m, images[m % images.len()].clone())
            .expect("warm-up request");
    }
    for t in &timed {
        t.take_log();
    }

    let mut total = arrivals.count_before(Duration::from_secs_f64(seconds));
    if let Arrivals::Burst { size, .. } = arrivals {
        total = (total / size).max(1) * size;
    }
    let mut rng = StdRng::seed_from_u64(seed ^ 0x5E7E_5E7E);
    let mut sent = Vec::with_capacity(total);
    let mut responses: Vec<Option<Result<Vec<f32>, ServeError>>> = Vec::new();
    let start = Instant::now();
    std::thread::scope(|s| {
        let (tx, rx) = mpsc::channel::<(usize, Ticket)>();
        let collector = s.spawn(move || {
            let mut out: Vec<Option<Result<Vec<f32>, ServeError>>> = Vec::new();
            for (i, ticket) in rx {
                if out.len() <= i {
                    out.resize_with(i + 1, || None);
                }
                out[i] = Some(ticket.wait());
            }
            out
        });
        for i in 0..total {
            let due = arrivals.due(i);
            loop {
                let now = start.elapsed();
                if now >= due {
                    break;
                }
                std::thread::sleep(due - now);
            }
            let model = i % engines.len();
            let image = rng.gen_range(0..images.len());
            let pixels = images[image].clone();
            let t0 = Instant::now();
            let ticket = server.submit(model, pixels);
            let t1 = Instant::now();
            sent.push(Sent {
                model,
                image,
                due,
                sent: t0 - start,
                submit: t1 - t0,
                accepted: ticket.is_ok(),
            });
            if let Ok(ticket) = ticket {
                tx.send((i, ticket)).expect("collector alive");
            }
        }
        drop(tx);
        responses = collector.join().expect("collector thread panicked");
    });
    responses.resize_with(total, || None);
    let stats = server.shutdown();
    Phase {
        sent,
        responses,
        logs: timed.iter().map(|t| t.take_log()).collect(),
        start,
        batches: stats.iter().map(|s| s.batches).sum(),
        batched_images: stats.iter().map(|s| s.batched_images).sum(),
        deadline_flushes: stats.iter().map(|s| s.deadline_flushes).sum(),
        flushes: stats
            .iter()
            .map(|s| s.full_flushes + s.deadline_flushes + s.drain_flushes)
            .sum(),
        queue_peak: stats.iter().map(|s| s.queue_peak).max().unwrap_or(0),
    }
}

/// What one phase measured, after the oracle.
struct Measured {
    attempted: u64,
    failed: u64,
    end_to_end: Values,
    per_layer: Values,
    notes: Vec<(String, String)>,
}

/// Maps requests onto batches, checks every response against the batch
/// engine, and derives the metrics.
fn measure(
    phase: &Phase,
    engines: &[Arc<CompiledModel>],
    images: &[Vec<f32>],
    arrivals: Arrivals,
) -> Measured {
    let n = phase.sent.len();
    // Compute start and completion of each request, first in first out
    // per model.
    let mut timing: Vec<Option<(Instant, Instant)>> = vec![None; n];
    let mut mapping_ok = true;
    for (m, log) in phase.logs.iter().enumerate() {
        let mut reqs = phase
            .sent
            .iter()
            .enumerate()
            .filter(|(_, s)| s.model == m && s.accepted)
            .map(|(i, _)| i);
        for b in log {
            for _ in 0..b.size {
                match reqs.next() {
                    Some(i) => timing[i] = Some((b.start, b.end)),
                    None => mapping_ok = false,
                }
            }
        }
        mapping_ok &= reqs.next().is_none();
    }

    // Oracle: every response equals the batch engine on the same image.
    let mut expected: HashMap<(usize, usize), Vec<f32>> = HashMap::new();
    let mut failed = 0u64;
    let mut latency_ms = Vec::with_capacity(n);
    let mut timed_latency_ms = Vec::with_capacity(n);
    let mut queue_wait_ms = Vec::with_capacity(n);
    let mut drain = Vec::with_capacity(n);
    for (i, s) in phase.sent.iter().enumerate() {
        let ok = match (&phase.responses[i], timing[i]) {
            (Some(Ok(logits)), Some(_)) => {
                let want = expected.entry((s.model, s.image)).or_insert_with(|| {
                    let x = Array::from_vec(images[s.image].clone(), &[1, 3, 16, 16])
                        .expect("image shape");
                    engines[s.model]
                        .forward(&x)
                        .map(|a| a.data().to_vec())
                        .unwrap_or_default()
                });
                want.len() == logits.len()
                    && want
                        .iter()
                        .zip(logits)
                        .all(|(a, b)| a.to_bits() == b.to_bits())
            }
            _ => false,
        };
        if !ok || !mapping_ok {
            failed += 1;
            continue;
        }
        let (begin, end) = timing[i].expect("checked above");
        let done = end - phase.start;
        let ms = latency_from_due(s.due, done).as_secs_f64() * 1e3;
        latency_ms.push(ms);
        timed_latency_ms.push((s.due.as_secs_f64(), ms));
        queue_wait_ms.push(
            begin
                .saturating_duration_since(phase.start + s.sent)
                .as_secs_f64()
                * 1e3,
        );
        drain.push((arrivals.burst_of(i), s.due, done));
    }

    let mut notes = Vec::new();
    let mut end_to_end = Values::new();
    if let Some(lat) = Summary::of(&latency_ms) {
        // A run too short for a full block falls back to the whole run.
        let floor = match arrivals {
            Arrivals::Steady { .. } => {
                floor_over_blocks(&timed_latency_ms, FLOOR_BLOCK_S, |b| percentile_of(b, 50.0))
            }
            Arrivals::Burst { .. } => None,
        };
        end_to_end.insert("p50_ms", floor.unwrap_or(lat.p50));
        notes.push(("latency_ms (whole run)".into(), lat.describe("ms")));
    }
    let drains = burst_drains(&drain);
    end_to_end.insert("rate_per_s", drain_rate(&drains));
    let rates: Vec<f64> = drains.iter().map(|&(n, secs)| n as f64 / secs).collect();
    notes.push((
        "drain_rps".into(),
        Summary::of(&rates).map_or("none".into(), |r| r.describe("1/s")),
    ));
    notes.push(("mapping_ok".into(), mapping_ok.to_string()));

    let mut per_layer = Values::new();
    let all: Vec<BatchRecord> = phase.logs.iter().flatten().copied().collect();
    for (name, lo, hi) in BATCH_BUCKETS {
        let ms: Vec<f64> = all
            .iter()
            .filter(|b| (lo..=hi).contains(&b.size))
            .map(|b| (b.end - b.start).as_secs_f64() * 1e3)
            .collect();
        notes.push((format!("{name}.n"), ms.len().to_string()));
        per_layer.insert(name, median_or_zero(&ms));
    }
    let busy: f64 = all.iter().map(|b| (b.end - b.start).as_secs_f64()).sum();
    let images_run: usize = all.iter().map(|b| b.size).sum();
    per_layer.insert("ir.exec.us_per_image", ratio(busy * 1e6, images_run as f64));
    per_layer.insert(
        "runtime.serve.batch_size_mean",
        ratio(phase.batched_images as f64, phase.batches as f64),
    );
    per_layer.insert(
        "runtime.serve.deadline_flush_ratio",
        ratio(phase.deadline_flushes as f64, phase.flushes as f64),
    );
    if !queue_wait_ms.is_empty() {
        let mut sorted = queue_wait_ms;
        sorted.sort_by(f64::total_cmp);
        for (name, p) in [
            ("runtime.serve.queue_wait_ms_p50", 50.0),
            ("runtime.serve.queue_wait_ms_p99", 99.0),
        ] {
            per_layer.insert(name, percentile(&sorted, p));
        }
    }
    per_layer.insert("runtime.serve.queue_peak", phase.queue_peak as f64);
    let submit_us: Vec<f64> = phase
        .sent
        .iter()
        .map(|s| s.submit.as_secs_f64() * 1e6)
        .collect();
    per_layer.insert("runtime.serve.submit_us", median_or_zero(&submit_us));
    let lag_ms = phase
        .sent
        .iter()
        .map(|s| lateness(s.due, s.sent).as_secs_f64() * 1e3)
        .fold(0.0, f64::max);
    per_layer.insert("runtime.serve.gen_lag_ms_max", lag_ms);
    notes.push(("requests".into(), n.to_string()));
    notes.push(("batches".into(), phase.batches.to_string()));

    Measured {
        attempted: n as u64,
        failed,
        end_to_end,
        per_layer,
        notes,
    }
}

/// Runs one serve workload: several timed engine builds, an untraced
/// phase, and with `trace` a traced phase after it.
pub fn run(arrivals: Arrivals, seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut timings = IrTimings::default();
    let mut setup_s = Vec::new();
    let engines = zoo::timed_builds(SETUPS_BEFORE, &mut timings, &mut setup_s, |g| {
        CompiledModel::from_graph(g.clone())
    })?;
    let compiled: Vec<Arc<CompiledModel>> =
        engines.into_iter().map(|e| Arc::new(e.model)).collect();
    let mut rng = StdRng::seed_from_u64(seed);
    let images: Vec<Vec<f32>> = (0..POOL_IMAGES)
        .map(|_| Array::randn(&[1, 3, 16, 16], 1.0, &mut rng).data().to_vec())
        .collect();

    let mut out = Outcome::default();
    let phase = run_phase(&compiled, &images, arrivals, seconds, seed);
    let rss = crate::host::peak_rss_mb();
    zoo::timed_builds(SETUPS_AFTER, &mut timings, &mut setup_s, |g| {
        CompiledModel::from_graph(g.clone())
    })?;
    let m = measure(&phase, &compiled, &images, arrivals);
    out.attempted += m.attempted;
    out.failed += m.failed;
    out.end_to_end = m.end_to_end;
    out.end_to_end.insert("peak_rss_mb", rss);
    out.end_to_end.insert("setup_s", median_or_zero(&setup_s));
    out.notes.extend(m.notes);
    if trace {
        let recorder = Recorder::full();
        recorder.install();
        let mut delta = TensorDelta::start();
        let phase = run_phase(&compiled, &images, arrivals, seconds, seed);
        delta.stop();
        crate::trace::uninstall();
        let m = measure(&phase, &compiled, &images, arrivals);
        out.attempted += m.attempted;
        out.failed += m.failed;
        out.traced_end_to_end = m.end_to_end;
        out.per_layer = m.per_layer;
        for (name, v, _) in delta.metrics() {
            out.per_layer.insert(name, v);
        }
        for (k, v) in recorder.take().counters {
            out.note(format!("telemetry.{k}"), v);
        }
    }
    out.per_layer
        .insert("ir.passes.compile_ms", median_or_zero(&timings.compile_ms));
    out.per_layer
        .insert("ir.artifact.load_ms", median_or_zero(&timings.load_ms));
    out.note("setup_samples", setup_s.len());
    Ok(out)
}
