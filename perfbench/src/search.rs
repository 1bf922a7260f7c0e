//! `search`: the single-target EDD co-search (recursive FPGA, ZCU102) on
//! SynthImageNet at 16×16, repeated back to back from the same seed.
//!
//! Each repetition builds its data and `CoSearch` afresh (that is the
//! set-up) and runs every epoch. Epoch 0 is the warm-up epoch: it skips
//! the architecture steps, so only later epochs are epoch samples. Every
//! repetition must derive the same architecture, bit for bit, traced or
//! not, so epoch `e` of every repetition does the same work; the
//! end-to-end figures take the fastest repetition of each epoch
//! ([`fastest_per_position`]), which other tenants' load on a shared host
//! moves far less than it moves any one search.

use crate::report::{Outcome, Values};
use crate::stats::{fastest_per_position, median_or_zero, Summary};
use crate::trace::{Recorder, TensorDelta};
use edd_core::{
    edd_loss, estimate, CoSearch, CoSearchConfig, DeviceTarget, LossConfig, PerfTables, SearchSpace,
};
use edd_data::{SynthConfig, SynthDataset};
use edd_hw::FpgaDevice;
use edd_nn::Batch;
use edd_tensor::optim::{Adam, Optimizer, Sgd};
use edd_tensor::Tensor;
use rand::rngs::StdRng;
use rand::SeedableRng;
use std::time::Instant;

/// Searched blocks.
const BLOCKS: usize = 4;
/// Classes of the synthetic dataset.
const CLASSES: usize = 6;
/// Epochs per search, the first of them the warm-up epoch.
const EPOCHS: usize = 8;
/// Image side length.
const IMAGE: usize = 16;
/// Training batches per epoch.
const TRAIN_BATCHES: usize = 3;
/// Validation batches per epoch (the architecture steps run on these).
const VAL_BATCHES: usize = 2;
/// Images per batch.
const BATCH: usize = 16;
/// Seed of the search's own randomness (weight init, Gumbel samples).
/// Fixed, so that searches on different datasets sample nearly the same
/// paths and do nearly the same work; `--seed` picks the dataset.
const SEARCH_RNG_SEED: u64 = 42;
/// Set-ups timed before each search; the search runs on the last one.
/// `setup_s` is the median over every set-up of the run.
const SETUPS_PER_SEARCH: usize = 3;
/// Steps timed per layer probe in a traced run, after two untimed ones.
const PROBE_STEPS: usize = 10;

fn target() -> DeviceTarget {
    DeviceTarget::FpgaRecursive(FpgaDevice::zcu102())
}

fn space() -> SearchSpace {
    SearchSpace::tiny(BLOCKS, IMAGE, CLASSES, target().default_quant_bits())
}

/// Everything one search needs, built from the seed.
struct Setup {
    search: CoSearch,
    train: Vec<Batch>,
    val: Vec<Batch>,
    rng: StdRng,
}

fn setup(seed: u64) -> Result<Setup, String> {
    let mut rng = StdRng::seed_from_u64(SEARCH_RNG_SEED);
    let config = CoSearchConfig {
        epochs: EPOCHS,
        warmup_epochs: 1,
        ..CoSearchConfig::default()
    };
    let data = SynthDataset::new(SynthConfig {
        num_classes: CLASSES,
        image_size: IMAGE,
        seed: seed ^ 0xEDD,
        ..SynthConfig::default()
    });
    let train = data.split(TRAIN_BATCHES, BATCH, 1);
    let val = data.split(VAL_BATCHES, BATCH, 2);
    let search = CoSearch::new(space(), target(), config, &mut rng).map_err(|e| e.to_string())?;
    Ok(Setup {
        search,
        train,
        val,
        rng,
    })
}

/// FNV-1a digest of a derived architecture's JSON.
fn digest(json: &str) -> u64 {
    json.bytes().fold(0xcbf2_9ce4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01b3)
    })
}

/// Raw results of one measured phase.
struct Phase {
    setup_s: Vec<f64>,
    /// Wall time of each epoch after the warm-up, in ms, per search.
    epoch_ms: Vec<Vec<f64>>,
    /// Wall time of each whole search, in seconds.
    wall_s: Vec<f64>,
    digests: Vec<Option<u64>>,
    /// Phase span durations in ms by span name, warm-up epochs left out.
    phase_ms: std::collections::BTreeMap<String, Vec<f64>>,
    last: Option<Setup>,
}

/// Runs whole searches back to back until `seconds` have passed (at least
/// one), with `recorder` installed as the telemetry sink.
fn run_phase(
    seed: u64,
    seconds: f64,
    recorder: &std::sync::Arc<Recorder>,
) -> Result<Phase, String> {
    let mut p = Phase {
        setup_s: Vec::new(),
        epoch_ms: Vec::new(),
        wall_s: Vec::new(),
        digests: Vec::new(),
        phase_ms: std::collections::BTreeMap::new(),
        last: None,
    };
    recorder.install();
    let start = Instant::now();
    while p.digests.is_empty() || start.elapsed().as_secs_f64() < seconds {
        // Only the latest search stays alive, so peak memory is one search's.
        p.last = None;
        let mut built = None;
        for _ in 0..SETUPS_PER_SEARCH {
            drop(built.take());
            let t = Instant::now();
            built = Some(setup(seed)?);
            p.setup_s.push(t.elapsed().as_secs_f64());
        }
        let mut s = built.expect("at least one set-up per search");
        recorder.take();
        let t = Instant::now();
        let outcome = s.search.run(&s.train, &s.val, &mut s.rng);
        let wall = t.elapsed().as_secs_f64();
        let rec = recorder.take();
        let Ok(outcome) = outcome else {
            p.digests.push(None);
            continue;
        };
        p.digests
            .push(outcome.derived.to_json().ok().map(|j| digest(&j)));
        p.wall_s.push(wall);
        let mut prev = t;
        let mut epochs = Vec::with_capacity(EPOCHS);
        for (e, at) in rec.epoch_times.iter().enumerate() {
            if e > 0 {
                epochs.push(at.duration_since(prev).as_secs_f64() * 1e3);
            }
            prev = *at;
        }
        p.epoch_ms.push(epochs);
        for (name, us) in rec.spans {
            p.phase_ms
                .entry(name)
                .or_default()
                .extend(us.iter().skip(1).map(|&v| v as f64 / 1e3));
        }
        p.last = Some(s);
    }
    crate::trace::uninstall();
    Ok(p)
}

fn end_to_end(p: &Phase) -> (Values, Vec<(String, String)>) {
    let mut v = Values::new();
    let mut notes = Vec::new();
    let all: Vec<f64> = p.epoch_ms.iter().flatten().copied().collect();
    if let Some(s) = Summary::of(&all) {
        notes.push(("epoch_ms (whole run)".into(), s.describe("ms")));
    }
    let fastest = fastest_per_position(&p.epoch_ms);
    if let Some(s) = Summary::of(&fastest) {
        v.insert("p50_ms", s.p50);
        notes.push(("epoch_ms (fastest repetition)".into(), s.describe("ms")));
    }
    // Epochs per second of the fastest repetition of each epoch.
    let total_ms: f64 = fastest.iter().sum();
    if total_ms > 0.0 {
        v.insert("rate_per_s", fastest.len() as f64 * 1e3 / total_ms);
    }
    if let Some(s) = Summary::of(&p.wall_s) {
        notes.push(("search_wall_s".into(), s.describe("s")));
    }
    notes.push(("searches".into(), p.digests.len().to_string()));
    (v, notes)
}

/// Times weight steps, architecture steps and performance-model estimates
/// on the last search's supernet, from the benchmark's side of the public
/// API.
fn probe_layers(s: &mut Setup, layers: &mut Values) -> Result<(), String> {
    let err = |e: edd_tensor::TensorError| e.to_string();
    let (space, target) = (space(), target());
    let tables = PerfTables::build(&space, &target).map_err(err)?;
    let net = s.search.supernet();
    let arch = s.search.arch();
    let tau = s.search.tau_at(EPOCHS - 1);
    let mut w_opt = Sgd::new(net.weight_params(), 0.05, 0.9, 1e-4);
    let mut a_opt = Adam::new(arch.all_params(), 0.02);
    let x = Tensor::constant(s.train[0].images.clone());
    let labels = &s.train[0].labels;
    let vx = Tensor::constant(s.val[0].images.clone());
    let vlabels = &s.val[0].labels;
    let rng = &mut s.rng;
    net.set_training(true);

    let mut weight_ms = Vec::new();
    for i in 0..PROBE_STEPS + 2 {
        let t = Instant::now();
        w_opt.zero_grad();
        let (logits, _) = net.forward_sampled(&x, arch, tau, rng).map_err(err)?;
        logits.cross_entropy(labels).map_err(err)?.backward();
        w_opt.step();
        edd_tensor::scratch::reset();
        if i >= 2 {
            weight_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let mut arch_ms = Vec::new();
    for i in 0..PROBE_STEPS + 2 {
        let t = Instant::now();
        w_opt.zero_grad();
        a_opt.zero_grad();
        let (logits, _) = net.forward_sampled(&vx, arch, tau, rng).map_err(err)?;
        let acc = logits.cross_entropy(vlabels).map_err(err)?;
        let est = estimate(arch, &tables, &space, &target, tau, rng).map_err(err)?;
        let total = edd_loss(
            &acc,
            &est.perf,
            &est.res,
            target.resource_bound(),
            &LossConfig::default(),
        )
        .map_err(err)?;
        total.backward();
        a_opt.step();
        edd_tensor::scratch::reset();
        if i >= 2 {
            arch_ms.push(t.elapsed().as_secs_f64() * 1e3);
        }
    }
    let mut estimate_us = Vec::new();
    for i in 0..PROBE_STEPS * 10 + 2 {
        let t = Instant::now();
        let est = estimate(arch, &tables, &space, &target, tau, rng).map_err(err)?;
        std::hint::black_box(&est);
        if i >= 2 {
            estimate_us.push(t.elapsed().as_secs_f64() * 1e6);
        }
    }
    layers.insert("core.supernet.weight_step_ms", median_or_zero(&weight_ms));
    layers.insert("core.supernet.arch_step_ms", median_or_zero(&arch_ms));
    layers.insert("core.perf_model.estimate_us", median_or_zero(&estimate_us));
    Ok(())
}

/// Counts searches whose digest is missing or differs from `reference`.
fn mismatches(digests: &[Option<u64>], reference: Option<u64>) -> u64 {
    digests
        .iter()
        .filter(|d| d.is_none() || **d != reference)
        .count() as u64
}

/// Runs the search workload: an untraced phase (epoch clock only) and,
/// with `trace`, a fully traced phase plus layer probes after it.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut out = Outcome::default();
    let p = run_phase(seed, seconds, &Recorder::epoch_clock())?;
    let reference = p.digests.first().copied().flatten();
    out.attempted += p.digests.len() as u64;
    out.failed += mismatches(&p.digests, reference);
    let (v, notes) = end_to_end(&p);
    out.end_to_end = v;
    out.end_to_end
        .insert("peak_rss_mb", crate::host::peak_rss_mb());
    out.end_to_end.insert("setup_s", median_or_zero(&p.setup_s));
    out.notes.extend(notes);
    if let Some(d) = reference {
        out.note("arch_digest", format!("{d:016x}"));
    }
    if trace {
        let recorder = Recorder::full();
        let mut delta = TensorDelta::start();
        let mut t = run_phase(seed, seconds, &recorder)?;
        delta.stop();
        out.attempted += t.digests.len() as u64;
        // The traced search must derive what the untraced one derived.
        out.failed += mismatches(&t.digests, reference);
        let (v, _) = end_to_end(&t);
        out.traced_end_to_end = v;
        out.traced_end_to_end
            .insert("setup_s", median_or_zero(&t.setup_s));
        for (span, metric) in [
            ("search.weight_phase", "core.search.weight_phase_ms"),
            ("search.arch_phase", "core.search.arch_phase_ms"),
            ("search.val_phase", "core.search.val_phase_ms"),
        ] {
            let ms = t.phase_ms.get(span).map_or(&[][..], Vec::as_slice);
            out.per_layer.insert(metric, median_or_zero(ms));
        }
        for (name, v, _) in delta.metrics() {
            out.per_layer.insert(name, v);
        }
        if let Some(last) = t.last.as_mut() {
            probe_layers(last, &mut out.per_layer)?;
        }
    }
    out.note("setup_samples", p.setup_s.len());
    Ok(out)
}
