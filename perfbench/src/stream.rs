//! `stream`: a long synthetic signal pushed row by row through a
//! `PulsedModel` session for each tiny-zoo engine.
//!
//! Every row goes to all three sessions in turn. The unit of work is one
//! emitted window: its cost is the push time its session spent since the
//! previous window (one hop of rows). Pushes up to a session's first
//! window only prime its rings and are not measured. The end-to-end
//! figures are those of the run's least disturbed tenth of a second
//! ([`floor_over_blocks`]); the whole run's percentiles are notes. Each
//! emitted window is checked afterwards against the batch engine on the
//! same rows, in batches of windows.

use crate::report::{Outcome, Values};
use crate::stats::{floor_over_blocks, mean, median_or_zero, percentile_of, Summary};
use crate::trace::{Recorder, TensorDelta};
use crate::zoo::{self, IrTimings};
use edd_ir::{CompiledModel, Graph, PulsedModel};
use edd_runtime::{BatchModel, StreamSession};
use edd_tensor::Array;
use edd_zoo::{signal_row, signal_window};
use std::time::Instant;

/// Engine builds before and after the measurement (about 2 s each);
/// `setup_s` is the median of all of them. The host's speed swings within
/// a second, so the median of a few builds reads whichever level held
/// those few: with 29 builds the run medians spread by 17 % of their
/// median, with 160 by 13 %.
const SETUPS_BEFORE: usize = 80;
const SETUPS_AFTER: usize = 80;
/// Save/restore round trips timed per session in a traced run.
const STATE_ROUND_TRIPS: usize = 20;

/// Block length of the window-time floor: about a hundred windows.
const FLOOR_BLOCK_S: f64 = 0.1;

/// Windows per batched oracle call.
const ORACLE_BATCH: usize = 32;
/// Single-window forwards timed for `ir.exec.window_forward_us`.
const FORWARD_PROBES: usize = 64;

/// A window one session emitted.
struct Emitted {
    model: usize,
    start_row: usize,
    logits: Vec<f32>,
}

/// Raw results of one measured phase.
struct Phase {
    /// Rows pushed (row `r` is `signal_row(.., seed, r)`).
    rows: usize,
    emitted: Vec<Emitted>,
    push_us: Vec<f64>,
    emit_push_us: Vec<f64>,
    /// Push time a session spent per emitted window, in µs, with the
    /// seconds since the start at which the window was emitted.
    window_us: Vec<(f64, f64)>,
    errors: u64,
    state_bytes: usize,
    save_us: Vec<f64>,
    restore_us: Vec<f64>,
    state_failures: u64,
}

/// Window geometry shared by the zoo: `(channels, window rows, width)`.
fn geometry(g: &Graph) -> (usize, usize, usize) {
    let [c, h, w] = g.meta.input_shape;
    (c, h, w)
}

/// Hop between window starts: half a window.
fn hop(g: &Graph) -> usize {
    (geometry(g).1 / 2).max(1)
}

fn run_phase(graphs: &[Graph], seed: u64, seconds: f64, time_state: bool) -> Result<Phase, String> {
    let mut sessions = graphs
        .iter()
        .map(|g| PulsedModel::from_graph(g, hop(g)).map(StreamSession::new))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;
    let (c, _, w) = geometry(&graphs[0]);
    let mut primed = vec![false; sessions.len()];
    let mut p = Phase {
        rows: 0,
        emitted: Vec::new(),
        push_us: Vec::new(),
        emit_push_us: Vec::new(),
        window_us: Vec::new(),
        errors: 0,
        state_bytes: 0,
        save_us: Vec::new(),
        restore_us: Vec::new(),
        state_failures: 0,
    };
    // Push time each session has spent since its last emitted window.
    let mut since_emit = vec![0.0f64; sessions.len()];
    let start = Instant::now();
    while start.elapsed().as_secs_f64() < seconds {
        let row = signal_row(c, w, seed, p.rows);
        p.rows += 1;
        for (m, session) in sessions.iter_mut().enumerate() {
            let t = Instant::now();
            let res = session.push(&row);
            let dt = t.elapsed().as_secs_f64();
            since_emit[m] += dt;
            match res {
                Ok(Some(win)) => {
                    if primed[m] {
                        p.emit_push_us.push(dt * 1e6);
                        p.window_us
                            .push((start.elapsed().as_secs_f64(), since_emit[m] * 1e6));
                    }
                    primed[m] = true;
                    since_emit[m] = 0.0;
                    p.emitted.push(Emitted {
                        model: m,
                        start_row: usize::try_from(win.start_row).expect("row index fits"),
                        logits: win.logits,
                    });
                }
                Ok(None) => {
                    if primed[m] {
                        p.push_us.push(dt * 1e6);
                    }
                }
                Err(_) => p.errors += 1,
            }
        }
    }
    p.state_bytes = sessions
        .iter()
        .map(|s| s.stats().peak_state_bytes)
        .max()
        .unwrap_or(0);
    if time_state {
        for session in &mut sessions {
            for _ in 0..STATE_ROUND_TRIPS {
                let t = Instant::now();
                let bytes = session.save_state();
                p.save_us.push(t.elapsed().as_secs_f64() * 1e6);
                let t = Instant::now();
                let restored = session.restore_state(&bytes);
                p.restore_us.push(t.elapsed().as_secs_f64() * 1e6);
                // A restore must reproduce the saved state exactly.
                if restored.is_err() || session.save_state() != bytes {
                    p.state_failures += 1;
                }
            }
        }
    }
    Ok(p)
}

/// What one phase measured, after the oracle.
struct Measured {
    attempted: u64,
    failed: u64,
    end_to_end: Values,
    per_layer: Values,
    notes: Vec<(String, String)>,
}

/// Checks every emitted window against the batch engine on the same rows
/// and derives the metrics.
fn measure(p: &Phase, seed: u64, graphs: &[Graph], oracles: &[CompiledModel]) -> Measured {
    let (c, h, w) = geometry(&graphs[0]);
    let mut failed = p.errors + p.state_failures;
    // Rows are regenerated here rather than kept during the measurement,
    // so the stored signal does not grow the measured memory.
    let window = |e: &Emitted| {
        let rows: Vec<Vec<f32>> = (e.start_row..e.start_row + h)
            .map(|r| signal_row(c, w, seed, r))
            .collect();
        signal_window(&rows, 0, h, c, w)
    };
    for (m, oracle) in oracles.iter().enumerate() {
        let mine: Vec<&Emitted> = p.emitted.iter().filter(|e| e.model == m).collect();
        for chunk in mine.chunks(ORACLE_BATCH) {
            let images: Vec<f32> = chunk.iter().flat_map(|e| window(e)).collect();
            let want =
                Array::from_vec(images, &[chunk.len(), c, h, w]).and_then(|x| oracle.forward(&x));
            let Ok(want) = want else {
                failed += chunk.len() as u64;
                continue;
            };
            let classes = oracle.num_classes();
            if want.data().len() != chunk.len() * classes {
                failed += chunk.len() as u64;
                continue;
            }
            for (e, row) in chunk.iter().zip(want.data().chunks(classes)) {
                let same = row.len() == e.logits.len()
                    && row
                        .iter()
                        .zip(&e.logits)
                        .all(|(x, y)| x.to_bits() == y.to_bits());
                failed += u64::from(!same);
            }
        }
    }
    // The recompute cost of one window: single-window batch forwards.
    let forward_us: Vec<f64> = p
        .emitted
        .iter()
        .take(FORWARD_PROBES)
        .map(|e| {
            let x = Array::from_vec(window(e), &[1, c, h, w]).expect("window shape");
            let t = Instant::now();
            let out = oracles[e.model].forward(&x);
            let us = t.elapsed().as_secs_f64() * 1e6;
            std::hint::black_box(out).ok();
            us
        })
        .collect();

    let mut notes = Vec::new();
    let mut end_to_end = Values::new();
    let timed_ms: Vec<(f64, f64)> = p.window_us.iter().map(|&(t, us)| (t, us / 1e3)).collect();
    let window_ms: Vec<f64> = timed_ms.iter().map(|w| w.1).collect();
    if let Some(s) = Summary::of(&window_ms) {
        // A run too short for a full block falls back to the whole run.
        let p50 = floor_over_blocks(&timed_ms, FLOOR_BLOCK_S, |b| percentile_of(b, 50.0));
        end_to_end.insert("p50_ms", p50.unwrap_or(s.p50));
        let mean_ms =
            floor_over_blocks(&timed_ms, FLOOR_BLOCK_S, mean).unwrap_or_else(|| mean(&window_ms));
        end_to_end.insert("rate_per_s", 1e3 / mean_ms);
        notes.push(("window_ms (whole run)".into(), s.describe("ms")));
        notes.push((
            "us_per_window (whole run)".into(),
            format!("{:.3}", mean(&window_ms) * 1e3),
        ));
    }
    if let Some(s) = Summary::of(&p.emit_push_us) {
        notes.push(("emit_push_us".into(), s.describe("us")));
    }
    notes.push(("rows".into(), p.rows.to_string()));
    notes.push(("windows".into(), p.emitted.len().to_string()));

    let mut per_layer = Values::new();
    per_layer.insert("runtime.stream.push_us", median_or_zero(&p.push_us));
    per_layer.insert(
        "runtime.stream.emit_push_us",
        median_or_zero(&p.emit_push_us),
    );
    per_layer.insert("runtime.stream.save_state_us", median_or_zero(&p.save_us));
    per_layer.insert(
        "runtime.stream.restore_state_us",
        median_or_zero(&p.restore_us),
    );
    per_layer.insert("runtime.stream.state_bytes", p.state_bytes as f64);
    per_layer.insert("ir.exec.window_forward_us", median_or_zero(&forward_us));
    Measured {
        // Emitted windows, state round trips, and pushes that errored.
        attempted: (p.emitted.len() + p.save_us.len()) as u64 + p.errors,
        failed,
        end_to_end,
        per_layer,
        notes,
    }
}

/// Runs the stream workload: several timed engine builds, an untraced
/// phase, and with `trace` a traced phase after it.
pub fn run(seed: u64, seconds: f64, trace: bool) -> Result<Outcome, String> {
    let mut timings = IrTimings::default();
    let mut setup_s = Vec::new();
    let engines = zoo::timed_builds(SETUPS_BEFORE, &mut timings, &mut setup_s, |g| {
        PulsedModel::from_graph(g, hop(g))
    })?;
    let graphs: Vec<Graph> = engines.into_iter().map(|e| e.graph).collect();
    let oracles = graphs
        .iter()
        .map(|g| CompiledModel::from_graph(g.clone()))
        .collect::<Result<Vec<_>, _>>()
        .map_err(|e| e.to_string())?;

    let mut out = Outcome::default();
    let phase = run_phase(&graphs, seed, seconds, false)?;
    let rss = crate::host::peak_rss_mb();
    zoo::timed_builds(SETUPS_AFTER, &mut timings, &mut setup_s, |g| {
        PulsedModel::from_graph(g, hop(g))
    })?;
    let m = measure(&phase, seed, &graphs, &oracles);
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
        let phase = run_phase(&graphs, seed, seconds, true);
        delta.stop();
        crate::trace::uninstall();
        let m = measure(&phase?, seed, &graphs, &oracles);
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
