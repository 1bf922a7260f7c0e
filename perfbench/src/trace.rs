//! The benchmark's telemetry sink and kernel-counter deltas.
//!
//! The program already emits spans, counters and events through
//! `edd_runtime::telemetry`; the benchmark installs [`Recorder`] as the
//! global sink and keeps everything in memory until the run ends. An
//! epoch-clock recorder keeps only the `search.epoch` event times: it is
//! the one piece of instrumentation the untraced `search` run needs,
//! because epoch boundaries are not visible through the public API any
//! other way.

use edd_runtime::telemetry::{self, Event, EventKind, Sink, Value};
use edd_tensor::stats::KernelStats;
use std::collections::BTreeMap;
use std::sync::{Arc, Mutex};
use std::time::Instant;

/// The per-epoch event the co-search emits.
const EPOCH_EVENT: &str = "search.epoch";

/// In-memory telemetry sink.
#[derive(Debug, Default)]
pub struct Recorder {
    /// `false`: keep only epoch event times.
    full: bool,
    inner: Mutex<Recorded>,
}

/// What a [`Recorder`] has kept so far.
#[derive(Debug, Default)]
pub struct Recorded {
    /// Span durations in µs, by span path, in emission order.
    pub spans: BTreeMap<String, Vec<u64>>,
    /// Counter totals by name.
    pub counters: BTreeMap<String, u64>,
    /// When each `search.epoch` event arrived.
    pub epoch_times: Vec<Instant>,
}

impl Recorder {
    /// A sink that keeps every span, counter and epoch event.
    #[must_use]
    pub fn full() -> Arc<Recorder> {
        Arc::new(Recorder {
            full: true,
            ..Recorder::default()
        })
    }

    /// A sink that keeps only epoch event times.
    #[must_use]
    pub fn epoch_clock() -> Arc<Recorder> {
        Arc::new(Recorder::default())
    }

    /// Installs `self` as the process-wide telemetry sink.
    pub fn install(self: &Arc<Self>) {
        telemetry::set_global(Arc::clone(self) as Arc<dyn Sink>);
    }

    /// Takes everything recorded so far, leaving the recorder empty.
    pub fn take(&self) -> Recorded {
        std::mem::take(&mut *self.lock())
    }

    fn lock(&self) -> std::sync::MutexGuard<'_, Recorded> {
        self.inner
            .lock()
            .expect("recorder lock poisoned by a panic")
    }
}

/// Restores the default no-op sink.
pub fn uninstall() {
    telemetry::clear_global();
}

impl Sink for Recorder {
    fn emit(&self, event: &Event<'_>) {
        if event.kind == EventKind::Event && event.name == EPOCH_EVENT {
            let now = Instant::now();
            self.lock().epoch_times.push(now);
            return;
        }
        if !self.full {
            return;
        }
        // Spans carry their duration in µs and counters their delta.
        let Some(Value::U64(v)) = event.value else {
            return;
        };
        let mut r = self.lock();
        match event.kind {
            EventKind::Span => r.spans.entry(event.name.to_owned()).or_default().push(v),
            EventKind::Counter => *r.counters.entry(event.name.to_owned()).or_default() += v,
            EventKind::Gauge | EventKind::Event => {}
        }
    }
}

/// Kernel-runtime counters accumulated between two snapshots.
#[derive(Debug, Clone, Copy, Default)]
pub struct TensorDelta {
    before: KernelStats,
    after: KernelStats,
}

impl TensorDelta {
    /// Starts a measurement: zeroes the scratch high-water mark (a maximum,
    /// not a count) and snapshots the counters.
    #[must_use]
    pub fn start() -> TensorDelta {
        edd_tensor::stats::reset();
        let before = edd_tensor::stats::snapshot();
        TensorDelta {
            before,
            after: before,
        }
    }

    /// Ends the measurement.
    pub fn stop(&mut self) {
        self.after = edd_tensor::stats::snapshot();
    }

    /// `(metric name, value, unit)` for every `tensor.*` per-layer metric.
    #[must_use]
    pub fn metrics(&self) -> Vec<(&'static str, f64, &'static str)> {
        let (a, b) = (&self.after, &self.before);
        let d = |x: u64, y: u64| x.saturating_sub(y) as f64;
        let hits = d(a.buffer_pool_hits, b.buffer_pool_hits);
        let misses = d(a.buffer_pool_misses, b.buffer_pool_misses);
        let par = d(a.pool_parallel_jobs, b.pool_parallel_jobs);
        let inline = d(a.pool_inline_jobs, b.pool_inline_jobs);
        vec![
            (
                "tensor.select_vecmat",
                d(a.select_vecmat, b.select_vecmat),
                "count",
            ),
            (
                "tensor.select_skinny_n",
                d(a.select_skinny_n, b.select_skinny_n),
                "count",
            ),
            (
                "tensor.select_square",
                d(a.select_square, b.select_square),
                "count",
            ),
            (
                "tensor.select_conv",
                d(a.select_conv, b.select_conv),
                "count",
            ),
            (
                "tensor.pack_panel_hits",
                d(a.pack_panel_hits, b.pack_panel_hits),
                "count",
            ),
            (
                "tensor.buffer_fresh_bytes",
                d(a.buffer_fresh_bytes, b.buffer_fresh_bytes),
                "B",
            ),
            (
                "tensor.buffer_pool_hit_ratio",
                ratio(hits, hits + misses),
                "ratio",
            ),
            (
                "tensor.scratch_high_water_bytes",
                a.scratch_high_water_bytes as f64,
                "B",
            ),
            ("tensor.pool_utilization", ratio(par, par + inline), "ratio"),
        ]
    }
}

/// `num / den`, or 0 when nothing was counted.
#[must_use]
pub fn ratio(num: f64, den: f64) -> f64 {
    if den > 0.0 {
        num / den
    } else {
        0.0
    }
}
