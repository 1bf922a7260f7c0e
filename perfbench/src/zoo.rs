//! The tiny-zoo engines every inference workload serves, built on the IR
//! path only: `lower_to_graph` → `edd_ir::lower` → `.eddm` artifact bytes
//! → hot-load.

use edd_core::lower_to_graph;
use edd_ir::{artifact, Graph, PassConfig};
use std::time::Instant;

/// One hot-loaded engine of the tiny zoo.
#[derive(Debug)]
pub struct Engine<T> {
    /// The lowered graph, as decoded from its artifact bytes.
    pub graph: Graph,
    /// The runnable model built from `graph`.
    pub model: T,
}

/// Timings of the IR layer taken while building the zoo, in ms.
#[derive(Debug, Default)]
pub struct IrTimings {
    /// `edd_ir::lower` (every pass plus quantize lowering), per model.
    pub compile_ms: Vec<f64>,
    /// Artifact decode plus building the runnable model, per model.
    pub load_ms: Vec<f64>,
}

/// Seed of the engines' weights and calibration. The engines are the
/// system under test, so they stay fixed; `--seed` picks the inputs
/// (request images, stream signal).
const ZOO_SEED: u64 = 0x00DD_5EED;

/// Builds the three tiny-zoo engines: random QAT weights and calibration,
/// lowering to the float graph, every IR pass, serialization to artifact
/// bytes, and a hot-load through `make`.
///
/// # Errors
///
/// Any lowering, pass, artifact or model-construction error, as text.
pub fn build<T, E: std::fmt::Display>(
    timings: &mut IrTimings,
    make: impl Fn(&Graph) -> Result<T, E>,
) -> Result<Vec<Engine<T>>, String> {
    edd_zoo::prepare_tiny_zoo(ZOO_SEED)
        .iter()
        .map(|(arch, qat, calib)| {
            let float = lower_to_graph(qat, arch, calib).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let (lowered, _) =
                edd_ir::lower(&float, &PassConfig::all()).map_err(|e| e.to_string())?;
            timings.compile_ms.push(ms_since(t));
            let bytes = artifact::to_bytes(&lowered).map_err(|e| e.to_string())?;
            let t = Instant::now();
            let graph = artifact::from_bytes(&bytes).map_err(|e| e.to_string())?;
            let model = make(&graph).map_err(|e| e.to_string())?;
            timings.load_ms.push(ms_since(t));
            Ok(Engine { graph, model })
        })
        .collect()
}

/// Builds the zoo `times` times (at least once), pushes each build's wall
/// time in seconds onto `setup_s`, and returns the last build.
///
/// # Errors
///
/// The first build error, as text.
pub fn timed_builds<T, E: std::fmt::Display>(
    times: usize,
    timings: &mut IrTimings,
    setup_s: &mut Vec<f64>,
    make: impl Fn(&Graph) -> Result<T, E>,
) -> Result<Vec<Engine<T>>, String> {
    let mut engines = Vec::new();
    for _ in 0..times.max(1) {
        engines.clear();
        let t = Instant::now();
        engines = build(timings, &make)?;
        setup_s.push(t.elapsed().as_secs_f64());
    }
    Ok(engines)
}

/// Milliseconds elapsed since `t`.
#[must_use]
fn ms_since(t: Instant) -> f64 {
    t.elapsed().as_secs_f64() * 1e3
}
