//! Property tests for streaming inference ([`edd_ir::PulsedModel`]).
//!
//! Windows: for every tiny-zoo engine and a small hand-built graph, any
//! hop in `1..=2·window` and any stream length, the stream emits exactly
//! the windows the geometry promises, the first on row `delay_rows()`,
//! each with the right `index` and `start_row`, and each bitwise equal to
//! `CompiledModel::forward` on the same rows. The determinism CI leg runs
//! this suite across the `EDD_NUM_THREADS` × `EDD_SIMD` × `EDD_GEMM`
//! matrix.
//!
//! Hostile state: `restore_state` returns an error, never panics and never
//! changes the model, for every truncation of a real mid-window blob, for
//! single-bit flips of it, and for well-formed blobs whose header lies.

use std::sync::OnceLock;

use edd_ir::{compile, CompiledModel, ConvOp, Graph, GraphMeta, LinearOp, Node, Op, PassConfig};
use edd_runtime::{decode_container_as, encode_container_as, StreamModel};
use edd_tensor::Array;
use edd_zoo::{compile_tiny_zoo, signal_window, synthetic_signal};
use proptest::prelude::*;

const SEED: u64 = 11;

fn bits(xs: &[f32]) -> Vec<u32> {
    xs.iter().map(|v| v.to_bits()).collect()
}

/// Small annotated float graph exercising every executable op (conv,
/// relu6, residual add, pool, linear) on a 6-row window of width 5.
fn small_graph() -> Graph {
    let mut g = Graph::new(GraphMeta {
        name: "pulse-test".into(),
        input_shape: [2, 6, 5],
        num_classes: 3,
    });
    let mut state = 0x1234_5678u64;
    let mut next = move || {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        ((state >> 11) as f64 / f64::from(1u32 << 21) - 16.0) as f32 * 0.04
    };
    let mut conv = |out_c: usize, in_c: usize, k: usize, pad: usize| {
        Op::Conv2d(Box::new(ConvOp {
            w: (0..out_c * in_c * k * k).map(|_| next()).collect(),
            out_channels: out_c,
            in_channels: in_c,
            kernel: k,
            stride: 1,
            padding: pad,
            bias: None,
            relu6: false,
        }))
    };
    let (c1, c2) = (conv(4, 2, 3, 1), conv(4, 4, 1, 0));
    let add = |g: &mut Graph, name: &str, op: Op, inputs: Vec<usize>, scale: f32| {
        g.add(Node {
            name: name.into(),
            op,
            inputs,
            scale: Some(scale),
            bits: None,
        })
        .unwrap()
    };
    let i = add(&mut g, "in", Op::Input, vec![], 0.05);
    let c1 = add(&mut g, "c1", c1, vec![i], 0.04);
    let r1 = add(&mut g, "r1", Op::Relu6, vec![c1], 0.04);
    let c2 = add(&mut g, "c2", c2, vec![r1], 0.04);
    let res = add(&mut g, "res", Op::Add, vec![c2, r1], 0.05);
    let p = add(&mut g, "gap", Op::GlobalAvgPool, vec![res], 0.05);
    let fc = Op::Linear(Box::new(LinearOp {
        w: (0..4 * 3).map(|_| next()).collect(),
        in_features: 4,
        out_features: 3,
        bias: vec![0.05, -0.1, 0.0],
    }));
    let fc = add(&mut g, "fc", fc, vec![p], 0.05);
    g.set_output(fc).unwrap();
    g
}

/// Every tiny-zoo engine plus the small graph, compiled once.
fn engines() -> &'static [(String, CompiledModel)] {
    static ENGINES: OnceLock<Vec<(String, CompiledModel)>> = OnceLock::new();
    ENGINES.get_or_init(|| {
        let mut out: Vec<_> = compile_tiny_zoo(SEED, &PassConfig::all())
            .into_iter()
            .map(|(name, model, _)| (name, model))
            .collect();
        let (small, _) = compile(&small_graph(), &PassConfig::all()).expect("compile");
        out.push(("pulse-test".into(), small));
        out
    })
}

/// Streams `signal` through a fresh model, returning each window with the
/// row whose push emitted it.
fn stream(
    model: &CompiledModel,
    hop: usize,
    signal: &[Vec<f32>],
) -> Vec<(usize, edd_runtime::StreamWindow)> {
    let mut pulsed = edd_ir::PulsedModel::from_graph(model.graph(), hop).expect("pulse");
    let mut out = Vec::new();
    for (r, row) in signal.iter().enumerate() {
        if let Some(w) = pulsed.push(row).expect("push") {
            out.push((r, w));
        }
    }
    out
}

/// Asserts `window` equals the batch engine on rows `start_row..` bitwise.
fn assert_matches_batch(
    model: &CompiledModel,
    signal: &[Vec<f32>],
    win: &edd_runtime::StreamWindow,
) {
    let [c, h, w] = model.graph().meta.input_shape;
    let buf = signal_window(signal, win.start_row as usize, h, c, w);
    let want = model
        .forward(&Array::from_vec(buf, &[1, c, h, w]).expect("shape"))
        .expect("batch forward");
    assert_eq!(
        bits(want.data()),
        bits(&win.logits),
        "{}: window {} diverges from the batch engine",
        model.name(),
        win.index
    );
}

/// A model of the first engine after `rows` pushes, with its state blob.
fn mid_stream(rows: usize) -> (edd_ir::PulsedModel, Vec<u8>) {
    let model = &engines()[0].1;
    let [c, h, w] = model.graph().meta.input_shape;
    let mut pulsed = edd_ir::PulsedModel::from_graph(model.graph(), h / 2).expect("pulse");
    for row in synthetic_signal(c, w, rows, 5) {
        pulsed.push(&row).expect("push");
    }
    let blob = pulsed.save_state();
    (pulsed, blob)
}

/// A real blob cut mid-window: past the first window, off a hop boundary.
fn mid_window_blob() -> (edd_ir::PulsedModel, Vec<u8>) {
    let h = engines()[0].1.graph().meta.input_shape[1];
    mid_stream(h + h / 4 + 1)
}

/// Asserts `restore_state(blob)` fails and leaves `model` as it was.
fn assert_rejected(model: &mut edd_ir::PulsedModel, blob: &[u8], what: &str) {
    let before = model.save_state();
    assert!(model.restore_state(blob).is_err(), "{what}: accepted");
    assert_eq!(
        model.save_state(),
        before,
        "{what}: failed restore changed the model"
    );
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(24))]

    #[test]
    fn windows_match_batch_for_any_hop_and_length(
        engine_seed in 0usize..=usize::MAX,
        hop_seed in 0usize..=usize::MAX,
        len_seed in 0usize..=usize::MAX,
        signal_seed in 0u64..=u64::MAX,
    ) {
        let (name, model) = &engines()[engine_seed % engines().len()];
        let [c, h, w] = model.graph().meta.input_shape;
        let hop = 1 + hop_seed % (2 * h);
        let rows = len_seed % (4 * h + 1);
        let signal = synthetic_signal(c, w, rows, signal_seed);
        let windows = stream(model, hop, &signal);

        let expected = if rows < h { 0 } else { (rows - h) / hop + 1 };
        prop_assert_eq!(windows.len(), expected, "{} hop {} rows {}", name, hop, rows);
        let pulsed = edd_ir::PulsedModel::from_graph(model.graph(), hop).expect("pulse");
        prop_assert_eq!(pulsed.delay_rows(), h - 1);
        if let Some((first, _)) = windows.first() {
            prop_assert_eq!(*first, pulsed.delay_rows(), "{}: first emission", name);
        }
        for (i, (row, win)) in windows.iter().enumerate() {
            prop_assert_eq!(win.index as usize, i);
            prop_assert_eq!(win.start_row as usize, i * hop);
            prop_assert_eq!(*row, i * hop + h - 1);
            assert_matches_batch(model, &signal, win);
        }
    }

    #[test]
    fn flipped_bit_is_always_rejected(pos_seed in 0usize..=usize::MAX, bit in 0u8..8) {
        let (mut model, mut blob) = mid_window_blob();
        let pos = pos_seed % blob.len();
        blob[pos] ^= 1 << bit;
        assert_rejected(&mut model, &blob, &format!("bit {bit} of byte {pos} flipped"));
    }
}

#[test]
fn every_truncation_is_rejected() {
    let (mut model, blob) = mid_window_blob();
    for keep in 0..blob.len() {
        assert_rejected(&mut model, &blob[..keep], &format!("cut to {keep} bytes"));
    }
}

#[test]
fn forged_headers_are_rejected() {
    let (mut model, blob) = mid_window_blob();
    let magic: [u8; 8] = blob[..8].try_into().unwrap();
    let version = u32::from_le_bytes(blob[8..12].try_into().unwrap());
    let payload = decode_container_as(&magic, version, &blob).expect("real blob decodes");
    // The round trip itself is exact.
    let mut fresh =
        edd_ir::PulsedModel::from_graph(engines()[0].1.graph(), model.hop_rows()).expect("pulse");
    fresh.restore_state(&blob).expect("restore");
    assert_eq!(fresh.save_state(), blob);

    let mut wrong_magic = magic;
    wrong_magic[0] ^= 0x20;
    assert_rejected(
        &mut model,
        &encode_container_as(&wrong_magic, version, &payload),
        "wrong magic",
    );
    for v in [0, version - 1, version + 1] {
        let forged = encode_container_as(&magic, v, &payload);
        assert_rejected(&mut model, &forged, &format!("version {v}"));
    }
    // Payload layout: hop, slice length, rows pushed, ring rows (u64
    // each), then the ring as a length-prefixed f32 slice.
    let with_field = |field: usize, value: u64| {
        let mut p = payload.clone();
        p[field * 8..field * 8 + 8].copy_from_slice(&value.to_le_bytes());
        encode_container_as(&magic, version, &p)
    };
    let field = |i: usize| u64::from_le_bytes(payload[i * 8..i * 8 + 8].try_into().unwrap());
    let (hop, len, t, held) = (field(0), field(1), field(2), field(3));
    assert_eq!(held, t.min(model.window_rows() as u64));
    for (i, v, what) in [
        (0, hop + 1, "wrong hop"),
        (1, len + 1, "wrong slice length"),
        (2, held - 1, "ring rows exceed pushes"),
        (3, held - 1, "ring row count below the window"),
        (3, held + 1, "ring row count above the window"),
    ] {
        assert_rejected(&mut model, &with_field(i, v), what);
    }
    let mut trailing = payload.clone();
    trailing.push(0);
    assert_rejected(
        &mut model,
        &encode_container_as(&magic, version, &trailing),
        "trailing byte",
    );

    // Before the first window the ring holds `t` rows, not a full window.
    let (mut early, blob) = mid_stream(3);
    let p = decode_container_as(&magic, version, &blob).expect("decodes");
    let mut forged = p.clone();
    forged[24..32].copy_from_slice(&(model.window_rows() as u64).to_le_bytes());
    assert_rejected(
        &mut early,
        &encode_container_as(&magic, version, &forged),
        "full ring after 3 pushes",
    );
}

#[test]
fn non_finite_rows_match_batch() {
    for (_, model) in engines() {
        let [c, h, w] = model.graph().meta.input_shape;
        let mut signal = synthetic_signal(c, w, 2 * h, 9);
        signal[h / 2][0] = f32::NAN;
        signal[h / 2][1] = f32::INFINITY;
        signal[h][c * w - 1] = f32::NEG_INFINITY;
        let windows = stream(model, (h / 4).max(1), &signal);
        assert!(windows.len() > 1);
        for (_, win) in &windows {
            assert_matches_batch(model, &signal, win);
        }
    }
}

#[test]
fn rejects_unlowered_graphs_bad_slices_and_zero_hop() {
    let g = small_graph();
    let err = edd_ir::PulsedModel::from_graph(&g, 2)
        .unwrap_err()
        .to_string();
    assert!(err.contains("unlowered"), "{err}");
    let model = &engines()[0].1;
    assert!(edd_ir::PulsedModel::from_graph(model.graph(), 0).is_err());
    let mut pulsed = edd_ir::PulsedModel::from_graph(model.graph(), 2).expect("pulse");
    assert!(pulsed.push(&[0.0; 3]).is_err());
    assert_eq!(pulsed.state_bytes(), 0);
}
