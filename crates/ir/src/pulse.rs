//! Streaming execution of lowered graphs by recompute.
//!
//! The batch executor ([`CompiledModel`]) wants the whole `[b, c, h, w]`
//! window in memory before it runs. Embedded deployments see the opposite
//! shape: a signal arriving one row at a time, under a fixed memory
//! budget, classified over sliding windows. [`PulsedModel`] serves that
//! shape with an input ring: it keeps the last `window_rows` pushed rows
//! and, whenever a push completes a window, lays the ring out as one
//! `[1, c, h, w]` image and runs [`CompiledModel::forward`] on it.
//!
//! **Bitwise equal by construction.** Every window runs through the batch
//! engine itself, so its logits equal a batch forward over the same rows
//! bit for bit, whatever `EDD_NUM_THREADS`, `EDD_SIMD`, or `EDD_GEMM`
//! selected.
//!
//! **Memory.** Carried state is the ring alone: `min(t, window_rows) ×
//! slice_len × 4` bytes after `t` pushes, however long the stream runs.
//! Transient memory is one batch-1 forward per emitted window.
//!
//! **Delay.** A window classifier pools over the whole window, so the
//! first window emits on row `window_rows − 1`, and window `k` covers
//! rows `k·hop .. k·hop + window_rows`.

use crate::exec::CompiledModel;
use crate::graph::Graph;
use edd_runtime::snapshot::SnapshotError;
use edd_runtime::{
    decode_container_as, encode_container_as, ByteReader, ByteWriter, StreamModel, StreamWindow,
};
use edd_tensor::{Array, Result, TensorError};

/// Container magic of a saved stream state.
const STATE_MAGIC: [u8; 8] = *b"EDDSTRM\0";
/// Stream state layout version (1 was the per-layer pulse state).
const STATE_VERSION: u32 = 2;

fn invalid(msg: impl Into<String>) -> TensorError {
    TensorError::InvalidArgument(msg.into())
}

/// Sliding-window streaming classifier over a [`CompiledModel`].
///
/// Pushes consume one input row (`channels × width` floats, channel-major)
/// at a time. A new window starts every `hop` rows; the push that delivers
/// a window's last row returns its logits. Implements [`StreamModel`].
#[derive(Debug)]
pub struct PulsedModel {
    model: CompiledModel,
    hop: usize,
    /// The last `window_rows` rows; row `r` of the stream lives in slot
    /// `r % window_rows`.
    ring: Vec<f32>,
    /// Reused `[1, c, h, w]` input of the per-window forward.
    window: Array,
    /// Rows pushed since the stream began.
    t: u64,
}

impl PulsedModel {
    /// Compiles a lowered graph into a sliding-window stream with the
    /// given hop (rows between window starts).
    ///
    /// # Errors
    ///
    /// Errors when the hop is zero, the window is empty, or
    /// [`CompiledModel::from_graph`] rejects the graph (float ops left, or
    /// an output that is not `[num_classes]` logits).
    pub fn from_graph(graph: &Graph, hop: usize) -> Result<Self> {
        if hop == 0 {
            return Err(invalid("PulsedModel: hop must be at least one row"));
        }
        let [c, h, w] = graph.meta.input_shape;
        if c * h * w == 0 {
            return Err(invalid(format!("PulsedModel: empty {c}×{h}×{w} window")));
        }
        let model = CompiledModel::from_graph(graph.clone())?;
        Ok(PulsedModel {
            model,
            hop,
            ring: vec![0.0; h * c * w],
            window: Array::zeros(&[1, c, h, w]),
            t: 0,
        })
    }

    /// Rows currently held in the ring.
    fn held_rows(&self) -> usize {
        self.t.min(self.window_rows() as u64) as usize
    }
}

impl StreamModel for PulsedModel {
    type Error = TensorError;

    fn slice_len(&self) -> usize {
        let [c, _, w] = self.model.graph().meta.input_shape;
        c * w
    }

    fn window_rows(&self) -> usize {
        self.model.graph().meta.input_shape[1]
    }

    fn hop_rows(&self) -> usize {
        self.hop
    }

    fn num_classes(&self) -> usize {
        self.model.graph().meta.num_classes
    }

    fn delay_rows(&self) -> usize {
        self.window_rows() - 1
    }

    fn push(&mut self, slice: &[f32]) -> Result<Option<StreamWindow>> {
        let len = self.slice_len();
        if slice.len() != len {
            return Err(invalid(format!(
                "stream push: expected {len} floats per slice, got {}",
                slice.len()
            )));
        }
        let [c, h, w] = self.model.graph().meta.input_shape;
        let t = self
            .t
            .checked_add(1)
            .ok_or_else(|| invalid("stream push: row counter overflow"))?;
        let slot = (self.t % h as u64) as usize;
        self.ring[slot * len..(slot + 1) * len].copy_from_slice(slice);
        self.t = t;
        let Some(start_row) = t.checked_sub(h as u64) else {
            return Ok(None);
        };
        if !start_row.is_multiple_of(self.hop as u64) {
            return Ok(None);
        }
        // The oldest row of the window sits in the slot the next push
        // overwrites.
        let oldest = (t % h as u64) as usize;
        let x = self.window.data_mut();
        for r in 0..h {
            let s = (oldest + r) % h;
            let row = &self.ring[s * len..(s + 1) * len];
            for ch in 0..c {
                x[(ch * h + r) * w..(ch * h + r + 1) * w]
                    .copy_from_slice(&row[ch * w..(ch + 1) * w]);
            }
        }
        let logits = self.model.forward(&self.window)?.into_vec();
        Ok(Some(StreamWindow {
            index: start_row / self.hop as u64,
            start_row,
            logits,
        }))
    }

    fn reset(&mut self) {
        self.t = 0;
    }

    fn state_bytes(&self) -> usize {
        self.held_rows() * self.slice_len() * std::mem::size_of::<f32>()
    }

    fn save_state(&self) -> Vec<u8> {
        let (h, len) = (self.window_rows(), self.slice_len());
        let held = self.held_rows();
        let mut rows = Vec::with_capacity(held * len);
        for i in 0..held {
            let s = ((self.t - (held - i) as u64) % h as u64) as usize;
            rows.extend_from_slice(&self.ring[s * len..(s + 1) * len]);
        }
        let mut w = ByteWriter::new();
        w.put_u64(self.hop as u64);
        w.put_u64(len as u64);
        w.put_u64(self.t);
        w.put_u64(held as u64);
        w.put_f32_slice(&rows);
        encode_container_as(&STATE_MAGIC, STATE_VERSION, &w.into_bytes())
    }

    fn restore_state(&mut self, bytes: &[u8]) -> Result<()> {
        let snap = |e: SnapshotError| invalid(format!("stream restore: {e}"));
        let payload = decode_container_as(&STATE_MAGIC, STATE_VERSION, bytes).map_err(snap)?;
        if bytes[8..12] != STATE_VERSION.to_le_bytes() {
            return Err(invalid("stream restore: unsupported state version"));
        }
        let mut r = ByteReader::new(&payload);
        let (hop, len) = (r.get_u64().map_err(snap)?, r.get_u64().map_err(snap)?);
        if hop != self.hop as u64 || len != self.slice_len() as u64 {
            return Err(invalid(format!(
                "stream restore: state has hop {hop} and slice length {len}, this model \
                 {} and {}",
                self.hop,
                self.slice_len()
            )));
        }
        let t = r.get_u64().map_err(snap)?;
        let held = r.get_u64().map_err(snap)?;
        let h = self.window_rows() as u64;
        if held != t.min(h) {
            return Err(invalid(format!(
                "stream restore: {held} ring rows after {t} pushes, expected {}",
                t.min(h)
            )));
        }
        let rows = r.get_f32_vec().map_err(snap)?;
        if rows.len() as u64 != held * len || r.remaining() != 0 {
            return Err(invalid("stream restore: ring rows do not match the header"));
        }
        let len = len as usize;
        for (i, row) in rows.chunks_exact(len).enumerate() {
            let s = ((t - held + i as u64) % h) as usize;
            self.ring[s * len..(s + 1) * len].copy_from_slice(row);
        }
        self.t = t;
        Ok(())
    }
}
