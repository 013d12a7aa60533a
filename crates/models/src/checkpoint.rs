//! Checkpointing: the one on-disk format for trained models.
//!
//! A checkpoint is the [`cascade_util::bytes`] container — magic,
//! version, tagged sections in ascending tag order, end marker:
//!
//! | section      | body                                                   | written by |
//! |--------------|--------------------------------------------------------|------------|
//! | `PARAMS`     | counted parameters, each a counted `f32` run, in the module's `parameters()` order | every file |
//! | `NODE_STATE` | node count and the three widths, then memory rows, last-update times and each node's pending mailbox messages, all in global node-id order; [`MemoryPlane`](crate::MemoryPlane) encodes and decodes it | [`save_state`] |
//! | `WATERMARK`  | `u64` events the node state reflects                   | [`save_state`] |
//!
//! [`save_parameters`] writes the first section only, [`save_state`] all
//! three; [`MemoryTgnn::export_state`] is the first two with no header
//! (the bytes a stream checkpoint or a dist run carries in memory), so
//! parameters are encoded by one function. The temporal adjacency store
//! is never stored — it is a pure function of the processed event
//! prefix and is replayed ([`MemoryTgnn::replay_adjacency`]).
//!
//! Every file is written to a sibling `<name>.tmp`, synced, and renamed
//! into place, so a crash mid-write leaves the previous file intact and
//! a reader never observes a half-written one. Every load decodes and
//! validates the whole file against the receiver first and mutates only
//! then: a load that fails, for whatever reason, has changed nothing.

use std::fmt;
use std::io::Write;
use std::path::Path;

use cascade_nn::Module;
use cascade_tensor::Tensor;
#[cfg(test)]
use cascade_tgraph::NodeId;
use cascade_util::bytes::{tag, ByteReader, ByteWriter, DecodeError};

use crate::MemoryTgnn;

/// Errors from checkpoint I/O.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// Not a checkpoint file (bad magic) — including files written
    /// before the container format, which are not migrated.
    BadMagic,
    /// The bytes are not a well-formed checkpoint: truncated, trailing
    /// or out-of-order sections, an unsupported version.
    Decode(DecodeError),
    /// Parameter count or shape disagrees with the receiving module.
    ShapeMismatch {
        /// Parameter index at which the mismatch occurred.
        index: usize,
        /// Elements expected by the module.
        expected: usize,
        /// Elements found in the file.
        found: usize,
    },
    /// The file declares a different number of parameters.
    CountMismatch {
        /// Parameters expected by the module.
        expected: usize,
        /// Parameters found in the file.
        found: usize,
    },
    /// The node state decoded but does not fit the receiving model
    /// (wrong node count, dimensions, or mailbox capacity).
    StateMismatch(String),
}

impl fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {}", e),
            CheckpointError::BadMagic => write!(f, "not a cascade checkpoint file"),
            CheckpointError::Decode(e) => write!(f, "malformed checkpoint: {}", e),
            CheckpointError::ShapeMismatch {
                index,
                expected,
                found,
            } => write!(
                f,
                "parameter {} has {} elements in file, module expects {}",
                index, found, expected
            ),
            CheckpointError::CountMismatch { expected, found } => write!(
                f,
                "file holds {} parameters, module expects {}",
                found, expected
            ),
            CheckpointError::StateMismatch(msg) => {
                write!(f, "checkpoint does not fit this model: {}", msg)
            }
        }
    }
}

impl std::error::Error for CheckpointError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CheckpointError::Io(e) => Some(e),
            CheckpointError::Decode(e) => Some(e),
            _ => None,
        }
    }
}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

impl From<DecodeError> for CheckpointError {
    fn from(e: DecodeError) -> Self {
        match e {
            DecodeError::BadMagic => CheckpointError::BadMagic,
            other => CheckpointError::Decode(other),
        }
    }
}

fn put_params(w: &mut ByteWriter, params: &[Tensor]) {
    w.section(tag::PARAMS, |body| {
        body.usize(params.len());
        for p in params {
            body.f32s(&p.to_vec());
        }
    });
}

/// The `PARAMS` section's values, checked against the tensors that will
/// receive them.
fn take_params(r: &mut ByteReader, params: &[Tensor]) -> Result<Vec<Vec<f32>>, CheckpointError> {
    let mut body = r.require(tag::PARAMS)?;
    let found = body.count(8)?;
    if found != params.len() {
        return Err(CheckpointError::CountMismatch {
            expected: params.len(),
            found,
        });
    }
    let mut values = Vec::with_capacity(found);
    for (index, p) in params.iter().enumerate() {
        let data = body.f32s()?;
        if data.len() != p.len() {
            return Err(CheckpointError::ShapeMismatch {
                index,
                expected: p.len(),
                found: data.len(),
            });
        }
        values.push(data);
    }
    body.finish()?;
    Ok(values)
}

fn apply_params(params: &[Tensor], values: &[Vec<f32>]) {
    for (p, data) in params.iter().zip(values) {
        p.set_data(data);
    }
}

impl MemoryTgnn {
    /// Serializes everything learned or accumulated so far — parameters,
    /// node memories with their last-update times, and pending mailbox
    /// messages — as the `PARAMS` and `NODE_STATE` sections of the
    /// checkpoint container, with no header. The temporal adjacency
    /// store is excluded: it is a pure function of the already-processed
    /// event prefix and is rebuilt via
    /// [`replay_adjacency`](Self::replay_adjacency).
    pub fn export_state(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        put_params(&mut w, &self.parameters());
        self.plane().write_node_state(&mut w);
        w.into_bytes()
    }

    /// Restores state captured by [`export_state`](Self::export_state).
    /// The adjacency store is *not* restored — call
    /// [`replay_adjacency`](Self::replay_adjacency) with the processed
    /// event prefix afterwards.
    ///
    /// # Errors
    ///
    /// A [`CheckpointError`] when the bytes are malformed or their
    /// shapes do not match this model, which is then left untouched.
    pub fn import_state(&mut self, bytes: &[u8]) -> Result<(), CheckpointError> {
        let mut r = ByteReader::new(bytes);
        let params = self.parameters();
        let values = take_params(&mut r, &params)?;
        let nodes = self
            .plane()
            .read_node_state(&mut r)?
            .ok_or(DecodeError::MissingSection(tag::NODE_STATE))?;
        r.finish()?;
        apply_params(&params, &values);
        self.plane_mut().install(nodes);
        Ok(())
    }
}

/// Writes `bytes` to a sibling temp file, syncs it, and renames it over
/// `path`.
fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    let tmp = path.with_extension("tmp");
    let mut f = std::fs::File::create(&tmp)?;
    f.write_all(bytes)?;
    f.sync_data()?;
    drop(f);
    std::fs::rename(&tmp, path)?;
    Ok(())
}

/// Atomically writes every parameter of `module` to `path`.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem failures.
///
/// # Examples
///
/// ```
/// use cascade_models::{load_checkpoint, save_parameters, MemoryTgnn, ModelConfig};
///
/// # fn main() -> Result<(), Box<dyn std::error::Error>> {
/// let dir = std::env::temp_dir().join("cascade_ckpt_doc");
/// std::fs::create_dir_all(&dir)?;
/// let path = dir.join("tgn.ckpt");
///
/// let model = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 10, 4, 1);
/// save_parameters(&model, &path)?;
///
/// let mut fresh = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 10, 4, 2);
/// load_checkpoint(&mut fresh, &path)?;
/// # Ok(())
/// # }
/// ```
pub fn save_parameters<M: Module>(module: &M, path: &Path) -> Result<(), CheckpointError> {
    let mut w = ByteWriter::container();
    put_params(&mut w, &module.parameters());
    write_atomic(path, &w.end())
}

/// Atomically snapshots the model's full mutable state — parameters,
/// node memories, last-update times, and pending mailbox messages — to
/// `path`, tagged with `events_applied`, the number of stream events the
/// state reflects.
///
/// # Errors
///
/// Returns [`CheckpointError::Io`] on filesystem failures.
pub fn save_state(
    model: &MemoryTgnn,
    path: &Path,
    events_applied: u64,
) -> Result<(), CheckpointError> {
    let mut w = ByteWriter::container();
    w.raw(&model.export_state());
    w.section(tag::WATERMARK, |body| body.u64(events_applied));
    write_atomic(path, &w.end())
}

/// Loads any checkpoint into `model`: a full-state file restores
/// parameters *and* node state and returns `Some(events_applied)`; a
/// parameter-only file restores weights and returns `None` (memories
/// stay as built — a fresh model starts cold).
///
/// # Errors
///
/// I/O failures, [`CheckpointError::BadMagic`], a malformed or truncated
/// file, and any disagreement with the receiving model. The model is
/// modified only after the whole file has been decoded and validated.
pub fn load_checkpoint(
    model: &mut MemoryTgnn,
    path: &Path,
) -> Result<Option<u64>, CheckpointError> {
    let bytes = std::fs::read(path)?;
    let mut r = ByteReader::container(&bytes)?;
    let params = model.parameters();
    let values = take_params(&mut r, &params)?;
    let nodes = model.plane().read_node_state(&mut r)?;
    // Node state and the watermark that dates it travel together.
    let events_applied = match &nodes {
        Some(_) => {
            let mut body = r.require(tag::WATERMARK)?;
            let events = body.u64()?;
            body.finish()?;
            Some(events)
        }
        None => None,
    };
    r.end()?;
    apply_params(&params, &values);
    if let Some(nodes) = nodes {
        model.plane_mut().install(nodes);
    }
    Ok(events_applied)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{MemoryTgnn, ModelConfig};
    use cascade_tgraph::{synth_features, Event};

    fn tmp(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("cascade_ckpt_tests");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    fn tgn(nodes: usize, seed: u64) -> MemoryTgnn {
        MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), nodes, 4, seed)
    }

    #[test]
    fn roundtrip_restores_exact_values() {
        let path = tmp("roundtrip.ckpt");
        let a = tgn(6, 1);
        save_parameters(&a, &path).unwrap();

        let mut b = tgn(6, 99);
        load_checkpoint(&mut b, &path).unwrap();

        for (pa, pb) in a.parameters().iter().zip(b.parameters().iter()) {
            assert_eq!(pa.to_vec(), pb.to_vec());
        }
    }

    #[test]
    fn loaded_model_behaves_identically() {
        let path = tmp("behave.ckpt");
        let events = vec![Event::new(0u32, 1u32, 1.0), Event::new(2u32, 3u32, 2.0)];
        let feats = synth_features(2, 4, 7);

        let mut a = MemoryTgnn::new(ModelConfig::jodie().with_dims(8, 4), 6, 4, 1);
        save_parameters(&a, &path).unwrap();
        let mut b = MemoryTgnn::new(ModelConfig::jodie().with_dims(8, 4), 6, 4, 2);
        load_checkpoint(&mut b, &path).unwrap();

        let la = a.process_batch(&events, 0, &feats).loss.item();
        let lb = b.process_batch(&events, 0, &feats).loss.item();
        assert_eq!(la, lb);
    }

    #[test]
    fn architecture_mismatch_is_rejected() {
        let path = tmp("mismatch.ckpt");
        save_parameters(&tgn(6, 1), &path).unwrap();

        let mut wrong_width = MemoryTgnn::new(ModelConfig::tgn().with_dims(16, 4), 6, 4, 1);
        assert!(matches!(
            load_checkpoint(&mut wrong_width, &path),
            Err(CheckpointError::ShapeMismatch { .. })
        ));

        let mut wrong_arch = MemoryTgnn::new(ModelConfig::jodie().with_dims(8, 4), 6, 4, 1);
        assert!(matches!(
            load_checkpoint(&mut wrong_arch, &path),
            Err(CheckpointError::CountMismatch { .. }) | Err(CheckpointError::ShapeMismatch { .. })
        ));
    }

    #[test]
    fn garbage_and_pre_container_files_are_bad_magic() {
        let mut m = tgn(6, 1);
        // The magics earlier builds wrote ("CSC" and a version character)
        // are not migrated.
        let old = ['1', '2', '3', 'K'].map(|v| format!("CSC{v}{}", "\0".repeat(64)));
        let garbage = ["definitely not a checkpoint", "CAS", "", "CASD\x01\0\0\0"];
        for (i, bytes) in garbage
            .into_iter()
            .chain(old.iter().map(|s| &s[..]))
            .enumerate()
        {
            let path = tmp(&format!("garbage{i}.ckpt"));
            std::fs::write(&path, bytes).unwrap();
            assert!(matches!(
                load_checkpoint(&mut m, &path),
                Err(CheckpointError::BadMagic)
            ));
        }
    }

    #[test]
    fn missing_file_is_io_error() {
        assert!(matches!(
            load_checkpoint(&mut tgn(6, 1), Path::new("/nonexistent/nope.ckpt")),
            Err(CheckpointError::Io(_))
        ));
    }

    /// A model with evolved memories and pending mailbox messages.
    fn evolved() -> (MemoryTgnn, Vec<Event>, cascade_tgraph::EdgeFeatures) {
        let events = vec![
            Event::new(0u32, 1u32, 1.0),
            Event::new(2u32, 3u32, 2.0),
            Event::new(1u32, 4u32, 3.0),
            Event::new(0u32, 2u32, 4.0),
        ];
        let feats = synth_features(8, 4, 11);
        let mut m = tgn(6, 3);
        m.process_batch(&events[..2], 0, &feats);
        m.process_batch(&events[2..], 2, &feats);
        (m, events, feats)
    }

    #[test]
    fn state_roundtrip_restores_memories_and_watermark() {
        let path = tmp("state_roundtrip.ckpt");
        let (a, _, _) = evolved();
        save_state(&a, &path, 4).unwrap();

        let mut b = tgn(6, 77);
        assert_eq!(load_checkpoint(&mut b, &path).unwrap(), Some(4));
        assert_eq!(a.export_state(), b.export_state(), "bit-identical state");
    }

    #[test]
    fn one_loader_takes_parameter_and_full_state_files() {
        let (a, _, _) = evolved();
        let p1 = tmp("either_params.ckpt");
        let p2 = tmp("either_state.ckpt");
        save_parameters(&a, &p1).unwrap();
        save_state(&a, &p2, 9).unwrap();

        let mut m = tgn(6, 1);
        assert_eq!(load_checkpoint(&mut m, &p1).unwrap(), None);
        assert_eq!(load_checkpoint(&mut m, &p2).unwrap(), Some(9));
        assert_eq!(a.export_state(), m.export_state());
    }

    /// The format, written out by hand: header, section order, a
    /// parameter-only file and a full-state file.
    #[test]
    fn golden_bytes_pin_the_container() {
        struct Two(Tensor, Tensor);
        impl Module for Two {
            fn parameters(&self) -> Vec<Tensor> {
                vec![self.0.clone(), self.1.clone()]
            }
        }
        let path = tmp("golden_params.ckpt");
        let two = Two(
            Tensor::from_vec(vec![1.0, -2.0], [2]),
            Tensor::from_vec(vec![0.5], [1]),
        );
        save_parameters(&two, &path).unwrap();
        #[rustfmt::skip]
        let want: &[u8] = &[
            b'C', b'A', b'S', b'C', 1, 0, 0, 0,             // magic, version 1
            1, 0, 0, 0, 36, 0, 0, 0, 0, 0, 0, 0,            // PARAMS, 36-byte body
            2, 0, 0, 0, 0, 0, 0, 0,                         //   2 parameters
            2, 0, 0, 0, 0, 0, 0, 0,                         //   2 values:
            0, 0, 0x80, 0x3f, 0, 0, 0, 0xc0,                //     1.0, -2.0
            1, 0, 0, 0, 0, 0, 0, 0,                         //   1 value:
            0, 0, 0, 0x3f,                                  //     0.5
            0, 0, 0, 0,                                     // END
        ];
        assert_eq!(std::fs::read(&path).unwrap(), want);

        // Full state: the same header and PARAMS, then NODE_STATE and
        // WATERMARK, in that order.
        let (model, _, _) = evolved();
        let path = tmp("golden_state.ckpt");
        save_state(&model, &path, 4).unwrap();
        let mut want = b"CASC\x01\0\0\0".to_vec();
        let section = |tag: u32, body: &[u8]| {
            let mut s = tag.to_le_bytes().to_vec();
            s.extend_from_slice(&(body.len() as u64).to_le_bytes());
            s.extend_from_slice(body);
            s
        };
        let f32s = |out: &mut Vec<u8>, values: &[f32]| {
            out.extend(values.iter().flat_map(|v| v.to_le_bytes()));
        };
        let mut body = (model.parameters().len() as u64).to_le_bytes().to_vec();
        for p in model.parameters() {
            body.extend_from_slice(&(p.len() as u64).to_le_bytes());
            f32s(&mut body, &p.to_vec());
        }
        want.extend(section(1, &body));
        let plane = model.plane();
        let mut body = 6u64.to_le_bytes().to_vec(); // nodes
        for width in [8u32, 2 * 8 + 4 + 1, 1] {
            body.extend_from_slice(&width.to_le_bytes()); // memory, message, capacity
        }
        let nodes = || (0..6).map(NodeId);
        for n in nodes() {
            f32s(&mut body, plane.memory_read(n));
        }
        for n in nodes() {
            body.extend_from_slice(&plane.memory_last_update(n).to_le_bytes());
        }
        let mut pending = 0;
        for n in nodes() {
            let msgs = plane.mailbox_messages(n);
            pending += msgs.len();
            body.extend_from_slice(&(msgs.len() as u32).to_le_bytes());
            for msg in msgs {
                f32s(&mut body, msg);
            }
        }
        assert!(pending > 0, "the pinned file must hold mailbox messages");
        want.extend(section(2, &body));
        want.extend(section(3, &4u64.to_le_bytes()));
        want.extend([0; 4]); // END
        assert!(std::fs::read(&path).unwrap() == want);
        assert!(want[8..want.len() - 24] == model.export_state()[..]);
    }

    #[test]
    fn a_failed_load_of_any_file_mutates_nothing() {
        let (a, _, _) = evolved();
        let params = tmp("cut_params.ckpt");
        let state = tmp("cut_state.ckpt");
        save_parameters(&a, &params).unwrap();
        save_state(&a, &state, 4).unwrap();

        let mut b = tgn(6, 77);
        let before = b.export_state();
        let cut = tmp("cut.ckpt");
        for whole in [params, state] {
            let bytes = std::fs::read(&whole).unwrap();
            // Every strict prefix of either kind of file. Prefixes
            // that end inside a parameter's values are the ones an
            // apply-as-you-read loader leaves half-applied.
            for len in 0..bytes.len() {
                std::fs::write(&cut, &bytes[..len]).unwrap();
                assert!(load_checkpoint(&mut b, &cut).is_err(), "prefix {len}");
                assert!(b.export_state() == before, "prefix {len} mutated the model");
            }
            // A wrong last parameter is only found after every earlier
            // one decoded cleanly.
            let mut wrong = MemoryTgnn::new(ModelConfig::tgn().with_dims(8, 4), 6, 5, 77);
            let before = wrong.export_state();
            assert!(load_checkpoint(&mut wrong, &whole).is_err());
            assert!(wrong.export_state() == before);
        }
    }

    #[test]
    fn import_survives_the_hostile_input_battery() {
        // APAN: the one model whose mailboxes hold several messages.
        let cfg = ModelConfig::apan().with_dims(4, 2);
        let mut model = MemoryTgnn::new(cfg, 6, 2, 1);
        let feats = synth_features(6, 2, 2);
        let events = [
            Event::new(0u32, 1u32, 1.0),
            Event::new(2u32, 3u32, 2.0),
            Event::new(0u32, 2u32, 3.0),
        ];
        model.process_batch(&events, 0, &feats);
        model.process_batch(&events, 3, &feats);
        cascade_util::check_decoder("model_state", &model.export_state(), |bytes| {
            let before = model.export_state();
            let imported = model.import_state(bytes);
            if imported.is_err() {
                assert!(
                    model.export_state() == before,
                    "failed import mutates nothing"
                );
            }
            imported.ok().map(|()| model.export_state())
        });
    }

    #[test]
    fn import_rejects_a_message_count_beyond_the_mailbox() {
        // Regression: the count used to size an allocation unchecked and
        // was never compared with the mailbox capacity.
        let mut model = MemoryTgnn::new(ModelConfig::tgn().with_dims(4, 2), 3, 2, 1);
        let state = model.export_state();
        // Three empty mailboxes end the NODE_STATE body: the first
        // node's count is 12 bytes from the end.
        let at = state.len() - 12;
        for count in [2u32, 1 << 20, u32::MAX] {
            let mut bytes = state.clone();
            bytes[at..at + 4].copy_from_slice(&count.to_le_bytes());
            assert!(
                matches!(
                    model.import_state(&bytes),
                    Err(CheckpointError::StateMismatch(_))
                ),
                "count {count}"
            );
        }
    }

    #[test]
    fn state_into_wrong_architecture_is_mismatch() {
        let path = tmp("state_wrong_arch.ckpt");
        let (a, _, _) = evolved();
        save_state(&a, &path, 4).unwrap();
        assert!(matches!(
            load_checkpoint(&mut tgn(9, 1), &path),
            Err(CheckpointError::StateMismatch(_))
        ));
    }

    #[test]
    fn clone_shares_parameters_but_not_state() {
        let (mut a, events, feats) = evolved();
        let frozen = a.clone();
        let frozen_mem = frozen.export_state();

        // Evolve the original further: the clone's memories must not move.
        a.process_batch(&events, 4, &feats);
        assert_eq!(frozen.export_state(), frozen_mem, "clone state is frozen");
        assert_ne!(a.export_state(), frozen_mem, "original kept evolving");

        // But parameters are shared handles: poke one through the
        // original and observe it through the clone.
        let pa = a.parameters();
        let v0 = pa[0].to_vec();
        let mut bumped = v0.clone();
        bumped[0] += 1.0;
        pa[0].set_data(&bumped);
        assert_eq!(frozen.parameters()[0].to_vec(), bumped);
    }
}
