//! Whole-module state capture and restoration (the analogue of
//! `state_dict()`/`load_state_dict()`), used to transfer pretrained weights
//! between network instances — plus on-disk persistence in the checksummed
//! binary container format of [`crate::serialize`] (magic `TYXESD`,
//! version 1), used by training checkpoints.

use std::collections::HashMap;
use std::path::Path;

use crate::module::Module;
use crate::serialize::{
    atomic_write, decode_container, encode_container, read_file, ByteReader, ByteWriter, LoadError,
};

/// Container magic for serialized state dicts.
const MAGIC: &[u8; 8] = b"TYXESD\x00\x00";
/// Current (and maximum understood) format version.
const VERSION: u32 = 1;

/// A snapshot of a module's parameters and buffers, keyed by dotted path.
#[derive(Debug, Clone, Default)]
pub struct StateDict {
    params: HashMap<String, Vec<f64>>,
    buffers: HashMap<String, Vec<f64>>,
}

impl StateDict {
    /// Captures the current parameter leaves and buffers of `module`.
    pub fn from_module<M: Module>(module: &M) -> StateDict {
        let mut params = HashMap::new();
        module.visit_params("", &mut |info| {
            params.insert(info.name.clone(), info.param.leaf().to_vec());
        });
        let mut buffers = HashMap::new();
        module.visit_buffers("", &mut |name, buf| {
            buffers.insert(name, buf.borrow().clone());
        });
        StateDict { params, buffers }
    }

    /// Loads the snapshot into a (structurally identical) module.
    ///
    /// # Panics
    ///
    /// Panics if a parameter or buffer of the target is missing from the
    /// snapshot or has a different length.
    pub fn apply<M: Module>(&self, module: &M) {
        module.visit_params("", &mut |info| {
            let data = self
                .params
                .get(&info.name)
                .unwrap_or_else(|| panic!("StateDict: missing parameter {:?}", info.name));
            info.param.load_data(data.clone());
        });
        module.visit_buffers("", &mut |name, buf| {
            let data = self
                .buffers
                .get(&name)
                .unwrap_or_else(|| panic!("StateDict: missing buffer {name:?}"));
            assert_eq!(data.len(), buf.borrow().len(), "StateDict: buffer {name} length");
            *buf.borrow_mut() = data.clone();
        });
    }

    /// Number of parameter entries.
    pub fn num_params(&self) -> usize {
        self.params.len()
    }

    /// Number of buffer entries.
    pub fn num_buffers(&self) -> usize {
        self.buffers.len()
    }

    /// Reads one parameter entry.
    pub fn param(&self, name: &str) -> Option<&[f64]> {
        self.params.get(name).map(Vec::as_slice)
    }

    /// Reads one buffer entry.
    pub fn buffer(&self, name: &str) -> Option<&[f64]> {
        self.buffers.get(name).map(Vec::as_slice)
    }

    /// Inserts (or replaces) a parameter entry. Lets callers assemble
    /// synthetic state dicts — e.g. a checkpoint naming optimizer slots
    /// that never lived on a module.
    pub fn insert_param(&mut self, name: impl Into<String>, data: Vec<f64>) {
        self.params.insert(name.into(), data);
    }

    /// Inserts (or replaces) a buffer entry.
    pub fn insert_buffer(&mut self, name: impl Into<String>, data: Vec<f64>) {
        self.buffers.insert(name.into(), data);
    }

    /// Parameter names in sorted (serialization) order.
    pub fn param_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.params.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    /// Buffer names in sorted (serialization) order.
    pub fn buffer_names(&self) -> Vec<&str> {
        let mut names: Vec<&str> = self.buffers.keys().map(String::as_str).collect();
        names.sort_unstable();
        names
    }

    // -----------------------------------------------------------------
    // On-disk persistence
    // -----------------------------------------------------------------

    /// Encodes the snapshot into the checksummed container format.
    ///
    /// Entries are written in sorted name order, so encoding is canonical:
    /// two state dicts with bitwise-equal contents produce byte-identical
    /// files regardless of hash-map iteration order.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut w = ByteWriter::new();
        for map in [&self.params, &self.buffers] {
            let mut names: Vec<&String> = map.keys().collect();
            names.sort_unstable();
            w.put_u64(names.len() as u64);
            for name in names {
                w.put_str(name);
                w.put_f64_slice(&map[name]);
            }
        }
        encode_container(MAGIC, VERSION, &w.into_bytes())
    }

    /// Decodes a snapshot from bytes produced by [`StateDict::to_bytes`],
    /// verifying magic, version and checksum.
    pub fn from_bytes(bytes: &[u8]) -> Result<StateDict, LoadError> {
        let (_version, payload) = decode_container(bytes, MAGIC, VERSION)?;
        let mut r = ByteReader::new(payload);
        let mut maps = [HashMap::new(), HashMap::new()];
        for map in &mut maps {
            let count = r.get_u64()?;
            for _ in 0..count {
                let name = r.get_str()?;
                let data = r.get_f64_slice()?;
                if map.insert(name, data).is_some() {
                    return Err(LoadError::Malformed("duplicate entry name".into()));
                }
            }
        }
        if !r.is_exhausted() {
            return Err(LoadError::Malformed("trailing bytes in state dict payload".into()));
        }
        let [params, buffers] = maps;
        Ok(StateDict { params, buffers })
    }

    /// Saves the snapshot to `path` atomically (temp file + rename): a
    /// crash mid-save leaves the previous file intact, never a torn one.
    pub fn save(&self, path: impl AsRef<Path>) -> std::io::Result<()> {
        atomic_write(path.as_ref(), &self.to_bytes())
    }

    /// Loads a snapshot saved by [`StateDict::save`]. Corruption (bit
    /// flips, truncation, foreign files) is detected via the container
    /// checksum and reported as a typed [`LoadError`].
    pub fn load(path: impl AsRef<Path>) -> Result<StateDict, LoadError> {
        StateDict::from_bytes(&read_file(path.as_ref())?)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layers::mlp;
    use crate::module::{Forward, Module};
    use crate::resnet::ResNet;
    use tyxe_rand::SeedableRng;
    use tyxe_tensor::Tensor;

    #[test]
    fn roundtrip_mlp() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let a = mlp(&[2, 4, 2], true, &mut rng);
        let b = mlp(&[2, 4, 2], true, &mut rng);
        let x = Tensor::randn(&[3, 2], &mut rng);
        assert_ne!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
        StateDict::from_module(&a).apply(&b);
        assert_eq!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
    }

    #[test]
    fn resnet_transfer_includes_running_stats() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let a = ResNet::new(3, 4, 1, 4, &mut rng);
        let x = Tensor::randn(&[4, 3, 8, 8], &mut rng);
        for _ in 0..5 {
            let _ = a.forward(&x); // move BatchNorm running stats
        }
        a.set_training(false);
        let sd = StateDict::from_module(&a);
        assert!(sd.num_buffers() > 0, "no buffers captured");

        let b = ResNet::new(3, 4, 1, 4, &mut rng);
        b.set_training(false);
        sd.apply(&b);
        assert_eq!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
    }

    #[test]
    #[should_panic]
    fn missing_entry_panics() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(0);
        let small = mlp(&[2, 2], true, &mut rng);
        let big = mlp(&[2, 4, 2], true, &mut rng);
        StateDict::from_module(&small).apply(&big);
    }

    fn tmp_path(tag: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join(format!("tyxe-state-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(format!("{tag}.tyxe"))
    }

    #[test]
    fn save_load_roundtrip_is_bitwise_identical() {
        // Property: any synthetic state dict round-trips through disk with
        // every f64 bit pattern intact, including NaN/-0.0/subnormals.
        tyxe_rand::prop_check!(24, |g| {
            let mut sd = StateDict::default();
            let n_params = g.usize_in(0, 6);
            for i in 0..n_params {
                let len = g.usize_in(1, 40);
                let data: Vec<f64> = (0..len)
                    .map(|j| match g.usize_in(0, 8) {
                        0 => f64::NAN,
                        1 => -0.0,
                        2 => f64::INFINITY,
                        3 => f64::MIN_POSITIVE / 2.0, // subnormal
                        _ => g.f64_in(-1e6, 1e6) * (j as f64 + 1.0),
                    })
                    .collect();
                sd.insert_param(format!("layer{i}.weight"), data);
            }
            let n_buffers = g.usize_in(0, 3);
            for i in 0..n_buffers {
                let len = g.usize_in(1, 10);
                sd.insert_buffer(format!("bn{i}.running_mean"), vec![g.f64_in(-10.0, 10.0); len]);
            }
            let path = tmp_path(&format!("roundtrip-{:x}", g.seed()));
            sd.save(&path).unwrap();
            let loaded = StateDict::load(&path).unwrap();
            std::fs::remove_file(&path).unwrap();

            assert_eq!(loaded.num_params(), sd.num_params());
            assert_eq!(loaded.num_buffers(), sd.num_buffers());
            for name in sd.param_names() {
                let (a, b) = (sd.param(name).unwrap(), loaded.param(name).unwrap());
                assert_eq!(a.len(), b.len());
                assert!(
                    a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                    "bits drifted at {name}"
                );
            }
        });
    }

    #[test]
    fn module_roundtrip_through_disk_restores_forward() {
        let mut rng = tyxe_rand::rngs::StdRng::seed_from_u64(3);
        let a = mlp(&[2, 6, 2], true, &mut rng);
        let b = mlp(&[2, 6, 2], true, &mut rng);
        let x = Tensor::randn(&[5, 2], &mut rng);
        let path = tmp_path("module");
        StateDict::from_module(&a).save(&path).unwrap();
        StateDict::load(&path).unwrap().apply(&b);
        std::fs::remove_file(&path).unwrap();
        assert_eq!(a.forward(&x).to_vec(), b.forward(&x).to_vec());
    }

    #[test]
    fn corrupted_byte_is_rejected_by_checksum() {
        let mut sd = StateDict::default();
        sd.insert_param("w", vec![1.0, 2.0, 3.0]);
        let path = tmp_path("corrupt");
        sd.save(&path).unwrap();
        let mut bytes = std::fs::read(&path).unwrap();
        // Flip one payload byte (past the 20-byte header) and rewrite.
        let idx = 24.min(bytes.len() - 1);
        bytes[idx] ^= 0x01;
        std::fs::write(&path, &bytes).unwrap();
        match StateDict::load(&path) {
            Err(crate::serialize::LoadError::ChecksumMismatch { .. }) => {}
            other => panic!("expected checksum rejection, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn truncated_file_is_rejected() {
        let mut sd = StateDict::default();
        sd.insert_param("w", vec![1.0; 16]);
        let path = tmp_path("truncated");
        sd.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        std::fs::write(&path, &bytes[..bytes.len() / 2]).unwrap();
        assert!(StateDict::load(&path).is_err());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn foreign_file_is_rejected_as_bad_magic() {
        let path = tmp_path("foreign");
        std::fs::write(&path, b"definitely not a tyxe state dict").unwrap();
        match StateDict::load(&path) {
            Err(crate::serialize::LoadError::BadMagic) => {}
            other => panic!("expected BadMagic, got {other:?}"),
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn canonical_encoding_is_insertion_order_independent() {
        let mut a = StateDict::default();
        a.insert_param("z", vec![1.0]);
        a.insert_param("a", vec![2.0]);
        let mut b = StateDict::default();
        b.insert_param("a", vec![2.0]);
        b.insert_param("z", vec![1.0]);
        assert_eq!(a.to_bytes(), b.to_bytes());
    }
}
