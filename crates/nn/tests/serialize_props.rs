//! Property tests for the checkpoint container's failure behavior: a
//! truncated `StateDict` file — at *every* prefix length — must produce
//! a clean [`LoadError`], never a panic and never a partially decoded
//! dict, and only the complete byte string round-trips.

use std::path::PathBuf;

use tyxe_nn::serialize::{encode_container, ByteWriter, LoadError};
use tyxe_nn::StateDict;
use tyxe_rand::prop_check;

fn tmp_path(tag: &str) -> PathBuf {
    let dir = std::env::temp_dir().join(format!("tyxe-serialize-props-{}", std::process::id()));
    std::fs::create_dir_all(&dir).unwrap();
    dir.join(format!("{tag}.ckpt"))
}

/// A small random dict: a few params and buffers with arbitrary finite
/// and non-finite values (NaN bit patterns must round-trip too, so they
/// must not confuse truncation handling either).
fn random_dict(g: &mut tyxe_rand::prop::Gen) -> StateDict {
    let mut sd = StateDict::default();
    for i in 0..g.usize_in(0, 4) {
        let data: Vec<f64> = (0..g.usize_in(1, 8))
            .map(|_| {
                if g.bool() {
                    g.f64_in(-1e6, 1e6)
                } else {
                    f64::from_bits(g.u64())
                }
            })
            .collect();
        sd.insert_param(format!("param.{i}"), data);
    }
    for i in 0..g.usize_in(0, 3) {
        let data: Vec<f64> = (0..g.usize_in(1, 6)).map(|_| g.f64_in(-10.0, 10.0)).collect();
        sd.insert_buffer(format!("buffer.{i}"), data);
    }
    sd
}

#[test]
fn every_truncated_prefix_is_a_clean_error() {
    prop_check!(24, |g| {
        let sd = random_dict(g);
        let bytes = sd.to_bytes();

        // In memory: every strict prefix must decode to an error. The
        // decoder is pure Rust over a byte slice, so "clean" means it
        // returns `Err` — an out-of-bounds read or arithmetic overflow
        // would panic and fail the property.
        for len in 0..bytes.len() {
            match StateDict::from_bytes(&bytes[..len]) {
                Err(_) => {}
                Ok(_) => panic!("prefix of {len}/{} bytes decoded successfully", bytes.len()),
            }
        }
        // Only the complete byte string is accepted, and bit-exactly.
        let full = StateDict::from_bytes(&bytes).expect("complete bytes must load");
        assert_eq!(full.num_params(), sd.num_params());
        assert_eq!(full.num_buffers(), sd.num_buffers());
        for name in sd.param_names() {
            let (a, b) = (sd.param(name).unwrap(), full.param(name).unwrap());
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "param {name} drifted through the round trip"
            );
        }
        for name in sd.buffer_names() {
            let (a, b) = (sd.buffer(name).unwrap(), full.buffer(name).unwrap());
            assert!(
                a.iter().zip(b).all(|(x, y)| x.to_bits() == y.to_bits()),
                "buffer {name} drifted through the round trip"
            );
        }
    });
}

#[test]
fn truncated_files_on_disk_are_clean_errors_at_a_sampled_prefix() {
    // The on-disk path adds the io layer; exercising every prefix
    // through the filesystem is slow, so each case samples one.
    prop_check!(24, |g| {
        let sd = random_dict(g);
        let path = tmp_path(&format!("trunc-{:x}", g.seed()));
        sd.save(&path).unwrap();
        let bytes = std::fs::read(&path).unwrap();
        let cut = g.usize_in(0, bytes.len());
        std::fs::write(&path, &bytes[..cut]).unwrap();
        match StateDict::load(&path) {
            Err(_) => {}
            Ok(_) => panic!("file truncated to {cut}/{} bytes loaded successfully", bytes.len()),
        }
        std::fs::remove_file(&path).unwrap();
    });
}

#[test]
fn trailing_garbage_is_rejected() {
    prop_check!(24, |g| {
        let sd = random_dict(g);
        let mut bytes = sd.to_bytes();
        for _ in 0..g.usize_in(1, 16) {
            bytes.push(g.u64() as u8);
        }
        assert!(
            StateDict::from_bytes(&bytes).is_err(),
            "bytes with a trailing suffix must not decode"
        );
    });
}

/// A container whose checksum is valid but whose one entry declares
/// 2^61 - 1 values: the declared byte count, 2^64 - 8, fits a `usize`,
/// so only checked arithmetic against the payload's real length keeps
/// the decoder from overflowing or allocating for it.
#[test]
fn an_entry_declaring_more_values_than_bytes_is_a_clean_error() {
    let empty = StateDict::default().to_bytes();
    let magic: &[u8; 8] = empty[..8].try_into().unwrap();
    let version = u32::from_le_bytes(empty[8..12].try_into().unwrap());
    let mut w = ByteWriter::new();
    w.put_u64(1);
    w.put_str("w");
    w.put_u64((1 << 61) - 1);
    w.put_f64(1.0);
    let bytes = encode_container(magic, version, &w.into_bytes());
    match StateDict::from_bytes(&bytes) {
        Err(LoadError::Truncated) => {}
        other => panic!("expected LoadError::Truncated, got {other:?}"),
    }
}

#[test]
fn missing_file_is_an_io_error() {
    let path = tmp_path("definitely-missing");
    let _ = std::fs::remove_file(&path);
    match StateDict::load(&path) {
        Err(LoadError::Io(_)) => {}
        other => panic!("expected LoadError::Io, got {other:?}"),
    }
}
