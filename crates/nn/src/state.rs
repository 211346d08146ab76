//! Weight persistence: a named tensor dictionary with a compact binary
//! format (train once, save, reload, synthesize more — no re-training).
//!
//! Parameters carry globally-unique names (layer constructors prefix them),
//! so a [`StateDict`] is a flat `name → tensor` map. Non-parameter state
//! (batch-norm running statistics) is saved under derived names.

use crate::layers::{BatchNorm1d, Linear};
use crate::param::Param;
use gtv_tensor::Tensor;
use std::collections::BTreeMap;
use std::io;
use std::path::Path;

const MAGIC: &[u8; 8] = b"GTVW0001";

/// A named tensor dictionary.
#[derive(Debug, Clone, Default, PartialEq)]
pub struct StateDict {
    map: BTreeMap<String, Tensor>,
}

/// Error loading a state dictionary.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LoadStateError {
    /// Human-readable description.
    pub message: String,
}

impl std::fmt::Display for LoadStateError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "state load error: {}", self.message)
    }
}

impl std::error::Error for LoadStateError {}

fn err(message: impl Into<String>) -> LoadStateError {
    LoadStateError { message: message.into() }
}

impl StateDict {
    /// Creates an empty dictionary.
    pub fn new() -> Self {
        Self::default()
    }

    /// Number of stored tensors.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when nothing is stored.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Stores a tensor.
    ///
    /// # Panics
    ///
    /// Panics if the name is already present (names must be unique).
    pub fn insert(&mut self, name: impl Into<String>, tensor: Tensor) {
        let name = name.into();
        assert!(self.map.insert(name.clone(), tensor).is_none(), "duplicate state entry '{name}'");
    }

    /// Fetches a tensor by name, checking its shape.
    ///
    /// # Errors
    ///
    /// Returns an error if the entry is missing or has the wrong shape.
    pub fn get(&self, name: &str, shape: (usize, usize)) -> Result<&Tensor, LoadStateError> {
        let t = self.map.get(name).ok_or_else(|| err(format!("missing entry '{name}'")))?;
        if t.shape() != shape {
            return Err(err(format!(
                "entry '{name}' has shape {:?}, expected {shape:?}",
                t.shape()
            )));
        }
        Ok(t)
    }

    /// Stored entry names (sorted).
    pub fn names(&self) -> Vec<&str> {
        self.map.keys().map(String::as_str).collect()
    }

    /// Serializes to the compact binary format.
    pub fn to_bytes(&self) -> Vec<u8> {
        let mut out = Vec::new();
        out.extend_from_slice(MAGIC);
        out.extend_from_slice(&(self.map.len() as u32).to_le_bytes());
        for (name, t) in &self.map {
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            out.extend_from_slice(&(t.rows() as u32).to_le_bytes());
            out.extend_from_slice(&(t.cols() as u32).to_le_bytes());
            for v in t.as_slice() {
                out.extend_from_slice(&v.to_le_bytes());
            }
        }
        out
    }

    /// Parses the binary format.
    ///
    /// # Errors
    ///
    /// Returns an error on a bad magic, truncation, or malformed entries.
    pub fn from_bytes(bytes: &[u8]) -> Result<Self, LoadStateError> {
        let mut pos = 0usize;
        let take = |pos: &mut usize, n: usize| -> Result<&[u8], LoadStateError> {
            if *pos + n > bytes.len() {
                return Err(err("truncated state file"));
            }
            let s = &bytes[*pos..*pos + n];
            *pos += n;
            Ok(s)
        };
        let magic = take(&mut pos, 8)?;
        if magic != MAGIC {
            return Err(err("bad magic — not a GTV weights file"));
        }
        let count = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
        let mut dict = StateDict::new();
        for _ in 0..count {
            let name_len =
                u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let name = std::str::from_utf8(take(&mut pos, name_len)?)
                .map_err(|_| err("entry name is not UTF-8"))?
                .to_string();
            let rows = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let cols = u32::from_le_bytes(take(&mut pos, 4)?.try_into().expect("4 bytes")) as usize;
            let raw = take(&mut pos, rows * cols * 4)?;
            let data: Vec<f32> = raw
                .chunks_exact(4)
                .map(|c| f32::from_le_bytes(c.try_into().expect("4 bytes")))
                .collect();
            if dict.map.insert(name.clone(), Tensor::from_vec(rows, cols, data)).is_some() {
                return Err(err(format!("duplicate entry '{name}'")));
            }
        }
        if pos != bytes.len() {
            return Err(err("trailing bytes after state entries"));
        }
        Ok(dict)
    }

    /// Writes the dictionary to a file.
    ///
    /// # Errors
    ///
    /// Returns any I/O error.
    pub fn save(&self, path: impl AsRef<Path>) -> io::Result<()> {
        std::fs::write(path, self.to_bytes())
    }

    /// Reads a dictionary from a file.
    ///
    /// # Errors
    ///
    /// Returns an I/O error or a parse failure as `InvalidData`.
    pub fn load(path: impl AsRef<Path>) -> io::Result<Self> {
        let bytes = std::fs::read(path)?;
        Self::from_bytes(&bytes).map_err(|e| io::Error::new(io::ErrorKind::InvalidData, e))
    }
}

/// Anything whose state can round-trip through a [`StateDict`].
pub trait Stateful {
    /// Writes all state into `dict` under the component's unique names.
    fn save_state(&self, dict: &mut StateDict);

    /// Restores state from `dict`.
    ///
    /// # Errors
    ///
    /// Returns an error if an entry is missing or shaped wrongly.
    fn load_state(&self, dict: &StateDict) -> Result<(), LoadStateError>;
}

fn save_params(params: &[Param], dict: &mut StateDict) {
    for p in params {
        dict.insert(p.name(), p.value());
    }
}

fn load_params(params: &[Param], dict: &StateDict) -> Result<(), LoadStateError> {
    for p in params {
        p.set_value(dict.get(&p.name(), p.shape())?.clone());
    }
    Ok(())
}

impl Stateful for Linear {
    fn save_state(&self, dict: &mut StateDict) {
        save_params(&crate::param::Module::params(self), dict);
    }

    fn load_state(&self, dict: &StateDict) -> Result<(), LoadStateError> {
        load_params(&crate::param::Module::params(self), dict)
    }
}

impl Stateful for BatchNorm1d {
    fn save_state(&self, dict: &mut StateDict) {
        let params = crate::param::Module::params(self);
        let base = params[0].name(); // "<layer>.gamma"
        save_params(&params, dict);
        let (mean, var) = self.running_stats();
        dict.insert(format!("{base}.running_mean"), mean);
        dict.insert(format!("{base}.running_var"), var);
    }

    fn load_state(&self, dict: &StateDict) -> Result<(), LoadStateError> {
        let params = crate::param::Module::params(self);
        let base = params[0].name();
        load_params(&params, dict)?;
        let shape = (1, self.dim());
        let mean = dict.get(&format!("{base}.running_mean"), shape)?.clone();
        let var = dict.get(&format!("{base}.running_var"), shape)?.clone();
        self.set_running_stats(mean, var);
        Ok(())
    }
}

impl Stateful for crate::blocks::ResidualBlock {
    fn save_state(&self, dict: &mut StateDict) {
        self.fc().save_state(dict);
        self.bn().save_state(dict);
    }

    fn load_state(&self, dict: &StateDict) -> Result<(), LoadStateError> {
        self.fc().load_state(dict)?;
        self.bn().load_state(dict)
    }
}

impl Stateful for crate::blocks::FnBlock {
    fn save_state(&self, dict: &mut StateDict) {
        self.fc().save_state(dict);
    }

    fn load_state(&self, dict: &StateDict) -> Result<(), LoadStateError> {
        self.fc().load_state(dict)
    }
}

#[cfg(test)]
#[expect(clippy::disallowed_methods, reason = "tests seed their fixtures with literals")]
mod tests {
    use super::*;
    use crate::init::Init;
    use rand::rngs::StdRng;
    use rand::SeedableRng;

    #[test]
    fn dict_roundtrips_through_bytes() {
        let mut dict = StateDict::new();
        dict.insert("a.w", Tensor::from_rows(&[&[1.0, -2.5], &[0.0, 7.0]]));
        dict.insert("b.b", Tensor::row(&[3.0]));
        let back = StateDict::from_bytes(&dict.to_bytes()).unwrap();
        assert_eq!(back, dict);
        assert_eq!(back.names(), vec!["a.w", "b.b"]);
    }

    #[test]
    fn rejects_garbage_and_truncation() {
        assert!(StateDict::from_bytes(b"not a weights file").is_err());
        let mut dict = StateDict::new();
        dict.insert("x", Tensor::scalar(1.0));
        let bytes = dict.to_bytes();
        assert!(StateDict::from_bytes(&bytes[..bytes.len() - 2]).is_err());
        let mut extended = bytes.clone();
        extended.push(0);
        assert!(StateDict::from_bytes(&extended).is_err());
    }

    #[test]
    fn shape_mismatch_is_detected() {
        let mut dict = StateDict::new();
        dict.insert("w", Tensor::zeros(2, 2));
        assert!(dict.get("w", (2, 3)).is_err());
        assert!(dict.get("absent", (2, 2)).is_err());
    }

    #[test]
    fn linear_state_roundtrip() {
        let mut rng = StdRng::seed_from_u64(0);
        let a = Linear::new("lin", 3, 2, Init::KaimingUniform, &mut rng);
        let b = Linear::new("lin", 3, 2, Init::KaimingUniform, &mut rng);
        let mut dict = StateDict::new();
        a.save_state(&mut dict);
        b.load_state(&dict).unwrap();
        let pa = crate::param::Module::params(&a);
        let pb = crate::param::Module::params(&b);
        assert_eq!(pa[0].value(), pb[0].value());
        assert_eq!(pa[1].value(), pb[1].value());
    }

    #[test]
    fn batchnorm_state_includes_running_stats() {
        let bn = BatchNorm1d::new("bn", 2);
        bn.set_running_stats(Tensor::row(&[5.0, 6.0]), Tensor::row(&[2.0, 3.0]));
        let mut dict = StateDict::new();
        bn.save_state(&mut dict);
        let other = BatchNorm1d::new("bn", 2);
        other.load_state(&dict).unwrap();
        let (m, v) = other.running_stats();
        assert_eq!(m, Tensor::row(&[5.0, 6.0]));
        assert_eq!(v, Tensor::row(&[2.0, 3.0]));
    }
}
