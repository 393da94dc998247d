//! Binary persistence for trained forests.
//!
//! The paper promises to "open-source the pre-trained models for the
//! research community" (sic); this module makes TEVoT's forests serializable to
//! a small self-describing binary format (magic + version + tree node
//! arrays, all little-endian), independent of any serialization crate.
//!
//! Loading is fully defensive: a truncated or corrupt file produces a
//! typed [`LoadModelError`] naming the byte offset where decoding
//! stopped (and, through the `*_path` functions, the file path), never a
//! panic. The file-based entry points carry the `model.save` /
//! `model.load` failpoints for chaos testing.

use std::io::{self, Read, Write};
use std::path::{Path, PathBuf};

use crate::forest::{RandomForestClassifier, RandomForestRegressor};
use crate::tree::{DecisionTree, Task};

const MAGIC: &[u8; 8] = b"TEVOTRF\0";
const VERSION: u32 = 2;

/// An error produced while loading a persisted model.
#[derive(Debug)]
pub enum LoadModelError {
    /// Underlying I/O failure, at the byte offset where reading stopped.
    Io {
        /// Bytes successfully consumed before the failure.
        offset: u64,
        /// The operating-system error.
        source: io::Error,
    },
    /// The data is not a persisted model, or uses an unknown version.
    Format {
        /// Byte offset at which validation failed.
        offset: u64,
        /// What was wrong.
        message: String,
    },
    /// A failure attributed to a specific model file.
    AtPath {
        /// The file being loaded.
        path: PathBuf,
        /// The underlying failure.
        source: Box<LoadModelError>,
    },
}

impl LoadModelError {
    /// A [`LoadModelError::Format`] error at `offset`.
    pub fn format(offset: u64, message: impl Into<String>) -> Self {
        LoadModelError::Format { offset, message: message.into() }
    }

    /// Wraps this error with the path of the file it came from.
    pub fn at_path(self, path: impl Into<PathBuf>) -> Self {
        LoadModelError::AtPath { path: path.into(), source: Box::new(self) }
    }

    /// The byte offset the innermost failure occurred at.
    pub fn offset(&self) -> u64 {
        match self {
            LoadModelError::Io { offset, .. } | LoadModelError::Format { offset, .. } => *offset,
            LoadModelError::AtPath { source, .. } => source.offset(),
        }
    }
}

impl std::fmt::Display for LoadModelError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            LoadModelError::Io { offset, source } => {
                write!(f, "i/o error while loading model at byte {offset}: {source}")
            }
            LoadModelError::Format { offset, message } => {
                write!(f, "invalid model data at byte {offset}: {message}")
            }
            LoadModelError::AtPath { path, source } => {
                write!(f, "load model {}: {source}", path.display())
            }
        }
    }
}

impl std::error::Error for LoadModelError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            LoadModelError::Io { source, .. } => Some(source),
            LoadModelError::Format { .. } => None,
            LoadModelError::AtPath { source, .. } => Some(source),
        }
    }
}

impl From<io::Error> for LoadModelError {
    /// Classifies a raw I/O error with an unknown offset (0); prefer the
    /// offset-tracking [`ModelReader`] inside this module.
    fn from(e: io::Error) -> Self {
        LoadModelError::Io { offset: 0, source: e }
    }
}

impl From<LoadModelError> for tevot_resil::TevotError {
    fn from(e: LoadModelError) -> Self {
        let kind = match innermost(&e) {
            LoadModelError::Io { .. } => tevot_resil::ErrorKind::Io,
            _ => tevot_resil::ErrorKind::Corrupt,
        };
        // Classification only: the LoadModelError renders the full
        // path/offset story itself, so this layer adds no message.
        tevot_resil::TevotError::new(kind, "").with_source(e)
    }
}

fn innermost(e: &LoadModelError) -> &LoadModelError {
    match e {
        LoadModelError::AtPath { source, .. } => innermost(source),
        other => other,
    }
}

/// A byte-counting reader: every persisted-model read goes through this,
/// so failures can name the exact offset where decoding stopped.
#[derive(Debug)]
pub struct ModelReader<R> {
    inner: R,
    offset: u64,
}

impl<R: Read> ModelReader<R> {
    /// Wraps `inner`, counting from offset 0.
    pub fn new(inner: R) -> Self {
        ModelReader { inner, offset: 0 }
    }

    /// Bytes consumed so far.
    pub fn offset(&self) -> u64 {
        self.offset
    }

    /// A format error at the current offset.
    pub fn format_err(&self, message: impl Into<String>) -> LoadModelError {
        LoadModelError::format(self.offset, message)
    }

    fn read_exact(&mut self, buf: &mut [u8]) -> Result<(), LoadModelError> {
        match self.inner.read_exact(buf) {
            Ok(()) => {
                self.offset += buf.len() as u64;
                Ok(())
            }
            Err(e) if e.kind() == io::ErrorKind::UnexpectedEof => {
                Err(self.format_err(format!("truncated: needed {} more bytes", buf.len())))
            }
            Err(e) => Err(LoadModelError::Io { offset: self.offset, source: e }),
        }
    }

    fn u32(&mut self) -> Result<u32, LoadModelError> {
        let mut b = [0u8; 4];
        self.read_exact(&mut b)?;
        Ok(u32::from_le_bytes(b))
    }

    fn u64(&mut self) -> Result<u64, LoadModelError> {
        let mut b = [0u8; 8];
        self.read_exact(&mut b)?;
        Ok(u64::from_le_bytes(b))
    }
}

fn write_u32(w: &mut impl Write, v: u32) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_u64(w: &mut impl Write, v: u64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_f64(w: &mut impl Write, v: f64) -> io::Result<()> {
    w.write_all(&v.to_le_bytes())
}

fn write_trees(
    w: &mut impl Write,
    trees: &[DecisionTree],
    task_tag: u32,
    num_features: usize,
) -> io::Result<()> {
    w.write_all(MAGIC)?;
    write_u32(w, VERSION)?;
    write_u32(w, task_tag)?;
    write_u64(w, num_features as u64)?;
    write_u64(w, trees.len() as u64)?;
    for tree in trees {
        let nodes: Vec<_> = tree.nodes_raw().collect();
        write_u64(w, nodes.len() as u64)?;
        for (feature, value, left, right, gain) in nodes {
            write_u32(w, feature)?;
            write_f64(w, value)?;
            write_u32(w, left)?;
            write_u32(w, right)?;
            write_f64(w, gain)?;
        }
    }
    Ok(())
}

/// One serialized node: feature (u32), value (f64), left (u32), right
/// (u32), gain (f64).
const NODE_BYTES: usize = 28;

fn read_trees<R: Read>(
    r: &mut ModelReader<R>,
    expect_tag: u32,
) -> Result<(Vec<DecisionTree>, usize), LoadModelError> {
    let mut magic = [0u8; 8];
    r.read_exact(&mut magic)?;
    if &magic != MAGIC {
        return Err(LoadModelError::format(0, "bad magic"));
    }
    let at = r.offset();
    let version = r.u32()?;
    if version != VERSION {
        return Err(LoadModelError::format(at, format!("unsupported version {version}")));
    }
    let at = r.offset();
    let tag = r.u32()?;
    if tag != expect_tag {
        return Err(LoadModelError::format(
            at,
            format!("model task tag {tag} does not match expected {expect_tag}"),
        ));
    }
    let num_features = r.u64()? as usize;
    let at = r.offset();
    let num_trees = r.u64()? as usize;
    if num_trees == 0 || num_trees > 1_000_000 {
        return Err(LoadModelError::format(at, format!("implausible tree count {num_trees}")));
    }
    let task = if expect_tag == 0 { Task::Regression } else { Task::Classification };
    let mut trees = Vec::with_capacity(num_trees);
    for _ in 0..num_trees {
        let at = r.offset();
        let num_nodes = r.u64()? as usize;
        if num_nodes == 0 || num_nodes > 100_000_000 {
            return Err(LoadModelError::format(at, format!("implausible node count {num_nodes}")));
        }
        let mut nodes = Vec::with_capacity(num_nodes);
        for _ in 0..num_nodes {
            let at = r.offset();
            let mut node = [0u8; NODE_BYTES];
            r.read_exact(&mut node)?;
            let u32_at = |i: usize| u32::from_le_bytes(node[i..i + 4].try_into().expect("4 bytes"));
            let f64_at = |i: usize| f64::from_le_bytes(node[i..i + 8].try_into().expect("8 bytes"));
            let (feature, value, left, right, gain) =
                (u32_at(0), f64_at(4), u32_at(12), u32_at(16), f64_at(20));
            if feature != u32::MAX
                && (feature as usize >= num_features
                    || left as usize >= num_nodes
                    || right as usize >= num_nodes)
            {
                return Err(LoadModelError::format(at, "node reference out of range"));
            }
            nodes.push((feature, value, left, right, gain));
        }
        trees.push(DecisionTree::from_raw(nodes, num_features, task));
    }
    Ok((trees, num_features))
}

/// Serializes a regressor forest to `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_regressor(model: &RandomForestRegressor, mut writer: impl Write) -> io::Result<()> {
    let width = forest_width(model.trees());
    write_trees(&mut writer, model.trees(), 0, width)
}

/// Serializes a classifier forest to `writer`.
///
/// # Errors
///
/// Propagates I/O errors from the writer.
pub fn save_classifier(model: &RandomForestClassifier, mut writer: impl Write) -> io::Result<()> {
    let width = forest_width(model.trees());
    write_trees(&mut writer, model.trees(), 1, width)
}

fn forest_width(trees: &[DecisionTree]) -> usize {
    trees.first().map_or(0, DecisionTree::num_features_raw)
}

/// Deserializes a regressor forest from `reader`. Errors name the byte
/// offset where decoding stopped (relative to the start of the forest
/// block).
///
/// # Errors
///
/// Returns [`LoadModelError`] on I/O failure or malformed data.
pub fn load_regressor(reader: impl Read) -> Result<RandomForestRegressor, LoadModelError> {
    let (trees, _) = read_trees(&mut ModelReader::new(reader), 0)?;
    Ok(RandomForestRegressor::from_trees(trees))
}

/// Deserializes a classifier forest from `reader`; see
/// [`load_regressor`].
///
/// # Errors
///
/// Returns [`LoadModelError`] on I/O failure or malformed data.
pub fn load_classifier(reader: impl Read) -> Result<RandomForestClassifier, LoadModelError> {
    let (trees, _) = read_trees(&mut ModelReader::new(reader), 1)?;
    Ok(RandomForestClassifier::from_trees(trees))
}

/// Saves a regressor forest to `path`. Failpoint: `model.save`.
///
/// # Errors
///
/// Propagates I/O errors (including injected ones).
pub fn save_regressor_path(model: &RandomForestRegressor, path: &Path) -> io::Result<()> {
    tevot_resil::fail::eval("model.save")?;
    save_regressor(model, std::fs::File::create(path)?)
}

/// Loads a regressor forest from `path`; errors name both the path and
/// the byte offset. Failpoint: `model.load`.
///
/// # Errors
///
/// Returns [`LoadModelError::AtPath`] wrapping the underlying failure.
pub fn load_regressor_path(path: &Path) -> Result<RandomForestRegressor, LoadModelError> {
    open_model(path)
        .and_then(|f| load_regressor(io::BufReader::new(f)))
        .map_err(|e| e.at_path(path))
}

/// Opens a model file, evaluating the `model.load` failpoint first.
///
/// # Errors
///
/// Returns [`LoadModelError::Io`] at offset 0 when the file cannot be
/// opened (or the failpoint injects a failure).
pub fn open_model(path: &Path) -> Result<std::fs::File, LoadModelError> {
    let open = || -> io::Result<std::fs::File> {
        tevot_resil::fail::eval("model.load")?;
        std::fs::File::open(path)
    };
    open().map_err(|e| LoadModelError::Io { offset: 0, source: e })
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::dataset::Dataset;
    use crate::forest::ForestParams;
    use rand::rngs::SmallRng;
    use rand::SeedableRng;

    fn sample_data() -> Dataset {
        let mut d = Dataset::new(3);
        for i in 0..200 {
            let x = [(i % 7) as f64, (i % 2) as f64, (i % 5) as f64];
            d.push(&x, x[0] * 10.0 + x[1] * 100.0);
        }
        d
    }

    fn sample_regressor() -> RandomForestRegressor {
        let mut rng = SmallRng::seed_from_u64(5);
        RandomForestRegressor::fit(&sample_data(), &ForestParams::default(), &mut rng)
    }

    #[test]
    fn regressor_roundtrip_is_bit_identical() {
        let data = sample_data();
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        let loaded = load_regressor(buf.as_slice()).unwrap();
        for i in 0..data.len() {
            assert_eq!(model.predict(data.row(i)), loaded.predict(data.row(i)));
        }
    }

    #[test]
    fn classifier_roundtrip_is_bit_identical() {
        let data = sample_data().map_labels(|l| (l > 300.0) as u8 as f64);
        let mut rng = SmallRng::seed_from_u64(5);
        let model = RandomForestClassifier::fit(&data, &ForestParams::default(), &mut rng);
        let mut buf = Vec::new();
        save_classifier(&model, &mut buf).unwrap();
        let loaded = load_classifier(buf.as_slice()).unwrap();
        for i in 0..data.len() {
            assert_eq!(model.predict(data.row(i)), loaded.predict(data.row(i)));
        }
    }

    #[test]
    fn rejects_wrong_magic() {
        let err = load_regressor(&b"NOTAMODELxxxxxxxxxxxxxxx"[..]).unwrap_err();
        assert!(matches!(err, LoadModelError::Format { .. }));
    }

    #[test]
    fn rejects_task_mismatch() {
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        let err = load_classifier(buf.as_slice()).unwrap_err();
        assert!(err.to_string().contains("task tag"));
        assert_eq!(err.offset(), 12, "tag sits after magic + version");
    }

    #[test]
    fn truncation_at_every_offset_names_the_offset() {
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        // Every truncation point: a typed error whose offset never
        // exceeds the cut, never a panic.
        for cut in 0..buf.len() - 1 {
            let err = load_regressor(&buf[..cut]).unwrap_err();
            assert!(
                err.offset() <= cut as u64,
                "cut {cut}: reported offset {} past the data",
                err.offset()
            );
        }
    }

    #[test]
    fn path_loader_names_path_and_offset() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tevot_model_{}.bin", std::process::id()));
        let model = sample_regressor();
        let mut buf = Vec::new();
        save_regressor(&model, &mut buf).unwrap();
        buf.truncate(buf.len() / 2);
        std::fs::write(&path, &buf).unwrap();
        let err = load_regressor_path(&path).unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains(&path.display().to_string()), "{msg}");
        assert!(msg.contains("at byte"), "{msg}");
        std::fs::remove_file(&path).unwrap();

        let err = load_regressor_path(Path::new("/nonexistent/model.bin")).unwrap_err();
        assert!(matches!(
            err,
            LoadModelError::AtPath { ref source, .. } if matches!(**source, LoadModelError::Io { .. })
        ));
    }

    #[test]
    fn save_and_load_failpoints_fire() {
        let dir = std::env::temp_dir();
        let path = dir.join(format!("tevot_model_fp_{}.bin", std::process::id()));
        let model = sample_regressor();
        {
            let _scope = tevot_resil::fail::scoped("model.save=io");
            assert!(save_regressor_path(&model, &path).is_err());
        }
        save_regressor_path(&model, &path).unwrap();
        {
            let _scope = tevot_resil::fail::scoped("model.load=io");
            let err = load_regressor_path(&path).unwrap_err();
            let tev: tevot_resil::TevotError = err.into();
            assert_eq!(tev.kind(), tevot_resil::ErrorKind::Io);
            assert!(tev.is_injected());
        }
        load_regressor_path(&path).unwrap();
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn taxonomy_conversion_classifies_corruption() {
        let err = load_regressor(&b"NOTAMODELxxxxxxxxxxxxxxx"[..]).unwrap_err();
        let tev: tevot_resil::TevotError = err.at_path("model.bin").into();
        assert_eq!(tev.kind(), tevot_resil::ErrorKind::Corrupt);
        assert_eq!(tev.exit_code(), 4);
    }
}
