//! Datasets: an event stream plus edge features and chronological splits.

use std::fmt;
use std::ops::Range;
use std::path::Path;

use crate::event::{Event, EventStream};

/// Row-major `[num_events, dim]` edge-feature matrix.
#[derive(Clone, Debug, Default)]
pub struct EdgeFeatures {
    data: Vec<f32>,
    dim: usize,
}

impl EdgeFeatures {
    /// Creates a feature matrix.
    ///
    /// # Panics
    ///
    /// Panics if `data.len()` is not a multiple of `dim` (for `dim > 0`).
    pub fn new(data: Vec<f32>, dim: usize) -> Self {
        if dim > 0 {
            assert_eq!(
                data.len() % dim,
                0,
                "edge feature buffer not a multiple of dim"
            );
        } else {
            assert!(data.is_empty(), "dim 0 features must be empty");
        }
        EdgeFeatures { data, dim }
    }

    /// An empty feature matrix (`dim = 0`), for datasets without features.
    pub fn none() -> Self {
        EdgeFeatures::default()
    }

    /// Feature width.
    pub fn dim(&self) -> usize {
        self.dim
    }

    /// Number of feature rows.
    pub fn len(&self) -> usize {
        self.data.len().checked_div(self.dim).unwrap_or(0)
    }

    /// `true` if no features are stored.
    pub fn is_empty(&self) -> bool {
        self.data.is_empty()
    }

    /// The feature row for event `idx`; an empty slice when `dim = 0`.
    ///
    /// # Panics
    ///
    /// Panics if `dim > 0` and `idx` is out of bounds.
    pub fn row(&self, idx: usize) -> &[f32] {
        if self.dim == 0 {
            &[]
        } else {
            &self.data[idx * self.dim..(idx + 1) * self.dim]
        }
    }

    /// Total bytes consumed by the feature buffer.
    pub fn size_bytes(&self) -> usize {
        self.data.len() * std::mem::size_of::<f32>()
    }

    /// A zero-filled matrix of `rows` rows (sparse fill via
    /// [`EdgeFeatures::set_row`]).
    ///
    /// Dist TCP peers receive only their partition's feature rows but
    /// index them by **global** event id; a zeroed full-size table
    /// filled row-by-row keeps `row(id)` addressing unchanged.
    pub fn zeros(rows: usize, dim: usize) -> Self {
        EdgeFeatures {
            data: vec![0.0; rows * dim],
            dim,
        }
    }

    /// Overwrites the feature row for event `idx`. No-op for `dim = 0`
    /// matrices (which accept only empty rows).
    ///
    /// # Panics
    ///
    /// Panics if `row.len() != dim` (for `dim > 0`) or `idx` is out of
    /// range.
    pub fn set_row(&mut self, idx: usize, row: &[f32]) {
        if self.dim == 0 {
            assert!(row.is_empty(), "dim 0 features accept no rows");
            return;
        }
        assert_eq!(row.len(), self.dim, "row width must match dim");
        self.data[idx * self.dim..(idx + 1) * self.dim].copy_from_slice(row);
    }

    /// Appends whole feature rows (streaming ingest). For `dim = 0`
    /// matrices only an empty slice is accepted.
    ///
    /// # Panics
    ///
    /// Panics if `rows.len()` is not a multiple of `dim`.
    pub fn push_rows(&mut self, rows: &[f32]) {
        if self.dim == 0 {
            assert!(rows.is_empty(), "dim 0 features accept no rows");
            return;
        }
        assert_eq!(rows.len() % self.dim, 0, "row data not a multiple of dim");
        self.data.extend_from_slice(rows);
    }

    /// Drops all rows, keeping the width (start of a streaming epoch).
    pub fn clear_rows(&mut self) {
        self.data.clear();
    }
}

/// The chronological 70/15/15 split (following the TGL setup) of an
/// `n`-event stream, as `(train_end, val_end)`: training is `0..train_end`,
/// validation `train_end..val_end`, test `val_end..n`.
pub fn chronological_split(n: usize) -> (usize, usize) {
    (n * 70 / 100, n * 85 / 100)
}

/// A named continuous-time dynamic graph dataset with chronological
/// train/validation/test splits (see [`chronological_split`]).
#[derive(Clone, Debug)]
pub struct Dataset {
    name: String,
    stream: EventStream,
    features: EdgeFeatures,
    train_end: usize,
    val_end: usize,
}

impl Dataset {
    /// Assembles a dataset with the default 70/15/15 chronological split.
    ///
    /// # Panics
    ///
    /// Panics if features are present but their row count differs from the
    /// event count.
    pub fn new(name: impl Into<String>, stream: EventStream, features: EdgeFeatures) -> Self {
        if !features.is_empty() {
            assert_eq!(
                features.len(),
                stream.len(),
                "feature rows must match event count"
            );
        }
        let (train_end, val_end) = chronological_split(stream.len());
        Dataset {
            name: name.into(),
            stream,
            features,
            train_end,
            val_end,
        }
    }

    /// Dataset name.
    pub fn name(&self) -> &str {
        &self.name
    }

    /// The full event stream.
    pub fn stream(&self) -> &EventStream {
        &self.stream
    }

    /// Edge features (possibly empty).
    pub fn features(&self) -> &EdgeFeatures {
        &self.features
    }

    /// Number of nodes.
    pub fn num_nodes(&self) -> usize {
        self.stream.num_nodes()
    }

    /// Number of events.
    pub fn num_events(&self) -> usize {
        self.stream.len()
    }

    /// Training event range.
    pub fn train_range(&self) -> Range<usize> {
        0..self.train_end
    }

    /// Validation event range.
    pub fn val_range(&self) -> Range<usize> {
        self.train_end..self.val_end
    }

    /// Test event range.
    pub fn test_range(&self) -> Range<usize> {
        self.val_end..self.stream.len()
    }

    /// Loads a dataset from a TGL-style CSV of `src,dst,time` rows
    /// (header optional). Features are generated absent from file data,
    /// matching the paper's treatment of feature-less datasets (Table 2).
    ///
    /// # Errors
    ///
    /// Returns an error on I/O failure or malformed rows (a time that
    /// is NaN or infinite is malformed).
    pub fn from_csv(
        name: &str,
        path: &Path,
        feature_dim: usize,
        seed: u64,
    ) -> Result<Self, CsvError> {
        let text = std::fs::read_to_string(path).map_err(CsvError::Io)?;
        let mut events = Vec::new();
        for (lineno, line) in text.lines().enumerate() {
            let line = line.trim();
            if line.is_empty() {
                continue;
            }
            let mut parts = line.split(',');
            let fields: Vec<&str> = parts.by_ref().take(3).map(str::trim).collect();
            if fields.len() < 3 {
                return Err(CsvError::Malformed { line: lineno });
            }
            // Skip a header row.
            if lineno == 0 && fields[0].parse::<u32>().is_err() {
                continue;
            }
            let src: u32 = fields[0]
                .parse()
                .map_err(|_| CsvError::Malformed { line: lineno })?;
            let dst: u32 = fields[1]
                .parse()
                .map_err(|_| CsvError::Malformed { line: lineno })?;
            // A NaN or infinite time is no point in time (and
            // `EventStream` refuses it).
            let time: f64 = fields[2]
                .parse()
                .ok()
                .filter(|t: &f64| t.is_finite())
                .ok_or(CsvError::Malformed { line: lineno })?;
            events.push(Event::new(src, dst, time));
        }
        let stream = EventStream::from_unsorted(events);
        let features = synth_features(stream.len(), feature_dim, seed);
        Ok(Dataset::new(name, stream, features))
    }
}

/// Deterministically generates random edge features, as the paper does for
/// datasets that ship none ("we randomly generate edge features following
/// the setup in TGL", §5.1).
pub fn synth_features(num_events: usize, dim: usize, seed: u64) -> EdgeFeatures {
    if dim == 0 {
        return EdgeFeatures::none();
    }
    // xorshift-based generation: cheap, deterministic, no rand dependency
    // in the hot path.
    let mut state = seed | 1;
    let mut data = Vec::with_capacity(num_events * dim);
    for _ in 0..num_events * dim {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        let v = (state >> 40) as f32 / (1u64 << 24) as f32; // [0, 1)
        data.push(v * 2.0 - 1.0);
    }
    EdgeFeatures::new(data, dim)
}

/// Error loading a CSV dataset.
#[derive(Debug)]
pub enum CsvError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// A row could not be parsed.
    Malformed {
        /// Zero-based line number.
        line: usize,
    },
}

impl fmt::Display for CsvError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            CsvError::Io(e) => write!(f, "i/o error reading dataset: {}", e),
            CsvError::Malformed { line } => write!(f, "malformed csv row at line {}", line),
        }
    }
}

impl std::error::Error for CsvError {
    fn source(&self) -> Option<&(dyn std::error::Error + 'static)> {
        match self {
            CsvError::Io(e) => Some(e),
            CsvError::Malformed { .. } => None,
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn toy_stream(n: usize) -> EventStream {
        EventStream::new(
            (0..n)
                .map(|i| Event::new((i % 5) as u32, ((i + 1) % 5) as u32, i as f64))
                .collect(),
        )
        .unwrap()
    }

    #[test]
    fn split_fractions() {
        let d = Dataset::new("toy", toy_stream(100), EdgeFeatures::none());
        assert_eq!(d.train_range(), 0..70);
        assert_eq!(d.val_range(), 70..85);
        assert_eq!(d.test_range(), 85..100);
    }

    #[test]
    fn splits_partition_stream() {
        let d = Dataset::new("toy", toy_stream(97), EdgeFeatures::none());
        assert_eq!(d.train_range().end, d.val_range().start);
        assert_eq!(d.val_range().end, d.test_range().start);
        assert_eq!(d.test_range().end, d.num_events());
    }

    #[test]
    fn features_roundtrip() {
        let f = EdgeFeatures::new(vec![1.0, 2.0, 3.0, 4.0], 2);
        assert_eq!(f.len(), 2);
        assert_eq!(f.row(1), &[3.0, 4.0]);
        assert_eq!(f.size_bytes(), 16);
    }

    #[test]
    fn empty_features() {
        let f = EdgeFeatures::none();
        assert_eq!(f.dim(), 0);
        assert_eq!(f.row(5), &[] as &[f32]);
    }

    #[test]
    #[should_panic(expected = "must match event count")]
    fn rejects_feature_mismatch() {
        let _ = Dataset::new("bad", toy_stream(3), EdgeFeatures::new(vec![0.0; 4], 2));
    }

    #[test]
    fn synth_features_deterministic_and_bounded() {
        let a = synth_features(10, 4, 7);
        let b = synth_features(10, 4, 7);
        assert_eq!(a.row(3), b.row(3));
        for i in 0..10 {
            assert!(a.row(i).iter().all(|&x| (-1.0..1.0).contains(&x)));
        }
    }

    #[test]
    fn csv_roundtrip() {
        let dir = std::env::temp_dir().join("cascade_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("toy.csv");
        std::fs::write(&p, "src,dst,time\n0,1,0.5\n1,2,1.5\n2,0,2.0\n").unwrap();
        let d = Dataset::from_csv("toy", &p, 4, 1).unwrap();
        assert_eq!(d.num_events(), 3);
        assert_eq!(d.num_nodes(), 3);
        assert_eq!(d.features().dim(), 4);
        assert_eq!(d.stream().event(0).time, 0.5);
    }

    #[test]
    fn csv_write_read_roundtrip() {
        let dir = std::env::temp_dir().join("cascade_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("roundtrip.csv");
        let original = Dataset::new("orig", toy_stream(25), EdgeFeatures::none());
        let rows = original
            .stream()
            .iter()
            .map(|e| format!("{},{},{}\n", e.src.0, e.dst.0, e.time));
        std::fs::write(&p, "src,dst,time\n".to_string() + &rows.collect::<String>()).unwrap();
        let loaded = Dataset::from_csv("copy", &p, 0, 1).unwrap();
        assert_eq!(loaded.num_events(), original.num_events());
        assert_eq!(loaded.stream().events(), original.stream().events());
    }

    #[test]
    fn csv_rejects_garbage() {
        let dir = std::env::temp_dir().join("cascade_csv_test");
        std::fs::create_dir_all(&dir).unwrap();
        let p = dir.join("bad.csv");
        for bad in ["not,a,row", "1,2,NaN", "1,2,inf", "1,2,-inf"] {
            std::fs::write(&p, format!("0,1,0.5\n{bad}\n")).unwrap();
            assert!(
                matches!(
                    Dataset::from_csv("bad", &p, 0, 1),
                    Err(CsvError::Malformed { line: 1 })
                ),
                "{bad}"
            );
        }
    }
}
