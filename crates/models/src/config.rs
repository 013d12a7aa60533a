//! Model configurations — the Table 1 inventory.

use std::fmt;

/// Temporal neighbor sampling discipline (Table 1 "Sample" column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum Sampling {
    /// The `n` most recent neighbors.
    MostRecent(usize),
    /// `n` uniform samples from the full history.
    Uniform(usize),
}

impl Sampling {
    /// Number of neighbor slots sampled.
    pub fn count(self) -> usize {
        match self {
            Sampling::MostRecent(n) | Sampling::Uniform(n) => n,
        }
    }
}

/// Memory-update module (Table 1 "Memory Update" column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum UpdaterKind {
    /// Vanilla RNN cell (JODIE, DySAT).
    Rnn,
    /// GRU cell (TGN).
    Gru,
    /// Single-head attention over the node's mailbox, Transformer-style
    /// (APAN).
    MailboxAttention,
    /// Projection of the aggregated message, no recurrence (TGAT — which
    /// keeps no true recurrent memory).
    Identity,
}

/// Node-embedding module (Table 1 "Node Embedding" column).
#[derive(Clone, Copy, Debug, PartialEq, Eq)]
pub enum EmbedderKind {
    /// JODIE's time-decay projection: `h = s ⊙ (1 + w·Δt)`.
    JodieDecay,
    /// Raw memory as embedding (APAN "directly uses memories").
    Identity,
    /// Single graph-attention layer over sampled neighbors (TGN, DySAT).
    Gat1,
    /// Two stacked attention layers over the 2-hop neighborhood (TGAT).
    Gat2,
}

/// Full configuration of a memory-based TGNN.
///
/// The five presets reproduce Table 1 of the paper; dimensions default to
/// the paper's `out size = 100` but are adjustable so scaled experiments
/// stay tractable on one CPU core.
///
/// # Examples
///
/// ```
/// use cascade_models::ModelConfig;
///
/// let cfg = ModelConfig::tgn().with_dims(32, 8);
/// assert_eq!(cfg.name, "TGN");
/// assert_eq!(cfg.memory_dim, 32);
/// ```
#[derive(Clone, Debug)]
pub struct ModelConfig {
    /// Model name.
    pub name: &'static str,
    /// Node-memory width (also the embedding width).
    pub memory_dim: usize,
    /// Width of the sinusoidal time encoding.
    pub time_dim: usize,
    /// Neighbor sampling discipline.
    pub sampling: Sampling,
    /// Memory updater.
    pub updater: UpdaterKind,
    /// Node embedder.
    pub embedder: EmbedderKind,
    /// TGLite-style redundancy-eliminating execution: each distinct node
    /// in a batch is embedded once (at the batch-end timestamp) instead of
    /// once per event slot.
    pub lite: bool,
}

impl ModelConfig {
    /// JODIE: most-recent(1) sampling, RNN updater, time-decay embedding.
    pub fn jodie() -> Self {
        ModelConfig {
            name: "JODIE",
            memory_dim: 100,
            time_dim: 16,
            sampling: Sampling::MostRecent(1),
            updater: UpdaterKind::Rnn,
            embedder: EmbedderKind::JodieDecay,
            lite: false,
        }
    }

    /// TGN: most-recent(1) sampling, GRU updater, GAT embedding.
    pub fn tgn() -> Self {
        ModelConfig {
            name: "TGN",
            memory_dim: 100,
            time_dim: 16,
            sampling: Sampling::MostRecent(1),
            updater: UpdaterKind::Gru,
            embedder: EmbedderKind::Gat1,
            lite: false,
        }
    }

    /// APAN: most-recent(10) mailbox, attention updater, identity
    /// embedding.
    pub fn apan() -> Self {
        ModelConfig {
            name: "APAN",
            memory_dim: 100,
            time_dim: 16,
            sampling: Sampling::MostRecent(10),
            updater: UpdaterKind::MailboxAttention,
            embedder: EmbedderKind::Identity,
            lite: false,
        }
    }

    /// DySAT: uniform(10) sampling, GAT embedding, RNN memory.
    pub fn dysat() -> Self {
        ModelConfig {
            name: "DySAT",
            memory_dim: 100,
            time_dim: 16,
            sampling: Sampling::Uniform(10),
            updater: UpdaterKind::Rnn,
            embedder: EmbedderKind::Gat1,
            lite: false,
        }
    }

    /// TGAT: uniform(10) sampling, identity memory, 2-layer GAT embedding.
    pub fn tgat() -> Self {
        ModelConfig {
            name: "TGAT",
            memory_dim: 100,
            time_dim: 16,
            sampling: Sampling::Uniform(10),
            updater: UpdaterKind::Identity,
            embedder: EmbedderKind::Gat2,
            lite: false,
        }
    }

    /// The model named `name`, case-insensitively: `jodie`, `tgn`,
    /// `apan`, `dysat` or `tgat`.
    pub fn by_name(name: &str) -> Option<ModelConfig> {
        Some(match name.to_lowercase().as_str() {
            "jodie" => ModelConfig::jodie(),
            "tgn" => ModelConfig::tgn(),
            "apan" => ModelConfig::apan(),
            "dysat" => ModelConfig::dysat(),
            "tgat" => ModelConfig::tgat(),
            _ => return None,
        })
    }

    /// All five models in the paper's ordering (APAN, JODIE, TGN, DySAT,
    /// TGAT as plotted in Figures 10–16).
    pub fn all() -> Vec<ModelConfig> {
        vec![
            ModelConfig::apan(),
            ModelConfig::jodie(),
            ModelConfig::tgn(),
            ModelConfig::dysat(),
            ModelConfig::tgat(),
        ]
    }

    /// Overrides the memory and time-encoding widths.
    ///
    /// # Panics
    ///
    /// Panics if either width is zero.
    pub fn with_dims(mut self, memory_dim: usize, time_dim: usize) -> Self {
        assert!(memory_dim > 0 && time_dim > 0, "dims must be positive");
        self.memory_dim = memory_dim;
        self.time_dim = time_dim;
        self
    }

    /// Enables TGLite-style redundancy-eliminating execution.
    pub fn with_lite(mut self) -> Self {
        self.lite = true;
        self
    }

    /// Overrides the number of sampled neighbors, keeping the discipline.
    pub fn with_neighbors(mut self, n: usize) -> Self {
        self.sampling = match self.sampling {
            Sampling::MostRecent(_) => Sampling::MostRecent(n),
            Sampling::Uniform(_) => Sampling::Uniform(n),
        };
        self
    }
}

impl fmt::Display for ModelConfig {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} (sample {:?}, update {:?}, embed {:?}, d={})",
            self.name, self.sampling, self.updater, self.embedder, self.memory_dim
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn by_name_is_case_insensitive() {
        for cfg in ModelConfig::all() {
            let found = ModelConfig::by_name(&cfg.name.to_lowercase()).expect(cfg.name);
            assert_eq!(found.name, cfg.name);
            assert_eq!(
                ModelConfig::by_name(cfg.name).map(|c| c.name),
                Some(cfg.name)
            );
        }
        assert!(ModelConfig::by_name("gcn").is_none());
    }

    #[test]
    fn presets_match_table1() {
        let j = ModelConfig::jodie();
        assert_eq!(j.sampling, Sampling::MostRecent(1));
        assert_eq!(j.updater, UpdaterKind::Rnn);
        assert_eq!(j.embedder, EmbedderKind::JodieDecay);

        let t = ModelConfig::tgn();
        assert_eq!(t.updater, UpdaterKind::Gru);
        assert_eq!(t.embedder, EmbedderKind::Gat1);

        let a = ModelConfig::apan();
        assert_eq!(a.sampling, Sampling::MostRecent(10));
        assert_eq!(a.updater, UpdaterKind::MailboxAttention);

        let d = ModelConfig::dysat();
        assert_eq!(d.sampling, Sampling::Uniform(10));

        let g = ModelConfig::tgat();
        assert_eq!(g.embedder, EmbedderKind::Gat2);
        assert_eq!(g.updater, UpdaterKind::Identity);
    }

    #[test]
    fn default_dims_are_paper_dims() {
        assert_eq!(ModelConfig::tgn().memory_dim, 100);
    }

    #[test]
    fn with_dims_overrides() {
        let c = ModelConfig::tgn().with_dims(16, 4);
        assert_eq!((c.memory_dim, c.time_dim), (16, 4));
    }

    #[test]
    fn with_neighbors_keeps_discipline() {
        assert_eq!(
            ModelConfig::tgat().with_neighbors(3).sampling,
            Sampling::Uniform(3)
        );
        assert_eq!(
            ModelConfig::tgn().with_neighbors(3).sampling,
            Sampling::MostRecent(3)
        );
    }

    #[test]
    fn all_lists_five() {
        assert_eq!(ModelConfig::all().len(), 5);
    }
}
