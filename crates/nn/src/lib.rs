#![forbid(unsafe_code)]
#![warn(missing_docs)]
//! # cascade-nn
//!
//! Neural-network building blocks for the Cascade TGNN training framework:
//! the layers Table 1 of the paper configures its five models from
//! (MLP message functions, GRU/RNN memory updaters, GAT embedders,
//! sinusoidal time encoders), plus the Adam optimizer and BCE loss the
//! training loop uses.
//!
//! # Examples
//!
//! A single supervised step over a toy batch:
//!
//! ```
//! use cascade_nn::{bce_with_logits, Adam, EdgePredictor, Module};
//! use cascade_tensor::Tensor;
//!
//! let head = EdgePredictor::new(8, 42);
//! let mut opt = Adam::new(head.parameters(), 1e-3);
//!
//! let src = Tensor::randn([16, 8], 1);
//! let dst = Tensor::randn([16, 8], 2);
//! let labels = Tensor::ones([16, 1]);
//!
//! let logits = head.forward(&src, &dst);
//! let loss = bce_with_logits(&logits, &labels);
//! loss.backward();
//! opt.step();
//! ```

mod attention;
mod linear;
mod loss;
mod module;
mod optim;
mod predictor;
mod recurrent;
mod time_encode;

pub use attention::GatLayer;
pub use linear::{Linear, Mlp};
pub use loss::{average_precision, bce_with_logits, bce_with_logits_sum, binary_accuracy};
pub use module::{xavier_uniform, zeros_bias, Module};
pub use optim::{clip_grad_norm, Adam};
pub use predictor::EdgePredictor;
pub use recurrent::{GruCell, RnnCell};
pub use time_encode::TimeEncode;
