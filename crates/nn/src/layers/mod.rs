//! Neural network layers.

mod activation;
mod conv;
mod dropout;
mod linear;
mod norm;
mod sequential;

pub use activation::{Flatten, GlobalAvgPool2d, MaxPool2d, Relu, Tanh};
pub use conv::Conv2d;
pub use dropout::Dropout;
pub use linear::Linear;
pub use norm::BatchNorm2d;
pub use sequential::{mlp, Sequential};
