//! Gradient-boosted regression trees: the paper's XGBoost-style baseline.
//!
//! §III-D: "We consider the prediction of traditional ensemble machine
//! learning techniques, namely XGBoost, a gradient-boosted ensemble of
//! decision trees, as a reasonable baseline for success. The XGBoost
//! ensemble has tunable hyperparameters, including the number of
//! estimators, learning rate, maximum tree depth and minimum number of
//! samples per leaf node. We find the best-fitting model through a
//! randomized search with 1000 iterations."
//!
//! This crate implements that baseline from scratch: binned feature
//! matrices ([`data`]), histogram-split regression trees ([`tree`]),
//! squared-error gradient boosting with shrinkage, row subsampling and
//! column sampling ([`boost`]), and the randomized hyperparameter search
//! ([`search`]).

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod boost;
pub mod data;
pub mod search;
pub mod tree;

pub use boost::{Gbdt, GbdtParams};
pub use data::DMatrix;
pub use search::{random_search, SearchResult, SearchSpace};
pub use tree::{Tree, TreeParams};
