//! `tyxe-bench`: the experiment harness regenerating every table and
//! figure of the TyXe paper at laptop scale.
//!
//! Each experiment lives in its own module and is driven by a binary (see
//! `src/bin/`). Nothing here times code: wall-clock numbers come from
//! the repo benchmark (`benchmark/`, DESIGN.md §6).
//!
//! | Paper artifact | Module | Binary |
//! |---|---|---|
//! | Figure 1 (regression bands) | [`regression_exp`] | `fig1_regression` |
//! | Table 1 (ResNet predictive perf.) | [`vision`] | `tab1_resnet` |
//! | Figure 2 (calibration + entropy ECDF) | [`vision`] | `fig2_calibration` |
//! | Table 2 (GNN on Cora) | [`gnn_exp`] | `tab2_gnn` |
//! | Figure 3 (Bayesian NeRF) | [`nerf_exp`] | `fig3_nerf` |
//! | Figure 4 (VCL) | [`vcl_exp`] | `fig4_vcl` |
//! | §2.4 motivation (gradient variance) | [`gradvar`] | `ablation_gradvar` |

pub mod gnn_exp;
pub mod gradvar;
pub mod nerf_exp;
pub mod regression_exp;
pub mod report;
pub mod vcl_exp;
pub mod vision;
