//! Weight-space priors and the hide/expose filtering that selects which
//! parameters receive a Bayesian treatment (TyXe `tyxe/priors.py`).

use std::collections::HashMap;
use std::rc::Rc;

use tyxe_nn::init::VarianceScheme;
use tyxe_nn::ParamInfo;
use tyxe_prob::dist::{boxed, DynDistribution, Normal};

/// Selects which parameters are treated as random variables.
///
/// Follows the paper's `Prior` filtering logic: parameters can be hidden or
/// exposed by the kind of module that owns them (e.g. `"BatchNorm2d"`), by
/// their attribute (`"bias"`), or by their full dotted name
/// (`"fc.weight"`). If any expose rule is set, only matching parameters are
/// Bayesian; otherwise everything not matching a hide rule is.
#[derive(Debug, Clone, Default)]
pub struct Filter {
    hide_module_types: Vec<&'static str>,
    expose_module_types: Vec<&'static str>,
    hide_names: Vec<String>,
    expose_names: Vec<String>,
    hide_attributes: Vec<String>,
    expose_attributes: Vec<String>,
    hide_all: bool,
}

impl Filter {
    /// A filter exposing everything.
    pub fn all() -> Filter {
        Filter::default()
    }

    /// Hides every parameter (combine with expose rules).
    #[must_use]
    pub fn hide_all(mut self) -> Filter {
        self.hide_all = true;
        self
    }

    /// Hides parameters owned by modules of the given kinds.
    #[must_use]
    pub fn hide_module_types(mut self, kinds: &[&'static str]) -> Filter {
        self.hide_module_types.extend_from_slice(kinds);
        self
    }

    /// Exposes only parameters owned by modules of the given kinds.
    #[must_use]
    pub fn expose_module_types(mut self, kinds: &[&'static str]) -> Filter {
        self.expose_module_types.extend_from_slice(kinds);
        self
    }

    /// Hides parameters by full name.
    #[must_use]
    pub fn hide(mut self, names: &[&str]) -> Filter {
        self.hide_names.extend(names.iter().map(|s| s.to_string()));
        self
    }

    /// Exposes only the named parameters.
    #[must_use]
    pub fn expose(mut self, names: &[&str]) -> Filter {
        self.expose_names.extend(names.iter().map(|s| s.to_string()));
        self
    }

    /// Hides parameters by attribute name (e.g. `"bias"`).
    #[must_use]
    pub fn hide_attributes(mut self, attrs: &[&str]) -> Filter {
        self.hide_attributes.extend(attrs.iter().map(|s| s.to_string()));
        self
    }

    /// Exposes only parameters with the given attribute names.
    #[must_use]
    pub fn expose_attributes(mut self, attrs: &[&str]) -> Filter {
        self.expose_attributes.extend(attrs.iter().map(|s| s.to_string()));
        self
    }

    /// Whether `info` receives a Bayesian treatment under this filter.
    pub fn exposes(&self, info: &ParamInfo) -> bool {
        let has_expose = !self.expose_module_types.is_empty()
            || !self.expose_names.is_empty()
            || !self.expose_attributes.is_empty();
        if has_expose {
            return self.expose_module_types.contains(&info.module_kind)
                || self.expose_names.iter().any(|n| n == &info.name)
                || self.expose_attributes.iter().any(|a| a == info.attribute());
        }
        if self.hide_all {
            return false;
        }
        !(self.hide_module_types.contains(&info.module_kind)
            || self.hide_names.iter().any(|n| n == &info.name)
            || self.hide_attributes.iter().any(|a| a == info.attribute()))
    }
}

/// A prior over network weights: decides per parameter whether it is
/// Bayesian and, if so, with what distribution.
pub trait Prior {
    /// The filter selecting Bayesian parameters.
    fn filter(&self) -> &Filter;

    /// The prior distribution for an exposed parameter.
    fn distribution(&self, info: &ParamInfo) -> DynDistribution;

    /// Convenience: `None` if hidden, `Some(dist)` if exposed.
    fn apply(&self, info: &ParamInfo) -> Option<DynDistribution> {
        self.filter().exposes(info).then(|| self.distribution(info))
    }
}

/// Factory building a distribution for a given parameter shape.
pub type ShapeDistFactory = Rc<dyn Fn(&[usize]) -> DynDistribution>;

/// Elementwise i.i.d. prior with the same marginal on every exposed
/// parameter (the paper's `IIDPrior(dist.Normal(0, 1))`).
#[derive(Clone)]
pub struct IIDPrior {
    make: ShapeDistFactory,
    filter: Filter,
}

impl std::fmt::Debug for IIDPrior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("IIDPrior").field("filter", &self.filter).finish()
    }
}

impl IIDPrior {
    /// I.i.d. Normal prior with the given scalar location and scale.
    pub fn normal(loc: f64, scale: f64) -> IIDPrior {
        IIDPrior {
            make: Rc::new(move |shape| boxed(Normal::scalar(loc, scale, shape))),
            filter: Filter::all(),
        }
    }

    /// The standard normal prior used throughout the paper's experiments.
    pub fn standard_normal() -> IIDPrior {
        IIDPrior::normal(0.0, 1.0)
    }

    /// An improper flat prior (the maximum-likelihood "prior").
    pub fn flat() -> IIDPrior {
        IIDPrior {
            make: Rc::new(|shape| boxed(tyxe_prob::dist::Flat::new(shape))),
            filter: Filter::all(),
        }
    }

    /// Replaces the hide/expose filter.
    #[must_use]
    pub fn with_filter(mut self, filter: Filter) -> IIDPrior {
        self.filter = filter;
        self
    }
}

impl Prior for IIDPrior {
    fn filter(&self) -> &Filter {
        &self.filter
    }

    fn distribution(&self, info: &ParamInfo) -> DynDistribution {
        (self.make)(&info.param.shape())
    }
}

/// Per-layer zero-mean Gaussian prior whose variance depends on the weight
/// shape: `radford` (1/fan-in), `xavier`, or `kaiming` (the paper's
/// `LayerwiseNormalPrior`).
#[derive(Debug, Clone)]
pub struct LayerwiseNormalPrior {
    scheme: VarianceScheme,
    filter: Filter,
}

impl LayerwiseNormalPrior {
    /// Creates a layerwise prior with the given variance scheme.
    pub fn new(scheme: VarianceScheme) -> LayerwiseNormalPrior {
        LayerwiseNormalPrior {
            scheme,
            filter: Filter::all(),
        }
    }

    /// Replaces the hide/expose filter.
    #[must_use]
    pub fn with_filter(mut self, filter: Filter) -> LayerwiseNormalPrior {
        self.filter = filter;
        self
    }
}

impl Prior for LayerwiseNormalPrior {
    fn filter(&self) -> &Filter {
        &self.filter
    }

    fn distribution(&self, info: &ParamInfo) -> DynDistribution {
        let shape = info.param.shape();
        let sd = self.scheme.variance(&shape).sqrt();
        boxed(Normal::scalar(0.0, sd, &shape))
    }
}

/// Maps full parameter names to explicit distributions — the continual
/// learning prior built from a previous posterior (paper's `DictPrior`).
#[derive(Clone)]
pub struct DictPrior {
    dists: HashMap<String, DynDistribution>,
    filter: Filter,
}

impl std::fmt::Debug for DictPrior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("DictPrior")
            .field("sites", &self.dists.keys().collect::<Vec<_>>())
            .finish()
    }
}

impl DictPrior {
    /// Creates a dictionary prior. Parameters not in the map are hidden.
    pub fn new(dists: HashMap<String, DynDistribution>) -> DictPrior {
        DictPrior {
            dists,
            filter: Filter::all(),
        }
    }

    /// Replaces the hide/expose filter (applied *in addition* to map
    /// membership).
    #[must_use]
    pub fn with_filter(mut self, filter: Filter) -> DictPrior {
        self.filter = filter;
        self
    }
}

impl Prior for DictPrior {
    fn filter(&self) -> &Filter {
        &self.filter
    }

    fn distribution(&self, info: &ParamInfo) -> DynDistribution {
        Rc::clone(
            self.dists
                .get(&info.name)
                .unwrap_or_else(|| panic!("DictPrior: no distribution for site {:?}", info.name)),
        )
    }

    fn apply(&self, info: &ParamInfo) -> Option<DynDistribution> {
        (self.filter().exposes(info) && self.dists.contains_key(&info.name))
            .then(|| self.distribution(info))
    }
}

/// Wraps a function that dynamically builds a distribution per parameter
/// (paper's `LambdaPrior`).
#[derive(Clone)]
pub struct LambdaPrior {
    make: Rc<dyn Fn(&ParamInfo) -> DynDistribution>,
    filter: Filter,
}

impl std::fmt::Debug for LambdaPrior {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("LambdaPrior").field("filter", &self.filter).finish()
    }
}

impl LambdaPrior {
    /// Creates a prior from a per-parameter factory.
    pub fn new(make: impl Fn(&ParamInfo) -> DynDistribution + 'static) -> LambdaPrior {
        LambdaPrior {
            make: Rc::new(make),
            filter: Filter::all(),
        }
    }

    /// Replaces the hide/expose filter.
    #[must_use]
    pub fn with_filter(mut self, filter: Filter) -> LambdaPrior {
        self.filter = filter;
        self
    }
}

impl Prior for LambdaPrior {
    fn filter(&self) -> &Filter {
        &self.filter
    }

    fn distribution(&self, info: &ParamInfo) -> DynDistribution {
        (self.make)(info)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use tyxe_nn::Param;
    use tyxe_tensor::Tensor;

    fn info(name: &str, kind: &'static str, shape: &[usize]) -> ParamInfo {
        ParamInfo {
            name: name.to_string(),
            module_kind: kind,
            param: Param::new(Tensor::zeros(shape)),
        }
    }

    #[test]
    fn filter_default_exposes_everything() {
        let f = Filter::all();
        assert!(f.exposes(&info("fc.weight", "Linear", &[2, 2])));
    }

    #[test]
    fn filter_hide_module_types() {
        let f = Filter::all().hide_module_types(&["BatchNorm2d"]);
        assert!(!f.exposes(&info("bn1.weight", "BatchNorm2d", &[4])));
        assert!(f.exposes(&info("conv1.weight", "Conv2d", &[4, 3, 3, 3])));
    }

    #[test]
    fn filter_expose_overrides_hides() {
        let f = Filter::all().expose(&["fc.weight", "fc.bias"]);
        assert!(f.exposes(&info("fc.weight", "Linear", &[2, 2])));
        assert!(!f.exposes(&info("conv1.weight", "Conv2d", &[2, 2, 3, 3])));
    }

    #[test]
    fn filter_hide_all_with_expose_attribute() {
        let f = Filter::all().hide_all().expose_attributes(&["weight"]);
        assert!(f.exposes(&info("a.weight", "Linear", &[1])));
        assert!(!f.exposes(&info("a.bias", "Linear", &[1])));
    }

    #[test]
    fn filter_hide_attributes() {
        let f = Filter::all().hide_attributes(&["bias"]);
        assert!(!f.exposes(&info("fc.bias", "Linear", &[2])));
        assert!(f.exposes(&info("fc.weight", "Linear", &[2, 2])));
    }

    #[test]
    fn iid_prior_expands_to_param_shape() {
        let p = IIDPrior::standard_normal();
        let i = info("w", "Linear", &[3, 4]);
        let d = p.apply(&i).unwrap();
        assert_eq!(d.shape(), vec![3, 4]);
    }

    #[test]
    fn iid_prior_respects_filter() {
        let p = IIDPrior::standard_normal()
            .with_filter(Filter::all().hide_module_types(&["BatchNorm2d"]));
        assert!(p.apply(&info("bn.weight", "BatchNorm2d", &[2])).is_none());
        assert!(p.apply(&info("fc.weight", "Linear", &[2])).is_some());
    }

    #[test]
    fn layerwise_prior_variances() {
        let p = LayerwiseNormalPrior::new(VarianceScheme::Radford);
        let d = p.distribution(&info("w", "Linear", &[10, 25]));
        // Variance = 1/25.
        let var = d.variance().to_vec()[0];
        assert!((var - 0.04).abs() < 1e-12);
    }

    #[test]
    fn dict_prior_hides_missing_sites() {
        let mut m = HashMap::new();
        m.insert("a".to_string(), boxed(Normal::standard(&[2])) as DynDistribution);
        let p = DictPrior::new(m);
        assert!(p.apply(&info("a", "Linear", &[2])).is_some());
        assert!(p.apply(&info("b", "Linear", &[2])).is_none());
    }

    #[test]
    fn lambda_prior_sees_param_info() {
        let p = LambdaPrior::new(|i| {
            let sd = if i.attribute() == "bias" { 10.0 } else { 1.0 };
            boxed(Normal::scalar(0.0, sd, &i.param.shape()))
        });
        let d = p.distribution(&info("fc.bias", "Linear", &[2]));
        assert!((d.variance().to_vec()[0] - 100.0).abs() < 1e-9);
    }
}
