//! The policy registry: string-keyed construction of eviction and
//! admission strategies.
//!
//! Every strategy — the paper's built-ins, the extra policies in
//! [`crate::policies`], and any user-defined implementation — is reachable
//! by name, so callers pick policies with
//! [`GraphCacheBuilder::eviction`](crate::GraphCacheBuilder::eviction) /
//! [`GraphCacheBuilder::admission`](crate::GraphCacheBuilder::admission)
//! (or the CLI's `--eviction` / `--admission` flags) instead of touching
//! cache internals. Registering a new strategy is one
//! [`register_eviction`] call; nothing in `gc-core` needs to change.
//!
//! # Spec strings
//!
//! A *spec* is a registry name with optional `key=value` parameters:
//! `"slru"`, `"slru:protected=0.5"`, `"threshold:windows=2,fraction=0.4"`.
//! Unknown names fail with a [`PolicyError`] listing what is available;
//! parameters a policy does not read are ignored.
//!
//! # Built-in eviction policies
//!
//! | name | strategy |
//! |------|----------|
//! | `lru`, `pop`, `pin`, `pinc`, `hd` | the paper's §6.3 utility policies |
//! | `gcr` | alias for `hd`, the paper's recommended GraphCache policy |
//! | `slru` | segmented LRU (`protected=` share, default 0.8) |
//! | `greedy-dual` (alias `gd`) | cost-aware Greedy-Dual |
//!
//! # Built-in admission policies
//!
//! | name | strategy |
//! |------|----------|
//! | `none` (aliases `off`, `always`) | admit everything |
//! | `threshold` (alias `static`) | calibrated threshold (`windows=`, `fraction=`) |
//! | `adaptive` | threshold with greedy back-off adaptation |

use crate::admission::{
    AdaptiveAdmission, AdmissionConfig, AdmissionControl, AdmissionPolicy, AdmitAll,
};
use crate::policies::{GreedyDual, SegmentedLru};
use crate::policy::{EvictionPolicy, PolicyKind};
use parking_lot::Mutex;
use std::collections::BTreeMap;
use std::sync::{Arc, OnceLock};

/// Error raised when a policy spec cannot be resolved or its parameters
/// cannot be parsed. The [`Display`](std::fmt::Display) form lists the
/// available names, so surfacing it verbatim (as the CLI does) is enough
/// for a user to self-correct.
#[derive(Debug, Clone)]
pub struct PolicyError {
    message: String,
    available: Vec<String>,
}

impl PolicyError {
    /// A spec/parameter error with no name listing.
    pub fn new(message: impl Into<String>) -> Self {
        PolicyError {
            message: message.into(),
            available: Vec::new(),
        }
    }

    fn unknown(kind: &str, name: &str, available: Vec<String>) -> Self {
        PolicyError {
            message: format!("unknown {kind} policy {name:?}"),
            available,
        }
    }

    /// The registry names that were available when the error was raised
    /// (empty for parameter errors).
    pub fn available(&self) -> &[String] {
        &self.available
    }
}

impl std::fmt::Display for PolicyError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "{}", self.message)?;
        if !self.available.is_empty() {
            write!(f, " (available: {})", self.available.join(", "))?;
        }
        Ok(())
    }
}

impl std::error::Error for PolicyError {}

/// Parsed `key=value` parameters of a policy spec (the part after `:`).
#[derive(Debug, Clone, Default)]
pub struct PolicyParams {
    pairs: Vec<(String, String)>,
}

impl PolicyParams {
    /// Splits a spec string into `(name, params)`: `"slru:protected=0.5"`
    /// becomes `("slru", {protected: 0.5})`. Bare names carry no params.
    pub fn parse(spec: &str) -> Result<(&str, PolicyParams), PolicyError> {
        let spec = spec.trim();
        let (name, rest) = match spec.split_once(':') {
            None => (spec, ""),
            Some((n, r)) => (n.trim(), r),
        };
        if name.is_empty() {
            return Err(PolicyError::new("empty policy name"));
        }
        let mut pairs = Vec::new();
        for kv in rest.split(',').filter(|s| !s.trim().is_empty()) {
            let (k, v) = kv.split_once('=').ok_or_else(|| {
                PolicyError::new(format!("malformed parameter {kv:?} (expected key=value)"))
            })?;
            pairs.push((k.trim().to_string(), v.trim().to_string()));
        }
        Ok((name, PolicyParams { pairs }))
    }

    /// Raw string lookup.
    pub fn get(&self, key: &str) -> Option<&str> {
        self.pairs
            .iter()
            .find(|(k, _)| k == key)
            .map(|(_, v)| v.as_str())
    }

    /// A float parameter, `default` when absent.
    pub fn get_f64(&self, key: &str, default: f64) -> Result<f64, PolicyError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| PolicyError::new(format!("parameter {key}={v:?} is not a number"))),
        }
    }

    /// An integer parameter, `default` when absent.
    pub fn get_usize(&self, key: &str, default: usize) -> Result<usize, PolicyError> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| PolicyError::new(format!("parameter {key}={v:?} is not an integer"))),
        }
    }

    /// True when no parameters were given.
    pub fn is_empty(&self) -> bool {
        self.pairs.is_empty()
    }
}

/// Factory for an [`EvictionPolicy`], stored in the registry.
pub type EvictionFactory =
    Arc<dyn Fn(&PolicyParams) -> Result<Box<dyn EvictionPolicy>, PolicyError> + Send + Sync>;

/// Factory for an [`AdmissionPolicy`], stored in the registry.
pub type AdmissionFactory =
    Arc<dyn Fn(&PolicyParams) -> Result<Box<dyn AdmissionPolicy>, PolicyError> + Send + Sync>;

/// The string-keyed policy registry. One process-wide instance (behind
/// this module's free functions, e.g. [`build_eviction`] /
/// [`register_eviction`]) is pre-seeded with every built-in; isolated
/// instances can be built for tests via [`PolicyRegistry::with_builtins`].
pub struct PolicyRegistry {
    evictions: BTreeMap<String, EvictionFactory>,
    admissions: BTreeMap<String, AdmissionFactory>,
    eviction_aliases: BTreeMap<String, String>,
    admission_aliases: BTreeMap<String, String>,
}

impl PolicyRegistry {
    /// An empty registry (no built-ins).
    pub fn empty() -> Self {
        PolicyRegistry {
            evictions: BTreeMap::new(),
            admissions: BTreeMap::new(),
            eviction_aliases: BTreeMap::new(),
            admission_aliases: BTreeMap::new(),
        }
    }

    /// A registry pre-seeded with every built-in policy and alias.
    pub fn with_builtins() -> Self {
        let mut reg = PolicyRegistry::empty();
        for kind in PolicyKind::ALL {
            reg.register_eviction(kind.registry_name(), move |_p| Ok(Box::new(kind)));
        }
        // The paper's recommended GraphCache replacement policy under the
        // name related work refers to it by.
        reg.alias_eviction("gcr", "hd");
        reg.register_eviction("slru", |p| {
            let share = p.get_f64("protected", SegmentedLru::DEFAULT_PROTECTED_SHARE)?;
            Ok(Box::new(SegmentedLru::new(share)))
        });
        reg.alias_eviction("segmented-lru", "slru");
        reg.register_eviction("greedy-dual", |_p| Ok(Box::new(GreedyDual::new())));
        reg.alias_eviction("gd", "greedy-dual");

        reg.register_admission("none", |_p| Ok(Box::new(AdmitAll)));
        reg.alias_admission("off", "none");
        reg.alias_admission("always", "none");
        reg.register_admission("threshold", |p| {
            Ok(Box::new(AdmissionControl::new(admission_cfg(p)?)))
        });
        reg.alias_admission("static", "threshold");
        reg.register_admission("adaptive", |p| {
            Ok(Box::new(AdaptiveAdmission::new(admission_cfg(p)?)))
        });
        reg
    }

    /// Registers (or replaces) an eviction policy factory under `name`.
    pub fn register_eviction(
        &mut self,
        name: &str,
        factory: impl Fn(&PolicyParams) -> Result<Box<dyn EvictionPolicy>, PolicyError>
            + Send
            + Sync
            + 'static,
    ) {
        self.evictions.insert(name.to_string(), Arc::new(factory));
    }

    /// Registers (or replaces) an admission policy factory under `name`.
    pub fn register_admission(
        &mut self,
        name: &str,
        factory: impl Fn(&PolicyParams) -> Result<Box<dyn AdmissionPolicy>, PolicyError>
            + Send
            + Sync
            + 'static,
    ) {
        self.admissions.insert(name.to_string(), Arc::new(factory));
    }

    /// Makes `alias` resolve to the eviction policy registered as `target`.
    pub fn alias_eviction(&mut self, alias: &str, target: &str) {
        self.eviction_aliases
            .insert(alias.to_string(), target.to_string());
    }

    /// Makes `alias` resolve to the admission policy registered as `target`.
    pub fn alias_admission(&mut self, alias: &str, target: &str) {
        self.admission_aliases
            .insert(alias.to_string(), target.to_string());
    }

    /// Builds an eviction policy from a spec string (`name[:k=v,…]`).
    pub fn build_eviction(&self, spec: &str) -> Result<Box<dyn EvictionPolicy>, PolicyError> {
        let (name, params) = PolicyParams::parse(spec)?;
        let key = self
            .eviction_aliases
            .get(name)
            .map(String::as_str)
            .unwrap_or(name);
        let factory = self
            .evictions
            .get(key)
            .ok_or_else(|| PolicyError::unknown("eviction", name, self.eviction_names()))?;
        factory(&params)
    }

    /// Builds an admission policy from a spec string (`name[:k=v,…]`).
    pub fn build_admission(&self, spec: &str) -> Result<Box<dyn AdmissionPolicy>, PolicyError> {
        let (name, params) = PolicyParams::parse(spec)?;
        let key = self
            .admission_aliases
            .get(name)
            .map(String::as_str)
            .unwrap_or(name);
        let factory = self
            .admissions
            .get(key)
            .ok_or_else(|| PolicyError::unknown("admission", name, self.admission_names()))?;
        factory(&params)
    }

    /// The canonical (alias-free) eviction policy names, sorted.
    pub fn eviction_names(&self) -> Vec<String> {
        self.evictions.keys().cloned().collect()
    }

    /// The canonical (alias-free) admission policy names, sorted.
    pub fn admission_names(&self) -> Vec<String> {
        self.admissions.keys().cloned().collect()
    }
}

impl Default for PolicyRegistry {
    fn default() -> Self {
        PolicyRegistry::with_builtins()
    }
}

/// Shared `windows=` / `fraction=` parameters of the threshold-based
/// admission policies.
fn admission_cfg(p: &PolicyParams) -> Result<AdmissionConfig, PolicyError> {
    let defaults = AdmissionConfig::default();
    Ok(AdmissionConfig {
        calibration_windows: p.get_usize("windows", defaults.calibration_windows)?,
        target_expensive_fraction: p.get_f64("fraction", defaults.target_expensive_fraction)?,
    })
}

fn global() -> &'static Mutex<PolicyRegistry> {
    static GLOBAL: OnceLock<Mutex<PolicyRegistry>> = OnceLock::new();
    GLOBAL.get_or_init(|| Mutex::new(PolicyRegistry::with_builtins()))
}

/// Builds an eviction policy from the process-wide registry.
pub fn build_eviction(spec: &str) -> Result<Box<dyn EvictionPolicy>, PolicyError> {
    global().lock().build_eviction(spec)
}

/// Builds an admission policy from the process-wide registry.
pub fn build_admission(spec: &str) -> Result<Box<dyn AdmissionPolicy>, PolicyError> {
    global().lock().build_admission(spec)
}

/// Registers an eviction policy in the process-wide registry. Replaces any
/// previous registration under the same name.
pub fn register_eviction(
    name: &str,
    factory: impl Fn(&PolicyParams) -> Result<Box<dyn EvictionPolicy>, PolicyError>
        + Send
        + Sync
        + 'static,
) {
    global().lock().register_eviction(name, factory);
}

/// Registers an admission policy in the process-wide registry. Replaces any
/// previous registration under the same name.
pub fn register_admission(
    name: &str,
    factory: impl Fn(&PolicyParams) -> Result<Box<dyn AdmissionPolicy>, PolicyError>
        + Send
        + Sync
        + 'static,
) {
    global().lock().register_admission(name, factory);
}

/// The canonical eviction policy names in the process-wide registry.
pub fn eviction_names() -> Vec<String> {
    global().lock().eviction_names()
}

/// The canonical admission policy names in the process-wide registry.
pub fn admission_names() -> Vec<String> {
    global().lock().admission_names()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_by_name() {
        let reg = PolicyRegistry::with_builtins();
        for name in ["lru", "pop", "pin", "pinc", "hd", "slru", "greedy-dual"] {
            let p = reg.build_eviction(name).unwrap();
            assert_eq!(p.name(), name, "canonical names round-trip");
        }
        for name in ["none", "threshold", "adaptive"] {
            let p = reg.build_admission(name).unwrap();
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn aliases_resolve_to_canonical() {
        let reg = PolicyRegistry::with_builtins();
        assert_eq!(reg.build_eviction("gcr").unwrap().name(), "hd");
        assert_eq!(reg.build_eviction("gd").unwrap().name(), "greedy-dual");
        assert_eq!(reg.build_eviction("segmented-lru").unwrap().name(), "slru");
        assert_eq!(reg.build_admission("off").unwrap().name(), "none");
        assert_eq!(reg.build_admission("static").unwrap().name(), "threshold");
        // Aliases are not listed among canonical names.
        assert!(!reg.eviction_names().contains(&"gcr".to_string()));
    }

    #[test]
    fn unknown_names_list_available() {
        let reg = PolicyRegistry::with_builtins();
        let err = reg.build_eviction("belady").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("belady"), "{msg}");
        assert!(msg.contains("hd") && msg.contains("slru"), "{msg}");
        assert!(!err.available().is_empty());
        let err = reg.build_admission("belady").unwrap_err();
        assert!(err.to_string().contains("adaptive"));
    }

    #[test]
    fn params_parse_and_apply() {
        let (name, params) = PolicyParams::parse("slru:protected=0.5").unwrap();
        assert_eq!(name, "slru");
        assert_eq!(params.get_f64("protected", 0.8).unwrap(), 0.5);
        assert_eq!(params.get_f64("missing", 0.8).unwrap(), 0.8);
        assert!(params.get_usize("protected", 1).is_err(), "0.5 not usize");

        let reg = PolicyRegistry::with_builtins();
        assert!(reg.build_eviction("slru:protected=0.25").is_ok());
        let ac = reg
            .build_admission("threshold:windows=1,fraction=0.5")
            .unwrap();
        assert_eq!(ac.name(), "threshold");
        assert!(reg.build_eviction("slru:protected=abc").is_err());
        assert!(PolicyParams::parse("slru:oops").is_err());
        assert!(PolicyParams::parse("").is_err());
        assert!(PolicyParams::parse(":k=v").is_err());
    }

    #[test]
    fn custom_registration_and_replacement() {
        let mut reg = PolicyRegistry::empty();
        assert!(reg.build_eviction("lru").is_err(), "empty registry");
        reg.register_eviction("fifo", |_p| Ok(Box::new(PolicyKind::Lru)));
        assert_eq!(reg.eviction_names(), vec!["fifo".to_string()]);
        assert!(reg.build_eviction("fifo").is_ok());
    }

    #[test]
    fn global_registry_has_builtins() {
        assert!(build_eviction("hd").is_ok());
        assert!(build_admission("adaptive").is_ok());
        assert!(eviction_names().contains(&"greedy-dual".to_string()));
        assert!(admission_names().contains(&"none".to_string()));
        // Global custom registration is visible to later builds.
        register_eviction("global-test-policy", |_p| Ok(Box::new(PolicyKind::Pop)));
        assert!(build_eviction("global-test-policy").is_ok());
    }
}
