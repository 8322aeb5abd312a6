//! Policy construction: a spec string names one of a closed set of
//! eviction and admission strategies.
//!
//! Callers pick policies with
//! [`GraphCacheBuilder::eviction`](crate::GraphCacheBuilder::eviction) /
//! [`GraphCacheBuilder::admission`](crate::GraphCacheBuilder::admission)
//! (or the CLI's `--eviction` / `--admission` flags), which resolve the
//! spec through [`build_eviction`] / [`build_admission`] at build time.
//! Each is one `match` over the names below; adding a policy is one arm
//! there and its name in [`EVICTION_NAMES`] or [`ADMISSION_NAMES`].
//!
//! # Spec strings
//!
//! A *spec* is a policy name with optional `key=value` parameters:
//! `"slru"`, `"slru:protected=0.5"`, `"threshold:windows=2,fraction=0.4"`.
//! An unknown name fails with a [`PolicyError`] listing the available
//! ones. So does a parameter the policy does not read, a key given twice,
//! and a share (`protected`, `fraction`) that is not a number in `[0, 1]`:
//! a typo never runs with the default.
//!
//! # Eviction policies
//!
//! | name | strategy | parameters |
//! |------|----------|------------|
//! | `lru`, `pop`, `pin`, `pinc`, `hd` | the paper's §6.3 utility policies | — |
//! | `gcr` | `hd`, the paper's recommended GraphCache policy | — |
//! | `slru` | segmented LRU | `protected` share (default 0.8) |
//! | `greedy-dual` | cost-aware Greedy-Dual | — |
//!
//! # Admission policies
//!
//! | name | strategy | parameters |
//! |------|----------|------------|
//! | `none` | admit everything | — |
//! | `threshold` | the paper's §6.2 calibrated threshold | `windows` (default 3), `fraction` (default 0.25) |
//! | `adaptive` | threshold with greedy back-off adaptation | as `threshold` |

use crate::admission::{
    AdaptiveAdmission, AdmissionConfig, AdmissionControl, AdmissionPolicy, AdmitAll,
};
use crate::policies::{GreedyDual, SegmentedLru};
use crate::policy::{EvictionPolicy, PolicyKind};

/// The canonical eviction policy names, the paper's five first.
pub const EVICTION_NAMES: &[&str] = &["lru", "pop", "pin", "pinc", "hd", "slru", "greedy-dual"];

/// The canonical admission policy names.
pub const ADMISSION_NAMES: &[&str] = &["none", "threshold", "adaptive"];

/// Error raised when a policy spec cannot be resolved or its parameters
/// are refused. The [`Display`](std::fmt::Display) form lists the
/// available names, so surfacing it verbatim (as the CLI does) is enough
/// for a user to self-correct.
#[derive(Debug, Clone)]
pub struct PolicyError {
    message: String,
    available: &'static [&'static str],
}

impl PolicyError {
    fn new(message: String) -> Self {
        PolicyError {
            message,
            available: &[],
        }
    }

    fn unknown(kind: &str, name: &str, available: &'static [&'static str]) -> Self {
        PolicyError {
            message: format!("unknown {kind} policy {name:?}"),
            available,
        }
    }

    /// The policy names of the kind that failed to resolve (empty for
    /// parameter errors).
    pub fn available(&self) -> &[&'static str] {
        self.available
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

/// Builds an eviction policy from a spec string (`name[:k=v,…]`).
pub fn build_eviction(spec: &str) -> Result<Box<dyn EvictionPolicy>, PolicyError> {
    let spec = Spec::parse(spec)?;
    let (policy, reads): (Box<dyn EvictionPolicy>, &[&str]) = match spec.name {
        "lru" => (Box::new(PolicyKind::Lru), &[]),
        "pop" => (Box::new(PolicyKind::Pop), &[]),
        "pin" => (Box::new(PolicyKind::Pin), &[]),
        "pinc" => (Box::new(PolicyKind::Pinc), &[]),
        // `gcr`: related work's name for the paper's recommended policy.
        "hd" | "gcr" => (Box::new(PolicyKind::Hd), &[]),
        "slru" => {
            let share = spec.share("protected", SegmentedLru::DEFAULT_PROTECTED_SHARE)?;
            (Box::new(SegmentedLru::new(share)), &["protected"])
        }
        "greedy-dual" => (Box::new(GreedyDual::new()), &[]),
        name => return Err(PolicyError::unknown("eviction", name, EVICTION_NAMES)),
    };
    spec.only(reads)?;
    Ok(policy)
}

/// Builds an admission policy from a spec string (`name[:k=v,…]`).
pub fn build_admission(spec: &str) -> Result<Box<dyn AdmissionPolicy>, PolicyError> {
    let spec = Spec::parse(spec)?;
    let config = || -> Result<AdmissionConfig, PolicyError> {
        let defaults = AdmissionConfig::default();
        Ok(AdmissionConfig {
            calibration_windows: spec.number("windows", defaults.calibration_windows, "a count")?,
            target_expensive_fraction: spec
                .share("fraction", defaults.target_expensive_fraction)?,
        })
    };
    let threshold: &[&str] = &["windows", "fraction"];
    let (policy, reads): (Box<dyn AdmissionPolicy>, &[&str]) = match spec.name {
        "none" => (Box::new(AdmitAll), &[]),
        "threshold" => (Box::new(AdmissionControl::new(config()?)), threshold),
        "adaptive" => (Box::new(AdaptiveAdmission::new(config()?)), threshold),
        name => return Err(PolicyError::unknown("admission", name, ADMISSION_NAMES)),
    };
    spec.only(reads)?;
    Ok(policy)
}

/// A parsed spec: the policy name and its `key=value` pairs as written.
struct Spec<'a> {
    name: &'a str,
    params: Vec<(&'a str, &'a str)>,
}

impl<'a> Spec<'a> {
    /// Splits `"slru:protected=0.5"` into `slru` and `[(protected, 0.5)]`.
    fn parse(spec: &'a str) -> Result<Self, PolicyError> {
        let spec = spec.trim();
        let (name, rest) = spec
            .split_once(':')
            .map_or((spec, ""), |(n, r)| (n.trim(), r));
        if name.is_empty() {
            return Err(PolicyError::new("empty policy name".into()));
        }
        let mut params = Vec::new();
        for kv in rest.split(',').filter(|s| !s.trim().is_empty()) {
            let (k, v) = kv.split_once('=').ok_or_else(|| {
                PolicyError::new(format!("malformed parameter {kv:?} (expected key=value)"))
            })?;
            params.push((k.trim(), v.trim()));
        }
        Ok(Spec { name, params })
    }

    /// Refuses a key outside `reads` (the keys the policy reads) and a key
    /// given twice, naming the key and `reads`.
    fn only(&self, reads: &[&str]) -> Result<(), PolicyError> {
        for (i, &(key, _)) in self.params.iter().enumerate() {
            let refused = if !reads.contains(&key) {
                "unknown"
            } else if self.params[..i].iter().any(|&(k, _)| k == key) {
                "repeated"
            } else {
                continue;
            };
            let reads = match reads {
                [] => "it takes none".to_string(),
                keys => format!("it reads {}", keys.join(", ")),
            };
            return Err(PolicyError::new(format!(
                "policy {:?}: {refused} parameter {key:?} ({reads})",
                self.name
            )));
        }
        Ok(())
    }

    /// The value of `key` parsed as `what`; `default` when absent.
    fn number<T: std::str::FromStr>(
        &self,
        key: &str,
        default: T,
        what: &str,
    ) -> Result<T, PolicyError> {
        match self.params.iter().find(|&&(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| {
                PolicyError::new(format!("policy {:?}: {key}={v:?} is not {what}", self.name))
            }),
        }
    }

    /// A share in `[0, 1]`; `default` when absent.
    fn share(&self, key: &str, default: f64) -> Result<f64, PolicyError> {
        let what = "a number in [0, 1]";
        let x = self.number(key, default, what)?;
        if (0.0..=1.0).contains(&x) {
            Ok(x)
        } else {
            Err(PolicyError::new(format!(
                "policy {:?}: {key}={x} is not {what}",
                self.name
            )))
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn builtins_resolve_by_name() {
        for &name in EVICTION_NAMES {
            let p = build_eviction(name).unwrap();
            assert_eq!(p.name(), name, "canonical names round-trip");
        }
        for &name in ADMISSION_NAMES {
            let p = build_admission(name).unwrap();
            assert_eq!(p.name(), name);
        }
    }

    #[test]
    fn aliases_resolve_to_canonical() {
        // `gcr` is the one alias: the paper's recommended policy.
        assert_eq!(build_eviction("gcr").unwrap().name(), "hd");
        assert!(!EVICTION_NAMES.contains(&"gcr"));
        for gone in ["segmented-lru", "gd"] {
            assert!(build_eviction(gone).is_err(), "{gone}");
        }
        for gone in ["off", "always", "static"] {
            assert!(build_admission(gone).is_err(), "{gone}");
        }
    }

    #[test]
    fn unknown_names_list_available() {
        let err = build_eviction("belady").unwrap_err();
        let msg = err.to_string();
        assert!(msg.contains("belady"), "{msg}");
        assert!(msg.contains("hd") && msg.contains("slru"), "{msg}");
        assert_eq!(err.available(), EVICTION_NAMES);
        let err = build_admission("belady").unwrap_err();
        assert!(err.to_string().contains("adaptive"));
        assert_eq!(err.available(), ADMISSION_NAMES);
    }

    #[test]
    fn params_parse_and_apply() {
        let spec = Spec::parse("slru:protected=0.5").unwrap();
        assert_eq!(spec.name, "slru");
        assert_eq!(spec.share("protected", 0.8).unwrap(), 0.5);
        assert_eq!(spec.share("missing", 0.8).unwrap(), 0.8);
        assert!(spec.number::<usize>("protected", 1, "a count").is_err());
        assert!(spec.only(&["protected", "x"]).is_ok());

        assert!(build_eviction("slru:protected=0.25").is_ok());
        let ac = build_admission("threshold:windows=1,fraction=0.5").unwrap();
        assert_eq!(ac.name(), "threshold");
        assert!(build_eviction("slru:protected=abc").is_err());
        assert!(build_admission("threshold:windows=0.5").is_err());
        assert!(Spec::parse("slru:oops").is_err());
        assert!(Spec::parse("").is_err());
        assert!(Spec::parse(":k=v").is_err());
    }

    /// A misspelt, repeated or out-of-range parameter is refused, naming
    /// the key and what the policy reads, instead of running the default.
    #[test]
    fn bad_parameters_are_refused() {
        let refused = |spec: &str, admission: bool| {
            let err = if admission {
                build_admission(spec).map(|_| ()).unwrap_err()
            } else {
                build_eviction(spec).map(|_| ()).unwrap_err()
            };
            assert!(err.available().is_empty(), "{spec}: a parameter error");
            err.to_string()
        };
        let msg = refused("slru:protcted=0.5", false);
        assert!(
            msg.contains("\"protcted\"") && msg.contains("reads protected"),
            "{msg}"
        );
        let msg = refused("slru:protected=0.5,protected=0.9", false);
        assert!(
            msg.contains("repeated") && msg.contains("reads protected"),
            "{msg}"
        );
        let msg = refused("hd:x=1", false);
        assert!(msg.contains("\"x\"") && msg.contains("takes none"), "{msg}");
        for spec in ["gcr:x=1", "lru:protected=0.5", "greedy-dual:k=1"] {
            refused(spec, false);
        }
        for v in ["NaN", "inf", "-inf", "-0.1", "1.5"] {
            let msg = refused(&format!("slru:protected={v}"), false);
            assert!(
                msg.contains("protected=") && msg.contains("[0, 1]"),
                "{msg}"
            );
            let msg = refused(&format!("threshold:fraction={v}"), true);
            assert!(msg.contains("fraction=") && msg.contains("[0, 1]"), "{msg}");
        }
        let msg = refused("threshold:fractoin=0.5", true);
        assert!(msg.contains("reads windows, fraction"), "{msg}");
        refused("adaptive:windows=1,windows=2", true);
        refused("none:fraction=0.5", true);
        // The bounds themselves are shares.
        for v in ["0", "1", "0.0", "1.0"] {
            assert!(build_eviction(&format!("slru:protected={v}")).is_ok());
            assert!(build_admission(&format!("adaptive:fraction={v}")).is_ok());
        }
    }
}
