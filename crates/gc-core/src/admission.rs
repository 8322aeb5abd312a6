//! Cache admission control (paper §6.2): the [`AdmissionPolicy`] trait and
//! its built-in implementations.
//!
//! GraphCache's cache can get *polluted* by inexpensive queries: the cache
//! then mostly accelerates queries that were cheap anyway and overall
//! speedup collapses toward 1. The paper's countermeasure scores each
//! executed query with an **expensiveness** value and only admits queries
//! scoring above a threshold. The threshold is calibrated from the first
//! few windows so that a predefined percentage of queries classify as
//! expensive; a threshold of 0 disables the mechanism.
//!
//! The paper's expensiveness is verification time over filtering time.
//! The cache scores a query by the matcher work its verification spent
//! ([`QueryRecord::verify_work`](crate::QueryRecord::verify_work)): the
//! paper notes filtering time is "relatively constant across queries", so
//! dropping the denominator keeps the ranking, and a work count makes every
//! admission decision a pure function of the queries, on any machine.
//!
//! The set is closed, and [`crate::registry::build_admission`] resolves
//! its three names: [`AdmitAll`] (`"none"`), the paper's
//! calibrated-threshold [`AdmissionControl`] (`"threshold"`) and the
//! greedy back-off [`AdaptiveAdmission`] (`"adaptive"`). Each is used only
//! through the [`AdmissionPolicy`] trait.

/// A cache admission strategy.
///
/// The query path calls [`observe`](Self::observe) once per executed query,
/// exact hits included; the Window Manager calls [`admits`](Self::admits)
/// for every window entry (every miss — a repeat is already cached) and [`end_window`](Self::end_window) once per maintenance round. State
/// lives inside the implementor, behind the cache's shared admission lock —
/// implementations need `Send` but no internal synchronisation.
pub trait AdmissionPolicy: Send + std::fmt::Debug {
    /// The policy's canonical name (e.g. `"adaptive"`).
    fn name(&self) -> &str;

    /// Feeds one executed query: its expensiveness score and the *benefit*
    /// the cache delivered for it (an estimate of avoided work; 0 for
    /// complete misses). Threshold-only policies may ignore `benefit`.
    fn observe(&mut self, expensiveness: f64, benefit: f64);

    /// Marks the end of a maintenance window.
    fn end_window(&mut self);

    /// Whether a query with this expensiveness may enter the cache.
    fn admits(&self, expensiveness: f64) -> bool;

    /// The current admission threshold, when the policy has one.
    fn threshold(&self) -> Option<f64> {
        None
    }
}

/// The no-op admission policy (`"none"`): every missed query enters the
/// cache, as in the paper's "C" configuration of Fig. 9.
#[derive(Debug, Clone, Copy, Default)]
pub struct AdmitAll;

impl AdmissionPolicy for AdmitAll {
    fn name(&self) -> &str {
        "none"
    }

    fn observe(&mut self, _expensiveness: f64, _benefit: f64) {}

    fn end_window(&mut self) {}

    fn admits(&self, _expensiveness: f64) -> bool {
        true
    }
}

/// Configuration of the calibrated admission threshold.
#[derive(Debug, Clone, Copy)]
pub struct AdmissionConfig {
    /// How many windows of queries to observe before fixing the threshold.
    pub calibration_windows: usize,
    /// Fraction of observed queries that should classify as expensive
    /// (the paper's "predefined percentage").
    pub target_expensive_fraction: f64,
}

impl Default for AdmissionConfig {
    fn default() -> Self {
        AdmissionConfig {
            calibration_windows: 3,
            target_expensive_fraction: 0.25,
        }
    }
}

/// The admission controller: collects expensiveness observations during the
/// calibration phase, then gates cache admission.
#[derive(Debug, Clone)]
pub struct AdmissionControl {
    cfg: AdmissionConfig,
    observed: Vec<f64>,
    windows_seen: usize,
    threshold: Option<f64>,
}

impl AdmissionControl {
    /// Creates a controller.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdmissionControl {
            cfg,
            observed: Vec::new(),
            windows_seen: 0,
            threshold: None,
        }
    }
}

/// The benefit signal is ignored: the calibrated threshold never moves
/// after calibration.
impl AdmissionPolicy for AdmissionControl {
    fn name(&self) -> &str {
        "threshold"
    }

    /// Collects the score while calibrating; non-finite scores are dropped.
    fn observe(&mut self, expensiveness: f64, _benefit: f64) {
        if self.threshold.is_none() && expensiveness.is_finite() {
            self.observed.push(expensiveness);
        }
    }

    /// Fixes the threshold once enough windows have been observed.
    fn end_window(&mut self) {
        if self.threshold.is_some() {
            return;
        }
        self.windows_seen += 1;
        if self.windows_seen >= self.cfg.calibration_windows && !self.observed.is_empty() {
            let mut sorted = std::mem::take(&mut self.observed);
            sorted.sort_by(|a, b| a.partial_cmp(b).unwrap_or(std::cmp::Ordering::Equal));
            let n = sorted.len();
            let cut = (((1.0 - self.cfg.target_expensive_fraction) * n as f64).floor() as usize)
                .min(n - 1);
            self.threshold = Some(sorted[cut]);
        }
    }

    /// A still-calibrating controller admits everything; a calibrated
    /// threshold of 0 also admits everything (paper: "a threshold value of
    /// 0 disables this component").
    fn admits(&self, expensiveness: f64) -> bool {
        match self.threshold {
            None => true,
            Some(t) => t == 0.0 || expensiveness >= t,
        }
    }

    /// The calibrated threshold, once fixed.
    fn threshold(&self) -> Option<f64> {
        self.threshold
    }
}

/// The paper also mentions a more dynamic approach: "greedily adapting the
/// threshold using an exponential back-off approach until the achieved time
/// speedup reaches a local maximum" (§6.2). This controller implements that
/// extension: after the initial calibration it keeps scaling the threshold
/// by `step` in the direction that improved the observed per-window benefit
/// (mean expensiveness of queries the cache helped), and halves the step on
/// every direction reversal until the step becomes negligible.
#[derive(Debug, Clone)]
pub struct AdaptiveAdmission {
    inner: AdmissionControl,
    /// Multiplicative step (> 1); halves toward 1 on reversals.
    step: f64,
    /// +1 when currently raising the threshold, -1 when lowering.
    direction: f64,
    /// Benefit observed in the previous window.
    last_benefit: Option<f64>,
    /// Benefit accumulator for the current window.
    window_benefit: f64,
    window_queries: u32,
}

impl AdaptiveAdmission {
    /// Wraps a calibrating controller with greedy threshold adaptation.
    pub fn new(cfg: AdmissionConfig) -> Self {
        AdaptiveAdmission {
            inner: AdmissionControl::new(cfg),
            step: 2.0,
            direction: 1.0,
            last_benefit: None,
            window_benefit: 0.0,
            window_queries: 0,
        }
    }

    fn window_rate(&self) -> f64 {
        if self.window_queries == 0 {
            0.0
        } else {
            self.window_benefit / self.window_queries as f64
        }
    }

    fn reset_window(&mut self) {
        self.window_benefit = 0.0;
        self.window_queries = 0;
    }
}

impl AdmissionPolicy for AdaptiveAdmission {
    fn name(&self) -> &str {
        "adaptive"
    }

    fn observe(&mut self, expensiveness: f64, benefit: f64) {
        self.inner.observe(expensiveness, benefit);
        if benefit.is_finite() {
            self.window_benefit += benefit;
        }
        self.window_queries += 1;
    }

    /// Finishes calibration if still pending, otherwise performs one
    /// greedy adaptation step.
    fn end_window(&mut self) {
        let calibrated_before = self.inner.threshold.is_some();
        self.inner.end_window();
        let Some(threshold) = self.inner.threshold else {
            self.reset_window();
            return;
        };
        if !calibrated_before {
            // First calibrated window: just record the baseline benefit.
            self.last_benefit = Some(self.window_rate());
            self.reset_window();
            return;
        }
        let rate = self.window_rate();
        if let Some(prev) = self.last_benefit {
            if rate < prev {
                // Worse than before: reverse and shrink the step.
                self.direction = -self.direction;
                self.step = 1.0 + (self.step - 1.0) / 2.0;
            }
        }
        self.last_benefit = Some(rate);
        if self.step > 1.001 {
            let factor = if self.direction > 0.0 {
                self.step
            } else {
                1.0 / self.step
            };
            self.inner.threshold = Some((threshold * factor).max(0.0));
        }
        self.reset_window();
    }

    fn admits(&self, expensiveness: f64) -> bool {
        self.inner.admits(expensiveness)
    }

    /// The current (possibly adapted) threshold.
    fn threshold(&self) -> Option<f64> {
        self.inner.threshold
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn admits_all_during_calibration() {
        let mut ac = AdmissionControl::new(AdmissionConfig::default());
        ac.observe(1.0, 0.0);
        ac.end_window();
        assert!(ac.admits(0.0), "still calibrating");
    }

    #[test]
    fn threshold_fixed_after_calibration() {
        let cfg = AdmissionConfig {
            calibration_windows: 2,
            target_expensive_fraction: 0.25,
        };
        let mut ac = AdmissionControl::new(cfg);
        // 8 observations: 1..=8. Top 25% = {7, 8}; threshold lands at 7.
        for v in 1..=4 {
            ac.observe(v as f64, 0.0);
        }
        ac.end_window();
        for v in 5..=8 {
            ac.observe(v as f64, 0.0);
        }
        ac.end_window();
        let t = ac.threshold().expect("calibrated");
        assert_eq!(t, 7.0);
        assert!(ac.admits(7.0));
        assert!(ac.admits(8.5));
        assert!(!ac.admits(6.9));
    }

    #[test]
    fn zero_threshold_disables() {
        let cfg = AdmissionConfig {
            calibration_windows: 1,
            target_expensive_fraction: 0.5,
        };
        let mut ac = AdmissionControl::new(cfg);
        ac.observe(0.0, 0.0);
        ac.observe(0.0, 0.0);
        ac.end_window();
        assert_eq!(ac.threshold(), Some(0.0));
        assert!(ac.admits(0.0));
        assert!(ac.admits(-1.0), "threshold 0 admits everything");
    }

    #[test]
    fn observations_stop_after_calibration() {
        let cfg = AdmissionConfig {
            calibration_windows: 1,
            target_expensive_fraction: 0.5,
        };
        let mut ac = AdmissionControl::new(cfg);
        ac.observe(10.0, 0.0);
        ac.end_window();
        let t = ac.threshold();
        ac.observe(99999.0, 0.0);
        ac.end_window();
        assert_eq!(ac.threshold(), t, "threshold must not drift");
    }

    #[test]
    fn non_finite_observations_ignored() {
        let cfg = AdmissionConfig {
            calibration_windows: 1,
            target_expensive_fraction: 0.5,
        };
        let mut ac = AdmissionControl::new(cfg);
        ac.observe(f64::INFINITY, 0.0);
        ac.observe(f64::NAN, 0.0);
        ac.observe(2.0, 0.0);
        ac.end_window();
        assert_eq!(ac.threshold(), Some(2.0));
    }

    #[test]
    fn adaptive_calibrates_then_adapts() {
        let cfg = AdmissionConfig {
            calibration_windows: 1,
            target_expensive_fraction: 0.5,
        };
        let mut ad = AdaptiveAdmission::new(cfg);
        // Calibration window: values 1..4 → threshold 3.
        for v in 1..=4 {
            ad.observe(v as f64, 0.0);
        }
        ad.end_window();
        assert_eq!(ad.threshold(), Some(3.0));
        // Benefit-recording window (baseline).
        ad.observe(5.0, 10.0);
        ad.end_window();
        let t1 = ad.threshold().unwrap();
        // Improving benefit: threshold keeps moving in the same direction.
        ad.observe(5.0, 20.0);
        ad.end_window();
        let t2 = ad.threshold().unwrap();
        assert!(t2 > t1, "threshold should rise while benefit improves");
        // Worsening benefit: direction reverses, step shrinks.
        ad.observe(5.0, 1.0);
        ad.end_window();
        let t3 = ad.threshold().unwrap();
        assert!(t3 < t2, "threshold should back off after a regression");
    }

    #[test]
    fn adaptive_step_converges() {
        let cfg = AdmissionConfig {
            calibration_windows: 1,
            target_expensive_fraction: 0.5,
        };
        let mut ad = AdaptiveAdmission::new(cfg);
        ad.observe(2.0, 0.0);
        ad.end_window();
        ad.observe(2.0, 10.0);
        ad.end_window();
        // Alternate benefit up/down many times: the step decays toward 1
        // and the threshold stabilises.
        let mut benefits = [5.0, 15.0].iter().cycle();
        for _ in 0..40 {
            ad.observe(2.0, *benefits.next().unwrap());
            ad.end_window();
        }
        let t_a = ad.threshold().unwrap();
        ad.observe(2.0, 5.0);
        ad.end_window();
        let t_b = ad.threshold().unwrap();
        assert!(
            (t_a - t_b).abs() / t_a.max(1e-9) < 0.01,
            "threshold should have converged: {t_a} vs {t_b}"
        );
    }

    #[test]
    fn admit_all_is_permissive() {
        let mut p: Box<dyn AdmissionPolicy> = Box::new(AdmitAll);
        p.observe(1e9, 0.0);
        p.end_window();
        assert!(p.admits(0.0));
        assert!(p.admits(f64::INFINITY));
        assert_eq!(p.name(), "none");
        assert!(p.threshold().is_none());
    }
}
