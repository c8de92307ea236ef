//! Job arrivals: the job type, seeded Poisson generation and trace files.
//!
//! # Trace format
//!
//! One job per line, CSV: `arrival,app,work`, where `app` is a matrix
//! application name (or a numeric matrix index). `#`-prefixed lines and
//! blank lines are ignored. Example:
//!
//! ```text
//! # cochar cluster trace v1: arrival,app,work
//! 0.000000,stream,10.500000
//! 0.731000,mcf,8.000000
//! ```

use cochar_sched::CostMatrix;
use cochar_trace::Lcg;

/// A job to run: `work` is its solo runtime in abstract time units.
#[derive(Clone, Debug)]
pub struct Job {
    /// Index into the cost matrix (the job's application type).
    pub app: usize,
    /// Arrival time.
    pub arrival: f64,
    /// Solo runtime.
    pub work: f64,
}

/// A seeded open-loop arrival process: Poisson arrivals, uniform app mix,
/// work drawn uniformly from `[0.5, 1.5) × mean_work`.
#[derive(Clone, Copy, Debug)]
pub struct Workload {
    /// Mean arrivals per time unit.
    pub arrival_rate: f64,
    /// Mean solo runtime of a job.
    pub mean_work: f64,
    /// Generator seed; one seed = one exact job list.
    pub seed: u64,
}

impl Workload {
    /// An arrival rate that offers `utilization` of a cluster's total
    /// slot capacity (`nodes × slots`), given the mean job runtime.
    pub fn rate_for_utilization(
        utilization: f64,
        nodes: usize,
        slots: usize,
        mean_work: f64,
    ) -> f64 {
        utilization * (nodes * slots) as f64 / mean_work
    }

    /// Generates `count` jobs over `apps` application types.
    ///
    /// # Panics
    /// Panics if `apps` is zero or the rate/work parameters are not
    /// positive finite numbers.
    pub fn generate(&self, count: usize, apps: usize) -> Vec<Job> {
        assert!(apps > 0, "workload needs at least one application type");
        assert!(
            self.arrival_rate > 0.0 && self.arrival_rate.is_finite(),
            "arrival rate {} must be positive",
            self.arrival_rate
        );
        assert!(
            self.mean_work > 0.0 && self.mean_work.is_finite(),
            "mean work {} must be positive",
            self.mean_work
        );
        let mut rng = Lcg::new(self.seed);
        let mut t = 0.0f64;
        let mut jobs = Vec::with_capacity(count);
        for _ in 0..count {
            // Exponential inter-arrival: -ln(1 - U) / rate. `next_f64`
            // is in [0, 1), so 1 - u is in (0, 1] and the log is finite.
            let u = rng.next_f64();
            t += -(1.0 - u).ln() / self.arrival_rate;
            let app = rng.next_below(apps as u64) as usize;
            let work = self.mean_work * (0.5 + rng.next_f64());
            jobs.push(Job { app, arrival: t, work });
        }
        jobs
    }
}

/// Renders jobs in the trace format (apps as matrix names).
pub fn render_trace(jobs: &[Job], matrix: &CostMatrix) -> String {
    let mut out = String::from("# cochar cluster trace v1: arrival,app,work\n");
    for j in jobs {
        out.push_str(&format!("{:.6},{},{:.6}\n", j.arrival, matrix.names[j.app], j.work));
    }
    out
}

/// Parses the trace format; `app` fields resolve against `matrix` names
/// (or as numeric indices). Jobs are returned sorted by arrival time.
pub fn parse_trace(text: &str, matrix: &CostMatrix) -> Result<Vec<Job>, String> {
    let mut jobs = Vec::new();
    for (lineno, line) in text.lines().enumerate() {
        let line = line.trim();
        if line.is_empty() || line.starts_with('#') {
            continue;
        }
        let mut fields = line.split(',').map(str::trim);
        let ctx = |what: &str| format!("trace line {}: {what}", lineno + 1);
        let arrival: f64 = fields
            .next()
            .ok_or_else(|| ctx("missing arrival"))?
            .parse()
            .map_err(|_| ctx("bad arrival"))?;
        let app = matrix
            .index_of(fields.next().ok_or_else(|| ctx("missing app"))?)
            .map_err(|e| ctx(&e))?;
        let work: f64 = fields
            .next()
            .ok_or_else(|| ctx("missing work"))?
            .parse()
            .map_err(|_| ctx("bad work"))?;
        if fields.next().is_some() {
            return Err(ctx("trailing fields (expected arrival,app,work)"));
        }
        if !(arrival.is_finite() && arrival >= 0.0) {
            return Err(ctx("arrival must be finite and non-negative"));
        }
        if !(work.is_finite() && work > 0.0) {
            return Err(ctx("work must be finite and positive"));
        }
        jobs.push(Job { app, arrival, work });
    }
    jobs.sort_by(|a, b| a.arrival.total_cmp(&b.arrival));
    Ok(jobs)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn matrix() -> CostMatrix {
        CostMatrix {
            names: vec!["alpha".into(), "beta".into()],
            slow: vec![vec![1.0, 1.2], vec![1.3, 1.0]],
        }
    }

    #[test]
    fn generation_is_deterministic_and_well_formed() {
        let w = Workload { arrival_rate: 2.0, mean_work: 10.0, seed: 42 };
        let a = w.generate(500, 4);
        let b = w.generate(500, 4);
        assert_eq!(a.len(), 500);
        for (x, y) in a.iter().zip(&b) {
            assert_eq!(x.app, y.app);
            assert_eq!(x.arrival.to_bits(), y.arrival.to_bits());
            assert_eq!(x.work.to_bits(), y.work.to_bits());
        }
        // Arrivals are sorted, apps in range, work near the mean.
        assert!(a.windows(2).all(|w| w[0].arrival <= w[1].arrival));
        assert!(a.iter().all(|j| j.app < 4 && j.work >= 5.0 && j.work < 15.0));
        let mean = a.iter().map(|j| j.work).sum::<f64>() / a.len() as f64;
        assert!((mean - 10.0).abs() < 1.0, "mean work {mean}");
    }

    #[test]
    fn utilization_rate_matches_capacity() {
        // 64 nodes × 2 slots at util 0.5 with mean work 8: 8 jobs/unit.
        let r = Workload::rate_for_utilization(0.5, 64, 2, 8.0);
        assert!((r - 8.0).abs() < 1e-12);
    }

    #[test]
    fn trace_round_trips() {
        let m = matrix();
        let w = Workload { arrival_rate: 1.0, mean_work: 5.0, seed: 7 };
        let jobs = w.generate(50, m.len());
        let text = render_trace(&jobs, &m);
        let back = parse_trace(&text, &m).unwrap();
        assert_eq!(back.len(), jobs.len());
        for (a, b) in jobs.iter().zip(&back) {
            assert_eq!(a.app, b.app);
            assert!((a.arrival - b.arrival).abs() < 1e-6);
            assert!((a.work - b.work).abs() < 1e-6);
        }
    }

    #[test]
    fn trace_accepts_indices_comments_and_rejects_garbage() {
        let m = matrix();
        let ok = parse_trace("# header\n\n1.5,1,2.0\n0.5,alpha,3.0\n", &m).unwrap();
        assert_eq!(ok.len(), 2);
        // Sorted by arrival.
        assert_eq!(ok[0].app, 0);
        assert_eq!(ok[1].app, 1);
        for bad in [
            "1.0,gamma,2.0",     // unknown app
            "1.0,alpha",         // missing work
            "x,alpha,2.0",       // bad arrival
            "1.0,alpha,-2.0",    // non-positive work
            "1.0,alpha,2.0,zzz", // trailing field
        ] {
            assert!(parse_trace(bad, &m).is_err(), "accepted {bad:?}");
        }
    }
}
