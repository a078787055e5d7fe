//! The result of one run: named metrics with units, operation counts, the
//! correctness verdict, and how they are printed.

/// One named measurement.
pub struct Metric {
    /// Name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// Measured value.
    pub value: f64,
    /// Unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
}

/// Everything one run reports.
#[derive(Default)]
pub struct RunResult {
    /// Metrics in print order.
    pub metrics: Vec<Metric>,
    /// Operations attempted.
    pub attempted: u64,
    /// Operations that failed or were refused.
    pub failed: u64,
    /// Every correctness check that failed.
    pub errors: Vec<String>,
    /// Human-readable lines printed before the result line.
    pub notes: Vec<String>,
}

impl RunResult {
    /// Adds a metric.
    pub fn push(&mut self, name: &'static str, value: f64, unit: &'static str) {
        self.metrics.push(Metric { name, value, unit });
    }

    /// Records a failed correctness check.
    pub fn fail(&mut self, error: impl Into<String>) {
        self.errors.push(error.into());
    }

    /// Adds a human-readable line.
    pub fn note(&mut self, line: impl Into<String>) {
        self.notes.push(line.into());
    }

    /// `true` when something ran, every check passed and every metric is
    /// a finite number.
    pub fn correct(&self) -> bool {
        self.attempted > 0
            && self.errors.is_empty()
            && self.metrics.iter().all(|m| m.value.is_finite())
    }

    /// The one-line JSON result.
    pub fn json_line(&self) -> String {
        let metrics: Vec<String> = self
            .metrics
            .iter()
            .map(|m| {
                // A non-finite value has no JSON form; the run is already
                // marked incorrect, so print a number that cannot pass.
                let value = if m.value.is_finite() { m.value } else { -1.0 };
                format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
                    m.name, value, m.unit
                )
            })
            .collect();
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
            self.correct(),
            self.attempted,
            self.failed,
            metrics.join(", ")
        )
    }

    /// Prints the notes, a metric table, every failed check, and then the
    /// JSON result as the last line of standard output.
    pub fn print(&self, workload: &str) {
        for line in &self.notes {
            println!("{line}");
        }
        println!(
            "{workload}: {} attempted, {} failed",
            self.attempted, self.failed
        );
        for m in &self.metrics {
            println!("  {:<32} {:>14.6} {}", m.name, m.value, m.unit);
        }
        for error in &self.errors {
            println!("CHECK FAILED: {error}");
        }
        println!("{}", self.json_line());
    }
}

/// FNV-1a over a sequence of estimate bit patterns: a digest that changes
/// whenever any estimate changes by a single bit.
pub fn digest(bits: impl IntoIterator<Item = u64>) -> u64 {
    let mut hash: u64 = 0xcbf2_9ce4_8422_2325;
    for word in bits {
        for byte in word.to_le_bytes() {
            hash ^= u64::from(byte);
            hash = hash.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    hash
}

/// `(traced − untraced) / untraced` of one metric.
pub fn relative(untraced: &RunResult, traced: &RunResult, name: &str) -> f64 {
    let value = |r: &RunResult| {
        r.metrics
            .iter()
            .find(|m| m.name == name)
            .map_or(f64::NAN, |m| m.value)
    };
    (value(traced) - value(untraced)) / value(untraced)
}

/// Prints each end-to-end metric untraced, traced, and their difference.
pub fn overhead_notes(result: &mut RunResult, untraced: &RunResult, traced: &RunResult) {
    result.note("tracing overhead (traced − untraced):");
    for (u, t) in untraced.metrics.iter().zip(&traced.metrics) {
        result.note(format!(
            "  {:<24} untraced {:>12.6}  traced {:>12.6}  diff {:>+12.6} {}",
            u.name,
            u.value,
            t.value,
            t.value - u.value,
            u.unit
        ));
    }
}
