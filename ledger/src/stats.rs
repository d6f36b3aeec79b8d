//! Sample statistics, the metric record, and the result line.

/// One named measurement, printed in the table and rendered in the result
/// line.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    /// The metric's name as listed in `BENCHMARK.json`.
    pub name: &'static str,
    /// The metric's unit as listed in `BENCHMARK.json`.
    pub unit: &'static str,
    /// The measured value.
    pub value: f64,
}

/// The percentiles a latency is ever reported at, lowest first.
pub const PERCENTILE_LADDER: [f64; 4] = [0.5, 0.9, 0.99, 0.999];

/// Nearest-rank quantile of an ascending slice: the smallest sample with at
/// least `q` of the samples at or below it. Zero for an empty slice.
pub fn quantile(sorted: &[f64], q: f64) -> f64 {
    if sorted.is_empty() {
        return 0.0;
    }
    sorted[rank(sorted.len(), q) - 1]
}

/// One-based nearest rank of quantile `q` among `n` samples.
fn rank(n: usize, q: f64) -> usize {
    ((q * n as f64).ceil() as usize).clamp(1, n)
}

/// How many of `n` samples lie strictly beyond the nearest-rank `q`
/// quantile.
pub fn samples_beyond(n: usize, q: f64) -> usize {
    if n == 0 {
        0
    } else {
        n - rank(n, q)
    }
}

/// The tail rule: the highest ladder percentile with at least ten samples
/// beyond it, or `None` when not even the median has.
pub fn highest_supported(n: usize) -> Option<f64> {
    PERCENTILE_LADDER
        .iter()
        .rev()
        .copied()
        .find(|&q| samples_beyond(n, q) >= 10)
}

/// The median of finite samples (zero when there are none).
pub fn median(values: impl IntoIterator<Item = f64>) -> f64 {
    let mut values: Vec<f64> = values.into_iter().collect();
    sort(&mut values);
    quantile(&values, 0.5)
}

/// Sorts finite samples ascending.
pub fn sort(values: &mut [f64]) {
    values.sort_by(|a, b| a.partial_cmp(b).expect("samples are finite"));
}

/// `part / whole`, or zero when nothing was counted.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Renders the result line: one JSON object with exactly the keys
/// `correct`, `attempted`, `failed` and `metrics`. Values keep every digit
/// Rust's shortest round-trip formatting gives them.
pub fn render_result(correct: bool, attempted: u64, failed: u64, metrics: &[Metric]) -> String {
    let fields: Vec<String> = metrics
        .iter()
        .map(|m| {
            format!(
                "{}: {{\"value\": {}, \"unit\": {}}}",
                json_string(m.name),
                json_number(m.value),
                json_string(m.unit)
            )
        })
        .collect();
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {{{}}}}}",
        fields.join(", ")
    )
}

/// A JSON number. Non-finite values have no JSON form; callers reject them
/// before rendering, and `null` keeps the line parseable if one slips by.
pub fn json_number(v: f64) -> String {
    if v.is_finite() {
        // `Display` never uses an exponent; it only drops the fraction of
        // whole numbers.
        let s = format!("{v}");
        if s.contains('.') {
            s
        } else {
            format!("{s}.0")
        }
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn json_string(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            c if (c as u32) < 0x20 => out.push_str(&format!("\\u{:04x}", c as u32)),
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let sorted: Vec<f64> = (1..=10).map(f64::from).collect();
        assert_eq!(quantile(&sorted, 0.5), 5.0);
        assert_eq!(quantile(&sorted, 0.9), 9.0);
        assert_eq!(quantile(&sorted, 0.99), 10.0);
        assert_eq!(quantile(&sorted, 0.0), 1.0);
        assert_eq!(quantile(&[], 0.5), 0.0);
        assert_eq!(median([3.0, 1.0, 2.0]), 2.0);
    }

    #[test]
    fn tail_rule_picks_the_highest_percentile_with_ten_samples_beyond() {
        assert_eq!(samples_beyond(1000, 0.99), 10);
        assert_eq!(samples_beyond(999, 0.99), 9);
        assert_eq!(highest_supported(1000), Some(0.99));
        assert_eq!(highest_supported(999), Some(0.9));
        assert_eq!(highest_supported(10_000), Some(0.999));
        assert_eq!(highest_supported(100), Some(0.9));
        assert_eq!(highest_supported(99), Some(0.5));
        assert_eq!(highest_supported(19), None);
        assert_eq!(highest_supported(0), None);
    }

    #[test]
    fn result_line_has_exactly_the_four_keys_and_full_digits() {
        let line = render_result(
            true,
            12,
            0,
            &[
                Metric {
                    name: "latency_p50_ms",
                    unit: "ms",
                    value: 2.0734519,
                },
                Metric {
                    name: "setup_s",
                    unit: "s",
                    value: 3.0,
                },
            ],
        );
        assert_eq!(
            line,
            "{\"correct\": true, \"attempted\": 12, \"failed\": 0, \"metrics\": \
             {\"latency_p50_ms\": {\"value\": 2.0734519, \"unit\": \"ms\"}, \
             \"setup_s\": {\"value\": 3.0, \"unit\": \"s\"}}}"
        );
    }

    #[test]
    fn json_scalars_escape_and_reject_non_finite_values() {
        assert_eq!(json_string("a\"b\\c\n"), "\"a\\\"b\\\\c\\u000a\"");
        assert_eq!(json_number(1e-9), "0.000000001");
        assert_eq!(json_number(42.0), "42.0");
        assert_eq!(json_number(-0.5), "-0.5");
        assert_eq!(json_number(f64::NAN), "null");
        assert_eq!(json_number(f64::INFINITY), "null");
    }
}
