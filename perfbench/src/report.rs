//! What a run prints: named metrics with units, the host stamp, and the
//! result record.

use std::fmt::Write as _;

use crate::stats::Tail;

/// One named measurement.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: String,
    pub value: f64,
    pub unit: &'static str,
    /// For a tail: the percentile it sits at and its sample counts.
    pub tail: Option<Tail>,
}

/// Metrics in the order they were added.
#[derive(Debug, Default)]
pub struct Metrics(pub Vec<Metric>);

impl Metrics {
    pub fn put(&mut self, name: &str, value: f64, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value,
            unit,
            tail: None,
        });
    }

    /// Adds a tail metric; a missing tail (too few samples) is recorded
    /// as NaN so the record shows it was not measurable.
    pub fn put_tail(&mut self, name: &str, tail: Option<Tail>, unit: &'static str) {
        self.0.push(Metric {
            name: name.to_string(),
            value: tail.map_or(f64::NAN, |t| t.value),
            unit,
            tail,
        });
    }

    /// Human-readable lines, one metric each.
    pub fn lines(&self, prefix: &str) -> String {
        let mut out = String::new();
        for m in &self.0 {
            let _ = write!(out, "{prefix}{:<34} {:>14.4} {}", m.name, m.value, m.unit);
            if let Some(t) = m.tail {
                let _ = write!(
                    out,
                    "  (p{} of {} samples, {} beyond)",
                    t.pct, t.samples, t.beyond
                );
            }
            out.push('\n');
        }
        out
    }

    /// `{"name": {"value": v, "unit": u}, ...}`; tails also carry their
    /// percentile and sample counts.
    pub fn json(&self) -> String {
        let items: Vec<String> = self
            .0
            .iter()
            .map(|m| {
                let mut item = format!(
                    "\"{}\": {{\"value\": {}, \"unit\": \"{}\"",
                    m.name,
                    num(m.value),
                    m.unit
                );
                if let Some(t) = m.tail {
                    let _ = write!(
                        item,
                        ", \"pct\": {}, \"samples\": {}, \"beyond\": {}",
                        t.pct, t.samples, t.beyond
                    );
                }
                item.push('}');
                item
            })
            .collect();
        format!("{{{}}}", items.join(", "))
    }
}

/// A JSON number with every digit the value carries (`null` for NaN).
pub fn num(v: f64) -> String {
    if v.is_finite() {
        format!("{v:?}")
    } else {
        "null".to_string()
    }
}

/// A JSON string literal.
pub fn jstr(s: &str) -> String {
    let mut out = String::with_capacity(s.len() + 2);
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            c if (c as u32) < 0x20 => {
                let _ = write!(out, "\\u{:04x}", c as u32);
            }
            c => out.push(c),
        }
    }
    out.push('"');
    out
}

/// Which host produced a result, as a JSON object: core count, CPU
/// model, kernel, build profile and the source commit.
pub fn host_stamp() -> String {
    let nproc = std::thread::available_parallelism().map_or(1, |n| n.get());
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("model name"))
                .and_then(|l| l.split_once(':'))
                .map(|(_, v)| v.trim().to_string())
        })
        .unwrap_or_else(|| "unknown".to_string());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_string())
        .unwrap_or_else(|_| "unknown".to_string());
    let profile = if cfg!(debug_assertions) {
        "debug"
    } else {
        "release"
    };
    let commit = std::env::var("PERFBENCH_COMMIT").unwrap_or_else(|_| "unknown".to_string());
    format!(
        "{{\"nproc\": {nproc}, \"cpu\": {}, \"kernel\": {}, \"profile\": {}, \"commit\": {}}}",
        jstr(&cpu),
        jstr(&kernel),
        jstr(profile),
        jstr(&commit)
    )
}

/// Resets the peak resident set size to the current one (Linux).
pub fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// Peak resident set size of this process since the last reset, in MiB.
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find(|l| l.starts_with("VmHWM:"))
                .and_then(|l| l.split_whitespace().nth(1))
                .and_then(|kb| kb.parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}
