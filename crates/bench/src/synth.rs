//! Synthetic event-log generation for the complexity benches.
//!
//! The paper's Sec. V "Implementation" claims: filtering and mapping are
//! O(n), DFG construction is O(n), statistics are O(mn), rendering is
//! O(m²) worst case. Here statistics are O(n log n): one interval sort
//! per activity. The benches sweep `n` (events) and `m` (distinct
//! activities) on logs produced here.

use rand::rngs::SmallRng;
use rand::{Rng, SeedableRng};
use st_model::{Case, CaseMeta, Event, EventLog, Micros, Pid, Syscall};
use std::sync::Arc;

/// Parameters of a synthetic log.
#[derive(Debug, Clone)]
pub struct SynthSpec {
    /// Number of cases.
    pub cases: usize,
    /// Events per case (`n = cases × events_per_case`).
    pub events_per_case: usize,
    /// Number of distinct file paths (controls `m` under Eq. 4-style
    /// mappings: two paths share a directory prefix pair).
    pub paths: usize,
    /// RNG seed.
    pub seed: u64,
}

impl Default for SynthSpec {
    fn default() -> Self {
        SynthSpec {
            cases: 16,
            events_per_case: 1_000,
            paths: 64,
            seed: 42,
        }
    }
}

/// Generates a deterministic synthetic event log.
pub fn generate(spec: &SynthSpec) -> EventLog {
    let mut log = EventLog::with_new_interner();
    let interner = Arc::clone(log.interner());
    let path_syms: Vec<_> = (0..spec.paths)
        .map(|p| interner.intern(&format!("/dir{}/sub{}/file{p}", p % 11, p % 7)))
        .collect();
    let calls = [
        Syscall::Read,
        Syscall::Write,
        Syscall::Openat,
        Syscall::Lseek,
    ];
    for c in 0..spec.cases {
        let mut rng = SmallRng::seed_from_u64(spec.seed ^ (c as u64).wrapping_mul(0x9E37_79B9));
        let meta = CaseMeta {
            cid: interner.intern("synth"),
            host: interner.intern(if c % 2 == 0 { "h1" } else { "h2" }),
            rid: c as u32,
        };
        let mut clock = Micros(rng.gen_range(0..500));
        let mut events = Vec::with_capacity(spec.events_per_case);
        for _ in 0..spec.events_per_case {
            let call = calls[rng.gen_range(0..calls.len())];
            let dur = Micros(rng.gen_range(1..400));
            let path = path_syms[rng.gen_range(0..path_syms.len())];
            let mut ev = Event::new(Pid(c as u32 + 100), call, clock, dur, path);
            if call.transfers_data() {
                let size = rng.gen_range(1..=1 << 20);
                ev = ev.with_size(size).with_requested(size);
            }
            events.push(ev);
            clock += Micros(rng.gen_range(1..600));
        }
        log.push_case(Case::from_events(meta, events));
    }
    log
}

/// Generates strace text for parser benches: one trace file body with
/// `lines` read/write records.
pub fn generate_strace_text(lines: usize, seed: u64) -> String {
    let mut rng = SmallRng::seed_from_u64(seed);
    let mut out = String::with_capacity(lines * 96);
    let mut t = 8 * 3600 * 1_000_000u64;
    for i in 0..lines {
        t += rng.gen_range(10..4_000u64);
        let size = rng.gen_range(0..=8192);
        let path = format!("/data/set{}/file{}.bin", i % 13, i % 97);
        let dur = rng.gen_range(1..900);
        if i % 4 == 0 {
            out.push_str(&format!(
                "901 {} write(4<{path}>, \"...\", {size}) = {size} <0.{dur:06}>\n",
                Micros(t).format_time_of_day()
            ));
        } else {
            out.push_str(&format!(
                "901 {} read(3<{path}>, \"...\", 8192) = {size} <0.{dur:06}>\n",
                Micros(t).format_time_of_day()
            ));
        }
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn generates_requested_shape() {
        let spec = SynthSpec {
            cases: 4,
            events_per_case: 100,
            paths: 10,
            seed: 1,
        };
        let log = generate(&spec);
        assert_eq!(log.case_count(), 4);
        assert_eq!(log.total_events(), 400);
        log.validate().unwrap();
    }

    #[test]
    fn deterministic_for_same_seed() {
        let spec = SynthSpec::default();
        let a = generate(&spec);
        let b = generate(&spec);
        assert_eq!(a.total_bytes(), b.total_bytes());
        assert_eq!(a.total_dur(), b.total_dur());
    }

    #[test]
    fn strace_text_is_parsable() {
        let text = generate_strace_text(500, 7);
        let interner = st_model::Interner::new();
        let parsed = st_strace::parse_str(&text, &interner);
        assert_eq!(parsed.events.len(), 500);
        assert!(
            parsed.warnings.is_empty(),
            "{:?}",
            &parsed.warnings[..3.min(parsed.warnings.len())]
        );
    }
}
