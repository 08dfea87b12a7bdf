//! Correctness gate: served decisions against an independent drive.
//!
//! Every check is internal to the run: two computations of the same
//! thing are compared, and nothing is compared with a committed value, so
//! a change that alters numerics on purpose stays measurable.

use evlab_core::online::Decision;

const FNV_OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
const FNV_PRIME: u64 = 0x0100_0000_01b3;

/// FNV-1a over a sequence of 64-bit values.
#[derive(Clone, Copy)]
pub struct Fnv(pub u64);

impl Default for Fnv {
    fn default() -> Self {
        Fnv(FNV_OFFSET)
    }
}

impl Fnv {
    #[inline]
    pub fn add(&mut self, v: u64) {
        for b in v.to_le_bytes() {
            self.0 = (self.0 ^ u64::from(b)).wrapping_mul(FNV_PRIME);
        }
    }
}

/// Fingerprint of one decision: `t_us`, class and logit bits.
pub fn decision_fp(d: &Decision) -> u64 {
    let mut h = Fnv::default();
    h.add(d.t_us);
    h.add(d.class as u64);
    for &v in &d.logits {
        h.add(u64::from(v.to_bits()));
    }
    h.0
}

/// One side of a comparison: the `(t_us, class)` log and, per slice, the
/// log length and the fingerprint of the newest decision at the slice end.
pub struct Side<'a> {
    pub history: &'a [(u64, usize)],
    pub marks: &'a [(usize, u64)],
}

impl Side<'_> {
    /// Fingerprint over every `(t_us, class)` and every slice-end mark.
    pub fn fingerprint(&self) -> u64 {
        let mut h = Fnv::default();
        for &(t, c) in self.history {
            h.add(t);
            h.add(c as u64);
        }
        for &(n, fp) in self.marks {
            h.add(n as u64);
            h.add(fp);
        }
        h.0
    }
}

/// Compares the served side with the reference side. Returns the shared
/// fingerprint, or a description of the first difference.
pub fn compare(served: &Side, reference: &Side) -> Result<u64, String> {
    let (a, b) = (served.fingerprint(), reference.fingerprint());
    if a == b {
        return Ok(a);
    }
    if let Some(i) = (0..served.history.len().min(reference.history.len()))
        .find(|&i| served.history[i] != reference.history[i])
    {
        return Err(format!(
            "decision {i}: served {:?} vs reference {:?}",
            served.history[i], reference.history[i]
        ));
    }
    if served.history.len() != reference.history.len() {
        return Err(format!(
            "{} served decisions vs {} reference decisions",
            served.history.len(),
            reference.history.len()
        ));
    }
    let slice = (0..served.marks.len().min(reference.marks.len()))
        .find(|&i| served.marks[i] != reference.marks[i]);
    Err(match slice {
        Some(i) => format!(
            "slice {i}: served (decisions, logits) {:?} vs reference {:?}",
            served.marks[i], reference.marks[i]
        ),
        None => format!(
            "{} served slices vs {} reference slices",
            served.marks.len(),
            reference.marks.len()
        ),
    })
}

/// Outcome of every check in a run.
#[derive(Default)]
pub struct Gate {
    pub failures: Vec<String>,
    pub passed: usize,
}

impl Gate {
    pub fn check(&mut self, what: &str, r: Result<(), String>) {
        match r {
            Ok(()) => self.passed += 1,
            Err(e) => self.failures.push(format!("{what}: {e}")),
        }
    }

    pub fn ok(&self) -> bool {
        self.failures.is_empty() && self.passed > 0
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn decision(t: u64, class: usize, logit: f32) -> Decision {
        Decision {
            class,
            logits: vec![logit, 0.5],
            events: 1,
            t_us: t,
        }
    }

    #[test]
    fn equal_sides_pass_and_share_a_fingerprint() {
        let h = [(10u64, 1usize), (20, 0)];
        let m = [(2usize, decision_fp(&decision(20, 0, 0.25)))];
        let fp = compare(
            &Side {
                history: &h,
                marks: &m,
            },
            &Side {
                history: &h,
                marks: &m,
            },
        );
        assert!(fp.is_ok());
    }

    #[test]
    fn gate_fails_on_an_injected_mismatch() {
        let h = [(10u64, 1usize), (20, 0)];
        let m = [(2usize, decision_fp(&decision(20, 0, 0.25)))];
        let served = Side {
            history: &h,
            marks: &m,
        };
        // A flipped class.
        let bad = [(10u64, 1usize), (20, 1)];
        let r = compare(
            &served,
            &Side {
                history: &bad,
                marks: &m,
            },
        );
        assert!(r.unwrap_err().contains("decision 1"));
        // One logit bit.
        let m2 = [(
            2usize,
            decision_fp(&decision(20, 0, f32::from_bits(0.25f32.to_bits() ^ 1))),
        )];
        let r = compare(
            &served,
            &Side {
                history: &h,
                marks: &m2,
            },
        );
        assert!(r.unwrap_err().contains("slice 0"));
        // A missing decision.
        let r = compare(
            &served,
            &Side {
                history: &h[..1],
                marks: &m,
            },
        );
        assert!(r.is_err());
        let mut gate = Gate::default();
        gate.check("injected", r.map(|_| ()));
        assert!(!gate.ok());
    }
}
