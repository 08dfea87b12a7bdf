//! Numeric guards for fault-degraded pipelines.
//!
//! Corrupted ingress (see `evlab_util::fault`) can push activations,
//! membrane potentials or pooled features to NaN/±Inf; once a single
//! non-finite value enters a state machine it poisons everything it
//! touches. These helpers repair values in place and count incidents
//! under the `tensor.guard.*` observability namespace, so chaos runs can
//! distinguish "degraded but valid" from "silently poisoned".

use crate::tensor::Tensor;
use evlab_util::obs;

/// Replaces every non-finite value (NaN, ±Inf) with `f32::MIN` in place,
/// returning how many values were repaired. Repairs are counted under
/// `tensor.guard.nonfinite`.
///
/// `f32::MIN` is chosen so a repaired logit can never win an argmax
/// against any finite competitor.
pub fn sanitize_finite(values: &mut [f32]) -> usize {
    let mut repaired = 0usize;
    for v in values.iter_mut() {
        if !v.is_finite() {
            *v = f32::MIN;
            repaired += 1;
        }
    }
    if repaired > 0 {
        obs::counter_add("tensor.guard.nonfinite", repaired as u64);
    }
    repaired
}

/// [`sanitize_finite`] over a tensor's storage.
pub fn sanitize_tensor(tensor: &mut Tensor) -> usize {
    sanitize_finite(tensor.as_mut_slice())
}

/// Whether every value is finite (no repair performed).
pub fn all_finite(values: &[f32]) -> bool {
    values.iter().all(|v| v.is_finite())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sanitize_repairs_and_counts() {
        let mut v = vec![1.0, f32::NAN, -2.0, f32::INFINITY, f32::NEG_INFINITY];
        assert!(!all_finite(&v));
        assert_eq!(sanitize_finite(&mut v), 3);
        assert!(all_finite(&v));
        assert_eq!(v[0], 1.0);
        assert_eq!(v[2], -2.0);
        assert_eq!(v[1], f32::MIN);
        assert_eq!(sanitize_finite(&mut v), 0, "already finite");
    }

    #[test]
    fn sanitize_counts_in_obs() {
        obs::set_enabled(true);
        let before = obs::counter_value("tensor.guard.nonfinite");
        let mut v = vec![f32::NAN, f32::NAN];
        sanitize_finite(&mut v);
        assert_eq!(obs::counter_value("tensor.guard.nonfinite"), before + 2);
    }

    #[test]
    fn repaired_logits_lose_argmax() {
        let mut t = Tensor::from_vec(&[3], vec![f32::NAN, -1.0e30, 0.5]).expect("shape");
        sanitize_tensor(&mut t);
        assert_eq!(t.argmax(), 2, "repaired value cannot win");
    }
}
