//! Checked index/count conversions for the scale-sensitive hot paths.
//!
//! At 10k→100k-satellite scale, raw `as`-casts between index/count
//! types stop being harmless: `f64 → usize` truncates toward zero
//! silently (and maps NaN/negatives to 0 on some paths), and
//! `u64 → usize` would wrap on a 32-bit host. Clippy's cast lints
//! (`cast_possible_truncation`, `cast_sign_loss`, `cast_possible_wrap`)
//! ban such `as`-casts in this crate's library code; these helpers are
//! the sanctioned replacements — each states its domain and
//! panics loudly (debug *and* release) instead of truncating quietly.

/// Widens a count to `u64`. Infallible on every supported platform
/// (usize ≤ 64 bits), expressed through `try_from` so the domain claim
/// is checked, not assumed.
#[inline]
pub fn count_u64(n: usize) -> u64 {
    u64::try_from(n).expect("count exceeds u64")
}

/// Narrows a `u64` count (bounded by a node/satellite count that was a
/// `usize` to begin with) back to `usize`. Panics on a 32-bit host if
/// the count genuinely overflows rather than wrapping.
#[inline]
pub fn count_usize(n: u64) -> usize {
    usize::try_from(n).expect("count exceeds usize")
}

/// Widens a `u32` (a bitset word's bit position or popcount, a
/// `trailing_zeros`) to `usize`. Infallible on every supported platform
/// (usize ≥ 32 bits), expressed through `try_from` like [`count_u64`].
#[inline]
pub fn widen_u32(x: u32) -> usize {
    usize::try_from(x).expect("u32 exceeds usize")
}

/// Narrows an index to `u32` for a compact per-item table. Panics, like
/// every helper here, instead of wrapping past `u32::MAX`.
#[inline]
pub fn index_u32(i: usize) -> u32 {
    u32::try_from(i).expect("index exceeds u32")
}

/// Converts a non-negative finite `f64` (a rank, a scaled threshold)
/// into a `usize` index. The float must already be integral-intent —
/// callers `ceil()`/`floor()` first; values at or above 2^53 have lost
/// integer precision and are rejected.
///
/// # Panics
/// On NaN, infinities, negatives, or magnitudes at/above 2^53.
#[inline]
pub fn f64_to_index(x: f64) -> usize {
    const MAX_EXACT: f64 = 9_007_199_254_740_992.0; // 2^53
    assert!(
        x.is_finite() && (0.0..MAX_EXACT).contains(&x),
        "f64_to_index: {x} outside the exactly-representable index domain"
    );
    // The one audited truncation site the checked helpers funnel into.
    #[expect(
        clippy::cast_possible_truncation,
        clippy::cast_sign_loss,
        reason = "domain asserted non-negative finite < 2^53 above"
    )]
    let index = x as usize;
    index
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn round_trips_and_domains() {
        assert_eq!(count_u64(0), 0);
        assert_eq!(count_u64(123_456), 123_456);
        assert_eq!(count_usize(count_u64(usize::MAX / 2)), usize::MAX / 2);
        assert_eq!(widen_u32(63), 63);
        assert_eq!(widen_u32(index_u32(4_000_000_000)), 4_000_000_000);
        assert_eq!(f64_to_index(0.0), 0);
        assert_eq!(f64_to_index(42.9), 42, "truncation toward zero, post-ceil by callers");
        assert_eq!(f64_to_index(100_000.0), 100_000);
    }

    #[test]
    fn bad_floats_panic_instead_of_truncating() {
        for bad in [f64::NAN, f64::INFINITY, f64::NEG_INFINITY, -1.0, 9.1e15] {
            let res = std::panic::catch_unwind(|| f64_to_index(bad));
            assert!(res.is_err(), "{bad} should panic");
        }
    }
}
