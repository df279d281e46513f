//! Intrinsic functions.
//!
//! Intrinsics model hardware accelerators available beside the pipeline
//! (§3.1: "The function may invoke intrinsics such as `hash2` to use
//! hardware accelerators such as hash generators"). The compiler uses only
//! the *signature* to infer dependencies; the simulator supplies the canned
//! implementation defined here.
//!
//! `isqrt` is deliberately included in the *language* but not provided by
//! any baseline Banzai target: this reproduces why CoDel "doesn't map" in
//! Table 4 (it needs a square root, §5.3). The LUT-extended target (X1)
//! provides it.

/// Signature of an intrinsic.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Intrinsic {
    /// Function name as written in Domino source.
    pub name: &'static str,
    /// Number of arguments.
    pub arity: usize,
}

const INTRINSICS: &[Intrinsic] = &[
    Intrinsic {
        name: "hash2",
        arity: 2,
    },
    Intrinsic {
        name: "hash3",
        arity: 3,
    },
    Intrinsic {
        name: "isqrt",
        arity: 1,
    },
    // CoDel's control law `interval / sqrt(count)` as a single look-up
    // table function (§5.3 future work / extension X1). No baseline target
    // provides it.
    Intrinsic {
        name: "codel_gap",
        arity: 2,
    },
];

/// Looks up an intrinsic by name.
pub fn lookup(name: &str) -> Option<Intrinsic> {
    INTRINSICS.iter().copied().find(|i| i.name == name)
}

/// Names of all intrinsics, for diagnostics.
pub fn names() -> Vec<&'static str> {
    INTRINSICS.iter().map(|i| i.name).collect()
}

/// Evaluates an intrinsic on concrete arguments.
///
/// The hash functions are deterministic mixers (a SplitMix64-style finalizer
/// over the packed arguments): deterministic so simulations are
/// reproducible, well-mixed so hash-based algorithms (Bloom filters,
/// count-min sketches, flowlet hashing) behave statistically as intended.
///
/// # Panics
///
/// Panics if `name` is unknown or the arity is wrong; callers run after
/// semantic analysis, which guarantees both.
pub fn eval(name: &str, args: &[i32]) -> i32 {
    match (name, args) {
        ("hash2", [a, b]) => hash2(*a, *b),
        ("hash3", [a, b, c]) => hash3(*a, *b, *c),
        ("isqrt", [a]) => isqrt(*a),
        ("codel_gap", [count, interval]) => codel_gap(*count, *interval),
        _ => panic!("unknown intrinsic or bad arity: {name}/{}", args.len()),
    }
}

/// The `hash2` accelerator (named entry point, so execution engines can
/// pre-resolve the intrinsic instead of string-dispatching per packet).
#[inline]
pub fn hash2(a: i32, b: i32) -> i32 {
    mix2(a, b, 0x9e37_79b9)
}

/// The `hash3` accelerator (see [`hash2`]).
#[inline]
pub fn hash3(a: i32, b: i32, c: i32) -> i32 {
    let h = mix2(a, b, 0x85eb_ca6b);
    mix2(h, c, 0xc2b2_ae35)
}

/// The LUT unit's `codel_gap(count, interval)` = `interval / max(1, √count)`.
#[inline]
pub fn codel_gap(count: i32, interval: i32) -> i32 {
    let s = isqrt(count).max(1);
    interval.wrapping_div(s)
}

/// SplitMix-style 2-input mixer producing a non-negative i32.
#[inline]
fn mix2(a: i32, b: i32, salt: u32) -> i32 {
    let mut z = ((a as u32 as u64) << 32 | (b as u32 as u64)).wrapping_add(salt as u64);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^= z >> 31;
    // Mask the sign bit so `% N` in Domino programs yields a valid index.
    (z as u32 & 0x7fff_ffff) as i32
}

/// Integer square root (floor), 0 for negative inputs: one `f64` square
/// root, exact because every `i32` is an exact `f64` and `k² − 1` is
/// further below `k²` than a correctly rounded root can err (the tests
/// hold it to the bit-by-bit routine at every perfect square ± 1).
#[inline]
pub fn isqrt(v: i32) -> i32 {
    (v.max(0) as f64).sqrt() as i32
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The bit-by-bit integer square root `isqrt` replaced: the oracle.
    fn isqrt_bitwise(v: i32) -> i32 {
        if v <= 0 {
            return 0;
        }
        let mut x = v as u32;
        let mut res: u32 = 0;
        let mut bit: u32 = 1 << 30;
        while bit > x {
            bit >>= 2;
        }
        while bit != 0 {
            if x >= res + bit {
                x -= res + bit;
                res = (res >> 1) + bit;
            } else {
                res >>= 1;
            }
            bit >>= 2;
        }
        res as i32
    }

    #[test]
    fn lookup_known_and_unknown() {
        assert_eq!(lookup("hash2").unwrap().arity, 2);
        assert_eq!(lookup("hash3").unwrap().arity, 3);
        assert_eq!(lookup("isqrt").unwrap().arity, 1);
        assert!(lookup("md5").is_none());
    }

    #[test]
    fn hashes_are_deterministic() {
        assert_eq!(eval("hash2", &[1, 2]), eval("hash2", &[1, 2]));
        assert_eq!(eval("hash3", &[1, 2, 3]), eval("hash3", &[1, 2, 3]));
    }

    #[test]
    fn hashes_are_nonnegative() {
        for a in [-100, -1, 0, 1, 7, i32::MAX, i32::MIN] {
            for b in [-5, 0, 3, 1_000_000] {
                assert!(eval("hash2", &[a, b]) >= 0, "hash2({a},{b})");
            }
        }
    }

    #[test]
    fn hashes_depend_on_all_args() {
        assert_ne!(eval("hash2", &[1, 2]), eval("hash2", &[2, 1]));
        assert_ne!(eval("hash3", &[1, 2, 3]), eval("hash3", &[1, 2, 4]));
    }

    #[test]
    fn hash_distribution_is_roughly_uniform() {
        // 10k inputs into 16 buckets: every bucket should see its share
        // within a generous tolerance.
        let mut buckets = [0u32; 16];
        for i in 0..10_000 {
            buckets[(eval("hash2", &[i, i * 7 + 1]) % 16) as usize] += 1;
        }
        for (i, b) in buckets.iter().enumerate() {
            assert!((400..900).contains(b), "bucket {i} has {b}");
        }
    }

    #[test]
    fn isqrt_exact_values() {
        assert_eq!(isqrt(0), 0);
        assert_eq!(isqrt(1), 1);
        assert_eq!(isqrt(3), 1);
        assert_eq!(isqrt(4), 2);
        assert_eq!(isqrt(99), 9);
        assert_eq!(isqrt(100), 10);
        assert_eq!(isqrt(i32::MAX), 46340);
        assert_eq!(isqrt(-7), 0);
    }

    #[test]
    fn isqrt_is_floor_sqrt_for_all_small_values() {
        for v in 0..10_000i32 {
            let r = isqrt(v);
            assert!(r * r <= v && (r + 1) * (r + 1) > v, "isqrt({v}) = {r}");
        }
    }

    #[test]
    fn isqrt_equals_the_bitwise_oracle_at_every_square_boundary() {
        // Where a rounded root could land on the wrong side: k² − 1, k²,
        // k² + 1 for every k whose square fits, then everything small and
        // the ends of the range.
        for k in 0..=46_340i32 {
            for v in [k * k - 1, k * k, k * k + 1] {
                assert_eq!(isqrt(v), isqrt_bitwise(v), "isqrt({v})");
            }
            assert_eq!(isqrt(k * k), k);
        }
        for v in (-1..1 << 16).chain([i32::MAX, i32::MIN]) {
            assert_eq!(isqrt(v), isqrt_bitwise(v), "isqrt({v})");
        }
    }

    #[test]
    fn codel_gap_is_total_at_the_ends_of_count() {
        for interval in [i32::MIN, -100, 0, 100, i32::MAX] {
            for (count, root) in [(i32::MIN, 1), (-1, 1), (0, 1), (1, 1), (i32::MAX, 46_340)] {
                assert_eq!(codel_gap(count, interval), interval.wrapping_div(root));
            }
        }
    }
}
