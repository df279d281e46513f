//! Fresh-name generation for compiler-introduced packet fields.
//!
//! Compiler temporaries (branch conditions, SSA versions, TAC temps) must
//! not collide with user-declared fields or with each other. A
//! [`FreshNames`] tracks every name in use and hands out unique ones.

use std::collections::BTreeSet;

/// A pool of used names handing out fresh, collision-free ones.
#[derive(Debug, Clone, Default)]
pub struct FreshNames {
    used: BTreeSet<String>,
}

impl FreshNames {
    /// Creates a pool pre-seeded with every name already in use.
    pub fn new(existing: impl IntoIterator<Item = String>) -> Self {
        FreshNames {
            used: existing.into_iter().collect(),
        }
    }

    /// Marks a name as used.
    pub fn reserve(&mut self, name: &str) {
        self.used.insert(name.to_string());
    }

    /// Returns `base` itself if free, else `base`, `base_1`, `base_2`, ...
    /// The returned name is recorded as used.
    pub fn fresh(&mut self, base: &str) -> String {
        if self.used.insert(base.to_string()) {
            return base.to_string();
        }
        for i in 1.. {
            let candidate = format!("{base}_{i}");
            if self.used.insert(candidate.clone()) {
                return candidate;
            }
        }
        unreachable!("u64 space exhausted")
    }

    /// Returns `base0`, `base1`, ... skipping collisions (used for SSA
    /// version numbering, matching the paper's `pkt.id0` style).
    pub fn fresh_numbered(&mut self, base: &str, start: u32) -> (String, u32) {
        let mut n = start;
        loop {
            let candidate = format!("{base}{n}");
            if self.used.insert(candidate.clone()) {
                return (candidate, n + 1);
            }
            n += 1;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fresh_avoids_existing() {
        let mut f = FreshNames::new(["tmp".to_string()]);
        assert_eq!(f.fresh("tmp"), "tmp_1");
        assert_eq!(f.fresh("tmp"), "tmp_2");
        assert_eq!(f.fresh("other"), "other");
    }

    #[test]
    fn numbered_versions_skip_collisions() {
        let mut f = FreshNames::new(["id0".to_string()]);
        let (name, next) = f.fresh_numbered("id", 0);
        assert_eq!(name, "id1");
        assert_eq!(next, 2);
        let (name2, _) = f.fresh_numbered("id", next);
        assert_eq!(name2, "id2");
    }

    #[test]
    fn reserve_and_query() {
        let mut f = FreshNames::default();
        f.reserve("x");
        assert_eq!(f.fresh("x"), "x_1");
        assert_eq!(f.fresh("y"), "y");
    }
}
