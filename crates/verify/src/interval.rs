//! The interval lattice shared by both analysis engines.
//!
//! An [`Interval`] is a closed range of `i32` values, with one transfer
//! function per machine operation. Two engines call it:
//!
//! * the RISC abstract interpreter ([`crate::risc::domain`]) pairs it
//!   with a known-low-bits congruence for every register and memory
//!   word;
//! * `zarf-symex`'s propagator keeps one per term of a path condition,
//!   computed forward from the children and narrowed backward from
//!   pinned results.
//!
//! Endpoints are held as `i64`, so arithmetic on them cannot itself
//! overflow. Both machines wrap at 32 bits. A forward transfer function
//! therefore returns the ideal result only when it provably stays inside
//! the `i32` range, and top otherwise. The `*_exact` forms return `None`
//! instead of top: `Some` means no member pair wraps, which is what makes
//! backward narrowing through the operation sound.
//!
//! The lattice functions are `#[inline]`: `zarf-symex` calls them across
//! the crate boundary from its propagation loop, the hot path of a
//! `zarf vet --symex` pass.

use std::fmt;

/// Smallest `i32`, as the interval's internal type.
pub const LO: i64 = i32::MIN as i64;
/// Largest `i32`, as the interval's internal type.
pub const HI: i64 = i32::MAX as i64;

/// A closed interval of `i32` values (internally `i64` so arithmetic on
/// endpoints cannot itself overflow).
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Interval {
    /// Lower endpoint (inclusive), always in `[LO, HI]`.
    pub lo: i64,
    /// Upper endpoint (inclusive), always in `[LO, HI]`.
    pub hi: i64,
}

/// `[lo, hi]` if it is nonempty and lies inside the `i32` range: a
/// result that cannot have wrapped.
#[inline]
fn fits(lo: i64, hi: i64) -> Option<Interval> {
    (LO <= lo && lo <= hi && hi <= HI).then_some(Interval { lo, hi })
}

/// Clamp a candidate result: if it cannot be proven inside the `i32`
/// range the machine value may have wrapped, so the only sound interval
/// is top.
#[inline]
fn clamp32(lo: i64, hi: i64) -> Interval {
    fits(lo, hi).unwrap_or_else(Interval::top)
}

/// `[lo, hi]` cut to the `i32` range; `None` when nothing is left.
#[inline]
fn within(lo: i64, hi: i64) -> Option<Interval> {
    fits(lo.max(LO), hi.min(HI))
}

/// The smallest and largest of four corner products or quotients.
#[inline]
fn span(c: [i64; 4]) -> (i64, i64) {
    (
        c[0].min(c[1]).min(c[2].min(c[3])),
        c[0].max(c[1]).max(c[2].max(c[3])),
    )
}

/// Smallest `2^k - 1` at or above `v` (for nonnegative `v`).
#[inline]
fn pow2_bound(v: i64) -> i64 {
    let mut b: i64 = 0;
    while b < v {
        b = b * 2 + 1;
    }
    b.min(HI)
}

// `add`/`sub`/... are abstract transfer functions named after the
// instructions they model, not arithmetic on the lattice element itself;
// implementing the std operator traits would misstate that.
#[allow(clippy::should_implement_trait)]
impl Interval {
    /// The full `i32` range.
    #[inline]
    pub fn top() -> Interval {
        Interval { lo: LO, hi: HI }
    }

    /// A single value.
    #[inline]
    pub fn exact(v: i64) -> Interval {
        clamp32(v, v)
    }

    /// Construct from endpoints (clamping to top on overflow).
    #[inline]
    pub fn new(lo: i64, hi: i64) -> Interval {
        clamp32(lo, hi)
    }

    /// Whether this is the full range.
    #[inline]
    pub fn is_top(&self) -> bool {
        self.lo == LO && self.hi == HI
    }

    /// The single member, if the interval is a point.
    #[inline]
    pub fn singleton(&self) -> Option<i64> {
        (self.lo == self.hi).then_some(self.lo)
    }

    /// Whether `v` is a member.
    #[inline]
    pub fn contains(&self, v: i64) -> bool {
        self.lo <= v && v <= self.hi
    }

    /// Least upper bound.
    #[inline]
    pub fn join(self, o: Interval) -> Interval {
        Interval {
            lo: self.lo.min(o.lo),
            hi: self.hi.max(o.hi),
        }
    }

    /// Greatest lower bound; `None` when disjoint.
    #[inline]
    pub fn meet(self, o: Interval) -> Option<Interval> {
        fits(self.lo.max(o.lo), self.hi.min(o.hi))
    }

    /// `self + o`, or `None` if some member pair could wrap.
    #[inline]
    pub fn add_exact(self, o: Interval) -> Option<Interval> {
        fits(self.lo + o.lo, self.hi + o.hi)
    }

    /// `self + o` (to top on possible wrap).
    #[inline]
    pub fn add(self, o: Interval) -> Interval {
        self.add_exact(o).unwrap_or_else(Interval::top)
    }

    /// `self - o`, or `None` if some member pair could wrap.
    #[inline]
    pub fn sub_exact(self, o: Interval) -> Option<Interval> {
        fits(self.lo - o.hi, self.hi - o.lo)
    }

    /// `self - o` (to top on possible wrap).
    #[inline]
    pub fn sub(self, o: Interval) -> Interval {
        self.sub_exact(o).unwrap_or_else(Interval::top)
    }

    /// `self * o` via the four corners, or `None` if some member pair
    /// could wrap.
    #[inline]
    pub fn mul_exact(self, o: Interval) -> Option<Interval> {
        let (lo, hi) = span([
            self.lo * o.lo,
            self.lo * o.hi,
            self.hi * o.lo,
            self.hi * o.hi,
        ]);
        fits(lo, hi)
    }

    /// `self * o` (to top on possible wrap).
    #[inline]
    pub fn mul(self, o: Interval) -> Interval {
        self.mul_exact(o).unwrap_or_else(Interval::top)
    }

    /// `self + o` over the integers, cut to the `i32` range; `None` when
    /// nothing is left. The backward form of an exact `sub`: if
    /// `x - y ∈ self` without wrapping, then `x ∈ self.add_within(y)`.
    #[inline]
    pub fn add_within(self, o: Interval) -> Option<Interval> {
        within(self.lo + o.lo, self.hi + o.hi)
    }

    /// `self - o` over the integers, cut to the `i32` range; `None` when
    /// nothing is left. The backward form of an exact `add` (`x + y ∈
    /// self` gives `x ∈ self.sub_within(y)`) and of an exact `sub`
    /// (`x - y ∈ self` gives `y ∈ x.sub_within(self)`).
    #[inline]
    pub fn sub_within(self, o: Interval) -> Option<Interval> {
        within(self.lo - o.hi, self.hi - o.lo)
    }

    /// Truncating signed division. Sound for any divisor interval; when
    /// the divisor is not sign-definite the result is bounded by the
    /// dividend's magnitude (|d| ≥ 1 for every non-faulting division).
    #[inline]
    pub fn div(self, o: Interval) -> Interval {
        if o.lo > 0 || o.hi < 0 {
            // Sign-definite divisor: x/d is monotone in each argument on
            // this orthant, so the four corners bound the result.
            let (lo, hi) = span([
                self.lo / o.lo,
                self.lo / o.hi,
                self.hi / o.lo,
                self.hi / o.hi,
            ]);
            clamp32(lo, hi)
        } else {
            // Divisor spans zero (a non-faulting run uses |d| ≥ 1, where
            // the extremes sit at d = ±1, not at the corners).
            let m = self.lo.abs().max(self.hi.abs());
            clamp32(-m, m)
        }
    }

    /// Remainder: |result| < max|divisor| and the sign follows the
    /// dividend.
    #[inline]
    pub fn rem(self, o: Interval) -> Interval {
        let m = (o.lo.abs().max(o.hi.abs()) - 1).max(0);
        let lo = if self.lo >= 0 { 0 } else { (-m).max(self.lo) };
        let hi = if self.hi <= 0 { 0 } else { m.min(self.hi) };
        clamp32(lo, hi)
    }

    /// Bitwise AND. `x & c` with a nonnegative constant `c` lies in
    /// `[0, c]` whatever `x` is — the rule that makes masked ring
    /// addressing provably in bounds.
    #[inline]
    pub fn and(self, o: Interval) -> Interval {
        for c in [o.singleton(), self.singleton()].into_iter().flatten() {
            if c >= 0 {
                return Interval { lo: 0, hi: c };
            }
        }
        if self.lo >= 0 && o.lo >= 0 {
            return Interval {
                lo: 0,
                hi: self.hi.min(o.hi),
            };
        }
        Interval::top()
    }

    /// Bitwise OR of nonnegative operands: bounded by the next power of
    /// two above both, and at least either operand.
    #[inline]
    pub fn or(self, o: Interval) -> Interval {
        if self.lo >= 0 && o.lo >= 0 {
            Interval {
                lo: self.lo.max(o.lo),
                hi: pow2_bound(self.hi.max(o.hi)),
            }
        } else {
            Interval::top()
        }
    }

    /// Bitwise XOR of nonnegative operands.
    #[inline]
    pub fn xor(self, o: Interval) -> Interval {
        if self.lo >= 0 && o.lo >= 0 {
            Interval {
                lo: 0,
                hi: pow2_bound(self.hi.max(o.hi)),
            }
        } else {
            Interval::top()
        }
    }

    /// Left shift by the constant `k` (taken mod 32, as both machines
    /// do); top if a member could shift out of the `i32` range.
    #[inline]
    pub fn shl(self, k: u32) -> Interval {
        let k = k & 31;
        clamp32(self.lo << k, self.hi << k)
    }

    /// Arithmetic shift right by the constant `k` (taken mod 32). Never
    /// wraps: the shift is monotone and moves toward `-1` or `0`.
    #[inline]
    pub fn sra(self, k: u32) -> Interval {
        let k = k & 31;
        Interval {
            lo: self.lo >> k,
            hi: self.hi >> k,
        }
    }

    /// Arithmetic shift right by an unknown amount in `[0, 31]`: the
    /// result stays between the value and its sign.
    #[inline]
    pub fn sra_any(self) -> Interval {
        Interval {
            lo: self.lo.min(0),
            hi: self.hi.max(-1),
        }
    }

    /// `(self < o)` as the 0/1 result interval.
    #[inline]
    pub fn slt(self, o: Interval) -> Interval {
        if self.hi < o.lo {
            Interval { lo: 1, hi: 1 }
        } else if self.lo >= o.hi {
            Interval { lo: 0, hi: 0 }
        } else {
            Interval { lo: 0, hi: 1 }
        }
    }

    /// Both operands narrowed under `self < o`; `None` when no member
    /// pair satisfies it.
    #[inline]
    pub fn refine_lt(self, o: Interval) -> Option<(Interval, Interval)> {
        Some((
            self.meet(within(LO, o.hi - 1)?)?,
            o.meet(within(self.lo + 1, HI)?)?,
        ))
    }

    /// Both operands narrowed under `self >= o`; `None` when no member
    /// pair satisfies it.
    #[inline]
    pub fn refine_ge(self, o: Interval) -> Option<(Interval, Interval)> {
        Some((
            self.meet(Interval { lo: o.lo, hi: HI })?,
            o.meet(Interval {
                lo: LO,
                hi: self.hi,
            })?,
        ))
    }

    /// Trim a `!= c` fact off the endpoints; `None` when `c` is the only
    /// member. A `c` strictly inside stays (intervals have no holes).
    #[inline]
    pub fn trim_ne(self, c: i64) -> Option<Interval> {
        if self.singleton() == Some(c) {
            return None;
        }
        let mut iv = self;
        if iv.lo == c {
            iv.lo += 1;
        }
        if iv.hi == c {
            iv.hi -= 1;
        }
        Some(iv)
    }
}

impl fmt::Display for Interval {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "[{}, {}]", self.lo, self.hi)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use zarf_testkit::rng::StdRng;

    #[test]
    fn interval_arithmetic_corners() {
        let a = Interval::new(-3, 5);
        let b = Interval::new(2, 4);
        assert_eq!(a.add(b), Interval::new(-1, 9));
        assert_eq!(a.sub(b), Interval::new(-7, 3));
        assert_eq!(a.mul(b), Interval::new(-12, 20));
        assert_eq!(a.div(b), Interval::new(-1, 2));
        // Overflowing results go to top, not to a wrapped lie.
        assert!(Interval::exact(HI).add(Interval::exact(1)).is_top());
        assert!(Interval::exact(LO).sub(Interval::exact(1)).is_top());
    }

    #[test]
    fn and_mask_rule() {
        let x = Interval::top();
        assert_eq!(x.and(Interval::exact(15)), Interval::new(0, 15));
        assert_eq!(
            Interval::new(3, 9).and(Interval::new(0, 6)),
            Interval::new(0, 6)
        );
    }

    #[test]
    fn rem_is_bounded_by_divisor() {
        let x = Interval::new(0, 1000);
        assert_eq!(x.rem(Interval::exact(24)), Interval::new(0, 23));
        let y = Interval::new(-10, 10);
        assert_eq!(y.rem(Interval::exact(3)), Interval::new(-2, 2));
    }

    /// Values every generated interval draws on: the `i32` extremes and
    /// their neighbours, and the small values around zero.
    const EDGES: [i64; 9] = [LO, LO + 1, -2, -1, 0, 1, 2, HI - 1, HI];

    fn endpoint(rng: &mut StdRng) -> i64 {
        match rng.gen_range(0..4) {
            0 => EDGES[rng.gen_range(0..EDGES.len())],
            1 => rng.gen_range(-40i64..=40),
            2 => rng.gen_range(-70_000i64..=70_000),
            _ => rng.gen::<i32>() as i64,
        }
    }

    fn interval(rng: &mut StdRng) -> Interval {
        let (a, b) = (endpoint(rng), endpoint(rng));
        let iv = Interval {
            lo: a.min(b),
            hi: a.max(b),
        };
        // A point now and then, so singleton rules (the AND mask, a
        // constant shift, the `!=` trim) are exercised.
        if rng.gen_bool(0.2) {
            Interval::exact(iv.lo)
        } else {
            iv
        }
    }

    /// The endpoints, every edge value inside, and a few uniform members.
    fn members(rng: &mut StdRng, iv: Interval) -> Vec<i64> {
        let mut m = vec![iv.lo, iv.hi];
        m.extend(EDGES.iter().copied().filter(|&v| iv.contains(v)));
        m.extend((0..4).map(|_| rng.gen_range(iv.lo..=iv.hi)));
        m
    }

    fn wrapped(ideal: i64) -> i64 {
        ideal as i32 as i64
    }

    /// An `*_exact` form, named, with the ideal integer operation it
    /// must agree with.
    type ExactOp = (
        &'static str,
        fn(Interval, Interval) -> Option<Interval>,
        fn(i64, i64) -> i64,
    );

    #[test]
    fn every_operation_is_sound_on_random_intervals() {
        let mut rng = StdRng::seed_from_u64(0x1A77_1CE5);
        let (mut extremes, mut exact_some, mut exact_none) = (0, 0, 0);
        for _ in 0..3000 {
            let (a, b) = (interval(&mut rng), interval(&mut rng));
            extremes += usize::from(a.lo == LO) + usize::from(a.hi == HI);
            let (ma, mb) = (members(&mut rng, a), members(&mut rng, b));
            let k = mb[0] as u32;
            let exact: [ExactOp; 3] = [
                ("add", Interval::add_exact, |x, y| x + y),
                ("sub", Interval::sub_exact, |x, y| x - y),
                ("mul", Interval::mul_exact, |x, y| x * y),
            ];
            for (name, op, ideal) in exact {
                // The ideal extremes sit at the corners, so `None` must
                // mean some corner pair really wraps.
                let corners = [(a.lo, b.lo), (a.lo, b.hi), (a.hi, b.lo), (a.hi, b.hi)];
                let wraps = corners
                    .iter()
                    .any(|&(x, y)| wrapped(ideal(x, y)) != ideal(x, y));
                match op(a, b) {
                    Some(r) => {
                        exact_some += 1;
                        for (&x, &y) in ma.iter().zip(&mb) {
                            assert_eq!(wrapped(ideal(x, y)), ideal(x, y), "{name} {a} {b}");
                            assert!(r.contains(ideal(x, y)), "{name} {a} {b} -> {r}");
                        }
                    }
                    None => {
                        exact_none += 1;
                        assert!(wraps, "{name}_exact {a} {b} is None without a wrap");
                    }
                }
            }
            for &x in &ma {
                for &y in &mb {
                    let (x32, y32) = (x as i32, y as i32);
                    let check = |name: &str, r: Interval, v: i32| {
                        assert!(
                            r.contains(v as i64),
                            "{name} {a} {b}: {x}, {y} -> {v} ∉ {r}"
                        );
                    };
                    check("add", a.add(b), x32.wrapping_add(y32));
                    check("sub", a.sub(b), x32.wrapping_sub(y32));
                    check("mul", a.mul(b), x32.wrapping_mul(y32));
                    if y != 0 {
                        check("div", a.div(b), x32.wrapping_div(y32));
                        check("rem", a.rem(b), x32.wrapping_rem(y32));
                    }
                    check("and", a.and(b), x32 & y32);
                    check("or", a.or(b), x32 | y32);
                    check("xor", a.xor(b), x32 ^ y32);
                    check("slt", a.slt(b), (x32 < y32) as i32);
                    check("shl", a.shl(k), x32.wrapping_shl(k & 31));
                    check("sra", a.sra(k), x32.wrapping_shr(k & 31));
                    check("sra_any", a.sra_any(), x32.wrapping_shr(y as u32 & 31));
                    // Backward forms: an exact result gives its operands
                    // back.
                    if let Some(r) = a.add_exact(b) {
                        assert!(
                            r.sub_within(b).is_some_and(|v| v.contains(x)),
                            "add⁻¹ {a} {b}"
                        );
                        assert!(
                            r.sub_within(a).is_some_and(|v| v.contains(y)),
                            "add⁻¹ {a} {b}"
                        );
                    }
                    if let Some(r) = a.sub_exact(b) {
                        assert!(
                            r.add_within(b).is_some_and(|v| v.contains(x)),
                            "sub⁻¹ {a} {b}"
                        );
                        assert!(
                            a.sub_within(r).is_some_and(|v| v.contains(y)),
                            "sub⁻¹ {a} {b}"
                        );
                    }
                    // Refinement keeps every pair that satisfies the
                    // relation.
                    let keeps = |r: Option<(Interval, Interval)>| {
                        r.is_some_and(|(na, nb)| na.contains(x) && nb.contains(y))
                    };
                    if x < y {
                        assert!(keeps(a.refine_lt(b)), "refine_lt {a} {b} drops {x} < {y}");
                    } else {
                        assert!(keeps(a.refine_ge(b)), "refine_ge {a} {b} drops {x} >= {y}");
                    }
                    if x != y {
                        let t = a.trim_ne(y);
                        assert!(
                            t.is_some_and(|t| t.contains(x)),
                            "trim_ne {a} {y} drops {x}"
                        );
                    }
                }
            }
            // `None` only when no pair satisfies the relation: some pair
            // has x < y exactly when a.lo < b.hi.
            assert_eq!(a.refine_lt(b).is_none(), a.lo >= b.hi, "refine_lt {a} {b}");
            assert_eq!(a.refine_ge(b).is_none(), a.hi < b.lo, "refine_ge {a} {b}");
            assert_eq!(a.trim_ne(b.lo).is_none(), a.singleton() == Some(b.lo));
        }
        assert!(
            extremes > 200,
            "the generator reached the i32 extremes {extremes} times"
        );
        assert!(
            exact_some > 1000 && exact_none > 1000,
            "{exact_some} / {exact_none}"
        );
    }
}
