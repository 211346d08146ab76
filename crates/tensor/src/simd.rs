//! Portable f32x8 micro-kernels — the only sanctioned home for lane-level
//! vectorization (the xtask L2 determinism lint flags `[f32; 8]` lane code
//! anywhere else in the tree) — and, under the same rules, the `f64` lanes
//! of the encoder fit: a four-lane [`exp_f64`] and the eight-lane
//! [`WeightedMoments`] reduction.
//!
//! Everything here is straight-line arithmetic over `[f32; 8]` lane arrays:
//! no `std::simd`, no intrinsics, no `unsafe`. LLVM's autovectorizer turns
//! each helper into packed code for whatever the build level offers — one
//! 256-bit register per `F32x8` at the repository's x86-64-v3
//! (`.cargo/config.toml`), two SSE registers in a baseline build — while
//! the source stays portable and the workspace-wide
//! `unsafe_code = "forbid"` holds. The register width changes how many
//! instructions run, not what they compute: rustc never contracts a
//! multiply and an add into an FMA on its own, the matmul's fused terms are
//! `f32::mul_add`, correctly rounded at every level (one instruction at
//! x86-64-v3, libm's `fmaf` in a baseline build), and every lane grouping
//! and reduction order below is written out (`tests/target_invariance.rs`
//! pins the bits of a baseline build, and CI runs it at both levels).
//!
//! Determinism contract (DESIGN.md §8):
//!
//! * every lane operation is **lanewise pure** — lane `i` of a result
//!   depends only on lane `i` of the inputs — so how a buffer is cut into
//!   groups of eight is unobservable in the output bits;
//! * horizontal reductions ([`sum`], [`sum_squares`]) accumulate into eight
//!   fixed lanes combined in one fixed order,
//!   `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`, plus a sequential tail, so
//!   the rounding tree is a pure function of the slice length;
//! * the matmul micro-kernel (`tile`) runs its lanes across *output
//!   columns*, never across the contraction index: every output element is
//!   one chain `s = a_p·b_p + s` in ascending `p` from `s = 0`, each term a
//!   fused multiply-add rounded once, so the product is bit-identical to
//!   the naive triple loop of `mul_add`s and no lane-combine exists;
//! * the scalar transcendentals ([`tanh`], [`sigmoid`], [`exp`]) are defined
//!   as lane 0 of the eight-lane kernel applied to a splat, and [`ln`],
//!   [`sin_cos`] and [`gumbel`] as the one-lane function their kernels loop
//!   over, which makes scalar tails bit-identical to vector lanes *by
//!   construction*;
//! * fused multiply-adds appear in two places only. The matmul's terms:
//!   all three arms of the product — `tile`, `col_chains` and the
//!   zero-skipping axpy in `kernels` — fuse alike, so which one serves a
//!   row stays unobservable. And the stochastic layer's kernels (`ln8`, the
//!   Gumbel transform, Box–Muller's sine and cosine), written after the
//!   product fused, whose polynomial and reduction steps are fused from the
//!   start. Everywhere else a `mul_add`-shaped expression is two separately
//!   rounded operations: the tanh/exp polynomials, the reductions and the
//!   `f64` lanes keep the bits and ULP bounds they are pinned at. Fusing
//!   them would buy little — Tanh, TanhGrad and Exp together took under
//!   0.5 ms of a `paper_inproc` round of about 75 ms in a profile — and move
//!   every one of those pins (DESIGN.md §8).
//!
//! # Approximation accuracy
//!
//! [`tanh`] is the rational approximation popularized by Eigen/XLA: an odd
//! degree-13 numerator over an even degree-6 denominator in `x²`, input
//! clamped to ±`TANH_CLAMP`, with a pass-through for `|x| <`
//! `TANH_TINY` (which keeps subnormals and ±0.0 exact). [`exp`] is a
//! classic Cody–Waite reduction (`x = n·ln2 + r`, `|r| ≤ ln2/2`) with a
//! degree-7 Taylor core and a split power-of-two rescale; inputs beyond
//! ±`EXP_CLAMP_HI`/`EXP_CLAMP_LO` saturate to `+∞` / `+0.0` (a
//! flush-to-zero of sub-minimal-normal results). [`sigmoid`] is
//! `1 / (1 + exp(-x))` on top of that — structurally the same formula the
//! scalar libm path used before. The observed worst-case error versus libm
//! over a dense sweep of [-20, 20] plus edge values is asserted by
//! `crates/tensor/tests/simd_math.rs` and documented in DESIGN.md §8:
//! ≤ [`TANH_MAX_ULP`] ULP for tanh and ≤ [`SIGMOID_MAX_ULP`] ULP for
//! sigmoid at f32.
//!
//! [`ln`] is Cephes' `logf` (a degree-8 polynomial on the mantissa folded
//! onto `[√½, √2)`, in Estrin's scheme), within [`LN_MAX_ULP`] of libm over
//! the whole positive range, subnormals included; [`sin_cos`] is Cephes'
//! `sinf`/`cosf` pair after a three-part Cody–Waite reduction by `π/2`,
//! within [`SIN_COS_MAX_ULP`] over Box–Muller's `[0, 2π]`. Together they
//! make the generator's noise — [`gumbel`]'s `−ln(−ln u)` and
//! `Tensor::randn`'s Box–Muller pairs — and the graph's `ln` lane code with
//! no libm call.

/// Lane width of every kernel in this module.
pub const LANES: usize = 8;

/// Asserted upper bound (in f32 ULP) on `|tanh(x) − libm tanh(x)|` over the
/// sweep in `tests/simd_math.rs`.
pub const TANH_MAX_ULP: u32 = 8;

/// Asserted upper bound (in f32 ULP) on `|sigmoid(x) − 1/(1+expf(−x))|`
/// over the sweep in `tests/simd_math.rs`.
pub const SIGMOID_MAX_ULP: u32 = 8;

/// Asserted upper bound (in f32 ULP) on `|ln(x) − libm ln(x)|` over the
/// sweep of `(0, ∞)` in `tests/simd_math.rs`, subnormals included.
pub const LN_MAX_ULP: u32 = 1;

/// Asserted upper bound (in f32 ULP) on the distance of each of
/// `sin_cos(θ)`'s two results from libm's `sin θ` and `cos θ` over the sweep
/// of `[0, 2π]` in `tests/simd_math.rs`, or, where libm's value is below
/// [`SIN_COS_ABS_FLOOR`] in magnitude, that floor's ULP in absolute terms.
pub const SIN_COS_MAX_ULP: u32 = 1;

/// Below this magnitude a sine or cosine is held to an absolute error of
/// [`SIN_COS_MAX_ULP`] of its ULP instead of a relative one: near a zero
/// crossing the result is the reduced argument itself, whose error is that
/// of `π/2` in three `f32` parts, about `2⁻⁴⁴` absolute.
pub const SIN_COS_ABS_FLOOR: f32 = 1.0 / 1024.0;

/// Eight f32 lanes. A plain array wrapper: safe Rust, fixed width, written
/// so LLVM autovectorizes every lanewise helper.
#[derive(Debug, Clone, Copy, PartialEq)]
pub(crate) struct F32x8(pub(crate) [f32; LANES]);

impl F32x8 {
    #[inline(always)]
    pub(crate) fn splat(v: f32) -> Self {
        Self([v; LANES])
    }

    /// Loads the first eight elements of `s` (`s.len() ≥ 8`).
    #[inline(always)]
    pub(crate) fn load(s: &[f32]) -> Self {
        let mut lanes = [0.0; LANES];
        lanes.copy_from_slice(&s[..LANES]);
        Self(lanes)
    }

    /// Stores the lanes into the first eight elements of `out`.
    #[inline(always)]
    pub(crate) fn store(self, out: &mut [f32]) {
        out[..LANES].copy_from_slice(&self.0);
    }

    #[inline(always)]
    pub(crate) fn map(self, f: impl Fn(f32) -> f32) -> Self {
        Self(std::array::from_fn(|i| f(self.0[i])))
    }

    #[inline(always)]
    pub(crate) fn zip(self, o: Self, f: impl Fn(f32, f32) -> f32) -> Self {
        Self(std::array::from_fn(|i| f(self.0[i], o.0[i])))
    }

    #[inline(always)]
    pub(crate) fn add(self, o: Self) -> Self {
        self.zip(o, |a, b| a + b)
    }

    #[inline(always)]
    pub(crate) fn sub(self, o: Self) -> Self {
        self.zip(o, |a, b| a - b)
    }

    #[inline(always)]
    pub(crate) fn mul(self, o: Self) -> Self {
        self.zip(o, |a, b| a * b)
    }

    #[inline(always)]
    pub(crate) fn div(self, o: Self) -> Self {
        self.zip(o, |a, b| a / b)
    }

    /// `self·m + a` per lane as one fused multiply-add, rounded once.
    #[inline(always)]
    fn mul_add(self, m: Self, a: Self) -> Self {
        Self(std::array::from_fn(|i| self.0[i].mul_add(m.0[i], a.0[i])))
    }

    /// `self·m + a` per lane as **two rounded ops** (not an FMA: the
    /// polynomials keep their pinned bits, see the module docs).
    #[inline(always)]
    fn mul_add_s(self, m: f32, a: f32) -> Self {
        self.map(|v| v * m + a)
    }

    /// `self·m` per lane.
    #[inline(always)]
    fn mul_s(self, m: f32) -> Self {
        self.map(|v| v * m)
    }

    /// Fixed-order horizontal sum: `((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))`.
    /// This is the one place lanes meet; the order never varies.
    #[inline(always)]
    fn hsum(self) -> f32 {
        let l = self.0;
        ((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]))
    }
}

// --- rational tanh -------------------------------------------------------

/// Clamp bound of the rational tanh core. `tanh(7.90531) = 1 − 2.6e-7`, so
/// saturating here leaves large arguments ~4 ULP below ±1.0 — inside the
/// documented [`TANH_MAX_ULP`] budget.
const TANH_CLAMP: f32 = 7.905_311;
/// Below this magnitude the approximation returns `x` itself (the true
/// series is `x − x³/3 + …`, and `x³/3` underflows the f32 grid), keeping
/// ±0.0 and subnormals exact.
const TANH_TINY: f32 = 4e-4;
// Odd numerator / even denominator coefficients of the Eigen/XLA rational
// approximation, highest degree first.
const TANH_ALPHA: [f32; 7] = [
    -2.760_768_4e-16,
    2.000_188e-13,
    -8.604_672e-11,
    5.122_297_3e-8,
    1.485_722_35e-5,
    6.372_619_5e-4,
    4.893_524_6e-3,
];
const TANH_BETA: [f32; 4] = [1.198_258_4e-6, 1.185_347_1e-4, 2.268_434_7e-3, 4.893_525e-3];

/// Eight-lane rational tanh. Lanewise pure; see the module docs for the
/// accuracy contract.
#[inline]
pub(crate) fn tanh8(x: F32x8) -> F32x8 {
    #[expect(
        clippy::manual_clamp,
        reason = "max/min squash NaN lanes to a finite value; clamp keeps NaN"
    )]
    let xc = x.map(|v| v.max(-TANH_CLAMP).min(TANH_CLAMP));
    let x2 = xc.mul(xc);
    let mut p = F32x8::splat(TANH_ALPHA[0]);
    for &c in &TANH_ALPHA[1..] {
        p = p.mul(x2).map(|v| v + c);
    }
    let p = p.mul(xc);
    let mut q = F32x8::splat(TANH_BETA[0]);
    for &c in &TANH_BETA[1..] {
        q = q.mul(x2).map(|v| v + c);
    }
    let r = p.div(q);
    // Pass tiny inputs through unchanged and restore NaN (the clamp above
    // silently turns NaN lanes into ±TANH_CLAMP — Rust's min/max drop NaN).
    x.zip(r, |xi, ri| if xi.is_nan() || xi.abs() < TANH_TINY { xi } else { ri })
}

// --- Cody–Waite exp ------------------------------------------------------

/// Inputs above this overflow f32 (`ln(f32::MAX)`): the kernel returns `+∞`.
const EXP_CLAMP_HI: f32 = 88.722_84;
/// Inputs below this produce sub-minimal-normal results (`ln` of the
/// smallest normal f32): the kernel flushes them to `+0.0`.
const EXP_CLAMP_LO: f32 = -87.336_54;
/// `1.5·2²³` — adding and subtracting it rounds a float (|v| ≤ 2²²) to the
/// nearest integer without a branch or a libm `round` call.
const EXP_MAGIC: f32 = 12_582_912.0;
/// `ln 2` split into an 11-bit-exact high part and a low correction, so
/// `x − n·LN2_HI` is exact for `|n| ≤ 2⁸` (Cody–Waite range reduction).
const EXP_LN2_HI: f32 = 0.693_359_4;
const EXP_LN2_LO: f32 = -2.121_944_4e-4;
/// Taylor coefficients `1/k!` for `k = 7 … 2` (highest degree first); the
/// final `+ r + 1` steps are folded into the Horner loop's tail.
const EXP_POLY: [f32; 6] = [1.0 / 5040.0, 1.0 / 720.0, 1.0 / 120.0, 1.0 / 24.0, 1.0 / 6.0, 0.5];

/// Eight-lane `e^x`: Cody–Waite reduction, degree-7 Taylor core, split
/// power-of-two rescale. Lanewise pure.
#[inline]
pub(crate) fn exp8(x: F32x8) -> F32x8 {
    #[expect(
        clippy::manual_clamp,
        reason = "max/min squash NaN lanes to a finite value; clamp keeps NaN"
    )]
    let xc = x.map(|v| v.max(EXP_CLAMP_LO).min(EXP_CLAMP_HI));
    // n = round(x / ln 2) via the magic-number shift; n ∈ [-126, 128].
    let shifted = xc.mul_add_s(std::f32::consts::LOG2_E, EXP_MAGIC);
    let n = shifted.map(|v| v - EXP_MAGIC);
    // r = x − n·ln2 in two steps; |r| ≤ ln2/2 + 1 ULP.
    let r = xc.sub(n.mul_s(EXP_LN2_HI)).sub(n.mul_s(EXP_LN2_LO));
    let mut p = F32x8::splat(EXP_POLY[0]);
    for &c in &EXP_POLY[1..] {
        p = p.mul(r).map(|v| v + c);
    }
    // Degree-1 and degree-0 terms (both 1.0) finish the Horner chain.
    let p = p.mul(r).map(|v| v + 1.0);
    let p = p.mul(r).map(|v| v + 1.0);
    // Scale by 2^n in two halves so n = 128 (x near ln MAX) stays finite:
    // 2^n = 2^(n/2) · 2^(n−n/2), each half's biased exponent in [1, 254].
    // `n` is read off the shifted value's bits (`1.5·2²³ + n` has ulp 1, so
    // its low bits are `n`): integer lanes, where `n as i32`'s saturating
    // conversion would take a scalar compare per lane.
    let y = p.zip(shifted, |pi, sh| {
        let ni = (sh.to_bits() as i32).wrapping_sub(EXP_MAGIC.to_bits() as i32);
        let half = ni >> 1;
        let s1 = f32::from_bits(((half + 127) as u32) << 23);
        let s2 = f32::from_bits((((ni - half) + 127) as u32) << 23);
        (pi * s1) * s2
    });
    // Saturate against the *unclamped* input and restore NaN lanes. Three
    // independent single-compare passes, each a compare + select that LLVM
    // keeps vectorized (one fused multi-branch select does not).
    let y = x.zip(y, |xi, yi| if xi > EXP_CLAMP_HI { f32::INFINITY } else { yi });
    let y = x.zip(y, |xi, yi| if xi < EXP_CLAMP_LO { 0.0 } else { yi });
    x.zip(y, |xi, yi| if xi.is_nan() { xi } else { yi })
}

/// Eight-lane logistic sigmoid `1 / (1 + e^{−x})` — structurally the same
/// formula the scalar libm path used, with `exp8` supplying the
/// exponential. Lanewise pure.
#[inline]
pub(crate) fn sigmoid8(x: F32x8) -> F32x8 {
    exp8(x.map(|v| -v)).map(|e| 1.0 / (1.0 + e))
}

// --- Cephes-style ln ------------------------------------------------------

/// `2²³`: a subnormal times this is a normal number, exactly.
const LN_SUBNORMAL_SCALE: f32 = 8_388_608.0;
/// `√½`: the mantissa `m ∈ [½, 1)` is folded onto `[√½, √2)` at this cut,
/// so the core's argument `f = m − 1` (or `2m − 1`) stays within
/// `[√½ − 1, √2 − 1]`.
const LN_SQRT_HALF: f32 = std::f32::consts::FRAC_1_SQRT_2;
/// Cephes `logf`'s minimax coefficients of `(ln(1+f) − f + f²/2) / f³`,
/// highest degree first.
const LN_POLY: [f32; 9] = [
    7.037_683_6e-2,
    -1.151_461_e-1,
    1.167_699_9e-1,
    -1.242_014_1e-1,
    1.424_932_3e-1,
    -1.666_805_8e-1,
    2.000_071_5e-1,
    -2.499_999_4e-1,
    3.333_333e-1,
];

/// Natural logarithm of one lane: [`ln8`]'s arithmetic.
///
/// `x = 2ᵉ·m` with `m ∈ [√½, √2)` read off the bits (a subnormal is first
/// scaled by `2²³`, exactly); `ln x = e·ln 2 + ln(1 + f)` with `f = m − 1`
/// exact, `ln(1 + f) = f − f²/2 + f³·P(f)`, `P` in Estrin's scheme of
/// fused multiply-adds (four steps deep instead of eight), and `e·ln 2`
/// added in the high and low parts of `exp8`'s Cody–Waite pair, each a
/// fused multiply-add. Then the edges: `ln(±0) = −∞`, `ln(x < 0) = NaN`,
/// `ln ∞ = ∞`, and a NaN comes back as itself — four single-compare
/// selects. Written per lane, with selects and no branch, so the
/// vectorizer packs the whole of it eight-wide.
#[inline(always)]
fn ln_lane(x: f32) -> f32 {
    let subnormal = x < f32::MIN_POSITIVE;
    let scaled = if subnormal { x * LN_SUBNORMAL_SCALE } else { x };
    // Exponent and mantissa in [½, 1).
    let e = ((scaled.to_bits() >> 23) & 0xff) as f32 - 126.0;
    let m = f32::from_bits((scaled.to_bits() & 0x007f_ffff) | 0x3f00_0000);
    let e = if subnormal { e - 23.0 } else { e };
    let fold = m < LN_SQRT_HALF;
    let e = if fold { e - 1.0 } else { e };
    let f = if fold { (m + m) - 1.0 } else { m - 1.0 };
    let z = f * f;
    let c = LN_POLY;
    let low = c[5].mul_add(f, c[6]).mul_add(z, c[7].mul_add(f, c[8]));
    let high = c[1].mul_add(f, c[2]).mul_add(z, c[3].mul_add(f, c[4]));
    let p = c[0].mul_add(z * z, high).mul_add(z * z, low);
    let y = e.mul_add(EXP_LN2_LO, (p * f) * z);
    let y = z.mul_add(-0.5, y);
    let r = e.mul_add(EXP_LN2_HI, f + y);
    let r = if x == f32::INFINITY { x } else { r };
    let r = if x == 0.0 { f32::NEG_INFINITY } else { r };
    let r = if x < 0.0 { f32::NAN } else { r };
    if x.is_nan() {
        x
    } else {
        r
    }
}

/// Eight-lane natural logarithm ([`ln_lane`] in each lane). Lanewise pure.
/// A plain loop over the lanes, not [`F32x8::map`]: a lane body this long
/// would stay a closure call per lane there.
#[inline]
pub(crate) fn ln8(x: F32x8) -> F32x8 {
    let mut out = [0.0; LANES];
    for (o, &v) in out.iter_mut().zip(&x.0) {
        *o = ln_lane(v);
    }
    F32x8(out)
}

/// Eight-lane Gumbel transform `−ln(−ln u)` of uniforms `u ∈ (0, 1)`,
/// looped as [`ln8`]. Lanewise pure.
#[inline]
pub(crate) fn gumbel8(u: F32x8) -> F32x8 {
    let mut out = [0.0; LANES];
    for (o, &v) in out.iter_mut().zip(&u.0) {
        *o = -ln_lane(-ln_lane(v));
    }
    F32x8(out)
}

// --- sine and cosine of Box–Muller's angle --------------------------------

/// `π/2` in three parts: the first two have few enough significant bits
/// that `n·part` is exact for the quadrants of `[−2π, 2π]` (Cephes'
/// `DP1..DP3`, doubled).
const PIO2_HI: f32 = 1.570_312_5;
const PIO2_MID: f32 = 4.837_513e-4;
const PIO2_LO: f32 = 7.549_79e-8;
/// Cephes `sinf` on `|r| ≤ π/4`: `r + r³·S(r²)`, highest degree first.
const SIN_POLY: [f32; 3] = [-1.951_529_6e-4, 8.332_161e-3, -1.666_665_5e-1];
/// Cephes `cosf` on `|r| ≤ π/4`: `1 − r²/2 + r⁴·C(r²)`, highest degree
/// first.
const COS_POLY: [f32; 3] = [2.443_315_7e-5, -1.388_731_6e-3, 4.166_664_6e-2];

/// `(sin θ, cos θ)` of one lane, for the angles Box–Muller draws, `θ ∈
/// [0, 2π)`. Lanewise pure: [`box_muller_pairs`] packs it eight-wide.
///
/// `θ = n·π/2 + r` with `n` rounded by `exp8`'s magic-number shift and `r`
/// reduced by fused multiply-adds in the three parts of `π/2`
/// (Cody–Waite), so `|r| ≤ π/4` and is accurate to about `2⁻⁴⁴` absolute;
/// Cephes' two polynomials, Horner steps fused, give `sin r` and `cos r`,
/// and the quadrant `n mod 4` swaps them and flips signs with a bit mask.
/// The reduction is exact for `|θ|` up to a few thousand, far past the
/// angles drawn; there is no Payne–Hanek path for larger ones. A
/// non-finite `θ` gives NaN for both.
#[inline(always)]
fn sin_cos_lane(theta: f32) -> (f32, f32) {
    let shifted = theta * std::f32::consts::FRAC_2_PI + EXP_MAGIC;
    let n = shifted - EXP_MAGIC;
    let r = n.mul_add(-PIO2_HI, theta);
    let r = n.mul_add(-PIO2_MID, r);
    let r = n.mul_add(-PIO2_LO, r);
    let z = r * r;
    let s = SIN_POLY[0].mul_add(z, SIN_POLY[1]).mul_add(z, SIN_POLY[2]);
    let s = (s * z).mul_add(r, r);
    let c = COS_POLY[0].mul_add(z, COS_POLY[1]).mul_add(z, COS_POLY[2]);
    let c = (c * z).mul_add(z, -0.5 * z) + 1.0;
    // `n mod 4` sits in the low bits of the shifted value (two's
    // complement, so a negative `n` works too). Odd quadrants swap sine and
    // cosine; the sine is negated in quadrants 2 and 3, the cosine in 1
    // and 2.
    let q = shifted.to_bits() & 3;
    let (a, b) = if q & 1 == 1 { (c, s) } else { (s, c) };
    let sin = f32::from_bits(a.to_bits() ^ ((q & 2) << 30));
    let cos = f32::from_bits(b.to_bits() ^ (((q + 1) & 2) << 30));
    if theta.is_finite() {
        (sin, cos)
    } else {
        (f32::NAN, f32::NAN)
    }
}

/// Eight-lane derivative-from-output of tanh: `1 − y²`. Bit-identical to
/// the unfused `neg(mul(y,y))` → `add_scalar(·, 1)` chain (IEEE `a − b` is
/// exactly `(−b) + a`). Lanewise pure.
#[inline]
pub(crate) fn tanh_grad8(y: F32x8) -> F32x8 {
    y.map(|v| 1.0 - v * v)
}

/// Eight-lane derivative-from-output of sigmoid: `y·(1 − y)`, bit-identical
/// to the unfused `mul(y, add_scalar(neg(y), 1))` chain. Lanewise pure.
#[inline]
pub(crate) fn sigmoid_grad8(y: F32x8) -> F32x8 {
    y.map(|v| v * (1.0 - v))
}

/// Eight-lane `max(x, 0)` (same NaN→0 semantics as `f32::max`).
#[inline]
pub(crate) fn relu8(x: F32x8) -> F32x8 {
    x.map(|v| v.max(0.0))
}

/// Eight-lane leaky ReLU: `x` for `x ≥ 0`, else `α·x`.
#[inline]
pub(crate) fn leaky_relu8(x: F32x8, alpha: f32) -> F32x8 {
    x.map(|v| if v >= 0.0 { v } else { alpha * v })
}

/// Eight-lane subgradient mask of ReLU: `1` for `x > 0`, else `0` (NaN
/// lanes included).
#[inline]
pub(crate) fn relu_mask8(x: F32x8) -> F32x8 {
    x.map(|v| if v > 0.0 { 1.0 } else { 0.0 })
}

/// Eight-lane subgradient mask of leaky ReLU: `1` for `x ≥ 0`, else `α`
/// (NaN lanes included).
#[inline]
pub(crate) fn leaky_relu_mask8(x: F32x8, alpha: f32) -> F32x8 {
    x.map(|v| if v >= 0.0 { 1.0 } else { alpha })
}

// --- scalar forms --------------------------------------------------------

/// Scalar tanh — lane 0 of `tanh8` on a splat, so tails and lanes agree
/// bit for bit.
#[inline]
pub fn tanh(x: f32) -> f32 {
    tanh8(F32x8::splat(x)).0[0]
}

/// Scalar sigmoid — lane 0 of `sigmoid8` on a splat.
#[inline]
pub fn sigmoid(x: f32) -> f32 {
    sigmoid8(F32x8::splat(x)).0[0]
}

/// Scalar exp — lane 0 of `exp8` on a splat.
#[inline]
pub fn exp(x: f32) -> f32 {
    exp8(F32x8::splat(x)).0[0]
}

/// Scalar natural logarithm: one lane of `ln8`.
#[inline]
pub fn ln(x: f32) -> f32 {
    ln_lane(x)
}

/// Scalar `(sin θ, cos θ)`: the lane arithmetic of `Tensor::randn`'s
/// Box–Muller, meant for its angles, `θ ∈ [0, 2π)`; see
/// [`SIN_COS_MAX_ULP`].
#[inline]
pub fn sin_cos(theta: f32) -> (f32, f32) {
    sin_cos_lane(theta)
}

/// Scalar Gumbel transform `−ln(−ln u)`: one lane of `gumbel8`.
#[inline]
pub fn gumbel(u: f32) -> f32 {
    -ln_lane(-ln_lane(u))
}

/// Applies the lane kernel `f8` to `xs` in place: [`map_slice`] without a
/// second buffer — full eight-lane groups, then the tail through the splat
/// path, so element `i` depends on `xs[i]` alone.
pub(crate) fn map_in_place(xs: &mut [f32], f8: impl Fn(F32x8) -> F32x8) {
    let mut groups = xs.chunks_exact_mut(LANES);
    for g in &mut groups {
        f8(F32x8::load(g)).store(g);
    }
    for v in groups.into_remainder() {
        *v = f8(F32x8::splat(*v)).0[0];
    }
}

/// One Box–Muller pair: `(ρ·cos θ, ρ·sin θ)` with `ρ = √(−2·ln u₁)` and
/// `θ = 2π·u₂`, the operations of the scalar formula in its order.
#[inline(always)]
fn box_muller_lane(u1: f32, u2: f32) -> (f32, f32) {
    let rho = (-2.0 * ln_lane(u1)).sqrt();
    let (sin, cos) = sin_cos_lane(2.0 * std::f32::consts::PI * u2);
    (rho * cos, rho * sin)
}

/// Box–Muller in place over interleaved uniform pairs `(u₁, u₂)`, each pair
/// becoming [`box_muller_lane`]'s two normals: eight pairs a group, which
/// the vectorizer packs eight-wide, then the ragged pairs one at a time —
/// the same arithmetic, so the grouping is unobservable. `pairs.len()`
/// must be even.
pub(crate) fn box_muller_pairs(pairs: &mut [f32]) {
    debug_assert_eq!(pairs.len() % 2, 0, "Box–Muller takes whole pairs");
    let mut groups = pairs.chunks_exact_mut(2 * LANES);
    for g in &mut groups {
        let mut out = [0.0; 2 * LANES];
        for i in 0..LANES {
            (out[2 * i], out[2 * i + 1]) = box_muller_lane(g[2 * i], g[2 * i + 1]);
        }
        g.copy_from_slice(&out);
    }
    for pair in groups.into_remainder().chunks_exact_mut(2) {
        (pair[0], pair[1]) = box_muller_lane(pair[0], pair[1]);
    }
}

// --- slice kernels -------------------------------------------------------

/// Applies the lane kernel `f8` across `src`, appending to `out`: full
/// eight-lane groups first, then the ≤7-element tail through the identical
/// splat/lane-0 path. Because `f8` is lanewise pure, element `i` of the
/// result is a function of `src[i]` alone — chunking is unobservable.
#[inline]
pub(crate) fn map_slice(src: &[f32], out: &mut Vec<f32>, f8: impl Fn(F32x8) -> F32x8) {
    let mut groups = src.chunks_exact(LANES);
    for g in &mut groups {
        out.extend_from_slice(&f8(F32x8::load(g)).0);
    }
    for &v in groups.remainder() {
        out.push(f8(F32x8::splat(v)).0[0]);
    }
}

/// Fused bias + activation over one output row: `row[j] = f8(row[j] +
/// bias[j])` with eight-lane groups and the splat tail. The arithmetic per
/// element is exactly `act(v + b)` — identical to the unfused broadcast-add
/// followed by the elementwise activation.
#[inline]
pub(crate) fn bias_act_row(row: &mut [f32], bias: &[f32], f8: impl Fn(F32x8) -> F32x8) {
    debug_assert_eq!(row.len(), bias.len());
    let mut rg = row.chunks_exact_mut(LANES);
    let mut bg = bias.chunks_exact(LANES);
    for (rc, bc) in (&mut rg).zip(&mut bg) {
        f8(F32x8::load(rc).add(F32x8::load(bc))).store(rc);
    }
    for (r, &b) in rg.into_remainder().iter_mut().zip(bg.remainder()) {
        *r = f8(F32x8::splat(*r + b)).0[0];
    }
}

// --- fixed-shape reductions ----------------------------------------------

/// Sum with eight independent accumulator lanes combined in the fixed
/// `F32x8::hsum` order plus a sequential tail — the rounding tree depends
/// only on `xs.len()`.
#[inline]
pub fn sum(xs: &[f32]) -> f32 {
    let mut acc = F32x8::splat(0.0);
    let mut groups = xs.chunks_exact(LANES);
    for g in &mut groups {
        acc = acc.add(F32x8::load(g));
    }
    let mut s = acc.hsum();
    for &v in groups.remainder() {
        s += v;
    }
    s
}

/// Sum of squares with the same lane/combine/tail shape as [`sum`].
#[inline]
pub fn sum_squares(xs: &[f32]) -> f32 {
    let mut acc = F32x8::splat(0.0);
    let mut groups = xs.chunks_exact(LANES);
    for g in &mut groups {
        let v = F32x8::load(g);
        acc = acc.add(v.mul(v));
    }
    let mut s = acc.hsum();
    for &v in groups.remainder() {
        s += v * v;
    }
    s
}

// --- f64 lanes: exp and the weighted-moment reduction ---------------------
//
// The encoder fit (`gtv-encoders`, `Gmm1d::fit`) is `f64` throughout; its
// E-step is exponentials and three running sums. Same rules as the `f32`
// kernels above: lanewise-pure arithmetic on plain arrays, two rounded
// operations where an FMA would fit, one written-out combine order. The
// entry points are deliberately *not* `#[inline]`: they are called once per
// 256-row block from another crate, and staying out of line keeps them
// compiled with this crate's optimisation level in `cargo test` too.

/// Lane width of the `f64` exp kernel: one 256-bit register at x86-64-v3.
/// Eight lanes were measured no faster — LLVM turns an `[f64; 8]` through
/// this kernel into stride-8 gathers with spills (DESIGN.md §8).
const LANES_F64: usize = 4;
type F64x4 = [f64; LANES_F64];
/// Accumulator lanes of [`WeightedMoments`].
const MOMENT_LANES: usize = 8;

/// Asserted upper bound (in f64 ULP) on `|exp_f64(x) − libm exp(x)|` over
/// the sweep of `[EXP_F64_FLUSH, ln f64::MAX]` in `tests/simd_math.rs`.
pub const EXP_F64_MAX_ULP: u64 = 2;

/// Inputs above this (`ln f64::MAX`) overflow: the kernel returns `+∞`.
const EXP64_OVERFLOW: f64 = 709.782_712_893_384;
/// Inputs below this are flushed to `+0.0`. `e^−708` is still a normal
/// number, so the kernel never has to build a subnormal; libm's gradual
/// underflow over `[−745.1, −708)` is the one place the two differ by more
/// than [`EXP_F64_MAX_ULP`].
pub const EXP_F64_FLUSH: f64 = -708.0;
/// `1.5·2⁵²` — adding it rounds a double (|v| < 2⁵¹) to the nearest integer
/// and leaves that integer, in two's complement, in the low mantissa bits.
const EXP64_MAGIC: f64 = 6_755_399_441_055_744.0;
/// `ln 2` split so that `n·LN2_HI` is exact for `|n| ≤ 2¹¹` (the low 21
/// bits of the high part are zero) — fdlibm's Cody–Waite pair.
const EXP64_LN2_HI: f64 = 6.931_471_803_691_238e-1;
const EXP64_LN2_LO: f64 = 1.908_214_929_270_587_7e-10;
/// Taylor coefficients `1/k!` of the degree-13 core, highest degree first,
/// split by parity: `e^r = 1 + r + r²·(E(r²) + r·O(r²))` with `E` over
/// `k = 12, 10, …, 2` and `O` over `k = 13, 11, …, 3`. On `|r| ≤ ln2/2` the
/// truncation error is `r¹⁴/14! < 5e-18`, a twentieth of an ULP.
const EXP64_EVEN: [f64; 6] =
    [1.0 / 479_001_600.0, 1.0 / 3_628_800.0, 1.0 / 40_320.0, 1.0 / 720.0, 1.0 / 24.0, 0.5];
const EXP64_ODD: [f64; 6] = [
    1.0 / 6_227_020_800.0,
    1.0 / 39_916_800.0,
    1.0 / 362_880.0,
    1.0 / 5_040.0,
    1.0 / 120.0,
    1.0 / 6.0,
];

/// Four-lane `e^x` in `f64`: Cody–Waite reduction `x = n·ln2 + r`,
/// degree-13 Taylor core, exact power-of-two rescale. Lanewise pure.
///
/// The core runs as two Horner chains in `r²` rather than one in `r`: the
/// single chain is 28 dependent operations, and with the few groups the
/// scheduler keeps in flight the loop waits on latency instead of filling
/// the ports (3.1 → 2.5 ns per element at x86-64-v3; no further from libm).
/// There is no input clamp: a lane outside `[EXP_F64_FLUSH, ln f64::MAX]`
/// computes garbage without trapping and the selects at the end replace it.
#[inline(always)]
fn exp4(x: F64x4) -> F64x4 {
    use std::array::from_fn;
    // n = round(x / ln 2) through the magic-number shift; for an in-range
    // lane n ∈ [-1021, 1024].
    let shifted: F64x4 = from_fn(|i| x[i] * std::f64::consts::LOG2_E + EXP64_MAGIC);
    let n: F64x4 = from_fn(|i| shifted[i] - EXP64_MAGIC);
    let r: F64x4 = from_fn(|i| (x[i] - n[i] * EXP64_LN2_HI) - n[i] * EXP64_LN2_LO);
    let r2: F64x4 = from_fn(|i| r[i] * r[i]);
    let mut even = [EXP64_EVEN[0]; LANES_F64];
    let mut odd = [EXP64_ODD[0]; LANES_F64];
    for (&ce, &co) in EXP64_EVEN[1..].iter().zip(&EXP64_ODD[1..]) {
        even = from_fn(|i| even[i] * r2[i] + ce);
        odd = from_fn(|i| odd[i] * r2[i] + co);
    }
    let q: F64x4 = from_fn(|i| odd[i] * r[i] + even[i]);
    let p: F64x4 = from_fn(|i| (q[i] * r2[i] + r[i]) + 1.0);
    // 2ⁿ⁻¹ straight from the shifted value: its low mantissa bits are `n`,
    // so adding the bias less one and shifting left by 52 drops everything
    // else and leaves `n + 1022 ∈ [1, 2046]` in the exponent field — a
    // normal number at both ends of the range. Unsigned add and shift only:
    // AVX2 has no 64-bit arithmetic shift, and one would scalarise the loop.
    // `(2p)·2ⁿ⁻¹` is then exact, and overflows exactly when `p·2ⁿ` does.
    let y: F64x4 = from_fn(|i| {
        let scale = f64::from_bits(shifted[i].to_bits().wrapping_add(1022) << 52);
        (p[i] * 2.0) * scale
    });
    // Saturate, flush and restore NaN lanes — three single-compare selects,
    // as in `exp8`.
    let y: F64x4 = from_fn(|i| if x[i] > EXP64_OVERFLOW { f64::INFINITY } else { y[i] });
    let y: F64x4 = from_fn(|i| if x[i] < EXP_F64_FLUSH { 0.0 } else { y[i] });
    from_fn(|i| if x[i].is_nan() { x[i] } else { y[i] })
}

/// Scalar `f64` exp — lane 0 of the four-lane kernel on a splat, so the
/// tail of [`exp_slice_f64`] agrees with its lanes bit for bit. Within
/// [`EXP_F64_MAX_ULP`] of libm on `[EXP_F64_FLUSH, ln f64::MAX]`; `+0.0`
/// below, `+∞` above, NaN preserved.
pub fn exp_f64(x: f64) -> f64 {
    exp4([x; LANES_F64])[0]
}

/// `xs[i] ← e^{xs[i]}` in place: four-lane groups, then the ≤3-element tail
/// through the splat path. Element `i` of the result depends on `xs[i]`
/// alone.
pub fn exp_slice_f64(xs: &mut [f64]) {
    let mut groups = xs.chunks_exact_mut(LANES_F64);
    for g in &mut groups {
        let mut lanes = [0.0; LANES_F64];
        lanes.copy_from_slice(g);
        g.copy_from_slice(&exp4(lanes));
    }
    for v in groups.into_remainder() {
        *v = exp_f64(*v);
    }
}

/// Running `Σr`, `Σr·x`, `Σr·x²` with `r = p·scale` — the sufficient
/// statistics of one Gaussian component under posterior weights. Rows go
/// to eight fixed accumulator lanes by their position in the block (so
/// every block but the last must be a multiple of eight long for the lanes
/// to be those of the whole column), a ragged end of block is summed
/// sequentially on its own, and [`WeightedMoments::totals`] combines the
/// lanes in the one `F32x8::hsum` order before adding it: the rounding
/// tree is a pure function of the block lengths.
#[derive(Debug, Clone, Copy, Default)]
pub struct WeightedMoments {
    lanes: [[f64; MOMENT_LANES]; 3],
    tail: [f64; 3],
}

impl WeightedMoments {
    /// Adds one block of rows: `r[i] = p[i]·scale[i]`, then `r`, `r·x[i]`
    /// and `(r·x[i])·x[i]`, each rounded separately.
    ///
    /// # Panics
    ///
    /// Panics if the three slices differ in length.
    pub fn add_block(&mut self, p: &[f64], scale: &[f64], x: &[f64]) {
        assert!(
            p.len() == scale.len() && p.len() == x.len(),
            "moment block slices differ in length"
        );
        // Local copies: through `&mut self` the compiler must assume the
        // accumulators alias the inputs and reloads them every group.
        let [mut s0, mut s1, mut s2] = self.lanes;
        let mut pg = p.chunks_exact(MOMENT_LANES);
        let mut sg = scale.chunks_exact(MOMENT_LANES);
        let mut xg = x.chunks_exact(MOMENT_LANES);
        for ((pc, sc), xc) in (&mut pg).zip(&mut sg).zip(&mut xg) {
            for l in 0..MOMENT_LANES {
                let r = pc[l] * sc[l];
                let rx = r * xc[l];
                s0[l] += r;
                s1[l] += rx;
                s2[l] += rx * xc[l];
            }
        }
        self.lanes = [s0, s1, s2];
        for ((&pv, &sv), &xv) in pg.remainder().iter().zip(sg.remainder()).zip(xg.remainder()) {
            let r = pv * sv;
            let rx = r * xv;
            self.tail[0] += r;
            self.tail[1] += rx;
            self.tail[2] += rx * xv;
        }
    }

    /// `[Σr, Σr·x, Σr·x²]`: per moment
    /// `(((l0+l4)+(l1+l5)) + ((l2+l6)+(l3+l7))) + tail`.
    pub fn totals(&self) -> [f64; 3] {
        std::array::from_fn(|m| {
            let l = self.lanes[m];
            (((l[0] + l[4]) + (l[1] + l[5])) + ((l[2] + l[6]) + (l[3] + l[7]))) + self.tail[m]
        })
    }
}

// --- matmul micro-kernel --------------------------------------------------

/// Output rows per register tile of the matmul micro-kernel. Six rows of
/// two `F32x8` are twelve 256-bit accumulators, which with the two panel
/// vectors and the broadcast take fifteen of x86-64-v3's sixteen
/// registers. Measured, not derived (DESIGN.md §8): with a separate
/// multiply and add 4 rows were a sixth faster than 2 and 6 no faster than
/// 4; with fused terms an FMA's latency on two ports wants more than the
/// eight accumulators of 4 rows in flight, and 6 rows run the paper-scale
/// shapes 6–10% faster than 4 (500×256×256 60.0 → 64.0, `xᵀ·g` 56.8 →
/// 62.7 GFLOP/s, medians of six interleaved rounds). A baseline build
/// computes each term with a libm `fmaf` call, whatever the height.
pub const MR: usize = 6;
/// Output columns per register tile: two `F32x8` accumulators per row,
/// and the width of a packed RHS panel.
pub const NR: usize = 2 * LANES;
/// Most rows one [`col_chains`] call takes: enough independent chains to
/// cover the multiply-add latency when the output is a single column.
pub(crate) const COL_ROWS: usize = 16;

/// A LHS read in place: element `(r, p)` — row `r`, contraction index `p` —
/// is `data[r·row + p·step]`. A row-major `n×k` matrix is `(row, step) =
/// (k, 1)`; its transpose, read without a copy, is `(1, n)`, so the values a
/// tile broadcasts at one `p` are contiguous. A broadcast load costs the same
/// at any stride, so one kernel serves both.
#[derive(Debug, Clone, Copy)]
pub(crate) struct Lhs<'a> {
    pub(crate) data: &'a [f32],
    pub(crate) row: usize,
    pub(crate) step: usize,
}

impl<'a> Lhs<'a> {
    /// The view with its first `i` rows skipped.
    #[inline(always)]
    pub(crate) fn skip_rows(self, i: usize) -> Lhs<'a> {
        Lhs { data: &self.data[i * self.row..], ..self }
    }

    /// Row `r` of length `k` (`k > 0`) as the slice from its first to its
    /// last element: element `p` is at `p·step`. Every row of a view has
    /// the same slice length, so a kernel indexing several rows at one `p`
    /// pays one bounds check, not one per row.
    #[inline(always)]
    pub(crate) fn strided_row(self, r: usize, k: usize) -> &'a [f32] {
        let start = r * self.row;
        &self.data[start..start + (k - 1) * self.step + 1]
    }
}

/// Packs the `k×m` RHS into `⌈m/NR⌉` column panels, appended to `out`:
/// panel `q` is the contiguous `k×NR` block of columns `q·NR ..`, the last
/// one zero-padded to full width, so the micro-kernel streams one panel
/// with unit stride and never sees a ragged row. The RHS is the row-major
/// `k×m` matrix `b`, or — `transposed` — `bᵀ` for a row-major `m×k` `b`,
/// read in place.
pub(crate) fn pack_panels(b: &[f32], k: usize, m: usize, transposed: bool, out: &mut Vec<f32>) {
    for j0 in (0..m).step_by(NR) {
        let w = NR.min(m - j0);
        for p in 0..k {
            if transposed {
                out.extend((j0..j0 + w).map(|j| b[j * k + p]));
            } else {
                out.extend_from_slice(&b[p * m + j0..p * m + j0 + w]);
            }
            out.resize(out.len() + NR - w, 0.0);
        }
    }
}

/// One `p` step of an `R × NV·LANES` tile: `acc[r][j] = av[r]·bp[j] +
/// acc[r][j]` as one fused multiply-add, rounded once.
#[inline(always)]
fn fma_step<const R: usize, const NV: usize>(acc: &mut [[F32x8; NV]; R], av: [f32; R], bp: &[f32]) {
    let b: [F32x8; NV] = std::array::from_fn(|v| F32x8::load(&bp[v * LANES..]));
    for r in 0..R {
        let av = F32x8::splat(av[r]);
        for v in 0..NV {
            acc[r][v] = av.mul_add(b[v], acc[r][v]);
        }
    }
}

/// `R × NV·LANES` register tile: [`fma_step`] for `p` ascending. Lanes run
/// across `j` only, so each `acc[r][j]` is the naive loop's accumulator.
/// `NV = 1` reads only the left half of each panel row.
///
/// The layouts read the LHS with one of two stride pairs, and each has a
/// `p`-loop of its own with one bounds check a step instead of one per
/// row: rows contiguous in `p` (`step == 1`) are cut to the same `k`
/// values, and a transposed LHS (`row == 1`) has the tile's `R` values at
/// one `p` side by side, one slice.
#[inline(always)]
fn tile_rows<const R: usize, const NV: usize>(
    a: Lhs,
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    m: usize,
    w: usize,
) {
    let mut acc = [[F32x8::splat(0.0); NV]; R];
    if a.step == 1 {
        let rows: [&[f32]; R] = std::array::from_fn(|r| &a.data[r * a.row..r * a.row + k]);
        for (p, bp) in panel[..k * NR].chunks_exact(NR).enumerate() {
            fma_step(&mut acc, std::array::from_fn(|r| rows[r][p]), bp);
        }
    } else {
        debug_assert_eq!(a.row, 1, "an LHS view is row-major or transposed");
        for (p, bp) in panel[..k * NR].chunks_exact(NR).enumerate() {
            let col = &a.data[p * a.step..p * a.step + R];
            fma_step(&mut acc, std::array::from_fn(|r| col[r]), bp);
        }
    }
    for (r, acc) in acc.iter().enumerate() {
        let mut flat = [0.0; NR];
        for (v, lanes) in acc.iter().enumerate() {
            lanes.store(&mut flat[v * LANES..]);
        }
        out[r * m..r * m + w].copy_from_slice(&flat[..w]);
    }
}

/// Matmul micro-kernel: `out[r·m + j] = Σ_p a(r, p)·panel[p·NR + j]` for
/// `r < rows ≤ MR` and `j < w ≤ NR`, where `a` holds the tile's `rows` LHS
/// rows of length `k`, read in place, `panel` is one [`pack_panels`] panel
/// and `out` starts at the tile's first element inside an output of row
/// stride `m`. Each sum is a single chain of fused multiply-adds in
/// ascending `p` — equal to the naive triple loop of `mul_add`s bit for bit
/// whatever `rows`, `w` and the LHS strides are. A tile at most [`LANES`]
/// wide (a ragged last panel, a narrow output) runs one accumulator per row
/// instead of two.
///
/// # Panics
///
/// Panics if `rows` is 0 or exceeds [`MR`], or a slice is too short.
pub(crate) fn tile(
    rows: usize,
    a: Lhs,
    k: usize,
    panel: &[f32],
    out: &mut [f32],
    m: usize,
    w: usize,
) {
    match (rows, w <= LANES) {
        (1, false) => tile_rows::<1, 2>(a, k, panel, out, m, w),
        (2, false) => tile_rows::<2, 2>(a, k, panel, out, m, w),
        (3, false) => tile_rows::<3, 2>(a, k, panel, out, m, w),
        (4, false) => tile_rows::<4, 2>(a, k, panel, out, m, w),
        (5, false) => tile_rows::<5, 2>(a, k, panel, out, m, w),
        (6, false) => tile_rows::<6, 2>(a, k, panel, out, m, w),
        (1, true) => tile_rows::<1, 1>(a, k, panel, out, m, w),
        (2, true) => tile_rows::<2, 1>(a, k, panel, out, m, w),
        (3, true) => tile_rows::<3, 1>(a, k, panel, out, m, w),
        (4, true) => tile_rows::<4, 1>(a, k, panel, out, m, w),
        (5, true) => tile_rows::<5, 1>(a, k, panel, out, m, w),
        (6, true) => tile_rows::<6, 1>(a, k, panel, out, m, w),
        _ => panic!("tile height {rows} outside 1..={MR}"),
    }
}

/// Single-column product (`m = 1`): `out[r] = Σ_p a(r, p)·b[p]` for
/// `r < rows ≤ COL_ROWS`. A one-wide tile would leave a single chain in
/// flight; here the lanes are the *rows*, each still its own ascending-`p`
/// chain of fused multiply-adds, so the result equals `tile`'s and the
/// naive loop's. A short group recomputes its last row in the spare lanes
/// and discards them.
///
/// A transposed LHS (`row == 1`, `aᵀ·g`) has the group's rows side by side
/// at each `p`: they are read as one contiguous run into two `F32x8`
/// accumulators (a short group through a zero-padded copy).
pub(crate) fn col_chains(rows: usize, a: Lhs, k: usize, b: &[f32], out: &mut [f32]) {
    if a.row == 1 {
        let mut acc = [F32x8::splat(0.0); 2];
        let mut step = |col: &[f32], bv: f32| {
            let bv = F32x8::splat(bv);
            acc[0] = F32x8::load(col).mul_add(bv, acc[0]);
            acc[1] = F32x8::load(&col[LANES..]).mul_add(bv, acc[1]);
        };
        if rows == COL_ROWS {
            for (p, &bv) in b[..k].iter().enumerate() {
                step(&a.data[p * a.step..p * a.step + COL_ROWS], bv);
            }
        } else {
            let mut col = [0.0; COL_ROWS];
            for (p, &bv) in b[..k].iter().enumerate() {
                col[..rows].copy_from_slice(&a.data[p * a.step..p * a.step + rows]);
                step(&col, bv);
            }
        }
        let mut flat = [0.0; COL_ROWS];
        acc[0].store(&mut flat);
        acc[1].store(&mut flat[LANES..]);
        out[..rows].copy_from_slice(&flat[..rows]);
        return;
    }
    let lhs: [&[f32]; COL_ROWS] = std::array::from_fn(|r| a.strided_row(r.min(rows - 1), k));
    let mut acc = [0.0; COL_ROWS];
    for (p, &bv) in b[..k].iter().enumerate() {
        let at = p * a.step;
        for r in 0..COL_ROWS {
            acc[r] = lhs[r][at].mul_add(bv, acc[r]);
        }
    }
    out[..rows].copy_from_slice(&acc[..rows]);
}

/// A product with one contraction term (`k = 1`), the outer product
/// `out[i·m + j] = a[i]·b[j]` appended to `out`: each element is the naive
/// chain's single step `a[i].mul_add(b[j], +0.0)`, so a `−0` product still
/// ends `+0` and the bits are the other arms'. Lanes run across `j`.
pub(crate) fn outer(a: &[f32], b: &[f32], out: &mut Vec<f32>) {
    let zero = F32x8::splat(0.0);
    for &av in a {
        let splat = F32x8::splat(av);
        let mut groups = b.chunks_exact(LANES);
        for g in &mut groups {
            out.extend_from_slice(&splat.mul_add(F32x8::load(g), zero).0);
        }
        out.extend(groups.remainder().iter().map(|&bv| av.mul_add(bv, 0.0)));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn scalar_forms_are_lane_zero_of_the_lane_kernels() {
        for &v in &[-3.0f32, -0.2, 0.0, 0.4, 2.5, 9.0] {
            assert_eq!(tanh(v).to_bits(), tanh8(F32x8::splat(v)).0[0].to_bits());
            assert_eq!(sigmoid(v).to_bits(), sigmoid8(F32x8::splat(v)).0[0].to_bits());
            assert_eq!(exp(v).to_bits(), exp8(F32x8::splat(v)).0[0].to_bits());
        }
    }

    #[test]
    fn lane_position_is_unobservable() {
        // The same value must produce the same bits in every lane slot.
        let xs = [-5.0f32, -1.0, -0.25, 0.0, 0.25, 1.0, 5.0, 20.0];
        let lanes = tanh8(F32x8(xs));
        for (i, &x) in xs.iter().enumerate() {
            assert_eq!(lanes.0[i].to_bits(), tanh(x).to_bits(), "lane {i}");
        }
    }

    #[test]
    fn sum_matches_integer_arithmetic() {
        let xs: Vec<f32> = (0..1000).map(|v| (v % 11) as f32).collect();
        let expected: f32 = xs.iter().sum();
        assert_eq!(sum(&xs), expected);
    }

    #[test]
    fn exp_edge_values() {
        assert_eq!(exp(0.0), 1.0);
        assert_eq!(exp(f32::NEG_INFINITY), 0.0);
        assert_eq!(exp(f32::INFINITY), f32::INFINITY);
        assert!(exp(f32::NAN).is_nan());
        assert_eq!(exp(-200.0), 0.0);
        assert_eq!(exp(200.0), f32::INFINITY);
    }

    #[test]
    fn tanh_edge_values() {
        assert_eq!(tanh(0.0).to_bits(), 0.0f32.to_bits());
        assert_eq!(tanh(-0.0).to_bits(), (-0.0f32).to_bits());
        assert!(tanh(f32::NAN).is_nan());
        assert!((tanh(f32::INFINITY) - 1.0).abs() < 1e-6);
        assert!((tanh(f32::NEG_INFINITY) + 1.0).abs() < 1e-6);
    }
}
