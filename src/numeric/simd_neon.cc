/**
 * @file
 * NEON backend of the SIMD kernel layer (AArch64, where NEON is
 * architecturally baseline — no runtime feature check needed).
 *
 * 128-bit lanes, unrolled to an 8-element step. Popcounts use vcnt on
 * bytes with pairwise widening adds. Float kernels use explicit
 * mul-then-add (vmulq + vaddq, never vfma) to stay bit-identical to
 * the scalar reference.
 */

#include "numeric/simd.hh"

#if defined(__aarch64__)

#include <arm_neon.h>

namespace phi::simd
{

namespace
{

void
neonAddRowsI16(int32_t* out, const int16_t* const* rows, size_t m,
               size_t n)
{
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        // Two output vectors held in registers across all m rows.
        int32x4_t a0 = vld1q_s32(out + c);
        int32x4_t a1 = vld1q_s32(out + c + 4);
        for (size_t j = 0; j < m; ++j) {
            const int16x8_t wv = vld1q_s16(rows[j] + c);
            a0 = vaddw_s16(a0, vget_low_s16(wv));
            a1 = vaddw_high_s16(a1, wv);
        }
        vst1q_s32(out + c, a0);
        vst1q_s32(out + c + 4, a1);
    }
    for (; c < n; ++c) {
        int32_t acc = out[c];
        for (size_t j = 0; j < m; ++j)
            acc += rows[j][c];
        out[c] = acc;
    }
}

void
neonAddRowsF32(float* out, const float* const* rows, size_t m, size_t n)
{
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        float32x4_t a0 = vld1q_f32(out + c);
        float32x4_t a1 = vld1q_f32(out + c + 4);
        for (size_t j = 0; j < m; ++j) {
            a0 = vaddq_f32(a0, vld1q_f32(rows[j] + c));
            a1 = vaddq_f32(a1, vld1q_f32(rows[j] + c + 4));
        }
        vst1q_f32(out + c, a0);
        vst1q_f32(out + c + 4, a1);
    }
    for (; c < n; ++c) {
        float acc = out[c];
        for (size_t j = 0; j < m; ++j)
            acc += rows[j][c];
        out[c] = acc;
    }
}

void
neonStoreRowsI16(int32_t* out, const int16_t* const* rows, size_t m,
                 size_t n)
{
    size_t c = 0;
    for (; c + 8 <= n; c += 8) {
        int32x4_t a0 = vdupq_n_s32(0);
        int32x4_t a1 = vdupq_n_s32(0);
        for (size_t j = 0; j < m; ++j) {
            const int16x8_t wv = vld1q_s16(rows[j] + c);
            a0 = vaddw_s16(a0, vget_low_s16(wv));
            a1 = vaddw_high_s16(a1, wv);
        }
        vst1q_s32(out + c, a0);
        vst1q_s32(out + c + 4, a1);
    }
    for (; c < n; ++c) {
        int32_t acc = 0;
        for (size_t j = 0; j < m; ++j)
            acc += rows[j][c];
        out[c] = acc;
    }
}

// Widening accumulate of 8 lanes from each arena element width into
// two int32x4 accumulators.
inline void
accum8(int32x4_t& a0, int32x4_t& a1, const int32_t* p)
{
    a0 = vaddq_s32(a0, vld1q_s32(p));
    a1 = vaddq_s32(a1, vld1q_s32(p + 4));
}

inline void
accum8(int32x4_t& a0, int32x4_t& a1, const int16_t* p)
{
    const int16x8_t wv = vld1q_s16(p);
    a0 = vaddw_s16(a0, vget_low_s16(wv));
    a1 = vaddw_high_s16(a1, wv);
}

inline void
accum8(int32x4_t& a0, int32x4_t& a1, const int8_t* p)
{
    const int16x8_t wv = vmovl_s8(vld1_s8(p));
    a0 = vaddw_s16(a0, vget_low_s16(wv));
    a1 = vaddw_high_s16(a1, wv);
}

/**
 * Arena-gather body shared by the three element widths. The main loop
 * holds four output vector blocks (16 columns) in independent
 * accumulators and visits every source row once per pass — see the
 * avx512 counterpart for the rationale.
 */
template <typename Elem>
void
neonPwpGather(int32_t* out, const Elem* arena, const uint64_t* rowBase,
              const uint16_t* ids, size_t numTiles, size_t stride,
              const int16_t* const* pos, size_t nPos,
              const int16_t* const* neg, size_t nNeg, size_t n)
{
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
        int32x4_t a0 = vdupq_n_s32(0);
        int32x4_t a1 = vdupq_n_s32(0);
        int32x4_t a2 = vdupq_n_s32(0);
        int32x4_t a3 = vdupq_n_s32(0);
        for (size_t t = 0; t < numTiles; ++t) {
            const uint32_t id = ids[t];
            if (!id)
                continue;
            const Elem* p = arena + (rowBase[t] + id - 1) * stride + c;
            accum8(a0, a1, p);
            accum8(a2, a3, p + 8);
        }
        for (size_t j = 0; j < nPos; ++j) {
            const int16_t* p = pos[j] + c;
            accum8(a0, a1, p);
            accum8(a2, a3, p + 8);
        }
        for (size_t j = 0; j < nNeg; ++j) {
            const int16_t* p = neg[j] + c;
            const int16x8_t lo = vld1q_s16(p);
            const int16x8_t hi = vld1q_s16(p + 8);
            a0 = vsubw_s16(a0, vget_low_s16(lo));
            a1 = vsubw_high_s16(a1, lo);
            a2 = vsubw_s16(a2, vget_low_s16(hi));
            a3 = vsubw_high_s16(a3, hi);
        }
        vst1q_s32(out + c, a0);
        vst1q_s32(out + c + 4, a1);
        vst1q_s32(out + c + 8, a2);
        vst1q_s32(out + c + 12, a3);
    }
    for (; c + 8 <= n; c += 8) {
        int32x4_t a0 = vdupq_n_s32(0);
        int32x4_t a1 = vdupq_n_s32(0);
        for (size_t t = 0; t < numTiles; ++t) {
            const uint32_t id = ids[t];
            if (!id)
                continue;
            accum8(a0, a1, arena + (rowBase[t] + id - 1) * stride + c);
        }
        for (size_t j = 0; j < nPos; ++j)
            accum8(a0, a1, pos[j] + c);
        for (size_t j = 0; j < nNeg; ++j) {
            const int16x8_t wv = vld1q_s16(neg[j] + c);
            a0 = vsubw_s16(a0, vget_low_s16(wv));
            a1 = vsubw_high_s16(a1, wv);
        }
        vst1q_s32(out + c, a0);
        vst1q_s32(out + c + 4, a1);
    }
    for (; c < n; ++c) {
        int32_t acc = 0;
        for (size_t t = 0; t < numTiles; ++t) {
            const uint32_t id = ids[t];
            if (!id)
                continue;
            acc += arena[(rowBase[t] + id - 1) * stride + c];
        }
        for (size_t j = 0; j < nPos; ++j)
            acc += pos[j][c];
        for (size_t j = 0; j < nNeg; ++j)
            acc -= neg[j][c];
        out[c] = acc;
    }
}

void
neonPwpGatherI32(int32_t* out, const int32_t* arena,
                 const uint64_t* rowBase, const uint16_t* ids,
                 size_t numTiles, size_t stride,
                 const int16_t* const* pos, size_t nPos,
                 const int16_t* const* neg, size_t nNeg, size_t n)
{
    neonPwpGather(out, arena, rowBase, ids, numTiles, stride, pos, nPos,
                  neg, nNeg, n);
}

void
neonPwpGatherI16(int32_t* out, const int16_t* arena,
                 const uint64_t* rowBase, const uint16_t* ids,
                 size_t numTiles, size_t stride,
                 const int16_t* const* pos, size_t nPos,
                 const int16_t* const* neg, size_t nNeg, size_t n)
{
    neonPwpGather(out, arena, rowBase, ids, numTiles, stride, pos, nPos,
                  neg, nNeg, n);
}

void
neonPwpGatherI8(int32_t* out, const int8_t* arena,
                const uint64_t* rowBase, const uint16_t* ids,
                size_t numTiles, size_t stride,
                const int16_t* const* pos, size_t nPos,
                const int16_t* const* neg, size_t nNeg, size_t n)
{
    neonPwpGather(out, arena, rowBase, ids, numTiles, stride, pos, nPos,
                  neg, nNeg, n);
}

void
neonFmaRowF32(float* out, const float* src, float a, size_t n)
{
    const float32x4_t av = vdupq_n_f32(a);
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const float32x4_t prod = vmulq_f32(av, vld1q_f32(src + i));
        vst1q_f32(out + i, vaddq_f32(vld1q_f32(out + i), prod));
    }
    for (; i < n; ++i)
        out[i] += a * src[i];
}

uint64_t
neonPopcountWords(const uint64_t* words, size_t n)
{
    uint64_t total = 0;
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint8x16_t v =
            vreinterpretq_u8_u64(vld1q_u64(words + i));
        total += vaddlvq_u8(vcntq_u8(v));
    }
    for (; i < n; ++i)
        total += static_cast<uint64_t>(
            __builtin_popcountll(words[i]));
    return total;
}

void
neonHammingScan(uint64_t row, const uint64_t* pats, size_t n,
                uint8_t* dist)
{
    const uint64x2_t rv = vdupq_n_u64(row);
    size_t i = 0;
    for (; i + 2 <= n; i += 2) {
        const uint64x2_t x = veorq_u64(vld1q_u64(pats + i), rv);
        const uint8x16_t cnt = vcntq_u8(vreinterpretq_u8_u64(x));
        // Sum each 8-byte half independently: lane popcounts <= 64.
        const uint64x2_t sums =
            vpaddlq_u32(vpaddlq_u16(vpaddlq_u8(cnt)));
        dist[i] = static_cast<uint8_t>(vgetq_lane_u64(sums, 0));
        dist[i + 1] = static_cast<uint8_t>(vgetq_lane_u64(sums, 1));
    }
    for (; i < n; ++i)
        dist[i] = static_cast<uint8_t>(
            __builtin_popcountll(pats[i] ^ row));
}

constexpr Kernels kNeonKernels = {
    .isa = SimdIsa::Neon,
    .name = "neon",
    .addRowsI16 = neonAddRowsI16,
    .addRowsF32 = neonAddRowsF32,
    .storeRowsI16 = neonStoreRowsI16,
    .fmaRowF32 = neonFmaRowF32,
    .popcountWords = neonPopcountWords,
    .hammingScan = neonHammingScan,
    .pwpGatherI32 = neonPwpGatherI32,
    .pwpGatherI16 = neonPwpGatherI16,
    .pwpGatherI8 = neonPwpGatherI8,
};

} // namespace

const Kernels&
neonKernels()
{
    return kNeonKernels;
}

} // namespace phi::simd

#endif // __aarch64__
