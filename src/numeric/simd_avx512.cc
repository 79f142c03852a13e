/**
 * @file
 * AVX-512 backend of the SIMD kernel layer (requires F+BW+VL, so it
 * runs on every AVX-512 server core back to Skylake-X).
 *
 * Compiled with -mavx512f -mavx512bw -mavx512vl per-file; the body is guarded on
 * the matching macros so the file is an empty TU on compilers that
 * cannot target AVX-512. Executed only after runtime CPUID
 * verification of both features.
 *
 * 512-bit lanes: one 16 x int32 vector per 64-byte output cache line,
 * with masked epilogues instead of scalar tail loops. Popcounts use
 * the 512-bit nibble-LUT shuffle (BW) rather than VPOPCNTDQ so the
 * dispatch requirement stays broad. Float kernels use explicit
 * mul-then-add (never FMA) to stay bit-identical to scalar.
 */

#include "numeric/simd.hh"

#if defined(__AVX512F__) && defined(__AVX512BW__) && defined(__AVX512VL__)

#include <immintrin.h>

namespace phi::simd
{

namespace
{

inline __mmask16
tailMask16(size_t rem)
{
    return static_cast<__mmask16>((1u << rem) - 1);
}

void
avx512AddRowsI16(int32_t* out, const int16_t* const* rows, size_t m,
                 size_t n)
{
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
        // One output cache line held in a register across all m rows.
        __m512i acc = _mm512_loadu_si512(out + c);
        for (size_t j = 0; j < m; ++j)
            acc = _mm512_add_epi32(
                acc, _mm512_cvtepi16_epi32(_mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(rows[j] +
                                                          c))));
        _mm512_storeu_si512(out + c, acc);
    }
    if (c < n) {
        const __mmask16 mask = tailMask16(n - c);
        __m512i acc = _mm512_maskz_loadu_epi32(mask, out + c);
        for (size_t j = 0; j < m; ++j)
            acc = _mm512_add_epi32(
                acc, _mm512_cvtepi16_epi32(
                         _mm256_maskz_loadu_epi16(mask, rows[j] + c)));
        _mm512_mask_storeu_epi32(out + c, mask, acc);
    }
}

void
avx512AddRowsF32(float* out, const float* const* rows, size_t m,
                 size_t n)
{
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
        __m512 acc = _mm512_loadu_ps(out + c);
        for (size_t j = 0; j < m; ++j)
            acc = _mm512_add_ps(acc, _mm512_loadu_ps(rows[j] + c));
        _mm512_storeu_ps(out + c, acc);
    }
    if (c < n) {
        const __mmask16 mask = tailMask16(n - c);
        __m512 acc = _mm512_maskz_loadu_ps(mask, out + c);
        for (size_t j = 0; j < m; ++j)
            acc = _mm512_add_ps(acc,
                                _mm512_maskz_loadu_ps(mask, rows[j] + c));
        _mm512_mask_storeu_ps(out + c, mask, acc);
    }
}

void
avx512StoreRowsI16(int32_t* out, const int16_t* const* rows, size_t m,
                   size_t n)
{
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
        __m512i acc = _mm512_setzero_si512();
        for (size_t j = 0; j < m; ++j)
            acc = _mm512_add_epi32(
                acc, _mm512_cvtepi16_epi32(_mm256_loadu_si256(
                         reinterpret_cast<const __m256i*>(rows[j] +
                                                          c))));
        _mm512_storeu_si512(out + c, acc);
    }
    if (c < n) {
        const __mmask16 mask = tailMask16(n - c);
        __m512i acc = _mm512_setzero_si512();
        for (size_t j = 0; j < m; ++j)
            acc = _mm512_add_epi32(
                acc, _mm512_cvtepi16_epi32(
                         _mm256_maskz_loadu_epi16(mask, rows[j] + c)));
        _mm512_mask_storeu_epi32(out + c, mask, acc);
    }
}

// 16 int32 lanes widened from each arena element width.
inline __m512i
load16(const int32_t* p)
{
    return _mm512_loadu_si512(p);
}

inline __m512i
load16(const int16_t* p)
{
    return _mm512_cvtepi16_epi32(
        _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p)));
}

inline __m512i
load16(const int8_t* p)
{
    return _mm512_cvtepi8_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline __m512i
load16Tail(__mmask16 mask, const int32_t* p)
{
    return _mm512_maskz_loadu_epi32(mask, p);
}

inline __m512i
load16Tail(__mmask16 mask, const int16_t* p)
{
    return _mm512_cvtepi16_epi32(_mm256_maskz_loadu_epi16(mask, p));
}

inline __m512i
load16Tail(__mmask16 mask, const int8_t* p)
{
    return _mm512_cvtepi8_epi32(_mm_maskz_loadu_epi8(mask, p));
}

/**
 * Arena-gather body shared by the three element widths. Unlike the
 * 16-lane-block kernels above, the main loop holds FOUR output cache
 * lines (64 columns) in independent accumulators and visits every
 * source row once per pass — the four add chains are independent, so
 * the sequential 64/128/256-byte row reads overlap instead of
 * serialising on one accumulator, and each arena row is streamed
 * front-to-back exactly once. That single-pass shape (not vector
 * width) is what converts the contiguous arena layout into a
 * bandwidth win.
 */
template <typename Elem>
void
avx512PwpGather(int32_t* out, const Elem* arena, const uint64_t* rowBase,
                const uint16_t* ids, size_t numTiles, size_t stride,
                const int16_t* const* pos, size_t nPos,
                const int16_t* const* neg, size_t nNeg, size_t n)
{
    size_t c = 0;
    for (; c + 64 <= n; c += 64) {
        __m512i a0 = _mm512_setzero_si512();
        __m512i a1 = _mm512_setzero_si512();
        __m512i a2 = _mm512_setzero_si512();
        __m512i a3 = _mm512_setzero_si512();
        for (size_t t = 0; t < numTiles; ++t) {
            const uint32_t id = ids[t];
            if (!id)
                continue;
            const Elem* p = arena + (rowBase[t] + id - 1) * stride + c;
            a0 = _mm512_add_epi32(a0, load16(p));
            a1 = _mm512_add_epi32(a1, load16(p + 16));
            a2 = _mm512_add_epi32(a2, load16(p + 32));
            a3 = _mm512_add_epi32(a3, load16(p + 48));
        }
        for (size_t j = 0; j < nPos; ++j) {
            const int16_t* p = pos[j] + c;
            a0 = _mm512_add_epi32(a0, load16(p));
            a1 = _mm512_add_epi32(a1, load16(p + 16));
            a2 = _mm512_add_epi32(a2, load16(p + 32));
            a3 = _mm512_add_epi32(a3, load16(p + 48));
        }
        for (size_t j = 0; j < nNeg; ++j) {
            const int16_t* p = neg[j] + c;
            a0 = _mm512_sub_epi32(a0, load16(p));
            a1 = _mm512_sub_epi32(a1, load16(p + 16));
            a2 = _mm512_sub_epi32(a2, load16(p + 32));
            a3 = _mm512_sub_epi32(a3, load16(p + 48));
        }
        _mm512_storeu_si512(out + c, a0);
        _mm512_storeu_si512(out + c + 16, a1);
        _mm512_storeu_si512(out + c + 32, a2);
        _mm512_storeu_si512(out + c + 48, a3);
    }
    for (; c + 16 <= n; c += 16) {
        __m512i acc = _mm512_setzero_si512();
        for (size_t t = 0; t < numTiles; ++t) {
            const uint32_t id = ids[t];
            if (!id)
                continue;
            acc = _mm512_add_epi32(
                acc,
                load16(arena + (rowBase[t] + id - 1) * stride + c));
        }
        for (size_t j = 0; j < nPos; ++j)
            acc = _mm512_add_epi32(acc, load16(pos[j] + c));
        for (size_t j = 0; j < nNeg; ++j)
            acc = _mm512_sub_epi32(acc, load16(neg[j] + c));
        _mm512_storeu_si512(out + c, acc);
    }
    if (c < n) {
        const __mmask16 mask = tailMask16(n - c);
        __m512i acc = _mm512_setzero_si512();
        for (size_t t = 0; t < numTiles; ++t) {
            const uint32_t id = ids[t];
            if (!id)
                continue;
            acc = _mm512_add_epi32(
                acc,
                load16Tail(mask,
                           arena + (rowBase[t] + id - 1) * stride + c));
        }
        for (size_t j = 0; j < nPos; ++j)
            acc = _mm512_add_epi32(acc, load16Tail(mask, pos[j] + c));
        for (size_t j = 0; j < nNeg; ++j)
            acc = _mm512_sub_epi32(acc, load16Tail(mask, neg[j] + c));
        _mm512_mask_storeu_epi32(out + c, mask, acc);
    }
}

void
avx512PwpGatherI32(int32_t* out, const int32_t* arena,
                   const uint64_t* rowBase, const uint16_t* ids,
                   size_t numTiles, size_t stride,
                   const int16_t* const* pos, size_t nPos,
                   const int16_t* const* neg, size_t nNeg, size_t n)
{
    avx512PwpGather(out, arena, rowBase, ids, numTiles, stride, pos,
                    nPos, neg, nNeg, n);
}

void
avx512PwpGatherI16(int32_t* out, const int16_t* arena,
                   const uint64_t* rowBase, const uint16_t* ids,
                   size_t numTiles, size_t stride,
                   const int16_t* const* pos, size_t nPos,
                   const int16_t* const* neg, size_t nNeg, size_t n)
{
    avx512PwpGather(out, arena, rowBase, ids, numTiles, stride, pos,
                    nPos, neg, nNeg, n);
}

void
avx512PwpGatherI8(int32_t* out, const int8_t* arena,
                  const uint64_t* rowBase, const uint16_t* ids,
                  size_t numTiles, size_t stride,
                  const int16_t* const* pos, size_t nPos,
                  const int16_t* const* neg, size_t nNeg, size_t n)
{
    avx512PwpGather(out, arena, rowBase, ids, numTiles, stride, pos,
                    nPos, neg, nNeg, n);
}

void
avx512FmaRowF32(float* out, const float* src, float a, size_t n)
{
    const __m512 av = _mm512_set1_ps(a);
    size_t i = 0;
    for (; i + 16 <= n; i += 16) {
        const __m512 prod = _mm512_mul_ps(av, _mm512_loadu_ps(src + i));
        _mm512_storeu_ps(
            out + i, _mm512_add_ps(_mm512_loadu_ps(out + i), prod));
    }
    if (i < n) {
        const __mmask16 m = tailMask16(n - i);
        const __m512 prod =
            _mm512_mul_ps(av, _mm512_maskz_loadu_ps(m, src + i));
        _mm512_mask_storeu_ps(
            out + i, m,
            _mm512_add_ps(_mm512_maskz_loadu_ps(m, out + i), prod));
    }
}

/** Per-byte popcount of a 512-bit vector via the nibble LUT (BW). */
inline __m512i
popcountBytes(__m512i v)
{
    const __m512i lut = _mm512_broadcast_i32x4(_mm_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4));
    const __m512i low = _mm512_set1_epi8(0x0f);
    const __m512i lo = _mm512_and_si512(v, low);
    const __m512i hi =
        _mm512_and_si512(_mm512_srli_epi16(v, 4), low);
    return _mm512_add_epi8(_mm512_shuffle_epi8(lut, lo),
                           _mm512_shuffle_epi8(lut, hi));
}

uint64_t
avx512PopcountWords(const uint64_t* words, size_t n)
{
    __m512i acc = _mm512_setzero_si512();
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i v = _mm512_loadu_si512(words + i);
        acc = _mm512_add_epi64(
            acc, _mm512_sad_epu8(popcountBytes(v),
                                 _mm512_setzero_si512()));
    }
    uint64_t total =
        static_cast<uint64_t>(_mm512_reduce_add_epi64(acc));
    for (; i < n; ++i)
        total += static_cast<uint64_t>(
            __builtin_popcountll(words[i]));
    return total;
}

void
avx512HammingScan(uint64_t row, const uint64_t* pats, size_t n,
                  uint8_t* dist)
{
    const __m512i rv =
        _mm512_set1_epi64(static_cast<long long>(row));
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m512i x =
            _mm512_xor_si512(_mm512_loadu_si512(pats + i), rv);
        // Each 64-bit lane's byte-popcounts collapse via psadbw into
        // one count <= 64; narrow the eight lanes to bytes in order.
        const __m512i sums = _mm512_sad_epu8(popcountBytes(x),
                                             _mm512_setzero_si512());
        const __m128i bytes = _mm512_cvtepi64_epi8(sums);
        _mm_storeu_si64(dist + i, bytes);
    }
    for (; i < n; ++i)
        dist[i] = static_cast<uint8_t>(
            __builtin_popcountll(pats[i] ^ row));
}

constexpr Kernels kAvx512Kernels = {
    .isa = SimdIsa::Avx512,
    .name = "avx512",
    .addRowsI16 = avx512AddRowsI16,
    .addRowsF32 = avx512AddRowsF32,
    .storeRowsI16 = avx512StoreRowsI16,
    .fmaRowF32 = avx512FmaRowF32,
    .popcountWords = avx512PopcountWords,
    .hammingScan = avx512HammingScan,
    .pwpGatherI32 = avx512PwpGatherI32,
    .pwpGatherI16 = avx512PwpGatherI16,
    .pwpGatherI8 = avx512PwpGatherI8,
};

} // namespace

const Kernels&
avx512Kernels()
{
    return kAvx512Kernels;
}

} // namespace phi::simd

#endif // __AVX512F__ && __AVX512BW__
