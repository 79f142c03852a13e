/**
 * @file
 * AVX2 backend of the SIMD kernel layer.
 *
 * Compiled with -mavx2 (CMake sets the flag per-file and defines
 * PHI_HAVE_SIMD_AVX2 for the dispatcher); the whole body is guarded on
 * __AVX2__ so the file degrades to an empty TU when the compiler cannot
 * target AVX2. Executed only after runtime CPUID verification.
 *
 * 256-bit lanes: 8 int32/float per vector, unrolled to a 16-element
 * step so one iteration retires a whole 64-byte output cache line.
 * Popcounts use the classic 4-bit-LUT pshufb + psadbw reduction. Float
 * kernels use explicit mul-then-add (never FMA) to stay bit-identical
 * to the scalar reference.
 */

#include "numeric/simd.hh"

#if defined(__AVX2__)

#include <immintrin.h>

namespace phi::simd
{

namespace
{

void
avx2AddRowsI16(int32_t* out, const int16_t* const* rows, size_t m,
               size_t n)
{
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
        // Keep one output cache line in registers across all m rows.
        __m256i* o0 = reinterpret_cast<__m256i*>(out + c);
        __m256i* o1 = reinterpret_cast<__m256i*>(out + c + 8);
        __m256i a0 = _mm256_loadu_si256(o0);
        __m256i a1 = _mm256_loadu_si256(o1);
        for (size_t j = 0; j < m; ++j) {
            // Two 128-bit loads fold into vpmovsxwd's memory operand.
            a0 = _mm256_add_epi32(
                a0, _mm256_cvtepi16_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(rows[j] + c))));
            a1 = _mm256_add_epi32(
                a1, _mm256_cvtepi16_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(rows[j] + c +
                                                         8))));
        }
        _mm256_storeu_si256(o0, a0);
        _mm256_storeu_si256(o1, a1);
    }
    for (; c < n; ++c) {
        int32_t acc = out[c];
        for (size_t j = 0; j < m; ++j)
            acc += rows[j][c];
        out[c] = acc;
    }
}

void
avx2AddRowsF32(float* out, const float* const* rows, size_t m, size_t n)
{
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
        __m256 a0 = _mm256_loadu_ps(out + c);
        __m256 a1 = _mm256_loadu_ps(out + c + 8);
        for (size_t j = 0; j < m; ++j) {
            a0 = _mm256_add_ps(a0, _mm256_loadu_ps(rows[j] + c));
            a1 = _mm256_add_ps(a1, _mm256_loadu_ps(rows[j] + c + 8));
        }
        _mm256_storeu_ps(out + c, a0);
        _mm256_storeu_ps(out + c + 8, a1);
    }
    for (; c < n; ++c) {
        float acc = out[c];
        for (size_t j = 0; j < m; ++j)
            acc += rows[j][c];
        out[c] = acc;
    }
}

void
avx2StoreRowsI16(int32_t* out, const int16_t* const* rows, size_t m,
                 size_t n)
{
    size_t c = 0;
    for (; c + 16 <= n; c += 16) {
        __m256i a0 = _mm256_setzero_si256();
        __m256i a1 = _mm256_setzero_si256();
        for (size_t j = 0; j < m; ++j) {
            // Two 128-bit loads fold into vpmovsxwd's memory operand.
            a0 = _mm256_add_epi32(
                a0, _mm256_cvtepi16_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(rows[j] + c))));
            a1 = _mm256_add_epi32(
                a1, _mm256_cvtepi16_epi32(_mm_loadu_si128(
                        reinterpret_cast<const __m128i*>(rows[j] + c +
                                                         8))));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c), a0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c + 8),
                            a1);
    }
    for (; c < n; ++c) {
        int32_t acc = 0;
        for (size_t j = 0; j < m; ++j)
            acc += rows[j][c];
        out[c] = acc;
    }
}

// 8 int32 lanes widened from each arena element width.
inline __m256i
load8(const int32_t* p)
{
    return _mm256_loadu_si256(reinterpret_cast<const __m256i*>(p));
}

inline __m256i
load8(const int16_t* p)
{
    return _mm256_cvtepi16_epi32(
        _mm_loadu_si128(reinterpret_cast<const __m128i*>(p)));
}

inline __m256i
load8(const int8_t* p)
{
    // vpmovsxbd widens the low 8 bytes of the 128-bit source.
    return _mm256_cvtepi8_epi32(
        _mm_loadl_epi64(reinterpret_cast<const __m128i*>(p)));
}

/**
 * Arena-gather body shared by the three element widths. The main loop
 * holds four output vector blocks (32 columns) in independent
 * accumulators and visits every source row once per pass, so the
 * sequential row reads overlap instead of serialising on one
 * accumulator chain — see the avx512 counterpart for the full
 * rationale.
 */
template <typename Elem>
void
avx2PwpGather(int32_t* out, const Elem* arena, const uint64_t* rowBase,
              const uint16_t* ids, size_t numTiles, size_t stride,
              const int16_t* const* pos, size_t nPos,
              const int16_t* const* neg, size_t nNeg, size_t n)
{
    size_t c = 0;
    for (; c + 32 <= n; c += 32) {
        __m256i a0 = _mm256_setzero_si256();
        __m256i a1 = _mm256_setzero_si256();
        __m256i a2 = _mm256_setzero_si256();
        __m256i a3 = _mm256_setzero_si256();
        for (size_t t = 0; t < numTiles; ++t) {
            const uint32_t id = ids[t];
            if (!id)
                continue;
            const Elem* p = arena + (rowBase[t] + id - 1) * stride + c;
            a0 = _mm256_add_epi32(a0, load8(p));
            a1 = _mm256_add_epi32(a1, load8(p + 8));
            a2 = _mm256_add_epi32(a2, load8(p + 16));
            a3 = _mm256_add_epi32(a3, load8(p + 24));
        }
        for (size_t j = 0; j < nPos; ++j) {
            const int16_t* p = pos[j] + c;
            a0 = _mm256_add_epi32(a0, load8(p));
            a1 = _mm256_add_epi32(a1, load8(p + 8));
            a2 = _mm256_add_epi32(a2, load8(p + 16));
            a3 = _mm256_add_epi32(a3, load8(p + 24));
        }
        for (size_t j = 0; j < nNeg; ++j) {
            const int16_t* p = neg[j] + c;
            a0 = _mm256_sub_epi32(a0, load8(p));
            a1 = _mm256_sub_epi32(a1, load8(p + 8));
            a2 = _mm256_sub_epi32(a2, load8(p + 16));
            a3 = _mm256_sub_epi32(a3, load8(p + 24));
        }
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c), a0);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c + 8),
                            a1);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c + 16),
                            a2);
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c + 24),
                            a3);
    }
    for (; c + 8 <= n; c += 8) {
        __m256i acc = _mm256_setzero_si256();
        for (size_t t = 0; t < numTiles; ++t) {
            const uint32_t id = ids[t];
            if (!id)
                continue;
            acc = _mm256_add_epi32(
                acc, load8(arena + (rowBase[t] + id - 1) * stride + c));
        }
        for (size_t j = 0; j < nPos; ++j)
            acc = _mm256_add_epi32(acc, load8(pos[j] + c));
        for (size_t j = 0; j < nNeg; ++j)
            acc = _mm256_sub_epi32(acc, load8(neg[j] + c));
        _mm256_storeu_si256(reinterpret_cast<__m256i*>(out + c), acc);
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
avx2PwpGatherI32(int32_t* out, const int32_t* arena,
                 const uint64_t* rowBase, const uint16_t* ids,
                 size_t numTiles, size_t stride,
                 const int16_t* const* pos, size_t nPos,
                 const int16_t* const* neg, size_t nNeg, size_t n)
{
    avx2PwpGather(out, arena, rowBase, ids, numTiles, stride, pos, nPos,
                  neg, nNeg, n);
}

void
avx2PwpGatherI16(int32_t* out, const int16_t* arena,
                 const uint64_t* rowBase, const uint16_t* ids,
                 size_t numTiles, size_t stride,
                 const int16_t* const* pos, size_t nPos,
                 const int16_t* const* neg, size_t nNeg, size_t n)
{
    avx2PwpGather(out, arena, rowBase, ids, numTiles, stride, pos, nPos,
                  neg, nNeg, n);
}

void
avx2PwpGatherI8(int32_t* out, const int8_t* arena,
                const uint64_t* rowBase, const uint16_t* ids,
                size_t numTiles, size_t stride,
                const int16_t* const* pos, size_t nPos,
                const int16_t* const* neg, size_t nNeg, size_t n)
{
    avx2PwpGather(out, arena, rowBase, ids, numTiles, stride, pos, nPos,
                  neg, nNeg, n);
}

void
avx2FmaRowF32(float* out, const float* src, float a, size_t n)
{
    const __m256 av = _mm256_set1_ps(a);
    size_t i = 0;
    for (; i + 8 <= n; i += 8) {
        const __m256 prod = _mm256_mul_ps(av, _mm256_loadu_ps(src + i));
        _mm256_storeu_ps(
            out + i, _mm256_add_ps(_mm256_loadu_ps(out + i), prod));
    }
    for (; i < n; ++i)
        out[i] += a * src[i];
}

/** Per-byte popcount of a 256-bit vector via the nibble LUT. */
inline __m256i
popcountBytes(__m256i v)
{
    const __m256i lut = _mm256_setr_epi8(
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4,
        0, 1, 1, 2, 1, 2, 2, 3, 1, 2, 2, 3, 2, 3, 3, 4);
    const __m256i low = _mm256_set1_epi8(0x0f);
    const __m256i lo = _mm256_and_si256(v, low);
    const __m256i hi =
        _mm256_and_si256(_mm256_srli_epi16(v, 4), low);
    return _mm256_add_epi8(_mm256_shuffle_epi8(lut, lo),
                           _mm256_shuffle_epi8(lut, hi));
}

uint64_t
avx2PopcountWords(const uint64_t* words, size_t n)
{
    __m256i acc = _mm256_setzero_si256();
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i v = _mm256_loadu_si256(
            reinterpret_cast<const __m256i*>(words + i));
        acc = _mm256_add_epi64(
            acc, _mm256_sad_epu8(popcountBytes(v),
                                 _mm256_setzero_si256()));
    }
    uint64_t total =
        static_cast<uint64_t>(_mm256_extract_epi64(acc, 0)) +
        static_cast<uint64_t>(_mm256_extract_epi64(acc, 1)) +
        static_cast<uint64_t>(_mm256_extract_epi64(acc, 2)) +
        static_cast<uint64_t>(_mm256_extract_epi64(acc, 3));
    for (; i < n; ++i)
        total += static_cast<uint64_t>(
            __builtin_popcountll(words[i]));
    return total;
}

void
avx2HammingScan(uint64_t row, const uint64_t* pats, size_t n,
                uint8_t* dist)
{
    const __m256i rv =
        _mm256_set1_epi64x(static_cast<long long>(row));
    size_t i = 0;
    for (; i + 4 <= n; i += 4) {
        const __m256i x = _mm256_xor_si256(
            _mm256_loadu_si256(
                reinterpret_cast<const __m256i*>(pats + i)),
            rv);
        // psadbw against zero sums each 8-byte lane's byte-popcounts
        // into one 64-bit count (<= 64, fits a byte).
        const __m256i sums = _mm256_sad_epu8(popcountBytes(x),
                                             _mm256_setzero_si256());
        dist[i] = static_cast<uint8_t>(_mm256_extract_epi64(sums, 0));
        dist[i + 1] =
            static_cast<uint8_t>(_mm256_extract_epi64(sums, 1));
        dist[i + 2] =
            static_cast<uint8_t>(_mm256_extract_epi64(sums, 2));
        dist[i + 3] =
            static_cast<uint8_t>(_mm256_extract_epi64(sums, 3));
    }
    for (; i < n; ++i)
        dist[i] = static_cast<uint8_t>(
            __builtin_popcountll(pats[i] ^ row));
}

constexpr Kernels kAvx2Kernels = {
    .isa = SimdIsa::Avx2,
    .name = "avx2",
    .addRowsI16 = avx2AddRowsI16,
    .addRowsF32 = avx2AddRowsF32,
    .storeRowsI16 = avx2StoreRowsI16,
    .fmaRowF32 = avx2FmaRowF32,
    .popcountWords = avx2PopcountWords,
    .hammingScan = avx2HammingScan,
    .pwpGatherI32 = avx2PwpGatherI32,
    .pwpGatherI16 = avx2PwpGatherI16,
    .pwpGatherI8 = avx2PwpGatherI8,
};

} // namespace

const Kernels&
avx2Kernels()
{
    return kAvx2Kernels;
}

} // namespace phi::simd

#endif // __AVX2__
