/**
 * @file
 * Scalar reference backend and the runtime dispatcher.
 *
 * The scalar loops below are the semantic ground truth every vector
 * backend must reproduce bit-for-bit; tests/test_simd.cc pins that
 * property across all compiled backends. This file is compiled with
 * -ffp-contract=off so the float loops cannot be contracted into FMA
 * even under -march=native, keeping the reference rounding fixed.
 */

#include "numeric/simd.hh"

#include <bit>
#include <cstdlib>

#include "common/logging.hh"

namespace phi::simd
{

namespace
{

// ---- Scalar backend -------------------------------------------------

void
scalarFmaRowF32(float* out, const float* src, float a, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] += a * src[i];
}

void
scalarAddRowsI16(int32_t* out, const int16_t* const* rows, size_t m,
                 size_t n)
{
    for (size_t j = 0; j < m; ++j)
        for (size_t i = 0; i < n; ++i)
            out[i] += rows[j][i];
}

void
scalarAddRowsF32(float* out, const float* const* rows, size_t m,
                 size_t n)
{
    for (size_t j = 0; j < m; ++j)
        for (size_t i = 0; i < n; ++i)
            out[i] += rows[j][i];
}

void
scalarStoreRowsI16(int32_t* out, const int16_t* const* rows, size_t m,
                   size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = 0;
    scalarAddRowsI16(out, rows, m, n);
}

/** Shared scalar body for the three arena element widths. */
template <typename Elem>
void
scalarPwpGather(int32_t* out, const Elem* arena, const uint64_t* rowBase,
                const uint16_t* ids, size_t numTiles, size_t stride,
                const int16_t* const* pos, size_t nPos,
                const int16_t* const* neg, size_t nNeg, size_t n)
{
    for (size_t i = 0; i < n; ++i)
        out[i] = 0;
    for (size_t t = 0; t < numTiles; ++t) {
        const uint32_t id = ids[t];
        if (!id)
            continue;
        const Elem* row = arena + (rowBase[t] + id - 1) * stride;
        for (size_t i = 0; i < n; ++i)
            out[i] += row[i];
    }
    scalarAddRowsI16(out, pos, nPos, n);
    for (size_t j = 0; j < nNeg; ++j)
        for (size_t i = 0; i < n; ++i)
            out[i] -= neg[j][i];
}

void
scalarPwpGatherI32(int32_t* out, const int32_t* arena,
                   const uint64_t* rowBase, const uint16_t* ids,
                   size_t numTiles, size_t stride,
                   const int16_t* const* pos, size_t nPos,
                   const int16_t* const* neg, size_t nNeg, size_t n)
{
    scalarPwpGather(out, arena, rowBase, ids, numTiles, stride, pos,
                    nPos, neg, nNeg, n);
}

void
scalarPwpGatherI16(int32_t* out, const int16_t* arena,
                   const uint64_t* rowBase, const uint16_t* ids,
                   size_t numTiles, size_t stride,
                   const int16_t* const* pos, size_t nPos,
                   const int16_t* const* neg, size_t nNeg, size_t n)
{
    scalarPwpGather(out, arena, rowBase, ids, numTiles, stride, pos,
                    nPos, neg, nNeg, n);
}

void
scalarPwpGatherI8(int32_t* out, const int8_t* arena,
                  const uint64_t* rowBase, const uint16_t* ids,
                  size_t numTiles, size_t stride,
                  const int16_t* const* pos, size_t nPos,
                  const int16_t* const* neg, size_t nNeg, size_t n)
{
    scalarPwpGather(out, arena, rowBase, ids, numTiles, stride, pos,
                    nPos, neg, nNeg, n);
}

uint64_t
scalarPopcountWords(const uint64_t* words, size_t n)
{
    uint64_t total = 0;
    for (size_t i = 0; i < n; ++i)
        total += static_cast<uint64_t>(std::popcount(words[i]));
    return total;
}

void
scalarHammingScan(uint64_t row, const uint64_t* pats, size_t n,
                  uint8_t* dist)
{
    for (size_t i = 0; i < n; ++i)
        dist[i] = static_cast<uint8_t>(std::popcount(pats[i] ^ row));
}

constexpr Kernels kScalarKernels = {
    .isa = SimdIsa::Scalar,
    .name = "scalar",
    .addRowsI16 = scalarAddRowsI16,
    .addRowsF32 = scalarAddRowsF32,
    .storeRowsI16 = scalarStoreRowsI16,
    .fmaRowF32 = scalarFmaRowF32,
    .popcountWords = scalarPopcountWords,
    .hammingScan = scalarHammingScan,
    .pwpGatherI32 = scalarPwpGatherI32,
    .pwpGatherI16 = scalarPwpGatherI16,
    .pwpGatherI8 = scalarPwpGatherI8,
};

// ---- Runtime detection ----------------------------------------------

bool
cpuSupports(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Scalar:
        return true;
#if defined(__x86_64__) || defined(_M_X64)
      case SimdIsa::Avx2:
        return __builtin_cpu_supports("avx2") != 0;
      case SimdIsa::Avx512:
        return __builtin_cpu_supports("avx512f") != 0 &&
               __builtin_cpu_supports("avx512bw") != 0 &&
               __builtin_cpu_supports("avx512vl") != 0;
#endif
#if defined(__aarch64__)
      case SimdIsa::Neon:
        return true; // NEON is architecturally baseline on AArch64.
#endif
      default:
        return false;
    }
}

SimdIsa
detectBest()
{
    for (SimdIsa isa :
         {SimdIsa::Avx512, SimdIsa::Avx2, SimdIsa::Neon})
        if (available(isa))
            return isa;
    return SimdIsa::Scalar;
}

/** PHI_SIMD override or CPUID pick; resolved once per process. */
SimdIsa
resolveAuto()
{
    static const SimdIsa resolved = [] {
        if (const char* env = std::getenv("PHI_SIMD")) {
            const auto parsed = parseSimdIsa(env);
            if (!parsed) {
                phi_warn("PHI_SIMD='", env,
                         "' is not a known backend; using auto "
                         "detection");
            } else if (*parsed != SimdIsa::Auto) {
                if (available(*parsed))
                    return *parsed;
                phi_warn("PHI_SIMD=", env,
                         " is not available on this host/build; "
                         "using auto detection");
            }
        }
        return detectBest();
    }();
    return resolved;
}

} // namespace

const Kernels&
scalarKernels()
{
    return kScalarKernels;
}

bool
compiledIn(SimdIsa isa)
{
    switch (isa) {
      case SimdIsa::Scalar:
        return true;
#ifdef PHI_HAVE_SIMD_AVX2
      case SimdIsa::Avx2:
        return true;
#endif
#ifdef PHI_HAVE_SIMD_AVX512
      case SimdIsa::Avx512:
        return true;
#endif
#ifdef PHI_HAVE_SIMD_NEON
      case SimdIsa::Neon:
        return true;
#endif
      default:
        return false;
    }
}

bool
available(SimdIsa isa)
{
    return compiledIn(isa) && cpuSupports(isa);
}

std::vector<SimdIsa>
availableIsas()
{
    std::vector<SimdIsa> out{SimdIsa::Scalar};
    for (SimdIsa isa : {SimdIsa::Avx2, SimdIsa::Avx512, SimdIsa::Neon})
        if (available(isa))
            out.push_back(isa);
    return out;
}

SimdIsa
activeIsa()
{
    return resolveAuto();
}

const Kernels&
kernels(SimdIsa isa)
{
    if (isa == SimdIsa::Auto)
        isa = resolveAuto();
    switch (isa) {
#ifdef PHI_HAVE_SIMD_AVX2
      case SimdIsa::Avx2:
        if (cpuSupports(SimdIsa::Avx2))
            return avx2Kernels();
        break;
#endif
#ifdef PHI_HAVE_SIMD_AVX512
      case SimdIsa::Avx512:
        if (cpuSupports(SimdIsa::Avx512))
            return avx512Kernels();
        break;
#endif
#ifdef PHI_HAVE_SIMD_NEON
      case SimdIsa::Neon:
        return neonKernels();
#endif
      default:
        break;
    }
    return kScalarKernels;
}

} // namespace phi::simd
