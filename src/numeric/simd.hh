/**
 * @file
 * Portable SIMD kernel layer for the hot inner loops.
 *
 * Every data-parallel primitive the engine's kernels need — row
 * accumulation (the spike/PWP GEMM inner loop), word popcounts and the
 * pattern matcher's XOR+popcount scan — sits behind one Kernels vtable.
 * Backends (scalar always; AVX2/AVX-512 on x86-64, NEON on AArch64 when
 * the compiler supports them) are compiled in separate translation
 * units with per-file ISA flags and selected once at runtime via CPUID,
 * so a single binary runs the widest code path the host supports.
 *
 * Determinism contract: every backend computes the same per-element
 * operation in the same per-element order as the scalar implementation.
 * Integer accumulation is associative so lane order is free; the float
 * kernels vectorize across output columns only (each column's
 * K-accumulation order is unchanged) and never use FMA contraction, so
 * all backends produce bit-identical results — integer and float alike.
 *
 * Selection order for SimdIsa::Auto: the PHI_SIMD environment variable
 * ("scalar", "avx2", "avx512", "neon") when set and usable, otherwise
 * the widest backend the CPU reports. An explicit (non-Auto) request
 * for a backend that is unavailable falls back to Scalar rather than
 * executing illegal instructions.
 */

#ifndef PHI_NUMERIC_SIMD_HH
#define PHI_NUMERIC_SIMD_HH

#include <cstddef>
#include <cstdint>
#include <vector>

#include "common/isa.hh"

namespace phi::simd
{

/**
 * The kernel vtable: raw-pointer primitives over row spans. Pointers
 * need not be aligned (backends use unaligned loads), but rows padded
 * to the 64-byte layout of Matrix/BinaryMatrix let callers round spans
 * up to a full vector so the in-kernel tail loop never runs.
 */
struct Kernels
{
    /** Backend identity (never Auto). */
    SimdIsa isa;
    const char* name;

    /**
     * out[i] += sum_j rows[j][i] for j in [0, m) ascending, i in
     * [0, n), int16 widened to int32. Backends keep the accumulators
     * in registers across the j loop, so the output row is loaded and
     * stored once per column block instead of once per source row;
     * per output element the adds still happen in j order.
     */
    void (*addRowsI16)(int32_t* out, const int16_t* const* rows,
                       size_t m, size_t n);

    /** Multi-row accumulate, float flavour (same ordering contract). */
    void (*addRowsF32)(float* out, const float* const* rows, size_t m,
                       size_t n);

    /**
     * Overwriting multi-row reduction: out[i] = sum_j rows[j][i]
     * (m == 0 zeroes the span). Lets callers skip pre-zeroing output
     * rows that are written exactly once — the first flush stores,
     * later flushes accumulate.
     */
    void (*storeRowsI16)(int32_t* out, const int16_t* const* rows,
                         size_t m, size_t n);

    /** out[i] += a * src[i] for i in [0, n); mul-then-add per element
     *  (never fused), matching the scalar rounding exactly. */
    void (*fmaRowF32)(float* out, const float* src, float a, size_t n);

    /** Total set bits across words[0..n). */
    uint64_t (*popcountWords)(const uint64_t* words, size_t n);

    /**
     * Pattern-matcher scan: dist[i] = popcount(row ^ pats[i]) for i in
     * [0, n). Distances fit in uint8_t because patterns are <= 64 bits.
     */
    void (*hammingScan)(uint64_t row, const uint64_t* pats, size_t n,
                        uint8_t* dist);

    /**
     * Arena-gather serving kernel — the phiGemm inner loop over the
     * contiguous PWP arena. For each tile t in [0, numTiles) with
     * ids[t] != 0, the L1 source row lives at
     *   arena + (rowBase[t] + ids[t] - 1) * stride
     * and the kernel computes, overwriting out[0..n):
     *   out[i] = sum_t l1row_t[i] + sum_j pos[j][i] - sum_j neg[j][i]
     * (all sums may be empty, which zeroes the span). Locating the L1
     * rows inside the kernel — instead of having the caller build a
     * pointer array per output row — keeps the whole row's accumulators
     * in registers for a single pass over every source row, which is
     * where the arena layout's bandwidth win is realised. Tiles are
     * visited in ascending t, then pos, then neg.
     *
     * The I16/I8 variants read a quantized arena and widen; since the
     * arena is built only when quantization is exact, all three produce
     * identical int32 output.
     */
    void (*pwpGatherI32)(int32_t* out, const int32_t* arena,
                         const uint64_t* rowBase, const uint16_t* ids,
                         size_t numTiles, size_t stride,
                         const int16_t* const* pos, size_t nPos,
                         const int16_t* const* neg, size_t nNeg,
                         size_t n);
    void (*pwpGatherI16)(int32_t* out, const int16_t* arena,
                         const uint64_t* rowBase, const uint16_t* ids,
                         size_t numTiles, size_t stride,
                         const int16_t* const* pos, size_t nPos,
                         const int16_t* const* neg, size_t nNeg,
                         size_t n);
    void (*pwpGatherI8)(int32_t* out, const int8_t* arena,
                        const uint64_t* rowBase, const uint16_t* ids,
                        size_t numTiles, size_t stride,
                        const int16_t* const* pos, size_t nPos,
                        const int16_t* const* neg, size_t nNeg,
                        size_t n);
};

/**
 * Resolve a backend. Auto uses the cached PHI_SIMD/CPUID resolution;
 * explicit requests fall back to Scalar when unavailable. The returned
 * reference is to static storage and valid forever.
 */
const Kernels& kernels(SimdIsa isa = SimdIsa::Auto);

/** The backend Auto currently resolves to (after env override). */
SimdIsa activeIsa();

/** True when the backend is compiled in AND usable on this CPU. */
bool available(SimdIsa isa);

/** True when the backend was compiled into this binary. */
bool compiledIn(SimdIsa isa);

/** All backends available on this host, Scalar first. */
std::vector<SimdIsa> availableIsas();

// Typed dispatch helpers for templated kernels (spikeGemmImpl).
inline void
accumulateRows(const Kernels& k, int32_t* out,
               const int16_t* const* rows, size_t m, size_t n)
{
    k.addRowsI16(out, rows, m, n);
}

inline void
accumulateRows(const Kernels& k, float* out, const float* const* rows,
               size_t m, size_t n)
{
    k.addRowsF32(out, rows, m, n);
}

inline void
storeRows(const Kernels& k, int32_t* out, const int16_t* const* rows,
          size_t m, size_t n)
{
    k.storeRowsI16(out, rows, m, n);
}

// Per-backend kernel tables, defined in their own translation units.
// Only referenced by the dispatcher when the matching PHI_HAVE_SIMD_*
// macro is set by the build.
const Kernels& scalarKernels();
const Kernels& avx2Kernels();
const Kernels& avx512Kernels();
const Kernels& neonKernels();

} // namespace phi::simd

#endif // PHI_NUMERIC_SIMD_HH
