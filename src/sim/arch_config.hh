/**
 * @file
 * Phi accelerator configuration (Table 1) and simulation options.
 */

#ifndef PHI_SIM_ARCH_CONFIG_HH
#define PHI_SIM_ARCH_CONFIG_HH

#include <cstddef>

#include "arch/dram.hh"
#include "arch/packer.hh"

namespace phi
{

/** Table 1 setup plus modelling knobs. */
struct PhiArchConfig
{
    // --- Tile sizes ---
    size_t tileM = 256;
    size_t tileK = 16; // partition width k
    size_t tileN = 32;

    // --- Pattern configuration ---
    int patternsPerPartition = 128; // q

    // --- On-chip buffers (bytes) ---
    size_t packBufBytes = 4 * 1024;
    size_t weightBufBytes = 16 * 1024;
    size_t pwpBufBytes = 64 * 1024;
    size_t patternIdBufBytes = 28 * 1024;
    size_t psumBufBytes = 128 * 1024;

    // --- Compute arrays ---
    int l1Channels = 8;  // PWPs accumulated per cycle
    int l2Channels = 8;  // pack units per cycle
    int simdWidth = 32;  // vector lanes (= tileN)
    int neuronLanes = 32;
    int matcherLanes = 8; // row-tiles matched per cycle

    // --- Packer ---
    PackerConfig packer;

    // --- Clock & memory ---
    double freqHz = 500e6;
    DramConfig dram;

    /**
     * Inferences sharing one weight/PWP fetch. Weights stream from
     * DRAM once per batch (standard inference batching); activations
     * are per-inference.
     */
    size_t batchSize = 32;

    // --- Datapath element sizes (bytes) ---
    size_t weightElemBytes = 2; // 16-bit weights
    size_t pwpElemBytes = 2;    // 16-bit PWP entries
    size_t psumElemBytes = 4;   // 32-bit partial sums
    size_t packUnitBytes = 1;   // label(1)+index(4)+value(1) bits, padded
    size_t patternIdBytes = 1;  // log2(128)+1 bits, padded

    // --- Feature toggles (ablations / Fig. 12 modes) ---
    // Sec. 4.4 PWP prefetcher of the modelled accelerator (Fig. 12).
    // Simulator-only: the software serving path has no prefetch knob.
    bool prefetchPwp = true;
    bool compressActs = true;  // Sec. 4.2.2 compact structure
    bool perfectL1Skip = false; // perfect vs straightforward skipping

    size_t
    totalBufferBytes() const
    {
        return packBufBytes + weightBufBytes + pwpBufBytes +
               patternIdBufBytes + psumBufBytes;
    }

    /** Scale every buffer proportionally to a new total (Fig. 7d). */
    PhiArchConfig
    withTotalBufferBytes(size_t total) const
    {
        PhiArchConfig c = *this;
        const double scale = static_cast<double>(total) /
                             static_cast<double>(totalBufferBytes());
        c.packBufBytes = static_cast<size_t>(packBufBytes * scale);
        c.weightBufBytes = static_cast<size_t>(weightBufBytes * scale);
        c.pwpBufBytes = static_cast<size_t>(pwpBufBytes * scale);
        c.patternIdBufBytes =
            static_cast<size_t>(patternIdBufBytes * scale);
        c.psumBufBytes = static_cast<size_t>(psumBufBytes * scale);
        return c;
    }
};

} // namespace phi

#endif // PHI_SIM_ARCH_CONFIG_HH
