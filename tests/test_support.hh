/**
 * @file
 * Helpers shared across the test suite.
 */

#ifndef PHI_TESTS_TEST_SUPPORT_HH
#define PHI_TESTS_TEST_SUPPORT_HH

#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "common/rng.hh"
#include "io/model_io.hh"
#include "numeric/matrix.hh"
#include "runtime/registry.hh"

namespace phi::test
{

/** Deterministic random int16 weight matrix for exactness checks. */
inline Matrix<int16_t>
randomWeights(size_t k, size_t n, uint64_t seed, int lo = -30, int hi = 30)
{
    Rng rng(seed);
    Matrix<int16_t> w(k, n);
    for (size_t r = 0; r < k; ++r)
        for (size_t c = 0; c < n; ++c)
            w(r, c) = static_cast<int16_t>(rng.uniformInt(lo, hi));
    return w;
}

/** A fresh registry holding one model, and the handle it was loaded
 *  under: the smallest setup an engine serves from. */
struct OneModel
{
    std::shared_ptr<ModelRegistry> registry;
    ModelHandle handle;
};

inline OneModel
oneModelRegistry(CompiledModel model, const std::string& name = "m")
{
    auto registry = std::make_shared<ModelRegistry>();
    ModelHandle handle = registry->load(name, std::move(model));
    return {std::move(registry), std::move(handle)};
}

/**
 * A .phim image of one weighted layer assembled straight from its
 * components, bypassing CompiledLayer, so a test can build artifacts
 * the compiler refuses to produce: the loader must reject them itself.
 * Section CRCs are left unstamped (0), as pre-CRC artifacts had them.
 */
inline std::vector<uint8_t>
rawModelImage(const std::string& layerName, const PatternTable& table,
              const Matrix<int16_t>& weights,
              const std::vector<Matrix<int32_t>>& pwps)
{
    io::ByteWriter cfg;
    io::writeCalibrationConfig(cfg, CalibrationConfig{});
    io::ByteWriter layers;
    layers.u64(1);
    layers.str(layerName);
    io::writePatternTable(layers, table);
    layers.u8(1);
    io::writeWeights(layers, weights);
    io::writePwps(layers, pwps);

    const std::vector<uint8_t>* payloads[] = {&cfg.buffer(),
                                              &layers.buffer()};
    const uint32_t tags[] = {io::kSectionConfig, io::kSectionLayers};
    uint64_t offset = 24 + 2 * 24; // header + two section entries
    io::ByteWriter w;
    w.u32(io::kMagic);
    w.u32(io::kFormatVersion);
    w.u32(io::kKindModel);
    w.u32(2);
    w.u64(offset + payloads[0]->size() + payloads[1]->size());
    for (int i = 0; i < 2; ++i) {
        w.u32(tags[i]);
        w.u32(0);
        w.u64(offset);
        w.u64(payloads[i]->size());
        offset += payloads[i]->size();
    }
    std::vector<uint8_t> image = w.buffer();
    for (const auto* p : payloads)
        image.insert(image.end(), p->begin(), p->end());
    return image;
}

} // namespace phi::test

#endif // PHI_TESTS_TEST_SUPPORT_HH
