/**
 * @file
 * Helpers shared across the test suite.
 */

#ifndef PHI_TESTS_TEST_SUPPORT_HH
#define PHI_TESTS_TEST_SUPPORT_HH

#include <memory>
#include <string>
#include <utility>

#include "common/rng.hh"
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

} // namespace phi::test

#endif // PHI_TESTS_TEST_SUPPORT_HH
