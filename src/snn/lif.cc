#include "snn/lif.hh"

#include "common/logging.hh"

namespace phi
{

LifPopulation::LifPopulation(size_t num_neurons, LifParams params)
    : prm(params), membrane(num_neurons, 0.0f),
      refractCount(num_neurons, 0)
{
    phi_assert(prm.leak >= 0.0f && prm.leak <= 1.0f,
               "leak must be within [0, 1]");
    phi_assert(prm.threshold > 0.0f, "threshold must be positive");
    phi_assert(prm.refractory >= 0,
               "refractory period must be non-negative");
}

void
LifPopulation::reset()
{
    std::fill(membrane.begin(), membrane.end(), 0.0f);
    std::fill(refractCount.begin(), refractCount.end(), 0);
}

bool
LifPopulation::advance(size_t i, float in)
{
    // A refractory neuron ignores its input: the membrane only decays
    // and no spike can fire. With refractory == 0 this branch is never
    // taken, so the original dynamics are reproduced exactly.
    if (refractCount[i] > 0) {
        --refractCount[i];
        membrane[i] = prm.leak * membrane[i];
        return false;
    }
    float v = prm.leak * membrane[i] + in;
    bool spiked = false;
    if (v >= prm.threshold) {
        spiked = true;
        v = prm.hardReset ? 0.0f : v - prm.threshold;
        refractCount[i] = prm.refractory;
    }
    membrane[i] = v;
    return spiked;
}

void
LifPopulation::step(const float* current, std::vector<uint8_t>& spikes)
{
    spikes.assign(membrane.size(), 0);
    for (size_t i = 0; i < membrane.size(); ++i)
        if (advance(i, current[i]))
            spikes[i] = 1;
}

void
LifPopulation::stepInto(const float* current, BinaryMatrix& spikes,
                        size_t row)
{
    phi_assert(spikes.cols() == membrane.size(),
               "spike row width does not match the population");
    phi_assert(row < spikes.rows(), "spike row out of range");
    // Accumulate bits a 64-wide word at a time; deposit() writes each
    // word with one masked read-modify-write. No per-step allocation,
    // no per-neuron set() call.
    const size_t n = membrane.size();
    for (size_t start = 0; start < n; start += 64) {
        const int len =
            static_cast<int>(n - start < 64 ? n - start : 64);
        uint64_t word = 0;
        for (int b = 0; b < len; ++b)
            if (advance(start + static_cast<size_t>(b),
                        current[start + static_cast<size_t>(b)]))
                word |= uint64_t{1} << b;
        spikes.deposit(row, start, len, word);
    }
}

void
LifPopulation::stepInto(const int32_t* current, BinaryMatrix& spikes,
                        size_t row)
{
    phi_assert(spikes.cols() == membrane.size(),
               "spike row width does not match the population");
    phi_assert(row < spikes.rows(), "spike row out of range");
    const size_t n = membrane.size();
    for (size_t start = 0; start < n; start += 64) {
        const int len =
            static_cast<int>(n - start < 64 ? n - start : 64);
        uint64_t word = 0;
        for (int b = 0; b < len; ++b) {
            const size_t i = start + static_cast<size_t>(b);
            if (advance(i, static_cast<float>(current[i])))
                word |= uint64_t{1} << b;
        }
        spikes.deposit(row, start, len, word);
    }
}

LifState
LifPopulation::saveState() const
{
    return {membrane, refractCount};
}

void
LifPopulation::loadState(const LifState& state)
{
    phi_assert(state.membrane.size() == membrane.size() &&
                   state.refractory.size() == refractCount.size(),
               "LIF state size does not match the population");
    membrane = state.membrane;
    refractCount = state.refractory;
}

float
LifPopulation::potential(size_t idx) const
{
    phi_assert(idx < membrane.size(), "neuron index out of range");
    return membrane[idx];
}

BinaryMatrix
runLif(const Matrix<float>& currents, LifParams params)
{
    LifPopulation pop(currents.cols(), params);
    BinaryMatrix spikes(currents.rows(), currents.cols());
    std::vector<uint8_t> out;
    for (size_t t = 0; t < currents.rows(); ++t) {
        pop.step(currents.rowPtr(t), out);
        for (size_t i = 0; i < out.size(); ++i)
            if (out[i])
                spikes.set(t, i, true);
    }
    return spikes;
}

} // namespace phi
