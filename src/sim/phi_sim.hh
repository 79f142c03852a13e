/**
 * @file
 * Cycle-level simulator of the Phi accelerator (Sec. 4).
 *
 * The simulator walks the Table-1 tiling schedule (m=256, k=16, n=32,
 * K-first) over a model trace, running the real Preprocessor pipeline
 * (matcher assignments and L2 entries are taken from the trace's
 * decomposition, which the matcher model reproduces exactly; the
 * multi-window packer runs for real on every row) and deriving
 * L1/L2/neuron/DRAM cycles, traffic, and energy per layer. L1 and L2
 * run concurrently and synchronise per output tile; preprocessing and
 * DRAM overlap compute.
 */

#ifndef PHI_SIM_PHI_SIM_HH
#define PHI_SIM_PHI_SIM_HH

#include "arch/packer.hh"
#include "common/parallel.hh"
#include "sim/arch_config.hh"
#include "sim/energy_model.hh"
#include "sim/result.hh"
#include "snn/trace.hh"

namespace phi
{

/** Cycle-level Phi accelerator model. */
class PhiSimulator
{
  public:
    explicit PhiSimulator(PhiArchConfig cfg = {},
                          OpEnergies energies = defaultOpEnergies(),
                          ExecutionConfig exec = {});

    const PhiArchConfig& config() const { return cfg; }

    /** Execution engine knobs for the host-side parallel layer sweep. */
    const ExecutionConfig& execution() const { return exec; }
    void setExecution(const ExecutionConfig& e) { exec = e; }

    /** Simulate one layer (result is NOT scaled by spec.count). */
    LayerSimResult runLayer(const LayerTrace& layer) const;

    /**
     * Simulate a whole model trace (scales layers by count). Unique
     * layers simulate in parallel; aggregation runs sequentially in
     * layer order, so totals are bit-identical at any thread count.
     */
    SimResult run(const ModelTrace& trace) const;

    /** Name used in comparison tables. */
    std::string name() const { return "Phi"; }

  private:
    PhiArchConfig cfg;
    OpEnergies ops;
    ExecutionConfig exec;
};

/**
 * Functional emulation of the L1+L2 datapath for one layer: streams
 * the decomposition through real Pack structures, the reconfigurable
 * adder tree and PWP gathers, and returns the produced output matrix.
 * Must equal the reference spikeGemm exactly (integration tests).
 * Requires the trace to carry weights.
 */
Matrix<int32_t> emulateDatapath(const LayerTrace& layer,
                                const PhiArchConfig& cfg = {},
                                const ExecutionConfig& exec = {});

} // namespace phi

#endif // PHI_SIM_PHI_SIM_HH
