/**
 * @file
 * The serve-side artifact of the Phi workflow: an immutable compiled
 * model holding everything the online phase needs (pattern tables,
 * weights, precomputed PWPs) and nothing it does not (no calibration
 * samples, no k-means state).
 *
 * A CompiledModel is produced offline by Pipeline::compile() or loaded
 * from a .phim artifact via io::loadModel(); it is consumed by the
 * PhiEngine runtime, which serves through CompiledLayer::serveInto(),
 * or used offline through decompose()/compute().
 */

#ifndef PHI_CORE_COMPILED_MODEL_HH
#define PHI_CORE_COMPILED_MODEL_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "core/calibration.hh"
#include "core/decompose.hh"
#include "core/pattern.hh"
#include "core/pwp.hh"
#include "core/stats.hh"

namespace phi
{

/**
 * One compiled layer: calibrated pattern table plus (optionally) bound
 * weights and their precomputed PWPs, stored as one contiguous
 * (optionally quantized) PwpArena, and the serve path's MatchTable.
 * Immutable after construction apart from the match table's lazy
 * fills, which are race-free by design, so it is safe to share across
 * serving threads without synchronisation. Copies share the table.
 */
class CompiledLayer
{
  public:
    /** Weightless layer: decompose()/breakdown() only. */
    CompiledLayer(std::string name, PatternTable table);

    /**
     * Fully bound layer. @p pwps must be exactly the output of
     * computeLayerPwps(table, weights) — loadModel() trusts but
     * re-validates shape; compile() computes them itself. @p quant is
     * the narrowest PWP storage tier the layer may use; the arena
     * falls back to a wider tier whenever the narrow one would not be
     * exact, so serving results never depend on the request.
     *
     * Fatal if a partition holds more than kMaxPatternsPerPartition
     * patterns or a pattern sets a bit past the last weight row.
     */
    CompiledLayer(std::string name, PatternTable table,
                  Matrix<int16_t> weights,
                  std::vector<Matrix<int32_t>> pwps,
                  PwpTier quant = PwpTier::Int32);

    const std::string& name() const { return layerName; }
    const PatternTable& table() const { return patternTable; }

    bool hasWeights() const { return !weightMatrix.empty(); }
    const Matrix<int16_t>& weights() const { return weightMatrix; }

    /**
     * The layer's PWPs as exact int32 matrices, materialised from the
     * arena (by value — serialization and diagnostics only; the
     * serving path reads the arena directly).
     */
    std::vector<Matrix<int32_t>> pwps() const
    {
        return arena.materialize();
    }

    /** Contiguous PWP storage the serving path reads. */
    const PwpArena& pwpArena() const { return arena; }

    /** Storage tier the arena actually uses (after exactness fallback). */
    PwpTier pwpTier() const { return arena.tier(); }

    /**
     * The serve path: match and gather @p acts in one fused pass
     * (phiServeInto) into a caller-owned acts.rows() x weights().cols()
     * matrix whose previous contents are overwritten. Lets the serving
     * runtime allocate responses before dispatching a batch, so worker
     * threads never touch the allocator. Builds no decomposition.
     */
    void serveInto(Matrix<int32_t>& out, const BinaryMatrix& acts,
                   const ExecutionConfig& exec = {}) const;

    /** Decompose an activation matrix (offline: simulator, benches,
     *  breakdown). */
    LayerDecomposition decompose(const BinaryMatrix& acts,
                                 const ExecutionConfig& exec = {}) const;

    /** Hierarchical product reusing the precomputed PWPs. */
    Matrix<int32_t> compute(const LayerDecomposition& dec,
                            const ExecutionConfig& exec = {}) const;

    /**
     * As compute(), but into a caller-owned dec.m x weights().cols()
     * matrix whose previous contents are overwritten. Lets the serving
     * runtime allocate responses before dispatching a batch, so
     * worker threads never touch the allocator.
     */
    void computeInto(Matrix<int32_t>& out, const LayerDecomposition& dec,
                     const ExecutionConfig& exec = {}) const;

    /** Sparsity accounting for a decomposed activation. */
    SparsityBreakdown breakdown(const BinaryMatrix& acts,
                                const LayerDecomposition& dec) const;

  private:
    std::string layerName;
    PatternTable patternTable;
    Matrix<int16_t> weightMatrix;
    PwpArena arena;
    std::shared_ptr<const MatchTable> matcher;
};

/**
 * A whole compiled model: the ordered layer list plus the calibration
 * config it was compiled with (provenance; the online phase only needs
 * it for reporting). Immutable after construction.
 */
class CompiledModel
{
  public:
    CompiledModel() = default;

    CompiledModel(std::vector<CompiledLayer> layers,
                  CalibrationConfig calibration);

    size_t numLayers() const { return layerList.size(); }
    bool empty() const { return layerList.empty(); }

    const CompiledLayer& layer(size_t idx) const;

    /** Index of the layer with the given name, if any. */
    std::optional<size_t> findLayer(const std::string& name) const;

    const std::vector<CompiledLayer>& layers() const { return layerList; }

    /** Calibration knobs the model was compiled with (provenance). */
    const CalibrationConfig& calibration() const { return calib; }

    /** Total PWP bytes across layers at the stored output widths. */
    size_t pwpFootprintBytes() const;

    /**
     * Bytes of PWP arena storage actually resident across layers at
     * their chosen tiers (padding included) — the bytes the serving
     * loop streams, as opposed to the paper-metric pwpFootprintBytes().
     */
    size_t pwpResidentBytes() const;

  private:
    std::vector<CompiledLayer> layerList;
    CalibrationConfig calib;
};

} // namespace phi

#endif // PHI_CORE_COMPILED_MODEL_HH
