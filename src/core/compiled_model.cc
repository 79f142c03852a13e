#include "core/compiled_model.hh"

namespace phi
{

CompiledLayer::CompiledLayer(std::string name, PatternTable table)
    : layerName(std::move(name)), patternTable(std::move(table))
{
}

CompiledLayer::CompiledLayer(std::string name, PatternTable table,
                             Matrix<int16_t> weights,
                             std::vector<Matrix<int32_t>> pwps,
                             PwpTier quant)
    : layerName(std::move(name)), patternTable(std::move(table)),
      weightMatrix(std::move(weights))
{
    phi_assert(ceilDiv(weightMatrix.rows(),
                       static_cast<size_t>(patternTable.k())) <=
               patternTable.numPartitions(),
               "weights need more partitions than the calibrated table");
    phi_assert(pwps.size() == patternTable.numPartitions(),
               "PWP list must hold one matrix per partition (got ",
               pwps.size(), ", need ", patternTable.numPartitions(),
               ")");
    for (size_t p = 0; p < pwps.size(); ++p) {
        phi_assert(patternTable.partition(p).size() <=
                   kMaxPatternsPerPartition,
                   "partition ", p, " holds ",
                   patternTable.partition(p).size(),
                   " patterns; ids cap it at ", kMaxPatternsPerPartition);
        phi_assert(pwps[p].rows() == patternTable.partition(p).size() &&
                   (pwps[p].rows() == 0 ||
                    pwps[p].cols() == weightMatrix.cols()),
                   "PWP shape mismatch in partition ", p);
    }
    arena = PwpArena(pwps, weightMatrix.cols(), quant);
    // Also asserts that no pattern sets a bit past the last weight row.
    matcher = std::make_shared<const MatchTable>(patternTable,
                                                 weightMatrix.rows());
}

void
CompiledLayer::serveInto(Matrix<int32_t>& out, const BinaryMatrix& acts,
                         const ExecutionConfig& exec) const
{
    phi_assert(hasWeights(),
               "serveInto() requires a layer compiled with weights");
    phiServeInto(out, acts, *matcher, arena, weightMatrix, exec);
}

LayerDecomposition
CompiledLayer::decompose(const BinaryMatrix& acts,
                         const ExecutionConfig& exec) const
{
    return decomposeLayer(acts, patternTable, exec);
}

Matrix<int32_t>
CompiledLayer::compute(const LayerDecomposition& dec,
                       const ExecutionConfig& exec) const
{
    phi_assert(hasWeights(),
               "compute() requires a layer compiled with weights");
    return phiGemmWithArena(dec, arena, weightMatrix, exec);
}

void
CompiledLayer::computeInto(Matrix<int32_t>& out,
                           const LayerDecomposition& dec,
                           const ExecutionConfig& exec) const
{
    phi_assert(hasWeights(),
               "computeInto() requires a layer compiled with weights");
    phiGemmWithArenaInto(out, dec, arena, weightMatrix, exec);
}

SparsityBreakdown
CompiledLayer::breakdown(const BinaryMatrix& acts,
                         const LayerDecomposition& dec) const
{
    return computeBreakdown(acts, dec, patternTable);
}

CompiledModel::CompiledModel(std::vector<CompiledLayer> layers,
                             CalibrationConfig calibration)
    : layerList(std::move(layers)), calib(calibration)
{
}

const CompiledLayer&
CompiledModel::layer(size_t idx) const
{
    phi_assert(idx < layerList.size(), "layer ", idx, " out of ",
               layerList.size());
    return layerList[idx];
}

std::optional<size_t>
CompiledModel::findLayer(const std::string& name) const
{
    for (size_t i = 0; i < layerList.size(); ++i)
        if (layerList[i].name() == name)
            return i;
    return std::nullopt;
}

size_t
CompiledModel::pwpFootprintBytes() const
{
    size_t bytes = 0;
    for (const auto& l : layerList)
        if (l.hasWeights())
            bytes += pwpBytes(l.table(), l.weights().cols());
    return bytes;
}

size_t
CompiledModel::pwpResidentBytes() const
{
    size_t bytes = 0;
    for (const auto& l : layerList)
        bytes += l.pwpArena().bytes();
    return bytes;
}

} // namespace phi
