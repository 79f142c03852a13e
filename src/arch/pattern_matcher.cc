#include "arch/pattern_matcher.hh"

namespace phi
{

PatternMatcher::PatternMatcher(const PatternSet& ps, int laneCount)
    : assigner(ps), lanes(laneCount), pipelineDepth(ps.size())
{
    phi_assert(lanes >= 1, "matcher needs at least one lane");
}

std::vector<RowAssignment>
PatternMatcher::matchAll(const std::vector<uint64_t>& rows,
                         const ExecutionConfig& exec) const
{
    constexpr size_t kMatchGrain = 512;
    const PatternAssigner onIsa(assigner.patternSet(), exec.isa);
    std::vector<RowAssignment> out(rows.size());
    parallelFor(exec, 0, rows.size(), kMatchGrain,
                [&](size_t i0, size_t i1) {
        for (size_t i = i0; i < i1; ++i)
            out[i] = onIsa.assign(rows[i]);
    });
    return out;
}

} // namespace phi
