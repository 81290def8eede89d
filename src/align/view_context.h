#ifndef Q_ALIGN_VIEW_CONTEXT_H_
#define Q_ALIGN_VIEW_CONTEXT_H_

#include <cstddef>
#include <utility>
#include <vector>

#include "align/aligner.h"
#include "query/view.h"

namespace q::align {

// The vertex prior of Sec. 3.3: one (relation node, prior) pair per
// relation of `search_graph` that has a learned authoritativeness feature,
// in node-id order, read off the per-relation weights. It depends only on
// the graph, the feature space and the weights — not on the view — so one
// registration computes it once and shares it across every view.
std::vector<std::pair<graph::NodeId, double>> VertexPrior(
    const graph::SearchGraph& search_graph, const graph::FeatureSpace& space,
    const graph::WeightVector& weights);

// Derives the alignment context of a live view (Sec. 3.3): alpha is the
// cost of the view's k-th best answer; the keyword seeds are the view's
// keyword-match edges mapped back onto search-graph nodes, with the match
// cost as initial distance (value nodes map to their owning attribute —
// the membership hop is free, so distances are identical). The vertex
// prior is `vertex_prior`, as computed by VertexPrior above.
AlignContext ContextFromView(
    const query::TopKView& view, const graph::SearchGraph& search_graph,
    std::vector<std::pair<graph::NodeId, double>> vertex_prior,
    const graph::WeightVector& weights, int top_y,
    std::size_t preferential_budget);

}  // namespace q::align

#endif  // Q_ALIGN_VIEW_CONTEXT_H_
