#ifndef Q_QUERY_QUERY_GRAPH_H_
#define Q_QUERY_QUERY_GRAPH_H_

#include <cstdint>
#include <limits>
#include <string>
#include <vector>

#include "graph/cost_model.h"
#include "graph/search_graph.h"
#include "relational/catalog.h"
#include "text/text_index.h"
#include "util/result.h"

namespace q::query {

struct QueryGraphOptions {
  // Keyword-to-node matches below this tf-idf similarity are dropped.
  double min_similarity = 0.25;
  // Cap on match edges added per keyword (metadata + value matches).
  std::size_t max_matches_per_keyword = 12;
  // Association edges whose current cost exceeds this threshold are left
  // out of the query graph (the pruning threshold of Sec. 5.2.2).
  double association_cost_threshold =
      std::numeric_limits<double>::infinity();
};

// The dynamic expansion of the search graph for one keyword query
// (Sec. 2.2 / Fig. 3): a copy of the search graph plus one keyword node
// per query term, lazily-materialized value nodes for matching tuples,
// and weighted keyword-match edges.
//
// Layout: with the default infinite association_cost_threshold the copy
// is id-for-id — nodes [0, base_nodes) and edges [0, base_edges) mirror
// the base graph at base_revision — and the keyword overlay (keyword and
// value nodes, their membership and match edges) follows as the tail.
// That is what lets SyncQueryGraph pop the overlay, replay the base
// journal onto the prefix and re-append the overlay instead of copying
// the whole base again.
struct QueryGraph {
  graph::SearchGraph graph;
  std::vector<std::string> keywords;
  std::vector<graph::NodeId> keyword_nodes;  // parallel to `keywords`
  // Fingerprint of the keyword->match expansion this graph was built
  // from (see KeywordMatchFingerprint below).
  std::uint64_t keyword_fingerprint = 0;
  // Whether the prefix mirrors the base id-for-id (false for finite
  // association thresholds, which drop edges, and for an unbuilt graph).
  bool mirrors_base = false;
  std::uint64_t base_revision = 0;
  std::size_t base_nodes = 0;
  std::size_t base_edges = 0;
  // Edges re-interned into the pools since they were last compacted: each
  // replaced payload may leave a superseded pool entry behind.
  std::size_t pool_churn = 0;
};

// Order-sensitive FNV-1a style hash over exactly the match sets
// BuildQueryGraph would expand for `keywords` against `index`: per
// keyword, the keyword text followed by every (doc_index, score) pair
// returned by index.Search at the options' similarity floor and match
// cap, with the score hashed by bit pattern. TF-IDF is corpus-wide
// (idf moves with the document count), so after the catalog changes the
// only way to prove a rebuilt query graph equals the old one plus new
// base nodes/edges is to recompute this and compare for exact equality.
std::uint64_t KeywordMatchFingerprint(const text::TextIndex& index,
                                      const std::vector<std::string>& keywords,
                                      const QueryGraphOptions& options);

// Builds the query graph. Fails with NotFound if any keyword matches
// nothing at or above min_similarity.
util::Result<QueryGraph> BuildQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    const std::vector<std::string>& keywords, graph::CostModel* model,
    const graph::WeightVector& weights, const QueryGraphOptions& options);

// What one SyncQueryGraph call changed.
struct QueryGraphSync {
  // The base journal was replayed onto the cached graph (false: the graph
  // was built from scratch).
  bool replayed = false;
  // The node/edge set moved: a fresh build, base additions, a different
  // keyword expansion, or a mutated base node (value text feeds query
  // compilation, which no re-cost can see). Snapshots of the graph must be
  // re-extracted.
  bool topology_changed = true;
  // Base edges overwritten in place (sorted, unique). When the topology
  // did not change these are the only edges whose payload may differ.
  std::vector<graph::EdgeId> mutated_edges;
};

// Brings `qg` up to date with `base`, leaving it equal to what
// BuildQueryGraph(base, index, keywords, ...) returns now: same node and
// edge ids, labels, payloads and edges_of order. Runs the text matches
// first and fails with NotFound — `qg` untouched — exactly when
// BuildQueryGraph would. Then, when `qg` mirrors an earlier revision of
// `base` and the journal still reaches it with ids that line up, pops
// the overlay, replays base.DeltaSince(qg->base_revision) onto the prefix
// (additions append copies, mutations overwrite in place) and re-appends
// the overlay. Otherwise — unbuilt graph, truncated journal, misaligned
// record, other keywords, finite association threshold — it rebuilds
// `qg` in place, releasing the old graph first.
util::Result<QueryGraphSync> SyncQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    const std::vector<std::string>& keywords, graph::CostModel* model,
    const graph::WeightVector& weights, const QueryGraphOptions& options,
    QueryGraph* qg);

}  // namespace q::query

#endif  // Q_QUERY_QUERY_GRAPH_H_
