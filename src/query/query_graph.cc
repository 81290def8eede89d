#include "query/query_graph.h"

#include <algorithm>
#include <cstring>
#include <limits>
#include <optional>

#include "util/logging.h"

namespace q::query {
namespace {

constexpr std::uint64_t kFnvOffsetBasis = 1469598103934665603ull;
constexpr std::uint64_t kFnvPrime = 1099511628211ull;

void MixFingerprint(std::uint64_t* h, std::uint64_t v) {
  *h ^= v;
  *h *= kFnvPrime;
}

// One keyword's contribution: the keyword text, a separator, then every
// (doc_index, score-bit-pattern) pair in ranked order. Must stay in
// lockstep with how BuildQueryGraph consumes index.Search results.
void MixKeywordMatches(std::uint64_t* h, const std::string& keyword,
                       const std::vector<text::ScoredDoc>& matches) {
  for (char c : keyword) {
    MixFingerprint(h, static_cast<unsigned char>(c));
  }
  MixFingerprint(h, 0xffu);
  for (const text::ScoredDoc& match : matches) {
    MixFingerprint(h, static_cast<std::uint64_t>(match.doc_index));
    std::uint64_t bits = 0;
    static_assert(sizeof(bits) == sizeof(match.score));
    std::memcpy(&bits, &match.score, sizeof(bits));
    MixFingerprint(h, bits);
  }
}

// Copies `base` into `out`, dropping association edges whose current cost
// exceeds the threshold. Node ids are preserved; edge ids may shift.
void CopyGraphFiltered(const graph::SearchGraph& base,
                       const graph::WeightVector& weights,
                       double association_cost_threshold,
                       graph::SearchGraph* out) {
  for (graph::NodeId n = 0; n < base.num_nodes(); ++n) {
    const graph::Node& node = base.node(n);
    graph::NodeId added = out->AddNode(node.kind, node.label, node.attr);
    Q_CHECK(added == n);
    const std::string& value_text = base.node_value_text(n);
    if (!value_text.empty()) out->SetNodeValueText(added, value_text);
  }
  for (graph::EdgeId e = 0; e < base.num_edges(); ++e) {
    const graph::EdgeView edge = base.edge(e);
    if (edge.kind == graph::EdgeKind::kAssociation &&
        base.EdgeCost(e, weights) > association_cost_threshold) {
      continue;
    }
    out->AddEdge(base.ExportEdge(e));
  }
}

using MatchSets = std::vector<std::vector<text::ScoredDoc>>;

// Whether the overlay would attach `doc` to a node: relation documents to
// their relation node, attribute and value documents (via a value node)
// to their attribute node.
bool HasMatchTarget(const graph::SearchGraph& graph,
                    const text::Document& doc) {
  if (doc.kind == text::DocKind::kRelationName) {
    return graph.FindRelationNode(doc.attr.RelationQualifiedName())
        .has_value();
  }
  return graph.FindAttributeNode(doc.attr).has_value();
}

// Runs every keyword's text match and checks, against `base`, that each
// keyword gets at least one match edge. Every query graph holds all of
// base's nodes, so this decides success before anything is built.
util::Result<MatchSets> MatchKeywords(const graph::SearchGraph& base,
                                      const text::TextIndex& index,
                                      const std::vector<std::string>& keywords,
                                      const QueryGraphOptions& options) {
  MatchSets matches;
  matches.reserve(keywords.size());
  for (const std::string& keyword : keywords) {
    matches.push_back(index.Search(keyword, options.min_similarity,
                                   options.max_matches_per_keyword));
    bool any = false;
    for (const text::ScoredDoc& match : matches.back()) {
      if (HasMatchTarget(base, index.documents()[match.doc_index])) {
        any = true;
        break;
      }
    }
    if (!any) {
      return util::Status::NotFound("keyword '" + keyword +
                                    "' matched no schema element or value");
    }
  }
  return matches;
}

// Appends the keyword overlay to `qg->graph`: per keyword, its keyword
// node, then per match the (shared) value node with its membership edge
// and the match edge. Sets keyword_nodes and keyword_fingerprint.
void AppendOverlay(const text::TextIndex& index,
                   const std::vector<std::string>& keywords,
                   const MatchSets& matches, graph::CostModel* model,
                   QueryGraph* qg) {
  qg->keyword_nodes.clear();
  qg->keyword_fingerprint = kFnvOffsetBasis;
  for (std::size_t k = 0; k < keywords.size(); ++k) {
    const std::string& keyword = keywords[k];
    graph::NodeId kw_node =
        qg->graph.AddNode(graph::NodeKind::kKeyword, "kw:" + keyword);
    qg->keyword_nodes.push_back(kw_node);
    MixKeywordMatches(&qg->keyword_fingerprint, keyword, matches[k]);
    for (const text::ScoredDoc& match : matches[k]) {
      const text::Document& doc = index.documents()[match.doc_index];
      std::optional<graph::NodeId> target;
      std::string owning_relation;
      switch (doc.kind) {
        case text::DocKind::kRelationName: {
          target =
              qg->graph.FindRelationNode(doc.attr.RelationQualifiedName());
          owning_relation = doc.attr.RelationQualifiedName();
          break;
        }
        case text::DocKind::kAttributeName: {
          target = qg->graph.FindAttributeNode(doc.attr);
          owning_relation = doc.attr.RelationQualifiedName();
          break;
        }
        case text::DocKind::kValue: {
          auto attr_node = qg->graph.FindAttributeNode(doc.attr);
          if (!attr_node.has_value()) break;
          owning_relation = doc.attr.RelationQualifiedName();
          // Lazily materialize the value node (shared across keywords).
          std::string label = doc.attr.ToString() + "=" + doc.text;
          auto existing = qg->graph.FindNode(graph::NodeKind::kValue, label);
          if (existing.has_value()) {
            target = existing;
          } else {
            graph::NodeId vnode = qg->graph.AddNode(graph::NodeKind::kValue,
                                                    label, doc.attr);
            // Record the raw text for selection-predicate generation.
            qg->graph.SetNodeValueText(vnode, doc.text);
            graph::Edge membership;
            membership.u = vnode;
            membership.v = *attr_node;
            membership.kind = graph::EdgeKind::kValueMembership;
            membership.fixed_zero = true;
            qg->graph.AddEdge(std::move(membership));
            target = vnode;
          }
          break;
        }
      }
      if (!target.has_value()) continue;

      double mismatch = 1.0 - match.score;  // s_i of Fig. 3
      graph::Edge edge;
      edge.u = kw_node;
      edge.v = *target;
      edge.kind = graph::EdgeKind::kKeywordMatch;
      std::string key = keyword + "|" + qg->graph.node(*target).label;
      edge.features =
          model->KeywordMatchFeatures(mismatch, owning_relation, key);
      qg->graph.AddEdge(std::move(edge));
    }
  }
}

bool InfiniteThreshold(const QueryGraphOptions& options) {
  return options.association_cost_threshold ==
         std::numeric_limits<double>::infinity();
}

// Rebuilds `qg` from scratch against `base`. The old graph is released
// before the copy, so a rebuild never holds two copies of the base. With
// an infinite threshold the filtered copy drops nothing, so the prefix
// mirrors the base id for id and later syncs can replay onto it.
void BuildFresh(const graph::SearchGraph& base, const text::TextIndex& index,
                const std::vector<std::string>& keywords,
                const MatchSets& matches, graph::CostModel* model,
                const graph::WeightVector& weights,
                const QueryGraphOptions& options, QueryGraph* qg) {
  *qg = QueryGraph();
  qg->keywords = keywords;
  // Only the base graph's delta journal is ever read (the RefreshEngine
  // classifies views from base.DeltaSince); keep the copy's minimal.
  qg->graph.set_max_journal_entries(1);
  CopyGraphFiltered(base, weights, options.association_cost_threshold,
                    &qg->graph);
  if (InfiniteThreshold(options)) {
    qg->mirrors_base = true;
    qg->base_revision = base.revision();
    qg->base_nodes = base.num_nodes();
    qg->base_edges = base.num_edges();
  }
  AppendOverlay(index, keywords, matches, model, qg);
}

// Reads the journal window since `qg`'s mirrored revision into `deltas`
// and checks that it replays onto the prefix: additions carry exactly the
// next ids, mutations name existing ids, and the window ends at base's
// current size. False means "build fresh".
bool ReplayableWindow(const graph::SearchGraph& base, const QueryGraph& qg,
                      std::vector<graph::GraphDelta>* deltas) {
  if (!base.DeltaSince(qg.base_revision, deltas)) return false;
  std::size_t nodes = qg.base_nodes;
  std::size_t edges = qg.base_edges;
  for (const graph::GraphDelta& d : *deltas) {
    switch (d.kind) {
      case graph::GraphDeltaKind::kNodeAdded:
        if (d.id != nodes) return false;
        ++nodes;
        break;
      case graph::GraphDeltaKind::kEdgeAdded:
        if (d.id != edges) return false;
        ++edges;
        break;
      case graph::GraphDeltaKind::kNodeMutated:
        if (d.id >= nodes) return false;
        break;
      case graph::GraphDeltaKind::kEdgeMutated:
        if (d.id >= edges) return false;
        break;
    }
  }
  return nodes == base.num_nodes() && edges == base.num_edges();
}

void SortUnique(std::vector<std::uint32_t>* ids) {
  std::sort(ids->begin(), ids->end());
  ids->erase(std::unique(ids->begin(), ids->end()), ids->end());
}

}  // namespace

std::uint64_t KeywordMatchFingerprint(const text::TextIndex& index,
                                      const std::vector<std::string>& keywords,
                                      const QueryGraphOptions& options) {
  std::uint64_t h = kFnvOffsetBasis;
  for (const std::string& keyword : keywords) {
    MixKeywordMatches(&h, keyword,
                      index.Search(keyword, options.min_similarity,
                                   options.max_matches_per_keyword));
  }
  return h;
}

util::Result<QueryGraph> BuildQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    const std::vector<std::string>& keywords, graph::CostModel* model,
    const graph::WeightVector& weights, const QueryGraphOptions& options) {
  Q_ASSIGN_OR_RETURN(MatchSets matches,
                     MatchKeywords(base, index, keywords, options));
  QueryGraph qg;
  BuildFresh(base, index, keywords, matches, model, weights, options, &qg);
  return qg;
}

util::Result<QueryGraphSync> SyncQueryGraph(
    const graph::SearchGraph& base, const text::TextIndex& index,
    const std::vector<std::string>& keywords, graph::CostModel* model,
    const graph::WeightVector& weights, const QueryGraphOptions& options,
    QueryGraph* qg) {
  // Step 1, before touching anything: a keyword without matches fails the
  // sync with the graph as it was.
  Q_ASSIGN_OR_RETURN(MatchSets matches,
                     MatchKeywords(base, index, keywords, options));
  QueryGraphSync sync;
  std::vector<graph::GraphDelta> deltas;
  if (!qg->mirrors_base || !InfiniteThreshold(options) ||
      qg->keywords != keywords || !ReplayableWindow(base, *qg, &deltas)) {
    BuildFresh(base, index, keywords, matches, model, weights, options, qg);
    return sync;
  }

  sync.replayed = true;

  // Step 2: pop the overlay.
  const std::size_t old_nodes = qg->base_nodes;
  const std::size_t old_edges = qg->base_edges;
  const std::uint64_t old_fingerprint = qg->keyword_fingerprint;
  qg->graph.TruncateTo(old_nodes, old_edges);

  // Step 3: replay the window. Additions copy the entity's current state,
  // so only mutations of entities that predate the window need an
  // overwrite, and each needs just one.
  bool added = false;
  std::vector<graph::NodeId> mutated_nodes;
  for (const graph::GraphDelta& d : deltas) {
    switch (d.kind) {
      case graph::GraphDeltaKind::kNodeAdded: {
        const graph::Node& node = base.node(d.id);
        graph::NodeId id = qg->graph.AddNode(node.kind, node.label, node.attr);
        Q_CHECK(id == d.id);
        const std::string& value_text = base.node_value_text(d.id);
        if (!value_text.empty()) qg->graph.SetNodeValueText(id, value_text);
        added = true;
        break;
      }
      case graph::GraphDeltaKind::kEdgeAdded:
        qg->graph.AddEdge(base.ExportEdge(d.id));
        added = true;
        break;
      case graph::GraphDeltaKind::kNodeMutated:
        if (d.id < old_nodes) mutated_nodes.push_back(d.id);
        break;
      case graph::GraphDeltaKind::kEdgeMutated:
        if (d.id < old_edges) sync.mutated_edges.push_back(d.id);
        break;
    }
  }
  SortUnique(&sync.mutated_edges);
  for (graph::EdgeId e : sync.mutated_edges) {
    qg->graph.OverwriteEdge(e, base.ExportEdge(e));
  }
  SortUnique(&mutated_nodes);
  for (graph::NodeId n : mutated_nodes) {
    qg->graph.SetNodeValueText(n, base.node_value_text(n));
  }
  qg->base_revision = base.revision();
  qg->base_nodes = base.num_nodes();
  qg->base_edges = base.num_edges();

  // Step 4: the overlay, in BuildQueryGraph's order.
  AppendOverlay(index, keywords, matches, model, qg);
  sync.topology_changed = added || !mutated_nodes.empty() ||
                          qg->keyword_fingerprint != old_fingerprint;

  // Overwrites and re-appended overlay edges leave superseded pool entries
  // that a fresh build would not have. Compacting once the churn reaches
  // the edge count keeps them bounded at amortized O(1) per churned edge.
  qg->pool_churn += sync.mutated_edges.size() +
                    (qg->graph.num_edges() - qg->base_edges);
  if (qg->pool_churn > qg->graph.num_edges()) {
    qg->graph.CompactPools();
    qg->pool_churn = 0;
  }
  return sync;
}

}  // namespace q::query
