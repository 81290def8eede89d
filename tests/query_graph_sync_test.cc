// Query-graph sync (query::SyncQueryGraph): a view's cached query graph is
// kept in step with the base graph by replaying the base journal onto it
// instead of copying the whole base on every registration. The suite
// checks that
//
//   * SearchGraph::TruncateTo pops an appended tail back to the exact
//     prior state (lookups, adjacency, payload maps);
//   * after randomized registrations, association merges (kEdgeMutated
//     records) and feedback, every synced query graph equals a fresh
//     BuildQueryGraph node for node, edge for edge and in edges_of order
//     — for graphs synced every step, graphs left behind for several
//     steps, a finite association threshold (always rebuilt), and a base
//     whose tiny journal forces the rebuild fallback — and, after every
//     sync barrier, also equals the filtered element-by-element copy at
//     the largest finite threshold;
//   * a view whose graph was rebuilt out of band gets a fresh snapshot;
//   * a sync that fails (a view keyword stops matching) leaves the view's
//     query graph, engine and published snapshot as they were, and a
//     later registration that restores the match syncs correctly.
//
// Runs under the ctest `stress` label.
#include <gtest/gtest.h>

#include <limits>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "core/q_system.h"
#include "data/onboarding.h"
#include "query/query_graph.h"
#include "util/random.h"

namespace q::query {
namespace {

using graph::EdgeId;
using graph::NodeId;

void ExpectSameQueryGraph(const QueryGraph& got, const QueryGraph& want,
                          const std::string& label) {
  const graph::SearchGraph& g = got.graph;
  const graph::SearchGraph& w = want.graph;
  ASSERT_EQ(g.num_nodes(), w.num_nodes()) << label;
  ASSERT_EQ(g.num_edges(), w.num_edges()) << label;
  for (NodeId n = 0; n < w.num_nodes(); ++n) {
    ASSERT_EQ(g.node(n).kind, w.node(n).kind) << label << " node " << n;
    ASSERT_EQ(g.node(n).label, w.node(n).label) << label << " node " << n;
    ASSERT_EQ(g.node(n).attr, w.node(n).attr) << label << " node " << n;
    ASSERT_EQ(g.node_value_text(n), w.node_value_text(n))
        << label << " node " << n;
    ASSERT_EQ(g.FindNode(g.node(n).kind, g.node(n).label), n)
        << label << " node index " << n;
    const graph::AdjacencyRange ga = g.edges_of(n);
    const graph::AdjacencyRange wa = w.edges_of(n);
    ASSERT_EQ(std::vector<EdgeId>(ga.begin(), ga.end()),
              std::vector<EdgeId>(wa.begin(), wa.end()))
        << label << " edges_of " << n;
  }
  for (EdgeId e = 0; e < w.num_edges(); ++e) {
    const graph::Edge ge = g.ExportEdge(e);
    const graph::Edge we = w.ExportEdge(e);
    ASSERT_EQ(ge.u, we.u) << label << " edge " << e;
    ASSERT_EQ(ge.v, we.v) << label << " edge " << e;
    ASSERT_EQ(ge.kind, we.kind) << label << " edge " << e;
    ASSERT_EQ(ge.features, we.features) << label << " edge " << e;
    ASSERT_EQ(ge.fixed_zero, we.fixed_zero) << label << " edge " << e;
    ASSERT_EQ(ge.provenance, we.provenance) << label << " edge " << e;
    ASSERT_EQ(ge.join_a, we.join_a) << label << " edge " << e;
    ASSERT_EQ(ge.join_b, we.join_b) << label << " edge " << e;
  }
  EXPECT_EQ(got.keywords, want.keywords) << label;
  EXPECT_EQ(got.keyword_nodes, want.keyword_nodes) << label;
  EXPECT_EQ(got.keyword_fingerprint, want.keyword_fingerprint) << label;
  EXPECT_EQ(got.mirrors_base, want.mirrors_base) << label;
  EXPECT_EQ(got.base_revision, want.base_revision) << label;
  EXPECT_EQ(got.base_nodes, want.base_nodes) << label;
  EXPECT_EQ(got.base_edges, want.base_edges) << label;
}

void ExpectSameSnapshot(const ViewSnapshot& a, const ViewSnapshot& b,
                        const std::string& label) {
  ASSERT_EQ(a.trees.size(), b.trees.size()) << label;
  for (std::size_t i = 0; i < a.trees.size(); ++i) {
    EXPECT_EQ(a.trees[i], b.trees[i]) << label << " tree " << i;
  }
  ASSERT_EQ(a.queries.size(), b.queries.size()) << label;
  for (std::size_t i = 0; i < a.queries.size(); ++i) {
    EXPECT_EQ(a.queries[i].atoms, b.queries[i].atoms) << label << " cq " << i;
  }
  EXPECT_EQ(a.results.columns, b.results.columns) << label;
  ASSERT_EQ(a.results.rows.size(), b.results.rows.size()) << label;
  for (std::size_t i = 0; i < a.results.rows.size(); ++i) {
    EXPECT_EQ(a.results.rows[i].cost, b.results.rows[i].cost)
        << label << " row " << i;
    EXPECT_EQ(a.results.rows[i].values, b.results.rows[i].values)
        << label << " row " << i;
  }
}

QueryGraph FreshBuild(core::QSystem* q, const std::vector<std::string>& kws,
                      const QueryGraphOptions& options) {
  auto built = BuildQueryGraph(q->search_graph(), q->text_index(), kws,
                               &q->cost_model(), q->weights(), options);
  Q_CHECK_OK(built.status());
  return std::move(built).value();
}

// The same build through the filtered element-by-element copy at the
// largest finite association threshold, with the mirror bookkeeping an
// infinite-threshold build records filled in. When no association edge
// costs infinity the filter keeps every edge, so synced graphs must equal
// this too: it pins them to the plain copy rather than to whatever
// BuildQueryGraph does for an infinite threshold.
QueryGraph FilteredCopyBuild(core::QSystem* q,
                             const std::vector<std::string>& kws,
                             const QueryGraphOptions& options) {
  QueryGraphOptions filtered = options;
  filtered.association_cost_threshold = std::numeric_limits<double>::max();
  QueryGraph qg = FreshBuild(q, kws, filtered);
  EXPECT_FALSE(qg.mirrors_base);
  const graph::SearchGraph& base = q->search_graph();
  for (EdgeId e = 0; e < base.num_edges(); ++e) {
    if (base.edge(e).kind != graph::EdgeKind::kAssociation) continue;
    EXPECT_LE(base.EdgeCost(e, q->weights()),
              filtered.association_cost_threshold)
        << "association edge " << e;
  }
  qg.mirrors_base = true;
  qg.base_revision = base.revision();
  qg.base_nodes = base.num_nodes();
  qg.base_edges = base.num_edges();
  return qg;
}

// --- SearchGraph::TruncateTo ------------------------------------------------

TEST(TruncateToTest, PopsAnAppendedTailBackToThePriorState) {
  graph::SearchGraph g;
  relational::AttributeId attr{"s", "r", "a"};
  NodeId r = g.AddNode(graph::NodeKind::kRelation, "s.r");
  NodeId a = g.AddNode(graph::NodeKind::kAttribute, attr.ToString(), attr);
  NodeId b = g.AddNode(graph::NodeKind::kAttribute, "s.r.b");
  graph::Edge m;
  m.u = r;
  m.v = a;
  m.kind = graph::EdgeKind::kMembership;
  m.fixed_zero = true;
  g.AddEdge(m);
  g.AddAssociationEdge(a, b, graph::FeatureVec(), {"x", 0.5});
  const std::size_t nodes = g.num_nodes();
  const std::size_t edges = g.num_edges();
  const std::vector<EdgeId> adj_a(g.edges_of(a).begin(), g.edges_of(a).end());

  // A keyword-overlay-shaped tail: a keyword node, a value node with text,
  // and edges from both onto old nodes (forcing block relocations).
  NodeId kw = g.AddNode(graph::NodeKind::kKeyword, "kw:x");
  NodeId v = g.AddNode(graph::NodeKind::kValue, "s.r.a=1", attr);
  g.SetNodeValueText(v, "1");
  for (NodeId target : {r, a, b, v}) {
    graph::Edge e;
    e.u = kw;
    e.v = target;
    e.kind = graph::EdgeKind::kKeywordMatch;
    g.AddEdge(e);
  }
  graph::Edge vm;
  vm.u = v;
  vm.v = a;
  vm.kind = graph::EdgeKind::kValueMembership;
  g.AddEdge(vm);
  const std::uint64_t revision = g.revision();

  g.TruncateTo(nodes, edges);
  EXPECT_GT(g.revision(), revision);
  EXPECT_EQ(g.num_nodes(), nodes);
  EXPECT_EQ(g.num_edges(), edges);
  EXPECT_FALSE(g.FindNode(graph::NodeKind::kKeyword, "kw:x").has_value());
  EXPECT_FALSE(g.FindNode(graph::NodeKind::kValue, "s.r.a=1").has_value());
  EXPECT_EQ(g.FindAttributeNode(attr), a);
  EXPECT_TRUE(g.FindAssociation(a, b).has_value());
  EXPECT_EQ(std::vector<EdgeId>(g.edges_of(a).begin(), g.edges_of(a).end()),
            adj_a);

  // Re-appending the same tail lands on the same ids, and the value text
  // of the popped node did not linger.
  NodeId kw2 = g.AddNode(graph::NodeKind::kKeyword, "kw:x");
  NodeId v2 = g.AddNode(graph::NodeKind::kValue, "s.r.a=1", attr);
  EXPECT_EQ(kw2, kw);
  EXPECT_EQ(v2, v);
  EXPECT_EQ(g.node_value_text(v2), "");
}

// --- randomized differential ------------------------------------------------

struct SyncHarness {
  data::OnboardingDataset dataset;
  std::unique_ptr<core::QSystem> q;
  std::vector<std::size_t> view_ids;

  SyncHarness(std::size_t communities, std::size_t journal_entries) {
    dataset = data::BuildOnboardingDataset(communities);
    core::QSystemConfig config;
    config.view.top_k.k = 2;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    // MAD only (see onboarding_test.cc): keeps communities apart, so most
    // registrations are structurally skipped by most views and their
    // query graphs fall several registrations behind before they sync.
    config.use_metadata_matcher = false;
    config.steiner_threads = -1;
    config.async_refresh = true;
    config.async_repair_threads = 2;
    q = std::make_unique<core::QSystem>(config);
    if (journal_entries > 0) {
      q->mutable_search_graph().set_max_journal_entries(journal_entries);
    }
    for (const auto& src : dataset.sources) {
      Q_CHECK_OK(q->RegisterSource(src));
    }
    for (const auto& keywords : dataset.keyword_queries) {
      auto id = q->CreateView(keywords);
      Q_CHECK_OK(id.status());
      view_ids.push_back(*id);
    }
  }

  const QueryGraphOptions& options() const {
    return q->config().view.query_graph;
  }
};

void RunRandomizedDifferential(std::size_t journal_entries,
                               std::uint64_t seed) {
  constexpr std::size_t kCommunities = 5;
  constexpr int kSteps = 36;
  SyncHarness h(kCommunities, journal_entries);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  util::Rng rng(seed);

  // Shadow query graphs owned by the test, synced on their own random
  // schedule: each one lags the base by a random number of steps.
  std::vector<QueryGraph> shadows;
  for (const auto& kws : h.dataset.keyword_queries) {
    shadows.push_back(FreshBuild(h.q.get(), kws, h.options()));
  }
  // Finite association threshold: the topology depends on the weights, so
  // every sync must rebuild (and still equal a fresh build).
  QueryGraphOptions finite = h.options();
  finite.association_cost_threshold = 5.0;
  QueryGraph finite_shadow =
      FreshBuild(h.q.get(), h.dataset.keyword_queries[0], finite);

  std::vector<match::AlignmentCandidate> installed;
  std::size_t serial = 0;
  std::size_t replays = 0;
  std::size_t rebuilds = 0;
  for (int step = 0; step < kSteps; ++step) {
    const std::string label = "step " + std::to_string(step);
    switch (rng.Uniform(5)) {
      case 0:
        ASSERT_TRUE(h.q->RegisterAndAlignSource(
                           data::MakeDisjointSource(serial++))
                        .ok())
            << label;
        break;
      case 1:
        ASSERT_TRUE(h.q->RegisterAndAlignSource(data::MakeOverlappingSource(
                                                    serial++,
                                                    rng.Uniform(kCommunities)))
                        .ok())
            << label;
        break;
      case 2: {
        // Association install: half the time a fresh attribute pair (edge
        // addition), otherwise a repeat of an installed pair under another
        // matcher name — a merge, journaled as kEdgeMutated.
        match::AlignmentCandidate c;
        if (!installed.empty() && rng.Bernoulli(0.5)) {
          c = rng.Pick(installed);
          c.matcher = "manual" + std::to_string(rng.Uniform(3));
        } else {
          std::vector<relational::AttributeId> attrs;
          const graph::SearchGraph& g = h.q->search_graph();
          for (NodeId n = 0; n < g.num_nodes(); ++n) {
            if (g.node(n).kind == graph::NodeKind::kAttribute) {
              attrs.push_back(g.node(n).attr);
            }
          }
          c.a = rng.Pick(attrs);
          c.b = rng.Pick(attrs);
          if (c.a == c.b) continue;
          c.matcher = "manual";
        }
        c.confidence = 0.5 + 0.5 * rng.UniformDouble();
        ASSERT_TRUE(h.q->AddAssociations({c}).ok()) << label;
        installed.push_back(c);
        ASSERT_TRUE(h.q->RefreshAllViews().ok()) << label;
        break;
      }
      default: {
        const std::size_t v = rng.Uniform(h.view_ids.size());
        ViewResult read = h.q->ReadView(h.view_ids[v]);
        ASSERT_NE(read.state, nullptr) << label;
        if (read.state->trees.empty()) break;
        ASSERT_TRUE(
            h.q->ApplyFeedback(h.view_ids[v],
                               rng.Pick(read.state->trees))
                .ok())
            << label;
        break;
      }
    }
    ASSERT_TRUE(h.q->DrainRefreshes().ok()) << label;

    for (std::size_t i = 0; i < shadows.size(); ++i) {
      if (!rng.Bernoulli(0.35)) continue;
      auto synced = SyncQueryGraph(h.q->search_graph(), h.q->text_index(),
                                   h.dataset.keyword_queries[i],
                                   &h.q->cost_model(), h.q->weights(),
                                   h.options(), &shadows[i]);
      ASSERT_TRUE(synced.ok()) << label << " shadow " << i;
      ++(synced->replayed ? replays : rebuilds);
      ExpectSameQueryGraph(
          shadows[i],
          FreshBuild(h.q.get(), h.dataset.keyword_queries[i], h.options()),
          label + " shadow " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }
    auto synced = SyncQueryGraph(h.q->search_graph(), h.q->text_index(),
                                 h.dataset.keyword_queries[0],
                                 &h.q->cost_model(), h.q->weights(), finite,
                                 &finite_shadow);
    ASSERT_TRUE(synced.ok()) << label;
    EXPECT_FALSE(synced->replayed) << label;
    ExpectSameQueryGraph(
        finite_shadow,
        FreshBuild(h.q.get(), h.dataset.keyword_queries[0], finite),
        label + " finite threshold");
    if (::testing::Test::HasFatalFailure()) return;

    // Live views the step synced (their graph mirrors the current base
    // revision) must equal fresh builds right away; the structural gate
    // left the others behind on purpose.
    for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
      const QueryGraph& live = h.q->view(h.view_ids[i]).query_graph();
      if (live.base_revision != h.q->search_graph().revision()) continue;
      ExpectSameQueryGraph(
          live,
          FreshBuild(h.q.get(), h.dataset.keyword_queries[i], h.options()),
          label + " live view " + std::to_string(i));
      if (::testing::Test::HasFatalFailure()) return;
    }

    // Every few steps a sync barrier brings every live view up to date:
    // views the structural gate skipped since the last barrier replay
    // their whole backlog here. Their graphs must equal fresh builds, and
    // the served search must equal the published snapshot.
    if (step % 4 == 3 || step == kSteps - 1) {
      ASSERT_TRUE(h.q->RefreshAllViews().ok()) << label;
      for (std::size_t i = 0; i < h.view_ids.size(); ++i) {
        const std::string vlabel = label + " view " + std::to_string(i);
        ExpectSameQueryGraph(
            h.q->view(h.view_ids[i]).query_graph(),
            FreshBuild(h.q.get(), h.dataset.keyword_queries[i], h.options()),
            vlabel);
        if (::testing::Test::HasFatalFailure()) return;
        ExpectSameQueryGraph(h.q->view(h.view_ids[i]).query_graph(),
                             FilteredCopyBuild(h.q.get(),
                                               h.dataset.keyword_queries[i],
                                               h.options()),
                             vlabel + " vs filtered copy");
        if (::testing::Test::HasFatalFailure()) return;
        auto served = h.q->QueryView(h.view_ids[i]);
        ASSERT_TRUE(served.ok()) << vlabel;
        ExpectSameSnapshot(*served, *h.q->ReadView(h.view_ids[i]).state,
                           vlabel);
      }
    }
  }
  // Both paths must have been exercised: replays with the default journal,
  // the rebuild fallback with a tiny one.
  EXPECT_GT(journal_entries == 0 ? replays : rebuilds, 0u);
}

TEST(QueryGraphSyncTest, RandomizedSequencesMatchFreshBuilds) {
  RunRandomizedDifferential(/*journal_entries=*/0, 20261020);
}

TEST(QueryGraphSyncTest, RandomizedSequencesMatchFreshBuildsSecondSeed) {
  RunRandomizedDifferential(/*journal_entries=*/0, 7);
}

TEST(QueryGraphSyncTest, TinyJournalFallsBackToFreshBuilds) {
  // Every registration overflows a 4-record journal, so a window spanning
  // one is never replayable: those syncs take the rebuild fallback.
  RunRandomizedDifferential(/*journal_entries=*/4, 99);
}

TEST(QueryGraphSyncTest, MergeOnlyWindowsKeepTopology) {
  SyncHarness h(/*communities=*/3, /*journal_entries=*/0);
  ASSERT_TRUE(h.q->DrainRefreshes().ok());
  match::AlignmentCandidate c;
  c.a = relational::AttributeId{"srcaaa", "relaaaa", "qaaaa"};
  c.b = relational::AttributeId{"srcaab", "relbaab", "qbaab"};
  c.matcher = "manual";
  c.confidence = 0.6;
  ASSERT_TRUE(h.q->AddAssociations({c}).ok());
  QueryGraph qg =
      FreshBuild(h.q.get(), h.dataset.keyword_queries[0], h.options());

  // Repeated votes on the same pair merge into the existing edge: every
  // window is kEdgeMutated records only. The many overwrites also push the
  // graph's pool churn past its edge count, so compactions run in between.
  for (int round = 0; round < 40; ++round) {
    const std::string label = "merge " + std::to_string(round);
    c.matcher = "manual" + std::to_string(round % 3);
    c.confidence = 0.5 + 0.01 * round;
    ASSERT_TRUE(h.q->AddAssociations({c}).ok()) << label;
    auto synced = SyncQueryGraph(h.q->search_graph(), h.q->text_index(),
                                 h.dataset.keyword_queries[0],
                                 &h.q->cost_model(), h.q->weights(),
                                 h.options(), &qg);
    ASSERT_TRUE(synced.ok()) << label;
    EXPECT_TRUE(synced->replayed) << label;
    EXPECT_FALSE(synced->topology_changed) << label;
    EXPECT_FALSE(synced->mutated_edges.empty()) << label;
    ExpectSameQueryGraph(
        qg, FreshBuild(h.q.get(), h.dataset.keyword_queries[0], h.options()),
        label);
    if (::testing::Test::HasFatalFailure()) return;
  }
  ASSERT_TRUE(h.q->RefreshAllViews().ok());
}

// An out-of-band TopKView::Refresh rebuilds a registered view's query graph
// at a newer base revision than its engine snapshot. The engine's next sync
// then has nothing to replay, yet must still re-extract its CSR.
TEST(QueryGraphSyncTest, OutOfBandRebuildGetsAFreshSnapshot) {
  auto make = [] {
    core::QSystemConfig config;
    config.view.top_k.k = 2;
    config.view.query_graph.min_similarity = 0.5;
    config.view.query_graph.max_matches_per_keyword = 6;
    config.use_metadata_matcher = false;
    config.steiner_threads = -1;
    auto q = std::make_unique<core::QSystem>(config);
    data::OnboardingDataset dataset = data::BuildOnboardingDataset(3);
    for (const auto& src : dataset.sources) Q_CHECK_OK(q->RegisterSource(src));
    for (const auto& kws : dataset.keyword_queries) {
      Q_CHECK_OK(q->CreateView(kws).status());
    }
    Q_CHECK_OK(q->RegisterSource(data::MakeOverlappingSource(0, 1)));
    return q;
  };
  std::unique_ptr<core::QSystem> q = make();
  std::unique_ptr<core::QSystem> twin = make();
  ASSERT_TRUE(q->view(1)
                  .Refresh(q->search_graph(), q->catalog(), q->text_index(),
                           &q->cost_model(), q->weights())
                  .ok());
  ASSERT_TRUE(q->RefreshAllViews().ok());
  ASSERT_TRUE(twin->RefreshAllViews().ok());
  for (std::size_t i = 0; i < q->num_views(); ++i) {
    const std::string label = "view " + std::to_string(i);
    auto served = q->QueryView(i);
    ASSERT_TRUE(served.ok()) << label;
    ExpectSameSnapshot(*served, *q->ReadView(i).state, label);
    ExpectSameSnapshot(*served, *twin->ReadView(i).state, label + " twin");
  }
}

// --- failure atomicity --------------------------------------------------------

// A source with one table: relation `relation` with the given attribute
// names, `rows` rows of per-cell values from `value(row, column)`.
template <typename ValueFn>
std::shared_ptr<relational::DataSource> MakeSource(
    const std::string& name, const std::vector<std::string>& attributes,
    std::size_t rows, ValueFn value) {
  std::vector<relational::AttributeDef> defs;
  for (const std::string& a : attributes) defs.push_back({a});
  auto table = std::make_shared<relational::Table>(
      relational::RelationSchema(name, "t" + name, defs));
  for (std::size_t r = 0; r < rows; ++r) {
    relational::Row row;
    for (std::size_t c = 0; c < attributes.size(); ++c) {
      row.push_back(relational::Value(value(r, c)));
    }
    Q_CHECK_OK(table->AppendRow(std::move(row)));
  }
  auto source = std::make_shared<relational::DataSource>(name);
  Q_CHECK_OK(source->AddTable(std::move(table)));
  return source;
}

void RunFailureAtomicity(bool async) {
  core::QSystemConfig config;
  config.view.top_k.k = 2;
  config.view.query_graph.min_similarity = 0.4;
  config.use_metadata_matcher = false;
  config.steiner_threads = -1;
  config.async_refresh = async;
  config.async_repair_threads = async ? 2 : 0;
  core::QSystem q(config);
  for (const auto& src : data::BuildOnboardingDataset(3).sources) {
    ASSERT_TRUE(q.RegisterSource(src).ok());
  }
  // "zorp quux" matches the attribute "zorpBlah" (tokens zorp, blah) only
  // partially: its score falls as documents containing "zorp" make the
  // token common.
  ASSERT_TRUE(q.RegisterSource(MakeSource("fsrc", {"zorpBlah", "fcol"}, 4,
                                          [](std::size_t r, std::size_t c) {
                                            return "fv" + std::to_string(c) +
                                                   data::OnboardingCode(r);
                                          }))
                  .ok());
  const std::vector<std::string> keywords = {"zorp quux", "fcol"};
  auto created = q.CreateView(keywords);
  ASSERT_TRUE(created.ok()) << created.status().ToString();
  const std::size_t id = *created;
  auto other = q.CreateView(data::BuildOnboardingDataset(3).keyword_queries[1]);
  ASSERT_TRUE(other.ok());
  ASSERT_TRUE(q.DrainRefreshes().ok());

  // Noise sources: values that contain "zorp" among many rare tokens. Each
  // lowers zorp's idf; their own match scores stay far below the floor.
  util::Status failed = util::Status::OK();
  for (std::size_t n = 0; n < 60 && failed.ok(); ++n) {
    const QueryGraph before_graph = q.view(id).query_graph();
    const std::shared_ptr<const ViewSnapshot> before_state =
        q.ReadView(id).state;
    const auto stats_before = q.refresh_engine().stats();
    const std::string code = data::OnboardingCode(n);
    auto noise = MakeSource("nsrc" + code, {"nattr" + code}, 1,
                            [&code](std::size_t, std::size_t) {
                              return "zorp nxa" + code + " nxb" + code +
                                     " nxc" + code + " nxd" + code;
                            });
    auto registered = q.RegisterAndAlignSource(noise);
    if (registered.ok()) {
      ASSERT_TRUE(q.DrainRefreshes().ok());
      continue;
    }
    failed = registered.status();
    ASSERT_TRUE(failed.IsNotFound()) << failed.ToString();
    if (async) (void)q.DrainRefreshes();  // waits; reports the same failure

    // Untouched: the cached query graph, the slot engine (no snapshot was
    // built for the view, and it still serves exactly what was published)
    // and the published snapshot itself.
    ExpectSameQueryGraph(q.view(id).query_graph(), before_graph, "failed sync");
    EXPECT_EQ(q.ReadView(id).state.get(), before_state.get());
    EXPECT_LE(q.refresh_engine().stats().snapshots_built -
                  stats_before.snapshots_built,
              q.num_views() - 1);
    auto served = q.QueryView(id);
    ASSERT_TRUE(served.ok());
    ExpectSameSnapshot(*served, *before_state, "served after failure");
  }
  ASSERT_FALSE(failed.ok()) << "noise never pushed the keyword below the floor";

  // The other view is unaffected by the failure: it refreshed and serves
  // what it published.
  auto served_other = q.QueryView(*other);
  ASSERT_TRUE(served_other.ok());
  ExpectSameSnapshot(*served_other, *q.ReadView(*other).state, "other view");

  // A source whose attribute is named exactly "zorp quux" restores the
  // match; the sync replays the whole backlog, failed registrations
  // included.
  auto restored = q.RegisterAndAlignSource(
      MakeSource("rsrc", {"zorpQuux", "fcol"}, 4,
                 [](std::size_t r, std::size_t c) {
                   return "rv" + std::to_string(c) + data::OnboardingCode(r);
                 }));
  ASSERT_TRUE(restored.ok()) << restored.status().ToString();
  // A sync barrier clears the async scheduler's sticky repair error.
  ASSERT_TRUE(q.RefreshAllViews().ok());
  ExpectSameQueryGraph(
      q.view(id).query_graph(),
      FreshBuild(&q, keywords, q.config().view.query_graph), "restored");
  auto served = q.QueryView(id);
  ASSERT_TRUE(served.ok());
  ExpectSameSnapshot(*served, *q.ReadView(id).state, "restored");
  EXPECT_FALSE(q.ReadView(id).state->trees.empty());
}

TEST(QueryGraphSyncTest, FailedSyncLeavesLastGoodSnapshotServing) {
  RunFailureAtomicity(/*async=*/false);
}

TEST(QueryGraphSyncTest, FailedSyncLeavesLastGoodSnapshotServingAsync) {
  RunFailureAtomicity(/*async=*/true);
}

}  // namespace
}  // namespace q::query
