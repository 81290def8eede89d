// The loop benchmark: one command that runs the paper's whole loop —
// serve keyword views, take feedback, onboard new sources, restart warm —
// against the public core::QSystem API, checks the outputs, and prints
// every end-to-end metric by name and unit.
//
//   loopbench --workload <serve_feedback|serve_catalog|onboard_restart>
//             --seed <n> --seconds <s> --trace <0|1> --workdir <dir>
//             [--tiny]
//
// One run: set the system up (several times when cheap, for setup_s),
// then alternate, slice by slice: serve (closed-loop readers replay fixed
// op lists while one writer follows an open-loop schedule of feedback
// and, on onboard_restart, registrations), onboard a share of the tail
// sources, and run a share of the warm restarts. --trace 1 is a separate
// run of the same workload that records a span around every QSystem
// call, replays a seeded sample of served queries layer by layer at a
// quiescent point, reads the counters the modules export, and prints the
// per-layer metrics instead.
//
// Any correctness divergence exits 2 without a result line.
#include <algorithm>
#include <atomic>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <string>
#include <thread>
#include <vector>

#include "core/q_system.h"
#include "data/interpro_go.h"
#include "data/onboarding.h"
#include "data/synthetic.h"
#include "loadgen.h"
#include "persist/snapshot.h"
#include "query/conjunctive_query.h"
#include "query/executor.h"
#include "query/query_graph.h"
#include "query/ranked_union.h"
#include "report.h"
#include "steiner/fast_solver.h"
#include "steiner/shard.h"
#include "steiner/top_k.h"
#include "tracer.h"
#include "util/env.h"

namespace loopbench {
namespace {

using q::core::QSystem;

// End-to-end metrics (the untraced run) and per-layer metrics (the traced
// run), in output order. Kept in step with BENCHMARK.json.
const std::vector<std::string> kEndToEnd = {
    "query_p50_ms",          "query_p99_ms",
    "query_qps",             "feedback_ack_p50_ms",
    "register_ack_p50_ms",   "register_ack_p95_ms",
    "source_visible_p50_ms", "snapshot_save_ms",
    "restart_first_query_ms", "setup_s",
    "peak_rss_mb"};

const char* const kSections[] = {"catalog", "feature_space", "graph",
                                 "weights", "feedback"};

std::vector<std::string> PerLayerNames() {
  std::vector<std::string> names = {
      "text.search_us",          "text.documents",
      "query.build_graph_ms",    "query.graph_nodes",
      "query.compile_us",        "query.execute_us",
      "query.rows",              "query.union_us",
      "steiner.csr_build_ms",    "steiner.topk_cold_ms",
      "steiner.topk_ms",         "steiner.trees",
      "steiner.sp_hit_ratio",    "steiner.local_hit_ratio",
      "steiner.masked_bypasses", "steiner.mask_nodes",
      "steiner.scratch_mb",      "graph.nodes",
      "graph.edges",             "graph.bytes_per_source",
      "core.skip_ratio",         "core.delta_recosts",
      "core.full_recosts",       "core.rebuilds",
      "core.searches_run",       "core.repair_run_ratio",
      "core.structural_skip_ratio", "core.structural_rebuilds",
      "core.read_p99_us",        "core.view_fresh_p95_ms",
      "persist.warm_boot_ms",
      "learn.mira_update_us",    "align.ms",
      "align.matcher_calls",     "align.attribute_comparisons",
      "align.relations_considered", "match.pair_alignments",
      "align.hit_ratio",         "persist.snapshot_mb",
      "persist.read_ms",         "persist.rebuild_ms",
      "trace.overhead_pct",      "trace.spans",
      "trace.replay_self_ms.text", "trace.replay_self_ms.query",
      "trace.replay_self_ms.steiner", "trace.replay_unaccounted_pct"};
  for (const char* s : kSections) {
    names.push_back(std::string("persist.encode_ms.") + s);
    names.push_back(std::string("persist.decode_ms.") + s);
  }
  return names;
}

// A failure the run cannot continue past: no result line, exit 2.
[[noreturn]] void Abort(const char* why) {
  std::fprintf(stderr, "loopbench: %s\n", why);
  std::exit(2);
}

// Progress lines go to stderr; stdout carries only the two result lines.
void Log(const char* phase, Clock::time_point since) {
  std::fprintf(stderr, "loopbench: %s (%.2f s)\n", phase,
               MsSince(since, Clock::now()) / 1000.0);
}

struct Args {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10.0;
  bool trace = false;
  bool tiny = false;
  std::string workdir = ".";
};

q::data::InterProGoConfig DatasetConfig(bool tiny) {
  // The bench_serve_load serving catalog (tiny: its smoke size).
  q::data::InterProGoConfig config;
  config.num_go_terms = tiny ? 80 : 120;
  config.num_entries = tiny ? 60 : 90;
  config.num_pubs = tiny ? 50 : 80;
  config.num_journals = 10;
  config.num_methods = tiny ? 40 : 60;
  config.interpro2go_links = tiny ? 120 : 200;
  config.entry2pub_links = tiny ? 100 : 160;
  config.method2pub_links = tiny ? 80 : 120;
  return config;
}

q::core::QSystemConfig SystemConfig(const WorkloadSpec& spec) {
  q::core::QSystemConfig config;
  config.view.query_graph.min_similarity = 0.5;
  config.view.query_graph.max_matches_per_keyword = 6;
  // Each search runs sequentially: the measured concurrency is many
  // whole searches sharing the system.
  config.steiner_threads = -1;
  config.sharded_search = spec.sharded;
  config.async_refresh = true;
  config.async_repair_threads = 0;
  return config;
}

// Streaming growth joined to the catalog the views search (Sec. 5.1.2:
// new sources are "connected to random nodes in the search graph").
// Each streaming domain is a component of its own (its sources associate
// only with its own hubs). Domains are joined smallest first while their
// nodes fit in a tenth of the streamed nodes, so that the rest only adds
// graph memory: joining every domain made the searches of Lawler
// subspaces with no tree explore most of a 100k-source catalog. Each
// joined domain gets exactly one association edge from a random
// attribute of it to a random attribute of the nodes before
// `first_streamed`. One edge per domain makes each joined domain a
// dead end: no path between two older nodes runs through streamed
// sources, so the views' trees, and the queries compiled from them, stay
// on executable sources, while their searches' Dijkstra balls and shard
// masks reach into the joined domains.
std::vector<q::match::AlignmentCandidate> BridgeDomains(
    const q::graph::SearchGraph& graph, q::graph::NodeId first_streamed,
    const std::vector<q::relational::AttributeId>& base_attrs,
    q::util::Rng* rng) {
  std::vector<q::graph::NodeId> parent(graph.num_nodes());
  for (q::graph::NodeId n = 0; n < parent.size(); ++n) parent[n] = n;
  auto find = [&parent](q::graph::NodeId n) {
    while (parent[n] != n) n = parent[n] = parent[parent[n]];
    return n;
  };
  for (q::graph::EdgeId e = 0; e < graph.num_edges(); ++e) {
    const q::graph::EdgeView edge = graph.edge(e);
    parent[find(edge.u)] = find(edge.v);
  }
  // Per domain: its node count and a uniform attribute (reservoir
  // sampling in id order).
  struct Domain {
    std::size_t nodes = 0, attrs = 0;
    q::graph::NodeId pick = 0;
  };
  std::map<q::graph::NodeId, Domain> domains;
  for (q::graph::NodeId n = first_streamed; n < graph.num_nodes(); ++n) {
    Domain& d = domains[find(n)];
    ++d.nodes;
    if (graph.node(n).kind == q::graph::NodeKind::kAttribute &&
        rng->Uniform(++d.attrs) == 0) {
      d.pick = n;
    }
  }
  std::vector<Domain> by_size;
  for (const auto& entry : domains) by_size.push_back(entry.second);
  std::stable_sort(by_size.begin(), by_size.end(),
                   [](const Domain& a, const Domain& b) {
                     return a.nodes < b.nodes;
                   });
  const std::size_t budget = (graph.num_nodes() - first_streamed) / 10;
  std::vector<q::match::AlignmentCandidate> bridges;
  std::size_t joined = 0;
  for (const Domain& d : by_size) {
    if (joined + d.nodes > budget) break;
    joined += d.nodes;
    q::match::AlignmentCandidate c;
    c.a = graph.node(d.pick).attr;
    c.b = base_attrs[rng->Uniform(base_attrs.size())];
    c.confidence = 0.5;
    c.matcher = "synthetic";
    bridges.push_back(c);
  }
  std::fprintf(stderr,
               "loopbench: joined %zu of %zu streaming domains (%zu nodes)\n",
               bridges.size(), by_size.size(), joined);
  return bridges;
}

// The system with its sources, associations and catalog growth, but no
// views. `grow` adds the synthetic catalog sources and the graph-only
// streaming sources.
std::unique_ptr<QSystem> BuildBase(const WorkloadSpec& spec, bool grow) {
  q::data::InterProGoDataset dataset =
      q::data::BuildInterProGo(DatasetConfig(spec.tiny));
  auto q = std::make_unique<QSystem>(SystemConfig(spec));
  for (const auto& src : dataset.catalog.sources()) {
    Q_CHECK_OK(q->RegisterSource(src));
  }
  Q_CHECK_OK(q->RunInitialAlignment());
  if (grow && spec.catalog_sources > 0) {
    // Catalog-backed synthetic sources (Sec. 5.1.2 style: two attributes,
    // each associated with a random attribute of an earlier synthetic
    // source). They grow the catalog, the text index, the search graph
    // and the snapshot, but form their own component: the views' top-k
    // searches stay in the InterPro-GO part, as in a large catalog whose
    // sources are mostly unrelated to the open views.
    q::util::Rng rng(7);
    std::vector<q::relational::AttributeId> attrs;
    std::vector<q::match::AlignmentCandidate> candidates;
    for (std::size_t i = 0; i < spec.catalog_sources; ++i) {
      auto source = q::data::MakeSyntheticSource("syn" + std::to_string(i),
                                                 /*rows=*/3, &rng);
      Q_CHECK_OK(q->RegisterSource(source));
      const auto& schema = source->tables()[0]->schema();
      for (std::size_t a = 0; a < schema.num_attributes(); ++a) {
        if (!attrs.empty()) {
          q::match::AlignmentCandidate c;
          c.a = schema.IdOf(a);
          c.b = attrs[rng.Uniform(attrs.size())];
          c.confidence = 0.5;
          c.matcher = "synthetic";
          candidates.push_back(c);
        }
        attrs.push_back(schema.IdOf(a));
      }
    }
    Q_CHECK_OK(q->AddAssociations(candidates));
  }
  if (grow && spec.stream_sources > 0) {
    q::util::Rng rng(11);
    const q::graph::SearchGraph& graph = q->search_graph();
    std::vector<q::relational::AttributeId> base_attrs;
    for (q::graph::NodeId n = 0; n < graph.num_nodes(); ++n) {
      if (graph.node(n).kind == q::graph::NodeKind::kAttribute) {
        base_attrs.push_back(graph.node(n).attr);
      }
    }
    const q::graph::NodeId first_streamed =
        static_cast<q::graph::NodeId>(graph.num_nodes());
    q::data::StreamingCatalogOptions options;
    Q_CHECK_OK(q::data::BuildStreamingCatalog(
        spec.stream_sources, options, &rng, /*catalog=*/nullptr,
        &q->cost_model(), &q->mutable_search_graph()));
    Q_CHECK_OK(q->AddAssociations(
        BridgeDomains(graph, first_streamed, base_attrs, &rng)));
  }
  return q;
}

bool SameTrees(const std::vector<q::steiner::SteinerTree>& a,
               const std::vector<q::steiner::SteinerTree>& b,
               bool compare_edges) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cost != b[i].cost) return false;
    if (compare_edges && a[i].edges != b[i].edges) return false;
  }
  return true;
}

bool SameRows(const q::query::RankedResults& a,
              const q::query::RankedResults& b) {
  if (a.columns != b.columns || a.rows.size() != b.rows.size()) return false;
  for (std::size_t i = 0; i < a.rows.size(); ++i) {
    if (a.rows[i].cost != b.rows[i].cost ||
        a.rows[i].query_index != b.rows[i].query_index ||
        a.rows[i].values != b.rows[i].values) {
      return false;
    }
  }
  return true;
}

bool SameQueries(const std::vector<q::query::ConjunctiveQuery>& a,
                 const std::vector<q::query::ConjunctiveQuery>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].cost != b[i].cost || a[i].ToSql() != b[i].ToSql()) return false;
  }
  return true;
}

bool SameSnapshot(const q::query::ViewSnapshot& a,
                  const q::query::ViewSnapshot& b) {
  return SameTrees(a.trees, b.trees, /*compare_edges=*/true) &&
         SameQueries(a.queries, b.queries) && SameRows(a.results, b.results);
}

bool ShowsRelation(const q::query::ViewSnapshot& state,
                   const std::string& relation) {
  for (const auto& cq : state.queries) {
    if (std::find(cq.atoms.begin(), cq.atoms.end(), relation) !=
        cq.atoms.end()) {
      return true;
    }
  }
  return false;
}

struct ReaderResult {
  Samples query_ms;
  Samples read_ms;
  OpCount query;
  OpCount read;
  std::size_t scratch_bytes = 0;
  Clock::time_point finished;
  SpanBuffer spans{0};
};

// Counters the traced run attributes to single writer ops.
struct CoreTally {
  std::size_t feedback_rounds = 0;
  std::size_t feedback_skips = 0;       // validated without search
  std::size_t classified = 0;           // skips + repairs + serial
  std::size_t moved_rounds = 0;         // rounds whose update moved weights
  std::size_t moved_classified = 0;
  std::size_t registrations = 0;
  std::size_t structural_skips = 0;
  std::size_t structural_rebuilds = 0;
  bool structural_balanced = true;
};

class Session {
 public:
  Session(const Args& args, const WorkloadSpec& spec)
      : args_(args), spec_(spec) {}

  int Run();

 private:
  QSystem& q() { return *q_; }
  std::size_t view_id(std::uint32_t v) const { return view_ids_[v]; }

  void Setup();
  // Serves [from_s, to_s) of the timed window: readers plus the writer
  // ops due in it, then a drain.
  void ServeSlice(double from_s, double to_s);
  void CheckQuiescent(const char* label);
  // Registers tail sources [begin, end), then drains.
  void Onboard(std::size_t begin, std::size_t end);
  void Replay();
  // Save, drop the system, open the snapshot, recreate the first
  // `recreate` views and compare them with the views before the save.
  void RestartCycle(std::size_t recreate);
  void Finish();

  // One registration: ack timing, aligner/matcher accounting, and the
  // visibility wait for aligning sources.
  void Register(const WriterOp& op, SpanBuffer* spans);
  // Polls the view until the aligned relation shows in its queries.
  void WaitVisible(std::size_t view, const std::string& relation,
                   Clock::time_point start);
  void Feedback(const WriterOp& op, Clock::time_point due, SpanBuffer* spans);
  q::steiner::SteinerTree NextEndorsement(std::size_t id,
                                          const q::query::ViewSnapshot& state);

  struct Preference {
    std::vector<q::steiner::SteinerTree> answers;
    std::size_t turn = 0;
  };
  std::map<std::size_t, Preference> preferences_;

  const Args& args_;
  WorkloadSpec spec_;
  Plan plan_;
  Report report_;
  std::unique_ptr<QSystem> q_;
  std::vector<std::size_t> view_ids_;

  Samples setup_s_;
  std::vector<ReaderResult> readers_;
  double window_s_ = 0.0;
  Samples feedback_ack_ms_, fresh_ms_, lateness_ms_;
  // The same, timed from when the writer started the op.
  Samples feedback_service_ms_, fresh_service_ms_;
  Samples register_ack_ms_, visible_ms_;
  Samples align_ms_, matcher_calls_, attr_comparisons_, relations_considered_,
      pair_alignments_;
  std::size_t aligning_registered_ = 0;
  std::size_t aligning_fallbacks_ = 0;
  std::size_t aligning_visible_ = 0;
  Samples save_ms_, boot_ms_, first_query_ms_;
  CoreTally tally_;
  SpanBuffer writer_spans_;
  SpanBuffer main_spans_;
  SpanBuffer replay_spans_;
  std::uint64_t next_request_ = 1;

  // Traced-run per-layer samples.
  Samples text_search_us_, build_graph_ms_, graph_nodes_, compile_us_,
      execute_us_, rows_, union_us_, csr_build_ms_, topk_cold_ms_, topk_ms_,
      trees_, mask_nodes_, mira_us_;
  std::size_t sp_hits_ = 0, sp_misses_ = 0, local_hits_ = 0,
              local_misses_ = 0, masked_bypasses_ = 0;
  Samples snapshot_mb_, read_ms_, rebuild_ms_;
  std::map<std::string, Samples> encode_ms_, decode_ms_;
  // RefreshEngine / scheduler counters summed over the serve slices.
  struct CoreDeltas {
    std::size_t delta_recosts = 0, full_recosts = 0, rebuilds = 0,
                searches_run = 0, repairs_scheduled = 0, repairs_run = 0;
  };
  CoreDeltas core_;
  std::vector<std::size_t> reader_pos_;
  double graph_nodes_total_ = 0, graph_edges_total_ = 0,
         graph_bytes_per_source_ = 0;
};

void Session::Setup() {
  {
    // The generator's probe: the InterPro-GO catalog without the
    // synthetic growth, whose random names would otherwise top the
    // vocabulary. Views are drawn from the catalog's own vocabulary and
    // must fill their top-k there. Not part of the timed set-up.
    const auto t = Clock::now();
    std::unique_ptr<QSystem> probe = BuildBase(spec_, /*grow=*/false);
    Q_CHECK_OK(DrawViews(probe.get(), spec_, &plan_.views));
    Log("views drawn", t);
  }
  BuildSchedule(spec_, args_.seed, args_.seconds, &plan_);
  for (std::size_t i = 0; i < spec_.setups; ++i) {
    q_.reset();  // never hold two systems at once
    view_ids_.clear();
    const auto t0 = Clock::now();
    q_ = BuildBase(spec_, /*grow=*/true);
    for (const auto& keywords : plan_.views) {
      auto id = q_->CreateView(keywords);
      Q_CHECK_OK(id.status());
      view_ids_.push_back(*id);
    }
    setup_s_.Add(MsSince(t0, Clock::now()) / 1000.0);
  }
  const q::graph::SearchGraph& graph = q().search_graph();
  graph_nodes_total_ = static_cast<double>(graph.num_nodes());
  graph_edges_total_ = static_cast<double>(graph.num_edges());
  const double sources =
      static_cast<double>(q().catalog().sources().size() + spec_.stream_sources);
  graph_bytes_per_source_ =
      static_cast<double>(graph.MemoryUsage().total()) / sources;
}

// The simulated user keeps changing their mind between the view's two
// best answers as they stood at the first feedback: endorse the runner-up,
// then the former top, and so on. The weights then swing between two
// states instead of drifting, so every round does repair work and the
// load is the same early and late in a run. When either answer has left
// the top-k (a registration rebuilt the view), the pair is re-taken.
q::steiner::SteinerTree Session::NextEndorsement(
    std::size_t id, const q::query::ViewSnapshot& state) {
  auto present = [&state](const q::steiner::SteinerTree& tree) {
    for (const auto& t : state.trees) {
      if (t.edges == tree.edges) return true;
    }
    return false;
  };
  Preference& pref = preferences_[id];
  if (pref.answers.size() != 2 || !present(pref.answers[0]) ||
      !present(pref.answers[1])) {
    pref.answers = {state.trees[0],
                    state.trees[std::min<std::size_t>(1, state.trees.size() - 1)]};
    pref.turn = 0;
  }
  return pref.answers[1 - pref.turn++ % 2];
}

void Session::Feedback(const WriterOp& op, Clock::time_point due,
                       SpanBuffer* spans) {
  const auto started = Clock::now();
  const std::size_t id = view_id(op.view);
  const std::uint64_t request = next_request_++;
  q::query::ViewResult read;
  {
    ScopedSpan span(spans, "QSystem::ReadView", 0, request);
    read = q().ReadView(id);
  }
  if (read.state == nullptr || read.state->trees.empty()) {
    report_.op("feedback").Fail();
    return;
  }
  const q::steiner::SteinerTree endorsed = NextEndorsement(id, *read.state);
  q::core::AsyncRefreshStats before;
  std::uint64_t revision_before = 0;
  if (args_.trace) {
    before = q().async_scheduler()->stats();
    revision_before = q().weights().revision();
  }
  q::util::Status status;
  {
    ScopedSpan span(spans, "QSystem::ApplyFeedback", 0, request);
    status = q().ApplyFeedback(id, endorsed);
  }
  if (!status.ok()) {
    std::fprintf(stderr, "loopbench: feedback failed: %s\n",
                 status.ToString().c_str());
    report_.op("feedback").Fail();
    return;
  }
  report_.op("feedback").Ok();
  feedback_ack_ms_.Add(MsSince(due, Clock::now()));
  feedback_service_ms_.Add(MsSince(started, Clock::now()));
  if (args_.trace) {
    const q::core::AsyncRefreshStats after = q().async_scheduler()->stats();
    const std::size_t skips =
        after.validations_without_search - before.validations_without_search;
    const std::size_t classified = skips +
                                   (after.repairs_scheduled -
                                    before.repairs_scheduled) +
                                   (after.serial_repairs - before.serial_repairs);
    ++tally_.feedback_rounds;
    tally_.feedback_skips += skips;
    tally_.classified += classified;
    if (q().weights().revision() != revision_before) {
      ++tally_.moved_rounds;
      tally_.moved_classified += classified;
    }
  }
  bool fresh = false;
  {
    ScopedSpan span(spans, "QSystem::WaitViewFresh", 0, request);
    fresh = q().WaitViewFresh(id, std::chrono::milliseconds(10000));
  }
  if (fresh) {
    report_.op("wait_fresh").Ok();
    fresh_ms_.Add(MsSince(due, Clock::now()));
    fresh_service_ms_.Add(MsSince(started, Clock::now()));
  } else {
    report_.op("wait_fresh").Fail();
  }
}

void Session::Register(const WriterOp& op, SpanBuffer* spans) {
  // Each registration starts from a drained repair queue, so its ack
  // times the registration path rather than repairs queued before it.
  const q::util::Status drained = q().DrainRefreshes();
  report_.Check("drain before registration", drained.ok(),
                drained.ToString());
  bool aligning = op.kind == WriterOp::kRegisterAligning;
  std::size_t target = op.view;
  if (aligning &&
      !PickAligningTarget(q(), plan_.views, view_ids_, op.view, &target)) {
    // No view would provably show the source: onboard a disjoint one.
    ++aligning_fallbacks_;
    aligning = false;
  }
  std::shared_ptr<q::relational::DataSource> source =
      aligning ? MakeAligningSource(q(), plan_.views[target], op.serial)
               : q::data::MakeDisjointSource(op.serial);
  const std::uint64_t request = next_request_++;
  const auto& metadata = q().metadata_matcher()->stats();
  const auto& mad = q().mad_matcher()->stats();
  const std::size_t pairs_before = metadata.pair_alignments + mad.pair_alignments;
  q::core::AsyncRefreshStats before;
  if (args_.trace) before = q().async_scheduler()->stats();
  const auto t0 = Clock::now();
  q::util::Result<q::align::AlignerStats> result =
      q::util::Status::Internal("not run");
  {
    ScopedSpan span(spans, "QSystem::RegisterAndAlignSource", 0, request);
    result = q().RegisterAndAlignSource(source);
  }
  const auto t1 = Clock::now();
  if (!result.ok()) {
    std::fprintf(stderr, "loopbench: registration failed: %s\n",
                 result.status().ToString().c_str());
    report_.op("register").Fail();
    return;
  }
  report_.op("register").Ok();
  register_ack_ms_.Add(MsSince(t0, t1));
  align_ms_.Add(result->wall_ms);
  matcher_calls_.Add(static_cast<double>(result->matcher_calls));
  attr_comparisons_.Add(static_cast<double>(result->attribute_comparisons));
  relations_considered_.Add(static_cast<double>(result->relations_considered));
  pair_alignments_.Add(static_cast<double>(
      metadata.pair_alignments + mad.pair_alignments - pairs_before));
  if (args_.trace) {
    const q::core::AsyncRefreshStats after = q().async_scheduler()->stats();
    const std::size_t skips = after.structural_skips - before.structural_skips;
    const std::size_t rebuilds =
        after.structural_rebuilds - before.structural_rebuilds;
    ++tally_.registrations;
    tally_.structural_skips += skips;
    tally_.structural_rebuilds += rebuilds;
    if (skips + rebuilds != q().num_views()) tally_.structural_balanced = false;
  }
  if (aligning) {
    // The writer waits for the source to show before its next op: the
    // target was chosen because the source provably enters the view
    // under the current weights, and feedback landing first could
    // reprice it out again.
    ++aligning_registered_;
    WaitVisible(target, AligningRelation(op.serial), t0);
  }
  // And for the searches the registration queued, so the next writer op
  // starts from a quiet system too.
  const q::util::Status settled = q().DrainRefreshes();
  report_.Check("drain after registration", settled.ok(), settled.ToString());
}

void Session::WaitVisible(std::size_t view, const std::string& relation,
                          Clock::time_point start) {
  constexpr double kVisibleTimeoutMs = 30000.0;
  for (;;) {
    q::query::ViewResult read = q().ReadView(view_id(view));
    const auto now = Clock::now();
    if (read.state != nullptr && ShowsRelation(*read.state, relation)) {
      report_.op("source_visible").Ok();
      visible_ms_.Add(MsSince(start, now));
      ++aligning_visible_;
      return;
    }
    if (MsSince(start, now) > kVisibleTimeoutMs) {
      report_.op("source_visible").Fail();
      report_.Check("aligning source visible", false,
                    relation + " never appeared in its target view");
      return;
    }
    std::this_thread::sleep_for(std::chrono::microseconds(500));
  }
}

void Session::ServeSlice(double from_s, double to_s) {
  const q::core::RefreshEngineStats refresh_before =
      q().refresh_engine().stats();
  const q::core::AsyncRefreshStats async_before =
      q().async_scheduler()->stats();
  const int num_readers = kReaders;
  const std::size_t base = readers_.size();
  readers_.resize(base + static_cast<std::size_t>(num_readers));
  reader_pos_.resize(static_cast<std::size_t>(num_readers), 0);
  std::atomic<int> ready{0};
  std::atomic<bool> go{false};
  Clock::time_point start;
  Clock::time_point deadline;
  std::vector<std::thread> threads;
  for (int r = 0; r < num_readers; ++r) {
    threads.emplace_back([&, r] {
      ReaderResult& out = readers_[base + static_cast<std::size_t>(r)];
      if (args_.trace) out.spans = SpanBuffer(1 << 17);
      SpanBuffer* spans = args_.trace ? &out.spans : nullptr;
      out.query_ms.Reserve(1 << 15);
      out.read_ms.Reserve(1 << 15);
      const auto& ops = plan_.readers[static_cast<std::size_t>(r)];
      std::size_t& pos = reader_pos_[static_cast<std::size_t>(r)];
      ready.fetch_add(1);
      while (!go.load(std::memory_order_acquire)) {
      }
      std::uint64_t request = (static_cast<std::uint64_t>(r) + 1) << 40;
      for (; Clock::now() < deadline; ++pos) {
        const ReaderOp& op = ops[pos % ops.size()];
        const std::size_t id = view_id(op.view);
        ++request;
        if (op.query) {
          ScopedSpan span(spans, "QSystem::QueryView", 0, request);
          const auto t0 = Clock::now();
          auto result = q().QueryView(id);
          const auto t1 = Clock::now();
          if (!result.ok() || result->trees.empty()) {
            out.query.Fail();
            continue;
          }
          out.query.Ok();
          out.query_ms.Add(MsSince(t0, t1));
        } else {
          ScopedSpan span(spans, "QSystem::ReadView", 0, request);
          const auto t0 = Clock::now();
          q::query::ViewResult read = q().ReadView(id);
          const auto t1 = Clock::now();
          if (read.state == nullptr) {
            out.read.Fail();
            continue;
          }
          out.read.Ok();
          out.read_ms.Add(MsSince(t0, t1));
        }
      }
      out.scratch_bytes = q::steiner::ThreadScratchBytes();
      out.finished = Clock::now();
    });
  }
  while (ready.load() < num_readers) {
  }
  start = Clock::now();
  deadline = start + std::chrono::duration_cast<Clock::duration>(
                         std::chrono::duration<double>(to_s - from_s));
  go.store(true, std::memory_order_release);

  // The writer runs on this thread: open-loop, each op due at a fixed
  // serve-time offset; lateness is how far behind schedule it started.
  SpanBuffer* spans = args_.trace ? &writer_spans_ : nullptr;
  for (const WriterOp& op : plan_.window) {
    if (op.due_ms < from_s * 1000.0 || op.due_ms >= to_s * 1000.0) continue;
    const auto due = start + std::chrono::duration_cast<Clock::duration>(
                                 std::chrono::duration<double, std::milli>(
                                     op.due_ms - from_s * 1000.0));
    if (op.kind == WriterOp::kFeedback) {
      // The user reads the view before judging it: wait (untimed, unless
      // it overruns the due time) until it reflects earlier feedback, so
      // the endorsed answer — and with it the weight trajectory — is the
      // same in every run rather than depending on repair timing.
      q().WaitViewFresh(view_id(op.view), std::chrono::milliseconds(10000));
    }
    std::this_thread::sleep_until(due);
    lateness_ms_.Add(MsSince(due, Clock::now()));
    if (op.kind == WriterOp::kFeedback) {
      Feedback(op, due, spans);
    } else {
      Register(op, spans);
    }
  }
  std::this_thread::sleep_until(deadline);
  for (auto& t : threads) t.join();
  Clock::time_point last = start;
  for (std::size_t r = base; r < readers_.size(); ++r) {
    last = std::max(last, readers_[r].finished);
  }
  window_s_ += MsSince(start, last) / 1000.0;
  {
    ScopedSpan span(spans, "QSystem::DrainRefreshes", 0, next_request_++);
    const q::util::Status drained = q().DrainRefreshes();
    report_.Check("drain after serve slice", drained.ok(), drained.ToString());
  }
  const q::core::RefreshEngineStats refresh = q().refresh_engine().stats();
  const q::core::AsyncRefreshStats async = q().async_scheduler()->stats();
  core_.delta_recosts +=
      refresh.views_delta_recost - refresh_before.views_delta_recost;
  core_.full_recosts +=
      refresh.views_full_recost - refresh_before.views_full_recost;
  core_.rebuilds += refresh.snapshots_built - refresh_before.snapshots_built;
  core_.searches_run += refresh.searches_run - refresh_before.searches_run;
  core_.repairs_scheduled +=
      async.repairs_scheduled - async_before.repairs_scheduled;
  core_.repairs_run += async.repairs_run - async_before.repairs_run;
}

void Session::CheckQuiescent(const char* label) {
  for (std::size_t v = 0; v < view_ids_.size(); ++v) {
    auto fresh = q().QueryView(view_ids_[v]);
    q::query::ViewResult published = q().ReadView(view_ids_[v]);
    const bool same = fresh.ok() && published.state != nullptr &&
                      SameSnapshot(*fresh, *published.state);
    report_.Check(std::string(label) + ": QueryView == ReadView", same,
                  "view " + std::to_string(v) +
                      ": fresh search differs from the published view");
  }
}

void Session::Onboard(std::size_t begin, std::size_t end) {
  SpanBuffer* spans = args_.trace ? &writer_spans_ : nullptr;
  for (std::size_t i = begin; i < end; ++i) Register(plan_.tail[i], spans);
  const q::util::Status drained = q().DrainRefreshes();
  report_.Check("drain after onboarding", drained.ok(), drained.ToString());
}

void Session::Replay() {
  // Layer-by-layer replay of sampled served queries at a quiescent
  // point: text -> query graph -> CSR + top-k -> compile -> execute ->
  // union, each a child span of one root span per replay.
  const auto& weights = q().weights();
  for (std::size_t i = 0; i < spec_.replays; ++i) {
    const std::size_t id = view_id(plan_.replay_views[i]);
    const q::query::TopKView& view = q().view(id);
    const q::query::ViewConfig& config = view.config();
    const auto& options = config.query_graph;
    SpanBuffer& b = replay_spans_;
    const std::uint64_t request = next_request_++;
    const std::uint32_t root = b.Begin("replay", 0, request);

    std::uint32_t s = b.Begin("text.Search", root, request);
    for (const std::string& keyword : view.keywords()) {
      const auto t0 = Clock::now();
      auto hits = q().text_index().Search(keyword, options.min_similarity,
                                          options.max_matches_per_keyword);
      text_search_us_.Add(MsSince(t0, Clock::now()) * 1000.0);
      if (hits.empty()) report_.Check("replay keyword matches", false, keyword);
    }
    b.End(s);

    s = b.Begin("query.BuildQueryGraph", root, request);
    auto qg = q::query::BuildQueryGraph(q().search_graph(), q().text_index(),
                                        view.keywords(), &q().cost_model(),
                                        weights, options);
    b.End(s);
    Q_CHECK_OK(qg.status());

    s = b.Begin("steiner.FastSteinerEngine", root, request);
    auto engine = std::make_unique<q::steiner::FastSteinerEngine>(
        qg->graph, weights, config.top_k.use_sp_cache);
    b.End(s);

    // The first search fills the engine's caches; the second repeats it
    // on the warm engine, the state a view's engine serves from.
    s = b.Begin("steiner.TopKSteinerTrees.cold", root, request);
    const std::vector<q::steiner::SteinerTree> cold =
        q::steiner::TopKSteinerTrees(qg->graph, weights, qg->keyword_nodes,
                                     config.top_k, engine.get());
    b.End(s);
    const q::steiner::FastSolveStats cold_stats = engine->stats();

    s = b.Begin("steiner.TopKSteinerTrees", root, request);
    std::vector<q::steiner::SteinerTree> trees = q::steiner::TopKSteinerTrees(
        qg->graph, weights, qg->keyword_nodes, config.top_k, engine.get());
    b.End(s);
    const q::steiner::FastSolveStats warm_stats = engine->stats();

    // The mask a sharded search of these terminals starts from.
    s = b.Begin("steiner.TerminalLocalizer", root, request);
    const q::steiner::TerminalLocalizer localizer(
        engine->Pin().csr,
        engine->Shards(config.top_k.sharded.target_shard_nodes),
        qg->keyword_nodes);
    const std::shared_ptr<const q::steiner::ShardMask> mask =
        localizer.Acquire().mask;
    b.End(s);
    mask_nodes_.Add(mask->covers_all
                        ? static_cast<double>(qg->graph.num_nodes())
                        : static_cast<double>(mask->nodes.size()));

    s = b.Begin("query.CompileTree", root, request);
    std::vector<q::query::ConjunctiveQuery> queries;
    for (const auto& tree : trees) {
      auto cq = q::query::CompileTree(*qg, tree, weights);
      Q_CHECK_OK(cq.status());
      queries.push_back(std::move(cq).value());
    }
    b.End(s);

    s = b.Begin("query.Executor::Execute", root, request);
    q::query::Executor executor(&q().catalog(), config.executor);
    std::vector<std::vector<q::relational::Row>> per_query_rows;
    std::size_t row_count = 0;
    for (const auto& cq : queries) {
      auto rows = executor.Execute(cq);
      if (rows.ok()) {
        row_count += rows->size();
        per_query_rows.push_back(std::move(rows).value());
      } else {
        per_query_rows.emplace_back();  // row-limit overrun: empty branch
      }
    }
    b.End(s);

    s = b.Begin("query.DisjointUnion", root, request);
    q::query::RankedResults results =
        q::query::DisjointUnion(*qg, weights, queries, per_query_rows,
                                config.union_similarity_threshold);
    b.End(s);
    b.End(root);

    // The spans just recorded, in order: root, text, build, csr, cold
    // top-k, warm top-k, localizer, compile, execute, union.
    const std::vector<Span>& spans = b.spans();
    const std::size_t base = spans.size() - 10;
    build_graph_ms_.Add(spans[base + 2].ms());
    csr_build_ms_.Add(spans[base + 3].ms());
    topk_cold_ms_.Add(spans[base + 4].ms());
    topk_ms_.Add(spans[base + 5].ms());
    compile_us_.Add(spans[base + 7].ms() * 1000.0);
    execute_us_.Add(spans[base + 8].ms() * 1000.0);
    union_us_.Add(spans[base + 9].ms() * 1000.0);
    graph_nodes_.Add(static_cast<double>(qg->graph.num_nodes()));
    trees_.Add(static_cast<double>(trees.size()));
    rows_.Add(static_cast<double>(row_count));
    // Cache traffic of the warm pass. It solves the subproblems the cold
    // pass solved, so it makes exactly the cold pass's lookups.
    const std::size_t cold_lookups = cold_stats.sp_cache_hits +
                                     cold_stats.sp_cache_misses +
                                     cold_stats.sp_local_hits +
                                     cold_stats.sp_local_misses;
    const std::size_t hits = warm_stats.sp_cache_hits - cold_stats.sp_cache_hits;
    const std::size_t misses =
        warm_stats.sp_cache_misses - cold_stats.sp_cache_misses;
    const std::size_t local_hits =
        warm_stats.sp_local_hits - cold_stats.sp_local_hits;
    const std::size_t local_misses =
        warm_stats.sp_local_misses - cold_stats.sp_local_misses;
    report_.Check("warm search == cold search",
                  SameTrees(cold, trees, /*compare_edges=*/true),
                  "view " + std::to_string(id));
    report_.Check("warm lookups == cold lookups",
                  hits + misses + local_hits + local_misses == cold_lookups,
                  std::to_string(hits + misses + local_hits + local_misses) +
                      " vs " + std::to_string(cold_lookups));
    sp_hits_ += hits;
    sp_misses_ += misses;
    local_hits_ += local_hits;
    local_misses_ += local_misses;
    masked_bypasses_ += warm_stats.masked_bypasses;

    // The replay must reproduce what QueryView serves, bit for bit. Tree
    // edge ids are comparable only when the view's cached query graph
    // has the fresh one's shape (a certificate-skipped view keeps a query
    // graph expanded from an older, smaller base graph).
    auto served = q().QueryView(id);
    const bool same_shape =
        view.query_graph().graph.num_nodes() == qg->graph.num_nodes() &&
        view.query_graph().graph.num_edges() == qg->graph.num_edges();
    if (!same_shape) report_.Note("replay.shape_differs", 1.0);
    const bool same = served.ok() &&
                      SameTrees(trees, served->trees, same_shape) &&
                      SameQueries(queries, served->queries) &&
                      SameRows(results, served->results);
    report_.Check("replay == QueryView", same,
                  "view " + std::to_string(id) +
                      ": layer-by-layer replay differs from the served query");
  }

  // MIRA updates replayed on a copy of the weights.
  for (std::size_t i = 0; i < spec_.replays; ++i) {
    const std::size_t id = view_id(plan_.replay_views[i]);
    const q::query::TopKView& view = q().view(id);
    q::query::ViewResult read = q().ReadView(id);
    const auto& trees = read.state->trees;
    const q::steiner::SteinerTree& target = trees[std::min<std::size_t>(
        1 + i % 3, trees.size() - 1)];
    q::graph::WeightVector copy = q().weights();
    q::learn::MiraLearner learner(q().config().mira);
    const auto t0 = Clock::now();
    auto info = learner.Update(view.query_graph().graph,
                               view.query_graph().keyword_nodes, target,
                               &copy);
    mira_us_.Add(MsSince(t0, Clock::now()) * 1000.0);
    Q_CHECK_OK(info.status());
  }
}

void Session::RestartCycle(std::size_t recreate) {
  const std::string dir = args_.workdir + "/snapshot";
  const std::size_t keep = view_ids_.size();
  {
    const q::util::Status drained = q().DrainRefreshes();
    report_.Check("drain before save", drained.ok(), drained.ToString());
    std::vector<std::shared_ptr<const q::query::ViewSnapshot>> before;
    for (std::size_t v = 0; v < keep; ++v) {
      before.push_back(q().ReadView(view_ids_[v]).state);
    }
    const std::uint64_t request = next_request_++;
    SpanBuffer* spans = args_.trace ? &main_spans_ : nullptr;
    auto t0 = Clock::now();
    q::util::Status saved;
    {
      ScopedSpan span(spans, "QSystem::SaveSnapshot", 0, request);
      saved = q().SaveSnapshot(dir);
    }
    save_ms_.Add(MsSince(t0, Clock::now()));
    report_.Check("snapshot saved", saved.ok(), saved.ToString());
    if (!saved.ok()) {
      report_.op("save").Fail();
      Abort("snapshot save failed");
    }
    report_.op("save").Ok();

    if (args_.trace) {
      // Per-section encode cost, on the live state the save just wrote.
      auto time_encode = [&](const char* name, auto&& encode) {
        const auto e0 = Clock::now();
        std::string payload = encode();
        encode_ms_[name].Add(MsSince(e0, Clock::now()));
        return payload.size();
      };
      time_encode("catalog", [&] { return q::persist::EncodeCatalog(q().catalog()); });
      time_encode("feature_space",
                  [&] { return q::persist::EncodeFeatureSpace(q().feature_space()); });
      time_encode("graph", [&] { return q::persist::EncodeGraph(q().search_graph()); });
      time_encode("weights", [&] { return q::persist::EncodeWeights(q().weights()); });
      time_encode("feedback",
                  [&] { return q::persist::EncodeFeedback(q().feedback_log()); });
    }

    q_.reset();  // the restart: the old process state is gone
    q::persist::SnapshotLoadReport load_report;
    t0 = Clock::now();
    q::util::Result<std::unique_ptr<QSystem>> opened =
        q::util::Status::Internal("not run");
    {
      ScopedSpan span(spans, "QSystem::OpenFromSnapshot", 0, request);
      opened = QSystem::OpenFromSnapshot(dir, SystemConfig(spec_), nullptr,
                                         &load_report);
    }
    const auto t1 = Clock::now();
    if (!opened.ok() || !load_report.complete()) {
      report_.op("open").Fail();
      report_.Check("warm restart complete", false, load_report.Summary());
      Abort("warm restart failed");
    }
    report_.op("open").Ok();
    boot_ms_.Add(MsSince(t0, t1));
    q_ = std::move(opened).value();

    view_ids_.clear();
    for (std::size_t v = 0; v < recreate; ++v) {
      q::util::Result<std::size_t> id = q::util::Status::Internal("not run");
      {
        ScopedSpan span(spans, "QSystem::CreateView", 0, request);
        id = q().CreateView(plan_.views[v]);
      }
      if (!id.ok()) {
        report_.op("recreate_view").Fail();
        report_.Check("view recreated after restart", false,
                      id.status().ToString());
        Abort("view not recreated after restart");
      }
      report_.op("recreate_view").Ok();
      view_ids_.push_back(*id);
      q::query::ViewResult read = q().ReadView(*id);
      if (v == 0) first_query_ms_.Add(MsSince(t1, Clock::now()));
      if (v >= before.size()) continue;  // not open before this save
      const bool same =
          read.state != nullptr &&
          SameTrees(read.state->trees, before[v]->trees,
                    /*compare_edges=*/false) &&
          SameRows(read.state->results, before[v]->results);
      report_.Check("warm restart keeps the views", same,
                    "view " + std::to_string(v) +
                        ": recreated view differs from the view before the save");
    }

    if (args_.trace) {
      // Read and per-section decode, replayed on the file just booted.
      q::persist::LoadedSnapshot loaded;
      const auto r0 = Clock::now();
      const q::util::Status read =
          q::persist::ReadSnapshotFile(dir, q::util::DefaultEnv(), &loaded);
      const double read_ms = MsSince(r0, Clock::now());
      report_.Check("snapshot re-read", read.ok(), read.ToString());
      if (!read.ok()) return;
      read_ms_.Add(read_ms);
      snapshot_mb_.Add(static_cast<double>(loaded.file.size()) /
                       (1024.0 * 1024.0));
      using Tag = q::persist::SectionTag;
      q::relational::Catalog catalog;
      q::graph::FeatureSpace space;
      q::graph::SearchGraph graph;
      q::graph::WeightVector weights(&space);
      q::feedback::FeedbackLog log;
      double decode_total = 0.0;
      auto time_decode = [&](const char* name, Tag tag, auto&& decode) {
        const q::persist::ParsedSection* section = loaded.Find(tag);
        const auto d0 = Clock::now();
        const q::util::Status status =
            section == nullptr ? q::util::Status::NotFound(name)
                               : decode(section->payload);
        const double ms = MsSince(d0, Clock::now());
        report_.Check(std::string("decode ") + name, status.ok(),
                      status.ToString());
        decode_ms_[name].Add(ms);
        decode_total += ms;
      };
      time_decode("catalog", Tag::kCatalog, [&](std::string_view p) {
        return q::persist::DecodeCatalog(p, &catalog);
      });
      time_decode("feature_space", Tag::kFeatureSpace, [&](std::string_view p) {
        return q::persist::DecodeFeatureSpace(p, &space);
      });
      time_decode("graph", Tag::kGraph, [&](std::string_view p) {
        return q::persist::DecodeGraph(p, space.size(), &graph);
      });
      time_decode("weights", Tag::kWeights, [&](std::string_view p) {
        return q::persist::DecodeWeights(p, space.size(), &weights);
      });
      time_decode("feedback", Tag::kFeedback, [&](std::string_view p) {
        return q::persist::DecodeFeedback(p, &log);
      });
      rebuild_ms_.Add(
          std::max(0.0, MsSince(t0, t1) - read_ms - decode_total));
    }
  }
}

void Session::Finish() {
  Samples query_ms, read_ms;
  OpCount query, read;
  double scratch_mb = 0.0;
  for (const ReaderResult& r : readers_) {
    query_ms.Append(r.query_ms);
    read_ms.Append(r.read_ms);
    query.Merge(r.query);
    read.Merge(r.read);
    scratch_mb = std::max(scratch_mb, static_cast<double>(r.scratch_bytes) /
                                          (1024.0 * 1024.0));
  }
  report_.op("query").Merge(query);
  report_.op("read").Merge(read);
  Report& r = report_;
  r.SetQuantile("query_p50_ms", query_ms, 0.50, "ms");
  r.SetQuantile("query_p99_ms", query_ms, 0.99, "ms");
  r.Set("query_qps", static_cast<double>(query_ms.size()) / window_s_, "1/s",
        query_ms.size());
  r.SetQuantile("read_p99_ms", read_ms, 0.99, "ms");
  r.SetQuantile("feedback_ack_p50_ms", feedback_ack_ms_, 0.50, "ms");
  r.SetQuantile("view_fresh_p95_ms", fresh_ms_, 0.95, "ms");
  r.SetQuantile("register_ack_p50_ms", register_ack_ms_, 0.50, "ms");
  r.SetQuantile("register_ack_p95_ms", register_ack_ms_, 0.95, "ms");
  r.SetQuantile("source_visible_p50_ms", visible_ms_, 0.50, "ms");
  r.SetMedian("snapshot_save_ms", save_ms_, "ms");
  r.SetMedian("warm_boot_ms", boot_ms_, "ms");
  r.SetMedian("restart_first_query_ms", first_query_ms_, "ms");
  r.Set("setup_s", setup_s_.Median(), "s", setup_s_.size(),
        setup_s_.empty() ? 0.0
                         : (setup_s_.Quantile(1.0) - setup_s_.Quantile(0.0)) /
                               setup_s_.Median());
  r.Set("peak_rss_mb", PeakRssMb(), "MiB");
  r.Note("window_s", window_s_);
  r.Note("writer_lateness_p50_ms", lateness_ms_.Median());
  r.Note("writer_lateness_max_ms", lateness_ms_.Quantile(1.0));
  r.Note("writer_ops_scheduled", static_cast<double>(lateness_ms_.size()));
  r.Note("feedback_service_p50_ms", feedback_service_ms_.Median());
  r.Note("fresh_service_p50_ms", fresh_service_ms_.Median());
  r.Note("fresh_service_p95_ms", fresh_service_ms_.Quantile(0.95));
  r.Note("views", static_cast<double>(plan_.views.size()));
  r.Note("aligning_registered", static_cast<double>(aligning_registered_));
  r.Note("aligning_fallbacks", static_cast<double>(aligning_fallbacks_));
  r.Note("fail_ratio", r.attempted() == 0
                           ? 0.0
                           : static_cast<double>(r.failed()) /
                                 static_cast<double>(r.attempted()));

  if (!args_.trace) return;
  // --- per-layer metrics (traced run) ---------------------------------
  r.SetMedian("text.search_us", text_search_us_, "us");
  r.Set("text.documents", static_cast<double>(q().text_index().num_documents()),
        "count");
  r.SetMedian("query.build_graph_ms", build_graph_ms_, "ms");
  r.SetMedian("query.graph_nodes", graph_nodes_, "count");
  r.SetMedian("query.compile_us", compile_us_, "us");
  r.SetMedian("query.execute_us", execute_us_, "us");
  r.SetMedian("query.rows", rows_, "count");
  r.SetMedian("query.union_us", union_us_, "us");
  r.SetMedian("steiner.csr_build_ms", csr_build_ms_, "ms");
  r.SetMedian("steiner.topk_cold_ms", topk_cold_ms_, "ms");
  r.SetMedian("steiner.topk_ms", topk_ms_, "ms");
  r.SetMedian("steiner.trees", trees_, "count");
  auto ratio = [](double num, double den) { return den > 0 ? num / den : 0.0; };
  r.Set("steiner.sp_hit_ratio",
        ratio(static_cast<double>(sp_hits_),
              static_cast<double>(sp_hits_ + sp_misses_)),
        "ratio", sp_hits_ + sp_misses_);
  r.Set("steiner.local_hit_ratio",
        ratio(static_cast<double>(local_hits_),
              static_cast<double>(local_hits_ + local_misses_)),
        "ratio", local_hits_ + local_misses_);
  r.Set("steiner.masked_bypasses", static_cast<double>(masked_bypasses_),
        "count");
  r.SetMedian("steiner.mask_nodes", mask_nodes_, "count");
  r.Set("steiner.scratch_mb", scratch_mb, "MiB", readers_.size());
  r.Check("masked bypasses are 0", masked_bypasses_ == 0,
          std::to_string(masked_bypasses_) + " uncompacted masked solves");
  r.Check("the warm searches looked the cache up",
          sp_hits_ + sp_misses_ + local_hits_ + local_misses_ > 0, "");

  r.Set("graph.nodes", graph_nodes_total_, "count");
  r.Set("graph.edges", graph_edges_total_, "count");
  r.Set("graph.bytes_per_source", graph_bytes_per_source_, "B");

  const std::size_t views = plan_.views.size();
  r.Set("core.skip_ratio",
        ratio(static_cast<double>(tally_.feedback_skips),
              static_cast<double>(views * tally_.feedback_rounds)),
        "ratio", tally_.feedback_rounds);
  r.Set("core.delta_recosts",
        static_cast<double>(core_.delta_recosts),
        "count");
  r.Set("core.full_recosts",
        static_cast<double>(core_.full_recosts),
        "count");
  r.Set("core.rebuilds",
        static_cast<double>(core_.rebuilds),
        "count");
  r.Set("core.searches_run",
        static_cast<double>(core_.searches_run),
        "count");
  const std::size_t scheduled = core_.repairs_scheduled;
  const std::size_t run = core_.repairs_run;
  r.Set("core.repair_run_ratio",
        ratio(static_cast<double>(run), static_cast<double>(scheduled)),
        "ratio", scheduled);
  r.Set("core.structural_skip_ratio",
        ratio(static_cast<double>(tally_.structural_skips),
              static_cast<double>(views * tally_.registrations)),
        "ratio", tally_.registrations);
  r.Set("core.structural_rebuilds",
        static_cast<double>(tally_.structural_rebuilds), "count",
        tally_.registrations);
  // ReadView never blocks on repairs; its tail is a few microseconds plus
  // any wait on the serving gate.
  r.Set("core.read_p99_us", read_ms.Quantile(0.99) * 1000.0, "us",
        read_ms.size(), read_ms.Spread());
  // Freshness and warm boot: every run's report carries them, but their
  // spread between runs on a shared host passed the largest bound the
  // benchmark may fix, so the traced run reports them per layer.
  r.SetQuantile("core.view_fresh_p95_ms", fresh_ms_, 0.95, "ms");
  r.SetMedian("persist.warm_boot_ms", boot_ms_, "ms");
  // Counter reconciliation. Every feedback round whose MIRA update moved
  // the weights classifies every view exactly once: skipped (validated
  // without search), repair scheduled, or serial rebuild. (A round that
  // moved nothing leaves every view up to date, which the scheduler does
  // not count.)
  r.Check("feedback classifications == views x moved rounds",
          tally_.moved_classified == views * tally_.moved_rounds &&
              tally_.classified <= views * tally_.feedback_rounds,
          std::to_string(tally_.moved_classified) + " vs " +
              std::to_string(views * tally_.moved_rounds));
  r.Note("core.feedback_rounds", static_cast<double>(tally_.feedback_rounds));
  r.Note("core.moved_rounds", static_cast<double>(tally_.moved_rounds));
  r.Check("structural skips + rebuilds == views x registrations",
          tally_.structural_balanced &&
              tally_.structural_skips + tally_.structural_rebuilds ==
                  views * tally_.registrations,
          std::to_string(tally_.structural_skips) + " + " +
              std::to_string(tally_.structural_rebuilds));

  r.SetMedian("learn.mira_update_us", mira_us_, "us");
  r.SetMedian("align.ms", align_ms_, "ms");
  r.Set("align.matcher_calls", matcher_calls_.Mean(), "count",
        matcher_calls_.size());
  r.Set("align.attribute_comparisons", attr_comparisons_.Mean(), "count",
        attr_comparisons_.size());
  r.Set("align.relations_considered", relations_considered_.Mean(), "count",
        relations_considered_.size());
  r.Set("match.pair_alignments", pair_alignments_.Mean(), "count",
        pair_alignments_.size());
  r.Set("align.hit_ratio",
        ratio(static_cast<double>(aligning_visible_),
              static_cast<double>(aligning_registered_)),
        "ratio", aligning_registered_);

  r.SetMedian("persist.snapshot_mb", snapshot_mb_, "MiB");
  r.SetMedian("persist.read_ms", read_ms_, "ms");
  r.SetMedian("persist.rebuild_ms", rebuild_ms_, "ms");
  for (const char* s : kSections) {
    r.SetMedian(std::string("persist.encode_ms.") + s, encode_ms_[s], "ms");
    r.SetMedian(std::string("persist.decode_ms.") + s, decode_ms_[s], "ms");
  }

  // Tracing cost and the replay's self-time split.
  std::size_t spans = writer_spans_.spans().size() +
                      main_spans_.spans().size() +
                      replay_spans_.spans().size();
  double traced_ms = 0.0;
  std::size_t window_spans = writer_spans_.spans().size();
  for (const ReaderResult& reader : readers_) {
    spans += reader.spans.spans().size();
    window_spans += reader.spans.spans().size();
    for (const Span& s : reader.spans.spans()) traced_ms += s.ms();
  }
  const double span_cost_ms = SpanCostMs();
  r.Set("trace.overhead_pct",
        100.0 * ratio(span_cost_ms * static_cast<double>(window_spans),
                      traced_ms),
        "%");
  r.Set("trace.spans", static_cast<double>(spans), "count");
  std::map<std::string, SpanTotals> totals = Totals(replay_spans_);
  auto module_self = [&](const std::string& prefix) {
    double ms = 0.0;
    for (const auto& [name, t] : totals) {
      if (name.rfind(prefix, 0) == 0) ms += t.self_ms;
    }
    return ms / static_cast<double>(std::max<std::size_t>(spec_.replays, 1));
  };
  r.Set("trace.replay_self_ms.text", module_self("text."), "ms", spec_.replays);
  r.Set("trace.replay_self_ms.query", module_self("query."), "ms",
        spec_.replays);
  r.Set("trace.replay_self_ms.steiner", module_self("steiner."), "ms",
        spec_.replays);
  const SpanTotals& root = totals["replay"];
  const double unaccounted = 100.0 * ratio(root.self_ms, root.wall_ms);
  r.Set("trace.replay_unaccounted_pct", unaccounted, "%", root.count);
  r.Check("replay children account for the root within 5%",
          unaccounted <= 5.0, std::to_string(unaccounted) + "%");
}

int Session::Run() {
  const CpuTicks ticks_before = ReadCpuTicks();
  auto t = Clock::now();
  Setup();
  Log("set-up", t);
  // The loop, sliced: every slice serves for its share of the timed
  // window, then onboards its share of the tail sources and runs its
  // share of the warm restarts. Spreading each phase over the whole run
  // keeps a slow stretch of the host from landing on one phase only.
  const std::size_t slices = spec_.slices;
  const double slice_s = args_.seconds / static_cast<double>(slices);
  std::size_t tail_done = 0;
  std::size_t restarts_done = 0;
  double serve_s = 0.0, onboard_s = 0.0, restart_s = 0.0;
  for (std::size_t k = 0; k < slices; ++k) {
    t = Clock::now();
    ServeSlice(static_cast<double>(k) * slice_s,
               static_cast<double>(k + 1) * slice_s);
    CheckQuiescent("after serve slice");
    if (args_.trace && k == 0) Replay();
    serve_s += MsSince(t, Clock::now()) / 1000.0;
    t = Clock::now();
    const std::size_t tail_end = plan_.tail.size() * (k + 1) / slices;
    if (tail_end > tail_done) {
      Onboard(tail_done, tail_end);
      CheckQuiescent("after onboarding");
      tail_done = tail_end;
    }
    onboard_s += MsSince(t, Clock::now()) / 1000.0;
    t = Clock::now();
    // The first restart of a batch recreates and compares every view, as
    // does the last one when serving follows; the others recreate only
    // the first view, the one restart_first_query_ms times.
    const std::size_t batch_begin = restarts_done;
    const std::size_t batch_end = spec_.restart_cycles * (k + 1) / slices;
    for (; restarts_done < batch_end; ++restarts_done) {
      const bool all = restarts_done == batch_begin ||
                       (restarts_done + 1 == batch_end && k + 1 < slices);
      RestartCycle(all ? plan_.views.size() : 1);
    }
    restart_s += MsSince(t, Clock::now()) / 1000.0;
  }
  std::fprintf(stderr,
               "loopbench: serve %.2f s, onboarding %.2f s, restarts %.2f s\n",
               serve_s, onboard_s, restart_s);
  const q::util::Status drained = q().DrainRefreshes();
  report_.Check("final drain", drained.ok(), drained.ToString());
  // The final state; equal across seeds, since the writer script drives
  // it and the readers do not change it.
  report_.Note("state.weight_revision",
               static_cast<double>(q().weights().revision()));
  report_.Note("state.graph_edges",
               static_cast<double>(q().search_graph().num_edges()));
  report_.Note("state.text_documents",
               static_cast<double>(q().text_index().num_documents()));
  report_.Check("aligning sources all visible",
                aligning_visible_ == aligning_registered_,
                std::to_string(aligning_visible_) + " of " +
                    std::to_string(aligning_registered_));
  Finish();
  // Hypervisor steal over the run: context for a disturbed result.
  const CpuTicks ticks_after = ReadCpuTicks();
  const double ticks = ticks_after.total - ticks_before.total;
  report_.Note("host.steal_pct",
               ticks > 0 ? 100.0 * (ticks_after.steal - ticks_before.steal) /
                               ticks
                         : 0.0);

  std::printf("%s\n", report_.ReportJson(spec_.name, args_.seed,
                                         args_.seconds, args_.trace)
                          .c_str());
  if (!report_.correct()) {
    std::fprintf(stderr, "loopbench: correctness check failed\n");
    return 2;
  }
  std::string result;
  if (!report_.ResultJson(args_.trace ? PerLayerNames() : kEndToEnd,
                          &result)) {
    return 2;
  }
  std::printf("%s\n", result.c_str());
  std::fflush(stdout);
  return 0;
}

bool ParseArgs(int argc, char** argv, Args* args) {
  for (int i = 1; i < argc; ++i) {
    const std::string flag = argv[i];
    if (flag == "--tiny") {
      args->tiny = true;
      continue;
    }
    if (i + 1 >= argc) return false;
    const std::string value = argv[++i];
    if (flag == "--workload") {
      args->workload = value;
    } else if (flag == "--seed") {
      args->seed = std::strtoull(value.c_str(), nullptr, 10);
    } else if (flag == "--seconds") {
      args->seconds = std::atof(value.c_str());
    } else if (flag == "--trace") {
      args->trace = value == "1";
    } else if (flag == "--workdir") {
      args->workdir = value;
    } else {
      return false;
    }
  }
  return !args->workload.empty() && args->seconds > 0.0;
}

}  // namespace
}  // namespace loopbench

int main(int argc, char** argv) {
  loopbench::Args args;
  loopbench::WorkloadSpec spec;
  if (!loopbench::ParseArgs(argc, argv, &args) ||
      !loopbench::SpecFor(args.workload, args.tiny, &spec)) {
    std::fprintf(stderr,
                 "usage: %s --workload <serve_feedback|serve_catalog|"
                 "onboard_restart> --seed N --seconds S --trace 0|1 "
                 "--workdir DIR [--tiny]\n",
                 argv[0]);
    return 1;
  }
  loopbench::Session session(args, spec);
  return session.Run();
}
