#include "loadgen.h"

#include <algorithm>
#include <cctype>
#include <cmath>
#include <map>
#include <set>
#include <utility>

#include "data/onboarding.h"
#include "util/string_util.h"

namespace loopbench {

using q::util::Rng;

bool SpecFor(const std::string& name, bool tiny, WorkloadSpec* spec) {
  WorkloadSpec s;
  s.name = name;
  s.tiny = tiny;
  if (name == "serve_feedback") {
    // Small graph: time goes to top-k Steiner, compile/execute/union and
    // delta repair. Onboarding and restart run as a short tail.
    s.feedback_interval_ms = 100.0;
    s.tail_registrations = tiny ? 2 : 40;
    s.restart_cycles = tiny ? 2 : 20;
    // One slice: a registration or a restart leaves the views with fresh
    // engines whose first repairs run cold, and slices after them put
    // those rounds into view_fresh_p95_ms's top 5% (its spread across
    // seeds went from ~0.2 to 0.3-0.6).
    s.slices = 1;
    s.setups = 9;
  } else if (name == "serve_catalog") {
    // The same serving mix over a catalog whose search graph is larger
    // than the last-level cache, with sharded terminal-local search.
    s.stream_sources = tiny ? 2000 : 100000;
    s.sharded = true;
    // Every view holds its own copy of the ~130 MB search graph, and a
    // registration rebuilds them all: 4 views keep a registration near
    // 3 s and one run near 1 GB.
    s.views = 4;
    // ApplyFeedback runs MIRA's own top-k search, which sharded_search
    // does not shard (QSystemConfig::mira.top_k keeps its default), so
    // its cost grows with the joined part of the catalog: feedback comes
    // once a second, which keeps the writer on its schedule.
    s.feedback_interval_ms = 1000.0;
    s.tail_registrations = tiny ? 2 : 4;
    // One slice: registrations and the restarts come after the whole
    // window. Both leave every view with a freshly built engine whose
    // first repairs at this scale take ~0.5 s each, which would dominate
    // a following slice's feedback figures.
    s.restart_cycles = tiny ? 1 : 6;
    s.slices = 1;
    s.setups = 1;
    s.replays = 4;
  } else if (name == "onboard_restart") {
    // Write-heavy maintenance: registrations stream in the window with
    // feedback interleaved, then repeated warm restarts.
    s.catalog_sources = tiny ? 50 : 2000;
    // Readers mostly re-read their views while sources stream in; the
    // QueryView share keeps live searches in the mix. (With half the ops
    // reads, the reads stalled behind registrations sat right at the 1%
    // mark and read_p99 flipped between the two populations run to run.)
    s.query_mix = 0.3;
    // One registration and one feedback op every 660 ms, each due half
    // a period after the other.
    s.register_interval_ms = 660.0;
    s.feedback_interval_ms = 660.0;
    s.restart_cycles = tiny ? 2 : 20;
    s.setups = 9;
  } else {
    return false;
  }
  if (tiny) {
    s.views = 4;
    s.setups = 1;
    s.replays = 2;
    s.slices = 2;
  }
  *spec = s;
  return true;
}

Zipf::Zipf(std::size_t n, double theta, std::uint64_t seed)
    : n_(n), theta_(theta), rng_(seed) {
  for (std::size_t i = 1; i <= n_; ++i) {
    zetan_ += 1.0 / std::pow(static_cast<double>(i), theta_);
  }
  const double zeta2 = 1.0 + std::pow(0.5, theta_);
  alpha_ = 1.0 / (1.0 - theta_);
  eta_ = (1.0 - std::pow(2.0 / static_cast<double>(n_), 1.0 - theta_)) /
         (1.0 - zeta2 / zetan_);
}

std::size_t Zipf::Next() {
  if (n_ <= 1) return 0;
  const double u = rng_.UniformDouble();
  const double uz = u * zetan_;
  if (uz < 1.0) return 0;
  if (uz < 1.0 + std::pow(0.5, theta_)) return 1;
  auto v = static_cast<std::size_t>(
      static_cast<double>(n_) * std::pow(eta_ * u - eta_ + 1.0, alpha_));
  return v >= n_ ? n_ - 1 : v;
}

namespace {

bool IsWord(const std::string& token) {
  if (token.size() < 4) return false;
  return std::all_of(token.begin(), token.end(), [](unsigned char c) {
    return std::isalpha(c) != 0;
  });
}

std::string Join(const std::vector<std::string>& tokens) {
  std::string out;
  for (const std::string& t : tokens) {
    if (!out.empty()) out += ' ';
    out += t;
  }
  return out;
}

std::string Snake(const std::string& keyword) {
  std::string out;
  for (const std::string& t : q::util::TokenizeText(keyword)) {
    if (!out.empty()) out += '_';
    out += t;
  }
  return out;
}

}  // namespace

std::vector<std::string> KeywordVocabulary(
    const q::text::TextIndex& index,
    const q::query::QueryGraphOptions& options) {
  // Document frequency per candidate: schema elements contribute their
  // whole (identifier-split) name, values their individual words.
  std::map<std::string, std::size_t> df;
  for (const q::text::Document& doc : index.documents()) {
    std::set<std::string> terms;
    if (doc.kind == q::text::DocKind::kValue) {
      for (const std::string& t : q::util::TokenizeText(doc.text)) {
        if (IsWord(t)) terms.insert(t);
      }
    } else {
      std::vector<std::string> tokens = q::util::TokenizeIdentifier(doc.text);
      if (!tokens.empty() && std::all_of(tokens.begin(), tokens.end(),
                                         [](const std::string& t) {
                                           return std::isalpha(
                                                      static_cast<unsigned char>(
                                                          t[0])) != 0;
                                         })) {
        terms.insert(Join(tokens));
      }
    }
    for (const std::string& t : terms) ++df[t];
  }
  std::vector<std::pair<std::size_t, std::string>> ranked;
  for (const auto& [term, count] : df) {
    if (index.Search(term, options.min_similarity,
                     options.max_matches_per_keyword)
            .empty()) {
      continue;
    }
    ranked.emplace_back(count, term);
  }
  std::sort(ranked.begin(), ranked.end(), [](const auto& a, const auto& b) {
    if (a.first != b.first) return a.first > b.first;
    return a.second < b.second;
  });
  std::vector<std::string> out;
  out.reserve(ranked.size());
  for (auto& entry : ranked) out.push_back(std::move(entry.second));
  return out;
}

q::util::Status DrawViews(q::core::QSystem* probe, const WorkloadSpec& spec,
                          std::vector<std::vector<std::string>>* views) {
  const std::vector<std::string> vocabulary = KeywordVocabulary(
      probe->text_index(), probe->config().view.query_graph);
  if (vocabulary.size() < 2) {
    return q::util::Status::NotFound("keyword vocabulary too small");
  }
  // The view set is part of the workload definition: a fixed draw seed.
  constexpr std::uint64_t kViewDrawSeed = 20100606;
  Zipf zipf(vocabulary.size(), kZipfTheta, kViewDrawSeed);
  const auto k = static_cast<std::size_t>(probe->config().view.top_k.k);
  std::set<std::vector<std::string>> seen;
  for (int attempt = 0; attempt < 2000 && views->size() < spec.views;
       ++attempt) {
    std::vector<std::string> keywords{vocabulary[zipf.Next()],
                                      vocabulary[zipf.Next()]};
    if (keywords[0] == keywords[1] || !seen.insert(keywords).second) continue;
    auto id = probe->CreateView(keywords);
    if (!id.ok()) continue;
    auto result = probe->QueryView(*id);
    if (result.ok() && result->trees.size() == k &&
        !result->results.rows.empty()) {
      views->push_back(std::move(keywords));
    }
  }
  if (views->size() < spec.views) {
    return q::util::Status::NotFound("could not draw enough keyword views");
  }
  return q::util::Status::OK();
}

void BuildSchedule(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds, Plan* plan) {
  const std::size_t num_views = plan->views.size();
  // Fixed per-reader op lists; readers cycle through them until the
  // window closes, so the op sequence never depends on timing.
  constexpr std::size_t kReaderOps = 8192;
  plan->readers.assign(static_cast<std::size_t>(kReaders), {});
  for (int r = 0; r < kReaders; ++r) {
    Zipf zipf(num_views, kZipfTheta, seed * 131 + r);
    Rng rng(seed * 7 + 1000 + r);
    auto& ops = plan->readers[static_cast<std::size_t>(r)];
    ops.reserve(kReaderOps);
    for (std::size_t i = 0; i < kReaderOps; ++i) {
      ReaderOp op;
      op.query = rng.UniformDouble() < spec.query_mix;
      op.view = static_cast<std::uint32_t>(zipf.Next());
      ops.push_back(op);
    }
  }

  // Open-loop writer schedule: feedback on a fixed period, registrations
  // (alternating disjoint / aligning) on their own period. The feedback
  // script (which view, when) is part of the workload and the same for
  // every seed: each MIRA update reshapes the costs every later search
  // runs against, and a per-seed script would make the runs measure
  // different cost landscapes rather than the same one.
  // Registrations' aligning targets are scripted the same way.
  constexpr std::uint64_t kWriterScriptSeed = 4242;
  Zipf feedback_zipf(num_views, kZipfTheta, kWriterScriptSeed);
  Rng script_rng(kWriterScriptSeed + 1);
  const double window_ms = seconds * 1000.0;
  std::size_t serial = 0;
  for (double t = spec.feedback_interval_ms; t < window_ms;
       t += spec.feedback_interval_ms) {
    WriterOp op;
    op.kind = WriterOp::kFeedback;
    op.due_ms = t;
    op.view = static_cast<std::uint32_t>(feedback_zipf.Next());
    plan->window.push_back(op);
  }
  auto registration = [&](double due) {
    WriterOp op;
    op.kind = serial % 2 == 0 ? WriterOp::kRegisterDisjoint
                              : WriterOp::kRegisterAligning;
    op.due_ms = due;
    op.view = static_cast<std::uint32_t>(script_rng.Uniform(num_views));
    op.serial = serial++;
    return op;
  };
  if (spec.register_interval_ms > 0.0) {
    // Registrations are due midway between feedback ops, so the two
    // streams do not queue behind each other.
    for (double t = spec.register_interval_ms * 0.5; t < window_ms;
         t += spec.register_interval_ms) {
      plan->window.push_back(registration(t));
    }
  }
  std::stable_sort(plan->window.begin(), plan->window.end(),
                   [](const WriterOp& a, const WriterOp& b) {
                     return a.due_ms < b.due_ms;
                   });
  for (std::size_t i = 0; i < spec.tail_registrations; ++i) {
    plan->tail.push_back(registration(0.0));
  }
  Zipf replay_zipf(num_views, kZipfTheta, seed * 37 + 11);
  for (std::size_t i = 0; i < spec.replays; ++i) {
    plan->replay_views.push_back(
        static_cast<std::uint32_t>(replay_zipf.Next()));
  }
}

bool PickAligningTarget(q::core::QSystem& q,
                        const std::vector<std::vector<std::string>>& views,
                        const std::vector<std::size_t>& view_ids,
                        std::size_t preferred, std::size_t* target) {
  const auto& options = q.config().view.query_graph;
  const q::graph::FeatureSpace& space = q.feature_space();
  auto weight = [&](const char* name, double fallback) {
    q::graph::FeatureId id;
    return space.Find(name, &id) ? q.weights().At(id) : fallback;
  };
  // An exact keyword match falls in mismatch bin 0; its edge carries the
  // shared default feature, the bin, and features new to the source.
  const double exact_edge =
      std::max(q::graph::kMinEdgeCost,
               weight("default", q.cost_model().config().default_cost) +
                   weight("kwmatch:bin0",
                          q.cost_model().config().keyword_scale * 0.05));
  for (std::size_t i = 0; i < views.size(); ++i) {
    const std::size_t v = (preferred + i) % views.size();
    bool room = true;
    for (const std::string& keyword : views[v]) {
      room = room && q.text_index().Search(keyword, 1.0 - 1e-9, 0).size() <
                         options.max_matches_per_keyword;
    }
    if (!room) continue;
    q::query::ViewResult read = q.ReadView(view_ids[v]);
    if (read.state == nullptr || read.state->trees.empty()) continue;
    if (2.0 * exact_edge < 0.9 * read.state->trees.back().cost) {
      *target = v;
      return true;
    }
  }
  return false;
}

std::string AligningRelation(std::size_t serial) {
  const std::string code = q::data::OnboardingCode(serial);
  return "alnsrc" + code + ".alnrel" + code;
}

std::shared_ptr<q::relational::DataSource> MakeAligningSource(
    const q::core::QSystem& q, const std::vector<std::string>& keywords,
    std::size_t serial) {
  using q::relational::AttributeDef;
  using q::relational::Row;
  using q::relational::Value;
  const std::string code = q::data::OnboardingCode(serial);
  // The attribute the first keyword matches best: its values are copied.
  const auto& options = q.config().view.query_graph;
  std::vector<Value> copied;
  for (const q::text::ScoredDoc& hit :
       q.text_index().Search(keywords[0], options.min_similarity, 0)) {
    const q::text::Document& doc = q.text_index().documents()[hit.doc_index];
    if (doc.attr.attribute.empty()) continue;
    auto table = q.catalog().FindTable(doc.attr.source, doc.attr.relation);
    if (table == nullptr) continue;
    const std::size_t column =
        table->schema().AttributeIndex(doc.attr.attribute).value_or(0);
    std::vector<std::string> texts;
    for (const Value& v : table->DistinctValues(column)) {
      if (!v.ToText().empty()) texts.push_back(v.ToText());
    }
    std::sort(texts.begin(), texts.end());
    for (std::size_t i = 0; i < texts.size() && i < 12; ++i) {
      copied.emplace_back(texts[i]);
    }
    break;
  }
  if (copied.empty()) copied.emplace_back("alnv" + code);
  auto table = std::make_shared<q::relational::Table>(
      q::relational::RelationSchema(
          "alnsrc" + code, "alnrel" + code,
          {AttributeDef{Snake(keywords[0])}, AttributeDef{Snake(keywords[1])}}));
  for (std::size_t r = 0; r < copied.size(); ++r) {
    Q_CHECK_OK(table->AppendRow(
        Row{copied[r], Value("alnv" + code + q::data::OnboardingCode(r))}));
  }
  auto source = std::make_shared<q::relational::DataSource>("alnsrc" + code);
  Q_CHECK_OK(source->AddTable(std::move(table)));
  return source;
}

}  // namespace loopbench
