// Seeded load generation for the loop benchmark: workload shapes, keyword
// views drawn from the catalog's own indexed vocabulary, fixed per-reader
// op lists, the open-loop writer schedule, and the onboarding sources.
//
// Keyword views follow the query-generator recipe of "Evaluation of Query
// Generators for Entity Search Engines": candidate keywords are the
// schema elements and value words the text index actually holds, ranked
// by document frequency and drawn with Zipfian popularity, and a view is
// kept only when it fills its top-k — so every query matches something
// and every view can take feedback.
#ifndef LOOPBENCH_LOADGEN_H_
#define LOOPBENCH_LOADGEN_H_

#include <cstddef>
#include <cstdint>
#include <memory>
#include <string>
#include <vector>

#include "core/q_system.h"
#include "relational/catalog.h"
#include "util/random.h"

namespace loopbench {

// The shape of one workload. Every workload runs the paper's whole loop
// (serve + feedback, onboarding, warm restart); the shape decides where
// the load sits and at what catalog scale.
// Closed-loop reader threads: with the writer and the system's async
// repair thread they fill the 4 cores the benchmark is sized for.
constexpr int kReaders = 2;
// Zipf skew of view popularity and of keyword popularity (YCSB default).
constexpr double kZipfTheta = 0.99;

struct WorkloadSpec {
  std::string name;
  std::size_t views = 16;
  double query_mix = 0.7;       // QueryView share of reader ops
  std::size_t catalog_sources = 0;  // catalog-backed synthetic sources
  std::size_t stream_sources = 0;   // graph-only streaming-catalog sources
  bool sharded = false;
  // Open-loop writer schedule inside the timed window.
  double feedback_interval_ms = 100.0;
  double register_interval_ms = 0.0;  // 0: no registrations in the window
  // Registrations after the window (serve workloads' onboarding tail).
  std::size_t tail_registrations = 0;
  std::size_t restart_cycles = 1;
  // The run alternates serve / onboard / restart this many times.
  std::size_t slices = 10;
  std::size_t setups = 3;          // set-ups timed for setup_s
  std::size_t replays = 8;         // traced query and MIRA update replays
  bool tiny = false;               // the benchmark's own smoke size
};

// False when `name` is not a workload.
bool SpecFor(const std::string& name, bool tiny, WorkloadSpec* spec);

struct ReaderOp {
  bool query = true;  // QueryView; false: ReadView
  std::uint32_t view = 0;
};

struct WriterOp {
  enum Kind : std::uint8_t { kFeedback, kRegisterDisjoint, kRegisterAligning };
  Kind kind = kFeedback;
  double due_ms = 0.0;       // offset from the window start
  std::uint32_t view = 0;    // feedback view / aligning target view
  std::size_t serial = 0;    // registrations: source serial
};

struct Plan {
  std::vector<std::vector<std::string>> views;
  std::vector<std::vector<ReaderOp>> readers;
  std::vector<WriterOp> window;
  std::vector<WriterOp> tail;
  // Views whose served queries the traced run replays layer by layer.
  std::vector<std::uint32_t> replay_views;
};

// Standard YCSB Zipfian generator over [0, n): item 0 is the hottest.
class Zipf {
 public:
  Zipf(std::size_t n, double theta, std::uint64_t seed);
  std::size_t Next();

 private:
  std::size_t n_;
  double theta_;
  double zetan_ = 0.0;
  double alpha_ = 0.0;
  double eta_ = 0.0;
  q::util::Rng rng_;
};

// Candidate keywords from the index's documents, most frequent first;
// every candidate matches at least one document under `options`.
std::vector<std::string> KeywordVocabulary(
    const q::text::TextIndex& index,
    const q::query::QueryGraphOptions& options);

// Draws `count` keyword views on `probe` (a system without views) and
// keeps each one only if CreateView fills its top-k. The draw is a fixed
// part of the workload: it uses its own seed, not the run's, so runs
// with different seeds serve the same information needs.
q::util::Status DrawViews(q::core::QSystem* probe, const WorkloadSpec& spec,
                          std::vector<std::vector<std::string>>* views);

// Reader op lists, window schedule, tail registrations and replay
// sample for one run.
void BuildSchedule(const WorkloadSpec& spec, std::uint64_t seed,
                   double seconds, Plan* plan);

// A source that belongs in view `keywords`: one table whose two
// attributes are named after the view's keywords (so both match it
// exactly) and whose first column copies the values of the attribute
// the first keyword matches best in `q` (so the matchers align the two).
std::shared_ptr<q::relational::DataSource> MakeAligningSource(
    const q::core::QSystem& q, const std::vector<std::string>& keywords,
    std::size_t serial);

// The view an aligning source should target: the first view, starting
// at `preferred`, that the source provably enters. Both of its keywords
// must have room for one more exact match under the match cap (ties keep
// older documents first), and the source's own two-edge tree — both
// keyword matches exact, every other feature new — must cost clearly
// less than the view's current k-th tree. False when no view qualifies.
bool PickAligningTarget(q::core::QSystem& q,
                        const std::vector<std::vector<std::string>>& views,
                        const std::vector<std::size_t>& view_ids,
                        std::size_t preferred, std::size_t* target);

// Qualified relation name of MakeAligningSource(serial)'s table, as it
// appears in a compiled query's atoms.
std::string AligningRelation(std::size_t serial);

}  // namespace loopbench

#endif  // LOOPBENCH_LOADGEN_H_
