// The three stages every workload runs, each through the library's public
// API, each on its own store:
//
//   ingest   closed loop: one producer -> IngestPipeline -> Blockchain with
//            a fsync-per-block ChainLog sink; then a restart (ChainLog::
//            Replay + ProvenanceStore::Recover from the saved snapshot).
//   fresh    open loop: a generator sends small batches at a fixed rate
//            into a preloaded store while one reader runs query groups at
//            a fixed rate against the freshest published epoch.
//   cluster  a 4-node raft Cluster replicates a deep derivation DAG; then
//            one audit pass over a follower and a stream of lineage proofs
//            built on that follower and verified against another node.
//
// A workload is a Config: the stage it is about is sized to take most of
// the run, the other two run at probe size (the fewest samples their tails
// need) so that every end-to-end metric is measured on every workload. The Replay* functions are the single-thread
// replays of the traced run (pass b).

#ifndef LEDGERBENCH_STAGES_H_
#define LEDGERBENCH_STAGES_H_

#include <memory>
#include <string>
#include <vector>

#include "common.h"
#include "gen.h"

namespace ledgerbench {

// Sizes every workload shares. They are constants, not settings; each run
// prints them (PrintSizes) beside the per-workload settings below.
constexpr size_t kThreadBudget = 4;  // threads the process may run at once
/// Each stage runs this many rounds, interleaved (ingest, fresh, cluster,
/// ingest, ...), so every metric samples the whole run.
constexpr size_t kRounds = 4;
constexpr size_t kIngestBatch = 1024;     // records per bulk block
constexpr size_t kSubmitChunk = 1024;     // records per SubmitBatch call
constexpr size_t kWarmupRecords = 10000;  // pipeline warm-up in Setup
/// Records one round's restarts recover at least (a round smaller than
/// this restarts more than once).
constexpr size_t kRecoverMinRecords = 45000;
constexpr size_t kFreshBatch = 5;         // records per open-loop batch/block
constexpr size_t kFreshEpochBatches = 10;  // open-loop blocks per epoch
constexpr size_t kFreshPage = 64;          // limit of paged queries
constexpr size_t kFreshRange = 200;        // records in a recent-range query
constexpr size_t kFreshAgentWindow = 10000;  // records an agent page spans
constexpr size_t kClusterDepth = 1024;       // derivation depth of the DAG
constexpr size_t kClusterBatch = 512;        // records per CommitPending
constexpr size_t kAuditPasses = 3;  // fresh auditors over a follower per round
const IotShape kIot;  // subjects, Zipf skew and agents of the IoT readings

/// The sizes that differ between workloads (ledgerbench/workloads.json).
struct Config {
  uint64_t seed = 1;

  // ingest, per round
  size_t ingest_records = 0;
  size_t ingest_shards = 2;

  // fresh; fresh_seconds is all rounds together
  size_t fresh_preload = 0;
  double fresh_write_ms = 0;
  double fresh_read_ms = 0;
  double fresh_seconds = 0;

  // cluster, per round
  size_t cluster_workflows = 0;
  size_t proofs = 0;
};

/// Print the constants and `config` to standard error, one line.
void PrintSizes(const Config& config);

/// Everything the stages leave behind for the sheet, summed over rounds.
struct StageOut {
  // ingest
  double ingest_records = 0, ingest_s = 0, ingest_cpu_s = 0;
  std::vector<double> ingest_rps;  // one per round
  double log_bytes = 0, log_blocks = 0;
  std::vector<double> recover_s;
  // fresh
  std::vector<double> commit_ms, visible_ms, query_ms, late_ms;
  std::vector<double> body_mb;
  double groups = 0, reopened = 0, query_busy_s = 0;
  // cluster
  double repl_records = 0, repl_s = 0, repl_cpu_s = 0;
  std::vector<double> repl_batch_rps;  // one per Submit+CommitPending batch
  double wire_bytes = 0, net_msgs = 0, consensus_msgs = 0, repl_batches = 0;
  double audit_records = 0, audit_s = 0, audit_findings = 0;
  std::vector<double> audit_pass_rps;  // one per full RunPass
  std::vector<double> proof_ms;
  double proofs = 0, proof_kb = 0, proof_ancestors = 0;

  uint64_t attempted = 0;
  uint64_t failed = 0;
  uint64_t pipeline_submitted = 0;
  uint64_t pipeline_failed = 0;
  int max_threads = 0;
};

struct FreshState;
struct ClusterState;

/// Inputs and preloaded state of one workload, built by Setup().
struct Prepared {
  Prepared();
  ~Prepared();
  Prepared(const Prepared&) = delete;
  Prepared& operator=(const Prepared&) = delete;

  IotInput ingest_input;
  std::unique_ptr<FreshState> fresh;
  std::unique_ptr<ClusterState> cluster;
};

/// Generate every input from the seed, preload the fresh stage's store,
/// create the cluster and warm allocator and page cache up.
std::unique_ptr<Prepared> Setup(const Config& config, const std::string& dir);

/// One round of each stage; `round` counts from 0 to config.rounds - 1.
void RunIngest(const Config& config, const Prepared& prep, size_t round,
               const std::string& dir, Tracer* tracer, Sheet* sheet,
               StageOut* out);
void RunFresh(const Config& config, Prepared* prep, size_t round,
              Tracer* tracer, Sheet* sheet, StageOut* out);
void RunCluster(const Config& config, const Prepared& prep, size_t round,
                Tracer* tracer, Sheet* sheet, StageOut* out);

/// Single-thread replays of the same seeded inputs with a span at every
/// public call on the write path (pass b). Each writes its own tracer; the
/// root span is named "replay".
struct ReplayOut {
  double records = 0;
  double explain_scanned = 0;
  double explain_matched = 0;
};
void ReplayIngest(const Prepared& prep, const std::string& dir,
                  Tracer* tracer, Sheet* sheet, ReplayOut* out);
void ReplayFresh(const Config& config, const std::string& dir, Tracer* tracer,
                 Sheet* sheet, ReplayOut* out);
void ReplayCluster(const Config& config, Tracer* tracer, Sheet* sheet,
                   ReplayOut* out);

}  // namespace ledgerbench

#endif  // LEDGERBENCH_STAGES_H_
