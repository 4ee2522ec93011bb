#include "stages.h"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <optional>
#include <thread>

#include "audit/auditor.h"
#include "audit/lineage_proof.h"
#include "common/rng.h"
#include "crypto/merkle.h"
#include "ledger/chain_log.h"
#include "prov/columnar.h"
#include "prov/ingest_pipeline.h"
#include "prov/snapshot.h"
#include "prov/store.h"
#include "replication/cluster.h"

namespace ledgerbench {

namespace fs = std::filesystem;
using namespace provledger;  // NOLINT: the benchmark exercises the whole API

namespace {

constexpr Timestamp kClockMicros = 1'700'000'000'000'000LL;
constexpr size_t kPreloadBatch = 256;
// The open-loop generator and reader busy-wait (yielding) for their due
// times instead of sleeping: on a loaded virtual machine a sleeping
// thread's wake-up can take milliseconds, which would show up as lateness
// in every latency the loop measures.
void SpinUntil(Nanos deadline) {
  while (NowNs() < deadline) std::this_thread::yield();
}

bool Ok(Sheet* sheet, const std::string& what, const Status& status) {
  if (!status.ok()) sheet->Check(what, false, status.ToString());
  return status.ok();
}

/// Fresh directory `dir` (removed first if present).
void ResetDir(const std::string& dir) {
  std::error_code ec;
  fs::remove_all(dir, ec);
  fs::create_directories(dir);
}

Result<std::unique_ptr<ledger::ChainLog>> OpenLog(const std::string& path) {
  ledger::ChainLogOptions options;  // fsync per block, columnar bodies
  return ledger::ChainLog::Open(path, options);
}

std::vector<std::vector<prov::ProvenanceRecord>> Chunk(
    const std::vector<prov::ProvenanceRecord>& records, size_t from,
    size_t to, size_t chunk) {
  std::vector<std::vector<prov::ProvenanceRecord>> out;
  for (size_t i = from; i < to; i += chunk) {
    out.emplace_back(records.begin() + static_cast<std::ptrdiff_t>(i),
                     records.begin() +
                         static_cast<std::ptrdiff_t>(std::min(to, i + chunk)));
  }
  return out;
}

/// Serial prepare + Merkle root + anchor of `records` in `batch`-sized
/// blocks, with a span around each public call when `tracer` is on.
/// Publishes an epoch after every `publish_every` blocks (0 = never).
bool AnchorSerial(prov::ProvenanceStore* store,
                  std::vector<prov::ProvenanceRecord> records, size_t batch,
                  size_t publish_every, Tracer* tracer, uint32_t parent,
                  uint32_t* commit_span, Sheet* sheet) {
  uint64_t nonce = store->nonce();
  Encoder scratch;
  size_t blocks = 0;
  for (size_t i = 0; i < records.size(); i += batch) {
    const size_t end = std::min(records.size(), i + batch);
    prov::PreparedBatch prepared;
    std::vector<crypto::Digest> leaves;
    {
      ScopedSpan span(tracer, "store.prepare", blocks, parent);
      for (size_t j = i; j < end; ++j) {
        auto rec = store->PrepareRecord(std::move(records[j]), ++nonce,
                                        nullptr, &scratch);
        if (!Ok(sheet, "prepare", rec.status())) return false;
        leaves.push_back(rec->leaf);
        prepared.records.push_back(std::move(rec).value());
      }
    }
    {
      ScopedSpan span(tracer, "merkle.root", blocks, parent);
      prepared.merkle_root =
          crypto::MerkleTree::BuildFromDigests(leaves).root();
    }
    {
      ScopedSpan span(tracer, "store.commit", blocks, parent);
      if (commit_span != nullptr) *commit_span = span.id();
      size_t committed = 0;
      if (!Ok(sheet, "anchor", store->AnchorPrepared(&prepared, &committed)) ||
          committed != end - i) {
        sheet->Check("anchor_all", false);
        return false;
      }
    }
    ++blocks;
    if (publish_every > 0 && blocks % publish_every == 0) {
      ScopedSpan span(tracer, "store.publish", blocks, parent);
      if (!Ok(sheet, "publish", store->PublishSnapshot())) return false;
    }
  }
  return true;
}

}  // namespace

void PrintSizes(const Config& config) {
  std::fprintf(
      stderr,
      "sizes: thread_budget=%zu rounds=%zu iot_subjects=%zu iot_zipf_s=%g "
      "iot_agents=%zu ingest_records=%zu ingest_shards=%zu ingest_batch=%zu "
      "submit_chunk=%zu warmup_records=%zu recover_min_records=%zu "
      "fresh_preload=%zu fresh_batch=%zu "
      "fresh_write_ms=%g fresh_epoch_batches=%zu fresh_read_ms=%g "
      "fresh_seconds=%g fresh_page=%zu fresh_range=%zu "
      "fresh_agent_window=%zu cluster_workflows=%zu cluster_depth=%zu "
      "cluster_batch=%zu audit_passes=%zu proofs=%zu\n",
      kThreadBudget, kRounds, kIot.subjects, kIot.zipf_s, kIot.agents,
      config.ingest_records, config.ingest_shards, kIngestBatch, kSubmitChunk,
      kWarmupRecords, kRecoverMinRecords, config.fresh_preload, kFreshBatch,
      config.fresh_write_ms, kFreshEpochBatches, config.fresh_read_ms,
      config.fresh_seconds, kFreshPage, kFreshRange, kFreshAgentWindow,
      config.cluster_workflows, kClusterDepth, kClusterBatch, kAuditPasses,
      config.proofs);
}

// ---------------------------------------------------------------------------
// Set-up
// ---------------------------------------------------------------------------

struct FreshState {
  IotInput in;  // preload followed by the streamed records
  SimClock clock{kClockMicros};
  ledger::Blockchain chain;
  std::unique_ptr<ledger::ChainLog> log;
  std::unique_ptr<prov::ProvenanceStore> store;
  std::vector<std::vector<prov::ProvenanceRecord>> batches;
  /// Query plan: subject and agent of each query group.
  std::vector<uint32_t> group_subject, group_agent;
  /// When each block's sink write returned, by height (committer thread
  /// writes, the generator reads after Close joins it).
  std::vector<Nanos> sink_done;
  uint64_t base_height = 0;
  /// Query groups run so far; the next round continues the plan there.
  size_t next_group = 0;
  Tracer disabled;
  Tracer* tracer = &disabled;
};

struct ClusterState {
  DagInput dag;
  uint64_t seed = 0;
};

Prepared::Prepared() = default;
Prepared::~Prepared() = default;

namespace {

std::unique_ptr<replication::Cluster> MakeCluster(uint64_t seed) {
  replication::ClusterOptions options;
  options.num_nodes = 4;
  options.seed = seed;
  options.consensus = "raft";
  auto cluster = replication::Cluster::Create(options);
  if (!cluster.ok()) return nullptr;
  return std::move(cluster).value();
}

/// A short pipeline run with the ingest stage's settings, so allocator
/// arenas, the page cache and thread start-up are paid before timing.
bool WarmUp(const Config& config, const IotInput& in, const std::string& dir,
            Sheet* sheet) {
  ResetDir(dir);
  SimClock clock(kClockMicros);
  ledger::Blockchain chain;
  auto log = OpenLog(dir + "/chain.log");
  if (!Ok(sheet, "warmup_log", log.status())) return false;
  ledger::ChainLog* raw = log->get();
  chain.SetBlockSink([raw](const ledger::Block& b) { return raw->Append(b); });
  prov::ProvenanceStore store(&chain, &clock);
  prov::IngestPipelineOptions options;
  options.shards = config.ingest_shards;
  options.batch_size = kIngestBatch;
  options.publish_on_flush = true;
  prov::IngestPipeline pipeline(&store, options);
  const size_t n = std::min(kWarmupRecords, in.records.size());
  for (auto& chunk : Chunk(in.records, 0, n, kSubmitChunk)) {
    if (!Ok(sheet, "warmup_submit", pipeline.SubmitBatch(std::move(chunk)))) {
      return false;
    }
  }
  if (!Ok(sheet, "warmup_close", pipeline.Close())) return false;
  auto snap = store.AcquireSnapshot();
  if (snap == nullptr) return false;
  auto reader = snap->OpenReader();
  if (!Ok(sheet, "warmup_reader", reader.status())) return false;
  (void)reader->Execute(prov::Query().WithSubject(in.subject_names[0]));
  return true;
}

}  // namespace

namespace {

/// Per-stage seeds derived from the run's seed.
struct Seeds {
  uint64_t ingest, fresh, cluster, plan;
  explicit Seeds(uint64_t seed) {
    Rng rng(seed);
    ingest = rng.NextU64();
    fresh = rng.NextU64();
    cluster = rng.NextU64();
    plan = rng.NextU64();
  }
};

size_t FreshBatches(const Config& config) {
  return static_cast<size_t>(config.fresh_seconds * 1000.0 /
                             config.fresh_write_ms);
}

IotInput GenerateFresh(const Config& config) {
  return GenerateIot(Seeds(config.seed).fresh, "f",
                     config.fresh_preload +
                         FreshBatches(config) * kFreshBatch,
                     kIot);
}

}  // namespace

std::unique_ptr<Prepared> Setup(const Config& config, const std::string& dir) {
  auto prep = std::make_unique<Prepared>();
  Sheet scratch_sheet;
  const Seeds seeds(config.seed);
  prep->ingest_input = GenerateIot(seeds.ingest, "i", config.ingest_records,
                                   kIot);
  if (!WarmUp(config, prep->ingest_input, dir + "/warmup", &scratch_sheet)) {
    return nullptr;
  }

  // fresh: preload + stream, one batch per block.
  auto fresh = std::make_unique<FreshState>();
  const size_t nb = FreshBatches(config);
  const size_t stream = nb * kFreshBatch;
  fresh->in = GenerateFresh(config);
  ResetDir(dir + "/fresh");
  auto log = OpenLog(dir + "/fresh/chain.log");
  if (!log.ok()) return nullptr;
  fresh->log = std::move(log).value();
  FreshState* st = fresh.get();
  fresh->sink_done.assign(
      config.fresh_preload / kPreloadBatch + nb + 16, 0);
  fresh->chain.SetBlockSink([st](const ledger::Block& b) {
    ScopedSpan span(st->tracer, "chain_log.append", b.header.height);
    Status s = st->log->Append(b);
    if (b.header.height < st->sink_done.size()) {
      st->sink_done[b.header.height] = NowNs();
    }
    return s;
  });
  fresh->store =
      std::make_unique<prov::ProvenanceStore>(&fresh->chain, &fresh->clock);
  std::vector<prov::ProvenanceRecord> preload(
      fresh->in.records.begin(),
      fresh->in.records.begin() +
          static_cast<std::ptrdiff_t>(config.fresh_preload));
  if (!AnchorSerial(fresh->store.get(), std::move(preload), kPreloadBatch, 0,
                    fresh->tracer, 0, nullptr, &scratch_sheet) ||
      !fresh->store->PublishSnapshot().ok()) {
    return nullptr;
  }
  fresh->base_height = fresh->chain.height();
  fresh->batches = Chunk(fresh->in.records, config.fresh_preload,
                         config.fresh_preload + stream, kFreshBatch);
  // Query groups pick subjects that already have readings in the preload
  // (uniform over them) and agents uniformly.
  std::vector<uint32_t> seen;
  for (uint32_t s = 0; s < fresh->in.subject_names.size(); ++s) {
    if (fresh->in.SubjectCount(s, config.fresh_preload) > 0) seen.push_back(s);
  }
  Rng plan(seeds.plan);
  const size_t groups =
      static_cast<size_t>(config.fresh_seconds * 1000.0 / config.fresh_read_ms) +
      1;
  for (size_t j = 0; j < groups; ++j) {
    fresh->group_subject.push_back(seen[plan.NextBelow(seen.size())]);
    fresh->group_agent.push_back(
        static_cast<uint32_t>(plan.NextBelow(kIot.agents)));
  }
  {
    auto snap = fresh->store->AcquireSnapshot();
    auto reader = snap->OpenReader();
    if (!reader.ok()) return nullptr;
    (void)reader->Execute(prov::Query().WithAgent(fresh->in.agent_names[0]));
  }
  prep->fresh = std::move(fresh);

  // cluster: one DAG, replicated by a fresh cluster every round.
  auto cl = std::make_unique<ClusterState>();
  cl->dag = GenerateDag(seeds.cluster, config.cluster_workflows,
                        kClusterDepth);
  cl->seed = seeds.cluster;
  prep->cluster = std::move(cl);
  return prep;
}

// ---------------------------------------------------------------------------
// ingest: closed-loop durable bulk ingest, then restart
// ---------------------------------------------------------------------------

namespace {

/// One restart of the ingest stage's ledger: ChainLog::Replay into a new
/// chain, then ProvenanceStore::Recover from the snapshot; checks that it
/// reproduces the head, the anchored count and sampled subject histories.
bool Restart(const IotInput& in, const std::string& log_path,
             const std::string& snap_path, const crypto::Digest& head,
             uint64_t height, size_t round, Tracer* tracer, Sheet* sheet,
             StageOut* out) {
  const Nanos t0 = NowNs();
  ledger::Blockchain chain;
  auto log = OpenLog(log_path);
  if (!Ok(sheet, "restart_log_open", log.status())) return false;
  {
    ScopedSpan span(tracer, "chain_log.replay", round);
    if (!Ok(sheet, "replay", (*log)->Replay(&chain))) return false;
  }
  SimClock clock(kClockMicros);
  prov::ProvenanceStore store(&chain, &clock);
  {
    ScopedSpan span(tracer, "store.recover", round);
    if (!Ok(sheet, "recover", store.Recover(snap_path))) return false;
  }
  out->recover_s.push_back(NsToS(NowNs() - t0));
  sheet->Check("restart_anchored_count",
               store.anchored_count() == in.records.size());
  sheet->Check("restart_head",
               chain.height() == height && chain.head_hash() == head);
  // Sampled subjects: the hottest plus a spread.
  uint32_t hottest = 0;
  for (uint32_t s = 0; s < in.by_subject.size(); ++s) {
    if (in.by_subject[s].size() > in.by_subject[hottest].size()) hottest = s;
  }
  bool histories = store.SubjectHistory(in.subject_names[hottest]).size() ==
                   in.by_subject[hottest].size();
  for (uint32_t s = 0; s < in.by_subject.size(); s += 97) {
    histories &= store.SubjectHistory(in.subject_names[s]).size() ==
                 in.by_subject[s].size();
  }
  sheet->Check("restart_subject_history", histories);
  return true;
}

}  // namespace

void RunIngest(const Config& config, const Prepared& prep, size_t round,
               const std::string& dir, Tracer* tracer, Sheet* sheet,
               StageOut* out) {
  const IotInput& in = prep.ingest_input;
  const size_t n = in.records.size();
  const std::string log_path = dir + "/ingest/chain.log";
  const std::string snap_path = dir + "/ingest/store.snap";
  ResetDir(dir + "/ingest");
  auto chunks = Chunk(in.records, 0, n, kSubmitChunk);

  crypto::Digest head;
  uint64_t height = 0;
  {
    SimClock clock(kClockMicros);
    ledger::Blockchain chain;
    auto log = OpenLog(log_path);
    if (!Ok(sheet, "ingest_log_open", log.status())) return;
    ledger::ChainLog* raw = log->get();
    chain.SetBlockSink([raw, tracer](const ledger::Block& b) {
      ScopedSpan span(tracer, "chain_log.append", b.header.height);
      return raw->Append(b);
    });
    prov::ProvenanceStore store(&chain, &clock);
    prov::IngestPipelineOptions options;
    options.shards = config.ingest_shards;
    options.batch_size = kIngestBatch;
    options.publish_on_flush = true;

    const Nanos cpu0 = ProcessCpuNs();
    const Nanos t0 = NowNs();
    prov::IngestPipeline pipeline(&store, options);
    for (size_t c = 0; c < chunks.size(); ++c) {
      ScopedSpan span(tracer, "ingest_pipeline.submit", c);
      if (!Ok(sheet, "ingest_submit", pipeline.SubmitBatch(std::move(chunks[c])))) {
        return;
      }
      if (c % 32 == 0) {
        out->max_threads = std::max(out->max_threads, CurrentThreads());
      }
    }
    {
      ScopedSpan span(tracer, "ingest_pipeline.close", round);
      if (!Ok(sheet, "ingest_close", pipeline.Close())) return;
    }
    if (!Ok(sheet, "ingest_sync", (*log)->Sync())) return;
    const Nanos t1 = NowNs();
    const Nanos cpu1 = ProcessCpuNs();

    out->ingest_records += static_cast<double>(n);
    out->ingest_s += NsToS(t1 - t0);
    out->ingest_rps.push_back(static_cast<double>(n) / NsToS(t1 - t0));
    out->ingest_cpu_s += NsToS(cpu1 - cpu0);
    out->attempted += n;
    out->pipeline_submitted += pipeline.submitted();
    out->pipeline_failed += pipeline.failed();
    out->failed += pipeline.failed();
    sheet->Check("ingest_committed_all",
                 pipeline.committed() == n && pipeline.failed() == 0);
    sheet->Check("ingest_log_has_every_block",
                 (*log)->block_count() == chain.height(),
                 std::to_string((*log)->block_count()) + " vs " +
                     std::to_string(chain.height()));
    out->log_bytes += static_cast<double>((*log)->size_bytes());
    out->log_blocks += static_cast<double>((*log)->block_count());
    if (!Ok(sheet, "save_snapshot", store.SaveSnapshot(snap_path))) return;
    head = chain.head_hash();
    height = chain.height();
  }

  // Restart, as a new process would do it: replay the log, then recover
  // the store from the snapshot saved at close. A small round restarts
  // more than once so every round recovers about kRecoverMinRecords.
  const size_t restarts = (kRecoverMinRecords + n - 1) / n;
  for (size_t k = 0; k < restarts; ++k) {
    if (!Restart(in, log_path, snap_path, head, height, round, tracer, sheet,
                 out)) {
      return;
    }
  }
}

// ---------------------------------------------------------------------------
// fresh: open-loop writes beside fixed-rate query groups
// ---------------------------------------------------------------------------

namespace {

/// An agent's latest readings of one product type among records
/// [from, r): agent postings, a time window and a Table-1 field, so the
/// planner picks an index and checks the rest per candidate.
prov::Query AgentPage(const IotInput& in, uint32_t agent, const std::string& type,
                      size_t from, size_t r) {
  prov::Query q;
  q.WithAgent(in.agent_names[agent]);
  q.Between(IotTimestamp(from), IotTimestamp(r - 1));
  q.field_equals[provledger::prov::fields::kProductType] = type;
  q.descending = true;
  q.limit = kFreshPage;
  return q;
}

/// Lowest value of the last quarter of `series` minus lowest of the first.
/// A backlog that drains at any point of the last quarter leaves no growth.
double QuarterGrowth(const std::vector<double>& series) {
  const auto q = static_cast<std::ptrdiff_t>(series.size() / 4);
  if (q == 0) return 0;
  return *std::min_element(series.end() - q, series.end()) -
         *std::min_element(series.begin(), series.begin() + q);
}

struct GroupTiming {
  Nanos due = 0;
  Nanos start = 0;
  Nanos end = 0;
  bool reopened = false;
};

}  // namespace

void RunFresh(const Config& config, Prepared* prep, size_t round,
              Tracer* tracer, Sheet* sheet, StageOut* out) {
  FreshState* st = prep->fresh.get();
  st->tracer = tracer;
  prov::ProvenanceStore* store = st->store.get();
  const IotInput& in = st->in;
  // This round streams batches [first, first + nb) of the schedule; the
  // store keeps everything earlier rounds wrote.
  const size_t total = st->batches.size();
  const size_t first = total * round / kRounds;
  const size_t nb = total * (round + 1) / kRounds - first;
  const size_t batch = kFreshBatch;
  const size_t preload = config.fresh_preload;
  const Nanos write_ns = static_cast<Nanos>(config.fresh_write_ms * 1e6);
  const Nanos read_ns = static_cast<Nanos>(config.fresh_read_ms * 1e6);
  const uint64_t base = st->base_height;
  const uint64_t start_height = base + first;

  prov::IngestPipelineOptions options;
  options.shards = 1;
  options.batch_size = batch;
  options.snapshot_every_batches = kFreshEpochBatches;
  options.publish_on_flush = true;
  auto pipeline = std::make_unique<prov::IngestPipeline>(store, options);

  const Nanos t0 = NowNs() + 5'000'000;
  const Nanos t_end = t0 + static_cast<Nanos>(nb) * write_ns;
  auto due_of = [&](size_t i) { return t0 + static_cast<Nanos>(i) * write_ns; };

  // Records visible at a height: preload plus one batch per block after it.
  auto covered = [&](uint64_t height) {
    return preload + static_cast<size_t>(height - base) * batch;
  };

  std::vector<GroupTiming> groups;
  std::atomic<uint64_t> query_mismatches{0};
  std::thread reader_thread([&] {
    std::shared_ptr<const prov::GraphSnapshot> snap;
    std::optional<prov::SnapshotReader> reader;
    const size_t plan = st->group_subject.size();
    for (size_t j = 0;; ++j) {
      GroupTiming g;
      g.due = t0 + static_cast<Nanos>(j) * read_ns;
      if (g.due >= t_end) break;
      SpinUntil(g.due);
      g.start = NowNs();
      if (snap == nullptr || store->snapshot_epoch() != snap->epoch()) {
        snap = store->AcquireSnapshot();
        ScopedSpan span(tracer, "snapshot.open_reader", j);
        auto opened = snap->OpenReader();
        if (!opened.ok()) {
          query_mismatches.fetch_add(1);
          continue;
        }
        reader.emplace(std::move(opened).value());
        g.reopened = true;
      }
      const size_t r = covered(reader->chain_height());
      bool ok = snap->record_count() == r;
      const uint32_t s = st->group_subject[(st->next_group + j) % plan];
      const uint32_t a = st->group_agent[(st->next_group + j) % plan];
      const std::string suffix = g.reopened ? ".cold" : "";
      {
        ScopedSpan span(tracer,
                        g.reopened ? "graph.first_query" : "graph.query.subject",
                        j);
        prov::Query q;
        q.WithSubject(in.subject_names[s]);
        q.descending = true;
        q.limit = kFreshPage;
        ok &= reader->Execute(q).records.size() ==
              std::min(kFreshPage, in.SubjectCount(s, r));
      }
      {
        ScopedSpan span(tracer, "graph.query.agent" + suffix, j);
        const size_t from = r - std::min(r, kFreshAgentWindow);
        const std::string type = ProductType(s);
        ok &= reader->Execute(AgentPage(in, a, type, from, r))
                  .records.size() ==
              std::min(kFreshPage, in.AgentTypeCount(a, from, r, type));
      }
      {
        ScopedSpan span(tracer, "graph.query.range" + suffix, j);
        const size_t w = std::min(kFreshRange, r);
        prov::Query q;
        q.Between(IotTimestamp(r - w), IotTimestamp(r - 1));
        ok &= reader->Execute(q).records.size() == w;
      }
      {
        ScopedSpan span(tracer, "graph.query.lineage" + suffix, j);
        const std::string entity = in.LatestEntity(s, r);
        ok &= reader->graph().Lineage(entity).size() + 1 ==
              in.SubjectCount(s, r);
      }
      g.end = NowNs();
      if (!ok) query_mismatches.fetch_add(1);
      groups.push_back(g);
    }
  });

  // Generator: sends on schedule and watches epoch publication between
  // sends.
  std::vector<double> late_ms(nb, 0);
  std::vector<double> lag(nb, 0);  // batches sent but not yet committed
  uint64_t seen_epoch = store->snapshot_epoch();
  uint64_t visible_height = start_height;
  uint64_t visibility_regressions = 0;
  auto poll = [&] {
    const uint64_t epoch = store->snapshot_epoch();
    if (epoch == seen_epoch) return;
    seen_epoch = epoch;
    auto snap = store->AcquireSnapshot();
    const Nanos now = NowNs();
    const uint64_t h = snap->chain_height();
    if (h < visible_height || snap->record_count() != covered(h)) {
      ++visibility_regressions;
      return;
    }
    if (h == visible_height) return;
    // One sample per epoch: the oldest record it newly covers.
    const size_t oldest = static_cast<size_t>(visible_height - start_height);
    if (oldest < nb) out->visible_ms.push_back(NsToMs(now - due_of(oldest)));
    visible_height = h;
  };
  for (size_t i = 0; i < nb; ++i) {
    const Nanos due = due_of(i);
    while (NowNs() < due) {
      poll();
      std::this_thread::yield();
    }
    late_ms[i] = NsToMs(NowNs() - due);
    lag[i] = static_cast<double>(i) -
             static_cast<double>(pipeline->batches_committed());
    {
      ScopedSpan span(tracer, "ingest_pipeline.submit", i);
      if (!Ok(sheet, "fresh_submit",
              pipeline->SubmitBatch(std::move(st->batches[first + i])))) {
        break;
      }
    }
    if (i % 16 == 0) {
      out->max_threads = std::max(out->max_threads, CurrentThreads());
    }
  }
  while (NowNs() < t_end) {
    poll();
    std::this_thread::yield();
  }
  reader_thread.join();
  {
    ScopedSpan span(tracer, "ingest_pipeline.close", round);
    if (!Ok(sheet, "fresh_close", pipeline->Close())) return;
  }
  out->pipeline_submitted += pipeline->submitted();
  out->pipeline_failed += pipeline->failed();
  out->failed += pipeline->failed();
  out->attempted += pipeline->submitted();
  pipeline.reset();
  if (!Ok(sheet, "fresh_sync", st->log->Sync())) return;

  // Commit latency per block: due time of its batch to sink return.
  const uint64_t end_height = start_height + nb;
  sheet->Check("fresh_block_per_batch", st->chain.height() == end_height);
  for (size_t i = 0; i < nb && start_height + 1 + i < st->sink_done.size();
       ++i) {
    out->commit_ms.push_back(
        NsToMs(st->sink_done[start_height + 1 + i] - due_of(i)));
  }
  auto last = store->AcquireSnapshot();
  sheet->Check("fresh_all_visible",
               last->record_count() == covered(end_height) &&
                   last->chain_height() == end_height);
  sheet->Check("fresh_visibility_monotone", visibility_regressions == 0);
  out->late_ms.insert(out->late_ms.end(), late_ms.begin(), late_ms.end());
  for (const GroupTiming& g : groups) {
    out->query_ms.push_back(NsToMs(g.end - g.due));
    out->query_busy_s += NsToS(g.end - g.start);
    out->reopened += g.reopened ? 1 : 0;
  }
  out->groups += static_cast<double>(groups.size());
  st->next_group += groups.size();
  out->body_mb.push_back(static_cast<double>(last->body_bytes()) / 1048576.0);
  out->attempted += groups.size();
  out->failed += query_mismatches.load();
  sheet->Check("fresh_query_results", query_mismatches.load() == 0);
  // A backlog that grows: the writer's commit lag or the reader's start
  // lateness stays clearly higher through the whole last quarter of the
  // round than at its lowest in the first. A stall of the host that drains
  // again before the round ends does not count: its latency is in the
  // metrics, which time every event from when it was due.
  std::vector<double> reader_late;
  for (const GroupTiming& g : groups) {
    reader_late.push_back(NsToMs(g.start - g.due));
  }
  const double lag_growth = QuarterGrowth(lag);
  const double late_growth = QuarterGrowth(reader_late);
  const bool kept_up =
      lag_growth <= static_cast<double>(kFreshEpochBatches + 8) &&
      late_growth <= 5 * config.fresh_read_ms;
  if (!kept_up) ++out->failed;
  sheet->Check("fresh_no_backlog", kept_up,
               "commit lag grew by " + std::to_string(lag_growth) +
                   " batches, reader lateness by " +
                   std::to_string(late_growth) + " ms");
  st->tracer = &st->disabled;
}

// ---------------------------------------------------------------------------
// cluster: replicate a deep DAG, audit a follower, serve lineage proofs
// ---------------------------------------------------------------------------

void RunCluster(const Config& config, const Prepared& prep, size_t round,
                Tracer* tracer, Sheet* sheet, StageOut* out) {
  const ClusterState& st = *prep.cluster;
  const size_t n = st.dag.records.size();
  auto batches = Chunk(st.dag.records, 0, n, kClusterBatch);
  const std::vector<uint32_t> targets =
      PlanProofTargets(st.seed + round, config.cluster_workflows,
                       kClusterDepth, config.proofs);
  std::unique_ptr<replication::Cluster> owned = MakeCluster(st.seed + round);
  if (owned == nullptr) return sheet->Check("cluster_create", false);
  replication::Cluster* cluster = owned.get();

  const Nanos cpu0 = ProcessCpuNs();
  const Nanos t0 = NowNs();
  for (size_t b = 0; b < batches.size(); ++b) {
    const Nanos b0 = NowNs();
    const double size = static_cast<double>(batches[b].size());
    for (auto& rec : batches[b]) {
      if (!Ok(sheet, "cluster_submit", cluster->Submit(std::move(rec)))) return;
    }
    {
      ScopedSpan span(tracer, "replication.commit", b);
      if (!Ok(sheet, "commit_pending", cluster->CommitPending())) return;
    }
    out->repl_batch_rps.push_back(size / NsToS(NowNs() - b0));
  }
  const Nanos t1 = NowNs();
  const Nanos cpu1 = ProcessCpuNs();
  out->repl_records += static_cast<double>(n);
  out->repl_s += NsToS(t1 - t0);
  out->repl_cpu_s += NsToS(cpu1 - cpu0);
  out->attempted += n;
  sheet->Check("cluster_converged", cluster->Converged());
  const auto& net = cluster->net()->metrics();
  const auto& cm = cluster->metrics();
  out->wire_bytes += static_cast<double>(net.bytes_sent);
  out->net_msgs += static_cast<double>(net.messages_sent);
  out->consensus_msgs += static_cast<double>(cm.consensus_messages);
  out->repl_batches += static_cast<double>(cm.batches_committed);
  sheet->Check("cluster_records_committed", cm.records_committed == n);

  // A follower is a node that never proposed; proofs it builds are
  // verified against another node's block hashes.
  network::NodeId follower = 0;
  for (network::NodeId id = 0; id < cluster->size(); ++id) {
    if (cluster->node(id)->metrics().blocks_proposed == 0) {
      follower = id;
      break;
    }
  }
  const network::NodeId other = (follower + 1) % cluster->size();
  replication::ReplicatedNode* node = cluster->node(follower);
  const ledger::Blockchain& other_chain = *cluster->node(other)->chain();
  if (!Ok(sheet, "follower_publish", node->store()->PublishSnapshot())) return;

  // Each pass is a fresh auditor verifying the whole follower chain.
  for (size_t pass = 0; pass < kAuditPasses; ++pass) {
    audit::ContinuousAuditorOptions options;
    options.max_blocks_per_pass = static_cast<size_t>(node->chain()->height()) + 1;
    options.parallelism = 0;
    audit::ContinuousAuditor auditor(node->chain(), node->store(), options);
    const Nanos a0 = NowNs();
    audit::AuditReport report;
    {
      ScopedSpan span(tracer, "auditor.pass", pass);
      report = auditor.RunPass();
    }
    const Nanos a1 = NowNs();
    const double audited = static_cast<double>(auditor.records_audited());
    out->audit_records += audited;
    out->audit_s += NsToS(a1 - a0);
    out->audit_pass_rps.push_back(audited / NsToS(a1 - a0));
    out->audit_findings += static_cast<double>(report.findings.size());
    sheet->Check("audit_clean", report.clean() && auditor.records_audited() == n);
  }
  {
    auto all = node->store()->AuditAll();
    sheet->Check("follower_audit_all", all.ok() && *all == n);
  }

  auto hash_at = [&other_chain](uint64_t h) { return other_chain.BlockHashAt(h); };
  size_t proof_failures = 0;
  double kb = 0, ancestors = 0;
  for (size_t i = 0; i < targets.size(); ++i) {
    const uint32_t target = targets[i];
    const std::string& id = st.dag.records[target].record_id;
    const Nanos p0 = NowNs();
    Result<audit::LineageProof> proof = Status::Internal("not built");
    {
      ScopedSpan span(tracer, "lineage_proof.build", i);
      proof = audit::BuildLineageProof(*node->store(), id);
    }
    audit::LineageSummary summary;
    Status verified = proof.status();
    if (proof.ok()) {
      ScopedSpan span(tracer, "lineage_proof.verify", i);
      verified = audit::VerifyLineageProof(*proof, id, hash_at, &summary);
    }
    out->proof_ms.push_back(NsToMs(NowNs() - p0));
    if (!verified.ok() ||
        summary.record_ids.size() != st.dag.ancestors[target] + 1) {
      ++proof_failures;
      continue;
    }
    kb += static_cast<double>(proof->EncodedSize()) / 1024.0;
    ancestors += static_cast<double>(st.dag.ancestors[target]);
  }
  out->proofs += static_cast<double>(targets.size());
  out->proof_kb += kb;
  out->proof_ancestors += ancestors;
  out->attempted += targets.size();
  out->failed += proof_failures;
  sheet->Check("proofs_verify", proof_failures == 0,
               std::to_string(proof_failures) + " failed");
}

// ---------------------------------------------------------------------------
// Pass (b): single-thread replays with a span at every public call
// ---------------------------------------------------------------------------

void ReplayIngest(const Prepared& prep, const std::string& dir,
                  Tracer* tracer, Sheet* sheet, ReplayOut* out) {
  std::vector<prov::ProvenanceRecord> records = prep.ingest_input.records;
  ResetDir(dir);
  SimClock clock(kClockMicros);
  ledger::Blockchain chain;
  auto log = OpenLog(dir + "/chain.log");
  if (!Ok(sheet, "replay_log_open", log.status())) return;
  ledger::ChainLog* raw = log->get();
  uint32_t commit_span = 0;
  chain.SetBlockSink([&](const ledger::Block& b) {
    ScopedSpan span(tracer, "chain_log.append", b.header.height, commit_span);
    return raw->Append(b);
  });
  prov::ProvenanceStore store(&chain, &clock);
  out->records = static_cast<double>(records.size());

  ScopedSpan root(tracer, "replay", 0);
  if (!AnchorSerial(&store, std::move(records), kIngestBatch, 0, tracer,
                    root.id(), &commit_span, sheet)) {
    return;
  }
  {
    ScopedSpan span(tracer, "store.publish", 0, root.id());
    if (!Ok(sheet, "replay_publish", store.PublishSnapshot())) return;
  }
  {
    ScopedSpan span(tracer, "chain_log.sync", 0, root.id());
    if (!Ok(sheet, "replay_sync", raw->Sync())) return;
  }
  std::vector<Bytes> bodies;
  {
    ScopedSpan span(tracer, "columnar.encode", 0, root.id());
    for (uint64_t h = 1; h <= chain.height(); ++h) {
      bodies.push_back(prov::columnar::EncodeBlock(*chain.PeekBlock(h)));
    }
  }
  bool decoded = true;
  {
    ScopedSpan span(tracer, "columnar.decode", 0, root.id());
    for (const Bytes& body : bodies) {
      decoded &= prov::columnar::DecodeBlock(body).ok();
    }
  }
  sheet->Check("replay_columnar_decode", decoded);
}

void ReplayFresh(const Config& config, const std::string& dir, Tracer* tracer,
                 Sheet* sheet, ReplayOut* out) {
  IotInput in = GenerateFresh(config);
  const size_t preload = config.fresh_preload;
  std::vector<prov::ProvenanceRecord> head(
      in.records.begin(), in.records.begin() + static_cast<std::ptrdiff_t>(preload));
  std::vector<prov::ProvenanceRecord> stream(
      in.records.begin() + static_cast<std::ptrdiff_t>(preload), in.records.end());
  ResetDir(dir);
  SimClock clock(kClockMicros);
  ledger::Blockchain chain;
  auto log = OpenLog(dir + "/chain.log");
  if (!Ok(sheet, "replay_log_open", log.status())) return;
  ledger::ChainLog* raw = log->get();
  uint32_t commit_span = 0;
  chain.SetBlockSink([&](const ledger::Block& b) {
    ScopedSpan span(tracer, "chain_log.append", b.header.height, commit_span);
    return raw->Append(b);
  });
  prov::ProvenanceStore store(&chain, &clock);
  Tracer off;
  if (!AnchorSerial(&store, std::move(head), kPreloadBatch, 0, &off, 0, nullptr,
                    sheet)) {
    return;
  }
  out->records = static_cast<double>(stream.size());
  {
    ScopedSpan root(tracer, "replay", 0);
    if (!AnchorSerial(&store, std::move(stream), kFreshBatch,
                      kFreshEpochBatches, tracer, root.id(),
                      &commit_span, sheet)) {
      return;
    }
  }
  // EXPLAIN the reader's query classes against the final state.
  Rng plan(Seeds(config.seed).plan);
  const size_t r = in.records.size();
  for (size_t j = 0; j < 200; ++j) {
    const uint32_t s = in.subject_of[plan.NextBelow(r)];
    const uint32_t a = static_cast<uint32_t>(plan.NextBelow(kIot.agents));
    prov::Query subject, range;
    subject.WithSubject(in.subject_names[s]);
    subject.descending = true;
    subject.limit = kFreshPage;
    const prov::Query agent =
        AgentPage(in, a, ProductType(s),
                  r - std::min(r, kFreshAgentWindow), r);
    range.Between(IotTimestamp(r - kFreshRange), IotTimestamp(r - 1));
    const prov::Query* queries[] = {&subject, &agent, &range};
    for (const prov::Query* q : queries) {
      // A covering plan touches exactly the rows it returns.
      const prov::QueryExplain e = store.Explain(*q);
      out->explain_scanned += static_cast<double>(
          e.covers_filters ? e.rows_matched : e.candidates_scanned);
      out->explain_matched += static_cast<double>(e.rows_matched);
    }
  }
}

void ReplayCluster(const Config& config, Tracer* tracer, Sheet* sheet,
                   ReplayOut* out) {
  const DagInput dag = GenerateDag(Seeds(config.seed).cluster,
                                   config.cluster_workflows,
                                   kClusterDepth);
  const auto batches =
      Chunk(dag.records, 0, dag.records.size(), kClusterBatch);
  SimClock clock(kClockMicros);
  ledger::Blockchain proposer_chain, follower_chain;
  prov::ProvenanceStore proposer(&proposer_chain, &clock);
  prov::ProvenanceStore follower(&follower_chain, &clock);
  out->records = static_cast<double>(dag.records.size());

  ScopedSpan root(tracer, "replay", 0);
  for (size_t b = 0; b < batches.size(); ++b) {
    {
      ScopedSpan span(tracer, "replication.proposer_anchor", b, root.id());
      if (!Ok(sheet, "replay_anchor", proposer.AnchorBatch(batches[b]))) return;
    }
    Bytes wire;
    {
      ScopedSpan span(tracer, "columnar.encode", b, root.id());
      wire = prov::columnar::EncodeBlock(
          *proposer_chain.PeekBlock(proposer_chain.height()));
    }
    Result<ledger::Block> block = Status::Internal("not decoded");
    {
      ScopedSpan span(tracer, "columnar.decode", b, root.id());
      block = prov::columnar::DecodeBlock(wire);
    }
    if (!Ok(sheet, "replay_wire_decode", block.status())) return;
    {
      ScopedSpan span(tracer, "replication.follower_validate", b, root.id());
      if (!Ok(sheet, "replay_submit", follower_chain.SubmitBlock(*block))) return;
    }
    {
      ScopedSpan span(tracer, "replication.follower_index", b, root.id());
      if (!Ok(sheet, "replay_apply",
              follower.ApplyChainBlock(follower_chain.height()))) {
        return;
      }
    }
  }
  sheet->Check("replay_follower_matches",
               follower_chain.head_hash() == proposer_chain.head_hash() &&
                   follower.anchored_count() == dag.records.size());
}

}  // namespace ledgerbench
