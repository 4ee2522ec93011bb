// ledgerbench: one workload of the ledger benchmark, end to end.
//
//   ledgerbench --seed N --trace 0|1 --dir DATA_DIR [--spans FILE]
//               --set key=value ...
//
// The sizes that differ between workloads come in as --set pairs
// (ledgerbench/workloads.json via ledgerbench/run.py); the rest are the
// constants of stages.h. The last line of standard output is one JSON object:
// the metrics (trace 0: end-to-end; trace 1: per layer) with unit and
// sample count, the output checks, and the count metrics the determinism
// self-check compares.

#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <map>
#include <memory>
#include <string>
#include <type_traits>
#include <vector>

#include "common.h"
#include "stages.h"

namespace ledgerbench {
namespace {

constexpr int kSetups = 3;

bool ParseConfig(const std::map<std::string, std::string>& kv, Config* c) {
  auto num = [&](const char* key, auto* field) {
    auto it = kv.find(key);
    if (it == kv.end()) {
      std::fprintf(stderr, "missing --set %s=...\n", key);
      return false;
    }
    *field = static_cast<std::remove_pointer_t<decltype(field)>>(
        std::stod(it->second));
    return true;
  };
  return num("ingest_records", &c->ingest_records) &&
         num("ingest_shards", &c->ingest_shards) &&
         num("fresh_preload", &c->fresh_preload) &&
         num("fresh_write_ms", &c->fresh_write_ms) &&
         num("fresh_read_ms", &c->fresh_read_ms) &&
         num("fresh_seconds", &c->fresh_seconds) &&
         num("cluster_workflows", &c->cluster_workflows) &&
         num("proofs", &c->proofs);
}

void RunStages(const Config& config, Prepared* prep, const std::string& dir,
               Tracer* tracer, Sheet* sheet, StageOut* out) {
  // Wall time of each stage over all rounds, to show which one the
  // workload spends its run on.
  double wall[3] = {0, 0, 0};
  for (size_t round = 0; round < kRounds; ++round) {
    const size_t c0 = out->commit_ms.size(), q0 = out->query_ms.size(),
                 p0 = out->proof_ms.size();
    const Nanos t0 = NowNs();
    RunIngest(config, *prep, round, dir, tracer, sheet, out);
    const Nanos t1 = NowNs();
    RunFresh(config, prep, round, tracer, sheet, out);
    const Nanos t2 = NowNs();
    RunCluster(config, *prep, round, tracer, sheet, out);
    const Nanos t3 = NowNs();
    wall[0] += NsToS(t1 - t0);
    wall[1] += NsToS(t2 - t1);
    wall[2] += NsToS(t3 - t2);
    auto tail = [](const std::vector<double>& v, size_t from, double p) {
      return Percentile(std::vector<double>(v.begin() + from, v.end()), p);
    };
    std::fprintf(stderr,
                 "round %zu: ingest %.2fs (commit p50 %.2f p99 %.1f) fresh "
                 "%.2fs (query p50 %.2f p99 %.1f) cluster %.2fs (proof p50 "
                 "%.3f)\n",
                 round, NsToS(t1 - t0), tail(out->commit_ms, c0, 50),
                 tail(out->commit_ms, c0, 99), NsToS(t2 - t1),
                 tail(out->query_ms, q0, 50), tail(out->query_ms, q0, 99),
                 NsToS(t3 - t2), tail(out->proof_ms, p0, 50));
  }
  const double all = wall[0] + wall[1] + wall[2];
  std::fprintf(stderr,
               "stage wall: ingest %.1fs (%.0f%%) fresh %.1fs (%.0f%%) "
               "cluster %.1fs (%.0f%%)\n",
               wall[0], 100 * wall[0] / all, wall[1], 100 * wall[1] / all,
               wall[2], 100 * wall[2] / all);
}

/// Time the stages spent working (open-loop idle time excluded).
double BusySeconds(const StageOut& out) {
  double proofs_s = 0;
  for (double ms : out.proof_ms) proofs_s += ms / 1000.0;
  return out.ingest_s + out.query_busy_s + out.repl_s + out.audit_s + proofs_s;
}

void CommonChecks(const StageOut& out, Sheet* sheet) {
  sheet->Check("thread_budget",
               out.max_threads > 0 &&
                   out.max_threads <= static_cast<int>(kThreadBudget),
               "max threads " + std::to_string(out.max_threads));
  sheet->Check("auditor_no_findings", out.audit_findings == 0);
  sheet->attempted += out.attempted;
  sheet->failed += out.failed;
}

/// trace 0: every end-to-end metric, from untraced stages. Rates and
/// recovery time are medians over their units (ingest and recovery: a
/// round; replication: a batch; audit: a full pass), so that one slow
/// stretch of a shared machine moves them less than it would a total.
void EndToEnd(const Config& config, const std::string& dir, Sheet* sheet) {
  std::vector<double> setup_s;
  std::unique_ptr<Prepared> prep;
  for (int k = 0; k < kSetups; ++k) {
    prep.reset();
    const Nanos t0 = NowNs();
    prep = Setup(config, dir);
    setup_s.push_back(NsToS(NowNs() - t0));
    if (prep == nullptr) {
      sheet->Check("setup", false);
      return;
    }
  }
  Tracer off;
  StageOut out;
  RunStages(config, prep.get(), dir, &off, sheet, &out);
  CommonChecks(out, sheet);

  sheet->Set("setup_s", Median(setup_s), "s", setup_s.size());
  sheet->Set("peak_rss_mb", PeakRssMiB(), "MiB");
  sheet->Set("ingest_rps", Median(out.ingest_rps), "1/s",
             out.ingest_rps.size());
  sheet->Set("disk_bytes_per_rec", out.log_bytes / out.ingest_records, "B");
  sheet->Set("recover_s", Median(out.recover_s), "s", out.recover_s.size());
  sheet->Set("visible_p50_ms", Percentile(out.visible_ms, 50), "ms",
             out.visible_ms.size());
  sheet->Set("visible_p90_ms", Percentile(out.visible_ms, 90), "ms",
             out.visible_ms.size());
  sheet->Set("query_p50_ms", Percentile(out.query_ms, 50), "ms",
             out.query_ms.size());
  sheet->Set("query_p99_ms", Percentile(out.query_ms, 99), "ms",
             out.query_ms.size());
  sheet->Set("replicate_rps", Median(out.repl_batch_rps), "1/s",
             out.repl_batch_rps.size());
  sheet->Set("wire_bytes_per_rec", out.wire_bytes / out.repl_records, "B");
  sheet->Set("audit_rps", Median(out.audit_pass_rps), "1/s",
             out.audit_pass_rps.size());
  sheet->Set("proof_p50_ms", Percentile(out.proof_ms, 50), "ms",
             out.proof_ms.size());
  sheet->Set("proof_p99_ms", Percentile(out.proof_ms, 99), "ms",
             out.proof_ms.size());

  sheet->counts["disk_bytes_per_rec"] = out.log_bytes / out.ingest_records;
  sheet->counts["wire_bytes_per_rec"] = out.wire_bytes / out.repl_records;
  sheet->counts["blocks"] = out.log_blocks;
  sheet->counts["lineage_proof.kb"] = out.proof_kb / out.proofs;
  sheet->counts["reopen_share"] = out.reopened / out.groups;
  sheet->counts["max_threads"] = out.max_threads;
}

/// trace 1: pass (a) = the stages with spans at the benchmark's own calls,
/// against an untraced run of the same stages for the overhead; pass (b) =
/// single-thread replays that attribute the write path layer by layer.
void PerLayer(const Config& config, const std::string& dir,
              const std::string& spans_path, Sheet* sheet) {
  StageOut plain;
  {
    auto prep = Setup(config, dir);
    if (prep == nullptr) return sheet->Check("setup", false);
    Tracer off;
    RunStages(config, prep.get(), dir, &off, sheet, &plain);
    CommonChecks(plain, sheet);
  }
  Tracer tracer;
  tracer.set_enabled(true);
  StageOut out;
  auto prep = Setup(config, dir);
  if (prep == nullptr) return sheet->Check("setup", false);
  RunStages(config, prep.get(), dir, &tracer, sheet, &out);
  CommonChecks(out, sheet);

  Tracer ingest_replay, fresh_replay, cluster_replay;
  for (Tracer* t : {&ingest_replay, &fresh_replay, &cluster_replay}) {
    t->set_enabled(true);
  }
  ReplayOut ri, rf, rc;
  ReplayIngest(*prep, dir + "/replay-ingest", &ingest_replay, sheet, &ri);
  ReplayFresh(config, dir + "/replay-fresh", &fresh_replay, sheet, &rf);
  ReplayCluster(config, &cluster_replay, sheet, &rc);

  if (!spans_path.empty()) {
    bool written = tracer.WriteJsonLines(spans_path + ".stages.jsonl") &&
                   ingest_replay.WriteJsonLines(spans_path + ".replay-ingest.jsonl") &&
                   fresh_replay.WriteJsonLines(spans_path + ".replay-fresh.jsonl") &&
                   cluster_replay.WriteJsonLines(spans_path + ".replay-cluster.jsonl");
    sheet->Check("spans_written", written);
  }

  // Pass (a).
  const auto total = tracer.TotalByName();
  auto sum_ms = [&](const std::string& name) {
    auto it = total.find(name);
    return it == total.end() ? 0.0 : NsToMs(it->second.first);
  };
  auto med = [&](const std::string& name) {
    return Median(tracer.DurationsMs(name));
  };
  const double pipeline_recs = static_cast<double>(out.pipeline_submitted);
  sheet->Set("ingest_pipeline.submit_wait_us_per_rec",
             sum_ms("ingest_pipeline.submit") * 1000.0 / pipeline_recs, "us");
  sheet->Set("ingest_pipeline.drain_ms", med("ingest_pipeline.close"), "ms");
  sheet->Set("ingest_pipeline.failed_ratio",
             static_cast<double>(out.pipeline_failed) / pipeline_recs, "ratio");
  sheet->Set("snapshot.open_reader_ms", med("snapshot.open_reader"), "ms",
             tracer.DurationsMs("snapshot.open_reader").size());
  sheet->Set("graph.first_query_ms", med("graph.first_query"), "ms");
  for (const char* cls : {"subject", "agent", "range", "lineage"}) {
    const std::string name = std::string("graph.query.") + cls;
    sheet->Set("graph.query_us." + std::string(cls), med(name) * 1000.0, "us",
               tracer.DurationsMs(name).size());
  }
  sheet->Set("chain_log.replay_s", med("chain_log.replay") / 1000.0, "s");
  sheet->Set("store.recover_s", med("store.recover") / 1000.0, "s");
  sheet->Set("replication.commit_ms_per_batch", med("replication.commit"), "ms");
  sheet->Set("auditor.us_per_rec",
             sum_ms("auditor.pass") * 1000.0 / out.audit_records, "us");
  sheet->Set("auditor.findings", out.audit_findings, "count");
  sheet->Set("lineage_proof.build_ms", med("lineage_proof.build"), "ms");
  sheet->Set("lineage_proof.verify_ms", med("lineage_proof.verify"), "ms");
  sheet->Set("lineage_proof.kb", out.proof_kb / out.proofs, "KiB");
  sheet->Set("lineage_proof.ancestors", out.proof_ancestors / out.proofs,
             "count");
  sheet->Set("chain_log.fsyncs_per_krec",
             1000.0 * out.log_blocks / out.ingest_records, "count");
  sheet->Set("chain_log.bytes_per_rec", out.log_bytes / out.ingest_records, "B");
  sheet->Set("replication.msgs_per_batch", out.net_msgs / out.repl_batches,
             "count");
  sheet->Set("consensus.msgs_per_batch", out.consensus_msgs / out.repl_batches,
             "count");
  sheet->Set("snapshot.body_mb", Median(out.body_mb), "MiB");
  sheet->Set("process.cpu_us_per_rec.ingest",
             plain.ingest_cpu_s * 1e6 / plain.ingest_records, "us");
  sheet->Set("process.cpu_us_per_rec.replicate",
             plain.repl_cpu_s * 1e6 / plain.repl_records, "us");
  sheet->Set("generator.late_p99_ms", Percentile(plain.late_ms, 99), "ms",
             plain.late_ms.size());
  // Durable commit latency of the open loop, from the untraced pass: one
  // fsync per small block puts the shared disk's flush latency in it.
  sheet->Set("ingest_pipeline.commit_p50_ms", Percentile(plain.commit_ms, 50),
             "ms", plain.commit_ms.size());
  sheet->Set("ingest_pipeline.commit_p99_ms", Percentile(plain.commit_ms, 99),
             "ms", plain.commit_ms.size());
  sheet->Set("trace.overhead_ratio", BusySeconds(out) / BusySeconds(plain) - 1.0,
             "ratio");

  // Pass (b): self time per layer, per record of each replay.
  auto self_us_per_rec = [](const Tracer& t, const std::string& name,
                            double records) {
    const auto self = t.SelfTimeByName();
    auto it = self.find(name);
    return it == self.end() ? 0.0 : NsToUs(it->second) / records;
  };
  sheet->Set("store.prepare_us_per_rec",
             self_us_per_rec(ingest_replay, "store.prepare", ri.records), "us");
  sheet->Set("merkle.root_us_per_rec",
             self_us_per_rec(ingest_replay, "merkle.root", ri.records), "us");
  sheet->Set("store.commit_self_us_per_rec",
             self_us_per_rec(ingest_replay, "store.commit", ri.records), "us");
  sheet->Set("chain_log.append_us_per_rec",
             self_us_per_rec(ingest_replay, "chain_log.append", ri.records), "us");
  sheet->Set("columnar.encode_us_per_rec",
             self_us_per_rec(ingest_replay, "columnar.encode", ri.records), "us");
  sheet->Set("columnar.decode_us_per_rec",
             self_us_per_rec(ingest_replay, "columnar.decode", ri.records), "us");
  const auto publish = fresh_replay.TotalByName()["store.publish"];
  sheet->Set("store.publish_ms",
             publish.second == 0 ? 0.0
                                 : NsToMs(publish.first) /
                                       static_cast<double>(publish.second),
             "ms", publish.second);
  sheet->Set("graph.scanned_per_matched",
             rf.explain_matched > 0 ? rf.explain_scanned / rf.explain_matched : 0,
             "ratio");
  sheet->Set("replication.proposer_anchor_us_per_rec",
             self_us_per_rec(cluster_replay, "replication.proposer_anchor",
                             rc.records),
             "us");
  sheet->Set("replication.follower_validate_us_per_rec",
             self_us_per_rec(cluster_replay, "replication.follower_validate",
                             rc.records),
             "us");
  sheet->Set("replication.follower_index_us_per_rec",
             self_us_per_rec(cluster_replay, "replication.follower_index",
                             rc.records),
             "us");

  // Self times of every span in a replay add up to the root's duration;
  // the root's own self time is what no layer span covers.
  double unattributed = 0, wall = 0;
  for (const Tracer* t : {&ingest_replay, &fresh_replay, &cluster_replay}) {
    unattributed += static_cast<double>(t->SelfTimeByName()["replay"]);
    wall += static_cast<double>(t->TotalByName()["replay"].first);
  }
  sheet->Set("trace.unattributed_ratio", wall > 0 ? unattributed / wall : 0,
             "ratio");
}

int Main(int argc, char** argv) {
  std::map<std::string, std::string> kv;
  uint64_t seed = 0;
  int trace = -1;
  std::string dir, spans;
  for (int i = 1; i + 1 < argc; i += 2) {
    const std::string flag = argv[i], value = argv[i + 1];
    if (flag == "--seed") {
      seed = std::stoull(value);
    } else if (flag == "--trace") {
      trace = std::stoi(value);
    } else if (flag == "--dir") {
      dir = value;
    } else if (flag == "--spans") {
      spans = value;
    } else if (flag == "--set") {
      const size_t eq = value.find('=');
      if (eq == std::string::npos) return 2;
      kv[value.substr(0, eq)] = value.substr(eq + 1);
    } else {
      std::fprintf(stderr, "unknown flag %s\n", flag.c_str());
      return 2;
    }
  }
  Config config;
  if (trace < 0 || dir.empty() || !ParseConfig(kv, &config)) {
    std::fprintf(stderr,
                 "usage: ledgerbench --seed N --trace 0|1 --dir DIR "
                 "[--spans FILE] --set key=value ...\n");
    return 2;
  }
  config.seed = seed;
  PrintSizes(config);
  std::filesystem::create_directories(dir);

  Sheet sheet;
  if (trace == 0) {
    EndToEnd(config, dir, &sheet);
  } else {
    PerLayer(config, dir, spans, &sheet);
  }
  std::printf("%s\n", sheet.ToJson().c_str());
  return 0;
}

}  // namespace
}  // namespace ledgerbench

int main(int argc, char** argv) { return ledgerbench::Main(argc, argv); }
