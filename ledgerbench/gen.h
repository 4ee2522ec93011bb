// Seeded input generators. The program under test sees only the records
// these produce; the side tables (per-subject and per-agent occurrence
// lists, per-record ancestry depth) are what the output checks compare
// query and proof results against.

#ifndef LEDGERBENCH_GEN_H_
#define LEDGERBENCH_GEN_H_

#include <cstdint>
#include <string>
#include <vector>

#include "prov/record.h"

namespace ledgerbench {

/// \brief IoT sensor readings (Sigwart et al.): supply-chain Table-1
/// fields, Zipf-skewed subjects, and each reading consumes its subject's
/// previous output, so every subject is a derivation chain.
struct IotInput {
  std::vector<provledger::prov::ProvenanceRecord> records;
  std::vector<uint32_t> subject_of;
  /// Record indices per subject / per agent, ascending.
  std::vector<std::vector<uint32_t>> by_subject;
  std::vector<std::vector<uint32_t>> by_agent;
  std::vector<std::string> subject_names;
  std::vector<std::string> agent_names;

  /// Records of `subject` among the first `prefix` records.
  size_t SubjectCount(uint32_t subject, size_t prefix) const;
  /// Records of `agent` in [from, to) whose product type is `type`.
  size_t AgentTypeCount(uint32_t agent, size_t from, size_t to,
                        const std::string& type) const;
  /// Output entity of the subject's latest reading among the first
  /// `prefix` records ("" when it has none).
  std::string LatestEntity(uint32_t subject, size_t prefix) const;
};

struct IotShape {
  size_t subjects = 5000;
  double zipf_s = 0.8;
  size_t agents = 64;
};

/// `n` readings with record ids `<prefix>r<i>`; timestamps step by 1 ms.
IotInput GenerateIot(uint64_t seed, const std::string& prefix, size_t n,
                     const IotShape& shape);

/// Table-1 product type of a subject ("vaccine", "insulin" or "plasma").
const char* ProductType(uint32_t subject);

/// Timestamp of IoT reading `i`.
provledger::Timestamp IotTimestamp(size_t i);

/// \brief Scientific workflows (SciChain): `workflows` interleaved
/// derivation chains of `depth` steps; step p consumes the outputs of
/// steps p-1 and p-2 of its workflow, so a record at step p has exactly p
/// ancestor records.
struct DagInput {
  std::vector<provledger::prov::ProvenanceRecord> records;
  std::vector<uint32_t> ancestors;  // per record
};

DagInput GenerateDag(uint64_t seed, size_t workflows, size_t depth);

/// Seeded proof targets: record indices whose ancestry depth is
/// log-uniform over [0, depth) (stratified, so the depth mix is the same
/// for every seed), giving the latency sample a smooth tail.
std::vector<uint32_t> PlanProofTargets(uint64_t seed, size_t workflows,
                                       size_t depth, size_t count);

}  // namespace ledgerbench

#endif  // LEDGERBENCH_GEN_H_
