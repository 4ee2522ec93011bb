#include "gen.h"

#include <algorithm>
#include <cmath>

#include "common/rng.h"

namespace ledgerbench {

using provledger::Rng;
using provledger::Timestamp;
using provledger::prov::ProvenanceRecord;

namespace {

constexpr Timestamp kEpochMicros = 1'700'000'000'000'000LL;
const char* const kProductTypes[] = {"vaccine", "insulin", "plasma"};

size_t CountBelow(const std::vector<uint32_t>& sorted, size_t prefix) {
  return static_cast<size_t>(
      std::lower_bound(sorted.begin(), sorted.end(),
                       static_cast<uint32_t>(prefix)) -
      sorted.begin());
}

std::string Entity(const std::string& subject, size_t version) {
  return subject + "@" + std::to_string(version);
}

}  // namespace

size_t IotInput::SubjectCount(uint32_t subject, size_t prefix) const {
  return CountBelow(by_subject[subject], prefix);
}

size_t IotInput::AgentTypeCount(uint32_t agent, size_t from, size_t to,
                                const std::string& type) const {
  const auto& list = by_agent[agent];
  size_t count = 0;
  for (auto it = std::lower_bound(list.begin(), list.end(),
                                  static_cast<uint32_t>(from));
       it != list.end() && *it < to; ++it) {
    count += type == ProductType(subject_of[*it]) ? 1 : 0;
  }
  return count;
}

const char* ProductType(uint32_t subject) { return kProductTypes[subject % 3]; }

std::string IotInput::LatestEntity(uint32_t subject, size_t prefix) const {
  const size_t count = SubjectCount(subject, prefix);
  return count == 0 ? "" : Entity(subject_names[subject], count - 1);
}

Timestamp IotTimestamp(size_t i) {
  return kEpochMicros + static_cast<Timestamp>(i) * 1000;
}

IotInput GenerateIot(uint64_t seed, const std::string& prefix, size_t n,
                     const IotShape& shape) {
  Rng rng(seed);
  IotInput in;
  // Zipf(s) over subject ranks via the inverse CDF.
  std::vector<double> cdf(shape.subjects);
  double total = 0;
  for (size_t k = 0; k < shape.subjects; ++k) {
    total += 1.0 / std::pow(static_cast<double>(k + 1), shape.zipf_s);
    cdf[k] = total;
  }
  for (double& c : cdf) c /= total;
  // Rank -> subject id is a seeded permutation, so the hot subjects differ
  // between seeds.
  std::vector<uint32_t> perm(shape.subjects);
  for (size_t k = 0; k < perm.size(); ++k) perm[k] = static_cast<uint32_t>(k);
  for (size_t k = perm.size(); k > 1; --k) {
    std::swap(perm[k - 1], perm[rng.NextBelow(k)]);
  }
  for (size_t k = 0; k < shape.subjects; ++k) {
    in.subject_names.push_back(prefix + "pkg-" + std::to_string(k));
  }
  for (size_t a = 0; a < shape.agents; ++a) {
    in.agent_names.push_back("gw-" + std::to_string(a));
  }
  in.by_subject.resize(shape.subjects);
  in.by_agent.resize(shape.agents);
  in.records.reserve(n);
  for (size_t i = 0; i < n; ++i) {
    const size_t rank = static_cast<size_t>(
        std::lower_bound(cdf.begin(), cdf.end(), rng.NextDouble()) -
        cdf.begin());
    const uint32_t subject = perm[std::min(rank, perm.size() - 1)];
    const uint32_t agent = static_cast<uint32_t>(rng.NextBelow(shape.agents));
    const std::string& name = in.subject_names[subject];
    const size_t version = in.by_subject[subject].size();

    ProvenanceRecord rec = provledger::prov::MakeSupplyChainRecord(
        prefix + "r" + std::to_string(i), "sense", name,
        in.agent_names[agent], IotTimestamp(i),
        "lot-" + std::to_string(subject % 50),
        "2027-" + std::to_string(1 + subject % 12),
        "zone-" + std::to_string(rng.NextBelow(10)),
        ProductType(subject), "mfg-" + std::to_string(subject % 7),
        "qr://" + name);
    rec.fields["reading_c"] = std::to_string(rng.NextRange(20, 80) / 10.0);
    if (version > 0) rec.inputs.push_back(Entity(name, version - 1));
    rec.outputs.push_back(Entity(name, version));

    in.records.push_back(std::move(rec));
    in.subject_of.push_back(subject);
    in.by_subject[subject].push_back(static_cast<uint32_t>(i));
    in.by_agent[agent].push_back(static_cast<uint32_t>(i));
  }
  return in;
}

DagInput GenerateDag(uint64_t seed, size_t workflows, size_t depth) {
  Rng rng(seed);
  DagInput dag;
  dag.records.reserve(workflows * depth);
  std::vector<uint32_t> order(workflows);
  for (size_t w = 0; w < workflows; ++w) order[w] = static_cast<uint32_t>(w);
  for (size_t p = 0; p < depth; ++p) {
    // Each step round visits the workflows in a fresh seeded order, so a
    // block mixes steps of many workflows.
    for (size_t k = order.size(); k > 1; --k) {
      std::swap(order[k - 1], order[rng.NextBelow(k)]);
    }
    for (uint32_t w : order) {
      const std::string wf = "wf-" + std::to_string(w);
      const std::string task = wf + "/t" + std::to_string(p);
      ProvenanceRecord rec = provledger::prov::MakeScientificRecord(
          task, "execute", task, "lab-" + std::to_string(w % 16),
          kEpochMicros + static_cast<Timestamp>(dag.records.size()) * 1000,
          wf, std::to_string(rng.NextRange(5, 5000)) + "ms",
          "user-" + std::to_string(rng.NextBelow(32)),
          p == 0 ? "raw/" + wf : wf + "/o" + std::to_string(p - 1),
          wf + "/o" + std::to_string(p), "");
      if (p == 0) rec.inputs.push_back("raw/" + wf);
      if (p >= 1) rec.inputs.push_back(wf + "/o" + std::to_string(p - 1));
      if (p >= 2) rec.inputs.push_back(wf + "/o" + std::to_string(p - 2));
      rec.outputs.push_back(wf + "/o" + std::to_string(p));
      dag.records.push_back(std::move(rec));
      dag.ancestors.push_back(static_cast<uint32_t>(p));
    }
  }
  return dag;
}

std::vector<uint32_t> PlanProofTargets(uint64_t seed, size_t workflows,
                                       size_t depth, size_t count) {
  Rng rng(seed ^ 0x5eed5eedULL);
  std::vector<uint32_t> targets;
  targets.reserve(count);
  for (size_t i = 0; i < count; ++i) {
    // Stratified log-uniform ancestry, step p = floor(depth^u) - 1 with u
    // at the midpoint of stratum i: every seed asks for the same depth
    // mix, only the workflows (and so the blocks touched) differ.
    const double u = (static_cast<double>(i) + 0.5) / static_cast<double>(count);
    size_t p = static_cast<size_t>(std::pow(static_cast<double>(depth), u));
    p = std::min(depth - 1, p == 0 ? 0 : p - 1);
    const size_t slot = rng.NextBelow(workflows);
    targets.push_back(static_cast<uint32_t>(p * workflows + slot));
  }
  // Request order is seeded too.
  for (size_t k = targets.size(); k > 1; --k) {
    std::swap(targets[k - 1], targets[rng.NextBelow(k)]);
  }
  return targets;
}

}  // namespace ledgerbench
