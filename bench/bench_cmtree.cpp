// Figure 9 reproduction: clue-oriented verification performance of
// CM-Tree vs the ccMPT baseline.
//
//  (a) verification throughput on a randomly selected clue as the total
//      ledger grows (clues hold 1-100 journals, ~1 KB each). CM-Tree2 is an
//      independent per-clue accumulator, so its cost is flat; ccMPT must
//      prove all m journals against the ledger-wide accumulator:
//      O(m·log n) and decaying.
//  (b) verification latency vs the number of entries in one clue, at a
//      fixed large ledger. Expected: CM-Tree ~ O(m), ccMPT ~ O(m·log n),
//      with the paper reporting 16-33x (a) and up to 24x (b) advantages.

#include <string>
#include <vector>

#include "accum/tim.h"
#include "bench/bench_util.h"
#include "cmtree/cc_mpt.h"
#include "cmtree/cm_tree.h"
#include "common/random.h"

using namespace ledgerdb;
using namespace ledgerdb::bench;

namespace {

constexpr uint64_t kJournalBytes = 1024;

Digest JournalDigest(uint64_t i) {
  Bytes buf;
  PutU64(&buf, i * 0x9e3779b97f4a7c15ULL + 777);
  return Sha256::Hash(buf);
}

struct Workload {
  TimAccumulator ledger;
  std::unique_ptr<CmTree> cmtree;
  std::unique_ptr<CcMpt> ccmpt;
  std::vector<std::string> clues;
  std::unordered_map<std::string, std::vector<Digest>> clue_digests;

  /// Builds a ledger of `n` journals spread over clues of 1-100 entries.
  explicit Workload(uint64_t n) {
    cmtree = std::make_unique<CmTree>();
    ccmpt = std::make_unique<CcMpt>(&ledger);
    Random rng(7);
    uint64_t appended = 0;
    uint64_t clue_id = 0;
    while (appended < n) {
      std::string clue = "clue-" + std::to_string(clue_id++);
      uint64_t entries = rng.Range(1, 100);
      clues.push_back(clue);
      for (uint64_t e = 0; e < entries && appended < n; ++e, ++appended) {
        Digest d = JournalDigest(appended);
        uint64_t jsn = ledger.Append(d);
        cmtree->Append(clue, d, nullptr);
        ccmpt->Append(clue, jsn);
        clue_digests[clue].push_back(d);
      }
    }
  }
};

double CmTreeVerifyThroughput(const Workload& w, uint64_t queries) {
  Random rng(13);
  double secs = TimeSeconds([&] {
    for (uint64_t q = 0; q < queries; ++q) {
      const std::string& clue = w.clues[rng.Uniform(w.clues.size())];
      ClueProof proof;
      w.cmtree->GetClueProof(clue, 0, 0, &proof);
      if (!CmTree::VerifyClueProof(w.cmtree->Root(), w.clue_digests.at(clue),
                                   proof)) {
        std::abort();
      }
    }
  });
  return queries / secs;
}

double CcMptVerifyThroughput(const Workload& w, uint64_t queries) {
  Random rng(13);
  double secs = TimeSeconds([&] {
    for (uint64_t q = 0; q < queries; ++q) {
      const std::string& clue = w.clues[rng.Uniform(w.clues.size())];
      CcMptProof proof;
      w.ccmpt->GetClueProof(clue, &proof);
      if (!CcMpt::VerifyClueProof(w.ccmpt->Root(), w.ledger.Root(),
                                  w.clue_digests.at(clue), proof)) {
        std::abort();
      }
    }
  });
  return queries / secs;
}

}  // namespace

int main(int argc, char** argv) {
  JsonReporter json(argc, argv);
  int shift = ScaleShift();

  Header("Figure 9(a): clue verification throughput (TPS) vs ledger size");
  std::printf("%-10s %14s %14s %10s\n", "volume", "CM-Tree", "ccMPT", "speedup");
  for (int p = 10 + shift; p <= 16 + shift; p += 2) {
    uint64_t n = 1ULL << p;
    Workload w(n);
    uint64_t queries = 400;
    double cm = CmTreeVerifyThroughput(w, queries);
    double cc = CcMptVerifyThroughput(w, queries);
    std::printf("%-10s %14.0f %14.0f %9.1fx\n",
                VolumeLabel(n, kJournalBytes).c_str(), cm, cc, cm / cc);
    json.Add("clue_verify/cmtree/" + VolumeLabel(n, kJournalBytes), cm);
    json.Add("clue_verify/ccmpt/" + VolumeLabel(n, kJournalBytes), cc);
  }

  Header("Figure 9(b): clue verification latency (ms) vs clue entries");
  // Fixed large ledger accumulator (the paper uses a 1 GB accumulator).
  uint64_t bulk = 1ULL << (17 + shift);
  TimAccumulator ledger;
  CmTree cmtree;
  CcMpt ccmpt(&ledger);
  for (uint64_t i = 0; i < bulk; ++i) ledger.Append(JournalDigest(i));

  std::printf("%-10s %14s %14s %10s\n", "entries", "CM-Tree(ms)", "ccMPT(ms)",
              "speedup");
  for (uint64_t entries : {10ULL, 100ULL, 1000ULL, 10000ULL}) {
    std::string clue = "target-" + std::to_string(entries);
    std::vector<Digest> digests;
    for (uint64_t e = 0; e < entries; ++e) {
      Digest d = JournalDigest(bulk + entries * 31 + e);
      uint64_t jsn = ledger.Append(d);
      cmtree.Append(clue, d, nullptr);
      ccmpt.Append(clue, jsn);
      digests.push_back(d);
    }
    int iters = entries >= 10000 ? 5 : 20;
    double cm_ms = AvgLatencyUs(iters, [&] {
      ClueProof proof;
      cmtree.GetClueProof(clue, 0, 0, &proof);
      if (!CmTree::VerifyClueProof(cmtree.Root(), digests, proof)) std::abort();
    }) / 1000.0;
    double cc_ms = AvgLatencyUs(iters, [&] {
      CcMptProof proof;
      ccmpt.GetClueProof(clue, &proof);
      if (!CcMpt::VerifyClueProof(ccmpt.Root(), ledger.Root(), digests, proof)) {
        std::abort();
      }
    }) / 1000.0;
    std::printf("%-10llu %14.2f %14.2f %9.1fx\n",
                (unsigned long long)entries, cm_ms, cc_ms, cc_ms / cm_ms);
    json.Add("clue_latency/cmtree/" + std::to_string(entries),
             1e3 / cm_ms, cm_ms * 1e3, cm_ms * 1e3);
    json.Add("clue_latency/ccmpt/" + std::to_string(entries),
             1e3 / cc_ms, cc_ms * 1e3, cc_ms * 1e3);
  }

  std::printf(
      "\nExpected paper shape: CM-Tree flat ~O(m) vs ccMPT O(m log n);\n"
      "speedup grows with both ledger volume (a) and entry count (b),\n"
      "reaching ~33x / ~24x at the paper's largest scales.\n");
  return 0;
}
