// Google-benchmark microbenchmarks for the primitive operations every
// figure builds on: hashing, signatures, accumulator appends/proofs, MPT
// updates and CM-Tree operations. Useful for regression tracking and for
// attributing figure-level costs to primitives.

#include <benchmark/benchmark.h>

#include <string>
#include <vector>

#include "accum/fam.h"
#include "accum/shrubs.h"
#include "accum/tim.h"
#include "cmtree/cm_tree.h"
#include "common/random.h"
#include "crypto/ecdsa.h"
#include "mpt/mpt.h"
#include "storage/node_store.h"

namespace ledgerdb {
namespace {

Digest D(uint64_t i) {
  Bytes buf;
  PutU64(&buf, i * 2654435761u);
  return Sha256::Hash(buf);
}

void BM_Sha256(benchmark::State& state) {
  Bytes data(state.range(0), 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha256)->Arg(64)->Arg(1024)->Arg(65536);

void BM_Sha3_256(benchmark::State& state) {
  Bytes data(state.range(0), 0x5c);
  for (auto _ : state) {
    benchmark::DoNotOptimize(Sha3_256::Hash(data));
  }
  state.SetBytesProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_Sha3_256)->Arg(64)->Arg(1024);

void BM_EcdsaSign(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeedString("bm-signer");
  Digest msg = Sha256::Hash(std::string_view("message"));
  for (auto _ : state) {
    benchmark::DoNotOptimize(kp.Sign(msg));
  }
}
BENCHMARK(BM_EcdsaSign);

void BM_EcdsaVerify(benchmark::State& state) {
  KeyPair kp = KeyPair::FromSeedString("bm-signer");
  Digest msg = Sha256::Hash(std::string_view("message"));
  Signature sig = kp.Sign(msg);
  for (auto _ : state) {
    benchmark::DoNotOptimize(VerifySignature(kp.public_key(), msg, sig));
  }
}
BENCHMARK(BM_EcdsaVerify);

void BM_ShrubsAppend(benchmark::State& state) {
  ShrubsAccumulator acc;
  uint64_t i = 0;
  for (auto _ : state) {
    acc.Append(D(i++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ShrubsAppend);

void BM_TimAppend(benchmark::State& state) {
  TimAccumulator acc;
  uint64_t i = 0;
  for (auto _ : state) {
    acc.Append(D(i++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_TimAppend);

void BM_FamAppend(benchmark::State& state) {
  FamAccumulator fam(static_cast<int>(state.range(0)));
  uint64_t i = 0;
  for (auto _ : state) {
    fam.Append(D(i++));
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_FamAppend)->Arg(5)->Arg(15);

void BM_ShrubsProve(benchmark::State& state) {
  ShrubsAccumulator acc;
  const uint64_t n = 1 << 16;
  for (uint64_t i = 0; i < n; ++i) acc.Append(D(i));
  Digest root = acc.Root();
  Random rng(1);
  for (auto _ : state) {
    uint64_t leaf = rng.Uniform(n);
    MembershipProof proof;
    if (!acc.GetProof(leaf, &proof).ok()) std::abort();
    if (!ShrubsAccumulator::VerifyProof(D(leaf), proof, root)) std::abort();
  }
}
BENCHMARK(BM_ShrubsProve);

void BM_MptPut(benchmark::State& state) {
  NodeStore store;
  Mpt mpt(&store);
  Digest root = Mpt::EmptyRoot();
  uint64_t i = 0;
  for (auto _ : state) {
    Digest key = Sha3_256::Hash("key-" + std::to_string(i++));
    if (!mpt.Put(root, key, Slice(std::string_view("v")), &root).ok()) {
      std::abort();
    }
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_MptPut);

void BM_MptProve(benchmark::State& state) {
  NodeStore store;
  Mpt mpt(&store);
  Digest root = Mpt::EmptyRoot();
  const int n = 10000;
  for (int i = 0; i < n; ++i) {
    mpt.Put(root, Sha3_256::Hash("key-" + std::to_string(i)),
            Slice(std::string_view("v")), &root);
  }
  Random rng(2);
  Bytes v = StringToBytes("v");
  for (auto _ : state) {
    Digest key = Sha3_256::Hash("key-" + std::to_string(rng.Uniform(n)));
    MptProof proof;
    if (!mpt.GetProof(root, key, &proof).ok()) std::abort();
    if (!Mpt::VerifyProof(root, key, Slice(v), proof)) std::abort();
  }
}
BENCHMARK(BM_MptProve);

void BM_CmTreeAppend(benchmark::State& state) {
  CmTree tree;
  uint64_t i = 0;
  for (auto _ : state) {
    tree.Append("clue-" + std::to_string(i % 64), D(i), nullptr);
    ++i;
  }
  state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_CmTreeAppend);

void BM_CmTreeClueVerify(benchmark::State& state) {
  CmTree tree;
  const uint64_t m = state.range(0);
  std::vector<Digest> digests;
  for (uint64_t i = 0; i < m; ++i) {
    digests.push_back(D(i));
    tree.Append("target", digests.back(), nullptr);
  }
  for (uint64_t i = 0; i < 1000; ++i) tree.Append("noise-" + std::to_string(i), D(i), nullptr);
  for (auto _ : state) {
    ClueProof proof;
    if (!tree.GetClueProof("target", 0, 0, &proof).ok()) std::abort();
    if (!CmTree::VerifyClueProof(tree.Root(), digests, proof)) std::abort();
  }
}
BENCHMARK(BM_CmTreeClueVerify)->Arg(10)->Arg(100)->Arg(1000);

}  // namespace
}  // namespace ledgerdb

// Accepts the repo-wide `--json <path>` flag by translating it into
// google-benchmark's native JSON reporter flags.
int main(int argc, char** argv) {
  std::vector<char*> args;
  std::string out_flag, fmt_flag = "--benchmark_out_format=json";
  for (int i = 0; i < argc; ++i) {
    if (std::string(argv[i]) == "--json" && i + 1 < argc) {
      out_flag = "--benchmark_out=" + std::string(argv[i + 1]);
      ++i;
      continue;
    }
    args.push_back(argv[i]);
  }
  if (!out_flag.empty()) {
    args.push_back(out_flag.data());
    args.push_back(fmt_flag.data());
  }
  int filtered_argc = static_cast<int>(args.size());
  benchmark::Initialize(&filtered_argc, args.data());
  if (benchmark::ReportUnrecognizedArguments(filtered_argc, args.data())) {
    return 1;
  }
  benchmark::RunSpecifiedBenchmarks();
  benchmark::Shutdown();
  return 0;
}
