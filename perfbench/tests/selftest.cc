// Self-test of the benchmark's own helpers: percentiles and the tail
// sample-count rule, metric-name validation, the result-line writer, and
// the traced transport decorator, which must hand the client exactly the
// responses a bare SocketTransport returns.
//
//   ctest --test-dir .bench_build/perfbench   (or run perfbench_selftest)

#include <unistd.h>

#include <cmath>
#include <cstdio>
#include <filesystem>
#include <string>
#include <vector>

#include "bench/bench_util.h"
#include "net/server.h"
#include "net/socket_transport.h"
#include "perfbench/stats.h"
#include "perfbench/timed_transport.h"

using namespace ledgerdb;
using namespace ledgerdb::perfbench;

namespace {

int failures = 0;

void Check(bool ok, const char* what) {
  if (!ok) {
    ++failures;
    std::fprintf(stderr, "FAILED: %s\n", what);
  }
}

bool Near(double a, double b) { return std::fabs(a - b) < 1e-9; }

/// The benchmark's percentiles come from bench::LatencySampler.
void TestPercentiles() {
  bench::LatencySampler empty;
  Check(empty.PercentileUs(50) == 0.0, "empty percentile is 0");
  bench::LatencySampler s;
  for (int i = 100; i >= 1; --i) s.Add(i);  // unsorted input
  Check(Near(s.PercentileUs(0), 1.0), "p0 is the minimum");
  Check(Near(s.PercentileUs(100), 100.0), "p100 is the maximum");
  Check(Near(s.PercentileUs(50), 50.5), "p50 of 1..100 interpolates to 50.5");
  Check(Near(s.PercentileUs(99), 99.01), "p99 of 1..100 is 99.01");
  bench::LatencySampler other;
  other.Add(1000);
  s.Merge(other);
  Check(s.count() == 101 && Near(s.PercentileUs(100), 1000.0),
        "merge adds samples");
}

void TestTailRule() {
  Check(SamplesBeyond(1000, 0.99) == 10, "1000 samples: 10 beyond p99");
  Check(SamplesBeyond(999, 0.99) == 9, "999 samples: 9 beyond p99");
  Check(TailSupported(1000, 0.99), "p99 supported at n=1000");
  Check(!TailSupported(999, 0.99), "p99 withheld at n=999");
  Check(TailSupported(20, 0.5), "p50 supported at n=20");
  Check(!TailSupported(10000, 0.9995), "p99.95 withheld at n=10000");
}

void TestNames() {
  for (const char* good :
       {"ops_per_s", "net.rpc_us.AppendTx.p50", "client.self_us.point_read.p50",
        "a-b", "9lives"}) {
    Check(ValidMetricName(good), good);
  }
  for (const char* bad :
       {"", "_x", ".x", "ledgerdb_server_request_us{op=\"AppendTx\"}", "a b",
        "ops/s", "x:y",
        "a1234567890123456789012345678901234567890123456789012345678901234"}) {
    Check(!ValidMetricName(bad), bad);
  }
}

void TestResultJson() {
  std::string out = ResultJson(true, 3, 1, {{"a", 1.5, "us"}, {"b", 2, "s"}});
  Check(out ==
            "{\"correct\": true, \"attempted\": 3, \"failed\": 1, \"metrics\": "
            "{\"a\": {\"value\": 1.5, \"unit\": \"us\"}, \"b\": {\"value\": 2, "
            "\"unit\": \"s\"}}}",
        "result line layout");
  Check(JsonNumber(std::nan("")) == "0", "NaN never reaches the output");
  Check(JsonNumber(0.1) == "0.10000000000000001", "numbers keep every digit");
  Check(JsonString("a\"b\\c\n") == "\"a\\\"b\\\\c\\n\"", "string escaping");
}

/// Every RPC the benchmark issues returns byte-identical responses through
/// the decorator and through a bare transport, and each call is spanned.
void TestDecoratorTransparency() {
  SimulatedClock clock(1'000'000);
  CertificateAuthority ca(KeyPair::FromSeedString("selftest-ca"));
  MemberRegistry registry(&ca);
  KeyPair lsp = KeyPair::FromSeedString("selftest-lsp");
  KeyPair user = KeyPair::FromSeedString("selftest-user");
  registry.Register(ca.Certify("u", user.public_key(), Role::kUser));
  LedgerOptions options;
  options.fractal_height = 4;
  Ledger ledger("lg://selftest", options, &clock, lsp, &registry);
  for (uint64_t i = 0; i < 40; ++i) {
    ClientTransaction tx;
    tx.ledger_uri = ledger.uri();
    tx.clues = {i % 2 == 0 ? "even" : "odd"};
    tx.payload = StringToBytes("payload-" + std::to_string(i));
    tx.nonce = i;
    tx.Sign(user);
    uint64_t jsn = 0;
    Check(ledger.Append(tx, &jsn).ok(), "preload append");
  }
  LedgerServer::Options sopts;
  sopts.unix_path = "perfbench-selftest-" + std::to_string(::getpid()) + ".sock";
  LedgerServer server(&ledger, sopts);
  if (!server.Start().ok()) {
    Check(false, "server start");
    return;
  }
  SocketTransport bare(server.address(), ledger.uri());
  SocketTransport wrapped_socket(server.address(), ledger.uri());
  TimedTransport timed(&wrapped_socket);

  Receipt r1, r2;
  Check(bare.GetReceipt(7, &r1).ok() && timed.GetReceipt(7, &r2).ok() &&
            r1.Serialize() == r2.Serialize(),
        "GetReceipt through the decorator");
  Journal j1, j2;
  Check(bare.GetJournal(9, &j1).ok() && timed.GetJournal(9, &j2).ok() &&
            j1.Serialize() == j2.Serialize(),
        "GetJournal through the decorator");
  FamProof p1, p2, captured;
  timed.CaptureNextProof(&captured);
  Check(bare.GetProof(9, &p1).ok() && timed.GetProof(9, &p2).ok() &&
            p1.Serialize() == p2.Serialize() &&
            captured.Serialize() == p2.Serialize(),
        "GetProof through the decorator, and its capture");
  std::vector<JournalDelta> d1, d2;
  bool same_delta = bare.GetDelta(0, 41, &d1).ok() &&
                    timed.GetDelta(0, 41, &d2).ok() && d1.size() == d2.size();
  for (size_t i = 0; same_delta && i < d1.size(); ++i) {
    same_delta = d1[i].Serialize() == d2[i].Serialize();
  }
  Check(same_delta, "GetDelta through the decorator");
  Check(timed.spans().back().deltas == 41, "GetDelta size recorded");
  ClueRangeResult g1, g2;
  Check(bare.ProveClueRange("odd", 0, INT64_MAX, &g1).ok() &&
            timed.ProveClueRange("odd", 0, INT64_MAX, &g2).ok() &&
            g1.Serialize() == g2.Serialize(),
        "ProveClueRange through the decorator");
  SignedCommitment c1, c2;
  Check(bare.GetCommitment(&c1).ok() && timed.GetCommitment(&c2).ok() &&
            c1.journal_count == c2.journal_count &&
            c1.fam_root == c2.fam_root,
        "GetCommitment through the decorator");
  ClientTransaction tx;
  tx.ledger_uri = ledger.uri();
  tx.clues = {"odd"};
  tx.payload = StringToBytes("via-decorator");
  tx.nonce = 1000;
  tx.Sign(user);
  uint64_t jsn_a = 0, jsn_b = 0;
  Check(timed.AppendTx(tx, &jsn_a).ok() && bare.AppendTx(tx, &jsn_b).ok() &&
            jsn_a == jsn_b,
        "AppendTx through the decorator (dedup returns the same jsn)");
  Check(timed.spans().size() == 7, "one span per decorated call");
  Check(timed.spans().front().bytes == r2.Serialize().size(),
        "first response of an op is sized");
  server.Stop();
  std::error_code ec;
  std::filesystem::remove(sopts.unix_path, ec);
}

}  // namespace

int main() {
  TestPercentiles();
  TestTailRule();
  TestNames();
  TestResultJson();
  TestDecoratorTransparency();
  if (failures != 0) {
    std::fprintf(stderr, "%d check(s) failed\n", failures);
    return 1;
  }
  std::printf("perfbench self-test passed\n");
  return 0;
}
