// Crash-recovery path benchmarks: how fast a file-backed ledger comes
// back after a restart. Stages are timed separately so regressions
// localize — the frame-by-frame reopen scan (FileStreamStore::Open), the
// full state replay (Ledger::Recover), the checkpoint write, tail replay
// through a verified checkpoint, and the offline integrity pass (Fsck).
// Population rate is reported too since the append path pays for the
// durability features (per-frame CRCs + watermark sidecar) that make
// recovery possible.
//
//   ./bench_recover [--json BENCH_recover.json]
//   LEDGERDB_BENCH_SCALE=quick|default|full
#include <cstdio>
#include <memory>
#include <string>

#include "bench/bench_plant.h"
#include "bench/bench_util.h"
#include "ledger/ledger.h"
#include "storage/checkpoint.h"
#include "storage/stream_store.h"

namespace ledgerdb {
namespace {

using bench::Header;
using bench::JsonReporter;
using bench::LatencySampler;
using bench::Plant;
using bench::ScaleShift;
using bench::TimeSeconds;
using bench::VolumeLabel;

constexpr char kJournalPath[] = "bench_recover_journals.log";
constexpr char kBlockPath[] = "bench_recover_blocks.log";
constexpr char kCkptBase[] = "bench_recover_ckpt";
constexpr size_t kPayloadBytes = 256;

void RemoveStream(const std::string& path) {
  std::remove(path.c_str());
  std::remove((path + ".wm").c_str());
  std::remove((path + ".quarantine").c_str());
}

void RemoveCheckpoints(const std::string& base) {
  for (const char* suffix :
       {".ckpt.0", ".ckpt.1", ".snap.0", ".snap.1", ".ckpt.tmp", ".snap.tmp"}) {
    std::remove((base + suffix).c_str());
  }
}

std::unique_ptr<FileStreamStore> MustOpen(const std::string& path) {
  std::unique_ptr<FileStreamStore> store;
  Status s = FileStreamStore::Open(path, &store);
  if (!s.ok()) {
    std::fprintf(stderr, "open %s: %s\n", path.c_str(), s.ToString().c_str());
    std::exit(1);
  }
  return store;
}

int Run(int argc, char** argv) {
  JsonReporter json(argc, argv);

  int shift = ScaleShift();
  uint64_t journals = 5000;
  journals = shift >= 0 ? journals << shift : journals >> -shift;
  json.SetMeta("journals", static_cast<double>(journals));
  json.SetMeta("payload_bytes", static_cast<double>(kPayloadBytes));
  json.SetMeta("clue_lineages", 4096.0);

  Plant plant("lg://bench-recover");
  plant.options.fractal_height = 8;
  plant.options.block_capacity = 256;
  // Clue-rich regime: many distinct lineages, the realistic worst case for
  // replay (every journal grows some clue accumulator).
  const Bytes payload(kPayloadBytes, 'x');
  auto signed_tx = [&](uint64_t nonce) {
    return plant.SignedTx(0, nonce, "acct-" + std::to_string(nonce % 4096),
                          payload);
  };
  auto recover = [&](LedgerStorage storage, std::unique_ptr<Ledger>* out,
                     RecoveryInfo* info = nullptr) {
    return Ledger::Recover(plant.uri, plant.options, &plant.clock, plant.lsp,
                           &plant.registry, storage, out, info);
  };

  Header("Recovery pipeline — " + std::to_string(journals) + " journals (" +
         VolumeLabel(journals, kPayloadBytes) + " payload)");

  // ---- Populate a durable image (every append = frame write + fsync +
  // watermark update; this is the cost recovery's guarantees are bought
  // with, so it is a benchmark row, not just setup).
  RemoveStream(kJournalPath);
  RemoveStream(kBlockPath);
  double populate_secs;
  uint64_t blocks_sealed = 0;
  {
    auto journal_stream = MustOpen(kJournalPath);
    auto block_stream = MustOpen(kBlockPath);
    std::unique_ptr<Ledger> ledger = plant.MakeLedger(
        LedgerStorage{journal_stream.get(), block_stream.get()});
    populate_secs = TimeSeconds([&] {
      for (uint64_t i = 0; i < journals; ++i) {
        uint64_t jsn = 0;
        Status s = ledger->Append(signed_tx(i), &jsn);
        if (!s.ok()) {
          std::fprintf(stderr, "append %llu: %s\n",
                       static_cast<unsigned long long>(i),
                       s.ToString().c_str());
          std::exit(1);
        }
        plant.clock.Advance(1000);
      }
    });
    ledger->SealBlock();
    blocks_sealed = ledger->blocks().size();
  }
  double populate_ops = static_cast<double>(journals) / populate_secs;
  std::printf("%-28s %12.0f journals/s  (%.2fs, %llu blocks)\n",
              "populate (append+fsync)", populate_ops, populate_secs,
              static_cast<unsigned long long>(blocks_sealed));
  json.Add("populate_append_fsync", populate_ops);

  constexpr int kIters = 5;

  // ---- Stage 1: frame scan. Reopen the journal log cold and rebuild the
  // offset index (header CRC + sequence + payload CRC per frame).
  {
    LatencySampler lat;
    uint64_t frames = 0;
    for (int i = 0; i < kIters; ++i) {
      lat.Time([&] {
        auto store = MustOpen(kJournalPath);
        frames = store->Count();
      });
    }
    double secs = lat.PercentileUs(50.0) / 1e6;
    double fps = static_cast<double>(frames) / secs;
    std::printf("%-28s %12.0f frames/s   (p50 %.1fms, %llu frames)\n",
                "reopen scan (stream open)", fps,
                lat.PercentileUs(50.0) / 1e3,
                static_cast<unsigned long long>(frames));
    json.Add("stream_reopen_scan", fps, lat);
  }

  // ---- Stage 2: full recovery. Streams are opened outside the timer so
  // this row isolates Ledger::Recover — journal replay through the fam
  // tree / CM-Tree / world state plus block-header cross-checks.
  double full_replay_p50_us = 0;
  {
    LatencySampler lat;
    uint64_t recovered_journals = 0;
    for (int i = 0; i < kIters; ++i) {
      auto journal_stream = MustOpen(kJournalPath);
      auto block_stream = MustOpen(kBlockPath);
      std::unique_ptr<Ledger> recovered;
      Status s;
      lat.Time([&] {
        s = recover(LedgerStorage{journal_stream.get(), block_stream.get()},
                    &recovered);
      });
      if (!s.ok()) {
        std::fprintf(stderr, "recover: %s\n", s.ToString().c_str());
        return 1;
      }
      recovered_journals = recovered->NumJournals();
    }
    full_replay_p50_us = lat.PercentileUs(50.0);
    double secs = full_replay_p50_us / 1e6;
    double jps = static_cast<double>(recovered_journals) / secs;
    std::printf("%-28s %12.0f journals/s (p50 %.1fms)\n",
                "Ledger::Recover (replay)", jps, full_replay_p50_us / 1e3);
    json.Add("ledger_recover_replay", jps, lat);
  }

  // ---- Stage 3: checkpoint write — serialize the verified state
  // (journals, fam tree, CM-Tree, world state) into the two-slot store
  // with persist-before-publish, then a small tail of post-checkpoint
  // appends so the recovery row below replays a realistic tail.
  RemoveCheckpoints(kCkptBase);
  uint64_t tail = journals / 100 < 16 ? 16 : journals / 100;
  {
    auto journal_stream = MustOpen(kJournalPath);
    auto block_stream = MustOpen(kBlockPath);
    CheckpointStore ckpt(Env::Default(), kCkptBase);
    std::unique_ptr<Ledger> ledger;
    Status s = recover(
        LedgerStorage{journal_stream.get(), block_stream.get(), &ckpt},
        &ledger);
    if (!s.ok()) {
      std::fprintf(stderr, "recover for checkpoint: %s\n", s.ToString().c_str());
      return 1;
    }
    LatencySampler lat;
    for (int i = 0; i < kIters; ++i) {
      lat.Time([&] {
        Status ws = ledger->WriteCheckpoint(nullptr);
        if (!ws.ok()) {
          std::fprintf(stderr, "checkpoint: %s\n", ws.ToString().c_str());
          std::exit(1);
        }
      });
    }
    double secs = lat.PercentileUs(50.0) / 1e6;
    double jps = static_cast<double>(ledger->NumJournals()) / secs;
    std::printf("%-28s %12.0f journals/s (p50 %.1fms)\n", "checkpoint write",
                jps, lat.PercentileUs(50.0) / 1e3);
    json.Add("checkpoint_write", jps, lat);

    for (uint64_t i = 0; i < tail; ++i) {
      Status as = ledger->Append(signed_tx(journals + i), nullptr);
      if (!as.ok()) {
        std::fprintf(stderr, "tail append: %s\n", as.ToString().c_str());
        return 1;
      }
      plant.clock.Advance(1000);
    }
  }
  json.SetMeta("tail_journals", static_cast<double>(tail));

  // ---- Stage 4: tail replay. Recovery adopts the newest verified
  // checkpoint (commitment-bound, SHA-256-pinned snapshot) and replays
  // only the journals past its watermark — the headline restart-latency
  // win over full replay.
  {
    LatencySampler lat;
    uint64_t recovered_journals = 0;
    bool used_checkpoint = true;
    for (int i = 0; i < kIters; ++i) {
      auto journal_stream = MustOpen(kJournalPath);
      auto block_stream = MustOpen(kBlockPath);
      CheckpointStore ckpt(Env::Default(), kCkptBase);
      std::unique_ptr<Ledger> recovered;
      RecoveryInfo info;
      Status s;
      lat.Time([&] {
        s = recover(
            LedgerStorage{journal_stream.get(), block_stream.get(), &ckpt},
            &recovered, &info);
      });
      if (!s.ok()) {
        std::fprintf(stderr, "tail recover: %s\n", s.ToString().c_str());
        return 1;
      }
      used_checkpoint &= info.used_checkpoint;
      recovered_journals = recovered->NumJournals();
    }
    if (!used_checkpoint) {
      std::fprintf(stderr, "tail recover fell back to full replay\n");
      return 1;
    }
    double p50_us = lat.PercentileUs(50.0);
    double jps = static_cast<double>(recovered_journals) / (p50_us / 1e6);
    double speedup = full_replay_p50_us / p50_us;
    std::printf("%-28s %12.0f journals/s (p50 %.1fms, %.1fx vs full replay)\n",
                "checkpoint + tail replay", jps, p50_us / 1e3, speedup);
    json.Add("checkpoint_tail_replay", jps, lat);
    json.SetMeta("tail_replay_speedup", speedup);
  }

  // ---- Stage 5: offline integrity sweep (what `ledgerdb_cli fsck` runs).
  {
    auto store = MustOpen(kJournalPath);
    uint64_t frames = store->Count();
    LatencySampler lat;
    for (int i = 0; i < kIters; ++i) {
      lat.Time([&] {
        Status s = store->Fsck();
        if (!s.ok()) {
          std::fprintf(stderr, "fsck: %s\n", s.ToString().c_str());
          std::exit(1);
        }
      });
    }
    double secs = lat.PercentileUs(50.0) / 1e6;
    double fps = static_cast<double>(frames) / secs;
    std::printf("%-28s %12.0f frames/s   (p50 %.1fms)\n", "fsck (full CRC sweep)",
                fps, lat.PercentileUs(50.0) / 1e3);
    json.Add("fsck_crc_sweep", fps, lat);
  }

  RemoveStream(kJournalPath);
  RemoveStream(kBlockPath);
  RemoveCheckpoints(kCkptBase);
  return 0;
}

}  // namespace
}  // namespace ledgerdb

int main(int argc, char** argv) { return ledgerdb::Run(argc, argv); }
