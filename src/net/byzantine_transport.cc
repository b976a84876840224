#include "net/byzantine_transport.h"

#include <algorithm>

#include "net/wire.h"
#include "obs/metric_names.h"
#include "obs/metrics.h"

namespace ledgerdb {

namespace {

/// Wraps a response the socket wire codes with plain functions (a jsn or
/// a list), so it goes through the same generic fault plumbing as the
/// struct responses, in the socket wire's codec.
template <typename T, auto Encode, auto Decode>
struct Wire {
  T value{};

  Bytes Serialize() const { return Encode(value); }
  static bool Deserialize(Slice raw, Wire* out) {
    return Decode(raw, &out->value);
  }
};

using JsnWire = Wire<uint64_t, wire::EncodeJsnRequest, wire::DecodeJsnRequest>;
using JsnListWire =
    Wire<std::vector<uint64_t>, wire::EncodeJsnList, wire::DecodeJsnList>;
using DeltaListWire =
    Wire<std::vector<JournalDelta>, wire::EncodeDeltas, wire::DecodeDeltas>;
using HeaderListWire =
    Wire<std::vector<BlockHeader>, wire::EncodeHeaders, wire::DecodeHeaders>;

}  // namespace

const char* FaultKindName(FaultKind kind) {
  switch (kind) {
    case FaultKind::kNone:
      return "None";
    case FaultKind::kDrop:
      return "Drop";
    case FaultKind::kDelay:
      return "Delay";
    case FaultKind::kDuplicate:
      return "Duplicate";
    case FaultKind::kReorder:
      return "Reorder";
    case FaultKind::kTransientError:
      return "TransientError";
    case FaultKind::kForgeProof:
      return "ForgeProof";
    case FaultKind::kTruncateProof:
      return "TruncateProof";
    case FaultKind::kStaleRoot:
      return "StaleRoot";
    case FaultKind::kSubstituteReceipt:
      return "SubstituteReceipt";
    case FaultKind::kCorruptPayload:
      return "CorruptPayload";
    case FaultKind::kForgeSignature:
      return "ForgeSignature";
  }
  return "Unknown";
}

FaultKind ByzantineTransport::TakeFault(RpcOp op) {
  ++ops_;
  // The decorator is transparent to deadlines: whatever budget the caller
  // set flows through to the inner transport, so honest passthrough calls
  // time out exactly like un-decorated ones would.
  inner_->set_request_deadline_us(request_deadline_us_);
  LEDGERDB_OBS_COUNT_LABEL(obs::names::kNetRpcsTotal, "op", RpcOpName(op));
  uint64_t nth = op_counts_[Idx(op)]++;
  auto it = schedule_.find({static_cast<uint8_t>(op), nth});
  if (it == schedule_.end()) return FaultKind::kNone;
  ++faults_injected_;
  LEDGERDB_OBS_COUNT_LABEL(obs::names::kNetFaultsInjectedTotal, "kind",
                           FaultKindName(it->second));
  return it->second;
}

void ByzantineTransport::MutateBytes(Bytes* raw) {
  if (raw->empty()) return;
  size_t byte = rng_.Uniform(raw->size());
  int bit = static_cast<int>(rng_.Uniform(8));
  (*raw)[byte] ^= static_cast<uint8_t>(1u << bit);
}

Status ByzantineTransport::AppendTx(const ClientTransaction& tx,
                                    uint64_t* jsn) {
  FaultKind fault = TakeFault(RpcOp::kAppendTx);
  if (fault == FaultKind::kForgeProof ||
      fault == FaultKind::kSubstituteReceipt) {
    // Lie about the assigned jsn; the receipt check must catch it.
    LEDGERDB_RETURN_IF_ERROR(inner_->AppendTx(tx, jsn));
    *jsn += 1;
    return Status::OK();
  }
  JsnWire wire;
  Status st = HandleWire<JsnWire>(
      RpcOp::kAppendTx, fault, &wire,
      [&](JsnWire* o) { return inner_->AppendTx(tx, &o->value); });
  if (st.ok()) *jsn = wire.value;
  return st;
}

Status ByzantineTransport::GetReceipt(uint64_t jsn, Receipt* out) {
  FaultKind fault = TakeFault(RpcOp::kGetReceipt);
  if (fault == FaultKind::kSubstituteReceipt) {
    // A perfectly valid receipt — for a different journal.
    uint64_t other = jsn > 0 ? jsn - 1 : jsn + 1;
    return inner_->GetReceipt(other, out);
  }
  return HandleWire<Receipt>(RpcOp::kGetReceipt, fault, out,
                             [&](Receipt* o) {
                               return inner_->GetReceipt(jsn, o);
                             });
}

Status ByzantineTransport::GetJournal(uint64_t jsn, Journal* out) {
  FaultKind fault = TakeFault(RpcOp::kGetJournal);
  if (fault == FaultKind::kSubstituteReceipt) {
    uint64_t other = jsn > 0 ? jsn - 1 : jsn + 1;
    return inner_->GetJournal(other, out);
  }
  if (fault == FaultKind::kCorruptPayload) {
    LEDGERDB_RETURN_IF_ERROR(inner_->GetJournal(jsn, out));
    if (!out->payload.empty()) {
      out->payload[rng_.Uniform(out->payload.size())] ^= 0x01;
    } else {
      // Occulted journal: attack the retained digest instead.
      out->payload_digest.bytes[rng_.Uniform(out->payload_digest.bytes.size())] ^=
          0x01;
    }
    return Status::OK();
  }
  if (fault == FaultKind::kTruncateProof ||
      fault == FaultKind::kForgeSignature) {
    LEDGERDB_RETURN_IF_ERROR(inner_->GetJournal(jsn, out));
    if (fault == FaultKind::kTruncateProof) {
      // Hide the payload behind an occult flag no occult journal backs.
      out->occulted = true;
      out->payload.clear();
    } else if (!out->endorsements.empty()) {
      Signature& sig =
          out->endorsements[rng_.Uniform(out->endorsements.size())].signature;
      sig.s.limb[rng_.Uniform(4)] ^= 1ull << rng_.Uniform(64);
    }
    return Status::OK();
  }
  return HandleWire<Journal>(RpcOp::kGetJournal, fault, out,
                             [&](Journal* o) {
                               return inner_->GetJournal(jsn, o);
                             });
}

Status ByzantineTransport::GetProof(uint64_t jsn, FamProof* out) {
  FaultKind fault = TakeFault(RpcOp::kGetProof);
  if (fault == FaultKind::kTruncateProof) {
    LEDGERDB_RETURN_IF_ERROR(inner_->GetProof(jsn, out));
    if (!out->epoch_links.empty()) {
      out->epoch_links.pop_back();  // chain no longer reaches the live epoch
    } else if (!out->local.siblings.empty()) {
      out->local.siblings.pop_back();
      out->local.sibling_is_left.pop_back();
    }
    return Status::OK();
  }
  return HandleWire<FamProof>(RpcOp::kGetProof, fault, out,
                              [&](FamProof* o) {
                                return inner_->GetProof(jsn, o);
                              });
}

Status ByzantineTransport::GetClueProof(const std::string& clue,
                                        uint64_t begin, uint64_t end,
                                        ClueProof* out) {
  FaultKind fault = TakeFault(RpcOp::kGetClueProof);
  if (fault == FaultKind::kTruncateProof) {
    LEDGERDB_RETURN_IF_ERROR(inner_->GetClueProof(clue, begin, end, out));
    if (!out->batch.nodes.empty()) {
      out->batch.nodes.pop_back();
    } else if (!out->batch.peaks.empty()) {
      out->batch.peaks.pop_back();
    }
    return Status::OK();
  }
  return HandleWire<ClueProof>(
      RpcOp::kGetClueProof, fault, out, [&](ClueProof* o) {
        return inner_->GetClueProof(clue, begin, end, o);
      });
}

Status ByzantineTransport::ListTx(const std::string& clue,
                                  std::vector<uint64_t>* jsns) {
  FaultKind fault = TakeFault(RpcOp::kListTx);
  if (fault == FaultKind::kTruncateProof) {
    // Present an incomplete lineage (hide the newest entry for the clue).
    LEDGERDB_RETURN_IF_ERROR(inner_->ListTx(clue, jsns));
    if (!jsns->empty()) jsns->pop_back();
    return Status::OK();
  }
  JsnListWire wire;
  Status st = HandleWire<JsnListWire>(
      RpcOp::kListTx, fault, &wire, [&](JsnListWire* o) {
        return inner_->ListTx(clue, &o->value);
      });
  if (st.ok()) *jsns = std::move(wire.value);
  return st;
}

Status ByzantineTransport::GetProofBatch(const std::vector<uint64_t>& jsns,
                                         FamBatchProof* out) {
  FaultKind fault = TakeFault(RpcOp::kGetProofBatch);
  if (fault == FaultKind::kTruncateProof) {
    // Structurally plausible, cryptographically incomplete: shorten the
    // link chain (the proof stops connecting to the live root) or thin
    // the last group's shared node set.
    LEDGERDB_RETURN_IF_ERROR(inner_->GetProofBatch(jsns, out));
    if (!out->epoch_links.empty()) {
      out->epoch_links.pop_back();
    } else if (!out->groups.empty() && !out->groups.back().batch.nodes.empty()) {
      out->groups.back().batch.nodes.pop_back();
    } else if (!out->groups.empty() && !out->groups.back().batch.peaks.empty()) {
      out->groups.back().batch.peaks.pop_back();
    }
    return Status::OK();
  }
  return HandleWire<FamBatchProof>(
      RpcOp::kGetProofBatch, fault, out, [&](FamBatchProof* o) {
        return inner_->GetProofBatch(jsns, o);
      });
}

Status ByzantineTransport::ProveClueRange(const std::string& clue,
                                          Timestamp from, Timestamp to,
                                          ClueRangeResult* out) {
  FaultKind fault = TakeFault(RpcOp::kProveClueRange);
  if (fault == FaultKind::kTruncateProof) {
    // Hide the newest selected journal: the batch-audit's completeness
    // check (journal count vs claimed entry range) must catch it.
    LEDGERDB_RETURN_IF_ERROR(inner_->ProveClueRange(clue, from, to, out));
    if (!out->journals.empty()) out->journals.pop_back();
    return Status::OK();
  }
  if (fault == FaultKind::kCorruptPayload) {
    LEDGERDB_RETURN_IF_ERROR(inner_->ProveClueRange(clue, from, to, out));
    for (Journal& journal : out->journals) {
      if (!journal.payload.empty()) {
        journal.payload[rng_.Uniform(journal.payload.size())] ^= 0x01;
        return Status::OK();
      }
    }
    if (!out->journals.empty()) {
      Journal& journal = out->journals.front();
      journal.payload_digest
          .bytes[rng_.Uniform(journal.payload_digest.bytes.size())] ^= 0x01;
    }
    return Status::OK();
  }
  return HandleWire<ClueRangeResult>(
      RpcOp::kProveClueRange, fault, out, [&](ClueRangeResult* o) {
        return inner_->ProveClueRange(clue, from, to, o);
      });
}

Status ByzantineTransport::GetHeaders(uint64_t first_height,
                                      uint64_t end_height,
                                      std::vector<BlockHeader>* out) {
  // Network faults go through the generic plumbing; every mutation kind
  // is typed here and hits one seeded header that has a predecessor.
  FaultKind fault = TakeFault(RpcOp::kGetHeaders);
  const bool typed = fault >= FaultKind::kForgeProof;
  HeaderListWire wire;
  LEDGERDB_RETURN_IF_ERROR(HandleWire<HeaderListWire>(
      RpcOp::kGetHeaders, typed ? FaultKind::kNone : fault, &wire,
      [&](HeaderListWire* o) {
        return inner_->GetHeaders(first_height, end_height, &o->value);
      }));
  *out = std::move(wire.value);
  if (!typed || out->size() < 2) return Status::OK();
  const size_t i = 1 + rng_.Uniform(out->size() - 1);
  BlockHeader& header = (*out)[i];
  if (fault == FaultKind::kForgeProof) {
    header.prev_block_hash.bytes[rng_.Uniform(32)] ^= 0x01;
  } else if (fault == FaultKind::kCorruptPayload) {
    header.tx_root.bytes[rng_.Uniform(32)] ^= 0x01;
  } else if (fault == FaultKind::kStaleRoot) {
    header.fam_root = (*out)[i - 1].fam_root;
  } else if (fault == FaultKind::kTruncateProof) {
    out->erase(out->begin() + static_cast<long>(i - 1));  // leaves a gap
  }
  return Status::OK();
}

Status ByzantineTransport::GetCommitment(SignedCommitment* out) {
  FaultKind fault = TakeFault(RpcOp::kGetCommitment);
  if (fork_mirror_ != nullptr) {
    // Equivocation mode: commit to the forked view. The fork mirror is
    // caught up with mutated deltas, so the forged commitment is fully
    // self-consistent with what GetDelta serves this client.
    SignedCommitment honest;
    LEDGERDB_RETURN_IF_ERROR(inner_->GetCommitment(&honest));
    const uint64_t base = fork_mirror_->journal_count();
    if (honest.journal_count > base) {
      std::vector<JournalDelta> deltas;
      LEDGERDB_RETURN_IF_ERROR(ReadDeltas(inner_, RetryPolicy(), base,
                                          honest.journal_count, &deltas));
      for (size_t i = 0; i < deltas.size(); ++i) {
        ForkDelta(base + i, &deltas[i]);
        LEDGERDB_RETURN_IF_ERROR(fork_mirror_->Apply(deltas[i]));
      }
    }
    out->ledger_uri = honest.ledger_uri;
    out->journal_count = fork_mirror_->journal_count();
    out->fam_root = fork_mirror_->fam_root();
    out->clue_root = fork_mirror_->clue_root();
    out->state_root = fork_mirror_->state_root();
    out->timestamp = honest.timestamp;
    out->lsp_sig = forger_->Sign(out->MessageHash());
    return Status::OK();
  }
  if (fault == FaultKind::kStaleRoot) {
    if (commitment_cache_.empty()) {
      // Nothing old to replay yet; capture and serve the live one.
      LEDGERDB_RETURN_IF_ERROR(inner_->GetCommitment(out));
      commitment_cache_.push_back(*out);
      return Status::OK();
    }
    *out = commitment_cache_.front();
    return Status::OK();
  }
  Status st = HandleWire<SignedCommitment>(
      RpcOp::kGetCommitment, fault, out, [&](SignedCommitment* o) {
        return inner_->GetCommitment(o);
      });
  if (st.ok() && fault == FaultKind::kNone) commitment_cache_.push_back(*out);
  return st;
}

Status ByzantineTransport::GetDelta(uint64_t from, uint64_t to,
                                    std::vector<JournalDelta>* out) {
  FaultKind fault = TakeFault(RpcOp::kGetDelta);
  if (fork_mirror_ != nullptr) {
    LEDGERDB_RETURN_IF_ERROR(inner_->GetDelta(from, to, out));
    for (size_t i = 0; i < out->size(); ++i) ForkDelta(from + i, &(*out)[i]);
    return Status::OK();
  }
  if (fault == FaultKind::kTruncateProof) {
    // Serve fewer deltas than the range asked for.
    LEDGERDB_RETURN_IF_ERROR(inner_->GetDelta(from, to, out));
    if (!out->empty()) out->pop_back();
    return Status::OK();
  }
  DeltaListWire wire;
  Status st = HandleWire<DeltaListWire>(
      RpcOp::kGetDelta, fault, &wire, [&](DeltaListWire* o) {
        return inner_->GetDelta(from, to, &o->value);
      });
  if (st.ok()) *out = std::move(wire.value);
  return st;
}

}  // namespace ledgerdb
