#include "ledger/ledger_mirror.h"

namespace ledgerdb {

Status LedgerMirror::Apply(const JournalDelta& delta) {
  fam_.Append(delta.tx_hash);
  for (const std::string& clue : delta.clues) {
    LEDGERDB_RETURN_IF_ERROR(cmtree_.Append(clue, delta.tx_hash, nullptr));
    world_state_.Put(clue, delta.payload_digest.ToBytes());
  }
  return Status::OK();
}

Status LedgerMirror::AppendCheckpointSections(Bytes* snapshot) const {
  Bytes fam;
  fam_.SerializeTo(&fam);
  Bytes cm;
  LEDGERDB_RETURN_IF_ERROR(cmtree_.SerializeTo(&cm));
  Bytes ws;
  world_state_.SerializeTo(&ws);
  CheckpointAppendSection(snapshot, kCkptSectionFam, fam);
  CheckpointAppendSection(snapshot, kCkptSectionCmTree, cm);
  CheckpointAppendSection(snapshot, kCkptSectionWorldState, ws);
  return Status::OK();
}

Status LedgerMirror::RestoreCheckpointSections(
    const std::map<uint32_t, Slice>& sections,
    const CheckpointManifest& manifest) {
  if (!FamAccumulator::DeserializeFrom(sections.at(kCkptSectionFam), &fam_)) {
    return Status::Corruption("checkpoint: fam section invalid");
  }
  if (fam_.size() != manifest.watermark) {
    return Status::Corruption("checkpoint: fam journal count != watermark");
  }
  LEDGERDB_RETURN_IF_ERROR(
      cmtree_.RestoreFrom(sections.at(kCkptSectionCmTree)));
  LEDGERDB_RETURN_IF_ERROR(
      world_state_.RestoreFrom(sections.at(kCkptSectionWorldState)));
  // The restored roots must equal the signed commitment — the check that
  // makes adopting serialized hash structures as safe as recomputing them:
  // a structure that doesn't re-derive to the committed roots is rejected
  // wholesale.
  if (fam_root() != manifest.fam_root || clue_root() != manifest.clue_root ||
      state_root() != manifest.state_root) {
    return Status::Corruption("checkpoint: restored roots != manifest roots");
  }
  return Status::OK();
}

}  // namespace ledgerdb
