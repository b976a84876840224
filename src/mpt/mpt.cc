#include "mpt/mpt.h"

#include <array>

namespace ledgerdb {

Bytes MptProof::Serialize() const {
  Bytes out;
  PutU32(&out, static_cast<uint32_t>(nodes.size()));
  for (const Bytes& node : nodes) PutLengthPrefixed(&out, node);
  return out;
}

bool MptProof::Deserialize(Slice raw, MptProof* out) {
  ByteReader r(raw);
  out->nodes.assign(r.Count(4096), Bytes());
  for (Bytes& node : out->nodes) node = r.LengthPrefixed().ToBytes();
  return r.AtEnd();
}

std::vector<uint8_t> KeyToNibbles(const Digest& key) {
  std::vector<uint8_t> nibbles;
  nibbles.reserve(64);
  for (uint8_t byte : key.bytes) {
    nibbles.push_back(byte >> 4);
    nibbles.push_back(byte & 0xf);
  }
  return nibbles;
}

namespace {

constexpr uint8_t kLeafTag = 0;
constexpr uint8_t kExtensionTag = 1;
constexpr uint8_t kBranchTag = 2;

struct Node {
  uint8_t type = kLeafTag;
  std::vector<uint8_t> path;           // leaf & extension
  Bytes value;                         // leaf
  Digest child;                        // extension
  std::array<Digest, 16> children{};   // branch
  std::array<bool, 16> has_child{};    // branch

  Bytes Serialize() const {
    Bytes out;
    out.push_back(type);
    switch (type) {
      case kLeafTag:
        PutU32(&out, static_cast<uint32_t>(path.size()));
        out.insert(out.end(), path.begin(), path.end());
        PutLengthPrefixed(&out, value);
        break;
      case kExtensionTag:
        PutU32(&out, static_cast<uint32_t>(path.size()));
        out.insert(out.end(), path.begin(), path.end());
        PutDigest(&out, child);
        break;
      case kBranchTag:
        for (int i = 0; i < 16; ++i) {
          out.push_back(has_child[i] ? 1 : 0);
          if (has_child[i]) PutDigest(&out, children[i]);
        }
        break;
    }
    return out;
  }

  static bool Deserialize(Slice raw, Node* node) {
    ByteReader r(raw);
    node->type = r.U8();
    switch (node->type) {
      case kLeafTag:
      case kExtensionTag: {
        Slice path = r.LengthPrefixed();
        if (path.size() > 64) return false;
        node->path.assign(path.data(), path.data() + path.size());
        if (node->type == kLeafTag) {
          node->value = r.LengthPrefixed().ToBytes();
        } else {
          node->child = r.Digest();
        }
        break;
      }
      case kBranchTag:
        for (int i = 0; i < 16; ++i) {
          node->has_child[i] = r.Bool();  // canonical flag bytes only
          if (node->has_child[i]) node->children[i] = r.Digest();
        }
        break;
      default:
        return false;
    }
    return r.AtEnd();
  }
};

size_t CommonPrefix(const uint8_t* a, size_t an, const uint8_t* b, size_t bn) {
  size_t n = std::min(an, bn);
  size_t i = 0;
  while (i < n && a[i] == b[i]) ++i;
  return i;
}

}  // namespace

Digest Mpt::WriteNode(const Bytes& serialized, int depth) {
  Digest h = Sha256::Hash(serialized);
  auto* tiered = dynamic_cast<TieredNodeStore*>(store_);
  if (tiered != nullptr && cache_depth_ > 0) {
    tiered->PutTiered(h, Slice(serialized), depth < cache_depth_);
  } else {
    store_->Put(h, Slice(serialized));
  }
  ++nodes_written_;
  return h;
}

Digest Mpt::PutRec(const Digest& node_ref, PathView path, Slice value,
                   int depth, Status* status) {
  if (node_ref.IsZero()) {
    Node leaf;
    leaf.type = kLeafTag;
    leaf.path.assign(path.nibbles, path.nibbles + path.size);
    leaf.value = value.ToBytes();
    return WriteNode(leaf.Serialize(), depth);
  }

  Bytes raw;
  Status s = store_->Get(node_ref, &raw);
  if (!s.ok()) {
    *status = s;
    return Digest();
  }
  Node node;
  if (!Node::Deserialize(raw, &node)) {
    *status = Status::Corruption("undecodable MPT node");
    return Digest();
  }

  if (node.type == kLeafTag) {
    size_t common = CommonPrefix(node.path.data(), node.path.size(),
                                 path.nibbles, path.size);
    if (common == node.path.size() && common == path.size) {
      Node replacement = node;
      replacement.value = value.ToBytes();
      return WriteNode(replacement.Serialize(), depth);
    }
    // Keys are fixed-length, so both suffixes diverge at `common`.
    Node branch;
    branch.type = kBranchTag;
    uint8_t old_nibble = node.path[common];
    uint8_t new_nibble = path.nibbles[common];

    Node old_leaf;
    old_leaf.type = kLeafTag;
    old_leaf.path.assign(node.path.begin() + static_cast<long>(common) + 1,
                         node.path.end());
    old_leaf.value = node.value;
    branch.children[old_nibble] =
        WriteNode(old_leaf.Serialize(), depth + static_cast<int>(common) + 1);
    branch.has_child[old_nibble] = true;

    Node new_leaf;
    new_leaf.type = kLeafTag;
    new_leaf.path.assign(path.nibbles + common + 1, path.nibbles + path.size);
    new_leaf.value = value.ToBytes();
    branch.children[new_nibble] =
        WriteNode(new_leaf.Serialize(), depth + static_cast<int>(common) + 1);
    branch.has_child[new_nibble] = true;

    Digest branch_ref =
        WriteNode(branch.Serialize(), depth + static_cast<int>(common));
    if (common == 0) return branch_ref;
    Node ext;
    ext.type = kExtensionTag;
    ext.path.assign(path.nibbles, path.nibbles + common);
    ext.child = branch_ref;
    return WriteNode(ext.Serialize(), depth);
  }

  if (node.type == kExtensionTag) {
    size_t common = CommonPrefix(node.path.data(), node.path.size(),
                                 path.nibbles, path.size);
    if (common == node.path.size()) {
      Digest new_child =
          PutRec(node.child, {path.nibbles + common, path.size - common},
                 value, depth + static_cast<int>(common), status);
      if (!status->ok()) return Digest();
      Node ext = node;
      ext.child = new_child;
      return WriteNode(ext.Serialize(), depth);
    }
    // Split the extension at `common`.
    Node branch;
    branch.type = kBranchTag;
    uint8_t ext_nibble = node.path[common];
    uint8_t new_nibble = path.nibbles[common];

    Digest ext_child_ref;
    if (node.path.size() - common - 1 > 0) {
      Node tail;
      tail.type = kExtensionTag;
      tail.path.assign(node.path.begin() + static_cast<long>(common) + 1,
                       node.path.end());
      tail.child = node.child;
      ext_child_ref =
          WriteNode(tail.Serialize(), depth + static_cast<int>(common) + 1);
    } else {
      ext_child_ref = node.child;
    }
    branch.children[ext_nibble] = ext_child_ref;
    branch.has_child[ext_nibble] = true;

    Node new_leaf;
    new_leaf.type = kLeafTag;
    new_leaf.path.assign(path.nibbles + common + 1, path.nibbles + path.size);
    new_leaf.value = value.ToBytes();
    branch.children[new_nibble] =
        WriteNode(new_leaf.Serialize(), depth + static_cast<int>(common) + 1);
    branch.has_child[new_nibble] = true;

    Digest branch_ref =
        WriteNode(branch.Serialize(), depth + static_cast<int>(common));
    if (common == 0) return branch_ref;
    Node head;
    head.type = kExtensionTag;
    head.path.assign(path.nibbles, path.nibbles + common);
    head.child = branch_ref;
    return WriteNode(head.Serialize(), depth);
  }

  // Branch node.
  if (path.size == 0) {
    *status = Status::Corruption("key exhausted at branch node");
    return Digest();
  }
  uint8_t nibble = path.nibbles[0];
  Digest old_child = node.has_child[nibble] ? node.children[nibble] : Digest();
  Digest new_child = PutRec(old_child, {path.nibbles + 1, path.size - 1},
                            value, depth + 1, status);
  if (!status->ok()) return Digest();
  Node branch = node;
  branch.children[nibble] = new_child;
  branch.has_child[nibble] = true;
  return WriteNode(branch.Serialize(), depth);
}

Status Mpt::Put(const Digest& root, const Digest& key, Slice value,
                Digest* new_root) {
  std::vector<uint8_t> nibbles = KeyToNibbles(key);
  Status status = Status::OK();
  Digest result =
      PutRec(root, {nibbles.data(), nibbles.size()}, value, 0, &status);
  if (!status.ok()) return status;
  *new_root = result;
  return Status::OK();
}

Status Mpt::Get(const Digest& root, const Digest& key, Bytes* value) const {
  std::vector<uint8_t> nibbles = KeyToNibbles(key);
  size_t consumed = 0;
  Digest ref = root;
  while (true) {
    if (ref.IsZero()) return Status::NotFound("key not in trie");
    Bytes raw;
    LEDGERDB_RETURN_IF_ERROR(store_->Get(ref, &raw));
    Node node;
    if (!Node::Deserialize(raw, &node)) {
      return Status::Corruption("undecodable MPT node");
    }
    switch (node.type) {
      case kLeafTag: {
        if (node.path.size() != nibbles.size() - consumed ||
            !std::equal(node.path.begin(), node.path.end(),
                        nibbles.begin() + static_cast<long>(consumed))) {
          return Status::NotFound("key not in trie");
        }
        *value = node.value;
        return Status::OK();
      }
      case kExtensionTag: {
        if (node.path.size() > nibbles.size() - consumed ||
            !std::equal(node.path.begin(), node.path.end(),
                        nibbles.begin() + static_cast<long>(consumed))) {
          return Status::NotFound("key not in trie");
        }
        consumed += node.path.size();
        ref = node.child;
        break;
      }
      default: {  // branch
        if (consumed >= nibbles.size()) {
          return Status::Corruption("key exhausted at branch node");
        }
        uint8_t nibble = nibbles[consumed++];
        if (!node.has_child[nibble]) return Status::NotFound("key not in trie");
        ref = node.children[nibble];
        break;
      }
    }
  }
}

Status Mpt::GetProof(const Digest& root, const Digest& key,
                     MptProof* proof) const {
  proof->nodes.clear();
  std::vector<uint8_t> nibbles = KeyToNibbles(key);
  size_t consumed = 0;
  Digest ref = root;
  while (true) {
    if (ref.IsZero()) return Status::NotFound("key not in trie");
    Bytes raw;
    LEDGERDB_RETURN_IF_ERROR(store_->Get(ref, &raw));
    proof->nodes.push_back(raw);
    Node node;
    if (!Node::Deserialize(raw, &node)) {
      return Status::Corruption("undecodable MPT node");
    }
    switch (node.type) {
      case kLeafTag:
        if (node.path.size() != nibbles.size() - consumed ||
            !std::equal(node.path.begin(), node.path.end(),
                        nibbles.begin() + static_cast<long>(consumed))) {
          return Status::NotFound("key not in trie");
        }
        return Status::OK();
      case kExtensionTag:
        if (node.path.size() > nibbles.size() - consumed ||
            !std::equal(node.path.begin(), node.path.end(),
                        nibbles.begin() + static_cast<long>(consumed))) {
          return Status::NotFound("key not in trie");
        }
        consumed += node.path.size();
        ref = node.child;
        break;
      default:
        if (consumed >= nibbles.size()) {
          return Status::Corruption("key exhausted at branch node");
        }
        uint8_t nibble = nibbles[consumed++];
        if (!node.has_child[nibble]) return Status::NotFound("key not in trie");
        ref = node.children[nibble];
        break;
    }
  }
}

Status Mpt::CollectReachable(
    const Digest& root,
    std::unordered_set<Digest, DigestHasher>* live) const {
  if (root.IsZero() || live->count(root) > 0) return Status::OK();
  Bytes raw;
  LEDGERDB_RETURN_IF_ERROR(store_->Get(root, &raw));
  Node node;
  if (!Node::Deserialize(raw, &node)) {
    return Status::Corruption("undecodable MPT node");
  }
  live->insert(root);
  switch (node.type) {
    case kLeafTag:
      return Status::OK();
    case kExtensionTag:
      return CollectReachable(node.child, live);
    default:
      for (int i = 0; i < 16; ++i) {
        if (node.has_child[i]) {
          LEDGERDB_RETURN_IF_ERROR(CollectReachable(node.children[i], live));
        }
      }
      return Status::OK();
  }
}

bool Mpt::VerifyProof(const Digest& trusted_root, const Digest& key,
                      Slice expected_value, const MptProof& proof) {
  if (proof.nodes.empty()) return false;
  std::vector<uint8_t> nibbles = KeyToNibbles(key);
  size_t consumed = 0;
  Digest expected_ref = trusted_root;
  for (size_t i = 0; i < proof.nodes.size(); ++i) {
    const Bytes& raw = proof.nodes[i];
    if (Sha256::Hash(raw) != expected_ref) return false;
    Node node;
    if (!Node::Deserialize(raw, &node)) return false;
    bool is_last = (i + 1 == proof.nodes.size());
    switch (node.type) {
      case kLeafTag: {
        if (!is_last) return false;
        if (node.path.size() != nibbles.size() - consumed) return false;
        if (!std::equal(node.path.begin(), node.path.end(),
                        nibbles.begin() + static_cast<long>(consumed))) {
          return false;
        }
        return Slice(node.value) == expected_value;
      }
      case kExtensionTag: {
        if (is_last) return false;
        if (node.path.size() > nibbles.size() - consumed) return false;
        if (!std::equal(node.path.begin(), node.path.end(),
                        nibbles.begin() + static_cast<long>(consumed))) {
          return false;
        }
        consumed += node.path.size();
        expected_ref = node.child;
        break;
      }
      case kBranchTag: {
        if (is_last || consumed >= nibbles.size()) return false;
        uint8_t nibble = nibbles[consumed++];
        if (!node.has_child[nibble]) return false;
        expected_ref = node.children[nibble];
        break;
      }
      default:
        return false;
    }
  }
  return false;
}

}  // namespace ledgerdb
