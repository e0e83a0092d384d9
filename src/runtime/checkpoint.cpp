#include "runtime/checkpoint.hpp"

#include <cstring>
#include <filesystem>
#include <limits>
#include <utility>

#include "util/varint.hpp"

namespace cpart {

namespace {

constexpr char kMagic[4] = {'c', 'p', 'c', 'k'};
constexpr std::uint8_t kVersion = 1;
constexpr char kManifestMagic[4] = {'c', 'p', 'm', 'f'};
constexpr std::uint8_t kManifestVersion = 1;

void append_u64(std::string& out, std::uint64_t v) {
  char buf[sizeof(std::uint64_t)];
  std::memcpy(buf, &v, sizeof(std::uint64_t));
  out.append(buf, sizeof(std::uint64_t));
}

/// Appends the FNV-1a of everything already in `out` — the trailing
/// integrity frame both the checkpoint and the manifest share.
void seal_checksum(std::string& out) {
  append_u64(out, fnv1a_bytes(kFnvOffsetBasis, out.data(), out.size()));
}

/// Validates the trailing checksum and returns the payload view before it.
std::string_view check_seal(std::string_view bytes, const char* what) {
  require(bytes.size() >= sizeof(std::uint64_t),
          std::string(what) + ": truncated before checksum");
  const std::size_t payload = bytes.size() - sizeof(std::uint64_t);
  std::uint64_t stored = 0;
  std::memcpy(&stored, bytes.data() + payload, sizeof(std::uint64_t));
  require(stored == fnv1a_bytes(kFnvOffsetBasis, bytes.data(), payload),
          std::string(what) + ": checksum mismatch");
  return bytes.substr(0, payload);
}

std::uint64_t read_varint_or_throw(std::string_view bytes, std::size_t& pos,
                                   const char* what) {
  std::uint64_t value = 0;
  require(read_varint(bytes, pos, value),
          std::string("checkpoint: truncated or overlong ") + what);
  return value;
}

idx_t read_idx_or_throw(std::string_view bytes, std::size_t& pos,
                        const char* what) {
  const std::uint64_t value = read_varint_or_throw(bytes, pos, what);
  require(value <=
              static_cast<std::uint64_t>(std::numeric_limits<idx_t>::max()),
          std::string("checkpoint: out-of-range ") + what);
  return static_cast<idx_t>(value);
}

}  // namespace

std::string encode_checkpoint(const CheckpointData& data) {
  const std::size_t n = data.node_owner.size();
  require(data.k >= 1, "checkpoint: k must be >= 1");
  require(data.step >= 0, "checkpoint: negative step");
  require(data.positions.size() == n && data.contact_hits.size() == n,
          "checkpoint: state arrays must match the ownership map");

  std::string out;
  out.append(kMagic, sizeof(kMagic));
  out.push_back(static_cast<char>(kVersion));
  append_varint(out, data.config_hash);
  append_varint(out, static_cast<std::uint64_t>(data.step));
  append_varint(out, data.superstep);
  append_varint(out, static_cast<std::uint64_t>(data.k));
  append_varint(out, static_cast<std::uint64_t>(n));
  for (idx_t o : data.node_owner) {
    require(o >= 0 && o < data.k, "checkpoint: owner out of range");
    append_varint(out, static_cast<std::uint64_t>(o));
  }
  for (idx_t r = 0; r < data.k; ++r) {
    std::uint64_t owned = 0;
    for (idx_t o : data.node_owner) owned += o == r ? 1 : 0;
    append_varint(out, owned);
    for (std::size_t v = 0; v < n; ++v) {
      if (data.node_owner[v] != r) continue;
      const Vec3& p = data.positions[v];
      append_f64(out, p.x);
      append_f64(out, p.y);
      append_f64(out, p.z);
      require(data.contact_hits[v] >= 0, "checkpoint: negative hit count");
      append_varint(out, static_cast<std::uint64_t>(data.contact_hits[v]));
    }
  }
  seal_checksum(out);
  return out;
}

CheckpointData decode_checkpoint(std::string_view bytes) {
  const std::string_view payload = check_seal(bytes, "checkpoint");
  require(payload.size() >= sizeof(kMagic) + 1,
          "checkpoint: truncated header");
  require(std::memcmp(payload.data(), kMagic, sizeof(kMagic)) == 0,
          "checkpoint: bad magic");
  std::size_t pos = sizeof(kMagic);
  const std::uint8_t version = static_cast<std::uint8_t>(payload[pos++]);
  require(version == kVersion, "checkpoint: unsupported version");

  CheckpointData data;
  data.config_hash = read_varint_or_throw(payload, pos, "config hash");
  data.step = read_idx_or_throw(payload, pos, "step");
  data.superstep = read_varint_or_throw(payload, pos, "superstep");
  data.k = read_idx_or_throw(payload, pos, "rank count");
  require(data.k >= 1, "checkpoint: k must be >= 1");
  const idx_t num_nodes = read_idx_or_throw(payload, pos, "node count");
  // Every node costs at least one owner byte, so this bound rejects a
  // hostile count before it can drive a huge allocation.
  require(static_cast<std::size_t>(num_nodes) <= payload.size() - pos,
          "checkpoint: node count exceeds payload");

  data.node_owner.resize(static_cast<std::size_t>(num_nodes));
  std::vector<std::uint64_t> owned_of(static_cast<std::size_t>(data.k), 0);
  for (idx_t v = 0; v < num_nodes; ++v) {
    const idx_t o = read_idx_or_throw(payload, pos, "owner");
    require(o < data.k, "checkpoint: owner out of range");
    data.node_owner[static_cast<std::size_t>(v)] = o;
    ++owned_of[static_cast<std::size_t>(o)];
  }

  data.positions.resize(static_cast<std::size_t>(num_nodes));
  data.contact_hits.resize(static_cast<std::size_t>(num_nodes));
  for (idx_t r = 0; r < data.k; ++r) {
    const std::uint64_t owned =
        read_varint_or_throw(payload, pos, "owned count");
    require(owned == owned_of[static_cast<std::size_t>(r)],
            "checkpoint: rank section disagrees with the ownership map");
    for (idx_t v = 0; v < num_nodes; ++v) {
      if (data.node_owner[static_cast<std::size_t>(v)] != r) continue;
      require(payload.size() - pos >= 3 * sizeof(double),
              "checkpoint: truncated position");
      const char* at = payload.data() + pos;
      data.positions[static_cast<std::size_t>(v)] =
          Vec3{read_f64(at), read_f64(at + 8), read_f64(at + 16)};
      pos += 3 * sizeof(double);
      const std::uint64_t hits =
          read_varint_or_throw(payload, pos, "hit count");
      require(hits <= static_cast<std::uint64_t>(
                          std::numeric_limits<wgt_t>::max()),
              "checkpoint: out-of-range hit count");
      data.contact_hits[static_cast<std::size_t>(v)] =
          static_cast<wgt_t>(hits);
    }
  }
  require(pos == payload.size(), "checkpoint: trailing garbage");
  return data;
}

CheckpointStore::CheckpointStore(std::string dir, FileShim& shim)
    : dir_(std::move(dir)), shim_(&shim) {
  require(!dir_.empty(), "CheckpointStore: empty directory");
  std::error_code ec;
  std::filesystem::create_directories(dir_, ec);
}

std::string CheckpointStore::manifest_path() const {
  return dir_ + "/MANIFEST.cpmf";
}

std::string CheckpointStore::checkpoint_path(idx_t step) const {
  return dir_ + "/ckpt_" + std::to_string(step) + ".cpck";
}

bool CheckpointStore::commit_with_retry(const std::string& path,
                                        const std::string& bytes,
                                        const RetryPolicy& retry,
                                        double* backoff_ms) {
  for (idx_t attempt = 0; attempt < retry.max_attempts; ++attempt) {
    if (attempt > 0 && backoff_ms != nullptr) {
      *backoff_ms += retry.backoff_for(attempt - 1);
    }
    if (atomic_write_file(path, bytes, *shim_)) return true;
  }
  return false;
}

bool CheckpointStore::write(const CheckpointData& data,
                            const RetryPolicy& retry, double* backoff_ms) {
  const std::string path = checkpoint_path(data.step);

  // Remember what the manifest points at now, so the superseded blob can be
  // removed after — and only after — the new manifest commits.
  std::string previous;
  {
    std::string manifest_bytes;
    if (shim_->read_file(manifest_path(), manifest_bytes)) {
      try {
        std::string_view payload = check_seal(manifest_bytes, "manifest");
        std::size_t pos = sizeof(kManifestMagic) + 1;
        if (payload.size() >= pos &&
            std::memcmp(payload.data(), kManifestMagic,
                        sizeof(kManifestMagic)) == 0) {
          read_varint_or_throw(payload, pos, "manifest step");
          const std::uint64_t len =
              read_varint_or_throw(payload, pos, "manifest name length");
          if (len <= payload.size() - pos) {
            previous.assign(payload.substr(pos, len));
          }
        }
      } catch (const InputError&) {
        // A damaged manifest has no blob worth preserving by name.
      }
    }
  }

  if (!commit_with_retry(path, encode_checkpoint(data), retry, backoff_ms)) {
    return false;
  }

  std::string manifest;
  manifest.append(kManifestMagic, sizeof(kManifestMagic));
  manifest.push_back(static_cast<char>(kManifestVersion));
  append_varint(manifest, static_cast<std::uint64_t>(data.step));
  const std::string name = "ckpt_" + std::to_string(data.step) + ".cpck";
  append_varint(manifest, name.size());
  manifest.append(name);
  seal_checksum(manifest);
  if (!commit_with_retry(manifest_path(), manifest, retry, backoff_ms)) {
    return false;
  }

  if (!previous.empty() && previous != name) {
    shim_->remove_file(dir_ + "/" + previous);
  }
  return true;
}

std::optional<CheckpointData> CheckpointStore::load() const {
  std::string manifest_bytes;
  if (!shim_->read_file(manifest_path(), manifest_bytes)) return std::nullopt;
  try {
    const std::string_view payload = check_seal(manifest_bytes, "manifest");
    require(payload.size() >= sizeof(kManifestMagic) + 1,
            "manifest: truncated header");
    require(std::memcmp(payload.data(), kManifestMagic,
                        sizeof(kManifestMagic)) == 0,
            "manifest: bad magic");
    std::size_t pos = sizeof(kManifestMagic);
    require(static_cast<std::uint8_t>(payload[pos++]) == kManifestVersion,
            "manifest: unsupported version");
    read_varint_or_throw(payload, pos, "manifest step");
    const std::uint64_t len =
        read_varint_or_throw(payload, pos, "manifest name length");
    require(len == payload.size() - pos, "manifest: trailing garbage");
    const std::string name(payload.substr(pos, len));

    std::string blob;
    if (!shim_->read_file(dir_ + "/" + name, blob)) return std::nullopt;
    return decode_checkpoint(blob);
  } catch (const InputError&) {
    return std::nullopt;
  }
}

}  // namespace cpart
